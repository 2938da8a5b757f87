//! Shared experiment options and a minimal CLI-flag parser for
//! `all_figures`.

use rsched_cpsolver::SolverConfig;

/// Options shared by every figure harness.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentOptions {
    /// Root seed; everything derives from it.
    pub seed: u64,
    /// Scale factor: `quick` shrinks job counts ~4× for smoke runs and CI.
    pub quick: bool,
    /// Solver budget for the OR-Tools baseline.
    pub solver: SolverConfig,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seed: 2025,
            quick: false,
            solver: SolverConfig::default(),
        }
    }
}

impl ExperimentOptions {
    /// Parse `--seed N` and `--quick` from the process args (unknown flags
    /// are rejected with a message listing the supported ones).
    pub fn from_args() -> Result<Self, String> {
        let mut opts = ExperimentOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--seed requires a value".to_string())?;
                    opts.seed = value
                        .parse()
                        .map_err(|e| format!("bad --seed `{value}`: {e}"))?;
                }
                "--help" | "-h" => {
                    return Err("usage: [--seed N] [--quick]".to_string());
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        Ok(opts)
    }

    /// Scale a job count down in quick mode (minimum 8).
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 4).max(8)
        } else {
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = ExperimentOptions::default();
        assert_eq!(o.seed, 2025);
        assert!(!o.quick);
    }

    #[test]
    fn scaling() {
        let mut o = ExperimentOptions::default();
        assert_eq!(o.scaled(60), 60);
        o.quick = true;
        assert_eq!(o.scaled(60), 15);
        assert_eq!(o.scaled(10), 8);
    }
}
