//! The repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! rsched-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rsched-benchmark run (--all | --workload <name>) [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
//! rsched-benchmark compare <baseline.json> <candidate.json>
//! ```
//!
//! The first form is one measured run in this process; its last line on
//! standard output is the result as one JSON object. `run` starts that
//! form once per run in a child process of its own, so that no workload
//! inherits another's heap or peak resident set, and prints and saves
//! every metric by name. `compare` gates one saved result on another.

use std::path::PathBuf;
use std::process::ExitCode;

mod check;
mod compare;
mod harness;
mod json;
mod layers;
mod probes;
mod proc;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;
mod wrap;

/// Where the benchmark writes: traces, result files, and the campaign
/// workload's scratch cache. Ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage:
  rsched-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  rsched-benchmark run (--all | --workload <name>) [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
  rsched-benchmark compare <baseline.json> <candidate.json>";

/// `--key value` pairs and bare flags, in any order.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{key}: `{v}` is not a number"))
            })
            .transpose()
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn single_run(args: &Args, spec: &spec::BenchSpec) -> Result<bool, String> {
    let workload = args.value("--workload").ok_or("--workload is missing")?;
    if !spec.has_workload(workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed: u64 = args.number("--seed")?.ok_or("--seed is missing")?;
    let seconds: f64 = args.number("--seconds")?.unwrap_or(spec.run_seconds);
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
    };
    let result = if traced {
        let file = out_dir().join(format!("{workload}.trace.json"));
        harness::run_traced(workload, seed, seconds, 1, Some(&file))?
    } else {
        harness::run_timed(workload, seed, seconds, 1)?
    };
    for note in &result.notes {
        eprintln!("{note}");
    }
    for error in &result.errors {
        eprintln!("FAILED CHECK: {error}");
    }
    println!("{}", result.to_json(spec).render());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = match spec::BenchSpec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => runner::run(&Args(argv[1..].to_vec()), &spec),
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(baseline), Some(candidate)) => compare::compare_files(baseline, candidate, &spec),
            _ => Err(USAGE.to_string()),
        },
        Some(_) => single_run(&Args(argv), &spec),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
