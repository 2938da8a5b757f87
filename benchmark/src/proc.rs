//! Process-level readings from `/proc/self`: CPU time, faults, context
//! switches, peak resident set.

use std::fs;

/// `sysconf(_SC_CLK_TCK)` on every Linux this runs on; `/proc/self/stat`
/// reports CPU time in these ticks.
const USER_HZ: f64 = 100.0;

/// One reading of the counters that only ever grow. Subtract two readings
/// to get what an interval cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User-mode CPU seconds of the whole process, exited threads included.
    pub user_s: f64,
    /// Kernel-mode CPU seconds of the whole process.
    pub sys_s: f64,
    pub minor_faults: f64,
    /// Voluntary + involuntary context switches of the main thread (the
    /// thread that drives every pass and blocks on each join).
    pub ctx_switches: f64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may itself hold spaces and
        // parentheses; everything after the last `)` is space separated,
        // starting at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let field = |n: usize| -> f64 {
            fields
                .get(n - 3)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        ProcSample {
            user_s: field(14) / USER_HZ,
            sys_s: field(15) / USER_HZ,
            minor_faults: field(10),
            ctx_switches: status_value(&status, "voluntary_ctxt_switches:")
                + status_value(&status, "nonvoluntary_ctxt_switches:"),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Add `later - earlier` to `self`.
    pub fn accumulate(&mut self, earlier: &ProcSample, later: &ProcSample) {
        self.user_s += later.user_s - earlier.user_s;
        self.sys_s += later.sys_s - earlier.sys_s;
        self.minor_faults += later.minor_faults - earlier.minor_faults;
        self.ctx_switches += later.ctx_switches - earlier.ctx_switches;
    }
}

fn status_value(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_value(&status, "VmHWM:") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_grow_with_work() {
        let before = ProcSample::now();
        let mut acc = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let after = ProcSample::now();
        assert!(after.cpu_s() > before.cpu_s(), "{before:?} {after:?}");
        assert!(peak_rss_mb() > 0.5);
    }
}
