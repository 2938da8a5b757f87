//! Seeded synthetic **Polaris-scale SWF trace generator** — the scale
//! substrate behind the `polaris_synth` scenario.
//!
//! Real facility logs run to hundreds of thousands of jobs (ALCF's
//! Polaris/Aurora archives), far too large to ship as fixtures. This
//! module generates a statistically Polaris-like job stream *as raw SWF
//! rows* ([`SwfJob`]) from a seed, so CI and benches can exercise
//! million-job parses and replays without a giant file:
//!
//! * heavy-tailed node counts up to the machine width (560 nodes),
//!   log-normal runtimes, Poisson-ish submission gaps calibrated to put
//!   offered load slightly above capacity (so queueing occurs);
//! * realistic archive noise: ~12 % failed/cancelled rows, `-1` sentinel
//!   fields, occasional out-of-order submissions, float-formatted
//!   integral fields — everything the streaming parser and the §5-style
//!   preprocessing pipeline must cope with at scale;
//! * three coordinated forms of the same seeded stream:
//!   [`polaris_synth_rows`] (raw rows), [`polaris_synth_text`] (SWF text,
//!   for parser differential tests), and [`polaris_synth_workload`]
//!   (simulator-ready jobs). Parsing the text form and converting it
//!   yields **exactly** the workload form, because all three share one
//!   generator and the SWF conversion core.
//!
//! The scenario registry exposes this as the `polaris_synth` builtin and
//! the dynamic `polaris_synth:<n>` name form (e.g. `polaris_synth:1000000`),
//! mirroring `swf:<path>`.

use rsched_cluster::JobSpec;
use rsched_simkit::dist::{Categorical, Clamped, Exponential, LogNormal, Sample, Uniform};
use rsched_simkit::rng::{Rng, SeedTree, Xoshiro256PlusPlus};

use crate::polaris::POLARIS_NODES;
use crate::swf::{jobs_from_rows, SwfJob, SwfTrace};

/// An infinite, seeded stream of raw Polaris-like SWF rows.
///
/// About 87 % of rows are usable (completed, with runtime and width);
/// the rest are failed (status 0), cancelled (status 5), or missing both
/// runtime fields — archive noise the conversion pipeline must drop.
/// Submissions advance on an exponential clock with occasional backdated
/// rows, so the stream is *almost* but not exactly submit-sorted, like a
/// mid-stream sample of a production log.
#[derive(Debug)]
pub(crate) struct SwfSynth {
    rng: Xoshiro256PlusPlus,
    next_id: i64,
    clock_secs: i64,
    widths: Categorical,
    duration: Clamped<LogNormal>,
    gap: Exponential,
}

/// Node-count classes `(lo, hi)`, heavy-tailed toward narrow jobs.
const NODE_CLASSES: [(u32, u32); 8] = [
    (1, 1),
    (2, 2),
    (3, 8),
    (9, 24),
    (25, 64),
    (65, 128),
    (129, 256),
    (257, POLARIS_NODES),
];

impl SwfSynth {
    /// A fresh stream for `seed`. Identical seeds yield identical streams.
    pub fn new(seed: u64) -> Self {
        let tree = SeedTree::new(seed).subtree("polaris_synth", 0);
        SwfSynth {
            rng: tree.rng("rows", 0),
            next_id: 1,
            clock_secs: 0,
            widths: Categorical::new(&[0.28, 0.18, 0.16, 0.13, 0.11, 0.08, 0.04, 0.02]),
            // Median 30 min, long tail to a day; with the ~160 s mean
            // submission gap this offers slightly more node-seconds than
            // the 560-node machine has, so queues form.
            duration: Clamped::new(LogNormal::from_median(1800.0, 1.1), 60.0, 86_400.0),
            gap: Exponential::with_mean(160.0),
        }
    }
}

impl Iterator for SwfSynth {
    type Item = SwfJob;

    fn next(&mut self) -> Option<SwfJob> {
        let rng = &mut self.rng;
        self.clock_secs += self.gap.sample(rng) as i64;
        let id = self.next_id;
        self.next_id += 1;

        // ~20 % of rows are recorded late: the submit field is backdated,
        // so consumers must sort (the conversion pipeline does).
        let submit = if rng.gen_bool(0.2) {
            (self.clock_secs - Uniform::new(0.0, 900.0).sample(rng) as i64).max(0)
        } else {
            self.clock_secs
        };

        let class = NODE_CLASSES[self.widths.sample_index(rng)];
        let nodes = rng.gen_range_inclusive(class.0 as u64, class.1 as u64) as i64;
        let runtime = self.duration.sample(rng) as i64;
        // Requested walltime: padded runtime, rounded up to 15 min.
        let padded = (runtime as f64 * Uniform::new(1.1, 2.2).sample(rng)) as i64;
        let requested_secs = (padded.max(900) + 899) / 900 * 900;

        // Archive noise: 8 % failed, 4 % cancelled, 1 % with neither
        // runtime field recorded (unusable even though "completed").
        let status = if rng.gen_bool(0.08) {
            0
        } else if rng.gen_bool(0.04) {
            5
        } else {
            1
        };
        let runtime_missing = rng.gen_bool(0.01);
        let (run_secs, req_secs) = if runtime_missing {
            (-1, -1)
        } else if rng.gen_bool(0.03) {
            // Runtime lost but the request survives → fallback path.
            (-1, requested_secs)
        } else {
            (runtime, requested_secs)
        };

        // Memory: mostly unrecorded (→ the 2 GB/proc default); ~30 %
        // record 1–4 GB per processor, always feasible on 512 GB nodes.
        let used_memory_kb = if rng.gen_bool(0.3) {
            rng.gen_range_inclusive(1, 4) as i64 * 1024 * 1024
        } else {
            -1
        };
        let requested_memory_kb = if rng.gen_bool(0.1) {
            rng.gen_range_inclusive(1, 4) as i64 * 1024 * 1024
        } else {
            -1
        };
        // ~10 % pack two ranks per node (requested > allocated procs).
        let requested_procs = if rng.gen_bool(0.1) { nodes * 2 } else { nodes };
        // ~10 % record an average CPU time, as a one-decimal float.
        let avg_cpu_secs = if run_secs > 0 && rng.gen_bool(0.1) {
            ((run_secs as f64 * Uniform::new(0.5, 1.0).sample(rng)) * 10.0).round() / 10.0
        } else {
            -1.0
        };

        // A zipf-ish user population of 40, groups derived from users.
        let user = (rng.unit_f64().powi(3) * 40.0) as i64;
        Some(SwfJob {
            job_id: id,
            submit_secs: submit,
            wait_secs: -1,
            run_secs,
            allocated_procs: nodes,
            avg_cpu_secs,
            used_memory_kb,
            requested_procs,
            requested_secs: req_secs,
            requested_memory_kb,
            status,
            user,
            group: user % 7,
            executable: -1,
            queue: 1,
            partition: 1,
            preceding_job: -1,
            think_secs: -1,
        })
    }
}

/// The raw-row prefix of the seeded stream containing exactly `n` usable
/// rows (the stream is cut right after the `n`-th usable row). Converting
/// these rows — eagerly or streaming — yields [`polaris_synth_workload`].
pub fn polaris_synth_rows(n: usize, seed: u64) -> Vec<SwfJob> {
    bounded_rows(n, seed).collect()
}

/// The same prefix rendered as SWF text (header directives + one line per
/// row), for parser-level differential tests and CI smokes that need real
/// bytes without a fixture. `SwfTrace::parse` of the output reproduces
/// [`polaris_synth_rows`].
pub fn polaris_synth_text(n: usize, seed: u64) -> String {
    SwfTrace {
        directives: vec![
            ("Version".to_string(), "2.2".to_string()),
            ("Computer".to_string(), "Polaris (synthetic)".to_string()),
            ("MaxNodes".to_string(), POLARIS_NODES.to_string()),
        ],
        jobs: polaris_synth_rows(n, seed),
    }
    .to_string()
}

/// Exactly `n` simulator-ready jobs from the seeded stream, through the
/// same conversion core as every SWF path (drop unusable, sort by
/// `(submit, id)`, normalize, factorize). All jobs fit the Polaris
/// configuration (560 nodes × 512 GB).
pub fn polaris_synth_workload(n: usize, seed: u64) -> Vec<JobSpec> {
    jobs_from_rows(bounded_rows(n, seed), n)
}

/// The stream cut right after its `n`-th usable row.
fn bounded_rows(n: usize, seed: u64) -> impl Iterator<Item = SwfJob> {
    let mut usable = 0usize;
    SwfSynth::new(seed).take_while(move |row| {
        if usable >= n {
            return false;
        }
        if row.is_usable() {
            usable += 1;
        }
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::ClusterConfig;
    use rsched_simkit::SimTime;

    #[test]
    fn workload_has_exactly_n_jobs_and_fits_polaris() {
        let jobs = polaris_synth_workload(500, 7);
        assert_eq!(jobs.len(), 500);
        let config = ClusterConfig::polaris();
        for j in &jobs {
            assert!(j.nodes >= 1 && j.nodes <= config.nodes);
            assert!(j.memory_gb <= config.memory_gb);
            assert!(j.walltime >= j.duration);
            assert!(j.per_node.memory_gb <= crate::polaris::POLARIS_GB_PER_NODE);
        }
        assert_eq!(jobs[0].submit, SimTime::ZERO, "normalized to origin");
        for pair in jobs.windows(2) {
            assert!(pair[0].submit <= pair[1].submit, "sorted by submission");
        }
    }

    #[test]
    fn stream_is_deterministic_and_seed_sensitive() {
        assert_eq!(
            polaris_synth_workload(200, 42),
            polaris_synth_workload(200, 42)
        );
        assert_ne!(
            polaris_synth_workload(200, 42),
            polaris_synth_workload(200, 43)
        );
    }

    #[test]
    fn raw_stream_carries_archive_noise() {
        let rows = polaris_synth_rows(1000, 3);
        let failed = rows.iter().filter(|r| r.status == 0).count();
        let cancelled = rows.iter().filter(|r| r.status == 5).count();
        let sentinels = rows.iter().filter(|r| r.used_memory_kb == -1).count();
        let backdated = rows
            .windows(2)
            .filter(|w| w[1].submit_secs < w[0].submit_secs)
            .count();
        assert!(failed > 0, "failed rows present");
        assert!(cancelled > 0, "cancelled rows present");
        assert!(sentinels > 0, "-1 sentinels present");
        assert!(backdated > 0, "out-of-order submissions present");
        assert_eq!(rows.iter().filter(|r| r.is_usable()).count(), 1000);
    }

    #[test]
    fn text_form_parses_back_to_the_same_rows_and_workload() {
        let n = 300;
        let text = polaris_synth_text(n, 11);
        let trace = SwfTrace::parse(&text).expect("round-trips");
        assert_eq!(trace.jobs, polaris_synth_rows(n, 11));
        assert_eq!(trace.max_nodes(), Some(POLARIS_NODES));
        assert_eq!(trace.to_jobs(n), polaris_synth_workload(n, 11));
    }

    #[test]
    fn larger_n_extends_the_same_prefix() {
        let small = polaris_synth_rows(100, 5);
        let large = polaris_synth_rows(200, 5);
        assert_eq!(&large[..small.len()], &small[..], "prefix-stable");
    }
}
