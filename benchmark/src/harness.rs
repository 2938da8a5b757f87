//! The run shape every workload shares: set-up, one untimed warm-up pass,
//! timed passes with no wrappers, and (in a traced run) traced passes with
//! the wrappers and the span recorder on.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::proc::{self, ProcSample};
use crate::spec::BenchSpec;
use crate::stats::{median, quartiles_exclusive};
use crate::trace::{self, Layer};
use crate::{layers, probes, workloads};

/// Fresh set-ups per timed run; `setup_s` is the fastest of them.
const SETUP_REPS: usize = 5;
/// A run measures at least this many passes however long they take.
const MIN_TIMED_PASSES: usize = 3;
const MIN_TRACED_PASSES: usize = 2;
/// Traced passes stop here even if time is left: every span is kept in
/// memory, and `trace_replay` records 200 000 of them a pass.
const MAX_TRACED_PASSES: usize = 4;
/// At most this many spans of one name per pass go into the trace file.
const TRACE_FILE_SPANS_PER_NAME: usize = 4000;

/// Wall and CPU time of the regions of one pass in which the program
/// runs; output checks between regions are not on this clock. Each region
/// is also the root span the pass's layer spans hang below.
#[derive(Default)]
pub struct PassClock {
    pub wall_s: f64,
    pub proc: ProcSample,
}

impl PassClock {
    pub fn region<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = ProcSample::now();
        let started = Instant::now();
        let result = {
            let _root = trace::span("pass.region", Layer::Benchmark);
            f()
        };
        self.wall_s += started.elapsed().as_secs_f64();
        self.proc.accumulate(&before, &ProcSample::now());
        result
    }
}

/// What one pass produced.
#[derive(Default)]
pub struct PassOutput {
    /// Operations attempted: jobs to complete, cells to run, requests to
    /// serve.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations or output checks failed (the first few).
    pub errors: Vec<String>,
    /// Fingerprint of everything the pass scheduled.
    pub fingerprint: u64,
    /// Jobs that entered a scheduler during the pass.
    pub submitted: u64,
    /// Seconds the front door (channel → admission → ranked insert) took
    /// to take `submitted` in, where the workload has a front door.
    pub front_door_s: Option<f64>,
    /// Counts and outputs that are a function of the inputs alone: they
    /// must repeat exactly on every pass, wrapped or not.
    pub exact: BTreeMap<&'static str, f64>,
    /// Timings the workload took itself during a traced pass.
    pub timings: BTreeMap<&'static str, f64>,
}

impl PassOutput {
    pub fn fail(&mut self, operations: u64, reason: impl Into<String>) {
        self.failed += operations.max(1);
        if self.errors.len() < 5 {
            self.errors.push(reason.into());
        }
    }
}

/// One benchmark workload, built from a seed.
pub trait Workload {
    /// One closed-loop pass over the inputs. With `traced`, the program's
    /// trait objects are wrapped and spans are opened around the calls
    /// into each layer; the schedule produced must not differ.
    fn pass(&mut self, clock: &mut PassClock, traced: bool) -> PassOutput;
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Metric name → value, exactly the names `BENCHMARK.json` lists for
    /// this kind of run.
    pub metrics: BTreeMap<String, f64>,
    /// Lines for people: pass counts, quartiles, the layer table.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line JSON object a run prints last.
    pub fn to_json(&self, spec: &BenchSpec) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(spec.unit(name).unwrap_or("?"))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Folds the passes of a run into its verdict.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    first: Option<(u64, BTreeMap<&'static str, f64>)>,
}

impl Verdict {
    fn absorb(&mut self, label: &str, out: &PassOutput) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        for error in &out.errors {
            self.error(format!("{label}: {error}"));
        }
        let Some((fingerprint, exact)) = &self.first else {
            self.first = Some((out.fingerprint, out.exact.clone()));
            return;
        };
        let mut moved = Vec::new();
        if *fingerprint != out.fingerprint {
            moved.push(format!(
                "{label}: outcome fingerprint {} differs from the first pass's {fingerprint}",
                out.fingerprint
            ));
        }
        // A traced pass reports counts an untraced one cannot see; compare
        // what both report.
        for (name, value) in &out.exact {
            match exact.get(name) {
                Some(first) if first != value => {
                    moved.push(format!(
                        "{label}: {name} = {value}, the first pass had {first}"
                    ));
                }
                _ => {}
            }
        }
        for message in moved {
            self.fail_check(message);
        }
    }

    /// One output check of the run as a whole failed.
    fn fail_check(&mut self, message: String) {
        self.failed += 1;
        self.error(message);
    }

    fn error(&mut self, message: String) {
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    fn into_result(self, metrics: BTreeMap<String, f64>, notes: Vec<String>) -> RunResult {
        RunResult {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            errors: self.errors,
            metrics,
            notes,
        }
    }
}

fn describe(name: &str, values: &[f64]) -> String {
    let (q1, med, q3) = quartiles_exclusive(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    // With two or three samples the exclusive quartiles extrapolate past
    // the samples themselves.
    let (q1, q3) = (q1.max(lo), q3.min(hi));
    format!(
        "{name}: min {lo:.6}, q1 {q1:.6}, median {med:.6}, q3 {q3:.6}, max {hi:.6} over {} samples",
        values.len()
    )
}

/// A timed run: the end-to-end metrics.
pub fn run_timed(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: usize,
) -> Result<RunResult, String> {
    let mut verdict = Verdict::default();
    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's inputs go before the next are made, so
        // the repetition does not double the resident set.
        drop(built.take());
        let started = Instant::now();
        let mut fresh = workloads::build(workload, seed, scale)?;
        let warm = fresh.pass(&mut PassClock::default(), false);
        setup_samples.push(started.elapsed().as_secs_f64());
        verdict.absorb("warm-up pass", &warm);
        built = Some(fresh);
    }
    let mut program = built.expect("SETUP_REPS > 0");

    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let (mut wall_total, mut cpu_total) = (0.0, 0.0);
    let started = Instant::now();
    while walls.len() < MIN_TIMED_PASSES || started.elapsed().as_secs_f64() < seconds {
        let mut clock = PassClock::default();
        let out = program.pass(&mut clock, false);
        verdict.absorb(&format!("timed pass {}", walls.len() + 1), &out);
        walls.push(clock.wall_s);
        wall_total += clock.wall_s;
        cpu_total += clock.proc.cpu_s();
        rates.push(out.submitted as f64 / out.front_door_s.unwrap_or(clock.wall_s));
    }

    // The fastest pass and the fastest set-up, not the median ones: see
    // "Noise" in the README. Whatever shares the machine only ever adds
    // time, in plateaus that outlast a pass, so the fastest of a run is
    // what repeats.
    let least = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let fastest = least(&walls);
    let mut metrics = BTreeMap::new();
    metrics.insert("wall_s".to_string(), fastest);
    // The process clock ticks at 100 Hz, too coarse for one pass. CPU time
    // over wall time across all passes (cores kept busy) is not, and a
    // slow plateau stretches both alike.
    metrics.insert("cpu_s".to_string(), fastest * cpu_total / wall_total);
    metrics.insert("peak_rss_mb".to_string(), proc::peak_rss_mb());
    metrics.insert("setup_s".to_string(), least(&setup_samples));
    metrics.insert(
        "submit_per_s".to_string(),
        rates.iter().copied().fold(0.0, f64::max),
    );
    let notes = vec![
        describe("wall_s", &walls),
        format!(
            "cpu_s: {:.3} cores busy over the timed passes",
            cpu_total / wall_total
        ),
        describe("setup_s", &setup_samples),
        describe("submit_per_s", &rates),
        format!(
            "failed_frac: {} ({} of {} operations)",
            verdict.failed as f64 / verdict.attempted.max(1) as f64,
            verdict.failed,
            verdict.attempted
        ),
    ];
    Ok(verdict.into_result(metrics, notes))
}

/// A traced run: the per-layer metrics, the layer table and the trace
/// file.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: usize,
    trace_file: Option<&std::path::Path>,
) -> Result<RunResult, String> {
    let mut verdict = Verdict::default();
    trace::start();
    let mut program = workloads::build(workload, seed, scale)?;
    trace::pause();
    let warm = program.pass(&mut PassClock::default(), false);
    verdict.absorb("warm-up pass", &warm);

    let mut untraced_walls = Vec::new();
    let started = Instant::now();
    while untraced_walls.len() < MIN_TRACED_PASSES
        || started.elapsed().as_secs_f64() < seconds / 2.0
    {
        let mut clock = PassClock::default();
        let out = program.pass(&mut clock, false);
        verdict.absorb(&format!("untraced pass {}", untraced_walls.len() + 1), &out);
        untraced_walls.push(clock.wall_s);
    }

    trace::resume();
    let mut traced: Vec<(u32, PassClock, PassOutput)> = Vec::new();
    let started = Instant::now();
    while traced.len() < MIN_TRACED_PASSES
        || (traced.len() < MAX_TRACED_PASSES && started.elapsed().as_secs_f64() < seconds / 2.0)
    {
        let pass = traced.len() as u32 + 1;
        trace::set_pass(pass);
        let mut clock = PassClock::default();
        let out = program.pass(&mut clock, true);
        verdict.absorb(&format!("traced pass {pass}"), &out);
        traced.push((pass, clock, out));
    }
    trace::pause();
    drop(program);

    let probe_values = probes::run_all(seed, scale);
    let recording = trace::finish();

    let mut notes = Vec::new();
    let (mut metrics, not_repeating) =
        layers::per_layer_metrics(&recording, &traced, median(&untraced_walls), &probe_values);
    metrics.insert("bench.spans".to_string(), recording.spans.len() as f64);
    for message in not_repeating {
        verdict.fail_check(message);
    }

    let last_pass = traced.last().map(|(pass, _, _)| *pass).unwrap_or(1);
    let table = recording.layer_table(last_pass);
    notes.push(table.render(workload));
    if let Err(problem) = table.check() {
        verdict.fail_check(problem);
    }
    if let Some(path) = trace_file {
        let text = recording.chrome_trace(workload, TRACE_FILE_SPANS_PER_NAME);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("trace written to {}", path.display()));
    }
    notes.push(describe("untraced wall_s", &untraced_walls));
    let traced_walls: Vec<f64> = traced.iter().map(|(_, clock, _)| clock.wall_s).collect();
    notes.push(describe("traced wall_s", &traced_walls));

    Ok(verdict.into_result(metrics, notes))
}
