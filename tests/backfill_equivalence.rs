//! The **backfill differential harness**: the calendar-backed backfilling
//! policies are pinned bit-identical to straight-line references.
//!
//! * `RefEasy` is EASY as its definition reads, sharing nothing with
//!   [`EasyBackfill`]: walk the queue; per candidate, sweep `start +
//!   walltime` of the jobs running for the head's shadow start and what is
//!   free then. `RefConservative` is the pre-calendar policy kept
//!   verbatim: it rebuilds the free-capacity profile from the whole
//!   running set on every `decide` and places reservations with the
//!   O(profile²) candidate loop.
//! * Every cell of EASY / EASY-SJBF / Conservative / Conservative-SJBF ×
//!   scenarios (flat paper machine, the classed `mixed_256` machine, a
//!   Polaris synthetic stream with inexact estimates) × 2 seeds runs both
//!   implementations through the same kernel under `SimOptions::default()`
//!   — every policy here owns its backfills' safety — and compares the
//!   [`SimOutcome`]s' policy names, job records, decision logs, stats and
//!   `end_time`.
//! * Proptests pin the [`CapacityCalendar`] itself against a naive model:
//!   build/reserve sequences against a recompute-from-scratch profile, and
//!   `earliest_window` against the quadratic candidate loop, on
//!   arbitrarily reserved (non-monotone) skylines.
//! * An `#[ignore]`d release-mode `polaris_synth:50000` stream pins the
//!   EASY family on queues thousands of jobs deep, plus a 5k-job cell for
//!   all four (the quadratic Conservative reference makes 50k
//!   intractable):
//!   `cargo test --release --test backfill_equivalence -- --ignored`.

use proptest::prelude::*;
use reasoned_scheduler::cluster::{
    classed_overlap_fits, ClusterConfig, JobId, JobSpec, PlacementRequest,
};
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::sim::{CapacityCalendar, ReservationProfile};
use reasoned_scheduler::workloads::scenario_builtins;
use reasoned_scheduler::workloads::swf::SwfTrace;
use reasoned_scheduler::workloads::{ArrivalMode, ScenarioContext};

mod common;
use common::{run_logged, serve_with_fair_share};

// ------------------------------------------------------------------------
// Straight-line reference policies
// ------------------------------------------------------------------------

/// EASY, straight from its definition: head first; behind a blocked head,
/// the first (SJBF: shortest) waiting job that fits now and would not move
/// the head's shadow start, with the shadow re-derived per candidate.
#[derive(Debug, Clone, Default)]
struct RefEasy {
    shortest_first: bool,
}

impl RefEasy {
    fn sjbf() -> Self {
        RefEasy {
            shortest_first: true,
        }
    }
}

/// Free `(nodes, memory)` at `t` by the estimates: what is free now plus
/// every running job due to have ended by `t`.
fn estimated_free_at(view: &SystemView<'_>, t: SimTime) -> (u32, u64) {
    let mut free = (view.free_nodes, view.free_memory_gb);
    for r in view.running.iter().filter(|r| r.expected_end <= t) {
        free.0 += r.nodes;
        free.1 += r.memory_gb;
    }
    free
}

/// The flat shadow start of `head`: `now`, or the first estimated end at
/// which it fits what is free then. `None` if it never fits.
fn flat_shadow(view: &SystemView<'_>, head: &JobSpec) -> Option<SimTime> {
    let mut instants: Vec<SimTime> = view.running.iter().map(|r| r.expected_end).collect();
    instants.push(view.now);
    instants.sort();
    instants.into_iter().map(|t| t.max(view.now)).find(|&t| {
        let (nodes, mem) = estimated_free_at(view, t);
        head.nodes <= nodes && head.memory_gb <= mem
    })
}

/// May `candidate` start now without moving `head`'s shadow start? It
/// ends by the shadow, or fits beside the head in what is free then. On
/// the classed machine the running summaries do not say which class a
/// node returns to — only the calendar's columns do — so that arm walks
/// its points one by one.
fn easy_safe(view: &SystemView<'_>, head: &JobSpec, candidate: &JobSpec) -> bool {
    let ends = view.now + candidate.walltime;
    if view.config.topology.is_flat() {
        let Some(shadow) = flat_shadow(view, head) else {
            return true;
        };
        let (nodes, mem) = estimated_free_at(view, shadow);
        ends <= shadow
            || (nodes >= candidate.nodes + head.nodes
                && mem >= candidate.memory_gb + head.memory_gb)
    } else {
        let topology = &view.config.topology;
        let head = PlacementRequest::from(head);
        let mut calendar = CapacityCalendar::default();
        view.capacity_calendar(&mut calendar);
        let at_shadow = calendar
            .points()
            .iter()
            .find(|p| head.fits_classes(topology, &p.free_by_class));
        at_shadow.is_none_or(|p| {
            ends <= p.time
                || classed_overlap_fits(
                    topology,
                    &view.free_by_class,
                    p.free_by_class,
                    &PlacementRequest::from(candidate),
                    &head,
                )
        })
    }
}

impl SchedulingPolicy for RefEasy {
    fn name(&self) -> &str {
        if self.shortest_first {
            "EASY-SJBF"
        } else {
            "EASY"
        }
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if view.all_jobs_started() {
            return Action::Stop;
        }
        let Some(head) = view.head_of_queue() else {
            return Action::Delay;
        };
        if view.fits_now(head) {
            return Action::StartJob(head.id);
        }
        let mut safe = view
            .waiting
            .iter()
            .filter(|j| j.id != head.id)
            .filter(|j| view.fits_now(j) && easy_safe(view, head, j));
        let candidate: Option<&JobSpec> = if self.shortest_first {
            safe.min_by_key(|j| (j.walltime, j.submit, j.id))
        } else {
            safe.next()
        };
        match candidate {
            Some(j) => Action::BackfillJob(j.id),
            None => Action::Delay,
        }
    }
}

const RESERVATION_DEPTH: usize = 64;

/// A step function of free capacity over time, as the pre-calendar
/// conservative policy kept it: `(time, free_nodes, free_memory_gb)`.
type Profile = Vec<(SimTime, u32, u64)>;

/// The free-capacity profile implied by the running set's estimated ends —
/// rebuilt from scratch, exactly as the old policy did per `decide`.
fn free_profile(
    now: SimTime,
    free_nodes: u32,
    free_memory_gb: u64,
    running: Running<'_>,
) -> Profile {
    let mut ends: Vec<(SimTime, u32, u64)> = running
        .iter()
        .map(|r| (r.expected_end, r.nodes, r.memory_gb))
        .collect();
    ends.sort_unstable();
    let mut points: Profile = vec![(now, free_nodes, free_memory_gb)];
    for (t, nodes, mem) in ends {
        let &(last_t, last_n, last_m) = points.last().expect("non-empty");
        let (free_n, free_m) = (last_n + nodes, last_m + mem);
        if t <= last_t {
            let last = points.last_mut().expect("non-empty");
            last.1 = free_n;
            last.2 = free_m;
        } else {
            points.push((t, free_n, free_m));
        }
    }
    points
}

/// The old quadratic placement loop: try each profile point as a start and
/// rescan the window; first window with capacity throughout wins.
fn earliest_start(points: &Profile, nodes: u32, memory_gb: u64, walltime: SimDuration) -> SimTime {
    'candidate: for i in 0..points.len() {
        let start = points[i].0;
        let end = start + walltime;
        for &(t, free_n, free_m) in &points[i..] {
            if t >= end {
                break;
            }
            if free_n < nodes || free_m < memory_gb {
                continue 'candidate;
            }
        }
        return start;
    }
    unreachable!("the final profile point is the fully-free machine")
}

fn insert_boundary(points: &mut Profile, t: SimTime) {
    match points.binary_search_by_key(&t, |p| p.0) {
        Ok(_) => {}
        Err(0) => {}
        Err(i) => {
            let (_, n, m) = points[i - 1];
            points.insert(i, (t, n, m));
        }
    }
}

/// Reservation subtraction as the old policy did it: a full scan over the
/// profile, clamping each covered point.
fn reserve(points: &mut Profile, start: SimTime, end: SimTime, nodes: u32, mem: u64) {
    insert_boundary(points, start);
    insert_boundary(points, end);
    for p in points.iter_mut() {
        if p.0 >= start && p.0 < end {
            p.1 = p.1.saturating_sub(nodes);
            p.2 = p.2.saturating_sub(mem);
        }
    }
}

/// The pre-calendar conservative backfill: profile rebuilt per decide,
/// quadratic reservation placement, linear rejected-set membership.
#[derive(Debug, Clone, Default)]
struct RefConservative {
    rejected_this_epoch: Vec<JobId>,
    last_time: Option<SimTime>,
    shortest_first: bool,
}

impl RefConservative {
    fn sjbf() -> Self {
        RefConservative {
            shortest_first: true,
            ..Self::default()
        }
    }
}

impl SchedulingPolicy for RefConservative {
    fn name(&self) -> &str {
        if self.shortest_first {
            "Conservative-SJBF"
        } else {
            "Conservative"
        }
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if self.last_time != Some(view.now) {
            self.last_time = Some(view.now);
            self.rejected_this_epoch.clear();
        }
        if view.all_jobs_started() {
            return Action::Stop;
        }
        if view.waiting.is_empty() {
            return Action::Delay;
        }
        let mut points = free_profile(view.now, view.free_nodes, view.free_memory_gb, view.running);
        let mut startable: Vec<&JobSpec> = Vec::new();
        for job in view.waiting.iter().take(RESERVATION_DEPTH) {
            let start = earliest_start(&points, job.nodes, job.memory_gb, job.walltime);
            if start <= view.now
                && view.fits_now(job)
                && !self.rejected_this_epoch.contains(&job.id)
            {
                startable.push(job);
            }
            reserve(
                &mut points,
                start,
                start + job.walltime,
                job.nodes,
                job.memory_gb,
            );
        }
        let head_id = view.head_of_queue().map(|h| h.id);
        let pick = if self.shortest_first {
            startable
                .into_iter()
                .min_by_key(|j| (j.walltime, j.submit, j.id))
        } else {
            startable.into_iter().next()
        };
        match pick {
            Some(j) if Some(j.id) == head_id => Action::StartJob(j.id),
            Some(j) => Action::BackfillJob(j.id),
            None => Action::Delay,
        }
    }

    fn observe(&mut self, outcome: &reasoned_scheduler::sim::ActionOutcome) {
        if !outcome.accepted() {
            if let Some(id) = outcome.action.job_id() {
                self.rejected_this_epoch.push(id);
            }
        }
    }
}

// ------------------------------------------------------------------------
// Outcome comparison
// ------------------------------------------------------------------------

/// Outcome comparison: every compared field must be equal.
fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.policy_name, b.policy_name, "{label}: policy name");
    assert_eq!(a.records, b.records, "{label}: job records");
    assert_eq!(
        a.decisions.len(),
        a.stats.queries,
        "{label}: logged queries"
    );
    assert_eq!(a.decisions, b.decisions, "{label}: decision log");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
}

/// Provenance pin for the calendar policies: every epoch that ended
/// without a placement must carry a machine-readable [`DelayReason`], and
/// never the kernel's `policy_choice` fallback — the backfill family
/// reports its own exit reasons (head-shadow veto, reservation block,
/// head blocked, empty queue) on every `Delay` it returns.
fn assert_delays_explained(outcome: &SimOutcome, label: &str) {
    for epoch in &outcome.epochs {
        let explained = match epoch.outcome {
            EpochOutcome::Delay | EpochOutcome::ForcedDelay | EpochOutcome::Saturated => {
                epoch.reason.is_some()
            }
            EpochOutcome::Placements { .. } | EpochOutcome::Stop => epoch.reason.is_none(),
        };
        assert!(
            explained,
            "{label}: epoch at {} ({}) has wrong provenance: {:?}",
            epoch.time,
            epoch.outcome.code(),
            epoch.reason
        );
        if matches!(epoch.outcome, EpochOutcome::Delay) {
            let code = epoch.reason.as_ref().expect("checked above").code();
            assert_ne!(
                code, "policy_choice",
                "{label}: calendar policy fell back to the generic reason at {}",
                epoch.time
            );
        }
    }
}

/// A calendar policy and its straight-line reference.
type PolicyPair = (Box<dyn SchedulingPolicy>, Box<dyn SchedulingPolicy>);

/// The calendar policies paired with their straight-line references.
fn policy_pairs() -> Vec<PolicyPair> {
    vec![
        (
            Box::new(EasyBackfill::new()) as Box<dyn SchedulingPolicy>,
            Box::new(RefEasy::default()) as Box<dyn SchedulingPolicy>,
        ),
        (Box::new(EasyBackfill::sjbf()), Box::new(RefEasy::sjbf())),
        (
            Box::new(ConservativeBackfill::new()),
            Box::new(RefConservative::default()),
        ),
        (
            Box::new(ConservativeBackfill::sjbf()),
            Box::new(RefConservative::sjbf()),
        ),
    ]
}

fn run_pair(cluster: ClusterConfig, jobs: &[JobSpec], label_prefix: &str) {
    let options = SimOptions::default();
    for (mut calendar, mut reference) in policy_pairs() {
        let label = format!("{label_prefix}/{}", calendar.name());
        let a = run_logged(cluster, jobs, calendar.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (calendar): {e}"));
        let b = run_logged(cluster, jobs, reference.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (reference): {e}"));
        assert_outcomes_identical(&a, &b, &label);
        assert_delays_explained(&a, &label);
    }
}

// ------------------------------------------------------------------------
// Differential grid
// ------------------------------------------------------------------------

/// 4 policies × 3 flat scenarios × 2 seeds on the paper machine.
#[test]
fn calendar_backfill_matches_reference_on_flat_scenarios() {
    let scenarios = ["heterogeneous_mix", "long_tail", "adversarial"];
    let cluster = ClusterConfig::paper_default();
    for scenario in scenarios {
        for seed in 1u64..=2 {
            let jobs = scenario_builtins()
                .generate(
                    scenario,
                    &ScenarioContext::new(96)
                        .with_mode(ArrivalMode::Dynamic)
                        .with_seed(seed),
                )
                .expect("builtin scenario")
                .jobs;
            run_pair(cluster, &jobs, &format!("{scenario}/seed {seed}"));
        }
    }
}

/// 4 policies × 2 seeds on the classed `mixed_256` machine, where the
/// flat fast paths must stand down and the per-class `fits_now` gate does
/// real work.
#[test]
fn calendar_backfill_matches_reference_on_the_classed_machine() {
    let cluster = ClusterConfig::mixed_256();
    for seed in 1u64..=2 {
        let jobs = scenario_builtins()
            .generate(
                "gpu_skewed_hetmix",
                &ScenarioContext::new(96)
                    .with_mode(ArrivalMode::Dynamic)
                    .with_seed(seed),
            )
            .expect("builtin scenario")
            .jobs;
        run_pair(cluster, &jobs, &format!("gpu_skewed_hetmix/seed {seed}"));
    }
}

/// 4 policies × 2 seeds on a Polaris synthetic stream sized to keep the
/// quadratic reference tractable in debug builds; the 50k-deep version
/// lives in the `#[ignore]`d release test below.
#[test]
fn calendar_backfill_matches_reference_on_a_polaris_stream() {
    let cluster = ClusterConfig::polaris();
    for seed in [7u64, 8] {
        let jobs = scenario_builtins()
            .generate(
                "polaris_synth:400",
                &ScenarioContext::new(400).with_seed(seed),
            )
            .expect("builtin scenario")
            .jobs;
        assert!(
            jobs.iter().any(|j| j.walltime > j.duration),
            "the stream's estimates are meant to be inexact"
        );
        run_pair(cluster, &jobs, &format!("polaris_synth:400/seed {seed}"));
    }
}

/// 4 policies × a flat and a classed backlog of 200 jobs, all submitted
/// at t = 0, so the queue runs past the reservation depth for most of the
/// run and every pass that ends in `Delay` has a full window to walk.
#[test]
fn calendar_backfill_matches_reference_on_deep_static_queues() {
    let grid = [
        (ClusterConfig::paper_default(), "long_tail"),
        (ClusterConfig::mixed_256(), "gpu_skewed_hetmix"),
    ];
    for (cluster, scenario) in grid {
        let ctx = ScenarioContext::new(200)
            .with_mode(ArrivalMode::Static)
            .with_seed(7)
            .with_cluster(cluster);
        let generated = scenario_builtins().generate(scenario, &ctx);
        let jobs = generated.expect("builtin scenario").jobs;
        run_pair(cluster, &jobs, &format!("{scenario}/static 200"));
    }
}

/// EASY through the service core with fair-share ranking on, flat and
/// classed: arrivals enter at their tenants' usage-decayed ranks, so the
/// queue — and the arrival order EASY's pick is read from — runs by
/// `(rank, submit, id)`, not by arrival (`serve_with_fair_share` asserts
/// the ranks really reordered it). The reference walks `view.waiting` as it
/// finds it: same records, same decision log.
#[test]
fn easy_reads_the_queue_order_under_fair_share_ranks() {
    let grid = [
        (ClusterConfig::paper_default(), "heterogeneous_mix"),
        (ClusterConfig::mixed_256(), "gpu_skewed_hetmix"),
    ];
    for (cluster, scenario) in grid {
        let ctx = ScenarioContext::new(2000)
            .with_mode(ArrivalMode::Dynamic)
            .with_seed(3);
        let generated = scenario_builtins().generate(scenario, &ctx);
        let jobs = generated.expect("builtin scenario").jobs;
        let a = serve_with_fair_share(cluster, &jobs, Box::new(EasyBackfill::new()));
        let b = serve_with_fair_share(cluster, &jobs, Box::new(RefEasy::default()));
        assert_outcomes_identical(&a, &b, &format!("{scenario}, served"));
        assert!(a.stats.backfills > 0, "{scenario}: nothing was backfilled");
    }
}

/// Six unsafe candidates stand between a blocked head and the one safe
/// job, each narrower and longer than the one before, so none dominates
/// another. The policy examines all seven at the instant they arrive and
/// backfills the last — with the kernel's veto on (it agrees: nothing is
/// refused) and with it off (nothing unsafe starts).
#[test]
fn easy_backfills_the_one_safe_job_behind_six_unsafe_ones() {
    let at = SimTime::from_secs;
    let job = |id: u32, submit_s: u64, wall_s: u64, nodes: u32| {
        let wall = SimDuration::from_secs(wall_s);
        JobSpec::new(id, 0, at(submit_s), wall, nodes, 1)
    };
    let mut jobs = vec![
        job(0, 0, 100, 9), // running: 7 of 16 nodes free until t=100
        job(1, 1, 50, 16), // head: the whole machine, shadow t=100
    ];
    // Fit now, outlast the shadow, leave the head short at it.
    jobs.extend((0..6).map(|k| job(2 + k, 2, 1000 + 100 * k as u64, 6 - k)));
    jobs.push(job(8, 2, 50, 1)); // ends t=52: safe
    let strict = SimOptions {
        strict_backfill: true,
        ..SimOptions::default()
    };
    for options in [SimOptions::default(), strict] {
        for mut policy in [EasyBackfill::new(), EasyBackfill::sjbf()] {
            let out = run_simulation(ClusterConfig::new(16, 64), &jobs, &mut policy, &options)
                .expect("completes");
            let start = |id: u32| {
                let record = out.records.iter().find(|r| r.spec.id == JobId(id));
                record.expect("ran").start
            };
            let label = format!("{}, strict: {}", policy.name(), options.strict_backfill);
            assert_eq!(start(8), at(2), "{label}: the safe job backfills");
            assert_eq!(start(1), at(100), "{label}: the head starts on its shadow");
            for id in 2..8 {
                assert!(start(id) > at(100), "{label}: unsafe job {id} waited");
            }
            assert_eq!(out.stats.rejections, 0, "{label}");
        }
    }
}

/// An SWF row asking for `i64::MAX` seconds is, by its estimate, a job
/// that never ends. Behind a head that wants the whole machine it fits now
/// and not beside the head, so only "ends by the shadow" could admit it —
/// and `now + walltime`, wrapped, used to read as an early end. It waits
/// for the head, the short job behind it backfills, and the calendar
/// policies still equal their references with an estimated release at the
/// end of time on the books.
#[test]
fn a_job_that_never_ends_does_not_end_by_the_shadow() {
    let text = "; MaxNodes: 17\n\
        1 0 0 100 9 -1 -1 9 100 -1 1 1 1 1 1 1 -1 -1\n\
        2 1 0 50 17 -1 -1 17 50 -1 1 1 1 1 1 1 -1 -1\n\
        3 2 12 1820 8 1650.5 1048576 8 9223372036854775807 -1 1 11 2 3 1 1 -1 -1\n\
        4 3 0 50 1 -1 -1 1 50 -1 1 1 1 1 1 1 -1 -1\n";
    let trace = SwfTrace::parse(text).expect("parses");
    let (cluster, jobs) = (trace.cluster(), trace.to_jobs(0));
    assert_eq!(jobs[2].walltime, SimDuration::MAX);
    for mut policy in [EasyBackfill::new(), EasyBackfill::sjbf()] {
        let out =
            run_simulation(cluster, &jobs, &mut policy, &SimOptions::default()).expect("completes");
        let mut starts: Vec<(u32, u64)> = out
            .records
            .iter()
            .map(|r| (r.spec.id.0, r.start.as_secs()))
            .collect();
        starts.sort_unstable();
        assert_eq!(
            starts,
            [(0, 0), (1, 100), (2, 150), (3, 3)],
            "{}",
            policy.name()
        );
    }
    run_pair(cluster, &jobs, "never-ending");
}

/// Release-mode deep-stream differential — the EASY family over a
/// `polaris_synth:50000` stream (queues thousands of jobs deep), then all
/// four pairs at 5k (the O(profile²) Conservative reference cannot face
/// 50k):
///
/// ```text
/// cargo test --release --test backfill_equivalence -- --ignored
/// ```
#[test]
#[ignore = "deep-stream differential: run in release mode via -- --ignored"]
fn deep_polaris_stream_matches_reference_in_release() {
    let cluster = ClusterConfig::polaris();
    let stream = |n: usize| {
        scenario_builtins()
            .generate(
                &format!("polaris_synth:{n}"),
                &ScenarioContext::new(n).with_seed(7),
            )
            .expect("builtin scenario")
            .jobs
    };
    let jobs = stream(50_000);
    let options = SimOptions {
        max_queries: 16_000_000,
        ..SimOptions::default()
    };
    // The first two pairs are the EASY ones.
    for (mut calendar, mut reference) in policy_pairs().into_iter().take(2) {
        let label = format!("polaris_synth:50000/{}", calendar.name());
        let a = run_logged(cluster, &jobs, calendar.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (calendar): {e}"));
        let b = run_logged(cluster, &jobs, reference.as_mut(), &options)
            .unwrap_or_else(|e| panic!("{label} (reference): {e}"));
        assert_outcomes_identical(&a, &b, &label);
    }
    run_pair(cluster, &stream(5_000), "polaris_synth:5000");
}

// ------------------------------------------------------------------------
// Calendar proptests: the incremental structure vs naive recompute
// ------------------------------------------------------------------------

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// Naive skyline from a release list — fold in time order with the same
/// equal-time/overrun merge the policies always used.
fn naive_build(
    now: SimTime,
    free_nodes: u32,
    free_memory_gb: u64,
    releases: &[(SimTime, u32, u64)],
) -> Profile {
    let mut sorted = releases.to_vec();
    sorted.sort_unstable();
    let mut points: Profile = vec![(now, free_nodes, free_memory_gb)];
    for &(rt, nodes, mem) in &sorted {
        let &(last_t, last_n, last_m) = points.last().expect("non-empty");
        let (free_n, free_m) = (last_n + nodes, last_m + mem);
        if rt <= last_t {
            let last = points.last_mut().expect("non-empty");
            last.1 = free_n;
            last.2 = free_m;
        } else {
            points.push((rt, free_n, free_m));
        }
    }
    points
}

fn scalar_points(cal: &CapacityCalendar) -> Profile {
    cal.points()
        .iter()
        .map(|p| (p.time, p.free_nodes, p.free_memory_gb))
        .collect()
}

/// A release list strategy: up to 12 running jobs with ends straddling
/// `now` (overruns included), small node/memory grants.
fn releases() -> impl Strategy<Value = Vec<(u64, u32, u64)>> {
    prop::collection::vec((0u64..200, 1u32..8, 1u64..32), 0..12)
}

/// Reservations over the same horizon: `(start, len, nodes, mem)`.
fn reservations() -> impl Strategy<Value = Vec<(u64, u64, u32, u64)>> {
    prop::collection::vec((0u64..250, 1u64..80, 1u32..8, 1u64..32), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `CapacityCalendar::build` + a `reserve` sequence stays point-for-
    /// point equal to the naive rebuild-and-full-scan profile.
    #[test]
    fn calendar_build_and_reserve_match_naive_profile(
        rel in releases(),
        res in reservations(),
    ) {
        let now = t(50);
        let (free_nodes, free_memory_gb) = (16u32, 128u64);
        let rel: Vec<(SimTime, u32, u64)> =
            rel.into_iter().map(|(s, n, m)| (t(s), n, m)).collect();

        let mut sorted = rel.clone();
        sorted.sort_unstable();
        let mut cal = CapacityCalendar::build(
            now,
            free_nodes,
            free_memory_gb,
            [0; reasoned_scheduler::cluster::MAX_CLASSES],
            sorted.iter().map(|&(rt, n, m)| {
                (rt, n, m, [0; reasoned_scheduler::cluster::MAX_CLASSES])
            }),
        );
        let mut naive = naive_build(now, free_nodes, free_memory_gb, &rel);
        prop_assert_eq!(scalar_points(&cal), naive.clone());

        for (start_s, len_s, nodes, mem) in res {
            let (start, end) = (t(start_s), t(start_s + len_s));
            cal.reserve(start, end, nodes, mem);
            reserve(&mut naive, start, end, nodes, mem);
            prop_assert_eq!(scalar_points(&cal), naive.clone());
        }
    }

    /// The monotone-cursor `earliest_window` equals the quadratic
    /// candidate loop on arbitrarily reserved (non-monotone) skylines.
    #[test]
    fn earliest_window_matches_quadratic_candidate_loop(
        rel in releases(),
        res in reservations(),
        demands in prop::collection::vec((1u32..20, 1u64..160, 1u64..120), 1..8),
    ) {
        let now = t(50);
        let rel: Vec<(SimTime, u32, u64)> =
            rel.into_iter().map(|(s, n, m)| (t(s), n, m)).collect();
        let mut sorted = rel.clone();
        sorted.sort_unstable();
        let mut cal = CapacityCalendar::build(
            now,
            16,
            128,
            [0; reasoned_scheduler::cluster::MAX_CLASSES],
            sorted.iter().map(|&(rt, n, m)| {
                (rt, n, m, [0; reasoned_scheduler::cluster::MAX_CLASSES])
            }),
        );
        let mut naive = naive_build(now, 16, 128, &rel);
        for (start_s, len_s, nodes, mem) in res {
            cal.reserve(t(start_s), t(start_s + len_s), nodes, mem);
            reserve(&mut naive, t(start_s), t(start_s + len_s), nodes, mem);
        }
        for (nodes, mem, wall_s) in demands {
            // Demands are capped at machine capacity: both placement loops
            // assume the final (fully-free) point admits the job.
            let nodes = nodes.min(16);
            let mem = mem.min(128);
            let wall = SimDuration::from_secs(wall_s);
            prop_assert_eq!(
                cal.earliest_window(nodes, mem, wall),
                earliest_start(&naive, nodes, mem, wall)
            );
        }
    }

    /// The `ReservationProfile` overlay's fused `place` (the one call the
    /// conservative pass and the solver's decoder make) stays
    /// bit-identical to a cloned `CapacityCalendar` driven through
    /// `earliest_window` + `reserve`: same windows, same effective levels.
    /// `not_before` is modelled on the clone by blocking the whole machine
    /// up to it.
    #[test]
    fn overlay_matches_a_cloned_calendar(
        rel in releases(),
        res in reservations(),
        demands in prop::collection::vec((1u32..20, 1u64..160, 1u64..120), 1..8),
    ) {
        let now = t(50);
        let rel: Vec<(SimTime, u32, u64)> =
            rel.into_iter().map(|(s, n, m)| (t(s), n, m)).collect();
        let mut sorted = rel.clone();
        sorted.sort_unstable();
        let base = CapacityCalendar::build(
            now,
            16,
            128,
            [0; reasoned_scheduler::cluster::MAX_CLASSES],
            sorted.iter().map(|&(rt, n, m)| {
                (rt, n, m, [0; reasoned_scheduler::cluster::MAX_CLASSES])
            }),
        );
        let mut cloned = base.clone();
        let mut overlay = ReservationProfile::new();
        for (not_before_s, wall_s, nodes, mem) in res {
            // Query before each placement the way the policy does, with
            // the demand capped at machine capacity (both placement loops
            // assume the final point admits the job).
            for &(n, m, wall_s) in &demands {
                let wall = SimDuration::from_secs(wall_s);
                prop_assert_eq!(
                    overlay.earliest_window(base.points(), now, n.min(16), m.min(128), wall),
                    cloned.earliest_window(n.min(16), m.min(128), wall)
                );
            }
            // Instants on either side of the calendar start: the policy
            // searches from `now`, the solver from each task's release.
            let (not_before, wall) = (t(not_before_s), SimDuration::from_secs(wall_s));
            let mut blocked = cloned.clone();
            if not_before > now {
                blocked.reserve(now, not_before, u32::MAX, u64::MAX);
            }
            let start = blocked.earliest_window(nodes, mem, wall);
            cloned.reserve(start, start + wall, nodes, mem);
            prop_assert_eq!(
                overlay.place(base.points(), not_before, nodes, mem, wall),
                start
            );
            // Effective levels agree at every boundary of either side.
            for &(pt, pn, pm) in &scalar_points(&cloned) {
                let (res_n, res_m) = overlay.reserved_at(pt);
                let eff = base.at(pt);
                prop_assert_eq!(
                    (pn, pm),
                    (eff.free_nodes.saturating_sub(res_n),
                     eff.free_memory_gb.saturating_sub(res_m))
                );
            }
        }
    }
}
