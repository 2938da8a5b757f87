//! The zero-copy kernel's correctness contract: a **straight-line
//! reference simulator** — per-iteration queue re-sort, per-query rebuild
//! of the running summaries, per-query recompute of the completed
//! aggregate, exactly the pre-refactor data path — must produce
//! bit-identical [`SimOutcome`]s to the incremental kernel for every
//! builtin policy, across scenarios and seeds.
//!
//! Also home of the `#[ignore]`-by-default 50k-job scale smoke test:
//!
//! ```text
//! cargo test --release --test kernel_equivalence -- --ignored
//! ```

use reasoned_scheduler::cluster::{
    classed_overlap_fits, ClusterState, NodeClass, PlacementRequest, ResourceVec, RunningJob,
    RunningOrder, StartError, MAX_CLASSES,
};
use reasoned_scheduler::cpsolver::SolverConfig;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::registry::names;
use reasoned_scheduler::sim::{
    ActionOutcome, CapacityCalendar, KernelState, RejectReason, SimError, SimStats,
};
use reasoned_scheduler::simkit::{EventQueue, Rng, Xoshiro256PlusPlus};

mod common;
use common::{run_logged, serve_with_fair_share};

/// The reference's event alphabet: it keeps arrivals on the same FIFO
/// queue as completions, every arrival pushed before any completion. That
/// queue's order is the definition of what the kernel's driver — which
/// walks arrivals with a cursor and keeps only completions on a heap —
/// must deliver. A completion names the running job's slot in the
/// cluster's table.
#[derive(Debug, Clone, Copy)]
enum RefEvent {
    Arrival(usize),
    Completion(usize),
}

enum Applied {
    Placement,
    Delay,
    Stop,
}

/// The kernel's bound on consecutive rejected actions per epoch (§2.4).
const MAX_CONSECUTIVE_INVALID: usize = 5;

/// The pre-refactor kernel, reimplemented the obvious O(n²) way on the
/// public API: clone-heavy snapshots, full re-sorts, full rescans. Slow by
/// design — it is the semantic oracle the incremental kernel must match
/// bit for bit.
fn reference_simulate(
    config: ClusterConfig,
    jobs: &[JobSpec],
    policy: &mut dyn SchedulingPolicy,
    options: &SimOptions,
) -> Result<SimOutcome, SimError> {
    let mut cluster = ClusterState::new(config);
    let mut events: EventQueue<RefEvent> = EventQueue::with_capacity(jobs.len() * 2);
    for (idx, job) in jobs.iter().enumerate() {
        events.push(job.submit, RefEvent::Arrival(idx));
    }

    let mut waiting: Vec<JobSpec> = Vec::new();
    let mut pending_arrivals = jobs.len();
    let mut decisions: Vec<DecisionRecord> = Vec::new();
    let mut stats = SimStats::default();
    let mut stopped = false;

    let mut now = events.peek_time().unwrap_or(SimTime::ZERO);

    while cluster.completed().len() < jobs.len() {
        let Some(t) = events.peek_time() else {
            return Err(SimError::Stuck {
                time: now,
                waiting: waiting.len(),
            });
        };
        now = t;

        while events.peek_time() == Some(t) {
            match events.pop().expect("peeked").1 {
                RefEvent::Arrival(idx) => {
                    waiting.push(jobs[idx].clone());
                    pending_arrivals -= 1;
                }
                RefEvent::Completion(slot) => {
                    cluster.complete_job(slot, t);
                }
            }
        }
        // Straight-line: re-sort the whole queue at every event time.
        waiting.sort_by_key(|j| (j.submit, j.id));

        // Straight-line placeability: scan the whole queue.
        let placeable = waiting.iter().any(|j| cluster.can_fit(j));
        let should_query = placeable || (waiting.is_empty() && pending_arrivals == 0);
        if !stopped && should_query {
            stats.epochs += 1;
            let mut consecutive_invalid = 0usize;
            loop {
                if stats.queries >= options.max_queries {
                    return Err(SimError::QueryBudgetExhausted {
                        limit: options.max_queries,
                    });
                }
                // Straight-line snapshot: rebuild every collection and
                // recount the completed jobs, per query. A fresh
                // copy of the cluster carries no index, so the view's id
                // order and the calendar's release order are each one
                // sort of the slot table.
                let table = cluster.clone();
                let view = SystemView {
                    now,
                    config: table.config(),
                    free_nodes: table.free_nodes(),
                    free_memory_gb: table.free_memory_gb(),
                    free_by_class: table.free_by_class(),
                    waiting: waiting.as_slice().into(),
                    running: Running::from(&table),
                    completed: table.completed().len(),
                    pending_arrivals,
                    total_jobs: jobs.len(),
                    telemetry: None,
                    queue: None,
                };
                let action = policy.decide(&view);
                stats.queries += 1;

                let verdict = reference_apply(
                    &mut cluster,
                    &mut events,
                    &mut waiting,
                    pending_arrivals,
                    now,
                    options,
                    action,
                );
                let rejected = verdict.as_ref().err().cloned();
                policy.observe(&ActionOutcome {
                    time: now,
                    action,
                    rejected: rejected.clone(),
                });
                decisions.push(DecisionRecord {
                    time: now,
                    action,
                    rejected,
                    queue_len: waiting.len(),
                    free_nodes: cluster.free_nodes(),
                    free_memory_gb: cluster.free_memory_gb(),
                });

                match verdict {
                    Ok(Applied::Placement) => {
                        consecutive_invalid = 0;
                        stats.placements += 1;
                        if matches!(action, Action::BackfillJob(_)) {
                            stats.backfills += 1;
                        }
                        if waiting.is_empty() && pending_arrivals > 0 {
                            break;
                        }
                        if !waiting.is_empty() && !waiting.iter().any(|j| cluster.can_fit(j)) {
                            break;
                        }
                    }
                    Ok(Applied::Delay) => {
                        stats.delays += 1;
                        break;
                    }
                    Ok(Applied::Stop) => {
                        stopped = true;
                        break;
                    }
                    Err(_) => {
                        stats.rejections += 1;
                        consecutive_invalid += 1;
                        if consecutive_invalid >= MAX_CONSECUTIVE_INVALID {
                            stats.delays += 1;
                            break;
                        }
                    }
                }
            }
        }

        if cluster.completed().len() < jobs.len()
            && events.is_empty()
            && cluster.running_count() == 0
        {
            return Err(SimError::Stuck {
                time: now,
                waiting: waiting.len(),
            });
        }
    }

    Ok(SimOutcome {
        policy_name: policy.name().to_string(),
        records: cluster.completed().to_vec(),
        decisions,
        stats,
        end_time: now,
        epochs: vec![],
    })
}

fn reference_apply(
    cluster: &mut ClusterState,
    events: &mut EventQueue<RefEvent>,
    waiting: &mut Vec<JobSpec>,
    pending_arrivals: usize,
    now: SimTime,
    options: &SimOptions,
    action: Action,
) -> Result<Applied, RejectReason> {
    let lookup = |waiting: &[JobSpec], id: JobId| {
        waiting
            .iter()
            .find(|j| j.id == id)
            .cloned()
            .ok_or(RejectReason::NotInQueue(id))
    };
    let insufficient =
        |cluster: &ClusterState, spec: &JobSpec| RejectReason::InsufficientResources {
            job: spec.id,
            needed_nodes: spec.nodes,
            needed_memory_gb: spec.memory_gb,
            free_nodes: cluster.free_nodes(),
            free_memory_gb: cluster.free_memory_gb(),
        };
    let start = |cluster: &mut ClusterState,
                 events: &mut EventQueue<RefEvent>,
                 waiting: &mut Vec<JobSpec>,
                 spec: &JobSpec|
     -> Result<(), RejectReason> {
        match cluster.start_job(spec, now) {
            Ok((slot, running)) => {
                let end = running.end;
                events.push(end, RefEvent::Completion(slot));
                waiting.retain(|j| j.id != spec.id);
                Ok(())
            }
            Err(StartError::InsufficientResources { .. }) => Err(insufficient(cluster, spec)),
            Err(StartError::ExceedsCapacity) => Err(RejectReason::ExceedsCapacity(spec.id)),
        }
    };
    match action {
        Action::Delay => Ok(Applied::Delay),
        Action::Stop => {
            if waiting.is_empty() && pending_arrivals == 0 {
                Ok(Applied::Stop)
            } else {
                Err(RejectReason::StopWithPendingJobs {
                    waiting: waiting.len(),
                    pending_arrivals,
                })
            }
        }
        Action::StartJob(id) => {
            let spec = lookup(waiting, id)?;
            start(cluster, events, waiting, &spec)?;
            Ok(Applied::Placement)
        }
        Action::BackfillJob(id) => {
            let spec = lookup(waiting, id)?;
            let head = waiting
                .iter()
                .min_by_key(|j| (j.submit, j.id))
                .cloned()
                .expect("waiting non-empty: spec was found in it");
            if head.id != spec.id && options.strict_backfill {
                if !cluster.can_fit(&spec) {
                    return Err(insufficient(cluster, &spec));
                }
                if !backfill_is_safe(cluster, now, &spec, &head) {
                    let shadow = shadow_start(cluster, now, PlacementRequest::from(&head));
                    return Err(RejectReason::WouldDelayHead {
                        job: spec.id,
                        head: head.id,
                        shadow,
                    });
                }
            }
            start(cluster, events, waiting, &spec)?;
            Ok(Applied::Placement)
        }
    }
}

/// Free `(nodes, memory)` at `t`: what is free now plus every running job
/// that has ended by `t` (ending exactly at `t` counts as released).
fn free_at(cluster: &ClusterState, t: SimTime) -> (u32, u64) {
    let mut free = (cluster.free_nodes(), cluster.free_memory_gb());
    for j in cluster.running().filter(|j| j.end <= t) {
        free.0 += j.spec.nodes;
        free.1 += j.spec.memory_gb;
    }
    free
}

/// [`free_at`] per topology class, each node returned to the class that
/// hosted it. Classed clusters only.
fn free_by_class_at(cluster: &ClusterState, t: SimTime) -> [u32; MAX_CLASSES] {
    let mut free = cluster.free_by_class();
    for j in cluster.running().filter(|j| j.end <= t) {
        for (slot, n) in j.allocation.by_class.into_iter().enumerate() {
            free[slot] += n;
        }
    }
    free
}

/// The reference's shadow time: the earliest instant `demand` could start,
/// assuming running jobs release resources exactly at their recorded end
/// times and nothing else starts in between — `now` or the first
/// completion at which the demand fits what is free then, recomputed from
/// the running set per probe (the kernel reads its incrementally
/// maintained capacity calendar instead). `SimTime::MAX` if it never fits.
fn shadow_start(cluster: &ClusterState, now: SimTime, demand: PlacementRequest) -> SimTime {
    let mut ends: Vec<SimTime> = cluster.running().map(|j| j.end).collect();
    ends.sort();
    let fits_at = |t: SimTime| {
        if cluster.config().is_flat() {
            let (nodes, mem) = free_at(cluster, t);
            demand.nodes <= nodes && demand.memory_gb <= mem
        } else {
            let free = free_by_class_at(cluster, t);
            demand.fits_classes(&cluster.config().topology, &free)
        }
    };
    // Ends before `now` cannot occur in the simulator; `max` keeps the
    // sweep total anyway.
    std::iter::once(now)
        .chain(ends.into_iter().map(|end| end.max(now)))
        .find(|&t| fits_at(t))
        .unwrap_or(SimTime::MAX)
}

/// The reference's EASY backfilling test: may `candidate` start now
/// without delaying the shadow start of `head`? `true` iff it fits the
/// current free resources and either finishes (by its *walltime estimate*)
/// no later than the head's shadow start, or leaves the head's demand
/// covered at the shadow time even while it runs.
fn backfill_is_safe(
    cluster: &ClusterState,
    now: SimTime,
    candidate: &JobSpec,
    head: &JobSpec,
) -> bool {
    if !cluster.can_fit(candidate) {
        return false;
    }
    let shadow = shadow_start(cluster, now, PlacementRequest::from(head));
    // A head that can never run cannot be delayed.
    if shadow == SimTime::MAX || now + candidate.walltime <= shadow {
        return true;
    }
    if cluster.config().is_flat() {
        let (nodes, mem) = free_at(cluster, shadow);
        nodes >= candidate.nodes + head.nodes && mem >= candidate.memory_gb + head.memory_gb
    } else {
        classed_overlap_fits(
            &cluster.config().topology,
            &cluster.free_by_class(),
            free_by_class_at(cluster, shadow),
            &PlacementRequest::from(candidate),
            &PlacementRequest::from(head),
        )
    }
}

fn quick_solver() -> SolverConfig {
    SolverConfig {
        sa_iterations_per_task: 40,
        sa_iteration_cap: 800,
        ..SolverConfig::default()
    }
}

fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.policy_name, b.policy_name, "{label}: policy name");
    assert_eq!(a.records, b.records, "{label}: records");
    assert_eq!(
        a.decisions.len(),
        a.stats.queries,
        "{label}: logged queries"
    );
    assert_eq!(a.decisions, b.decisions, "{label}: decision log");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
}

/// Scripted input for the strict-backfill validator: proposes
/// `BackfillJob` for every waiting job that fits, whether or not it would
/// delay the queue head. EASY itself only proposes safe backfills, so this
/// is what drives the `WouldDelayHead { shadow }` refusal. A job refused at
/// one instant is not proposed again until the clock moves.
#[derive(Default)]
struct BackfillEverything {
    at: SimTime,
    refused: Vec<JobId>,
}

impl SchedulingPolicy for BackfillEverything {
    fn name(&self) -> &str {
        "backfill-everything"
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if view.now != self.at {
            self.at = view.now;
            self.refused.clear();
        }
        if view.all_jobs_started() {
            return Action::Stop;
        }
        match view.eligible_now().find(|j| !self.refused.contains(&j.id)) {
            Some(job) => Action::BackfillJob(job.id),
            None => Action::Delay,
        }
    }

    fn observe(&mut self, outcome: &ActionOutcome) {
        if let (Action::BackfillJob(id), Some(_)) = (outcome.action, &outcome.rejected) {
            self.refused.push(id);
        }
    }
}

/// All builtin policies × 3 seeds × (4 scenarios on flat `paper_default`,
/// and `gpu_skewed_hetmix` on classed `mixed_256` with static and dynamic
/// arrivals): the incremental kernel and the straight-line reference
/// produce bit-identical outcomes. The reference's saturation test is the
/// brute-force `any(can_fit)`, so a wrong verdict from the queue's fit
/// summary — watermarks on the flat machine, the per-compatibility index
/// on the classed one — shows as a different query count or decision log.
/// Then the scripted backfill-everything input under `strict_backfill`,
/// flat and classed: the kernel validates against the capacity calendar,
/// the reference against the completion sweeps above, and both
/// the accepted backfills and every `WouldDelayHead { shadow }` must agree.
#[test]
fn incremental_kernel_matches_straight_line_reference() {
    use ArrivalMode::{Dynamic, Static};
    let flat = ClusterConfig::paper_default();
    let classed = ClusterConfig::mixed_256();
    let grid = [
        (flat, "heterogeneous_mix", 12, Dynamic),
        (flat, "adversarial", 12, Dynamic),
        (flat, "long_tail", 12, Dynamic),
        (flat, "resource_sparse", 12, Dynamic),
        (classed, "gpu_skewed_hetmix", 24, Static),
        (classed, "gpu_skewed_hetmix", 24, Dynamic),
    ];
    let registry = PolicyRegistry::with_builtins();
    for (cluster, scenario, n_jobs, mode) in grid {
        for seed in 1u64..=3 {
            let jobs = scenario_builtins()
                .generate(
                    scenario,
                    &ScenarioContext::new(n_jobs).with_mode(mode).with_seed(seed),
                )
                .expect("builtin scenario")
                .jobs;
            let ctx = PolicyContext::new(&jobs, cluster)
                .with_seed(seed)
                .with_solver(quick_solver());
            for name in names::ALL_BUILTIN {
                let label = format!("{name} on {scenario}/{mode:?}/seed {seed}");
                let options = SimOptions::default();
                let mut incremental = registry.build(name, &ctx).expect("builtin");
                let mut reference = registry.build(name, &ctx).expect("builtin");
                let a = run_logged(cluster, &jobs, incremental.as_mut(), &options)
                    .unwrap_or_else(|e| panic!("{label} (incremental): {e}"));
                let b = reference_simulate(cluster, &jobs, reference.as_mut(), &options)
                    .unwrap_or_else(|e| panic!("{label} (reference): {e}"));
                assert_outcomes_identical(&a, &b, &label);
            }
        }
    }

    let strict = SimOptions {
        strict_backfill: true,
        ..SimOptions::default()
    };
    for (cluster, scenario) in [
        (ClusterConfig::paper_default(), "heterogeneous_mix"),
        (ClusterConfig::mixed_256(), "gpu_skewed_hetmix"),
    ] {
        let (mut accepted, mut refused) = (0, 0);
        for seed in 1u64..=3 {
            let label = format!("backfill-everything on {scenario}/seed {seed}");
            let jobs = scenario_builtins()
                .generate(
                    scenario,
                    &ScenarioContext::new(64)
                        .with_mode(ArrivalMode::Dynamic)
                        .with_seed(seed),
                )
                .expect("builtin scenario")
                .jobs;
            let a = run_logged(cluster, &jobs, &mut BackfillEverything::default(), &strict)
                .unwrap_or_else(|e| panic!("{label} (incremental): {e}"));
            let b = reference_simulate(cluster, &jobs, &mut BackfillEverything::default(), &strict)
                .unwrap_or_else(|e| panic!("{label} (reference): {e}"));
            assert_outcomes_identical(&a, &b, &label);
            // A backfill of the head itself skips the validator; count the
            // ones that overtook an earlier-submitted job still waiting.
            accepted += a
                .records
                .iter()
                .filter(|b| {
                    a.records.iter().any(|h| {
                        (h.spec.submit, h.spec.id) < (b.spec.submit, b.spec.id)
                            && h.spec.submit <= b.start
                            && b.start < h.start
                    })
                })
                .count();
            refused += a
                .decisions
                .iter()
                .filter(|d| matches!(d.rejected, Some(RejectReason::WouldDelayHead { .. })))
                .count();
        }
        assert!(
            accepted > 0 && refused > 0,
            "{scenario}: the input must drive both validator paths \
             ({accepted} accepted, {refused} refused)"
        );
    }
}

/// Hands the first `random_queries` queries to [`RandomPolicy`], the rest
/// to `then`. Random starts jobs from anywhere in the queue, so the ordered
/// sets SJF and EASY ask for are first built over a queue with tombstones
/// in it, not over an untouched backlog.
struct RandomThen {
    random_queries: usize,
    random: RandomPolicy,
    then: Box<dyn SchedulingPolicy>,
}

impl SchedulingPolicy for RandomThen {
    fn name(&self) -> &str {
        self.then.name()
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if self.random_queries == 0 {
            return self.then.decide(view);
        }
        self.random_queries -= 1;
        self.random.decide(view)
    }

    fn observe(&mut self, outcome: &ActionOutcome) {
        self.then.observe(outcome);
    }
}

/// Static backlogs of 600 jobs — flat `long_tail` on Polaris, classed
/// `gpu_skewed_hetmix` on `mixed_256` — under the policies that start jobs
/// from the middle of the queue, alone and after 40 random starts: the
/// queue holds hundreds of tombstones between compactions, the kernel finds
/// every start off the head through the id → slot index, and SJF's and
/// EASY's class maps are built from the waiting jobs only. The incremental
/// kernel and the straight-line reference, which closes each hole with
/// `retain`, produce bit-identical outcomes.
#[test]
fn incremental_kernel_matches_reference_on_deep_static_backlogs() {
    let registry = PolicyRegistry::with_builtins();
    let options = SimOptions::default();
    for (cluster, scenario) in [
        (ClusterConfig::polaris(), "long_tail"),
        (ClusterConfig::mixed_256(), "gpu_skewed_hetmix"),
    ] {
        let seed = 7;
        let ctx = ScenarioContext::new(600)
            .with_mode(ArrivalMode::Static)
            .with_seed(seed);
        let generated = scenario_builtins().generate(scenario, &ctx);
        let jobs = generated.expect("builtin scenario").jobs;
        let ctx = PolicyContext::new(&jobs, cluster).with_seed(seed);
        let alone = [
            names::SJF,
            names::EASY,
            names::EASY_SJBF,
            names::CONSERVATIVE,
            names::RANDOM,
        ]
        .map(|name| (name, 0));
        let after_random = [(names::SJF, 40), (names::EASY, 40)];
        for (name, random) in alone.into_iter().chain(after_random) {
            let label = format!("{name} after {random} random starts on {scenario}");
            let build = || RandomThen {
                random_queries: random,
                random: RandomPolicy::new(seed),
                then: registry.build(name, &ctx).expect("builtin"),
            };
            let a = run_logged(cluster, &jobs, &mut build(), &options)
                .unwrap_or_else(|e| panic!("{label} (incremental): {e}"));
            let b = reference_simulate(cluster, &jobs, &mut build(), &options)
                .unwrap_or_else(|e| panic!("{label} (reference): {e}"));
            assert_outcomes_identical(&a, &b, &label);
            assert_eq!(a.stats.rejections, 0, "{label}: every start found its job");
        }
    }
}

/// SJF as it was before the wait queue kept a shortest-first order: a fit
/// test and a compare on every waiting job, every query. The straight-line
/// reference for [`Sjf`], which asks the queue instead.
struct RefSjf {
    last_delay: Option<DelayReason>,
}

impl SchedulingPolicy for RefSjf {
    fn name(&self) -> &str {
        "SJF"
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        self.last_delay = None;
        if view.all_jobs_started() {
            return Action::Stop;
        }
        match view.eligible_now().min_by_key(|j| (j.walltime, j.id)) {
            Some(j) => Action::StartJob(j.id),
            None => {
                self.last_delay = Some(if view.waiting.is_empty() {
                    DelayReason::QueueEmpty
                } else {
                    DelayReason::NoFitNow
                });
                Action::Delay
            }
        }
    }

    fn provenance(&mut self) -> Option<DelayReason> {
        self.last_delay.take()
    }
}

/// [`Sjf`] reads its pick off the wait queue's shortest-first order;
/// [`RefSjf`] walks the queue. Same kernel under both, 2000 jobs so the
/// queue is deep when the order is first built: decisions, records and
/// epoch provenance are equal on a static flat backlog, a dynamic flat
/// stream, the classed machine, and through the service driver, where
/// non-zero fair-share ranks reorder the queue and must not reorder SJF.
#[test]
fn sjf_on_the_queue_order_matches_the_linear_minimum() {
    use ArrivalMode::{Dynamic, Static};
    let grid = [
        (ClusterConfig::polaris(), "long_tail", Static, false),
        (
            ClusterConfig::paper_default(),
            "heterogeneous_mix",
            Dynamic,
            false,
        ),
        (
            ClusterConfig::mixed_256(),
            "gpu_skewed_hetmix",
            Dynamic,
            false,
        ),
        (
            ClusterConfig::paper_default(),
            "heterogeneous_mix",
            Dynamic,
            true,
        ),
    ];
    for (cluster, scenario, mode, served) in grid {
        let label = format!("SJF on {scenario}/{mode:?}, served: {served}");
        let jobs = scenario_builtins()
            .generate(
                scenario,
                &ScenarioContext::new(2000).with_mode(mode).with_seed(7),
            )
            .expect("builtin scenario")
            .jobs;
        let run = |mut policy: Box<dyn SchedulingPolicy>| {
            if served {
                serve_with_fair_share(cluster, &jobs, policy)
            } else {
                run_logged(cluster, &jobs, policy.as_mut(), &SimOptions::default())
                    .unwrap_or_else(|e| panic!("{label}: {e}"))
            }
        };
        let a = run(Box::new(Sjf::new()));
        let b = run(Box::new(RefSjf { last_delay: None }));
        assert_outcomes_identical(&a, &b, &label);
        assert_eq!(a.epochs, b.epochs, "{label}: epoch provenance");
        assert_eq!(a.records.len(), jobs.len(), "{label}: every job ran");
    }
}

/// The policies pinned against pre-refactor outcomes: exactly the seven
/// builtins that existed before the multi-resource cluster model landed.
/// Policies added later have no pre-refactor baseline and are covered by
/// the reference-equivalence grid above instead.
const PINNED_POLICIES: [&str; 7] = [
    names::FCFS,
    names::SJF,
    names::OR_TOOLS,
    names::CLAUDE37,
    names::O4_MINI,
    names::EASY,
    names::RANDOM,
];

const PINS_PATH: &str = "fixtures/pins/kernel_pins.txt";

/// FNV-1a 64 over `bytes` — the same stable hash the campaign cache uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A 64-bit fingerprint of everything schedule-bearing in an outcome: every
/// completed record (spec fields, start, end) plus the end time. Decision
/// logs are deliberately excluded — policy-internal bookkeeping (rejection
/// counts, probe order) may evolve without changing the schedule.
fn outcome_fingerprint(out: &SimOutcome) -> u64 {
    use std::fmt::Write;
    let mut s = String::new();
    for r in &out.records {
        let sp = &r.spec;
        write!(
            s,
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{};",
            sp.id.0,
            sp.user.0,
            sp.group.0,
            sp.submit.as_millis(),
            sp.duration.as_millis(),
            sp.walltime.as_millis(),
            sp.nodes,
            sp.memory_gb,
            r.start.as_millis(),
            r.end.as_millis(),
        )
        .expect("write to String");
    }
    write!(s, "end={}", out.end_time.as_millis()).expect("write to String");
    fnv1a64(s.as_bytes())
}

/// Flat single-class cluster configs must reproduce the **pre-refactor**
/// kernel bit-identically: every pinned policy × scenario × seed cell's
/// schedule fingerprint matches `fixtures/pins/kernel_pins.txt`, which was
/// captured by running this test with `PIN_REGEN=1` against the tree
/// *before* the multi-resource refactor.
///
/// ```text
/// PIN_REGEN=1 cargo test --test kernel_equivalence flat_cluster
/// ```
#[test]
fn flat_cluster_reproduces_pre_refactor_pins() {
    let scenarios = [
        "heterogeneous_mix",
        "adversarial",
        "long_tail",
        "resource_sparse",
    ];
    let cluster = ClusterConfig::paper_default();
    let registry = PolicyRegistry::with_builtins();
    let mut lines = Vec::new();
    for scenario in scenarios {
        for seed in 1u64..=3 {
            let jobs = scenario_builtins()
                .generate(
                    scenario,
                    &ScenarioContext::new(12)
                        .with_mode(ArrivalMode::Dynamic)
                        .with_seed(seed),
                )
                .expect("builtin scenario")
                .jobs;
            let ctx = PolicyContext::new(&jobs, cluster)
                .with_seed(seed)
                .with_solver(quick_solver());
            for name in PINNED_POLICIES {
                let mut policy = registry.build(name, &ctx).expect("builtin");
                let out = run_simulation(cluster, &jobs, policy.as_mut(), &SimOptions::default())
                    .unwrap_or_else(|e| panic!("{name} on {scenario}/seed {seed}: {e}"));
                lines.push(format!(
                    "{name}|{scenario}|{seed}|{:016x}",
                    outcome_fingerprint(&out)
                ));
            }
        }
    }
    let actual = lines.join("\n") + "\n";
    if std::env::var("PIN_REGEN").as_deref() == Ok("1") {
        std::fs::create_dir_all("fixtures/pins").expect("create fixtures/pins");
        std::fs::write(PINS_PATH, &actual).expect("write pins");
        return;
    }
    let expected = std::fs::read_to_string(PINS_PATH)
        .expect("pins fixture missing; capture with PIN_REGEN=1 on a pre-refactor tree");
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want, "schedule drifted from its pre-refactor pin");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "pin grid size changed"
    );
}

/// A policy that never starts anything: drives the `Stuck` verdicts.
struct DelayForever;

impl SchedulingPolicy for DelayForever {
    fn name(&self) -> &str {
        "delay-forever"
    }
    fn decide(&mut self, _view: &SystemView<'_>) -> Action {
        Action::Delay
    }
}

/// The reference also agrees on *failing* runs: a policy that delays
/// forever gets the same structured `Stuck` error from both kernels.
#[test]
fn kernels_agree_on_stuck_runs() {
    let cluster = ClusterConfig::paper_default();
    let jobs = scenario_builtins()
        .generate(
            "homogeneous_short",
            &ScenarioContext::new(4)
                .with_mode(ArrivalMode::Static)
                .with_seed(2),
        )
        .expect("builtin scenario")
        .jobs;
    let a = run_simulation(cluster, &jobs, &mut DelayForever, &SimOptions::default());
    let b = reference_simulate(cluster, &jobs, &mut DelayForever, &SimOptions::default());
    match (a, b) {
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "same structured error"),
        other => panic!("expected both kernels to get stuck, got {other:?}"),
    }
}

/// On a classed machine a zero-node job consumes nothing, so the
/// allocator places it whatever its `memory_gb` — and the queue's
/// saturation verdict must say so too. Free memory is no evidence there:
/// a verdict of "saturated" from a scalar memory comparison ends this run
/// `simulation stuck at t=0s: 1 job(s) waiting with no future events`.
#[test]
fn classed_zero_node_job_runs_whatever_its_memory() {
    let cluster = ClusterConfig::mixed_256();
    let jobs = [JobSpec::new(
        0,
        0,
        SimTime::ZERO,
        SimDuration::from_secs(60),
        0,
        100_000_000,
    )];
    let options = SimOptions::default();
    let a = run_logged(cluster, &jobs, &mut Fcfs::default(), &options)
        .expect("the allocator places the job, so the kernel must offer it");
    let b = reference_simulate(cluster, &jobs, &mut Fcfs::default(), &options)
        .expect("reference places it");
    assert_outcomes_identical(&a, &b, "zero-node job on mixed_256");
    assert_eq!(a.records.len(), 1);
    assert_eq!(a.records[0].start, SimTime::ZERO);
}

/// Arrivals handed to the kernel as one batch — a service tick's
/// admissions — leave it where delivering them one at a time does: the
/// same queue, and the same decisions from the epoch that follows, whether
/// the policy reads the queue's head (FCFS), its shortest-first order (SJF)
/// or, behind a blocked head, its arrival order (EASY). The second batch
/// lands among, ahead of and behind jobs that already wait.
#[test]
fn a_batch_of_arrivals_is_one_by_one_delivery() {
    let job = |i: u32, now: u64| {
        let walltime = SimDuration::from_secs(60 + u64::from(i * 37 % 11) * 30);
        let submit = SimTime::from_secs(now.saturating_sub(u64::from(i * 5 % 4)));
        let spec = JobSpec::new(
            i,
            i % 3,
            submit,
            walltime,
            [1, 2, 4, 8, 12][i as usize % 5],
            8,
        );
        (spec, u64::from(i * 7 % 3))
    };
    let policies: [fn() -> Box<dyn SchedulingPolicy>; 3] = [
        || Box::new(Fcfs::default()),
        || Box::new(Sjf::default()),
        || Box::new(EasyBackfill::new()),
    ];
    let options = SimOptions::default();
    for policy in policies {
        let mut kernels = [true, false].map(|batched| {
            let mut kernel = KernelState::new(ClusterConfig::new(16, 256));
            let mut policy = policy();
            for (now, ids) in [(0, 0..20), (100, 20..60)] {
                let mut arrivals: Vec<_> = ids.map(|i| job(i, now)).collect();
                let now = SimTime::from_secs(now);
                if batched {
                    kernel.arrive_batch(&mut arrivals);
                } else {
                    for arrival in arrivals {
                        kernel.arrive_batch(&mut [arrival]);
                    }
                }
                kernel.advance_to(now);
                let epoch = kernel.run_epoch(now, 1, 60, policy.as_mut(), &options);
                let queried = epoch.expect("the query budget is not in play");
                assert!(queried, "{}", policy.name());
            }
            kernel
        });
        let [batched, single] = &mut kernels;
        assert_eq!(batched.waiting(), single.waiting());
        assert_eq!(batched.decisions(), single.decisions());
        assert!(batched.stats().placements > 0 && batched.waiting_len() > 20);
    }
}

/// The simulator walks its arrivals with a cursor and keeps only
/// completions on the kernel's heap; the reference keeps both on one FIFO
/// queue. Where the two could part: job lists that are not submit-sorted
/// (the cursor then walks a sorted index), several jobs at one submit
/// instant, and completions landing on an arrival's instant (arrivals are
/// delivered first). Submits and durations are cut to a 120 s grid to force
/// the last two, and the list is dealt out in a stride and in reverse to
/// force the first. Records, decisions and stats equal the reference's;
/// and the run equals — epochs too — the run over the same jobs stably
/// sorted by submit, which is the order the cursor must find for itself.
#[test]
fn arrival_cursor_delivers_what_one_event_queue_did() {
    const GRID_SECS: u64 = 120;
    let registry = PolicyRegistry::with_builtins();
    for (cluster, scenario) in [
        (ClusterConfig::paper_default(), "heterogeneous_mix"),
        (ClusterConfig::mixed_256(), "gpu_skewed_hetmix"),
    ] {
        for seed in 1u64..=3 {
            let ctx = ScenarioContext::new(48)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(seed);
            let generated = scenario_builtins().generate(scenario, &ctx);
            let mut in_order = generated.expect("builtin scenario").jobs;
            for job in &mut in_order {
                job.submit = SimTime::from_secs(job.submit.as_secs() / GRID_SECS * GRID_SECS);
                let slots = job.duration.as_secs() / GRID_SECS + 1;
                job.duration = SimDuration::from_secs(slots * GRID_SECS);
                job.walltime = job.walltime.max(job.duration);
            }
            assert!(
                in_order.windows(2).any(|w| w[0].submit == w[1].submit),
                "{scenario}/seed {seed}: several jobs per submit instant"
            );
            let n = in_order.len();
            let dealt: Vec<JobSpec> = (0..n).map(|k| in_order[k * 19 % n].clone()).collect();
            let reversed: Vec<JobSpec> = in_order.iter().rev().cloned().collect();
            for (order, jobs) in [("dealt", dealt), ("reversed", reversed)] {
                assert!(
                    !jobs.windows(2).all(|w| w[0].submit <= w[1].submit),
                    "{scenario}/seed {seed}/{order}: the list must not be submit-sorted"
                );
                let mut sorted = jobs.clone();
                sorted.sort_by_key(|j| j.submit);
                let policy_ctx = PolicyContext::new(&jobs, cluster).with_seed(seed);
                for name in [names::FCFS, names::SJF, names::EASY] {
                    let label = format!("{name} on {scenario}/seed {seed}/{order}");
                    let options = SimOptions::default();
                    let run = |jobs: &[JobSpec], reference: bool| {
                        let mut policy = registry.build(name, &policy_ctx).expect("builtin");
                        let outcome = if reference {
                            reference_simulate(cluster, jobs, policy.as_mut(), &options)
                        } else {
                            run_logged(cluster, jobs, policy.as_mut(), &options)
                        };
                        outcome.unwrap_or_else(|e| panic!("{label}: {e}"))
                    };
                    let cursor = run(&jobs, false);
                    assert_outcomes_identical(&cursor, &run(&jobs, true), &label);
                    let presorted = run(&sorted, false);
                    assert_outcomes_identical(&cursor, &presorted, &label);
                    assert_eq!(cursor.epochs, presorted.epochs, "{label}: epochs");
                    assert!(
                        cursor
                            .records
                            .iter()
                            .any(|r| jobs.iter().any(|j| j.submit == r.end)),
                        "{label}: a completion must land on an arrival's instant"
                    );
                }
            }
        }
    }
}

/// Ids that strictly ascend are distinct on sight; any other list is
/// checked on a sorted copy, and the verdict is the tree's: the first job
/// in list order that repeats an id or cannot fit.
#[test]
fn duplicate_ids_are_found_in_any_order() {
    use reasoned_scheduler::sim::validate_workload;
    let cluster = ClusterConfig::paper_default();
    let with_ids = |ids: &[u32]| -> Vec<JobSpec> {
        let job = |&id| JobSpec::new(id, 0, SimTime::ZERO, SimDuration::from_secs(60), 1, 1);
        ids.iter().map(job).collect()
    };
    let verdict = |ids: &[u32]| validate_workload(cluster, &with_ids(ids));
    let duplicate = |id| Err(SimError::DuplicateJobId(JobId(id)));
    assert_eq!(
        verdict(&[0, 1, 2, 1]),
        duplicate(1),
        "ascending, then one again"
    );
    assert_eq!(verdict(&[3, 2, 2, 1]), duplicate(2), "descending");
    assert_eq!(verdict(&[7, 7]), duplicate(7));
    assert_eq!(
        verdict(&[5, 9, 5, 9, 9]),
        duplicate(5),
        "the first to repeat"
    );
    assert_eq!(verdict(&[]), Ok(()));
    assert_eq!(verdict(&[0, 1, u32::MAX]), Ok(()));
    assert_eq!(
        verdict(&[u32::MAX, 1, 0]),
        Ok(()),
        "descending and distinct"
    );

    // Whichever offends first in list order is the one named.
    let mut jobs = with_ids(&[4, 2, 4, 6]);
    jobs[1].nodes = cluster.nodes + 1;
    let infeasible = SimError::InfeasibleJob {
        id: JobId(2),
        nodes: cluster.nodes + 1,
        memory_gb: 1,
    };
    assert_eq!(validate_workload(cluster, &jobs), Err(infeasible));
    jobs.swap(1, 3);
    assert_eq!(validate_workload(cluster, &jobs), duplicate(4));
}

/// With arrivals off the event heap, "no events left" no longer means "no
/// arrivals left": a policy that delays forever is not stuck while the
/// cursor still holds a future arrival — the clock moves on to it — and is
/// stuck, at that last arrival's instant with every job waiting, once
/// nothing runs and nothing more can arrive.
#[test]
fn stuck_waits_for_the_last_arrival() {
    let cluster = ClusterConfig::paper_default();
    let at = |id, secs| {
        let submit = SimTime::from_secs(secs);
        JobSpec::new(id, 0, submit, SimDuration::from_secs(60), 1, 1)
    };
    // Listed out of submit order, so the stuck check reads the sorted index.
    let jobs = [at(0, 300), at(1, 0), at(2, 100)];
    let options = SimOptions::default();
    let stuck = Err(SimError::Stuck {
        time: SimTime::from_secs(300),
        waiting: 3,
    });
    let cursor = run_simulation(cluster, &jobs, &mut DelayForever, &options);
    assert_eq!(cursor.map(|o| o.records.len()), stuck);
    let reference = reference_simulate(cluster, &jobs, &mut DelayForever, &options);
    assert_eq!(reference.map(|o| o.records.len()), stuck);
}

/// 50k-job scale smoke test — `#[ignore]` by default because it is only
/// meaningful in release mode:
///
/// ```text
/// cargo test --release --test kernel_equivalence -- --ignored
/// ```
///
/// The bound is deliberately generous (the release-mode kernel finishes a
/// static 50k-job heavy-tail trace in well under a second; the old cloning
/// kernel needed ~40 s): it guards against reintroducing O(n²) per-query
/// work, not against machine noise.
#[test]
#[ignore = "scale smoke test: run in release mode via -- --ignored"]
fn fifty_thousand_jobs_complete_within_a_generous_bound() {
    let cluster = ClusterConfig::polaris();
    let jobs = scenario_builtins()
        .generate(
            "long_tail",
            &ScenarioContext::new(50_000)
                .with_mode(ArrivalMode::Static)
                .with_seed(7),
        )
        .expect("builtin scenario")
        .jobs;
    let started = std::time::Instant::now();
    let out = run_simulation(cluster, &jobs, &mut Fcfs::default(), &SimOptions::default())
        .expect("50k-job trace completes");
    let wall = started.elapsed();
    assert_eq!(out.records.len(), 50_000);
    assert!(
        wall.as_secs_f64() < 60.0,
        "50k jobs took {wall:?}; the kernel has regressed to superlinear per-query work"
    );
}

/// Starts a random eligible job, or — one query in three — delays.
struct StartsSometimes(Xoshiro256PlusPlus);

impl SchedulingPolicy for StartsSometimes {
    fn name(&self) -> &str {
        "starts-sometimes"
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        let eligible: Vec<JobId> = view.eligible_now().map(|j| j.id).collect();
        if eligible.is_empty() || self.0.gen_index(3) == 0 {
            return Action::Delay;
        }
        Action::StartJob(eligible[self.0.gen_index(eligible.len())])
    }
}

/// A job arriving at `now`: up to 16 nodes, a walltime of up to 300 s that
/// the job may end well before; on a classed machine some ask for GPUs and
/// some for a class.
fn interleaving_job(rng: &mut Xoshiro256PlusPlus, id: u32, now: SimTime, flat: bool) -> JobSpec {
    let walltime = rng.gen_range_inclusive(10, 300);
    let duration = rng.gen_range_inclusive(1, walltime);
    let nodes = rng.gen_range_inclusive(1, 16) as u32;
    let memory_gb = rng.gen_range_inclusive(1, 64);
    let job = JobSpec::new(
        id,
        rng.gen_index(4) as u32,
        now,
        SimDuration::from_secs(duration),
        nodes,
        memory_gb,
    )
    .with_walltime(SimDuration::from_secs(walltime));
    match (flat, rng.gen_index(4)) {
        (true, _) | (false, 0 | 1) => job,
        (false, 2) => job.with_per_node(ResourceVec::new(0, 2, 0, 0)),
        (false, _) => job.with_class(NodeClass::BigMem),
    }
}

/// The calendar a sorted sweep of `cluster.running()` gives, each job
/// releasing at `end_of` it.
fn swept_calendar(
    cluster: &ClusterState,
    now: SimTime,
    end_of: fn(&RunningJob) -> SimTime,
) -> CapacityCalendar {
    let mut releases: Vec<_> = cluster
        .running()
        .map(|j| (end_of(j), j.spec.id, j.spec.nodes, j.allocation))
        .collect();
    releases.sort_by_key(|&(time, id, ..)| (time, id));
    CapacityCalendar::build(
        now,
        cluster.free_nodes(),
        cluster.free_memory_gb(),
        cluster.free_by_class(),
        releases
            .into_iter()
            .map(|(time, _, nodes, held)| (time, nodes, held.memory_gb, held.by_class)),
    )
}

/// The slot table's three indices against a straight sweep: random starts
/// and completions interleave on a flat machine and on `mixed_256`, each
/// index is first read at its own random step, and from that read on every
/// running view equals the id-sorted summaries of `cluster.running()` and
/// every estimated and actual calendar the one built over its sorted sweep
/// — so the maintenance of an index by starts and completions is checked
/// against its definition after every epoch it lives through.
#[test]
fn slot_table_indices_match_a_sorted_sweep_from_their_first_read_on() {
    const STEPS: u64 = 300;
    for config in [ClusterConfig::new(64, 512), ClusterConfig::mixed_256()] {
        for seed in 0..4u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut policy = StartsSometimes(Xoshiro256PlusPlus::seed_from_u64(seed + 100));
            let mut kernel = KernelState::new(config);
            let first_read: [u64; 3] = std::array::from_fn(|_| rng.gen_range_u64(STEPS));
            let [running_from, estimated_from, actual_from] = first_read;
            let (mut next_id, mut peak) = (0u32, 0);
            for step in 0..STEPS {
                let now = SimTime::from_secs(step * 10);
                for _ in 0..rng.gen_index(4) {
                    kernel.arrive(interleaving_job(&mut rng, next_id, now, config.is_flat()));
                    next_id += 1;
                }
                kernel.advance_to(now);
                let options = SimOptions::default();
                let epoch = kernel.run_epoch(now, 1, usize::MAX, &mut policy, &options);
                epoch.expect("the epoch runs");

                let cluster = kernel.cluster();
                peak = peak.max(cluster.running_count());
                let view = kernel.view(now, 1, usize::MAX);
                let label = format!("seed {seed}, step {step}, flat: {}", config.is_flat());
                // No index exists before its first read.
                let orders = [
                    RunningOrder::Id,
                    RunningOrder::ExpectedEnd,
                    RunningOrder::End,
                ];
                let built = orders.map(|order| cluster.order_built(order));
                assert_eq!(built, first_read.map(|from| step > from), "{label}");
                if step >= running_from {
                    let mut summaries: Vec<RunningSummary> = cluster
                        .running()
                        .map(|j| RunningSummary {
                            id: j.spec.id,
                            user: j.spec.user,
                            nodes: j.spec.nodes,
                            memory_gb: j.allocation.memory_gb,
                            start: j.start,
                            submit: j.spec.submit,
                            expected_end: j.expected_end(),
                            class: j.spec.class,
                        })
                        .collect();
                    summaries.sort_by_key(|r| r.id);
                    assert_eq!(view.running, Running::from(&summaries[..]), "{label}");
                }
                let mut calendar = CapacityCalendar::default();
                if step >= estimated_from {
                    let swept = swept_calendar(cluster, now, RunningJob::expected_end);
                    view.capacity_calendar(&mut calendar);
                    assert_eq!(calendar, swept, "{label}");
                }
                if step >= actual_from {
                    let swept = swept_calendar(cluster, now, |j| j.end);
                    calendar.rebuild_from(now, cluster, RunningOrder::End);
                    assert_eq!(calendar, swept, "{label}");
                }
            }
            assert!(
                peak >= 4,
                "seed {seed}: at most {peak} jobs ever ran at once"
            );
        }
    }
}
