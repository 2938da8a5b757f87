//! Property-based tests (proptest) over the core data structures and
//! invariants: the allocator ledger, the event queue, SGS feasibility,
//! metric ranges, the action-grammar round trip, and the prompt round trip.

use proptest::prelude::*;

use reasoned_scheduler::agent::action::{parse_action, parse_completion};
use reasoned_scheduler::agent::{PromptBuilder, Scratchpad};
use reasoned_scheduler::cluster::{
    Allocation, ClassedAllocator, ClusterConfig, ClusterState, FirstFitAllocator, JobId, JobRecord,
    JobSpec, NodeClass, PlacementRequest, ResourceVec, RunningJob, MAX_CLASSES,
};
use reasoned_scheduler::cpsolver::anneal::{anneal, AnnealConfig};
use reasoned_scheduler::cpsolver::sgs::decode_with_makespan;
use reasoned_scheduler::cpsolver::{Instance, Schedule, Task};
use reasoned_scheduler::llm::backend::{HistoryKey, Prompt};
use reasoned_scheduler::llm::prompt_parse::parse_prompt;
use reasoned_scheduler::llm::tokens::estimate_tokens;
use reasoned_scheduler::metrics::{jain_index, MetricsReport};
use reasoned_scheduler::sim::{Action, KernelState, RunningSummary, SystemView};
use reasoned_scheduler::simkit::csv;
use reasoned_scheduler::simkit::rng::{Rng, Xoshiro256PlusPlus};
use reasoned_scheduler::simkit::{EventQueue, SimDuration, SimTime};

// ---------------------------------------------------------------- allocator

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interleaved allocate/release sequences never oversubscribe and
    /// always restore the empty state after releasing everything.
    #[test]
    fn allocator_conserves_resources(
        requests in prop::collection::vec((1u32..16, 1u64..64), 1..40)
    ) {
        let mut alloc = FirstFitAllocator::new(32, 256);
        let mut live = Vec::new();
        for (i, (nodes, mem)) in requests.into_iter().enumerate() {
            if let Some(grant) = alloc.try_allocate(nodes, mem) {
                prop_assert_eq!(grant.nodes, nodes);
                live.push(grant);
            }
            // Periodically release the oldest grant.
            if i % 3 == 2 && !live.is_empty() {
                let grant = live.remove(0);
                alloc.release(&grant);
            }
            alloc.check_invariants();
            let live_nodes: u32 = live.iter().map(|g| g.nodes).sum();
            let live_mem: u64 = live.iter().map(|g| g.memory_gb).sum();
            prop_assert_eq!(alloc.free_nodes(), 32 - live_nodes);
            prop_assert_eq!(alloc.free_memory_gb(), 256 - live_mem);
        }
        for grant in live.drain(..) {
            alloc.release(&grant);
        }
        prop_assert_eq!(alloc.free_nodes(), 32);
        prop_assert_eq!(alloc.free_memory_gb(), 256);
    }
}

// ------------------------------------------------------- classed allocator

/// An arbitrary placement request against the mixed-class machine: class
/// pins, vector per-node demands, wide classless spans, and zero-demand
/// scalar jobs all appear.
fn classed_request() -> impl Strategy<Value = PlacementRequest> {
    (
        1u32..80,
        0u64..512,
        0u32..96,
        0u32..6,
        0u64..160,
        0u32..6,
        0usize..4,
    )
        .prop_map(
            |(nodes, mem, cpus, gpus, pn_mem, bb, class)| PlacementRequest {
                nodes,
                memory_gb: mem,
                per_node: ResourceVec::new(cpus, gpus, pn_mem, bb),
                class: match class {
                    0 => Some(NodeClass::Cpu),
                    1 => Some(NodeClass::Gpu),
                    2 => Some(NodeClass::BigMem),
                    _ => None,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Interleaved classed allocate/release sequences conserve every
    /// dimension — node totals, per-class free watermarks, and the
    /// capacity-charged memory ledger — and restore the pristine machine
    /// after releasing everything.
    #[test]
    fn classed_allocator_conserves_every_dimension(
        requests in prop::collection::vec(classed_request(), 1..40)
    ) {
        let topology = ClusterConfig::mixed_256().topology;
        let mut alloc = ClassedAllocator::new(topology);
        let (total_nodes, total_mem) = (alloc.total_nodes(), alloc.total_memory_gb());
        let full_free = alloc.free_by_class();
        let mut live: Vec<Allocation> = Vec::new();
        for (i, req) in requests.into_iter().enumerate() {
            if let Some(grant) = alloc.try_allocate(&req) {
                prop_assert_eq!(grant.nodes, req.nodes);
                live.push(grant);
            }
            if i % 3 == 2 && !live.is_empty() {
                let grant = live.remove(0);
                alloc.release(&grant);
            }
            alloc.check_invariants();
            let live_nodes: u32 = live.iter().map(|g| g.nodes).sum();
            let live_mem: u64 = live.iter().map(|g| g.memory_gb).sum();
            prop_assert_eq!(alloc.free_nodes(), total_nodes - live_nodes);
            prop_assert_eq!(alloc.free_memory_gb(), total_mem - live_mem);
            // The per-class watermarks always sum to the free total.
            let by_class: u32 = alloc.free_by_class().iter().sum();
            prop_assert_eq!(by_class, alloc.free_nodes());
        }
        for grant in live.drain(..) {
            alloc.release(&grant);
        }
        prop_assert_eq!(alloc.free_nodes(), total_nodes);
        prop_assert_eq!(alloc.free_memory_gb(), total_mem);
        prop_assert_eq!(alloc.free_by_class(), full_free);
    }

    /// `can_fit` is exactly the precondition of `try_allocate`: whenever
    /// it says yes the allocation succeeds (and vice versa), under any
    /// occupancy — including spanning grants.
    #[test]
    fn classed_can_fit_is_try_allocate_precondition(
        requests in prop::collection::vec(classed_request(), 1..30)
    ) {
        let topology = ClusterConfig::mixed_256().topology;
        let mut alloc = ClassedAllocator::new(topology);
        for req in requests {
            let fits = alloc.can_fit(&req);
            let grant = alloc.try_allocate(&req);
            prop_assert_eq!(fits, grant.is_some());
            if let Some(g) = &grant {
                prop_assert_eq!(g.nodes, req.nodes);
            }
        }
    }
}

// ---------------------------------------------------- cluster slot table

/// One step against a cluster: start a job (width, shape, memory and
/// duration drawn from the four numbers), or — when `complete` is set and
/// a job runs — complete the live row `pick` indexes.
type SlotStep = (bool, (u32, u8, u64, u64), usize);

fn slot_steps() -> impl Strategy<Value = Vec<SlotStep>> {
    let step = (0u8..5, (0u32..121, 0u8..4, 0u64..64, 1u64..500), 0usize..64);
    prop::collection::vec(
        step.prop_map(|(kind, job, pick)| (kind < 2, job, pick)),
        1..160,
    )
}

/// A job every class of `mixed_256` is asked for: scalar ones up to 120
/// nodes wide (the cpu class first; spanning into gpu and bigmem once it
/// is short), GPU jobs, bigmem-pinned jobs, and jobs whose per-node memory
/// only bigmem nodes hold. Zero-node jobs appear among the scalar ones. A
/// flat machine reads only the width and the memory.
fn slot_job(id: u32, (nodes, shape, memory, secs): (u32, u8, u64, u64)) -> JobSpec {
    let job = |nodes| {
        JobSpec::new(
            id,
            0,
            SimTime::ZERO,
            SimDuration::from_secs(secs),
            nodes,
            memory,
        )
    };
    match shape {
        0 => job(nodes),
        1 => job(nodes % 13).with_per_node(ResourceVec::new(0, 1 + memory as u32 % 4, 0, 0)),
        2 => job(nodes % 9).with_class(NodeClass::BigMem),
        _ => job(nodes % 9).with_per_node(ResourceVec::new(0, 0, 100, 0)),
    }
}

/// Drive `steps` through a [`ClusterState`] on `config` and check, after
/// every step, that capacity is conserved over the slot table: per class,
/// the free nodes plus what the live rows hold equal the class's count
/// (on a flat machine, the free nodes plus the live rows' nodes equal the
/// machine); the free memory plus the live rows' memory equals the total;
/// and `running_count()` is the number of live rows. Each completion
/// comes at its job's own end time, out of any order.
fn slot_table_conserves(config: ClusterConfig, steps: Vec<SlotStep>) -> Result<(), TestCaseError> {
    let mut cluster = ClusterState::new(config);
    let mut live: Vec<(usize, SimTime)> = Vec::new();
    let mut started = 0u32;
    for (complete, shape, pick) in steps {
        if complete && !live.is_empty() {
            let (slot, end) = live.swap_remove(pick % live.len());
            let record = cluster.complete_job(slot, end);
            prop_assert_eq!(record.end, end);
        } else {
            let job = slot_job(started, shape);
            started += 1;
            if let Ok((slot, running)) = cluster.start_job(&job, SimTime::ZERO) {
                prop_assert!(live.iter().all(|&(held, _)| held != slot));
                live.push((slot, running.end));
            }
        }
        let rows: Vec<&RunningJob> = cluster.running().collect();
        prop_assert_eq!(rows.len(), live.len());
        prop_assert_eq!(cluster.running_count(), rows.len());
        let held_nodes: u32 = rows.iter().map(|r| r.allocation.nodes).sum();
        prop_assert_eq!(cluster.free_nodes() + held_nodes, config.nodes);
        let held_memory: u64 = rows.iter().map(|r| r.allocation.memory_gb).sum();
        prop_assert_eq!(cluster.free_memory_gb() + held_memory, config.memory_gb);
        let free = cluster.free_by_class();
        for (slot, class) in config.topology.classes() {
            let held: u32 = rows.iter().map(|r| r.allocation.by_class[slot]).sum();
            prop_assert_eq!(free[slot] + held, class.count);
        }
        if config.is_flat() {
            prop_assert!(rows
                .iter()
                .all(|r| r.allocation.by_class == [0; MAX_CLASSES]));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Capacity conservation over the slot table on a flat machine small
    /// enough for the requests to collide.
    #[test]
    fn slot_table_conserves_capacity(steps in slot_steps()) {
        slot_table_conserves(ClusterConfig::new(160, 1024), steps)?;
    }

    /// The same on the classed `mixed_256`, where wide classless grants
    /// span classes and memory is charged per hosting class.
    #[test]
    fn classed_slot_table_conserves_capacity(steps in slot_steps()) {
        slot_table_conserves(ClusterConfig::mixed_256(), steps)?;
    }
}

// --------------------------------------------------------------- event queue

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pops come out sorted by time, FIFO within a timestamp.
    #[test]
    fn event_queue_is_stable_priority_queue(
        times in prop::collection::vec(0u64..50, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), seq);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, seq)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(seq > lseq, "FIFO violated within timestamp");
                }
            }
            last = Some((t, seq));
        }
    }
}

// ------------------------------------------------------------------- solver

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every permutation decodes to a feasible schedule whose makespan
    /// dominates the instance lower bound, and every task sits at its
    /// *earliest* feasible start given the tasks placed before it.
    #[test]
    fn sgs_decodings_are_feasible(
        specs in prop::collection::vec((1u64..200, 1u32..4, 1u64..12, 0u64..100, 0u8..2), 1..12),
        seed in 0u64..1000
    ) {
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .map(|(i, &(dur, nodes, mem, release, grid))| {
                // Half the tasks sit on a 50 ms grid, so that ends, starts
                // and releases coincide.
                let (duration, release) = match grid {
                    0 => (dur, release),
                    _ => (dur.div_ceil(50) * 50, release / 50 * 50),
                };
                Task { id: i as u32, duration, nodes, memory: mem, release }
            })
            .collect();
        let inst = Instance::new(tasks, 4, 16);
        // A pseudo-random permutation derived from the seed.
        let mut order: Vec<usize> = (0..inst.len()).collect();
        let n = order.len();
        for i in (1..n).rev() {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64 * 1442695040888963407)) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let (schedule, makespan) = decode_with_makespan(&inst, &order);
        prop_assert!(schedule.is_feasible(&inst));
        prop_assert!(makespan >= reasoned_scheduler::cpsolver::bounds::lower_bound(&inst));
        // Earliestness, by brute force: replaying the order, no candidate
        // instant — the release, or a start or end of a task already placed
        // — before the decoded start admits the task for its whole duration.
        let span = |j: usize| (schedule.starts[j], schedule.starts[j] + inst.tasks[j].duration);
        for (k, &i) in order.iter().enumerate() {
            let (task, placed) = (&inst.tasks[i], &order[..k]);
            let usage_at = |probe: u64| {
                placed
                    .iter()
                    .filter(|&&j| span(j).0 <= probe && probe < span(j).1)
                    .fold((0u32, 0u64), |(n, m), &j| (n + inst.tasks[j].nodes, m + inst.tasks[j].memory))
            };
            // Usage only rises at a start: the window's first instant and
            // the placed starts inside it are the instants to check.
            let fits_from = |s: u64| {
                placed
                    .iter()
                    .map(|&j| span(j).0)
                    .chain([s])
                    .filter(|&probe| s <= probe && probe < s + task.duration)
                    .all(|probe| {
                        let (nodes, memory) = usage_at(probe);
                        nodes + task.nodes <= 4 && memory + task.memory <= 16
                    })
            };
            let candidates = placed.iter().flat_map(|&j| [span(j).0, span(j).1]).chain([task.release]);
            for c in candidates.filter(|&c| task.release <= c && c < schedule.starts[i]) {
                prop_assert!(!fits_from(c), "task {i} fits at {c}, decoded to {}", schedule.starts[i]);
            }
        }
    }
}

/// The annealing loop that decodes every candidate order in full — the
/// oracle `anneal`'s incremental decode must agree with move for move:
/// the same order, schedule, makespan and accepted moves.
fn anneal_in_full(
    inst: &Instance,
    seed_order: &[usize],
    config: &AnnealConfig,
) -> (Vec<usize>, Schedule, u64, u32) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
    let mut current = seed_order.to_vec();
    let (_, mut current_mk) = decode_with_makespan(inst, &current);
    let mut best = current.clone();
    let mut best_mk = current_mk;
    let mut temp = (current_mk as f64 * config.initial_temp_fraction).max(1.0);
    let mut accepted = 0u32;
    let n = inst.len();
    for _ in 0..if n < 2 { 0 } else { config.iterations } {
        let mut candidate = current.clone();
        if rng.gen_bool(0.5) {
            let i = rng.gen_index(n);
            let j = rng.gen_index(n);
            candidate.swap(i, j);
        } else {
            let from = rng.gen_index(n);
            let to = rng.gen_index(n);
            let task = candidate.remove(from);
            candidate.insert(to.min(candidate.len()), task);
        }
        let (_, cand_mk) = decode_with_makespan(inst, &candidate);
        let delta = cand_mk as f64 - current_mk as f64;
        if delta <= 0.0 || rng.unit_f64() < (-delta / temp).exp() {
            current = candidate;
            current_mk = cand_mk;
            accepted += 1;
            if current_mk < best_mk {
                best_mk = current_mk;
                best = current.clone();
            }
        }
        temp = (temp * config.cooling).max(1e-6);
    }
    let (schedule, makespan) = decode_with_makespan(inst, &best);
    (best, schedule, makespan, accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `anneal` resumes each candidate's decode from a checkpoint and stops
    /// it at a neutral move or an early rejection; the loop that decodes
    /// every candidate in full returns the same result. Half the tasks sit
    /// on a 50 ms grid so that ends, starts and releases tie, and the
    /// starting temperature ranges from nearly greedy (most moves rejected
    /// early) to hot (most accepted).
    #[test]
    fn anneal_matches_the_whole_order_loop(
        specs in prop::collection::vec((1u64..300, 1u32..5, 1u64..17, 0u64..400, 0u8..2), 2..40),
        iterations in 0u32..2000,
        temp_fraction in 0u8..3,
        seed in 0u64..u64::MAX
    ) {
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .map(|(i, &(dur, nodes, mem, release, grid))| {
                let (duration, release) = match grid {
                    0 => (dur, release),
                    _ => (dur.div_ceil(50) * 50, release / 50 * 50),
                };
                Task { id: i as u32, duration, nodes, memory: mem, release }
            })
            .collect();
        let inst = Instance::new(tasks, 4, 16);
        let seed_order: Vec<usize> = (0..inst.len()).collect();
        let config = AnnealConfig {
            iterations,
            initial_temp_fraction: [0.001, 0.1, 1.0][temp_fraction as usize],
            seed,
            ..AnnealConfig::default()
        };
        let result = anneal(&inst, &seed_order, &config);
        let (order, schedule, makespan, accepted) = anneal_in_full(&inst, &seed_order, &config);
        prop_assert_eq!(&result.order, &order);
        prop_assert_eq!(&result.schedule, &schedule);
        prop_assert_eq!(result.makespan, makespan);
        prop_assert_eq!(result.accepted_moves, accepted);
    }
}

// ------------------------------------------------------------------ metrics

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Jain's index is always in (0, 1] and is scale invariant.
    #[test]
    fn jain_index_range_and_scale_invariance(
        values in prop::collection::vec(0.0f64..1e6, 1..50),
        scale in 0.001f64..1000.0
    ) {
        let j = jain_index(&values);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-12, "jain {j}");
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        prop_assert!((jain_index(&scaled) - j).abs() < 1e-9);
    }

    /// For any sequential (non-overlapping) schedule, the metric report is
    /// internally consistent: utilization ≤ 1, makespan at least the
    /// longest job, waits non-negative.
    #[test]
    fn metric_report_invariants(
        jobs in prop::collection::vec((1u64..500, 1u32..8, 1u64..64, 0u64..100), 1..20)
    ) {
        let config = ClusterConfig::new(8, 64);
        // Build a strictly sequential schedule: each job starts when the
        // previous ends (always feasible).
        let mut t = 0u64;
        let records: Vec<JobRecord> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(dur, nodes, mem, submit))| {
                let spec = JobSpec::new(
                    i as u32,
                    (i % 5) as u32,
                    SimTime::from_secs(submit.min(t)),
                    SimDuration::from_secs(dur),
                    nodes,
                    mem,
                );
                let start = t.max(submit.min(t));
                t = start + dur;
                JobRecord::new(spec, SimTime::from_secs(start))
            })
            .collect();
        let report = MetricsReport::compute(&records, config);
        prop_assert!(report.node_utilization <= 1.0 + 1e-9);
        prop_assert!(report.memory_utilization <= 1.0 + 1e-9);
        prop_assert!(report.wait_fairness > 0.0 && report.wait_fairness <= 1.0 + 1e-9);
        prop_assert!(report.user_fairness > 0.0 && report.user_fairness <= 1.0 + 1e-9);
        let longest = jobs.iter().map(|&(d, ..)| d).max().unwrap() as f64;
        prop_assert!(report.makespan_secs + 1e-9 >= longest);
        prop_assert!(report.avg_wait_secs >= 0.0);
        prop_assert!(report.avg_turnaround_secs >= report.avg_wait_secs);
    }
}

// ----------------------------------------------------------- action grammar

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// format → parse round trip over the whole action space.
    #[test]
    fn action_roundtrip(id in 0u32..100_000, which in 0usize..4) {
        let action = match which {
            0 => Action::StartJob(JobId(id)),
            1 => Action::BackfillJob(JobId(id)),
            2 => Action::Delay,
            _ => Action::Stop,
        };
        let text = action.to_string();
        prop_assert_eq!(parse_action(&text).expect("round trip"), action);
        // And inside a full completion.
        let completion = format!("Thought: some reasoning\nAction: {text}");
        let parsed = parse_completion(&completion).expect("completion parses");
        prop_assert_eq!(parsed.action, action);
    }
}

// ------------------------------------------------------------- prompt round trip

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The prompt builder's output always parses back to the same state.
    #[test]
    fn prompt_roundtrip(
        now in 0u64..100_000,
        free_nodes in 0u32..256,
        free_mem in 0u64..2048,
        waiting in prop::collection::vec((0u32..50, 1u32..256, 1u64..2048, 1u64..10_000, 0u64..1000), 0..8),
        running in prop::collection::vec((50u32..99, 1u32..256, 1u64..2048, 0u64..1000), 0..4),
        pending in 0usize..10
    ) {
        // Unique ids for waiting jobs (map index onto id space).
        let waiting_specs: Vec<JobSpec> = waiting
            .iter()
            .enumerate()
            .map(|(i, &(_, nodes, mem, wall, submit))| {
                JobSpec::new(
                    i as u32,
                    (i % 7) as u32,
                    SimTime::from_secs(submit.min(now)),
                    SimDuration::from_secs(wall),
                    nodes,
                    mem,
                )
            })
            .collect();
        let running_summaries: Vec<RunningSummary> = running
            .iter()
            .enumerate()
            .map(|(i, &(id, nodes, mem, start))| RunningSummary {
                id: JobId(1000 + id + i as u32),
                user: reasoned_scheduler::cluster::UserId((i % 5) as u32),
                nodes,
                memory_gb: mem,
                start: SimTime::from_secs(start.min(now)),
                submit: SimTime::from_secs(start.min(now)),
                expected_end: SimTime::from_secs(now + 100),
                class: None,
            })
            .collect();
        let view = SystemView {
            now: SimTime::from_secs(now),
            config: ClusterConfig::paper_default(),
            free_nodes,
            free_memory_gb: free_mem,
            free_by_class: [0; reasoned_scheduler::cluster::MAX_CLASSES],
            waiting: waiting_specs.as_slice().into(),
            running: running_summaries.as_slice().into(),
            completed: 0,
            pending_arrivals: pending,
            total_jobs: waiting_specs.len() + running_summaries.len() + pending,
            telemetry: None,
            queue: None,
        };
        let text = PromptBuilder::render(&view, &Scratchpad::default());
        let parsed = parse_prompt(&text).expect("builder output parses");
        prop_assert_eq!(parsed.now_secs, now);
        prop_assert_eq!(parsed.available_nodes, free_nodes);
        prop_assert_eq!(parsed.available_memory_gb, free_mem);
        prop_assert_eq!(parsed.waiting.len(), waiting_specs.len());
        prop_assert_eq!(parsed.running.len(), running_summaries.len());
        prop_assert_eq!(parsed.pending_arrivals, pending);
        for (p, s) in parsed.waiting.iter().zip(&waiting_specs) {
            prop_assert_eq!(p.id, s.id.0);
            prop_assert_eq!(p.nodes, s.nodes);
            prop_assert_eq!(p.memory_gb, s.memory_gb);
            prop_assert_eq!(p.walltime_secs, s.walltime.as_secs());
            prop_assert_eq!(p.waiting_secs, now.saturating_sub(s.submit.as_secs()));
        }

        // The agent's builder writes the state sections and the objectives,
        // copying from its line store what its last prompt wrote, and the scratchpad
        // lends the history between. Whatever the builder wrote before, the
        // parts are byte for byte what a fresh render gives.
        let mut history = Scratchpad::default();
        for spec in &waiting_specs {
            history.push_thought(now, &format!("job {} has waited\nlong enough", spec.id.0));
            history.push_action(now, &Action::StartJob(spec.id).to_string());
        }
        history.push_feedback(now, "job 3 cannot be started — requires 256 Nodes");
        let mut builder = PromptBuilder::default();
        builder.prompt(&view, &Scratchpad::default());
        let with_history = builder.prompt(&view, &history).to_string();
        prop_assert_eq!(&with_history, &PromptBuilder::render(&view, &history));
        prop_assert!(with_history.len() > text.len());
        let parsed_with_history = parse_prompt(&with_history).expect("builder output parses");
        prop_assert_eq!(&parsed_with_history.waiting, &parsed.waiting);
        prop_assert_eq!(parsed_with_history.feedback.len(), 1);
        let again = builder.prompt(&view, &Scratchpad::default()).to_string();
        prop_assert_eq!(&again, &text);
    }
}

/// Keeps the text of the last prompt it was handed, and always delays.
struct LastPrompt(std::rc::Rc<std::cell::RefCell<String>>);

impl LanguageModel for LastPrompt {
    fn model_name(&self) -> &str {
        "last-prompt"
    }

    fn complete(
        &mut self,
        prompt: &str,
    ) -> Result<reasoned_scheduler::llm::Completion, reasoned_scheduler::llm::LlmError> {
        self.0.replace(prompt.to_string());
        Ok(reasoned_scheduler::llm::Completion {
            text: "Thought: nothing to do yet\nAction: Delay".to_string(),
            prompt_tokens: 0,
            completion_tokens: 0,
            latency_secs: 0.0,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The agent's builder copies every job line its last prompt wrote from
    /// the same job and fields: driven by one agent across hand-built views
    /// that evolve by arrivals, starts, completions, changed fields (ids
    /// that recur with other users, sizes, times — to a type's maximum, or
    /// from waiting to running), sections that empty and refill, capacity
    /// changes, clock steps and `reset`, every prompt the model is handed
    /// is byte for byte what a fresh `PromptBuilder::render` gives. A store
    /// keyed on the job id alone fails this, whether it leaves the fields
    /// unchecked or a running job's line untold from a waiting job's.
    #[test]
    fn a_long_lived_builder_renders_what_a_fresh_one_does(
        ops in prop::collection::vec((0u32..10, 0usize..6, 0u64..64), 1..48)
    ) {
        let field = |pick: u64, small: u64, max: u64| if pick & 7 == 7 { max } else { small + pick % 3 };
        let seen = std::rc::Rc::default();
        let mut agent = LlmSchedulingPolicy::new(Box::new(LastPrompt(std::rc::Rc::clone(&seen))));
        let mut config = ClusterConfig::paper_default();
        let (mut waiting, mut running) = (Vec::<JobSpec>::new(), Vec::<RunningSummary>::new());
        let mut now = 0;
        for (kind, at, pick) in ops {
            let job = JobSpec::new(
                at as u32,
                pick as u32 % 3,
                SimTime::from_secs(field(pick, now, u64::MAX / 1000)),
                SimDuration::from_secs(field(pick >> 3, 60, u64::MAX / 1000)),
                field(pick >> 1, 1, u64::from(u32::MAX)) as u32,
                field(pick >> 2, 4, u64::MAX),
            );
            match kind {
                0..=2 => waiting.insert(at.min(waiting.len()), job),
                3 if !waiting.is_empty() => {
                    waiting.remove(at % waiting.len());
                }
                4 if !waiting.is_empty() => {
                    let spec = waiting.remove(at % waiting.len());
                    let start = SimTime::from_secs(now);
                    running.push(RunningSummary {
                        id: spec.id,
                        user: spec.user,
                        nodes: spec.nodes,
                        memory_gb: spec.memory_gb,
                        start,
                        submit: spec.submit,
                        expected_end: SimTime::from_secs(now.saturating_add(spec.walltime.as_secs())),
                        class: None,
                    });
                }
                5 if !running.is_empty() => {
                    let r = running.remove(at % running.len());
                    // The same id again: waiting, running with one field
                    // moved, or waiting with the very numbers its running
                    // line showed.
                    match pick % 4 {
                        0 => waiting.push(JobSpec { id: r.id, ..job }),
                        1 => running.push(RunningSummary { user: job.user, ..r }),
                        2 => running.push(RunningSummary { expected_end: job.submit, ..r }),
                        _ => waiting.insert(0, JobSpec {
                            id: r.id,
                            user: r.user,
                            nodes: r.nodes,
                            memory_gb: r.memory_gb,
                            walltime: SimDuration::from_secs(r.start.as_secs()),
                            submit: r.expected_end,
                            ..job
                        }),
                    }
                }
                6 if !waiting.is_empty() => {
                    let i = at % waiting.len();
                    waiting[i] = JobSpec { id: waiting[i].id, ..job };
                }
                7 => {
                    waiting.clear();
                    if at % 2 == 0 {
                        running.clear();
                    }
                }
                8 => agent.reset(),
                _ => config.nodes = 256 + pick as u32 % 2,
            }
            now += pick % 5 * 7;
            let view = SystemView {
                now: SimTime::from_secs(now),
                config,
                free_nodes: 3,
                free_memory_gb: 5,
                free_by_class: [0; MAX_CLASSES],
                waiting: waiting.as_slice().into(),
                running: running.as_slice().into(),
                completed: 0,
                pending_arrivals: 0,
                total_jobs: waiting.len() + running.len(),
                telemetry: None,
                queue: None,
            };
            let expected = PromptBuilder::render(&view, agent.scratchpad());
            agent.decide(&view);
            prop_assert_eq!(&*seen.borrow(), &expected);
        }
    }
}

/// `value` or, as `pick` says, one of the ends of its type's range.
fn edge<T: Copy>(pick: u64, value: T, max: T, zero: T) -> T {
    match pick & 3 {
        0 => zero,
        1 => max,
        _ => value,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every field of every job line comes back from the byte scanner as
    /// the builder wrote it, 0 and each field's maximum included: `u32::MAX`
    /// ids, users and nodes, `u64::MAX` memory, and the longest times a
    /// millisecond clock holds.
    #[test]
    fn job_lines_round_trip_through_the_builder(
        jobs in prop::collection::vec(
            (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..6,
        ),
        picks in prop::collection::vec(0u64..u64::MAX, 6..7),
        now in 0u64..u64::MAX,
    ) {
        let now = SimTime::from_millis(edge(picks[5] >> 40, now, u64::MAX, 0));
        let waiting: Vec<JobSpec> = jobs
            .iter()
            .zip(&picks)
            .map(|(&(id, user, nodes, memory, submit, walltime), &pick)| {
                let at = |field: u64| pick >> (2 * field);
                JobSpec::new(
                    edge(at(0), id, u32::MAX, 0),
                    edge(at(1), user, u32::MAX, 0),
                    SimTime::from_millis(edge(at(2), submit, u64::MAX, 0)),
                    SimDuration::from_millis(edge(at(3), walltime, u64::MAX, 0)),
                    edge(at(4), nodes, u32::MAX, 0),
                    edge(at(5), memory, u64::MAX, 0),
                )
            })
            .collect();
        let running: Vec<RunningSummary> = waiting
            .iter()
            .map(|j| RunningSummary {
                id: j.id,
                user: j.user,
                nodes: j.nodes,
                memory_gb: j.memory_gb,
                start: j.submit,
                submit: j.submit,
                expected_end: SimTime::from_millis(j.walltime.as_millis()),
                class: None,
            })
            .collect();
        let view = SystemView {
            now,
            config: ClusterConfig::paper_default(),
            free_nodes: 0,
            free_memory_gb: 0,
            free_by_class: [0; MAX_CLASSES],
            waiting: waiting.as_slice().into(),
            running: running.as_slice().into(),
            completed: 0,
            pending_arrivals: 0,
            total_jobs: waiting.len(),
            telemetry: None,
            queue: None,
        };
        let text = PromptBuilder::render(&view, &Scratchpad::default());
        let parsed = parse_prompt(&text).expect("builder output parses");
        prop_assert_eq!(parsed.waiting.len(), waiting.len());
        for (p, j) in parsed.waiting.iter().zip(&waiting) {
            prop_assert_eq!(
                (p.id, p.user, p.nodes, p.memory_gb),
                (j.id.0, j.user.0, j.nodes, j.memory_gb)
            );
            prop_assert_eq!(
                (p.walltime_secs, p.submitted_secs, p.waiting_secs),
                (j.walltime.as_secs(), j.submit.as_secs(), view.wait_so_far(j).as_secs())
            );
        }
        prop_assert_eq!(parsed.running.len(), running.len());
        for (p, r) in parsed.running.iter().zip(&running) {
            prop_assert_eq!(
                (p.id, p.user, p.nodes, p.memory_gb),
                (r.id.0, r.user.0, r.nodes, r.memory_gb)
            );
            prop_assert_eq!(
                (p.started_secs, p.expected_end_secs),
                (r.start.as_secs(), r.expected_end.as_secs())
            );
        }
    }
}

// ----------------------------------------------------------------- CSV layer

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary cell contents survive a CSV write/parse round trip.
    #[test]
    fn csv_roundtrip(rows in prop::collection::vec(
        prop::collection::vec("[ -~]*", 1..6), 1..10
    )) {
        let text = csv::write_rows(rows.iter().map(|r| r.iter().map(|s| s.as_str())));
        let parsed = csv::parse(&text).expect("parses");
        prop_assert_eq!(parsed, rows);
    }
}

// ------------------------------------------------------------ fuzz robustness

use reasoned_scheduler::prelude::*;
use reasoned_scheduler::sim::SimError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The completion parser never panics on arbitrary model output — a
    /// hallucinating LLM must degrade gracefully, not crash the agent.
    #[test]
    fn completion_parser_never_panics(text in "\\PC*") {
        let _ = parse_completion(&text);
    }

    /// Neither does the action grammar.
    #[test]
    fn action_parser_never_panics(text in "\\PC*") {
        let _ = parse_action(&text);
    }

    /// The prompt parser never panics on arbitrary text either.
    #[test]
    fn prompt_parser_never_panics(text in "\\PC*") {
        let _ = parse_prompt(&text);
    }

    /// Nor does the simulated model on a prompt whose scratchpad carries
    /// arbitrary feedback at the current time — the text it searches for
    /// the refused job's id.
    #[test]
    fn simulated_llm_never_panics_on_feedback(text in "\\PC*") {
        let prompt = prompt_with_feedback(100, &format!("{text} job 32 {text}"));
        prop_assert!(SimulatedLlm::claude37(1).complete(&prompt).is_ok());
    }
}

/// `prompt` damaged one of the ways a line parser cares about, at its
/// `k`-th history line; most draws leave it whole.
fn damaged(prompt: String, damage: u32, k: usize) -> String {
    let starts: Vec<usize> = prompt.match_indices("\n[t=").map(|(i, _)| i + 1).collect();
    let insert = |extra: &str| match starts.get(k % starts.len().max(1)) {
        Some(&at) => format!("{}{extra}{}", &prompt[..at], &prompt[at..]),
        None => prompt.clone(),
    };
    match damage {
        0 => prompt.replace('\n', "\r\n"),
        1 => insert("  "),
        2 => insert("# Scratchpad (Decision History)\n"),
        3 => insert("Running Jobs:\n"),
        4 => insert("[t=soon] Feedback: a timestamp that is none\n"),
        5 => {
            let (unterminated, _) = prompt.split_once("\n\nYour scheduling").expect("tail");
            unterminated.to_string()
        }
        _ => prompt,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One simulated model handed the agent's prompts in parts, the history
    /// lent by the scratchpad under its stream key, answers every call as
    /// its twin handed the same prompts as text, which it reads in full:
    /// the same completion text, both token counts and the latency's bits.
    /// The parts display as `PromptBuilder::render`, and text splits into
    /// the same parts.
    ///
    /// Two scratchpads and a clone of one go through the one model, three
    /// calls in six on pad 0; some pushes are followed by no call. The
    /// pushes are thoughts of a few hundred bytes, now and then one of many
    /// KB or of most of pad 0's budget (so that the budget cursor passes
    /// many lines at once), multi-line and non-ASCII texts, identical
    /// `Action: Delay` lines, refusals of job 31 or job 32 at the current
    /// time — lines alike in length that the model must tell apart, since
    /// job 32 is the one waiting job — clones and `clear()`; the budgets
    /// run from a few lines to no limit. Every case opens with the histories
    /// easiest to mistake for one another: refusals alike in length pushed,
    /// after the model has read the pad, to a clone of it and to the pad
    /// itself once cleared, and refusals pushed out of the window at the
    /// time they were made. Checked by mutation, each turning this red: stream
    /// ids counted per pad from 0; a clone, or a cleared pad, that keeps
    /// its stream; dropping the tally of the lines already read; keeping
    /// the feedback of lines that left the window.
    #[test]
    fn a_model_handed_parts_answers_as_one_handed_text(
        ops in prop::collection::vec(
            (0u32..14, 0usize..6, 0u64..3, "\\PC*", 0usize..12, 0u32..4),
            1..60,
        ),
        budgets in (0usize..4, 0usize..4),
        seed in 0u64..1000,
    ) {
        const BUDGETS: [u32; 4] = [300, 1500, 4000, 80_000];
        let budget = BUDGETS[budgets.0] as usize;
        // (kind, pad, step, text, reps, call): a refusal of job 31 or 32
        // by `reps`, a clone of pad 0 into pad 2 (at 4), a clear, and two
        // thoughts of 0.6 budgets each — the second pushes the first and
        // the refusals before it out of the window, at the time they were
        // made.
        let refuse = |pad, job: usize, call| (3u32, pad, 0u64, String::new(), job - 31, call);
        let opening = [
            refuse(0, 31, 1),
            (12, 0, 0, String::new(), 0, 0),
            refuse(0, 31, 1),
            refuse(4, 32, 1),
            refuse(0, 31, 1),
            (0, 0, 0, String::new(), 0, 0),
            refuse(0, 32, 0),
            refuse(0, 31, 0),
            refuse(0, 31, 1),
            refuse(0, 32, 1),
            (13, 0, 0, String::new(), 0, 1),
            (13, 0, 0, String::new(), 0, 1),
        ];
        let mut kernel = KernelState::new(ClusterConfig::paper_default());
        kernel.arrive(JobSpec::new(32, 0, SimTime::ZERO, SimDuration::from_secs(60), 4, 8));
        let first = Scratchpad::new(BUDGETS[budgets.0]);
        let mut pads = [first.clone(), Scratchpad::new(BUDGETS[budgets.1]), first];
        let mut model = SimulatedLlm::o4mini(seed);
        let mut twin = SimulatedLlm::o4mini(seed);
        let mut builder = PromptBuilder::default();
        let mut now = 0;
        for (kind, pad, step, text, reps, call) in opening.iter().chain(&ops) {
            let pad = [0, 0, 0, 1, 2, 2][*pad];
            let long = text.repeat(reps + 1);
            now += step;
            match kind {
                0 if *reps < 3 => pads[pad].clear(),
                1 | 2 => pads[pad].push_action(now, "Delay"),
                3 => pads[pad].push_feedback(
                    now,
                    &format!("Action: StartJob failed — Job {} cannot be started", 31 + reps % 2),
                ),
                4 => pads[pad].push_feedback(now, &format!("Job 32 cannot be started\n{long}")),
                5 if *reps < 4 => pads[pad].push_thought(now, &long.repeat(40)),
                12 => pads[2] = pads[pad % 2].clone(),
                13 => pads[pad].push_thought(now, &"fairness ".repeat(budget / 4)),
                _ => pads[pad].push_thought(now, &format!("{long}\n{long} weighs fairness")),
            }
            if *call == 0 {
                continue;
            }
            let view = kernel.view(SimTime::from_secs(now), 0, 1);
            let text = PromptBuilder::render(&view, &pads[pad]);
            let prompt = builder.prompt(&view, &pads[pad]);
            prop_assert_eq!(prompt.to_string(), text.clone());
            prop_assert_eq!(Prompt { key: None, ..prompt }, Prompt::from_text(&text));
            let (parts, whole) = (model.complete_prompt(&prompt), twin.complete(&text));
            let bits = |c: &Result<reasoned_scheduler::llm::Completion, _>| {
                c.as_ref().map(|c| c.latency_secs.to_bits()).ok()
            };
            prop_assert_eq!(bits(&parts), bits(&whole));
            prop_assert_eq!(parts, whole);
        }
    }

    /// Parts that break the stream's promise never panic the model: the
    /// same key with shorter or different lines, an offset past what it
    /// has read or inside a character it has read, lines that are not
    /// `[t=…]` lines or end unterminated. And text of any shape splits
    /// into parts that rejoin to it, which a model reads as the
    /// stateless parser and `estimate_tokens` do: CRLF endings, an
    /// indented history line, a second scratchpad header, another section's
    /// header inside the history, an unparseable feedback timestamp, an
    /// unterminated last line, or arbitrary text.
    #[test]
    fn a_model_handed_adversarial_parts_never_panics(
        ops in prop::collection::vec(("\\PC*", 0u64..600, 0usize..120, 0u32..8, 0usize..4), 1..12)
    ) {
        let stream = HistoryKey::new_stream();
        let base = prompt_with_feedback(0, "first");
        let parts = Prompt::from_text(&base);
        let mut model = SimulatedLlm::claude37(1);
        for (text, offset, cut, damage, count) in &ops {
            let history = format!("[t=1] Thought: {text} é—😀\n").repeat(*count) + text;
            let cut = (0..=(*cut).min(history.len())).rev().find(|&c| history.is_char_boundary(c));
            let lines = &history[..cut.unwrap_or(0)];
            // Half the calls reuse the first key with other lines; a few
            // put the lines where their ends overflow the stream.
            let offset = match offset {
                0..300 => 0,
                590.. => u64::MAX - (offset - 590),
                _ => offset - 300,
            };
            let key = Some(HistoryKey { stream, offset });
            let _ = model.complete_prompt(&Prompt { lines, key, ..parts });

            let prompt = PromptBuilder::render(
                &KernelState::new(ClusterConfig::paper_default()).view(SimTime::ZERO, 0, 1),
                &{
                    let mut pad = Scratchpad::default();
                    pad.push_thought(1, text);
                    pad.push_feedback(1, &history);
                    pad
                },
            );
            let text = if *damage == 7 { text.clone() } else { damaged(prompt, *damage, *count) };
            prop_assert_eq!(Prompt::from_text(&text).to_string(), text.clone());
            match SimulatedLlm::claude37(1).complete(&text) {
                Ok(completion) => prop_assert_eq!(completion.prompt_tokens, estimate_tokens(&text)),
                Err(_) => prop_assert!(parse_prompt(&text).is_err()),
            }
        }
    }
}

/// The prompt the agent renders at t = 100 for an idle machine and one
/// waiting job (id 32) that fits it, with `feedback` on the scratchpad at
/// `feedback_at`.
fn prompt_with_feedback(feedback_at: u64, feedback: &str) -> String {
    let mut kernel = KernelState::new(ClusterConfig::paper_default());
    kernel.arrive(JobSpec::new(
        32,
        0,
        SimTime::ZERO,
        SimDuration::from_secs(60),
        4,
        8,
    ));
    let mut history = Scratchpad::default();
    history.push_feedback(feedback_at, feedback);
    PromptBuilder::render(&kernel.view(SimTime::from_secs(100), 0, 1), &history)
}

/// Paper §2.4's loop, closed: a refusal rendered by the constraint module
/// takes that job off the table for the rest of the timestep, whichever
/// reason and verb the feedback carries — the model delays rather than
/// propose the one waiting job again — and binds no later timestep.
#[test]
fn a_refused_job_is_not_proposed_again_within_the_timestep() {
    use reasoned_scheduler::agent::constraints::render_feedback;
    use reasoned_scheduler::sim::RejectReason;
    let job = JobId(32);
    let reasons = [
        RejectReason::NotInQueue(job),
        RejectReason::InsufficientResources {
            job,
            needed_nodes: 256,
            needed_memory_gb: 8,
            free_nodes: 238,
            free_memory_gb: 576,
        },
        RejectReason::ExceedsCapacity(job),
        RejectReason::WouldDelayHead {
            job,
            head: JobId(1),
            shadow: SimTime::from_secs(500),
        },
    ];
    for reason in &reasons {
        for action in [Action::StartJob(job), Action::BackfillJob(job)] {
            let feedback = render_feedback(&action, reason);
            let decide = |feedback_at| {
                let prompt = prompt_with_feedback(feedback_at, &feedback);
                let completion = SimulatedLlm::claude37(1)
                    .complete(&prompt)
                    .expect("completes");
                parse_completion(&completion.text).expect("parses").action
            };
            assert_eq!(decide(100), Action::Delay, "refused just now: {feedback}");
            assert_eq!(
                decide(99),
                Action::StartJob(job),
                "refused earlier: {feedback}"
            );
        }
    }
}

/// A [`ScriptedBackend`] that can also fail mid-script: `None` in the
/// plan is a call that errs, `Some(text)` one the script answers — with
/// the call's index as its latency, so every record is told apart.
struct FlakyScript {
    plan: std::vec::IntoIter<bool>,
    script: reasoned_scheduler::llm::script::ScriptedBackend,
    calls: u32,
}

impl LanguageModel for FlakyScript {
    fn model_name(&self) -> &str {
        "flaky-script"
    }

    fn complete(
        &mut self,
        prompt: &str,
    ) -> Result<reasoned_scheduler::llm::Completion, reasoned_scheduler::llm::LlmError> {
        self.calls += 1;
        if !self.plan.next().expect("one plan entry per call") {
            return Err(reasoned_scheduler::llm::LlmError::new("endpoint down"));
        }
        let mut completion = self.script.complete(prompt)?;
        completion.latency_secs = f64::from(self.calls);
        Ok(completion)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The agent's one log under an arbitrary mix of well-formed,
    /// malformed and failed calls and arbitrary verdicts: one record per
    /// call the model answered, each carrying the verdict (and feedback)
    /// on its own action — never a neighbour's — and the overhead report
    /// and the Figure 2 panels are folds over exactly those records.
    #[test]
    fn the_agent_log_holds_one_record_per_answered_call_with_its_own_verdict(
        steps in prop::collection::vec((0u32..6, 0u64..40, 0u8..2), 1..40)
    ) {
        use reasoned_scheduler::agent::constraints::render_feedback;
        use reasoned_scheduler::sim::{ActionOutcome, RejectReason};

        let job = JobId(32);
        // Kinds 0–3 are the four well-formed actions, 4 is a completion
        // outside the grammar, 5 a call that errs.
        let asked = |kind: u32| match kind {
            0 => Some(Action::StartJob(job)),
            1 => Some(Action::BackfillJob(job)),
            2 => Some(Action::Delay),
            3 => Some(Action::Stop),
            _ => None,
        };
        let texts: Vec<String> = steps
            .iter()
            .filter(|s| s.0 != 5)
            .map(|&(kind, ..)| match asked(kind) {
                Some(action) => format!("Thought: step of kind {kind}\nAction: {action}"),
                None => "I would rather not say".to_string(),
            })
            .collect();
        let plan: Vec<bool> = steps.iter().map(|s| s.0 != 5).collect();
        let mut agent = LlmSchedulingPolicy::new(Box::new(FlakyScript {
            plan: plan.into_iter(),
            script: reasoned_scheduler::llm::script::ScriptedBackend::new(texts),
            calls: 0,
        }));

        let mut kernel = KernelState::new(ClusterConfig::paper_default());
        kernel.arrive(JobSpec::new(32, 0, SimTime::ZERO, SimDuration::from_secs(60), 4, 8));

        // What the log must read, written down from the steps alone.
        let mut expected = Vec::new();
        let mut now = 0;
        for (call, &(kind, advance, verdict)) in steps.iter().enumerate() {
            let rejected = verdict == 1;
            now += advance;
            let time = SimTime::from_secs(now);
            let action = agent.decide(&kernel.view(time, 0, 1));
            prop_assert_eq!(action, asked(kind).unwrap_or(Action::Delay));
            let reason = rejected.then_some(RejectReason::NotInQueue(job));
            let feedback = reason.as_ref().map(|r| render_feedback(&action, r));
            agent.observe(&ActionOutcome { time, action, rejected: reason });
            if kind != 5 {
                expected.push((now, asked(kind), (call + 1) as f64, !rejected, feedback));
            }
        }

        prop_assert_eq!(agent.calls().len(), expected.len());
        for (record, (time, action, latency, accepted, feedback)) in
            agent.calls().iter().zip(&expected)
        {
            prop_assert_eq!(record.time_secs, *time);
            prop_assert_eq!(record.action, *action);
            prop_assert_eq!(record.latency_secs, *latency);
            prop_assert_eq!(record.accepted, Some(*accepted));
            prop_assert_eq!(&record.feedback, feedback);
            if let Some(feedback) = feedback {
                prop_assert!(record.to_string().contains(feedback.as_str()));
            }
        }
        let placed: Vec<f64> = expected
            .iter()
            .filter(|(_, action, _, accepted, _)| {
                *accepted && action.is_some_and(|a| a.is_placement())
            })
            .map(|(_, _, latency, ..)| *latency)
            .collect();
        let report = agent.overhead_report().expect("agents report overhead");
        prop_assert_eq!(report.call_count, expected.len());
        prop_assert_eq!(&report.placement_latencies, &placed);
        let from_the_log: Vec<f64> = agent
            .calls()
            .iter()
            .filter(|c| c.is_accepted_placement())
            .map(|c| c.latency_secs)
            .collect();
        prop_assert_eq!(&report.placement_latencies, &from_the_log);
        prop_assert_eq!(
            agent.malformed_completions(),
            steps.iter().filter(|s| s.0 == 4).count()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random policy over a random feasible workload either completes
    /// with a capacity-respecting schedule or reports a structured error —
    /// the simulator's invariants hold under arbitrary decision sequences.
    #[test]
    fn random_policy_preserves_invariants(
        jobs in prop::collection::vec((1u64..300, 1u32..8, 1u64..60, 0u64..200), 1..25),
        seed in 0u64..10_000
    ) {
        let cluster = ClusterConfig::new(8, 64);
        let specs: Vec<JobSpec> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(dur, nodes, mem, submit))| {
                JobSpec::new(
                    i as u32,
                    (i % 4) as u32,
                    SimTime::from_secs(submit),
                    SimDuration::from_secs(dur),
                    nodes,
                    mem,
                )
            })
            .collect();
        let mut policy = RandomPolicy::new(seed);
        match run_simulation(cluster, &specs, &mut policy, &SimOptions::default()) {
            Ok(outcome) => {
                prop_assert_eq!(outcome.records.len(), specs.len());
                for probe in &outcome.records {
                    let t = probe.start;
                    let nodes: u64 = outcome
                        .records
                        .iter()
                        .filter(|r| r.start <= t && t < r.end)
                        .map(|r| r.spec.nodes as u64)
                        .sum();
                    let mem: u64 = outcome
                        .records
                        .iter()
                        .filter(|r| r.start <= t && t < r.end)
                        .map(|r| r.spec.memory_gb)
                        .sum();
                    prop_assert!(nodes <= 8, "node capacity violated");
                    prop_assert!(mem <= 64, "memory capacity violated");
                    prop_assert!(probe.start >= probe.spec.submit);
                }
            }
            Err(e) => {
                // The only legitimate failure for this workload class is a
                // budget/stuck condition, never a panic or inconsistency.
                let benign = matches!(
                    e,
                    SimError::Stuck { .. } | SimError::QueryBudgetExhausted { .. }
                );
                prop_assert!(benign, "unexpected simulation error: {e}");
            }
        }
    }
}

// ------------------------------------------------------- easy backfilling

/// `EASY` and `EASY-SJBF` built by registry name keep the head's
/// reservation on their own: under `SimOptions::default()` — how campaigns,
/// `serve`, `trace` and the examples run them — the schedule is the one the
/// kernel's veto would have enforced, and with the veto on it finds
/// nothing to refuse and no epoch ends in a forced delay.
#[test]
fn easy_by_registry_name_keeps_the_head_reservation() {
    use reasoned_scheduler::workloads::names as scenario_names;
    let registry = PolicyRegistry::with_builtins();
    let strict = SimOptions {
        strict_backfill: true,
        ..SimOptions::default()
    };
    let flat = scenario_names::LEGACY_SEVEN.map(|s| (ClusterConfig::paper_default(), s));
    let classed = (
        ClusterConfig::mixed_256(),
        scenario_names::GPU_SKEWED_HETMIX,
    );
    for (cluster, scenario) in flat.into_iter().chain([classed]) {
        let context = ScenarioContext::new(120)
            .with_mode(ArrivalMode::Dynamic)
            .with_seed(7);
        let jobs = scenario_builtins()
            .generate(scenario, &context)
            .expect("builtin scenario")
            .jobs;
        let ctx = PolicyContext::new(&jobs, cluster).with_seed(7);
        for name in ["EASY", "EASY-SJBF"] {
            let run = |options: &SimOptions| {
                let mut policy = registry.build(name, &ctx).expect("builtin");
                Simulation::new(cluster)
                    .jobs(&jobs)
                    .options(*options)
                    .record_decisions()
                    .run(policy.as_mut())
                    .unwrap_or_else(|e| panic!("{name} on {scenario}: {e}"))
            };
            let (by_name, vetoed) = (run(&SimOptions::default()), run(&strict));
            // `assert!`, not `assert_eq!`: a failure should not print two
            // whole schedules.
            assert!(by_name.records == vetoed.records, "{name} on {scenario}");
            assert_eq!(by_name.decisions.len(), by_name.stats.queries);
            assert!(
                by_name.decisions == vetoed.decisions,
                "{name} on {scenario}"
            );
            assert_eq!(vetoed.stats.rejections, 0, "{name} on {scenario}");
            let forced = |e: &EpochTrace| matches!(e.outcome, EpochOutcome::ForcedDelay);
            assert!(!vetoed.epochs.iter().any(forced), "{name} on {scenario}");
        }
    }
}

/// An EASY variant that notes, at every `BackfillJob` it proposes, who was
/// head of the queue and that head's shadow start — by a plain sweep over
/// `start + walltime` of the jobs then running.
struct ShadowNoting {
    inner: EasyBackfill,
    /// `(head, shadow)` per proposed backfill.
    noted: Vec<(JobId, SimTime)>,
}

impl SchedulingPolicy for ShadowNoting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        let action = self.inner.decide(view);
        if matches!(action, Action::BackfillJob(_)) {
            let head = view.head_of_queue().expect("a backfill passes a head");
            let mut running: Vec<RunningSummary> = view.running.iter().collect();
            running.sort_by_key(|r| r.expected_end);
            let (mut nodes, mut mem) = (view.free_nodes, view.free_memory_gb);
            let mut shadow = view.now;
            for r in running {
                if head.nodes <= nodes && head.memory_gb <= mem {
                    break;
                }
                nodes += r.nodes;
                mem += r.memory_gb;
                shadow = shadow.max(r.expected_end);
            }
            assert!(head.nodes <= nodes && head.memory_gb <= mem);
            self.noted.push((head.id, shadow));
        }
        action
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The EASY guarantee itself: whenever a job is backfilled, the job
    /// that was head of the queue at that instant starts no later than its
    /// shadow start at that instant — with exact walltimes and with
    /// estimates half as long again, in arrival order and shortest first.
    #[test]
    fn a_backfill_never_delays_the_head_past_its_shadow(
        jobs in prop::collection::vec((1u64..300, 1u32..9, 1u64..65, 0u64..200), 1..61),
        padded in 0u32..2,
        sjbf in 0u32..2,
    ) {
        let specs: Vec<JobSpec> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(dur, nodes, mem, submit))| {
                let estimate = if padded == 1 { dur * 1500 } else { dur * 1000 };
                JobSpec::new(
                    i as u32,
                    (i % 4) as u32,
                    SimTime::from_secs(submit),
                    SimDuration::from_secs(dur),
                    nodes,
                    mem,
                )
                .with_walltime(SimDuration::from_millis(estimate))
            })
            .collect();
        let inner = if sjbf == 1 { EasyBackfill::sjbf() } else { EasyBackfill::new() };
        let mut policy = ShadowNoting { inner, noted: Vec::new() };
        let out = run_simulation(ClusterConfig::new(8, 64), &specs, &mut policy, &SimOptions::default())
            .expect("EASY completes every feasible workload");
        prop_assert_eq!(out.stats.rejections, 0);
        prop_assert_eq!(policy.noted.len(), out.stats.backfills);
        for (head, shadow) in policy.noted {
            let record = out.records.iter().find(|r| r.spec.id == head).expect("ran");
            prop_assert!(
                record.start <= shadow,
                "head {} started at {}, past its shadow {}", head, record.start, shadow
            );
        }
    }
}

// ------------------------------------------------------------- swf ingest

use reasoned_scheduler::workloads::swf::{SwfJob, SwfTrace};

/// Build a plausible SWF job line from a generated tuple.
fn swf_job(id: i64, row: (i64, i64, i64, i64, i64, i64)) -> SwfJob {
    let (submit, run, procs, mem, status_sel, req) = row;
    SwfJob {
        job_id: id,
        submit_secs: submit,
        wait_secs: -1,
        run_secs: run,
        allocated_procs: procs,
        avg_cpu_secs: -1.0,
        used_memory_kb: mem,
        requested_procs: procs,
        requested_secs: req,
        requested_memory_kb: -1,
        // Mostly completed, sometimes failed (0) or cancelled (5).
        status: match status_sel {
            0 => 0,
            1 => 5,
            _ => 1,
        },
        user: submit % 7,
        group: submit % 3,
        executable: -1,
        queue: 1,
        partition: 1,
        preceding_job: -1,
        think_secs: -1,
    }
}

// ---------------------------------------------------- swf streaming parser

use reasoned_scheduler::workloads::swf::SwfReader;

/// One generated SWF input line: blanks, comments, directives, valid job
/// rows (with `-1` sentinels and float-formatted fields), and malformed
/// tails (truncated mid-field or mid-row) — everything a real archive can
/// throw at the parser. A `kind` selector stands in for `prop_oneof!`,
/// which the shim does not provide.
fn swf_line() -> impl Strategy<Value = String> {
    (
        0u64..12,
        prop::collection::vec(-1i64..100_000, 18..19),
        0usize..80,
        0usize..18,
        "[ -~]*",
    )
        .prop_map(|(kind, fields, cut, float_at, payload)| {
            let cells: Vec<String> = fields.iter().map(|v| v.to_string()).collect();
            match kind {
                0 => String::new(),
                1 => "   ".to_string(),
                2 | 3 => format!("; {payload}"),
                4 => format!("; MaxNodes: {payload}"),
                // Valid-shaped 18-field rows, `-1` sentinels included.
                5..=8 => cells.join(" "),
                // One field carries a float tail ("3600.5").
                9 => {
                    let mut cells = cells;
                    cells[float_at] = format!("{}.5", fields[float_at].unsigned_abs());
                    cells.join(" ")
                }
                // EOF-style truncation: cut at an arbitrary byte, which can
                // land mid-field ("3600." / "-") or drop whole fields. All
                // cells are ASCII, so every byte is a char boundary.
                10 => {
                    let line = cells.join(" ");
                    line[..cut.min(line.len())].to_string()
                }
                // Arbitrary printable garbage.
                _ => payload,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of directives, comments, sentinels, valid
    /// rows, and truncated lines never panic either parser, and the
    /// streaming parser agrees with the eager one line for line: same
    /// rows, same directives, and — on malformed input — the same error
    /// at the same location.
    #[test]
    fn streaming_parser_agrees_with_eager_on_arbitrary_input(
        lines in prop::collection::vec(swf_line(), 0..40)
    ) {
        let text = lines.join("\n");
        let eager = SwfTrace::parse(&text);

        let mut reader = SwfReader::from_text(&text);
        let mut rows = Vec::new();
        let mut first_err = None;
        for item in &mut reader {
            match item {
                Ok(row) => rows.push(row),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        // Fused after the first error.
        if first_err.is_some() {
            prop_assert!(reader.next().is_none(), "reader must fuse after an error");
        }
        match (eager, first_err) {
            (Ok(trace), None) => {
                prop_assert_eq!(rows, trace.jobs);
                prop_assert_eq!(reader.into_directives(), trace.directives);
            }
            (Err(e), Some(se)) => {
                // Same error, reported at the same location.
                prop_assert_eq!(e.to_string(), se.to_string());
            }
            (Ok(_), Some(se)) => prop_assert!(false, "streaming-only error: {se}"),
            (Err(e), None) => prop_assert!(false, "eager-only error: {e}"),
        }
    }

    /// The SWF text form round-trips through the parser, and streaming
    /// conversion equals eager conversion.
    #[test]
    fn swf_text_round_trips_and_streams_as_it_parses(
        rows in prop::collection::vec(
            (0i64..100_000, 1i64..50_000, 1i64..128, -1i64..4_000_000, 0i64..8, 0i64..60_000),
            1..30,
        )
    ) {
        let trace = SwfTrace {
            directives: vec![("MaxNodes".to_string(), "128".to_string())],
            jobs: rows
                .iter()
                .enumerate()
                .map(|(i, row)| swf_job(i as i64 + 1, *row))
                .collect(),
        };
        let text = trace.to_string();
        prop_assert_eq!(&SwfTrace::parse(&text).expect("re-parse"), &trace);
        let streamed = SwfReader::from_text(&text).into_jobs(0).expect("streams");
        prop_assert_eq!(&streamed, &trace.to_jobs(0));
    }
}

// ------------------------------------------------------------ campaign specs

/// What campaign TOML is made of — every known key, both section headers,
/// `=`, brackets, quotes, comments — and the numbers a value check has to
/// refuse: signed, past `i64`, float, `nan` and `inf`.
const CAMPAIGN_TOKENS: &[&str] = &[
    "name",
    "policies",
    "scenarios",
    "jobs",
    "seeds",
    "objectives",
    "exclude",
    "walltime_skew",
    "sa_iterations_per_task",
    "sa_iteration_cap",
    "nodes",
    "memory_gb",
    "preset",
    "[solver]",
    "[cluster]",
    " = ",
    "=",
    "[",
    "]",
    ",",
    "\"",
    "\"FCFS\"",
    "\"long_tail\"",
    "\"FCFS/20\"",
    "\"mixed_256\"",
    "#",
    " ",
    "\n",
    "0",
    "20",
    "-1",
    "+7",
    "99999999999999999999",
    "-9223372036854775808",
    "1.5",
    "-0.0",
    "1e309",
    "nan",
    "inf",
    "true",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A campaign spec is outside input too: `CampaignSpec::parse` answers
    /// arbitrary text with `Ok` or `Err`, never a panic.
    #[test]
    fn campaign_spec_parser_never_panics(text in "\\PC*") {
        let _ = CampaignSpec::parse(&text);
    }

    /// Nor on lines made of the subset's own tokens, which get past the
    /// line grammar to the key and value checks.
    #[test]
    fn campaign_spec_parser_never_panics_on_its_own_tokens(
        lines in prop::collection::vec(
            prop::collection::vec(0usize..CAMPAIGN_TOKENS.len(), 0..8),
            0..16,
        )
    ) {
        let text = lines
            .iter()
            .map(|line| line.iter().map(|&t| CAMPAIGN_TOKENS[t]).collect::<String>())
            .collect::<Vec<_>>()
            .join("\n");
        let _ = CampaignSpec::parse(&text);
    }
}

// ------------------------------------------------- objectives that collapse

/// `a` and `b` agree to relative `1e-12` of the larger magnitude of `scale`.
fn close(a: f64, b: f64, scale: &[f64]) -> bool {
    let scale = scale.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    (a - b).abs() <= 1e-12 * scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy runs the same jobs for the same durations, so on one
    /// workload three of the §3.2 objectives are functions of a fourth, and
    /// any two complete schedules agree on `avg_turnaround − avg_wait` (the
    /// mean duration), `node_util · makespan` (`Σ n_j·d_j / C`) and
    /// `mem_util · makespan` (`Σ m_j·d_j / M`): FCFS, SJF and EASY on
    /// arbitrary workloads of millisecond submits and durations, to
    /// relative 1e-12.
    #[test]
    fn three_objectives_are_functions_of_the_workload_and_makespan(
        raw in prop::collection::vec(
            (0u64..600_000, 1u64..3_600_000, 1u32..257, 0u64..2049, 0u32..4),
            1..60,
        )
    ) {
        let config = ClusterConfig::paper_default();
        let jobs: Vec<JobSpec> = raw
            .iter()
            .zip(0u32..)
            .map(|(&(submit, duration, nodes, memory_gb, user), id)| {
                let (submit, duration) = (SimTime::from_millis(submit), SimDuration::from_millis(duration));
                JobSpec::new(id, user, submit, duration, nodes, memory_gb)
            })
            .collect();
        let report = |policy: &mut dyn SchedulingPolicy| {
            let outcome = Simulation::new(config).jobs(&jobs).run(policy);
            let outcome = outcome.expect("every job fits the machine");
            prop_assert_eq!(outcome.records.len(), jobs.len());
            Ok(MetricsReport::compute(&outcome.records, config))
        };
        let fcfs = report(&mut Fcfs::default())?;
        for other in [report(&mut Sjf::default())?, report(&mut EasyBackfill::new())?] {
            let (a, b) = (&fcfs, &other);
            let turnarounds = [a.avg_turnaround_secs, b.avg_turnaround_secs];
            prop_assert!(close(
                a.avg_turnaround_secs - a.avg_wait_secs,
                b.avg_turnaround_secs - b.avg_wait_secs,
                &turnarounds,
            ));
            let node_seconds = [a.node_utilization * a.makespan_secs, b.node_utilization * b.makespan_secs];
            prop_assert!(close(node_seconds[0], node_seconds[1], &node_seconds));
            let memory_seconds = [a.memory_utilization * a.makespan_secs, b.memory_utilization * b.makespan_secs];
            prop_assert!(close(memory_seconds[0], memory_seconds[1], &memory_seconds));
        }
    }
}
