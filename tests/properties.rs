//! Property-based tests (proptest) over the core data structures and
//! invariants: the allocator ledger, the event queue, SGS feasibility,
//! metric ranges, the action-grammar round trip, and the prompt round trip.

use proptest::prelude::*;

use reasoned_scheduler::agent::action::{parse_action, parse_completion};
use reasoned_scheduler::agent::{PromptBuilder, Scratchpad};
use reasoned_scheduler::cluster::{
    Allocation, ClassedAllocator, ClusterConfig, FirstFitAllocator, JobId, JobRecord, JobSpec,
    NodeClass, PlacementRequest, ResourceVec,
};
use reasoned_scheduler::cpsolver::{Instance, Task};
use reasoned_scheduler::llm::prompt_parse::{parse_prompt, ParseError, ParsedPrompt, PromptReader};
use reasoned_scheduler::llm::tokens::estimate_tokens;
use reasoned_scheduler::metrics::{jain_index, MetricsReport};
use reasoned_scheduler::sim::{Action, KernelState, RunningSummary, SystemView};
use reasoned_scheduler::simkit::csv;
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
                prop_assert_eq!(grant.node_count(), nodes);
                live.push(grant);
            }
            // Periodically release the oldest grant.
            if i % 3 == 2 && !live.is_empty() {
                let grant = live.remove(0);
                alloc.release(&grant);
            }
            alloc.check_invariants();
            let live_nodes: u32 = live.iter().map(|g| g.node_count()).sum();
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

    /// No two live allocations ever share a node.
    #[test]
    fn allocations_are_disjoint(
        requests in prop::collection::vec(1u32..8, 1..12)
    ) {
        let mut alloc = FirstFitAllocator::new(24, 1024);
        let mut live: Vec<reasoned_scheduler::cluster::Allocation> = Vec::new();
        for nodes in requests {
            if let Some(grant) = alloc.try_allocate(nodes, 1) {
                for earlier in &live {
                    prop_assert!(!grant.nodes.intersects(&earlier.nodes));
                }
                live.push(grant);
            }
        }
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
                prop_assert_eq!(grant.node_count(), req.nodes);
                live.push(grant);
            }
            if i % 3 == 2 && !live.is_empty() {
                let grant = live.remove(0);
                alloc.release(&grant);
            }
            alloc.check_invariants();
            let live_nodes: u32 = live.iter().map(|g| g.node_count()).sum();
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
                prop_assert_eq!(g.node_count(), req.nodes);
            }
        }
    }

    /// Live classed allocations never share a node, and released masks
    /// never overlap nodes still held — even when wide classless grants
    /// span multiple classes.
    #[test]
    fn classed_allocations_are_disjoint(
        requests in prop::collection::vec(classed_request(), 1..30)
    ) {
        let topology = ClusterConfig::mixed_256().topology;
        let mut alloc = ClassedAllocator::new(topology);
        let mut live: Vec<Allocation> = Vec::new();
        for (i, req) in requests.into_iter().enumerate() {
            if let Some(grant) = alloc.try_allocate(&req) {
                for earlier in &live {
                    prop_assert!(!grant.nodes.intersects(&earlier.nodes));
                }
                live.push(grant);
            }
            if i % 4 == 3 && !live.is_empty() {
                let released = live.swap_remove(i % live.len());
                alloc.release(&released);
                for held in &live {
                    prop_assert!(!released.nodes.intersects(&held.nodes));
                }
            }
        }
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
        let (schedule, makespan) = reasoned_scheduler::cpsolver::sgs::decode_with_makespan(&inst, &order);
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
            waiting: &waiting_specs,
            running: &running_summaries,
            completed: &[],
            completed_stats: reasoned_scheduler::cluster::CompletedStats::default(),
            pending_arrivals: pending,
            total_jobs: waiting_specs.len() + running_summaries.len() + pending,
            calendar: None,
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
        }

        // The agent refills one prompt buffer every step. Whatever the
        // buffer held — here a longer prompt, with a history — the refill
        // is byte for byte what a fresh render gives.
        let mut history = Scratchpad::default();
        for spec in &waiting_specs {
            history.push_thought(now, &format!("job {} has waited\nlong enough", spec.id.0));
            history.push_action(now, &Action::StartJob(spec.id).to_string());
        }
        history.push_feedback(now, "job 3 cannot be started — requires 256 Nodes");
        let mut buffer = String::new();
        PromptBuilder::render_into(&mut buffer, &view, &history);
        prop_assert_eq!(&buffer, &PromptBuilder::render(&view, &history));
        prop_assert!(buffer.len() > text.len());
        let with_history = parse_prompt(&buffer).expect("builder output parses");
        prop_assert_eq!(&with_history.waiting, &parsed.waiting);
        prop_assert_eq!(with_history.feedback.len(), 1);
        PromptBuilder::render_into(&mut buffer, &view, &Scratchpad::default());
        prop_assert_eq!(&buffer, &text);
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

    /// Nor does a reader that remembers, whatever it was handed before: the
    /// lengths it keeps are applied to bytes, where an unrelated text may
    /// have the middle of a character. Some texts go in raw, some as the
    /// history of a rendered prompt, under one first line so that every
    /// history is looked for in the next.
    #[test]
    fn prompt_reader_never_panics(
        texts in prop::collection::vec(("\\PC*", 0usize..4), 1..7)
    ) {
        let mut reader = PromptReader::default();
        for (text, lines) in &texts {
            let history = format!("[t=1] Thought: {text}\n").repeat(lines * 90);
            let prompt = prompt_with_feedback(0, "first").replace("first\n", &format!("first\n{history}"));
            let _ = reader.read(if *lines == 0 { text } else { &prompt });
        }
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

/// What a reader with nothing remembered makes of `text`.
fn stateless(text: &str) -> Result<(ParsedPrompt, u32), ParseError> {
    parse_prompt(text).map(|prompt| (prompt, estimate_tokens(text)))
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

    /// One reader that remembers, handed what two agents would send it in
    /// turn, returns on every call what the stateless parser and
    /// `estimate_tokens` return — parse, token count, or the same error.
    ///
    /// The pushes are thoughts of a few hundred bytes (so that a run spans
    /// several of the reader's 4 KB blocks), now and then one of many KB
    /// (so that the budget cursor passes whole blocks at once), multi-line
    /// and non-ASCII texts, identical `Action: Delay` lines at one time (so
    /// that first lines collide), feedback, and `clear()`; the budgets run
    /// from a few lines to no limit; three reads in four are of pad 0, so
    /// that runs are both continued and interrupted. A read may be of a
    /// damaged prompt (`damaged`): CRLF endings, an indented history line,
    /// a second scratchpad header, a header of another section inside the
    /// history, an unparseable feedback timestamp (an error, after which the
    /// next prompt must parse right), an unterminated last line. Last, pad
    /// 0's own first block is quoted *inside* the first line of another
    /// history: found off a line start, it must not be taken for read.
    ///
    /// Checked by mutation, each turning this red: dropping a skipped
    /// block's tally; keeping the feedback of blocks dropped ahead of the
    /// anchor; searching for the anchor at every byte instead of every line
    /// start; letting a block take in lines that are not `[t=…]` lines (the
    /// blank one ahead of `Your scheduling objectives are:`, and the header
    /// after it).
    #[test]
    fn remembering_reader_equals_the_stateless_parser(
        ops in prop::collection::vec(
            (0u32..12, 0usize..4, 0u64..3, "\\PC*", 0usize..12, 0u32..24),
            1..60,
        ),
        budgets in (0usize..4, 0usize..4),
    ) {
        const BUDGETS: [u32; 4] = [300, 1500, 4000, 80_000];
        let mut kernel = KernelState::new(ClusterConfig::paper_default(), SimTime::ZERO);
        kernel.arrive(JobSpec::new(32, 0, SimTime::ZERO, SimDuration::from_secs(60), 4, 8));
        let render = |now, pad: &Scratchpad| {
            PromptBuilder::render(&kernel.view(SimTime::from_secs(now), 0, 1), pad)
        };
        let mut pads = [budgets.0, budgets.1].map(|b| Scratchpad::new(BUDGETS[b]));
        let mut reader = PromptReader::default();
        let mut now = 0;
        for (kind, pad, step, text, reps, damage) in &ops {
            let pad = &mut pads[pad / 3];
            now += step;
            let long = text.repeat(reps + 1);
            match kind {
                0 if *reps < 3 => pad.clear(),
                1 | 2 => pad.push_action(now, "Delay"),
                3 | 4 => pad.push_feedback(
                    now,
                    &format!("Action: StartJob failed — Job {reps} cannot be started\n{long}"),
                ),
                5 if *reps < 4 => pad.push_thought(now, &long.repeat(40)),
                _ => pad.push_thought(now, &format!("{long}\n{long} weighs fairness")),
            }
            let prompt = damaged(render(now, pad), *damage, *reps);
            prop_assert_eq!(reader.read(&prompt), stateless(&prompt));
        }

        let mut quoted = Scratchpad::default();
        let mut quoting = Scratchpad::default();
        quoted.push_feedback(now, &ops[0].3);
        quoting.push_thought(0, &format!("x [t={now}] Feedback: {}", ops[0].3));
        for pad in [&mut quoted, &mut quoting] {
            for i in 0..30 {
                pad.push_thought(now + i, &"weighs fairness against makespan ".repeat(8));
            }
            let prompt = render(now + 30, pad);
            prop_assert_eq!(reader.read(&prompt), stateless(&prompt));
        }
    }
}

/// The prompt the agent renders at t = 100 for an idle machine and one
/// waiting job (id 32) that fits it, with `feedback` on the scratchpad at
/// `feedback_at`.
fn prompt_with_feedback(feedback_at: u64, feedback: &str) -> String {
    let mut kernel = KernelState::new(ClusterConfig::paper_default(), SimTime::ZERO);
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

        let mut kernel = KernelState::new(ClusterConfig::paper_default(), SimTime::ZERO);
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
                run_simulation(cluster, &jobs, policy.as_mut(), options)
                    .unwrap_or_else(|e| panic!("{name} on {scenario}: {e}"))
            };
            let (by_name, vetoed) = (run(&SimOptions::default()), run(&strict));
            // `assert!`, not `assert_eq!`: a failure should not print two
            // whole schedules.
            assert!(by_name.records == vetoed.records, "{name} on {scenario}");
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
            let mut running: Vec<&RunningSummary> = view.running.iter().collect();
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
use reasoned_scheduler::workloads::trace::{jobs_from_csv, jobs_to_csv};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SWF import → workload CSV export → CSV import is lossless, and
    /// re-exporting the re-imported jobs reproduces the CSV byte for byte
    /// (`jobs_to_csv` ∘ SWF import is stable under re-export).
    #[test]
    fn swf_import_is_stable_under_csv_reexport(
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
        // The SWF text form itself round-trips through the parser.
        let reparsed = SwfTrace::parse(&trace.to_string()).expect("re-parse");
        prop_assert_eq!(&reparsed, &trace);

        let jobs = trace.to_jobs(0);
        let csv = jobs_to_csv(&jobs);
        let back = jobs_from_csv(&csv).expect("csv reimport");
        prop_assert_eq!(&back, &jobs);
        prop_assert_eq!(jobs_to_csv(&back), csv);
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

    /// `jobs_to_csv ∘ SwfReader` is stable: streaming conversion equals
    /// eager conversion, and its CSV export re-imports losslessly and
    /// re-exports byte-identically.
    #[test]
    fn streaming_conversion_csv_roundtrip_is_stable(
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
        let streamed = SwfReader::from_text(&text).into_jobs(0).expect("streams");
        prop_assert_eq!(&streamed, &trace.to_jobs(0));

        let csv = jobs_to_csv(&streamed);
        let back = jobs_from_csv(&csv).expect("csv reimport");
        prop_assert_eq!(&back, &streamed);
        prop_assert_eq!(jobs_to_csv(&back), csv);
    }
}
