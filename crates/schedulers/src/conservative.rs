//! Conservative backfilling: a reservation for *every* waiting job.
//!
//! EASY protects only the queue head; a backfill may still delay the
//! second, third, … job in line. Conservative backfilling closes that gap:
//! each decision epoch derives a reservation list over the waiting queue
//! (in arrival order, up to [`RESERVATION_DEPTH`]), and a job may start now
//! only if doing so is consistent with every earlier reservation. The
//! policy therefore never relies on the simulator's shadow-time veto — its
//! own reservation list is the safety argument, and walltime estimates
//! (`walltime`, not the hidden `duration`) are what the reservations are
//! built from, which is exactly what the badly-estimated-walltime
//! scenarios stress.
//!
//! A `decide` with a startable candidate rebuilds the estimated-end
//! [`CapacityCalendar`] into a buffer the policy keeps, from the slot
//! table's release index, and lays a reusable
//! [`ReservationProfile`] over it — a reserved-amount step overlay whose
//! fused `place` both finds and books each reservation against the
//! immutable base without cloning it. The pass walks only as far as the
//! last job that may still start now — reservations past it are read by
//! no remaining startability test — and four exact shortcuts keep that
//! walk short:
//!
//! * **flat fast path** (arrival order only): the base skyline is
//!   monotone, so a head that fits now *is* the first startable job — the
//!   unsaturated common case costs no profile work at all;
//! * **candidate pre-scan**: a job can only start now if it fits the
//!   current free capacity and was not rejected this epoch — both cheap
//!   scalar tests. Only these candidates may end the walk, and when there
//!   are none the epoch is a `Delay` with no pass;
//! * **pre-pass veto**: when the head cannot start, its reservation sits
//!   at its bare earliest fit on the base, the head's shadow. A candidate
//!   whose window reaches the shadow and cannot fit beside the head there
//!   is provably unstartable; when that holds for every candidate the
//!   epoch is a `Delay` ([`DelayReason::HeadShadowVeto`]) with no pass;
//! * **start-point rule**: every candidate's window opens at `now` and a
//!   pass only ever adds reservations, so once a job is placed at `s` the
//!   free level at `s` only falls for the rest of the pass. Every later
//!   candidate whose window reaches `s` and whose demand exceeds that
//!   level is dropped on the spot.

use rsched_cluster::{JobId, JobSpec};
use rsched_sim::{
    Action, CapacityCalendar, DelayReason, ReservationProfile, SchedulingPolicy, SystemView,
};
use rsched_simkit::SimTime;

/// Reservation-list depth cap: queue positions beyond this neither get a
/// reservation nor are considered for backfill in that epoch. Bounds the
/// per-epoch cost to O(depth × profile) on pathological queues.
pub const RESERVATION_DEPTH: usize = 64;

// Candidates are the bits of one `u64` mask, so the depth cannot outgrow it.
const _: () = assert!(RESERVATION_DEPTH <= u64::BITS as usize);

/// FCFS with conservative backfilling (full reservation list).
///
/// The [`sjbf`](ConservativeBackfill::sjbf) variant picks the shortest
/// requested walltime among the startable candidates instead of the
/// earliest-arrived — the walltime-estimate-aware refinement.
#[derive(Debug, Clone, Default)]
pub struct ConservativeBackfill {
    /// Jobs rejected at the current timestep (reset when time moves),
    /// sorted by id for O(log n) membership checks.
    rejected_this_epoch: Vec<JobId>,
    last_time: Option<SimTime>,
    /// Pick the shortest startable candidate instead of the first.
    shortest_first: bool,
    /// Reusable buffer the estimated base calendar is rebuilt into.
    calendar: CapacityCalendar,
    /// Reusable reservation overlay — cleared each pass and laid over the
    /// base calendar, so steady state allocates nothing.
    profile: ReservationProfile,
    /// Why the most recent `decide` returned [`Action::Delay`]; harvested
    /// by the kernel through [`SchedulingPolicy::provenance`].
    last_delay: Option<DelayReason>,
}

impl ConservativeBackfill {
    /// A fresh policy with arrival-order candidate selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shortest-job-backfilled-first variant (`Conservative-SJBF`).
    pub fn sjbf() -> Self {
        ConservativeBackfill {
            shortest_first: true,
            ..Self::default()
        }
    }

    fn rejected(&self, id: JobId) -> bool {
        self.rejected_this_epoch.binary_search(&id).is_ok()
    }

    fn delay(&mut self, reason: DelayReason) -> Action {
        self.last_delay = Some(reason);
        Action::Delay
    }
}

/// The jobs of `mask` (bits are positions in `window`) that a free level of
/// `(nodes, memory_gb)` at `s` keeps from starting now: their window from
/// `now` reaches `s` and their demand exceeds the level there.
fn blocked_at(
    now: SimTime,
    window: &[&JobSpec],
    mut mask: u64,
    s: SimTime,
    level: (u32, u64),
) -> u64 {
    let mut blocked = 0;
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let job = window[i];
        if now + job.walltime > s && (job.nodes > level.0 || job.memory_gb > level.1) {
            blocked |= 1 << i;
        }
    }
    blocked
}

impl SchedulingPolicy for ConservativeBackfill {
    fn name(&self) -> &str {
        if self.shortest_first {
            "Conservative-SJBF"
        } else {
            "Conservative"
        }
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        self.last_delay = None;
        if self.last_time != Some(view.now) {
            self.last_time = Some(view.now);
            self.rejected_this_epoch.clear();
        }
        if view.all_jobs_started() {
            return Action::Stop;
        }
        let Some(head) = view.head_of_queue() else {
            return self.delay(DelayReason::QueueEmpty);
        };
        // Flat-cluster fast path (arrival order only): the base skyline is
        // monotone per column, so a head that fits now gets earliest start
        // `now` and — being first in arrival order — is the pick. Classed
        // clusters can't take it (class-aware `fits_now` and the scalar
        // profile columns may disagree), and SJBF still needs the full
        // startable set to take its minimum over.
        if !self.shortest_first
            && view.config.topology.is_flat()
            && view.fits_now(head)
            && !self.rejected(head.id)
        {
            return Action::StartJob(head.id);
        }
        // The depth window — the first `RESERVATION_DEPTH` waiting jobs —
        // read from the queue once, onto the stack.
        let mut slots = [head; RESERVATION_DEPTH];
        let mut depth = 0;
        for (slot, job) in slots.iter_mut().zip(view.waiting) {
            *slot = job;
            depth += 1;
        }
        let window = &slots[..depth];
        // Candidate pre-scan: startable requires `fits_now` and no
        // same-epoch rejection, both cheap scalar tests. No qualifying job
        // in the depth window means the reservation pass below could only
        // return `Delay` — skip it.
        let mut candidates = 0u64;
        for (i, job) in window.iter().enumerate() {
            if view.fits_now(job) && !self.rejected(job.id) {
                candidates |= 1 << i;
            }
        }
        if candidates == 0 {
            let considered = window.len() as u32;
            return self.delay(DelayReason::NoStartableCandidate { considered });
        }
        view.capacity_calendar(&mut self.calendar);
        let base = &self.calendar;
        // Pre-pass veto. The pass places the head first, against an empty
        // overlay, so its reservation always sits at its bare earliest fit
        // (a monotone base never fails a window). A candidate whose window
        // reaches that shadow and cannot fit beside the head there fails
        // at that point in the full pass too, without a single placement.
        // A scalar-blocked head (shadow past `now`) is no survivor itself.
        let head_start = base.earliest_fit_flat(head.nodes, head.memory_gb);
        let mut survivors = candidates;
        if head_start > view.now {
            let shadow = base.at(head_start);
            let beside = (
                shadow.free_nodes.saturating_sub(head.nodes),
                shadow.free_memory_gb.saturating_sub(head.memory_gb),
            );
            survivors &= !1;
            survivors &= !blocked_at(view.now, window, survivors, head_start, beside);
        }
        if survivors == 0 {
            // Always a head-shadow veto: when the head fits now
            // (`head_start <= now`) the survivor set is the nonempty
            // candidate set and this exit cannot be reached.
            view.sink().count("sim_conservative_shadow_vetoes_total", 1);
            return self.delay(DelayReason::HeadShadowVeto {
                head: head.id,
                shadow: head_start,
            });
        }
        // Reservation pass in arrival order over the base calendar: clear
        // the reusable reserved-amount overlay, reserve every considered
        // job at its earliest feasible window, and pick
        // among the candidates whose window lands at `now` (they can start
        // without delaying anyone reserved before them).
        //
        // Start-point rule: every candidate's window opens at `now` and
        // the overlay only grows within a pass, so the level left at a
        // placement's start `s` caps the level there for the rest of the
        // pass. A later survivor whose window reaches `s` and whose demand
        // exceeds that level fails at `s` in the full pass too; it is
        // dropped, and the walk ends at the last survivor, because
        // reservations past it are read only by provably-blocked jobs.
        let telemetry = view.sink();
        let _pass_span = telemetry.span("conservative.reservation_pass", view.now);
        telemetry.count("sim_conservative_reservation_passes_total", 1);
        self.profile.clear();
        let key = |j: &JobSpec| (j.walltime, j.submit, j.id);
        let mut pick: Option<&JobSpec> = None;
        let mut i = 0;
        loop {
            let job = window[i];
            let start = self.profile.place(
                base.points(),
                view.now,
                job.nodes,
                job.memory_gb,
                job.walltime,
            );
            let startable = start <= view.now && candidates & (1 << i) != 0;
            i += 1;
            if startable {
                if pick.is_none_or(|p| key(job) < key(p)) {
                    pick = Some(job);
                }
                // Arrival order: the first startable job is the pick —
                // later reservations cannot change it.
                if !self.shortest_first {
                    break;
                }
            }
            if i >= window.len() {
                break;
            }
            let later = survivors >> i << i;
            if later == 0 {
                break;
            }
            let free = base.at(start);
            let (nodes, memory_gb) = self.profile.reserved_at(start);
            let level = (
                free.free_nodes.saturating_sub(nodes),
                free.free_memory_gb.saturating_sub(memory_gb),
            );
            survivors &= !blocked_at(view.now, window, later, start, level);
            if survivors >> i == 0 {
                break;
            }
        }
        telemetry.count("sim_conservative_places_total", i as u64);
        match pick {
            Some(j) if j.id == head.id => Action::StartJob(j.id),
            Some(j) => Action::BackfillJob(j.id),
            None => self.delay(DelayReason::ReservationBlocked),
        }
    }

    fn provenance(&mut self) -> Option<DelayReason> {
        self.last_delay.take()
    }

    fn observe(&mut self, outcome: &rsched_sim::ActionOutcome) {
        if !outcome.accepted() {
            if let Some(id) = outcome.action.job_id() {
                if let Err(at) = self.rejected_this_epoch.binary_search(&id) {
                    self.rejected_this_epoch.insert(at, id);
                }
            }
        }
    }

    fn reset(&mut self) {
        self.rejected_this_epoch.clear();
        self.last_time = None;
        self.last_delay = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, JobId, JobSpec};
    use rsched_sim::{run_simulation, SimOptions, SimOutcome, Simulation};
    use rsched_simkit::{SimDuration, SimTime};

    fn spec(id: u32, submit_s: u64, dur_s: u64, nodes: u32) -> JobSpec {
        JobSpec::new(
            id,
            id % 3,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(dur_s),
            nodes,
            1,
        )
    }

    /// Note: `strict_backfill` stays OFF — the reservation list itself must
    /// keep every pick safe. The decision log is kept.
    fn run_with(jobs: &[JobSpec], mut policy: ConservativeBackfill) -> SimOutcome {
        let out = Simulation::new(ClusterConfig::new(8, 64))
            .jobs(jobs)
            .record_decisions()
            .run(&mut policy)
            .expect("completes");
        assert_eq!(out.decisions.len(), out.stats.queries);
        out
    }

    fn start(out: &SimOutcome, id: u32) -> SimTime {
        out.records
            .iter()
            .find(|r| r.spec.id == JobId(id))
            .unwrap()
            .start
    }

    #[test]
    fn reservations_keep_unsafe_backfills_out_without_simulator_help() {
        let jobs = vec![
            spec(0, 0, 100, 6),  // running, 2 nodes free
            spec(1, 5, 50, 8),   // head, reserved at t=100
            spec(2, 6, 1000, 2), // would delay the head — never proposed early
            spec(3, 7, 10, 1),   // fits before the head's reservation
        ];
        let out = run_with(&jobs, ConservativeBackfill::new());
        assert_eq!(start(&out, 1), SimTime::from_secs(100), "head undelayed");
        assert!(
            start(&out, 2) >= SimTime::from_secs(150),
            "long job honours the head's reservation: {:?}",
            start(&out, 2)
        );
        assert_eq!(start(&out, 3), SimTime::from_secs(7), "short job backfills");
        assert_eq!(out.stats.rejections, 0, "no simulator veto was needed");
    }

    #[test]
    fn protects_reservations_beyond_the_head() {
        // EASY protects only job 1; conservative also protects job 2.
        let jobs = vec![
            spec(0, 0, 100, 6), // running, 2 nodes free
            spec(1, 5, 50, 8),  // head: reserved [100, 150)
            spec(2, 6, 50, 6),  // second in line: reserved [150, 200)
            spec(3, 7, 60, 2),  // fits now, ends t≈67 < 100: harmless
        ];
        let out = run_with(&jobs, ConservativeBackfill::new());
        assert_eq!(start(&out, 1), SimTime::from_secs(100));
        assert_eq!(start(&out, 2), SimTime::from_secs(150));
        assert_eq!(start(&out, 3), SimTime::from_secs(7));
    }

    #[test]
    fn sjbf_variant_picks_the_shortest_startable_candidate() {
        let jobs = vec![
            spec(0, 0, 100, 6), // running, 2 nodes free
            spec(1, 5, 50, 8),  // head blocked until t=100
            spec(2, 6, 80, 1),  // arrival-order pick
            spec(3, 6, 10, 1),  // same arrival, shortest
        ];
        let arrival = run_with(&jobs, ConservativeBackfill::new());
        let sjbf = run_with(&jobs, ConservativeBackfill::sjbf());
        let first_backfill = |o: &SimOutcome| {
            o.decisions
                .iter()
                .find_map(|d| match d.action {
                    Action::BackfillJob(id) => Some(id),
                    _ => None,
                })
                .expect("backfilled")
        };
        assert_eq!(first_backfill(&arrival), JobId(2));
        assert_eq!(first_backfill(&sjbf), JobId(3));
        assert_eq!(start(&arrival, 1), SimTime::from_secs(100));
        assert_eq!(start(&sjbf, 1), SimTime::from_secs(100));
    }

    #[test]
    fn behaves_like_fcfs_when_no_backfill_possible() {
        let jobs = vec![spec(0, 0, 50, 8), spec(1, 1, 20, 8), spec(2, 2, 20, 8)];
        let cons = run_with(&jobs, ConservativeBackfill::new());
        let fcfs = run_simulation(
            ClusterConfig::new(8, 64),
            &jobs,
            &mut crate::fcfs::Fcfs::default(),
            &SimOptions::default(),
        )
        .expect("completes");
        let starts = |o: &SimOutcome| {
            let mut v: Vec<(JobId, u64)> = o
                .records
                .iter()
                .map(|r| (r.spec.id, r.start.as_secs()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(starts(&cons), starts(&fcfs));
    }

    #[test]
    fn deep_queue_is_bounded_by_the_reservation_depth() {
        // 200 one-node jobs behind a machine-wide head: the policy must
        // stay deterministic and complete despite the depth cap.
        let mut jobs = vec![spec(0, 0, 50, 8)];
        for i in 1..=200u32 {
            jobs.push(spec(i, 1, 10, 1));
        }
        let out = run_with(&jobs, ConservativeBackfill::new());
        assert_eq!(out.records.len(), jobs.len());
    }

    #[test]
    fn classed_cluster_skips_the_flat_fast_path_and_still_schedules() {
        // On mixed_256 the head fast path must not fire (class-aware
        // fits_now vs scalar profile columns): the full reservation pass
        // must still start everything.
        let mut jobs = Vec::new();
        for i in 0..8u32 {
            jobs.push(spec(i, i as u64, 30, 16));
        }
        let out = run_simulation(
            ClusterConfig::mixed_256(),
            &jobs,
            &mut ConservativeBackfill::new(),
            &SimOptions::default(),
        )
        .expect("completes");
        assert_eq!(out.records.len(), jobs.len());
    }

    #[test]
    fn a_placement_that_fills_its_start_ends_the_pass() {
        use rsched_cluster::{UserId, MAX_CLASSES};
        use rsched_sim::{RunningSummary, TelemetrySink};

        let running = |id: u32, nodes: u32, end_s: u64| RunningSummary {
            id: JobId(id),
            user: UserId(0),
            nodes,
            memory_gb: 1,
            start: SimTime::ZERO,
            submit: SimTime::ZERO,
            expected_end: SimTime::from_secs(end_s),
            class: None,
        };
        // 2 of 8 nodes free now, 6 from t=100, all 8 from t=200.
        let running = [running(100, 4, 100), running(101, 2, 200)];
        let mut waiting = vec![
            spec(1, 0, 10, 8),  // head: shadow t=200
            spec(2, 0, 100, 6), // no fit now; reserved over [100, 200)
        ];
        // Fit now and end by the head's shadow, so the veto passes them,
        // but each window reaches t=100, where job 2 leaves nothing free.
        waiting.extend((3..=10).map(|id| spec(id, 0, 150, 1)));
        let sink = TelemetrySink::recording();
        let view = SystemView {
            now: SimTime::ZERO,
            config: ClusterConfig::new(8, 64),
            free_nodes: 2,
            free_memory_gb: 62,
            free_by_class: [0; MAX_CLASSES],
            waiting: waiting.as_slice().into(),
            running: running.as_slice().into(),
            completed: 0,
            pending_arrivals: 0,
            total_jobs: waiting.len() + running.len(),
            telemetry: Some(&sink),
            queue: None,
        };
        let mut policy = ConservativeBackfill::new();
        assert_eq!(policy.decide(&view), Action::Delay);
        assert_eq!(policy.provenance(), Some(DelayReason::ReservationBlocked));
        let counter = |name| sink.with(|t| t.metrics.counter(name)).flatten();
        assert_eq!(
            counter("sim_conservative_reservation_passes_total"),
            Some(1)
        );
        // The head and job 2: nothing is left free at t=100, so jobs 3–10
        // are dropped unplaced.
        assert_eq!(counter("sim_conservative_places_total"), Some(2));
    }
}
