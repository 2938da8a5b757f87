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
//! Since the capacity-calendar refactor the policy no longer rebuilds the
//! free-capacity profile from the whole running set on every `decide`: it
//! reads the kernel's cached per-epoch
//! [`CapacityCalendar`](rsched_sim::CapacityCalendar) (estimated-end
//! skyline, shared by every consumer in the epoch) and lays a reusable
//! [`ReservationProfile`] over it — a reserved-amount step overlay whose
//! fused `place` both finds and books each reservation against the
//! immutable base without cloning it. Three exact shortcuts keep the
//! saturated case cheap:
//!
//! * **flat fast path** (arrival order only): the base skyline is
//!   monotone, so a head that fits now *is* the first startable job — the
//!   unsaturated common case costs no profile work at all;
//! * **candidate pre-scan**: a job can only start now if it fits the
//!   current free capacity and was not rejected this epoch — both cheap
//!   scalar tests. If no job in the depth window qualifies, the pass must
//!   end in `Delay` and is skipped entirely; otherwise it stops at the
//!   last qualifying job, because reservations placed after it are never
//!   read by any remaining startability test;
//! * **head-shadow veto**: when the head cannot start, its reservation
//!   sits at the bare earliest fit `f0` on the base. A candidate whose
//!   window reaches `f0` must fit beside the mass reserved there or it is
//!   provably unstartable — checked against the head alone before the
//!   pass (vetoing many epochs outright) and re-checked incrementally
//!   during the pass as placed reservations stack up at `f0`, shrinking
//!   how far the reservation walk must go.

use rsched_cluster::{JobId, JobSpec};
use rsched_sim::{Action, DelayReason, ReservationProfile, SchedulingPolicy, SystemView};
use rsched_simkit::SimTime;

/// Reservation-list depth cap: queue positions beyond this neither get a
/// reservation nor are considered for backfill in that epoch. Bounds the
/// per-epoch cost to O(depth × profile) on pathological queues.
pub const RESERVATION_DEPTH: usize = 64;

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
    /// Reusable reservation overlay — reloaded from the epoch's base
    /// calendar each pass, so steady state allocates nothing.
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
        // Candidate pre-scan: startable requires `fits_now` and no
        // same-epoch rejection, both cheap scalar tests. No qualifying job
        // in the depth window means the reservation pass below could only
        // return `Delay` — skip it. Otherwise the pass stops at the last
        // qualifying job: reservations placed after it are only ever read
        // by the startability tests of even later jobs, none of which
        // qualify.
        let mut candidates = 0u64;
        for (i, job) in view.waiting.iter().take(RESERVATION_DEPTH).enumerate() {
            if view.fits_now(job) && !self.rejected(job.id) {
                candidates |= 1 << i;
            }
        }
        if candidates == 0 {
            let considered = view.waiting.len().min(RESERVATION_DEPTH) as u32;
            return self.delay(DelayReason::NoStartableCandidate { considered });
        }
        let base = view.capacity_calendar();
        // Head-shadow veto. The pass places the head first, against an
        // empty overlay, so its reservation always sits at the bare
        // earliest fit `f0` (a monotone base never fails a window). A
        // candidate whose own window reaches `f0` and cannot fit beside
        // the head demand at the `f0` level fails at that merged point in
        // the full pass too (the overlay only reserves more) — it is
        // provably unstartable without placing a single reservation. The
        // pass therefore only has to walk to the last *unvetoed*
        // candidate (reservations past it are read only by the
        // startability tests of provably-blocked jobs); when the veto
        // blocks every candidate — a scalar-blocked head (`f0 > now`)
        // blocks candidate bit 0 outright — the epoch is a `Delay` with
        // no pass at all.
        let head_start = base.earliest_fit_flat(head.nodes, head.memory_gb);
        // Survivors split by why the veto is inconclusive: `surv_early`
        // windows end at or before `f0` (the head reservation never
        // touches them); `surv_beside` demands fit beside the head at the
        // `f0` shadow level. The beside set shrinks further during the
        // pass as reservations stack up at `f0`.
        let mut surv_early = candidates;
        let mut surv_beside = 0u64;
        let (mut shadow_nodes, mut shadow_mem) = (0u32, 0u64);
        if head_start > view.now {
            let shadow = base.at(head_start);
            shadow_nodes = shadow.free_nodes;
            shadow_mem = shadow.free_memory_gb;
            let beside_nodes = shadow_nodes.saturating_sub(head.nodes);
            let beside_mem = shadow_mem.saturating_sub(head.memory_gb);
            let mut rest = candidates & !1;
            surv_early = 0;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let job = &view.waiting[i];
                if view.now + job.walltime <= head_start {
                    surv_early |= 1 << i;
                } else if job.nodes <= beside_nodes && job.memory_gb <= beside_mem {
                    surv_beside |= 1 << i;
                }
            }
        }
        if surv_early | surv_beside == 0 {
            // Always a head-shadow veto: when the head fits now
            // (`head_start <= now`) the survivor set starts as the nonempty
            // candidate set and this exit cannot be reached.
            view.sink().count("sim_conservative_shadow_vetoes_total", 1);
            return self.delay(DelayReason::HeadShadowVeto {
                head: head.id,
                shadow: head_start,
            });
        }
        // Reservation pass in arrival order over the epoch's shared base
        // calendar: clear the reusable reserved-amount overlay, reserve
        // every considered job at its earliest feasible window, and
        // collect the jobs whose window lands at `now` (they can start
        // without delaying anyone reserved before them).
        //
        // The pass walks only as far as the last surviving candidate —
        // reservations past it are read solely by the startability tests
        // of provably-blocked jobs. As placed reservations accumulate at
        // `f0`, the exact overlay amounts in force there (`f0_nodes`,
        // `f0_mem`, O(1) per placement) re-run the beside test: a
        // beside-survivor that no longer fits next to that mass fails at
        // the `f0` point of its own window in the full pass too (the
        // overlay only ever grows within a pass), so it is pruned and the
        // walk bound tightens as the hole at `f0` fills.
        let telemetry = view.sink();
        let _pass_span = telemetry.span("conservative.reservation_pass", view.now);
        telemetry.count("sim_conservative_reservation_passes_total", 1);
        self.profile.clear();
        let mut startable: Vec<&JobSpec> = Vec::new();
        let (mut f0_nodes, mut f0_mem) = (0u32, 0u64);
        let mut i = 0;
        loop {
            let job = &view.waiting[i];
            // `place` reserves unconditionally; that is harmless on the
            // startable early return, because the overlay is cleared at
            // the top of every pass.
            let start = self.profile.place(
                base.points(),
                view.now,
                job.nodes,
                job.memory_gb,
                job.walltime,
            );
            if start <= view.now && candidates & (1 << i) != 0 {
                if !self.shortest_first {
                    // Arrival order: the first startable job is the pick —
                    // later reservations cannot change it.
                    return if job.id == head.id {
                        Action::StartJob(job.id)
                    } else {
                        Action::BackfillJob(job.id)
                    };
                }
                startable.push(job);
            }
            if head_start > view.now && start <= head_start && head_start < start + job.walltime {
                f0_nodes += job.nodes;
                f0_mem += job.memory_gb;
                let avail_nodes = shadow_nodes.saturating_sub(f0_nodes);
                let avail_mem = shadow_mem.saturating_sub(f0_mem);
                let mut rest = surv_beside;
                while rest != 0 {
                    let j = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let c = &view.waiting[j];
                    if c.nodes > avail_nodes || c.memory_gb > avail_mem {
                        surv_beside &= !(1 << j);
                    }
                }
            }
            i += 1;
            let surviving = surv_early | surv_beside;
            if i >= 64 || surviving >> i == 0 {
                break;
            }
        }
        let pick = startable
            .into_iter()
            .min_by_key(|j| (j.walltime, j.submit, j.id));
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
    use rsched_sim::{run_simulation, SimOptions, SimOutcome};
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
    /// keep every pick safe.
    fn run_with(jobs: &[JobSpec], mut policy: ConservativeBackfill) -> SimOutcome {
        run_simulation(
            ClusterConfig::new(8, 64),
            jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("completes")
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
}
