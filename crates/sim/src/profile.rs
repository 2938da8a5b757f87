//! The shared, incrementally-maintained **capacity calendar**: the
//! free-capacity skyline over time that every backfilling consumer reads.
//!
//! The calendar keeps that work in one place, at two costs:
//!
//! * **maintenance** — the kernel owns a [`CapacityLedger`] and tells it
//!   about every job start and completion; the ledger keeps its release
//!   lists sorted incrementally (`O(log R)` binary-searched insert/remove,
//!   never a full re-sort);
//! * **materialization** — a [`CapacityCalendar`] skyline is built from a
//!   sorted release list in one `O(R)` pass, and cached per
//!   `(now, queue-version, running-version)` stamp, so repeated reads
//!   within one decision epoch (policy queries, kernel validations,
//!   rejection retries) reuse the same skyline without rebuilding it.
//!
//! Two calendars hang off one ledger because the consumers legitimately
//! disagree about the future:
//!
//! * the **estimated** calendar releases capacity at each job's
//!   `expected_end` (`start + walltime`) — what policies may know; the
//!   reservation-list policies plan over this one (via
//!   [`SystemView::capacity_calendar`](crate::SystemView::capacity_calendar));
//! * the **actual** calendar releases capacity at each job's true end —
//!   the cluster ledger's completion schedule, which is what the kernel's
//!   shadow-time validation reads.
//!
//! Consumers that *overlay* tentative reservations (conservative
//! backfilling) never clone or mutate the cached base. They keep a
//! reusable [`ReservationProfile`] — the workspace's one timetable, which
//! lives in [`rsched_simkit::timetable`] because the solver's schedule
//! decoder runs on it too — and call
//! [`place`](ReservationProfile::place) per job over the calendar's
//! [`points`](CapacityCalendar::points): a fused locate-and-reserve that
//! finds the earliest window whose effective level (base minus reserved)
//! admits the demand and splices the new reservation in around the
//! insertion hint the search already computed. The mutating
//! [`reserve`](CapacityCalendar::reserve) +
//! [`earliest_window`](CapacityCalendar::earliest_window) pair remains for
//! callers that genuinely want a scratch calendar, and as the proptest
//! model the overlay is pinned against
//! (`overlay_matches_a_cloned_calendar` in
//! `tests/backfill_equivalence.rs`).
//!
//! The skyline is pinned point for point against a from-scratch rebuild
//! (`tests/backfill_equivalence.rs` proptests), and the shadow math
//! against the straight-line reference kernel's completion sweeps
//! (`tests/kernel_equivalence.rs`, accept and refuse paths, flat and
//! classed).

use std::cell::{Ref, RefCell};

use rsched_cluster::{
    classed_overlap_fits, JobId, JobSpec, PlacementRequest, Topology, MAX_CLASSES,
};
use rsched_simkit::{BasePoint, SimDuration, SimTime};

pub use rsched_simkit::{ReservationProfile, ReservedStep};

use crate::view::RunningSummary;

/// One step of the free-capacity skyline: the free resources from
/// [`time`](CalendarPoint::time) (inclusive) until the next point's time.
/// The last point holds forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarPoint {
    /// When this capacity level begins. Capacity released at `t` is free
    /// *at* `t` (jobs ending exactly at `t` count as released).
    pub time: SimTime,
    /// Free nodes over `[time, next.time)`.
    pub free_nodes: u32,
    /// Free memory (GB) over the same window.
    pub free_memory_gb: u64,
    /// Free nodes per topology class slot. Populated only on
    /// ledger-built calendars for classed clusters; all zeros on flat
    /// clusters and on fallback calendars built from a bare
    /// [`SystemView`](crate::SystemView).
    pub free_by_class: [u32; MAX_CLASSES],
}

/// The scalar columns are what a [`ReservationProfile`] is laid over.
impl BasePoint for CalendarPoint {
    fn time(&self) -> SimTime {
        self.time
    }

    fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    fn free_memory_gb(&self) -> u64 {
        self.free_memory_gb
    }
}

/// One future capacity release: `(time, id)`-sorted inside the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Release {
    time: SimTime,
    id: JobId,
    nodes: u32,
    memory_gb: u64,
    by_class: [u32; MAX_CLASSES],
}

/// The free-capacity skyline: a step function of free resources over
/// time, sorted strictly ascending by time, with no duplicate timestamps
/// (equal-time releases are merged at build time — the fix for the old
/// `free_profile`'s duplicate boundary points).
///
/// A **base** calendar (fresh from a ledger or running set) is monotone:
/// releases only ever add capacity, so every column is non-decreasing in
/// time and the last point is the fully-free machine. Overlaying
/// reservations with [`reserve`](CapacityCalendar::reserve) breaks
/// monotonicity (capacity dips inside the reserved window), which is why
/// [`earliest_window`](CapacityCalendar::earliest_window) never assumes it
/// while [`earliest_fit_flat`](CapacityCalendar::earliest_fit_flat) does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapacityCalendar {
    points: Vec<CalendarPoint>,
}

impl CapacityCalendar {
    /// Build the skyline from the current free level at `now` and a
    /// release sequence **sorted ascending by time**. Releases at or
    /// before `now` (overruns: a job past its estimate still holding
    /// nodes) are credited at `now`, and equal-time releases merge into
    /// one point, so timestamps come out strictly increasing.
    pub fn build(
        now: SimTime,
        free_nodes: u32,
        free_memory_gb: u64,
        free_by_class: [u32; MAX_CLASSES],
        releases: impl Iterator<Item = (SimTime, u32, u64, [u32; MAX_CLASSES])>,
    ) -> Self {
        let mut calendar = CapacityCalendar::default();
        calendar.rebuild(now, free_nodes, free_memory_gb, free_by_class, releases);
        calendar
    }

    /// [`build`](Self::build) into an existing calendar, reusing its
    /// point buffer — the per-epoch cache refresh path, which would
    /// otherwise pay an allocation per decision epoch.
    pub fn rebuild(
        &mut self,
        now: SimTime,
        free_nodes: u32,
        free_memory_gb: u64,
        free_by_class: [u32; MAX_CLASSES],
        releases: impl Iterator<Item = (SimTime, u32, u64, [u32; MAX_CLASSES])>,
    ) {
        let points = &mut self.points;
        points.clear();
        points.push(CalendarPoint {
            time: now,
            free_nodes,
            free_memory_gb,
            free_by_class,
        });
        for (t, nodes, mem, by_class) in releases {
            let last = points.last_mut().expect("non-empty");
            let mut merged = *last;
            merged.free_nodes += nodes;
            merged.free_memory_gb += mem;
            for (slot, n) in by_class.into_iter().enumerate() {
                merged.free_by_class[slot] += n;
            }
            if t <= last.time {
                // Overrun (t < now) or an equal-time release: fold into
                // the existing point instead of emitting a duplicate
                // timestamp.
                last.free_nodes = merged.free_nodes;
                last.free_memory_gb = merged.free_memory_gb;
                last.free_by_class = merged.free_by_class;
            } else {
                merged.time = t;
                points.push(merged);
            }
        }
    }

    /// Fallback construction from borrowed running summaries — the path a
    /// hand-built [`SystemView`](crate::SystemView) without a kernel
    /// ledger takes. Scalar columns are bit-identical to the ledger-built
    /// estimated calendar for the same summaries; class columns are zero
    /// (summaries do not expose per-class allocations).
    pub fn from_running(
        now: SimTime,
        free_nodes: u32,
        free_memory_gb: u64,
        running: &[RunningSummary],
    ) -> Self {
        let mut releases: Vec<(SimTime, JobId, u32, u64)> = running
            .iter()
            .map(|r| (r.expected_end, r.id, r.nodes, r.memory_gb))
            .collect();
        releases.sort_unstable();
        CapacityCalendar::build(
            now,
            free_nodes,
            free_memory_gb,
            [0; MAX_CLASSES],
            releases
                .into_iter()
                .map(|(t, _, n, m)| (t, n, m, [0; MAX_CLASSES])),
        )
    }

    /// The skyline steps, strictly ascending in time. Never empty: the
    /// first point is `now` at the current free level.
    pub fn points(&self) -> &[CalendarPoint] {
        &self.points
    }

    /// Number of skyline steps.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the calendar holds no points (only a
    /// default-constructed calendar; built calendars always have ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The capacity level in force at time `t`: the last point with
    /// `time <= t` (releases at `t` are already counted).
    /// Clamps to the first point for `t` before the calendar start.
    pub fn at(&self, t: SimTime) -> &CalendarPoint {
        let idx = self.points.partition_point(|p| p.time <= t);
        &self.points[idx.saturating_sub(1).min(self.points.len() - 1)]
    }

    /// Earliest time at which `(nodes, memory_gb)` fits, assuming only the
    /// scheduled releases (no new starts) — the flat-cluster shadow time.
    /// `SimTime::MAX` if the demand never fits.
    ///
    /// **Base calendars only**: monotone columns make "fits" a monotone
    /// predicate, so this is a single `O(log P)` partition point.
    pub fn earliest_fit_flat(&self, nodes: u32, memory_gb: u64) -> SimTime {
        debug_assert!(
            self.is_monotone(),
            "earliest_fit_flat needs a base calendar"
        );
        let idx = self
            .points
            .partition_point(|p| p.free_nodes < nodes || p.free_memory_gb < memory_gb);
        match self.points.get(idx) {
            Some(p) => p.time,
            None => SimTime::MAX,
        }
    }

    /// Earliest time at which `demand` fits the per-class free counts —
    /// the classed shadow time, one sweep over the (merged) release
    /// points. `SimTime::MAX` if no point ever hosts the demand.
    pub fn earliest_fit_classed(&self, topology: &Topology, demand: &PlacementRequest) -> SimTime {
        for p in &self.points {
            if demand.fits_classes(topology, &p.free_by_class) {
                return p.time;
            }
        }
        SimTime::MAX
    }

    /// EASY's reservation for a blocked queue `head`, read off this base
    /// calendar: its shadow start — the earliest instant it fits, given
    /// the calendar's releases and no new starts — and the level free
    /// then. `free_by_class` is the per-class free count right now (what a
    /// classed candidate's take is planned against; ignored on a flat
    /// machine). On a classed machine the shadow is read off the class
    /// columns, which only ledger-built calendars carry: on a
    /// [`from_running`](Self::from_running) fallback the head never fits
    /// and every candidate is admitted.
    ///
    /// Which future is asked is the caller's choice of calendar: the
    /// `EasyBackfill` policy asks the estimated one, all a scheduler may
    /// know; the kernel's optional veto asks the actual-end one.
    pub fn head_reservation(
        &self,
        topology: &Topology,
        free_by_class: [u32; MAX_CLASSES],
        head: &JobSpec,
    ) -> HeadReservation {
        let head = PlacementRequest::from(head);
        let shadow = if topology.is_flat() {
            self.earliest_fit_flat(head.nodes, head.memory_gb)
        } else {
            self.earliest_fit_classed(topology, &head)
        };
        HeadReservation {
            topology: *topology,
            now: self.points[0].time,
            free_by_class,
            head,
            shadow,
            at_shadow: *self.at(shadow),
        }
    }

    /// Earliest point time from which `(nodes, memory_gb)` stays
    /// available for a whole `walltime` window — the conservative
    /// reservation placement. Safe on reserved overlays (no monotonicity
    /// assumed).
    ///
    /// Single monotone-cursor pass, `O(P)` amortized: when capacity fails
    /// at point `f` inside the current candidate's window, every candidate
    /// start in `(candidate, f]` also has `f` inside its window (later
    /// start, same or later end), so the cursor skips straight to `f + 1`
    /// — each point is rejected at most once. Equivalent, by that
    /// argument, to the naive loop that re-scans the window for every
    /// candidate start in order.
    ///
    /// # Panics
    /// Panics if nothing fits at any point — impossible for demands within
    /// machine capacity, because the final point of a base calendar (and
    /// of any overlay whose reservations all end before it) is the fully
    /// free machine.
    pub fn earliest_window(&self, nodes: u32, memory_gb: u64, walltime: SimDuration) -> SimTime {
        let points = &self.points;
        let mut candidate = 0usize;
        'candidate: while candidate < points.len() {
            let start = points[candidate].time;
            let end = start + walltime;
            let mut k = candidate;
            while k < points.len() && points[k].time < end {
                if points[k].free_nodes < nodes || points[k].free_memory_gb < memory_gb {
                    candidate = k + 1;
                    continue 'candidate;
                }
                k += 1;
            }
            return start;
        }
        unreachable!("the final calendar point is the fully-free machine")
    }

    /// Insert a boundary point at `t` carrying the preceding level, if
    /// absent. Times before the calendar start are not inserted (the
    /// `[start, end)` clamp in [`reserve`](Self::reserve) covers them).
    fn insert_boundary(&mut self, t: SimTime) {
        match self.points.binary_search_by_key(&t, |p| p.time) {
            Ok(_) => {}
            Err(0) => {}
            Err(i) => {
                let mut p = self.points[i - 1];
                p.time = t;
                self.points.insert(i, p);
            }
        }
    }

    /// Subtract a tentative reservation of `(nodes, memory_gb)` over
    /// `[start, end)` — scalar columns only (class columns are untouched;
    /// reservation overlays are a flat-profile computation).
    ///
    /// Binary-searched segment update: two boundary insertions plus a
    /// subtraction over exactly the points inside the window —
    /// `O(log P + touched segments)`, never a full-vector scan.
    pub fn reserve(&mut self, start: SimTime, end: SimTime, nodes: u32, memory_gb: u64) {
        self.insert_boundary(start);
        self.insert_boundary(end);
        let lo = self.points.partition_point(|p| p.time < start);
        let hi = self.points.partition_point(|p| p.time < end);
        for p in &mut self.points[lo..hi] {
            p.free_nodes = p.free_nodes.saturating_sub(nodes);
            p.free_memory_gb = p.free_memory_gb.saturating_sub(memory_gb);
        }
    }

    /// `true` when every column is non-decreasing in time — the base
    /// calendar invariant (releases only add capacity).
    fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| {
            w[0].free_nodes <= w[1].free_nodes && w[0].free_memory_gb <= w[1].free_memory_gb
        })
    }
}

/// A blocked queue head's EASY reservation — see
/// [`CapacityCalendar::head_reservation`]. Copies what it needs out of the
/// calendar, so it outlives the borrow it was read through.
#[derive(Debug, Clone, Copy)]
pub struct HeadReservation {
    topology: Topology,
    now: SimTime,
    free_by_class: [u32; MAX_CLASSES],
    head: PlacementRequest,
    shadow: SimTime,
    at_shadow: CalendarPoint,
}

impl HeadReservation {
    /// The head's shadow start; `SimTime::MAX` if it never fits.
    pub fn shadow(&self) -> SimTime {
        self.shadow
    }

    /// The EASY backfill rule, stated once: a `candidate` that fits now
    /// may start now without moving the head's shadow start iff it ends,
    /// by its walltime estimate, no later than the shadow, or fits beside
    /// the head in what is free at the shadow — scalar sums on a flat
    /// machine; on a classed one the candidate's planned per-class take is
    /// subtracted before the head is placed. A head that can never run
    /// cannot be delayed.
    pub fn admits(&self, candidate: &JobSpec) -> bool {
        self.ends_by_shadow(candidate.walltime) || self.fits_beside(candidate)
    }

    /// The half of [`admits`](Self::admits) that reads only a candidate's
    /// walltime — as durations, so none is long enough to wrap to an early end.
    pub(crate) fn ends_by_shadow(&self, walltime: SimDuration) -> bool {
        self.shadow == SimTime::MAX || walltime <= self.shadow.saturating_since(self.now)
    }

    /// The half that reads only its demand class — `(memory_gb, nodes)` flat,
    /// `(compatible slots, nodes)` classed: all a planned take depends on.
    fn fits_beside(&self, candidate: &JobSpec) -> bool {
        if self.topology.is_flat() {
            self.at_shadow.free_nodes >= candidate.nodes + self.head.nodes
                && self.at_shadow.free_memory_gb >= candidate.memory_gb + self.head.memory_gb
        } else {
            classed_overlap_fits(
                &self.topology,
                &self.free_by_class,
                self.at_shadow.free_by_class,
                &PlacementRequest::from(candidate),
                &self.head,
            )
        }
    }
}

/// The epoch stamp a cached calendar is keyed by: rebuilt only when the
/// clock moves or the queue/running state changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStamp {
    /// The epoch's clock reading.
    pub now: SimTime,
    /// Bumped on every queue mutation (arrivals; removals ride the
    /// running-state bump of the start that caused them).
    pub queue_version: u64,
    /// Bumped on every running-set mutation (job start / completion).
    pub running_version: u64,
}

/// One cached skyline with the stamp it was built at, plus rebuild/hit
/// counters for telemetry (the kernel harvests them into
/// `sim_calendar_rebuilds_total` / `sim_calendar_cache_hits_total`).
#[derive(Debug, Default)]
struct CachedCalendar {
    stamp: Option<CalendarStamp>,
    calendar: CapacityCalendar,
    rebuilds: u64,
    hits: u64,
}

impl CachedCalendar {
    fn refresh<'a>(
        cell: &'a RefCell<Self>,
        stamp: CalendarStamp,
        build: impl FnOnce(&mut CapacityCalendar),
    ) -> Ref<'a, CapacityCalendar> {
        {
            let mut cache = cell.borrow_mut();
            if cache.stamp != Some(stamp) {
                build(&mut cache.calendar);
                cache.stamp = Some(stamp);
                cache.rebuilds += 1;
            } else {
                cache.hits += 1;
            }
        }
        Ref::map(cell.borrow(), |c| &c.calendar)
    }
}

/// The kernel-owned side of the subsystem: incrementally sorted release
/// lists (estimated and actual end times per running job) plus the
/// per-epoch calendar caches.
///
/// Ownership and maintenance: `KernelState` is the **only writer** — it
/// calls [`job_started`](Self::job_started) /
/// [`job_completed`](Self::job_completed) from its start/complete paths
/// and [`queue_changed`](Self::queue_changed) on arrivals. Readers
/// (policies via the [`SystemView`](crate::SystemView), the kernel's own
/// strict-backfill validation) get shared [`Ref`]s to the cached
/// calendars and must drop them before the next mutation (statically
/// enforced by the borrow they hold on the ledger).
#[derive(Debug, Default)]
pub struct CapacityLedger {
    /// Releases at `expected_end` (`start + walltime`), sorted `(time, id)`.
    estimated: Vec<Release>,
    /// Releases at the true completion time, sorted `(time, id)`.
    actual: Vec<Release>,
    queue_version: u64,
    running_version: u64,
    estimated_cache: RefCell<CachedCalendar>,
    actual_cache: RefCell<CachedCalendar>,
}

impl CapacityLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache stamp for the current state at `now` — policies can key
    /// their own per-epoch memoization off this.
    pub fn stamp(&self, now: SimTime) -> CalendarStamp {
        CalendarStamp {
            now,
            queue_version: self.queue_version,
            running_version: self.running_version,
        }
    }

    /// Record a placement: the job will release `(nodes, memory_gb,
    /// by_class)` at `expected_end` per its walltime estimate and at
    /// `actual_end` per the cluster's completion schedule.
    pub fn job_started(
        &mut self,
        id: JobId,
        expected_end: SimTime,
        actual_end: SimTime,
        nodes: u32,
        memory_gb: u64,
        by_class: [u32; MAX_CLASSES],
    ) {
        let release = |time| Release {
            time,
            id,
            nodes,
            memory_gb,
            by_class,
        };
        Self::insert(&mut self.estimated, release(expected_end));
        Self::insert(&mut self.actual, release(actual_end));
        self.running_version += 1;
    }

    /// Drop the completed job's releases. `actual_end` is the completion
    /// time (the completion event's own timestamp); `expected_end` is the
    /// estimate recorded at start.
    pub fn job_completed(&mut self, id: JobId, expected_end: SimTime, actual_end: SimTime) {
        Self::remove(&mut self.estimated, expected_end, id);
        Self::remove(&mut self.actual, actual_end, id);
        self.running_version += 1;
    }

    /// Note a waiting-queue mutation (arrival) for the epoch stamp.
    pub fn queue_changed(&mut self) {
        self.queue_version += 1;
    }

    /// Telemetry counters summed over both calendar caches:
    /// `(rebuilds, cache_hits)`. A rebuild is a skyline construction from
    /// the release list; a hit reuses the cached skyline for the same
    /// [`CalendarStamp`].
    pub fn calendar_counters(&self) -> (u64, u64) {
        let est = self.estimated_cache.borrow();
        let act = self.actual_cache.borrow();
        (est.rebuilds + act.rebuilds, est.hits + act.hits)
    }

    fn insert(list: &mut Vec<Release>, release: Release) {
        let at = list.partition_point(|r| (r.time, r.id) < (release.time, release.id));
        list.insert(at, release);
    }

    fn remove(list: &mut Vec<Release>, time: SimTime, id: JobId) {
        let at = list.partition_point(|r| (r.time, r.id) < (time, id));
        assert!(
            at < list.len() && list[at].id == id && list[at].time == time,
            "ledger release missing for completed job {id:?} at {time:?}"
        );
        list.remove(at);
    }

    /// The **estimated** skyline (releases at walltime-estimated ends) for
    /// the epoch at `now` with the given current free levels — cached per
    /// [`CalendarStamp`]. This is the calendar reservation-list policies
    /// plan over.
    pub fn estimated(
        &self,
        now: SimTime,
        free_nodes: u32,
        free_memory_gb: u64,
        free_by_class: [u32; MAX_CLASSES],
    ) -> Ref<'_, CapacityCalendar> {
        CachedCalendar::refresh(&self.estimated_cache, self.stamp(now), |cal| {
            Self::build_from(
                cal,
                &self.estimated,
                now,
                free_nodes,
                free_memory_gb,
                free_by_class,
            )
        })
    }

    /// The **actual** skyline (releases at true completion times) — what
    /// the kernel's shadow-time validation reads; bit-identical to the
    /// sweep over `cluster.running()` ends.
    pub fn actual(
        &self,
        now: SimTime,
        free_nodes: u32,
        free_memory_gb: u64,
        free_by_class: [u32; MAX_CLASSES],
    ) -> Ref<'_, CapacityCalendar> {
        CachedCalendar::refresh(&self.actual_cache, self.stamp(now), |cal| {
            Self::build_from(
                cal,
                &self.actual,
                now,
                free_nodes,
                free_memory_gb,
                free_by_class,
            )
        })
    }

    fn build_from(
        into: &mut CapacityCalendar,
        releases: &[Release],
        now: SimTime,
        free_nodes: u32,
        free_memory_gb: u64,
        free_by_class: [u32; MAX_CLASSES],
    ) {
        into.rebuild(
            now,
            free_nodes,
            free_memory_gb,
            free_by_class,
            releases
                .iter()
                .map(|r| (r.time, r.nodes, r.memory_gb, r.by_class)),
        );
    }
}

/// A borrowed calendar: either the ledger's cached skyline or an owned
/// fallback built on the spot from running summaries. Dereferences to
/// [`CapacityCalendar`]; clone the target to get a mutable reservation
/// overlay.
pub struct CalendarRef<'a>(CalendarRefInner<'a>);

enum CalendarRefInner<'a> {
    Cached(Ref<'a, CapacityCalendar>),
    Owned(Box<CapacityCalendar>),
}

impl<'a> CalendarRef<'a> {
    pub(crate) fn cached(r: Ref<'a, CapacityCalendar>) -> Self {
        CalendarRef(CalendarRefInner::Cached(r))
    }

    pub(crate) fn owned(c: CapacityCalendar) -> Self {
        CalendarRef(CalendarRefInner::Owned(Box::new(c)))
    }
}

impl std::ops::Deref for CalendarRef<'_> {
    type Target = CapacityCalendar;

    fn deref(&self) -> &CapacityCalendar {
        match &self.0 {
            CalendarRefInner::Cached(r) => r,
            CalendarRefInner::Owned(c) => c,
        }
    }
}

impl std::fmt::Debug for CalendarRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::ops::Deref::deref(self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::UserId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn flat_release(
        time: SimTime,
        nodes: u32,
        mem: u64,
    ) -> (SimTime, u32, u64, [u32; MAX_CLASSES]) {
        (time, nodes, mem, [0; MAX_CLASSES])
    }

    fn build_flat(now: u64, free: (u32, u64), releases: &[(u64, u32, u64)]) -> CapacityCalendar {
        CapacityCalendar::build(
            t(now),
            free.0,
            free.1,
            [0; MAX_CLASSES],
            releases.iter().map(|&(s, n, m)| flat_release(t(s), n, m)),
        )
    }

    fn summary(id: u32, expected_end: u64, nodes: u32, mem: u64) -> RunningSummary {
        RunningSummary {
            id: JobId(id),
            user: UserId(0),
            nodes,
            memory_gb: mem,
            start: SimTime::ZERO,
            submit: SimTime::ZERO,
            expected_end: t(expected_end),
            class: None,
        }
    }

    #[test]
    fn skyline_accumulates_releases_in_order() {
        let cal = build_flat(10, (2, 16), &[(50, 1, 8), (100, 5, 40)]);
        let steps: Vec<(u64, u32, u64)> = cal
            .points()
            .iter()
            .map(|p| (p.time.as_secs(), p.free_nodes, p.free_memory_gb))
            .collect();
        assert_eq!(steps, vec![(10, 2, 16), (50, 3, 24), (100, 8, 64)]);
    }

    /// The satellite fix, pinned: two jobs sharing an `expected_end` merge
    /// into one release point — calendars never carry duplicate
    /// timestamps.
    #[test]
    fn equal_time_releases_merge_into_one_point() {
        let cal = build_flat(0, (2, 16), &[(100, 3, 24), (100, 3, 24)]);
        let times: Vec<u64> = cal.points().iter().map(|p| p.time.as_secs()).collect();
        assert_eq!(times, vec![0, 100], "no duplicate timestamp");
        assert_eq!(cal.points()[1].free_nodes, 8);
        assert_eq!(cal.points()[1].free_memory_gb, 64);
        // Same through the running-summary path.
        let running = [summary(1, 100, 3, 24), summary(2, 100, 3, 24)];
        let from_running = CapacityCalendar::from_running(SimTime::ZERO, 2, 16, &running);
        assert_eq!(from_running, cal);
    }

    #[test]
    fn overrun_releases_credit_at_now() {
        // A job past its estimate (release at t=5 < now=10) folds into the
        // `now` point, exactly as the old free_profile's `t <= last_t` arm.
        let cal = build_flat(10, (1, 8), &[(5, 4, 32), (50, 3, 24)]);
        let steps: Vec<(u64, u32, u64)> = cal
            .points()
            .iter()
            .map(|p| (p.time.as_secs(), p.free_nodes, p.free_memory_gb))
            .collect();
        assert_eq!(steps, vec![(10, 5, 40), (50, 8, 64)]);
    }

    #[test]
    fn at_returns_the_level_in_force() {
        let cal = build_flat(0, (2, 16), &[(50, 1, 8), (100, 5, 40)]);
        assert_eq!(cal.at(t(0)).free_nodes, 2);
        assert_eq!(cal.at(t(49)).free_nodes, 2);
        assert_eq!(cal.at(t(50)).free_nodes, 3, "release at t counts at t");
        assert_eq!(cal.at(t(99)).free_nodes, 3);
        assert_eq!(cal.at(t(1000)).free_nodes, 8);
    }

    #[test]
    fn earliest_fit_flat_matches_a_linear_scan() {
        let cal = build_flat(0, (2, 16), &[(50, 1, 8), (100, 5, 40)]);
        assert_eq!(cal.earliest_fit_flat(1, 1), t(0));
        assert_eq!(cal.earliest_fit_flat(3, 1), t(50));
        assert_eq!(
            cal.earliest_fit_flat(3, 30),
            t(100),
            "24 GB at t=50 is short"
        );
        assert_eq!(cal.earliest_fit_flat(4, 1), t(100));
        assert_eq!(cal.earliest_fit_flat(9, 1), SimTime::MAX, "never fits");
    }

    #[test]
    fn earliest_window_respects_the_whole_duration() {
        // 2 free now, 8 free from t=100. A long 2-node job fits at once; a
        // 3-node job must wait for the release.
        let cal = build_flat(0, (2, 16), &[(100, 6, 48)]);
        assert_eq!(cal.earliest_window(2, 8, d(500)), t(0));
        assert_eq!(cal.earliest_window(3, 8, d(10)), t(100));
    }

    #[test]
    fn earliest_window_sees_gaps_opened_by_reservations() {
        // Fully-free 8-node machine with a machine-wide reservation over
        // [100, 200): a 60 s window fits at t=0; a 150 s window cannot
        // straddle the reservation and lands at t=200.
        let mut cal = build_flat(0, (8, 64), &[]);
        cal.reserve(t(100), t(200), 8, 64);
        assert_eq!(cal.earliest_window(1, 1, d(60)), t(0));
        assert_eq!(cal.earliest_window(1, 1, d(150)), t(200));
    }

    #[test]
    fn reserve_touches_only_the_window() {
        let mut cal = build_flat(0, (8, 64), &[(300, 0, 0)]);
        cal.reserve(t(50), t(150), 3, 24);
        let steps: Vec<(u64, u32, u64)> = cal
            .points()
            .iter()
            .map(|p| (p.time.as_secs(), p.free_nodes, p.free_memory_gb))
            .collect();
        assert_eq!(
            steps,
            vec![(0, 8, 64), (50, 5, 40), (150, 8, 64), (300, 8, 64)]
        );
        // A second overlapping reservation splits segments, not the world.
        cal.reserve(t(100), t(300), 2, 16);
        let at = |s: u64| {
            let p = cal.at(t(s));
            (p.free_nodes, p.free_memory_gb)
        };
        assert_eq!(at(0), (8, 64));
        assert_eq!(at(99), (5, 40));
        assert_eq!(at(100), (3, 24));
        assert_eq!(at(150), (6, 48));
        assert_eq!(at(300), (8, 64), "end boundary is exclusive");
    }

    #[test]
    fn reservation_profile_mirrors_calendar_overlay_arithmetic() {
        // Same base, same demand sequence: the reserved-amount overlay's
        // fused `place` and a cloned calendar driven through
        // `earliest_window` + `reserve` must agree on every window and
        // every level.
        let base = build_flat(0, (1, 8), &[(120, 3, 24), (300, 4, 32)]);
        let mut cal = base.clone();
        let mut overlay = ReservationProfile::new();
        for &(n, m, w) in &[(3u32, 24u64, 90u64), (6, 40, 140), (2, 8, 40), (1, 8, 400)] {
            let start = cal.earliest_window(n, m, d(w));
            cal.reserve(start, start + d(w), n, m);
            assert_eq!(
                overlay.place(base.points(), t(0), n, m, d(w)),
                start,
                "window for ({n}, {m}) x {w}s"
            );
        }
        for probe in [
            0u64, 50, 89, 90, 119, 120, 129, 130, 259, 260, 299, 300, 400, 700,
        ] {
            let p = cal.at(t(probe));
            let (res_nodes, res_mem) = overlay.reserved_at(t(probe));
            let effective = base.at(t(probe));
            assert_eq!(
                (p.free_nodes, p.free_memory_gb),
                (
                    effective.free_nodes.saturating_sub(res_nodes),
                    effective.free_memory_gb.saturating_sub(res_mem)
                ),
                "level at t={probe}"
            );
        }
        for &(n, m, w) in &[(1u32, 1u64, 10u64), (3, 24, 100), (8, 64, 50), (5, 40, 400)] {
            assert_eq!(
                cal.earliest_window(n, m, d(w)),
                overlay.earliest_window(base.points(), t(0), n, m, d(w)),
                "window for ({n}, {m}) x {w}s"
            );
        }
        // A clear drops the reservations and re-tracks the bare base.
        overlay.clear();
        assert!(overlay.steps().is_empty());
        assert_eq!(
            overlay.earliest_window(base.points(), t(0), 8, 64, d(10)),
            t(300)
        );
    }

    #[test]
    fn ledger_caches_per_stamp_and_invalidates_on_mutation() {
        let mut ledger = CapacityLedger::new();
        ledger.job_started(JobId(1), t(100), t(90), 4, 32, [0; MAX_CLASSES]);
        let stamp0 = ledger.stamp(t(0));
        {
            let est = ledger.estimated(t(0), 4, 32, [0; MAX_CLASSES]);
            assert_eq!(est.points().len(), 2);
            assert_eq!(est.points()[1].time, t(100), "estimated end");
            // Same stamp → the cached skyline is reused (pointer-free
            // check: stamp equality is the contract).
            assert_eq!(ledger.stamp(t(0)), stamp0);
        }
        {
            let act = ledger.actual(t(0), 4, 32, [0; MAX_CLASSES]);
            assert_eq!(act.points()[1].time, t(90), "actual end");
        }
        ledger.job_completed(JobId(1), t(100), t(90));
        assert_ne!(ledger.stamp(t(0)), stamp0, "mutation moved the stamp");
        let est = ledger.estimated(t(90), 8, 64, [0; MAX_CLASSES]);
        assert_eq!(est.points().len(), 1, "release gone after completion");
    }

    #[test]
    fn ledger_orders_equal_times_by_id_and_merges_in_the_skyline() {
        let mut ledger = CapacityLedger::new();
        ledger.job_started(JobId(7), t(100), t(100), 1, 8, [0; MAX_CLASSES]);
        ledger.job_started(JobId(3), t(100), t(100), 2, 16, [0; MAX_CLASSES]);
        let est = ledger.estimated(t(0), 5, 40, [0; MAX_CLASSES]);
        let times: Vec<u64> = est.points().iter().map(|p| p.time.as_secs()).collect();
        assert_eq!(times, vec![0, 100], "equal ends merged");
        assert_eq!(est.points()[1].free_nodes, 8);
        drop(est);
        ledger.job_completed(JobId(7), t(100), t(100));
        let est = ledger.estimated(t(0), 5, 40, [0; MAX_CLASSES]);
        assert_eq!(est.points()[1].free_nodes, 7, "only job 3's release left");
    }

    #[test]
    fn classed_columns_flow_through_the_ledger() {
        use rsched_cluster::ClusterConfig;
        let topology = ClusterConfig::mixed_256().topology;
        let mut ledger = CapacityLedger::new();
        // 40 gpu nodes busy until t=100.
        let mut by_class = [0; MAX_CLASSES];
        by_class[1] = 40;
        ledger.job_started(JobId(1), t(100), t(100), 40, 2560, by_class);
        let free_now = [192, 8, 16, 0];
        let act = ledger.actual(t(0), 216, 14_000, free_now);
        let demand = |nodes, gpus_per_node| PlacementRequest {
            nodes,
            memory_gb: 0,
            per_node: rsched_cluster::ResourceVec::new(0, gpus_per_node, 0, 0),
            class: None,
        };
        // 30 scalar nodes fit the cpu class immediately; a 30-node gpu
        // demand needs the release.
        assert_eq!(act.earliest_fit_classed(&topology, &demand(30, 0)), t(0));
        assert_eq!(act.earliest_fit_classed(&topology, &demand(30, 1)), t(100));
        let never = demand(1, 5);
        assert_eq!(
            act.earliest_fit_classed(&topology, &never),
            SimTime::MAX,
            "no class ever hosts 5 GPUs per node"
        );
    }
}
