//! The shared, incrementally-maintained **capacity calendar**: the
//! free-capacity skyline over time that every backfilling consumer reads.
//!
//! Before this module, each backfill consumer rebuilt its own availability
//! structure from scratch on every policy query: `ConservativeBackfill`
//! re-sorted the whole running set and re-derived all reservations per
//! `decide`, and the kernel's `strict_backfill` validation re-ran an
//! `O(R log R)` shadow sweep per proposal. The calendar centralizes that
//! work in one place with two costs instead:
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
//!   shadow-time validation has always used
//!   ([`shadow_start`](rsched_cluster::shadow_start) sweeps
//!   `cluster.running()` ends).
//!
//! Consumers that *overlay* tentative reservations (conservative
//! backfilling) never clone or mutate the cached base. They keep a
//! reusable [`ReservationProfile`] — a step function of *reserved totals*
//! laid over the immutable base — and call
//! [`place`](ReservationProfile::place) per job: a fused
//! locate-and-reserve that walks base points and overlay steps as two
//! sorted cursors scoped to each base segment, finds the earliest window
//! whose effective level (base minus reserved) admits the demand, and
//! splices the new reservation in around the insertion hint the search
//! already computed. Steady-state passes allocate nothing; clearing the
//! overlay between passes is an `O(1)` truncate. The mutating
//! [`reserve`](CapacityCalendar::reserve) +
//! [`earliest_window`](CapacityCalendar::earliest_window) pair remains for
//! callers that genuinely want a scratch calendar (and as the proptest
//! model the overlay is pinned against).
//!
//! Everything here is pinned bit-identical to the structures it replaced:
//! the skyline matches the old per-decide `free_profile` rebuild point for
//! point (`tests/backfill_equivalence.rs` proptests), and the shadow math
//! matches `rsched_cluster::{shadow_start, backfill_is_safe}`
//! (`tests/kernel_equivalence.rs`, accept and refuse paths, flat and
//! classed).

use std::cell::{Ref, RefCell};

use rsched_cluster::{Demand, JobId, Topology, MAX_CLASSES};
use rsched_simkit::{SimDuration, SimTime};

use crate::view::RunningSummary;

/// One step of the free-capacity skyline: the free resources from
/// [`time`](CalendarPoint::time) (inclusive) until the next point's time.
/// The last point holds forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarPoint {
    /// When this capacity level begins. Capacity released at `t` is free
    /// *at* `t` (jobs ending exactly at `t` count as released), matching
    /// [`rsched_cluster::reservation::free_at`].
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
    /// `time <= t` (releases at `t` are already counted — the
    /// [`free_at`](rsched_cluster::reservation::free_at) convention).
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
    /// the classed shadow time, sweeping the (merged) release points the
    /// way [`shadow_start`](rsched_cluster::shadow_start) sweeps raw
    /// completions. `SimTime::MAX` if no point ever hosts the demand.
    pub fn earliest_fit_classed(&self, topology: &Topology, demand: &Demand) -> SimTime {
        for p in &self.points {
            if demand.fits_classes(topology, &p.free_by_class) {
                return p.time;
            }
        }
        SimTime::MAX
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

/// One step of the reserved-amount step function inside a
/// [`ReservationProfile`]: the total tentatively reserved `(nodes,
/// memory_gb)` in force from [`time`](ReservedStep::time) until the next
/// step. Before the first step nothing is reserved; after the last step
/// the amounts are zero again (every reservation inserts its own end
/// boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedStep {
    /// When these reserved totals take effect.
    pub time: SimTime,
    /// Total reserved memory (GB) over `[time, next.time)`.
    pub memory_gb: u64,
    /// Total reserved nodes over the same span.
    pub nodes: u32,
}

/// A reusable reservation overlay over a **monotone base calendar** — the
/// structure the conservative pass layers its tentative reservations
/// onto.
///
/// Cloning the full [`CapacityCalendar`] per policy query was the hot
/// spot of the 10k conservative tier: every query paid an allocation, a
/// 48-bytes-per-point copy, and then `O(P)` anchor walks and point
/// memmoves against the wide clone. This overlay never copies the base at
/// all. It stores only the *reserved-amount step function* — at most two
/// small steps per reservation, cleared and refilled in place across
/// queries — and evaluates the free level at time `t` as
/// `base.at(t) ⊖ reserved_at(t)` (saturating). Because the base is
/// monotone per column, [`earliest_window`](Self::earliest_window) can
/// binary-search the base for capacity thresholds and only ever has to
/// *examine* reservation boundaries, so a query costs
/// `O(S log P)` in the number of overlay steps instead of `O(P)` walks
/// over the merged skyline.
///
/// The candidate anchor set (base point times plus reservation boundaries
/// past the calendar start) and the evaluated levels are exactly those of
/// a cloned calendar mutated with [`CapacityCalendar::reserve`], so the
/// returned windows — and therefore the schedules — are bit-identical:
/// pinned by the `overlay_matches_a_cloned_calendar` proptest in
/// `tests/backfill_equivalence.rs` and the policy-level differential
/// harness around it. (Saturating subtraction of the summed amounts
/// equals the clone's sequential per-reservation saturation:
/// `x ⊖ a ⊖ b = x ⊖ (a + b)`.)
#[derive(Debug, Clone, Default)]
pub struct ReservationProfile {
    steps: Vec<ReservedStep>,
}

impl ReservationProfile {
    /// A fresh, empty overlay (nothing reserved anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all reservations, keeping the buffer for reuse.
    pub fn clear(&mut self) {
        self.steps.clear();
    }

    /// The reserved-amount steps, strictly ascending in time.
    pub fn steps(&self) -> &[ReservedStep] {
        &self.steps
    }

    /// Total reserved `(nodes, memory_gb)` in force at time `t`.
    pub fn reserved_at(&self, t: SimTime) -> (u32, u64) {
        let i = self.steps.partition_point(|s| s.time <= t);
        match i {
            0 => (0, 0),
            i => (self.steps[i - 1].nodes, self.steps[i - 1].memory_gb),
        }
    }

    /// Add a tentative reservation of `(nodes, memory_gb)` over
    /// `[start, end)`: two binary-searched boundary insertions plus an
    /// addition over the covered steps — the overlay-side mirror of
    /// [`CapacityCalendar::reserve`]'s segment update.
    pub fn reserve(&mut self, start: SimTime, end: SimTime, nodes: u32, memory_gb: u64) {
        self.insert_boundary(start);
        self.insert_boundary(end);
        let lo = self.steps.partition_point(|s| s.time < start);
        let hi = self.steps.partition_point(|s| s.time < end);
        for s in &mut self.steps[lo..hi] {
            s.nodes += nodes;
            s.memory_gb += memory_gb;
        }
    }

    /// Insert a step boundary at `t` carrying the preceding amounts, if
    /// absent. Unlike the calendar's boundary rule there is no `Err(0)`
    /// special case: a step before the base start just records zero-delta
    /// territory and is excluded from anchor candidacy by
    /// [`earliest_window`](Self::earliest_window)'s `max(_, base start)`
    /// clamps instead.
    fn insert_boundary(&mut self, t: SimTime) {
        match self.steps.binary_search_by_key(&t, |s| s.time) {
            Ok(_) => {}
            Err(i) => {
                let step = match i {
                    0 => ReservedStep {
                        time: t,
                        memory_gb: 0,
                        nodes: 0,
                    },
                    i => ReservedStep {
                        time: t,
                        ..self.steps[i - 1]
                    },
                };
                self.steps.insert(i, step);
            }
        }
    }

    /// Earliest candidate time from which `(nodes, memory_gb)` stays
    /// available under `base ⊖ reservations` for a whole `walltime`
    /// window — the conservative reservation placement, bit-identical to
    /// [`CapacityCalendar::earliest_window`] on a cloned-and-reserved
    /// calendar (the candidate set — base point times plus reservation
    /// boundaries past the calendar start — and the evaluated levels are
    /// exactly the merged skyline's).
    ///
    /// Exploits base monotonicity twice, then walks with linear merged
    /// cursors (no per-probe binary search). *Front skip*: candidates
    /// before the first base point fitting the bare demand fail at
    /// themselves under any reservation load, so the anchor starts at
    /// that `partition_point` instead of crawling the skyline front.
    /// *Window scan*: past a feasible anchor the base only rises, so
    /// inside the window only reservation boundaries with nonzero
    /// amounts can fail — base points and zero steps are skipped without
    /// a probe. Cost per query is `O(log P + affected region)` instead of
    /// the `O(P)` full-skyline walk.
    ///
    /// # Panics
    /// Panics if the demand never fits — impossible for demands within
    /// machine capacity, because past the last reservation boundary the
    /// base's final point is the fully free machine.
    pub fn earliest_window(
        &self,
        base: &CapacityCalendar,
        nodes: u32,
        memory_gb: u64,
        walltime: SimDuration,
    ) -> SimTime {
        self.locate(base, nodes, memory_gb, walltime).0
    }

    /// Find the earliest window **and** subtract the reservation over it in
    /// one call — the conservative pass's per-job operation. Equivalent to
    /// [`earliest_window`](Self::earliest_window) followed by
    /// [`reserve`](Self::reserve) over `[start, start + walltime)`, but the
    /// query's final cursor position seeds the boundary insertions, so the
    /// reserve side pays one short-suffix binary search and a single
    /// combined shift instead of two full searches and two tail memmoves.
    pub fn place(
        &mut self,
        base: &CapacityCalendar,
        nodes: u32,
        memory_gb: u64,
        walltime: SimDuration,
    ) -> SimTime {
        let (start, si) = self.locate(base, nodes, memory_gb, walltime);
        self.reserve_hinted(start, start + walltime, nodes, memory_gb, si);
        start
    }

    /// The cursor walk behind [`earliest_window`](Self::earliest_window)
    /// and [`place`](Self::place): returns the window start and the index
    /// of the first step past it (the reserve-side insertion hint).
    fn locate(
        &self,
        base: &CapacityCalendar,
        nodes: u32,
        memory_gb: u64,
        walltime: SimDuration,
    ) -> (SimTime, usize) {
        let bp = base.points();
        let steps = self.steps.as_slice();
        debug_assert!(!bp.is_empty(), "base calendars are never empty");
        // Front skip: the first base point admitting the bare demand.
        let mut bi = bp.partition_point(|p| p.free_nodes < nodes || p.free_memory_gb < memory_gb);
        if bi == bp.len() {
            unreachable!("the base calendar's final point is the fully-free machine");
        }
        // Cursor invariants: `t` is the current candidate time, `bp[bi]`
        // is the base point in force at `t`, `si` is the first step with
        // `time > t`, and `(res_n, res_m)` are the reserved amounts in
        // force at `t`.
        let mut t = bp[bi].time;
        let mut si = steps.partition_point(|s| s.time <= t);
        let (mut res_n, mut res_m) = match si {
            0 => (0, 0),
            i => (steps[i - 1].nodes, steps[i - 1].memory_gb),
        };
        'anchor: loop {
            // Anchor search over the merged candidates (step times plus
            // base point times), segment by segment: within one base
            // segment the free level is constant, so the crawl is a tight
            // scan of the steps inside it against two fixed slack bounds.
            // Termination mirrors the merged-walk argument: the final
            // base point is the fully free machine and the amounts past
            // the last step are zero (every reservation inserts its own
            // end boundary), so every in-capacity demand anchors before
            // either cursor can run off its sequence.
            loop {
                let p = &bp[bi];
                if p.free_nodes.saturating_sub(res_n) >= nodes
                    && p.free_memory_gb.saturating_sub(res_m) >= memory_gb
                {
                    break;
                }
                let seg_end = match bp.get(bi + 1) {
                    Some(p) => p.time,
                    None => SimTime::MAX,
                };
                let mut found = false;
                while let Some(s) = steps.get(si) {
                    if s.time >= seg_end {
                        break;
                    }
                    si += 1;
                    res_n = s.nodes;
                    res_m = s.memory_gb;
                    if p.free_nodes.saturating_sub(res_n) >= nodes
                        && p.free_memory_gb.saturating_sub(res_m) >= memory_gb
                    {
                        t = s.time;
                        found = true;
                        break;
                    }
                }
                if found {
                    break;
                }
                // No fit in this segment: the next candidate is the next
                // base point. A step landing exactly on it belongs to the
                // in-force amounts there (steps are consumed up to and
                // including `t`); otherwise the amounts carry over.
                bi += 1;
                t = bp[bi].time;
                if let Some(s) = steps.get(si) {
                    if s.time <= t {
                        res_n = s.nodes;
                        res_m = s.memory_gb;
                        si += 1;
                    }
                }
            }
            // Window scan: only nonzero reservation boundaries can fail
            // in `(t, t + walltime)` — the base only rises past the
            // anchor, so base points and zero steps inherit feasibility
            // from their segment's left edge.
            let end = t + walltime;
            let (mut wbi, mut wsi) = (bi, si);
            loop {
                let Some(s) = steps.get(wsi) else {
                    return (t, si);
                };
                if s.time >= end {
                    return (t, si);
                }
                if s.nodes != 0 || s.memory_gb != 0 {
                    while wbi + 1 < bp.len() && bp[wbi + 1].time <= s.time {
                        wbi += 1;
                    }
                    let p = &bp[wbi];
                    if p.free_nodes.saturating_sub(s.nodes) < nodes
                        || p.free_memory_gb.saturating_sub(s.memory_gb) < memory_gb
                    {
                        // First failing window point: resume the anchor crawl
                        // there — it fails its own anchor test (the same
                        // comparison that just failed), so the crawl
                        // moves straight past it to the next merged
                        // candidate.
                        t = s.time;
                        bi = wbi;
                        si = wsi + 1;
                        res_n = s.nodes;
                        res_m = s.memory_gb;
                        continue 'anchor;
                    }
                }
                wsi += 1;
            }
        }
    }

    /// [`reserve`](Self::reserve) seeded with `si` — the first step index
    /// with `time > start`, as returned by the locate walk. Both boundary
    /// positions follow from the hint (the end needs one binary search
    /// over the suffix past it), and the two insertions share one combined
    /// element shift.
    fn reserve_hinted(
        &mut self,
        start: SimTime,
        end: SimTime,
        nodes: u32,
        memory_gb: u64,
        si: usize,
    ) {
        let steps = &mut self.steps;
        debug_assert!(steps[..si].iter().all(|s| s.time <= start));
        debug_assert!(steps[si..].iter().all(|s| s.time > start));
        // Start boundary: in force at `start` is step `si - 1` (or zero
        // territory); an exact-time match means the boundary exists.
        let (a, ins_a, start_amt) = match si {
            0 => (0, true, (0u32, 0u64)),
            i if steps[i - 1].time == start => (i - 1, false, (0, 0)),
            i => (i, true, (steps[i - 1].nodes, steps[i - 1].memory_gb)),
        };
        // End boundary: positions keyed to the *pre-insertion* vector. The
        // carried amounts are whatever is in force just before `end`,
        // which boundary insertion never changes.
        let b = si + steps[si..].partition_point(|s| s.time < end);
        let ins_b = !matches!(steps.get(b), Some(s) if s.time == end);
        let end_amt = match b {
            0 => (0u32, 0u64),
            i => (steps[i - 1].nodes, steps[i - 1].memory_gb),
        };
        let extra = usize::from(ins_a) + usize::from(ins_b);
        if extra > 0 {
            let old_len = steps.len();
            steps.resize(
                old_len + extra,
                ReservedStep {
                    time: SimTime::MAX,
                    memory_gb: 0,
                    nodes: 0,
                },
            );
            // One tail shift covers both insertions; the short stretch
            // between the boundaries moves once more only when the start
            // boundary is new.
            steps.copy_within(b..old_len, b + extra);
            if ins_b {
                steps[b + usize::from(ins_a)] = ReservedStep {
                    time: end,
                    memory_gb: end_amt.1,
                    nodes: end_amt.0,
                };
            }
            if ins_a {
                steps.copy_within(a..b, a + 1);
                steps[a] = ReservedStep {
                    time: start,
                    memory_gb: start_amt.1,
                    nodes: start_amt.0,
                };
            }
        }
        // Post-insertion, `[a, b + ins_a)` is exactly the `[start, end)`
        // span; the end boundary itself stays untouched (exclusive end).
        for s in &mut steps[a..b + usize::from(ins_a)] {
            s.nodes += nodes;
            s.memory_gb += memory_gb;
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

    /// Number of tracked running jobs.
    pub fn running_len(&self) -> usize {
        self.actual.len()
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
        // Same base, same reservation sequence: the reserved-amount
        // overlay and a cloned calendar must agree on every window and
        // every level.
        let base = build_flat(0, (1, 8), &[(120, 3, 24), (300, 4, 32)]);
        let mut cal = base.clone();
        let mut overlay = ReservationProfile::new();
        for &(s, e, n, m) in &[
            (0u64, 90u64, 3u32, 24u64),
            (120, 260, 6, 40),
            (90, 130, 2, 8),
        ] {
            cal.reserve(t(s), t(e), n, m);
            overlay.reserve(t(s), t(e), n, m);
        }
        for probe in [
            0u64, 50, 89, 90, 119, 120, 129, 130, 259, 260, 299, 300, 400,
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
                overlay.earliest_window(&base, n, m, d(w)),
                "window for ({n}, {m}) x {w}s"
            );
        }
        // A clear drops the reservations and re-tracks the bare base.
        overlay.clear();
        assert!(overlay.steps().is_empty());
        assert_eq!(overlay.earliest_window(&base, 8, 64, d(10)), t(300));
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
        let demand = Demand::new(30, 0);
        // 30 scalar nodes fit the cpu class immediately; a 30-node gpu
        // demand needs the release.
        assert_eq!(act.earliest_fit_classed(&topology, &demand), t(0));
        let gpu_demand = Demand {
            per_node: rsched_cluster::ResourceVec::new(0, 1, 0, 0),
            ..Demand::new(30, 0)
        };
        assert_eq!(act.earliest_fit_classed(&topology, &gpu_demand), t(100));
        let never = Demand {
            per_node: rsched_cluster::ResourceVec::new(0, 5, 0, 0),
            ..Demand::new(1, 0)
        };
        assert_eq!(
            act.earliest_fit_classed(&topology, &never),
            SimTime::MAX,
            "no class ever hosts 5 GPUs per node"
        );
    }
}
