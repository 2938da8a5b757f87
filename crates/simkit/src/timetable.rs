//! The **timetable**: tentative reservations laid over a free-capacity
//! step function, and the one query every reservation-list consumer asks
//! of it — *the earliest window, at or after a given instant, in which a
//! two-resource demand fits for a whole duration* — fused with the splice
//! that books the window.
//!
//! The free capacity before any reservation is the caller's **base**: a
//! slice of [`BasePoint`]s, strictly ascending in time, each holding from
//! its time until the next point's (the last one forever). A
//! [`ReservationProfile`] never copies or mutates the base. It stores only
//! the *reserved totals* as a second step function ([`ReservedStep`]) and
//! evaluates the free level at `t` as `base(t) ⊖ reserved(t)`
//! (saturating).
//!
//! Two callers share it: conservative backfilling lays it over the
//! simulator's per-epoch capacity calendar (`rsched_sim::CapacityCalendar`
//! points, searching from the calendar's first instant), and the solver's
//! serial schedule generation lays it over a one-point base — the empty
//! machine from time zero — searching from each task's release.

use crate::time::{SimDuration, SimTime};

/// One step of a free-capacity base: the free resources from
/// [`time`](BasePoint::time) (inclusive) until the next point's time.
pub trait BasePoint {
    /// When this capacity level begins.
    fn time(&self) -> SimTime;
    /// Free nodes from `time` until the next point.
    fn free_nodes(&self) -> u32;
    /// Free memory (GB) over the same span.
    fn free_memory_gb(&self) -> u64;
}

/// The bare `(time, free nodes, free memory GB)` triple.
impl BasePoint for (SimTime, u32, u64) {
    fn time(&self) -> SimTime {
        self.0
    }

    fn free_nodes(&self) -> u32 {
        self.1
    }

    fn free_memory_gb(&self) -> u64 {
        self.2
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

/// A reusable reservation overlay over a **monotone base** — one whose
/// free columns never decrease in time (releases only add capacity), and
/// whose final point admits every demand asked of it.
///
/// It stores only the reserved-amount step function — at most two small
/// steps per reservation, cleared and refilled in place across passes —
/// so steady-state use allocates nothing and [`clear`](Self::clear) is an
/// `O(1)` truncate. Because the base is monotone per column, the search
/// can binary-search the base for the bare-demand threshold and only ever
/// has to *examine* reservation boundaries.
///
/// The candidate starts (the `not_before` instant, later base point times
/// and later reservation boundaries) and the evaluated levels are exactly
/// those of a scratch copy of the base with every reservation subtracted
/// point by point, so the windows are identical to that model's: pinned by
/// the `overlay_matches_a_cloned_calendar` proptest in
/// `tests/backfill_equivalence.rs`. (Saturating subtraction of the summed
/// amounts equals sequential per-reservation saturation:
/// `x ⊖ a ⊖ b = x ⊖ (a + b)`.)
#[derive(Debug, Default)]
pub struct ReservationProfile {
    steps: Vec<ReservedStep>,
}

/// `clone_from` copies the steps into the target's own buffer, so a
/// snapshot taken or restored in a loop allocates nothing once warm.
impl Clone for ReservationProfile {
    fn clone(&self) -> Self {
        ReservationProfile {
            steps: self.steps.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.steps.clone_from(&source.steps);
    }
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

    /// Earliest time `t ≥ max(not_before, base start)` from which `(nodes,
    /// memory_gb)` stays available under `base ⊖ reservations` for a whole
    /// `walltime` window.
    ///
    /// Exploits base monotonicity twice, then walks with linear merged
    /// cursors (no per-probe binary search). *Front skip*: candidates
    /// before the first base point fitting the bare demand fail at
    /// themselves under any reservation load, so the anchor starts at
    /// that `partition_point` instead of crawling the skyline front.
    /// *Window scan*: past a feasible anchor the base only rises, so
    /// inside the window only reservation boundaries with nonzero
    /// amounts can fail — base points and zero steps are skipped without
    /// a probe. Cost per query is `O(log P + log S + affected region)`.
    ///
    /// # Panics
    /// Panics if the demand never fits — impossible for demands within
    /// machine capacity, because past the last reservation boundary the
    /// base's final point is the fully free machine.
    pub fn earliest_window<P: BasePoint>(
        &self,
        base: &[P],
        not_before: SimTime,
        nodes: u32,
        memory_gb: u64,
        walltime: SimDuration,
    ) -> SimTime {
        self.locate(base, not_before, nodes, memory_gb, walltime).0
    }

    /// Find the earliest window **and** reserve it in one call — the
    /// per-job (per-task) operation of both callers. The search's final
    /// cursor position seeds the boundary insertions, so booking the
    /// window pays one short-suffix binary search and a single combined
    /// shift instead of two full searches and two tail memmoves.
    pub fn place<P: BasePoint>(
        &mut self,
        base: &[P],
        not_before: SimTime,
        nodes: u32,
        memory_gb: u64,
        walltime: SimDuration,
    ) -> SimTime {
        let (start, si) = self.locate(base, not_before, nodes, memory_gb, walltime);
        self.reserve_hinted(start, start + walltime, nodes, memory_gb, si);
        start
    }

    /// The cursor walk behind [`earliest_window`](Self::earliest_window)
    /// and [`place`](Self::place): returns the window start and the index
    /// of the first step past it (the reserve-side insertion hint).
    fn locate<P: BasePoint>(
        &self,
        bp: &[P],
        not_before: SimTime,
        nodes: u32,
        memory_gb: u64,
        walltime: SimDuration,
    ) -> (SimTime, usize) {
        let steps = self.steps.as_slice();
        debug_assert!(!bp.is_empty(), "bases are never empty");
        // Front skip: the first base point admitting the bare demand.
        let mut bi =
            bp.partition_point(|p| p.free_nodes() < nodes || p.free_memory_gb() < memory_gb);
        if bi == bp.len() {
            unreachable!("the base's final point is the fully-free machine");
        }
        // Cursor invariants: `t` is the current candidate time, `bp[bi]`
        // is the base point in force at `t`, `si` is the first step with
        // `time > t`, and `(res_n, res_m)` are the reserved amounts in
        // force at `t`.
        let mut t = bp[bi].time();
        if not_before > t {
            // Every point past the front skip admits the bare demand too
            // (monotone base), so the search may open mid-segment.
            bi += bp[bi..].partition_point(|p| p.time() <= not_before) - 1;
            t = not_before;
        }
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
                if p.free_nodes().saturating_sub(res_n) >= nodes
                    && p.free_memory_gb().saturating_sub(res_m) >= memory_gb
                {
                    break;
                }
                let seg_end = match bp.get(bi + 1) {
                    Some(p) => p.time(),
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
                    if p.free_nodes().saturating_sub(res_n) >= nodes
                        && p.free_memory_gb().saturating_sub(res_m) >= memory_gb
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
                t = bp[bi].time();
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
                    while wbi + 1 < bp.len() && bp[wbi + 1].time() <= s.time {
                        wbi += 1;
                    }
                    let p = &bp[wbi];
                    if p.free_nodes().saturating_sub(s.nodes) < nodes
                        || p.free_memory_gb().saturating_sub(s.memory_gb) < memory_gb
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

    /// Add `(nodes, memory_gb)` over `[start, end)`, seeded with `si` — the
    /// first step index with `time > start`, as returned by the locate
    /// walk. Both boundary positions follow from the hint (the end needs
    /// one binary search over the suffix past it), and the two insertions
    /// share one combined element shift.
    ///
    /// `#[inline]`: `place` is generic and instantiated in its caller's
    /// crate, so without the hint its one call to this would cross a
    /// crate boundary per reservation.
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// `place` each `(not_before, nodes, memory, duration)` in turn over an
    /// empty `(nodes, memory)` machine; the starts, in placement order.
    fn starts(capacity: (u32, u64), demands: &[(u64, u32, u64, u64)]) -> Vec<u64> {
        let base = [(SimTime::ZERO, capacity.0, capacity.1)];
        let mut profile = ReservationProfile::new();
        demands
            .iter()
            .map(|&(nb, n, m, w)| profile.place(&base, t(nb), n, m, d(w)).as_secs())
            .collect()
    }

    #[test]
    fn windows_over_an_empty_machine() {
        // Nothing reserved: the window opens at `not_before`.
        assert_eq!(starts((8, 64), &[(25, 8, 64, 100)]), [25]);
        // 6 of 8 nodes busy over [0, 100): a 4-node demand waits for the
        // end, a 2-node one runs beside it.
        assert_eq!(
            starts((8, 64), &[(0, 6, 16, 100), (0, 4, 8, 50), (0, 2, 8, 50)]),
            [0, 100, 0]
        );
        // Memory binds though nodes are free.
        assert_eq!(
            starts((8, 64), &[(0, 1, 60, 100), (0, 1, 10, 10)]),
            [0, 100]
        );
        // A start exactly at the predecessor's end is allowed.
        assert_eq!(
            starts((4, 16), &[(0, 4, 16, 100), (0, 4, 16, 100)]),
            [0, 100]
        );
        // An end and a start at one instant are one boundary, not a peak:
        // the third demand fits from 0 beside the second and hands its
        // nodes to the first at 10.
        assert_eq!(
            starts((4, 64), &[(10, 2, 0, 10), (0, 2, 0, 10), (0, 2, 0, 20)]),
            [10, 0, 0]
        );
        // `not_before` past every step: the machine has drained.
        assert_eq!(
            starts((8, 64), &[(0, 8, 64, 10), (500, 8, 64, 10)]),
            [0, 500]
        );
    }

    #[test]
    fn windows_check_interior_boundaries() {
        // Free over [0, 50), 6 of 8 nodes busy over [50, 150): a 100 s
        // 4-node window opened at 0 would straddle the busy span and lands
        // at 150; a 50 s one fits the gap before it.
        assert_eq!(
            starts((8, 64), &[(50, 6, 16, 100), (0, 4, 8, 100), (0, 4, 8, 50)]),
            [50, 150, 0]
        );
    }

    #[test]
    fn reserved_totals_track_placements() {
        let base = [(SimTime::ZERO, 8u32, 64u64)];
        let mut profile = ReservationProfile::new();
        profile.place(&base, t(0), 3, 8, d(100));
        profile.place(&base, t(25), 2, 16, d(50));
        assert_eq!(profile.reserved_at(t(30)), (5, 24));
        assert_eq!(profile.reserved_at(t(80)), (3, 8));
        assert_eq!(profile.reserved_at(t(75)), (3, 8), "end is exclusive");
        assert_eq!(profile.reserved_at(t(100)), (0, 0));
        let times: Vec<u64> = profile.steps().iter().map(|s| s.time.as_secs()).collect();
        assert_eq!(times, [0, 25, 75, 100]);
        profile.clear();
        assert!(profile.steps().is_empty());
        assert_eq!(profile.earliest_window(&base, t(30), 8, 64, d(10)), t(30));
    }

    #[test]
    fn not_before_opens_the_search_mid_segment_of_a_stepped_base() {
        // 2 free from 10, 3 from 50, 8 from 100.
        let base = [(t(10), 2u32, 16u64), (t(50), 3, 24), (t(100), 8, 64)];
        let mut profile = ReservationProfile::new();
        // Before the base start: clamped to it.
        assert_eq!(profile.earliest_window(&base, t(0), 2, 8, d(500)), t(10));
        // Mid-segment, demand already admitted.
        assert_eq!(profile.earliest_window(&base, t(70), 3, 8, d(10)), t(70));
        // Mid-segment, demand admitted only by a later point.
        assert_eq!(profile.earliest_window(&base, t(70), 4, 8, d(10)), t(100));
        // On a base point exactly, and past the last one.
        assert_eq!(profile.earliest_window(&base, t(50), 3, 8, d(10)), t(50));
        assert_eq!(profile.earliest_window(&base, t(400), 8, 64, d(10)), t(400));
        // A reservation straddling `not_before` pushes the window to its end.
        assert_eq!(profile.place(&base, t(60), 3, 24, d(30)), t(60));
        assert_eq!(profile.earliest_window(&base, t(70), 1, 1, d(10)), t(90));
        assert_eq!(profile.earliest_window(&base, t(95), 1, 1, d(10)), t(95));
    }
}
