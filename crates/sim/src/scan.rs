//! The dense **placement scan** over [`JobStore`](crate::store) columns —
//! the hot loop of a saturated replay.
//!
//! On a flat cluster, "does job *j* fit right now?" is exactly
//! `nodes[j] ≤ free_nodes && memory_gb[j] ≤ free_memory_gb`
//! (`FirstFitAllocator::can_fit`), so a fit scan over the dense columns
//! computes the same answer as a scan over the full specs while touching
//! 12 bytes per job instead of a whole [`JobSpec`](rsched_cluster::JobSpec).
//! The contract:
//!
//! * `first_fit` is the index a left-to-right scan stops at, or `None`;
//! * when `None`, `min_nodes`/`min_memory_gb` are the exact column minima
//!   (the watermark re-tightening in the wait queue relies on them);
//!   when a fit is found they cover only the prefix before it and must
//!   not be read.
//!
//! There is one scan and it is a plain loop: 16 384 rows cost ~25 µs, well
//! under what spawning and joining threads per epoch costs, so nothing
//! here fans out. Parallelism in this workspace lives one level up, across
//! independent campaign cells (`rsched-parallel`).

/// Result of a flat fit scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Index of the first job that fits, in scan order. `None` if nothing
    /// fits.
    pub first_fit: Option<usize>,
    /// Exact minimum of the node column. **Only valid when `first_fit` is
    /// `None`** (a found fit ends the scan early, so no sound minima
    /// exist).
    pub(crate) min_nodes: u32,
    /// Exact minimum of the memory column, same validity rule.
    pub(crate) min_memory_gb: u64,
}

/// Scan the aligned demand columns left to right against the free
/// resources: early-exits at the first fit; computes exact minima only
/// when nothing fits.
pub fn first_fit_flat_serial(
    nodes: &[u32],
    memory_gb: &[u64],
    free_nodes: u32,
    free_memory_gb: u64,
) -> ScanOutcome {
    debug_assert_eq!(nodes.len(), memory_gb.len());
    let mut min_nodes = u32::MAX;
    let mut min_memory_gb = u64::MAX;
    for (i, (&n, &m)) in nodes.iter().zip(memory_gb).enumerate() {
        if n <= free_nodes && m <= free_memory_gb {
            return ScanOutcome {
                first_fit: Some(i),
                min_nodes,
                min_memory_gb,
            };
        }
        min_nodes = min_nodes.min(n);
        min_memory_gb = min_memory_gb.min(m);
    }
    ScanOutcome {
        first_fit: None,
        min_nodes,
        min_memory_gb,
    }
}

// The two forwards below keep the frozen `benchmark/src/probes.rs` — their
// only caller — compiling; the next `benchmark`-archetype PR drops them
// together with the probe that compares them. Nothing in the workspace may
// call them.

/// Forwards to [`first_fit_flat_serial`]; `workers` is ignored.
#[doc(hidden)]
pub fn first_fit_flat(
    nodes: &[u32],
    memory_gb: &[u64],
    free_nodes: u32,
    free_memory_gb: u64,
    _workers: usize,
) -> ScanOutcome {
    first_fit_flat_serial(nodes, memory_gb, free_nodes, free_memory_gb)
}

/// Always 1: the scan never fans out.
#[doc(hidden)]
pub fn scan_workers() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns(demands: &[(u32, u64)]) -> (Vec<u32>, Vec<u64>) {
        demands.iter().map(|&(n, m)| (n, m)).unzip()
    }

    #[test]
    fn finds_first_fit_in_scan_order() {
        let (n, m) = columns(&[(8, 64), (4, 32), (2, 8), (1, 4)]);
        let out = first_fit_flat_serial(&n, &m, 4, 32);
        assert_eq!(out.first_fit, Some(1), "job 0 too wide, job 1 fits");
    }

    #[test]
    fn no_fit_yields_exact_minima() {
        let (n, m) = columns(&[(8, 64), (4, 512), (6, 32)]);
        let out = first_fit_flat_serial(&n, &m, 2, 16);
        assert_eq!(out.first_fit, None);
        assert_eq!(out.min_nodes, 4);
        assert_eq!(out.min_memory_gb, 32);
    }

    #[test]
    fn empty_columns_scan_to_nothing() {
        let out = first_fit_flat_serial(&[], &[], 100, 100);
        assert_eq!(out.first_fit, None);
        assert_eq!(out.min_nodes, u32::MAX);
        assert_eq!(out.min_memory_gb, u64::MAX);
    }
}
