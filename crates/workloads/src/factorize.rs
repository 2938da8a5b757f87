//! Dense-id factorization of user and group labels.

use std::collections::HashMap;

/// Labels from `-1` (an archive's "unknown") up to `DENSE_LABELS - 2` are
/// looked up in a table indexed by `label + 1`, not hashed: the table holds
/// at most this many 4-byte entries, and grows only as far as the largest
/// such label seen.
const DENSE_LABELS: usize = 1 << 16;

/// A table entry no label has claimed yet.
const UNSEEN: u32 = u32::MAX;

/// Dense-id factorization in first-appearance order, as the SWF conversion
/// (every trace, the Polaris substrate included) assigns user and group
/// ids: the first distinct label becomes id 0, the next id 1, and so on.
///
/// Archive labels are small integers, so most are read from a table in
/// one index; any other label goes through a `HashMap` with the standard
/// (collision-resistant) hasher, so factorizing a multi-million-job
/// archive trace stays linear in the job count whatever labels it holds.
#[derive(Debug, Default)]
pub(crate) struct Factorizer {
    /// Id of label `slot - 1`, or [`UNSEEN`].
    dense: Vec<u32>,
    sparse: HashMap<i64, u32>,
    assigned: u32,
}

impl Factorizer {
    pub(crate) fn new() -> Self {
        Factorizer::default()
    }

    /// The dense id of `label`, assigning the next free id on first sight.
    pub(crate) fn id(&mut self, label: i64) -> u32 {
        let fresh = self.assigned;
        let slot = usize::try_from(label.wrapping_add(1))
            .ok()
            .filter(|&slot| slot < DENSE_LABELS);
        let id = match slot {
            Some(slot) => {
                if slot >= self.dense.len() {
                    self.dense.resize(slot + 1, UNSEEN);
                }
                let entry = &mut self.dense[slot];
                if *entry == UNSEEN {
                    *entry = fresh;
                }
                *entry
            }
            None => *self.sparse.entry(label).or_insert(fresh),
        };
        if id == fresh {
            self.assigned += 1;
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table and map labels share one id sequence in first-appearance
    /// order, the same a map over every label assigns.
    #[test]
    fn ids_follow_first_appearance_across_table_and_map() {
        let labels = [
            5,
            -1,
            5,
            i64::MAX,
            -2,
            DENSE_LABELS as i64 - 2,
            DENSE_LABELS as i64 - 1,
            i64::MIN,
            -1,
            0,
            i64::MAX,
            7,
        ];
        let mut factorizer = Factorizer::new();
        let mut reference: HashMap<i64, u32> = HashMap::new();
        for label in labels {
            let next = reference.len() as u32;
            let want = *reference.entry(label).or_insert(next);
            assert_eq!(factorizer.id(label), want, "label {label}");
        }
        assert_eq!(factorizer.dense.len(), DENSE_LABELS);
        assert_eq!(factorizer.sparse.len(), 4);
    }
}
