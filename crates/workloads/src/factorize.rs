//! Dense-id factorization of user and group labels.

use std::collections::HashMap;
use std::hash::Hash;

/// Dense-id factorization in first-appearance order, as the SWF conversion
/// (every trace, the Polaris substrate included) assigns user and group
/// ids: the first distinct value becomes id 0, the next id 1, and so on. Hash-backed, so factorizing a multi-million-job
/// archive trace stays linear in the job count.
#[derive(Debug, Default)]
pub(crate) struct Factorizer<T> {
    ids: HashMap<T, u32>,
}

impl<T: Eq + Hash + Clone> Factorizer<T> {
    pub(crate) fn new() -> Self {
        Factorizer {
            ids: HashMap::new(),
        }
    }

    /// The dense id of `value`, assigning the next free id on first sight.
    pub(crate) fn id(&mut self, value: &T) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(value.clone(), id);
        id
    }
}
