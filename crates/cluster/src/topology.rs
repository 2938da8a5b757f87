//! Node classes and cluster topology.
//!
//! A topology partitions the machine into up to [`MAX_CLASSES`] *node
//! classes* — counts of identical nodes (`cpu`, `gpu`, `bigmem`), each with
//! a per-node [`ResourceVec`] capacity. The **empty** topology is the flat
//! single-class machine of the paper: no per-node capacities, scalar
//! first-fit.
//!
//! Paper §3.3 places jobs first-fit on nodes that are exchangeable within a
//! class, so a class is a count and a capacity, never a range of node
//! indices: which of a class's free nodes a job receives changes nothing
//! any schedule, record or metric can see (see [`crate::allocator`]).
//! Classes are identified by their *slot*, the position they were declared
//! in.

use std::fmt;

use crate::resources::ResourceVec;

/// The maximum number of node classes in one topology. Fixed so
/// [`Topology`] stays `Copy` (it rides inside
/// [`ClusterConfig`](crate::cluster::ClusterConfig), which is `Copy` by
/// contract across the whole workspace).
pub const MAX_CLASSES: usize = 4;

/// The kind of a node class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeClass {
    /// CPU-only compute nodes.
    Cpu,
    /// GPU-accelerated nodes.
    Gpu,
    /// Large-memory nodes.
    BigMem,
}

impl fmt::Display for NodeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NodeClass::Cpu => "cpu",
            NodeClass::Gpu => "gpu",
            NodeClass::BigMem => "bigmem",
        };
        write!(f, "{name}")
    }
}

/// One class of identical nodes: a kind, a count, and the capacity of each
/// node in the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeClassSpec {
    /// The class kind.
    pub class: NodeClass,
    /// How many nodes of this class the cluster has.
    pub count: u32,
    /// The per-node capacity, identical for every node in the class.
    pub capacity: ResourceVec,
}

/// A cluster topology: an ordered list of node classes.
///
/// The default ([`Topology::flat`]) is empty — the paper's flat machine,
/// where placement ignores per-node capacities entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Topology {
    classes: [Option<NodeClassSpec>; MAX_CLASSES],
}

impl Topology {
    /// The flat (classless) topology — today's scalar machine.
    pub const fn flat() -> Self {
        Topology {
            classes: [None; MAX_CLASSES],
        }
    }

    /// `true` if this is the flat topology (no classes declared).
    ///
    /// O(1): [`with_class`](Self::with_class), the only writer, fills slots
    /// front to back, so slot 0 decides. Every per-job fit test asks this.
    pub fn is_flat(&self) -> bool {
        self.classes[0].is_none()
    }

    /// Append a node class (builder style) in the next free slot.
    ///
    /// # Panics
    /// Panics if [`MAX_CLASSES`] classes are already declared or the class
    /// has zero nodes.
    #[expect(
        clippy::panic,
        reason = "only the built-in presets declare classes, at most three of `MAX_CLASSES`"
    )]
    pub fn with_class(mut self, spec: NodeClassSpec) -> Self {
        assert!(spec.count > 0, "node class {} has zero nodes", spec.class);
        let slot = self
            .classes
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| panic!("topology already has {MAX_CLASSES} classes"));
        self.classes[slot] = Some(spec);
        self
    }

    /// The declared classes with their slot indices, in declaration order.
    pub fn classes(&self) -> impl Iterator<Item = (usize, NodeClassSpec)> + '_ {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
    }

    /// Total node count across all classes.
    pub fn total_nodes(&self) -> u32 {
        self.classes().map(|(_, c)| c.count).sum()
    }

    /// Total memory across all classes, in GB.
    pub fn total_memory_gb(&self) -> u64 {
        self.classes()
            .map(|(_, c)| c.count as u64 * c.capacity.memory_gb)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> Topology {
        Topology::flat()
            .with_class(NodeClassSpec {
                class: NodeClass::Cpu,
                count: 6,
                capacity: ResourceVec::new(64, 0, 8, 0),
            })
            .with_class(NodeClassSpec {
                class: NodeClass::Gpu,
                count: 3,
                capacity: ResourceVec::new(64, 4, 64, 2),
            })
            .with_class(NodeClassSpec {
                class: NodeClass::BigMem,
                count: 2,
                capacity: ResourceVec::new(64, 0, 128, 4),
            })
    }

    #[test]
    fn flat_is_empty() {
        let t = Topology::flat();
        assert!(t.is_flat());
        assert_eq!(t.classes().count(), 0);
        assert_eq!(t.total_nodes(), 0);
        assert_eq!(t.total_memory_gb(), 0);
        assert_eq!(Topology::default(), t);
    }

    #[test]
    fn classes_fill_slots_in_declaration_order() {
        let t = mixed();
        assert!(!t.is_flat());
        assert_eq!(t.classes().count(), 3);
        let slots: Vec<(usize, NodeClass, u32)> = t
            .classes()
            .map(|(slot, c)| (slot, c.class, c.count))
            .collect();
        assert_eq!(
            slots,
            [
                (0, NodeClass::Cpu, 6),
                (1, NodeClass::Gpu, 3),
                (2, NodeClass::BigMem, 2)
            ]
        );
        assert_eq!(t.total_nodes(), 11);
        assert_eq!(t.total_memory_gb(), 6 * 8 + 3 * 64 + 2 * 128);
    }

    #[test]
    fn class_display_names() {
        assert_eq!(NodeClass::Cpu.to_string(), "cpu");
        assert_eq!(NodeClass::Gpu.to_string(), "gpu");
        assert_eq!(NodeClass::BigMem.to_string(), "bigmem");
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_count_class_panics() {
        let _ = Topology::flat().with_class(NodeClassSpec {
            class: NodeClass::Cpu,
            count: 0,
            capacity: ResourceVec::ZERO,
        });
    }

    #[test]
    #[should_panic(expected = "already has")]
    fn too_many_classes_panics() {
        let spec = NodeClassSpec {
            class: NodeClass::Cpu,
            count: 1,
            capacity: ResourceVec::ZERO,
        };
        let _ = Topology::flat()
            .with_class(spec)
            .with_class(spec)
            .with_class(spec)
            .with_class(spec)
            .with_class(spec);
    }
}
