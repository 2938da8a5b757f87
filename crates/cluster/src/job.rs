//! Job identifiers, specifications and lifecycle records.
//!
//! A job in the paper's formulation (§2.1, §3.3) is `(d_j, n_j, m_j)` — a
//! duration, a node count and a memory demand — plus a submit time and user
//! metadata used by the fairness objectives.

use std::fmt;

use rsched_simkit::{SimDuration, SimTime};

use crate::resources::ResourceVec;
use crate::topology::NodeClass;

/// A job's numeric identifier (the paper's `job_id` in `StartJob(job_id=X)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// An anonymized user identifier (`User_3` in the Polaris preprocessing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// An anonymized group identifier (`Group_1` in the Polaris preprocessing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user_{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group_{}", self.0)
    }
}

/// The static description of a job at submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique identifier within one workload instance.
    pub id: JobId,
    /// Submitting user (fairness is also computed per user).
    pub user: UserId,
    /// Submitting group.
    pub group: GroupId,
    /// Submission time (`s_j`). All-zero in the static formulation of §3.3;
    /// Poisson-distributed under the dynamic workloads of §3.1.
    pub submit: SimTime,
    /// Actual runtime (`d_j`): the job completes `duration` after it starts.
    pub duration: SimDuration,
    /// User-requested walltime estimate; schedulers see this, not
    /// `duration`. Workload generators default it to the true duration.
    pub walltime: SimDuration,
    /// Whole compute nodes required (`n_j`).
    pub nodes: u32,
    /// Aggregate memory required in GB (`m_j`).
    pub memory_gb: u64,
    /// Extended per-node resource demand (GPUs, cores, node-local memory,
    /// burst-buffer slots). Zero for scalar jobs; ignored entirely on flat
    /// clusters, which are the paper's abstract machine.
    pub per_node: ResourceVec,
    /// Required node class on a classed cluster, or `None` for any class
    /// whose capacity covers the demand. Ignored on flat clusters.
    pub class: Option<NodeClass>,
}

impl JobSpec {
    /// A builder-style constructor with `walltime == duration`, the
    /// convention used by the synthetic scenario generators.
    pub fn new(
        id: u32,
        user: u32,
        submit: SimTime,
        duration: SimDuration,
        nodes: u32,
        memory_gb: u64,
    ) -> Self {
        JobSpec {
            id: JobId(id),
            user: UserId(user),
            group: GroupId(0),
            submit,
            duration,
            walltime: duration,
            nodes,
            memory_gb,
            per_node: ResourceVec::ZERO,
            class: None,
        }
    }

    /// Set the group id (builder style).
    pub fn with_group(mut self, group: u32) -> Self {
        self.group = GroupId(group);
        self
    }

    /// Set an extended per-node resource demand (builder style).
    pub fn with_per_node(mut self, per_node: ResourceVec) -> Self {
        self.per_node = per_node;
        self
    }

    /// Require a specific node class (builder style).
    pub fn with_class(mut self, class: NodeClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Set a walltime estimate different from the true duration.
    pub fn with_walltime(mut self, walltime: SimDuration) -> Self {
        self.walltime = walltime;
        self
    }

    /// Node-seconds of work this job represents (`n_j · d_j`).
    pub fn node_seconds(&self) -> f64 {
        self.nodes as f64 * self.duration.as_secs_f64()
    }

    /// GB-seconds of memory occupancy (`m_j · d_j`).
    pub fn memory_gb_seconds(&self) -> f64 {
        self.memory_gb as f64 * self.duration.as_secs_f64()
    }
}

/// The completed-job record from which every metric in paper §3.2 is
/// computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// The job as submitted.
    pub spec: JobSpec,
    /// Assigned start time (`x_j`).
    pub start: SimTime,
    /// Completion time (`x_j + d_j`).
    pub end: SimTime,
}

impl JobRecord {
    /// Construct, deriving `end = start + duration`.
    pub fn new(spec: JobSpec, start: SimTime) -> Self {
        let end = start + spec.duration;
        JobRecord { spec, start, end }
    }

    /// Queued wait time `w_j = x_j − s_j`.
    pub fn wait(&self) -> SimDuration {
        self.start.since(self.spec.submit)
    }

    /// Turnaround time `x_j + d_j − s_j` (submission to completion).
    pub fn turnaround(&self) -> SimDuration {
        self.end.since(self.spec.submit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new(
            7,
            2,
            SimTime::from_secs(10),
            SimDuration::from_secs(100),
            4,
            16,
        )
    }

    #[test]
    fn display_forms() {
        assert_eq!(JobId(3).to_string(), "3");
        assert_eq!(UserId(3).to_string(), "user_3");
        assert_eq!(GroupId(1).to_string(), "group_1");
    }

    #[test]
    fn builder_defaults() {
        let s = spec();
        assert_eq!(s.walltime, s.duration);
        assert_eq!(s.group, GroupId(0));
        assert_eq!(s.per_node, ResourceVec::ZERO, "scalar by default");
        assert_eq!(s.class, None, "class-agnostic by default");
        let s2 = s
            .clone()
            .with_group(5)
            .with_walltime(SimDuration::from_secs(120));
        assert_eq!(s2.group, GroupId(5));
        assert_eq!(s2.walltime, SimDuration::from_secs(120));
        assert_eq!(s2.duration, SimDuration::from_secs(100));
    }

    #[test]
    fn extended_demand_builders() {
        let s = spec()
            .with_per_node(ResourceVec::new(0, 4, 32, 1))
            .with_class(NodeClass::Gpu);
        assert_eq!(s.per_node.gpus, 4);
        assert_eq!(s.per_node.memory_gb, 32);
        assert_eq!(s.class, Some(NodeClass::Gpu));
        // The scalar fields are untouched.
        assert_eq!(s.nodes, 4);
        assert_eq!(s.memory_gb, 16);
    }

    #[test]
    fn work_quantities() {
        let s = spec();
        assert_eq!(s.node_seconds(), 400.0);
        assert_eq!(s.memory_gb_seconds(), 1600.0);
    }

    #[test]
    fn record_derived_times() {
        let r = JobRecord::new(spec(), SimTime::from_secs(50));
        assert_eq!(r.end, SimTime::from_secs(150));
        assert_eq!(r.wait(), SimDuration::from_secs(40));
        assert_eq!(r.turnaround(), SimDuration::from_secs(140));
    }

    #[test]
    fn zero_wait_record() {
        let s = JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(10), 1, 1);
        let r = JobRecord::new(s, SimTime::ZERO);
        assert_eq!(r.wait(), SimDuration::ZERO);
        assert_eq!(r.turnaround(), SimDuration::from_secs(10));
    }
}
