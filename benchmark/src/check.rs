//! Output checks: what a correct schedule looks like from outside, and a
//! fingerprint that must not change between passes or under the wrappers.

use std::collections::HashMap;

use rsched_cluster::{ClusterConfig, JobId, JobRecord, JobSpec};

/// FNV-1a over the schedule `(id, start, end)` in record order, folded to
/// 48 bits so the value survives a trip through a JSON number unchanged.
pub fn outcome_fnv48(records: &[JobRecord]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for record in records {
        feed(u64::from(record.spec.id.0));
        feed(record.start.as_millis());
        feed(record.end.as_millis());
    }
    (hash >> 48) ^ (hash & 0xffff_ffff_ffff)
}

/// Combine the fingerprints of a pass's cells, order-sensitively.
pub fn combine_fnv48(acc: u64, next: u64) -> u64 {
    (acc.rotate_left(7) ^ next).wrapping_mul(0x0000_0100_0000_01b3) & 0xffff_ffff_ffff
}

/// Check one finished schedule against the jobs that went in:
///
/// * every job completes exactly once, with the spec it was submitted with;
/// * `start ≥ submit` and `end = start + duration`;
/// * a sweep over the records never holds more nodes than the machine has
///   (nor, on a flat machine where memory is one pool, more memory).
///
/// Returns how many jobs are in violation and the first few reasons.
pub fn check_schedule(
    jobs: &[JobSpec],
    records: &[JobRecord],
    cluster: ClusterConfig,
) -> Result<(), ScheduleViolations> {
    let mut bad = ScheduleViolations::default();
    let mut seen: HashMap<JobId, u32> = HashMap::with_capacity(records.len());
    let by_id: HashMap<JobId, &JobSpec> = jobs.iter().map(|j| (j.id, j)).collect();
    for record in records {
        let id = record.spec.id;
        let times = seen.entry(id).or_insert(0);
        *times += 1;
        if *times > 1 {
            bad.note(format!("job {id} completed {times} times"));
            continue;
        }
        match by_id.get(&id) {
            None => bad.note(format!("job {id} was never submitted")),
            Some(spec) if **spec != record.spec => {
                bad.note(format!("job {id} completed with a different spec"))
            }
            Some(_) => {}
        }
        if record.start < record.spec.submit {
            bad.note(format!("job {id} starts before it was submitted"));
        }
        if record.end != record.start + record.spec.duration {
            bad.note(format!("job {id}: end is not start + duration"));
        }
    }
    for job in jobs {
        if !seen.contains_key(&job.id) {
            bad.note(format!("job {} never completed", job.id));
        }
    }

    // Capacity sweep: releases sort before acquisitions at the same
    // instant, as a job may start the moment another ends.
    let mut events: Vec<(u64, i64, i64)> = Vec::with_capacity(records.len() * 2);
    for record in records {
        let (nodes, memory) = (i64::from(record.spec.nodes), record.spec.memory_gb as i64);
        events.push((record.end.as_millis(), -nodes, -memory));
        events.push((record.start.as_millis(), nodes, memory));
    }
    events.sort_unstable();
    let (mut nodes, mut memory) = (0i64, 0i64);
    for (at_ms, d_nodes, d_memory) in events {
        nodes += d_nodes;
        memory += d_memory;
        if nodes > i64::from(cluster.nodes) {
            bad.note(format!(
                "{nodes} nodes held at t={at_ms} ms on a {}-node machine",
                cluster.nodes
            ));
            break;
        }
        if cluster.is_flat() && memory > cluster.memory_gb as i64 {
            bad.note(format!(
                "{memory} GB held at t={at_ms} ms on a {} GB machine",
                cluster.memory_gb
            ));
            break;
        }
    }
    if bad.count == 0 {
        Ok(())
    } else {
        Err(bad)
    }
}

#[derive(Debug, Default)]
pub struct ScheduleViolations {
    pub count: u64,
    /// The first few, for the error message.
    pub reasons: Vec<String>,
}

impl ScheduleViolations {
    fn note(&mut self, reason: String) {
        self.count += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }
}

impl std::fmt::Display for ScheduleViolations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violation(s): {}",
            self.count,
            self.reasons.join("; ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_schedulers::Fcfs;
    use rsched_sim::{run_simulation, SimOptions};
    use rsched_simkit::{SimDuration, SimTime};

    fn sound() -> (Vec<JobSpec>, Vec<JobRecord>, ClusterConfig) {
        let cluster = ClusterConfig::new(8, 64);
        let jobs: Vec<JobSpec> = (0..40u32)
            .map(|i| {
                JobSpec::new(
                    i,
                    i % 3,
                    SimTime::from_secs(u64::from(i) * 3),
                    SimDuration::from_secs(20 + u64::from(i * 7 % 40)),
                    1 + i % 5,
                    1 + u64::from(i % 9),
                )
            })
            .collect();
        let outcome = run_simulation(cluster, &jobs, &mut Fcfs::default(), &SimOptions::default())
            .expect("completes");
        (jobs, outcome.records, cluster)
    }

    #[test]
    fn a_real_schedule_passes() {
        let (jobs, records, cluster) = sound();
        check_schedule(&jobs, &records, cluster).expect("FCFS output is sound");
        assert_eq!(outcome_fnv48(&records), outcome_fnv48(&records.clone()));
        assert!(outcome_fnv48(&records) < 1 << 48);
    }

    #[test]
    fn over_subscribed_nodes_are_rejected() {
        let (jobs, mut records, cluster) = sound();
        // Pull every job to t = its submit time: far more than 8 nodes
        // end up held at once.
        for record in &mut records {
            record.start = record.spec.submit;
            record.end = record.start + record.spec.duration;
        }
        let bad = check_schedule(&jobs, &records, cluster).unwrap_err();
        assert!(bad.to_string().contains("nodes held"), "{bad}");
    }

    #[test]
    fn a_duplicated_job_is_rejected() {
        let (jobs, mut records, cluster) = sound();
        let again = records[3].clone();
        records.push(again);
        let bad = check_schedule(&jobs, &records, cluster).unwrap_err();
        assert!(bad.to_string().contains("completed 2 times"), "{bad}");
    }

    #[test]
    fn a_missing_job_is_rejected() {
        let (jobs, mut records, cluster) = sound();
        records.pop();
        let bad = check_schedule(&jobs, &records, cluster).unwrap_err();
        assert!(bad.to_string().contains("never completed"), "{bad}");
    }

    #[test]
    fn a_start_before_submit_is_rejected() {
        let (jobs, mut records, cluster) = sound();
        let last = records.len() - 1;
        let early = SimTime::from_millis(records[last].spec.submit.as_millis() - 1);
        records[last].start = early;
        records[last].end = early + records[last].spec.duration;
        let bad = check_schedule(&jobs, &records, cluster).unwrap_err();
        assert!(bad.to_string().contains("before it was submitted"), "{bad}");
    }

    #[test]
    fn the_fingerprint_sees_a_moved_start() {
        let (_, mut records, _) = sound();
        let before = outcome_fnv48(&records);
        records[0].end += SimDuration::from_millis(1);
        assert_ne!(before, outcome_fnv48(&records));
    }
}
