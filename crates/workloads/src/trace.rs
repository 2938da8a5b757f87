//! CSV serialization of preprocessed workloads.
//!
//! Lets the experiment harness dump the exact job set behind every figure
//! and reload it later ("all workload data … publicly available for
//! reproducibility", paper §3.3).

use rsched_cluster::{JobSpec, NodeClass, ResourceVec};
use rsched_simkit::csv::{self, Table};
use rsched_simkit::{SimDuration, SimTime};

/// Columns of the canonical workload CSV. The first eight are the scalar
/// schema; the per-node demand and class columns were added with the
/// multi-resource cluster model and are optional on import (older dumps
/// load with zero extended demand).
const HEADER: [&str; 13] = [
    "job_id",
    "user",
    "group",
    "submit_s",
    "duration_s",
    "walltime_s",
    "nodes",
    "memory_gb",
    "cpus_per_node",
    "gpus_per_node",
    "mem_gb_per_node",
    "bb_slots_per_node",
    "class",
];

/// Columns every workload CSV must carry (the pre-multi-resource schema).
const REQUIRED_COLUMNS: usize = 8;

/// Serialize jobs to CSV text (with header).
pub fn jobs_to_csv(jobs: &[JobSpec]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(jobs.len() + 1);
    rows.push(HEADER.iter().map(|s| s.to_string()).collect());
    for j in jobs {
        rows.push(vec![
            j.id.0.to_string(),
            j.user.0.to_string(),
            j.group.0.to_string(),
            format!("{:.3}", j.submit.as_secs_f64()),
            format!("{:.3}", j.duration.as_secs_f64()),
            format!("{:.3}", j.walltime.as_secs_f64()),
            j.nodes.to_string(),
            j.memory_gb.to_string(),
            j.per_node.cpus.to_string(),
            j.per_node.gpus.to_string(),
            j.per_node.memory_gb.to_string(),
            j.per_node.bb_slots.to_string(),
            j.class.map(|c| c.to_string()).unwrap_or_default(),
        ]);
    }
    csv::write_rows(rows)
}

use crate::error::WorkloadError;

/// Dense-id factorization in first-appearance order, shared by the Polaris
/// and SWF ingestion pipelines: the first distinct value becomes id 0, the
/// next id 1, and so on. Hash-backed, so factorizing a multi-million-job
/// archive trace stays linear in the job count.
#[derive(Debug, Default)]
pub(crate) struct Factorizer<T> {
    ids: std::collections::HashMap<T, u32>,
}

impl<T: Eq + std::hash::Hash + Clone> Factorizer<T> {
    pub(crate) fn new() -> Self {
        Factorizer {
            ids: std::collections::HashMap::new(),
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

/// The value at `row` of column `name`, parsed as the field's own type: a
/// value the type cannot hold (`-1` nodes, an id past `u32::MAX`) is
/// refused with its location rather than cast into one it can. A column
/// the table lacks reads as the type's default — callers check their
/// required columns up front.
pub(crate) fn cell<T>(table: &Table, row: usize, name: &str) -> Result<T, WorkloadError>
where
    T: std::str::FromStr + Default,
    T::Err: std::fmt::Display,
{
    match table.get(row, name) {
        None => Ok(T::default()),
        Some(text) => text.parse().map_err(|e: T::Err| WorkloadError::Parse {
            location: format!("row {row}, column {name}"),
            message: e.to_string(),
        }),
    }
}

/// Parse jobs back from CSV text produced by [`jobs_to_csv`].
pub fn jobs_from_csv(text: &str) -> Result<Vec<JobSpec>, WorkloadError> {
    let table = Table::parse(text).map_err(|e| WorkloadError::Parse {
        location: "csv".to_string(),
        message: e.to_string(),
    })?;
    for col in &HEADER[..REQUIRED_COLUMNS] {
        if table.column(col).is_none() {
            return Err(WorkloadError::Parse {
                location: "header".to_string(),
                message: format!("missing column `{col}`"),
            });
        }
    }
    let mut jobs = Vec::with_capacity(table.rows.len());
    for row in 0..table.rows.len() {
        let class = match table.get(row, "class").unwrap_or("") {
            "" => None,
            "cpu" => Some(NodeClass::Cpu),
            "gpu" => Some(NodeClass::Gpu),
            "bigmem" => Some(NodeClass::BigMem),
            other => {
                return Err(WorkloadError::Parse {
                    location: format!("row {row}, column class"),
                    message: format!("unknown node class `{other}`"),
                })
            }
        };
        let secs = |name: &str| cell(&table, row, name).map(SimDuration::from_secs_f64);
        let mut spec = JobSpec::new(
            cell(&table, row, "job_id")?,
            cell(&table, row, "user")?,
            SimTime::from_secs_f64(cell(&table, row, "submit_s")?),
            secs("duration_s")?,
            cell(&table, row, "nodes")?,
            cell(&table, row, "memory_gb")?,
        )
        .with_group(cell(&table, row, "group")?)
        .with_walltime(secs("walltime_s")?)
        // The extended columns are optional: CSVs written before the
        // multi-resource model load as scalar jobs.
        .with_per_node(ResourceVec::new(
            cell(&table, row, "cpus_per_node")?,
            cell(&table, row, "gpus_per_node")?,
            cell(&table, row, "mem_gb_per_node")?,
            cell(&table, row, "bb_slots_per_node")?,
        ));
        if let Some(class) = class {
            spec = spec.with_class(class);
        }
        jobs.push(spec);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{builtins, ScenarioContext};

    #[test]
    fn roundtrip_preserves_jobs() {
        let w = builtins()
            .generate("heterogeneous_mix", &ScenarioContext::new(30).with_seed(5))
            .expect("builtin");
        let text = jobs_to_csv(&w.jobs);
        let back = jobs_from_csv(&text).expect("parse");
        assert_eq!(back, w.jobs);
    }

    #[test]
    fn roundtrip_preserves_per_node_demand_and_class() {
        for scenario in ["gpu_skewed_hetmix", "bigmem_burst"] {
            let w = builtins()
                .generate(scenario, &ScenarioContext::new(30).with_seed(5))
                .expect("builtin");
            assert!(
                w.jobs.iter().any(|j| j.class.is_some()),
                "{scenario} carries class pins"
            );
            let back = jobs_from_csv(&jobs_to_csv(&w.jobs)).expect("parse");
            assert_eq!(back, w.jobs, "{scenario}");
        }
    }

    #[test]
    fn legacy_csv_without_extended_columns_loads_as_scalar_jobs() {
        let text = "job_id,user,group,submit_s,duration_s,walltime_s,nodes,memory_gb\n\
                    0,1,2,0.000,10.000,10.000,4,16\n";
        let jobs = jobs_from_csv(text).expect("legacy schema parses");
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].per_node.is_zero());
        assert_eq!(jobs[0].class, None);
        assert_eq!(jobs[0].nodes, 4);
    }

    #[test]
    fn unknown_class_is_reported() {
        let bad = "job_id,user,group,submit_s,duration_s,walltime_s,nodes,memory_gb,class\n\
                   0,0,0,0.0,10.0,10.0,1,1,quantum\n";
        let err = jobs_from_csv(bad).unwrap_err();
        assert!(err.to_string().contains("quantum"), "{err}");
    }

    #[test]
    fn missing_column_is_reported() {
        let err = jobs_from_csv("job_id,user\n1,2\n").unwrap_err();
        assert!(err.to_string().contains("missing column"));
    }

    #[test]
    fn bad_number_is_reported_with_location() {
        let text = "job_id,user,group,submit_s,duration_s,walltime_s,nodes,memory_gb\n\
                    0,0,0,0.0,10.0,10.0,not_a_number,4\n";
        let err = jobs_from_csv(text).unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("nodes"), "{rendered}");
        assert!(rendered.contains("row 0"), "{rendered}");
    }

    /// An id one past `u32::MAX` is not truncated to 0, where it would
    /// collide with the real job 0 of row 0: it is refused where it stands.
    #[test]
    fn an_id_past_u32_is_refused_not_wrapped_onto_job_zero() {
        let text = "job_id,user,group,submit_s,duration_s,walltime_s,nodes,memory_gb\n\
                    0,0,0,0.0,10.0,10.0,1,4\n\
                    4294967296,0,0,0.0,10.0,10.0,1,4\n";
        match jobs_from_csv(text) {
            Err(WorkloadError::Parse { location, .. }) => {
                assert_eq!(location, "row 1, column job_id");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_table_yields_no_jobs() {
        let text = jobs_to_csv(&[]);
        assert_eq!(jobs_from_csv(&text).expect("parse"), Vec::<JobSpec>::new());
    }
}
