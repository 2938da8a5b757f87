//! A figure cell is recorded once, as a campaign cell record:
//!
//! * every figure grid, run twice into one cells directory, is served
//!   wholly from its records the second time, and renders every table and
//!   CSV (Figures 3–8 and the ablation) byte for byte as the first run did;
//! * a record gives back exactly the floats it was written with — `NaN`
//!   as `NaN`, every other value bit for bit (±inf, −0.0, subnormals).

use reasoned_scheduler::campaign::cache::{parse_record, render_record};
use reasoned_scheduler::campaign::{CellRuns, OverheadSummary, PolicyRun};
use reasoned_scheduler::cpsolver::SolverConfig;
use reasoned_scheduler::experiments::figures::{ablation, fig3, fig4, fig7, fig8, overhead};
use reasoned_scheduler::experiments::ExperimentOptions;
use reasoned_scheduler::metrics::MetricsReport;
use reasoned_scheduler::parallel::ThreadPool;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::sim::SimStats;

use proptest::prelude::*;

/// Every figure at `--quick` scale, recorded under `cells`: each grid's
/// `(records, cached)` and every figure's rendered table and CSV.
fn all_figures(cells: &std::path::Path) -> (Vec<(usize, usize)>, Vec<String>) {
    let opts = ExperimentOptions {
        quick: true,
        solver: SolverConfig {
            sa_iterations_per_task: 30,
            sa_iteration_cap: 600,
            ..SolverConfig::default()
        },
        ..ExperimentOptions::default()
    };
    let pool = ThreadPool::new(2);
    let f3 = fig3::run(&opts, cells, &pool).expect("fig3 runs");
    let f4 = fig4::run(&opts, cells, &pool).expect("fig4 runs");
    let f5 = overhead::fig5(&f3, fig3::jobs(&opts));
    let f6 = overhead::fig6(&f4);
    let f7 = fig7::run(&opts, cells, &pool).expect("fig7 runs");
    let f8 = fig8::run(&opts, cells, &pool).expect("fig8 runs");
    let ab = ablation::run(&opts, cells, &pool).expect("ablation runs");
    let grids: [&CellRuns; 5] = [&f3.runs, &f4.runs, &f7.runs, &f8.runs, &ab.runs];
    let counts = grids.iter().map(|g| (g.records.len(), g.cached)).collect();
    let outputs = vec![
        f3.render(),
        f3.to_csv(),
        f4.render(),
        f4.to_csv(),
        f5.render(),
        f5.to_csv(),
        f6.render(),
        f6.to_csv(),
        f7.render(),
        f7.to_csv(),
        f8.render(),
        f8.to_csv(),
        ab.render(),
        ab.to_csv(),
    ];
    (counts, outputs)
}

#[test]
fn a_warm_figure_run_reads_every_cell_back_and_renders_the_same_bytes() {
    let cells = std::env::temp_dir().join(format!("rsched_figure_records_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cells);
    let (cold_counts, cold) = all_figures(&cells);
    let (warm_counts, warm) = all_figures(&cells);
    let records = std::fs::read_dir(&cells).expect("records written").count();
    let _ = std::fs::remove_dir_all(&cells);

    let total: usize = cold_counts.iter().map(|&(n, _)| n).sum();
    assert!(
        cold_counts.iter().all(|&(_, cached)| cached == 0),
        "{cold_counts:?}"
    );
    assert!(
        warm_counts.iter().all(|&(n, cached)| cached == n),
        "{warm_counts:?}"
    );
    assert_eq!(records, total, "one record per distinct cell");
    for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(a, b, "output {i} differs between the cold and the warm run");
    }
}

fn cell() -> CellSpec {
    CellSpec {
        policy: "Claude-3.7".to_string(),
        scenario: "heterogeneous_mix".to_string(),
        jobs: 60,
        workload_seed: 2025,
        policy_seed: u64::MAX,
    }
}

/// `NaN` compares as `NaN` (its payload is not kept); everything else by
/// its bits.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Any `f64` bit pattern, with the special values drawn often.
fn any_f64() -> impl Strategy<Value = f64> {
    (0u64..16, 0u64..u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::from_bits(bits % (1 << 52)), // subnormal (or zero)
        5 => -f64::from_bits(bits % (1 << 52)),
        _ => f64::from_bits(bits),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_record_gives_back_the_floats_it_was_written_with(
        metrics in prop::collection::vec(any_f64(), 8..9),
        overhead in prop::collection::vec(any_f64(), 5..6),
        calls in 0usize..100_000,
    ) {
        let run = PolicyRun {
            policy: "Claude-3.7".to_string(),
            report: MetricsReport {
                makespan_secs: metrics[0],
                avg_wait_secs: metrics[1],
                avg_turnaround_secs: metrics[2],
                throughput: metrics[3],
                node_utilization: metrics[4],
                memory_utilization: metrics[5],
                wait_fairness: metrics[6],
                user_fairness: metrics[7],
            },
            stats: SimStats { queries: calls, placements: 60, ..SimStats::default() },
            overhead: Some(OverheadSummary {
                call_count: calls,
                total_elapsed_secs: overhead[0],
                latency_s: Some([overhead[1], overhead[2], overhead[3], overhead[4]]),
            }),
        };
        let text = render_record(&cell(), &run, 0xfeed);
        let back = parse_record(&text, &cell(), 0xfeed);
        prop_assert!(back.is_some(), "unreadable record:\n{}", text);
        let back = back.expect("checked");
        let wrote = Metric::all().map(|m| run.report.get(m));
        let read = Metric::all().map(|m| back.report.get(m));
        for (w, r) in wrote.iter().zip(read) {
            prop_assert!(same(*w, r), "{} came back as {}", w, r);
        }
        let (wo, ro) = (run.overhead.expect("written"), back.overhead.clone().expect("read"));
        prop_assert!(same(wo.total_elapsed_secs, ro.total_elapsed_secs));
        for (w, r) in wo.latency_s.iter().flatten().zip(ro.latency_s.iter().flatten()) {
            prop_assert!(same(*w, *r), "{} came back as {}", w, r);
        }
        prop_assert_eq!((back.stats, ro.call_count), (run.stats, calls));
        prop_assert_eq!(render_record(&cell(), &back, 0xfeed), text);
    }
}
