//! Plugging a *real* language model into the harness — without touching
//! any workspace code.
//!
//! The open [`PolicyRegistry`] is the extension seam: register a factory
//! under a name of your choosing and every registry-driven surface (the
//! [`Simulation`] builder, the experiments matrix, your own sweeps) can
//! drive your policy alongside the builtins. Here the policy wraps
//! [`ProcessBackend`], which bridges the agent's `Thought:`/`Action:`
//! contract to an external command — point it at a shell script wrapping
//! your API CLI and the whole evaluation harness drives your model instead
//! of the simulated personas.
//!
//! This example uses a tiny `sh` one-liner as the "model": it ignores the
//! prompt and always answers with the head job — a degenerate but valid
//! scheduler that demonstrates the contract (including constraint
//! rejections being absorbed as scratchpad feedback).
//!
//! ```text
//! cargo run --release --example bring_your_own_llm
//! ```

use reasoned_scheduler::llm::process::ProcessBackend;
use reasoned_scheduler::prelude::*;

fn main() {
    let cluster = ClusterConfig::paper_default();
    let workload = scenario_builtins()
        .generate(
            "resource_sparse",
            &ScenarioContext::new(6)
                .with_mode(ArrivalMode::Static)
                .with_seed(9),
        )
        .expect("builtin scenario");

    // A "model" that always proposes job 0, then job 1, … — it keeps state
    // in a temp file to move through the queue. Real deployments would call
    // an API here; the contract is exactly the same.
    let script = r#"
        state="${TMPDIR:-/tmp}/byollm_counter"
        n=$(cat "$state" 2>/dev/null || echo 0)
        cat > /dev/null
        if [ "$n" -ge 6 ]; then
            printf 'Thought: every job has been scheduled\nAction: Stop'
        else
            printf 'Thought: next in line is job %s\nAction: StartJob(job_id=%s)' "$n" "$n"
            echo $((n + 1)) > "$state"
        fi
    "#;
    std::fs::write(std::env::temp_dir().join("byollm_counter"), "0").expect("seed counter");

    // Third-party registration: the factory is ordinary user code. The
    // builtins stay available next to it ("FCFS", "Claude-3.7", …).
    let mut registry = PolicyRegistry::with_builtins();
    registry
        .register("sh-fcfs", move |_ctx| {
            let backend =
                ProcessBackend::new("sh-fcfs", "sh", ["-c".to_string(), script.to_string()]);
            Box::new(LlmSchedulingPolicy::new(Box::new(backend)))
        })
        .expect("name is free");
    println!("registered policies: {}\n", registry.names().join(", "));

    let ctx = PolicyContext::new(&workload.jobs, cluster).with_seed(9);
    let mut policy = registry.build("sh-fcfs", &ctx).expect("just registered");

    let outcome = Simulation::new(cluster)
        .jobs(&workload.jobs)
        .record_decisions()
        .run(policy.as_mut())
        .expect("completes");

    // The outcome's decision log: what the external process proposed and
    // how the constraint module ruled on it.
    for d in &outcome.decisions {
        let verdict = match &d.rejected {
            None => "ok".to_string(),
            Some(reason) => format!("rejected: {reason}"),
        };
        println!("  [{}] {} -> {verdict}", d.time, d.action);
    }

    let report = MetricsReport::compute(&outcome.records, cluster);
    let overhead = policy.overhead_report().expect("LLM policies track calls");
    println!(
        "\nexternal-process model `{}` scheduled {} jobs ({} calls, measured wall latency)\n",
        outcome.policy_name,
        outcome.records.len(),
        overhead.call_count
    );
    println!("{report}");
}
