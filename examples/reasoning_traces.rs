//! Figure 2 material: run the ReAct agent on an adversarial workload and
//! print its interpretable decision traces — thought, action, and any
//! constraint feedback, exactly the panels the paper shows.
//!
//! Everything printed is read after the run from where it was written
//! down: the validated decisions from the [`SimOutcome`], the thought
//! trace from the agent's per-call log, the history from its scratchpad.
//!
//! ```text
//! cargo run --release --example reasoning_traces
//! ```

use reasoned_scheduler::prelude::*;

fn main() {
    let cluster = ClusterConfig::paper_default();
    // The adversarial scenario: a 128-node, 100 000 s blocker followed by a
    // flood of 1-node jobs — the convoy-effect stress test.
    let workload = scenario_builtins()
        .generate(
            "adversarial",
            &ScenarioContext::new(12)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(3),
        )
        .expect("builtin scenario");

    // The concrete agent type (not a registry handle) so the thought trace
    // and scratchpad stay inspectable after the run.
    let mut agent = LlmSchedulingPolicy::claude37(3);
    let outcome: SimOutcome = Simulation::new(cluster)
        .jobs(&workload.jobs)
        .run(&mut agent)
        .expect("workload completes");

    println!("=== Decisions, as the constraint module ruled on them ===\n");
    for d in &outcome.decisions {
        let verdict = match &d.rejected {
            None => "applied".to_string(),
            Some(reason) => format!("REJECTED ({reason})"),
        };
        println!(
            "[{:>8}] {:<24} {} (queue={}, free={} nodes)",
            d.time.to_string(),
            d.action.to_string(),
            verdict,
            d.queue_len,
            d.free_nodes
        );
    }

    println!(
        "\n{} scheduled {} jobs in {} decisions ({} LLM calls)\n",
        agent.name(),
        outcome.records.len(),
        outcome.decisions.len(),
        agent.calls().len()
    );
    println!("{}", agent.render_trace());

    println!("\n\n=== Scratchpad (decision history the model sees) ===\n");
    println!("{}", agent.scratchpad().render());
}
