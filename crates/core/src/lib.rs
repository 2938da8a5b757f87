//! # rsched-core
//!
//! The paper's primary contribution: a **ReAct-style LLM scheduling agent**
//! for multiobjective HPC job scheduling (paper §2).
//!
//! The agent operates in a closed loop with the discrete-event simulator
//! (Figure 1): it renders the observable system state into a natural-
//! language prompt ([`prompt`]), queries a [`LanguageModel`]
//! (`rsched-llm`), parses the returned `Thought:`/`Action:` text
//! ([`action`]), and hands the action to the simulator, whose constraint-
//! enforcement module validates it. Rejections come back as natural-
//! language feedback ([`constraints`]) appended to the persistent
//! [`scratchpad`] — Algorithm 1's loop, with no retraining anywhere.
//!
//! * [`policy::LlmSchedulingPolicy`] — the agent: prompt → LLM → parse →
//!   record, as a [`SchedulingPolicy`](rsched_sim::SchedulingPolicy), so
//!   the simulator drives it exactly like FCFS/SJF/OR-Tools.
//! * [`policy::CallRecord`] — what the agent writes down per call: the
//!   thought, action, verdict and feedback behind the paper's Figure 2,
//!   and the latency and tokens behind its overhead analysis (§3.7).

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod action;
pub mod constraints;
pub mod policy;
pub mod prompt;
pub mod scratchpad;

pub use policy::{CallRecord, LlmSchedulingPolicy};
pub use prompt::PromptBuilder;
pub use rsched_llm::backend::LanguageModel;
pub use scratchpad::Scratchpad;
