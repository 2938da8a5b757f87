//! # rsched-llm
//!
//! The language-model substrate for the ReAct scheduling agent.
//!
//! The paper drives its agent with OpenAI's **O4-Mini** (Azure) and
//! Anthropic's **Claude 3.7** (Vertex AI) behind cloud APIs. Those services
//! are unavailable in an offline reproduction, so this crate supplies
//! *simulated reasoning models* behind the same text-in/text-out interface:
//!
//! * [`backend::LanguageModel`] — the trait: a prompt in, a
//!   `Thought:`/`Action:` completion (plus latency and token counts) out.
//!   A real API client plugs in here unchanged: it receives the prompt's
//!   text.
//! * [`prompt_parse`] — the personas read the *rendered prompt*, not
//!   structured data, exercising the same code path a hosted model would.
//!   A [`SimulatedLlm`] takes the history lines it has already read from a
//!   ledger keyed by history stream and offset, and reads only the rest.
//! * `reasoner` — the multiobjective deliberation engine: scores each
//!   eligible job on fairness, throughput, packing and makespan criteria
//!   and picks an action.
//! * [`persona`] — calibrated personas: `claude37()` (balanced weights,
//!   near-deterministic, tight sub-10 s latency) and `o4mini()`
//!   (throughput-leaning weights, heavier sampling noise, heavy-tailed
//!   latency with >100 s outliers — paper §3.7).
//! * [`latency`] — the stochastic per-call latency models behind the
//!   overhead figures (5 and 6).
//! * [`thought`] — natural-language reasoning generation for the
//!   interpretability traces (Figure 2).
//! * [`script`] / [`process`] — a canned backend for tests and an external
//!   command bridge for plugging in real models.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod latency;
pub mod persona;
pub mod process;
pub mod prompt_parse;
pub(crate) mod reasoner;
pub mod script;
pub(crate) mod sim_backend;
pub mod thought;
pub mod tokens;

pub use backend::{Completion, LanguageModel, LlmError};
pub use persona::Persona;
pub use sim_backend::SimulatedLlm;
