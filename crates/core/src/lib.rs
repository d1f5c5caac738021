//! # sea-core
//!
//! The paper's primary contribution: the **intelligent agent** that sits
//! between analysts and the big data system (Fig 2) and realizes *data-less
//! big data analytics* (principle P2).
//!
//! The agent:
//!
//! 1. **Quantizes the query space** (O1): incoming queries, embedded as
//!    geometry vectors, are clustered online into *quanta* representing
//!    analysts' current interest regions.
//! 2. **Models the answer space** (O2): each quantum carries incremental
//!    local models (recursive least squares over query geometry, plus a
//!    kNN fallback over raw training pairs) mapping query → answer.
//! 3. **Associates and predicts** (O3): an unseen query routes to its
//!    quantum and is answered from the local model, with an **error
//!    estimate** derived from the quantum's prequential residuals, so the
//!    system (or the analyst) "can choose to proceed with the predicted
//!    answer or to obtain an exact answer by accessing the base data"
//!    (RT1-3).
//! 4. **Maintains the models** (RT1-4): query-pattern drift moves and
//!    spawns/purges quanta; base-data updates invalidate the quanta whose
//!    subspaces they touch.
//! 5. **Explains answers** (RT4-2): every prediction can be accompanied by
//!    an [`explain::Explanation`] — a model of how the answer depends on
//!    the query's parameters, which the analyst can evaluate at arbitrary
//!    parameter settings instead of issuing more queries.
//! 6. **Answers higher-level interrogations** (RT4-1): e.g. "return the
//!    data subspaces where the correlation coefficient exceeds θ", swept
//!    entirely over predictions ([`interrogate`]).
//!
//! The full serving stack is assembled by [`pipeline::AgentPipeline`]:
//! an optional [`sea_cache::SemanticCache`] sits *in front of* the
//! predict-vs-exact branch ([`AgentPipeline::with_cache`]), so a cached
//! exact answer short-circuits both prediction and execution while
//! still feeding the agent a training example. A [`ProcessOutcome`]
//! hands on, unchanged, the [`sea_query::Provenance`] the executor
//! recorded (a prediction carries the probe's miss), and
//! [`ProcessOutcome::source_label`] is the one rule that names an
//! answer `exact`, `cached`, `predicted`, `degraded` or `partial` for
//! the ledger and for `sea-lang`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod explain;
pub mod interrogate;
pub mod pipeline;

pub use agent::{AgentConfig, AgentStats, Prediction, SeaAgent};
pub use explain::Explanation;
pub use interrogate::{interesting_subspaces, SubspaceReport};
pub use pipeline::{AgentPipeline, AnswerSource, ProcessOutcome};
pub use sea_common::ExecMode;
