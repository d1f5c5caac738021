//! # sea-optimizer
//!
//! Research theme RT3: *understand the alternatives and select optimal
//! processing methods* (P4).
//!
//! * [`strategies`] — the two distributed processing paradigms the paper
//!   contrasts (RT3-2): MapReduce-style node-side partial aggregation
//!   versus a coordinator that surgically fetches matching records. Their
//!   costs cross over with selectivity: fetching wins when selections are
//!   narrow, node-side aggregation wins when they are wide. Both arms
//!   read the caller's [`sea_query::Executor`]'s cluster — the index
//!   holds row positions, not a copy of the table, and is built by one
//!   billed scan — and the planner-side estimate of either path makes
//!   the charges its execution makes (the scan's from
//!   `DataNode::charge_scan`), so estimate and bill cannot drift apart.
//! * [`learned`] — the learned selector (G6/O6): trained from measured
//!   executions of both strategies, it predicts per-strategy cost from
//!   query features (estimated selectivity, table size, node count) and
//!   picks the argmin on the fly. Evaluated by *regret* against the
//!   per-query oracle.
//! * [`model_select`] — inference-model selection (RT3-3, \[48\]): given a
//!   data subspace's training pairs, pick among linear, kNN, and
//!   gradient-boosted regressors by validation error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod learned;
pub mod model_select;
pub mod strategies;

pub use learned::LearnedOptimizer;
pub use model_select::{select_model, ModelChoice};
pub use strategies::{ExecutionEngines, QueryStrategy};
