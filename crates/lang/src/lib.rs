//! # sea-lang
//!
//! The declarative statement front end (ROADMAP open item 2, in the
//! spirit of Shark and the Declarative Data Analytics survey): a small
//! SQL-ish language compiled through the existing stack instead of
//! hand-constructing [`sea_common::AnalyticalQuery`] values per
//! workload.
//!
//! ```text
//! statement ──parse──▶ LogicalPlan ──plan──▶ AnalyticalQuery*
//!                                    │
//!                     ┌──────────────┼───────────────────┐
//!                     ▼              ▼                   ▼
//!               ExecutionEngines  Executor         AgentPipeline
//!               (scan vs index)  (exact/batch)  (predict/cache/exact)
//! ```
//!
//! * [`parse`] — deterministic recursive-descent parser producing a
//!   typed [`LogicalPlan`]; errors are span-annotated [`ParseError`]s
//!   with a stable, golden-tested rendering.
//! * [`LogicalPlan`] — the typed plan; its `Display` impl is a
//!   canonical pretty-printer that round-trips through [`parse`].
//! * [`Frontend`] — plans and executes statements against an
//!   [`sea_query::Executor`], optionally routing through
//!   [`sea_operators::ExecutionEngines`] (scan-vs-index chosen by
//!   [`sea_operators::ExecutionEngines::estimate_cost`]) and an
//!   [`sea_core::AgentPipeline`] (the predict-vs-exact-vs-cache
//!   decision). Every statement takes one ladder, run under the front
//!   end's executor; an `EXPLAIN` statement takes it under a recording
//!   clone of that executor and additionally renders the chosen path,
//!   estimated-vs-actual simulated cost, and the recorded
//!   [`sea_telemetry::SpanNode`] tree.
//! * [`submit_statement`] — tenant-scoped statements through the
//!   [`sea_service::QueryService`] front door.
//!
//! Everything is deterministic: no wall clock, no RNG, and lowered
//! statements produce answers and [`sea_common::CostReport`]s
//! bit-identical to the equivalent hand-built query path at any
//! `SEA_EXEC_THREADS` setting (pinned by experiment E22 and the
//! cross-pool determinism test in `sea-bench`).
//!
//! ```
//! use sea_common::Record;
//! use sea_lang::Frontend;
//! use sea_query::Executor;
//! use sea_storage::{Partitioning, StorageCluster};
//!
//! # fn main() -> sea_common::Result<()> {
//! let mut cluster = StorageCluster::new(2, 64);
//! let records: Vec<Record> = (0..1000)
//!     .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
//!     .collect();
//! cluster.load_table("t", records, Partitioning::Hash)?;
//!
//! let mut front = Frontend::new(Executor::new(&cluster), "t")?;
//! let out = front.run("SELECT count(), mean(d0) WHERE d0 IN [10.0, 19.0]")?;
//! assert_eq!(out.results.len(), 2);
//! assert_eq!(out.plan.to_string(), "SELECT count(), mean(d0) WHERE d0 IN [10.0, 19.0]");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod explain;
mod lexer;
mod parser;
mod planner;

pub use ast::{AggSpec, BallPred, LogicalPlan, ModeHint, RangePred, Selection};
pub use error::ParseError;
pub use parser::parse;
pub use planner::{submit_statement, AggregateResult, Frontend, StatementOutcome, TableSchema};
