//! Multi-tenant request-serving front door for the SEA stack.
//!
//! The paper's system serves many analysts from one distributed data
//! system; this crate adds the missing serving tier in front of the
//! exact [`Executor`](sea_query::Executor) and the learned
//! [`AgentPipeline`](sea_core::AgentPipeline):
//!
//! - a **tenant registry** with per-tenant admission policy
//!   ([`TenantConfig`]): simulated-money budgets and token-bucket rate
//!   limits driven by *simulated* time, so admission decisions are
//!   bit-reproducible — no wall clock, no randomness;
//! - a **query ledger** ([`QueryLedger`]): one append-only
//!   [`LedgerRow`] per request, recording tenant, aggregate kind,
//!   disposition, answer provenance (exact / predicted / cached /
//!   degraded / partial), simulated money and wall-microseconds,
//!   retry/failover counts, and semantic-cache classification;
//! - a **read-only stats API** ([`StatsService`]): summary totals,
//!   seq/simulated-time range filtering, tenant × aggregate × source
//!   breakdowns, and top-N most-expensive queries over a frozen ledger
//!   snapshot, serializable to JSON ([`StatsReport::to_json`]) for the
//!   experiments binary's `--stats-out` sidecar;
//! - **per-tenant SLOs** (via [`sea_watch`]): a [`TenantConfig`] may
//!   carry an [`SloPolicy`]; every served request then feeds a
//!   fast/slow burn-rate tracker, and alert transitions land in the
//!   service's [`AlertLog`] and as `watch.alert` telemetry events.
//!
//! The serving path ([`QueryService::submit`]) and the read path are
//! deliberately decoupled: the ledger is the only shared state, writers
//! append under a short lock, and readers aggregate over owned
//! snapshots. Every number in the ledger derives from the simulated
//! cost model, so the whole stack — admission, accounting, analytics —
//! is deterministic at any `SEA_EXEC_THREADS` setting.

#![forbid(unsafe_code)]

mod ledger;
mod service;
mod stats;

pub use ledger::{Disposition, LedgerRow, QueryLedger};
pub use sea_watch::{AlertLog, AlertRecord, SloPolicy, SloStatus};
pub use service::{QueryService, SubmitOutcome, TenantConfig, TenantUsage};
pub use stats::{BreakdownRow, StatsFilter, StatsReport, StatsService, StatsSummary};
