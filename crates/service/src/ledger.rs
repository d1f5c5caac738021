//! The query ledger: one append-only row per submitted request.
//!
//! The ledger is the serving path's *only* shared state with the read
//! path: [`QueryService`](crate::QueryService) appends under a short
//! write lock, and readers take an owned [`QueryLedger::snapshot`] —
//! a stats consumer never holds a lock while aggregating, so analytics
//! cannot stall admission and admission cannot shear an in-progress
//! read.

use std::sync::Arc;

use parking_lot::RwLock;
use serde::Serialize;

/// How the service disposed of a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Disposition {
    /// Admitted and answered (possibly partially — see
    /// [`LedgerRow::source`]).
    Answered,
    /// Rejected before execution: the tenant's simulated-money budget
    /// was already exhausted.
    RejectedBudget,
    /// Rejected before execution: the tenant's token bucket was empty.
    RejectedRate,
    /// Admitted but execution failed (and no degraded fallback served).
    Failed,
}

impl Disposition {
    /// Short stable name used as a grouping key in stats breakdowns.
    pub fn label(&self) -> &'static str {
        match self {
            Disposition::Answered => "answered",
            Disposition::RejectedBudget => "rejected_budget",
            Disposition::RejectedRate => "rejected_rate",
            Disposition::Failed => "failed",
        }
    }
}

/// One row of the ledger: the full bill of record for one request.
/// Every field is simulated/deterministic — `sim_time_us` and `wall_us`
/// come from the cost model's clock, never the host's.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LedgerRow {
    /// Global (service-wide) submission sequence number, from 0.
    pub seq: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// Aggregate kind label (`count`, `mean`, …).
    pub aggregate: String,
    /// How the request was disposed of.
    pub disposition: Disposition,
    /// Answer provenance for answered rows, by
    /// [`ProcessOutcome::source_label`](sea_core::ProcessOutcome::source_label):
    /// `exact`, `predicted`, `cached`, `degraded`, or `partial` when
    /// unavailable partitions were skipped. Empty for rejected/failed
    /// rows.
    pub source: String,
    /// Simulated service clock at admission, microseconds.
    pub sim_time_us: f64,
    /// Simulated money charged to the tenant (0 for rejected/failed).
    pub money: f64,
    /// Simulated wall-clock microseconds the answer took.
    pub wall_us: f64,
    /// Fraction of engaged partitions that contributed (1.0 complete).
    pub answered_fraction: f64,
    /// Partitions that could not be served at all.
    pub nodes_unavailable: u64,
    /// Transient-fault retries the answer's scans rode out.
    pub retries: u64,
    /// Partitions a replica served the answer from.
    pub failovers: u64,
    /// What the semantic cache had to do with the answer: `exact`,
    /// `containment`, `miss`, or `none` when no cache sat on its path.
    /// These three are read off the outcome's
    /// [`Provenance`](sea_query::Provenance) — the same with telemetry
    /// recording or not — so a request that returned no outcome
    /// (rejected, failed) carries `0`, `0`, `none`.
    pub cache_class: String,
}

impl LedgerRow {
    /// A row for a request that never executed (rejected or failed):
    /// all cost fields zero, provenance empty.
    pub(crate) fn unanswered(
        seq: u64,
        tenant: &str,
        aggregate: &str,
        disposition: Disposition,
        sim_time_us: f64,
    ) -> Self {
        LedgerRow {
            seq,
            tenant: tenant.to_string(),
            aggregate: aggregate.to_string(),
            disposition,
            source: String::new(),
            sim_time_us,
            money: 0.0,
            wall_us: 0.0,
            answered_fraction: 0.0,
            nodes_unavailable: 0,
            retries: 0,
            failovers: 0,
            cache_class: "none".to_string(),
        }
    }
}

/// Append-only, lock-guarded sequence of [`LedgerRow`]s. A row is
/// shared, not copied, with the [`SubmitOutcome`](crate::SubmitOutcome)
/// that reports it.
#[derive(Debug, Default)]
pub struct QueryLedger {
    rows: RwLock<Vec<Arc<LedgerRow>>>,
}

impl QueryLedger {
    /// Appends one row (serving path; short write lock).
    pub fn append(&self, row: impl Into<Arc<LedgerRow>>) {
        self.rows.write().push(row.into());
    }

    /// An owned copy of every row so far (read path). Rows are in
    /// submission order — `seq` is strictly increasing.
    pub fn snapshot(&self) -> Vec<LedgerRow> {
        self.rows.read().iter().map(|row| (**row).clone()).collect()
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// Whether no request has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_an_owned_copy() {
        let ledger = QueryLedger::default();
        ledger.append(LedgerRow::unanswered(
            0,
            "a",
            "count",
            Disposition::RejectedRate,
            5.0,
        ));
        let snap = ledger.snapshot();
        ledger.append(LedgerRow::unanswered(
            1,
            "a",
            "count",
            Disposition::RejectedRate,
            6.0,
        ));
        assert_eq!(snap.len(), 1);
        assert_eq!(ledger.len(), 2);
        assert_eq!(snap[0].disposition.label(), "rejected_rate");
    }

    #[test]
    fn rows_round_trip_through_json() {
        let row = LedgerRow::unanswered(3, "t", "mean", Disposition::Failed, 1.5);
        // The `stats.json` `top_expensive` shape, field for field.
        assert_eq!(
            serde_json::to_string(&row).unwrap(),
            concat!(
                r#"{"seq":3,"tenant":"t","aggregate":"mean","disposition":"Failed","source":"","#,
                r#""sim_time_us":1.5,"money":0,"wall_us":0,"answered_fraction":0,"#,
                r#""nodes_unavailable":0,"retries":0,"failovers":0,"cache_class":"none"}"#,
            )
        );
    }
}
