//! The read path: read-only analytics over a ledger snapshot plus the
//! telemetry registry.
//!
//! A [`StatsService`] copies the ledger once at construction and never
//! touches the serving path again — aggregation, filtering, and top-N
//! queries run over the frozen snapshot, so results are stable for the
//! service's lifetime and bit-identical across executor thread counts
//! (the ledger itself is; see `tests/ledger_determinism.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::Serialize;

use sea_common::{Result, SeaError};
use sea_telemetry::{CounterSnapshot, TelemetrySink};

use crate::ledger::{Disposition, LedgerRow, QueryLedger};

/// Row predicate for range queries over the ledger. All bounds are
/// inclusive; `None` means unbounded. The default filter matches every
/// row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsFilter {
    /// Restrict to one tenant.
    pub tenant: Option<String>,
    /// Restrict to a submission-sequence window `[lo, hi]`.
    pub seq: Option<(u64, u64)>,
    /// Restrict to a simulated-time window `[lo_us, hi_us]` on the
    /// admission timestamp.
    pub sim_time_us: Option<(f64, f64)>,
}

impl StatsFilter {
    /// Whether `row` passes every bound of this filter.
    pub fn matches(&self, row: &LedgerRow) -> bool {
        if let Some(tenant) = &self.tenant {
            if &row.tenant != tenant {
                return false;
            }
        }
        if let Some((lo, hi)) = self.seq {
            if row.seq < lo || row.seq > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.sim_time_us {
            if row.sim_time_us < lo || row.sim_time_us > hi {
                return false;
            }
        }
        true
    }
}

/// Aggregate totals over the rows a filter selects.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StatsSummary {
    /// Rows selected (all dispositions).
    pub queries: u64,
    /// Rows answered.
    pub answered: u64,
    /// Rows rejected on budget.
    pub rejected_budget: u64,
    /// Rows rejected on rate.
    pub rejected_rate: u64,
    /// Rows that failed in execution.
    pub failed: u64,
    /// Total simulated money across selected rows.
    pub total_money: f64,
    /// Total simulated wall microseconds across selected rows.
    pub total_wall_us: f64,
    /// Mean simulated wall microseconds over *answered* rows (0 when
    /// none).
    pub mean_wall_us: f64,
    /// Mean answered fraction over *answered* rows (0 when none).
    pub mean_answered_fraction: f64,
    /// Total transient-fault retries across selected rows.
    pub total_retries: u64,
    /// Total replica failovers across selected rows.
    pub total_failovers: u64,
}

/// One cell of the tenant × aggregate × source breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BreakdownRow {
    /// Tenant name.
    pub tenant: String,
    /// Aggregate kind label.
    pub aggregate: String,
    /// Answer source label (or disposition label for unanswered rows).
    pub source: String,
    /// Rows in this cell.
    pub queries: u64,
    /// Total simulated money in this cell.
    pub money: f64,
    /// Total simulated wall microseconds in this cell.
    pub wall_us: f64,
}

/// The full serializable stats report: summary + breakdown + top-N +
/// the telemetry counter table (empty under a noop sink).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatsReport {
    /// Unfiltered totals.
    pub summary: StatsSummary,
    /// Tenant × aggregate × source cells, deterministically ordered.
    pub breakdown: Vec<BreakdownRow>,
    /// The most expensive answered rows, by simulated money.
    pub top_expensive: Vec<LedgerRow>,
    /// Telemetry counters at report time (sorted by name; empty when
    /// the service runs without a recording sink).
    pub counters: Vec<CounterSnapshot>,
}

impl StatsReport {
    /// Pretty-printed JSON (the `--stats-out` sidecar format).
    ///
    /// # Errors
    ///
    /// Serialization failures (never in practice for these types).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| SeaError::Serde(e.to_string()))
    }
}

/// Read-only analytics over one frozen ledger snapshot.
#[derive(Debug, Clone)]
pub struct StatsService {
    rows: Vec<LedgerRow>,
    telemetry: TelemetrySink,
}

impl StatsService {
    /// Snapshots `ledger` now; later appends are invisible to this
    /// instance (construct a fresh one to re-read).
    pub fn new(ledger: &Arc<QueryLedger>, telemetry: TelemetrySink) -> Self {
        StatsService {
            rows: ledger.snapshot(),
            telemetry,
        }
    }

    /// The frozen rows, in submission order.
    pub fn rows(&self) -> &[LedgerRow] {
        &self.rows
    }

    /// Totals over the rows `filter` selects.
    pub fn summary(&self, filter: &StatsFilter) -> StatsSummary {
        let mut s = StatsSummary::default();
        for row in self.rows.iter().filter(|r| filter.matches(r)) {
            s.queries += 1;
            match row.disposition {
                Disposition::Answered => {
                    s.answered += 1;
                    s.mean_wall_us += row.wall_us;
                    s.mean_answered_fraction += row.answered_fraction;
                }
                Disposition::RejectedBudget => s.rejected_budget += 1,
                Disposition::RejectedRate => s.rejected_rate += 1,
                Disposition::Failed => s.failed += 1,
            }
            s.total_money += row.money;
            s.total_wall_us += row.wall_us;
            s.total_retries += row.retries;
            s.total_failovers += row.failovers;
        }
        if s.answered > 0 {
            s.mean_wall_us /= s.answered as f64;
            s.mean_answered_fraction /= s.answered as f64;
        }
        s
    }

    /// Tenant × aggregate × source cells over the rows `filter`
    /// selects, in lexicographic key order (deterministic). Unanswered
    /// rows group under their disposition label so rejected load is
    /// visible next to served load.
    pub fn breakdown(&self, filter: &StatsFilter) -> Vec<BreakdownRow> {
        let mut cells: BTreeMap<(String, String, String), (u64, f64, f64)> = BTreeMap::new();
        for row in self.rows.iter().filter(|r| filter.matches(r)) {
            let source = if row.source.is_empty() {
                row.disposition.label().to_string()
            } else {
                row.source.clone()
            };
            let cell = cells
                .entry((row.tenant.clone(), row.aggregate.clone(), source))
                .or_default();
            cell.0 += 1;
            cell.1 += row.money;
            cell.2 += row.wall_us;
        }
        cells
            .into_iter()
            .map(
                |((tenant, aggregate, source), (queries, money, wall_us))| BreakdownRow {
                    tenant,
                    aggregate,
                    source,
                    queries,
                    money,
                    wall_us,
                },
            )
            .collect()
    }

    /// The `n` most expensive *answered* rows `filter` selects, by
    /// simulated money descending, ties broken by submission order
    /// (total order even with equal costs, so output is deterministic).
    pub fn top_expensive(&self, n: usize, filter: &StatsFilter) -> Vec<LedgerRow> {
        let mut answered: Vec<&LedgerRow> = self
            .rows
            .iter()
            .filter(|r| r.disposition == Disposition::Answered && filter.matches(r))
            .collect();
        answered.sort_by(|a, b| b.money.total_cmp(&a.money).then(a.seq.cmp(&b.seq)));
        answered.into_iter().take(n).cloned().collect()
    }

    /// The full report: unfiltered summary, breakdown, top-`top_n`
    /// most expensive rows, and the telemetry counter table.
    pub fn report(&self, top_n: usize) -> StatsReport {
        let all = StatsFilter::default();
        StatsReport {
            summary: self.summary(&all),
            breakdown: self.breakdown(&all),
            top_expensive: self.top_expensive(top_n, &all),
            counters: self
                .telemetry
                .snapshot()
                .map(|s| s.counters)
                .unwrap_or_default(),
        }
    }
}
