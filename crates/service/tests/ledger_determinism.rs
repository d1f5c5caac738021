//! Ledger determinism: a mixed multi-tenant workload — exact tenants,
//! a pipeline tenant with a semantic cache, faults with retries and
//! partial answers, budgets and rate limits — must produce a
//! bit-identical ledger and bit-identical stats at any [`ExecPool`]
//! thread count. This is the service-layer extension of the executor's
//! own determinism contract (`sea-query`'s `cache_determinism` tests):
//! if admission, accounting, or attribution ever consulted a wall clock
//! or a schedule-dependent counter, these comparisons would shear.
//!
//! A proptest below pins the stats algebra itself: summary totals are
//! exactly the fold of the individual ledger rows, for arbitrary rows.

use std::sync::Arc;

use proptest::prelude::*;
use sea_cache::{CacheConfig, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, Record, Rect, Region};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_query::{ExecPool, Executor, RetryPolicy};
use sea_service::{
    Disposition, LedgerRow, QueryLedger, QueryService, StatsFilter, StatsReport, StatsService,
    TenantConfig,
};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;

fn build_cluster() -> StorageCluster {
    let mut c = StorageCluster::new(6, 64);
    let records: Vec<Record> = (0..3000)
        .map(|i| Record::new(i as u64, vec![(i % 100) as f64, ((i * 13) % 41) as f64]))
        .collect();
    c.load_table("t", records, Partitioning::Hash).unwrap();
    c
}

fn query(i: usize) -> AnalyticalQuery {
    let lo = (i % 7) as f64 * 9.0;
    let hi = lo + 18.0 + (i % 5) as f64 * 7.0;
    let rect = Rect::new(vec![lo, 0.0], vec![hi, 41.0]).unwrap();
    let agg = match i % 4 {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum { dim: 1 },
        2 => AggregateKind::Mean { dim: 1 },
        _ => AggregateKind::Median { dim: 0 },
    };
    AnalyticalQuery::new(Region::Range(rect), agg)
}

/// Runs the full workload at one thread budget, the cluster's sink
/// recording or left `Noop`; returns the ledger rows and the complete
/// stats report (summary + breakdown + top-N + the recorded counter
/// table).
fn run(threads: usize, recording: bool) -> (Vec<LedgerRow>, StatsReport) {
    let mut cluster = build_cluster();
    let sink = if recording {
        TelemetrySink::recording()
    } else {
        TelemetrySink::noop()
    };
    cluster.set_telemetry(sink.clone());
    cluster.set_fault_plan(FaultPlan::new(23).with_transient(0.2, 1).with_crash(2, 40));
    let exec = Executor::new(&cluster)
        .with_pool(ExecPool::new(threads))
        .with_retry_policy(RetryPolicy {
            max_retries: 2,
            backoff_base_us: 1_000,
        })
        .with_partial_answers(true);
    let cache = Arc::new(
        SemanticCache::new(CacheConfig {
            admit_min_cost_us: 0.0,
            ..CacheConfig::default()
        })
        .with_telemetry(sink.clone()),
    );
    let pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)
        .unwrap()
        .with_cache(cache)
        .with_telemetry(sink.clone());
    let mut svc = QueryService::new(exec, "t");
    svc.register_tenant("alpha", TenantConfig::default())
        .unwrap();
    svc.register_tenant(
        "capped",
        TenantConfig {
            money_budget: Some(2000.0),
            rate_per_sec: Some(2.0),
            burst: 3.0,
            ..TenantConfig::default()
        },
    )
    .unwrap();
    svc.register_tenant_with_pipeline("ml", TenantConfig::default(), pipe)
        .unwrap();
    for i in 0..60 {
        let tenant = ["alpha", "capped", "ml"][i % 3];
        svc.submit(tenant, &query(i)).unwrap();
        if i % 10 == 9 {
            svc.advance_clock(500_000.0);
        }
    }
    let stats = StatsService::new(&svc.ledger(), sink);
    (stats.rows().to_vec(), stats.report(10))
}

#[test]
fn ledger_and_stats_are_bit_identical_across_thread_counts() {
    let (rows1, report1) = run(1, true);
    for threads in [2, 8] {
        let (rows, report) = run(threads, true);
        assert_eq!(rows, rows1, "ledger rows differ at {threads} threads");
        assert_eq!(report, report1, "stats report differs at {threads} threads");
        assert_eq!(
            report.to_json().unwrap(),
            report1.to_json().unwrap(),
            "serialized sidecar differs at {threads} threads"
        );
    }
    // How a statement was answered rides its outcome, not the sink: the
    // ledger (and the summary folded from it) is the same with
    // recording off. The report's counter table is the sink's own.
    let (rows_noop, report_noop) = run(1, false);
    assert_eq!(rows_noop, rows1, "ledger rows differ with recording off");
    assert_eq!(report_noop.summary, report1.summary);
    // The workload actually exercised the interesting paths.
    assert!(report1.summary.total_retries > 0, "retries ledgered");
    assert!(report1.summary.rejected_rate > 0, "rate limiting fired");
    assert!(
        rows1.iter().any(|r| r.source == "partial"),
        "partial answers ledgered"
    );
    assert!(
        rows1
            .iter()
            .any(|r| r.cache_class == "exact" || r.cache_class == "containment"),
        "cache hits ledgered"
    );
}

/// Arbitrary ledger rows for the fold property: every disposition,
/// varied tenants/aggregates, bounded finite costs.
fn row_strategy() -> impl Strategy<Value = LedgerRow> {
    (
        (0..4u8, 0..3u8, 0..3u8),
        (0.0..1e6f64, 0.0..1e4f64, 0.0..1e7f64, 0.0..1.0f64),
        (0..5u64, 0..5u64, 0..3u64),
    )
        .prop_map(
            |(
                (disp, tenant, agg),
                (sim_time, money, wall, frac),
                (retries, failovers, unavailable),
            )| {
                let disposition = match disp {
                    0 => Disposition::Answered,
                    1 => Disposition::RejectedBudget,
                    2 => Disposition::RejectedRate,
                    _ => Disposition::Failed,
                };
                let answered = disposition == Disposition::Answered;
                LedgerRow {
                    seq: 0, // re-assigned by the caller
                    tenant: ["a", "b", "c"][tenant as usize].to_string(),
                    aggregate: ["count", "sum", "mean"][agg as usize].to_string(),
                    disposition,
                    source: if answered {
                        "exact".to_string()
                    } else {
                        String::new()
                    },
                    sim_time_us: sim_time,
                    money: if answered { money } else { 0.0 },
                    wall_us: if answered { wall } else { 0.0 },
                    answered_fraction: if answered { frac } else { 0.0 },
                    nodes_unavailable: unavailable,
                    retries,
                    failovers,
                    cache_class: "none".to_string(),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The summary is exactly the fold of the rows it selects: counts
    /// by disposition, summed money/wall/retries/failovers, and means
    /// over answered rows.
    #[test]
    fn summary_equals_fold_of_rows(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let ledger = Arc::new(QueryLedger::default());
        for (seq, mut row) in rows.clone().into_iter().enumerate() {
            row.seq = seq as u64;
            ledger.append(row);
        }
        let stats = StatsService::new(&ledger, TelemetrySink::noop());
        let s = stats.summary(&StatsFilter::default());

        let count = |d: Disposition| rows.iter().filter(|r| r.disposition == d).count() as u64;
        prop_assert_eq!(s.queries, rows.len() as u64);
        prop_assert_eq!(s.answered, count(Disposition::Answered));
        prop_assert_eq!(s.rejected_budget, count(Disposition::RejectedBudget));
        prop_assert_eq!(s.rejected_rate, count(Disposition::RejectedRate));
        prop_assert_eq!(s.failed, count(Disposition::Failed));
        let money: f64 = rows.iter().map(|r| r.money).sum();
        let wall: f64 = rows.iter().map(|r| r.wall_us).sum();
        prop_assert!((s.total_money - money).abs() <= 1e-9 * money.max(1.0));
        prop_assert!((s.total_wall_us - wall).abs() <= 1e-9 * wall.max(1.0));
        prop_assert_eq!(s.total_retries, rows.iter().map(|r| r.retries).sum::<u64>());
        prop_assert_eq!(s.total_failovers, rows.iter().map(|r| r.failovers).sum::<u64>());
        if s.answered > 0 {
            let wall_answered: f64 = rows
                .iter()
                .filter(|r| r.disposition == Disposition::Answered)
                .map(|r| r.wall_us)
                .sum();
            let expect = wall_answered / s.answered as f64;
            prop_assert!((s.mean_wall_us - expect).abs() <= 1e-9 * expect.max(1.0));
        } else {
            prop_assert_eq!(s.mean_wall_us, 0.0);
        }

        // The breakdown is a partition: cell counts and money re-sum to
        // the summary's.
        let cells = stats.breakdown(&StatsFilter::default());
        prop_assert_eq!(cells.iter().map(|c| c.queries).sum::<u64>(), s.queries);
        let cell_money: f64 = cells.iter().map(|c| c.money).sum();
        prop_assert!((cell_money - money).abs() <= 1e-9 * money.max(1.0));
    }
}
