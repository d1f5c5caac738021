//! End-to-end behavior of the serving + read paths: admission control
//! (budgets and token buckets on simulated time), ledger provenance,
//! and the stats API's filtering / breakdown / top-N contracts.

use std::sync::Arc;

use sea_cache::{CacheConfig, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, Record, Rect, Region};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_query::{Executor, RetryPolicy};
use sea_service::{Disposition, QueryService, SloPolicy, StatsFilter, StatsService, TenantConfig};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;

fn build_cluster() -> StorageCluster {
    let mut c = StorageCluster::new(4, 64);
    let records: Vec<Record> = (0..2000)
        .map(|i| Record::new(i as u64, vec![(i % 100) as f64, (i % 7) as f64]))
        .collect();
    c.load_table("t", records, Partitioning::Hash).unwrap();
    c
}

fn count_query(lo: f64, hi: f64) -> AnalyticalQuery {
    AnalyticalQuery::new(
        Region::Range(Rect::new(vec![lo, 0.0], vec![hi, 7.0]).unwrap()),
        AggregateKind::Count,
    )
}

#[test]
fn unknown_tenant_is_an_error_but_failed_queries_are_not() {
    let cluster = build_cluster();
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant("a", TenantConfig::default()).unwrap();
    assert!(svc.submit("ghost", &count_query(0.0, 10.0)).is_err());
    // Mean over an empty selection fails in execution: ledgered, not
    // returned as Err.
    let empty_mean = AnalyticalQuery::new(
        Region::Range(Rect::new(vec![200.0, 0.0], vec![210.0, 7.0]).unwrap()),
        AggregateKind::Mean { dim: 0 },
    );
    let out = svc.submit("a", &empty_mean).unwrap();
    assert_eq!(out.disposition, Disposition::Failed);
    assert!(out.answer.is_none());
    assert_eq!(svc.tenant_usage("a").unwrap().failed, 1);
}

#[test]
fn duplicate_registration_is_rejected() {
    let cluster = build_cluster();
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant("a", TenantConfig::default()).unwrap();
    assert!(svc.register_tenant("a", TenantConfig::default()).is_err());
}

#[test]
fn budget_caps_spend_with_at_most_one_query_overshoot() {
    let cluster = build_cluster();
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    // Find one query's cost, then give the tenant ~2.5 queries of budget.
    svc.register_tenant("probe", TenantConfig::default())
        .unwrap();
    let per_query = svc
        .submit("probe", &count_query(0.0, 50.0))
        .unwrap()
        .row
        .money;
    assert!(per_query > 0.0);
    svc.register_tenant(
        "capped",
        TenantConfig {
            money_budget: Some(2.5 * per_query),
            ..TenantConfig::default()
        },
    )
    .unwrap();
    let mut answered = 0;
    let mut rejected = 0;
    for _ in 0..10 {
        match svc
            .submit("capped", &count_query(0.0, 50.0))
            .unwrap()
            .disposition
        {
            Disposition::Answered => answered += 1,
            Disposition::RejectedBudget => rejected += 1,
            d => panic!("unexpected disposition {d:?}"),
        }
    }
    assert_eq!(
        answered, 3,
        "2.5-query budget admits exactly 3 (overshoot ≤ 1)"
    );
    assert_eq!(rejected, 7);
    let usage = svc.tenant_usage("capped").unwrap();
    assert!(usage.money <= 3.0 * per_query + 1e-9);
    assert!(usage.money >= 2.5 * per_query);
}

#[test]
fn token_bucket_refills_on_simulated_time_only() {
    let cluster = build_cluster();
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant(
        "paced",
        TenantConfig {
            rate_per_sec: Some(1.0),
            burst: 2.0,
            ..TenantConfig::default()
        },
    )
    .unwrap();
    let q = count_query(0.0, 30.0);
    // Burst of 2 admits two back-to-back queries; queries themselves
    // advance the clock far less than a simulated second.
    assert_eq!(
        svc.submit("paced", &q).unwrap().disposition,
        Disposition::Answered
    );
    assert_eq!(
        svc.submit("paced", &q).unwrap().disposition,
        Disposition::Answered
    );
    assert_eq!(
        svc.submit("paced", &q).unwrap().disposition,
        Disposition::RejectedRate
    );
    // One simulated second refills one token.
    svc.advance_clock(1_000_000.0);
    assert_eq!(
        svc.submit("paced", &q).unwrap().disposition,
        Disposition::Answered
    );
    assert_eq!(
        svc.submit("paced", &q).unwrap().disposition,
        Disposition::RejectedRate
    );
    let usage = svc.tenant_usage("paced").unwrap();
    assert_eq!(usage.answered, 3);
    assert_eq!(usage.rejected_rate, 2);
}

#[test]
fn pipeline_tenant_records_provenance_and_cache_class() {
    let cluster = build_cluster();
    let sink = TelemetrySink::noop();
    let cache = Arc::new(
        SemanticCache::new(CacheConfig {
            admit_min_cost_us: 0.0,
            ..CacheConfig::default()
        })
        .with_telemetry(sink.clone()),
    );
    let pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)
        .unwrap()
        .with_cache(Arc::clone(&cache));
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant_with_pipeline("ml", TenantConfig::default(), pipe)
        .unwrap();
    let q = count_query(10.0, 40.0);
    let first = svc.submit("ml", &q).unwrap();
    assert_eq!(first.disposition, Disposition::Answered);
    assert_eq!(
        first.row.source, "exact",
        "untrained agent executes exactly"
    );
    assert_eq!(first.row.cache_class, "miss", "cold cache misses");
    let second = svc.submit("ml", &q).unwrap();
    assert_eq!(
        second.row.source, "cached",
        "repeat hits the semantic cache"
    );
    assert_eq!(second.row.cache_class, "exact");
    assert_eq!(second.answer, first.answer, "cache is transparent");
    assert!(
        second.row.wall_us < first.row.wall_us,
        "cache hit is cheaper: {} vs {}",
        second.row.wall_us,
        first.row.wall_us
    );
}

#[test]
fn degraded_fallback_is_ledgered_as_a_free_answer_that_trains_nothing() {
    // Train over a healthy cluster. Threshold 0 keeps every statement on
    // the exact path while the agent still produces predictions.
    let healthy = build_cluster();
    let sink = TelemetrySink::recording();
    let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.0, ExecMode::Direct)
        .unwrap()
        .with_degraded_fallback(true)
        .with_telemetry(sink.clone());
    let exec = Executor::new(&healthy);
    for i in 0..40 {
        pipe.process(&exec, &count_query(10.0, 40.0 + f64::from(i % 10)))
            .unwrap();
    }
    let trained = pipe.agent().stats().training_queries;
    assert_eq!(sink.counter_value("core.agent.train_total"), trained);

    // The serving cluster is one unreplicated node, and it is down:
    // exact execution cannot succeed.
    let mut down = StorageCluster::new(1, 64);
    down.load_table("t", healthy.all_records("t").unwrap(), Partitioning::Hash)
        .unwrap();
    down.fail_node(0).unwrap();
    let mut svc = QueryService::new(Executor::new(&down), "t");
    let config = TenantConfig {
        slo: Some(SloPolicy::new(f64::INFINITY, 0.0)),
        ..TenantConfig::default()
    };
    svc.register_tenant_with_pipeline("ml", config, pipe)
        .unwrap();

    let out = svc.submit("ml", &count_query(10.0, 44.0)).unwrap();
    assert_eq!(out.disposition, Disposition::Answered);
    assert!(out.answer.is_some(), "the model's answer is served");
    assert_eq!(out.row.source, "degraded");
    assert_eq!(out.row.money, 0.0, "no base data was read");
    assert_eq!(
        sink.counter_value("core.agent.train_total"),
        trained,
        "a degraded answer never trains the agent"
    );
    let slo = svc.tenant_slo_status("ml").unwrap();
    assert_eq!((slo.good, slo.bad), (1, 0), "the SLO tracker saw it");
}

#[test]
fn faulty_partial_answers_surface_as_partial_source_with_retries() {
    let mut cluster = build_cluster();
    let sink = TelemetrySink::recording();
    cluster.set_telemetry(sink.clone());
    cluster.set_fault_plan(FaultPlan::new(97).with_transient(0.3, 1).with_crash(1, 5));
    let exec = Executor::new(&cluster)
        .with_retry_policy(RetryPolicy {
            max_retries: 2,
            backoff_base_us: 1_000,
        })
        .with_partial_answers(true);
    let mut svc = QueryService::new(exec, "t");
    svc.register_tenant("a", TenantConfig::default()).unwrap();
    let mut partials = 0;
    let mut retries = 0;
    for i in 0..20 {
        let lo = f64::from(i) * 2.0;
        let out = svc.submit("a", &count_query(lo, lo + 40.0)).unwrap();
        assert_eq!(out.disposition, Disposition::Answered);
        if out.row.source == "partial" {
            partials += 1;
            assert!(out.row.answered_fraction < 1.0);
            assert!(out.row.nodes_unavailable > 0);
        }
        retries += out.row.retries;
    }
    assert!(
        partials > 0,
        "crashed node degrades some answers to partial"
    );
    assert!(retries > 0, "transient faults cost ledgered retries");
    let stats = StatsService::new(&svc.ledger(), sink);
    let summary = stats.summary(&StatsFilter::default());
    assert_eq!(summary.total_retries, retries);
    assert!(summary.mean_answered_fraction < 1.0);
}

#[test]
fn stats_filters_breakdown_and_top_n_are_consistent() {
    let cluster = build_cluster();
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant("a", TenantConfig::default()).unwrap();
    svc.register_tenant("b", TenantConfig::default()).unwrap();
    for i in 0..6 {
        let tenant = if i % 2 == 0 { "a" } else { "b" };
        let width = 10.0 + f64::from(i) * 12.0; // widening → increasing cost
        svc.submit(tenant, &count_query(0.0, width)).unwrap();
        let sum = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![0.0, 0.0], vec![width, 7.0]).unwrap()),
            AggregateKind::Sum { dim: 1 },
        );
        svc.submit(tenant, &sum).unwrap();
    }
    let stats = StatsService::new(&svc.ledger(), TelemetrySink::noop());

    // Tenant filter partitions the summary.
    let all = stats.summary(&StatsFilter::default());
    let only_a = stats.summary(&StatsFilter {
        tenant: Some("a".to_string()),
        ..StatsFilter::default()
    });
    let only_b = stats.summary(&StatsFilter {
        tenant: Some("b".to_string()),
        ..StatsFilter::default()
    });
    assert_eq!(all.queries, 12);
    assert_eq!(only_a.queries + only_b.queries, all.queries);
    assert!((only_a.total_money + only_b.total_money - all.total_money).abs() < 1e-9);

    // Seq window is inclusive on both ends.
    let window = stats.summary(&StatsFilter {
        seq: Some((2, 5)),
        ..StatsFilter::default()
    });
    assert_eq!(window.queries, 4);

    // Sim-time window starting after the first row's admission excludes it.
    let first_time = stats.rows()[1].sim_time_us;
    let late = stats.summary(&StatsFilter {
        sim_time_us: Some((first_time, f64::INFINITY)),
        ..StatsFilter::default()
    });
    assert_eq!(late.queries, all.queries - 1);

    // Breakdown cells cover every row exactly once and are sorted.
    let cells = stats.breakdown(&StatsFilter::default());
    let covered: u64 = cells.iter().map(|c| c.queries).sum();
    assert_eq!(covered, all.queries);
    let keys: Vec<_> = cells
        .iter()
        .map(|c| (c.tenant.clone(), c.aggregate.clone(), c.source.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "breakdown is deterministically ordered");
    assert!(cells.iter().any(|c| c.aggregate == "sum"));
    assert!(cells.iter().any(|c| c.aggregate == "count"));

    // Top-N is sorted by money descending and bounded by N.
    let top = stats.top_expensive(3, &StatsFilter::default());
    assert_eq!(top.len(), 3);
    assert!(top[0].money >= top[1].money && top[1].money >= top[2].money);
    let max_money = stats
        .rows()
        .iter()
        .map(|r| r.money)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(top[0].money, max_money);

    // Report serializes and carries all sections.
    let report = stats.report(3);
    let json = report.to_json().unwrap();
    assert!(json.contains("\"summary\""));
    assert!(json.contains("\"breakdown\""));
    assert!(json.contains("\"top_expensive\""));
}

#[test]
fn top_expensive_breaks_cost_ties_by_submission_order() {
    let cluster = build_cluster();
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    for t in ["a", "b"] {
        svc.register_tenant(t, TenantConfig::default()).unwrap();
    }
    // The identical query from alternating tenants: every answered row
    // carries exactly the same simulated money.
    let q = count_query(0.0, 40.0);
    for i in 0..6 {
        svc.submit(["a", "b"][i % 2], &q).unwrap();
    }
    let stats = StatsService::new(&svc.ledger(), TelemetrySink::noop());
    let top = stats.top_expensive(6, &StatsFilter::default());
    assert_eq!(top.len(), 6);
    let money: Vec<f64> = top.iter().map(|r| r.money).collect();
    assert!(
        money.windows(2).all(|w| w[0] == w[1]),
        "fixture requires equal costs, got {money:?}"
    );
    // Equal-cost rows come back in submission (seq) order — a total
    // order, so the sidecar JSON is bit-stable run to run.
    let seqs: Vec<u64> = top.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    // And a smaller N takes the earliest-submitted of the tied rows.
    let top2 = stats.top_expensive(2, &StatsFilter::default());
    assert_eq!(top2.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1]);
}

#[test]
fn slo_burn_rate_alert_raises_and_lands_in_log_and_telemetry() {
    let cluster = build_cluster();
    let sink = TelemetrySink::recording();
    let mut exec_cluster = cluster;
    exec_cluster.set_telemetry(sink.clone());
    let mut svc = QueryService::new(Executor::new(&exec_cluster), "t");
    // `strict` can never meet its latency objective; `lax` always does.
    svc.register_tenant(
        "strict",
        TenantConfig {
            slo: Some(SloPolicy::new(0.001, 1.0)),
            ..TenantConfig::default()
        },
    )
    .unwrap();
    svc.register_tenant(
        "lax",
        TenantConfig {
            slo: Some(SloPolicy::new(f64::INFINITY, 0.0)),
            ..TenantConfig::default()
        },
    )
    .unwrap();
    let q = count_query(0.0, 40.0);
    for _ in 0..5 {
        svc.submit("strict", &q).unwrap();
        svc.submit("lax", &q).unwrap();
    }
    // All-bad traffic burns at 1 / the 1% budget = 100× — far over both
    // thresholds — so the alert raises on the first served request and
    // stays latched: exactly one transition.
    let alerts = svc.alert_log().snapshot();
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].tenant, "strict");
    assert!(alerts[0].raised);
    assert!(alerts[0].fast_burn >= 14.4 && alerts[0].slow_burn >= 6.0);
    assert_eq!(alerts[0].seq, 0);
    let strict = svc.tenant_slo_status("strict").unwrap();
    assert!(strict.alerting);
    assert_eq!(strict.bad, 5);
    let lax = svc.tenant_slo_status("lax").unwrap();
    assert!(!lax.alerting);
    assert_eq!((lax.good, lax.bad), (5, 0));
    assert!(svc.tenant_slo_status("ghost").is_none());
    // The transition is also visible as telemetry.
    let snap = sink.snapshot().unwrap();
    assert_eq!(snap.counter("watch.alerts"), 1);
    assert_eq!(snap.event_count("watch.alert"), 1);
}
