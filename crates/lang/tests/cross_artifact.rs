//! One statement, one story: the ledger row a statement leaves must say
//! what its span tree, the `query.retries` / `query.failovers` counters
//! and the cache's own statistics say, statement by statement.
//!
//! The row is filled from the provenance its outcome carries; the three
//! other artifacts are recorded independently where the facts happen
//! (the probe's span, the telemetry replay's node spans and counters,
//! the cache's lookup). This is the only place left that subtracts
//! counters and cache statistics around a statement — as a check, not
//! as the source.
//!
//! The script runs through [`submit_statement`] over a replicated
//! cluster whose fault plan injects transient faults throughout, crashes
//! node 1 (its partition fails over to the replica on node 2) and later
//! node 2 (partition 1 is then out of reach: partial answers). Which
//! statement meets which fault is the plan's business; the test checks
//! every row and, at the end, that every kind of row occurred.

use std::collections::BTreeSet;
use std::sync::Arc;

use sea_cache::{CacheConfig, CacheStats, SemanticCache};
use sea_common::Record;
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_lang::submit_statement;
use sea_query::{Executor, RetryPolicy};
use sea_service::{Disposition, LedgerRow, QueryService, TenantConfig};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::{FieldValue, SpanNode, TelemetrySink};

/// `count()` over the square `[lo, hi]²`.
fn count_in(lo: f64, hi: f64) -> String {
    format!("SELECT count() WHERE d0 IN [{lo:.1}, {hi:.1}] AND d1 IN [{lo:.1}, {hi:.1}]")
}

/// (tenant, statement): `ml` answers through a pipeline with a cache,
/// `plain` and the rate-limited `paced` through the shared executor.
fn script() -> Vec<(&'static str, String)> {
    let mut script = vec![
        ("ml", count_in(62.0, 98.0)), // miss
        ("ml", count_in(62.0, 98.0)), // exact hit
        ("ml", count_in(70.0, 90.0)), // containment hit
        // No row of the table is there: the merge fails.
        (
            "plain",
            "SELECT max(d0) WHERE d0 IN [200.0, 300.0]".to_string(),
        ),
        ("paced", count_in(10.0, 20.0)),
        ("paced", count_in(10.0, 20.0)), // no token left
    ];
    // A hotspot session of growing squares, none inside an earlier one:
    // `ml` misses and trains until it predicts; every `plain` statement
    // scans, driving the nodes' operation counters past both crashes.
    for i in 0..90 {
        let half = 3.0 + f64::from(i) * 0.08;
        let tenant = if i % 2 == 0 { "ml" } else { "plain" };
        script.push((tenant, count_in(50.0 - half, 50.0 + half)));
    }
    script
}

fn walk<'a>(node: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
    out.push(node);
    for child in &node.children {
        walk(child, out);
    }
}

fn str_tag<'a>(node: &'a SpanNode, key: &str) -> Option<&'a str> {
    match node.tag(key) {
        Some(FieldValue::Str(s)) => Some(s),
        _ => None,
    }
}

/// What one statement's span tree says about how it was answered.
#[derive(Debug, PartialEq)]
struct Story {
    source: String,
    cache_class: String,
    retries: u64,
    failovers: u64,
    wall_us: f64,
}

/// `cached`: whether the tenant's path probes a cache (a probe that
/// misses leaves no span).
fn story_of(root: &SpanNode, cached: bool) -> Story {
    let mut spans = Vec::new();
    walk(root, &mut spans);
    let named = |name: &str| spans.iter().find(|s| s.name == name);
    let nodes: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "query.executor.node")
        .collect();
    let hit = named("query.executor.cache");
    let cache_class = match hit {
        Some(span) => str_tag(span, "class").expect("a hit names its class"),
        None if cached => "miss",
        None => "none",
    };
    let source = if nodes.iter().any(|n| n.tag("unavailable").is_some()) {
        "partial"
    } else if hit.is_some() {
        "cached"
    } else {
        // The pipeline names its branch; a bare executor scan is exact.
        str_tag(root, "branch").unwrap_or("exact")
    };
    // The bill: a hit's is on its span; a scan's is the coordinator's
    // fan-out and merge plus the slowest node; a prediction has none.
    let wall_us = match (hit, named("query.executor.scatter")) {
        (Some(hit), _) => hit.sim_us,
        (None, Some(scatter)) => {
            let gather = named("query.executor.gather").expect("a scan gathers");
            let Some(FieldValue::F64(makespan)) = scatter.tag("sim_makespan_us") else {
                panic!("scatter carries its makespan");
            };
            (scatter.sim_us + gather.sim_us) + makespan
        }
        (None, None) => 0.0,
    };
    Story {
        source: source.to_string(),
        cache_class: cache_class.to_string(),
        retries: nodes
            .iter()
            .map(|n| match n.tag("retries") {
                Some(FieldValue::U64(r)) => *r,
                _ => 0,
            })
            .sum(),
        failovers: nodes.iter().filter(|n| n.tag("failover").is_some()).count() as u64,
        wall_us,
    }
}

/// The class the cache's own statistics give the lookup between two
/// snapshots (`none`: it was not consulted).
fn class_of(before: CacheStats, after: CacheStats) -> &'static str {
    if after.hits > before.hits {
        "exact"
    } else if after.containment_hits > before.containment_hits {
        "containment"
    } else if after.misses > before.misses {
        "miss"
    } else {
        "none"
    }
}

#[test]
fn ledger_row_span_tree_counters_and_cache_stats_tell_one_story() {
    let mut cluster = StorageCluster::with_replication(4, 128);
    let records: Vec<Record> = (0..10_000)
        .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
        .collect();
    cluster
        .load_table("t", records, Partitioning::Hash)
        .unwrap();
    let sink = TelemetrySink::recording();
    cluster.set_telemetry(sink.clone());
    cluster.set_fault_plan(
        FaultPlan::new(5)
            .with_transient(0.08, 1)
            .with_crash(1, 15)
            .with_crash(2, 35),
    );
    let exec = Executor::new(&cluster)
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
        .with_cache(Arc::clone(&cache))
        .with_telemetry(sink.clone());
    let mut svc = QueryService::new(exec, "t");
    svc.register_tenant_with_pipeline("ml", TenantConfig::default(), pipe)
        .unwrap();
    svc.register_tenant("plain", TenantConfig::default())
        .unwrap();
    let paced = TenantConfig {
        rate_per_sec: Some(1.0),
        ..TenantConfig::default()
    };
    svc.register_tenant("paced", paced).unwrap();

    let faults = |sink: &TelemetrySink| {
        (
            sink.counter_value("query.retries"),
            sink.counter_value("query.failovers"),
        )
    };
    let mut seen = BTreeSet::new();
    let mut roots_before = 0;
    for (i, (tenant, text)) in script().iter().enumerate() {
        let (faults_before, stats_before) = (faults(&sink), cache.stats());
        let (_, outcomes) = submit_statement(&mut svc, tenant, text).unwrap();
        let [out] = outcomes.as_slice() else {
            panic!("one aggregate, one submission");
        };
        let row: &LedgerRow = &out.row;
        let snapshot = sink.snapshot().unwrap().spans;
        assert_eq!((snapshot.dropped_roots, snapshot.open_spans), (0, 0));
        let roots = &snapshot.roots[roots_before..];
        roots_before = snapshot.roots.len();
        let faults_after = faults(&sink);
        let counted = (
            faults_after.0 - faults_before.0,
            faults_after.1 - faults_before.1,
        );
        let stats_class = class_of(stats_before, cache.stats());
        let ctx = format!("statement {i} ({tenant}): {text}");

        let told = Story {
            source: row.source.clone(),
            cache_class: row.cache_class.clone(),
            retries: row.retries,
            failovers: row.failovers,
            wall_us: row.wall_us,
        };
        match row.disposition {
            Disposition::Answered => {
                let [root] = roots else {
                    panic!("{ctx}: one span tree, got {}", roots.len());
                };
                assert_eq!(told, story_of(root, *tenant == "ml"), "{ctx}");
                assert_eq!((row.retries, row.failovers), counted, "{ctx}");
                assert_eq!(row.cache_class, stats_class, "{ctx}");
                if root.name == "core.pipeline.process" {
                    assert_eq!(root.sim_us, row.wall_us, "{ctx}");
                }
                seen.insert(format!("source {}", row.source));
                seen.insert(format!("class {}", row.cache_class));
                if row.retries > 0 {
                    seen.insert("retried".to_string());
                }
                if row.failovers > 0 {
                    seen.insert("failed over".to_string());
                }
            }
            // An error returns no outcome, a rejection never ran: the
            // zero row, whatever the statement's scans went through
            // before it failed.
            disposition => {
                let zero = Story {
                    source: String::new(),
                    cache_class: "none".to_string(),
                    retries: 0,
                    failovers: 0,
                    wall_us: 0.0,
                };
                assert_eq!(told, zero, "{ctx}");
                let ran = disposition == Disposition::Failed;
                assert_eq!(roots.len(), usize::from(ran), "{ctx}");
                seen.insert(disposition.label().to_string());
            }
        }
    }
    let want = [
        "class containment",
        "class exact",
        "class miss",
        "class none",
        "failed",
        "failed over",
        "rejected_rate",
        "retried",
        "source cached",
        "source exact",
        "source partial",
        "source predicted",
    ];
    assert_eq!(seen.iter().map(String::as_str).collect::<Vec<_>>(), want);
}
