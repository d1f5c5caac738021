//! Integration tests for the planner: lowered statements must be
//! bit-identical to hand-constructing the same [`AnalyticalQuery`]
//! values against the same executor — the front end adds a surface, not
//! semantics.

use sea_cache::{CacheConfig, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, CostMeter, Record, Rect, Region};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_lang::{parse, submit_statement, Frontend, ModeHint};
use sea_query::Executor;
use sea_service::{QueryService, TenantConfig};
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::{SpanNode, TelemetrySink};

/// 2-D grid over [0, 100)²: d0 = i % 100, d1 = i / 100.
fn cluster() -> StorageCluster {
    let mut cluster = StorageCluster::new(4, 128);
    let records: Vec<Record> = (0..10_000)
        .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
        .collect();
    cluster
        .load_table("t", records, Partitioning::Hash)
        .unwrap();
    cluster
}

fn assert_bits_eq(a: &AnswerValue, b: &AnswerValue) {
    match (a, b) {
        (AnswerValue::Scalar(x), AnswerValue::Scalar(y)) => assert_eq!(x.to_bits(), y.to_bits()),
        (AnswerValue::Pair(x0, x1), AnswerValue::Pair(y0, y1)) => {
            assert_eq!(x0.to_bits(), y0.to_bits());
            assert_eq!(x1.to_bits(), y1.to_bits());
        }
        _ => panic!("answer shape mismatch: {a:?} vs {b:?}"),
    }
}

#[test]
fn multi_aggregate_statement_is_bit_identical_to_hand_built_batch() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t").unwrap();
    let out = front
        .run("SELECT count(), mean(d0), p95(d1) WHERE d0 IN [20.0, 60.0] AND d1 IN [10.0, 30.0]")
        .unwrap();

    let region = Region::Range(Rect::new(vec![20.0, 10.0], vec![60.0, 30.0]).unwrap());
    let hand: Vec<AnalyticalQuery> = [
        AggregateKind::Count,
        AggregateKind::Mean { dim: 0 },
        AggregateKind::Quantile { dim: 1, q: 0.95 },
    ]
    .into_iter()
    .map(|k| AnalyticalQuery::new(region.clone(), k))
    .collect();
    let exec = Executor::new(&cluster);
    let hand_out: Vec<_> = exec
        .execute_batch("t", &hand)
        .into_iter()
        .collect::<sea_common::Result<_>>()
        .unwrap();

    assert_eq!(out.results.len(), 3);
    for (r, h) in out.results.iter().zip(&hand_out) {
        assert_eq!(r.source, "exact");
        assert_bits_eq(&r.answer, &h.answer);
        assert_eq!(r.cost.wall_us.to_bits(), h.cost.wall_us.to_bits());
        assert_eq!(r.cost.money.to_bits(), h.cost.money.to_bits());
        assert_eq!(
            r.cost.answered_fraction.to_bits(),
            h.cost.answered_fraction.to_bits()
        );
    }
}

#[test]
fn single_aggregate_statement_matches_direct_execution() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t").unwrap();
    let out = front
        .run("SELECT sum(d1) WHERE WITHIN BALL((50.0, 50.0), 12.5)")
        .unwrap();

    let q = AnalyticalQuery::new(
        Region::Radius(
            sea_common::Ball::new(sea_common::Point::new(vec![50.0, 50.0]), 12.5).unwrap(),
        ),
        AggregateKind::Sum { dim: 1 },
    );
    let hand = Executor::new(&cluster).execute_direct("t", &q).unwrap();
    assert_bits_eq(&out.results[0].answer, &hand.answer);
    assert_eq!(
        out.results[0].cost.wall_us.to_bits(),
        hand.cost.wall_us.to_bits()
    );
}

#[test]
fn unconstrained_statement_spans_the_inferred_domain() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t").unwrap();
    // Data bounding box is [0,99]² so a bare count sees every record.
    assert_eq!(front.schema().domain().lo(), &[0.0, 0.0][..]);
    assert_eq!(front.schema().domain().hi(), &[99.0, 99.0][..]);
    let out = front.run("SELECT count()").unwrap();
    assert_eq!(out.results[0].answer, AnswerValue::Scalar(10_000.0));
}

#[test]
fn engines_pick_a_path_and_preserve_answers() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t")
        .unwrap()
        .with_engines(10)
        .unwrap();
    // Narrow box: the grid index should win; answer must still be exact.
    let narrow = front
        .run("SELECT count() WHERE d0 IN [4.0, 6.0] AND d1 IN [4.0, 6.0]")
        .unwrap();
    assert_eq!(narrow.results[0].answer, AnswerValue::Scalar(9.0));
    assert!(narrow.results[0].strategy.is_some());
    // Wide box: the scan should win.
    let wide = front.run("SELECT count()").unwrap();
    assert_eq!(wide.results[0].answer, AnswerValue::Scalar(10_000.0));
    assert_eq!(
        wide.results[0].strategy,
        Some(sea_operators::QueryStrategy::ScanAggregate)
    );
}

#[test]
fn engine_scans_run_on_the_front_ends_executor() {
    // A scan-chosen statement must show up in the sink the front end's
    // executor was given, not in a private executor's.
    let cluster = cluster();
    let sink = TelemetrySink::recording();
    let exec = Executor::new(&cluster).with_telemetry(sink.clone());
    let mut front = Frontend::new(exec, "t").unwrap().with_engines(10).unwrap();
    let wide = front.run("SELECT count()").unwrap();
    assert_eq!(
        wide.results[0].strategy,
        Some(sea_operators::QueryStrategy::ScanAggregate)
    );
    // The index build is a billed scan on the same executor: its span
    // first, one node per partition, carrying the build's bill; then the
    // statement.
    let roots = sink.snapshot().unwrap().spans.roots;
    let names: Vec<&str> = roots.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["optimizer.engines.build", "query.executor.direct"]);
    let build = &roots[0];
    let nodes: Vec<_> = build.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(nodes, vec!["query.executor.node"; cluster.num_nodes()]);
    let pass = Executor::new(&cluster).scatter("t", None, ExecMode::Direct, |_, _, _| Ok(()));
    let bill = pass.unwrap().report(&CostMeter::new());
    assert_eq!(build.sim_us.to_bits(), bill.wall_us.to_bits());
}

#[test]
fn a_statement_the_executors_cache_answers_is_labelled_cached() {
    let cluster = cluster();
    let cache = SemanticCache::new(CacheConfig {
        admit_min_cost_us: 0.0,
        ..CacheConfig::default()
    });
    let stmt = "SELECT mean(d0) WHERE d0 IN [20.0, 60.0] AND d1 IN [10.0, 30.0] EXPLAIN";
    let plain = Frontend::new(Executor::new(&cluster), "t")
        .unwrap()
        .run(stmt)
        .unwrap();
    let mut front = Frontend::new(Executor::new(&cluster).with_cache(&cache), "t").unwrap();
    // Cold: a miss reads as it does with no cache attached.
    let cold = front.run(stmt).unwrap();
    assert_eq!(cold.results[0].source, "exact");
    assert_eq!(cold.explain, plain.explain);
    assert!(cold.explain.unwrap().contains("path=exact(executor)"));
    // Hot: the same answer, and it says where it came from.
    let hot = front.run(stmt).unwrap();
    assert_eq!(hot.results[0].source, "cached");
    assert_bits_eq(&hot.results[0].answer, &cold.results[0].answer);
    let explain = hot.explain.unwrap();
    assert!(explain.contains("path=cached(executor)"), "{explain}");
    assert!(explain.contains("query.executor.cache class=exact"));
}

/// A span forest as EXPLAIN's trace section draws it, tags aside:
/// depth, name and rolled-up simulated time, one span a line.
fn drawn(nodes: &[SpanNode], depth: usize, out: &mut Vec<(usize, String, String)>) {
    for n in nodes {
        let sim = format!("sim_us={:.1}", n.sim_us_total());
        out.push((depth, n.name.clone(), sim));
        drawn(&n.children, depth + 1, out);
    }
}

/// `EXPLAIN` must not change what a statement does: a multi-aggregate
/// statement over a cache-attached executor probes, admits and hits the
/// same with and without it, and the trace it renders is the forest the
/// plain statement records.
#[test]
fn explain_changes_nothing_about_a_cached_multi_aggregate_statement() {
    let cluster = cluster();
    let stmt = "SELECT count(), mean(d0) WHERE d0 IN [20.0, 60.0] AND d1 IN [10.0, 30.0]";
    // The statement twice over a fresh cache: what each run returned and
    // the forest it drew, then what it left in the cache.
    let arm = |explain: bool| {
        let cache = SemanticCache::new(CacheConfig {
            admit_min_cost_us: 0.0,
            ..CacheConfig::default()
        });
        let sink = TelemetrySink::recording();
        let exec = Executor::new(&cluster)
            .with_cache(&cache)
            .with_telemetry(sink.clone());
        let mut front = Frontend::new(exec, "t").unwrap();
        let runs = [0, 1].map(|run| {
            let suffix = if explain { " EXPLAIN" } else { "" };
            let out = front.run(&format!("{stmt}{suffix}")).unwrap();
            let mut forest = Vec::new();
            match &out.explain {
                Some(report) => {
                    let trace = report.split_once("\ntrace\n").unwrap().1;
                    for line in trace.lines() {
                        let span = line.trim_start();
                        let mut words = span.split(' ');
                        forest.push((
                            (line.len() - span.len()) / 2 - 1,
                            words.next().unwrap().to_string(),
                            words.next_back().unwrap().to_string(),
                        ));
                    }
                }
                None => drawn(&sink.snapshot().unwrap().spans.roots[run..], 0, &mut forest),
            }
            let results: Vec<_> = (out.results.iter())
                .map(|r| (r.source, r.cost, format!("{:?}", r.answer)))
                .collect();
            (results, forest)
        });
        (runs, cache.stats(), cache.len())
    };
    let (plain, explained) = (arm(false), arm(true));
    assert_eq!(plain, explained);
    let ([cold, hot], stats, len) = plain;
    assert!(cold.0.iter().all(|r| r.0 == "exact"), "{cold:?}");
    assert!(hot.0.iter().all(|r| r.0 == "cached"), "{hot:?}");
    assert_eq!(cold.1[0].1, "query.executor.batch");
    assert_eq!((stats.misses, stats.insertions, stats.hits), (2, 2, 2));
    assert_eq!(len, 2);
}

#[test]
fn predict_without_pipeline_is_a_planning_error() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t").unwrap();
    let err = front
        .run("SELECT count() WITH MODE predict")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("WITH MODE predict requires an agent pipeline"),
        "unexpected error: {err}"
    );
}

#[test]
fn predict_serves_the_agents_answer_at_zero_cost() {
    let cluster = cluster();
    let exec = Executor::new(&cluster);
    let mut pipe =
        AgentPipeline::new(2, AgentConfig::default(), "t", 0.5, ExecMode::Direct).unwrap();
    // Train the agent on exact answers so predictions are servable.
    for lo in [10.0, 20.0, 30.0, 40.0] {
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![lo, lo], vec![lo + 20.0, lo + 20.0]).unwrap()),
            AggregateKind::Count,
        );
        let truth = exec.execute_direct("t", &q).unwrap();
        pipe.agent_mut().train(&q, &truth.answer).unwrap();
    }
    let mut front = Frontend::new(Executor::new(&cluster), "t")
        .unwrap()
        .with_pipeline(pipe);
    let out = front
        .run("SELECT count() WHERE d0 IN [25.0, 45.0] AND d1 IN [25.0, 45.0] WITH MODE predict")
        .unwrap();
    assert_eq!(out.results[0].source, "predicted");
    assert_eq!(out.results[0].cost.wall_us, 0.0);
    assert!(out.results[0].answer.as_scalar().unwrap() >= 0.0);
}

#[test]
fn auto_routes_through_the_pipeline() {
    let cluster = cluster();
    let pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct).unwrap();
    let mut front = Frontend::new(Executor::new(&cluster), "t")
        .unwrap()
        .with_pipeline(pipe);
    // Cold agent: the first auto statement executes exactly (and trains).
    let out = front
        .run("SELECT count() WHERE d0 IN [10.0, 50.0] AND d1 IN [10.0, 50.0]")
        .unwrap();
    assert_eq!(out.results[0].answer, AnswerValue::Scalar(1681.0));
    assert!(
        ["exact", "predicted", "cached", "degraded"].contains(&out.results[0].source),
        "unexpected source {}",
        out.results[0].source
    );
    assert_eq!(out.plan.mode, ModeHint::Auto);
}

#[test]
fn tenant_statements_flow_through_the_service() {
    let cluster = cluster();
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant("a", TenantConfig::default()).unwrap();

    let (plan, outcomes) = submit_statement(
        &mut svc,
        "a",
        "SELECT count(), mean(d1) WHERE d0 IN [0.0, 10.0]",
    )
    .unwrap();
    assert_eq!(plan.aggregates.len(), 2);
    assert_eq!(outcomes.len(), 2);

    for stmt in [
        "SELECT count() EXPLAIN",
        "SELECT count() WITH MODE exact",
        "SELECT count() WITH MODE predict",
    ] {
        let err = submit_statement(&mut svc, "a", stmt)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("tenant statements must not carry EXPLAIN or WITH MODE"),
            "unexpected error for {stmt:?}: {err}"
        );
    }
}

#[test]
fn tenant_statements_see_the_domain_as_of_submission() {
    // `submit_statement` lowers against the table's bounding box at the
    // time of the call: an insert that widens the domain between two
    // submissions must widen the second statement's unconstrained
    // dimension too (a stale box would leave the new records out).
    let mut cluster = cluster();
    let stmt = "SELECT count() WHERE d0 IN [0.0, 10.0]";
    let count = |cluster: &StorageCluster| {
        let mut svc = QueryService::new(Executor::new(cluster), "t");
        svc.register_tenant("a", TenantConfig::default()).unwrap();
        let (_, outcomes) = submit_statement(&mut svc, "a", stmt).unwrap();
        outcomes[0].answer.expect("answered")
    };
    // d0 ∈ {0..=10} × d1 ∈ {0..=99}.
    assert_eq!(count(&cluster), AnswerValue::Scalar(1100.0));
    cluster
        .insert(
            "t",
            vec![
                Record::new(20_000, vec![5.0, 250.0]),
                Record::new(20_001, vec![5.0, -40.0]),
            ],
        )
        .unwrap();
    assert_eq!(count(&cluster), AnswerValue::Scalar(1102.0));
    let domain = sea_lang::TableSchema::infer(&cluster, "t").unwrap();
    assert_eq!(domain.domain().lo(), &[0.0, -40.0][..]);
    assert_eq!(domain.domain().hi(), &[99.0, 250.0][..]);
}

#[test]
fn parse_errors_surface_with_their_rendering() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t").unwrap();
    let err = front.run("SELECT frob(d0)").unwrap_err().to_string();
    assert!(err.contains("expected aggregate function, found `frob`"));
    assert!(err.contains("^^^^"), "rendered span missing: {err}");
    // Well-formed statement over a dimension the table lacks: a planning
    // error, not a parse error.
    let err = front.run("SELECT mean(d7)").unwrap_err().to_string();
    assert!(parse("SELECT mean(d7)").is_ok());
    assert!(
        err.contains("out of range") || err.contains("dimension"),
        "{err}"
    );
}
