//! The executor's determinism contract: every observable output —
//! answers, cost reports, recorded telemetry tables — is independent of
//! the [`ExecPool`] thread budget. Host wall-clock is the only thing
//! parallelism is allowed to change.

use proptest::prelude::*;
use sea_common::{AggregateKind, AnalyticalQuery, Ball, ExecMode, Point, Record, Rect, Region};
use sea_query::{ExecPool, Executor};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::{TelemetrySink, TraceContext};

mod support;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn build_cluster(
    n: usize,
    nodes: usize,
    partitioning: Partitioning,
    offset: f64,
) -> StorageCluster {
    let mut c = StorageCluster::new(nodes, 64);
    let records: Vec<Record> = (0..n)
        .map(|i| {
            Record::new(
                i as u64,
                vec![
                    (i % 100) as f64,
                    offset + (i % 7) as f64,
                    ((i * 31) % 53) as f64,
                ],
            )
        })
        .collect();
    c.load_table("t", records, partitioning).unwrap();
    c
}

fn aggregate_by_index(idx: usize) -> AggregateKind {
    match idx {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum { dim: 1 },
        2 => AggregateKind::Mean { dim: 1 },
        3 => AggregateKind::Variance { dim: 1 },
        4 => AggregateKind::Min { dim: 2 },
        5 => AggregateKind::Max { dim: 2 },
        6 => AggregateKind::Median { dim: 0 },
        7 => AggregateKind::Quantile { dim: 0, q: 0.75 },
        8 => AggregateKind::Correlation { x: 0, y: 2 },
        _ => AggregateKind::Regression { x: 0, y: 1 },
    }
}

fn partitioning_by_index(idx: usize) -> Partitioning {
    if idx == 0 {
        Partitioning::Hash
    } else {
        Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(0.0, 100.0, 4),
        }
    }
}

/// Comparable rendering of an execution result: outcomes compare
/// structurally, errors by message.
fn outcome_key(r: &sea_common::Result<sea_query::QueryOutcome>) -> String {
    format!("{r:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outputs_are_identical_across_thread_counts(
        n in 200..700usize,
        agg_idx in 0..10usize,
        part_idx in 0..2usize,
        nodes in 2..7usize,
        lo in 0..40u32,
        width in 5..60u32,
    ) {
        let cluster = build_cluster(n, nodes, partitioning_by_index(part_idx), 0.0);
        let region = Region::Range(
            Rect::new(
                vec![f64::from(lo), 0.0, 0.0],
                vec![f64::from(lo + width), 8.0, 60.0],
            )
            .unwrap(),
        );
        let query = AnalyticalQuery::new(region, aggregate_by_index(agg_idx));
        let baseline_exec = Executor::new(&cluster).with_pool(ExecPool::sequential());
        let bdas0 = outcome_key(&baseline_exec.execute("t", &query, ExecMode::Bdas, &TraceContext::NONE));
        let direct0 = outcome_key(&baseline_exec.execute_direct("t", &query));
        for threads in THREAD_COUNTS {
            let exec = Executor::new(&cluster).with_pool(ExecPool::new(threads));
            prop_assert_eq!(
                &outcome_key(&exec.execute("t", &query, ExecMode::Bdas, &TraceContext::NONE)),
                &bdas0,
                "bdas with {} threads",
                threads
            );
            prop_assert_eq!(
                &outcome_key(&exec.execute_direct("t", &query)),
                &direct0,
                "direct with {} threads",
                threads
            );
        }
    }
}

/// Runs one workload under a recording sink with the given thread
/// budgets — statement `i` on an executor with `budgets[i % len]`, so
/// more than one interleaves them over the process's one set of helper
/// threads — and returns the snapshot with wall-clock scrubbed: six
/// aggregates one query at a time in both regimes, or (`batched`) every
/// one of [`batch_shapes`] as one statement in both regimes.
fn recorded_snapshot(budgets: &[usize], batched: bool) -> sea_telemetry::TelemetrySnapshot {
    let mut cluster = build_cluster(2000, 4, Partitioning::Hash, 0.0);
    let sink = TelemetrySink::recording();
    cluster.set_telemetry(sink.clone());
    let execs: Vec<Executor> = budgets
        .iter()
        .map(|&t| Executor::new(&cluster).with_pool(ExecPool::new(t)))
        .collect();
    if batched {
        for (i, (_, queries)) in batch_shapes().iter().enumerate() {
            let exec = &execs[i % execs.len()];
            sink.begin_query(i as u64);
            // An aggregate undefined on an empty ball is an `Err` at
            // every pool size (`execute_batch_matches_per_query_execution`).
            let _ = exec.execute_batch("t", queries);
            let _ = exec.run("t", queries, ExecMode::Bdas, &TraceContext::NONE);
        }
    } else {
        for agg_idx in 0..6usize {
            let exec = &execs[agg_idx % execs.len()];
            sink.begin_query(agg_idx as u64);
            let q = AnalyticalQuery::new(
                Region::Range(Rect::new(vec![10.0, 0.0, 0.0], vec![70.0, 8.0, 60.0]).unwrap()),
                aggregate_by_index(agg_idx),
            );
            exec.execute("t", &q, ExecMode::Bdas, &TraceContext::NONE)
                .unwrap();
            exec.execute_direct("t", &q).unwrap();
        }
    }
    support::scrubbed(sink.snapshot().unwrap())
}

/// The lone query's recorded tables, pinned from the commit before a
/// statement became a batch of one.
#[test]
fn lone_query_telemetry_matches_the_golden() {
    support::assert_golden(
        "lone_query_telemetry.txt",
        &support::render(&recorded_snapshot(&[1], false)),
    );
}

#[test]
fn recorded_telemetry_tables_are_bit_identical_across_thread_counts() {
    for batched in [false, true] {
        let base = recorded_snapshot(&[1], batched);
        assert!(!base.spans.roots.is_empty());
        assert!(base.counter("storage.node.scans") > 0);
        for budgets in [&[2][..], &[8], &[2, 8]] {
            let snap = recorded_snapshot(budgets, batched);
            let at = format!("{budgets:?} threads, batched {batched}");
            assert_eq!(snap.counters, base.counters, "{at}: counters");
            assert_eq!(snap.histograms, base.histograms, "{at}: histograms");
            assert_eq!(snap.events, base.events, "{at}: events");
            assert_eq!(
                snap.spans, base.spans,
                "{at}: span forest (ids, parents, tags, sim)"
            );
        }
    }
}

/// The batch shapes one gather has to serve: rectangles, balls only,
/// balls mixed with rectangles, one region under many aggregates (the
/// multi-aggregate statement, as a rectangle and as a ball), and a
/// batch of one.
fn batch_shapes() -> Vec<(&'static str, Vec<AnalyticalQuery>)> {
    let rect = |i: usize| {
        let lo = (i % 10) as f64 * 5.0;
        Region::Range(Rect::new(vec![lo, 0.0, 0.0], vec![lo + 20.0, 8.0, 60.0]).unwrap())
    };
    let ball = |i: usize| {
        let center = Point::new(vec![15.0 + (i % 7) as f64 * 11.0, 3.0, 25.0]);
        Region::Radius(Ball::new(center, 6.0 + (i % 4) as f64 * 7.0).unwrap())
    };
    let batch = |n: usize, region: &dyn Fn(usize) -> Region| -> Vec<AnalyticalQuery> {
        (0..n)
            .map(|i| AnalyticalQuery::new(region(i), aggregate_by_index(i % 10)))
            .collect()
    };
    vec![
        ("rectangles", batch(24, &rect)),
        ("balls", batch(12, &ball)),
        (
            "mixed",
            batch(20, &|i| if i % 3 == 0 { ball(i) } else { rect(i) }),
        ),
        ("one rectangle, ten aggregates", batch(10, &|_| rect(3))),
        ("one ball, ten aggregates", batch(10, &|_| ball(2))),
        ("a batch of one", batch(1, &ball)),
    ]
}

#[test]
fn execute_batch_matches_per_query_execution() {
    let healthy = build_cluster(3000, 5, Partitioning::Hash, 0.0);
    let ranged = build_cluster(3000, 5, partitioning_by_index(1), 0.0);
    // A replicated cluster with one primary down: partition 2 is served
    // by its replica, every other one by its primary.
    let mut degraded = StorageCluster::with_replication(5, 64);
    let records = healthy.all_records("t").unwrap();
    degraded
        .load_table("t", records, Partitioning::Hash)
        .unwrap();
    degraded.set_fault_plan(FaultPlan::new(0).with_crash(2, 0));
    for (state, cluster) in [
        ("healthy", &healthy),
        ("range-partitioned", &ranged),
        ("primary down", &degraded),
    ] {
        let sequential = Executor::new(cluster).with_pool(ExecPool::sequential());
        for (shape, queries) in batch_shapes() {
            let direct: Vec<String> = queries
                .iter()
                .map(|q| outcome_key(&sequential.execute_direct("t", q)))
                .collect();
            let bdas: Vec<String> = queries
                .iter()
                .map(|q| {
                    outcome_key(&sequential.execute("t", q, ExecMode::Bdas, &TraceContext::NONE))
                })
                .collect();
            for threads in THREAD_COUNTS {
                let exec = Executor::new(cluster).with_pool(ExecPool::new(threads));
                let batch_direct: Vec<String> = exec
                    .execute_batch("t", &queries)
                    .iter()
                    .map(outcome_key)
                    .collect();
                assert_eq!(
                    batch_direct, direct,
                    "{state}, {shape}, {threads} threads: direct"
                );
                let batch_bdas: Vec<String> = exec
                    .run("t", &queries, ExecMode::Bdas, &TraceContext::NONE)
                    .iter()
                    .map(outcome_key)
                    .collect();
                assert_eq!(
                    batch_bdas, bdas,
                    "{state}, {shape}, {threads} threads: bdas"
                );
            }
        }
    }
}

/// A statement of one is a lone query: `execute_batch(t, &[q])` records
/// what `execute_direct(t, &q)` records — outcome, counters, events and
/// span tree, with no `query.executor.batch` span — at every pool size.
#[test]
fn a_batch_of_one_is_a_lone_query() {
    let q = AnalyticalQuery::new(
        Region::Range(Rect::new(vec![10.0, 0.0, 0.0], vec![70.0, 8.0, 60.0]).unwrap()),
        AggregateKind::Median { dim: 0 },
    );
    for threads in THREAD_COUNTS {
        let record = |batched: bool| {
            let mut cluster = build_cluster(2000, 4, Partitioning::Hash, 0.0);
            let sink = TelemetrySink::recording();
            cluster.set_telemetry(sink.clone());
            let exec = Executor::new(&cluster).with_pool(ExecPool::new(threads));
            sink.begin_query(0);
            let out = if batched {
                let mut outs = exec.execute_batch("t", std::slice::from_ref(&q));
                assert_eq!(outs.len(), 1);
                outs.remove(0)
            } else {
                exec.execute_direct("t", &q)
            };
            (
                outcome_key(&out),
                support::scrubbed(sink.snapshot().unwrap()),
            )
        };
        let (lone, lone_snap) = record(false);
        let (batch, batch_snap) = record(true);
        let at = format!("{threads} threads");
        assert_eq!(batch, lone, "{at}: outcome");
        assert_eq!(batch_snap.counters, lone_snap.counters, "{at}: counters");
        assert_eq!(batch_snap.events, lone_snap.events, "{at}: events");
        assert_eq!(batch_snap.spans, lone_snap.spans, "{at}: span tree");
        let roots: Vec<_> = (batch_snap.spans.roots.iter())
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(roots, ["query.executor.direct"], "{at}");
    }
}

#[test]
fn batch_spans_land_under_the_batch_root() {
    let mut cluster = build_cluster(1000, 4, Partitioning::Hash, 0.0);
    let sink = TelemetrySink::recording();
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster).with_pool(ExecPool::new(4));
    let queries: Vec<AnalyticalQuery> = (0..8usize)
        .map(|i| {
            AnalyticalQuery::new(
                Region::Range(
                    Rect::new(vec![0.0, 0.0, 0.0], vec![40.0 + i as f64, 8.0, 60.0]).unwrap(),
                ),
                AggregateKind::Count,
            )
        })
        .collect();
    let results = exec.execute_batch("t", &queries);
    assert!(results.iter().all(Result::is_ok));
    let snap = sink.snapshot().unwrap();
    let batch = snap
        .spans
        .roots
        .iter()
        .find(|r| r.name == "query.executor.batch")
        .expect("batch root span");
    let per_query: Vec<_> = batch
        .children
        .iter()
        .filter(|c| c.name == "query.executor.direct")
        .collect();
    assert_eq!(per_query.len(), 8, "every query's tree under the batch");
    for q in per_query {
        assert!(q.find("query.executor.scatter").is_some());
        assert!(q.find("query.executor.gather").is_some());
        assert_eq!(q.parent_span_id, batch.span_id);
    }
    assert_eq!(snap.spans.open_spans, 0);
}
