//! Chaos determinism: a fixed [`FaultPlan`] seed must produce
//! bit-identical observables — answers, cost reports (retries, backoff,
//! availability), recorded telemetry tables — at any [`ExecPool`] thread
//! count. Fault decisions are keyed on (seed, node, per-node operation
//! index), and a query opens its nodes' scans in node order on the
//! coordinator thread (a batch opens its queries' nodes in query order
//! before it reads anything), so the injected fault sequence is
//! independent of scheduling.
//!
//! Fault state is stateful (per-node operation counters, crash latches),
//! so each run builds a fresh cluster with the same plan.

use proptest::prelude::*;
use sea_common::{AggregateKind, AnalyticalQuery, Ball, ExecMode, Point, Record, Rect, Region};
use sea_query::{ExecPool, Executor, RetryPolicy};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::{TelemetrySink, TraceContext};

mod support;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn build_cluster(replicated: bool, nodes: usize) -> StorageCluster {
    let mut c = if replicated {
        StorageCluster::with_replication(nodes, 64)
    } else {
        StorageCluster::new(nodes, 64)
    };
    let records: Vec<Record> = (0..2000)
        .map(|i| {
            Record::new(
                i as u64,
                vec![(i % 100) as f64, (i % 7) as f64, ((i * 31) % 53) as f64],
            )
        })
        .collect();
    c.load_table("t", records, Partitioning::Hash).unwrap();
    c
}

fn aggregate_by_index(idx: usize) -> AggregateKind {
    match idx {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum { dim: 1 },
        2 => AggregateKind::Mean { dim: 1 },
        3 => AggregateKind::Variance { dim: 1 },
        4 => AggregateKind::Median { dim: 0 },
        _ => AggregateKind::Quantile { dim: 0, q: 0.75 },
    }
}

/// Comparable rendering of an execution result: outcomes (answer, full
/// cost report, availability) compare structurally, errors by message.
fn outcome_key(r: &sea_common::Result<sea_query::QueryOutcome>) -> String {
    format!("{r:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn faulted_outputs_are_identical_across_thread_counts(
        seed in 0..1_000u64,
        rate_pct in 0..80u32,
        recovery in 1..4u32,
        crash_node in 0..4usize,
        crash_op in 0..3u64,
        slow_node in 0..4usize,
        agg_idx in 0..6usize,
        replicated_idx in 0..2usize,
        partial_idx in 0..2usize,
    ) {
        let replicated = replicated_idx == 1;
        let partial = partial_idx == 1;
        let plan = FaultPlan::new(seed)
            .with_transient(f64::from(rate_pct) / 100.0, recovery)
            .with_crash(crash_node, crash_op)
            .with_slow_node(slow_node, 2.5);
        let query = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![10.0, 0.0, 0.0], vec![70.0, 8.0, 60.0]).unwrap()),
            aggregate_by_index(agg_idx),
        );
        // Fault state is stateful: every run gets a fresh cluster armed
        // with the identical plan.
        let run = |pool: ExecPool| {
            let mut cluster = build_cluster(replicated, 4);
            cluster.set_fault_plan(plan.clone());
            let exec = Executor::new(&cluster)
                .with_pool(pool)
                .with_partial_answers(partial);
            (
                outcome_key(&exec.execute("t", &query, ExecMode::Bdas, &TraceContext::NONE)),
                outcome_key(&exec.execute_direct("t", &query)),
            )
        };
        let base = run(ExecPool::sequential());
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&run(ExecPool::new(threads)), &base, "{} threads", threads);
        }
    }
}

/// The batch shapes one gather has to serve (as in
/// `parallel_determinism.rs`): the same rectangle under every aggregate,
/// balls only, balls mixed with rectangles, one ball under every
/// aggregate, and a batch of one.
fn batch_shapes() -> Vec<(&'static str, Vec<AnalyticalQuery>)> {
    let rect = |i: usize| {
        let lo = 10.0 + (i % 4) as f64 * 7.0;
        Region::Range(Rect::new(vec![lo, 0.0, 0.0], vec![lo + 45.0, 8.0, 60.0]).unwrap())
    };
    let ball = |i: usize| {
        let center = Point::new(vec![20.0 + (i % 5) as f64 * 13.0, 3.0, 25.0]);
        Region::Radius(Ball::new(center, 9.0 + (i % 3) as f64 * 8.0).unwrap())
    };
    let batch = |n: usize, region: &dyn Fn(usize) -> Region| -> Vec<AnalyticalQuery> {
        (0..n)
            .map(|i| AnalyticalQuery::new(region(i), aggregate_by_index(i % 6)))
            .collect()
    };
    vec![
        ("one rectangle, six aggregates", batch(6, &|_| rect(0))),
        ("balls", batch(12, &ball)),
        (
            "mixed",
            batch(14, &|i| if i % 3 == 0 { ball(i) } else { rect(i) }),
        ),
        ("one ball, six aggregates", batch(6, &|_| ball(1))),
        ("a batch of one", batch(1, &rect)),
    ]
}

/// A faulted batch shares per-node operation counters among its
/// queries, so it opens their nodes in query order before it shares one
/// gather among them — across the crash of node 2 mid-batch, which
/// leaves a primary and its replica (or, unreplicated and in
/// partial-answer mode, a hole) to serve the same partition. Every
/// outcome — including which query pays a retry's backoff in its
/// [`CostReport`] — and the `query.retries` / `query.failovers` totals
/// are the same at every pool size, and the same as issuing the queries
/// one by one.
///
/// [`CostReport`]: sea_common::CostReport
#[test]
fn faulted_batches_are_identical_across_thread_counts() {
    // What the plans are there to provoke, summed over every run.
    let (mut retries, mut failovers, mut degraded) = (0, 0, 0);
    for (shape, queries) in batch_shapes() {
        for seed in 0..8u64 {
            for replicated in [true, false] {
                let armed = || {
                    let mut cluster = build_cluster(replicated, 4);
                    cluster.set_telemetry(TelemetrySink::recording());
                    cluster.set_fault_plan(
                        FaultPlan::new(seed)
                            .with_transient(0.3, 1)
                            .with_crash(2, 9)
                            .with_slow_node(1, 3.0),
                    );
                    cluster
                };
                let totals = |cluster: &StorageCluster| {
                    let sink = cluster.telemetry();
                    (
                        sink.counter_value("query.retries"),
                        sink.counter_value("query.failovers"),
                    )
                };
                let run = |pool: ExecPool| {
                    let cluster = armed();
                    let exec = Executor::new(&cluster)
                        .with_pool(pool)
                        .with_partial_answers(!replicated);
                    let direct: Vec<String> = exec
                        .execute_batch("t", &queries)
                        .iter()
                        .map(outcome_key)
                        .collect();
                    let bdas: Vec<String> = exec
                        .run("t", &queries, ExecMode::Bdas, &TraceContext::NONE)
                        .iter()
                        .map(outcome_key)
                        .collect();
                    (direct, bdas, totals(&cluster))
                };
                let one_by_one = {
                    let cluster = armed();
                    let exec = Executor::new(&cluster).with_partial_answers(!replicated);
                    let direct: Vec<String> = queries
                        .iter()
                        .map(|q| outcome_key(&exec.execute_direct("t", q)))
                        .collect();
                    let bdas: Vec<String> = queries
                        .iter()
                        .map(|q| {
                            outcome_key(&exec.execute("t", q, ExecMode::Bdas, &TraceContext::NONE))
                        })
                        .collect();
                    (direct, bdas, totals(&cluster))
                };
                assert!(
                    queries.len() < 6
                        || one_by_one.0.iter().any(|k| !k.contains("backoff_us: 0 }")),
                    "{shape}, seed {seed}: the plan injects transients: {:?}",
                    one_by_one.0
                );
                for threads in THREAD_COUNTS {
                    assert_eq!(
                        run(ExecPool::new(threads)),
                        one_by_one,
                        "{shape}, seed {seed}, replicated {replicated}, {threads} threads"
                    );
                }
                retries += one_by_one.2 .0;
                failovers += one_by_one.2 .1;
                let partial = |k: &&String| k.contains("nodes_unavailable: 1");
                degraded += one_by_one.0.iter().filter(partial).count();
            }
        }
    }
    assert!(
        retries > 0 && failovers > 0 && degraded > 0,
        "retries {retries}, failovers {failovers}, degraded {degraded}"
    );
}

/// Runs a fault-riddled workload under a recording sink with the given
/// thread budget and returns the snapshot with host wall-clock
/// scrubbed: six aggregates one query at a time in both regimes, or
/// (`batched`) every one of [`batch_shapes`] as one statement in both
/// regimes — node 2 then crashes inside the first batch.
fn chaos_snapshot(threads: usize, batched: bool) -> sea_telemetry::TelemetrySnapshot {
    let mut cluster = build_cluster(true, 4);
    let sink = TelemetrySink::recording();
    cluster.set_telemetry(sink.clone());
    cluster.set_fault_plan(
        FaultPlan::new(42)
            .with_transient(0.3, 2)
            .with_crash(2, 5)
            .with_slow_node(1, 3.0),
    );
    let exec = Executor::new(&cluster)
        .with_pool(ExecPool::new(threads))
        .with_partial_answers(true)
        .with_retry_policy(RetryPolicy {
            max_retries: 2,
            backoff_base_us: 5_000,
        });
    // Partial-answer mode keeps degraded outcomes well-typed; any
    // residual errors must still be identical run to run, so results
    // are deliberately ignored here (the proptest above covers them).
    if batched {
        for (i, (_, queries)) in batch_shapes().iter().enumerate() {
            sink.begin_query(i as u64);
            let _ = exec.execute_batch("t", queries);
            let _ = exec.run("t", queries, ExecMode::Bdas, &TraceContext::NONE);
        }
    } else {
        for agg_idx in 0..6usize {
            sink.begin_query(agg_idx as u64);
            let q = AnalyticalQuery::new(
                Region::Range(Rect::new(vec![10.0, 0.0, 0.0], vec![70.0, 8.0, 60.0]).unwrap()),
                aggregate_by_index(agg_idx),
            );
            let _ = exec.execute("t", &q, ExecMode::Bdas, &TraceContext::NONE);
            let _ = exec.execute_direct("t", &q);
        }
    }
    support::scrubbed(sink.snapshot().unwrap())
}

/// The faulted lone query's recorded tables, pinned from the commit
/// before a statement became a batch of one.
#[test]
fn lone_query_chaos_telemetry_matches_the_golden() {
    support::assert_golden(
        "lone_query_chaos_telemetry.txt",
        &support::render(&chaos_snapshot(1, false)),
    );
}

#[test]
fn chaos_telemetry_tables_are_bit_identical_across_thread_counts() {
    for batched in [false, true] {
        let base = chaos_snapshot(1, batched);
        assert!(
            base.counter("query.retries") > 0,
            "the plan actually injects retried transients"
        );
        assert!(
            base.counter("query.failovers") > 0,
            "the crashed node actually fails over"
        );
        for threads in [2, 8] {
            let snap = chaos_snapshot(threads, batched);
            let at = format!("{threads} threads, batched {batched}");
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
