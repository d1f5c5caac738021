//! Cache determinism: with a [`SemanticCache`] in front of the
//! executor, answers, full cost reports, cache statistics, and recorded
//! telemetry tables must be bit-identical at any [`ExecPool`] thread
//! count. Consultation and admission happen on the coordinator thread
//! only, so the hit/miss sequence — and therefore every downstream
//! number — is independent of scheduling.

use sea_cache::{CacheConfig, CacheStats, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, Ball, ExecMode, Point, Record, Rect, Region};
use sea_query::{ExecPool, Executor};
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::{SpanNode, TelemetrySink, TelemetrySnapshot, TraceContext};

fn build_cluster(nodes: usize) -> StorageCluster {
    let mut c = StorageCluster::new(nodes, 64);
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

fn zero_wall(node: &mut SpanNode) {
    node.wall_us = 0.0;
    for c in &mut node.children {
        zero_wall(c);
    }
}

/// Runs a repeat-heavy workload through a cached executor with the
/// given thread budget — every third statement as a batch of two, the
/// query and its region under the next aggregate; returns every outcome
/// (answer *and* full cost report), the final cache statistics, and the
/// telemetry snapshot with host wall-clock scrubbed.
fn cached_run(threads: usize) -> (Vec<String>, CacheStats, TelemetrySnapshot) {
    let mut cluster = build_cluster(4);
    let sink = TelemetrySink::recording();
    cluster.set_telemetry(sink.clone());
    let cache = SemanticCache::new(CacheConfig {
        admit_min_cost_us: 0.0,
        ..CacheConfig::default()
    })
    .with_telemetry(sink.clone());
    let exec = Executor::new(&cluster)
        .with_pool(ExecPool::new(threads))
        .with_cache(&cache);

    let outer = Rect::new(vec![10.0, 0.0, 0.0], vec![70.0, 8.0, 60.0]).unwrap();
    let inner = Rect::new(vec![20.0, 1.0, 5.0], vec![50.0, 6.0, 40.0]).unwrap();
    let ball = Ball::new(Point::new(vec![40.0, 3.0, 25.0]), 4.0).unwrap();
    let mut outcomes = Vec::new();
    let mut query_id = 0u64;
    for agg_idx in 0..6usize {
        // Miss, exact hit, containment hit, ball containment hit — the
        // full classification exercised per aggregate.
        for region in [
            Region::Range(outer.clone()),
            Region::Range(outer.clone()),
            Region::Range(inner.clone()),
            Region::Radius(ball.clone()),
        ] {
            sink.begin_query(query_id);
            query_id += 1;
            let q = AnalyticalQuery::new(region.clone(), aggregate_by_index(agg_idx));
            // Errors (Mean over an empty subspace and friends) must be
            // identical run to run too, so they stay in the key.
            if query_id.is_multiple_of(3) {
                let next = AnalyticalQuery::new(region, aggregate_by_index((agg_idx + 1) % 6));
                let batch = [q, next];
                outcomes.push(format!("{:?}", exec.execute_batch("t", &batch)));
                outcomes.push(format!(
                    "{:?}",
                    exec.run("t", &batch, ExecMode::Bdas, &TraceContext::NONE)
                ));
            } else {
                outcomes.push(format!("{:?}", exec.execute_direct("t", &q)));
                outcomes.push(format!(
                    "{:?}",
                    exec.execute("t", &q, ExecMode::Bdas, &TraceContext::NONE)
                ));
            }
        }
    }
    let mut snap = sink.snapshot().unwrap();
    for root in &mut snap.spans.roots {
        zero_wall(root);
    }
    (outcomes, cache.stats(), snap)
}

#[test]
fn cached_outputs_are_bit_identical_across_thread_counts() {
    let (base_outcomes, base_stats, base_snap) = cached_run(1);
    assert!(base_stats.hits > 0, "the workload produces exact hits");
    assert!(
        base_stats.containment_hits > 0,
        "the workload produces containment hits"
    );
    for threads in [2, 8] {
        let (outcomes, stats, snap) = cached_run(threads);
        assert_eq!(outcomes, base_outcomes, "{threads} threads: outcomes");
        assert_eq!(stats, base_stats, "{threads} threads: cache stats");
        assert_eq!(
            snap.counters, base_snap.counters,
            "{threads} threads: counters"
        );
        assert_eq!(
            snap.histograms, base_snap.histograms,
            "{threads} threads: histograms"
        );
        assert_eq!(snap.events, base_snap.events, "{threads} threads: events");
        assert_eq!(
            snap.spans, base_snap.spans,
            "{threads} threads: span forest (ids, parents, tags, sim)"
        );
    }
}

/// A small drift replay over a cache tight enough to evict: per epoch
/// and aggregate, an outer rectangle (miss, admitted), a rectangle or an
/// inscribed ball inside it (containment), a shifted rectangle (miss,
/// admitted, evicting) and the outer one again (exact hit while it
/// survives); the hotspot moves and the epoch advances twice.
fn drift_replay(threads: usize) -> (Vec<String>, CacheStats, u64) {
    let cluster = build_cluster(4);
    let cache = SemanticCache::new(CacheConfig {
        capacity_bytes: 50_000,
        admit_min_cost_us: 0.0,
    });
    let exec = Executor::new(&cluster)
        .with_pool(ExecPool::new(threads))
        .with_cache(&cache);
    let rect = |lo: f64, hi: f64| Rect::new(vec![lo, 0.0, 0.0], vec![hi, 7.0, 53.0]).unwrap();
    let mut outcomes = Vec::new();
    for (epoch, hot) in [10.0, 40.0, 65.0].into_iter().enumerate() {
        if epoch > 0 {
            cache.advance_epoch();
        }
        for agg_idx in [0, 2, 3, 4] {
            // Entries of different sizes, so eviction is not first-in
            // first-out.
            let w = 32.0 - 3.0 * agg_idx as f64;
            let inner = if epoch == 1 {
                Region::Radius(Ball::new(Point::new(vec![hot + 12.0, 3.0, 25.0]), 3.0).unwrap())
            } else {
                Region::Range(rect(hot + 3.0, hot + w - 6.0))
            };
            for region in [
                Region::Range(rect(hot, hot + w)),
                inner,
                Region::Range(rect(hot + 10.0, hot + 10.0 + w)),
                Region::Range(rect(hot, hot + w)),
            ] {
                let q = AnalyticalQuery::new(region, aggregate_by_index(agg_idx));
                let out = exec.execute_direct("t", &q).unwrap();
                outcomes.push(format!("{:?} @ {:?}", out.answer, out.cost.wall_us));
            }
        }
    }
    (outcomes, cache.stats(), cache.memory_bytes())
}

/// The cache's representation moves no counter: statistics, simulated
/// bytes and every answer with its simulated cost, against literals
/// recorded from the row-fragment cache of the commit before fragments
/// became columns.
#[test]
fn drift_replay_matches_the_recorded_counters_and_answers() {
    const RECORDED: [&str; 48] = [
        "Scalar(660.0) @ 13187.809999999998",
        "Scalar(480.0) @ 33.2",
        "Scalar(660.0) @ 13187.809999999998",
        "Scalar(660.0) @ 13187.809999999998",
        "Scalar(2.9944444444444445) @ 13187.809999999998",
        "Scalar(2.9916666666666667) @ 27.200000000000003",
        "Scalar(3.0) @ 13187.809999999998",
        "Scalar(2.9944444444444445) @ 0.05",
        "Scalar(4.0145442708333325) @ 13187.809999999998",
        "Scalar(4.009988888888889) @ 24.200000000000003",
        "Scalar(3.995677083333332) @ 13187.809999999998",
        "Scalar(4.0145442708333325) @ 0.05",
        "Scalar(20.0) @ 13194.337999999998",
        "Scalar(18.5) @ 21.200000000000003",
        "Scalar(30.0) @ 13194.274",
        "Scalar(20.0) @ 0.05",
        "Scalar(660.0) @ 13187.809999999998",
        "Scalar(7.0) @ 33.2",
        "Scalar(660.0) @ 13187.809999999998",
        "Scalar(660.0) @ 13187.809999999998",
        "Scalar(2.998148148148148) @ 13187.809999999998",
        "Scalar(3.142857142857143) @ 27.200000000000003",
        "Scalar(3.0037037037037035) @ 13187.809999999998",
        "Scalar(2.998148148148148) @ 0.05",
        "Scalar(4.014544270833334) @ 13187.809999999998",
        "Scalar(1.5510204081632657) @ 24.200000000000003",
        "Scalar(3.979149305555557) @ 13187.809999999998",
        "Scalar(4.014544270833334) @ 0.05",
        "Scalar(50.0) @ 13194.337999999998",
        "Scalar(54.0) @ 21.200000000000003",
        "Scalar(60.0) @ 13194.401999999998",
        "Scalar(50.0) @ 0.05",
        "Scalar(660.0) @ 13187.809999999998",
        "Scalar(480.0) @ 33.2",
        "Scalar(500.0) @ 13187.809999999998",
        "Scalar(660.0) @ 0.05",
        "Scalar(3.0055555555555555) @ 13187.809999999998",
        "Scalar(2.9833333333333334) @ 27.200000000000003",
        "Scalar(2.988) @ 13187.809999999998",
        "Scalar(3.0055555555555555) @ 13187.809999999998",
        "Scalar(3.995677083333333) @ 13187.809999999998",
        "Scalar(4.0133333333333345) @ 24.200000000000003",
        "Scalar(4.0145442708333325) @ 13187.809999999998",
        "Scalar(3.995677083333333) @ 0.05",
        "Scalar(75.0) @ 13194.401999999998",
        "Scalar(73.5) @ 21.200000000000003",
        "Scalar(85.0) @ 13194.337999999998",
        "Scalar(75.0) @ 0.05",
    ];
    for threads in [1, 8] {
        let (outcomes, stats, bytes) = drift_replay(threads);
        assert_eq!(
            stats,
            CacheStats {
                hits: 9,
                containment_hits: 12,
                misses: 27,
                subsumption_misses: 0,
                evictions: 21,
                insertions: 27,
                invalidations: 4,
            },
            "{threads} threads"
        );
        assert_eq!(bytes, 33_920, "{threads} threads: simulated bytes");
        assert_eq!(outcomes, RECORDED, "{threads} threads: outcomes");
    }
}
