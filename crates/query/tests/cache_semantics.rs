//! Semantic-cache correctness at the executor level.
//!
//! The load-bearing property is *transparency*: an answer served from
//! the cache — exact or re-derived from cached per-node fragments for a
//! contained sub-region — must be bit-identical to what a cold scan of
//! the same query returns, including errors (a Mean over an empty
//! subspace fails identically warm or cold). On top of that, eviction
//! order must be a pure function of the insert sequence, and a
//! drift-epoch bump must drop every pre-drift entry.

use proptest::prelude::*;
use sea_cache::{CacheConfig, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, Ball, Point, Record, Rect, Region};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};

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

fn open_cache() -> SemanticCache {
    SemanticCache::new(CacheConfig {
        admit_min_cost_us: 0.0,
        ..CacheConfig::default()
    })
}

/// Answers (or error messages) compare structurally via their debug
/// rendering; costs are excluded because a cache hit is *supposed* to
/// be cheaper.
fn answer_key(r: sea_common::Result<sea_query::QueryOutcome>) -> String {
    format!("{:?}", r.map(|o| o.answer))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm the cache with a random outer rectangle, then query a random
    /// rectangle contained in it and the ball inscribed in that
    /// rectangle: the (possible) containment hits must reproduce the
    /// cold answers exactly, for every aggregate, including
    /// empty-subspace errors.
    #[test]
    fn containment_hits_rederive_the_cold_answer(
        lo0 in 0.0..40.0f64, lo1 in 0.0..40.0f64, lo2 in 0.0..40.0f64,
        w0 in 0.5..50.0f64, w1 in 0.5..50.0f64, w2 in 0.5..50.0f64,
        off0 in 0.0..1.0f64, off1 in 0.0..1.0f64, off2 in 0.0..1.0f64,
        frac0 in 0.01..1.0f64, frac1 in 0.01..1.0f64, frac2 in 0.01..1.0f64,
        agg_idx in 0..6usize,
    ) {
        let lo = [lo0, lo1, lo2];
        let width = [w0, w1, w2];
        let inner_off = [off0, off1, off2];
        let inner_frac = [frac0, frac1, frac2];
        let outer_hi: Vec<f64> = (0..3).map(|d| lo[d] + width[d]).collect();
        let inner_lo: Vec<f64> = (0..3).map(|d| lo[d] + inner_off[d] * width[d]).collect();
        let inner_hi: Vec<f64> = (0..3)
            .map(|d| inner_lo[d] + inner_frac[d] * (outer_hi[d] - inner_lo[d]))
            .collect();
        let outer = Rect::new(lo.to_vec(), outer_hi).unwrap();
        let inner = Rect::new(inner_lo, inner_hi).unwrap();
        let radius = (0..3)
            .map(|d| (inner.hi()[d] - inner.lo()[d]) / 2.0)
            .fold(f64::INFINITY, f64::min);
        let ball = Ball::new(inner.center(), radius).unwrap();

        let cluster = build_cluster(4);
        let cache = open_cache();
        let exec = Executor::new(&cluster).with_cache(&cache);
        // Warm (and admit) the outer region; it may legitimately fail
        // (e.g. Mean over an empty subspace), in which case nothing is
        // admitted and the inner query simply runs cold on both sides.
        let warm = AnalyticalQuery::new(Region::Range(outer), aggregate_by_index(agg_idx));
        let _ = exec.execute_direct("t", &warm);

        for region in [Region::Range(inner), Region::Radius(ball)] {
            let q = AnalyticalQuery::new(region, aggregate_by_index(agg_idx));
            let warm_answer = answer_key(exec.execute_direct("t", &q));
            let cold_answer = answer_key(Executor::new(&cluster).execute_direct("t", &q));
            prop_assert_eq!(warm_answer, cold_answer);
        }
    }
}

#[test]
fn containment_serves_rect_and_ball_sub_queries() {
    let cluster = build_cluster(4);
    let cache = open_cache();
    let exec = Executor::new(&cluster).with_cache(&cache);
    let outer = Rect::new(vec![0.0, 0.0, 0.0], vec![80.0, 7.0, 53.0]).unwrap();
    let warm = AnalyticalQuery::new(Region::Range(outer), AggregateKind::Count);
    exec.execute_direct("t", &warm).unwrap();

    // A rectangular sub-query re-derives from the cached fragments …
    let sub = Rect::new(vec![10.0, 1.0, 5.0], vec![60.0, 6.0, 40.0]).unwrap();
    let q = AnalyticalQuery::new(Region::Range(sub), AggregateKind::Count);
    let warm_out = exec.execute_direct("t", &q).unwrap();
    let cold_out = Executor::new(&cluster).execute_direct("t", &q).unwrap();
    assert_eq!(warm_out.answer, cold_out.answer);
    assert!(
        warm_out.cost.wall_us < cold_out.cost.wall_us,
        "serving from memory beats scanning: {} vs {}",
        warm_out.cost.wall_us,
        cold_out.cost.wall_us
    );

    // … and so does a ball whose bounding rectangle the entry contains.
    let ball = Ball::new(Point::new(vec![40.0, 3.0, 25.0]), 2.5).unwrap();
    let bq = AnalyticalQuery::new(Region::Radius(ball), AggregateKind::Count);
    let warm_ball = exec.execute_direct("t", &bq).unwrap();
    let cold_ball = Executor::new(&cluster).execute_direct("t", &bq).unwrap();
    assert_eq!(warm_ball.answer, cold_ball.answer);

    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.containment_hits),
        (0, 2),
        "both sub-queries classified as containment hits: {stats:?}"
    );
}

#[test]
fn eviction_order_is_a_pure_function_of_the_insert_sequence() {
    // Capacity for roughly two of the admitted regions: later inserts
    // force evictions, and two identical runs must make identical
    // choices (no wall clock, no RNG anywhere in the policy).
    let run = || {
        let cluster = build_cluster(4);
        let cache = SemanticCache::new(CacheConfig {
            capacity_bytes: 64 * 1024,
            admit_min_cost_us: 0.0,
        });
        let exec = Executor::new(&cluster).with_cache(&cache);
        for i in 0..12u64 {
            let lo = (i % 6) as f64 * 12.0;
            let rect =
                Rect::new(vec![lo, 0.0, 0.0], vec![lo + 20.0 + i as f64, 7.0, 53.0]).unwrap();
            let q = AnalyticalQuery::new(Region::Range(rect), AggregateKind::Count);
            exec.execute_direct("t", &q).unwrap();
        }
        (cache.stats(), cache.len(), cache.memory_bytes())
    };
    let first = run();
    assert!(first.0.evictions > 0, "the sequence overflows the cache");
    assert_eq!(first, run(), "identical inserts, identical evictions");
}

#[test]
fn drift_epoch_bump_drops_pre_drift_entries() {
    let cluster = build_cluster(4);
    let cache = open_cache();
    let exec = Executor::new(&cluster).with_cache(&cache);
    let rect = Rect::new(vec![0.0, 0.0, 0.0], vec![80.0, 7.0, 53.0]).unwrap();
    let q = AnalyticalQuery::new(Region::Range(rect), AggregateKind::Count);
    let cold = exec.execute_direct("t", &q).unwrap();
    let warm = exec.execute_direct("t", &q).unwrap();
    assert_eq!(warm.answer, cold.answer);
    assert_eq!(cache.stats().hits, 1, "warm repeat hits");

    // The workload drifts: everything learned before is suspect.
    assert_eq!(cache.advance_epoch(), 1);
    assert!(cache.is_empty(), "pre-drift entries are gone");
    let misses_before = cache.stats().misses;
    exec.execute_direct("t", &q).unwrap();
    assert_eq!(
        cache.stats().misses,
        misses_before + 1,
        "post-drift re-scan"
    );
    // The fresh result is re-admitted under the new epoch and serves again.
    exec.execute_direct("t", &q).unwrap();
    assert_eq!(cache.stats().hits, 2);
}
