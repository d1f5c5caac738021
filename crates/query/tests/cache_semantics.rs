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
use sea_cache::{CacheConfig, CacheDecision, NodeFragment, SemanticCache};
use sea_common::{
    AggregateKind, AnalyticalQuery, Ball, CostMeter, CostReport, ExecMode, Point, Record, Rect,
    Region,
};
use sea_query::{CacheClass, ExecPool, Executor, QueryOutcome};
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::{TelemetrySink, TraceContext};

fn clean_records() -> Vec<Record> {
    (0..2000)
        .map(|i| {
            Record::new(
                i as u64,
                vec![(i % 100) as f64, (i % 7) as f64, ((i * 31) % 53) as f64],
            )
        })
        .collect()
}

fn build_cluster(nodes: usize) -> StorageCluster {
    let mut c = StorageCluster::new(nodes, 64);
    c.load_table("t", clean_records(), Partitioning::Hash)
        .unwrap();
    c
}

/// The clean rows with what a scan must step over worked in: NaN, +inf
/// and -inf in every dimension in turn (no finite region selects such a
/// row), zeros of both signs, and dimension 2 missing from every row of
/// the last node under `partitioning` (its zone maps never prune).
fn adversarial_records(partitioning: &Partitioning, nodes: usize) -> Vec<Record> {
    let mut records = clean_records();
    for (i, r) in records.iter_mut().enumerate() {
        let d = i % 3;
        match i % 13 {
            0 => r.values[d] = f64::NAN,
            1 => r.values[d] = f64::INFINITY,
            2 => r.values[d] = f64::NEG_INFINITY,
            _ => {}
        }
        if r.values[1] == 0.0 && i % 2 == 0 {
            r.values[1] = -0.0;
        }
        if partitioning.node_for(r, nodes) == nodes - 1 {
            r.values[2] = f64::NAN;
        }
    }
    records
}

/// Four tables on four nodes: clean and adversarial rows, each hashed
/// (`t`, `t_adv`) and range-partitioned on dimension 0 (`r`, `r_adv`),
/// where a rectangle engages some nodes and matches nothing on others.
const TABLES: [&str; 4] = ["t", "t_adv", "r", "r_adv"];

fn build_tables() -> StorageCluster {
    let mut c = build_cluster(4);
    let ranged = Partitioning::Range {
        dim: 0,
        splits: Partitioning::equi_width_splits(0.0, 100.0, 4),
    };
    let adv = adversarial_records(&Partitioning::Hash, 4);
    c.load_table("t_adv", adv, Partitioning::Hash).unwrap();
    c.load_table("r", clean_records(), ranged.clone()).unwrap();
    let adv = adversarial_records(&ranged, 4);
    c.load_table("r_adv", adv, ranged).unwrap();
    c
}

fn aggregate_by_index(idx: usize) -> AggregateKind {
    match idx {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum { dim: 1 },
        2 => AggregateKind::Mean { dim: 1 },
        3 => AggregateKind::Variance { dim: 1 },
        4 => AggregateKind::Median { dim: 0 },
        5 => AggregateKind::Quantile { dim: 0, q: 0.75 },
        6 => AggregateKind::Min { dim: 1 },
        7 => AggregateKind::Max { dim: 2 },
        8 => AggregateKind::Correlation { x: 0, y: 2 },
        _ => AggregateKind::Regression { x: 2, y: 1 },
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
fn answer_key(r: sea_common::Result<QueryOutcome>) -> String {
    format!("{:?}", r.map(|o| o.answer))
}

/// What the price list bills a containment hit: one CPU charge per
/// cached row re-masked, one per partial merged, on the coordinator.
fn rederivation_cost(rows: u64, partials: u64) -> CostReport {
    let mut coord = CostMeter::new();
    coord.charge_cpu(rows);
    coord.charge_cpu(partials);
    coord.report_sequential()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Warm the cache with a random outer rectangle — through either
    /// regime, so the fragments are cut from a gather of the query's own
    /// box (direct) and from a gather of everything, under a mask (BDAS)
    /// — then query a random rectangle contained in it and the ball
    /// inscribed in that rectangle: the (possible) containment hits must
    /// reproduce the cold answers exactly, for every aggregate, table
    /// and pool size, including empty-subspace errors, and cost what the
    /// model bills for the cached rows.
    #[test]
    fn containment_hits_rederive_the_cold_answer(
        // Scaled to the data's extent per dimension (100 × 7 × 53), so
        // most outer rectangles select something.
        lo in (0.0..40.0f64, 0.0..4.0f64, 0.0..30.0f64),
        w in (0.5..50.0f64, 0.5..6.0f64, 0.5..40.0f64),
        off in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        frac in (0.01..1.0f64, 0.01..1.0f64, 0.01..1.0f64),
        agg_idx in 0..10usize,
        table in 0..4usize,
        shape in (0..2usize, 0..2usize, 0..3usize),
    ) {
        let (warm_bdas, snap, pool) = (shape.0 == 1, shape.1 == 1, [1, 2, 8][shape.2]);
        // Snapped bounds land on data values: the inclusive edges.
        let snapped = |v: f64| if snap { v.floor() } else { v };
        let lo = [snapped(lo.0), snapped(lo.1), snapped(lo.2)];
        let width = [w.0, w.1, w.2];
        let inner_off = [off.0, off.1, off.2];
        let inner_frac = [frac.0, frac.1, frac.2];
        let outer_hi: Vec<f64> = (0..3).map(|d| snapped(lo[d] + width[d])).collect();
        let inner_lo: Vec<f64> = (0..3)
            .map(|d| snapped(lo[d] + inner_off[d] * (outer_hi[d] - lo[d])))
            .collect();
        let inner_hi: Vec<f64> = (0..3)
            .map(|d| inner_lo[d] + inner_frac[d] * (outer_hi[d] - inner_lo[d]))
            .collect();
        let outer = Rect::new(lo.to_vec(), outer_hi).unwrap();
        let inner = Rect::new(inner_lo, inner_hi).unwrap();
        let radius = (0..3)
            .map(|d| (inner.hi()[d] - inner.lo()[d]) / 2.0)
            .fold(f64::INFINITY, f64::min);
        let ball = Ball::new(inner.center(), radius).unwrap();

        let cluster = build_tables();
        let table = TABLES[table];
        let cache = open_cache();
        let exec = Executor::new(&cluster)
            .with_pool(ExecPool::new(pool))
            .with_cache(&cache);
        // Warm (and admit) the outer region; it may legitimately fail
        // (e.g. Mean over an empty subspace), in which case nothing is
        // admitted and the inner query simply runs cold on both sides.
        let warm = AnalyticalQuery::new(Region::Range(outer), aggregate_by_index(agg_idx));
        let _ = if warm_bdas {
            exec.execute(table, &warm, ExecMode::Bdas, &TraceContext::NONE)
        } else {
            exec.execute_direct(table, &warm)
        };

        for region in [Region::Range(inner), Region::Radius(ball)] {
            let q = AnalyticalQuery::new(region, aggregate_by_index(agg_idx));
            // What the executor's own consult is about to be served.
            let served = match cache.lookup(&q.aggregate, &q.region) {
                CacheDecision::Containment(frags) => {
                    let rows: usize = frags.iter().map(|f| f.rows).sum();
                    Some((rows as u64, frags.len() as u64))
                }
                _ => None,
            };
            let warm_out = exec.execute_direct(table, &q);
            if let (Some((rows, partials)), Ok(out)) = (served, &warm_out) {
                prop_assert_eq!(&out.cost, &rederivation_cost(rows, partials));
            }
            let cold_answer = answer_key(Executor::new(&cluster).execute_direct(table, &q));
            prop_assert_eq!(answer_key(warm_out), cold_answer);
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
    // The hit re-masks every cached row — the outer region's count —
    // and merges one partial per node.
    let cached_rows = clean_records()
        .iter()
        .filter(|r| warm.region.contains_record(r))
        .count();
    assert_eq!(warm_out.cost, rederivation_cost(cached_rows as u64, 4));
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

/// A batch over a cache-attached executor is its queries one by one:
/// probes in query order, admissions in query order, each query cutting
/// its own fragments out of the shared gather.
#[test]
fn a_cached_batch_is_its_queries_one_by_one() {
    let mut cluster = build_cluster(4);
    let sink = TelemetrySink::recording();
    cluster.set_telemetry(sink.clone());
    let rect = |lo: f64, hi: f64| Rect::new(vec![lo, 0.0, 0.0], vec![hi, 7.0, 53.0]).unwrap();
    // Pairwise different (aggregate, region) keys, no rectangle inside
    // another under one aggregate: one by one, every query misses.
    let queries: Vec<AnalyticalQuery> = (0..12usize)
        .map(|i| {
            let lo = 5.0 * i as f64;
            AnalyticalQuery::new(
                Region::Range(rect(lo, lo + 30.0)),
                aggregate_by_index(i % 10),
            )
        })
        .collect();
    let keys = |outs: Vec<sea_common::Result<QueryOutcome>>| -> Vec<String> {
        outs.iter().map(|o| format!("{o:?}")).collect()
    };
    let left = |cache: &SemanticCache| (cache.stats(), cache.len(), cache.memory_bytes());
    let one_by_one = open_cache();
    let exec = Executor::new(&cluster).with_cache(&one_by_one);
    let lone = keys(
        queries
            .iter()
            .map(|q| exec.execute_direct("t", q))
            .collect(),
    );
    for threads in [1, 2, 8] {
        let batched = open_cache();
        let exec = Executor::new(&cluster)
            .with_pool(ExecPool::new(threads))
            .with_cache(&batched);
        // Answer bits, cost report and provenance (`miss`), per query.
        assert_eq!(keys(exec.execute_batch("t", &queries)), lone, "{threads}");
        assert_eq!(left(&batched), left(&one_by_one), "{threads} threads");
        assert_eq!(batched.stats().insertions, 12);
        // The same batch again: every query an exact hit, no node opened.
        let scans = sink.counter_value("storage.node.scans");
        for hit in exec.execute_batch("t", &queries) {
            assert_eq!(hit.unwrap().provenance.cache, CacheClass::Exact);
        }
        assert_eq!(sink.counter_value("storage.node.scans"), scans);
    }

    // The one difference: all of a batch's probes precede all of its
    // admissions, so a rectangle inside an earlier one of the same batch
    // misses, where one by one it is re-derived from that one's rows.
    let nested = [rect(10.0, 70.0), rect(20.0, 50.0)]
        .map(|r| AnalyticalQuery::new(Region::Range(r), AggregateKind::Count));
    let class = |outs: Vec<sea_common::Result<QueryOutcome>>| -> Vec<_> {
        let outs = outs.into_iter().map(|o| o.unwrap());
        outs.map(|o| (o.answer, o.provenance.cache)).collect()
    };
    let cache = open_cache();
    let exec = Executor::new(&cluster).with_cache(&cache);
    let lone = class(nested.iter().map(|q| exec.execute_direct("t", q)).collect());
    let cache = open_cache();
    let exec = Executor::new(&cluster).with_cache(&cache);
    let batch = class(exec.execute_batch("t", &nested));
    assert_eq!(lone[1].1, CacheClass::Containment);
    assert_eq!(batch[1].1, CacheClass::Miss);
    assert_eq!((batch[0], batch[1].0), (lone[0], lone[1].0));
    assert_eq!(cache.stats().insertions, 2);
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

/// The representation moves no counter: the rows the benchmark's row
/// adapter returns (`scan_node_region_stats`, what its admit probe
/// builds fragments from), admitted through the [`NodeFragment`]
/// adapter, make the entry the
/// executor cuts from its gathered columns — byte for simulated byte,
/// classification for classification, re-derived answer for answer.
#[test]
fn row_adapter_and_column_admission_hold_the_same_entry() {
    let cluster = build_tables();
    let outer = Rect::new(vec![5.0, 0.0, 2.0], vec![70.0, 6.0, 50.0]).unwrap();
    let inner = Rect::new(vec![20.0, 0.0, 5.0], vec![50.0, 5.0, 40.0]).unwrap();
    let ball = Ball::new(Point::new(vec![40.0, 3.0, 25.0]), 2.5).unwrap();
    let beyond = Rect::new(vec![0.0, 0.0, 0.0], vec![90.0, 7.0, 53.0]).unwrap();
    let apart = Rect::new(vec![80.0, 0.0, 0.0], vec![90.0, 7.0, 53.0]).unwrap();
    for table in TABLES {
        for agg_idx in 0..10 {
            let agg = aggregate_by_index(agg_idx);
            let warm = AnalyticalQuery::new(Region::Range(outer.clone()), agg);
            let by_columns = open_cache();
            let admitted = Executor::new(&cluster)
                .with_cache(&by_columns)
                .execute_direct(table, &warm)
                .unwrap();

            let by_rows = open_cache();
            let fragments = cluster
                .nodes_for_region(table, &outer)
                .unwrap()
                .into_iter()
                .map(|node| NodeFragment {
                    node: node as u64,
                    records: cluster
                        .scan_node_region_stats(table, node, &outer, &mut CostMeter::new())
                        .unwrap()
                        .0,
                })
                .collect();
            assert!(by_rows.admit(
                &warm.aggregate,
                &warm.region,
                &admitted.answer,
                Some(fragments),
                admitted.cost.wall_us,
            ));
            assert_eq!(by_rows.memory_bytes(), by_columns.memory_bytes());

            let derive_rows = Executor::new(&cluster).with_cache_populate_only(&by_rows);
            let derive_columns = Executor::new(&cluster).with_cache_populate_only(&by_columns);
            for region in [
                Region::Range(outer.clone()),
                Region::Range(inner.clone()),
                Region::Radius(ball.clone()),
                Region::Range(beyond.clone()),
                Region::Range(apart.clone()),
            ] {
                // Debug renders every cached value, signed zeros apart.
                assert_eq!(
                    format!("{:?}", by_rows.lookup(&agg, &region)),
                    format!("{:?}", by_columns.lookup(&agg, &region)),
                    "{table} {agg:?} {region:?}: classification"
                );
                let q = AnalyticalQuery::new(region, agg);
                assert_eq!(
                    format!("{:?}", derive_rows.cache_lookup(&q)),
                    format!("{:?}", derive_columns.cache_lookup(&q)),
                    "{table} {agg:?}: re-derived outcome"
                );
            }
        }
    }
}
