//! Semantic-cache correctness at the executor level.
//!
//! The load-bearing property is *transparency*: an answer served from
//! the cache — exact or re-derived from cached per-node fragments for a
//! contained sub-region — must be bit-identical to what a cold scan of
//! the same query returns, including errors (a Mean over an empty
//! subspace fails identically warm or cold). On top of that, eviction
//! order must be a pure function of the insert sequence, and a
//! drift-epoch bump must drop every pre-drift entry.

use std::sync::Arc;

use proptest::prelude::*;
use sea_cache::{CacheConfig, CacheDecision, ColumnFragment, NodeFragment, SemanticCache};
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
    /// regime, so the fragments keep the box mask (direct) and the
    /// region's mask over every row (BDAS), or in a direct-regime batch
    /// beside a rectangle of another box, so the gather body cuts its
    /// fragments over the columns it gathered — then query a random
    /// rectangle contained in it and the ball
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
        shape in (0..3usize, 0..2usize, 0..3usize),
    ) {
        let (warm_mode, snap, pool) = (shape.0, shape.1 == 1, [1, 2, 8][shape.2]);
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
        // Half a width further along dimension 0: never the outer box.
        let shift = (outer.hi()[0] - outer.lo()[0]) / 2.0 + 0.5;
        let mut beside = (outer.lo().to_vec(), outer.hi().to_vec());
        beside.0[0] += shift;
        beside.1[0] += shift;
        let beside = Rect::new(beside.0, beside.1).unwrap();
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
        // The batch's other query keys another entry, so the outer's
        // own fragments serve the hits.
        let warm = AnalyticalQuery::new(Region::Range(outer), aggregate_by_index(agg_idx));
        let other = AnalyticalQuery::new(Region::Range(beside), aggregate_by_index((agg_idx + 1) % 10));
        match warm_mode {
            0 => drop(exec.execute_direct(table, &warm)),
            1 => drop(exec.execute(table, &warm, ExecMode::Bdas, &TraceContext::NONE)),
            _ => drop(exec.execute_batch(table, &[warm, other])),
        }

        for region in [Region::Range(inner), Region::Radius(ball)] {
            let q = AnalyticalQuery::new(region, aggregate_by_index(agg_idx));
            // What the executor's own consult is about to be served.
            let served = match cache.lookup(&q.aggregate, &q.region) {
                CacheDecision::Containment(frags) => {
                    let rows: usize = frags.iter().map(ColumnFragment::rows).sum();
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

/// A fragment's selected values as bits (signed zeros and NaN payloads
/// apart), one list per dimension, read through each run's kept words —
/// bit `j` of word `i` selects row `64 i + j` of the run's columns — run
/// after run in scan order.
fn flattened(fragment: &ColumnFragment) -> Vec<Vec<u64>> {
    let dims = fragment.runs.first().map_or(0, |r| r.cols.len());
    let mut out = vec![Vec::new(); dims];
    for run in &fragment.runs {
        for (&i, &w) in run.index.iter().zip(&run.words) {
            for j in (0..64).filter(|j| w >> j & 1 == 1) {
                for (values, col) in out.iter_mut().zip(&run.cols) {
                    values.push(col[64 * i as usize + j].to_bits());
                }
            }
        }
    }
    out
}

/// A lookup in comparable form: its class, the exact answer, or each
/// containment fragment's rows and flattened values in node order —
/// whatever runs the rows came in.
fn decision_key(decision: CacheDecision) -> String {
    match decision {
        CacheDecision::Containment(frags) => {
            let frags: Vec<_> = frags.iter().map(|f| (f.rows(), flattened(f))).collect();
            format!("Containment({frags:?})")
        }
        other => format!("{other:?}"),
    }
}

/// The representation moves no counter: the rows the benchmark's row
/// adapter returns (`scan_node_region_stats`, what its admit probe
/// builds fragments from), admitted through the [`NodeFragment`]
/// adapter, make the entry the executor keeps of its scan's mask —
/// byte for simulated byte, classification for classification, value for
/// value in scan order, and re-derived answer for answer. The adapter's
/// fragment is one run of columns of its own and the executor's one run
/// per stretch of a node's blocks under the kept mask, so fragments
/// compare flattened ([`decision_key`]), not as structures.
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
            let fragments = row_fragments(&cluster, table, &outer, ExecMode::Direct);
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
                assert_eq!(
                    decision_key(by_rows.lookup(&agg, &region)),
                    decision_key(by_columns.lookup(&agg, &region)),
                    "{table} {agg:?} {region:?}: classification"
                );
                let q = AnalyticalQuery::new(region, agg);
                // Debug renders every answer value, signed zeros apart.
                assert_eq!(
                    format!("{:?}", derive_rows.cache_lookup(&q)),
                    format!("{:?}", derive_columns.cache_lookup(&q)),
                    "{table} {agg:?}: re-derived outcome"
                );
            }
        }
    }
}

/// The row adapter's fragments of `rect` over `table`: one per node the
/// statement engages in `mode` (those metadata admits in the direct
/// regime, every node in BDAS), from the rows `scan_node_region_stats`
/// returns.
fn row_fragments(
    cluster: &StorageCluster,
    table: &str,
    rect: &Rect,
    mode: ExecMode,
) -> Vec<NodeFragment> {
    let nodes = match mode {
        ExecMode::Direct => cluster.nodes_for_region(table, rect).unwrap(),
        ExecMode::Bdas => (0..cluster.num_nodes()).collect(),
    };
    (nodes.into_iter())
        .map(|node| NodeFragment {
            node: node as u64,
            records: cluster
                .scan_node_region_stats(table, node, rect, &mut CostMeter::new())
                .unwrap()
                .0,
        })
        .collect()
}

/// A cacheable statement's admitted fragments have one run layout and
/// one set of values at every pool size, and, read through their kept
/// words, they are the row adapter's fragments. A statement over one box
/// keeps the mask each rectangle folded through — the box mask (a lone
/// direct-regime rectangle; two rectangles over one box, which share it)
/// or the region's over every row (BDAS) — as one run per stretch of a
/// node's blocks that are consecutive rows of one segment, over the
/// node's own columns. Each node holds a loaded segment and an inserted
/// one, so its fragment has two runs. A batch whose boxes differ
/// gathers each serving copy's rows once, and each rectangle keeps its
/// own mask over those gathered columns, one run per node.
#[test]
fn admitted_fragments_have_one_run_layout_at_every_pool_size() {
    let records: Vec<Record> = (0..50_000u64)
        .map(|i| {
            let mut values = vec![(i % 100) as f64, (i % 7) as f64, ((i * 31) % 53) as f64];
            match i % 17 {
                0 => values[(i % 3) as usize] = f64::NAN,
                1 => values[1] = -0.0,
                2 => values[2] = f64::INFINITY,
                _ => {}
            }
            Record::new(i, values)
        })
        .collect();
    let mut cluster = StorageCluster::new(2, 512);
    let (loaded, inserted) = records.split_at(40_000);
    cluster
        .load_table("t", loaded.to_vec(), Partitioning::Hash)
        .unwrap();
    cluster.insert("t", inserted.to_vec()).unwrap();
    let rect = |lo: f64, hi: f64| Rect::new(vec![lo, 0.0, 0.0], vec![hi, 6.0, 50.0]).unwrap();
    let (wide, narrow) = (rect(5.0, 70.0), rect(30.0, 40.0));
    let query = |r: &Rect, agg| AnalyticalQuery::new(Region::Range(r.clone()), agg);
    let (count, sum) = (AggregateKind::Count, AggregateKind::Sum { dim: 1 });
    // Each statement, and whether it folds through the mask.
    let statements = [
        (ExecMode::Direct, vec![query(&wide, count)], true),
        (ExecMode::Bdas, vec![query(&wide, count)], true),
        (
            ExecMode::Direct,
            vec![query(&wide, count), query(&wide, sum)],
            true,
        ),
        (
            ExecMode::Direct,
            vec![query(&wide, count), query(&narrow, sum)],
            false,
        ),
    ];
    for (mode, stmt, folds) in &statements {
        let mut layouts = Vec::new();
        for threads in [1, 2, 8] {
            let cache = open_cache();
            let exec = Executor::new(&cluster)
                .with_pool(ExecPool::new(threads))
                .with_cache(&cache);
            for out in exec.run("t", stmt, *mode, &TraceContext::NONE) {
                out.unwrap();
            }
            // Each query's own entry, through a rectangle just inside it.
            let admitted: Vec<_> = stmt
                .iter()
                .map(|q| {
                    let Region::Range(r) = &q.region else {
                        unreachable!("every query is a rectangle")
                    };
                    let mut hi = r.hi().to_vec();
                    hi[0] -= 0.5;
                    let inside = Region::Range(Rect::new(r.lo().to_vec(), hi).unwrap());
                    let CacheDecision::Containment(frags) = cache.lookup(&q.aggregate, &inside)
                    else {
                        panic!("{mode:?} {threads}: {q:?} was not admitted");
                    };
                    let row_adapter = row_fragments(&cluster, "t", r, *mode);
                    let flat: Vec<_> = frags.iter().map(flattened).collect();
                    let want: Vec<_> = (row_adapter.into_iter())
                        .map(|f| flattened(&f.into()))
                        .collect();
                    assert_eq!(
                        flat, want,
                        "{mode:?} {threads}: {q:?} against the row adapter"
                    );
                    // Per node, each run's span, kept words and selected
                    // rows, and every value's bits.
                    (frags.iter())
                        .map(|f| {
                            let runs = (f.runs.iter())
                                .map(|r| {
                                    assert!(r.words.iter().all(|&w| w != 0), "a kept word is zero");
                                    let span = r.cols.first().map_or(0, |c| c.len());
                                    (span, r.index.clone(), r.words.clone(), r.rows())
                                })
                                .collect::<Vec<_>>();
                            (runs, flattened(f))
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            layouts.push(admitted);
        }
        let runs = layouts[0].iter().flatten().map(|(runs, _)| runs.len());
        if *folds {
            assert!(
                runs.clone().all(|n| n == 2),
                "{mode:?}: a kept mask is a run per segment"
            );
        } else {
            assert!(
                runs.clone().all(|n| n == 1),
                "{mode:?}: each node's fragment is one run"
            );
        }
        assert_eq!(layouts[1], layouts[0], "{mode:?}: 2 threads against 1");
        assert_eq!(layouts[2], layouts[0], "{mode:?}: 8 threads against 1");
    }
}

/// A statement whose boxes differ gathers each serving copy's rows
/// once, and each rectangle keeps its own mask over those gathered
/// columns as its fragment: per node, the wide and the narrow query's
/// runs read one column allocation, and no fragment holds a copied
/// value.
#[test]
fn a_differing_box_statement_shares_its_gathered_columns() {
    let cluster = build_cluster(4);
    let cache = open_cache();
    let exec = Executor::new(&cluster).with_cache(&cache);
    let rect = |lo: f64, hi: f64| Rect::new(vec![lo, 0.0, 0.0], vec![hi, 6.0, 50.0]).unwrap();
    let (wide, narrow) = (rect(5.0, 70.0), rect(30.0, 40.0));
    let stmt = [
        AnalyticalQuery::new(Region::Range(wide), AggregateKind::Count),
        AnalyticalQuery::new(Region::Range(narrow), AggregateKind::Sum { dim: 1 }),
    ];
    for out in exec.execute_batch("t", &stmt) {
        out.unwrap();
    }
    // Each query's own entry, through a rectangle just inside it.
    let fragments = |q: &AnalyticalQuery| {
        let Region::Range(r) = &q.region else {
            unreachable!("every query is a rectangle")
        };
        let mut hi = r.hi().to_vec();
        hi[0] -= 0.5;
        let inside = Region::Range(Rect::new(r.lo().to_vec(), hi).unwrap());
        let CacheDecision::Containment(frags) = cache.lookup(&q.aggregate, &inside) else {
            panic!("{q:?} was not admitted");
        };
        frags
    };
    let (wide, narrow) = (fragments(&stmt[0]), fragments(&stmt[1]));
    assert_eq!((wide.len(), narrow.len()), (4, 4), "every node engaged");
    for (node, (w, n)) in wide.iter().zip(narrow.iter()).enumerate() {
        let ([w], [n]) = (&w.runs[..], &n.runs[..]) else {
            panic!("node {node}: one run per fragment");
        };
        assert!(0 < n.rows() && n.rows() < w.rows(), "node {node}");
        assert_eq!(w.cols.len(), 3);
        for (a, b) in w.cols.iter().zip(&n.cols) {
            assert!(
                Arc::ptr_eq(a.column(), b.column()),
                "node {node}: both runs read the columns the copy gathered"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the table — its size, block size (one that is not a
    /// whole number of mask words ends a run at every block), an insert
    /// after the load, hashed or range-partitioned — the rectangle, the
    /// regime and the pool size: every kept word of an admitted fragment
    /// selects a row and none past its run, so a fragment's words and
    /// word indices take at most 12 bytes a selected row, and what the
    /// cache bills for it (`memory_bytes`, at least 24 bytes a row)
    /// bounds them. Read through those words, a fragment holds the row
    /// adapter's rows.
    #[test]
    fn kept_masks_take_at_most_twelve_bytes_a_selected_row(
        loaded in 1..3000usize,
        inserted in 0..800usize,
        block in 1..300usize,
        hashed in 0..2usize,
        lo in (0.0..90.0f64, 0.0..6.0f64, 0.0..50.0f64),
        w in (0.5..60.0f64, 0.5..7.0f64, 0.5..53.0f64),
        bdas in 0..2usize,
        pool in 0..3usize,
    ) {
        let records: Vec<Record> = (0..(loaded + inserted) as u64)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i % 7) as f64, ((i * 31) % 53) as f64]))
            .collect();
        let partitioning = if hashed == 1 {
            Partitioning::Hash
        } else {
            Partitioning::Range {
                dim: 0,
                splits: Partitioning::equi_width_splits(0.0, 100.0, 4),
            }
        };
        let mut cluster = StorageCluster::new(4, block);
        let (first, rest) = records.split_at(loaded);
        cluster.load_table("t", first.to_vec(), partitioning).unwrap();
        if !rest.is_empty() {
            cluster.insert("t", rest.to_vec()).unwrap();
        }
        let lo = [lo.0, lo.1, lo.2];
        let hi: Vec<f64> = [w.0, w.1, w.2].iter().zip(lo).map(|(w, l)| l + w).collect();
        let rect = Rect::new(lo.to_vec(), hi.clone()).unwrap();
        let mode = if bdas == 1 { ExecMode::Bdas } else { ExecMode::Direct };
        let cache = open_cache();
        let exec = Executor::new(&cluster)
            .with_pool(ExecPool::new([1, 2, 8][pool]))
            .with_cache(&cache);
        let q = AnalyticalQuery::new(Region::Range(rect.clone()), AggregateKind::Count);
        exec.execute("t", &q, mode, &TraceContext::NONE).unwrap();
        let mut inside = hi;
        inside[0] -= 0.25;
        let inside = Region::Range(Rect::new(lo.to_vec(), inside).unwrap());
        let CacheDecision::Containment(frags) = cache.lookup(&q.aggregate, &inside) else {
            panic!("the count and its fragments are admitted");
        };
        for frag in frags.iter() {
            for run in &frag.runs {
                prop_assert_eq!(run.index.len(), run.words.len());
                prop_assert!(run.words.iter().all(|&w| w != 0), "a kept word selects a row");
                prop_assert!(run.index.windows(2).all(|i| i[0] < i[1]), "indices ascend");
                let span = run.cols[0].len();
                let (&last, &word) = (run.index.last().unwrap(), run.words.last().unwrap());
                prop_assert!(64 * last as usize + (63 - word.leading_zeros() as usize) < span);
            }
            let kept: usize = frag.runs.iter().map(|r| r.words.len()).sum();
            prop_assert!(12 * kept <= 12 * frag.rows());
            prop_assert!(24 * frag.rows() as u64 <= frag.memory_bytes());
        }
        let flat: Vec<_> = frags.iter().map(flattened).collect();
        let want: Vec<_> = (row_fragments(&cluster, "t", &rect, mode).into_iter())
            .map(|f| flattened(&f.into()))
            .collect();
        prop_assert_eq!(flat, want);
    }
}

/// An entry keeps the columns it was cut from: cut before the table's
/// rows change under it — the table loaded into a new cluster, a delete
/// compacting the node's columns — a containment hit still re-derives
/// the answer over the rows it was cut from, as an entry of copied rows
/// did. Whether such an entry may still serve is invalidation's call
/// (`SemanticCache::advance_epoch`), not the fragment's.
#[test]
fn an_entry_outlives_the_rows_it_was_cut_from() {
    let outer = Rect::new(vec![0.0, 0.0, 0.0], vec![80.0, 7.0, 53.0]).unwrap();
    let inner = Rect::new(vec![10.0, 1.0, 5.0], vec![60.0, 6.0, 40.0]).unwrap();
    let warm = AnalyticalQuery::new(Region::Range(outer), AggregateKind::Sum { dim: 2 });
    let q = AnalyticalQuery::new(Region::Range(inner), AggregateKind::Sum { dim: 2 });
    let hit = |cluster: &StorageCluster, cache: &SemanticCache| {
        let out = (Executor::new(cluster).with_cache(cache))
            .execute_direct("t", &q)
            .unwrap();
        assert_eq!(out.provenance.cache, CacheClass::Containment);
        out.answer
    };
    let cold = |cluster: &StorageCluster| Executor::new(cluster).execute_direct("t", &q).unwrap();

    let cache = open_cache();
    let old = {
        let cluster = build_cluster(4);
        let exec = Executor::new(&cluster).with_cache(&cache);
        exec.execute_direct("t", &warm).unwrap();
        cold(&cluster).answer
    };
    // The first cluster is gone; the table is loaded again, every value
    // of the summed dimension one higher.
    let mut reloaded = StorageCluster::new(4, 64);
    let shifted = clean_records().into_iter().map(|mut r| {
        r.values[2] += 1.0;
        r
    });
    reloaded
        .load_table("t", shifted.collect(), Partitioning::Hash)
        .unwrap();
    assert_eq!(hit(&reloaded, &cache), old);
    assert_ne!(cold(&reloaded).answer, old);

    // A delete compacts a node's columns: a copy of them, while the
    // entry holds a range of them.
    let mut cluster = build_cluster(4);
    let cache = open_cache();
    (Executor::new(&cluster).with_cache(&cache))
        .execute_direct("t", &warm)
        .unwrap();
    let before = cold(&cluster).answer;
    let cut = Rect::new(vec![20.0, 0.0, 0.0], vec![30.0, 7.0, 53.0]).unwrap();
    assert!(cluster.delete_region("t", &cut).unwrap() > 0);
    assert_eq!(hit(&cluster, &cache), before);
    assert_ne!(cold(&cluster).answer, before);
}
