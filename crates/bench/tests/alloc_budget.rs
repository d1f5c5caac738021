//! The data-less path's allocation budget, pinned exactly.
//!
//! A statement the agent predicts touches no data, so what it costs is
//! system overhead, and most of that overhead is heap allocation. This
//! test builds the shape of seabench's `explore_warm` workload — a
//! recording telemetry sink with the watch hub as its tap, three tenants
//! behind one `QueryService`, each with its own agent pipeline and
//! semantic cache — warms it with a fixed statement stream, and then
//! counts the allocations of:
//!
//! - a lone `parse` of a one-aggregate statement;
//! - a predicted statement through `submit_statement` (the median over
//!   the predicted statements of a fixed window);
//! - the same under a noop sink;
//! - an exact cache hit under a noop sink (sea-cache's own share);
//! - a budget-rejected statement.
//!
//! It also pins the exact path: four statements that scan a
//! 200 000-record table through an executor whose pool is
//! `ExecPool::sequential()`, so each serving copy's pool item, its folds
//! and the merge all allocate on the calling thread; a ten-aggregate
//! batch over the same table; a containment hit that the executor
//! answers from its attached cache's fragments; two cold scans a cache
//! admits, a wide one and a narrow one whose nodes mostly select
//! nothing, and the wide one refused; and perfbaseline's E1 batch of 48
//! differing boxes, which gathers.
//!
//! Counts are per thread (a predicted statement never leaves the calling
//! thread) and deterministic, so each is pinned with `assert_eq!`: a
//! change that adds an allocation to the path fails here, and one that
//! removes some updates the pin. Run with `--nocapture` to print the
//! per-layer table. The counts agree in the debug and release profiles.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sea_cache::{CacheConfig, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, Ball, Point, Rect, Region};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_lang::{parse, submit_statement, TableSchema};
use sea_query::{ExecPool, Executor};
use sea_service::{QueryService, SloPolicy, TenantConfig};
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;
use sea_watch::{WatchConfig, WatchHub};
use sea_workload::{DataGenerator, DataSpec, QueryGenerator, QuerySpec};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread tears down its
    // thread-locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) `f` makes on the calling thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const TENANTS: [&str; 3] = ["ana", "ben", "cy"];
const HOTSPOTS: [[f64; 2]; 5] = [
    [20.0, 25.0],
    [50.0, 50.0],
    [75.0, 30.0],
    [35.0, 70.0],
    [80.0, 80.0],
];
const WARMUP: usize = 1_000;
const MEASURED: usize = 400;
const RECORDS: usize = 20_000;

/// A fixed stream in `explore_warm`'s shape: one aggregate (count, a
/// mean or a sum) over a rectangle jittered around one of five
/// hotspots, the tenants in rotation. A splitmix64 stream drives it.
fn statements(n: usize) -> Vec<(&'static str, String)> {
    let mut state = 1u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let spot = HOTSPOTS[(next() * 5.0) as usize];
            let agg = ["count()", "mean(d0)", "sum(d1)"][(next() * 3.0) as usize];
            let mut bounds = [0.0; 4];
            for d in 0..2 {
                let c = spot[d] - 2.0 + 4.0 * next();
                let half = 3.0 + 3.0 * next();
                bounds[2 * d] = ((c - half) * 1000.0).round() / 1000.0;
                bounds[2 * d + 1] = ((c + half) * 1000.0).round() / 1000.0;
            }
            let text = format!(
                "SELECT {agg} WHERE d0 IN [{:?}, {:?}] AND d1 IN [{:?}, {:?}]",
                bounds[0], bounds[1], bounds[2], bounds[3]
            );
            (TENANTS[i % TENANTS.len()], text)
        })
        .collect()
}

/// `t`: uniform 2-D records over `[0,100]²` on eight replicated nodes.
fn cluster(sink: &TelemetrySink) -> StorageCluster {
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
    let data = DataGenerator::new(DataSpec::Uniform { domain }, 1)
        .generate(RECORDS)
        .unwrap();
    let mut cluster = StorageCluster::with_replication(8, 512);
    cluster.load_table("t", data, Partitioning::Hash).unwrap();
    cluster.set_telemetry(sink.clone());
    cluster
}

fn pipeline(sink: &TelemetrySink) -> AgentPipeline {
    let cache = Arc::new(SemanticCache::default().with_telemetry(sink.clone()));
    AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)
        .unwrap()
        .with_cache(cache)
        .with_telemetry(sink.clone())
}

/// `explore_warm`'s service: every tenant with a pipeline, a budget and
/// a rate generous enough that nothing is rejected, and an SLO.
fn service<'a>(cluster: &'a StorageCluster, sink: &TelemetrySink) -> QueryService<'a> {
    let mut service = QueryService::new(Executor::new(cluster), "t");
    for tenant in TENANTS {
        let config = TenantConfig {
            money_budget: Some(1e12),
            rate_per_sec: Some(1e9),
            burst: 1e9,
            slo: Some(SloPolicy::new(1e6, 0.999)),
        };
        service
            .register_tenant_with_pipeline(tenant, config, pipeline(sink))
            .unwrap();
    }
    service
}

fn median(mut v: Vec<u64>) -> u64 {
    assert!(!v.is_empty(), "no predicted statement in the window");
    v.sort_unstable();
    v[v.len() / 2]
}

/// Per layer of one predicted statement, as medians over the window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Layers {
    schema_infer: u64,
    parse: u64,
    to_queries: u64,
    submit: u64,
    process: u64,
    cache_lookup: u64,
    predict: u64,
}

/// Warms a service of `explore_warm`'s shape over `sink` and returns
/// the median allocations of a predicted `submit_statement`, and, when
/// `layers` is set, the per-layer medians of every second statement
/// taken apart into the calls `submit_statement` makes.
fn predicted_statement(sink: TelemetrySink, layers: bool) -> (u64, Layers) {
    let cluster = cluster(&sink);
    let hub = WatchHub::new(WatchConfig::default());
    sink.set_tap(hub.clone());
    let mut service = service(&cluster, &sink);
    let stmts = statements(WARMUP + MEASURED);
    for (tenant, text) in &stmts[..WARMUP] {
        hub.advance_to(service.sim_now_us());
        submit_statement(&mut service, tenant, text).unwrap();
    }
    let mut whole = Vec::new();
    let mut parts: Vec<Layers> = Vec::new();
    for (i, (tenant, text)) in stmts[WARMUP..].iter().enumerate() {
        hub.advance_to(service.sim_now_us());
        if layers && i % 2 == 1 {
            let mut l = Layers::default();
            let (n, schema) =
                allocs(|| TableSchema::infer(service.executor().cluster(), service.table()));
            l.schema_infer = n;
            let schema = schema.unwrap();
            let (n, plan) = allocs(|| parse(text));
            l.parse = n;
            let (n, queries) = allocs(|| plan.unwrap().to_queries(&schema));
            l.to_queries = n;
            let queries = queries.unwrap();
            let (n, out) = allocs(|| service.submit(tenant, &queries[0]).unwrap());
            l.submit = n;
            if out.row.source == "predicted" {
                parts.push(l);
            }
        } else {
            let (n, out) = allocs(|| submit_statement(&mut service, tenant, text).unwrap());
            if out.1[0].row.source == "predicted" {
                whole.push(n);
            }
        }
    }
    let mut l = Layers::default();
    if layers {
        let pick = |f: fn(&Layers) -> u64| median(parts.iter().map(f).collect());
        l.schema_infer = pick(|l| l.schema_infer);
        l.parse = pick(|l| l.parse);
        l.to_queries = pick(|l| l.to_queries);
        l.submit = pick(|l| l.submit);
        let (process, lookup, predict) = pipeline_layers(&cluster, &sink, &stmts);
        l.process = process;
        l.cache_lookup = lookup;
        l.predict = predict;
    }
    (median(whole), l)
}

/// The core layer without the service in front: one tenant's pipeline
/// over `sink`, warmed on that tenant's statements, then the medians of
/// a predicted `AgentPipeline::process`, and of the cache probe and
/// `SeaAgent::predict` it makes, over the tenant's measured statements.
fn pipeline_layers(
    cluster: &StorageCluster,
    sink: &TelemetrySink,
    stmts: &[(&'static str, String)],
) -> (u64, u64, u64) {
    let exec = Executor::new(cluster);
    let schema = TableSchema::infer(cluster, "t").unwrap();
    let cache = Arc::new(SemanticCache::default().with_telemetry(sink.clone()));
    let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)
        .unwrap()
        .with_cache(Arc::clone(&cache))
        .with_telemetry(sink.clone());
    let query = |text: &str| -> AnalyticalQuery {
        parse(text).unwrap().to_queries(&schema).unwrap().remove(0)
    };
    let mine = stmts.iter().filter(|(t, _)| *t == TENANTS[0]);
    let warm = WARMUP / TENANTS.len();
    for (_, text) in mine.clone().take(warm) {
        pipe.process(&exec, &query(text)).unwrap();
    }
    let (mut process, mut lookup, mut predict) = (Vec::new(), Vec::new(), Vec::new());
    for (_, text) in mine.skip(warm) {
        let q = query(text);
        lookup.push(allocs(|| cache.lookup(&q.aggregate, &q.region)).0);
        predict.push(allocs(|| pipe.agent().predict(&q)).0);
        let (n, out) = allocs(|| pipe.process(&exec, &q).unwrap());
        if out.source_label() == "predicted" {
            process.push(n);
        }
    }
    (median(process), median(lookup), median(predict))
}

#[test]
fn a_lone_parse_allocates_twice() {
    let stmt = "SELECT mean(d0) WHERE d0 IN [47.5, 52.5] AND d1 IN [45.0, 55.0]";
    parse(stmt).unwrap();
    let (n, plan) = allocs(|| parse(stmt));
    plan.unwrap();
    println!("parse of a one-aggregate statement: {n} allocations");
    // The aggregate list and the range list; tokens borrow the text.
    assert_eq!(n, 2);
}

#[test]
fn a_predicted_statement_stays_within_its_budget() {
    let (total, l) = predicted_statement(TelemetrySink::recording(), true);
    println!("predicted statement, recording sink + watch tap (medians):");
    println!("  submit_statement        {total:>3}");
    println!("    TableSchema::infer    {:>3}", l.schema_infer);
    println!("    parse                 {:>3}", l.parse);
    println!("    to_queries            {:>3}", l.to_queries);
    println!("    QueryService::submit  {:>3}", l.submit);
    println!("      AgentPipeline::process {:>3}", l.process);
    println!("        SemanticCache::lookup {:>3}", l.cache_lookup);
    println!("        SeaAgent::predict     {:>3}", l.predict);
    assert_eq!(
        l,
        Layers {
            schema_infer: 0,
            parse: 2,
            // The region's two bound vectors and the query list.
            to_queries: 3,
            // The pipeline's 4 and the ledger row: four strings and the
            // `Arc` the ledger and the outcome share.
            submit: 9,
            // The feature vector; the pipeline span's tag and child
            // lists and its predict child's tag list (a full event ring
            // reuses the evicted event's field list).
            process: 4,
            cache_lookup: 0,
            predict: 1,
        }
    );
    // The layers plus `submit_statement`'s outcome list.
    assert_eq!(total, 15);
}

#[test]
fn a_predicted_statement_under_a_noop_sink_stays_within_its_budget() {
    let (total, _) = predicted_statement(TelemetrySink::noop(), false);
    println!("predicted statement, noop sink: {total} allocations");
    // The recording total less the three span lists.
    assert_eq!(total, 12);
}

#[test]
fn an_exact_cache_hit_allocates_nothing_in_the_cache() {
    let cache = SemanticCache::default();
    let region = Region::Range(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0]).unwrap());
    assert!(cache.admit(
        &AggregateKind::Count,
        &region,
        &AnswerValue::Scalar(42.0),
        None,
        25_000.0
    ));
    cache.lookup(&AggregateKind::Count, &region);
    let (n, _) = allocs(|| cache.lookup(&AggregateKind::Count, &region));
    println!("exact cache hit, noop sink: {n} allocations");
    assert_eq!(cache.stats().hits, 2);
    assert_eq!(n, 0);
}

#[test]
fn a_budget_rejected_statement_stays_within_its_budget() {
    let sink = TelemetrySink::recording();
    let cluster = cluster(&sink);
    let hub = WatchHub::new(WatchConfig::default());
    sink.set_tap(hub.clone());
    let mut service = QueryService::new(Executor::new(&cluster), "t");
    let broke = TenantConfig {
        money_budget: Some(0.0),
        ..TenantConfig::default()
    };
    service
        .register_tenant_with_pipeline("broke", broke, pipeline(&sink))
        .unwrap();
    let stmts = statements(2);
    submit_statement(&mut service, "broke", &stmts[0].1).unwrap();
    let (n, (_, outs)) = allocs(|| submit_statement(&mut service, "broke", &stmts[1].1).unwrap());
    assert_eq!(outs[0].row.disposition.label(), "rejected_budget");
    println!("budget-rejected statement, recording sink: {n} allocations");
    // Parse, lowering and the outcome list (6), three row strings (the
    // source is empty) and the shared row.
    assert_eq!(n, 10);
}

/// The exact path's table: `t`, 200 000 uniform 2-D records over
/// `[0,100]²`, hash-partitioned over eight nodes in 512-record blocks.
fn scan_cluster() -> StorageCluster {
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
    let data = DataGenerator::new(DataSpec::Uniform { domain }, 1)
        .generate(200_000)
        .unwrap();
    let mut cluster = StorageCluster::new(8, 512);
    cluster.load_table("t", data, Partitioning::Hash).unwrap();
    cluster
}

#[test]
fn exact_statements_stay_within_their_budget() {
    let cluster = scan_cluster();
    let exec = Executor::new(&cluster).with_pool(ExecPool::sequential());
    let rect = Region::Range(Rect::new(vec![10.0, 20.0], vec![45.0, 60.0]).unwrap());
    let ball = Region::Radius(Ball::new(Point::new(vec![50.0, 50.0]), 20.0).unwrap());
    let query = |region: &Region, aggregate| AnalyticalQuery::new(region.clone(), aggregate);
    let count = query(&rect, AggregateKind::Count);
    let variance = query(&rect, AggregateKind::Variance { dim: 1 });
    let batch = [
        query(&rect, AggregateKind::Sum { dim: 1 }),
        query(&rect, AggregateKind::Min { dim: 0 }),
        query(&rect, AggregateKind::Max { dim: 0 }),
    ];
    let in_ball = query(&ball, AggregateKind::Count);
    // Each statement once before it is counted.
    println!("exact statements, 200 000 records on 8 nodes, sequential pool:");
    let lone = |q: &AnalyticalQuery| allocs(|| exec.execute_direct("t", q).unwrap()).0;
    let many = |qs: &[AnalyticalQuery]| {
        allocs(|| {
            for out in exec.execute_batch("t", qs) {
                out.unwrap();
            }
        })
        .0
    };
    let counted = [
        ("count()", lone(&count), lone(&count)),
        ("variance(d1)", lone(&variance), lone(&variance)),
        ("sum, min, max", many(&batch), many(&batch)),
        ("count() in a ball", lone(&in_ball), lone(&in_ball)),
    ]
    .map(|(name, _, n)| {
        println!("  {name:<18} {n:>4}");
        n
    });
    // No cache is attached and each statement's queries share one box,
    // so every one folds through the mask: per node one pool item with
    // one mask buffer, the list of its distinct folds, each folding its
    // partial in place (plus one refined mask for the ball), and the
    // list of its pairs' scans; no gathered column. The three-aggregate
    // batch folds `min` and `max` of d0 as one partial. Laying out every
    // (query, node) pair's fold on the calling thread and folding into a
    // list of partials of each node's own read 52, 52, 74 and 77;
    // gathering first (2 morsels of 16 384 records to a node's 25 000)
    // 63, 167, 289 and 272.
    assert_eq!(counted, [50, 50, 70, 75]);
}

#[test]
fn a_ten_aggregate_batch_stays_within_its_budget() {
    let cluster = scan_cluster();
    let exec = Executor::new(&cluster).with_pool(ExecPool::sequential());
    let rect = Region::Range(Rect::new(vec![10.0, 20.0], vec![45.0, 60.0]).unwrap());
    let batch: Vec<AnalyticalQuery> = (0..2)
        .flat_map(|dim| {
            [
                AggregateKind::Sum { dim },
                AggregateKind::Mean { dim },
                AggregateKind::Variance { dim },
                AggregateKind::Min { dim },
                AggregateKind::Max { dim },
            ]
        })
        .map(|aggregate| AnalyticalQuery::new(rect.clone(), aggregate))
        .collect();
    let run = || {
        allocs(|| {
            for out in exec.execute_batch("t", &batch) {
                out.unwrap();
            }
        })
        .0
    };
    run();
    let n = run();
    println!("ten-aggregate batch, sequential pool: {n} allocations");
    // The blocks are read once for the whole batch, and each node folds
    // six partials (`sum`/`mean` and `min`/`max` of a dimension share
    // one), so ten aggregates cost well under ten lone statements (the
    // three-aggregate batch above: 70). Each node's list of its pairs'
    // scans is sized once to its ten readers. With the pairs' folds laid
    // out on the calling thread the batch read 146, and gathering first
    // 405.
    assert_eq!(n, 140);
}

#[test]
fn a_containment_hit_through_the_executor_stays_within_its_budget() {
    let cluster = scan_cluster();
    let cache = SemanticCache::default();
    let exec = Executor::new(&cluster)
        .with_pool(ExecPool::sequential())
        .with_cache(&cache);
    let query = |lo: Vec<f64>, hi: Vec<f64>| {
        let region = Region::Range(Rect::new(lo, hi).unwrap());
        AnalyticalQuery::new(region, AggregateKind::Mean { dim: 1 })
    };
    // A cold scan admits the outer box's per-node fragments.
    let outer = query(vec![10.0, 20.0], vec![45.0, 60.0]);
    let cold = exec.execute_direct("t", &outer).unwrap();
    assert_eq!(cold.provenance.cache.label(), "miss");
    let inner = query(vec![20.0, 30.0], vec![40.0, 50.0]);
    let hit = || allocs(|| exec.execute_direct("t", &inner).unwrap());
    hit();
    let (n, out) = hit();
    assert_eq!(out.provenance.cache.label(), "containment");
    println!("containment hit through the executor, sequential pool: {n} allocations");
    // No node is opened: the fold loads each node's kept mask (shared
    // with the cache, not copied) into one mask buffer, narrows it and
    // merges the partials (13 with a mask per fragment; 6 re-masking
    // gathered runs, two to a node, whose buffer grew once).
    assert_eq!(n, 5);
}

#[test]
fn a_cold_scan_a_cache_admits_stays_within_its_budget() {
    let cluster = scan_cluster();
    let region = Region::Range(Rect::new(vec![10.0, 20.0], vec![45.0, 60.0]).unwrap());
    let query = AnalyticalQuery::new(region, AggregateKind::Mean { dim: 1 });
    // A fresh cache each time, so the scan is cold and admitted.
    let scan = || {
        let cache = SemanticCache::default();
        let exec = Executor::new(&cluster)
            .with_pool(ExecPool::sequential())
            .with_cache(&cache);
        let (n, out) = allocs(|| exec.execute_direct("t", &query).unwrap());
        assert_eq!(out.provenance.cache.label(), "miss");
        assert_eq!(cache.len(), 1, "the answer and its fragments are admitted");
        n
    };
    scan();
    let n = scan();
    println!("cold scan a cache admits, sequential pool: {n} allocations");
    // The statement folds through the mask as it does with no cache
    // (50, see the exact statements above). Each of the 8 nodes keeps
    // the box mask it folded through as one run over its own columns:
    // the list of kept masks, the word buffer, the run list, and the
    // run's column list, word indices and words, each once (48). The
    // admission collects the fragments (1, also when the cache refuses
    // them) and the cache clones the rectangle and takes them (5). No
    // value is copied. With the pairs' folds laid out on the calling
    // thread the scan read 106; gathering each node's rows into exact
    // columns first 137, and growing them block by block and copying
    // them into the fragment 287.
    assert_eq!(n, 104);
}

#[test]
fn a_cold_scan_a_cache_refuses_stays_within_its_budget() {
    let cluster = scan_cluster();
    let region = Region::Range(Rect::new(vec![10.0, 20.0], vec![45.0, 60.0]).unwrap());
    let query = AnalyticalQuery::new(region, AggregateKind::Mean { dim: 1 });
    // No answer is worth its admission, so the cache stays empty and
    // every scan is cold.
    let cache = SemanticCache::new(CacheConfig {
        admit_min_cost_us: f64::INFINITY,
        ..CacheConfig::default()
    });
    let exec = Executor::new(&cluster)
        .with_pool(ExecPool::sequential())
        .with_cache(&cache);
    let scan = || allocs(|| exec.execute_direct("t", &query).unwrap());
    scan();
    let (n, out) = scan();
    assert_eq!(out.provenance.cache.label(), "miss");
    assert_eq!(cache.len(), 0, "the cache refuses the answer");
    println!("cold scan a cache refuses, sequential pool: {n} allocations");
    // The admitted scan's 104 less the cache's 5: the executor still
    // keeps each node's mask and collects the fragments, and the cache
    // refuses them by cost before it clones the rectangle. Cloning it
    // before the refusals read 101.
    assert_eq!(n, 99);
}

#[test]
fn a_narrow_cold_scan_a_cache_admits_stays_within_its_budget() {
    let cluster = scan_cluster();
    // About five of the 200 000 rows: most nodes select nothing, the
    // shape of explore_warm's audit scans.
    let region = Region::Range(Rect::new(vec![10.0, 10.0], vec![10.5, 10.5]).unwrap());
    let query = AnalyticalQuery::new(region, AggregateKind::Mean { dim: 1 });
    let inside = Region::Range(Rect::new(vec![10.0, 10.0], vec![10.4, 10.5]).unwrap());
    let scan = || {
        let cache = SemanticCache::default();
        let exec = Executor::new(&cluster)
            .with_pool(ExecPool::sequential())
            .with_cache(&cache);
        let (n, out) = allocs(|| exec.execute_direct("t", &query).unwrap());
        assert_eq!(out.provenance.cache.label(), "miss");
        let sea_cache::CacheDecision::Containment(frags) = cache.lookup(&query.aggregate, &inside)
        else {
            panic!("the answer and its fragments are admitted");
        };
        let runs: Vec<usize> = frags.iter().map(|f| f.runs.len()).collect();
        let rows: usize = frags.iter().map(|f| f.rows()).sum();
        (n, runs, rows)
    };
    scan();
    let (n, runs, rows) = scan();
    println!("narrow cold scan a cache admits, sequential pool: {n} allocations, runs {runs:?}, {rows} rows");
    // One run on each of the 4 nodes that selected a row.
    assert_eq!((runs, rows), (vec![1, 1, 0, 0, 1, 1, 0, 0], 4));
    // The wide scan's 56 beside its kept masks, and the 6 of one kept
    // mask on each node that selected a row (24); a node that selects
    // nothing keeps nothing. With the pairs' folds laid out on the
    // calling thread the scan read 82, gathering the rows first 93, and
    // reserving at least 129 rows a column and copying the fragments 99.
    assert_eq!(n, 80);
}

#[test]
fn a_batch_whose_boxes_differ_stays_within_its_budget() {
    let cluster = scan_cluster();
    let exec = Executor::new(&cluster).with_pool(ExecPool::sequential());
    // perfbaseline's E1 batch (`baseline.rs`): 48 counts over boxes
    // 5–15 wide around (50, 50), no two alike.
    let spec = QuerySpec::simple_count(vec![50.0, 50.0], 3.0, (5.0, 15.0)).unwrap();
    let mut gen = QueryGenerator::new(spec, 11).unwrap();
    let batch: Vec<AnalyticalQuery> = (0..48).map(|_| gen.next_query()).collect();
    let run = || {
        allocs(|| {
            for out in exec.execute_batch("t", &batch) {
                out.unwrap();
            }
        })
        .0
    };
    run();
    let n = run();
    println!("48 differing boxes, no cache, sequential pool: {n} allocations");
    // The boxes differ, so the batch gathers their union's rows: one
    // pool item per node keeps its mask's words in one buffer, gathers
    // both columns into exact columns once and codes them under the
    // union box (a list and a column each; each count re-masks the
    // gathered rows by its own box on their codes), then folds the 48
    // counts over them, each re-priced for its own box without a list
    // of its blocks, one mask buffer serving the gather and every count.
    // With a list of the columns the queries read (every one, whenever
    // the boxes differ) the batch read 499; listing each count's blocks
    // and no codes 859; gathering in 16 morsels (2 of 16 384 records to
    // a node's 25 000) and re-masking each (query, node) pair into a
    // buffer of its own 1 264; with a mask buffer of each morsel's own
    // too, 1 282.
    assert_eq!(n, 498);
}
