//! The traced phase: one staged round under harness spans, then probes
//! that replay the round's inputs against single layers' public
//! functions, because `cache`, `core`, `storage` and the kernels cannot
//! be wrapped from outside `submit` / `execute_*`.
//!
//! A layer that is not on a workload's statement path reports 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sea_cache::{CacheDecision, NodeFragment, SemanticCache};
use sea_common::{
    kernels, AggregateKind, AnalyticalQuery, BivariateStats, CostMeter, Region, Result, SeaError,
    SelectionMask,
};
use sea_core::{AgentConfig, SeaAgent};
use sea_query::ExecPool;
use sea_service::{LedgerRow, QueryLedger};
use sea_storage::{Block, StorageCluster};
use sea_telemetry::{TelemetrySink, TelemetryTap};
use sea_watch::{SloTracker, WatchConfig, WatchHub};

use crate::data::Table;
use crate::run::{
    answer_mismatches, check_round, deterministic, fresh_round, run_round, Scale, Setup,
    SAMPLE_STRIDE,
};
use crate::session::{
    explore_slo, with_pipelines, with_session, Counters, Session, SessionOpts, StmtOutcome,
    DRIFT_CACHE,
};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::median;
use crate::stmts::{Stmt, DRIFT_EPOCH, EXPLORE_TENANTS};
use crate::trace::{self_times_ns, Span, Tracer};

/// Per-layer results of one workload.
pub struct Traced {
    /// Every name in [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
}

fn timed_us<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e6, out)
}

/// Median of the samples, 0 for none (the layer was not exercised).
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// What the staged round brings back.
struct Staged {
    spans: Vec<Span>,
    outcomes: Vec<StmtOutcome>,
    wall_s: f64,
    counters: Counters,
    warm: WarmProbes,
}

/// Probes that need the round's warmed serving state, taken at the end
/// of the staged round before that state is dropped.
#[derive(Default)]
struct WarmProbes {
    cache_lookup_us: Vec<f64>,
    cache_derive_us: Vec<f64>,
    tap_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    ledger: Vec<LedgerRow>,
}

fn staged_round(w: Workload, setup: &mut Setup) -> Result<Staged> {
    let Setup {
        table,
        stmts,
        warmup,
    } = setup;
    with_session(w, table, SessionOpts::pinned(), |s| {
        for (i, st) in stmts[..*warmup].iter().enumerate() {
            s.before(i);
            s.issue(st);
        }
        let timed = &stmts[*warmup..];
        let mut tr = Tracer::new();
        let mut outcomes = Vec::with_capacity(timed.len());
        let start = Instant::now();
        for (i, st) in timed.iter().enumerate() {
            s.before(*warmup + i);
            outcomes.push(s.issue_staged(st, i as u32, &mut tr));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let counters = s.counters();
        Ok(Staged {
            spans: tr.spans,
            outcomes,
            wall_s,
            counters,
            warm: warm_probes(s, timed),
        })
    })
}

fn warm_probes(s: &mut Session<'_>, timed: &[Stmt]) -> WarmProbes {
    let mut p = WarmProbes::default();
    // The statements since the last hotspot move: what the warmed cache
    // was filled by.
    let recent = &timed[timed.len() - timed.len().min(DRIFT_EPOCH)..];
    match s {
        Session::Front {
            exec,
            cache: Some(cache),
            ..
        } => {
            for q in recent.iter().flat_map(|st| &st.queries) {
                let (us, decision) = timed_us(|| cache.lookup(&q.aggregate, &q.region));
                p.cache_lookup_us.push(us);
                if matches!(decision, CacheDecision::Containment(_)) {
                    p.cache_derive_us.push(timed_us(|| exec.cache_lookup(q)).0);
                }
            }
        }
        Session::Front { .. } => {}
        Session::Service { service, hub, .. } => {
            let sink = service.telemetry().clone();
            for i in 0..2_000 {
                let v = 1_000.0 + i as f64;
                p.tap_us
                    .push(timed_us(|| hub.on_observe(&sink, "service.query_wall_us", v)).0);
            }
            for _ in 0..9 {
                p.snapshot_us.push(timed_us(|| black_box(hub.snapshot())).0);
            }
            p.ledger = service.ledger().snapshot();
        }
    }
    p
}

/// Medians of the staged spans that are reported over all their calls
/// (`query.direct` is reported over the calls the probes cover).
fn span_metrics(spans: &[Span], m: &mut BTreeMap<&'static str, f64>) {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 / 1e3);
    }
    for (span, metric) in [
        ("lang.parse", "lang.parse_us"),
        ("lang.schema_infer", "lang.schema_infer_us"),
        ("lang.lower", "lang.lower_us"),
        ("query.batch", "query.batch_us"),
    ] {
        m.insert(
            metric,
            median_or_zero(by_name.get(span).map_or(&[], Vec::as_slice)),
        );
    }
}

/// The staged spans with what the probes need to find in them.
struct SpanIndex<'a> {
    spans: &'a [Span],
    /// Self time of every span, by span id.
    own_ns: Vec<u64>,
    /// The ids of each statement's spans.
    by_stmt: BTreeMap<u32, Vec<usize>>,
}

impl<'a> SpanIndex<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut by_stmt: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_stmt.entry(s.stmt).or_default().push(i);
        }
        SpanIndex {
            spans,
            own_ns: self_times_ns(spans),
            by_stmt,
        }
    }

    fn of_stmt(&self, stmt: u32) -> impl Iterator<Item = &'a Span> + '_ {
        let ids = self.by_stmt.get(&stmt).map_or(&[][..], Vec::as_slice);
        ids.iter().map(|&i| &self.spans[i])
    }

    /// Duration in µs of statement `stmt`'s first span called `name`.
    fn span_us(&self, stmt: u32, name: &str) -> Option<f64> {
        self.of_stmt(stmt)
            .find(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
    }
}

/// Statement time the harness measured directly — the self time of a
/// span around a leaf call (`lang.*`), or a probe — against all of it,
/// over the statements whose path the probes cover. What is left is
/// every self time obtained by subtraction (the statement's own gaps,
/// and `query.direct` or `service.submit` beyond their probes).
#[derive(Default)]
struct Residual {
    stmt_us: f64,
    measured_us: f64,
}

impl Residual {
    /// Adds statement `stmt`, with `probed_us` of probe-measured time on
    /// its path.
    fn add(&mut self, ix: &SpanIndex<'_>, stmt: u32, probed_us: f64) {
        self.measured_us += probed_us;
        for s in ix.of_stmt(stmt) {
            // The self times of a span tree add up to its root's duration.
            let own_us = ix.own_ns[s.id as usize] as f64 / 1e3;
            self.stmt_us += own_us;
            if s.name.starts_with("lang.") {
                self.measured_us += own_us;
            }
        }
    }

    fn share(&self) -> f64 {
        if self.stmt_us > 0.0 {
            1.0 - self.measured_us / self.stmt_us
        } else {
            0.0
        }
    }
}

/// The blocks a direct scan of `q` engages, node by node (the pruning
/// rule restated over public accessors: partition pruning, then zone
/// maps), with how many blocks the zone maps let it skip.
fn engaged_blocks<'c>(
    cluster: &'c StorageCluster,
    table: &str,
    q: &AnalyticalQuery,
) -> Result<(Vec<Vec<&'c Block>>, u64)> {
    let bbox = q.region.bounding_rect();
    let mut pruned = 0;
    let mut per_node = Vec::new();
    for node in cluster.nodes_for_region(table, &bbox)? {
        let (dn, _) = cluster.serving_node(table, node)?;
        let read: Vec<&Block> = dn
            .blocks()
            .iter()
            .filter(|b| b.bounds().is_some_and(|z| z.intersects(&bbox)))
            .collect();
        pruned += (dn.blocks().len() - read.len()) as u64;
        per_node.push(read);
    }
    Ok((per_node, pruned))
}

/// The fold the executor runs for `agg` over one block's selected rows.
fn fold_block(agg: &AggregateKind, b: &Block, mask: &SelectionMask, sink: &mut FoldSink) {
    use AggregateKind::*;
    match *agg {
        Count => sink.count += mask.count() as u64,
        Sum { dim } | Mean { dim } => {
            kernels::fold_sum_sq(b.col(dim), mask, &mut sink.a, &mut sink.b)
        }
        Variance { dim } => {
            kernels::fold_welford(b.col(dim), mask, &mut sink.count, &mut sink.a, &mut sink.b)
        }
        Min { dim } | Max { dim } => {
            kernels::fold_min_max(b.col(dim), mask, &mut sink.a, &mut sink.b)
        }
        Median { dim } | Quantile { dim, .. } => {
            kernels::gather(b.col(dim), mask, &mut sink.values)
        }
        Correlation { x, y } | Regression { x, y } => {
            kernels::fold_bivariate(b.col(x), b.col(y), mask, &mut sink.bi)
        }
        _ => {}
    }
}

#[derive(Default)]
struct FoldSink {
    count: u64,
    a: f64,
    b: f64,
    values: Vec<f64>,
    bi: BivariateStats,
}

/// Storage and kernel work of one statement's columnar scan, replayed on
/// `pool` one task per engaged node — the way the executor spreads it, so
/// the wall-clock is comparable with the statement's `query.direct` span
/// on any host, whatever its threads are worth:
/// `(wall µs, per-block mask µs samples)`.
fn scan_probe(
    cluster: &StorageCluster,
    table: &str,
    q: &AnalyticalQuery,
    pool: ExecPool,
) -> Result<(f64, Vec<f64>)> {
    let (per_node, _) = engaged_blocks(cluster, table, q)?;
    let (wall_us, per_block) = timed_us(|| {
        pool.run(per_node.len(), |n| {
            let mut sink = FoldSink::default();
            let mut mask_us = Vec::with_capacity(per_node[n].len());
            for &b in &per_node[n] {
                let (us, mask) = timed_us(|| b.region_mask(&q.region));
                mask_us.push(us);
                fold_block(&q.aggregate, b, &mask, &mut sink);
            }
            black_box(
                sink.values.len() as f64 + sink.a + sink.b + sink.bi.sum_xy + sink.count as f64,
            );
            mask_us
        })
    });
    Ok((wall_us, per_block.into_iter().flatten().collect()))
}

/// The same for the guarded path, which scans rows node by node:
/// `(wall µs, per-node row scan µs samples)`.
fn row_scan_probe(
    cluster: &StorageCluster,
    table: &str,
    q: &AnalyticalQuery,
    pool: ExecPool,
) -> Result<(f64, Vec<f64>)> {
    let bbox = q.region.bounding_rect();
    let nodes = cluster.nodes_for_region(table, &bbox)?;
    let (wall_us, per_node) = timed_us(|| {
        pool.run(nodes.len(), |i| {
            let (us, scan) = timed_us(|| {
                cluster.scan_node_region_stats(table, nodes[i], &bbox, &mut CostMeter::new())
            });
            scan.map(|(records, _)| {
                black_box(records.len());
                us
            })
        })
    });
    Ok((wall_us, per_node.into_iter().collect::<Result<_>>()?))
}

/// The `&'static` spelling of a per-layer metric name built at run time.
fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}

/// Million records per second of `kernel` over the blocks, one thread,
/// at least 50 ms of work.
fn mrec_s(blocks: &[Block], mut kernel: impl FnMut(usize, &Block)) -> f64 {
    let records: usize = blocks.iter().map(Block::len).sum();
    let start = Instant::now();
    let mut passes = 0u64;
    while start.elapsed().as_secs_f64() < 0.05 {
        blocks.iter().enumerate().for_each(|(i, b)| kernel(i, b));
        passes += 1;
    }
    passes as f64 * records as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Every kernel over the real columns of node 0's blocks.
fn kernel_probes(
    cluster: &StorageCluster,
    table: &str,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<()> {
    let (dn, _) = cluster.serving_node(table, 0)?;
    let blocks = dn.blocks();
    // A box over the middle half of every dimension of the node's data,
    // and a ball of a quarter of its d0 range around the middle.
    let bbox = blocks
        .iter()
        .filter_map(|b| b.bounds().cloned())
        .reduce(|a, z| a.union(&z).expect("one table, one dimensionality"))
        .ok_or_else(|| SeaError::Empty(format!("table {table} has no data on node 0")))?;
    let (lo, hi) = (bbox.lo(), bbox.hi());
    let mid: Vec<f64> = lo.iter().zip(hi).map(|(l, h)| (l + h) / 2.0).collect();
    let qlo: Vec<f64> = lo.iter().zip(&mid).map(|(l, c)| (l + c) / 2.0).collect();
    let qhi: Vec<f64> = hi.iter().zip(&mid).map(|(h, c)| (h + c) / 2.0).collect();
    let radius = (hi[0] - lo[0]) / 4.0;
    let range = mrec_s(blocks, |_, b| {
        black_box(kernels::range_mask(b.cols(), b.len(), &qlo, &qhi));
    });
    let ball = mrec_s(blocks, |_, b| {
        black_box(kernels::ball_mask(b.cols(), b.len(), &mid, radius));
    });
    m.insert("common.range_mask_mrec_s", range);
    m.insert("common.ball_mask_mrec_s", ball);

    // Dense: every row selected. Sparse: one row in a hundred.
    let sparse = |len: usize| {
        let mut mask = SelectionMask::none(len);
        (0..len).step_by(100).for_each(|i| mask.set(i));
        mask
    };
    type Kernel = fn(&Block, &SelectionMask, &mut FoldSink);
    let kernels: [(&str, Kernel); 5] = [
        ("fold_sum_sq", |b, k, s| {
            kernels::fold_sum_sq(b.col(0), k, &mut s.a, &mut s.b)
        }),
        ("fold_welford", |b, k, s| {
            kernels::fold_welford(b.col(0), k, &mut s.count, &mut s.a, &mut s.b)
        }),
        ("fold_min_max", |b, k, s| {
            kernels::fold_min_max(b.col(0), k, &mut s.a, &mut s.b)
        }),
        ("fold_bivariate", |b, k, s| {
            kernels::fold_bivariate(b.col(0), b.col(1), k, &mut s.bi)
        }),
        ("gather", |b, k, s| {
            s.values.clear();
            kernels::gather(b.col(0), k, &mut s.values);
        }),
    ];
    for label in ["dense", "sparse"] {
        let masks: Vec<SelectionMask> = blocks
            .iter()
            .map(|b| {
                if label == "dense" {
                    SelectionMask::all(b.len())
                } else {
                    sparse(b.len())
                }
            })
            .collect();
        // The rate counts the rows the kernel walks past, selected or not.
        for (kernel, run) in kernels {
            let mut sink = FoldSink::default();
            let rate = mrec_s(blocks, |i, b| run(b, &masks[i], &mut sink));
            black_box(
                sink.a + sink.b + sink.bi.sum_xy + (sink.count + sink.values.len() as u64) as f64,
            );
            m.insert(layer_name(&format!("common.{kernel}_{label}_mrec_s")), rate);
        }
    }
    Ok(())
}

/// Direct probes of a recording sink with a watch tap installed.
fn telemetry_probes(m: &mut BTreeMap<&'static str, f64>) {
    let sink = TelemetrySink::recording();
    sink.set_tap(WatchHub::new(WatchConfig::default()));
    let (mut span, mut event, mut observe) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..2_000u64 {
        span.push(timed_us(|| drop(sink.span("bench.probe"))).0);
        event.push(timed_us(|| sink.event("bench.probe", &[("i", i.into())])).0);
        observe.push(timed_us(|| sink.observe("bench.probe_us", i as f64)).0);
    }
    m.insert("telemetry.span_us", median(&span));
    m.insert("telemetry.event_us", median(&event));
    m.insert("telemetry.observe_us", median(&observe));
}

/// `explore_warm`'s core layer replayed in isolation: the same statement
/// stream through fresh tenant pipelines, each `process` call timed, with
/// the cache lookup and the prediction it contains timed just before it.
struct CoreReplay {
    lookup_us: Vec<f64>,
    predict_us: Vec<f64>,
    /// `process` µs of each timed statement (single-aggregate).
    process_us: Vec<f64>,
    train_us: Vec<f64>,
    quanta: u64,
}

fn core_replay(setup: &mut Setup) -> Result<CoreReplay> {
    let Setup {
        table,
        stmts,
        warmup,
    } = setup;
    let dims = table.cluster.dims(table.name)?;
    with_pipelines(table, |exec, pipelines| {
        let mut r = CoreReplay {
            lookup_us: Vec::new(),
            predict_us: Vec::new(),
            process_us: Vec::new(),
            train_us: Vec::new(),
            quanta: 0,
        };
        // `train` is probed on scratch agents fed the exact answers in
        // the order the pipelines learned from them.
        let mut scratch: Vec<SeaAgent> = EXPLORE_TENANTS
            .iter()
            .map(|_| SeaAgent::new(dims, AgentConfig::default()))
            .collect::<Result<_>>()?;
        for (i, st) in stmts.iter().enumerate() {
            let (cache, pipeline) = &mut pipelines[st.tenant];
            let q = &st.queries[0];
            let timed = i >= *warmup;
            if timed {
                r.lookup_us
                    .push(timed_us(|| black_box(cache.lookup(&q.aggregate, &q.region))).0);
                r.predict_us
                    .push(timed_us(|| black_box(pipeline.agent().predict(q).is_ok())).0);
            }
            let (us, out) = timed_us(|| pipeline.process(exec, q));
            let out = out?;
            if timed {
                r.process_us.push(us);
            }
            if out.source.label() != "predicted" {
                let us = timed_us(|| scratch[st.tenant].train(q, &out.answer)).0;
                if timed {
                    r.train_us.push(us);
                }
            }
        }
        r.quanta = pipelines
            .iter()
            .map(|(_, p)| p.agent().stats().quanta as u64)
            .sum();
        Ok(r)
    })
}

/// `SemanticCache::admit` on a scratch cache, fed a sample of the round's
/// answers with fragments the harness cuts from row scans of their
/// regions.
fn admit_probe(
    cluster: &StorageCluster,
    table: &str,
    cache: &SemanticCache,
    stmts: &[Stmt],
    outcomes: &[StmtOutcome],
) -> Result<Vec<f64>> {
    let mut samples = Vec::new();
    for (st, out) in stmts.iter().zip(outcomes).step_by(SAMPLE_STRIDE) {
        let q = &st.queries[0];
        let (Region::Range(rect), Some(aggs)) = (&q.region, out) else {
            continue;
        };
        let mut fragments = Vec::new();
        for node in cluster.nodes_for_region(table, rect)? {
            let (records, _) =
                cluster.scan_node_region_stats(table, node, rect, &mut CostMeter::new())?;
            fragments.push(NodeFragment {
                node: node as u64,
                records: records
                    .into_iter()
                    .filter(|r| q.region.contains_record(r))
                    .collect(),
            });
        }
        let answer = aggs[0].answer;
        let admit = || cache.admit(&q.aggregate, &q.region, &answer, Some(fragments), 50_000.0);
        samples.push(timed_us(admit).0);
    }
    Ok(samples)
}

/// Counts read off the staged round's outcomes and serving state, and
/// the probes taken on that state while it was warm.
fn staged_counts(staged: &Staged, timed: &[Stmt], m: &mut BTreeMap<&'static str, f64>) {
    let det = deterministic(&staged.outcomes, timed);
    let unavailable: u64 = staged
        .outcomes
        .iter()
        .flatten()
        .flatten()
        .map(|a| a.nodes_unavailable)
        .sum();
    let c = staged.counters;
    for (name, v) in [
        ("core.predicted", det.predicted),
        ("core.cached", det.dataless - det.predicted),
        ("core.exact", det.aggs - det.dataless),
        ("query.unavailable", unavailable),
        ("cache.hits", c.cache.hits),
        ("cache.containment_hits", c.cache.containment_hits),
        ("cache.misses", c.cache.misses),
        ("cache.insertions", c.cache.insertions),
        ("cache.evictions", c.cache.evictions),
        ("cache.invalidations", c.cache.invalidations),
        ("cache.bytes", c.cache_bytes),
        ("service.ledger_rows", c.ledger_rows),
        ("service.admitted", c.admitted),
        ("service.rejected", c.rejected),
        ("watch.alerts", c.alerts),
        ("watch.windows_evicted", c.windows_evicted),
        ("telemetry.events_dropped", c.events_dropped),
    ] {
        m.insert(name, v as f64);
    }
    m.insert("lang.aggs_per_stmt", det.aggs as f64 / timed.len() as f64);
    m.insert("core.dataless_share", det.dataless as f64 / det.aggs as f64);
    m.insert("cache.hit_rate", c.cache.hit_rate());
    for (name, samples) in [
        ("watch.tap_us", &staged.warm.tap_us),
        ("watch.snapshot_us", &staged.warm.snapshot_us),
        ("cache.derive_us", &staged.warm.cache_derive_us),
        ("cache.lookup_us", &staged.warm.cache_lookup_us),
    ] {
        m.insert(name, median_or_zero(samples));
    }
}

/// The scan path: storage counts over every scanned aggregate, and the
/// storage and kernel time inside every single-aggregate statement that
/// scanned, where one `query.direct` span wraps exactly one
/// scatter/gather. `query.direct_us` and `query.self_us` are medians over
/// those same statements.
fn scan_path_probes(
    w: Workload,
    table: &Table,
    timed: &[Stmt],
    staged: &Staged,
    ix: &SpanIndex<'_>,
    m: &mut BTreeMap<&'static str, f64>,
    residual: &mut Residual,
) -> Result<()> {
    let (cluster, table) = (&table.cluster, table.name);
    let pool = SessionOpts::pinned().pool;
    let (mut read, mut pruned, mut nodes, mut records) = (0u64, 0u64, 0u64, 0u64);
    let (mut block_mask_us, mut row_scan_us) = (Vec::new(), Vec::new());
    let (mut direct_us, mut self_us) = (Vec::new(), Vec::new());
    for (i, (st, out)) in timed.iter().zip(&staged.outcomes).enumerate() {
        let Some(aggs) = out else { continue };
        for (q, _) in st.queries.iter().zip(aggs).filter(|(_, a)| !a.dataless) {
            let (per_node, skipped) = engaged_blocks(cluster, table, q)?;
            nodes += per_node.len() as u64;
            pruned += skipped;
            for b in per_node.iter().flatten() {
                read += 1;
                records += b.len() as u64;
            }
        }
        if aggs.len() != 1 || aggs[0].dataless {
            continue;
        }
        let q = &st.queries[0];
        let inner_us = if w == Workload::FaultedScan {
            let (wall_us, per_node) = row_scan_probe(cluster, table, q, pool)?;
            row_scan_us.extend(per_node);
            wall_us
        } else {
            let (wall_us, per_block) = scan_probe(cluster, table, q, pool)?;
            block_mask_us.extend(per_block);
            wall_us
        };
        // `explore_warm` scans inside `service.submit`: no span wraps it.
        if let Some(span) = ix.span_us(i as u32, "query.direct") {
            direct_us.push(span);
            self_us.push((span - inner_us).max(0.0));
            residual.add(ix, i as u32, inner_us);
        }
    }
    let ratio = pruned as f64 / (read + pruned).max(1) as f64;
    m.insert("storage.blocks_read", read as f64);
    m.insert("storage.blocks_pruned", pruned as f64);
    m.insert("storage.prune_ratio", ratio);
    m.insert("storage.nodes_engaged", nodes as f64);
    m.insert("storage.records_scanned", records as f64);
    m.insert("storage.block_mask_us", median_or_zero(&block_mask_us));
    m.insert("storage.row_scan_us", median_or_zero(&row_scan_us));
    m.insert("query.direct_us", median_or_zero(&direct_us));
    m.insert("query.self_us", median_or_zero(&self_us));
    Ok(())
}

/// `explore_warm`'s own layers: core and service self times from the
/// replay, ledger, SLO and telemetry probes, and the telemetry overhead.
/// Self times are taken on the predicted statements — the median
/// statement — where `process` holds no scan.
fn service_path_probes(
    setup: &mut Setup,
    staged: &Staged,
    ix: &SpanIndex<'_>,
    m: &mut BTreeMap<&'static str, f64>,
    residual: &mut Residual,
) -> Result<()> {
    let core = core_replay(setup)?;
    let predicted: Vec<usize> = (0..staged.outcomes.len())
        .filter(|&i| staged.outcomes[i].as_ref().is_some_and(|a| a[0].predicted))
        .collect();
    let process_self: Vec<f64> = predicted
        .iter()
        .map(|&i| (core.process_us[i] - core.lookup_us[i] - core.predict_us[i]).max(0.0))
        .collect();
    let submit_self: Vec<f64> = predicted
        .iter()
        .filter_map(|&i| {
            let submit = ix.span_us(i as u32, "service.submit")?;
            Some((submit - core.process_us[i]).max(0.0))
        })
        .collect();
    for &i in &predicted {
        residual.add(ix, i as u32, core.process_us[i]);
    }
    m.insert("core.process_self_us", median_or_zero(&process_self));
    m.insert("service.submit_self_us", median_or_zero(&submit_self));
    m.insert("core.predict_us", median(&core.predict_us));
    m.insert("core.train_us", median_or_zero(&core.train_us));
    m.insert("core.quanta", core.quanta as f64);
    m.insert("cache.lookup_us", median(&core.lookup_us));

    let ledger = QueryLedger::default();
    let mut slo = SloTracker::new(explore_slo());
    let (mut appends, mut records) = (Vec::new(), Vec::new());
    for row in &staged.warm.ledger {
        let record = || slo.record(row.sim_time_us, true, row.wall_us, row.answered_fraction);
        records.push(timed_us(record).0);
        let owned = row.clone();
        appends.push(timed_us(|| ledger.append(owned)).0);
    }
    m.insert("service.ledger_append_us", median_or_zero(&appends));
    m.insert("watch.slo_record_us", median_or_zero(&records));
    telemetry_probes(m);

    // Recorded, silent, silent, recorded: whatever drifts from one
    // mini-round to the next falls on both sides alike.
    let quiet = SessionOpts {
        telemetry: Some(false),
        ..SessionOpts::pinned()
    };
    let (mut recorded, mut silent) = (0.0, 0.0);
    for opts in [SessionOpts::pinned(), quiet, quiet, SessionOpts::pinned()] {
        let wall_s = run_round(Workload::ExploreWarm, setup, opts, 1_000)?.wall_s;
        *(if opts.telemetry.is_none() {
            &mut recorded
        } else {
            &mut silent
        }) += wall_s;
    }
    m.insert("telemetry.overhead_ratio", recorded / silent);
    Ok(())
}

/// Runs the traced phase of one workload: an untraced reference round
/// and its checks, the staged round over the same set-up — its answers
/// and wall-clock are held against the reference's — and the probes.
pub fn trace(w: Workload, seed: u64, scale: Scale) -> Result<Traced> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();
    let (mut setup, reference) = fresh_round(w, seed, scale)?;
    let check = check_round(w, &mut setup, seed, &reference)?;
    let setup = &mut setup;
    let staged = staged_round(w, setup)?;
    let timed: Vec<Stmt> = setup.timed().to_vec();
    let mut failed = check.failed + answer_mismatches(&reference.outcomes, &staged.outcomes);
    failed += deterministic(&staged.outcomes, &timed).failed_stmts;

    span_metrics(&staged.spans, &mut m);
    staged_counts(&staged, &timed, &mut m);
    m.insert("trace.overhead_ratio", staged.wall_s / reference.wall_s);
    m.insert("workload.gen_s", setup.table.gen_s);
    m.insert("storage.load_s", setup.table.load_s);
    m.insert("core.predict_rel_err_p50", check.predict_rel_err_p50());

    // From here on the probes run against the bare cluster.
    setup.table.cluster.set_telemetry(TelemetrySink::noop());
    setup.table.cluster.clear_fault_plan();
    let (cluster, table) = (&setup.table.cluster, setup.table.name);
    kernel_probes(cluster, table, &mut m)?;
    let catalog: Vec<f64> = (0..9)
        .map(|_| timed_us(|| black_box(cluster.block_catalog(table))).0)
        .collect();
    m.insert("storage.catalog_us", median(&catalog));
    let ix = SpanIndex::new(&staged.spans);
    let mut residual = Residual::default();
    scan_path_probes(w, &setup.table, &timed, &staged, &ix, &mut m, &mut residual)?;
    let scratch = match w {
        Workload::DriftChurn => Some(SemanticCache::new(DRIFT_CACHE)),
        Workload::ExploreWarm => Some(SemanticCache::default()),
        _ => None,
    };
    if let Some(cache) = scratch {
        let samples = admit_probe(cluster, table, &cache, &timed, &staged.outcomes)?;
        m.insert("cache.admit_us", median_or_zero(&samples));
    }

    if w == Workload::ExploreWarm {
        service_path_probes(setup, &staged, &ix, &mut m, &mut residual)?;
    } else {
        let sequential = SessionOpts {
            pool: ExecPool::sequential(),
            ..SessionOpts::pinned()
        };
        let one = run_round(w, setup, sequential, 200)?.wall_s;
        let pinned = run_round(w, setup, SessionOpts::pinned(), 200)?.wall_s;
        m.insert("query.pool_speedup", one / pinned);
    }
    m.insert("trace.residual_share", residual.share());
    if w == Workload::FaultedScan {
        // The workload runs with telemetry off; its fault handling is
        // counted on one more round with a recording sink.
        let recording = SessionOpts {
            telemetry: Some(true),
            ..SessionOpts::pinned()
        };
        let counted = run_round(w, setup, recording, usize::MAX)?;
        failed += answer_mismatches(&reference.outcomes, &counted.outcomes);
        m.insert("query.retries", counted.counters.retries as f64);
        m.insert("query.failovers", counted.counters.failovers as f64);
    }

    Ok(Traced {
        metrics: PER_LAYER.iter().map(|s| (s.name, m[s.name])).collect(),
        spans: staged.spans,
        attempted: 2 * timed.len() as u64,
        failed,
    })
}
