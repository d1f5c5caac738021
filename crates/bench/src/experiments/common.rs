//! Shared workload/cluster construction for the experiment runners, plus
//! the telemetry conventions instrumented experiments share.

use sea_common::{AggregateKind, AnalyticalQuery, Record, Rect, Result};
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::{SpanGuard, TelemetrySink};
use sea_workload::{DataGenerator, DataSpec, QueryGenerator, QuerySpec};

/// Histogram every instrumented experiment feeds per-query simulated
/// latency into (the p50/p95/p99 source in `metrics.json`).
pub const QUERY_LATENCY_HISTOGRAM: &str = "bench.query_sim_us";

/// Opens the root `bench.query` span for one experiment query and tags
/// subsequent events with `id`. Spans opened further down the stack
/// (pipeline, executor, storage) nest under the returned guard; callers
/// should [`SpanGuard::record_sim_us`] the query's modelled cost before
/// dropping it.
#[must_use]
pub fn query_span(sink: &TelemetrySink, id: u64) -> SpanGuard {
    sink.begin_query(id);
    sink.incr("bench.queries", 1);
    sink.span("bench.query")
}

/// Records one query's simulated wall-clock microseconds into
/// [`QUERY_LATENCY_HISTOGRAM`].
pub fn observe_query_us(sink: &TelemetrySink, wall_us: f64) {
    sink.observe(QUERY_LATENCY_HISTOGRAM, wall_us);
}

/// A uniform 2-D cluster over `[0, 100]²` with `n` records on `nodes`
/// nodes (hash partitioning, 512-record blocks).
pub fn uniform_cluster(n: usize, nodes: usize, seed: u64) -> Result<StorageCluster> {
    let mut cluster = StorageCluster::new(nodes, 512);
    cluster.load_table("t", uniform_records(n, seed)?, Partitioning::Hash)?;
    Ok(cluster)
}

/// The `n` records of [`uniform_cluster`]'s table `t` for `seed`.
pub fn uniform_records(n: usize, seed: u64) -> Result<Vec<Record>> {
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])?;
    DataGenerator::new(DataSpec::Uniform { domain }, seed).generate(n)
}

/// A 3-D linearly-correlated cluster: attr1 = 2·attr0 + 5 + N(0, noise),
/// attr2 = −attr0 + 100 + N(0, noise); attr0 uniform on [0, 100].
pub fn correlated_cluster(n: usize, nodes: usize, noise: f64, seed: u64) -> Result<StorageCluster> {
    let gen = DataGenerator::new(
        DataSpec::LinearCorrelated {
            x_lo: 0.0,
            x_hi: 100.0,
            slope: vec![2.0, -1.0],
            intercept: vec![5.0, 100.0],
            noise_sigma: vec![noise, noise],
        },
        seed,
    );
    let mut cluster = StorageCluster::new(nodes, 512);
    cluster.load_table("t", gen.generate(n)?, Partitioning::Hash)?;
    Ok(cluster)
}

/// A hotspot COUNT workload over `[0, 100]²` centred at (50, 50).
pub fn count_workload(extent_lo: f64, extent_hi: f64, seed: u64) -> Result<QueryGenerator> {
    let spec = QuerySpec::simple_count(vec![50.0, 50.0], 3.0, (extent_lo, extent_hi))?;
    QueryGenerator::new(spec, seed)
}

/// A rank-join pair of tables with `n` tuples each over `keys` join keys
/// (attr 0 = key, attr 1 = score, attr 2 = payload).
pub fn rankjoin_cluster(n: u64, keys: u64, nodes: usize) -> Result<StorageCluster> {
    let mut c = StorageCluster::new(nodes, 512);
    let score =
        |i: u64, salt: u64| ((i.wrapping_mul(2654435761).wrapping_add(salt)) % 10_000) as f64;
    let left: Vec<Record> = (0..n)
        .map(|i| Record::new(i, vec![(i % keys) as f64, score(i, 17), 1.0]))
        .collect();
    let right: Vec<Record> = (0..n)
        .map(|i| Record::new(i, vec![(i % keys) as f64, score(i, 91), 2.0]))
        .collect();
    c.load_table("l", left, Partitioning::Hash)?;
    c.load_table("r", right, Partitioning::Hash)?;
    Ok(c)
}

/// Mean relative error of `f(query)` against exact ground truth over a
/// probe set drawn from `gen`. Queries whose exact answer is undefined
/// (empty subspaces) are skipped.
pub fn mean_relative_error(
    cluster: &StorageCluster,
    gen: &mut QueryGenerator,
    probes: usize,
    mut f: impl FnMut(&AnalyticalQuery) -> Option<sea_common::AnswerValue>,
) -> Result<f64> {
    let exec = sea_query::Executor::new(cluster);
    let mut total = 0.0;
    let mut n = 0usize;
    let mut attempts = 0usize;
    while n < probes && attempts < probes * 4 {
        attempts += 1;
        let q = gen.next_query();
        let Ok(exact) = exec.execute_direct("t", &q) else {
            continue;
        };
        let Some(pred) = f(&q) else { continue };
        total += pred.relative_error(&exact.answer);
        n += 1;
    }
    Ok(if n == 0 { f64::NAN } else { total / n as f64 })
}

/// A single-hotspot workload with an arbitrary aggregate and centre.
pub fn aggregate_workload(
    center: Vec<f64>,
    spread: f64,
    extents: (f64, f64),
    aggregate: AggregateKind,
    seed: u64,
) -> Result<QueryGenerator> {
    let mut spec = QuerySpec::simple_count(center, spread, extents)?;
    spec.aggregates = vec![aggregate];
    QueryGenerator::new(spec, seed)
}
