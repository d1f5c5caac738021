//! The exact executor: BDAS-style and coordinator–cohort query processing.
//!
//! Every query — either regime, healthy or faulted cluster — takes one
//! scan path: the coordinator *opens* each engaged node's scan (the
//! step that consumes an installed fault plan, and owns retry, backoff,
//! failover and partial answers), then mask evaluation and the per-node
//! partial fold fan out across an [`ExecPool`]'s worker threads — the
//! paper's P1/P4 node parallelism made real on the host, not just in the
//! cost model. Workers do pure compute (telemetry-silent, charging
//! private [`CostMeter`]s); the coordinator then replays each node's
//! telemetry in node-index order, so answers, [`CostReport`]s, and every
//! recorded table are bit-identical to sequential execution regardless
//! of the thread count.

use sea_cache::{CacheDecision, NodeFragment, SemanticCache};
use sea_common::{
    kernels, quantile_of, AggregateKind, AnalyticalQuery, AnswerValue, BivariateStats, CostMeter,
    CostModel, CostReport, Record, Rect, Region, Result, SeaError, SelectionMask,
};
use sea_storage::{Block, DataNode, NodeId, ScanStats, StorageCluster, BDAS_LAYERS, DIRECT_LAYERS};
use sea_telemetry::{TelemetrySink, TraceContext};

use crate::pool::ExecPool;

/// The outcome of executing one analytical query: the exact answer plus
/// the full resource bill.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The (exact) answer.
    pub answer: AnswerValue,
    /// What it cost to produce.
    pub cost: CostReport,
}

/// Per-node partial state shipped to the coordinator. Distributive and
/// algebraic aggregates ship constant-size sufficient statistics; holistic
/// aggregates (median/quantile) must ship the selected values themselves.
#[derive(Debug, Clone)]
enum Partial {
    /// Shipped as the (count, sum, sum_sq) sufficient-statistics triple;
    /// the coordinator's merges read only the first two.
    CountSum {
        count: u64,
        sum: f64,
    },
    /// Centered moments for variance: numerically robust under large
    /// means, where the raw `sum_sq` form cancels catastrophically.
    Moments {
        count: u64,
        mean: f64,
        m2: f64,
    },
    MinMax {
        min: f64,
        max: f64,
    },
    Bivariate(BivariateStats),
    Values(Vec<f64>),
}

impl Partial {
    /// Bytes this partial occupies on the wire.
    fn wire_bytes(&self) -> u64 {
        match self {
            Partial::CountSum { .. } | Partial::Moments { .. } => 24,
            Partial::MinMax { .. } => 16,
            Partial::Bivariate(_) => 48,
            Partial::Values(v) => 8 * v.len() as u64,
        }
    }
}

/// Bounded retry with exponential simulated backoff for transient scan
/// faults. Backoff is *simulated* time charged to the node's meter (the
/// coordinator never sleeps), so retrying has a visible cost in every
/// [`CostReport`] and the determinism contract holds: a node's retries
/// happen back to back in its open phase, consuming that node's
/// fault-plan operations in sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Simulated backoff before the first retry; doubles each retry.
    pub backoff_base_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Three retries ride out the default fault plans' recovery
        // windows; 10 ms base keeps the backoff on the same scale as a
        // disk seek.
        RetryPolicy {
            max_retries: 3,
            backoff_base_us: 10_000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base_us: 0,
        }
    }

    /// Simulated backoff before retry number `retry` (0-based).
    pub fn backoff_us(&self, retry: u32) -> u64 {
        self.backoff_base_us.saturating_mul(1u64 << retry.min(20))
    }
}

/// What the scatter brings back from one node: pure data, a private
/// cost meter, the scan statistics the coordinator needs to replay the
/// node's telemetry afterwards, and the fault handling its open phase
/// performed (replayed as counters/events in node order).
struct NodeScan {
    /// The node's partial aggregate; `None` when the partition was
    /// unavailable and the executor runs in partial-answer mode.
    partial: Option<Partial>,
    meter: CostMeter,
    stats: ScanStats,
    /// Transient-fault retries this scan needed.
    retries: u32,
    /// Whether the scan was served by a replica (primary down/crashed).
    failover: bool,
    /// Whether the partition could not be served at all.
    unavailable: bool,
    /// The node's matched records, cloned for semantic-cache admission
    /// (`None` unless a cache is attached and the region is cacheable).
    records: Option<Vec<Record>>,
}

/// One node's open phase (see [`Executor::scatter_scans`]): what the
/// fault gate and the retry loop left behind before any block is read.
#[derive(Clone, Copy)]
struct Opened<'c> {
    /// `touch_node` plus any retry backoff.
    meter: CostMeter,
    retries: u32,
    /// The serving copy, whether it is a replica failover, and the
    /// gate's latency multiplier; `None` when the partition is
    /// unavailable and the executor runs in partial-answer mode.
    view: Option<(&'c DataNode, bool, f64)>,
}

/// What separates the two processing regimes at the scatter level.
struct Regime {
    span: &'static str,
    counter: &'static str,
    /// `storage.node.scan`'s `kind` tag.
    scan_kind: &'static str,
    /// Layer crossings each engaged node pays.
    layers: u64,
    /// Whether the coordinator prunes: partition metadata picks the
    /// nodes (one request message each) and zone maps pick the blocks.
    /// Otherwise every node reads every block.
    pruned: bool,
}

const BDAS: Regime = Regime {
    span: "query.executor.bdas",
    counter: "query.executor.bdas_queries",
    scan_kind: "full",
    layers: BDAS_LAYERS,
    pruned: false,
};

const DIRECT: Regime = Regime {
    span: "query.executor.direct",
    counter: "query.executor.direct_queries",
    scan_kind: "region",
    layers: DIRECT_LAYERS,
    pruned: true,
};

/// Stateless executor over a [`StorageCluster`].
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    cluster: &'a StorageCluster,
    cost_model: CostModel,
    telemetry: TelemetrySink,
    pool: ExecPool,
    retry: RetryPolicy,
    partial_answers: bool,
    cache: Option<&'a SemanticCache>,
    cache_consult: bool,
}

impl<'a> Executor<'a> {
    /// Creates an executor using the default [`CostModel`]. The executor
    /// inherits the cluster's telemetry sink, so instrumenting the
    /// cluster instruments the whole exact query path, and shares the
    /// process-wide [`ExecPool`] for real node parallelism.
    pub fn new(cluster: &'a StorageCluster) -> Self {
        Executor {
            cluster,
            cost_model: CostModel::default(),
            telemetry: cluster.telemetry().clone(),
            pool: ExecPool::global(),
            retry: RetryPolicy::default(),
            partial_answers: false,
            cache: None,
            cache_consult: false,
        }
    }

    /// Overrides the telemetry sink inherited from the cluster.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Overrides the worker-thread budget (defaults to the shared
    /// [`ExecPool::global`]). Every observable output — answers, cost
    /// reports, recorded telemetry — is identical for every budget; only
    /// host wall-clock changes.
    #[must_use]
    pub fn with_pool(mut self, pool: ExecPool) -> Self {
        self.pool = pool;
        self
    }

    /// Overrides the transient-fault retry policy (defaults to
    /// [`RetryPolicy::default`]).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Opts into partial answers: a partition that stays unavailable
    /// after retries (node down, no live replica) is *skipped* instead
    /// of failing the query, and the outcome's
    /// [`CostReport::answered_fraction`] / `nodes_unavailable` report
    /// the degradation. Off by default — the executor is loud, not
    /// wrong, unless the caller explicitly accepts the trade.
    #[must_use]
    pub fn with_partial_answers(mut self, on: bool) -> Self {
        self.partial_answers = on;
        self
    }

    /// Attaches a [`SemanticCache`]: the executor consults it before
    /// scattering (exact and containment hits answer without touching
    /// any storage node) and offers every successful rectangular answer
    /// — with its per-node record fragments — for cost-based admission
    /// after gathering.
    ///
    /// A cache instance is scoped to **one logical table**: the cache
    /// key is (aggregate, region), so callers querying several tables
    /// through one executor must attach a separate cache per table.
    /// Consultation and admission happen on the coordinator thread, so
    /// determinism across [`ExecPool`] sizes is preserved; batch
    /// execution strips the cache from its inner per-query executors
    /// (concurrent admissions would be schedule-dependent).
    #[must_use]
    pub fn with_cache(mut self, cache: &'a SemanticCache) -> Self {
        self.cache = Some(cache);
        self.cache_consult = true;
        self
    }

    /// Attaches a [`SemanticCache`] for admission only: answers are
    /// offered to the cache after execution, but lookups are the
    /// caller's job (used by `sea-core`'s pipeline, which consults the
    /// cache itself before deciding between prediction and execution,
    /// so hits and misses are counted exactly once).
    #[must_use]
    pub fn with_cache_populate_only(mut self, cache: &'a SemanticCache) -> Self {
        self.cache = Some(cache);
        self.cache_consult = false;
        self
    }

    /// The executor's telemetry sink.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The cluster this executor answers from. The borrow carries the
    /// executor's lifetime, so planners (e.g. `sea-lang`) can derive
    /// schemas and secondary indexes that outlive the executor value.
    pub fn cluster(&self) -> &'a StorageCluster {
        self.cluster
    }

    /// The executor's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Consults the attached [`SemanticCache`] for `query` and, on a
    /// hit, produces the outcome a cold execution would have produced —
    /// bit-identical answer, cache-priced cost report — without touching
    /// any storage node. Returns `None` on a miss or when no cache is
    /// attached. Exposed so a coordinator that owns the predict-vs-exact
    /// decision (`sea-core`'s pipeline) can probe the cache before
    /// committing to execution.
    ///
    /// Exact hits cost one coordinator CPU charge; containment hits pay
    /// a CPU charge per cached record re-filtered plus the merge — still
    /// orders of magnitude below a cluster scan, and deterministic.
    pub fn cache_lookup(&self, query: &AnalyticalQuery) -> Option<Result<QueryOutcome>> {
        let cache = self.cache?;
        match cache.lookup(&query.aggregate, &query.region) {
            CacheDecision::Exact(answer) => {
                let span = self.telemetry.span("query.executor.cache");
                span.tag("class", "exact");
                let mut coord = CostMeter::new();
                coord.charge_cpu(1);
                let cost = coord.report_sequential(&self.cost_model);
                span.record_sim_us(coord.sequential_us(&self.cost_model));
                Some(Ok(QueryOutcome { answer, cost }))
            }
            CacheDecision::Containment(fragments) => {
                let span = self.telemetry.span("query.executor.cache");
                span.tag("class", "containment");
                let derived = self.derive_from_fragments(query, &fragments);
                if let Ok(out) = &derived {
                    span.record_sim_us(out.cost.wall_us);
                }
                Some(derived)
            }
            CacheDecision::Miss { .. } => None,
        }
    }

    /// Re-derives a containment-hit answer from cached per-node
    /// fragments: each fragment's records are re-filtered by the
    /// (smaller) queried region, transposed into per-dimension columns,
    /// and folded through [`KernelAcc`] into a per-node partial, then
    /// merged in node order — the same records, in the same order, a
    /// cold scan would have aggregated, so the answer is bit-identical.
    fn derive_from_fragments(
        &self,
        query: &AnalyticalQuery,
        fragments: &[NodeFragment],
    ) -> Result<QueryOutcome> {
        let mut coord = CostMeter::new();
        let mut partials = Vec::with_capacity(fragments.len());
        for frag in fragments {
            coord.charge_cpu(frag.records.len() as u64);
            let matched: Vec<&Record> = frag
                .records
                .iter()
                .filter(|r| query.region.contains_record(r))
                .collect();
            let dims = matched.first().map_or(0, |r| r.dims());
            let cols: Vec<Vec<f64>> = (0..dims)
                .map(|d| matched.iter().map(|r| r.value(d)).collect())
                .collect();
            let mut acc = KernelAcc::new(&query.aggregate);
            acc.push(&cols, &SelectionMask::all(matched.len()));
            partials.push(acc.finish());
        }
        coord.charge_cpu(partials.len() as u64);
        let answer = merge_partials(&query.aggregate, partials)?;
        let cost = coord.report_sequential(&self.cost_model);
        Ok(QueryOutcome { answer, cost })
    }

    /// Offers a freshly computed answer to the attached cache. Only
    /// complete (no unavailable partitions) rectangular answers with
    /// collected fragments qualify; the cache applies its own cost-based
    /// admission on top. Runs on the coordinator thread after gather, so
    /// admission order — and therefore eviction tie-breaks — is
    /// deterministic for every pool size.
    fn maybe_admit(
        &self,
        query: &AnalyticalQuery,
        answer: &AnswerValue,
        fragments: Option<Vec<NodeFragment>>,
        cost: &CostReport,
    ) {
        let Some(cache) = self.cache else { return };
        let Some(fragments) = fragments else { return };
        if cost.nodes_unavailable > 0 {
            return;
        }
        cache.admit(
            &query.aggregate,
            &query.region,
            answer,
            Some(fragments),
            cost.wall_us,
        );
    }

    /// Executes `query` over `table` MapReduce-style: every node is
    /// engaged through all BDAS layers, scans all of its blocks, filters,
    /// computes a partial aggregate, and ships it over the LAN to a
    /// coordinator that merges.
    ///
    /// # Errors
    ///
    /// Missing table, dimension mismatch, or aggregate errors (e.g. an
    /// operator undefined on an empty selection).
    pub fn execute_bdas(&self, table: &str, query: &AnalyticalQuery) -> Result<QueryOutcome> {
        self.execute_bdas_traced(table, query, &TraceContext::NONE)
    }

    /// [`Executor::execute_bdas`] with an explicit trace parent: the
    /// executor's span tree (scatter → per-node scans → gather) attaches
    /// under `parent`, so a pipeline or geo coordinator's trace stays one
    /// coherent tree across the hop. Each engaged node gets its own
    /// `query.executor.node` span tagged with the node id and carrying
    /// that node's simulated cost; the scatter span is tagged with the
    /// parallel makespan (max over nodes).
    ///
    /// # Errors
    ///
    /// As [`Executor::execute_bdas`].
    pub fn execute_bdas_traced(
        &self,
        table: &str,
        query: &AnalyticalQuery,
        parent: &TraceContext,
    ) -> Result<QueryOutcome> {
        self.execute(table, query, parent, &BDAS, None)
    }

    /// Executes `query` over `table` in the coordinator–cohort regime:
    /// partition pruning picks the candidate nodes, block zone maps prune
    /// within each node, only matching records are aggregated, and each
    /// engaged node pays a single layer crossing.
    ///
    /// # Errors
    ///
    /// As [`Executor::execute_bdas`].
    pub fn execute_direct(&self, table: &str, query: &AnalyticalQuery) -> Result<QueryOutcome> {
        self.execute_direct_traced(table, query, &TraceContext::NONE)
    }

    /// [`Executor::execute_direct`] with an explicit trace parent (see
    /// [`Executor::execute_bdas_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Executor::execute_direct`].
    pub fn execute_direct_traced(
        &self,
        table: &str,
        query: &AnalyticalQuery,
        parent: &TraceContext,
    ) -> Result<QueryOutcome> {
        self.execute(table, query, parent, &DIRECT, None)
    }

    /// One query in either regime: cache probe, scatter, telemetry
    /// replay, gather/merge, cost assembly, cache admission. `shared`
    /// substitutes a batch's superset scan for the per-query scatter;
    /// the span tree, charges and merge are the same either way, so each
    /// batched query's outcome and telemetry replay stay bit-identical
    /// to a standalone execution.
    fn execute(
        &self,
        table: &str,
        query: &AnalyticalQuery,
        parent: &TraceContext,
        regime: &Regime,
        shared: Option<&SharedScan>,
    ) -> Result<QueryOutcome> {
        let _exec_span = self.telemetry.span_child_of(parent, regime.span);
        self.telemetry.incr(regime.counter, 1);
        query.aggregate.validate(self.cluster.dims(table)?)?;
        if self.cache_consult {
            if let Some(hit) = self.cache_lookup(query) {
                return hit;
            }
        }
        let bbox = regime.pruned.then(|| query.region.bounding_rect());
        let nodes: Vec<NodeId> = match &bbox {
            Some(b) => self.cluster.nodes_for_region(table, b)?,
            None => (0..self.cluster.num_nodes()).collect(),
        };
        let mut coord = CostMeter::new();
        let (partials, node_meters, unavailable, fragments) = {
            let scatter = self.telemetry.span("query.executor.scatter");
            if regime.pruned {
                // One request message per engaged node. The fan-out is
                // part of the scatter phase, so its simulated time lands
                // on the scatter span (the coordinator still pays it
                // sequentially in the cost report).
                for _ in &nodes {
                    coord.charge_lan(64);
                }
                scatter.record_sim_us(coord.sequential_us(&self.cost_model));
            }
            let scans = match (shared, &bbox) {
                (Some(shared), Some(b)) => shared.node_scans(&nodes, b, &query.aggregate),
                _ => self.scatter_scans(table, query, &nodes, regime.layers, bbox.as_ref())?,
            };
            let out = self.replay_scatter(table, &nodes, regime.scan_kind, &scatter.ctx(), scans);
            // Nodes run in parallel: the scatter phase lasts as long as
            // its slowest node under the cost model. The per-node spans
            // carry the per-node costs; the makespan is a tag so the
            // tree's sim rollup doesn't double-count.
            scatter.tag(
                "sim_makespan_us",
                out.1
                    .iter()
                    .map(|m| m.sequential_us(&self.cost_model))
                    .fold(0.0, f64::max),
            );
            out
        };
        let gather = self.telemetry.span("query.executor.gather");
        // The gather span carries only the merge work; request fan-out
        // was already attributed to scatter above.
        let mut merge_only = CostMeter::new();
        merge_only.charge_cpu(partials.len() as u64);
        coord.charge_cpu(partials.len() as u64);
        let answer = merge_partials(&query.aggregate, partials)?;
        let mut cost = coord.report_parallel(node_meters.iter(), &self.cost_model);
        Self::note_availability(&mut cost, nodes.len(), unavailable);
        gather.record_sim_us(merge_only.sequential_us(&self.cost_model));
        drop(gather);
        self.maybe_admit(query, &answer, fragments, &cost);
        Ok(QueryOutcome { answer, cost })
    }

    /// The one scan path, for healthy and faulted clusters alike: open →
    /// mask → fold. `bbox` selects the access path: `None` reads every
    /// block (BDAS), `Some` prunes blocks by zone map (direct). Results
    /// come back in node-index order.
    ///
    /// **Open** (coordinator thread, node order): each engaged node's
    /// scan is opened through [`StorageCluster::open_scan`], which is
    /// where an installed fault plan is consumed — exactly one gate
    /// operation per (query, node, attempt). A transient fault is
    /// retried per the executor's [`RetryPolicy`], charging only the
    /// simulated backoff to the node's meter; in partial-answer mode a
    /// partition still out of reach afterwards
    /// ([`SeaError::Storage`]/[`SeaError::Transient`]) becomes an
    /// `unavailable` scan that keeps its backoff and retry count, while
    /// other errors (missing table, bad dims) propagate. Every node is
    /// opened before the first error in node order is returned, because
    /// later queries' fault decisions depend on those counters; a
    /// dimension mismatch is rejected before any gate is consumed.
    ///
    /// Each opened node then asks the storage layer's scan-cost rule
    /// ([`DataNode::charge_scan`]) which blocks the scan reads and what
    /// they cost; the executor neither prunes nor prices blocks itself.
    ///
    /// **Mask** (phase A, pool): the admitted blocks are split into
    /// **morsels** (contiguous runs of roughly [`MORSEL_RECORDS`]
    /// records) so the pool steals within a node, not only across nodes:
    /// a 2-node cluster saturates an 8-way pool. Each morsel evaluates
    /// its blocks' selection bitmaps — pure compute, no telemetry.
    ///
    /// **Fold** (phase B, pool): each node's [`KernelAcc`] partial is
    /// assembled from its masks in block order, so every observable
    /// output is bit-identical for every pool size and morsel
    /// decomposition. The scan's disk + CPU charges are scaled once by
    /// the gate's slow-node multiplier (per-field rounding happens once
    /// per scan, not per block); `touch_node`, backoff and the partial's
    /// LAN bytes are never scaled, and [`ScanStats`] are unscaled.
    fn scatter_scans(
        &self,
        table: &str,
        query: &AnalyticalQuery,
        nodes: &[NodeId],
        layers: u64,
        bbox: Option<&Rect>,
    ) -> Result<Vec<NodeScan>> {
        // Clone matched records only when a cache could admit them: a
        // cache is attached and the region supports the containment
        // algebra (rectangles only).
        let collect = self.cache.is_some() && matches!(query.region, Region::Range(_));
        if let Some(b) = bbox {
            SeaError::check_dims(self.cluster.dims(table)?, b.dims())?;
        }
        // Every node is opened before the first error propagates.
        let attempts: Vec<Result<Opened>> = nodes
            .iter()
            .map(|&node| self.open_node(table, node, layers))
            .collect();
        let opened = attempts.into_iter().collect::<Result<Vec<_>>>()?;
        let plans: Vec<Option<ScanPlan>> = opened
            .iter()
            .map(|o| {
                o.view.map(|(dn, failover, slow)| {
                    let mut charges = CostMeter::new();
                    let (blocks, stats) = dn.charge_scan(bbox, &mut charges);
                    ScanPlan {
                        blocks,
                        charges,
                        stats,
                        failover,
                        slow,
                    }
                })
            })
            .collect();
        // Phase A: morsel-parallel mask evaluation.
        let morsels = plan_morsels(&plans);
        let evals: Vec<Vec<BlockEval>> = self.pool.run(morsels.len(), |mi| {
            morsels[mi]
                .blocks
                .iter()
                .map(|b| eval_block(b, query, bbox))
                .collect()
        });
        // Regroup morsel outputs per node (morsels were planned in node
        // order, contiguously).
        let mut per_node: Vec<Vec<BlockEval>> = vec![Vec::new(); nodes.len()];
        for (m, evs) in morsels.iter().zip(evals) {
            per_node[m.node_idx].extend(evs);
        }
        // Phase B: per-node assembly. Deterministic per node, so it can
        // run on the pool too.
        let scans = self.pool.run(nodes.len(), |i| {
            let Opened {
                mut meter, retries, ..
            } = opened[i];
            let Some(plan) = &plans[i] else {
                return NodeScan {
                    partial: None,
                    meter,
                    stats: ScanStats::default(),
                    retries,
                    failover: false,
                    unavailable: true,
                    records: None,
                };
            };
            let mut stats = plan.stats;
            let mut acc = KernelAcc::new(&query.aggregate);
            let mut records = collect.then(Vec::new);
            for (b, ev) in plan.blocks.iter().zip(&per_node[i]) {
                stats.records_returned += ev.returned;
                acc.push(b.cols(), &ev.refined);
                if let Some(out) = &mut records {
                    ev.refined.for_each_set(|r| out.push(b.record(r)));
                }
            }
            // The identity at the healthy multiplier 1.0.
            meter.merge_scaled(&plan.charges, plan.slow);
            let partial = acc.finish();
            meter.charge_lan(partial.wire_bytes());
            NodeScan {
                partial: Some(partial),
                meter,
                stats,
                retries,
                failover: plan.failover,
                unavailable: false,
                records,
            }
        });
        Ok(scans)
    }

    /// The open phase for one node (see [`Executor::scatter_scans`]).
    fn open_node(&self, table: &str, node: NodeId, layers: u64) -> Result<Opened<'a>> {
        let mut meter = CostMeter::new();
        meter.touch_node(layers);
        let mut retries = 0u32;
        loop {
            let view = match self.cluster.open_scan(table, node) {
                Ok(view) => Some(view),
                Err(ref e) if e.is_transient() && retries < self.retry.max_retries => {
                    meter.charge_backoff(self.retry.backoff_us(retries));
                    retries += 1;
                    continue;
                }
                Err(SeaError::Storage(_) | SeaError::Transient(_)) if self.partial_answers => None,
                Err(e) => return Err(e),
            };
            return Ok(Opened {
                meter,
                retries,
                view,
            });
        }
    }

    /// Stamps a report with the scatter phase's availability outcome:
    /// what fraction of the engaged partitions actually answered.
    fn note_availability(cost: &mut CostReport, engaged: usize, unavailable: u64) {
        if engaged > 0 && unavailable > 0 {
            cost.answered_fraction = (engaged as u64 - unavailable) as f64 / engaged as f64;
            cost.nodes_unavailable = unavailable;
        }
    }

    /// Replays the telemetry of completed scatter scans in node-index
    /// order on the calling thread: one `query.executor.node` span per
    /// node (under `scatter_ctx`) wrapping the replayed
    /// `storage.node.scan` span, counters, and event. Because this runs
    /// single-threaded in a fixed order, the recorded tables — span
    /// ids, event sequence, counter totals — are bit-identical to what
    /// the old sequential loop produced, for every pool size.
    fn replay_scatter(
        &self,
        table: &str,
        nodes: &[NodeId],
        kind: &str,
        scatter_ctx: &TraceContext,
        scans: Vec<NodeScan>,
    ) -> (Vec<Partial>, Vec<CostMeter>, u64, Option<Vec<NodeFragment>>) {
        let mut partials = Vec::with_capacity(scans.len());
        let mut meters = Vec::with_capacity(scans.len());
        let mut unavailable = 0u64;
        let mut fragments: Option<Vec<NodeFragment>> = None;
        for (node, scan) in nodes.iter().zip(scans) {
            let node_span = self
                .telemetry
                .span_child_of(scatter_ctx, "query.executor.node");
            node_span.tag("node", *node);
            if scan.retries > 0 {
                self.telemetry
                    .incr("query.retries", u64::from(scan.retries));
                self.telemetry.event(
                    "query.node_retried",
                    &[("node", (*node).into()), ("retries", scan.retries.into())],
                );
                node_span.tag("retries", scan.retries);
            }
            if scan.failover {
                self.telemetry.incr("query.failovers", 1);
                self.telemetry
                    .event("query.node_failover", &[("node", (*node).into())]);
                node_span.tag("failover", true);
            }
            if scan.unavailable {
                unavailable += 1;
                self.telemetry.incr("query.degraded", 1);
                self.telemetry
                    .event("query.node_unavailable", &[("node", (*node).into())]);
                node_span.tag("unavailable", true);
            } else {
                self.cluster
                    .record_scan(table, *node, kind, &scan.stats, &node_span.ctx());
            }
            let node_sim_us = scan.meter.sequential_us(&self.cost_model);
            if !scan.unavailable {
                // Per-node cost feed for the watch layer's anomaly
                // detector; replayed here in node-index order so the
                // derived suspicion stream is deterministic too.
                self.telemetry.event(
                    "query.node_cost",
                    &[("node", (*node).into()), ("sim_us", node_sim_us.into())],
                );
            }
            node_span.record_sim_us(node_sim_us);
            if let Some(partial) = scan.partial {
                partials.push(partial);
            }
            if let Some(records) = scan.records {
                fragments.get_or_insert_with(Vec::new).push(NodeFragment {
                    node: *node as u64,
                    records,
                });
            }
            meters.push(scan.meter);
        }
        (partials, meters, unavailable, fragments)
    }

    /// Executes many queries concurrently in the direct regime, fanning
    /// whole queries out across the pool — the shape batched analytics
    /// workloads (E1/E4/E7) actually have. Results come back in query
    /// order, each exactly what [`Executor::execute_direct`] would have
    /// returned. Per-query node scans run inline on the query's worker
    /// (a nested fan-out would oversubscribe the host).
    ///
    /// Under an installed fault plan the queries share per-node operation
    /// counters, so they run one after another in query order (each with
    /// the full pool inside the query): which query meets which fault —
    /// and pays its backoff — is then a function of the batch alone, not
    /// of thread timing.
    pub fn execute_batch(
        &self,
        table: &str,
        queries: &[AnalyticalQuery],
    ) -> Vec<Result<QueryOutcome>> {
        self.run_batch(table, queries, &DIRECT)
    }

    /// [`Executor::execute_batch`] in the BDAS regime.
    pub fn execute_batch_bdas(
        &self,
        table: &str,
        queries: &[AnalyticalQuery],
    ) -> Vec<Result<QueryOutcome>> {
        self.run_batch(table, queries, &BDAS)
    }

    /// Each query's span tree attaches under the batch span even though
    /// it is built on a worker thread; with a recording sink, span ids
    /// and event interleavings across queries depend on scheduling —
    /// batch telemetry is coherent per query but not bit-reproducible
    /// across runs (single-query execution is).
    fn run_batch(
        &self,
        table: &str,
        queries: &[AnalyticalQuery],
        regime: &Regime,
    ) -> Vec<Result<QueryOutcome>> {
        let batch_span = self.telemetry.span("query.executor.batch");
        batch_span.tag("queries", queries.len());
        let ctx = batch_span.ctx();
        // Batches run cache-less: concurrent admissions would make
        // admission order (and thus eviction tie-breaks)
        // schedule-dependent.
        let mut inner = self.clone();
        inner.cache = None;
        inner.cache_consult = false;
        if self.cluster.has_fault_plan() {
            return queries
                .iter()
                .map(|q| inner.execute(table, q, &ctx, regime, None))
                .collect();
        }
        // All-rectangular direct batches on a healthy cluster share one
        // superset scan: the union of the batch's query boxes is gathered
        // once per node, and every query evaluates its predicate against
        // that (much smaller) shared subset. Answers, cost reports, and
        // the telemetry replay are bit-identical to standalone execution
        // — the shared scan reproduces the per-query scan's exact charges
        // and float-op sequence — so this is purely a wall-clock win.
        let shared = if regime.pruned {
            self.plan_shared_scan(table, queries)
        } else {
            None
        };
        let inner = inner.with_pool(ExecPool::sequential());
        self.pool.run(queries.len(), |i| {
            inner.execute(table, &queries[i], &ctx, regime, shared.as_ref())
        })
    }

    /// Builds the batch-shared superset scan, or `None` when the batch
    /// does not qualify (fewer than two queries, any non-rectangular or
    /// dimension-mismatched region, or any primary down — those fall
    /// back to independent per-query scans). Only called on a cluster
    /// without a fault plan: a faulted batch opens its scans per query.
    fn plan_shared_scan(&self, table: &str, queries: &[AnalyticalQuery]) -> Option<SharedScan<'a>> {
        if queries.len() < 2 || self.cluster.any_primary_down() {
            return None;
        }
        let dims = self.cluster.dims(table).ok()?;
        if dims == 0 {
            return None;
        }
        let mut union: Option<Rect> = None;
        for q in queries {
            let Region::Range(r) = &q.region else {
                return None;
            };
            if r.dims() != dims {
                return None;
            }
            union = Some(match union {
                None => r.clone(),
                Some(u) => u.union(r).ok()?,
            });
        }
        let union = union?;
        let n_nodes = self.cluster.num_nodes();
        let mut views = Vec::with_capacity(n_nodes);
        for node in 0..n_nodes {
            let (dn, _) = self.cluster.serving_node(table, node).ok()?;
            views.push(dn);
        }
        // One pass per node: gather the union-box rows' columns in
        // record order. Each node is independent, so the pass
        // parallelises freely.
        let nodes = self.pool.run(n_nodes, |n| {
            let node = views[n];
            let mut sub: Vec<Vec<f64>> = vec![Vec::new(); dims];
            for b in node.blocks() {
                if b.bounds().is_some_and(|bb| bb.intersects(&union)) {
                    let m = b.bbox_mask(&union);
                    if !m.is_none_set() {
                        for (d, out) in sub.iter_mut().enumerate() {
                            kernels::gather(b.col(d), &m, out);
                        }
                    }
                }
            }
            SharedNode { node, sub }
        });
        Some(SharedScan { nodes })
    }
}

/// Target morsel size in records: the intra-node work unit the pool
/// steals. A fixed constant independent of thread count, so the morsel
/// decomposition — and everything downstream — never depends on the
/// host's parallelism.
const MORSEL_RECORDS: usize = 4096;

/// What the storage layer's scan-cost rule ([`DataNode::charge_scan`])
/// decided for one opened node: the blocks the scan reads, their
/// unscaled disk + CPU charges, and the scan statistics (rows returned
/// are filled in by the fold) — plus what the open phase learned about
/// the serving copy (replica failover, slow-node multiplier).
struct ScanPlan<'c> {
    blocks: Vec<&'c Block>,
    charges: CostMeter,
    stats: ScanStats,
    failover: bool,
    slow: f64,
}

/// A contiguous run of one node's admitted blocks: the unit of phase-A
/// mask evaluation.
struct Morsel<'p, 'c> {
    /// Index into the scatter's `opened`/`nodes` arrays.
    node_idx: usize,
    blocks: &'p [&'c Block],
}

/// Splits each planned node's admitted blocks into morsels of roughly
/// [`MORSEL_RECORDS`] records (at least one block each), in node order.
fn plan_morsels<'p, 'c>(plans: &'p [Option<ScanPlan<'c>>]) -> Vec<Morsel<'p, 'c>> {
    let mut out = Vec::new();
    for (node_idx, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        let mut rest = plan.blocks.as_slice();
        while !rest.is_empty() {
            let mut hi = 0;
            let mut rows = 0;
            while hi < rest.len() && rows < MORSEL_RECORDS {
                rows += rest[hi].len();
                hi += 1;
            }
            let (blocks, tail) = rest.split_at(hi);
            out.push(Morsel { node_idx, blocks });
            rest = tail;
        }
    }
    out
}

/// One node's share of a batch superset scan: the serving copy (whose
/// zone maps price each query's scan) and the gathered sub-columns of
/// the rows inside the union of the batch's query boxes, in node record
/// order.
struct SharedNode<'c> {
    node: &'c DataNode,
    sub: Vec<Vec<f64>>,
}

/// A batch-shared superset scan over the whole cluster (see
/// [`Executor::plan_shared_scan`]).
struct SharedScan<'c> {
    nodes: Vec<SharedNode<'c>>,
}

impl SharedScan<'_> {
    /// Replays one query's per-node scans against the shared subset.
    ///
    /// Charges and block statistics come from the same
    /// [`DataNode::charge_scan`] call the direct scan makes, and the
    /// kernel fold visits the query's rows in the same record order the
    /// direct scan would, so the resulting [`NodeScan`]s are
    /// bit-identical to [`Executor::scatter_scans`]' on a healthy
    /// cluster. (Every row in the query box lies in the union box, and
    /// its block's bounds necessarily intersect the query box, so the
    /// shared subset loses nothing.)
    fn node_scans(
        &self,
        candidates: &[NodeId],
        bbox: &Rect,
        aggregate: &AggregateKind,
    ) -> Vec<NodeScan> {
        candidates
            .iter()
            .map(|&node| {
                let sn = &self.nodes[node];
                let mut meter = CostMeter::new();
                meter.touch_node(DIRECT_LAYERS);
                let (_, mut stats) = sn.node.charge_scan(Some(bbox), &mut meter);
                let sub_len = sn.sub.first().map_or(0, Vec::len);
                let qmask = kernels::range_mask(&sn.sub, sub_len, bbox.lo(), bbox.hi());
                stats.records_returned = qmask.count();
                let mut acc = KernelAcc::new(aggregate);
                acc.push(&sn.sub, &qmask);
                let partial = acc.finish();
                meter.charge_lan(partial.wire_bytes());
                NodeScan {
                    partial: Some(partial),
                    meter,
                    stats,
                    retries: 0,
                    failover: false,
                    unavailable: false,
                    records: None,
                }
            })
            .collect()
    }
}

/// Phase-A output for one admitted block: how many rows its
/// bounding-box filter returns, and the selection bitmap of rows
/// matching the query region (the rows the kernel fold visits).
#[derive(Clone)]
struct BlockEval {
    returned: usize,
    refined: SelectionMask,
}

/// Evaluates one admitted block's masks for `query`. `bbox = None` is
/// the full-scan (BDAS) path: `refined` selects the region's rows among
/// all of the block's. `bbox = Some` is the zone-map pruned path:
/// `refined` is the exact equivalent of bounding-box filtering followed
/// by `region.contains_record`.
fn eval_block(b: &Block, query: &AnalyticalQuery, bbox: Option<&Rect>) -> BlockEval {
    let Some(rect) = bbox else {
        return BlockEval {
            returned: b.len(),
            refined: b.region_mask(&query.region),
        };
    };
    let bmask = b.bbox_mask(rect);
    let returned = bmask.count();
    let refined = match &query.region {
        // For a rectangular region the bounding box *is* the region, so
        // the bbox mask already is the exact selection.
        Region::Range(_) => bmask,
        other => {
            let mut m = b.region_mask(other);
            m.intersect(&bmask);
            m
        }
    };
    BlockEval { returned, refined }
}

/// A running per-node partial folded directly over column slices, in
/// record order over the selected rows — the crate's only fold, so a
/// cold scan and a containment re-derivation of the same records
/// produce bit-identical [`Partial`]s.
enum KernelAcc {
    Count {
        count: u64,
    },
    SumSq {
        dim: usize,
        count: u64,
        sum: f64,
        sum_sq: f64,
    },
    Welford {
        dim: usize,
        count: u64,
        mean: f64,
        m2: f64,
    },
    MinMax {
        dim: usize,
        min: f64,
        max: f64,
    },
    Values {
        dim: usize,
        values: Vec<f64>,
    },
    Bivariate {
        x: usize,
        y: usize,
        stats: BivariateStats,
    },
    /// Future `AggregateKind` variants (the enum is non-exhaustive):
    /// finishes to an empty `Values` partial so [`merge_partials`] can
    /// reject them explicitly.
    Opaque,
}

impl KernelAcc {
    fn new(agg: &AggregateKind) -> Self {
        match *agg {
            AggregateKind::Count => KernelAcc::Count { count: 0 },
            AggregateKind::Sum { dim } | AggregateKind::Mean { dim } => KernelAcc::SumSq {
                dim,
                count: 0,
                sum: 0.0,
                sum_sq: 0.0,
            },
            AggregateKind::Variance { dim } => KernelAcc::Welford {
                dim,
                count: 0,
                mean: 0.0,
                m2: 0.0,
            },
            AggregateKind::Min { dim } | AggregateKind::Max { dim } => KernelAcc::MinMax {
                dim,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            },
            AggregateKind::Median { dim } | AggregateKind::Quantile { dim, .. } => {
                KernelAcc::Values {
                    dim,
                    values: Vec::new(),
                }
            }
            AggregateKind::Correlation { x, y } | AggregateKind::Regression { x, y } => {
                KernelAcc::Bivariate {
                    x,
                    y,
                    stats: BivariateStats::default(),
                }
            }
            _ => KernelAcc::Opaque,
        }
    }

    /// Folds the rows `mask` selects from `cols` into the accumulator,
    /// in row order.
    fn push(&mut self, cols: &[Vec<f64>], mask: &SelectionMask) {
        if mask.is_none_set() {
            return;
        }
        match self {
            KernelAcc::Count { count } => *count += mask.count() as u64,
            KernelAcc::SumSq {
                dim,
                count,
                sum,
                sum_sq,
            } => {
                *count += mask.count() as u64;
                kernels::fold_sum_sq(&cols[*dim], mask, sum, sum_sq);
            }
            KernelAcc::Welford {
                dim,
                count,
                mean,
                m2,
            } => kernels::fold_welford(&cols[*dim], mask, count, mean, m2),
            KernelAcc::MinMax { dim, min, max } => {
                kernels::fold_min_max(&cols[*dim], mask, min, max)
            }
            KernelAcc::Values { dim, values } => kernels::gather(&cols[*dim], mask, values),
            KernelAcc::Bivariate { x, y, stats } => {
                kernels::fold_bivariate(&cols[*x], &cols[*y], mask, stats)
            }
            KernelAcc::Opaque => {}
        }
    }

    fn finish(self) -> Partial {
        match self {
            KernelAcc::Count { count } => Partial::CountSum { count, sum: 0.0 },
            KernelAcc::SumSq { count, sum, .. } => Partial::CountSum { count, sum },
            KernelAcc::Welford {
                count, mean, m2, ..
            } => Partial::Moments { count, mean, m2 },
            KernelAcc::MinMax { min, max, .. } => Partial::MinMax { min, max },
            KernelAcc::Values { values, .. } => Partial::Values(values),
            KernelAcc::Bivariate { stats, .. } => Partial::Bivariate(stats),
            KernelAcc::Opaque => Partial::Values(Vec::new()),
        }
    }
}

fn merge_partials(agg: &AggregateKind, partials: Vec<Partial>) -> Result<AnswerValue> {
    match *agg {
        AggregateKind::Count => {
            let total: u64 = partials.iter().map(count_of).sum();
            Ok(AnswerValue::Scalar(total as f64))
        }
        AggregateKind::Sum { .. } => {
            let total: f64 = partials.iter().map(sum_of).sum();
            Ok(AnswerValue::Scalar(total))
        }
        AggregateKind::Mean { .. } => {
            let n: u64 = partials.iter().map(count_of).sum();
            if n == 0 {
                return Err(SeaError::Empty("mean over empty subspace".into()));
            }
            let s: f64 = partials.iter().map(sum_of).sum();
            Ok(AnswerValue::Scalar(s / n as f64))
        }
        AggregateKind::Variance { .. } => {
            // Chan et al.'s pairwise merge of per-node centered moments;
            // the final clamp guards the residual rounding that can push
            // a near-zero variance negative.
            let mut count = 0u64;
            let mut mean = 0.0;
            let mut m2 = 0.0;
            let mut fold = |nb: u64, mb: f64, m2b: f64| {
                if nb == 0 {
                    return;
                }
                let na = count as f64;
                let nbf = nb as f64;
                let total = na + nbf;
                let delta = mb - mean;
                mean += delta * nbf / total;
                m2 += m2b + delta * delta * na * nbf / total;
                count += nb;
            };
            for p in &partials {
                if let Partial::Moments { count, mean, m2 } = p {
                    fold(*count, *mean, *m2);
                }
            }
            if count == 0 {
                return Err(SeaError::Empty("variance over empty subspace".into()));
            }
            Ok(AnswerValue::Scalar((m2 / count as f64).max(0.0)))
        }
        AggregateKind::Min { .. } => {
            let m = partials
                .iter()
                .filter_map(|p| match p {
                    Partial::MinMax { min, .. } if min.is_finite() => Some(*min),
                    _ => None,
                })
                .fold(f64::INFINITY, f64::min);
            if m.is_finite() {
                Ok(AnswerValue::Scalar(m))
            } else {
                Err(SeaError::Empty("min over empty subspace".into()))
            }
        }
        AggregateKind::Max { .. } => {
            let m = partials
                .iter()
                .filter_map(|p| match p {
                    Partial::MinMax { max, .. } if max.is_finite() => Some(*max),
                    _ => None,
                })
                .fold(f64::NEG_INFINITY, f64::max);
            if m.is_finite() {
                Ok(AnswerValue::Scalar(m))
            } else {
                Err(SeaError::Empty("max over empty subspace".into()))
            }
        }
        AggregateKind::Median { .. } => quantile_of(values_of(partials), 0.5),
        AggregateKind::Quantile { q, .. } => quantile_of(values_of(partials), q),
        AggregateKind::Correlation { .. } => {
            let mut stats = BivariateStats::default();
            for p in &partials {
                if let Partial::Bivariate(b) = p {
                    stats.merge(b);
                }
            }
            stats.correlation().map(AnswerValue::Scalar)
        }
        AggregateKind::Regression { .. } => {
            let mut stats = BivariateStats::default();
            for p in &partials {
                if let Partial::Bivariate(b) = p {
                    stats.merge(b);
                }
            }
            let (slope, intercept) = stats.ols_line()?;
            Ok(AnswerValue::Pair(slope, intercept))
        }
        _ => Err(SeaError::invalid("aggregate not supported by the executor")),
    }
}

fn count_of(p: &Partial) -> u64 {
    match p {
        Partial::CountSum { count, .. } => *count,
        _ => 0,
    }
}

fn sum_of(p: &Partial) -> f64 {
    match p {
        Partial::CountSum { sum, .. } => *sum,
        _ => 0.0,
    }
}

/// Every node's shipped values, in node order.
fn values_of(partials: Vec<Partial>) -> impl Iterator<Item = f64> {
    partials.into_iter().flat_map(|p| match p {
        Partial::Values(v) => v,
        _ => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Ball, Point, Rect, Region, SeaError};
    use sea_storage::Partitioning;

    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 64);
        let records: Vec<Record> = (0..2000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64, (i % 7) as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let records2: Vec<Record> = (0..2000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64, (i % 7) as f64]))
            .collect();
        c.load_table(
            "t_range",
            records2,
            Partitioning::Range {
                dim: 0,
                splits: Partitioning::equi_width_splits(0.0, 100.0, 4),
            },
        )
        .unwrap();
        c
    }

    fn count_query(lo: Vec<f64>, hi: Vec<f64>) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::new(lo, hi).unwrap()),
            AggregateKind::Count,
        )
    }

    fn oracle(c: &StorageCluster, table: &str, q: &AnalyticalQuery) -> AnswerValue {
        let all: Vec<Record> = c.all_records(table).unwrap();
        q.answer_exact(&all).unwrap()
    }

    #[test]
    fn bdas_and_direct_agree_with_oracle_on_all_aggregates() {
        let c = cluster();
        let exec = Executor::new(&c);
        let region = Region::Range(Rect::new(vec![10.0, 0.0, 0.0], vec![60.0, 15.0, 6.0]).unwrap());
        let aggregates = vec![
            AggregateKind::Count,
            AggregateKind::Sum { dim: 1 },
            AggregateKind::Mean { dim: 1 },
            AggregateKind::Variance { dim: 2 },
            AggregateKind::Min { dim: 0 },
            AggregateKind::Max { dim: 1 },
            AggregateKind::Median { dim: 0 },
            AggregateKind::Quantile { dim: 0, q: 0.25 },
            AggregateKind::Correlation { x: 0, y: 2 },
            AggregateKind::Regression { x: 0, y: 1 },
        ];
        for agg in aggregates {
            let q = AnalyticalQuery::new(region.clone(), agg);
            let want = oracle(&c, "t", &q);
            let bdas = exec.execute_bdas("t", &q).unwrap();
            let direct = exec.execute_direct("t", &q).unwrap();
            assert!(
                bdas.answer.relative_error(&want) < 1e-9,
                "bdas {agg:?}: {:?} vs {want:?}",
                bdas.answer
            );
            assert!(
                direct.answer.relative_error(&want) < 1e-9,
                "direct {agg:?}: {:?} vs {want:?}",
                direct.answer
            );
        }
    }

    #[test]
    fn radius_queries_agree() {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = AnalyticalQuery::new(
            Region::Radius(Ball::new(Point::new(vec![50.0, 10.0, 3.0]), 8.0).unwrap()),
            AggregateKind::Count,
        );
        let want = oracle(&c, "t", &q);
        assert_eq!(exec.execute_bdas("t", &q).unwrap().answer, want);
        assert_eq!(exec.execute_direct("t", &q).unwrap().answer, want);
    }

    #[test]
    fn direct_is_cheaper_than_bdas() {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = count_query(vec![10.0, 0.0, 0.0], vec![20.0, 5.0, 6.0]);
        let bdas = exec.execute_bdas("t", &q).unwrap();
        let direct = exec.execute_direct("t", &q).unwrap();
        assert!(
            direct.cost.wall_us < bdas.cost.wall_us,
            "direct {} vs bdas {}",
            direct.cost.wall_us,
            bdas.cost.wall_us
        );
        assert!(direct.cost.totals.disk_bytes < bdas.cost.totals.disk_bytes);
        assert!(direct.cost.totals.layer_crossings < bdas.cost.totals.layer_crossings);
    }

    #[test]
    fn direct_on_range_partitioning_touches_fewer_nodes() {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = count_query(vec![10.0, 0.0, 0.0], vec![20.0, 1e9, 6.0]);
        let hash = exec.execute_direct("t", &q).unwrap();
        let ranged = exec.execute_direct("t_range", &q).unwrap();
        assert_eq!(hash.answer, ranged.answer);
        assert!(ranged.cost.totals.nodes_touched < hash.cost.totals.nodes_touched);
        assert_eq!(ranged.cost.totals.nodes_touched, 1);
    }

    #[test]
    fn bdas_engages_every_node() {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = count_query(vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]);
        let out = exec.execute_bdas("t", &q).unwrap();
        assert_eq!(out.cost.totals.nodes_touched, 4);
        assert_eq!(out.cost.totals.layer_crossings, 4 * BDAS_LAYERS);
    }

    #[test]
    fn empty_selection_semantics() {
        let c = cluster();
        let exec = Executor::new(&c);
        let nowhere = count_query(vec![-10.0, -10.0, -10.0], vec![-5.0, -5.0, -5.0]);
        assert_eq!(
            exec.execute_bdas("t", &nowhere).unwrap().answer,
            AnswerValue::Scalar(0.0)
        );
        let mean_nowhere =
            AnalyticalQuery::new(nowhere.region.clone(), AggregateKind::Mean { dim: 0 });
        assert!(matches!(
            exec.execute_direct("t", &mean_nowhere),
            Err(SeaError::Empty(_))
        ));
    }

    #[test]
    fn missing_table_is_an_error() {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = count_query(vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]);
        assert!(matches!(
            exec.execute_bdas("missing", &q),
            Err(SeaError::NotFound(_))
        ));
    }

    #[test]
    fn invalid_aggregate_dim_is_an_error() {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap()),
            AggregateKind::Mean { dim: 9 },
        );
        assert!(exec.execute_bdas("t", &q).is_err());
        assert!(exec.execute_direct("t", &q).is_err());
    }

    #[test]
    fn recording_sink_yields_one_coherent_span_tree() {
        use sea_telemetry::FieldValue;
        let mut c = cluster();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        let exec = Executor::new(&c);
        sink.begin_query(9);
        let q = count_query(vec![10.0, 0.0, 0.0], vec![60.0, 15.0, 6.0]);
        exec.execute_bdas("t", &q).unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.spans.roots.len(), 1, "one query → one span tree");
        let root = &snap.spans.roots[0];
        assert_eq!(root.name, "query.executor.bdas");
        assert_eq!(root.trace_id, sea_telemetry::trace_id_for_query(9));
        let scatter = root.find("query.executor.scatter").unwrap();
        let nodes: Vec<_> = scatter
            .children
            .iter()
            .filter(|s| s.name == "query.executor.node")
            .collect();
        assert_eq!(nodes.len(), 4, "every node under scatter");
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.tag("node"), Some(&FieldValue::U64(i as u64)));
            assert!(n.sim_us > 0.0, "per-node sim cost attributed");
            assert_eq!(n.trace_id, root.trace_id, "single trace end to end");
            let scan = n.find("storage.node.scan").expect("scan under its node");
            assert_eq!(scan.parent_span_id, n.span_id);
            assert_eq!(scan.tag("node"), Some(&FieldValue::U64(i as u64)));
        }
        assert!(root.find("query.executor.gather").is_some());
        assert!(scatter.tag("sim_makespan_us").is_some());
    }

    #[test]
    fn direct_traced_attributes_only_engaged_nodes() {
        let mut c = cluster();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        let exec = Executor::new(&c);
        let q = count_query(vec![10.0, 0.0, 0.0], vec![20.0, 1e9, 6.0]);
        exec.execute_direct("t_range", &q).unwrap();
        let snap = sink.snapshot().unwrap();
        let root = &snap.spans.roots[0];
        assert_eq!(root.name, "query.executor.direct");
        let scatter = root.find("query.executor.scatter").unwrap();
        let nodes: Vec<_> = scatter
            .children
            .iter()
            .filter(|s| s.name == "query.executor.node")
            .collect();
        assert_eq!(nodes.len(), 1, "range pruning → one engaged node");
    }

    #[test]
    fn merge_quantile_survives_nan_values() {
        // NaN record values can't pass a region filter, but partials fed
        // from other sources (or future float paths) must not abort the
        // coordinator: total_cmp sorts NaN after +inf instead of
        // panicking mid-merge.
        let partials = vec![
            Partial::Values(vec![2.0, f64::NAN]),
            Partial::Values(vec![1.0, 3.0]),
        ];
        let median = AggregateKind::Median { dim: 0 };
        let got = merge_partials(&median, partials).unwrap();
        assert_eq!(got, AnswerValue::Scalar(2.5), "median of finite prefix");
        let all_nan = vec![Partial::Values(vec![f64::NAN, f64::NAN])];
        // Degenerate input: still no panic (the answer is NaN-poisoned,
        // which is honest).
        let _ = merge_partials(&median, all_nan).unwrap();
    }

    #[test]
    fn distributed_variance_is_robust_under_large_means() {
        // dim-1 values sit at 1e9 + i%5: the raw sq/n − (s/n)² form
        // cancels to garbage (often negative); the Welford/Chan merge
        // must match the oracle and stay non-negative.
        let mut c = StorageCluster::new(4, 64);
        let records: Vec<Record> = (0..2000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, 1e9 + (i % 5) as f64]))
            .collect();
        c.load_table("big", records, Partitioning::Hash).unwrap();
        let exec = Executor::new(&c);
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![0.0, 0.0], vec![100.0, 2e9]).unwrap()),
            AggregateKind::Variance { dim: 1 },
        );
        let want = oracle(&c, "big", &q);
        let AnswerValue::Scalar(want_v) = want else {
            panic!("scalar oracle")
        };
        assert!(want_v > 1.9 && want_v < 2.1, "oracle sanity: {want_v}");
        for out in [
            exec.execute_bdas("big", &q).unwrap(),
            exec.execute_direct("big", &q).unwrap(),
        ] {
            let AnswerValue::Scalar(got) = out.answer else {
                panic!("scalar answer")
            };
            assert!(got >= 0.0, "variance must be non-negative, got {got}");
            assert!(
                (got - want_v).abs() < 1e-6 * want_v.max(1.0),
                "got {got}, want {want_v}"
            );
        }
    }

    #[test]
    fn direct_request_fanout_is_attributed_to_scatter_not_gather() {
        let mut c = cluster();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        let exec = Executor::new(&c);
        let q = count_query(vec![10.0, 0.0, 0.0], vec![60.0, 15.0, 6.0]);
        let out = exec.execute_direct("t", &q).unwrap();
        let snap = sink.snapshot().unwrap();
        let root = &snap.spans.roots[0];
        let scatter = root.find("query.executor.scatter").unwrap();
        let gather = root.find("query.executor.gather").unwrap();
        let model = exec.cost_model();
        let mut request = CostMeter::new();
        for _ in 0..4 {
            request.charge_lan(64);
        }
        let mut merge = CostMeter::new();
        merge.charge_cpu(4);
        assert!(
            (scatter.sim_us - request.sequential_us(model)).abs() < 1e-12,
            "scatter carries the request fan-out: {}",
            scatter.sim_us
        );
        assert!(
            (gather.sim_us - merge.sequential_us(model)).abs() < 1e-12,
            "gather carries only the merge: {}",
            gather.sim_us
        );
        // The report still bills both coordinator phases.
        let mut coord = request;
        coord.charge_cpu(4);
        let node_sim: f64 = root
            .find("query.executor.scatter")
            .unwrap()
            .children
            .iter()
            .filter(|s| s.name == "query.executor.node")
            .map(|s| s.sim_us)
            .fold(0.0, f64::max);
        assert!(
            (out.cost.wall_us - (coord.sequential_us(model) + node_sim)).abs() < 1e-9,
            "wall = coordinator + slowest node"
        );
    }

    #[test]
    fn transient_faults_are_retried_with_charged_backoff() {
        use sea_storage::FaultPlan;
        let mut c = cluster();
        let baseline = Executor::new(&c)
            .execute_direct(
                "t",
                &count_query(vec![10.0, 0.0, 0.0], vec![60.0, 15.0, 6.0]),
            )
            .unwrap();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        c.set_fault_plan(FaultPlan::new(42).with_transient(0.5, 1));
        let exec = Executor::new(&c);
        let q = count_query(vec![10.0, 0.0, 0.0], vec![60.0, 15.0, 6.0]);
        let out = exec.execute_direct("t", &q).unwrap();
        assert_eq!(out.answer, baseline.answer, "retries recover the answer");
        assert!(
            out.cost.totals.backoff_us > 0,
            "backoff is charged to the meter"
        );
        assert!(
            out.cost.wall_us > baseline.cost.wall_us,
            "fault recovery costs simulated time"
        );
        assert_eq!(out.cost.answered_fraction, 1.0);
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter("query.retries") > 0);
        assert!(snap.event_count("query.node_retried") > 0);
    }

    #[test]
    fn crashed_node_fails_over_to_replica() {
        use sea_storage::FaultPlan;
        let mut c = StorageCluster::with_replication(4, 64);
        let records: Vec<Record> = (0..2000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64, (i % 7) as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let baseline = Executor::new(&c)
            .execute_bdas("t", &count_query(vec![0.0; 3], vec![100.0, 20.0, 6.0]))
            .unwrap();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        c.set_fault_plan(FaultPlan::new(7).with_crash(2, 0));
        let exec = Executor::new(&c);
        let q = count_query(vec![0.0; 3], vec![100.0, 20.0, 6.0]);
        let out = exec.execute_bdas("t", &q).unwrap();
        assert_eq!(out.answer, baseline.answer, "replica serves the partition");
        assert_eq!(out.cost.answered_fraction, 1.0);
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter("query.failovers") > 0);
        assert!(snap.event_count("query.node_failover") > 0);
    }

    #[test]
    fn unreplicated_crash_degrades_only_in_partial_answer_mode() {
        use sea_storage::FaultPlan;
        let mut c = cluster();
        c.set_fault_plan(FaultPlan::new(3).with_crash(1, 0));
        let q = count_query(vec![0.0; 3], vec![100.0, 20.0, 6.0]);

        // Default executor: loud, not wrong.
        let strict = Executor::new(&c);
        assert!(matches!(
            strict.execute_bdas("t", &q),
            Err(SeaError::Storage(_))
        ));

        // Partial-answer mode: a degraded count plus the availability
        // accounting, instead of an error.
        let sink = TelemetrySink::recording();
        let degraded = Executor::new(&c)
            .with_telemetry(sink.clone())
            .with_partial_answers(true);
        let out = degraded.execute_bdas("t", &q).unwrap();
        let AnswerValue::Scalar(got) = out.answer else {
            panic!("scalar answer")
        };
        assert!(got > 0.0 && got < 2000.0, "partial count: {got}");
        assert!(out.cost.answered_fraction < 1.0);
        assert_eq!(out.cost.nodes_unavailable, 1);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("query.degraded"), 1);
        assert_eq!(snap.event_count("query.node_unavailable"), 1);
    }

    #[test]
    fn exhausted_retries_propagate_the_transient_error() {
        use sea_storage::FaultPlan;
        let mut c = cluster();
        c.set_fault_plan(FaultPlan::new(5).with_transient(1.0, 1));
        let q = count_query(vec![0.0; 3], vec![100.0, 20.0, 6.0]);
        let strict = Executor::new(&c).with_retry_policy(RetryPolicy::none());
        assert!(matches!(
            strict.execute_bdas("t", &q),
            Err(SeaError::Transient(_))
        ));

        // With every scan failing, partial-answer mode reports a fully
        // degraded (but well-typed) outcome.
        let degraded = Executor::new(&c).with_partial_answers(true);
        let out = degraded.execute_bdas("t", &q).unwrap();
        assert_eq!(out.answer, AnswerValue::Scalar(0.0));
        assert_eq!(out.cost.answered_fraction, 0.0);
        assert_eq!(out.cost.nodes_unavailable, 4);
    }

    #[test]
    fn no_fault_plan_changes_nothing() {
        let c = cluster();
        let q = count_query(vec![10.0, 0.0, 0.0], vec![60.0, 15.0, 6.0]);
        let plain = Executor::new(&c).execute_direct("t", &q).unwrap();
        let tolerant = Executor::new(&c)
            .with_partial_answers(true)
            .with_retry_policy(RetryPolicy::default())
            .execute_direct("t", &q)
            .unwrap();
        assert_eq!(plain, tolerant, "fault tolerance is free when healthy");
        assert_eq!(plain.cost.totals.backoff_us, 0);
    }

    #[test]
    fn holistic_aggregates_ship_values() {
        let c = cluster();
        let exec = Executor::new(&c);
        let big = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![0.0; 3], vec![100.0, 20.0, 6.0]).unwrap()),
            AggregateKind::Median { dim: 0 },
        );
        let small = AnalyticalQuery::new(big.region.clone(), AggregateKind::Count);
        let big_out = exec.execute_bdas("t", &big).unwrap();
        let small_out = exec.execute_bdas("t", &small).unwrap();
        assert!(
            big_out.cost.totals.lan_bytes > small_out.cost.totals.lan_bytes * 10,
            "median ships values: {} vs {}",
            big_out.cost.totals.lan_bytes,
            small_out.cost.totals.lan_bytes
        );
    }
}
