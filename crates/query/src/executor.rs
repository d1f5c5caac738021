//! The exact executor: BDAS-style and coordinator–cohort query processing.
//!
//! A statement is a batch of queries — a lone query is a batch of one —
//! and every statement, either regime, healthy or faulted cluster, takes
//! one body in three phases (`Executor::run`). The coordinator *opens*
//! each query in query order: the cache probe, then each engaged node's
//! scan (the step that consumes an installed fault plan, and owns retry,
//! backoff, failover and partial answers). The statement's blocks are
//! then read once, on an [`ExecPool`]'s worker threads — the paper's
//! P1/P4 node parallelism made real on the host, not just in the cost
//! model. A statement whose queries share one box (every `sea-lang`
//! statement, cached or not) *folds through the mask*: one item per
//! serving copy masks each block and folds every query's partial
//! through that mask while the block is hot, copying no row; a cache
//! fragment keeps that mask over the copy's own columns. A statement
//! whose boxes differ gathers the union box's rows in morsels, each
//! into columns of exactly its rows, and folds every (query, node) pair
//! over the gathered runs in one flat fan-out. Workers do pure compute
//! (telemetry-silent, charging private [`CostMeter`]s); the coordinator
//! then *replays* each query in query order, its nodes in node-index
//! order, so answers, [`CostReport`]s, cache state and every recorded
//! table are bit-identical to sequential execution regardless of the
//! thread count or the path, for a batch as for a lone query.

use std::cell::RefCell;

use sea_cache::{CacheDecision, ColumnFragment, ColumnRun, SemanticCache};
use sea_common::{
    kernels, quantile_of, AggregateKind, AnalyticalQuery, AnswerValue, BivariateStats, CostMeter,
    CostReport, ExecMode, Rect, Region, Result, SeaError, SelectionMask,
};
use sea_storage::{Block, DataNode, NodeId, ScanStats, StorageCluster};
use sea_telemetry::{SpanGuard, TelemetrySink, TraceContext};

use crate::pool::ExecPool;

/// The outcome of executing one analytical query: the exact answer, the
/// full resource bill, and how the statement was answered.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The (exact) answer.
    pub answer: AnswerValue,
    /// What it cost to produce.
    pub cost: CostReport,
    /// How it was produced.
    pub provenance: Provenance,
}

/// What the semantic cache had to do with one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheClass {
    /// No cache sat on the statement's path.
    #[default]
    None,
    /// A cache was probed and had no answer.
    Miss,
    /// Served by an identical cached statement's answer.
    Exact,
    /// Re-derived from the cached rows of a containing statement.
    Containment,
}

impl CacheClass {
    /// Short stable name (the ledger's `cache_class`).
    pub fn label(self) -> &'static str {
        match self {
            CacheClass::None => "none",
            CacheClass::Miss => "miss",
            CacheClass::Exact => "exact",
            CacheClass::Containment => "containment",
        }
    }
}

/// How a statement was answered, recorded where each fact is born —
/// the cache class by the probe, retries and failovers by the iteration
/// that bumps `query.retries` / `query.failovers` — and read, never
/// re-derived, by every layer above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// The semantic cache's part.
    pub cache: CacheClass,
    /// Transient-fault retries over the engaged nodes.
    pub retries: u64,
    /// Engaged nodes served by a replica.
    pub failovers: u64,
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

/// What the scatter brings back from one opened node: pure data, a
/// private cost meter, and the scan statistics the coordinator needs to
/// replay the node's telemetry afterwards.
struct NodeScan {
    /// The node's partial aggregate; `None` when the partition was
    /// unavailable and the executor runs in partial-answer mode.
    partial: Option<Partial>,
    meter: CostMeter,
    stats: ScanStats,
    /// The node's matched rows for semantic-cache admission: the mask
    /// the fold went through over the node's columns, or runs of
    /// gathered columns (`None` unless a cache is attached and the
    /// region is a rectangle).
    fragment: Option<ColumnFragment>,
}

/// One admitted block of an [`Executor::scan_blocks`]: the stored block
/// (columns, validity, ids) and the rows the scan's box selects in it.
#[derive(Debug)]
pub struct BlockView<'c> {
    /// The stored block.
    pub block: &'c Block,
    /// The rows inside the scan's box; every row for a scan without one.
    pub mask: SelectionMask,
}

/// What one [`Executor::scatter`] engaged and left unread.
#[derive(Debug, Default)]
pub struct Scatter {
    /// Every engaged node with its meter, in engagement order; an unread
    /// partition's meter keeps its `touch_node` and retry backoff.
    pub meters: Vec<(NodeId, CostMeter)>,
    /// The engaged partitions left unread (partial-answer mode).
    pub unread: Vec<NodeId>,
}

impl Scatter {
    /// The bill of the nodes running in parallel beside `coord`'s work,
    /// labelled partial for every unread partition.
    pub fn report(&self, coord: &CostMeter) -> CostReport {
        (coord.report_parallel(self.meters.iter().map(|(_, m)| m)))
            .partial(self.meters.len(), self.unread.len())
    }

    /// `self` when every engaged partition was read: a structure built
    /// from part of the table would answer short.
    ///
    /// # Errors
    ///
    /// [`SeaError::Storage`] naming the first unread partition.
    pub fn complete(self) -> Result<Self> {
        match self.unread.first() {
            Some(node) => Err(SeaError::Storage(format!("partition {node} left unread"))),
            None => Ok(self),
        }
    }
}

/// One node's open phase (see [`Executor::open_node`]): what the
/// fault gate and the retry loop left behind before any block is read.
#[derive(Clone, Copy)]
struct Opened<'c> {
    /// Retry backoff, plus `touch_node` for a statement's node.
    meter: CostMeter,
    retries: u32,
    /// The serving copy, whether it is a replica failover, and the
    /// gate's latency multiplier; `None` when the partition is
    /// unavailable and the executor runs in partial-answer mode.
    view: Option<(&'c DataNode, bool, f64)>,
}

/// One query's open phase (see [`Executor::open_query`]).
struct OpenedQuery<'c> {
    /// The box whose rows the query's scans return: the region's
    /// bounding rectangle in the pruned regime, `None` when every node
    /// reads every block.
    bbox: Option<Rect>,
    /// The engaged nodes in node order, and what opening each left
    /// behind.
    opened: Vec<(NodeId, Opened<'c>)>,
}

/// How one query leaves the open phase (see [`Executor::run`]).
enum Step<'c> {
    /// Answered by the cache: no node was opened.
    Hit(QueryOutcome),
    /// Its engaged nodes are open and wait for the statement's scan.
    Scan(OpenedQuery<'c>),
}

/// What separates the two processing regimes at the scatter level,
/// beside the layer crossings [`CostMeter::touch_node`] prices: a
/// query's exec span, its counter, and whether the coordinator prunes —
/// partition metadata picks the nodes (one request message each) and
/// zone maps pick the blocks. Otherwise every node reads every block.
fn regime(mode: ExecMode) -> (&'static str, &'static str, bool) {
    match mode {
        ExecMode::Bdas => ("query.executor.bdas", "query.executor.bdas_queries", false),
        ExecMode::Direct => (
            "query.executor.direct",
            "query.executor.direct_queries",
            true,
        ),
    }
}

/// Stateless executor over a [`StorageCluster`].
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    cluster: &'a StorageCluster,
    telemetry: TelemetrySink,
    pool: ExecPool,
    retry: RetryPolicy,
    partial_answers: bool,
    cache: Option<&'a SemanticCache>,
    /// Whether a statement probes the attached cache itself before it
    /// scatters ([`Executor::with_cache`]) or only offers its answer for
    /// admission ([`Executor::with_cache_populate_only`]). Both arms have
    /// callers. `sea-core`'s pipeline probes before it predicts, so a
    /// second probe here would count its miss twice. E19,
    /// `examples/tenant_stats.rs`, a `sea-lang` `Frontend` over a
    /// cache-attached executor and seabench's sessions rely on
    /// `with_cache`'s implicit probe. The flag goes once they all call
    /// [`Executor::cache_lookup`] explicitly.
    cache_consult: bool,
}

impl<'a> Executor<'a> {
    /// Creates an executor over `cluster`. The executor inherits the
    /// cluster's telemetry sink, so instrumenting the cluster instruments
    /// the whole exact query path, and shares the process-wide
    /// [`ExecPool`] for real node parallelism.
    pub fn new(cluster: &'a StorageCluster) -> Self {
        Executor {
            cluster,
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
    /// — with its per-node column fragments — for cost-based admission
    /// after gathering.
    ///
    /// A cache instance is scoped to **one logical table**: the cache
    /// key is (aggregate, region), so callers querying several tables
    /// through one executor must attach a separate cache per table.
    /// Consultation and admission happen on the coordinator thread in
    /// query order — every probe of a batch before any of its
    /// admissions — so determinism across [`ExecPool`] sizes is
    /// preserved.
    #[must_use]
    pub fn with_cache(mut self, cache: &'a SemanticCache) -> Self {
        self.cache = Some(cache);
        self.cache_consult = true;
        self
    }

    /// Attaches a [`SemanticCache`] the caller probes: `sea-core`'s
    /// pipeline calls [`Executor::cache_lookup`] itself, *before* it
    /// decides between prediction and execution (an exact cached answer
    /// beats a confident prediction), so `execute` must not count a
    /// second lookup — it only offers its answer for admission, and
    /// reports the caller's miss as [`CacheClass::Miss`].
    ///
    /// This is the one caller-probes arm of the executor's cache flag;
    /// [`Executor::with_cache`] keeps the implicit probe for callers that
    /// do not look the cache up themselves (see the `cache_consult`
    /// field for who those are and when the flag can go).
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

    /// Consults the attached [`SemanticCache`] for `query` and, on a
    /// hit, produces the outcome a cold execution would have produced —
    /// bit-identical answer, cache-priced cost report — without touching
    /// any storage node. Returns `None` on a miss or when no cache is
    /// attached. Exposed so a coordinator that owns the predict-vs-exact
    /// decision (`sea-core`'s pipeline) can probe the cache before
    /// committing to execution.
    ///
    /// Exact hits cost one coordinator CPU charge; containment hits pay
    /// a CPU charge per cached row re-masked plus the merge — still
    /// orders of magnitude below a cluster scan, and deterministic.
    pub fn cache_lookup(&self, query: &AnalyticalQuery) -> Option<Result<QueryOutcome>> {
        // One value names the hit in the span tree and on the outcome.
        let open = |class: CacheClass| {
            let span = self.telemetry.span("query.executor.cache");
            span.tag("class", class.label());
            (span, class)
        };
        let mut coord = CostMeter::new();
        let ((span, class), answer) = match self.cache?.lookup(&query.aggregate, &query.region) {
            CacheDecision::Exact(answer) => {
                coord.charge_cpu(1);
                (open(CacheClass::Exact), Ok(answer))
            }
            CacheDecision::Containment(fragments) => {
                // Opened first: the span's host time covers the fold.
                let hit = open(CacheClass::Containment);
                let derived = Self::derive_from_fragments(query, &fragments, &mut coord);
                (hit, derived)
            }
            CacheDecision::Miss { .. } => return None,
        };
        Some(answer.map(|answer| {
            let cost = coord.report_sequential();
            span.record_sim_us(cost.wall_us);
            let provenance = Provenance {
                cache: class,
                ..Provenance::default()
            };
            QueryOutcome {
                answer,
                cost,
                provenance,
            }
        }))
    }

    /// Re-derives a containment-hit answer from cached per-node
    /// fragments: each run's kept mask is loaded into one mask buffer,
    /// narrowed to the (smaller) queried region and folded over the
    /// run's columns, run after run, into a per-node [`Partial`], then
    /// merged in node order — the kernels a cold scan runs, over the
    /// same rows in the same order, so the answer is bit-identical.
    /// The mask spans the rows between the run's first and last selected
    /// words, not only the selected rows, so a hit walks more words than
    /// a fold of copied rows would; no scan copies a row in exchange.
    /// Charges `coord` a CPU unit per cached row and per merged partial.
    fn derive_from_fragments(
        query: &AnalyticalQuery,
        fragments: &[ColumnFragment],
        coord: &mut CostMeter,
    ) -> Result<AnswerValue> {
        let mut partials = Vec::with_capacity(fragments.len());
        // One mask buffer serves every fragment.
        let mut mask = SelectionMask::none(0);
        for frag in fragments {
            coord.charge_cpu(frag.rows() as u64);
            let mut partial = Partial::new(&query.aggregate);
            for run in &frag.runs {
                run.mask_into(&mut mask);
                query.region.retain(&run.cols, &mut mask);
                partial.push(&run.cols, &mask);
            }
            partials.push(partial);
        }
        coord.charge_cpu(partials.len() as u64);
        merge_partials(&query.aggregate, partials)
    }

    /// Executes `query` over `table` in regime `mode`, its span tree
    /// attached under `parent`: [`Executor::run`] over a statement of one.
    ///
    /// # Errors
    ///
    /// Missing table, dimension mismatch, or aggregate errors (e.g. an
    /// operator undefined on an empty selection).
    pub fn execute(
        &self,
        table: &str,
        query: &AnalyticalQuery,
        mode: ExecMode,
        parent: &TraceContext,
    ) -> Result<QueryOutcome> {
        self.run(table, std::slice::from_ref(query), mode, parent)
            .pop()
            .expect("one outcome per query")
    }

    /// [`Executor::execute`] in the direct regime with no trace parent.
    ///
    /// # Errors
    ///
    /// As [`Executor::execute`].
    pub fn execute_direct(&self, table: &str, query: &AnalyticalQuery) -> Result<QueryOutcome> {
        self.execute(table, query, ExecMode::Direct, &TraceContext::NONE)
    }

    /// [`Executor::run`] in the direct regime with no trace parent.
    pub fn execute_batch(
        &self,
        table: &str,
        queries: &[AnalyticalQuery],
    ) -> Vec<Result<QueryOutcome>> {
        self.run(table, queries, ExecMode::Direct, &TraceContext::NONE)
    }

    /// Executes `queries` over `table` as one statement in regime
    /// `mode`, results in query order. In the BDAS regime every node is
    /// engaged through all the stack's layers and scans all of its
    /// blocks; in the direct regime partition metadata picks the nodes
    /// and zone maps the blocks. Either way each node folds a partial
    /// aggregate and ships it over the LAN to a coordinator that merges.
    /// The statement's blocks are read once and every query refines the
    /// shared rows; each answer is exactly what the query run alone
    /// returns — over an attached cache too, except that all of the
    /// statement's probes precede all of its admissions, so no query is
    /// served from an earlier one of the same statement.
    ///
    /// Each query's span tree (exec → scatter → per-node scans →
    /// gather) attaches under `parent`, so a pipeline or geo
    /// coordinator's trace stays one coherent tree across the hop; a
    /// statement of more than one query first opens a
    /// `query.executor.batch` span there, and a statement of one is a
    /// lone query. Each engaged node gets its own `query.executor.node`
    /// span tagged with the node id and carrying that node's simulated
    /// cost; the scatter span is tagged with the parallel makespan.
    ///
    /// The body runs in three phases. **Open**, on the calling thread in
    /// query order: each query's exec span, validation, the cache probe
    /// when the executor consults (a hit is that query's outcome) and
    /// its nodes' `Executor::open_query` — under an installed fault
    /// plan the queries share per-node operation counters, and which
    /// query meets which fault is then a function of the statement
    /// alone, not of thread timing. **Compute**, on the pool, pure and
    /// telemetry-silent: one read of the blocks for the queries still
    /// to scan (`Executor::plan_shared_scan`), which folds each query's
    /// partial per engaged node.
    /// **Replay**, on the calling thread in query order: each query's
    /// scatter telemetry, merge, cost assembly and cache admission, under
    /// its resumed exec span. Every probe therefore precedes every
    /// admission, and nothing recorded depends on the pool.
    pub fn run(
        &self,
        table: &str,
        queries: &[AnalyticalQuery],
        mode: ExecMode,
        parent: &TraceContext,
    ) -> Vec<Result<QueryOutcome>> {
        let batch = (queries.len() > 1).then(|| {
            let span = self.telemetry.span_child_of(parent, "query.executor.batch");
            span.tag("queries", queries.len());
            let ctx = span.ctx();
            (span, ctx)
        });
        let parent = batch.as_ref().map_or(parent, |(_, ctx)| ctx);
        let (span_name, counter, _) = regime(mode);
        let (spans, steps): (Vec<_>, Vec<_>) = queries
            .iter()
            .map(|q| {
                let exec_span = self.telemetry.span_child_of(parent, span_name);
                self.telemetry.incr(counter, 1);
                (exec_span, self.open_query(table, q, mode))
            })
            .unzip();
        let stmt: Vec<(&OpenedQuery, &AnalyticalQuery)> = steps
            .iter()
            .zip(queries)
            .filter_map(|(step, q)| match step {
                Ok(Step::Scan(plan)) => Some((plan, q)),
                _ => None,
            })
            .collect();
        let mut scans = self.plan_shared_scan(table, &stmt).into_iter();
        (spans.into_iter().zip(steps).zip(queries))
            .map(|((exec_span, step), q)| {
                exec_span.resume();
                match step? {
                    Step::Hit(outcome) => Ok(outcome),
                    Step::Scan(plan) => {
                        let scans = scans.by_ref().take(plan.opened.len());
                        self.replay(table, q, &plan, scans, mode)
                    }
                }
            })
            .collect()
    }

    /// One scanned query's replay phase (see [`Executor::run`]), on the
    /// calling thread under its exec span: one `query.executor.node`
    /// span per node, in node-index order, wrapping the replayed
    /// `storage.node.scan` span, counters and event — so the recorded
    /// tables (span ids, event sequence, counter totals) are those of a
    /// sequential loop for every pool size — then gather/merge, cost
    /// assembly and cache admission. The iteration that bumps
    /// `query.retries` / `query.failovers` tallies the same amounts into
    /// the outcome's provenance: counter and carrier cannot disagree,
    /// recording or not.
    fn replay(
        &self,
        table: &str,
        query: &AnalyticalQuery,
        plan: &OpenedQuery,
        scans: impl Iterator<Item = NodeScan>,
        mode: ExecMode,
    ) -> Result<QueryOutcome> {
        let mut coord = CostMeter::new();
        // An attached cache that did not answer — probed in the open
        // phase, or by the caller that attached it populate-only — is a
        // miss.
        let mut provenance = Provenance::default();
        if self.cache.is_some() {
            provenance.cache = CacheClass::Miss;
        }
        let scatter = self.telemetry.span("query.executor.scatter");
        let (.., pruned) = regime(mode);
        if pruned {
            // One request message per engaged node. The fan-out is part
            // of the scatter phase, so its simulated time lands on the
            // scatter span (the coordinator still pays it sequentially in
            // the cost report).
            for _ in &plan.opened {
                coord.charge_lan(64);
            }
            scatter.record_sim_us(coord.sequential_us());
        }
        let engaged = plan.opened.len();
        let mut partials = Vec::with_capacity(engaged);
        let mut meters = Vec::with_capacity(engaged);
        let mut fragments: Option<Vec<ColumnFragment>> = None;
        for ((node, opened), scan) in plan.opened.iter().zip(scans) {
            let bbox = plan.bbox.as_ref();
            let node_span =
                self.record_node(table, *node, bbox, opened, &scan.stats, &mut provenance);
            let node_sim_us = scan.meter.sequential_us();
            if let Some(partial) = scan.partial {
                // Per-node cost feed for the watch layer's anomaly
                // detector; replayed here in node-index order so the
                // derived suspicion stream is deterministic too.
                self.telemetry.event(
                    "query.node_cost",
                    &[("node", (*node).into()), ("sim_us", node_sim_us.into())],
                );
                partials.push(partial);
            }
            node_span.record_sim_us(node_sim_us);
            if let Some(fragment) = scan.fragment {
                (fragments.get_or_insert_with(|| Vec::with_capacity(engaged))).push(fragment);
            }
            meters.push(scan.meter);
        }
        // Nodes run in parallel: the scatter phase lasts as long as its
        // slowest node under the cost model. The per-node spans carry the
        // per-node costs; the makespan is a tag so the tree's sim rollup
        // doesn't double-count.
        let makespan = meters.iter().map(|m| m.sequential_us());
        scatter.tag("sim_makespan_us", makespan.fold(0.0, f64::max));
        drop(scatter);
        let gather = self.telemetry.span("query.executor.gather");
        // The gather span carries only the merge work; request fan-out
        // was already attributed to scatter above.
        let mut merge_only = CostMeter::new();
        merge_only.charge_cpu(partials.len() as u64);
        coord.charge_cpu(partials.len() as u64);
        let unavailable = engaged - partials.len();
        let answer = merge_partials(&query.aggregate, partials)?;
        let cost = coord
            .report_parallel(meters.iter())
            .partial(engaged, unavailable);
        gather.record_sim_us(merge_only.sequential_us());
        drop(gather);
        // Only a complete answer (no partition unavailable) whose
        // fragments were cut is offered; the cache applies its own
        // cost-based admission on top. On the coordinator, in query
        // order, so eviction tie-breaks are those of every pool size.
        if let (Some(cache), Some(fragments), 0) = (self.cache, fragments, unavailable) {
            let (agg, region) = (&query.aggregate, &query.region);
            cache.admit_columns(agg, region, &answer, Some(fragments), cost.wall_us);
        }
        Ok(QueryOutcome {
            answer,
            cost,
            provenance,
        })
    }

    /// The open phase of one query, on the calling thread: the cache is
    /// probed when the executor consults it (a hit opens nothing),
    /// partition metadata picks the nodes in the pruned regime (every
    /// node otherwise), and each engaged node is opened in node order
    /// ([`Executor::open_node`]). Every node is opened before the first
    /// error in node order is returned, because later queries' fault
    /// decisions depend on those counters; a region of the wrong
    /// dimension is rejected, in either regime, before the cache is
    /// probed or any gate is consumed.
    fn open_query(&self, table: &str, query: &AnalyticalQuery, mode: ExecMode) -> Result<Step<'a>> {
        let dims = self.cluster.dims(table)?;
        query.aggregate.validate(dims)?;
        SeaError::check_dims(dims, query.region.dims())?;
        if self.cache_consult {
            if let Some(hit) = self.cache_lookup(query) {
                return hit.map(Step::Hit);
            }
        }
        let (.., pruned) = regime(mode);
        let bbox = pruned.then(|| query.region.bounding_rect());
        let attempts: Vec<Result<(NodeId, Opened)>> = (self.engaged_nodes(table, bbox.as_ref())?)
            .into_iter()
            .map(|node| {
                let mut opened = self.open_node(table, node)?;
                opened.meter.touch_node(mode);
                Ok((node, opened))
            })
            .collect();
        let opened = attempts.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(Step::Scan(OpenedQuery { bbox, opened }))
    }

    /// The nodes a read of `table` engages, in node order: every node
    /// without a box, the partitions metadata admits for `bbox` with one.
    fn engaged_nodes(&self, table: &str, bbox: Option<&Rect>) -> Result<Vec<NodeId>> {
        let Some(b) = bbox else {
            return Ok((0..self.cluster.num_nodes()).collect());
        };
        let nodes = self.cluster.nodes_for_region(table, b)?;
        SeaError::check_dims(self.cluster.dims(table)?, b.dims())?;
        Ok(nodes)
    }

    /// Opens one node — a statement's ([`Executor::open_query`]) or an
    /// operator's ([`Executor::scan_blocks`]) — through
    /// [`StorageCluster::open_scan`], where an installed fault plan is
    /// consumed: one gate operation per attempt. A transient fault is
    /// retried per the [`RetryPolicy`], charging only the simulated
    /// backoff; in partial-answer mode a partition still out of reach
    /// ([`SeaError::Storage`]/[`SeaError::Transient`]) is left without a
    /// view, keeping its backoff and retries; other errors propagate.
    fn open_node(&self, table: &str, node: NodeId) -> Result<Opened<'a>> {
        let mut meter = CostMeter::new();
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

    /// The one scan of everything that is not a statement (the step of
    /// [`Executor::scatter`] and of the MapReduce rank-join): `node`
    /// opened as a statement's node is — retries, failover, [partial
    /// answers](Executor::with_partial_answers) — the blocks
    /// [`DataNode::charge_scan`] admits for `bbox` (`None`: all) charged
    /// to `meter` scaled once by the slow-node multiplier (backoff is
    /// not; layer crossings are the caller's), and the node's telemetry
    /// recorded as the statement's replay records it, under the calling
    /// thread's open span. Returns the admitted blocks in block order
    /// with the rows of `bbox`, or `None` for a partition left
    /// unavailable in partial-answer mode.
    ///
    /// # Errors
    ///
    /// A missing table, a wrong-dimensional box, or a partition out of
    /// reach after the retries (unless answering partially).
    pub fn scan_blocks(
        &self,
        table: &str,
        node: NodeId,
        bbox: Option<&Rect>,
        meter: &mut CostMeter,
    ) -> Result<Option<Vec<BlockView<'a>>>> {
        if let Some(rect) = bbox {
            SeaError::check_dims(self.cluster.dims(table)?, rect.dims())?;
        }
        let opened = self.open_node(table, node)?;
        meter.merge(&opened.meter);
        let (mut stats, mut charges) = (ScanStats::default(), CostMeter::new());
        let views = opened.view.map(|(dn, _, slow)| {
            let blocks;
            (blocks, stats) = dn.charge_scan(bbox, &mut charges);
            meter.merge_scaled(&charges, slow);
            (blocks.iter().enumerate())
                .map(|(i, &block)| {
                    let mut mask = SelectionMask::none(0);
                    match bbox {
                        Some(rect) => block.bbox_mask(rect, blocks.get(i + 1).copied(), &mut mask),
                        None => mask.reset_all(block.len()),
                    }
                    stats.records_returned += mask.count();
                    BlockView { block, mask }
                })
                .collect()
        });
        let mut unused = Provenance::default();
        self.record_node(table, node, bbox, &opened, &stats, &mut unused);
        Ok(views)
    }

    /// The node loop of every operator and offline pass: the nodes a
    /// statement over `bbox` engages (every node without a box), each on
    /// a fresh meter charged `touch_node(mode)` and read through
    /// [`Executor::scan_blocks`], its views and meter handed to `visit`
    /// in node order — with no box, every block of the serving copy in
    /// block order, each view selecting every row. A partition left
    /// unread (partial-answer mode) is counted, not visited, and keeps
    /// its meter. [`Scatter::report`] labels the bill by what was read;
    /// a pass that must read everything takes [`Scatter::complete`].
    ///
    /// # Errors
    ///
    /// As [`Executor::scan_blocks`], or `visit`'s first error.
    pub fn scatter(
        &self,
        table: &str,
        bbox: Option<&Rect>,
        mode: ExecMode,
        mut visit: impl FnMut(NodeId, &[BlockView<'a>], &mut CostMeter) -> Result<()>,
    ) -> Result<Scatter> {
        let mut out = Scatter::default();
        for node in self.engaged_nodes(table, bbox)? {
            let mut meter = CostMeter::new();
            meter.touch_node(mode);
            match self.scan_blocks(table, node, bbox, &mut meter)? {
                Some(views) => visit(node, &views, &mut meter)?,
                None => out.unread.push(node),
            }
            out.meters.push((node, meter));
        }
        Ok(out)
    }

    /// One opened node's telemetry, for a statement's replay and
    /// [`Executor::scan_blocks`] alike: a `query.executor.node` span under
    /// the thread's open span; retries and failover counted, evented,
    /// tagged and tallied on `provenance` in this one place; then
    /// storage's scan record, or the partition's unavailability. Returns
    /// the node span, still open.
    fn record_node(
        &self,
        table: &str,
        node: NodeId,
        bbox: Option<&Rect>,
        opened: &Opened,
        stats: &ScanStats,
        provenance: &mut Provenance,
    ) -> SpanGuard {
        let span = self.telemetry.span("query.executor.node");
        span.tag("node", node);
        if opened.retries > 0 {
            provenance.retries += u64::from(opened.retries);
            self.telemetry
                .incr("query.retries", u64::from(opened.retries));
            self.telemetry.event(
                "query.node_retried",
                &[("node", node.into()), ("retries", opened.retries.into())],
            );
            span.tag("retries", opened.retries);
        }
        match opened.view {
            Some((_, failover, _)) => {
                if failover {
                    provenance.failovers += 1;
                    self.telemetry.incr("query.failovers", 1);
                    self.telemetry
                        .event("query.node_failover", &[("node", node.into())]);
                    span.tag("failover", true);
                }
                let kind = if bbox.is_some() { "region" } else { "full" };
                self.cluster
                    .record_scan(table, node, kind, stats, &span.ctx());
            }
            None => {
                self.telemetry.incr("query.degraded", 1);
                self.telemetry
                    .event("query.node_unavailable", &[("node", node.into())]);
                span.tag("unavailable", true);
            }
        }
        span
    }

    /// Scans the statement's blocks once for all of its queries and
    /// returns one [`NodeScan`] per (query, engaged node), in query then
    /// node order. The gather box is the union of the queries' boxes
    /// (every row when a query reads everything), and each distinct
    /// serving copy — a primary and its replica both, when a crash lands
    /// mid-batch — is priced and pruned once by the storage layer's
    /// scan-cost rule ([`DataNode::charge_scan`]; the executor neither
    /// prunes nor prices blocks itself). Pure compute, no telemetry, and
    /// no fault gate — the views are already open.
    ///
    /// A statement whose queries all share the gather box — every
    /// `sea-lang` statement, either regime, with a cache attached or
    /// not — **folds through the mask**: one pool item per serving copy
    /// masks each admitted block and folds every query's partial through
    /// that block's mask on the same thread, gathering nothing
    /// ([`ServingCopy::fold`]). A rectangle's cache fragment is then the
    /// mask it folded through, kept over the copy's own columns. A
    /// statement whose boxes differ (E1's batches, the operators'
    /// statements) takes the gather path ([`SharedScan`]).
    fn plan_shared_scan(
        &self,
        table: &str,
        stmt: &[(&OpenedQuery<'a>, &AnalyticalQuery)],
    ) -> Vec<NodeScan> {
        let mut rect = stmt.first().and_then(|(p, _)| p.bbox.clone());
        for (p, _) in stmt.iter().skip(1) {
            rect = match (&rect, &p.bbox) {
                (Some(u), Some(b)) => u.union(b).ok(),
                _ => None,
            };
        }
        // The distinct serving copies in order of first use, and the one
        // each (query, node) reads — `None` for a partition unavailable.
        let mut copies: Vec<ServingCopy> = Vec::new();
        let mut at = Vec::new();
        for (_, opened) in stmt.iter().flat_map(|(p, _)| &p.opened) {
            at.push(opened.view.map(|(dn, ..)| {
                (copies.iter().position(|c| std::ptr::eq(c.node, dn))).unwrap_or_else(|| {
                    copies.push(ServingCopy::charge(dn, rect.as_ref()));
                    copies.len() - 1
                })
            }));
        }
        if stmt.iter().all(|(p, _)| p.bbox == rect) {
            self.fold_through(stmt, rect.as_ref(), &copies, &at)
        } else {
            self.gather(table, stmt, rect, &copies, &at)
        }
    }

    /// The fold-through body (see [`Executor::plan_shared_scan`]): each
    /// copy folds, once, every distinct fold the queries reading it ask
    /// for ([`CopyFolds`]) and, with a cache attached, keeps, once, every
    /// distinct mask a rectangle folds through. Each (query, node) takes
    /// its fold's partial and, a rectangle, its kept mask as its
    /// [`ColumnFragment`] — each moved to its last reader and cloned for
    /// the others — billed as [`SharedScan::node_scan`] bills a query
    /// whose box is the gather box.
    fn fold_through(
        &self,
        stmt: &[(&OpenedQuery<'a>, &AnalyticalQuery)],
        rect: Option<&Rect>,
        copies: &[ServingCopy<'a>],
        at: &[Option<usize>],
    ) -> Vec<NodeScan> {
        let mut folds: Vec<CopyFolds> = copies.iter().map(|_| CopyFolds::default()).collect();
        let pairs = stmt
            .iter()
            .flat_map(|&(p, q)| p.opened.iter().map(move |(_, o)| (o, q)));
        // Each pair's copy, fold and — a rectangle a cache could admit —
        // kept mask.
        let slots: Vec<Option<(usize, usize, Option<usize>)>> = (pairs.clone().zip(at))
            .map(|((_, q), c)| {
                let rectangle = matches!(q.region, Region::Range(_));
                // A rectangle's box is its region; anything else refines
                // the box mask by its region.
                let refine = !(rect.is_some() && rectangle);
                c.map(|c| {
                    let f = folds[c].add(refine.then_some(&q.region), &q.aggregate);
                    let kept = (self.cache.is_some() && rectangle).then(|| folds[c].keep(f));
                    (c, f, kept)
                })
            })
            .collect();
        let mut folded = self
            .pool
            .run(copies.len(), |c| copies[c].fold(rect, &folds[c]));
        (pairs.zip(slots))
            .map(|((opened, _), slot)| {
                let mut meter = opened.meter;
                let (Some((_, _, slow)), Some((c, f, kept))) = (opened.view, slot) else {
                    return NodeScan {
                        partial: None,
                        meter,
                        stats: ScanStats::default(),
                        fragment: None,
                    };
                };
                let (copy, folds, folded) = (&copies[c], &mut folds[c], &mut folded[c]);
                let partial = hand_out(&mut folded.partials[f], &mut folds.folds[f].2);
                // A copy that selected no row kept no mask.
                let fragment = kept.map(|k| ColumnFragment {
                    runs: (folded.kept.get_mut(k))
                        .map_or(Vec::new(), |m| hand_out(&mut m.runs, folds.kept_readers(k))),
                });
                let mut stats = copy.stats;
                stats.records_returned += folded.rows;
                // The identity at the healthy multiplier 1.0.
                meter.merge_scaled(&copy.charges, slow);
                meter.charge_lan(partial.as_ref().map_or(0, Partial::wire_bytes));
                NodeScan {
                    partial,
                    meter,
                    stats,
                    fragment,
                }
            })
            .collect()
    }

    /// The gather path (see [`Executor::plan_shared_scan`]), taken only
    /// by a statement whose queries' boxes differ (E1's batches, the
    /// operators' statements): each copy's admitted blocks are gathered
    /// in **morsels** (contiguous runs of roughly [`MORSEL_RECORDS`]
    /// records) so the pool steals within a node, not only across nodes
    /// — a 2-node cluster saturates an 8-way pool. A morsel gathers into
    /// columns of exactly its rows ([`gather_morsel`]). Every (query,
    /// node) pair then refines and folds the gathered runs
    /// ([`SharedScan::node_scan`]) in one flat fan-out. With a cache
    /// attached, a rectangle's fragment is [`ColumnRun::dense`] runs: one
    /// whose box is the gather box keeps every gathered row, so after the
    /// fan-out its serving copy's runs move into it — to the copy's last
    /// such reader, in (query, node) order, and shared with the others —
    /// and any other gathers its rows out of them.
    fn gather(
        &self,
        table: &str,
        stmt: &[(&OpenedQuery<'a>, &AnalyticalQuery)],
        rect: Option<Rect>,
        copies: &[ServingCopy<'a>],
        at: &[Option<usize>],
    ) -> Vec<NodeScan> {
        // Fragments are cut only where a cache could admit them: one is
        // attached and a region supports the containment algebra
        // (rectangles only).
        let cacheable = self.cache.is_some()
            && (stmt.iter()).any(|(_, q)| matches!(q.region, Region::Range(_)));
        // A column is gathered only if a query reads it: its aggregate's
        // own, or every one when it refines the gathered rows or a cache
        // may admit them.
        let mut need = vec![cacheable; self.cluster.dims(table).unwrap_or(0)];
        for (p, q) in stmt {
            if keeps_gathered(q, p.bbox.as_ref(), rect.as_ref()) {
                for d in q.aggregate.columns() {
                    need[d] = true;
                }
            } else {
                need.fill(true);
            }
        }
        // Morsels in node order, contiguously.
        let per_morsel = (MORSEL_RECORDS / self.cluster.block_size()).max(1);
        let morsels: Vec<(usize, &[&Block])> = (copies.iter().enumerate())
            .flat_map(|(n, copy)| copy.blocks.chunks(per_morsel).map(move |m| (n, m)))
            .collect();
        let runs = self.pool.run(morsels.len(), |mi| {
            gather_morsel(morsels[mi].1, &need, rect.as_ref())
        });
        let mut gathered: Vec<Vec<Gathered>> = copies.iter().map(|_| Vec::new()).collect();
        let mut rows = 0;
        for ((n, _), run) in morsels.iter().zip(runs) {
            if run.rows > 0 {
                rows += run.rows;
                gathered[*n].push(run);
            }
        }
        let shared = SharedScan {
            rect,
            cacheable,
            copies,
            gathered,
        };
        let folds: Vec<(&OpenedQuery, &AnalyticalQuery, usize)> = stmt
            .iter()
            .flat_map(|&(plan, q)| (0..plan.opened.len()).map(move |i| (plan, q, i)))
            .collect();
        // Per-node refine + fold: deterministic per (query, node), so it
        // runs on the pool too when there are rows enough to pay for it.
        let pool = if rows * stmt.len() < FOLD_FANOUT_ROWS {
            ExecPool::sequential()
        } else {
            self.pool
        };
        let mut scans = pool.run(folds.len(), |k| {
            let (plan, q, i) = folds[k];
            shared.node_scan(at[k], &plan.opened[i].1, plan.bbox.as_ref(), q)
        });
        if !cacheable {
            return scans;
        }
        // A rectangle that keeps the gathered rows as they are has them
        // for its fragment once every fold has read them: its serving
        // copy's runs, moved into the fragment's columns once and handed
        // to the copy's readers.
        let SharedScan { rect, gathered, .. } = shared;
        let keeps: Vec<Option<usize>> = (folds.iter().zip(at))
            .map(|(&(plan, q, _), &c)| {
                c.filter(|_| keeps_gathered(q, plan.bbox.as_ref(), rect.as_ref()))
            })
            .collect();
        let mut readers = vec![0usize; copies.len()];
        for &c in keeps.iter().flatten() {
            readers[c] += 1;
        }
        let mut kept: Vec<Vec<ColumnRun>> = (gathered.into_iter().zip(&readers))
            .map(|(runs, &n)| match n {
                0 => Vec::new(),
                _ => (runs.into_iter())
                    .map(|r| ColumnRun::dense(r.cols, r.rows))
                    .collect(),
            })
            .collect();
        for (scan, c) in scans.iter_mut().zip(keeps) {
            if let Some(c) = c {
                let runs = hand_out(&mut kept[c], &mut readers[c]);
                scan.fragment = Some(ColumnFragment { runs });
            }
        }
        scans
    }
}

/// One reader's share of a value `readers` read: the value itself for
/// the last of them, a clone for the others.
fn hand_out<T: Clone + Default>(value: &mut T, readers: &mut usize) -> T {
    *readers -= 1;
    if *readers == 0 {
        std::mem::take(value)
    } else {
        value.clone()
    }
}

/// Whether `query` keeps the rows gathered for `rect` as they are: its
/// box is the gather box and, its region being a rectangle, that box is
/// the region too. Any other query refines them, reading every column
/// (see [`SharedScan::node_scan`]).
fn keeps_gathered(query: &AnalyticalQuery, bbox: Option<&Rect>, rect: Option<&Rect>) -> bool {
    bbox.is_some() && bbox == rect && matches!(query.region, Region::Range(_))
}

/// Target morsel size in records (a whole number of full blocks, at
/// least one): the intra-node work unit the pool steals. A fixed
/// constant independent of thread count, so the morsel decomposition —
/// and everything downstream — never depends on the host's parallelism.
/// 16 384 from a sweep of 4 096 … 131 072 with the AVX2 range predicate
/// in (ROADMAP item 3): scan_cold's median statements/s rose to 16 384
/// and held beyond it, while drift_churn, whose range-partitioned table
/// prunes to fewer blocks a node, read best at 16 384 and ~5 % lower
/// from 32 768 on, where its nodes fall to one or two morsels. Both
/// workloads now fold through the mask, so no workload of that sweep
/// gathers any more: the gather path serves only statements whose boxes
/// differ (E1's batches, the operators), which the sweep did not cover.
const MORSEL_RECORDS: usize = 16_384;

/// Gathered rows below which the gather path's per-node folds run
/// inline. A sleeping helper reaches its first item of an
/// [`ExecPool::run`] in a median of 8 µs back to back, 15 µs after
/// 200 µs idle, 25 µs after 1 ms and 46 µs after 5 ms (p90 68 µs; a
/// probe of `ExecPool::new(2)` on the 2-core reference host, 1 000 calls
/// each), and folding this many rows lasts 70–460 µs at 1–7 ns each
/// (seabench's `common.fold_*_dense_mrec_s`), so a much smaller fold is
/// over before the helper has done much of it. A cache fragment adds no
/// copy to a fold whose rectangle keeps the gathered rows (it takes
/// them after the fan-out) and one gather under the refined mask to any
/// other rectangle's. Set by its own sweep (ROADMAP item 3), not
/// derived from [`MORSEL_RECORDS`]; the wake-up figures above did not
/// re-run that sweep. That sweep ran drift_churn, which now folds
/// through the mask: the batches whose boxes differ that the gather
/// path still serves were not part of it.
const FOLD_FANOUT_ROWS: usize = 65_536;

/// One gather morsel's rows in column form: a row count and one
/// `Vec<f64>` per dimension, `rows` values each, allocated at exactly
/// that length. A column no query reads is left empty, and a morsel
/// that selects no row, or gathers no column (a lone `count()`), has no
/// column list.
struct Gathered {
    rows: usize,
    cols: Vec<Vec<f64>>,
}

thread_local! {
    /// The buffer each gather morsel on this thread masks its blocks
    /// into, so that a morsel allocates only what it keeps.
    static MORSEL_MASK: RefCell<SelectionMask> = RefCell::new(SelectionMask::none(0));
}

/// Masks each block of a morsel by the gather box (`None`: every row),
/// prefetching the next block's columns meanwhile, and keeps the mask's
/// words in one buffer for the morsel, from the first block that
/// selects a row on; then allocates each `need`ed column once, at
/// exactly the rows the morsel selected, and gathers each block through
/// its kept words ([`kernels::gather_words`]) — the rows of the blocks
/// in block then row order, with no column grown or reallocated. A
/// morsel that selects no row allocates nothing.
fn gather_morsel(blocks: &[&Block], need: &[bool], rect: Option<&Rect>) -> Gathered {
    let words_of = |b: &Block| b.len().div_ceil(64);
    let mut words = Vec::new();
    let (mut first, mut rows) = (0, 0);
    MORSEL_MASK.with_borrow_mut(|mask| {
        for (i, b) in blocks.iter().enumerate() {
            match rect {
                Some(r) => b.bbox_mask(r, blocks.get(i + 1).copied(), mask),
                None => mask.reset_all(b.len()),
            }
            let n = mask.count();
            if rows == 0 {
                if n == 0 {
                    continue;
                }
                first = i;
                words.reserve_exact(blocks[i..].iter().map(|b| words_of(b)).sum());
            }
            rows += n;
            words.extend_from_slice(mask.words());
        }
    });
    let mut cols: Vec<Vec<f64>> = Vec::new();
    if rows > 0 && need.contains(&true) {
        cols = (need.iter())
            .map(|&wanted| Vec::with_capacity(if wanted { rows } else { 0 }))
            .collect();
        let mut kept = words.as_slice();
        for b in &blocks[first..] {
            let (block, rest) = kept.split_at(words_of(b));
            kept = rest;
            for ((out, col), &wanted) in cols.iter_mut().zip(b.cols()).zip(need) {
                if wanted {
                    kernels::gather_words(col, block, out);
                }
            }
        }
    }
    Gathered { rows, cols }
}

/// One distinct serving copy a statement reads: the blocks the
/// scan-cost rule ([`DataNode::charge_scan`]) admits for the gather box,
/// in block order, and what that scan costs and reads.
struct ServingCopy<'c> {
    node: &'c DataNode,
    charges: CostMeter,
    stats: ScanStats,
    blocks: Vec<&'c Block>,
}

impl<'c> ServingCopy<'c> {
    /// `node`'s blocks for `rect` (`None`: every block), priced.
    fn charge(node: &'c DataNode, rect: Option<&Rect>) -> Self {
        let mut charges = CostMeter::new();
        let (blocks, stats) = node.charge_scan(rect, &mut charges);
        ServingCopy {
            node,
            charges,
            stats,
            blocks,
        }
    }

    /// One pool item of the fold-through path: masks each admitted block
    /// by `rect` (`None`: every row), prefetching the next block's
    /// columns meanwhile, refines that mask once per distinct region over
    /// the rows it kept, and folds every one of `folds`' partials through
    /// its mask straight from the block's columns, block after block —
    /// the rows, and the float-op sequence, of folding the gathered
    /// columns. Each mask a pair takes as a cache fragment
    /// ([`CopyFolds::keep`]) is kept as it goes ([`KeptMask`]), one run
    /// per stretch of blocks that are consecutive rows of one segment,
    /// each block but the stretch's last a whole number of mask words
    /// long.
    fn fold(&self, rect: Option<&Rect>, folds: &CopyFolds) -> Folded {
        let mut partials: Vec<_> = folds
            .folds
            .iter()
            .map(|(_, p, _)| Some(p.clone()))
            .collect();
        let mut mask = SelectionMask::none(0);
        let mut refined = vec![SelectionMask::none(0); folds.regions.len()];
        let keeping = folds.kept().any(|readers| readers > 0);
        // Filled at the first block that selects a row: the box mask's,
        // then each region's (see `CopyFolds::keep`).
        let mut kept: Vec<KeptMask> = Vec::new();
        // The kept masks' current run: its first block, and its rows
        // before the block being read.
        let (mut first, mut before) = (0, 0);
        let mut rows = 0;
        for (i, b) in self.blocks.iter().enumerate() {
            // A run ends where the next block is not the rows right after
            // its last, or where its last ends inside a mask word.
            if i > 0 && keeping {
                let prev = self.blocks[i - 1];
                if !(prev.precedes(b) && prev.len().is_multiple_of(64)) {
                    for k in &mut kept {
                        k.close(self.blocks[first], before);
                    }
                    (first, before) = (i, 0);
                }
            }
            let at = before / 64;
            before += b.len();
            match rect {
                Some(r) => b.bbox_mask(r, self.blocks.get(i + 1).copied(), &mut mask),
                None => mask.reset_all(b.len()),
            }
            let n = mask.count();
            if n == 0 {
                continue;
            }
            if rows == 0 && keeping {
                kept.resize_with(1 + folds.regions.len(), KeptMask::default);
            }
            rows += n;
            for (out, (region, _)) in refined.iter_mut().zip(&folds.regions) {
                out.clone_from(&mask);
                region.retain(b.cols(), out);
            }
            let masks = std::iter::once(&mask).chain(&refined);
            for ((k, m), readers) in kept.iter_mut().zip(masks).zip(folds.kept()) {
                if readers > 0 {
                    let rest = || self.blocks[i..].iter().map(|b| b.len().div_ceil(64)).sum();
                    k.keep(at, m, rest);
                }
            }
            for (partial, (region, ..)) in partials.iter_mut().flatten().zip(&folds.folds) {
                partial.push(b.cols(), region.map_or(&mask, |r| &refined[r]));
            }
        }
        if let Some(b) = self.blocks.get(first) {
            for k in &mut kept {
                k.close(b, before);
            }
        }
        Folded {
            rows,
            partials,
            kept,
        }
    }
}

/// What one serving copy's fold-through item returns (see
/// [`ServingCopy::fold`]).
struct Folded {
    /// The rows inside the box.
    rows: usize,
    /// The partials, in [`CopyFolds::folds`] order, each for its readers
    /// to take.
    partials: Vec<Option<Partial>>,
    /// The kept masks, in [`CopyFolds::keep`]'s order; none when no block
    /// selected a row or no pair keeps one.
    kept: Vec<KeptMask>,
}

/// A mask a serving copy keeps for cache fragments while it folds
/// through it (see [`ServingCopy::fold`]): the current run's words, from
/// its first through those of the last block that selected a row, and
/// the runs closed so far.
#[derive(Default)]
struct KeptMask {
    /// The current run's words; empty until one of its blocks selects a
    /// row. One buffer serves every run of the copy.
    dense: Vec<u64>,
    runs: Vec<ColumnRun>,
}

impl KeptMask {
    /// Keeps a block's `mask` as the current run's words from word `at`
    /// on, the words since the last kept block left clear. `rest` is how
    /// many words the copy's blocks hold from this one on: the buffer is
    /// reserved once, at the copy's first block that selects a row.
    fn keep(&mut self, at: usize, mask: &SelectionMask, rest: impl FnOnce() -> usize) {
        if mask.is_none_set() {
            return;
        }
        if self.dense.capacity() == 0 {
            self.dense.reserve_exact(at + rest());
        }
        self.dense.resize(at, 0);
        self.dense.extend_from_slice(mask.words());
    }

    /// Closes the current run, which starts at block `first` and spans
    /// `len` rows: its words from the first through the last that
    /// selects a row are compacted into exact-length lists of the
    /// non-zero words and their indices, with no branch per word, and
    /// the run's columns are cut to those words. A run that selects no
    /// row keeps nothing.
    fn close(&mut self, first: &Block, len: usize) {
        let lo = self.dense.iter().position(|&w| w != 0);
        let hi = self.dense.iter().rposition(|&w| w != 0);
        if let (Some(lo), Some(hi)) = (lo, hi) {
            let span = &self.dense[lo..=hi];
            let n = span.iter().filter(|&&w| w != 0).count();
            let (mut index, mut words) = (vec![0u32; n], vec![0u64; n]);
            // Every word is written to the next free slot, which only a
            // non-zero word claims; the span ends in a non-zero word, so
            // a zero one's slot is always overwritten and in bounds.
            let mut k = 0;
            for (i, &w) in span.iter().enumerate() {
                index[k] = i as u32;
                words[k] = w;
                k += usize::from(w != 0);
            }
            let window = 64 * lo..len.min(64 * (hi + 1));
            let cols = first.cols().iter().map(|c| c.window(window.clone()));
            self.runs.push(ColumnRun {
                cols: cols.collect(),
                index,
                words,
            });
        }
        self.dense.clear();
    }
}

/// The distinct folds a serving copy runs for the queries that read it:
/// queries whose partials coincide over one region — `min` and `max` of
/// a dimension (one `MinMax`), `sum` and `mean` (one `SumSq`), or the
/// same aggregate twice — fold once and share the partial.
#[derive(Default)]
struct CopyFolds<'q> {
    /// The distinct regions that refine the box mask, each with how many
    /// (query, node) pairs take its mask, kept, as a cache fragment.
    regions: Vec<(&'q Region, usize)>,
    /// Each fold: its region (an index into `regions`; `None` folds the
    /// box mask), its empty partial, and how many (query, node) pairs
    /// read it.
    folds: Vec<(Option<usize>, Partial, usize)>,
    /// How many (query, node) pairs take the box mask, kept, as a cache
    /// fragment.
    box_kept: usize,
}

impl<'q> CopyFolds<'q> {
    /// The fold a query over `region` (`None`: the box) with `aggregate`
    /// reads, added if it is new.
    fn add(&mut self, region: Option<&'q Region>, aggregate: &AggregateKind) -> usize {
        let region = region.map(|g| {
            (self.regions.iter().position(|&(r, _)| r == g)).unwrap_or_else(|| {
                self.regions.push((g, 0));
                self.regions.len() - 1
            })
        });
        let fresh = Partial::new(aggregate);
        let f = (self
            .folds
            .iter()
            .position(|(r, p, _)| *r == region && *p == fresh))
        .unwrap_or_else(|| {
            self.folds.push((region, fresh, 0));
            self.folds.len() - 1
        });
        self.folds[f].2 += 1;
        f
    }

    /// One more pair takes the mask fold `f` folds through, kept, as a
    /// cache fragment; returns that kept mask: 0 for the box mask, `1 +
    /// r` for region `r`'s.
    fn keep(&mut self, f: usize) -> usize {
        let k = self.folds[f].0.map_or(0, |r| r + 1);
        *self.kept_readers(k) += 1;
        k
    }

    /// How many pairs take kept mask `k` (see [`CopyFolds::keep`]).
    fn kept_readers(&mut self, k: usize) -> &mut usize {
        match k.checked_sub(1) {
            None => &mut self.box_kept,
            Some(r) => &mut self.regions[r].1,
        }
    }

    /// Each kept mask's readers, in [`CopyFolds::keep`]'s order: the box
    /// mask's, then each region's.
    fn kept(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.box_kept).chain(self.regions.iter().map(|&(_, n)| n))
    }
}

/// The gather path's scan body: the rows of a statement's box, gathered
/// once out of every serving copy its queries opened (see
/// [`Executor::gather`]) and shared by every aggregate over them. Any
/// row a query selects lies in its box, hence in the gather box, and its
/// block's zone map intersects both — the gather loses nothing.
struct SharedScan<'s, 'c> {
    /// The gather box; `None` gathers every row of every block.
    rect: Option<Rect>,
    /// Whether a cache may admit one of the statement's answers: every
    /// column is gathered and each rectangle has a [`ColumnFragment`] —
    /// the gathered runs themselves where it keeps them whole (taken
    /// after the fan-out, see [`Executor::gather`]), runs its node scan
    /// cuts from them otherwise.
    cacheable: bool,
    /// The serving copies, in order of first use.
    copies: &'s [ServingCopy<'c>],
    /// Each copy's gathered rows, one run per morsel that selected any,
    /// in node record order.
    gathered: Vec<Vec<Gathered>>,
}

impl SharedScan<'_, '_> {
    /// One query's scan of one opened node, refined out of the runs
    /// gathered from serving copy `at` (`None` when the partition is
    /// unavailable): a rectangle re-masks the gathered rows only when
    /// its box is not the gather box, any other region then keeps the
    /// rows of those inside it, and the kernel fold visits the selected
    /// rows run by run in node record order — the float-op sequence of
    /// scanning the node's blocks directly. A rectangle that does not
    /// keep the gathered rows whole cuts its fragment here, one
    /// [`ColumnRun::dense`] run of exact columns per gathered run that it
    /// selects rows of. Charges and block statistics are the scan-cost
    /// rule's for the query's own box (`bbox`; `None` reads everything),
    /// scaled once by the gate's slow-node multiplier (per-field rounding
    /// happens once per scan); `touch_node`, backoff and the partial's
    /// LAN bytes are never scaled, and [`ScanStats`] are unscaled.
    fn node_scan(
        &self,
        at: Option<usize>,
        opened: &Opened,
        bbox: Option<&Rect>,
        query: &AnalyticalQuery,
    ) -> NodeScan {
        let mut meter = opened.meter;
        let (Some((dn, _, slow)), Some(c)) = (opened.view, at) else {
            return NodeScan {
                partial: None,
                meter,
                stats: ScanStats::default(),
                fragment: None,
            };
        };
        // The query's box is the gather box: priced with it, and every
        // gathered row is inside.
        let whole = bbox == self.rect.as_ref();
        let (charges, mut stats) = if whole {
            (self.copies[c].charges, self.copies[c].stats)
        } else {
            let mut charges = CostMeter::new();
            let (_, stats) = dn.charge_scan(bbox, &mut charges);
            (charges, stats)
        };
        let mut partial = Partial::new(&query.aggregate);
        // A rectangle that keeps the gathered rows takes them whole for
        // its fragment after the fan-out (see `Executor::gather`); any
        // other cuts a run out of each gathered one.
        let cut = self.cacheable
            && matches!(query.region, Region::Range(_))
            && !keeps_gathered(query, bbox, self.rect.as_ref());
        let mut fragment = cut.then(ColumnFragment::default);
        // One mask buffer serves every run of the node.
        let mut refined = SelectionMask::none(0);
        for run in &self.gathered[c] {
            // Cut the gathered rows to the query's own box, then to its
            // region; a query that `keeps_gathered` needs neither.
            match bbox {
                Some(b) if !whole => {
                    kernels::range_mask_into(&run.cols, &[], run.rows, b.lo(), b.hi(), &mut refined)
                }
                _ => refined.reset_all(run.rows),
            }
            stats.records_returned += refined.count();
            // For a rectangular region the bounding box *is* the region.
            if !(bbox.is_some() && matches!(query.region, Region::Range(_))) {
                query.region.retain(&run.cols, &mut refined);
            }
            partial.push(&run.cols, &refined);
            if let Some(frag) = &mut fragment {
                let rows = refined.count();
                if rows > 0 {
                    let cols = (run.cols.iter())
                        .map(|col| {
                            let mut out = Vec::with_capacity(rows);
                            kernels::gather(col, &refined, &mut out);
                            out
                        })
                        .collect();
                    frag.runs.push(ColumnRun::dense(cols, rows));
                }
            }
        }
        // The identity at the healthy multiplier 1.0.
        meter.merge_scaled(&charges, slow);
        meter.charge_lan(partial.wire_bytes());
        NodeScan {
            partial: Some(partial),
            meter,
            stats,
            fragment,
        }
    }
}

/// One node's partial aggregate: folded directly over column slices, in
/// record order over the selected rows, and shipped to the coordinator
/// as it stands. Distributive and algebraic aggregates ship
/// constant-size sufficient statistics; holistic aggregates
/// (median/quantile) must ship the selected values themselves. The
/// crate's only fold, so a cold scan and a containment re-derivation of
/// the same records produce bit-identical partials. Two empty partials
/// are equal exactly when the aggregates that made them fold the same
/// values the same way.
#[derive(Debug, Clone, PartialEq)]
enum Partial {
    Count {
        count: u64,
    },
    /// Shipped as the (count, sum, sum_sq) sufficient-statistics triple;
    /// the coordinator's merges read only the first two.
    SumSq {
        dim: usize,
        count: u64,
        sum: f64,
        sum_sq: f64,
    },
    /// Centered moments for variance: numerically robust under large
    /// means, where the raw `sum_sq` form cancels catastrophically.
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
}

impl Partial {
    fn new(agg: &AggregateKind) -> Self {
        match *agg {
            AggregateKind::Count => Partial::Count { count: 0 },
            AggregateKind::Sum { dim } | AggregateKind::Mean { dim } => Partial::SumSq {
                dim,
                count: 0,
                sum: 0.0,
                sum_sq: 0.0,
            },
            AggregateKind::Variance { dim } => Partial::Welford {
                dim,
                count: 0,
                mean: 0.0,
                m2: 0.0,
            },
            AggregateKind::Min { dim } | AggregateKind::Max { dim } => Partial::MinMax {
                dim,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            },
            AggregateKind::Median { dim } | AggregateKind::Quantile { dim, .. } => {
                Partial::Values {
                    dim,
                    values: Vec::new(),
                }
            }
            AggregateKind::Correlation { x, y } | AggregateKind::Regression { x, y } => {
                Partial::Bivariate {
                    x,
                    y,
                    stats: BivariateStats::default(),
                }
            }
        }
    }

    /// Folds the rows `mask` selects from `cols` — gathered columns, a
    /// cached fragment's, or a block's ranges of its node's — into the
    /// partial, in row order.
    fn push<C: AsRef<[f64]>>(&mut self, cols: &[C], mask: &SelectionMask) {
        if mask.is_none_set() {
            return;
        }
        match self {
            Partial::Count { count } => *count += mask.count() as u64,
            Partial::SumSq {
                dim,
                count,
                sum,
                sum_sq,
            } => {
                *count += mask.count() as u64;
                kernels::fold_sum_sq(cols[*dim].as_ref(), mask, sum, sum_sq);
            }
            Partial::Welford {
                dim,
                count,
                mean,
                m2,
            } => kernels::fold_welford(cols[*dim].as_ref(), mask, count, mean, m2),
            Partial::MinMax { dim, min, max } => {
                kernels::fold_min_max(cols[*dim].as_ref(), mask, min, max)
            }
            Partial::Values { dim, values } => kernels::gather(cols[*dim].as_ref(), mask, values),
            Partial::Bivariate { x, y, stats } => {
                kernels::fold_bivariate(cols[*x].as_ref(), cols[*y].as_ref(), mask, stats)
            }
        }
    }

    /// Bytes this partial occupies on the wire (a count ships in the
    /// sum triple).
    fn wire_bytes(&self) -> u64 {
        match self {
            Partial::Count { .. } | Partial::SumSq { .. } | Partial::Welford { .. } => 24,
            Partial::MinMax { .. } => 16,
            Partial::Bivariate { .. } => 48,
            Partial::Values { values, .. } => 8 * values.len() as u64,
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
                if let Partial::Welford {
                    count, mean, m2, ..
                } = p
                {
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
        AggregateKind::Median { .. } => quantile_of(values_of(partials).into_iter(), 0.5),
        AggregateKind::Quantile { q, .. } => quantile_of(values_of(partials).into_iter(), q),
        AggregateKind::Correlation { .. } => {
            let mut stats = BivariateStats::default();
            for p in &partials {
                if let Partial::Bivariate { stats: b, .. } = p {
                    stats.merge(b);
                }
            }
            stats.correlation().map(AnswerValue::Scalar)
        }
        AggregateKind::Regression { .. } => {
            let mut stats = BivariateStats::default();
            for p in &partials {
                if let Partial::Bivariate { stats: b, .. } = p {
                    stats.merge(b);
                }
            }
            let (slope, intercept) = stats.ols_line()?;
            Ok(AnswerValue::Pair(slope, intercept))
        }
    }
}

fn count_of(p: &Partial) -> u64 {
    match p {
        Partial::Count { count } | Partial::SumSq { count, .. } => *count,
        _ => 0,
    }
}

fn sum_of(p: &Partial) -> f64 {
    match p {
        Partial::SumSq { sum, .. } => *sum,
        _ => 0.0,
    }
}

/// Every node's shipped values, in node order, in the first node's
/// buffer: `quantile_of` collects the returned `Vec`'s own iterator back
/// into that buffer, so the merge copies no value a second time.
fn values_of(partials: Vec<Partial>) -> Vec<f64> {
    let mut shipped = partials.into_iter().filter_map(|p| match p {
        Partial::Values { values, .. } => Some(values),
        _ => None,
    });
    let mut all = shipped.next().unwrap_or_default();
    for mut values in shipped {
        all.append(&mut values);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Ball, Point, Record};
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

    /// A lone BDAS query with no trace parent.
    fn bdas(exec: &Executor, table: &str, q: &AnalyticalQuery) -> Result<QueryOutcome> {
        exec.execute(table, q, ExecMode::Bdas, &TraceContext::NONE)
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
            let bdas = bdas(&exec, "t", &q).unwrap();
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
        assert_eq!(bdas(&exec, "t", &q).unwrap().answer, want);
        assert_eq!(exec.execute_direct("t", &q).unwrap().answer, want);
    }

    #[test]
    fn direct_is_cheaper_than_bdas() {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = count_query(vec![10.0, 0.0, 0.0], vec![20.0, 5.0, 6.0]);
        let bdas = bdas(&exec, "t", &q).unwrap();
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
        let out = bdas(&exec, "t", &q).unwrap();
        let mut touched = CostMeter::new();
        (0..4).for_each(|_| touched.touch_node(ExecMode::Bdas));
        assert_eq!(out.cost.totals.nodes_touched, touched.nodes_touched);
        assert_eq!(out.cost.totals.layer_crossings, touched.layer_crossings);
    }

    #[test]
    fn empty_selection_semantics() {
        let c = cluster();
        let exec = Executor::new(&c);
        let nowhere = count_query(vec![-10.0, -10.0, -10.0], vec![-5.0, -5.0, -5.0]);
        assert_eq!(
            bdas(&exec, "t", &nowhere).unwrap().answer,
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
            bdas(&exec, "missing", &q),
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
        assert!(bdas(&exec, "t", &q).is_err());
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
        bdas(&exec, "t", &q).unwrap();
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
        let values = |values| Partial::Values { dim: 0, values };
        let partials = vec![values(vec![2.0, f64::NAN]), values(vec![1.0, 3.0])];
        let median = AggregateKind::Median { dim: 0 };
        let got = merge_partials(&median, partials).unwrap();
        assert_eq!(got, AnswerValue::Scalar(2.5), "median of finite prefix");
        let all_nan = vec![values(vec![f64::NAN, f64::NAN])];
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
            bdas(&exec, "big", &q).unwrap(),
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
        let mut request = CostMeter::new();
        for _ in 0..4 {
            request.charge_lan(64);
        }
        let mut merge = CostMeter::new();
        merge.charge_cpu(4);
        assert!(
            (scatter.sim_us - request.sequential_us()).abs() < 1e-12,
            "scatter carries the request fan-out: {}",
            scatter.sim_us
        );
        assert!(
            (gather.sim_us - merge.sequential_us()).abs() < 1e-12,
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
            (out.cost.wall_us - (coord.sequential_us() + node_sim)).abs() < 1e-9,
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
        let q = count_query(vec![0.0; 3], vec![100.0, 20.0, 6.0]);
        let baseline = bdas(&Executor::new(&c), "t", &q).unwrap();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        c.set_fault_plan(FaultPlan::new(7).with_crash(2, 0));
        let out = bdas(&Executor::new(&c), "t", &q).unwrap();
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
        assert!(matches!(bdas(&strict, "t", &q), Err(SeaError::Storage(_))));

        // Partial-answer mode: a degraded count plus the availability
        // accounting, instead of an error.
        let sink = TelemetrySink::recording();
        let degraded = Executor::new(&c)
            .with_telemetry(sink.clone())
            .with_partial_answers(true);
        let out = bdas(&degraded, "t", &q).unwrap();
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
            bdas(&strict, "t", &q),
            Err(SeaError::Transient(_))
        ));

        // With every scan failing, partial-answer mode reports a fully
        // degraded (but well-typed) outcome.
        let degraded = Executor::new(&c).with_partial_answers(true);
        let out = bdas(&degraded, "t", &q).unwrap();
        assert_eq!(out.answer, AnswerValue::Scalar(0.0));
        assert_eq!(out.cost.answered_fraction, 0.0);
        assert_eq!(out.cost.nodes_unavailable, 4);
    }

    #[test]
    fn a_wrong_dimensional_region_is_rejected_before_any_gate() {
        use sea_storage::FaultPlan;
        // `t` is 3-D and unreplicated, and every node's primary crashes
        // at its second operation: a statement that consumed a gate
        // would leave the next healthy one a crashed partition.
        let wrong = [
            Region::Range(Rect::new(vec![0.0; 2], vec![100.0; 2]).unwrap()),
            Region::Range(Rect::new(vec![0.0; 4], vec![100.0; 4]).unwrap()),
            Region::Radius(Ball::new(Point::new(vec![50.0]), 8.0).unwrap()),
            Region::Radius(Ball::new(Point::new(vec![50.0; 4]), 8.0).unwrap()),
        ];
        let healthy = count_query(vec![0.0; 3], vec![100.0, 20.0, 6.0]);
        for region in wrong {
            let q = AnalyticalQuery::new(region, AggregateKind::Count);
            let mut c = cluster();
            c.set_fault_plan((0..4).fold(FaultPlan::new(1), |p, n| p.with_crash(n, 1)));
            let exec = Executor::new(&c);
            let lone = [bdas(&exec, "t", &q), exec.execute_direct("t", &q)];
            let batches = [
                exec.run(
                    "t",
                    std::slice::from_ref(&q),
                    ExecMode::Bdas,
                    &TraceContext::NONE,
                ),
                exec.execute_batch("t", std::slice::from_ref(&q)),
            ];
            for out in lone.into_iter().chain(batches.into_iter().flatten()) {
                assert!(
                    matches!(out, Err(SeaError::DimensionMismatch { expected: 3, .. })),
                    "{:?}: {out:?}",
                    q.region
                );
            }
            let next = bdas(&exec, "t", &healthy).unwrap();
            assert_eq!(
                next.answer,
                oracle(&c, "t", &healthy),
                "no gate was consumed"
            );
        }
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
        let big_out = bdas(&exec, "t", &big).unwrap();
        let small_out = bdas(&exec, "t", &small).unwrap();
        assert!(
            big_out.cost.totals.lan_bytes > small_out.cost.totals.lan_bytes * 10,
            "median ships values: {} vs {}",
            big_out.cost.totals.lan_bytes,
            small_out.cost.totals.lan_bytes
        );
    }
}
