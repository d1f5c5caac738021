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
//! model. Every statement runs one pool item per serving copy, which
//! reads the copy's blocks for every (query, node) pair that reads it.
//! A statement whose queries share one box (every `sea-lang` statement,
//! cached or not) *folds through the mask*: the item masks each block
//! and folds every query's partial through that mask while the block is
//! hot, copying no row; a cache fragment keeps that mask over the copy's
//! own columns. A statement whose boxes differ gathers the copy's rows
//! of the union box once, into columns of exactly those rows, and the
//! item refines and folds each of its pairs over them; a cache fragment
//! keeps a rectangle's refined mask over those columns. Workers do pure
//! compute (telemetry-silent, charging private [`CostMeter`]s); the
//! coordinator then *replays* each query in query order, its nodes in
//! node-index order, so answers, [`CostReport`]s, cache state and every
//! recorded table are bit-identical to sequential execution regardless
//! of the thread count or the path, for a batch as for a lone query.

use sea_cache::{CacheDecision, ColumnFragment, ColumnRun, SemanticCache};
use sea_common::{
    kernels, quantile_of, AggregateKind, AnalyticalQuery, AnswerValue, BivariateStats, ColumnRange,
    CostMeter, CostReport, ExecMode, Rect, Region, Result, SeaError, SelectionMask,
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
    /// the fold went through over the node's columns, or the query's
    /// refined mask over the columns the copy gathered (`None` unless a
    /// cache is attached and the region is a rectangle).
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
    /// once its partials are merged.
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
    /// a fold of copied rows would; no scan copies a row for a fragment
    /// in exchange.
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
        let mut scans = self.plan_shared_scan(&stmt).into_iter();
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
            (blocks.into_iter())
                .map(|block| {
                    let mut mask = SelectionMask::none(0);
                    match bbox {
                        Some(rect) => block.bbox_mask(rect, &mut mask),
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
    /// Every statement makes one [`ExecPool::run`], one item per serving
    /// copy, and each item returns the scans of the (query, node) pairs
    /// that read its copy, billed in one place ([`NodeScan::billed`]).
    /// A statement whose queries all share the gather box — every
    /// `sea-lang` statement, either regime, with a cache attached or
    /// not — **folds through the mask** ([`ServingCopy::fold_through`]):
    /// each admitted block is masked and every query's partial folded
    /// through that mask on the same thread, gathering nothing; a
    /// rectangle's cache fragment is then the mask it folded through,
    /// kept over the copy's own columns. A statement whose boxes differ
    /// (perfbaseline's batch of 48 boxes, and tests) **gathers** the
    /// copy's rows of the gather box once into exact columns and refines
    /// and folds each pair over them ([`ServingCopy::gather_through`]).
    fn plan_shared_scan(&self, stmt: &[(&OpenedQuery<'a>, &AnalyticalQuery)]) -> Vec<NodeScan> {
        let mut rect = stmt.first().and_then(|(p, _)| p.bbox.clone());
        for (p, _) in stmt.iter().skip(1) {
            rect = match (&rect, &p.bbox) {
                (Some(u), Some(b)) => u.union(b).ok(),
                _ => None,
            };
        }
        let rect = rect.as_ref();
        // The distinct serving copies in order of first use, and the one
        // each (query, node) reads — `None` for a partition unavailable.
        let mut copies: Vec<ServingCopy> = Vec::new();
        let mut at = Vec::new();
        for (_, opened) in stmt.iter().flat_map(|(p, _)| &p.opened) {
            at.push(opened.view.map(|(dn, ..)| {
                (copies.iter().position(|c| std::ptr::eq(c.node, dn))).unwrap_or_else(|| {
                    copies.push(ServingCopy::charge(dn, rect));
                    copies.len() - 1
                })
            }));
        }
        let pairs = || {
            (stmt.iter())
                .flat_map(|&(p, q)| p.opened.iter().map(move |(_, o)| (p.bbox.as_ref(), o, q)))
                .zip(&at)
        };
        // The gather box, when some query's box is not it. Every query of
        // a statement has a box in the pruned regime and none otherwise,
        // so a statement without one shares it.
        let gather = rect.filter(|&r| stmt.iter().any(|(p, _)| p.bbox.as_ref() != Some(r)));
        // Fragments are cut only where a cache could admit them: one is
        // attached and a region supports the containment algebra
        // (rectangles only).
        let keeping = self.cache.is_some() && (stmt.iter()).any(|(_, q)| is_rectangle(q));
        let mut items = self.pool.run(copies.len(), |c| {
            let readers = (pairs().filter(|&(_, &a)| a == Some(c))).map(|(pair, _)| pair);
            let mut scans = match gather {
                Some(r) => copies[c].gather_through(r, readers, keeping),
                None => copies[c].fold_through(rect, readers, keeping),
            };
            // Popped in pair order below.
            scans.reverse();
            scans
        });
        (pairs())
            .map(|((_, opened, _), &c)| {
                // A partition left unavailable keeps its open phase's
                // meter alone.
                (c.and_then(|c| items[c].pop())).unwrap_or_else(|| NodeScan {
                    partial: None,
                    meter: opened.meter,
                    stats: ScanStats::default(),
                    fragment: None,
                })
            })
            .collect()
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

/// Whether `query`'s region is a rectangle: the one region a cache
/// fragment is cut for, and one whose bounding box is itself.
fn is_rectangle(query: &AnalyticalQuery) -> bool {
    matches!(query.region, Region::Range(_))
}

impl NodeScan {
    /// One (query, node) pair's scan of its serving copy, billed: the
    /// pair's open-phase meter, plus `charges` — the scan-cost rule's
    /// for the pair's own box — scaled once by the gate's slow-node
    /// multiplier (per-field rounding happens once per scan), plus the
    /// partial's LAN bytes, which are never scaled, as `touch_node` and
    /// backoff are not. [`ScanStats`] are unscaled.
    fn billed(
        opened: &Opened,
        charges: &CostMeter,
        stats: ScanStats,
        partial: Option<Partial>,
        fragment: Option<ColumnFragment>,
    ) -> Self {
        let mut meter = opened.meter;
        // Every pair billed here reads an open copy; the identity at the
        // healthy multiplier 1.0.
        let slow = opened.view.map_or(1.0, |(.., slow)| slow);
        meter.merge_scaled(charges, slow);
        meter.charge_lan(partial.as_ref().map_or(0, Partial::wire_bytes));
        NodeScan {
            partial,
            meter,
            stats,
            fragment,
        }
    }
}

/// A (query, node) pair that reads a serving copy: the query's box
/// (`None`: every row), the node's open phase, and the query.
type Reader<'r> = (Option<&'r Rect>, &'r Opened<'r>, &'r AnalyticalQuery);

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

    /// The fold-through body of the copy's pool item (see
    /// [`Executor::plan_shared_scan`]), for `readers` — the (query, node)
    /// pairs that read the copy, each with its box, in pair order — whose
    /// boxes are all `rect`: the copy folds, once, every distinct fold
    /// they ask for ([`CopyFolds`]) and, `keeping` (a cache attached and
    /// a rectangle in the statement), keeps, once, every distinct mask a
    /// rectangle folds through ([`ServingCopy::fold`]). Each reader takes
    /// its fold's partial and, a rectangle kept, its kept mask as its
    /// [`ColumnFragment`] — each moved to its last reader and cloned for
    /// the others.
    fn fold_through<'r>(
        &self,
        rect: Option<&Rect>,
        readers: impl Iterator<Item = Reader<'r>> + Clone,
        keeping: bool,
    ) -> Vec<NodeScan> {
        // A rectangle's box is its region; anything else refines the box
        // mask by its region.
        let refine =
            |q: &'r AnalyticalQuery| (rect.is_none() || !is_rectangle(q)).then_some(&q.region);
        let mut folds = CopyFolds::default();
        for (_, _, q) in readers.clone() {
            let f = folds.add(refine(q), &q.aggregate);
            folds.folds[f].readers += 1;
            if keeping && is_rectangle(q) {
                *folds.kept_readers(folds.mask_of(f)) += 1;
            }
        }
        let mut kept = self.fold(rect, &mut folds);
        let mut stats = self.stats;
        stats.records_returned += kept.rows;
        // Sized once: a reader count is no size hint.
        let mut scans = Vec::with_capacity(readers.clone().count());
        scans.extend(readers.map(|(_, opened, q)| {
            let f = folds.add(refine(q), &q.aggregate);
            let fold = &mut folds.folds[f];
            let partial = hand_out(&mut fold.partial, &mut fold.readers);
            // A copy that selected no row kept no mask.
            let fragment = (keeping && is_rectangle(q)).then(|| {
                let k = folds.mask_of(f);
                ColumnFragment {
                    runs: (kept.masks.get_mut(k))
                        .map_or(Vec::new(), |m| hand_out(&mut m.runs, folds.kept_readers(k))),
                }
            });
            NodeScan::billed(opened, &self.charges, stats, partial, fragment)
        }));
        scans
    }

    /// The scan loop of [`ServingCopy::fold_through`]: masks each
    /// admitted block by `rect` (`None`: every row) through its byte
    /// codes ([`Block::bbox_mask`]), refines that mask once per distinct
    /// region over the rows it kept, and folds each of `folds`' partials
    /// through its mask straight from the block's columns, block after
    /// block — the rows, and the float-op sequence, of folding the
    /// gathered columns. Each mask a pair takes as a cache fragment is
    /// kept as it goes ([`KeptMask`]), one run per stretch of blocks that
    /// are consecutive rows of one segment, each block but the stretch's
    /// last a whole number of mask words long.
    fn fold(&self, rect: Option<&Rect>, folds: &mut CopyFolds) -> Kept {
        let mut mask = SelectionMask::none(0);
        let mut refined = vec![SelectionMask::none(0); folds.regions.len()];
        let keeping = folds.kept().any(|readers| readers > 0);
        // Filled at the first block that selects a row: the box mask's,
        // then each region's (see `CopyFolds::mask_of`).
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
                Some(r) => b.bbox_mask(r, &mut mask),
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
            for fold in &mut folds.folds {
                if let Some(partial) = &mut fold.partial {
                    partial.push(b.cols(), fold.region.map_or(&mask, |r| &refined[r]));
                }
            }
        }
        if let Some(b) = self.blocks.get(first) {
            for k in &mut kept {
                k.close(b, before);
            }
        }
        Kept { rows, masks: kept }
    }

    /// The gather body of the copy's pool item (see
    /// [`Executor::plan_shared_scan`]), for `readers` — the (query, node)
    /// pairs that read the copy, each with its box, in pair order — whose
    /// boxes differ: the copy's rows of the gather box `rect` are
    /// gathered once ([`ServingCopy::gather`]), and each reader refined
    /// and folded over them on the same thread ([`Gathered::refine`]),
    /// one mask buffer serving the gather and every reader. When a
    /// reader's box is not the gather box, the gathered columns are coded
    /// under the gather box first ([`Gathered::code`]), so that each such
    /// reader re-masks them a byte per value. With `keeping` (a cache
    /// attached and a rectangle in the statement), a reader of the copy
    /// that is a rectangle first moves the gathered columns into shared
    /// ranges, once, and each rectangle cuts its refined mask over them
    /// as its fragment's one run ([`ColumnRun::new`]): no value is
    /// copied for a fragment.
    fn gather_through<'r>(
        &self,
        rect: &Rect,
        readers: impl Iterator<Item = Reader<'r>> + Clone,
        keeping: bool,
    ) -> Vec<NodeScan> {
        let mut mask = SelectionMask::none(0);
        let mut gathered = self.gather(rect, &mut mask);
        if readers.clone().any(|(bbox, ..)| bbox != Some(rect)) {
            gathered.code(rect);
        }
        let keeps = |q| keeping && is_rectangle(q);
        // Sized once: a reader count is no size hint.
        let mut scans = Vec::with_capacity(readers.clone().count());
        if readers.clone().any(|(.., q)| keeps(q)) {
            let shared = gathered.share();
            scans.extend(readers.map(|reader| {
                let mut scan = shared.refine(self, rect, reader, &mut mask);
                scan.fragment = keeps(reader.2).then(|| ColumnFragment {
                    runs: (ColumnRun::new(&shared.cols, shared.rows, mask.words()))
                        .into_iter()
                        .collect(),
                });
                scan
            }));
        } else {
            scans.extend(readers.map(|reader| gathered.refine(self, rect, reader, &mut mask)));
        }
        scans
    }

    /// The copy's rows of `rect` in columns of their own: masks each
    /// admitted block into `mask`, and keeps the mask's words in one
    /// buffer from the first block that selects a row on; then allocates
    /// each column once, at exactly the rows selected, and gathers each
    /// block through its kept words ([`kernels::gather_words`]) — the
    /// rows of the blocks in block then row order, with no column grown
    /// or reallocated. A copy that selects no row allocates nothing.
    fn gather(&self, rect: &Rect, mask: &mut SelectionMask) -> Gathered<Vec<f64>> {
        let blocks = &self.blocks;
        let words_of = |b: &Block| b.len().div_ceil(64);
        let mut words = Vec::new();
        let (mut first, mut rows) = (0, 0);
        for (i, b) in blocks.iter().enumerate() {
            b.bbox_mask(rect, mask);
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
        let mut cols: Vec<Vec<f64>> = Vec::new();
        if rows > 0 {
            cols = (0..rect.dims()).map(|_| Vec::with_capacity(rows)).collect();
            let mut kept = words.as_slice();
            for b in &blocks[first..] {
                let (block, rest) = kept.split_at(words_of(b));
                kept = rest;
                for (out, col) in cols.iter_mut().zip(b.cols()) {
                    kernels::gather_words(col, block, out);
                }
            }
        }
        Gathered {
            rows,
            cols,
            codes: Vec::new(),
        }
    }
}

/// What a serving copy's fold keeps (see [`ServingCopy::fold`]).
struct Kept {
    /// The rows inside the box.
    rows: usize,
    /// The kept masks, in [`CopyFolds::mask_of`]'s order; none when no
    /// block selected a row or no pair keeps one.
    masks: Vec<KeptMask>,
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
    /// `len` rows: its words are cut over the segment's columns from
    /// that block on ([`ColumnRun::new`]). A run that selects no row
    /// keeps nothing.
    fn close(&mut self, first: &Block, len: usize) {
        self.runs
            .extend(ColumnRun::new(first.cols(), len, &self.dense));
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
    folds: Vec<Fold>,
    /// How many (query, node) pairs take the box mask, kept, as a cache
    /// fragment.
    box_kept: usize,
}

/// One of a serving copy's distinct folds (see [`CopyFolds`]).
struct Fold {
    /// An index into [`CopyFolds::regions`]; `None` folds the box mask.
    region: Option<usize>,
    /// The partial before any row: what tells two folds apart.
    empty: Partial,
    /// The partial folded, until its last reader takes it.
    partial: Option<Partial>,
    /// How many (query, node) pairs read it.
    readers: usize,
}

impl<'q> CopyFolds<'q> {
    /// The fold a query over `region` (`None`: the box) with `aggregate`
    /// reads, added with no reader if it is new.
    fn add(&mut self, region: Option<&'q Region>, aggregate: &AggregateKind) -> usize {
        let region = region.map(|g| {
            (self.regions.iter().position(|&(r, _)| r == g)).unwrap_or_else(|| {
                self.regions.push((g, 0));
                self.regions.len() - 1
            })
        });
        let empty = Partial::new(aggregate);
        (self
            .folds
            .iter()
            .position(|f| f.region == region && f.empty == empty))
        .unwrap_or_else(|| {
            self.folds.push(Fold {
                region,
                partial: Some(empty.clone()),
                empty,
                readers: 0,
            });
            self.folds.len() - 1
        })
    }

    /// The kept mask fold `f` folds through: 0 for the box mask, `1 + r`
    /// for region `r`'s.
    fn mask_of(&self, f: usize) -> usize {
        self.folds[f].region.map_or(0, |r| r + 1)
    }

    /// How many pairs take kept mask `k` (see [`CopyFolds::mask_of`]) as
    /// a cache fragment.
    fn kept_readers(&mut self, k: usize) -> &mut usize {
        match k.checked_sub(1) {
            None => &mut self.box_kept,
            Some(r) => &mut self.regions[r].1,
        }
    }

    /// Each kept mask's readers, in [`CopyFolds::mask_of`]'s order: the
    /// box mask's, then each region's.
    fn kept(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.box_kept).chain(self.regions.iter().map(|&(_, n)| n))
    }
}

/// A serving copy's rows of the gather box in column form (see
/// [`ServingCopy::gather`]): a row count and one column per dimension,
/// `rows` values each — the gathered `Vec<f64>`s, or, once a reader
/// keeps a fragment, the same columns moved into shared ranges
/// ([`Gathered::share`]). Any row a query selects lies in its box, hence
/// in the gather box, and its block's zone map intersects both — the
/// gather loses nothing. A copy that selects no row has no column list.
/// Once [`Gathered::code`]d, `codes` holds each column's byte codes under
/// the gather box; until then it is empty.
struct Gathered<C> {
    rows: usize,
    cols: Vec<C>,
    codes: Vec<Vec<u8>>,
}

impl Gathered<Vec<f64>> {
    /// Codes every gathered column under `rect`, the box the rows were
    /// gathered for ([`kernels::byte_codes`]): `rect` bounds every row,
    /// so it serves the gathered columns as a block's zone map serves
    /// the block's, and [`Gathered::refine`] re-masks them through the
    /// codes.
    fn code(&mut self, rect: &Rect) {
        self.codes = (self.cols.iter().enumerate())
            .map(|(d, col)| {
                let mut codes = vec![kernels::EXACT_CODE; self.rows];
                kernels::byte_codes(rect.lo()[d], rect.hi()[d], col, &mut codes);
                codes
            })
            .collect();
    }

    /// The gathered columns moved, not copied, into ranges that cache
    /// fragments share.
    fn share(self) -> Gathered<ColumnRange<f64>> {
        Gathered {
            rows: self.rows,
            cols: self.cols.into_iter().map(ColumnRange::from).collect(),
            codes: self.codes,
        }
    }
}

impl<C: AsRef<[f64]>> Gathered<C> {
    /// One reader's scan of `copy`, refined out of the rows gathered for
    /// `rect` into `refined`: a reader whose box is not the gather box
    /// re-masks them by that box on their codes
    /// ([`kernels::range_mask_coded`]), any region but a rectangle then
    /// keeps the rows inside it, and the kernel fold visits the selected
    /// rows in node record order — the float-op sequence of scanning the
    /// node's blocks directly. `refined` is left holding the reader's
    /// rows when the copy gathered any. Charges and block statistics are
    /// the scan-cost rule's for the reader's own box, billed
    /// ([`NodeScan::billed`]).
    fn refine(
        &self,
        copy: &ServingCopy,
        rect: &Rect,
        (bbox, opened, query): Reader,
        refined: &mut SelectionMask,
    ) -> NodeScan {
        // The query's box is the gather box: priced with it, and every
        // gathered row is inside.
        let whole = bbox == Some(rect);
        let (charges, mut stats) = if whole {
            (copy.charges, copy.stats)
        } else {
            let mut charges = CostMeter::new();
            let stats = copy.node.charge_scan_with(bbox, &mut charges, |_| {});
            (charges, stats)
        };
        let mut partial = Partial::new(&query.aggregate);
        if self.rows > 0 {
            match bbox {
                Some(b) if !whole => {
                    kernels::range_mask_coded(&self.cols, &self.codes, rect, b, self.rows, refined)
                }
                _ => refined.reset_all(self.rows),
            }
            stats.records_returned += refined.count();
            // For a rectangular region the bounding box *is* the region.
            if !is_rectangle(query) {
                query.region.retain(&self.cols, refined);
            }
            partial.push(&self.cols, refined);
        }
        NodeScan::billed(opened, &charges, stats, Some(partial), None)
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
