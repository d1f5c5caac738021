//! The edge/core geo-distributed system.

use sea_cache::{CacheConfig, SemanticCache};
use sea_common::{AnalyticalQuery, AnswerValue, CostModel, Rect, Result, SeaError};
use sea_core::agent::{AgentConfig, SeaAgent};
use sea_query::{Executor, QueryOutcome, RetryPolicy};
use sea_storage::StorageCluster;
use sea_telemetry::{SpanGuard, TelemetrySink, TraceContext};

/// A model prediction costs ~0.1 ms of edge compute.
const EDGE_PREDICT_US: f64 = 100.0;

/// Configuration of the geo-distributed deployment.
#[derive(Debug, Clone)]
pub struct GeoConfig {
    /// The edge agents' configuration.
    pub agent: AgentConfig,
    /// Predictions with estimated error above this threshold are escalated
    /// to the core.
    pub error_threshold: f64,
    /// Number of edge nodes.
    pub edges: usize,
}

impl Default for GeoConfig {
    fn default() -> Self {
        GeoConfig {
            agent: AgentConfig::default(),
            error_threshold: 0.15,
            edges: 4,
        }
    }
}

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoSource {
    /// Answered by the edge's local semantic cache — an *exact* answer
    /// with no WAN traffic ([`GeoSystem::with_edge_caches`]).
    EdgeCache,
    /// Answered by the edge's local model — no WAN traffic.
    EdgeModel,
    /// Answered by a sibling edge's model (one inter-edge hop; RT5-4).
    SiblingEdge {
        /// The edge whose model produced the answer.
        edge: usize,
    },
    /// Escalated to the core for exact execution.
    CoreExact,
}

/// The outcome of one geo-distributed query.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoOutcome {
    /// The answer returned to the analyst.
    pub answer: AnswerValue,
    /// End-to-end simulated response time in microseconds.
    pub response_us: f64,
    /// WAN bytes this query moved.
    pub wan_bytes: u64,
    /// Provenance.
    pub source: GeoSource,
}

/// Aggregate statistics of a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoStats {
    /// Queries submitted in total.
    pub queries: u64,
    /// Queries answered at an edge.
    pub edge_answered: u64,
    /// Subset of `edge_answered` served by an edge's semantic cache
    /// (exact answers, zero WAN traffic).
    pub cache_answered: u64,
    /// Queries escalated to the core.
    pub core_answered: u64,
    /// Total WAN bytes moved.
    pub wan_bytes: u64,
    /// Total WAN messages.
    pub wan_msgs: u64,
    /// Sum of response times (µs) — divide by `queries` for the mean.
    pub total_response_us: f64,
}

impl GeoStats {
    /// Fraction of queries escalated to the core.
    pub fn fallback_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.core_answered as f64 / self.queries as f64
        }
    }

    /// Mean response time in microseconds.
    pub fn mean_response_us(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_response_us / self.queries as f64
        }
    }
}

/// The core's outcome for one escalated query and what reaching it
/// cost on the WAN, retries included.
struct CoreTrip {
    core: QueryOutcome,
    retries: u32,
    wan_bytes: u64,
    wan_msgs: u64,
    wan_us: f64,
}

struct EdgeNode {
    agent: SeaAgent,
    /// Edge-local semantic answer cache (RT5 flavoured): exact repeats
    /// of escalated queries are answered at the edge without a WAN round
    /// trip. `None` unless [`GeoSystem::with_edge_caches`] opted in.
    cache: Option<SemanticCache>,
}

/// The geo-distributed SEA deployment of Fig 3.
pub struct GeoSystem<'a> {
    executor: Executor<'a>,
    table: String,
    edges: Vec<EdgeNode>,
    master: SeaAgent,
    config: GeoConfig,
    cost_model: CostModel,
    /// Edge→core WAN retry policy: a transient core failure (the core's
    /// own node-level retries exhausted) is resubmitted over the WAN,
    /// paying a fresh round trip plus simulated backoff per attempt.
    wan_retry: RetryPolicy,
    stats: GeoStats,
    /// Inherited from the cluster; `geo.*` spans and events flow here.
    telemetry: TelemetrySink,
}

impl<'a> GeoSystem<'a> {
    /// Creates a deployment over `cluster`/`table` with `config.edges`
    /// edge nodes.
    ///
    /// # Errors
    ///
    /// Missing table, zero edges, or invalid agent configuration.
    pub fn new(cluster: &'a StorageCluster, table: &str, config: GeoConfig) -> Result<Self> {
        if config.edges == 0 {
            return Err(SeaError::invalid("need at least one edge node"));
        }
        let dims = cluster.dims(table)?;
        let mut edges = Vec::with_capacity(config.edges);
        for _ in 0..config.edges {
            edges.push(EdgeNode {
                agent: SeaAgent::new(dims, config.agent.clone())?,
                cache: None,
            });
        }
        Ok(GeoSystem {
            executor: Executor::new(cluster),
            table: table.to_string(),
            edges,
            master: SeaAgent::new(dims, config.agent.clone())?,
            config,
            cost_model: CostModel::default(),
            wan_retry: RetryPolicy::default(),
            stats: GeoStats {
                queries: 0,
                edge_answered: 0,
                cache_answered: 0,
                core_answered: 0,
                wan_bytes: 0,
                wan_msgs: 0,
                total_response_us: 0.0,
            },
            telemetry: cluster.telemetry().clone(),
        })
    }

    /// Overrides the edge→core WAN retry policy. Each retry resubmits the
    /// query after a transient core failure, charging one extra WAN round
    /// trip plus the policy's (doubling) simulated backoff.
    #[must_use]
    pub fn with_wan_retry(mut self, policy: RetryPolicy) -> Self {
        self.wan_retry = policy;
        self
    }

    /// Reconfigures the core executor's node-level retry policy — the
    /// WAN-level retry of [`GeoSystem::with_wan_retry`] only engages once
    /// the core has exhausted these.
    #[must_use]
    pub fn with_core_retry(mut self, policy: RetryPolicy) -> Self {
        self.executor = self.executor.clone().with_retry_policy(policy);
        self
    }

    /// Equips every edge with a local [`SemanticCache`]: exact repeats
    /// of previously escalated queries are answered at the edge — no WAN
    /// round trip, no core execution — and counted as
    /// [`GeoSource::EdgeCache`]. Edge entries are admitted answer-only
    /// (shipping per-node record fragments over the WAN would cost more
    /// than the round trips they could save), so only exact hits apply;
    /// the admission cost threshold is charged against the full
    /// WAN + core bill an escalation pays. Invalidate across workload
    /// drift with [`GeoSystem::advance_cache_epoch`].
    #[must_use]
    pub fn with_edge_caches(mut self, config: CacheConfig) -> Self {
        for e in &mut self.edges {
            e.cache =
                Some(SemanticCache::new(config.clone()).with_telemetry(self.telemetry.clone()));
        }
        self
    }

    /// Starts a new drift epoch on every edge cache, dropping all
    /// entries admitted before the bump. Call when the workload
    /// generator shifts interest regions (or data mutates): cached
    /// answers for the old regions are no longer worth their memory — or
    /// no longer true. Returns the new epoch (0 when no caches are
    /// attached).
    pub fn advance_cache_epoch(&mut self) -> u64 {
        let mut epoch = 0;
        for e in &mut self.edges {
            if let Some(cache) = &e.cache {
                epoch = cache.advance_epoch();
            }
        }
        epoch
    }

    /// The system's telemetry sink (inherited from the cluster).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Number of edge nodes.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Deployment statistics so far.
    pub fn stats(&self) -> &GeoStats {
        &self.stats
    }

    /// Submits an analyst query at edge `edge`: edge cache (if enabled),
    /// then the edge's local model, then escalation to the core.
    ///
    /// # Errors
    ///
    /// Unknown edge, or exact-execution errors when escalated.
    pub fn submit(&mut self, edge: usize, query: &AnalyticalQuery) -> Result<GeoOutcome> {
        self.submit_inner(edge, query, true)
    }

    /// Probes edge `edge`'s semantic cache; on a hit, serves it and does
    /// all the bookkeeping. Shared by [`GeoSystem::submit`] and
    /// [`GeoSystem::submit_routed`] (which consults *before* its sibling
    /// polls and must not consult again when it finally escalates).
    fn serve_from_edge_cache(
        &mut self,
        edge: usize,
        query: &AnalyticalQuery,
    ) -> Option<GeoOutcome> {
        // Edge-local lookup: a hash probe plus (for containment hits)
        // the re-derivation, all on edge silicon.
        const EDGE_CACHE_US: f64 = 20.0;
        let out = {
            let cache = self.edges.get(edge)?.cache.as_ref()?;
            match self.executor.clone().with_cache(cache).cache_lookup(query) {
                Some(Ok(out)) => out,
                // An Err from a containment re-derivation (operator
                // undefined on the empty sub-selection) falls through to
                // the normal path, which owns error handling.
                Some(Err(_)) | None => return None,
            }
        };
        let response_us = EDGE_CACHE_US + out.cost.wall_us;
        self.stats.queries += 1;
        self.stats.edge_answered += 1;
        self.stats.cache_answered += 1;
        self.stats.total_response_us += response_us;
        if self.telemetry.is_enabled() {
            self.telemetry.incr("geo.cache_answered", 1);
            self.telemetry
                .event("geo.cache_answered", &[("edge", edge.into())]);
        }
        Some(GeoOutcome {
            answer: out.answer,
            response_us,
            wan_bytes: 0,
            source: GeoSource::EdgeCache,
        })
    }

    /// The local attempt: serves `query` from edge `edge`'s model when
    /// its estimated error is within the threshold, and does all the
    /// bookkeeping; `span` is the submission's span.
    fn serve_from_edge_model(
        &mut self,
        edge: usize,
        query: &AnalyticalQuery,
        span: &SpanGuard,
    ) -> Option<GeoOutcome> {
        let pred = self.edges.get(edge)?.agent.predict(query).ok()?;
        if pred.estimated_error <= self.config.error_threshold {
            self.stats.queries += 1;
            self.stats.edge_answered += 1;
            self.stats.total_response_us += EDGE_PREDICT_US;
            span.record_sim_us(EDGE_PREDICT_US);
            if self.telemetry.is_enabled() {
                span.tag("source", "edge_model");
                self.telemetry.incr("geo.edge_answered", 1);
                self.telemetry.event(
                    "geo.edge_answered",
                    &[
                        ("edge", edge.into()),
                        ("est_error", pred.estimated_error.into()),
                    ],
                );
            }
            Some(GeoOutcome {
                answer: pred.answer,
                response_us: EDGE_PREDICT_US,
                wan_bytes: 0,
                source: GeoSource::EdgeModel,
            })
        } else {
            None
        }
    }

    /// The one edge→core escalation: a WAN round trip (request +
    /// response) plus core execution, whose span tree hangs under
    /// `parent`. A transient core failure is resubmitted under the WAN
    /// retry policy — the failed attempt still crossed the WAN both
    /// ways, then the edge backs off. `edge` is the escalating edge, if
    /// the query came through one.
    fn escalate_to_core(
        &self,
        query: &AnalyticalQuery,
        parent: &TraceContext,
        edge: Option<usize>,
    ) -> Result<CoreTrip> {
        let query_bytes = 16 * query.region.dims() as u64 + 32;
        let answer_bytes = 24u64;
        let round_trip_bytes = query_bytes + answer_bytes;
        let round_trip_us = 2.0 * self.cost_model.wan_msg_us
            + round_trip_bytes as f64 * self.cost_model.wan_byte_us;
        let mut retries = 0u32;
        let mut retry_us = 0.0;
        let core = loop {
            match self
                .executor
                .execute_direct_traced(&self.table, query, parent)
            {
                Ok(out) => break out,
                Err(ref e) if e.is_transient() && retries < self.wan_retry.max_retries => {
                    retry_us += round_trip_us + self.wan_retry.backoff_us(retries) as f64;
                    retries += 1;
                    self.telemetry.incr("query.retries", 1);
                    let mut fields = Vec::with_capacity(2);
                    fields.extend(edge.map(|e| ("edge", e.into())));
                    fields.push(("retry", retries.into()));
                    self.telemetry.event("geo.core_retried", &fields);
                }
                Err(e) => return Err(e),
            }
        };
        let wan_trips = 1 + u64::from(retries);
        Ok(CoreTrip {
            core,
            retries,
            wan_bytes: round_trip_bytes * wan_trips,
            wan_msgs: 2 * wan_trips,
            wan_us: round_trip_us + retry_us,
        })
    }

    /// Books one core-answered query that took `response_us` end to end.
    fn record_core_answer(&mut self, trip: &CoreTrip, response_us: f64) {
        self.stats.queries += 1;
        self.stats.core_answered += 1;
        self.stats.wan_bytes += trip.wan_bytes;
        self.stats.wan_msgs += trip.wan_msgs;
        self.stats.total_response_us += response_us;
        self.telemetry.incr("geo.core_answered", 1);
        self.telemetry.incr("geo.wan_bytes", trip.wan_bytes);
        self.telemetry.incr("geo.wan_msgs", trip.wan_msgs);
    }

    fn submit_inner(
        &mut self,
        edge: usize,
        query: &AnalyticalQuery,
        consult_cache: bool,
    ) -> Result<GeoOutcome> {
        let span = self.telemetry.span("geo.edge.submit");
        span.tag("edge", edge);
        if self.edges.get(edge).is_none() {
            return Err(SeaError::NotFound(format!("edge {edge}")));
        }
        if consult_cache {
            if let Some(out) = self.serve_from_edge_cache(edge, query) {
                span.record_sim_us(out.response_us);
                if self.telemetry.is_enabled() {
                    span.tag("source", "edge_cache");
                }
                return Ok(out);
            }
        }
        if let Some(out) = self.serve_from_edge_model(edge, query, &span) {
            return Ok(out);
        }

        // Escalate. The core executor's span tree hangs under this
        // escalation span, so the edge → core hop stays one coherent trace.
        let escalate = self
            .telemetry
            .span_child_of(&span.ctx(), "geo.core.escalate");
        let trip = self.escalate_to_core(query, &escalate.ctx(), Some(edge))?;
        let core_us = trip.wan_us + trip.core.cost.wall_us;
        escalate.record_sim_us(core_us);
        if self.telemetry.is_enabled() {
            escalate.tag("wan_bytes", trip.wan_bytes);
            escalate.tag("retries", trip.retries);
            span.tag("source", "core_exact");
            self.telemetry.event(
                "geo.core_escalated",
                &[("edge", edge.into()), ("wan_bytes", trip.wan_bytes.into())],
            );
        }
        drop(escalate);

        // The exact answer trains both the edge and the master.
        let edge_node = self
            .edges
            .get_mut(edge)
            .ok_or_else(|| SeaError::NotFound(format!("edge {edge}")))?;
        edge_node.agent.train(query, &trip.core.answer)?;
        // Offer the escalated answer to the edge's cache (answer-only —
        // no fragments crossed the WAN). The recompute cost is what a
        // repeat would pay: the WAN round trip plus core execution.
        if let Some(cache) = &edge_node.cache {
            cache.admit(
                &query.aggregate,
                &query.region,
                &trip.core.answer,
                None,
                core_us,
            );
        }
        self.master.train(query, &trip.core.answer)?;

        let response_us = EDGE_PREDICT_US + core_us;
        self.record_core_answer(&trip, response_us);
        // The escalation span carries the WAN + core cost; only the local
        // predict attempt is this span's own share.
        span.record_sim_us(EDGE_PREDICT_US);
        Ok(GeoOutcome {
            answer: trip.core.answer,
            response_us,
            wan_bytes: trip.wan_bytes,
            source: GeoSource::CoreExact,
        })
    }

    /// Routed submission (RT5-4): try the local edge, then poll sibling
    /// edges (one inter-edge WAN hop each, at half the core round-trip
    /// latency — regional peering), and only then escalate to the core.
    /// A sibling's confident answer avoids the expensive core path
    /// entirely; this is how overlapping interests across edges pay off
    /// before any explicit model sync.
    ///
    /// # Errors
    ///
    /// Unknown edge, or exact-execution errors when escalated.
    pub fn submit_routed(&mut self, edge: usize, query: &AnalyticalQuery) -> Result<GeoOutcome> {
        let span = self.telemetry.span("geo.edge.submit_routed");
        span.tag("edge", edge);
        let threshold = self.config.error_threshold;
        if edge >= self.edges.len() {
            return Err(SeaError::NotFound(format!("edge {edge}")));
        }
        // 0. Edge cache: an exact answer beats any model poll.
        if let Some(out) = self.serve_from_edge_cache(edge, query) {
            span.record_sim_us(out.response_us);
            if self.telemetry.is_enabled() {
                span.tag("source", "edge_cache");
            }
            return Ok(out);
        }
        // 1. Local model.
        if let Some(out) = self.serve_from_edge_model(edge, query, &span) {
            return Ok(out);
        }
        // 2. Sibling edges, nearest-neighbour style: one query+answer hop
        // per polled sibling; stop at the first confident one.
        let query_bytes = 16 * query.region.dims() as u64 + 32;
        let answer_bytes = 24u64;
        let mut polled = 0u64;
        for sibling in 0..self.edges.len() {
            if sibling == edge {
                continue;
            }
            polled += 1;
            let sibling_span = self
                .telemetry
                .span_child_of(&span.ctx(), "geo.edge.sibling_poll");
            sibling_span.tag("sibling", sibling);
            if let Ok(pred) = self.edges[sibling].agent.predict(query) {
                if pred.estimated_error <= threshold {
                    let hop_bytes = polled * (query_bytes + answer_bytes);
                    let hop_us = polled as f64
                        * (self.cost_model.wan_msg_us
                            + (query_bytes + answer_bytes) as f64 * self.cost_model.wan_byte_us);
                    let response_us = EDGE_PREDICT_US + hop_us;
                    self.stats.queries += 1;
                    self.stats.edge_answered += 1;
                    self.stats.wan_bytes += hop_bytes;
                    self.stats.wan_msgs += 2 * polled;
                    self.stats.total_response_us += response_us;
                    sibling_span.record_sim_us(hop_us);
                    if self.telemetry.is_enabled() {
                        span.tag("source", "sibling_edge");
                        self.telemetry.incr("geo.sibling_answered", 1);
                        self.telemetry.incr("geo.wan_bytes", hop_bytes);
                        self.telemetry.event(
                            "geo.sibling_answered",
                            &[
                                ("edge", edge.into()),
                                ("sibling", sibling.into()),
                                ("polled", polled.into()),
                                ("wan_bytes", hop_bytes.into()),
                            ],
                        );
                    }
                    return Ok(GeoOutcome {
                        answer: pred.answer,
                        response_us,
                        wan_bytes: hop_bytes,
                        source: GeoSource::SiblingEdge { edge: sibling },
                    });
                }
            }
        }
        // 3. Core, accounting for the sibling polls that failed. The
        // edge cache was already consulted in step 0.
        let wasted_bytes = polled * (query_bytes + answer_bytes);
        let wasted_us = polled as f64
            * (self.cost_model.wan_msg_us
                + (query_bytes + answer_bytes) as f64 * self.cost_model.wan_byte_us);
        let mut out = self.submit_inner(edge, query, false)?;
        out.response_us += wasted_us;
        out.wan_bytes += wasted_bytes;
        self.stats.wan_bytes += wasted_bytes;
        self.stats.wan_msgs += 2 * polled;
        self.stats.total_response_us += wasted_us;
        Ok(out)
    }

    /// Baseline submission: always escalate to the core (Fig 1 shipped to
    /// a WAN world). Does not train any model.
    ///
    /// # Errors
    ///
    /// Exact-execution errors.
    pub fn submit_all_to_core(&mut self, query: &AnalyticalQuery) -> Result<GeoOutcome> {
        let span = self.telemetry.span("geo.core.submit");
        let trip = self.escalate_to_core(query, &span.ctx(), None)?;
        let response_us = trip.wan_us + trip.core.cost.wall_us;
        self.record_core_answer(&trip, response_us);
        // The executor subtree carries the core cost; the WAN hop is
        // this span's own share.
        span.record_sim_us(trip.wan_us);
        Ok(GeoOutcome {
            answer: trip.core.answer,
            response_us,
            wan_bytes: trip.wan_bytes,
            source: GeoSource::CoreExact,
        })
    }

    /// Ships the master agent's models to edge `edge` (distributed model
    /// building, RT5-2): the edge replaces its agent with a copy of the
    /// master, paying the model size in WAN bytes. Returns the bytes
    /// shipped.
    ///
    /// # Errors
    ///
    /// Unknown edge.
    pub fn sync_edge(&mut self, edge: usize) -> Result<u64> {
        if edge >= self.edges.len() {
            return Err(SeaError::NotFound(format!("edge {edge}")));
        }
        // Ship the real serialized model state: the JSON length is the
        // honest WAN bill, and the edge reconstructs its agent from it.
        let payload = self.master.to_json()?;
        let bytes = payload.len() as u64;
        self.edges[edge].agent = SeaAgent::from_json(&payload)?;
        self.stats.wan_bytes += bytes;
        self.stats.wan_msgs += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.incr("geo.wan_bytes", bytes);
            self.telemetry.event(
                "geo.model_synced",
                &[
                    ("edge", edge.into()),
                    ("bytes", bytes.into()),
                    ("selective", false.into()),
                ],
            );
        }
        Ok(bytes)
    }

    /// Selective model placement (RT5-3): ships to `edge` only the
    /// master's quanta whose interest regions intersect `region` — the
    /// subspaces that edge's analysts actually query. Costs proportionally
    /// fewer WAN bytes than a full [`GeoSystem::sync_edge`]. Returns the
    /// bytes shipped.
    ///
    /// # Errors
    ///
    /// Unknown edge or dimension mismatch.
    pub fn sync_edge_region(&mut self, edge: usize, region: &Rect) -> Result<u64> {
        if edge >= self.edges.len() {
            return Err(SeaError::NotFound(format!("edge {edge}")));
        }
        let subset = self.master.subset_for_region(region)?;
        let payload = subset.to_json()?;
        let bytes = payload.len() as u64;
        self.edges[edge].agent = SeaAgent::from_json(&payload)?;
        self.stats.wan_bytes += bytes;
        self.stats.wan_msgs += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.incr("geo.wan_bytes", bytes);
            self.telemetry.event(
                "geo.model_synced",
                &[
                    ("edge", edge.into()),
                    ("bytes", bytes.into()),
                    ("selective", true.into()),
                ],
            );
        }
        Ok(bytes)
    }

    /// Resets the statistics counters (e.g. between experiment phases),
    /// keeping all trained models.
    pub fn reset_stats(&mut self) {
        self.stats = GeoStats {
            queries: 0,
            edge_answered: 0,
            cache_answered: 0,
            core_answered: 0,
            wan_bytes: 0,
            wan_msgs: 0,
            total_response_us: 0.0,
        };
    }

    /// Purges stale quanta on every edge and the master (RT5-3).
    pub fn purge_stale(&mut self, max_age: u64) -> usize {
        let mut purged = self.master.purge_stale(max_age);
        for e in &mut self.edges {
            purged += e.agent.purge_stale(max_age);
        }
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{AggregateKind, Point, Record, Rect, Region};
    use sea_storage::Partitioning;

    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 256);
        let records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn query(cx: f64, e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![cx, 50.0]), &[e, e]).unwrap()),
            AggregateKind::Count,
        )
    }

    #[test]
    fn edges_learn_to_filter_queries() {
        let c = cluster();
        let mut geo = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        for i in 0..200 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            geo.submit(0, &query(50.0, e)).unwrap();
        }
        let stats = geo.stats();
        assert_eq!(stats.queries, 200);
        assert!(
            stats.fallback_rate() < 0.4,
            "most queries served at the edge: {}",
            stats.fallback_rate()
        );
        assert!(stats.edge_answered > 100);
    }

    #[test]
    fn edge_deployment_slashes_wan_traffic_and_latency() {
        let c = cluster();
        let mut with_edges = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        let mut baseline = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        for i in 0..200 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            with_edges.submit(0, &query(50.0, e)).unwrap();
            baseline.submit_all_to_core(&query(50.0, e)).unwrap();
        }
        let a = with_edges.stats();
        let b = baseline.stats();
        assert!(
            a.wan_bytes * 2 < b.wan_bytes,
            "edge agents halve WAN bytes at least: {} vs {}",
            a.wan_bytes,
            b.wan_bytes
        );
        assert!(
            a.mean_response_us() < b.mean_response_us() / 2.0,
            "latency drops: {} vs {}",
            a.mean_response_us(),
            b.mean_response_us()
        );
    }

    #[test]
    fn lower_threshold_means_more_fallbacks() {
        let c = cluster();
        let strict = GeoConfig {
            error_threshold: 0.01,
            ..GeoConfig::default()
        };
        let lax = GeoConfig {
            error_threshold: 0.3,
            ..GeoConfig::default()
        };
        let mut s = GeoSystem::new(&c, "t", strict).unwrap();
        let mut l = GeoSystem::new(&c, "t", lax).unwrap();
        for i in 0..150 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            s.submit(0, &query(50.0, e)).unwrap();
            l.submit(0, &query(50.0, e)).unwrap();
        }
        assert!(
            s.stats().fallback_rate() > l.stats().fallback_rate(),
            "strict {} vs lax {}",
            s.stats().fallback_rate(),
            l.stats().fallback_rate()
        );
    }

    #[test]
    fn model_sync_bootstraps_fresh_edges() {
        let c = cluster();
        let mut geo = GeoSystem::new(
            &c,
            "t",
            GeoConfig {
                edges: 2,
                ..GeoConfig::default()
            },
        )
        .unwrap();
        // Edge 0 trains the master through its fallbacks.
        for i in 0..150 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            geo.submit(0, &query(50.0, e)).unwrap();
        }
        // Edge 1, WITHOUT sync, would fall back on its first queries.
        geo.reset_stats();
        let bytes = geo.sync_edge(1).unwrap();
        assert!(bytes > 0, "model shipping costs WAN bytes");
        let mut edge_hits = 0;
        for i in 0..40 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            let out = geo.submit(1, &query(50.0, e)).unwrap();
            if out.source == GeoSource::EdgeModel {
                edge_hits += 1;
            }
        }
        assert!(
            edge_hits > 30,
            "synced edge answers locally straight away: {edge_hits}"
        );
    }

    #[test]
    fn answers_are_accurate() {
        let c = cluster();
        let exec = Executor::new(&c);
        let mut geo = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        for i in 0..200 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            geo.submit(0, &query(50.0, e)).unwrap();
        }
        let mut total_rel = 0.0;
        let mut n = 0;
        for i in 0..20 {
            let e = 3.1 + i as f64 * 0.25;
            let q = query(50.0, e);
            let out = geo.submit(0, &q).unwrap();
            let truth = exec.execute_direct("t", &q).unwrap().answer;
            total_rel += out.answer.relative_error(&truth);
            n += 1;
        }
        let mean_rel = total_rel / n as f64;
        assert!(mean_rel < 0.25, "mean rel err {mean_rel}");
    }

    #[test]
    fn validations() {
        let c = cluster();
        assert!(GeoSystem::new(
            &c,
            "t",
            GeoConfig {
                edges: 0,
                ..GeoConfig::default()
            }
        )
        .is_err());
        assert!(GeoSystem::new(&c, "missing", GeoConfig::default()).is_err());
        let mut geo = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        assert!(geo.submit(99, &query(50.0, 1.0)).is_err());
        assert!(geo.sync_edge(99).is_err());
        assert_eq!(geo.num_edges(), 4);
    }

    #[test]
    fn escalation_trace_spans_edge_to_storage() {
        let mut c = cluster();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        let mut geo = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        // First query is always escalated (untrained edge).
        geo.submit(0, &query(50.0, 3.0)).unwrap();
        let snap = sink.snapshot().unwrap();
        let root = &snap.spans.roots[0];
        assert_eq!(root.name, "geo.edge.submit");
        let escalate = root.find("geo.core.escalate").unwrap();
        assert_eq!(escalate.parent_span_id, root.span_id);
        let exec = escalate.find("query.executor.direct").unwrap();
        assert_eq!(exec.trace_id, root.trace_id);
        let scan = exec.find("storage.node.scan").unwrap();
        assert_eq!(scan.trace_id, root.trace_id, "trace reaches storage");
        assert!(escalate.sim_us > 0.0, "WAN + core cost attributed");
        assert_eq!(snap.event_count("geo.core_escalated"), 1);
        assert!(snap.counter("geo.wan_bytes") > 0);
    }

    #[test]
    fn transient_core_faults_are_retried_over_the_wan() {
        use sea_storage::FaultPlan;
        let mut c = StorageCluster::new(1, 256);
        let records: Vec<Record> = (0..2_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let truth = Executor::new(&c)
            .execute_direct("t", &query(50.0, 5.0))
            .unwrap()
            .answer;
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        c.set_fault_plan(FaultPlan::new(11).with_transient(0.5, 1));
        // Disable the core's node-level retries so transients surface to
        // the edge, and give the WAN layer a generous budget.
        let mut geo = GeoSystem::new(&c, "t", GeoConfig::default())
            .unwrap()
            .with_core_retry(RetryPolicy::none())
            .with_wan_retry(RetryPolicy {
                max_retries: 16,
                backoff_base_us: 1_000,
            });
        let out = geo.submit(0, &query(50.0, 5.0)).unwrap();
        assert_eq!(out.answer, truth, "retries converge on the exact answer");
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter("query.retries") >= 1, "at least one WAN retry");
        assert!(snap.event_count("geo.core_retried") >= 1);
        // One round trip is 2 msgs and 88 bytes for this query shape; the
        // failed trips are billed on top.
        assert!(
            geo.stats().wan_msgs > 2,
            "failed round trips are billed: {} msgs",
            geo.stats().wan_msgs
        );
        assert!(out.wan_bytes > 88, "retries move bytes: {}", out.wan_bytes);

        // A policy with no WAN retries propagates the transient error.
        let mut c2 = StorageCluster::new(1, 256);
        let records: Vec<Record> = (0..2_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
            .collect();
        c2.load_table("t", records, Partitioning::Hash).unwrap();
        c2.set_fault_plan(FaultPlan::new(11).with_transient(0.5, 1));
        let mut strict = GeoSystem::new(&c2, "t", GeoConfig::default())
            .unwrap()
            .with_core_retry(RetryPolicy::none())
            .with_wan_retry(RetryPolicy::none());
        assert!(matches!(
            strict.submit(0, &query(50.0, 5.0)),
            Err(SeaError::Transient(_))
        ));
    }

    #[test]
    fn edge_cache_answers_repeats_without_wan_traffic() {
        let c = cluster();
        // Threshold 0 keeps the models out of the way: every miss
        // escalates, every repeat must come from the cache.
        let config = GeoConfig {
            error_threshold: 0.0,
            ..GeoConfig::default()
        };
        let mut geo = GeoSystem::new(&c, "t", config)
            .unwrap()
            .with_edge_caches(CacheConfig {
                admit_min_cost_us: 0.0,
                ..CacheConfig::default()
            });
        let q = query(50.0, 5.0);
        let cold = geo.submit(0, &q).unwrap();
        assert_eq!(cold.source, GeoSource::CoreExact);
        let wan_after_cold = geo.stats().wan_bytes;

        let hot = geo.submit(0, &q).unwrap();
        assert_eq!(hot.source, GeoSource::EdgeCache);
        assert_eq!(hot.answer, cold.answer, "cache hits are exact");
        assert_eq!(hot.wan_bytes, 0);
        assert_eq!(
            geo.stats().wan_bytes,
            wan_after_cold,
            "no WAN traffic for the repeat"
        );
        assert!(hot.response_us < cold.response_us / 10.0);
        assert_eq!(geo.stats().cache_answered, 1);

        // Caches are edge-local: the same query at another edge misses.
        let other = geo.submit(1, &q).unwrap();
        assert_eq!(other.source, GeoSource::CoreExact);

        // Routed submission consults the cache before polling siblings.
        let routed = geo.submit_routed(0, &q).unwrap();
        assert_eq!(routed.source, GeoSource::EdgeCache);
    }

    #[test]
    fn drift_epoch_invalidates_edge_caches() {
        let c = cluster();
        let config = GeoConfig {
            error_threshold: 0.0,
            ..GeoConfig::default()
        };
        let mut geo = GeoSystem::new(&c, "t", config)
            .unwrap()
            .with_edge_caches(CacheConfig {
                admit_min_cost_us: 0.0,
                ..CacheConfig::default()
            });
        let q = query(50.0, 5.0);
        geo.submit(0, &q).unwrap();
        assert_eq!(geo.submit(0, &q).unwrap().source, GeoSource::EdgeCache);

        // The workload generator shifts interest regions: pre-drift
        // entries are dropped on every edge.
        assert_eq!(geo.advance_cache_epoch(), 1);
        assert!(geo.edges[0].cache.as_ref().unwrap().is_empty());
        let post_drift = geo.submit(0, &q).unwrap();
        assert_eq!(post_drift.source, GeoSource::CoreExact);
        // ... and the re-escalated answer is re-admitted in the new epoch.
        assert_eq!(geo.submit(0, &q).unwrap().source, GeoSource::EdgeCache);
    }

    #[test]
    fn purge_stale_runs_across_edges() {
        let c = cluster();
        let mut geo = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        for _ in 0..20 {
            geo.submit(0, &query(20.0, 2.0)).unwrap();
        }
        for _ in 0..200 {
            geo.submit(0, &query(80.0, 2.0)).unwrap();
        }
        let purged = geo.purge_stale(5);
        assert!(purged >= 1, "abandoned subspace purged: {purged}");
    }
}

#[cfg(test)]
mod routing_tests {
    use super::*;
    use sea_common::{AggregateKind, Point, Record, Rect, Region};
    use sea_storage::Partitioning;

    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 256);
        let records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn query(e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![50.0, 50.0]), &[e, e]).unwrap()),
            AggregateKind::Count,
        )
    }

    #[test]
    fn sibling_routing_avoids_the_core() {
        let c = cluster();
        let mut geo = GeoSystem::new(
            &c,
            "t",
            GeoConfig {
                edges: 3,
                ..GeoConfig::default()
            },
        )
        .unwrap();
        // Edge 0 learns the hotspot.
        for i in 0..150 {
            geo.submit(0, &query(3.0 + (i % 20) as f64 * 0.3)).unwrap();
        }
        geo.reset_stats();
        // Edge 1, untrained, routes through siblings.
        let mut sibling_hits = 0;
        let mut core_hits = 0;
        for i in 0..40 {
            let out = geo
                .submit_routed(1, &query(3.0 + (i % 20) as f64 * 0.3))
                .unwrap();
            match out.source {
                GeoSource::SiblingEdge { edge } => {
                    assert_eq!(edge, 0, "edge 0 holds the models");
                    sibling_hits += 1;
                }
                GeoSource::CoreExact => core_hits += 1,
                GeoSource::EdgeModel | GeoSource::EdgeCache => {}
            }
        }
        assert!(sibling_hits > 30, "siblings answered: {sibling_hits}");
        assert!(core_hits < 5, "core mostly avoided: {core_hits}");
    }

    #[test]
    fn sibling_answer_is_cheaper_than_core() {
        let c = cluster();
        let mut geo = GeoSystem::new(
            &c,
            "t",
            GeoConfig {
                edges: 2,
                ..GeoConfig::default()
            },
        )
        .unwrap();
        for i in 0..150 {
            geo.submit(0, &query(3.0 + (i % 20) as f64 * 0.3)).unwrap();
        }
        let routed = geo.submit_routed(1, &query(4.2)).unwrap();
        let mut baseline = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        let core = baseline.submit_all_to_core(&query(4.2)).unwrap();
        if let GeoSource::SiblingEdge { .. } = routed.source {
            assert!(
                routed.response_us < core.response_us,
                "sibling {} vs core {}",
                routed.response_us,
                core.response_us
            );
        } else {
            panic!("expected a sibling answer, got {:?}", routed.source);
        }
    }

    #[test]
    fn selective_sync_ships_less_and_still_serves_the_region() {
        let c = cluster();
        let mut geo = GeoSystem::new(
            &c,
            "t",
            GeoConfig {
                edges: 2,
                ..GeoConfig::default()
            },
        )
        .unwrap();
        // Train the master on two separated hotspots via edge 0.
        for i in 0..120 {
            let e = 3.0 + (i % 15) as f64 * 0.3;
            let left = AnalyticalQuery::new(
                Region::Range(Rect::centered(&Point::new(vec![25.0, 50.0]), &[e, e]).unwrap()),
                AggregateKind::Count,
            );
            geo.submit(0, &left).unwrap();
            let right = AnalyticalQuery::new(
                Region::Range(Rect::centered(&Point::new(vec![75.0, 50.0]), &[e, e]).unwrap()),
                AggregateKind::Count,
            );
            geo.submit(0, &right).unwrap();
        }
        geo.reset_stats();
        let full = geo.sync_edge(1).unwrap();
        let left_region = Rect::new(vec![10.0, 30.0], vec![40.0, 70.0]).unwrap();
        let selective = geo.sync_edge_region(1, &left_region).unwrap();
        assert!(
            selective < full,
            "selective placement ships less: {selective} vs {full}"
        );
        // The selectively-synced edge still answers left-hotspot queries
        // locally.
        let mut local = 0;
        for i in 0..20 {
            let e = 3.0 + (i % 15) as f64 * 0.3;
            let q = AnalyticalQuery::new(
                Region::Range(Rect::centered(&Point::new(vec![25.0, 50.0]), &[e, e]).unwrap()),
                AggregateKind::Count,
            );
            if geo.submit(1, &q).unwrap().source == GeoSource::EdgeModel {
                local += 1;
            }
        }
        assert!(local > 15, "local answers in the placed region: {local}");
    }

    #[test]
    fn routing_falls_back_to_core_when_nobody_knows() {
        let c = cluster();
        let mut geo = GeoSystem::new(
            &c,
            "t",
            GeoConfig {
                edges: 3,
                ..GeoConfig::default()
            },
        )
        .unwrap();
        let out = geo.submit_routed(1, &query(5.0)).unwrap();
        assert_eq!(out.source, GeoSource::CoreExact);
        assert!(geo.submit_routed(99, &query(5.0)).is_err());
    }
}
