//! The edge/core geo-distributed system.

use sea_common::cost::PREDICT_US;
use sea_common::{AnalyticalQuery, AnswerValue, CostMeter, ExecMode, Result, SeaError};
use sea_core::agent::{AgentConfig, SeaAgent};
use sea_query::{Executor, QueryOutcome, RetryPolicy};
use sea_storage::StorageCluster;
use sea_telemetry::{TelemetrySink, TraceContext};

/// Configuration of the geo-distributed deployment.
#[derive(Debug, Clone)]
pub struct GeoConfig {
    /// Predictions with estimated error above this threshold are escalated
    /// to the core.
    pub error_threshold: f64,
    /// Number of edge nodes.
    pub edges: usize,
}

impl Default for GeoConfig {
    fn default() -> Self {
        GeoConfig {
            error_threshold: 0.15,
            edges: 4,
        }
    }
}

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoSource {
    /// Answered by the edge's local model — no WAN traffic.
    EdgeModel,
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GeoStats {
    /// Queries submitted in total.
    pub queries: u64,
    /// Queries answered at an edge.
    pub edge_answered: u64,
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

/// The geo-distributed SEA deployment of Fig 3.
pub struct GeoSystem<'a> {
    executor: Executor<'a>,
    table: String,
    edges: Vec<SeaAgent>,
    master: SeaAgent,
    config: GeoConfig,
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
    /// Missing table or zero edges.
    pub fn new(cluster: &'a StorageCluster, table: &str, config: GeoConfig) -> Result<Self> {
        if config.edges == 0 {
            return Err(SeaError::invalid("need at least one edge node"));
        }
        let dims = cluster.dims(table)?;
        let mut edges = Vec::with_capacity(config.edges);
        for _ in 0..config.edges {
            edges.push(SeaAgent::new(dims, AgentConfig::default())?);
        }
        Ok(GeoSystem {
            executor: Executor::new(cluster),
            table: table.to_string(),
            edges,
            master: SeaAgent::new(dims, AgentConfig::default())?,
            config,
            stats: GeoStats::default(),
            telemetry: cluster.telemetry().clone(),
        })
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

    /// The one edge→core escalation: a WAN round trip (request +
    /// response) plus core execution, whose span tree hangs under
    /// `parent`. A transient core failure (the core's own node-level
    /// retries exhausted) is resubmitted under the default
    /// [`RetryPolicy`] — the failed attempt still crossed the WAN both
    /// ways, then the edge backs off. `edge` is the escalating edge, if
    /// the query came through one.
    fn escalate_to_core(
        &self,
        query: &AnalyticalQuery,
        parent: &TraceContext,
        edge: Option<usize>,
    ) -> Result<CoreTrip> {
        // The request, then a 24-byte answer.
        let mut round_trip = CostMeter::new();
        round_trip.charge_wan(16 * query.region.dims() as u64 + 32);
        round_trip.charge_wan(24);
        let round_trip_us = round_trip.sequential_us();
        let wan_retry = RetryPolicy::default();
        let mut retries = 0u32;
        let mut retry_us = 0.0;
        let core = loop {
            match self
                .executor
                .execute(&self.table, query, ExecMode::Direct, parent)
            {
                Ok(out) => break out,
                Err(ref e) if e.is_transient() && retries < wan_retry.max_retries => {
                    retry_us += round_trip_us + wan_retry.backoff_us(retries) as f64;
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
            wan_bytes: round_trip.wan_bytes * wan_trips,
            wan_msgs: round_trip.wan_msgs * wan_trips,
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

    /// Submits an analyst query at edge `edge`: the edge's local model
    /// when it is confident, otherwise escalation to the core.
    ///
    /// # Errors
    ///
    /// Unknown edge, or exact-execution errors when escalated.
    pub fn submit(&mut self, edge: usize, query: &AnalyticalQuery) -> Result<GeoOutcome> {
        let span = self.telemetry.span("geo.edge.submit");
        span.tag("edge", edge);
        let agent = self
            .edges
            .get(edge)
            .ok_or_else(|| SeaError::NotFound(format!("edge {edge}")))?;
        if let Some(pred) = agent
            .predict(query)
            .ok()
            .filter(|p| p.estimated_error <= self.config.error_threshold)
        {
            self.stats.queries += 1;
            self.stats.edge_answered += 1;
            self.stats.total_response_us += PREDICT_US;
            span.record_sim_us(PREDICT_US);
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
            return Ok(GeoOutcome {
                answer: pred.answer,
                response_us: PREDICT_US,
                wan_bytes: 0,
                source: GeoSource::EdgeModel,
            });
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
        self.edges[edge].train(query, &trip.core.answer)?;
        self.master.train(query, &trip.core.answer)?;

        let response_us = PREDICT_US + core_us;
        self.record_core_answer(&trip, response_us);
        // The escalation span carries the WAN + core cost; only the local
        // predict attempt is this span's own share.
        span.record_sim_us(PREDICT_US);
        Ok(GeoOutcome {
            answer: trip.core.answer,
            response_us,
            wan_bytes: trip.wan_bytes,
            source: GeoSource::CoreExact,
        })
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
        self.edges[edge] = SeaAgent::from_json(&payload)?;
        self.stats.wan_bytes += bytes;
        self.stats.wan_msgs += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.incr("geo.wan_bytes", bytes);
            self.telemetry.event(
                "geo.model_synced",
                &[("edge", edge.into()), ("bytes", bytes.into())],
            );
        }
        Ok(bytes)
    }

    /// Resets the statistics counters (e.g. between experiment phases),
    /// keeping all trained models.
    pub fn reset_stats(&mut self) {
        self.stats = GeoStats::default();
    }

    /// Purges stale quanta on every edge and the master (RT5-3).
    pub fn purge_stale(&mut self, max_age: u64) -> usize {
        let mut purged = self.master.purge_stale(max_age);
        for e in &mut self.edges {
            purged += e.purge_stale(max_age);
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
        let one_node = || {
            let mut c = StorageCluster::new(1, 256);
            let records: Vec<Record> = (0..2_000)
                .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
                .collect();
            c.load_table("t", records, Partitioning::Hash).unwrap();
            c
        };
        let mut c = one_node();
        let truth = Executor::new(&c)
            .execute_direct("t", &query(50.0, 5.0))
            .unwrap()
            .answer;
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        // An episode outlasts the core's four node-level attempts, so the
        // transient surfaces to the edge, which resubmits over the WAN.
        let plan = FaultPlan::new(48).with_transient(0.2, 4);
        assert!((0..4).all(|op| plan.transient_hit(0, op)));
        c.set_fault_plan(plan);
        let mut geo = GeoSystem::new(&c, "t", GeoConfig::default()).unwrap();
        let out = geo.submit(0, &query(50.0, 5.0)).unwrap();
        assert_eq!(out.answer, truth, "retries converge on the exact answer");
        let snap = sink.snapshot().unwrap();
        assert!(snap.event_count("geo.core_retried") >= 1, "a WAN retry");
        // One round trip is 2 msgs and 88 bytes for this query shape; the
        // failed trips are billed on top.
        assert!(
            geo.stats().wan_msgs > 2,
            "failed round trips are billed: {} msgs",
            geo.stats().wan_msgs
        );
        assert!(out.wan_bytes > 88, "retries move bytes: {}", out.wan_bytes);

        // A core that never recovers exhausts the WAN retries too, and
        // the transient error propagates.
        let mut c2 = one_node();
        c2.set_fault_plan(FaultPlan::new(11).with_transient(1.0, 1));
        let mut down = GeoSystem::new(&c2, "t", GeoConfig::default()).unwrap();
        assert!(matches!(
            down.submit(0, &query(50.0, 5.0)),
            Err(SeaError::Transient(_))
        ));
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
