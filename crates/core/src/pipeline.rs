//! The agent-in-front-of-the-system processing loop (Fig 2).
//!
//! Queries are submitted to the pipeline exactly as they would be to the
//! BDAS. The first queries are *training queries*: they execute exactly and
//! their answers train the agent. Once a query's quantum is confident (its
//! estimated error falls below the caller's threshold), the pipeline
//! answers from the model — "all future queries need not access any base
//! data" — while still falling back to exact execution whenever the error
//! estimate is too high (RT1-3).

use std::sync::Arc;

use sea_cache::SemanticCache;
use sea_common::{AnalyticalQuery, AnswerValue, CostReport, ExecMode, Result, SeaError};
use sea_query::{CacheClass, Executor, Provenance, QueryOutcome};
use sea_telemetry::TelemetrySink;

use crate::agent::{AgentConfig, SeaAgent};

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnswerSource {
    /// Served by the agent without touching base data.
    Predicted {
        /// The agent's error estimate at prediction time.
        estimated_error: f64,
    },
    /// Executed exactly against the base data (and used for training).
    Exact,
    /// Served by the semantic cache ([`AgentPipeline::with_cache`])
    /// without touching base data — and, like exact answers, used for
    /// training: cache hits are exact, so they feed the agent a free
    /// training example without re-execution.
    Cached,
    /// Exact execution failed and the pipeline served the agent's best
    /// available prediction instead (opt-in via
    /// [`AgentPipeline::with_degraded_fallback`]). Degraded answers are
    /// never used for training.
    Degraded {
        /// The agent's error estimate at prediction time — typically
        /// *above* the pipeline's threshold, which is why exact execution
        /// was attempted in the first place.
        estimated_error: f64,
    },
}

impl AnswerSource {
    /// Short stable provenance name: the grouping key used by cost
    /// ledgers and stats breakdowns (parameters like the error estimate
    /// are dropped so all predictions land in one `predicted` bucket).
    pub fn label(&self) -> &'static str {
        match self {
            AnswerSource::Predicted { .. } => "predicted",
            AnswerSource::Exact => "exact",
            AnswerSource::Cached => "cached",
            AnswerSource::Degraded { .. } => "degraded",
        }
    }
}

/// The outcome of one query through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessOutcome {
    /// The answer returned to the analyst.
    pub answer: AnswerValue,
    /// Resource bill (zero for predictions).
    pub cost: CostReport,
    /// Provenance of the answer.
    pub source: AnswerSource,
    /// What the executor recorded, unchanged; a prediction carries the
    /// probe's miss when a cache is attached, zeros otherwise.
    pub provenance: Provenance,
}

/// An executor outcome is an exact answer, or a cached one when the
/// cache served it.
impl From<QueryOutcome> for ProcessOutcome {
    fn from(o: QueryOutcome) -> Self {
        let source = match o.provenance.cache {
            CacheClass::Exact | CacheClass::Containment => AnswerSource::Cached,
            CacheClass::None | CacheClass::Miss => AnswerSource::Exact,
        };
        ProcessOutcome {
            answer: o.answer,
            cost: o.cost,
            source,
            provenance: o.provenance,
        }
    }
}

impl ProcessOutcome {
    /// The one source-label rule (ledger rows, `sea-lang` results,
    /// EXPLAIN's `path=`): `partial` when unavailable partitions were
    /// skipped, otherwise [`AnswerSource::label`].
    pub fn source_label(&self) -> &'static str {
        if self.cost.answered_fraction < 1.0 {
            "partial"
        } else {
            self.source.label()
        }
    }
}

/// An agent bound to a table with an error-threshold policy.
#[derive(Debug)]
pub struct AgentPipeline {
    agent: SeaAgent,
    table: String,
    /// Predictions with estimated relative error above this threshold fall
    /// back to exact execution.
    error_threshold: f64,
    /// The exact-execution regime the pipeline falls back to.
    mode: ExecMode,
    /// Every `refresh_every`-th would-be prediction is executed exactly
    /// anyway and used for training — the model-error-maintenance audit
    /// (RT1-4/RT5-5) that keeps residual estimates honest and lets models
    /// keep improving after the training phase. 0 disables audits.
    refresh_every: u64,
    predictions_since_audit: u64,
    /// When exact execution fails (node down, injected fault) and the
    /// agent had produced a prediction, serve that prediction as a
    /// [`AnswerSource::Degraded`] answer instead of an error.
    degraded_fallback: bool,
    /// Semantic answer cache consulted *before* the predict-vs-exact
    /// branch; exact executions populate it.
    cache: Option<Arc<SemanticCache>>,
    telemetry: TelemetrySink,
}

impl AgentPipeline {
    /// Creates a pipeline over `table` with the given error threshold.
    ///
    /// # Errors
    ///
    /// Propagates agent-construction errors.
    pub fn new(
        dims: usize,
        config: AgentConfig,
        table: impl Into<String>,
        error_threshold: f64,
        mode: ExecMode,
    ) -> Result<Self> {
        Ok(AgentPipeline {
            agent: SeaAgent::new(dims, config)?,
            table: table.into(),
            error_threshold,
            mode,
            refresh_every: 8,
            predictions_since_audit: 0,
            degraded_fallback: false,
            cache: None,
            telemetry: TelemetrySink::default(),
        })
    }

    /// Sets the audit period: every `n`-th would-be prediction executes
    /// exactly and trains the agent (0 disables audits entirely).
    #[must_use]
    pub fn with_refresh_every(mut self, n: u64) -> Self {
        self.refresh_every = n;
        self
    }

    /// Opt-in graceful degradation: when exact execution fails but the
    /// agent had produced a prediction for the query (even one whose
    /// error estimate is above the threshold), the pipeline returns that
    /// prediction as an [`AnswerSource::Degraded`] answer instead of
    /// propagating the error. Degraded answers never train the agent, so
    /// a flaky cluster cannot poison the model. Off by default: failures
    /// surface as errors.
    #[must_use]
    pub fn with_degraded_fallback(mut self, on: bool) -> Self {
        self.degraded_fallback = on;
        self
    }

    /// Attaches a [`SemanticCache`] in front of the predict-vs-exact
    /// branch: every query consults the cache first, hits are served as
    /// [`AnswerSource::Cached`] (exact answers at cache-lookup cost) and
    /// *still train the agent* — a repeated workload keeps improving the
    /// model without ever re-executing — and every exact execution's
    /// answer is offered to the cache for cost-based admission. The
    /// cache is scoped to this pipeline's table.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SemanticCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a telemetry sink: `core.pipeline.process` spans plus
    /// `agent.predicted` / `agent.fallback` / `agent.trained` decision
    /// events flow into it (the inner agent is instrumented too).
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.agent.set_telemetry(sink.clone());
        self.telemetry = sink;
        self
    }

    /// The inner agent.
    pub fn agent(&self) -> &SeaAgent {
        &self.agent
    }

    /// Mutable access to the inner agent (e.g. for maintenance calls).
    pub fn agent_mut(&mut self) -> &mut SeaAgent {
        &mut self.agent
    }

    /// Processes one query: predict if confident, otherwise execute
    /// exactly and learn from the answer.
    ///
    /// # Errors
    ///
    /// Exact-execution errors (missing table, operators undefined on empty
    /// subspaces, …). Queries whose exact execution fails do not train the
    /// agent.
    pub fn process(
        &mut self,
        executor: &Executor<'_>,
        query: &AnalyticalQuery,
    ) -> Result<ProcessOutcome> {
        let span = self.telemetry.span("core.pipeline.process");
        let ctx = span.ctx();
        // The one cache-attached executor of this call: probed here,
        // before the predict decision (an exact cached answer beats a
        // confident prediction), and populate-only below so the miss is
        // not counted twice.
        let cached_exec = self
            .cache
            .as_ref()
            .map(|cache| executor.clone().with_cache_populate_only(cache));
        let mut missed = Provenance::default();
        if let Some(probe) = &cached_exec {
            // A statement the executor would refuse is refused before the
            // probe counts its miss (the agent serves the table's dims).
            let dims = self.agent.dims();
            query.aggregate.validate(dims)?;
            SeaError::check_dims(dims, query.region.dims())?;
            if let Some(Ok(outcome)) = probe.cache_lookup(query) {
                // A cache hit is an exact answer obtained without base
                // data: serve it *and* learn from it, exactly like a
                // free exact execution. (An `Err` from a containment
                // re-derivation — operator undefined on the empty
                // sub-selection — falls through to the normal path,
                // which owns error handling and degraded fallback.)
                if self.telemetry.is_enabled() {
                    span.tag("branch", "cached");
                }
                span.record_sim_us(outcome.cost.wall_us);
                self.agent.train(query, &outcome.answer)?;
                self.telemetry.event(
                    "agent.cached",
                    &[("training_queries", self.agent.training_queries.into())],
                );
                return Ok(outcome.into());
            }
            missed.cache = CacheClass::Miss;
        }
        let mut fallback_reason = "untrained";
        // −1 = the agent produced no estimate at all (kept finite so the
        // event field is written as a number, not `null`).
        let mut fallback_est_error = -1.0;
        let prediction = self.agent.predict(query).ok();
        if let Some(pred) = &prediction {
            let audit_due =
                self.refresh_every > 0 && self.predictions_since_audit + 1 >= self.refresh_every;
            if pred.estimated_error <= self.error_threshold && !audit_due {
                self.predictions_since_audit += 1;
                if self.telemetry.is_enabled() {
                    span.tag("branch", "predicted");
                    let predict_span = self.telemetry.span_child_of(&ctx, "core.pipeline.predict");
                    predict_span.tag("est_error", pred.estimated_error);
                    predict_span.tag("quantum", pred.quantum);
                }
                self.telemetry.event(
                    "agent.predicted",
                    &[
                        ("est_error", pred.estimated_error.into()),
                        ("threshold", self.error_threshold.into()),
                        ("quantum", pred.quantum.into()),
                        ("quantum_training", pred.quantum_training.into()),
                    ],
                );
                return Ok(ProcessOutcome {
                    answer: pred.answer,
                    cost: CostReport::zero(),
                    source: AnswerSource::Predicted {
                        estimated_error: pred.estimated_error,
                    },
                    provenance: missed,
                });
            }
            fallback_reason = if audit_due {
                "audit_due"
            } else {
                "error_above_threshold"
            };
            fallback_est_error = pred.estimated_error;
        }
        if self.telemetry.is_enabled() {
            span.tag("branch", "exact");
            span.tag("fallback_reason", fallback_reason);
        }
        self.telemetry.event(
            "agent.fallback",
            &[
                ("reason", fallback_reason.into()),
                ("est_error", fallback_est_error.into()),
                ("threshold", self.error_threshold.into()),
            ],
        );
        self.predictions_since_audit = 0;
        let exec_ref = cached_exec.as_ref().unwrap_or(executor);
        // The executor's span tree (scatter → per-node scans → gather)
        // hangs under this pipeline span via the explicit trace parent.
        let outcome = match exec_ref.execute(&self.table, query, self.mode, &ctx) {
            Ok(outcome) => outcome,
            Err(err) => {
                if let (true, Some(pred)) = (self.degraded_fallback, prediction) {
                    if self.telemetry.is_enabled() {
                        span.tag("branch", "degraded");
                    }
                    self.telemetry.incr("query.degraded", 1);
                    self.telemetry.event(
                        "agent.degraded",
                        &[
                            ("est_error", pred.estimated_error.into()),
                            ("error", err.to_string().into()),
                        ],
                    );
                    return Ok(ProcessOutcome {
                        answer: pred.answer,
                        cost: CostReport::zero(),
                        source: AnswerSource::Degraded {
                            estimated_error: pred.estimated_error,
                        },
                        provenance: missed,
                    });
                }
                return Err(err);
            }
        };
        span.record_sim_us(outcome.cost.wall_us);
        self.agent.train(query, &outcome.answer)?;
        self.telemetry.event(
            "agent.trained",
            &[("training_queries", self.agent.training_queries.into())],
        );
        Ok(outcome.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{AggregateKind, Point, Record, Rect, Region};
    use sea_storage::{Partitioning, StorageCluster};

    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 64);
        // Uniform-ish lattice: density 1 per unit².
        let records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn query(cx: f64, cy: f64, e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![cx, cy]), &[e, e]).unwrap()),
            AggregateKind::Count,
        )
    }

    #[test]
    fn pipeline_transitions_from_exact_to_predicted() {
        let c = cluster();
        let exec = Executor::new(&c);
        let mut pipe =
            AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct).unwrap();

        let mut exact = 0;
        let mut predicted = 0;
        for i in 0..200 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            let q = query(50.0 + (i % 3) as f64, 50.0, e);
            let out = pipe.process(&exec, &q).unwrap();
            match out.source {
                AnswerSource::Exact => exact += 1,
                AnswerSource::Predicted { .. } => {
                    predicted += 1;
                    assert_eq!(out.cost, CostReport::zero());
                }
                AnswerSource::Degraded { .. } => panic!("no faults injected"),
                AnswerSource::Cached => panic!("no cache attached"),
            }
        }
        assert!(
            predicted > 100,
            "mostly predicted after warmup: {predicted}"
        );
        assert!(exact >= 8, "training phase happened: {exact}");
    }

    #[test]
    fn predictions_are_accurate_after_training() {
        let c = cluster();
        let exec = Executor::new(&c);
        let mut pipe =
            AgentPipeline::new(2, AgentConfig::default(), "t", 0.2, ExecMode::Direct).unwrap();
        for i in 0..200 {
            let e = 3.0 + (i % 20) as f64 * 0.3;
            pipe.process(&exec, &query(50.0, 50.0, e)).unwrap();
        }
        // Probe with fresh queries and compare against ground truth.
        let mut total_rel = 0.0;
        let mut n = 0;
        for i in 0..20 {
            let e = 3.1 + i as f64 * 0.25;
            let q = query(50.0, 50.0, e);
            let out = pipe.process(&exec, &q).unwrap();
            let truth = exec.execute_direct("t", &q).unwrap().answer;
            total_rel += out.answer.relative_error(&truth);
            n += 1;
        }
        let mean_rel = total_rel / n as f64;
        assert!(mean_rel < 0.2, "mean relative error {mean_rel}");
    }

    #[test]
    fn zero_threshold_never_predicts() {
        let c = cluster();
        let exec = Executor::new(&c);
        let mut pipe =
            AgentPipeline::new(2, AgentConfig::default(), "t", 0.0, ExecMode::Bdas).unwrap();
        for i in 0..30 {
            let out = pipe
                .process(&exec, &query(50.0, 50.0, 3.0 + (i % 5) as f64 * 0.2))
                .unwrap();
            assert_eq!(out.source, AnswerSource::Exact);
            assert!(out.cost.wall_us > 0.0);
        }
    }

    #[test]
    fn spans_tag_the_branch_and_propagate_the_trace() {
        use sea_telemetry::{FieldValue, TelemetrySink};
        let mut c = cluster();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        let exec = Executor::new(&c);
        let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)
            .unwrap()
            .with_telemetry(sink.clone());
        for i in 0..60u64 {
            sink.begin_query(i);
            pipe.process(&exec, &query(50.0, 50.0, 3.0 + (i % 10) as f64 * 0.2))
                .unwrap();
        }
        let snap = sink.snapshot().unwrap();
        let branch = |r: &&sea_telemetry::SpanNode, want: &str| matches!(r.tag("branch"), Some(FieldValue::Str(s)) if s == want);
        let exact = snap
            .spans
            .roots
            .iter()
            .find(|r| branch(r, "exact"))
            .expect("at least one exact query");
        let exec_span = exact
            .find("query.executor.direct")
            .expect("executor tree under the pipeline span");
        assert_eq!(exec_span.trace_id, exact.trace_id);
        assert_eq!(exec_span.parent_span_id, exact.span_id);
        assert!(
            exact.find("storage.node.scan").is_some(),
            "trace reaches storage"
        );
        let predicted = snap
            .spans
            .roots
            .iter()
            .find(|r| branch(r, "predicted"))
            .expect("at least one predicted query");
        assert!(predicted.find("core.pipeline.predict").is_some());
        assert!(
            predicted.find("storage.node.scan").is_none(),
            "predictions touch no base data"
        );
    }

    #[test]
    fn degraded_fallback_serves_predictions_when_exact_execution_fails() {
        use sea_storage::FaultPlan;
        use sea_telemetry::TelemetrySink;
        let c = cluster();
        let exec = Executor::new(&c);
        let sink = TelemetrySink::recording();
        // Threshold 0 keeps every query on the exact path while the agent
        // still produces (unconfident) predictions after warmup.
        let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.0, ExecMode::Bdas)
            .unwrap()
            .with_degraded_fallback(true)
            .with_telemetry(sink.clone());
        for i in 0..40 {
            pipe.process(&exec, &query(50.0, 50.0, 3.0 + (i % 10) as f64 * 0.3))
                .unwrap();
        }
        let trained = pipe.agent().stats().training_queries;

        // Same data, but node 0 crashes on its first scan and there are
        // no replicas: exact execution fails.
        let mut faulted = cluster();
        faulted.set_fault_plan(FaultPlan::new(7).with_crash(0, 0));
        let exec2 = Executor::new(&faulted);
        let out = pipe.process(&exec2, &query(50.0, 50.0, 4.0)).unwrap();
        assert!(
            matches!(out.source, AnswerSource::Degraded { .. }),
            "served the model's answer: {:?}",
            out.source
        );
        assert_eq!(out.cost, CostReport::zero());
        assert_eq!(
            pipe.agent().stats().training_queries,
            trained,
            "degraded answers never train the agent"
        );
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("query.degraded"), 1);
        assert_eq!(snap.event_count("agent.degraded"), 1);

        // Without the opt-in the same failure is an error.
        let mut strict =
            AgentPipeline::new(2, AgentConfig::default(), "t", 0.0, ExecMode::Bdas).unwrap();
        for i in 0..40 {
            strict
                .process(&exec, &query(50.0, 50.0, 3.0 + (i % 10) as f64 * 0.3))
                .unwrap();
        }
        assert!(strict.process(&exec2, &query(50.0, 50.0, 4.0)).is_err());
    }

    #[test]
    fn cache_hits_serve_and_train_without_reexecution() {
        use sea_cache::{CacheConfig, CacheStats, SemanticCache};
        let c = cluster();
        let exec = Executor::new(&c);
        let cache = Arc::new(SemanticCache::new(CacheConfig {
            admit_min_cost_us: 0.0,
            ..CacheConfig::default()
        }));
        // Threshold 0: the agent never predicts, isolating the cache.
        let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.0, ExecMode::Direct)
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let q = query(50.0, 50.0, 5.0);
        let cold = pipe.process(&exec, &q).unwrap();
        assert_eq!(cold.source, AnswerSource::Exact);
        let trained_after_cold = pipe.agent().stats().training_queries;

        // Identical repeat: exact hit, same answer, cheaper, trains.
        let hot = pipe.process(&exec, &q).unwrap();
        assert_eq!(hot.source, AnswerSource::Cached);
        assert_eq!(hot.answer, cold.answer);
        assert!(hot.cost.wall_us < cold.cost.wall_us);
        assert_eq!(
            pipe.agent().stats().training_queries,
            trained_after_cold + 1,
            "cache hits feed training examples without re-execution"
        );

        // Contained repeat: served from the cached fragments,
        // bit-identical to what a cold execution would answer.
        let small = query(50.0, 50.0, 2.0);
        let want = exec.execute_direct("t", &small).unwrap().answer;
        let contained = pipe.process(&exec, &small).unwrap();
        assert_eq!(contained.source, AnswerSource::Cached);
        assert_eq!(contained.answer, want);
        let CacheStats {
            hits,
            containment_hits,
            ..
        } = cache.stats();
        assert_eq!((hits, containment_hits), (1, 1));
    }

    #[test]
    fn a_statement_the_executor_refuses_is_refused_before_the_cache_probe() {
        use sea_cache::{CacheConfig, SemanticCache};
        use sea_telemetry::TelemetrySink;
        let c = cluster();
        let exec = Executor::new(&c);
        let sink = TelemetrySink::recording();
        let cache =
            Arc::new(SemanticCache::new(CacheConfig::default()).with_telemetry(sink.clone()));
        let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let three_d = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![0.0; 3], vec![10.0; 3]).unwrap()),
            AggregateKind::Count,
        );
        let out_of_range = AnalyticalQuery::new(
            query(50.0, 50.0, 5.0).region,
            AggregateKind::Mean { dim: 2 },
        );
        for refused in [three_d, out_of_range] {
            assert!(pipe.process(&exec, &refused).is_err(), "{refused:?}");
        }
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(sink.snapshot().unwrap().event_count("cache.miss"), 0);
    }

    #[test]
    fn missing_table_propagates() {
        let c = cluster();
        let exec = Executor::new(&c);
        let mut pipe =
            AgentPipeline::new(2, AgentConfig::default(), "nope", 0.1, ExecMode::Direct).unwrap();
        assert!(pipe.process(&exec, &query(0.0, 0.0, 1.0)).is_err());
    }

    #[test]
    fn novel_region_falls_back_to_exact() {
        let c = cluster();
        let exec = Executor::new(&c);
        let mut pipe =
            AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct).unwrap();
        for i in 0..100 {
            pipe.process(&exec, &query(30.0, 30.0, 3.0 + (i % 10) as f64 * 0.2))
                .unwrap();
        }
        // A query in a completely different region: the distance penalty
        // must push it back to exact execution.
        let out = pipe.process(&exec, &query(90.0, 90.0, 3.0)).unwrap();
        assert_eq!(out.source, AnswerSource::Exact);
    }
}
