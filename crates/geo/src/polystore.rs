//! Multi-system (polystore) analytics (RT1-5).
//!
//! "Emerging applications … wish to access data stored at different
//! systems. Invariably this requires moving data from one system to the
//! other, which is a time-consuming and resource wasting process. … The
//! central idea is to develop and deploy agents within each constituent
//! system … instead of migrating large volumes of data between
//! constituent systems, either (i) only approximate results of performing
//! operators on the local data are sent, or (ii) the models themselves
//! are migrated."
//!
//! A [`Polystore`] holds several constituent systems (each its own
//! simulated cluster + table + resident agent). A cross-system aggregate
//! can be answered three ways, mirroring the paper's alternatives:
//!
//! * [`Polystore::query_migrate_data`] — the status quo: every remote
//!   system ships its matching raw records to the coordinator system.
//! * [`Polystore::query_exchange_results`] — alternative (i): each system
//!   answers locally (exactly) and ships only a constant-size partial.
//! * [`Polystore::query_exchange_models`] — alternative (ii): systems
//!   whose resident agent is confident answer from models (free), the
//!   rest fall back to local exact execution; only answers move.

use sea_common::{
    AggregateKind, AnalyticalQuery, AnswerValue, CostMeter, CostReport, ExecMode, Record, Result,
    SeaError,
};
use sea_core::agent::{AgentConfig, SeaAgent};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;

/// One constituent system of the polystore.
pub struct ConstituentSystem<'a> {
    /// Every read of the system's data goes through it — its retry
    /// policy and partial-answer mode included.
    exec: Executor<'a>,
    table: String,
    agent: SeaAgent,
}

impl<'a> ConstituentSystem<'a> {
    /// Wraps the table an executor reads with a fresh resident agent.
    ///
    /// # Errors
    ///
    /// Missing table.
    pub fn new(exec: &Executor<'a>, table: &str) -> Result<Self> {
        let dims = exec.cluster().dims(table)?;
        Ok(ConstituentSystem {
            exec: exec.clone(),
            table: table.to_string(),
            agent: SeaAgent::new(dims, AgentConfig::default())?,
        })
    }
}

/// The outcome of one polystore query.
#[derive(Debug, Clone, PartialEq)]
pub struct PolystoreOutcome {
    /// The combined answer.
    pub answer: AnswerValue,
    /// Total resource bill (local execution + inter-system transfer).
    pub cost: CostReport,
    /// Bytes moved *between systems* (the metric RT1-5 targets).
    pub inter_system_bytes: u64,
    /// How many systems answered from models rather than base data.
    pub model_answers: usize,
}

/// Several constituent systems answering cross-system aggregates.
pub struct Polystore<'a> {
    systems: Vec<ConstituentSystem<'a>>,
    /// Error budget for model answers in
    /// [`Polystore::query_exchange_models`].
    error_threshold: f64,
    /// Inherited from the coordinator (first) system's cluster;
    /// `geo.polystore.*` spans and events flow here.
    telemetry: TelemetrySink,
}

impl<'a> Polystore<'a> {
    /// Creates a polystore over the given systems.
    ///
    /// # Errors
    ///
    /// Empty system list or mismatched dimensionalities.
    pub fn new(systems: Vec<ConstituentSystem<'a>>, error_threshold: f64) -> Result<Self> {
        let Some(first) = systems.first() else {
            return Err(SeaError::Empty(
                "polystore needs at least one system".into(),
            ));
        };
        let dims = first.agent.dims();
        let telemetry = first.exec.telemetry().clone();
        for s in &systems {
            SeaError::check_dims(dims, s.agent.dims())?;
        }
        Ok(Polystore {
            systems,
            error_threshold,
            telemetry,
        })
    }

    /// Trains every system's resident agent on `n` queries drawn from
    /// `queries` (each executed exactly against that system's own data).
    ///
    /// # Errors
    ///
    /// Execution errors (systems whose subspace is empty skip the query).
    pub fn train_agents(&mut self, queries: &[AnalyticalQuery]) -> Result<()> {
        for s in &mut self.systems {
            for q in queries {
                if let Ok(exact) = s.exec.execute_direct(&s.table, q) {
                    s.agent.train(q, &exact.answer)?;
                }
            }
        }
        Ok(())
    }

    /// Cross-system COUNT/SUM: ship all matching raw records from every
    /// system to the first (coordinator) system, then aggregate there.
    /// Records ship as rows on purpose: moving raw records is the status
    /// quo this alternative models. A partition a system could not read
    /// (partial-answer mode) ships nothing and labels the report partial.
    ///
    /// # Errors
    ///
    /// Unsupported aggregate, or execution errors.
    pub fn query_migrate_data(&self, query: &AnalyticalQuery) -> Result<PolystoreOutcome> {
        check_supported(&query.aggregate)?;
        let span = self.telemetry.span("geo.polystore.migrate_data");
        let mut cost = CostReport::zero();
        let mut inter_bytes = 0u64;
        let mut all: Vec<Record> = Vec::new();
        for (i, s) in self.systems.iter().enumerate() {
            let sys_span = self
                .telemetry
                .span_child_of(&span.ctx(), "geo.polystore.system");
            sys_span.tag("system", i);
            let bbox = query.region.bounding_rect();
            let mut matched: Vec<Record> = Vec::new();
            // Scanned under the system's span; raw rows are what moves.
            let scatter =
                (s.exec).scatter(&s.table, Some(&bbox), ExecMode::Direct, |_, views, _| {
                    for v in views {
                        let mut hits = v.mask.clone();
                        query.region.retain(v.block.cols(), &mut hits);
                        hits.for_each_set(|r| matched.push(v.block.record(r)));
                    }
                    Ok(())
                })?;
            let mut coord = CostMeter::new();
            if i != 0 {
                // Inter-system transfer of the raw records (WAN-priced:
                // constituent systems live in different deployments).
                let bytes: u64 = matched.iter().map(Record::storage_bytes).sum();
                coord.charge_wan(bytes);
                inter_bytes += bytes;
                self.telemetry
                    .incr("geo.polystore.inter_system_bytes", bytes);
            }
            let report = scatter.report(&coord);
            sys_span.record_sim_us(report.wall_us);
            cost = cost.then(&report);
            all.extend(matched);
        }
        span.tag("inter_system_bytes", inter_bytes);
        let answer = query.aggregate.compute(&all)?;
        Ok(PolystoreOutcome {
            answer,
            cost,
            inter_system_bytes: inter_bytes,
            model_answers: 0,
        })
    }

    /// Cross-system COUNT/SUM: each system computes its exact partial
    /// locally and ships only the partial (alternative (i)).
    ///
    /// # Errors
    ///
    /// Unsupported aggregate, or execution errors.
    pub fn query_exchange_results(&self, query: &AnalyticalQuery) -> Result<PolystoreOutcome> {
        check_supported(&query.aggregate)?;
        let span = self.telemetry.span("geo.polystore.exchange_results");
        let mut cost = CostReport::zero();
        let mut inter_bytes = 0u64;
        let mut total = 0.0;
        for (i, s) in self.systems.iter().enumerate() {
            let sys_span = self
                .telemetry
                .span_child_of(&span.ctx(), "geo.polystore.system");
            sys_span.tag("system", i);
            let out = (s.exec).execute(&s.table, query, ExecMode::Direct, &sys_span.ctx())?;
            total += out.answer.as_scalar().unwrap_or(0.0);
            cost = cost.then(&out.cost);
            if i != 0 {
                let mut m = CostMeter::new();
                m.charge_wan(24);
                inter_bytes += 24;
                self.telemetry.incr("geo.polystore.inter_system_bytes", 24);
                let wan = m.report_sequential();
                // The executor's own spans carry the local execution cost;
                // this span carries only the inter-system hop.
                sys_span.record_sim_us(wan.wall_us);
                cost = cost.then(&wan);
            }
        }
        span.tag("inter_system_bytes", inter_bytes);
        Ok(PolystoreOutcome {
            answer: AnswerValue::Scalar(total),
            cost,
            inter_system_bytes: inter_bytes,
            model_answers: 0,
        })
    }

    /// Cross-system COUNT/SUM via resident agents (alternative (ii)):
    /// systems whose agent is confident answer data-lessly; the rest
    /// execute locally. Only scalar answers cross system boundaries.
    ///
    /// # Errors
    ///
    /// Unsupported aggregate, or execution errors on fallback systems.
    pub fn query_exchange_models(&self, query: &AnalyticalQuery) -> Result<PolystoreOutcome> {
        check_supported(&query.aggregate)?;
        let span = self.telemetry.span("geo.polystore.exchange_models");
        let mut cost = CostReport::zero();
        let mut inter_bytes = 0u64;
        let mut total = 0.0;
        let mut model_answers = 0usize;
        for (i, s) in self.systems.iter().enumerate() {
            let sys_span = self
                .telemetry
                .span_child_of(&span.ctx(), "geo.polystore.system");
            sys_span.tag("system", i);
            let local = match s.agent.predict(query) {
                Ok(pred) if pred.estimated_error <= self.error_threshold => {
                    model_answers += 1;
                    if self.telemetry.is_enabled() {
                        sys_span.tag("source", "model");
                        self.telemetry.event(
                            "geo.polystore.model_answered",
                            &[("system", (i as u64).into())],
                        );
                    }
                    self.telemetry.incr("geo.polystore.model_answers", 1);
                    pred.answer.as_scalar().unwrap_or(0.0)
                }
                _ => {
                    if self.telemetry.is_enabled() {
                        sys_span.tag("source", "local_exact");
                    }
                    let out =
                        (s.exec).execute(&s.table, query, ExecMode::Direct, &sys_span.ctx())?;
                    cost = cost.then(&out.cost);
                    out.answer.as_scalar().unwrap_or(0.0)
                }
            };
            total += local;
            if i != 0 {
                let mut m = CostMeter::new();
                m.charge_wan(24);
                inter_bytes += 24;
                self.telemetry.incr("geo.polystore.inter_system_bytes", 24);
                let wan = m.report_sequential();
                sys_span.record_sim_us(wan.wall_us);
                cost = cost.then(&wan);
            }
        }
        if self.telemetry.is_enabled() {
            span.tag("inter_system_bytes", inter_bytes);
            span.tag("model_answers", model_answers as u64);
        }
        Ok(PolystoreOutcome {
            answer: AnswerValue::Scalar(total),
            cost,
            inter_system_bytes: inter_bytes,
            model_answers,
        })
    }
}

fn check_supported(agg: &AggregateKind) -> Result<()> {
    match agg {
        AggregateKind::Count | AggregateKind::Sum { .. } => Ok(()),
        other => Err(SeaError::invalid(format!(
            "polystore cross-system aggregation supports Count/Sum, not {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Point, Rect, Region};
    use sea_storage::{Partitioning, StorageCluster};
    use sea_telemetry::FieldValue;

    fn make_cluster(seed_shift: u64) -> StorageCluster {
        let mut c = StorageCluster::new(4, 256);
        let records: Vec<Record> = (0..8_000)
            .map(|i| {
                Record::new(
                    i,
                    vec![
                        ((i + seed_shift * 37) % 100) as f64,
                        ((i / 100 + seed_shift * 13) % 80) as f64,
                    ],
                )
            })
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn count_query(e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![50.0, 40.0]), &[e, e]).unwrap()),
            AggregateKind::Count,
        )
    }

    fn training_queries() -> Vec<AnalyticalQuery> {
        (0..120)
            .map(|i| count_query(4.0 + (i % 15) as f64 * 0.5))
            .collect()
    }

    #[test]
    fn all_three_strategies_agree_when_exact() {
        let c1 = make_cluster(0);
        let c2 = make_cluster(1);
        let systems = vec![
            ConstituentSystem::new(&Executor::new(&c1), "t").unwrap(),
            ConstituentSystem::new(&Executor::new(&c2), "t").unwrap(),
        ];
        let store = Polystore::new(systems, 0.15).unwrap();
        let q = count_query(6.0);
        let a = store.query_migrate_data(&q).unwrap();
        let b = store.query_exchange_results(&q).unwrap();
        assert_eq!(a.answer, b.answer);
        assert!(
            a.inter_system_bytes > b.inter_system_bytes * 10,
            "raw migration moves far more: {} vs {}",
            a.inter_system_bytes,
            b.inter_system_bytes
        );
    }

    #[test]
    fn model_exchange_avoids_even_local_execution() {
        let c1 = make_cluster(0);
        let c2 = make_cluster(1);
        let systems = vec![
            ConstituentSystem::new(&Executor::new(&c1), "t").unwrap(),
            ConstituentSystem::new(&Executor::new(&c2), "t").unwrap(),
        ];
        let mut store = Polystore::new(systems, 0.15).unwrap();
        store.train_agents(&training_queries()).unwrap();
        let q = count_query(6.3);
        let models = store.query_exchange_models(&q).unwrap();
        let results = store.query_exchange_results(&q).unwrap();
        assert_eq!(models.model_answers, 2, "both agents confident");
        // Both variants ship one partial over the WAN (the shared floor);
        // the model variant additionally skips ALL local base-data work.
        assert!(
            models.cost.wall_us < results.cost.wall_us,
            "models {} vs exact-exchange {}",
            models.cost.wall_us,
            results.cost.wall_us
        );
        assert_eq!(models.cost.totals.disk_bytes, 0, "no base data touched");
        assert_eq!(models.cost.totals.records_processed, 0);
        // And the answer is close to the exact one.
        let rel = models.answer.relative_error(&results.answer);
        assert!(rel < 0.15, "model answer rel err {rel}");
    }

    #[test]
    fn untrained_agents_fall_back_to_local_execution() {
        let c1 = make_cluster(0);
        let systems = vec![ConstituentSystem::new(&Executor::new(&c1), "t").unwrap()];
        let store = Polystore::new(systems, 0.15).unwrap();
        let q = count_query(6.0);
        let out = store.query_exchange_models(&q).unwrap();
        assert_eq!(out.model_answers, 0);
        let exact = store.query_exchange_results(&q).unwrap();
        assert_eq!(out.answer, exact.answer);
    }

    #[test]
    fn polystore_spans_cover_every_system() {
        let sink = sea_telemetry::TelemetrySink::recording();
        let mut c1 = make_cluster(0);
        c1.set_telemetry(sink.clone());
        let mut c2 = make_cluster(1);
        c2.set_telemetry(sink.clone());
        let systems = vec![
            ConstituentSystem::new(&Executor::new(&c1), "t").unwrap(),
            ConstituentSystem::new(&Executor::new(&c2), "t").unwrap(),
        ];
        let store = Polystore::new(systems, 0.15).unwrap();
        let q = count_query(6.0);
        store.query_migrate_data(&q).unwrap();
        store.query_exchange_results(&q).unwrap();
        let snap = store.telemetry.snapshot().unwrap();
        let migrate = snap
            .spans
            .roots
            .iter()
            .find(|s| s.name == "geo.polystore.migrate_data")
            .expect("migrate_data root span");
        let sys_spans: Vec<_> = migrate
            .children
            .iter()
            .filter(|c| c.name == "geo.polystore.system")
            .collect();
        assert_eq!(sys_spans.len(), 2, "one child span per constituent system");
        for (i, s) in sys_spans.iter().enumerate() {
            assert_eq!(s.trace_id, migrate.trace_id);
            assert_eq!(s.parent_span_id, migrate.span_id);
            assert_eq!(s.tag("system"), Some(&FieldValue::U64(i as u64)));
            assert!(
                s.find("storage.node.scan").is_some(),
                "system {i} span reaches storage"
            );
        }
        let exchange = snap
            .spans
            .roots
            .iter()
            .find(|s| s.name == "geo.polystore.exchange_results")
            .expect("exchange_results root span");
        assert!(exchange.find("query.executor.direct").is_some());
        assert!(snap.counter("geo.polystore.inter_system_bytes") > 0);
    }

    #[test]
    fn validations() {
        assert!(Polystore::new(vec![], 0.1).is_err());
        let c1 = make_cluster(0);
        let systems = vec![ConstituentSystem::new(&Executor::new(&c1), "t").unwrap()];
        let store = Polystore::new(systems, 0.1).unwrap();
        let bad = AnalyticalQuery::new(count_query(5.0).region, AggregateKind::Median { dim: 0 });
        assert!(store.query_migrate_data(&bad).is_err());
        assert!(store.query_exchange_results(&bad).is_err());
        assert!(store.query_exchange_models(&bad).is_err());
    }
}
