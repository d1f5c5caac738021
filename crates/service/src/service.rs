//! The serving path: tenant registry, deterministic admission control,
//! and per-request ledger accounting in front of an [`Executor`] /
//! [`AgentPipeline`].
//!
//! Everything is driven by *simulated* time: the service clock advances
//! by each answered query's simulated `wall_us` (plus explicit
//! [`QueryService::advance_clock`] calls), token buckets refill against
//! that clock, and budgets meter simulated money — no host wall clock
//! and no randomness anywhere on the admission path, so a replayed
//! workload produces a bit-identical ledger at any thread count.

use std::collections::BTreeMap;
use std::sync::Arc;

use sea_common::{AnalyticalQuery, AnswerValue, Result, SeaError};
use sea_core::{AgentPipeline, ProcessOutcome};
use sea_query::Executor;
use sea_watch::{AlertLog, AlertRecord, SloPolicy, SloTracker, FAST_WINDOWS, SLOW_WINDOWS};

use crate::ledger::{Disposition, LedgerRow, QueryLedger};

/// Per-tenant admission policy. The default is fully open: no budget,
/// no rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    /// Cap on cumulative simulated money; once spend reaches the cap,
    /// further queries are rejected before execution. Overshoot is
    /// bounded by one query (admission checks *before* executing, so
    /// the final admitted query may carry spend past the cap).
    pub money_budget: Option<f64>,
    /// Token-bucket refill rate in queries per simulated second.
    /// `None` disables rate limiting.
    pub rate_per_sec: Option<f64>,
    /// Token-bucket capacity (burst size); also the initial fill.
    pub burst: f64,
    /// Service-level objective. When set, every *served* request
    /// (answered or failed — admission rejections are policy, not
    /// service quality) feeds a burn-rate tracker, and alert
    /// transitions are recorded as `watch.alert` events plus rows in
    /// the service's [`AlertLog`].
    pub slo: Option<SloPolicy>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            money_budget: None,
            rate_per_sec: None,
            burst: 1.0,
            slo: None,
        }
    }
}

/// Monotone per-tenant usage counters, maintained by the serving path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    /// Requests submitted (all dispositions).
    pub submitted: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests rejected on budget.
    pub rejected_budget: u64,
    /// Requests rejected on rate.
    pub rejected_rate: u64,
    /// Requests that failed in execution.
    pub failed: u64,
    /// Cumulative simulated money spent.
    pub money: f64,
    /// Cumulative simulated wall microseconds consumed.
    pub wall_us: f64,
}

struct TenantEntry {
    config: TenantConfig,
    usage: TenantUsage,
    tokens: f64,
    last_refill_us: f64,
    pipeline: Option<AgentPipeline>,
    slo: Option<SloTracker>,
}

impl TenantEntry {
    fn new(config: TenantConfig, pipeline: Option<AgentPipeline>) -> Self {
        TenantEntry {
            config,
            usage: TenantUsage::default(),
            tokens: config.burst,
            last_refill_us: 0.0,
            pipeline,
            slo: config.slo.map(SloTracker::new),
        }
    }

    /// Refills the token bucket for simulated time elapsed since the
    /// last refill, capped at the burst size.
    fn refill(&mut self, now_us: f64) {
        if let Some(rate) = self.config.rate_per_sec {
            let elapsed = (now_us - self.last_refill_us).max(0.0);
            self.tokens = (self.tokens + rate * elapsed / 1e6).min(self.config.burst);
        }
        self.last_refill_us = now_us;
    }

    /// Admission control: `None` admits, drawing a token when the
    /// tenant is rate limited. Budget first: a tenant out of money is
    /// rejected even when it has tokens, so budget exhaustion cannot be
    /// worked around by pacing.
    fn admit(&mut self) -> Option<Disposition> {
        if (self.config.money_budget).is_some_and(|budget| self.usage.money >= budget) {
            return Some(Disposition::RejectedBudget);
        }
        if self.config.rate_per_sec.is_some() {
            if self.tokens < 1.0 {
                return Some(Disposition::RejectedRate);
            }
            self.tokens -= 1.0;
        }
        None
    }
}

/// The result of submitting one query.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// How the request was disposed of.
    pub disposition: Disposition,
    /// The answer, when `disposition` is [`Disposition::Answered`].
    pub answer: Option<AnswerValue>,
    /// The ledger row recorded for this request, shared with the
    /// ledger.
    pub row: Arc<LedgerRow>,
}

/// Multi-tenant front door over one table of a storage cluster.
///
/// Tenants execute either through the shared exact [`Executor`]
/// ([`QueryService::register_tenant`]) or through their own
/// [`AgentPipeline`] ([`QueryService::register_tenant_with_pipeline`]),
/// in which case answers may be predicted, cached, or degraded and the
/// ledger records the provenance.
pub struct QueryService<'a> {
    executor: Executor<'a>,
    table: String,
    tenants: BTreeMap<String, TenantEntry>,
    ledger: Arc<QueryLedger>,
    alert_log: Arc<AlertLog>,
    sim_now_us: f64,
    seq: u64,
}

impl<'a> QueryService<'a> {
    /// Creates a service over `executor`, answering against `table`.
    pub fn new(executor: Executor<'a>, table: impl Into<String>) -> Self {
        QueryService {
            executor,
            table: table.into(),
            tenants: BTreeMap::new(),
            ledger: Arc::new(QueryLedger::default()),
            alert_log: Arc::new(AlertLog::default()),
            sim_now_us: 0.0,
            seq: 0,
        }
    }

    /// Registers a tenant served by the shared exact executor.
    ///
    /// # Errors
    ///
    /// If the tenant name is already registered.
    pub fn register_tenant(&mut self, name: impl Into<String>, config: TenantConfig) -> Result<()> {
        self.register(name.into(), config, None)
    }

    /// Registers a tenant served by its own [`AgentPipeline`] (which
    /// may predict, serve from its semantic cache, or degrade).
    ///
    /// # Errors
    ///
    /// If the tenant name is already registered.
    pub fn register_tenant_with_pipeline(
        &mut self,
        name: impl Into<String>,
        config: TenantConfig,
        pipeline: AgentPipeline,
    ) -> Result<()> {
        self.register(name.into(), config, Some(pipeline))
    }

    fn register(
        &mut self,
        name: String,
        config: TenantConfig,
        pipeline: Option<AgentPipeline>,
    ) -> Result<()> {
        if self.tenants.contains_key(&name) {
            return Err(SeaError::invalid(format!(
                "tenant {name:?} already registered"
            )));
        }
        let mut entry = TenantEntry::new(config, pipeline);
        entry.last_refill_us = self.sim_now_us;
        self.tenants.insert(name, entry);
        Ok(())
    }

    /// The shared ledger handle; hand this (plus the telemetry sink) to
    /// a [`StatsService`](crate::StatsService) for read-only analytics.
    pub fn ledger(&self) -> Arc<QueryLedger> {
        Arc::clone(&self.ledger)
    }

    /// The append-only SLO alert log: every burn-rate raise/clear
    /// transition across all tenants, in occurrence order.
    pub fn alert_log(&self) -> Arc<AlertLog> {
        Arc::clone(&self.alert_log)
    }

    /// A tenant's current SLO accounting, if registered with a policy.
    pub fn tenant_slo_status(&self, name: &str) -> Option<sea_watch::SloStatus> {
        self.tenants
            .get(name)
            .and_then(|t| t.slo.as_ref())
            .map(|t| t.status())
    }

    /// Current simulated service time, microseconds.
    pub fn sim_now_us(&self) -> f64 {
        self.sim_now_us
    }

    /// Advances the simulated clock (e.g. to model idle time between
    /// workload waves, letting token buckets refill).
    pub fn advance_clock(&mut self, us: f64) {
        self.sim_now_us += us.max(0.0);
    }

    /// A tenant's usage counters, if registered.
    pub fn tenant_usage(&self, name: &str) -> Option<TenantUsage> {
        self.tenants.get(name).map(|t| t.usage)
    }

    /// Registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// The executor's telemetry sink.
    pub fn telemetry(&self) -> &sea_telemetry::TelemetrySink {
        self.executor.telemetry()
    }

    /// The shared exact executor behind the front door (read-only:
    /// submissions must go through [`QueryService::submit`] so admission
    /// control and the ledger see them).
    pub fn executor(&self) -> &Executor<'a> {
        &self.executor
    }

    /// The table this service answers against.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Submits one query on behalf of `tenant`: refill the tenant's
    /// token bucket, check budget then rate, execute if admitted, and
    /// record a ledger row whatever happens.
    ///
    /// # Errors
    ///
    /// Only for an unknown tenant. Execution failures are *not* errors
    /// at this layer: they are recorded as [`Disposition::Failed`] rows
    /// and returned in the outcome, so one tenant's faults cannot crash
    /// another tenant's service loop.
    pub fn submit(&mut self, tenant: &str, query: &AnalyticalQuery) -> Result<SubmitOutcome> {
        let entry = self
            .tenants
            .get_mut(tenant)
            .ok_or_else(|| SeaError::invalid(format!("unknown tenant {tenant:?}")))?;
        let seq = self.seq;
        self.seq += 1;
        let now = self.sim_now_us;
        let agg = query.aggregate.label();
        entry.refill(now);
        entry.usage.submitted += 1;

        self.executor.telemetry().incr("service.submitted", 1);
        let outcome = match entry.admit() {
            Some(rejected) => Err(rejected),
            // Admitted: execute. How the statement was answered rides
            // the outcome (an executor outcome is a pipeline outcome
            // that was not predicted), so the row below reads it, it
            // does not reconstruct it.
            None => match entry.pipeline.as_mut() {
                Some(pipe) => pipe.process(&self.executor, query),
                None => self
                    .executor
                    .execute_direct(&self.table, query)
                    .map(ProcessOutcome::from),
            }
            .map_err(|_| Disposition::Failed),
        };

        match outcome {
            Ok(out) => {
                let cost = out.cost;
                entry.usage.answered += 1;
                self.executor.telemetry().incr("service.answered", 1);
                // The serving tier's own latency distribution (simulated
                // µs); the watch layer windows this via its tap.
                self.executor
                    .telemetry()
                    .observe("service.query_wall_us", cost.wall_us);
                entry.usage.money += cost.money;
                entry.usage.wall_us += cost.wall_us;
                self.sim_now_us += cost.wall_us;
                feed_slo(
                    entry.slo.as_mut(),
                    &self.alert_log,
                    self.executor.telemetry(),
                    tenant,
                    self.sim_now_us,
                    true,
                    cost.wall_us,
                    cost.answered_fraction,
                );
                let row = Arc::new(LedgerRow {
                    seq,
                    tenant: tenant.to_string(),
                    aggregate: agg.to_string(),
                    disposition: Disposition::Answered,
                    source: out.source_label().to_string(),
                    sim_time_us: now,
                    money: cost.money,
                    wall_us: cost.wall_us,
                    answered_fraction: cost.answered_fraction,
                    nodes_unavailable: cost.nodes_unavailable,
                    retries: out.provenance.retries,
                    failovers: out.provenance.failovers,
                    cache_class: out.provenance.cache.label().to_string(),
                });
                self.ledger.append(Arc::clone(&row));
                Ok(SubmitOutcome {
                    disposition: Disposition::Answered,
                    answer: Some(out.answer),
                    row,
                })
            }
            // The one exit for an unanswered request: its usage field
            // and `service.*` counter, a failure's SLO sample (a
            // rejection is policy, not service quality), its ledger row.
            Err(disposition) => {
                let (usage, counter) = match disposition {
                    Disposition::RejectedBudget => {
                        (&mut entry.usage.rejected_budget, "service.rejected_budget")
                    }
                    Disposition::RejectedRate => {
                        (&mut entry.usage.rejected_rate, "service.rejected_rate")
                    }
                    _ => (&mut entry.usage.failed, "service.failed"),
                };
                *usage += 1;
                self.executor.telemetry().incr(counter, 1);
                if disposition == Disposition::Failed {
                    feed_slo(
                        entry.slo.as_mut(),
                        &self.alert_log,
                        self.executor.telemetry(),
                        tenant,
                        self.sim_now_us,
                        false,
                        0.0,
                        0.0,
                    );
                }
                let row = Arc::new(LedgerRow::unanswered(seq, tenant, agg, disposition, now));
                self.ledger.append(Arc::clone(&row));
                Ok(SubmitOutcome {
                    disposition,
                    answer: None,
                    row,
                })
            }
        }
    }
}

/// Feeds one served request into a tenant's SLO tracker (no-op for
/// tenants without a policy) and, on a burn-rate transition, appends an
/// [`AlertRecord`] and emits a `watch.alert` event. Everything is keyed
/// on the simulated clock, so the alert stream replays bit-identically.
#[allow(clippy::too_many_arguments)]
fn feed_slo(
    tracker: Option<&mut SloTracker>,
    alert_log: &AlertLog,
    sink: &sea_telemetry::TelemetrySink,
    tenant: &str,
    now_us: f64,
    answered: bool,
    wall_us: f64,
    answered_fraction: f64,
) {
    let Some(tracker) = tracker else { return };
    if let Some(tr) = tracker.record(now_us, answered, wall_us, answered_fraction) {
        alert_log.append(AlertRecord {
            seq: 0, // assigned by the log
            sim_time_us: now_us,
            tenant: tenant.to_string(),
            raised: tr.raised,
            fast_burn: tr.fast_burn,
            slow_burn: tr.slow_burn,
            fast_windows: FAST_WINDOWS,
            slow_windows: SLOW_WINDOWS,
        });
        sink.incr("watch.alerts", 1);
        sink.event(
            "watch.alert",
            &[
                ("tenant", tenant.to_string().into()),
                ("raised", tr.raised.into()),
                ("fast_burn", tr.fast_burn.into()),
                ("slow_burn", tr.slow_burn.into()),
            ],
        );
    }
}
