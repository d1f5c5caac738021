//! One round's serving state, built from scratch through the program's
//! public constructors, and the two ways a statement is issued to it:
//! the client call (`issue`) and the same public calls made one by one
//! under harness spans (`issue_staged`).

use std::sync::Arc;
use std::time::Instant;

use sea_cache::{CacheConfig, CacheStats, SemanticCache};
use sea_common::{AnswerValue, CostReport, Result};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_lang::{Frontend, TableSchema};
use sea_query::{ExecPool, Executor, QueryOutcome};
use sea_service::{Disposition, QueryService, SloPolicy, SubmitOutcome, TenantConfig};
use sea_storage::{FaultPlan, StorageCluster};
use sea_telemetry::TelemetrySink;
use sea_watch::{WatchConfig, WatchHub};

use crate::data::Table;
use crate::spec::Workload;
use crate::stmts::{Stmt, DRIFT_EPOCH, EXPLORE_TENANTS};
use crate::trace::Tracer;

/// `drift_churn`'s cache: sized so the working set does not fit
/// (README records the observed hit rate and eviction share).
pub const DRIFT_CACHE: CacheConfig = CacheConfig {
    capacity_bytes: 64 * 1024 * 1024,
    admit_min_cost_us: 0.0,
};
/// `explore_warm`'s prediction threshold.
const ERROR_THRESHOLD: f64 = 0.15;

/// The worker-thread budget, pinned: two, or one on a one-core host.
/// Never sized from the environment.
pub fn exec_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(2)
}

/// One aggregate's outcome, in the harness's own terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    pub answer: AnswerValue,
    /// Simulated µs (`CostReport::wall_us`) — never host time.
    pub sim_us: f64,
    /// Answered without a storage scan: predicted, cached, or an
    /// executor cache hit.
    pub dataless: bool,
    pub predicted: bool,
    pub nodes_unavailable: u64,
}

impl Agg {
    fn exact(answer: AnswerValue, cost: &CostReport) -> Agg {
        Agg {
            answer,
            sim_us: cost.wall_us,
            dataless: cost.totals.nodes_touched == 0,
            predicted: false,
            nodes_unavailable: cost.nodes_unavailable,
        }
    }

    /// `None` for anything but an answered submission.
    fn from_submit(out: &SubmitOutcome) -> Option<Agg> {
        let answer = out
            .answer
            .filter(|_| out.disposition == Disposition::Answered)?;
        let dataless = matches!(out.row.source.as_str(), "predicted" | "cached");
        Some(Agg {
            answer,
            sim_us: out.row.wall_us,
            dataless,
            predicted: out.row.source == "predicted",
            nodes_unavailable: out.row.nodes_unavailable,
        })
    }
}

/// A statement's outcome: one `Agg` per aggregate, or `None` when the
/// statement failed (an `Err`, a `Failed` disposition, or a rejection).
pub type StmtOutcome = Option<Vec<Agg>>;

/// Exact counts read off the serving state at the end of a round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub cache: CacheStats,
    pub cache_bytes: u64,
    pub ledger_rows: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub alerts: u64,
    pub events_dropped: u64,
    pub windows_evicted: u64,
    pub retries: u64,
    pub failovers: u64,
}

fn add_cache(a: &mut CacheStats, b: CacheStats) {
    a.hits += b.hits;
    a.containment_hits += b.containment_hits;
    a.misses += b.misses;
    a.subsumption_misses += b.subsumption_misses;
    a.evictions += b.evictions;
    a.insertions += b.insertions;
    a.invalidations += b.invalidations;
}

// One value per round, built and dropped on `with_session`'s stack.
#[allow(clippy::large_enum_variant)]
pub enum Session<'a> {
    /// `scan_cold`, `faulted_scan`, `drift_churn`: a `Frontend` over an
    /// exact executor, with `drift_churn`'s cache attached.
    Front {
        front: Frontend<'a>,
        /// `Frontend` keeps its executor private; staged calls go to
        /// this identical one (same cluster, pool, cache and sink).
        exec: Executor<'a>,
        table: &'a str,
        cache: Option<&'a SemanticCache>,
    },
    /// `explore_warm`: the tenant service in its production shape.
    Service {
        service: QueryService<'a>,
        caches: Vec<Arc<SemanticCache>>,
        hub: Arc<WatchHub>,
    },
}

/// What `with_session` switches on besides the workload.
#[derive(Debug, Clone, Copy)]
pub struct SessionOpts {
    pub pool: ExecPool,
    /// Record telemetry where the workload's production shape has none
    /// (counts `query.retries` on `faulted_scan`), or silence it where it
    /// does (`telemetry.overhead_ratio` on `explore_warm`).
    pub telemetry: Option<bool>,
}

impl SessionOpts {
    pub fn pinned() -> Self {
        SessionOpts {
            pool: ExecPool::new(exec_threads()),
            telemetry: None,
        }
    }
}

/// The seed of `faulted_scan`'s fault plan. A constant, not `--seed`: a
/// workload may not contain a failing operation, and about nine plan
/// seeds in ten hold a run of transient faults that outlasts
/// `RetryPolicy::default()`'s three retries somewhere in a round. A
/// self-test checks that this one does not.
const FAULT_PLAN_SEED: u64 = 31;

/// The fault plan of `faulted_scan`, re-installed (counters reset) at
/// the start of every round: 5 % transient scan faults, node 3 three
/// times slower, node 5 crashing at its 400th scan.
pub fn fault_plan() -> FaultPlan {
    FaultPlan::new(FAULT_PLAN_SEED)
        .with_transient(0.05, 1)
        .with_slow_node(3, 3.0)
        .with_crash(5, 400)
}

/// Builds `workload`'s serving state over `table` from scratch, hands it
/// to `f`, and drops it. The fault plan and the telemetry sink live on
/// the cluster, hence `&mut`.
pub fn with_session<R>(
    workload: Workload,
    table: &mut Table,
    opts: SessionOpts,
    f: impl FnOnce(&mut Session<'_>) -> Result<R>,
) -> Result<R> {
    let recording = opts.telemetry.unwrap_or(workload == Workload::ExploreWarm);
    let sink = if recording {
        TelemetrySink::recording()
    } else {
        TelemetrySink::noop()
    };
    table.cluster.set_telemetry(sink.clone());
    match workload {
        Workload::FaultedScan => table.cluster.set_fault_plan(fault_plan()),
        _ => table.cluster.clear_fault_plan(),
    }
    let cluster: &StorageCluster = &table.cluster;
    // `Executor::new` carries `RetryPolicy::default()`, which is what
    // `faulted_scan` rides its transient faults out with.
    let exec = Executor::new(cluster).with_pool(opts.pool);
    match workload {
        Workload::ScanCold | Workload::FaultedScan => f(&mut Session::Front {
            front: Frontend::new(exec.clone(), table.name)?,
            exec,
            table: table.name,
            cache: None,
        }),
        Workload::DriftChurn => {
            let cache = SemanticCache::new(DRIFT_CACHE);
            let exec = exec.with_cache(&cache);
            f(&mut Session::Front {
                front: Frontend::new(exec.clone(), table.name)?,
                exec,
                table: table.name,
                cache: Some(&cache),
            })
        }
        Workload::ExploreWarm => {
            let hub = WatchHub::new(WatchConfig::default());
            sink.set_tap(hub.clone());
            let mut service = QueryService::new(exec, table.name);
            let mut caches = Vec::new();
            for (tenant, (cache, pipeline)) in EXPLORE_TENANTS
                .iter()
                .zip(explore_pipelines(cluster, table.name, &sink)?)
            {
                caches.push(cache);
                // Budgets and rates generous enough that nothing is
                // rejected, yet set, so admission does its full check.
                let config = TenantConfig {
                    money_budget: Some(1e12),
                    rate_per_sec: Some(1e9),
                    burst: 1e9,
                    slo: Some(explore_slo()),
                };
                service.register_tenant_with_pipeline(*tenant, config, pipeline)?;
            }
            f(&mut Session::Service {
                service,
                caches,
                hub,
            })
        }
    }
}

/// `explore_warm`'s per-tenant objective: one simulated second, 99.9 %
/// of the partitions answering.
pub fn explore_slo() -> SloPolicy {
    SloPolicy::new(1e6, 0.999)
}

/// `explore_warm`'s tenant pipelines without the service in front: the
/// core layer in isolation, for the probe replay. Telemetry and the
/// watch tap are wired as in the service session.
pub fn with_pipelines<R>(
    table: &mut Table,
    f: impl FnOnce(&Executor<'_>, &mut [(Arc<SemanticCache>, AgentPipeline)]) -> Result<R>,
) -> Result<R> {
    let sink = TelemetrySink::recording();
    sink.set_tap(WatchHub::new(WatchConfig::default()));
    table.cluster.set_telemetry(sink.clone());
    table.cluster.clear_fault_plan();
    let exec = Executor::new(&table.cluster).with_pool(SessionOpts::pinned().pool);
    f(
        &exec,
        &mut explore_pipelines(&table.cluster, table.name, &sink)?,
    )
}

/// One pipeline per `explore_warm` tenant: default agent, default audit
/// cadence, its own default-sized cache.
fn explore_pipelines(
    cluster: &StorageCluster,
    table: &str,
    sink: &TelemetrySink,
) -> Result<Vec<(Arc<SemanticCache>, AgentPipeline)>> {
    EXPLORE_TENANTS
        .iter()
        .map(|_| {
            let cache = Arc::new(SemanticCache::default().with_telemetry(sink.clone()));
            let pipeline = AgentPipeline::new(
                cluster.dims(table)?,
                AgentConfig::default(),
                table,
                ERROR_THRESHOLD,
                ExecMode::Direct,
            )?
            .with_cache(Arc::clone(&cache))
            .with_telemetry(sink.clone());
            Ok((cache, pipeline))
        })
        .collect()
}

impl Session<'_> {
    /// Issues one statement the way a client does and returns its
    /// latency: from just before the call that takes the statement text
    /// until its outcome is returned.
    pub fn issue(&mut self, stmt: &Stmt) -> (f64, StmtOutcome) {
        match self {
            Session::Front { front, .. } => {
                let start = Instant::now();
                let out = front.run(&stmt.text);
                let us = start.elapsed().as_secs_f64() * 1e6;
                let aggs = out.ok().map(|o| {
                    o.results
                        .iter()
                        .map(|r| Agg::exact(r.answer, &r.cost))
                        .collect()
                });
                (us, aggs)
            }
            Session::Service { service, .. } => {
                let tenant = EXPLORE_TENANTS[stmt.tenant];
                let start = Instant::now();
                let out = sea_lang::submit_statement(service, tenant, &stmt.text);
                let us = start.elapsed().as_secs_f64() * 1e6;
                let aggs = out
                    .ok()
                    .and_then(|(_, outs)| outs.iter().map(Agg::from_submit).collect());
                (us, aggs)
            }
        }
    }

    /// The serving loop's duty before statement `i` (0-based) of the
    /// round's stream: `drift_churn` starts a new cache epoch when the
    /// hotspots move; `explore_warm` drives the watch hub's clock from
    /// the service's simulated clock. Outside any statement's latency,
    /// inside the round's wall-clock.
    pub fn before(&mut self, i: usize) {
        match self {
            Session::Front {
                cache: Some(cache), ..
            } if i > 0 && i.is_multiple_of(DRIFT_EPOCH) => {
                cache.advance_epoch();
            }
            Session::Front { .. } => {}
            Session::Service { service, hub, .. } => hub.advance_to(service.sim_now_us()),
        }
    }

    /// Issues one statement as the same public calls `Frontend::run` /
    /// `submit_statement` make, each under a harness span.
    pub fn issue_staged(&mut self, stmt: &Stmt, id: u32, tr: &mut Tracer) -> StmtOutcome {
        let root = tr.begin(None, id, "stmt");
        let staged = self.staged_calls(stmt, id, root, tr);
        tr.end(root);
        staged.ok().flatten()
    }

    fn staged_calls(
        &mut self,
        stmt: &Stmt,
        id: u32,
        root: u32,
        tr: &mut Tracer,
    ) -> Result<StmtOutcome> {
        match self {
            Session::Front {
                front, exec, table, ..
            } => {
                let plan = tr.span(root, id, "lang.parse", || sea_lang::parse(&stmt.text))?;
                let queries =
                    tr.span(root, id, "lang.lower", || plan.to_queries(front.schema()))?;
                let outs: Result<Vec<QueryOutcome>> = if queries.len() > 1 {
                    tr.span(root, id, "query.batch", || {
                        exec.execute_batch(table, &queries).into_iter().collect()
                    })
                } else {
                    tr.span(root, id, "query.direct", || {
                        queries
                            .iter()
                            .map(|q| exec.execute_direct(table, q))
                            .collect()
                    })
                };
                Ok(outs
                    .ok()
                    .map(|o| o.iter().map(|o| Agg::exact(o.answer, &o.cost)).collect()))
            }
            Session::Service { service, .. } => {
                let tenant = EXPLORE_TENANTS[stmt.tenant];
                let schema = tr.span(root, id, "lang.schema_infer", || {
                    TableSchema::infer(service.executor().cluster(), service.table())
                })?;
                let plan = tr.span(root, id, "lang.parse", || sea_lang::parse(&stmt.text))?;
                let queries = tr.span(root, id, "lang.lower", || plan.to_queries(&schema))?;
                let mut aggs = Vec::with_capacity(queries.len());
                for q in &queries {
                    let out = tr.span(root, id, "service.submit", || service.submit(tenant, q))?;
                    aggs.push(Agg::from_submit(&out));
                }
                Ok(aggs.into_iter().collect())
            }
        }
    }

    pub fn counters(&self) -> Counters {
        match self {
            Session::Front { exec, cache, .. } => {
                let sink = exec.telemetry();
                Counters {
                    cache: cache.map(|c| c.stats()).unwrap_or_default(),
                    cache_bytes: cache.map_or(0, |c| c.memory_bytes()),
                    retries: sink.counter_value("query.retries"),
                    failovers: sink.counter_value("query.failovers"),
                    ..Counters::default()
                }
            }
            Session::Service {
                service,
                caches,
                hub,
            } => {
                let mut c = Counters::default();
                for cache in caches {
                    add_cache(&mut c.cache, cache.stats());
                    c.cache_bytes += cache.memory_bytes();
                }
                for tenant in EXPLORE_TENANTS {
                    let u = service
                        .tenant_usage(tenant)
                        .expect("registered in with_session");
                    c.admitted += u.answered + u.failed;
                    c.rejected += u.rejected_budget + u.rejected_rate;
                }
                let sink = service.telemetry();
                c.ledger_rows = service.ledger().len() as u64;
                c.alerts = service.alert_log().len() as u64;
                c.events_dropped = sink.counter_value(sea_telemetry::EVENTS_DROPPED_COUNTER);
                c.windows_evicted = hub.snapshot().series.iter().map(|s| s.evicted).sum();
                c.retries = sink.counter_value("query.retries");
                c.failovers = sink.counter_value("query.failovers");
                c
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::NODES;

    /// The aggregates of one statement run concurrently and share a
    /// node's operation counter, so between one query's four attempts at
    /// most two other queries can slip in a successful scan: three
    /// retries ride out every transient episode when no six consecutive
    /// operations of a node hold four faults. Checked over far more
    /// operations than a round issues against one node.
    #[test]
    fn default_retries_survive_the_fault_plan() {
        let plan = fault_plan();
        for node in 0..NODES {
            let hits: Vec<bool> = (0..8_000).map(|op| plan.transient_hit(node, op)).collect();
            assert!(hits.iter().any(|h| *h), "node {node} never faults");
            assert!(
                hits.windows(6)
                    .all(|w| w.iter().filter(|h| **h).count() < 4),
                "node {node}"
            );
        }
    }
}
