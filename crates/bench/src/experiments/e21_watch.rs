//! E21 — the watch layer under injected faults: detection latency,
//! alert precision/recall, and per-tenant SLO budget burn.
//!
//! E18 measured what faults *cost*; E21 measures whether the system
//! *notices*. The E18 fault plan (a crashed node, a 2× slow node, a
//! swept transient-fault rate) runs against a replicated cluster behind
//! the multi-tenant front door, with two SLO'd tenants sharing the
//! stream: `gold` (latency objective just above the fault-free maximum,
//! so any backoff or failover detour breaches it) and `basic` (3× that
//! objective). A [`WatchHub`] taps the telemetry stream: per-node
//! `query.node_cost` events feed the EWMA anomaly detector, and every
//! burn-rate transition lands in the service's alert log.
//!
//! Reported per fault rate:
//! - **detection latency** — simulated time to the first `node.suspect`
//!   (straggler) flag on the planned slow node, vs the simulated time
//!   of the first crash-induced failover: the detector must win;
//! - **precision / recall** of straggler flags against the plan's
//!   ground truth (drift flags are tallied separately — transient
//!   retry storms legitimately drift);
//! - **alert count** and per-tenant **error-budget burn**.
//!
//! Everything — windows, suspicions, alerts, the `--watch-out` sidecar
//! — is keyed on the simulated clock and replayed in node-index order,
//! so the entire report is bit-identical at any `SEA_EXEC_THREADS`.

use serde::Serialize;

use sea_common::{AnalyticalQuery, Result};
use sea_query::{ExecPool, Executor, RetryPolicy};
use sea_service::{AlertRecord, QueryService, SloPolicy, SloStatus, TenantConfig};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;
use sea_watch::{SuspicionKind, WatchConfig, WatchHub, WatchSnapshot};
use sea_workload::{DataGenerator, DataSpec, QueryGenerator, QuerySpec};

use crate::experiments::common::{observe_query_us, query_span};
use crate::Report;

const RECORDS: usize = 20_000;
const NODES: usize = 8;
const DATA_SEED: u64 = 31;
const QUERIES: usize = 40;
const RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];
/// The fault plan's slow node: the straggler ground truth.
const SLOW_NODE: u64 = 1;
const TENANTS: [&str; 2] = ["gold", "basic"];

/// The E18 fault plan: transient failures at `rate`, node 2 crashing at
/// op 10, node 1 running 2× slow from the start.
fn fault_plan(rate: f64) -> FaultPlan {
    FaultPlan::new(97)
        .with_transient(rate, 1)
        .with_crash(2, 10)
        .with_slow_node(1, 2.0)
}

fn cluster() -> Result<StorageCluster> {
    let domain = sea_common::Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])?;
    let gen = DataGenerator::new(DataSpec::Uniform { domain }, DATA_SEED);
    let mut c = StorageCluster::with_replication(NODES, 512);
    c.load_table("t", gen.generate(RECORDS)?, Partitioning::Hash)?;
    Ok(c)
}

/// Fixed-extent count stream: near-constant fault-free cost, so a
/// latency objective calibrated just above the fault-free maximum
/// cleanly separates "healthy" from "paid for fault handling".
fn queries() -> Result<Vec<AnalyticalQuery>> {
    let spec = QuerySpec::simple_count(vec![50.0, 50.0], 22.0, (10.0, 10.0))?;
    let mut gen = QueryGenerator::new(spec, 71)?;
    Ok((0..QUERIES).map(|_| gen.next_query()).collect())
}

/// Maximum simulated wall-clock over the stream at fault rate 0 (crash
/// and slow node still in the plan): the gold tenant's objective floor.
fn calibrate_max_wall(pool: Option<ExecPool>, stream: &[AnalyticalQuery]) -> Result<f64> {
    let c = {
        let mut c = cluster()?;
        c.set_fault_plan(fault_plan(0.0));
        c
    };
    let mut exec = Executor::new(&c)
        .with_retry_policy(RetryPolicy {
            max_retries: 8,
            backoff_base_us: 10_000,
        })
        .with_partial_answers(true);
    if let Some(pool) = pool {
        exec = exec.with_pool(pool);
    }
    let mut max_wall = 0.0f64;
    for q in stream {
        max_wall = max_wall.max(exec.execute_direct("t", q)?.cost.wall_us);
    }
    Ok(max_wall)
}

/// The serialized per-arm watch state: the `--watch-out` sidecar row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WatchArm {
    /// Injected transient-fault rate.
    pub fault_rate: f64,
    /// Simulated time of the first straggler flag on the slow node
    /// (negative when never flagged).
    pub detect_us: f64,
    /// Simulated time of the first observed failover (negative when
    /// none occurred).
    pub failover_us: f64,
    /// Straggler-flag precision against the plan's slow-node set.
    pub precision: f64,
    /// Straggler-flag recall against the plan's slow-node set.
    pub recall: f64,
    /// Full hub snapshot: windowed series, suspicions, failover marks.
    pub watch: WatchSnapshot,
    /// Every SLO alert transition, in occurrence order.
    pub alerts: Vec<AlertRecord>,
    /// Per-tenant SLO accounting at end of run, tenant name order.
    pub slo: Vec<(String, SloStatus)>,
}

/// The whole `--watch-out` sidecar: one arm per fault rate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WatchReport {
    /// Arms in fault-rate order.
    pub arms: Vec<WatchArm>,
}

impl WatchReport {
    /// Pretty-printed JSON (the `--watch-out` sidecar format).
    ///
    /// # Errors
    ///
    /// Serialization failures (never in practice for these types).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| sea_common::SeaError::Serde(e.to_string()))
    }
}

/// One arm: the full service + watch stack at one fault rate.
fn run_arm(
    sink: &TelemetrySink,
    pool: Option<ExecPool>,
    rate: f64,
    stream: &[AnalyticalQuery],
    gold_objective_us: f64,
    query_id: &mut u64,
) -> Result<WatchArm> {
    // The watch layer rides the telemetry stream, so each arm gets its
    // own recording sink with the hub installed as tap; bench-level
    // spans are mirrored to the caller's sink for the usual sidecars.
    let arm_sink = TelemetrySink::recording();
    let hub = WatchHub::new(WatchConfig::default());
    arm_sink.set_tap(hub.clone());

    let mut c = cluster()?;
    c.set_telemetry(arm_sink.clone());
    c.set_fault_plan(fault_plan(rate));
    let mut exec = Executor::new(&c)
        .with_retry_policy(RetryPolicy {
            max_retries: 8,
            backoff_base_us: 10_000,
        })
        .with_partial_answers(true);
    if let Some(pool) = pool {
        exec = exec.with_pool(pool);
    }
    let mut svc = QueryService::new(exec, "t");
    svc.register_tenant(
        "gold",
        TenantConfig {
            slo: Some(SloPolicy::new(gold_objective_us, 0.999)),
            ..TenantConfig::default()
        },
    )?;
    svc.register_tenant(
        "basic",
        TenantConfig {
            slo: Some(SloPolicy::new(3.0 * gold_objective_us, 0.5)),
            ..TenantConfig::default()
        },
    )?;

    for (i, q) in stream.iter().enumerate() {
        let tenant = TENANTS[i % TENANTS.len()];
        let span = query_span(sink, *query_id);
        *query_id += 1;
        let out = svc.submit(tenant, q)?;
        span.record_sim_us(out.row.wall_us);
        observe_query_us(sink, out.row.wall_us);
        // The hub clock follows the service clock: windows and
        // suspicion timestamps are pure simulated time.
        hub.advance_to(svc.sim_now_us());
    }

    let snapshot = hub.snapshot();
    let stragglers: Vec<u64> = snapshot
        .suspicions
        .iter()
        .filter(|s| s.kind == SuspicionKind::Straggler)
        .map(|s| s.node)
        .collect();
    let hits = stragglers.iter().filter(|n| **n == SLOW_NODE).count() as f64;
    let precision = if stragglers.is_empty() {
        0.0
    } else {
        hits / stragglers.len() as f64
    };
    let detect_us = snapshot
        .suspicions
        .iter()
        .find(|s| s.kind == SuspicionKind::Straggler && s.node == SLOW_NODE)
        .map_or(-1.0, |s| s.first_flagged_us);
    let failover_us = snapshot
        .first_failovers
        .iter()
        .map(|m| m.sim_us)
        .fold(f64::INFINITY, f64::min);
    let failover_us = if failover_us.is_finite() {
        failover_us
    } else {
        -1.0
    };

    let alerts = svc.alert_log().snapshot();
    // Headline watch counters and the derived event streams are
    // mirrored to the caller's sink so the perf-baseline trend block
    // and the `--log-out` event log see them (the arm sink is private).
    sink.incr("watch.alerts", alerts.len() as u64);
    sink.incr("watch.suspects", snapshot.suspicions.len() as u64);
    for a in &alerts {
        sink.event(
            "watch.alert",
            &[
                ("fault_rate", rate.into()),
                ("tenant", a.tenant.clone().into()),
                ("raised", a.raised.into()),
                ("sim_time_us", a.sim_time_us.into()),
            ],
        );
    }
    for s in &snapshot.suspicions {
        sink.event(
            "node.suspect",
            &[
                ("fault_rate", rate.into()),
                ("node", s.node.into()),
                ("kind", s.kind.label().into()),
                ("sim_time_us", s.first_flagged_us.into()),
            ],
        );
    }

    Ok(WatchArm {
        fault_rate: rate,
        detect_us,
        failover_us,
        precision,
        recall: hits.min(1.0),
        watch: snapshot,
        alerts,
        slo: TENANTS
            .iter()
            .map(|t| {
                (
                    t.to_string(),
                    svc.tenant_slo_status(t).expect("tenant has an SLO"),
                )
            })
            .collect(),
    })
}

/// Runs every arm with an explicit pool override (`None` = the global
/// env-configured pool). The determinism suite calls this directly with
/// pools of different widths and compares serialized reports.
pub fn e21_arms_with_pool(sink: &TelemetrySink, pool: Option<ExecPool>) -> Result<WatchReport> {
    let stream = queries()?;
    let gold_objective_us = 1.02 * calibrate_max_wall(pool, &stream)?;
    let mut query_id = 0u64;
    let mut arms = Vec::with_capacity(RATES.len());
    for rate in RATES {
        arms.push(run_arm(
            sink,
            pool,
            rate,
            &stream,
            gold_objective_us,
            &mut query_id,
        )?);
    }
    Ok(WatchReport { arms })
}

/// The `--watch-out` sidecar: the full watch report as JSON.
///
/// # Errors
///
/// Experiment-internal errors while re-running the workload.
pub fn e21_watch_with(sink: &TelemetrySink) -> Result<String> {
    e21_arms_with_pool(sink, None)?.to_json()
}

/// Runs E21. One row per injected transient-fault rate.
pub fn run_e21_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E21",
        "watch layer under faults: slow-node detection vs failover, alert precision/recall, SLO budget burn",
        &[
            "fault_rate",
            "detect_us",
            "failover_us",
            "straggler_precision",
            "straggler_recall",
            "drift_flags",
            "alerts",
            "gold_burn",
            "basic_burn",
        ],
    );
    for arm in e21_arms_with_pool(sink, None)?.arms {
        let drift_flags = arm
            .watch
            .suspicions
            .iter()
            .filter(|s| s.kind == SuspicionKind::Drift)
            .count() as f64;
        let burn = |tenant: &str| {
            arm.slo
                .iter()
                .find(|(t, _)| t == tenant)
                .map_or(0.0, |(_, s)| s.budget_burn)
        };
        report.push_row(vec![
            arm.fault_rate,
            arm.detect_us,
            arm.failover_us,
            arm.precision,
            arm.recall,
            drift_flags,
            arm.alerts.len() as f64,
            burn("gold"),
            burn("basic"),
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_node_is_detected_before_the_first_failover() {
        let r = run_e21_with(&TelemetrySink::noop()).unwrap();
        assert_eq!(r.rows.len(), RATES.len());
        for (i, row) in r.rows.iter().enumerate() {
            let (detect, failover) = (row[1], row[2]);
            assert!(detect >= 0.0, "row {i}: slow node flagged: {detect}");
            assert!(failover >= 0.0, "row {i}: crash caused a failover");
            assert!(
                detect < failover,
                "row {i}: detection ({detect}) beats failover ({failover})"
            );
            assert_eq!(row[4], 1.0, "row {i}: straggler recall");
            assert_eq!(row[3], 1.0, "row {i}: straggler precision");
        }
    }

    #[test]
    fn slo_burn_tracks_the_fault_rate() {
        let r = run_e21_with(&TelemetrySink::noop()).unwrap();
        // Fault-free arm: the gold objective sits above every observed
        // latency, so nothing burns and nothing alerts.
        assert_eq!(r.value(0, "alerts"), Some(0.0));
        assert_eq!(r.value(0, "gold_burn"), Some(0.0));
        // Heaviest arm: transient backoff pushes gold past its
        // objective; the basic tenant's 3× objective stays calm.
        let last = RATES.len() - 1;
        assert!(r.value(last, "gold_burn").unwrap() > 0.0);
        assert!(
            r.value(last, "gold_burn").unwrap() > r.value(last, "basic_burn").unwrap(),
            "gold burns faster than basic"
        );
    }

    #[test]
    fn watch_sidecar_is_complete_and_serializable() {
        let report = e21_arms_with_pool(&TelemetrySink::noop(), None).unwrap();
        assert_eq!(report.arms.len(), RATES.len());
        for arm in &report.arms {
            assert!(!arm.watch.series.is_empty(), "windows recorded");
            assert!(!arm.watch.suspicions.is_empty(), "slow node flagged");
            assert_eq!(arm.slo.len(), TENANTS.len());
        }
        let json = report.to_json().unwrap();
        assert!(json.contains("\"suspicions\""));
        assert!(json.contains("\"alerts\""));
        // Re-rendering is byte-stable.
        assert_eq!(json, report.to_json().unwrap());
    }
}
