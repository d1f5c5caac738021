//! E18 — availability and accuracy under injected faults.
//!
//! The fault-tolerance trade, measured: a seeded [`FaultPlan`] crashes
//! one node, slows another, and injects transient scan failures at a
//! swept rate. The *replicated* arm rides out every fault — retries ride
//! out the transients, the chained replica serves the crashed partition —
//! and pays for it in simulated wall-clock (backoff, slow replicas). The
//! *unreplicated* arm runs in partial-answer mode: it never blocks on the
//! dead partition, answering fast but incompletely
//! (`answered_fraction < 1`) and therefore inexactly.
//!
//! The `query.retries` / `query.failovers` / `query.degraded` counters
//! flow into the experiment sink, so the Prometheus sidecar of a bench
//! run shows exactly how much fault handling each arm performed.

use sea_common::{Rect, Result};
use sea_query::{Executor, RetryPolicy};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;
use sea_workload::{DataGenerator, DataSpec};

use crate::experiments::common::{count_workload, observe_query_us, query_span};
use crate::Report;

const RECORDS: usize = 20_000;
const NODES: usize = 8;
const DATA_SEED: u64 = 31;
const QUERIES: usize = 40;

fn cluster(replicated: bool) -> Result<StorageCluster> {
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])?;
    let gen = DataGenerator::new(DataSpec::Uniform { domain }, DATA_SEED);
    let mut c = if replicated {
        StorageCluster::with_replication(NODES, 512)
    } else {
        StorageCluster::new(NODES, 512)
    };
    c.load_table("t", gen.generate(RECORDS)?, Partitioning::Hash)?;
    Ok(c)
}

fn fault_plan(rate: f64) -> FaultPlan {
    FaultPlan::new(97)
        .with_transient(rate, 1)
        .with_crash(2, 10)
        .with_slow_node(1, 2.0)
}

/// One arm at one fault rate: mean relative error vs healthy ground
/// truth, mean answered fraction, mean simulated wall-clock.
fn run_arm(
    sink: &TelemetrySink,
    truth: &[sea_common::AnswerValue],
    replicated: bool,
    rate: f64,
    query_id: &mut u64,
) -> Result<(f64, f64, f64)> {
    let mut c = cluster(replicated)?;
    c.set_telemetry(sink.clone());
    c.set_fault_plan(fault_plan(rate));
    // Both arms run in partial-answer mode with a generous retry budget;
    // what separates them is whether a replica exists to fail over to.
    let exec = Executor::new(&c)
        .with_retry_policy(RetryPolicy {
            max_retries: 8,
            backoff_base_us: 10_000,
        })
        .with_partial_answers(true);
    let mut gen = count_workload(4.0, 14.0, 71)?;
    let (mut err, mut answered, mut wall) = (0.0, 0.0, 0.0);
    for t in truth {
        let q = gen.next_query();
        let span = query_span(sink, *query_id);
        *query_id += 1;
        let out = exec.execute_direct("t", &q)?;
        span.record_sim_us(out.cost.wall_us);
        observe_query_us(sink, out.cost.wall_us);
        err += out.answer.relative_error(t);
        answered += out.cost.answered_fraction;
        wall += out.cost.wall_us;
    }
    let n = truth.len() as f64;
    Ok((err / n, answered / n, wall / n))
}

/// Runs E18. One row per injected transient-fault rate (a node crash and
/// a slow node are always in the plan); columns pair the replicated arm
/// against the unreplicated partial-answer arm.
pub fn run_e18_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E18",
        "availability/accuracy under injected faults: replication vs partial answers",
        &[
            "fault_rate",
            "repl_rel_err",
            "repl_answered",
            "repl_wall_us",
            "norepl_rel_err",
            "norepl_answered",
            "norepl_wall_us",
        ],
    );
    // Ground truth from a healthy, unreplicated cluster over the same
    // data and the same query stream.
    let healthy = cluster(false)?;
    let exec = Executor::new(&healthy);
    let mut gen = count_workload(4.0, 14.0, 71)?;
    let mut truth = Vec::with_capacity(QUERIES);
    for _ in 0..QUERIES {
        truth.push(exec.execute_direct("t", &gen.next_query())?.answer);
    }

    let mut query_id = 0u64;
    for rate in [0.0, 0.05, 0.1, 0.2] {
        let (repl_err, repl_answered, repl_wall) =
            run_arm(sink, &truth, true, rate, &mut query_id)?;
        let (norepl_err, norepl_answered, norepl_wall) =
            run_arm(sink, &truth, false, rate, &mut query_id)?;
        report.push_row(vec![
            rate,
            repl_err,
            repl_answered,
            repl_wall,
            norepl_err,
            norepl_answered,
            norepl_wall,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_buys_exactness_and_faults_cost_time() {
        let r = run_e18_with(&TelemetrySink::noop()).unwrap();
        for (i, row) in r.rows.iter().enumerate() {
            let (repl_err, repl_answered) = (row[1], row[2]);
            assert_eq!(repl_answered, 1.0, "row {i}: replication answers fully");
            assert!(
                repl_err < 1e-9,
                "row {i}: replicated answers stay exact: {repl_err}"
            );
        }
        // The crashed partition is simply missing without replication.
        let last = r.rows.last().unwrap();
        assert!(
            last[5] < 1.0,
            "unreplicated arm degrades: answered {}",
            last[5]
        );
        assert!(last[4] > 0.0, "partial answers are inexact: {}", last[4]);
        // Fault handling is billed: the replicated arm's wall-clock grows
        // with the injected fault rate (retries + backoff).
        let wall0 = r.value(0, "repl_wall_us").unwrap();
        let wall3 = r.value(3, "repl_wall_us").unwrap();
        assert!(wall3 > wall0, "faults cost time: {wall0} -> {wall3}");
    }

    #[test]
    fn fault_telemetry_reaches_the_sink() {
        let sink = TelemetrySink::recording();
        run_e18_with(&sink).unwrap();
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter("query.retries") > 0, "transients were retried");
        assert!(snap.counter("query.failovers") > 0, "replicas served reads");
        assert!(
            snap.counter("query.degraded") > 0,
            "partitions went missing"
        );
    }
}
