//! E7 — system throughput: sustainable queries/second.
//!
//! The paper's scalability complaint is that the system "cannot scale as
//! query arrival rates increase". Sustainable throughput is the inverse of
//! mean service time; the agent answers most queries from models and so
//! sustains orders of magnitude higher arrival rates.

use sea_common::cost::PREDICT_US;
use sea_common::Result;
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_query::Executor;
use sea_telemetry::{TelemetrySink, TraceContext};

use crate::experiments::common::{count_workload, observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// Runs E7. Columns: records, sustainable qps for BDAS-only, direct-only,
/// and the trained agent pipeline. Per-query spans, latency histograms,
/// and agent decision events flow into `sink`.
pub fn run_e7_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E7",
        "sustainable throughput (queries/second)",
        &["records", "bdas_qps", "direct_qps", "agent_qps"],
    );
    let mut qid = 0u64;
    for &n in &[50_000usize, 200_000] {
        let mut cluster = uniform_cluster(n, 8, 19)?;
        cluster.set_telemetry(sink.clone());
        let exec = Executor::new(&cluster);

        let mut gen = count_workload(5.0, 15.0, 23)?;
        let mut bdas_us = 0.0;
        let mut direct_us = 0.0;
        for _ in 0..15 {
            let q = gen.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            let b = exec
                .execute("t", &q, ExecMode::Bdas, &TraceContext::NONE)?
                .cost
                .wall_us;
            let d = exec.execute_direct("t", &q)?.cost.wall_us;
            span.record_sim_us(b + d);
            drop(span);
            observe_query_us(sink, b);
            observe_query_us(sink, d);
            bdas_us += b;
            direct_us += d;
        }
        bdas_us /= 15.0;
        direct_us /= 15.0;

        let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)?
            .with_refresh_every(32)
            .with_telemetry(sink.clone());
        let mut train = count_workload(5.0, 15.0, 27)?;
        for _ in 0..150 {
            let q = train.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            if let Ok(out) = pipe.process(&exec, &q) {
                span.record_sim_us(out.cost.wall_us);
            }
        }
        // Prediction-phase service time: the model prediction itself is
        // ~0.1 ms of agent compute plus the amortized audit.
        let mut probe = count_workload(5.0, 15.0, 37)?;
        let mut agent_us = 0.0;
        for _ in 0..60 {
            let q = probe.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            let Ok(out) = pipe.process(&exec, &q) else {
                continue;
            };
            span.record_sim_us(out.cost.wall_us);
            drop(span);
            observe_query_us(sink, PREDICT_US + out.cost.wall_us);
            agent_us += PREDICT_US + out.cost.wall_us;
        }
        agent_us /= 60.0;

        report.push_row(vec![
            n as f64,
            1e6 / bdas_us,
            1e6 / direct_us,
            1e6 / agent_us,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_sustains_far_higher_rates() {
        let r = run_e7_with(&TelemetrySink::noop()).unwrap();
        for row in &r.rows {
            let (bdas, agent) = (row[1], row[3]);
            assert!(agent > bdas * 5.0, "agent {agent} vs bdas {bdas}");
        }
        // BDAS throughput degrades with data size; the agent's does not
        // degrade anywhere near as fast.
        let bdas = r.column("bdas_qps");
        assert!(bdas[1] < bdas[0], "{bdas:?}");
    }
}
