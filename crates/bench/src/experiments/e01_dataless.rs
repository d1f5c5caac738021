//! E1 — Fig 1 vs Fig 2: traditional BDAS processing vs the data-less
//! agent, as the dataset grows.
//!
//! Shape target: BDAS and even direct exact execution grow with data
//! size; the trained agent's per-query cost is flat (and ~zero), because
//! "query processing times become de facto insensitive to data sizes".

use sea_common::Result;
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_query::Executor;
use sea_telemetry::{TelemetrySink, TraceContext};

use crate::experiments::common::{count_workload, observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// Runs E1. Columns: dataset size, mean per-query simulated µs for the
/// BDAS path, the direct path, and the trained agent (predictions only),
/// plus the agent's mean relative error and nodes touched per query.
/// Spans, per-query latency histograms, and agent decision events flow
/// into `sink`.
pub fn run_e1_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E1",
        "data-less processing vs BDAS (Fig 1 vs Fig 2)",
        &[
            "records",
            "bdas_us",
            "direct_us",
            "agent_us",
            "agent_rel_err",
            "bdas_nodes",
            "agent_bytes_moved",
        ],
    );
    let mut qid = 0u64;
    for &n in &[20_000usize, 80_000, 320_000] {
        let mut cluster = uniform_cluster(n, 8, 7)?;
        cluster.set_telemetry(sink.clone());
        let exec = Executor::new(&cluster);

        // Exact costs, averaged over 20 probe queries.
        let mut gen = count_workload(5.0, 15.0, 11)?;
        let mut bdas_us = 0.0;
        let mut direct_us = 0.0;
        let mut bdas_nodes = 0.0;
        let probes = 20;
        for _ in 0..probes {
            let q = gen.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            let b = exec.execute("t", &q, ExecMode::Bdas, &TraceContext::NONE)?;
            let d = exec.execute_direct("t", &q)?;
            span.record_sim_us(b.cost.wall_us + d.cost.wall_us);
            drop(span);
            observe_query_us(sink, b.cost.wall_us);
            observe_query_us(sink, d.cost.wall_us);
            bdas_us += b.cost.wall_us;
            direct_us += d.cost.wall_us;
            bdas_nodes += b.cost.totals.nodes_touched as f64;
        }
        bdas_us /= probes as f64;
        direct_us /= probes as f64;
        bdas_nodes /= probes as f64;

        // Agent: train on 150 queries, then measure prediction-phase cost
        // and accuracy on fresh queries.
        let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)?
            .with_refresh_every(16)
            .with_telemetry(sink.clone());
        let mut train_gen = count_workload(5.0, 15.0, 13)?;
        for _ in 0..150 {
            let q = train_gen.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            let out = pipe.process(&exec, &q);
            if let Ok(out) = &out {
                span.record_sim_us(out.cost.wall_us);
                observe_query_us(sink, out.cost.wall_us);
            }
        }
        let mut probe_gen = count_workload(5.0, 15.0, 17)?;
        let mut agent_us = 0.0;
        let mut rel = 0.0;
        let mut bytes = 0u64;
        let mut n_probe = 0;
        for _ in 0..40 {
            let q = probe_gen.next_query();
            let Ok(exact) = exec.execute_direct("t", &q) else {
                continue;
            };
            let span = query_span(sink, qid);
            qid += 1;
            let out = pipe.process(&exec, &q)?;
            span.record_sim_us(out.cost.wall_us);
            drop(span);
            observe_query_us(sink, out.cost.wall_us);
            agent_us += out.cost.wall_us;
            bytes += out.cost.totals.disk_bytes + out.cost.totals.lan_bytes;
            rel += out.answer.relative_error(&exact.answer);
            n_probe += 1;
        }
        report.push_row(vec![
            n as f64,
            bdas_us,
            direct_us,
            agent_us / n_probe as f64,
            rel / n_probe as f64,
            bdas_nodes,
            bytes as f64 / n_probe as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_cost_is_flat_and_tiny_while_bdas_grows() {
        let r = run_e1_with(&TelemetrySink::noop()).unwrap();
        let bdas = r.column("bdas_us");
        let agent = r.column("agent_us");
        assert!(bdas.last().unwrap() > &(bdas[0] * 2.0), "BDAS grows with n");
        // The agent's mean per-query cost is dominated by the occasional
        // audit; it stays far below BDAS at every size.
        for (a, b) in agent.iter().zip(&bdas) {
            assert!(a * 5.0 < *b, "agent {a} vs bdas {b}");
        }
        // Accuracy holds.
        for e in r.column("agent_rel_err") {
            assert!(e < 0.25, "rel err {e}");
        }
    }
}
