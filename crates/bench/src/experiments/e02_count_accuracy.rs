//! E2 — data-less COUNT accuracy vs training-set size (\[26\], \[27\]).
//!
//! Shape target: relative error decreases as the agent sees more training
//! queries, reaching ~10% or better on a stable hotspot workload.

use sea_common::Result;
use sea_core::{AgentConfig, SeaAgent};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{
    count_workload, mean_relative_error, observe_query_us, query_span, uniform_cluster,
};
use crate::Report;

/// Runs E2. Columns: training queries, mean relative error over 60
/// fresh probe queries, quanta formed, model memory bytes.
pub fn run_e2_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E2",
        "COUNT-query accuracy vs training size",
        &["training", "rel_err", "quanta", "model_bytes"],
    );
    let mut cluster = uniform_cluster(100_000, 8, 3)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);
    let mut qid = 0u64;
    for &t in &[10usize, 30, 100, 300] {
        let mut agent = SeaAgent::new(2, AgentConfig::default())?;
        let mut train_gen = count_workload(2.0, 20.0, 29)?;
        for _ in 0..t {
            let q = train_gen.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            if let Ok(exact) = exec.execute_direct("t", &q) {
                span.record_sim_us(exact.cost.wall_us);
                observe_query_us(sink, exact.cost.wall_us);
                agent.train(&q, &exact.answer)?;
            }
        }
        let mut probe_gen = count_workload(2.0, 20.0, 31)?;
        let rel = mean_relative_error(&cluster, &mut probe_gen, 60, |q| {
            agent.predict(q).ok().map(|p| p.answer)
        })?;
        let stats = agent.stats();
        report.push_row(vec![
            t as f64,
            rel,
            stats.quanta as f64,
            stats.memory_bytes as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_decreases_with_training() {
        let r = run_e2_with(&TelemetrySink::noop()).unwrap();
        let errs = r.column("rel_err");
        let early = errs[..2].iter().cloned().fold(f64::INFINITY, f64::min);
        let late = errs[errs.len() - 2..]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(late <= early, "more training, less error: {errs:?}");
        assert!(errs.last().unwrap() < &0.12, "final error {errs:?}");
    }
}
