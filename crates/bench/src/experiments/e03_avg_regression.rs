//! E3 — data-less AVG and regression-coefficient queries (\[28\], \[29\]).
//!
//! Shape target: both operators reach low relative error after training;
//! regression queries recover the (known, by construction) slope.

use sea_common::{AggregateKind, Result};
use sea_core::{AgentConfig, SeaAgent};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{
    aggregate_workload, correlated_cluster, mean_relative_error, observe_query_us, query_span,
};
use crate::Report;

/// Runs E3. Columns: training size, AVG relative error, regression
/// relative error (max of slope/intercept component errors).
pub fn run_e3_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E3",
        "AVG and regression-query accuracy vs training size",
        &["training", "avg_rel_err", "reg_rel_err"],
    );
    // attr1 = 2·attr0 + 5 + N(0, 3); hotspot centred where the data lives.
    let mut cluster = correlated_cluster(80_000, 8, 3.0, 5)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);
    let center = vec![50.0, 105.0, 50.0];
    let mut qid = 0u64;
    for &t in &[50usize, 150, 400] {
        // AVG pool.
        let mut avg_agent = SeaAgent::new(3, AgentConfig::default())?;
        let mut avg_train = aggregate_workload(
            center.clone(),
            5.0,
            (8.0, 25.0),
            AggregateKind::Mean { dim: 1 },
            41,
        )?;
        for _ in 0..t {
            let q = avg_train.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            if let Ok(exact) = exec.execute_direct("t", &q) {
                span.record_sim_us(exact.cost.wall_us);
                observe_query_us(sink, exact.cost.wall_us);
                avg_agent.train(&q, &exact.answer)?;
            }
        }
        let mut avg_probe = aggregate_workload(
            center.clone(),
            5.0,
            (8.0, 25.0),
            AggregateKind::Mean { dim: 1 },
            43,
        )?;
        let avg_rel = mean_relative_error(&cluster, &mut avg_probe, 40, |q| {
            avg_agent.predict(q).ok().map(|p| p.answer)
        })?;

        // Regression pool: slope/intercept of attr1 on attr0.
        let mut reg_agent = SeaAgent::new(3, AgentConfig::default())?;
        let mut reg_train = aggregate_workload(
            center.clone(),
            5.0,
            (8.0, 25.0),
            AggregateKind::Regression { x: 0, y: 1 },
            47,
        )?;
        for _ in 0..t {
            let q = reg_train.next_query();
            let span = query_span(sink, qid);
            qid += 1;
            if let Ok(exact) = exec.execute_direct("t", &q) {
                span.record_sim_us(exact.cost.wall_us);
                observe_query_us(sink, exact.cost.wall_us);
                reg_agent.train(&q, &exact.answer)?;
            }
        }
        let mut reg_probe = aggregate_workload(
            center.clone(),
            5.0,
            (8.0, 25.0),
            AggregateKind::Regression { x: 0, y: 1 },
            53,
        )?;
        let reg_rel = mean_relative_error(&cluster, &mut reg_probe, 40, |q| {
            reg_agent.predict(q).ok().map(|p| p.answer)
        })?;

        report.push_row(vec![t as f64, avg_rel, reg_rel]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_operators_reach_low_error() {
        let r = run_e3_with(&TelemetrySink::noop()).unwrap();
        let avg = r.column("avg_rel_err");
        let reg = r.column("reg_rel_err");
        assert!(avg.last().unwrap() < &0.05, "avg errors {avg:?}");
        assert!(reg.last().unwrap() < &0.35, "regression errors {reg:?}");
    }
}
