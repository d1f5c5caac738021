//! E12 — query-answer explanations (RT4-2).
//!
//! Shape target: the explanation model predicts the answers of the
//! analyst's *related* queries (same subspace, varied extent) accurately
//! enough that issuing them is unnecessary — each avoided query saves the
//! full exact-execution cost.

use sea_common::{AggregateKind, AnalyticalQuery, Point, Rect, Region, Result};
use sea_core::{AgentConfig, Explanation, SeaAgent};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// Runs E12. Columns: derived queries evaluated from the explanation,
/// their mean relative error, and the simulated milliseconds saved by not
/// issuing them.
pub fn run_e12_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E12",
        "explanations answer related queries without issuing them",
        &["derived_queries", "explanation_rel_err", "saved_ms"],
    );
    let mut cluster = uniform_cluster(100_000, 8, 53)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);

    // Train the agent on the hotspot.
    let mut agent = SeaAgent::new(2, AgentConfig::default())?;
    let query_at = |e: f64| -> Result<AnalyticalQuery> {
        Ok(AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![50.0, 50.0]), &[e, e])?),
            AggregateKind::Count,
        ))
    };
    for i in 0..200u64 {
        let e = 4.0 + (i % 25) as f64 * 0.4;
        let q = query_at(e)?;
        let span = query_span(sink, i);
        if let Ok(exact) = exec.execute_direct("t", &q) {
            span.record_sim_us(exact.cost.wall_us);
            observe_query_us(sink, exact.cost.wall_us);
            agent.train(&q, &exact.answer)?;
        }
    }
    let anchor = query_at(8.0)?;
    let explanation = Explanation::for_query(&agent, &anchor)?;

    for &m in &[5usize, 10, 20] {
        let mut rel = 0.0;
        let mut saved_us = 0.0;
        for i in 0..m {
            let e = 4.5 + i as f64 * (9.0 / m as f64);
            let q = query_at(e)?;
            let exact = exec.execute_direct("t", &q)?;
            let vol = q.region.volume();
            let from_explanation = explanation.answer_at_volume(vol);
            let truth = exact.answer.as_scalar().expect("count is scalar");
            rel += (from_explanation - truth).abs() / truth.max(1.0);
            saved_us += exact.cost.wall_us;
        }
        report.push_row(vec![m as f64, rel / m as f64, saved_us / 1e3]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explanations_are_accurate_and_save_work() {
        let r = run_e12_with(&TelemetrySink::noop()).unwrap();
        for row in &r.rows {
            assert!(row[1] < 0.15, "explanation rel err {row:?}");
            assert!(row[2] > 0.0, "saved time {row:?}");
        }
        // Savings grow with the number of avoided queries.
        let saved = r.column("saved_ms");
        assert!(saved.last().unwrap() > &saved[0]);
    }
}
