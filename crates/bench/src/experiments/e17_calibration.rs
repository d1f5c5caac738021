//! E17 — error-estimate calibration (RT1-3 / RT5-5).
//!
//! The whole error-driven architecture — thresholded fallback, edge
//! filtering, confident interrogations — rests on the agent's error
//! estimates *meaning something*: predictions flagged with higher
//! estimated error should actually err more. This experiment buckets
//! predictions by their estimated error and measures the realized error
//! per bucket; the shape target is a monotone calibration curve.

use sea_common::Result;
use sea_core::{AgentConfig, SeaAgent};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;
use sea_workload::{QueryGenerator, QuerySpec};

use crate::experiments::common::{observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// Runs E17. Columns: bucket's upper estimated-error bound, predictions
/// in the bucket, mean realized relative error.
pub fn run_e17_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E17",
        "error-estimate calibration",
        &["est_err_upper", "predictions", "realized_err"],
    );
    let mut cluster = uniform_cluster(100_000, 8, 91)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);

    // Train on one hotspot; probe across a spectrum of distances from it,
    // so estimated errors span their full range.
    let mut agent = SeaAgent::new(2, AgentConfig::default())?;
    let spec = QuerySpec::simple_count(vec![35.0, 50.0], 4.0, (4.0, 14.0))?;
    let mut train = QueryGenerator::new(spec, 97)?;
    for qid in 0..250u64 {
        let q = train.next_query();
        let span = query_span(sink, qid);
        if let Ok(exact) = exec.execute_direct("t", &q) {
            span.record_sim_us(exact.cost.wall_us);
            observe_query_us(sink, exact.cost.wall_us);
            agent.train(&q, &exact.answer)?;
        }
    }

    // Probes: centres sliding away from the hotspot.
    let buckets = [0.05f64, 0.1, 0.2, 0.5, f64::INFINITY];
    let mut sums = vec![(0usize, 0.0f64); buckets.len()];
    for i in 0..300 {
        let cx = 35.0 + (i % 30) as f64 * 1.5; // 35 .. 80
        let e = 4.0 + (i % 10) as f64;
        let spec = QuerySpec::simple_count(vec![cx, 50.0], 0.5, (e, e + 0.5))?;
        let mut g = QueryGenerator::new(spec, 200 + i as u64)?;
        let q = g.next_query();
        let (Ok(pred), Ok(exact)) = (agent.predict(&q), exec.execute_direct("t", &q)) else {
            continue;
        };
        let realized = pred.answer.relative_error(&exact.answer);
        let b = buckets
            .iter()
            .position(|&ub| pred.estimated_error <= ub)
            .unwrap_or(buckets.len() - 1);
        sums[b].0 += 1;
        sums[b].1 += realized;
    }
    for (i, &(n, total)) in sums.iter().enumerate() {
        report.push_row(vec![
            if buckets[i].is_finite() {
                buckets[i]
            } else {
                99.0
            },
            n as f64,
            if n > 0 { total / n as f64 } else { f64::NAN },
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_curve_is_informative() {
        let r = run_e17_with(&TelemetrySink::noop()).unwrap();
        // Gather the non-empty buckets in order.
        let rows: Vec<(f64, f64, f64)> = r
            .rows
            .iter()
            .filter(|row| row[1] > 0.0 && row[2].is_finite())
            .map(|row| (row[0], row[1], row[2]))
            .collect();
        assert!(rows.len() >= 2, "several buckets populated: {rows:?}");
        // The lowest-estimate bucket realizes lower error than the
        // highest-estimate bucket — the estimate carries real signal.
        let first = rows.first().unwrap().2;
        let last = rows.last().unwrap().2;
        assert!(
            first < last,
            "calibration signal: low-estimate err {first} < high-estimate err {last}"
        );
        // And within-budget predictions really are accurate.
        assert!(first < 0.1, "confident bucket err {first}");
    }
}
