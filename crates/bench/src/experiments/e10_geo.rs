//! E10 — geo-distributed SEA (Fig 3, RT5).
//!
//! Shape target: edge agents slash WAN bytes and mean response time
//! against the all-queries-to-core baseline; lowering the error threshold
//! trades WAN traffic for accuracy via the fallback rate.

use sea_common::Result;
use sea_geo::{GeoConfig, GeoSystem};
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{count_workload, uniform_cluster};
use crate::Report;

/// Runs E10. Columns: error threshold (−1 marks the all-to-core
/// baseline), fallback rate, WAN kilobytes, mean response ms. The geo
/// system inherits `sink` through the cluster, so `geo.*` spans,
/// counters, and events all land here.
pub fn run_e10_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E10",
        "geo-distributed deployment: WAN traffic vs error threshold",
        &["threshold", "fallback_rate", "wan_kb", "mean_response_ms"],
    );
    let mut cluster = uniform_cluster(100_000, 8, 31)?;
    cluster.set_telemetry(sink.clone());

    // Baseline: everything to the core.
    let mut baseline = GeoSystem::new(&cluster, "t", GeoConfig::default())?;
    let mut gen = count_workload(4.0, 14.0, 61)?;
    let mut qid = 0u64;
    for _ in 0..300 {
        let q = gen.next_query();
        sink.begin_query(qid);
        qid += 1;
        let _ = baseline.submit_all_to_core(&q);
    }
    report.push_row(vec![
        -1.0,
        baseline.stats().fallback_rate(),
        baseline.stats().wan_bytes as f64 / 1e3,
        baseline.stats().mean_response_us() / 1e3,
    ]);

    for &threshold in &[0.02f64, 0.1, 0.2, 0.4] {
        let mut geo = GeoSystem::new(
            &cluster,
            "t",
            GeoConfig {
                error_threshold: threshold,
                ..GeoConfig::default()
            },
        )?;
        let mut gen = count_workload(4.0, 14.0, 61)?;
        for _ in 0..300 {
            let q = gen.next_query();
            sink.begin_query(qid);
            qid += 1;
            let _ = geo.submit(0, &q);
        }
        report.push_row(vec![
            threshold,
            geo.stats().fallback_rate(),
            geo.stats().wan_bytes as f64 / 1e3,
            geo.stats().mean_response_us() / 1e3,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_beat_baseline_and_threshold_trades_off() {
        let r = run_e10_with(&TelemetrySink::noop()).unwrap();
        let baseline_wan = r.value(0, "wan_kb").unwrap();
        let lax_wan = r.value(4, "wan_kb").unwrap();
        assert!(lax_wan * 2.0 < baseline_wan, "{lax_wan} vs {baseline_wan}");
        // Fallback rate decreases monotonically-ish with the threshold.
        let rates = r.column("fallback_rate");
        assert!(rates[1] >= rates[4], "strict ≥ lax: {rates:?}");
        // Mean response: edges below baseline.
        let base_ms = r.value(0, "mean_response_ms").unwrap();
        let edge_ms = r.value(3, "mean_response_ms").unwrap();
        assert!(edge_ms < base_ms, "{edge_ms} vs {base_ms}");
    }
}
