//! One runner per experiment in DESIGN.md's experiment index.

mod a01_ablations;
pub mod common;
mod e01_dataless;
mod e02_count_accuracy;
mod e03_avg_regression;
mod e04_rankjoin;
mod e05_knn;
mod e06_graphcache;
mod e07_throughput;
mod e08_storage;
mod e09_optimizer;
mod e10_geo;
mod e11_drift;
mod e12_explanations;
mod e13_imputation;
mod e14_model_selection;
mod e15_polystore;
mod e16_raw_data;
mod e17_calibration;
mod e18_faults;
mod e19_semantic_cache;
mod e20_multitenant;
mod e21_watch;
mod e22_lang_replay;

pub use a01_ablations::run_a1_with;
pub use e01_dataless::run_e1_with;
pub use e02_count_accuracy::run_e2_with;
pub use e03_avg_regression::run_e3_with;
pub use e04_rankjoin::run_e4_with;
pub use e05_knn::run_e5_with;
pub use e06_graphcache::run_e6_with;
pub use e07_throughput::run_e7_with;
pub use e08_storage::run_e8_with;
pub use e09_optimizer::run_e9_with;
pub use e10_geo::run_e10_with;
pub use e11_drift::run_e11_with;
pub use e12_explanations::run_e12_with;
pub use e13_imputation::run_e13_with;
pub use e14_model_selection::run_e14_with;
pub use e15_polystore::run_e15_with;
pub use e16_raw_data::run_e16_with;
pub use e17_calibration::run_e17_with;
pub use e18_faults::run_e18_with;
pub use e19_semantic_cache::run_e19_with;
pub use e20_multitenant::{e20_stats_with, run_e20_with};
pub use e21_watch::{e21_arms_with_pool, e21_watch_with, run_e21_with, WatchArm, WatchReport};
pub use e22_lang_replay::{e22_statements, run_e22_with, run_e22_with_pool, E22_REPLAY};

use crate::Report;

/// Runs one experiment by id, feeding telemetry into `sink`. Every
/// experiment is instrumented: cluster-backed ones propagate `sink` down
/// to storage-node spans; the purely in-memory ones (E6, E14, E16) emit
/// bench-level spans and counters.
///
/// # Errors
///
/// Unknown id or experiment-internal errors.
pub fn run_by_id_with(id: &str, sink: &sea_telemetry::TelemetrySink) -> sea_common::Result<Report> {
    let report = match id.to_ascii_lowercase().as_str() {
        "e1" => run_e1_with(sink),
        "e2" => run_e2_with(sink),
        "e3" => run_e3_with(sink),
        "e4" => run_e4_with(sink),
        "e5" => run_e5_with(sink),
        "e6" => run_e6_with(sink),
        "e7" => run_e7_with(sink),
        "e8" => run_e8_with(sink),
        "e9" => run_e9_with(sink),
        "e10" => run_e10_with(sink),
        "e11" => run_e11_with(sink),
        "e12" => run_e12_with(sink),
        "e13" => run_e13_with(sink),
        "e14" => run_e14_with(sink),
        "e15" => run_e15_with(sink),
        "e16" => run_e16_with(sink),
        "e17" => run_e17_with(sink),
        "e18" => run_e18_with(sink),
        "e19" => run_e19_with(sink),
        "e20" => run_e20_with(sink),
        "e21" => run_e21_with(sink),
        "e22" => run_e22_with(sink),
        "a1" => run_a1_with(sink),
        other => Err(sea_common::SeaError::NotFound(format!(
            "experiment {other}"
        ))),
    }?;
    // A runner that swallowed a malformed row still announces the loss:
    // JSON consumers see `rows_dropped`, telemetry consumers see this.
    if report.rows_dropped > 0 {
        sink.incr("report.rows_dropped", report.rows_dropped);
    }
    Ok(report)
}

/// All experiment ids in order.
pub const ALL_IDS: [&str; 23] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "a1",
];

/// Per-query ledger stats for experiments that run through the
/// `sea-service` front door (currently E20): the JSON `--stats-out`
/// sidecar. Returns `None` for experiments without a service ledger.
///
/// # Errors
///
/// Experiment-internal errors while re-running the workload.
pub fn stats_json_by_id(
    id: &str,
    sink: &sea_telemetry::TelemetrySink,
) -> Option<sea_common::Result<String>> {
    match id.to_ascii_lowercase().as_str() {
        "e20" => Some(e20_stats_with(sink).and_then(|s| s.to_json())),
        _ => None,
    }
}

/// The watch-layer report for experiments that run behind a
/// [`sea_watch::WatchHub`] tap (currently E21): the JSON `--watch-out`
/// sidecar.
/// Returns `None` for experiments without a watch layer.
///
/// # Errors
///
/// Experiment-internal errors while re-running the workload.
pub fn watch_json_by_id(
    id: &str,
    sink: &sea_telemetry::TelemetrySink,
) -> Option<sea_common::Result<String>> {
    match id.to_ascii_lowercase().as_str() {
        "e21" => Some(e21_watch_with(sink)),
        _ => None,
    }
}
