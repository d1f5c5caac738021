//! CLI entry point regenerating the experiment tables of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p sea-bench --release --bin experiments           # all
//! cargo run -p sea-bench --release --bin experiments -- e4 e5  # subset
//! cargo run -p sea-bench --release --bin experiments -- --json-out out e1
//! cargo run -p sea-bench --release --bin experiments -- --trace-out traces e1
//! ```
//!
//! With `--json-out <dir>`, each experiment runs against a recording
//! [`TelemetrySink`] and writes `<dir>/<id>/report.json` (the result
//! table) plus `<dir>/<id>/metrics.json` (the telemetry snapshot:
//! counters, latency histograms, span trees, per-query events).
//! With `--trace-out <dir>`, each experiment additionally writes
//! `<dir>/<id>/trace.json` (Chrome `trace_event` JSON — load it in
//! `about:tracing` or <https://ui.perfetto.dev>) and
//! `<dir>/<id>/metrics.prom` (Prometheus text exposition). With
//! `--stats-out <dir>`, experiments that serve through the
//! `sea-service` front door (E20) write `<dir>/<id>/stats.json` — the
//! per-query ledger's summary / breakdown / top-N report. With
//! `--watch-out <dir>`, experiments that run behind a `sea-watch` tap
//! (E21) write `<dir>/<id>/watch.json` — windowed metric summaries,
//! SLO alert log, and anomaly suspicions per fault-rate arm. With
//! `--log-out <dir>`, each experiment writes `<dir>/<id>/events.jsonl`
//! (the bounded event ring as JSON-Lines, one event per line). Without
//! any flag, experiments run against the no-op sink and print the same
//! tables they always have.

use std::path::PathBuf;

use sea_bench::experiments::{run_by_id_with, stats_json_by_id, watch_json_by_id, ALL_IDS};
use sea_telemetry::TelemetrySink;

fn main() {
    let mut json_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut stats_out: Option<PathBuf> = None;
    let mut watch_out: Option<PathBuf> = None;
    let mut log_out: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if matches!(
            arg.as_str(),
            "--json-out" | "--trace-out" | "--stats-out" | "--watch-out" | "--log-out"
        ) {
            match args.next() {
                Some(dir) if arg == "--json-out" => json_out = Some(PathBuf::from(dir)),
                Some(dir) if arg == "--stats-out" => stats_out = Some(PathBuf::from(dir)),
                Some(dir) if arg == "--watch-out" => watch_out = Some(PathBuf::from(dir)),
                Some(dir) if arg == "--log-out" => log_out = Some(PathBuf::from(dir)),
                Some(dir) => trace_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("{arg} requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(arg);
        }
    }
    let ids: Vec<&str> = if ids.is_empty() {
        ALL_IDS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let recording = json_out.is_some() || trace_out.is_some() || log_out.is_some();
    let mut failures = 0;
    for id in ids {
        let sink = if recording {
            TelemetrySink::recording()
        } else {
            TelemetrySink::noop()
        };
        match run_by_id_with(id, &sink) {
            Ok(report) => {
                println!("{report}");
                if let Some(dir) = &json_out {
                    if let Err(e) = write_sidecars(dir, id, &report, &sink) {
                        eprintln!("experiment {id}: writing json sidecars failed: {e}");
                        failures += 1;
                    }
                }
                if let Some(dir) = &trace_out {
                    if let Err(e) = write_traces(dir, id, &sink) {
                        eprintln!("experiment {id}: writing trace sidecars failed: {e}");
                        failures += 1;
                    }
                }
                if let Some(dir) = &stats_out {
                    if let Err(e) = write_stats(dir, id) {
                        eprintln!("experiment {id}: writing stats sidecar failed: {e}");
                        failures += 1;
                    }
                }
                if let Some(dir) = &watch_out {
                    if let Err(e) = write_watch(dir, id) {
                        eprintln!("experiment {id}: writing watch sidecar failed: {e}");
                        failures += 1;
                    }
                }
                if let Some(dir) = &log_out {
                    if let Err(e) = write_events(dir, id, &sink) {
                        eprintln!("experiment {id}: writing event log failed: {e}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Writes `<dir>/<id>/stats.json` (the service ledger's stats report)
/// for experiments that have one; a no-op for the rest.
fn write_stats(dir: &std::path::Path, id: &str) -> std::io::Result<()> {
    let Some(json) = stats_json_by_id(id, &TelemetrySink::noop()) else {
        return Ok(());
    };
    let json = json.map_err(|e| std::io::Error::other(e.to_string()))?;
    let exp_dir = dir.join(id);
    std::fs::create_dir_all(&exp_dir)?;
    std::fs::write(exp_dir.join("stats.json"), json)
}

/// Writes `<dir>/<id>/watch.json` (the watch layer's windowed metrics,
/// alert log, and suspicions) for experiments that run behind a
/// `WatchHub` tap; a no-op for the rest.
fn write_watch(dir: &std::path::Path, id: &str) -> std::io::Result<()> {
    let Some(json) = watch_json_by_id(id, &TelemetrySink::noop()) else {
        return Ok(());
    };
    let json = json.map_err(|e| std::io::Error::other(e.to_string()))?;
    let exp_dir = dir.join(id);
    std::fs::create_dir_all(&exp_dir)?;
    std::fs::write(exp_dir.join("watch.json"), json)
}

/// Writes `<dir>/<id>/events.jsonl` — the sink's bounded event ring as
/// JSON-Lines, one event per line in recording order.
fn write_events(dir: &std::path::Path, id: &str, sink: &TelemetrySink) -> std::io::Result<()> {
    let Some(snapshot) = sink.snapshot() else {
        return Ok(());
    };
    let jsonl = sea_telemetry::export::events_jsonl(&snapshot)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let exp_dir = dir.join(id);
    std::fs::create_dir_all(&exp_dir)?;
    std::fs::write(exp_dir.join("events.jsonl"), jsonl)
}

/// Writes `<dir>/<id>/trace.json` (Chrome `trace_event` JSON) and
/// `<dir>/<id>/metrics.prom` (Prometheus text exposition).
fn write_traces(dir: &std::path::Path, id: &str, sink: &TelemetrySink) -> std::io::Result<()> {
    let Some(snapshot) = sink.snapshot() else {
        return Ok(());
    };
    let exp_dir = dir.join(id);
    std::fs::create_dir_all(&exp_dir)?;
    std::fs::write(
        exp_dir.join("trace.json"),
        sea_telemetry::export::chrome_trace_json(&snapshot),
    )?;
    std::fs::write(
        exp_dir.join("metrics.prom"),
        sea_telemetry::export::prometheus_text(&snapshot),
    )?;
    Ok(())
}

/// Writes `<dir>/<id>/report.json` and, if the sink recorded anything,
/// `<dir>/<id>/metrics.json`.
fn write_sidecars(
    dir: &std::path::Path,
    id: &str,
    report: &sea_bench::Report,
    sink: &TelemetrySink,
) -> std::io::Result<()> {
    let exp_dir = dir.join(id);
    std::fs::create_dir_all(&exp_dir)?;
    let report_json = report
        .to_json()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(exp_dir.join("report.json"), report_json)?;
    if let Some(snapshot) = sink.snapshot() {
        let metrics_json = serde_json::to_string_pretty(&snapshot)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(exp_dir.join("metrics.json"), metrics_json)?;
    }
    Ok(())
}
