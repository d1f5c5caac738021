//! Golden-file tests for the exporters: a fully synthetic snapshot
//! (every float hand-set, so nothing depends on wall clocks or machine
//! speed) must serialize byte-for-byte to the checked-in fixtures.
//!
//! The exporters are hand-written precisely so this is a meaningful
//! contract — any formatting drift (metric ordering, float rendering,
//! JSON layout) shows up as a fixture diff in review instead of
//! silently breaking downstream scrapers or Perfetto loads.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p sea-telemetry --test export_golden`

use std::path::PathBuf;

use sea_telemetry::export::{chrome_trace_json, prometheus_text};
use sea_telemetry::{
    BucketSnapshot, CounterSnapshot, EventLogSnapshot, EventSnapshot, FieldValue,
    HistogramSnapshot, SpanForestSnapshot, SpanNode, TelemetrySnapshot,
};

/// A deterministic snapshot exercising every exporter feature: counters,
/// a histogram with partially-filled buckets, a two-trace span
/// forest with nesting, tags of several field types, and nonzero
/// bookkeeping (dropped roots / evicted events / open spans).
fn synthetic_snapshot() -> TelemetrySnapshot {
    let scan = SpanNode {
        name: "storage.node.scan".to_string(),
        trace_id: 0x9e3779b97f4a7c15,
        span_id: 2,
        parent_span_id: 1,
        wall_us: 80.5,
        sim_us: 1200.0,
        tags: vec![
            ("node".to_string(), FieldValue::U64(3)),
            ("blocks".to_string(), FieldValue::U64(12)),
        ],
        children: vec![],
    };
    let gather = SpanNode {
        name: "query.executor.gather".to_string(),
        trace_id: 0x9e3779b97f4a7c15,
        span_id: 3,
        parent_span_id: 1,
        wall_us: 10.25,
        sim_us: 64.0,
        tags: vec![("partial_results".to_string(), FieldValue::U64(4))],
        children: vec![],
    };
    let root = SpanNode {
        name: "bench.query".to_string(),
        trace_id: 0x9e3779b97f4a7c15,
        span_id: 1,
        parent_span_id: 0,
        wall_us: 100.0,
        sim_us: 5.0,
        tags: vec![
            ("branch".to_string(), FieldValue::Str("exact".into())),
            ("cached".to_string(), FieldValue::Bool(false)),
        ],
        children: vec![scan, gather],
    };
    let second_trace = SpanNode {
        name: "geo.polystore.exchange_results".to_string(),
        trace_id: 0xdeadbeef,
        span_id: 4,
        parent_span_id: 0,
        wall_us: 42.0,
        sim_us: 300.125,
        tags: vec![("delta".to_string(), FieldValue::I64(-7))],
        children: vec![],
    };
    TelemetrySnapshot {
        counters: vec![
            // A leading digit plus unicode: exercises the `_`-prefix and
            // char-replacement rules of the exposition sanitizer.
            CounterSnapshot {
                name: "2fast·cache-hits".to_string(),
                value: 9,
            },
            CounterSnapshot {
                name: "query.retries".to_string(),
                value: 4,
            },
            CounterSnapshot {
                name: "storage.node.blocks_read".to_string(),
                value: 12,
            },
            CounterSnapshot {
                name: "telemetry.events_dropped".to_string(),
                value: 2,
            },
        ],
        histograms: vec![HistogramSnapshot {
            name: "bench.query_sim_us".to_string(),
            count: 3,
            sum: 1650.0,
            min: 45.0,
            max: 1300.0,
            mean: 550.0,
            p50: 305.0,
            p95: 1300.0,
            p99: 1300.0,
            p999: 1300.0,
            buckets: vec![
                BucketSnapshot {
                    le: 100.0,
                    count: 1,
                },
                BucketSnapshot {
                    le: 1000.0,
                    count: 1,
                },
                BucketSnapshot {
                    le: f64::MAX,
                    count: 1,
                },
            ],
        }],
        spans: SpanForestSnapshot {
            roots: vec![root, second_trace],
            open_spans: 1,
            dropped_roots: 5,
        },
        events: EventLogSnapshot {
            events: vec![EventSnapshot {
                seq: 2,
                query: Some(7),
                trace_id: 0x9e3779b97f4a7c15,
                span_id: 1,
                name: "agent.predicted".to_string(),
                fields: vec![("est_error".to_string(), FieldValue::F64(0.015))],
            }],
            evicted: 2,
            totals_by_name: vec![("agent.predicted".to_string(), 3)],
        },
    }
}

fn check_against_fixture(rendered: &str, fixture: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", fixture]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1",
            fixture
        )
    });
    assert_eq!(
        rendered, expected,
        "{fixture} drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn prometheus_exposition_matches_golden_fixture() {
    check_against_fixture(&prometheus_text(&synthetic_snapshot()), "golden.prom");
}

#[test]
fn chrome_trace_matches_golden_fixture() {
    check_against_fixture(
        &chrome_trace_json(&synthetic_snapshot()),
        "golden_trace.json",
    );
}
