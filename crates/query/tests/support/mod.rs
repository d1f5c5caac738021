//! Shared by the telemetry-determinism suites: scrub host wall-clock out
//! of a recorded snapshot, render what the suites compare — counters,
//! histograms, events, the span forest — one item a line, and pin that
//! rendering against a fixture.

use std::fmt::Write as _;
use std::path::PathBuf;

use sea_telemetry::{SpanNode, TelemetrySnapshot};

fn zero_wall(node: &mut SpanNode) {
    node.wall_us = 0.0;
    for c in &mut node.children {
        zero_wall(c);
    }
}

/// The sink's snapshot with host wall-clock scrubbed.
pub fn scrubbed(mut snap: TelemetrySnapshot) -> TelemetrySnapshot {
    for root in &mut snap.spans.roots {
        zero_wall(root);
    }
    snap
}

fn render_span(out: &mut String, node: &SpanNode, depth: usize) {
    writeln!(
        out,
        "{:indent$}{} trace={:x} id={} parent={} sim_us={:?} tags={:?}",
        "",
        node.name,
        node.trace_id,
        node.span_id,
        node.parent_span_id,
        node.sim_us,
        node.tags,
        indent = 2 * depth
    )
    .unwrap();
    for c in &node.children {
        render_span(out, c, depth + 1);
    }
}

/// Everything the determinism suites assert on, one item a line; floats
/// print shortest-round-trip, so equal text is equal bits.
pub fn render(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        writeln!(out, "counter {} {}", c.name, c.value).unwrap();
    }
    for h in &snap.histograms {
        writeln!(out, "histogram {h:?}").unwrap();
    }
    for e in &snap.events.events {
        writeln!(out, "event {e:?}").unwrap();
    }
    writeln!(
        out,
        "events evicted={} totals={:?}",
        snap.events.evicted, snap.events.totals_by_name
    )
    .unwrap();
    for root in &snap.spans.roots {
        render_span(&mut out, root, 0);
    }
    writeln!(
        out,
        "spans open={} dropped_roots={}",
        snap.spans.open_spans, snap.spans.dropped_roots
    )
    .unwrap();
    out
}

/// Compares `rendered` with `tests/fixtures/<name>` line by line, so a
/// drift names the first line it hits; `UPDATE_GOLDEN=1` rewrites the
/// fixture instead.
pub fn assert_golden(name: &str, rendered: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); run with UPDATE_GOLDEN=1"));
    for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "{name} drifted at line {}", i + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        expected.lines().count(),
        "{name} line count drifted"
    );
}
