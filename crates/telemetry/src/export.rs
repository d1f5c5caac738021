//! Exporters: Prometheus text exposition for the metrics registry and
//! Chrome `trace_event` JSON for span trees.
//!
//! Both serializers are hand-written rather than going through
//! `serde_json` so the output is byte-stable — metric order is the
//! registry's sorted order, float formatting is Rust's shortest
//! round-trip `Display`, and no map iteration order leaks in. That is
//! what makes golden-file tests (and diffing two exports) meaningful.
//!
//! The Chrome trace loads in `about:tracing` or [Perfetto]. Spans only
//! record durations (not absolute start times), so timestamps are
//! synthesized: each trace gets its own thread row, root trees are laid
//! end-to-end on that row, and children start at their parent's start,
//! packed sequentially — which preserves every containment and duration
//! relation the recorder knew. Two process groups are emitted: `pid 1`
//! shows measured wall-clock durations, `pid 2` the simulated-cost
//! model's durations (`sim_us_total`), so the two attributions can be
//! compared side by side for the same tree.
//!
//! [Perfetto]: https://ui.perfetto.dev

use crate::event::FieldValue;
use crate::span::SpanNode;
use crate::TelemetrySnapshot;

/// Process id used for the measured wall-clock timeline.
pub const WALL_PID: u64 = 1;
/// Process id used for the simulated-cost timeline.
pub const SIM_PID: u64 = 2;

/// Renders the snapshot's metrics registry (plus span/event-ring
/// bookkeeping) in the Prometheus text exposition format, version
/// 0.0.4. Metric names are sanitized, so internal dotted names like
/// `query.retries` surface as `query_retries`.
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let name = sanitize(&c.name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }
    for g in &snap.gauges {
        let name = sanitize(&g.name);
        out.push_str(&format!(
            "# TYPE {name} gauge\n{name} {}\n",
            fmt_f64(g.value)
        ));
    }
    for h in &snap.histograms {
        let name = sanitize(&h.name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for b in &h.buckets {
            cumulative += b.count;
            let le = if b.le == f64::MAX {
                "+Inf".to_string()
            } else {
                fmt_f64(b.le)
            };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_sum {}\n{name}_count {}\n",
            fmt_f64(h.sum),
            h.count
        ));
    }
    // Recorder bookkeeping that lives outside the registry proper.
    out.push_str(&format!(
        "# TYPE telemetry_span_roots_dropped counter\ntelemetry_span_roots_dropped {}\n",
        snap.spans.dropped_roots
    ));
    out.push_str(&format!(
        "# TYPE telemetry_events_evicted counter\ntelemetry_events_evicted {}\n",
        snap.events.evicted
    ));
    out.push_str(&format!(
        "# TYPE telemetry_open_spans gauge\ntelemetry_open_spans {}\n",
        snap.spans.open_spans
    ));
    out
}

/// Renders the snapshot's span forest as Chrome `trace_event` JSON
/// (the "JSON Array Format" with `displayTimeUnit`), loadable in
/// `about:tracing` and Perfetto. See the module docs for how
/// timestamps are synthesized.
pub fn chrome_trace_json(snap: &TelemetrySnapshot) -> String {
    let mut events: Vec<String> = vec![
        meta_event(WALL_PID, 0, "process_name", "wall clock"),
        meta_event(SIM_PID, 0, "process_name", "simulated cost"),
    ];
    // One thread row per trace id, in order of first appearance.
    let mut tids: Vec<u64> = Vec::new();
    let mut wall_cursor: Vec<f64> = Vec::new();
    let mut sim_cursor: Vec<f64> = Vec::new();
    for root in &snap.spans.roots {
        let tid = match tids.iter().position(|t| *t == root.trace_id) {
            Some(i) => i,
            None => {
                tids.push(root.trace_id);
                wall_cursor.push(0.0);
                sim_cursor.push(0.0);
                let label = format!("trace {:#x}", root.trace_id);
                let tid = tids.len() - 1;
                events.push(meta_event(WALL_PID, tid as u64 + 1, "thread_name", &label));
                events.push(meta_event(SIM_PID, tid as u64 + 1, "thread_name", &label));
                tid
            }
        };
        wall_cursor[tid] += emit_span(
            &mut events,
            WALL_PID,
            tid as u64 + 1,
            root,
            wall_cursor[tid],
            false,
        );
        sim_cursor[tid] += emit_span(
            &mut events,
            SIM_PID,
            tid as u64 + 1,
            root,
            sim_cursor[tid],
            true,
        );
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Emits `node` (and descendants) as `ph:"X"` complete events starting
/// at `ts`; returns the horizontal extent occupied so siblings can be
/// packed after it.
fn emit_span(
    events: &mut Vec<String>,
    pid: u64,
    tid: u64,
    node: &SpanNode,
    ts: f64,
    sim: bool,
) -> f64 {
    let dur = if sim {
        node.sim_us_total()
    } else {
        node.wall_us
    };
    let mut args = format!(
        "\"trace_id\":\"{:#x}\",\"span_id\":{},\"parent_span_id\":{},\"wall_us\":{},\"sim_us\":{}",
        node.trace_id,
        node.span_id,
        node.parent_span_id,
        fmt_f64(node.wall_us),
        fmt_f64(node.sim_us_total()),
    );
    for (k, v) in &node.tags {
        args.push_str(&format!(",{}:{}", json_str(k), json_field(v)));
    }
    events.push(format!(
        "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
        json_str(&node.name),
        fmt_f64(ts),
        fmt_f64(dur),
    ));
    let mut child_ts = ts;
    for child in &node.children {
        child_ts += emit_span(events, pid, tid, child, child_ts, sim);
    }
    // Measured child wall time can slightly exceed the parent's own
    // measurement; report the larger extent so rows never overlap.
    dur.max(child_ts - ts)
}

/// Renders the snapshot's bounded event ring as JSON-Lines: one event
/// per line in ring (seq) order, each a `serde_json` rendering of
/// [`crate::EventSnapshot`] — field order is declaration order under
/// the vendored shims, so the output is byte-stable. The final line
/// is a `{"evicted": …, "totals_by_name": …}` trailer so consumers can
/// tell a short log from a truncated one.
///
/// # Errors
///
/// Serialization errors from the JSON layer (none in practice: every
/// field type is JSON-safe).
pub fn events_jsonl(snap: &TelemetrySnapshot) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for event in &snap.events.events {
        out.push_str(&serde_json::to_string(event)?);
        out.push('\n');
    }
    #[derive(serde::Serialize)]
    struct Trailer {
        evicted: u64,
        totals_by_name: Vec<(String, u64)>,
    }
    out.push_str(&serde_json::to_string(&Trailer {
        evicted: snap.events.evicted,
        totals_by_name: snap.events.totals_by_name.clone(),
    })?);
    out.push('\n');
    Ok(out)
}

fn meta_event(pid: u64, tid: u64, name: &str, value: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
        json_str(value)
    )
}

/// Maps an internal dotted metric name (`query.retries`) to a legal
/// Prometheus metric name (`query_retries`): metric names must match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` per the text exposition format, so every
/// other character becomes `_`, a leading digit gets an `_` prefix, and
/// an empty name falls back to a bare `_` rather than emitting a
/// metric line no scraper would parse.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Shortest-round-trip float formatting, with non-finite values mapped
/// to the JSON-safe 0 (they do not occur in practice).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_field(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(n) => n.to_string(),
        FieldValue::I64(n) => n.to_string(),
        FieldValue::F64(f) => fmt_f64(*f),
        FieldValue::Bool(b) => b.to_string(),
        FieldValue::Str(s) => json_str(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetrySink;

    fn sample_snapshot() -> TelemetrySnapshot {
        let sink = TelemetrySink::recording();
        sink.begin_query(1);
        {
            let root = sink.span("bench.query");
            root.record_sim_us(5.0);
            let child = sink.span("storage.node.scan");
            child.tag("node", 2u64);
            child.record_sim_us(40.0);
        }
        sink.incr("storage.node.scans", 3);
        sink.gauge_set("agent.error", 0.25);
        sink.observe("bench.query_sim_us", 45.0);
        sink.snapshot().unwrap()
    }

    #[test]
    fn prometheus_text_has_types_cumulative_buckets_and_bookkeeping() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE storage_node_scans counter\nstorage_node_scans 3\n"));
        assert!(text.contains("# TYPE agent_error gauge\nagent_error 0.25\n"));
        assert!(text.contains("# TYPE bench_query_sim_us histogram\n"));
        assert!(text.contains("bench_query_sim_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("bench_query_sim_us_sum 45\n"));
        assert!(text.contains("bench_query_sim_us_count 1\n"));
        assert!(text.contains("telemetry_events_evicted 0\n"));
        // Buckets are cumulative: the le="50" bucket already counts the
        // 45 observation, and so does every later bucket.
        assert!(text.contains("bench_query_sim_us_bucket{le=\"50\"} 1\n"));
        assert!(text.contains("bench_query_sim_us_bucket{le=\"20\"} 0\n"));
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_both_timelines() {
        let json = chrome_trace_json(&sample_snapshot());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        // Both pids present, metadata + X events, child carries its tag.
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"simulated cost\""));
        assert!(json.contains("\"name\":\"bench.query\",\"ph\":\"X\",\"pid\":1"));
        assert!(json.contains("\"name\":\"bench.query\",\"ph\":\"X\",\"pid\":2"));
        assert!(json.contains("\"name\":\"storage.node.scan\""));
        assert!(json.contains("\"node\":2"));
        // Balanced braces/brackets — cheap structural validity check.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn sim_timeline_durations_are_exact() {
        let json = chrome_trace_json(&sample_snapshot());
        // Root sim duration = 5 (own) + 40 (child); child = 40 at ts 0.
        assert!(json.contains("\"pid\":2,\"tid\":1,\"ts\":0,\"dur\":45"));
        assert!(json.contains("\"pid\":2,\"tid\":1,\"ts\":0,\"dur\":40"));
    }

    #[test]
    fn events_jsonl_is_one_event_per_line_plus_trailer() {
        let snap = sample_snapshot();
        let jsonl = events_jsonl(&snap).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), snap.events.events.len() + 1);
        for line in &lines {
            let depth = line.chars().fold(0i64, |d, c| match c {
                '{' | '[' => d + 1,
                '}' | ']' => d - 1,
                _ => d,
            });
            assert_eq!(depth, 0, "unbalanced JSONL line: {line}");
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines.last().unwrap().contains("\"evicted\""));
        // Byte-stable: same snapshot, same bytes.
        assert_eq!(jsonl, events_jsonl(&snap).unwrap());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }

    #[test]
    fn sanitize_produces_legal_metric_names() {
        assert_eq!(sanitize("query.retries"), "query_retries");
        assert_eq!(sanitize("cache-hit.rate"), "cache_hit_rate");
        assert_eq!(sanitize("ns:metric"), "ns:metric");
        assert_eq!(sanitize("2fast·p99"), "_2fast_p99");
        assert_eq!(sanitize(""), "_");
        assert_eq!(sanitize("already_fine"), "already_fine");
    }

    #[test]
    fn illegal_metric_names_never_reach_the_exposition() {
        let sink = TelemetrySink::recording();
        sink.incr("query.retries", 2);
        sink.incr("2nd.class-metric", 1);
        let text = prometheus_text(&sink.snapshot().unwrap());
        assert!(text.contains("# TYPE query_retries counter\nquery_retries 2\n"));
        assert!(text.contains("# TYPE _2nd_class_metric counter\n_2nd_class_metric 1\n"));
        // Every emitted line starts with a legal name character.
        for line in text.lines() {
            let first = line.chars().next().unwrap();
            assert!(
                first == '#' || first.is_ascii_alphabetic() || first == '_' || first == ':',
                "illegal exposition line: {line}"
            );
        }
    }
}
