//! `sea-telemetry`: spans, metrics, and per-query event logs for the SEA
//! query path.
//!
//! The paper frames every claim in resource terms — nodes touched, bytes
//! moved, layers charged — yet a bare `CostReport`-style total per
//! query says nothing about *where* inside the
//! pipeline/executor/storage stack the cost accrued or *why* the agent
//! chose to predict instead of falling back. This crate is the seam that
//! answers those questions, with three instruments sharing one
//! [`TelemetrySink`]:
//!
//! - a **metrics registry** ([`metrics`]) of named counters and
//!   fixed-bucket histograms with p50/p95/p99 summaries;
//! - a **span** API ([`span`]) of RAII guards recording nested timing
//!   trees with both wall-clock and simulated-cost attribution;
//! - a bounded **event log** ([`event`]) — a ring buffer of structured
//!   decision events (`agent.predicted`, `storage.partition_pruned`, …).
//!
//! Everything hangs off a cloneable [`TelemetrySink`], which defaults to
//! [`TelemetrySink::Noop`]: a disabled sink is a single enum-tag check
//! per call site, records nothing, and allocates nothing, so
//! instrumented code paths behave bit-identically to uninstrumented
//! ones. Names follow the `<crate>.<component>.<verb>` convention
//! documented in DESIGN.md ("Observability").
//!
//! ```
//! use sea_telemetry::TelemetrySink;
//!
//! let sink = TelemetrySink::recording();
//! {
//!     let span = sink.span("query.executor.scan");
//!     span.record_sim_us(1250.0);
//!     sink.incr("storage.blocks_scanned", 4);
//!     sink.observe("bench.query_sim_us", 1250.0);
//!     sink.event("storage.partition_pruned", &[("pruned", 3u64.into())]);
//! }
//! let snap = sink.snapshot().expect("recording sink");
//! assert_eq!(snap.spans.roots[0].name, "query.executor.scan");
//! assert_eq!(snap.events.events[0].name, "storage.partition_pruned");
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::Serialize;

pub use event::{EventLogSnapshot, EventSnapshot, FieldValue, MAX_EVENTS};
pub use metrics::{BucketSnapshot, CounterSnapshot, HistogramSnapshot};
pub use span::{SpanForestSnapshot, SpanGuard, SpanNode};
pub use trace::{trace_id_for_query, TraceContext};

/// Counter bumped when the bounded event ring evicts an event to make
/// room (overflow would otherwise be silent).
pub const EVENTS_DROPPED_COUNTER: &str = "telemetry.events_dropped";

/// A live consumer of the recorded stream: histogram observations and
/// structured events are forwarded to the tap *after* they are
/// recorded, on the recording thread, in recording order. This is the
/// seam the `sea-watch` windowed-metrics layer hangs off.
///
/// The tap receives the originating sink so it can emit derived
/// telemetry (e.g. `node.suspect` events) back into the same recorder.
/// Implementations MUST ignore their own derived names on re-entry
/// (the sink calls the tap again for every event, including ones the
/// tap itself emitted) and must not hold internal locks while calling
/// back into `sink` — the recorder itself holds no locks across the
/// tap call.
///
/// A `Noop` sink never consults the tap, so disabled telemetry stays
/// zero-cost.
pub trait TelemetryTap: Send + Sync + std::fmt::Debug {
    /// A histogram observation was recorded.
    fn on_observe(&self, sink: &TelemetrySink, name: &str, value: f64);
    /// A structured event was recorded.
    fn on_event(&self, sink: &TelemetrySink, name: &str, fields: &[(&str, FieldValue)]);
}

/// The shared recording backend behind a [`TelemetrySink::Recording`]
/// sink. Cheap to clone via `Arc`; all interior state is thread-safe.
#[derive(Debug, Default)]
pub struct Recorder {
    metrics: metrics::MetricsRegistry,
    spans: span::SpanRecorder,
    events: event::EventLog,
    /// Current query id + 1 (0 = outside any query).
    current_query: AtomicU64,
    /// Optional live consumer of observations and events.
    tap: RwLock<Option<Arc<dyn TelemetryTap>>>,
}

impl Recorder {
    fn query(&self) -> Option<u64> {
        match self.current_query.load(Ordering::Relaxed) {
            0 => None,
            id_plus_one => Some(id_plus_one - 1),
        }
    }
}

/// Entry point for all instrumentation. `Noop` (the default) makes
/// every call a no-op branch; `Recording` funnels into a shared
/// [`Recorder`].
#[derive(Debug, Clone, Default)]
pub enum TelemetrySink {
    /// Disabled: every call returns immediately.
    #[default]
    Noop,
    /// Enabled: calls record into the shared recorder.
    Recording(Arc<Recorder>),
}

impl TelemetrySink {
    /// A disabled sink (same as `default()`).
    pub fn noop() -> Self {
        Self::Noop
    }

    /// A fresh enabled sink with default bounds.
    pub fn recording() -> Self {
        Self::Recording(Arc::new(Recorder::default()))
    }

    pub fn is_enabled(&self) -> bool {
        matches!(self, Self::Recording(_))
    }

    fn recorder(&self) -> Option<&Arc<Recorder>> {
        match self {
            Self::Noop => None,
            Self::Recording(r) => Some(r),
        }
    }

    /// One-shot counter increment.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(r) = self.recorder() {
            r.metrics.add(name, by);
        }
    }

    /// Reads a counter's current value without registering it: 0 for a
    /// `Noop` sink or a name never incremented, and the read leaves no
    /// trace in snapshots. Lets read-only consumers (the service
    /// ledger's per-request counter deltas) observe the registry without
    /// perturbing it.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.recorder().map_or(0, |r| r.metrics.counter_value(name))
    }

    /// Records one observation into a fixed-bucket histogram, then
    /// forwards it to the attached [`TelemetryTap`], if any.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(r) = self.recorder() {
            r.metrics.observe(name, value);
            let tap = r.tap.read().clone();
            if let Some(tap) = tap {
                tap.on_observe(self, name, value);
            }
        }
    }

    /// Opens a span; it closes (and records) when the guard drops.
    /// Spans opened while another span's guard is live nest under it;
    /// a root span's trace id derives deterministically from the query
    /// set by [`Self::begin_query`].
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_child_of(&TraceContext::NONE, name)
    }

    /// Opens a span explicitly parented under `parent` — the
    /// cross-node form of [`Self::span`], used when work hops to
    /// another simulated node and the ambient stack can't be trusted
    /// to attribute it. With an inactive `parent` this behaves exactly
    /// like [`Self::span`].
    #[must_use]
    pub fn span_child_of(&self, parent: &TraceContext, name: &'static str) -> SpanGuard {
        match self.recorder() {
            Some(r) => r.spans.enter(Arc::clone(r), name, *parent, r.query()),
            None => SpanGuard::noop(),
        }
    }

    /// Appends a structured event to the bounded per-query log, stamped
    /// with the innermost open span's trace context. Ring overflow bumps
    /// [`EVENTS_DROPPED_COUNTER`].
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if let Some(r) = self.recorder() {
            let ctx = r.spans.current_ctx();
            if r.events.push(name, r.query(), ctx, fields) {
                r.metrics.add(EVENTS_DROPPED_COUNTER, 1);
            }
            let tap = r.tap.read().clone();
            if let Some(tap) = tap {
                tap.on_event(self, name, fields);
            }
        }
    }

    /// Attaches a live [`TelemetryTap`] consuming every subsequent
    /// observation and event (replacing any previous tap). A no-op on a
    /// `Noop` sink — disabled telemetry stays zero-cost.
    pub fn set_tap(&self, tap: Arc<dyn TelemetryTap>) {
        if let Some(r) = self.recorder() {
            *r.tap.write() = Some(tap);
        }
    }

    /// Marks the start of a query; subsequent events are tagged with
    /// `id` until the next call.
    pub fn begin_query(&self, id: u64) {
        if let Some(r) = self.recorder() {
            r.current_query.store(id + 1, Ordering::Relaxed);
        }
    }

    /// Snapshots all recorded state into plain serializable structs.
    /// Returns `None` for a `Noop` sink.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.recorder().map(|r| TelemetrySnapshot {
            counters: r.metrics.counter_snapshots(),
            histograms: r.metrics.histogram_snapshots(),
            spans: r.spans.snapshot(),
            events: r.events.snapshot(),
        })
    }
}

/// Point-in-time copy of everything a recorder has seen, ready for
/// `serde_json`.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
    pub spans: SpanForestSnapshot,
    pub events: EventLogSnapshot,
}

impl TelemetrySnapshot {
    /// Counter value by exact name (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Histogram summary by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Total occurrences of an event name (survives ring-buffer
    /// eviction).
    pub fn event_count(&self, name: &str) -> u64 {
        self.events
            .totals_by_name
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let sink = TelemetrySink::noop();
        assert!(!sink.is_enabled());
        sink.incr("a", 1);
        sink.observe("h", 1.0);
        sink.event("e", &[("k", 1u64.into())]);
        let _span = sink.span("s");
        assert!(sink.snapshot().is_none());
    }

    #[test]
    fn spans_nest_and_attribute_sim_cost() {
        let sink = TelemetrySink::recording();
        {
            let outer = sink.span("bench.query");
            outer.record_sim_us(10.0);
            {
                let mid = sink.span("query.executor.scan");
                mid.record_sim_us(7.0);
                let inner = sink.span("storage.node.scan");
                inner.record_sim_us(3.0);
            }
        }
        let snap = sink.snapshot().unwrap();
        let root = &snap.spans.roots[0];
        assert_eq!(root.name, "bench.query");
        assert_eq!(root.sim_us, 10.0);
        let leaf = &root.children[0].children[0];
        assert_eq!(leaf.name, "storage.node.scan");
        assert!(leaf.children.is_empty(), "three levels deep");
    }

    #[test]
    fn events_carry_query_ids_and_payloads() {
        let sink = TelemetrySink::recording();
        sink.event("before", &[]);
        sink.begin_query(7);
        sink.event("agent.predicted", &[("est_error", 0.02.into())]);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.events.events[0].query, None);
        assert_eq!(snap.events.events[1].query, Some(7));
        assert_eq!(snap.event_count("agent.predicted"), 1);
        assert_eq!(
            snap.events.events[1].fields[0],
            ("est_error".to_string(), FieldValue::F64(0.02))
        );
    }

    #[test]
    fn counters_and_histograms_summarize() {
        let sink = TelemetrySink::recording();
        sink.incr("storage.blocks_scanned", 3);
        sink.incr("storage.blocks_scanned", 4);
        sink.incr("storage.blocks_scanned", 1);
        for i in 1..=100 {
            sink.observe("lat", f64::from(i));
        }
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("storage.blocks_scanned"), 8);
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 100);
        assert!(h.p50 >= h.min && h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
        assert!((h.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_survives_json_round_trip() {
        let sink = TelemetrySink::recording();
        {
            let s = sink.span("a");
            s.record_sim_us(5.0);
        }
        sink.incr("c", 2);
        sink.observe("h", 1.5);
        sink.event("e", &[("why", "test".into()), ("flag", true.into())]);
        let snap = sink.snapshot().unwrap();
        // The `metrics.json` form: what a reader of that file finds.
        let json = serde_json::to_string_pretty(&snap).unwrap();
        for expected in [
            "\"counters\": [\n    {\n      \"name\": \"c\",\n      \"value\": 2\n    }\n  ]",
            "\"roots\": [\n      {\n        \"name\": \"a\",",
            "\"sim_us\": 5,",
            "\"name\": \"e\",\n        \"fields\": [\n          [\n            \"why\",\n            {\n              \"Str\": \"test\"",
            "\"totals_by_name\": [\n      [\n        \"e\",\n        1\n      ]\n    ]",
        ] {
            assert!(json.contains(expected), "missing {expected:?} in {json}");
        }
    }

    #[test]
    fn counter_value_reads_without_registering() {
        let sink = TelemetrySink::recording();
        assert_eq!(sink.counter_value("never.touched"), 0);
        assert!(
            sink.snapshot().unwrap().counters.is_empty(),
            "a read must not register the counter"
        );
        sink.incr("query.retries", 3);
        assert_eq!(sink.counter_value("query.retries"), 3);
        assert_eq!(TelemetrySink::noop().counter_value("query.retries"), 0);
    }

    #[test]
    fn tap_sees_observations_and_events_and_may_emit_derived_events() {
        /// Counts what it sees and re-emits a derived event for every
        /// non-derived event (exercising the re-entry guard).
        #[derive(Debug, Default)]
        struct Probe {
            observes: std::sync::atomic::AtomicU64,
            events: std::sync::atomic::AtomicU64,
        }
        impl TelemetryTap for Probe {
            fn on_observe(&self, _sink: &TelemetrySink, _name: &str, value: f64) {
                self.observes
                    .fetch_add(value as u64, std::sync::atomic::Ordering::Relaxed);
            }
            fn on_event(&self, sink: &TelemetrySink, name: &str, _f: &[(&str, FieldValue)]) {
                if name.starts_with("derived.") {
                    return;
                }
                self.events
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                sink.event("derived.echo", &[]);
            }
        }
        let sink = TelemetrySink::recording();
        let probe = Arc::new(Probe::default());
        sink.set_tap(Arc::clone(&probe) as Arc<dyn TelemetryTap>);
        sink.observe("h", 3.0);
        sink.observe("h", 4.0);
        sink.event("storage.node.scanned", &[]);
        assert_eq!(probe.observes.load(Ordering::Relaxed), 7);
        assert_eq!(probe.events.load(Ordering::Relaxed), 1);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.event_count("derived.echo"), 1, "derived event lands");
        // Noop sinks never consult a tap.
        TelemetrySink::noop().set_tap(probe);
    }

    #[test]
    fn sink_clones_share_the_recorder() {
        let sink = TelemetrySink::recording();
        let clone = sink.clone();
        clone.incr("shared", 5);
        assert_eq!(sink.snapshot().unwrap().counter("shared"), 5);
    }
}
