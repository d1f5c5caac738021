//! The [`WatchHub`]: a [`TelemetryTap`] that turns the raw telemetry
//! stream into windowed time-series, per-node anomaly suspicions, and
//! derived `node.suspect` events.
//!
//! ```text
//!             sea-telemetry Recorder
//!        observe()           event()
//!           │                   │  (coordinator thread, replay order)
//!           ▼                   ▼
//!      ┌─────────────────────────────┐
//!      │          WatchHub           │ advance_to(sim_now) ◄─ harness
//!      │  ┌────────────┐ ┌─────────┐ │
//!      │  │ Tumbling + │ │  EWMA   │ │
//!      │  │  Sliding   │ │ anomaly │ │──► node.suspect event
//!      │  │  windows   │ │detector │ │    watch.suspects counter
//!      │  └────────────┘ └─────────┘ │
//!      └─────────────────────────────┘
//!                  │ snapshot()
//!                  ▼
//!            WatchSnapshot (serialized by --watch-out)
//! ```
//!
//! Re-entrancy: emitting `node.suspect` back through the recorder calls
//! the tap again, so `on_event`/`on_observe` filter derived names
//! *before* taking the hub lock, and the lock is released before any
//! derived emission. Determinism: every timestamp is the hub's
//! simulated clock (advanced explicitly by the harness) and every input
//! arrives in replay order, so snapshots are bit-identical at any
//! `SEA_EXEC_THREADS`.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sea_telemetry::{FieldValue, TelemetrySink, TelemetryTap};
use serde::Serialize;

use crate::anomaly::{AnomalyDetector, Suspicion};
use crate::window::{SlidingWindow, TumblingSeries, WindowSummary};

/// Prefix of every metric/event the hub itself derives; inputs with
/// this prefix are ignored to break tap re-entrancy cycles.
pub const DERIVED_PREFIX: &str = "watch.";
/// Event name the hub emits when the detector latches a new suspicion.
pub const SUSPECT_EVENT: &str = "node.suspect";
/// Event name the executor emits per node scan with its simulated cost.
pub const NODE_COST_EVENT: &str = "query.node_cost";
/// Event name the executor emits when a node fails over to a replica.
pub const NODE_FAILOVER_EVENT: &str = "query.node_failover";

/// Hub tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchConfig {
    /// Tumbling-window width (simulated µs) for every tracked series.
    pub window_us: f64,
    /// Sliding-window width (simulated µs) for every tracked series.
    pub sliding_us: f64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            window_us: 1_000_000.0,
            sliding_us: 5_000_000.0,
        }
    }
}

/// One tracked observation series: tumbling history + sliding tail.
#[derive(Debug)]
struct Series {
    tumbling: TumblingSeries,
    sliding: SlidingWindow,
}

#[derive(Debug)]
struct HubState {
    now_us: f64,
    series: BTreeMap<String, Series>,
    detector: AnomalyDetector,
    /// Simulated time of the first observed failover per node.
    first_failover_us: BTreeMap<u64, f64>,
}

/// Serialized view of one tumbling series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesSnapshot {
    /// Observation name (e.g. `bench.query_sim_us`).
    pub name: String,
    /// Tumbling window width, simulated µs.
    pub window_us: f64,
    /// Closed windows plus the open one, oldest first.
    pub windows: Vec<WindowSummary>,
    /// Closed windows dropped by the retention bound.
    pub evicted: u64,
    /// Summary over the sliding tail, if any samples are live.
    pub sliding: Option<WindowSummary>,
}

/// A (node, simulated time) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeTime {
    /// Storage node index.
    pub node: u64,
    /// Simulated time, µs.
    pub sim_us: f64,
}

/// Point-in-time serialized view of the whole hub.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WatchSnapshot {
    /// Hub clock at snapshot time.
    pub now_us: f64,
    /// Every tracked series, name order.
    pub series: Vec<SeriesSnapshot>,
    /// Latched anomaly suspicions, (node, kind) order.
    pub suspicions: Vec<Suspicion>,
    /// First failover time per node, node order.
    pub first_failovers: Vec<NodeTime>,
}

/// The tap. Install with `Recorder::set_tap(hub.clone())`; drive the
/// clock with [`WatchHub::advance_to`].
#[derive(Debug)]
pub struct WatchHub {
    cfg: WatchConfig,
    state: Mutex<HubState>,
}

impl WatchHub {
    /// A hub with the given config (wrap in `Arc` to install as a tap).
    pub fn new(cfg: WatchConfig) -> Arc<Self> {
        Arc::new(WatchHub {
            cfg,
            state: Mutex::new(HubState {
                now_us: 0.0,
                series: BTreeMap::new(),
                detector: AnomalyDetector::new(),
                first_failover_us: BTreeMap::new(),
            }),
        })
    }

    /// Advances the hub's simulated clock (monotone; stale values are
    /// ignored), sealing any tumbling windows the new time crosses.
    pub fn advance_to(&self, sim_us: f64) {
        let mut st = self.state.lock();
        if sim_us <= st.now_us {
            return;
        }
        st.now_us = sim_us;
        for s in st.series.values_mut() {
            s.tumbling.advance_to(sim_us);
            s.sliding.advance_to(sim_us);
        }
    }

    /// The hub clock.
    pub fn now_us(&self) -> f64 {
        self.state.lock().now_us
    }

    /// Serializes the hub: every series, suspicion, and failover mark.
    pub fn snapshot(&self) -> WatchSnapshot {
        let st = self.state.lock();
        WatchSnapshot {
            now_us: st.now_us,
            series: st
                .series
                .iter()
                .map(|(name, s)| SeriesSnapshot {
                    name: name.clone(),
                    window_us: s.tumbling.width_us(),
                    windows: s.tumbling.snapshot(),
                    evicted: s.tumbling.evicted(),
                    sliding: Some(s.sliding.summary()).filter(|w| w.count > 0),
                })
                .collect(),
            suspicions: st.detector.suspicions(),
            first_failovers: st
                .first_failover_us
                .iter()
                .map(|(node, sim_us)| NodeTime {
                    node: *node,
                    sim_us: *sim_us,
                })
                .collect(),
        }
    }

    /// Latched suspicions only (E21 scores these against the plan).
    pub fn suspicions(&self) -> Vec<Suspicion> {
        self.state.lock().detector.suspicions()
    }

    /// First failover time per node.
    pub fn first_failovers(&self) -> Vec<NodeTime> {
        self.snapshot().first_failovers
    }

    fn field_f64(fields: &[(&str, FieldValue)], key: &str) -> Option<f64> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                FieldValue::F64(x) => *x,
                FieldValue::U64(x) => *x as f64,
                FieldValue::I64(x) => *x as f64,
                _ => f64::NAN,
            })
    }
}

impl TelemetryTap for WatchHub {
    fn on_observe(&self, _sink: &TelemetrySink, name: &str, value: f64) {
        if name.starts_with(DERIVED_PREFIX) {
            return;
        }
        let mut st = self.state.lock();
        let now = st.now_us;
        let cfg = self.cfg;
        // Looked up before inserting: only a new series' name allocates.
        let s = match st.series.get_mut(name) {
            Some(s) => s,
            None => st.series.entry(name.to_string()).or_insert_with(|| Series {
                tumbling: TumblingSeries::new(cfg.window_us),
                sliding: SlidingWindow::new(cfg.sliding_us),
            }),
        };
        s.tumbling.record(now, value);
        s.sliding.record(now, value);
    }

    fn on_event(&self, sink: &TelemetrySink, name: &str, fields: &[(&str, FieldValue)]) {
        if name.starts_with(DERIVED_PREFIX) || name == SUSPECT_EVENT {
            return;
        }
        match name {
            NODE_COST_EVENT => {
                let (Some(node), Some(cost)) = (
                    Self::field_f64(fields, "node"),
                    Self::field_f64(fields, "sim_us"),
                ) else {
                    return;
                };
                if !node.is_finite() || !cost.is_finite() {
                    return;
                }
                let fresh = {
                    let mut st = self.state.lock();
                    let now = st.now_us;
                    st.detector.observe(node as u64, now, cost)
                };
                // Lock released: safe to re-enter the recorder.
                for s in fresh {
                    sink.incr("watch.suspects", 1);
                    sink.event(
                        SUSPECT_EVENT,
                        &[
                            ("node", FieldValue::U64(s.node)),
                            ("kind", s.kind.label().into()),
                            ("score", FieldValue::F64(s.score)),
                            ("sim_time_us", FieldValue::F64(s.first_flagged_us)),
                        ],
                    );
                }
            }
            NODE_FAILOVER_EVENT => {
                if let Some(node) = Self::field_f64(fields, "node") {
                    if node.is_finite() {
                        let mut st = self.state.lock();
                        let now = st.now_us;
                        st.first_failover_us.entry(node as u64).or_insert(now);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_telemetry::TelemetrySink;

    #[test]
    fn observations_land_in_windows_keyed_on_hub_clock() {
        let hub = WatchHub::new(WatchConfig {
            window_us: 1_000.0,
            sliding_us: 2_000.0,
        });
        let sink = TelemetrySink::recording();
        hub.on_observe(&sink, "q.us", 10.0);
        hub.advance_to(1_500.0);
        hub.on_observe(&sink, "q.us", 20.0);
        hub.advance_to(3_000.0);
        let snap = hub.snapshot();
        assert_eq!(snap.series.len(), 1);
        let s = &snap.series[0];
        assert_eq!(s.name, "q.us");
        // Window 0 (sample 10.0) and window 1 (sample 20.0) are closed.
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[0].count, 1);
        assert_eq!(s.windows[0].sum, 10.0);
        assert_eq!(s.windows[1].sum, 20.0);
        // Sliding width 2000 at now=3000 keeps only the t=1500 sample.
        let sl = s.sliding.as_ref().expect("sliding summary");
        assert_eq!(sl.count, 1);
        assert_eq!(sl.sum, 20.0);
    }

    #[test]
    fn derived_names_are_ignored_and_node_cost_feeds_detector() {
        let hub = WatchHub::new(WatchConfig::default());
        let sink = TelemetrySink::recording();
        sink.set_tap(hub.clone());
        hub.on_observe(&sink, "watch.suspects", 1.0);
        assert!(hub.snapshot().series.is_empty(), "derived observe ignored");

        // Nodes 0..3 healthy, node 1 slow from the start: straggler.
        for round in 0..8u64 {
            hub.advance_to(round as f64 * 1_000.0 + 1.0);
            for node in 0..4u64 {
                let cost = if node == 1 { 250.0 } else { 100.0 };
                sink.event(
                    NODE_COST_EVENT,
                    &[
                        ("node", FieldValue::U64(node)),
                        ("sim_us", FieldValue::F64(cost)),
                    ],
                );
            }
        }
        let sus = hub.suspicions();
        assert_eq!(sus.len(), 1, "{sus:?}");
        assert_eq!(sus[0].node, 1);
        // The derived event went back through the recorder without
        // deadlock or recursion, and is visible in the snapshot.
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.event_count(SUSPECT_EVENT), 1);
        assert_eq!(snap.counter("watch.suspects"), 1);
    }

    #[test]
    fn failover_events_record_first_time_per_node() {
        let hub = WatchHub::new(WatchConfig::default());
        let sink = TelemetrySink::recording();
        hub.advance_to(500.0);
        hub.on_event(&sink, NODE_FAILOVER_EVENT, &[("node", FieldValue::U64(2))]);
        hub.advance_to(900.0);
        hub.on_event(&sink, NODE_FAILOVER_EVENT, &[("node", FieldValue::U64(2))]);
        let marks = hub.first_failovers();
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].node, 2);
        assert_eq!(marks[0].sim_us, 500.0, "first time wins");
    }
}
