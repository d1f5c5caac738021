//! # sea-watch — deterministic observability over the simulated clock
//!
//! The watch layer closes the loop the paper's vision opens: a data
//! system that not only *answers* queries under cost/accuracy budgets
//! but *notices* when it is degrading — without ever consulting a wall
//! clock or an RNG, so every alert and every window summary is
//! bit-identical across host thread counts and reruns.
//!
//! Three pieces, all keyed on simulated cost-time:
//!
//! - [`window`] — tumbling windows over any observation stream, with
//!   exact per-window percentiles (p50/p95/p99/p999) and bucket counts
//!   on the same bounds as the cumulative registry, so summing a series'
//!   window bucket counts reproduces the cumulative histogram's counts
//!   exactly.
//! - [`slo`] — per-tenant [`SloPolicy`] objectives with the classic
//!   multi-window burn-rate pair (fast 5-window / slow 60-window) over
//!   the error budget, an append-only [`AlertLog`], and latched
//!   raise/clear transitions.
//! - [`anomaly`] — per-node EWMA baselines over scan cost flagging
//!   *drift* (a node far above its own past) and *stragglers* (a node
//!   far above the fleet median), scored in E21 against injected
//!   `FaultPlan` ground truth.
//!
//! The [`WatchHub`] stitches them to the telemetry stream as a
//! `TelemetryTap`: observations land in windows, `query.node_cost`
//! events feed the detector, and fresh suspicions are re-emitted as
//! `node.suspect` events (filtered on re-entry, so no cycles).

#![forbid(unsafe_code)]

pub mod anomaly;
pub mod hub;
pub mod slo;
pub mod window;

pub use anomaly::{AnomalyDetector, Suspicion, SuspicionKind};
pub use hub::{
    NodeTime, SeriesSnapshot, WatchConfig, WatchHub, WatchSnapshot, NODE_COST_EVENT,
    NODE_FAILOVER_EVENT, SUSPECT_EVENT,
};
pub use slo::{
    AlertLog, AlertRecord, AlertTransition, SloPolicy, SloStatus, SloTracker, FAST_WINDOWS,
    SLOW_WINDOWS,
};
pub use window::{TumblingSeries, WindowSummary, MAX_RETAINED_WINDOWS};
