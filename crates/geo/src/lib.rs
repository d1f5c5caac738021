//! # sea-geo
//!
//! Research theme RT5: global-scale geo-distributed SEA (Fig 3).
//!
//! The simulated topology has **core** sites that store the base data and
//! can answer exactly, and **edge** nodes that hold only models and answer
//! approximately. Analysts submit queries at edges; an edge answers
//! locally when its model's estimated error is below threshold and
//! otherwise pays a WAN round-trip to the core — whose exact answer also
//! trains both the edge's local agent and the core's *master* agent.
//!
//! Distributed model building (RT5-2) is realized through the master
//! agent: because training queries from *all* edges reach the core, the
//! master learns every active subspace; [`GeoSystem::sync_edge`] ships the
//! master's models to an edge (charged as WAN bytes), so a freshly joined
//! edge can filter queries it never trained on itself.
//!
//! The E10 experiment measures what the paper targets: "reduce WAN-based
//! inter-datacentre communication" — WAN bytes, mean response time, and
//! fallback rate as functions of the error threshold, against the
//! all-queries-to-core baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod polystore;
pub mod system;

pub use polystore::{ConstituentSystem, Polystore, PolystoreOutcome};
pub use system::{GeoConfig, GeoOutcome, GeoSource, GeoStats, GeoSystem};
