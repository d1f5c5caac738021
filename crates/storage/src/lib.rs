//! # sea-storage
//!
//! A simulated distributed storage back-end with first-class cost
//! accounting — the substrate every SEA engine runs on.
//!
//! The paper's diagnosis (§II-A) is that analytical queries over Big Data
//! Analytics Stacks are slow because they (1) cross many software layers on
//! every engaged node, (2) engage many data nodes, and (3) move lots of
//! data. This crate simulates exactly that substrate: a cluster of
//! [`DataNode`]s storing tables as block-granular partitions, where every
//! read charges a [`sea_common::CostMeter`] with disk, CPU, network and
//! layer-crossing costs. Engines built on top (the exact executor, the
//! baselines, the surgical-access operators) therefore expose *measurable*
//! efficiency differences instead of hand-waved ones.
//!
//! Two access paths model the paper's two processing regimes:
//!
//! * **BDAS path** ([`BDAS_LAYERS`] crossings per engaged node): what a
//!   MapReduce-style job pays on every node it touches.
//! * **Direct path** ([`DIRECT_LAYERS`] crossing): what a coordinator that
//!   "accesses directly the storage engine" (RT3-2) pays.
//!
//! Which blocks a scan reads on either path, and what reading them
//! charges, is decided in exactly one place: [`DataNode::charge_scan`].
//! There is no row scan here: a reader opens a partition
//! ([`StorageCluster::open_scan`]), reads the admitted blocks' columns and
//! records the scan ([`StorageCluster::record_scan`]) — `sea_query`'s
//! executor, for statements and operators alike. The one method that
//! returns rows is the frozen benchmark's adapter over those primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod node;
pub mod partition;

pub use cluster::{BlockCatalogEntry, StorageCluster, TableStats};
pub use fault::{FaultPlan, FaultState};
pub use node::{Block, ColumnRange, DataNode, ScanStats};
pub use partition::{NodeId, Partitioning};

/// Software layers a MapReduce-style BDAS job crosses per engaged node:
/// distributed FS, resource manager, execution engine, application layer.
pub const BDAS_LAYERS: u64 = 4;

/// Layers crossed when a coordinator addresses the storage engine directly.
pub const DIRECT_LAYERS: u64 = 1;
