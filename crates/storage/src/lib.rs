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
//! Which blocks a scan reads in either of the paper's processing
//! regimes ([`sea_common::ExecMode`], which also prices the layers each
//! engaged node crosses), and what reading them charges, is decided in
//! exactly one place: [`DataNode::charge_scan`].
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
pub use fault::FaultPlan;
pub use node::{Block, DataNode, ScanStats};
pub use partition::{NodeId, Partitioning};
