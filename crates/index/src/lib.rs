//! # sea-index
//!
//! Access structures for *big-data-less* analytics (principle P3 / research
//! theme RT2): indexes, statistical structures, and samplers that let
//! engines "surgically access the smallest data subset required to compute
//! the answer" instead of scanning everything.
//!
//! * [`GridIndex`] — a uniform multi-dimensional grid with per-cell
//!   sufficient statistics; powers fast approximate aggregates and
//!   candidate pruning.
//! * [`KdTree`] — bulk-built k-d tree with range and kNN search; the
//!   per-node index behind the coordinator–cohort kNN operator (\[33\]).
//! * [`EquiDepthHistogram`] — equi-depth 1-D histogram; selectivity
//!   estimation for the optimizer (RT3).
//! * [`sample`] — reservoir and stratified samplers; the substrate of the
//!   BlinkDB-style AQP baseline (\[17\]).
//! * [`CrackerIndex`] — adaptive indexing over raw data (database
//!   cracking), the RT2-3 "raw data analytics" mechanism: the column
//!   self-organizes exactly where queries land, with zero up-front cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crack;
pub mod grid;
pub mod histogram;
pub mod kdtree;
pub mod sample;

pub use crack::CrackerIndex;
pub use grid::GridIndex;
pub use histogram::EquiDepthHistogram;
pub use kdtree::KdTree;
pub use sample::{ReservoirSampler, StratifiedSample};
