//! # sea-baselines
//!
//! Reimplementations of the state-of-the-art systems §II of the paper
//! positions SEA against, all running on the same simulated substrate
//! (read through [`sea_query::Executor::scatter`]) so their costs and
//! accuracies are directly comparable to the agent's:
//!
//! * [`SamplingAqp`] — a BlinkDB-style engine (\[17\]): offline stratified
//!   samples, per-query scale-up estimation. Faithful to the paper's
//!   critique, its samples live *on the cluster* and every query pays BDAS
//!   layer crossings over the sample partitions.
//! * [`DataCanopy`] — a Data-Canopy-style semantic cache (\[20\]): per-chunk
//!   sufficient statistics built lazily from base data, reused across
//!   queries; storage grows with the touched portion of the data space.
//! * [`LearnedAqp`] — a DBL-style layer (\[19\]): learns a correction model
//!   for the sampling engine's residuals from occasionally-executed exact
//!   queries, so accuracy improves with use while inheriting the AQP
//!   engine's storage and access costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canopy;
pub mod dbl;
pub mod sampling;

pub use canopy::DataCanopy;
pub use dbl::LearnedAqp;
pub use sampling::SamplingAqp;
