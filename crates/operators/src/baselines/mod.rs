//! The §II comparators SEA is positioned against: [`SamplingAqp`]
//! (BlinkDB, \[17\]: stratified samples that live on the cluster, so every
//! query pays BDAS crossings), [`DataCanopy`] (Data Canopy, \[20\]: per-chunk
//! statistics cached on first touch, so storage grows with the workload)
//! and [`LearnedAqp`] (DBL, \[19\]: a correction model over the sampling
//! engine, inheriting its storage and access costs).

pub mod canopy;
pub mod dbl;
pub mod sampling;

pub use canopy::DataCanopy;
pub use dbl::LearnedAqp;
pub use sampling::SamplingAqp;
