//! Distributed **k-nearest neighbours** (P3, second bullet; \[33\], "three
//! orders of magnitude"): [`mapreduce_knn`] merges every node's local
//! top-k, while [`DistributedKnnIndex`] visits per-node k-d trees nearest
//! partition first and stops once the k-th distance rules the rest out.
//! [`knn_join`] (RT2-1) runs the latter per probe on the
//! [`sea_query::ExecPool`].

pub mod distributed;
pub mod variants;

pub use distributed::{mapreduce_knn, DistributedKnnIndex, KnnOutcome};
pub use variants::knn_join;
