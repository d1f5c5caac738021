//! # sea-knn
//!
//! Distributed k-nearest-neighbour query processing (P3, second bullet;
//! \[33\]: "Scaling kNN queries (the right way)", three orders of magnitude
//! over MapReduce-style processing).
//!
//! * [`mapreduce_knn`] — the baseline: every node scans its full partition
//!   through the BDAS stack, computes a local top-k, and ships it to a
//!   coordinator for the final merge. Scales with *data size*.
//! * [`DistributedKnnIndex`] — the coordinator–cohort operator: per-node
//!   k-d trees (built offline) answer local kNN in logarithmic work; the
//!   coordinator visits nodes in ascending distance-to-partition order and
//!   stops as soon as the running k-th distance proves remaining nodes
//!   irrelevant. Scales with *k*, not data size.
//!
//! Both read the cluster through [`sea_query::Executor::scatter`].
//! The kNN join ([`knn_join`], RT2-1) is built on the cohort primitive,
//! on the workspace's one pool ([`sea_query::ExecPool`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod variants;

pub use distributed::{mapreduce_knn, DistributedKnnIndex, KnnOutcome};
pub use variants::knn_join;
