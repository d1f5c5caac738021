//! # sea-operators
//!
//! Every operator the paper sets beside the exact aggregate executor, one
//! module each. All read the cluster through one data-access step, the
//! executor's node loop [`sea_query::Executor::scatter`], which engages
//! the nodes, reads each one's block views (retry, failover, partial
//! answers), bills the scan and counts unread partitions: an operator
//! supplies only its per-node compute and what it ships.
//!
//! The paper's operator claims are relative factors, so each operator
//! comes with its baseline on the same substrate. The **MapReduce-style
//! baseline** engages every node through the full BDAS layer stack, scans
//! every partition and ships what it found to a coordinator: its cost
//! scales with the data. The **surgical operator** reads only what an
//! index, a partition's bounds or the blocks' zone maps say can matter:
//! its cost scales with the answer. An unread partition labels an answer
//! partial; an offline pass (an index, a sample) refuses instead, since a
//! structure over part of the table would answer short.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;

use sea_common::RecordId;

pub mod adhoc;
pub mod baselines;
pub mod imputation;
pub mod knn;
pub mod rankjoin;

pub use adhoc::{classify_subspace, cluster_subspace, regress_subspace, AdHocOutcome};
pub use baselines::{DataCanopy, LearnedAqp, SamplingAqp};
pub use imputation::{fullscan_impute, GridImputer, ImputationOutcome};
pub use knn::{knn_join, mapreduce_knn, DistributedKnnIndex, KnnOutcome};
pub use rankjoin::{
    mapreduce_rank_join, surgical_rank_join, JoinResult, RankJoinOutcome, ScoreIndex,
};

/// The nearest-first order over candidates keyed `(distance, id)`:
/// ascending distance, ties to the lower id — a top-k must not depend on
/// the storage order of equidistant rows — and a NaN distance last
/// (`total_cmp`), not a panic.
fn nearest_first<T>(key: impl Fn(&T) -> (f64, RecordId)) -> impl Fn(&T, &T) -> Ordering {
    move |a, b| {
        let ((da, ia), (db, ib)) = (key(a), key(b));
        da.total_cmp(&db).then(ia.cmp(&ib))
    }
}
