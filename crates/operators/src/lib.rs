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
//!
//! ## Index structures
//!
//! The access structures of *big-data-less* analytics (P3 / RT2), in
//! [`index`]: structures that let an engine "surgically access the
//! smallest data subset required to compute the answer" instead of
//! scanning everything.
//!
//! * [`GridIndex`] — a uniform multi-dimensional grid mapping a selection
//!   to the rows registered in the cells it overlaps.
//! * [`KdTree`] — bulk-built k-d tree with range and kNN search; the
//!   per-node index behind the coordinator–cohort kNN operator (\[33\]).
//! * [`EquiDepthHistogram`] — equi-depth 1-D histogram; selectivity
//!   estimation for access-path selection (RT3).
//! * [`index::sample`] — reservoir and stratified samplers; the substrate
//!   of the BlinkDB-style AQP baseline (\[17\]).
//! * [`CrackerIndex`] — adaptive indexing over raw data (database
//!   cracking), the RT2-3 "raw data analytics" mechanism: the column
//!   self-organizes exactly where queries land, with zero up-front cost.
//!
//! ## Access-path selection
//!
//! Research theme RT3, *understand the alternatives and select optimal
//! processing methods* (P4), in [`optimizer`]:
//!
//! * [`optimizer::strategies`] — the two distributed processing paradigms
//!   the paper contrasts (RT3-2): MapReduce-style node-side partial
//!   aggregation versus a coordinator that surgically fetches matching
//!   records. Their costs cross over with selectivity: fetching wins when
//!   selections are narrow, node-side aggregation wins when they are
//!   wide. Both arms read the caller's executor's cluster — the index
//!   holds row positions, not a copy of the table, and is built by one
//!   billed scan — and the planner-side estimate of either path makes the
//!   charges its execution makes (the scan's from
//!   `DataNode::charge_scan`), so estimate and bill cannot drift apart.
//! * [`optimizer::learned`] — the learned selector (G6/O6): trained from
//!   measured executions of both strategies, it predicts per-strategy
//!   cost from query features (estimated selectivity, table size, node
//!   count) and picks the argmin on the fly. Evaluated by *regret* against
//!   the per-query oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;

use sea_common::RecordId;

pub mod adhoc;
pub mod baselines;
pub mod imputation;
pub mod index;
pub mod knn;
pub mod optimizer;
pub mod rankjoin;

pub use adhoc::{classify_subspace, cluster_subspace, regress_subspace, AdHocOutcome};
pub use baselines::{DataCanopy, LearnedAqp, SamplingAqp};
pub use imputation::{fullscan_impute, GridImputer, ImputationOutcome};
pub use index::crack::CrackerIndex;
pub use index::grid::GridIndex;
pub use index::histogram::EquiDepthHistogram;
pub use index::kdtree::KdTree;
pub use index::sample::{ReservoirSampler, StratifiedSample};
pub use knn::{knn_join, mapreduce_knn, DistributedKnnIndex, KnnOutcome};
pub use optimizer::learned::LearnedOptimizer;
pub use optimizer::strategies::{ExecutionEngines, QueryStrategy};
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
