//! # sea-query
//!
//! The exact analytical-query executor over the simulated distributed
//! storage substrate, in both of the paper's processing regimes:
//!
//! * [`ExecMode::Bdas`](sea_common::ExecMode::Bdas) — MapReduce-style
//!   processing "across a (potentially) large number of data nodes"
//!   through the full BDAS layer stack (Fig 1): every node is engaged,
//!   every block read.
//! * [`ExecMode::Direct`](sea_common::ExecMode::Direct) —
//!   coordinator–cohort processing (RT3-2): a coordinator consults
//!   partition metadata and block zone maps, engages only the
//!   nodes/blocks the selection can touch, and pays only one layer
//!   crossing per engaged node.
//!
//! [`Executor::execute`] runs one query in either regime and
//! [`Executor::run`] a statement of several; [`Executor::execute_direct`]
//! and [`Executor::execute_batch`] are the two in the direct regime with
//! no trace parent. Both regimes return the identical exact answer; what
//! differs is the
//! [`sea_common::CostReport`]. That difference — measured, not asserted —
//! is the substance of experiments E1, E7 and E9. An executor carries no
//! rates: every bill, its own and an operator's
//! ([`Scatter::report`]), is priced by the one price list in
//! [`sea_common::cost`].
//!
//! Both regimes, one query or a batch, on healthy and faulted clusters
//! alike, share one scan path: the coordinator opens each engaged node's
//! scan ([`sea_storage::StorageCluster::open_scan`] — where an injected
//! fault is consumed, and where the executor's [`RetryPolicy`], replica
//! failover and [partial answers](Executor::with_partial_answers)
//! apply), asks storage's scan-cost rule
//! ([`sea_storage::DataNode::charge_scan`]) which blocks the scan reads
//! and what they cost, and reads those column blocks once, whatever the
//! number of aggregates over them, one pool item per serving copy: a
//! statement whose queries share one box folds each block through its
//! mask where it was masked, and one whose boxes differ (a batch of
//! differing boxes, such as perfbaseline's E1 batch) gathers the copy's
//! rows of their union once first. Either way each query gets one
//! partial aggregate per node, folded in record order. Answers, cost
//! reports and replayed telemetry are bit-identical at every
//! [`ExecPool`] size.
//!
//! Every other reader of the cluster — `sea-operators`' rank-join, kNN,
//! imputation, AQP comparators and ad hoc ML, the optimizer, the
//! polystore — goes through the same open step, [`Executor::scan_blocks`]:
//! same retry, failover, partial answers, charges and node telemetry,
//! handed back as borrowed [`BlockView`]s, not rows, in one node loop,
//! [`Executor::scatter`], that counts unread partitions and labels the
//! bill: an operator supplies only its per-node compute. Offline passes
//! (the optimizer's grid index and histograms, the kNN trees, the score
//! index, the sample) refuse a partially read table.
//!
//! Either regime can consult a [`sea_cache::SemanticCache`] before
//! scattering ([`Executor::with_cache`]): exact hits return the stored
//! answer, containment hits re-derive it from cached per-node column
//! fragments — the mask a scan folded through, kept over the node's own
//! columns, narrowed and folded again by the scan's own kernels —
//! without touching a single node, and misses execute normally and hand
//! those masks to the cache on the way out (experiment E19).
//!
//! Every [`QueryOutcome`] says how it was answered ([`Provenance`]):
//! the cache class where the probe decides it, retries and failovers in
//! the loop iteration that bumps the `query.retries` /
//! `query.failovers` counters — so the layers above (the pipeline, the
//! service's ledger, `sea-lang`'s results and EXPLAIN) read one carrier
//! instead of each reconstructing it from counters and cache
//! statistics, and say the same with telemetry recording or not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod pool;

pub use executor::{
    BlockView, CacheClass, Executor, Provenance, QueryOutcome, RetryPolicy, Scatter,
};
pub use pool::ExecPool;
