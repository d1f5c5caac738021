//! # sea-rankjoin
//!
//! The distributed **rank-join** operator (P3, first bullet; \[30\]): join
//! two tables on a key and return the top-k result pairs by combined
//! score.
//!
//! Two implementations run on the same substrate:
//!
//! * [`mapreduce_rank_join`] — the state-of-the-art-before baseline: a
//!   MapReduce-style job that scans both tables on every node through the
//!   BDAS stack, shuffles *all* tuples to a coordinator by join key, joins,
//!   sorts, and truncates to k.
//! * [`surgical_rank_join`] — the statistical-index approach: a
//!   score-sorted [`ScoreIndex`] per table lets a coordinator pull tuples
//!   in descending-score batches, joining incrementally and stopping as
//!   soon as the classic rank-join threshold bound proves the top-k is
//!   final. Only the (typically very small) score prefix is ever read or
//!   moved — the paper reports up to six orders of magnitude saved in
//!   time, bandwidth, and money.
//!
//! Table layout convention: attribute 0 is the join key (integral values),
//! attribute 1 is the score; both strategies read those columns through
//! the executor's one scan, [`sea_query::Executor::scan_blocks`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod operator;

pub use index::ScoreIndex;
pub use operator::{mapreduce_rank_join, surgical_rank_join, JoinResult, RankJoinOutcome};
