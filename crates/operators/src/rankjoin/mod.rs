//! Top-k **rank-join** (P3, first bullet; \[30\], "up to six orders of
//! magnitude"): [`mapreduce_rank_join`] shuffles both tables, while
//! [`surgical_rank_join`] pulls descending-score batches from a
//! [`ScoreIndex`] per table until the rank-join threshold proves the
//! top-k final. Attribute 0 is the join key, attribute 1 the score.

pub mod index;
pub mod operator;

pub use index::ScoreIndex;
pub use operator::{mapreduce_rank_join, surgical_rank_join, JoinResult, RankJoinOutcome};
