//! # sea-graph
//!
//! Graph analytics substrate for P3's third bullet: a labelled-graph
//! database, a VF2-style subgraph-isomorphism matcher, and a
//! GraphCache-style **subgraph-query semantic cache** (\[34\], \[35\]) that
//! turns past query answers into candidate pruning for future queries —
//! the paper reports "performance improvements up to 40X".
//!
//! The database model follows the EDBT GraphCache setting: a collection of
//! many (small-to-medium) labelled data graphs; a query is a pattern graph
//! and its answer is the set of database graphs containing the pattern.
//!
//! Cache semantics:
//! * **Exact hit** — the same pattern was answered before: zero
//!   verifications.
//! * **Subgraph hit** — a cached pattern `P'` is a subgraph of the query
//!   `P`: every answer of `P` is an answer of `P'`, so only `P'`'s answer
//!   set needs verification.
//! * **Supergraph hit** — a cached `P'` is a supergraph of `P`: `P'`'s
//!   answers are guaranteed answers of `P` and skip verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod db;
pub mod generate;
pub mod graph;
pub mod iso;

pub use cache::GraphCache;
pub use db::{GraphDb, QueryStats};
pub use generate::GraphGenerator;
pub use graph::Graph;
pub use iso::subgraph_isomorphic;
