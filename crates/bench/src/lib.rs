//! # sea-bench
//!
//! The experiment harness: one runner per experiment in DESIGN.md's
//! experiment index (E1–E19 plus the A1 ablations), each regenerating
//! the corresponding table/claim of the paper on the simulated
//! substrate. The [`baseline`] module turns a fixed subset of them into
//! the continuous bench-regression harness behind the `perfbaseline`
//! binary.
//!
//! Every runner returns a [`report::Report`] — a small named-column table —
//! so results can be printed, asserted on, and recorded in EXPERIMENTS.md.
//! The `experiments` binary runs any or all of them:
//!
//! ```text
//! cargo run -p sea-bench --release --bin experiments          # all
//! cargo run -p sea-bench --release --bin experiments -- e4   # one
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod report;

pub use report::Report;
