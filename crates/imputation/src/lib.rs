//! # sea-imputation
//!
//! Scalable missing-value imputation (P3, fourth bullet; \[36\]): filling
//! `NaN` attribute values from the values of similar complete records — a
//! preparatory data-quality task the paper lists among those processed
//! wastefully by BDAS/MapReduce-style engines.
//!
//! Two strategies over the same substrate, both reading donors in place
//! from the executor's node loop, [`sea_query::Executor::scatter`]:
//!
//! * [`fullscan_impute`] — the baseline: every incomplete record is
//!   compared against the *entire* table, scanned through the BDAS stack.
//! * [`GridImputer`] — the scalable operator: complete records are indexed
//!   once in a grid; each incomplete record fetches candidates only from
//!   the grid cells compatible with its observed attributes, then imputes
//!   from its k nearest candidates (distance over observed dimensions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod operator;

pub use operator::{fullscan_impute, GridImputer, ImputationOutcome};
