//! # sea-common
//!
//! Core types shared by every crate in the SEA workspace: multi-dimensional
//! points and records, query selection regions, aggregate operators, cost
//! accounting for the simulated distributed substrate (one price list, the
//! rates in [`cost`], that every [`CostMeter`] prices itself by), and the
//! workspace-wide error type.
//!
//! The SEA system (from Triantafillou, *Towards Intelligent Distributed Data
//! Systems for Scalable, Efficient and Accurate Analytics*, ICDCS 2018)
//! processes analytical queries of the form *selection region* + *analytical
//! operator*. This crate defines both halves ([`Region`], [`AggregateKind`])
//! as plain data so that every engine — the exact BDAS-style executor, the
//! approximate baselines, and the data-less SEA agent — answers exactly the
//! same queries.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cost;
pub mod error;
pub mod kernels;
pub mod point;
pub mod query;
pub mod record;
pub mod region;

pub use aggregate::{quantile_of, AggregateKey, AggregateKind, AnswerValue, BivariateStats};
pub use cost::{CostMeter, CostReport, ExecMode};
pub use error::SeaError;
pub use kernels::SelectionMask;
pub use point::Point;
pub use query::AnalyticalQuery;
pub use record::{Record, RecordId};
pub use region::{Ball, Rect, Region};

/// Result alias used across the SEA workspace.
pub type Result<T> = std::result::Result<T, SeaError>;
