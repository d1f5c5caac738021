//! The typed logical plan a statement parses to, plus its canonical
//! pretty-printer.
//!
//! The plan's aggregates are the engine's own [`AggregateKind`], and
//! their canonical text is `AggregateKind`'s `Display` in sea-common;
//! this printer adds the selection, mode and `EXPLAIN` around it.
//!
//! The printer and [`crate::parse`] are inverses: printing a plan and
//! re-parsing the text yields a structurally equal plan (property-tested
//! in `tests/props.rs`). Canonicalization happens at parse time — sugar
//! aggregates (`avg` → `mean`, `p95(d)` → `quantile(d, 0.95)`, …)
//! normalize to their canonical forms and range predicates sort by
//! dimension — so the printed form is a stable identity for a statement.

use std::fmt;

use sea_common::AggregateKind;

/// One per-dimension interval predicate: `d<dim> IN [lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePred {
    /// Constrained attribute index.
    pub dim: usize,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

/// A whole-point ball predicate: `WITHIN BALL((c0, …), radius)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BallPred {
    /// Ball center, one coordinate per table dimension.
    pub center: Vec<f64>,
    /// Ball radius (strictly positive).
    pub radius: f64,
}

/// The statement's selection region.
///
/// Mirrors [`sea_common::Region`]: a selection is an axis-aligned box
/// (conjunction of range predicates; unconstrained dimensions span the
/// table domain) *or* one ball — the parser rejects mixtures, which the
/// core region model cannot represent.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// No `WHERE` clause: the whole table domain.
    All,
    /// Conjunction of ranges, sorted by dimension, one per dimension.
    Ranges(Vec<RangePred>),
    /// A single ball over the full point.
    Ball(BallPred),
}

/// Execution-mode hint: who answers the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModeHint {
    /// Let the system decide (agent pipeline when attached, exact
    /// otherwise) — the default.
    #[default]
    Auto,
    /// Force exact execution against base data.
    Exact,
    /// Force the agent's prediction (never touches base data).
    Predict,
}

impl ModeHint {
    /// Lower-case keyword as written in statements and EXPLAIN output.
    pub fn keyword(&self) -> &'static str {
        match self {
            ModeHint::Auto => "auto",
            ModeHint::Exact => "exact",
            ModeHint::Predict => "predict",
        }
    }
}

/// A parsed statement: the typed logical plan the planner lowers into
/// [`sea_common::AnalyticalQuery`] executions.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Selected aggregates, in statement order (at least one).
    pub aggregates: Vec<AggregateKind>,
    /// The selection region.
    pub selection: Selection,
    /// Execution-mode hint (`WITH MODE …`, default [`ModeHint::Auto`]).
    pub mode: ModeHint,
    /// Whether the statement asked for an `EXPLAIN` report.
    pub explain: bool,
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, agg) in self.aggregates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{agg}")?;
        }
        match &self.selection {
            Selection::All => {}
            Selection::Ranges(ranges) => {
                write!(f, " WHERE ")?;
                for (i, r) in ranges.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "d{} IN [{:?}, {:?}]", r.dim, r.lo, r.hi)?;
                }
            }
            Selection::Ball(b) => {
                write!(f, " WHERE WITHIN BALL((")?;
                for (i, c) in b.center.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c:?}")?;
                }
                write!(f, "), {:?})", b.radius)?;
            }
        }
        if self.mode != ModeHint::Auto {
            write!(f, " WITH MODE {}", self.mode.keyword())?;
        }
        if self.explain {
            write!(f, " EXPLAIN")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_printing_is_stable() {
        let plan = LogicalPlan {
            aggregates: vec![
                AggregateKind::Mean { dim: 0 },
                AggregateKind::Quantile { dim: 1, q: 0.95 },
            ],
            selection: Selection::Ranges(vec![RangePred {
                dim: 0,
                lo: 2.5,
                hi: 10.0,
            }]),
            mode: ModeHint::Exact,
            explain: true,
        };
        assert_eq!(
            plan.to_string(),
            "SELECT mean(d0), quantile(d1, 0.95) WHERE d0 IN [2.5, 10.0] WITH MODE exact EXPLAIN"
        );
    }

    #[test]
    fn ball_and_default_mode_print_minimally() {
        let plan = LogicalPlan {
            aggregates: vec![AggregateKind::Count],
            selection: Selection::Ball(BallPred {
                center: vec![50.0, 50.0],
                radius: 10.0,
            }),
            mode: ModeHint::Auto,
            explain: false,
        };
        assert_eq!(
            plan.to_string(),
            "SELECT count() WHERE WITHIN BALL((50.0, 50.0), 10.0)"
        );
    }
}
