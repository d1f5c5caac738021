//! Analytical operators and their answers.
//!
//! §III-A of the paper: analytics over selected subspaces must cover both
//! *descriptive statistics* (count, mean, median, quantiles, …) and
//! *dependence statistics* (correlation, regression coefficients).
//!
//! [`AggregateKind`] is the workspace's one aggregate vocabulary: the
//! statement language parses to it and prints it (its `Display` is the
//! canonical sea-lang text), the executor folds it, and the agent's
//! model pools and the semantic cache key it by [`AggregateKind::key`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Result, SeaError};

/// The analytical operator applied to the records selected by a
/// [`crate::Region`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateKind {
    /// Number of records in the subspace.
    Count,
    /// Sum of attribute `dim` over the subspace.
    Sum {
        /// Attribute to sum.
        dim: usize,
    },
    /// Mean of attribute `dim`.
    Mean {
        /// Attribute to average.
        dim: usize,
    },
    /// Population variance of attribute `dim`.
    Variance {
        /// Attribute whose variance is taken.
        dim: usize,
    },
    /// Minimum of attribute `dim`.
    Min {
        /// Attribute to minimize over.
        dim: usize,
    },
    /// Maximum of attribute `dim`.
    Max {
        /// Attribute to maximize over.
        dim: usize,
    },
    /// Median of attribute `dim`.
    Median {
        /// Attribute whose median is taken.
        dim: usize,
    },
    /// `q`-quantile (0 ≤ q ≤ 1) of attribute `dim`, linear interpolation.
    Quantile {
        /// Attribute whose quantile is taken.
        dim: usize,
        /// Quantile level in `[0, 1]`.
        q: f64,
    },
    /// Pearson correlation coefficient between attributes `x` and `y`.
    Correlation {
        /// First attribute.
        x: usize,
        /// Second attribute.
        y: usize,
    },
    /// Slope and intercept of the OLS regression of `y` on `x` within the
    /// subspace; the answer is [`AnswerValue::Pair`] `(slope, intercept)`.
    Regression {
        /// Explanatory attribute.
        x: usize,
        /// Response attribute.
        y: usize,
    },
}

impl AggregateKind {
    /// Short stable operator name (no parameters): the grouping key used
    /// by cost ledgers and stats breakdowns, where `Sum{dim:1}` and
    /// `Sum{dim:2}` should aggregate into one `sum` bucket.
    pub fn label(&self) -> &'static str {
        match self {
            AggregateKind::Count => "count",
            AggregateKind::Sum { .. } => "sum",
            AggregateKind::Mean { .. } => "mean",
            AggregateKind::Variance { .. } => "variance",
            AggregateKind::Min { .. } => "min",
            AggregateKind::Max { .. } => "max",
            AggregateKind::Median { .. } => "median",
            AggregateKind::Quantile { .. } => "quantile",
            AggregateKind::Correlation { .. } => "correlation",
            AggregateKind::Regression { .. } => "regression",
        }
    }

    /// The attributes the operator reads: none for `Count`, `x` then
    /// `y` for the dependence statistics, its one `dim` otherwise.
    pub fn columns(&self) -> impl Iterator<Item = usize> {
        let pair = match *self {
            AggregateKind::Count => [None, None],
            AggregateKind::Sum { dim }
            | AggregateKind::Mean { dim }
            | AggregateKind::Variance { dim }
            | AggregateKind::Min { dim }
            | AggregateKind::Max { dim }
            | AggregateKind::Median { dim }
            | AggregateKind::Quantile { dim, .. } => [Some(dim), None],
            AggregateKind::Correlation { x, y } | AggregateKind::Regression { x, y } => {
                [Some(x), Some(y)]
            }
        };
        pair.into_iter().flatten()
    }

    /// The operator's total-order identity: one pool of agent models,
    /// or one list of cached answers, per key. A quantile level keys by
    /// its bits, so distinct levels never share a key.
    pub fn key(&self) -> AggregateKey {
        let (tag, a, b, qbits) = match *self {
            AggregateKind::Count => (0, 0, 0, 0),
            AggregateKind::Sum { dim } => (1, dim, 0, 0),
            AggregateKind::Mean { dim } => (2, dim, 0, 0),
            AggregateKind::Variance { dim } => (3, dim, 0, 0),
            AggregateKind::Min { dim } => (4, dim, 0, 0),
            AggregateKind::Max { dim } => (5, dim, 0, 0),
            AggregateKind::Median { dim } => (6, dim, 0, 0),
            AggregateKind::Quantile { dim, q } => (7, dim, 0, q.to_bits()),
            AggregateKind::Correlation { x, y } => (8, x, y, 0),
            AggregateKind::Regression { x, y } => (9, x, y, 0),
        };
        AggregateKey { tag, a, b, qbits }
    }

    /// Validates the operator against a dataset dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`SeaError::InvalidArgument`] when an attribute index is out
    /// of range or a quantile level lies outside `[0, 1]`.
    pub fn validate(&self, dims: usize) -> Result<()> {
        if let Some(d) = self.columns().find(|&d| d >= dims) {
            return Err(SeaError::invalid(format!(
                "attribute index {d} out of range for {dims}-dimensional data"
            )));
        }
        match *self {
            AggregateKind::Quantile { q, .. } if !(0.0..=1.0).contains(&q) => Err(
                SeaError::invalid(format!("quantile level {q} outside [0, 1]")),
            ),
            _ => Ok(()),
        }
    }

    /// Computes the aggregate over a set of records (all records are assumed
    /// to have already passed the selection).
    ///
    /// Empty-input semantics: `Count` is 0 and `Sum` is 0; every other
    /// operator returns [`SeaError::Empty`] because it has no meaningful
    /// value on an empty subspace.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] on empty input (except `Count`/`Sum`), and
    /// [`SeaError::InvalidArgument`] via [`AggregateKind::validate`] when an
    /// attribute index is out of range for the first record.
    pub fn compute<'a, I>(&self, records: I) -> Result<AnswerValue>
    where
        I: IntoIterator<Item = &'a crate::Record>,
    {
        let mut iter = records.into_iter().peekable();
        if let Some(first) = iter.peek() {
            self.validate(first.dims())?;
        } else {
            return match self {
                AggregateKind::Count => Ok(AnswerValue::Scalar(0.0)),
                AggregateKind::Sum { .. } => Ok(AnswerValue::Scalar(0.0)),
                _ => Err(SeaError::Empty("aggregate over empty subspace".into())),
            };
        }

        match *self {
            AggregateKind::Count => Ok(AnswerValue::Scalar(iter.count() as f64)),
            AggregateKind::Sum { dim } => Ok(AnswerValue::Scalar(iter.map(|r| r.value(dim)).sum())),
            AggregateKind::Mean { dim } => {
                let (n, s) = iter.fold((0u64, 0.0), |(n, s), r| (n + 1, s + r.value(dim)));
                Ok(AnswerValue::Scalar(s / n as f64))
            }
            AggregateKind::Variance { dim } => {
                // Welford's online algorithm for numerical stability.
                let mut n = 0u64;
                let mut mean = 0.0;
                let mut m2 = 0.0;
                for r in iter {
                    n += 1;
                    let x = r.value(dim);
                    let delta = x - mean;
                    mean += delta / n as f64;
                    m2 += delta * (x - mean);
                }
                Ok(AnswerValue::Scalar(m2 / n as f64))
            }
            AggregateKind::Min { dim } => Ok(AnswerValue::Scalar(
                iter.map(|r| r.value(dim)).fold(f64::INFINITY, f64::min),
            )),
            AggregateKind::Max { dim } => Ok(AnswerValue::Scalar(
                iter.map(|r| r.value(dim)).fold(f64::NEG_INFINITY, f64::max),
            )),
            AggregateKind::Median { dim } => quantile_of(iter.map(|r| r.value(dim)), 0.5),
            AggregateKind::Quantile { dim, q } => quantile_of(iter.map(|r| r.value(dim)), q),
            AggregateKind::Correlation { x, y } => {
                let stats = BivariateStats::from_records(iter, x, y);
                stats.correlation().map(AnswerValue::Scalar)
            }
            AggregateKind::Regression { x, y } => {
                let stats = BivariateStats::from_records(iter, x, y);
                let (slope, intercept) = stats.ols_line()?;
                Ok(AnswerValue::Pair(slope, intercept))
            }
        }
    }
}

/// The canonical sea-lang text of the operator (`count()`,
/// `quantile(d0, 0.95)`, `corr(d0, d1)`, …): what a statement's plan
/// prints and what parses back to the same operator.
impl fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AggregateKind::Count => write!(f, "count()"),
            AggregateKind::Sum { dim } => write!(f, "sum(d{dim})"),
            AggregateKind::Mean { dim } => write!(f, "mean(d{dim})"),
            AggregateKind::Variance { dim } => write!(f, "variance(d{dim})"),
            AggregateKind::Min { dim } => write!(f, "min(d{dim})"),
            AggregateKind::Max { dim } => write!(f, "max(d{dim})"),
            AggregateKind::Median { dim } => write!(f, "median(d{dim})"),
            AggregateKind::Quantile { dim, q } => write!(f, "quantile(d{dim}, {q:?})"),
            AggregateKind::Correlation { x, y } => write!(f, "corr(d{x}, d{y})"),
            AggregateKind::Regression { x, y } => write!(f, "regress(d{x}, d{y})"),
        }
    }
}

/// An [`AggregateKind`] as an ordered, hashable key (see
/// [`AggregateKind::key`]): a variant tag 0–9, the attributes `a`/`b`
/// it reads (0 where unused), and a quantile level's bits. Its serde
/// form is part of the agent's wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AggregateKey {
    tag: u8,
    a: usize,
    b: usize,
    qbits: u64,
}

/// The `q`-quantile of `values` (any order), linearly interpolated
/// between the two nearest ranks — the one quantile rule behind the
/// in-memory oracle and the distributed executor's merge.
///
/// # Errors
///
/// [`SeaError::Empty`] when `values` is empty.
pub fn quantile_of(values: impl Iterator<Item = f64>, q: f64) -> Result<AnswerValue> {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return Err(SeaError::Empty("quantile over empty subspace".into()));
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    // The two order statistics by selection, not a full sort. total_cmp:
    // NaNs order to the ends instead of panicking, so a poisoned input
    // yields a (NaN) answer rather than aborting the query path — and
    // values equal under it have equal bits, so which of them lands on
    // a rank cannot change the answer.
    let (_, &mut at_lo, above) = v.select_nth_unstable_by(lo, f64::total_cmp);
    let at_hi = if hi == lo {
        at_lo
    } else {
        // `hi == lo + 1`: the smallest value above rank `lo`.
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("pos <= len - 1, so rank hi exists")
    };
    Ok(AnswerValue::Scalar(at_lo + (at_hi - at_lo) * frac))
}

/// Running bivariate sufficient statistics: the basis of the correlation
/// and regression operators, and of the mergeable per-partition partial
/// aggregates used by the distributed executor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BivariateStats {
    /// Number of observations.
    pub n: u64,
    /// Σx.
    pub sum_x: f64,
    /// Σy.
    pub sum_y: f64,
    /// Σx².
    pub sum_xx: f64,
    /// Σy².
    pub sum_yy: f64,
    /// Σxy.
    pub sum_xy: f64,
}

impl BivariateStats {
    /// Accumulates one observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_yy += y * y;
        self.sum_xy += x * y;
    }

    /// Builds the statistics from record attributes `x` and `y`.
    pub fn from_records<'a, I>(records: I, x: usize, y: usize) -> Self
    where
        I: IntoIterator<Item = &'a crate::Record>,
    {
        let mut s = BivariateStats::default();
        for r in records {
            s.push(r.value(x), r.value(y));
        }
        s
    }

    /// Merges another partial aggregate into this one (the distributed
    /// combine step).
    pub fn merge(&mut self, other: &BivariateStats) {
        self.n += other.n;
        self.sum_x += other.sum_x;
        self.sum_y += other.sum_y;
        self.sum_xx += other.sum_xx;
        self.sum_yy += other.sum_yy;
        self.sum_xy += other.sum_xy;
    }

    /// Pearson correlation coefficient.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] with fewer than 2 observations, and
    /// [`SeaError::Model`] when either variable has zero variance.
    pub fn correlation(&self) -> Result<f64> {
        if self.n < 2 {
            return Err(SeaError::Empty(
                "correlation requires at least 2 observations".into(),
            ));
        }
        let n = self.n as f64;
        let cov = self.sum_xy - self.sum_x * self.sum_y / n;
        let var_x = self.sum_xx - self.sum_x * self.sum_x / n;
        let var_y = self.sum_yy - self.sum_y * self.sum_y / n;
        if var_x <= 0.0 || var_y <= 0.0 {
            return Err(SeaError::Model(
                "correlation undefined: a variable has zero variance".into(),
            ));
        }
        Ok(cov / (var_x * var_y).sqrt())
    }

    /// OLS regression line `(slope, intercept)` of y on x.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] with fewer than 2 observations, and
    /// [`SeaError::Model`] when x has zero variance.
    pub fn ols_line(&self) -> Result<(f64, f64)> {
        if self.n < 2 {
            return Err(SeaError::Empty(
                "regression requires at least 2 observations".into(),
            ));
        }
        let n = self.n as f64;
        let var_x = self.sum_xx - self.sum_x * self.sum_x / n;
        if var_x <= 0.0 {
            return Err(SeaError::Model(
                "regression undefined: x has zero variance".into(),
            ));
        }
        let cov = self.sum_xy - self.sum_x * self.sum_y / n;
        let slope = cov / var_x;
        let intercept = (self.sum_y - slope * self.sum_x) / n;
        Ok((slope, intercept))
    }
}

/// The answer to an analytical query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AnswerValue {
    /// A single scalar (count, mean, quantile, correlation, …).
    Scalar(f64),
    /// A pair, e.g. `(slope, intercept)` for regression queries.
    Pair(f64, f64),
}

impl AnswerValue {
    /// The scalar value, if this answer is a scalar.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            AnswerValue::Scalar(v) => Some(*v),
            AnswerValue::Pair(..) => None,
        }
    }

    /// The pair value, if this answer is a pair.
    pub fn as_pair(&self) -> Option<(f64, f64)> {
        match self {
            AnswerValue::Pair(a, b) => Some((*a, *b)),
            AnswerValue::Scalar(_) => None,
        }
    }

    /// Relative error of this (predicted) answer against a ground-truth
    /// answer, per component, with the usual `max(|truth|, ε)` guard.
    /// For pairs the maximum of the two component errors is returned.
    pub fn relative_error(&self, truth: &AnswerValue) -> f64 {
        fn rel(pred: f64, truth: f64) -> f64 {
            (pred - truth).abs() / truth.abs().max(1e-9)
        }
        match (self, truth) {
            (AnswerValue::Scalar(p), AnswerValue::Scalar(t)) => rel(*p, *t),
            (AnswerValue::Pair(p1, p2), AnswerValue::Pair(t1, t2)) => {
                rel(*p1, *t1).max(rel(*p2, *t2))
            }
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Record;

    fn recs(vals: &[[f64; 2]]) -> Vec<Record> {
        vals.iter()
            .enumerate()
            .map(|(i, v)| Record::new(i as u64, v.to_vec()))
            .collect()
    }

    #[test]
    fn count_sum_mean() {
        let r = recs(&[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]);
        assert_eq!(
            AggregateKind::Count.compute(&r).unwrap(),
            AnswerValue::Scalar(3.0)
        );
        assert_eq!(
            AggregateKind::Sum { dim: 0 }.compute(&r).unwrap(),
            AnswerValue::Scalar(6.0)
        );
        assert_eq!(
            AggregateKind::Mean { dim: 1 }.compute(&r).unwrap(),
            AnswerValue::Scalar(20.0)
        );
    }

    #[test]
    fn empty_semantics() {
        let empty: Vec<Record> = vec![];
        assert_eq!(
            AggregateKind::Count.compute(&empty).unwrap(),
            AnswerValue::Scalar(0.0)
        );
        assert_eq!(
            AggregateKind::Sum { dim: 0 }.compute(&empty).unwrap(),
            AnswerValue::Scalar(0.0)
        );
        assert!(matches!(
            AggregateKind::Mean { dim: 0 }.compute(&empty),
            Err(SeaError::Empty(_))
        ));
        assert!(matches!(
            AggregateKind::Median { dim: 0 }.compute(&empty),
            Err(SeaError::Empty(_))
        ));
    }

    #[test]
    fn nan_values_never_panic_order_statistics() {
        // A poisoned attribute must not abort the query path: quantiles
        // over NaN-laden data answer (possibly with NaN) instead of
        // panicking in the sort comparator.
        let r = recs(&[[1.0, 10.0], [f64::NAN, 20.0], [3.0, 30.0]]);
        let med = AggregateKind::Median { dim: 0 }.compute(&r).unwrap();
        assert!(med.as_scalar().is_some());
        let q = AggregateKind::Quantile { dim: 0, q: 0.9 }.compute(&r);
        assert!(q.is_ok());
        // The clean attribute is unaffected.
        assert_eq!(
            AggregateKind::Median { dim: 1 }.compute(&r).unwrap(),
            AnswerValue::Scalar(20.0)
        );
    }

    #[test]
    fn variance_matches_definition() {
        let r = recs(&[
            [2.0, 0.0],
            [4.0, 0.0],
            [4.0, 0.0],
            [4.0, 0.0],
            [5.0, 0.0],
            [5.0, 0.0],
            [7.0, 0.0],
            [9.0, 0.0],
        ]);
        // Classic example: population variance 4.
        let v = AggregateKind::Variance { dim: 0 }
            .compute(&r)
            .unwrap()
            .as_scalar()
            .unwrap();
        assert!((v - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let r = recs(&[[3.0, -1.0], [1.0, 5.0], [2.0, 2.0]]);
        assert_eq!(
            AggregateKind::Min { dim: 0 }.compute(&r).unwrap(),
            AnswerValue::Scalar(1.0)
        );
        assert_eq!(
            AggregateKind::Max { dim: 1 }.compute(&r).unwrap(),
            AnswerValue::Scalar(5.0)
        );
    }

    #[test]
    fn median_and_quantiles_interpolate() {
        let r = recs(&[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]);
        assert_eq!(
            AggregateKind::Median { dim: 0 }.compute(&r).unwrap(),
            AnswerValue::Scalar(2.5)
        );
        assert_eq!(
            AggregateKind::Quantile { dim: 0, q: 0.0 }
                .compute(&r)
                .unwrap(),
            AnswerValue::Scalar(1.0)
        );
        assert_eq!(
            AggregateKind::Quantile { dim: 0, q: 1.0 }
                .compute(&r)
                .unwrap(),
            AnswerValue::Scalar(4.0)
        );
        assert_eq!(
            AggregateKind::Quantile { dim: 0, q: 0.25 }
                .compute(&r)
                .unwrap(),
            AnswerValue::Scalar(1.75)
        );
    }

    #[test]
    fn correlation_perfect_lines() {
        let pos = recs(&[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]);
        let c = AggregateKind::Correlation { x: 0, y: 1 }
            .compute(&pos)
            .unwrap()
            .as_scalar()
            .unwrap();
        assert!((c - 1.0).abs() < 1e-12);
        let neg = recs(&[[1.0, -2.0], [2.0, -4.0], [3.0, -6.0]]);
        let c = AggregateKind::Correlation { x: 0, y: 1 }
            .compute(&neg)
            .unwrap()
            .as_scalar()
            .unwrap();
        assert!((c + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_degenerate_cases() {
        let flat = recs(&[[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]);
        assert!(matches!(
            AggregateKind::Correlation { x: 0, y: 1 }.compute(&flat),
            Err(SeaError::Model(_))
        ));
        let one = recs(&[[1.0, 1.0]]);
        assert!(matches!(
            AggregateKind::Correlation { x: 0, y: 1 }.compute(&one),
            Err(SeaError::Empty(_))
        ));
    }

    #[test]
    fn regression_recovers_line() {
        // y = 3x + 1 exactly.
        let r = recs(&[[0.0, 1.0], [1.0, 4.0], [2.0, 7.0], [3.0, 10.0]]);
        let (slope, intercept) = AggregateKind::Regression { x: 0, y: 1 }
            .compute(&r)
            .unwrap()
            .as_pair()
            .unwrap();
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bivariate_merge_equals_single_pass() {
        let all = recs(&[[1.0, 2.0], [2.0, 3.0], [3.0, 5.0], [4.0, 4.0], [5.0, 8.0]]);
        let whole = BivariateStats::from_records(&all, 0, 1);
        let mut merged = BivariateStats::from_records(&all[..2], 0, 1);
        merged.merge(&BivariateStats::from_records(&all[2..], 0, 1));
        assert_eq!(whole, merged);
        assert!((whole.correlation().unwrap() - merged.correlation().unwrap()).abs() < 1e-15);
    }

    #[test]
    fn validate_rejects_bad_args() {
        assert!(AggregateKind::Mean { dim: 3 }.validate(3).is_err());
        assert!(AggregateKind::Quantile { dim: 0, q: 1.5 }
            .validate(1)
            .is_err());
        assert!(AggregateKind::Correlation { x: 0, y: 2 }
            .validate(2)
            .is_err());
        assert!(AggregateKind::Regression { x: 0, y: 1 }.validate(2).is_ok());
    }

    #[test]
    fn relative_error() {
        let p = AnswerValue::Scalar(110.0);
        let t = AnswerValue::Scalar(100.0);
        assert!((p.relative_error(&t) - 0.1).abs() < 1e-12);
        let pp = AnswerValue::Pair(1.0, 2.0);
        let tt = AnswerValue::Pair(1.0, 1.0);
        assert!((pp.relative_error(&tt) - 1.0).abs() < 1e-12);
        assert_eq!(p.relative_error(&tt), f64::INFINITY);
    }
}
