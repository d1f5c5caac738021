//! Piecewise-linear 1-D regression: the representation of query-answer
//! *explanations* (RT4-2).
//!
//! The paper proposes that instead of a single scalar, an answer should be
//! accompanied by "a (piecewise) linear regression model showing how [the
//! answer] depends on the size of the subspace", which the analyst can
//! evaluate at arbitrary parameter values. This module fits such models by
//! greedy recursive splitting: split where the two-segment OLS fit reduces
//! squared error the most, stop when the reduction is below a tolerance or
//! segments would get too small.

use serde::{Deserialize, Serialize};

use sea_common::{Result, SeaError};

/// One linear segment over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Inclusive lower edge of the segment's domain.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last segment).
    pub hi: f64,
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
}

impl Segment {
    /// Evaluates the segment's line at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// A fitted piecewise-linear function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseLinear {
    segments: Vec<Segment>,
}

impl PiecewiseLinear {
    /// Fits a piecewise-linear model to `(x, y)` pairs.
    ///
    /// * `max_segments` caps the number of segments.
    /// * `min_points` is the minimum number of points per segment.
    /// * Splitting stops early when the best split reduces total squared
    ///   error by less than `tolerance` (absolute).
    ///
    /// # Errors
    ///
    /// Fewer than 2 points, mismatched lengths, or zero `max_segments`.
    pub fn fit(
        xs: &[f64],
        ys: &[f64],
        max_segments: usize,
        min_points: usize,
        tolerance: f64,
    ) -> Result<Self> {
        SeaError::check_dims(xs.len(), ys.len())?;
        if xs.len() < 2 {
            return Err(SeaError::Empty(
                "piecewise fit needs at least 2 points".into(),
            ));
        }
        if max_segments == 0 {
            return Err(SeaError::invalid("max_segments must be positive"));
        }
        let min_points = min_points.max(2);
        let mut pairs: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        // total_cmp (NaN-safe) with a y tie-break: duplicate x values keep
        // a deterministic order, so segment cuts don't depend on input order.
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));

        // Recursive greedy splitting over index ranges.
        let mut ranges = vec![(0usize, pairs.len())];
        loop {
            if ranges.len() >= max_segments {
                break;
            }
            // Find the range whose best split helps most.
            let mut best: Option<(usize, usize, f64)> = None; // (range idx, split at, gain)
            for (ri, &(s, e)) in ranges.iter().enumerate() {
                let base_err = sse(&pairs[s..e]);
                if e - s < 2 * min_points {
                    continue;
                }
                for cut in (s + min_points)..=(e - min_points) {
                    let err = sse(&pairs[s..cut]) + sse(&pairs[cut..e]);
                    let gain = base_err - err;
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((ri, cut, gain));
                    }
                }
            }
            match best {
                Some((ri, cut, gain)) if gain > tolerance => {
                    let (s, e) = ranges[ri];
                    ranges[ri] = (s, cut);
                    ranges.insert(ri + 1, (cut, e));
                }
                _ => break,
            }
        }
        ranges.sort_unstable();

        let mut segments = Vec::with_capacity(ranges.len());
        for (i, &(s, e)) in ranges.iter().enumerate() {
            let (slope, intercept) = ols(&pairs[s..e]);
            let lo = if i == 0 {
                f64::NEG_INFINITY
            } else {
                pairs[s].0
            };
            let hi = if i == ranges.len() - 1 {
                f64::INFINITY
            } else {
                pairs[e].0
            };
            segments.push(Segment {
                lo,
                hi,
                slope,
                intercept,
            });
        }
        Ok(PiecewiseLinear { segments })
    }

    /// Evaluates the model at `x` (extrapolating with the edge segments).
    pub fn eval(&self, x: f64) -> f64 {
        // The last segment extends to +inf, so only `x` = +inf or NaN
        // falls through to it.
        (self.segments.iter().find(|s| x < s.hi))
            .or(self.segments.last())
            .map_or(f64::NAN, |s| s.eval(x))
    }

    /// Mean squared error over a dataset.
    ///
    /// # Errors
    ///
    /// Mismatched lengths or empty input.
    pub fn mse(&self, xs: &[f64], ys: &[f64]) -> Result<f64> {
        SeaError::check_dims(xs.len(), ys.len())?;
        if xs.is_empty() {
            return Err(SeaError::Empty("MSE over no points".into()));
        }
        let sum: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| {
                let e = self.eval(x) - y;
                e * e
            })
            .sum();
        Ok(sum / xs.len() as f64)
    }
}

/// OLS line over sorted pairs; vertical data falls back to a constant.
fn ols(pairs: &[(f64, f64)]) -> (f64, f64) {
    let n = pairs.len() as f64;
    let sx: f64 = pairs.iter().map(|p| p.0).sum();
    let sy: f64 = pairs.iter().map(|p| p.1).sum();
    let sxx: f64 = pairs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pairs.iter().map(|p| p.0 * p.1).sum();
    let var = sxx - sx * sx / n;
    if var <= 1e-12 {
        return (0.0, sy / n);
    }
    let slope = (sxy - sx * sy / n) / var;
    (slope, (sy - slope * sx) / n)
}

fn sse(pairs: &[(f64, f64)]) -> f64 {
    let (slope, intercept) = ols(pairs);
    pairs
        .iter()
        .map(|&(x, y)| {
            let e = slope * x + intercept - y;
            e * e
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_x_values_never_panic_the_fit() {
        let xs = vec![0.0, 1.0, 2.0, f64::NAN, 4.0, 5.0];
        let ys = vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0];
        // total_cmp sorts the NaN to the end; the fit completes and the
        // finite prefix still evaluates.
        let m = PiecewiseLinear::fit(&xs, &ys, 4, 2, 1e-9).unwrap();
        assert!(!m.segments.is_empty());
        let _ = m.eval(1.5);
    }

    #[test]
    fn single_line_fits_one_segment() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 3.0).collect();
        let m = PiecewiseLinear::fit(&xs, &ys, 5, 3, 1e-6).unwrap();
        assert_eq!(m.segments.len(), 1, "no split needed");
        assert!((m.eval(25.0) - 53.0).abs() < 1e-9);
    }

    #[test]
    fn hinge_function_splits_once() {
        // y = 0 for x<50, y = 3(x−50) for x≥50.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x < 50.0 { 0.0 } else { 3.0 * (x - 50.0) })
            .collect();
        let m = PiecewiseLinear::fit(&xs, &ys, 4, 5, 1.0).unwrap();
        assert!(m.segments.len() >= 2, "hinge detected");
        assert!(m.eval(25.0).abs() < 5.0);
        assert!((m.eval(80.0) - 90.0).abs() < 10.0);
        assert!(m.mse(&xs, &ys).unwrap() < 50.0);
    }

    #[test]
    fn max_segments_caps_splitting() {
        let xs: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (x / 7.0).sin() * 100.0).collect();
        let m = PiecewiseLinear::fit(&xs, &ys, 3, 4, 0.0).unwrap();
        assert!(m.segments.len() <= 3);
    }

    #[test]
    fn segments_tile_the_line() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x.abs().sqrt() * 10.0).collect();
        let m = PiecewiseLinear::fit(&xs, &ys, 6, 5, 0.1).unwrap();
        let segs = &m.segments;
        assert_eq!(segs[0].lo, f64::NEG_INFINITY);
        assert_eq!(segs.last().unwrap().hi, f64::INFINITY);
        for w in segs.windows(2) {
            assert_eq!(w[0].hi, w[1].lo, "contiguous segments");
        }
    }

    #[test]
    fn constant_data_fits_flat() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let ys = vec![7.0, 7.0, 7.0, 7.0];
        let m = PiecewiseLinear::fit(&xs, &ys, 3, 2, 0.0).unwrap();
        assert!((m.eval(2.5) - 7.0).abs() < 1e-9);
        assert!((m.eval(100.0) - 7.0).abs() < 1e-9, "extrapolation");
    }

    #[test]
    fn vertical_data_does_not_explode() {
        let xs = vec![5.0, 5.0, 5.0];
        let ys = vec![1.0, 2.0, 3.0];
        let m = PiecewiseLinear::fit(&xs, &ys, 2, 2, 0.0).unwrap();
        assert!((m.eval(5.0) - 2.0).abs() < 1e-9, "mean of ys");
    }

    #[test]
    fn validations() {
        assert!(PiecewiseLinear::fit(&[1.0], &[1.0], 2, 2, 0.0).is_err());
        assert!(PiecewiseLinear::fit(&[1.0, 2.0], &[1.0], 2, 2, 0.0).is_err());
        assert!(PiecewiseLinear::fit(&[1.0, 2.0], &[1.0, 2.0], 0, 2, 0.0).is_err());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = vec![3.0, 1.0, 4.0, 0.0, 2.0];
        let ys: Vec<f64> = xs.iter().map(|&x| 5.0 * x).collect();
        let m = PiecewiseLinear::fit(&xs, &ys, 2, 2, 0.0).unwrap();
        assert!((m.eval(2.5) - 12.5).abs() < 1e-9);
    }
}
