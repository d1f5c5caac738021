//! k-nearest-neighbour regression.
//!
//! The query-driven learning line of work the paper builds on (\[26\], \[29\])
//! predicts answers for unseen queries from the answers of the *nearest
//! previously-executed queries* in query space. This module provides that
//! estimator: distance-weighted kNN regression over stored
//! `(query-vector, answer)` pairs.

use sea_common::{Result, SeaError};

use crate::Regressor;

/// Distance-weighted k-nearest-neighbour regressor.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnRegressor {
    k: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    dims: usize,
}

impl KnnRegressor {
    /// Creates an empty regressor using `k` neighbours over `dims`-dim
    /// features.
    ///
    /// # Errors
    ///
    /// `k == 0` or `dims == 0`.
    pub fn new(dims: usize, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(SeaError::invalid("k must be positive"));
        }
        if dims == 0 {
            return Err(SeaError::invalid("dims must be positive"));
        }
        Ok(KnnRegressor {
            k,
            xs: Vec::new(),
            ys: Vec::new(),
            dims,
        })
    }

    /// Builds a regressor from training pairs.
    ///
    /// # Errors
    ///
    /// As [`KnnRegressor::new`] plus length/dimension mismatches.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], k: usize) -> Result<Self> {
        let Some(first) = xs.first() else {
            return Err(SeaError::Empty("kNN fit with no rows".into()));
        };
        let mut model = KnnRegressor::new(first.len(), k)?;
        SeaError::check_dims(xs.len(), ys.len())?;
        for (x, &y) in xs.iter().zip(ys) {
            model.push(x, y)?;
        }
        Ok(model)
    }

    /// Adds one training pair.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn push(&mut self, x: &[f64], y: f64) -> Result<()> {
        SeaError::check_dims(self.dims, x.len())?;
        self.xs.push(x.to_vec());
        self.ys.push(y);
        Ok(())
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Prediction plus the mean distance to the used neighbours — a
    /// confidence signal (far neighbours = extrapolation = less trust).
    /// Returns `None` when no pairs are stored.
    fn predict_with_distance(&self, x: &[f64]) -> Option<(f64, f64)> {
        if self.xs.is_empty() {
            return None;
        }
        let mut d: Vec<(f64, f64)> = self
            .xs
            .iter()
            .zip(&self.ys)
            .map(|(xi, &yi)| {
                let dist: f64 = xi
                    .iter()
                    .zip(x)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                (dist, yi)
            })
            .collect();
        let k = self.k.min(d.len());
        // total_cmp (NaN-safe) with a value tie-break so equidistant
        // neighbours partition deterministically.
        d.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let neighbours = &d[..k];
        // Inverse-distance weights with an epsilon guard; an exact match
        // dominates completely.
        let mut num = 0.0;
        let mut den = 0.0;
        let mut mean_dist = 0.0;
        for &(dist, y) in neighbours {
            let w = 1.0 / (dist + 1e-9);
            num += w * y;
            den += w;
            mean_dist += dist;
        }
        Some((num / den, mean_dist / k as f64))
    }
}

impl Regressor for KnnRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        self.predict_with_distance(x).map_or(0.0, |(y, _)| y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_returns_stored_value() {
        let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let ys = vec![10.0, 20.0, 30.0];
        let m = KnnRegressor::fit(&xs, &ys, 1).unwrap();
        assert!((m.predict(&[1.0, 1.0]) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn interpolates_between_neighbours() {
        let xs = vec![vec![0.0], vec![10.0]];
        let ys = vec![0.0, 100.0];
        let m = KnnRegressor::fit(&xs, &ys, 2).unwrap();
        let mid = m.predict(&[5.0]);
        assert!((mid - 50.0).abs() < 1.0, "got {mid}");
        // Nearer to 10 → pulled toward 100.
        let near = m.predict(&[8.0]);
        assert!(near > 70.0, "got {near}");
    }

    #[test]
    fn distance_signal_grows_with_extrapolation() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let m = KnnRegressor::fit(&xs, &ys, 3).unwrap();
        let (_, near) = m.predict_with_distance(&[5.0]).unwrap();
        let (_, far) = m.predict_with_distance(&[100.0]).unwrap();
        assert!(far > near * 10.0, "near {near}, far {far}");
    }

    #[test]
    fn linear_function_is_learned_locally() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + 1.0).collect();
        let m = KnnRegressor::fit(&xs, &ys, 3).unwrap();
        for probe in [0.55, 3.33, 7.77] {
            let pred = m.predict(&[probe]);
            assert!(
                (pred - (3.0 * probe + 1.0)).abs() < 0.35,
                "at {probe}: {pred}"
            );
        }
    }

    #[test]
    fn incremental_push() {
        let mut m = KnnRegressor::new(1, 2).unwrap();
        assert!(m.is_empty());
        assert!(m.predict_with_distance(&[0.0]).is_none());
        m.push(&[0.0], 5.0).unwrap();
        assert_eq!(m.len(), 1);
        // k=2 but only 1 stored: still answers.
        assert!((m.predict(&[0.1]) - 5.0).abs() < 1e-6);
        assert!(m.push(&[0.0, 1.0], 1.0).is_err());
    }

    #[test]
    fn nan_training_points_never_panic_and_lose_to_finite_neighbours() {
        let xs = vec![vec![0.0], vec![10.0], vec![f64::NAN]];
        let ys = vec![0.0, 100.0, 1e9];
        let m = KnnRegressor::fit(&xs, &ys, 2).unwrap();
        // The NaN point's distance is NaN; total_cmp sorts it after every
        // finite distance, so the two finite neighbours answer.
        let mid = m.predict(&[5.0]);
        assert!((mid - 50.0).abs() < 1.0, "got {mid}");
        // A NaN probe can't be ranked meaningfully, but it must not panic.
        let (y, _) = m.predict_with_distance(&[f64::NAN]).unwrap();
        assert!(!y.is_infinite());
    }

    #[test]
    fn empty_store_predicts_neutrally() {
        let m = KnnRegressor::new(1, 3).unwrap();
        assert!(m.predict_with_distance(&[1.0]).is_none());
        assert_eq!(m.predict(&[1.0]), 0.0);
    }

    #[test]
    fn validations() {
        assert!(KnnRegressor::new(1, 0).is_err());
        assert!(KnnRegressor::new(0, 1).is_err());
        assert!(KnnRegressor::fit(&[], &[], 1).is_err());
        assert!(KnnRegressor::fit(&[vec![1.0]], &[1.0, 2.0], 1).is_err());
    }
}
