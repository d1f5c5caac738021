//! Linear regression: batch (normal equations with optional ridge) and
//! online (recursive least squares).
//!
//! The SEA agent's per-quantum answer models are linear in the query's
//! geometry features (centre and extents); they are trained incrementally
//! as training queries stream in, which is exactly what recursive least
//! squares provides — `O(d²)` per update, no re-solve.

use serde::{Deserialize, Serialize};

use sea_common::{Result, SeaError};

use crate::linalg::{dot, solve};
use crate::Regressor;

/// A fitted linear model `y = w·x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    weights: Vec<f64>,
    intercept: f64,
}

impl LinearModel {
    /// Fits OLS (ridge when `lambda > 0`) on rows `xs` with targets `ys`.
    /// The intercept is never regularized.
    ///
    /// # Errors
    ///
    /// Empty input, mismatched lengths, inconsistent feature dimensions, or
    /// a singular (and unregularized) design matrix.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Self> {
        if xs.is_empty() {
            return Err(SeaError::Empty("linear fit with no rows".into()));
        }
        SeaError::check_dims(xs.len(), ys.len())?;
        let d = xs[0].len();
        for x in xs {
            SeaError::check_dims(d, x.len())?;
        }
        if lambda.is_nan() || lambda < 0.0 {
            return Err(SeaError::invalid("lambda must be non-negative"));
        }
        // Augmented design: [x, 1]; normal equations (XᵀX + λI') w = Xᵀy,
        // with I' zero on the intercept coordinate.
        let n = d + 1;
        let mut xtx = vec![0.0; n * n];
        let mut xty = vec![0.0; n];
        for (x, &y) in xs.iter().zip(ys) {
            for i in 0..d {
                for j in 0..d {
                    xtx[i * n + j] += x[i] * x[j];
                }
                xtx[i * n + d] += x[i];
                xtx[d * n + i] += x[i];
                xty[i] += x[i] * y;
            }
            xtx[d * n + d] += 1.0;
            xty[d] += y;
        }
        for i in 0..d {
            xtx[i * n + i] += lambda;
        }
        let w = solve(xtx, xty, n)?;
        Ok(LinearModel {
            intercept: w[d],
            weights: w[..d].to_vec(),
        })
    }

    /// The feature weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Number of features.
    pub fn dims(&self) -> usize {
        self.weights.len()
    }
}

impl Regressor for LinearModel {
    fn predict(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.intercept
    }
}

/// Recursive least squares with exponential forgetting: an online ridge
/// regression whose per-update cost is `O(d²)`.
///
/// The forgetting factor `lambda_forget ∈ (0, 1]` discounts old
/// observations (1.0 = never forget); values slightly below 1 let the
/// model track drifting targets — the mechanism the agent's model
/// maintenance (RT1-4) uses to adapt without retraining from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecursiveLeastSquares {
    /// Inverse covariance estimate, row-major (d+1)².
    p: Vec<f64>,
    /// Weights including trailing intercept.
    w: Vec<f64>,
    d: usize,
    forget: f64,
    /// Observations absorbed. Serialized with the model, so a shipped
    /// agent's byte count (E10's WAN bill) includes it.
    n_updates: u64,
}

impl RecursiveLeastSquares {
    /// Creates an RLS learner over `dims` features.
    ///
    /// `delta` scales the initial inverse covariance (larger = weaker
    /// prior, faster initial adaptation); `forget` is the exponential
    /// forgetting factor in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Invalid `delta` or `forget`.
    pub fn new(dims: usize, delta: f64, forget: f64) -> Result<Self> {
        if delta.is_nan() || delta <= 0.0 {
            return Err(SeaError::invalid("delta must be positive"));
        }
        if forget.is_nan() || forget <= 0.0 || forget > 1.0 {
            return Err(SeaError::invalid("forget factor must be in (0, 1]"));
        }
        let n = dims + 1;
        let mut p = vec![0.0; n * n];
        for i in 0..n {
            p[i * n + i] = delta;
        }
        Ok(RecursiveLeastSquares {
            p,
            w: vec![0.0; n],
            d: dims,
            forget,
            n_updates: 0,
        })
    }

    /// Number of features.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Absorbs one observation `(x, y)`.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    #[allow(clippy::needless_range_loop)] // textbook RLS matrix algebra
    pub fn update(&mut self, x: &[f64], y: f64) -> Result<()> {
        SeaError::check_dims(self.d, x.len())?;
        let n = self.d + 1;
        // Augmented feature vector with intercept.
        let mut xa = Vec::with_capacity(n);
        xa.extend_from_slice(x);
        xa.push(1.0);

        // k = P x / (λ + xᵀ P x)
        let mut px = vec![0.0; n];
        for i in 0..n {
            px[i] = (0..n).map(|j| self.p[i * n + j] * xa[j]).sum();
        }
        let denom = self.forget + dot(&xa, &px);
        let k: Vec<f64> = px.iter().map(|v| v / denom).collect();

        // w += k (y − wᵀx)
        let err = y - dot(&self.w, &xa);
        for i in 0..n {
            self.w[i] += k[i] * err;
        }

        // P = (P − k xᵀ P) / λ
        let mut xp = vec![0.0; n];
        for j in 0..n {
            xp[j] = (0..n).map(|i| xa[i] * self.p[i * n + j]).sum();
        }
        for i in 0..n {
            for j in 0..n {
                self.p[i * n + j] = (self.p[i * n + j] - k[i] * xp[j]) / self.forget;
            }
        }
        self.n_updates += 1;
        Ok(())
    }

    /// The current linear model (weights + intercept).
    pub fn model(&self) -> LinearModel {
        LinearModel {
            weights: self.w[..self.d].to_vec(),
            intercept: self.w[self.d],
        }
    }
}

impl Regressor for RecursiveLeastSquares {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut acc = self.w[self.d];
        for (wi, xi) in self.w[..self.d].iter().zip(x) {
            acc += wi * xi;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plane(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 2 x0 − 3 x1 + 5, deterministic pseudo-noise.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let x0 = (i % 17) as f64;
            let x1 = (i % 23) as f64 * 0.5;
            let noise = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
            xs.push(vec![x0, x1]);
            ys.push(2.0 * x0 - 3.0 * x1 + 5.0 + noise * 0.01);
        }
        (xs, ys)
    }

    #[test]
    fn ols_recovers_exact_plane() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![5.0, 7.0, 2.0, 4.0]; // y = 2x0 − 3x1 + 5
        let m = LinearModel::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.weights()[0] - 2.0).abs() < 1e-9);
        assert!((m.weights()[1] + 3.0).abs() < 1e-9);
        assert!((m.intercept() - 5.0).abs() < 1e-9);
        assert!((m.predict(&[2.0, 2.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ols_near_recovery_with_noise() {
        let (xs, ys) = noisy_plane(500);
        let m = LinearModel::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.weights()[0] - 2.0).abs() < 0.01);
        assert!((m.weights()[1] + 3.0).abs() < 0.01);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let (xs, ys) = noisy_plane(100);
        let ols = LinearModel::fit(&xs, &ys, 0.0).unwrap();
        let ridge = LinearModel::fit(&xs, &ys, 1000.0).unwrap();
        assert!(
            ridge.weights()[0].abs() < ols.weights()[0].abs(),
            "ridge {:?} vs ols {:?}",
            ridge.weights(),
            ols.weights()
        );
    }

    #[test]
    fn degenerate_design_needs_ridge() {
        // Perfectly collinear features.
        let xs = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(LinearModel::fit(&xs, &ys, 0.0).is_err());
        assert!(LinearModel::fit(&xs, &ys, 1e-3).is_ok());
    }

    #[test]
    fn fit_validations() {
        assert!(LinearModel::fit(&[], &[], 0.0).is_err());
        assert!(LinearModel::fit(&[vec![1.0]], &[1.0, 2.0], 0.0).is_err());
        assert!(LinearModel::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.0).is_err());
        assert!(LinearModel::fit(&[vec![1.0]], &[1.0], -1.0).is_err());
    }

    #[test]
    fn rls_converges_to_plane() {
        let (xs, ys) = noisy_plane(2000);
        let mut rls = RecursiveLeastSquares::new(2, 1000.0, 1.0).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            rls.update(x, y).unwrap();
        }
        let m = rls.model();
        assert!((m.weights()[0] - 2.0).abs() < 0.01, "{:?}", m);
        assert!((m.weights()[1] + 3.0).abs() < 0.01);
        assert!((m.intercept() - 5.0).abs() < 0.05);
        assert_eq!(rls.n_updates, 2000);
    }

    #[test]
    fn rls_matches_batch_ols_closely() {
        let (xs, ys) = noisy_plane(300);
        let batch = LinearModel::fit(&xs, &ys, 0.0).unwrap();
        let mut rls = RecursiveLeastSquares::new(2, 1e6, 1.0).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            rls.update(x, y).unwrap();
        }
        let online = rls.model();
        for (a, b) in online.weights().iter().zip(batch.weights()) {
            assert!((a - b).abs() < 1e-3, "online {online:?} batch {batch:?}");
        }
    }

    #[test]
    fn rls_with_forgetting_tracks_drift() {
        // Target flips from y = x to y = −x halfway.
        let mut rls = RecursiveLeastSquares::new(1, 100.0, 0.95).unwrap();
        for i in 0..500 {
            let x = (i % 10) as f64;
            rls.update(&[x], x).unwrap();
        }
        for i in 0..500 {
            let x = (i % 10) as f64;
            rls.update(&[x], -x).unwrap();
        }
        let m = rls.model();
        assert!(
            (m.weights()[0] + 1.0).abs() < 0.05,
            "tracked the flip: {m:?}"
        );

        // Without forgetting it lags behind.
        let mut no_forget = RecursiveLeastSquares::new(1, 100.0, 1.0).unwrap();
        for i in 0..500 {
            let x = (i % 10) as f64;
            no_forget.update(&[x], x).unwrap();
        }
        for i in 0..500 {
            let x = (i % 10) as f64;
            no_forget.update(&[x], -x).unwrap();
        }
        let lagging = no_forget.model();
        assert!(
            lagging.weights()[0] > m.weights()[0],
            "no-forget lags: {lagging:?}"
        );
    }

    #[test]
    fn rls_validations() {
        assert!(RecursiveLeastSquares::new(2, 0.0, 1.0).is_err());
        assert!(RecursiveLeastSquares::new(2, 1.0, 0.0).is_err());
        assert!(RecursiveLeastSquares::new(2, 1.0, 1.1).is_err());
        let mut rls = RecursiveLeastSquares::new(2, 1.0, 1.0).unwrap();
        assert!(rls.update(&[1.0], 1.0).is_err());
    }
}
