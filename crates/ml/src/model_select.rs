//! Inference-model selection (RT3-3; \[48\]).
//!
//! "Even if said models derive from the same family, different models have
//! been found to be best for different data subspaces." This module picks,
//! per subspace, among the crate's three regressor families by k-fold
//! cross-validated MSE.

use sea_common::{Result, SeaError};

use crate::{kfold_mse, GbtParams, GradientBoostedTrees, KnnRegressor, LinearModel, Regressor};

/// The selected model family, with the fitted model.
#[derive(Debug)]
pub enum ModelChoice {
    /// Ridge linear regression.
    Linear(LinearModel),
    /// Distance-weighted kNN regression.
    Knn(KnnRegressor),
    /// Gradient-boosted trees.
    Boosted(GradientBoostedTrees),
}

impl ModelChoice {
    /// The family name (for reports).
    pub fn family(&self) -> &'static str {
        match self {
            ModelChoice::Linear(_) => "linear",
            ModelChoice::Knn(_) => "knn",
            ModelChoice::Boosted(_) => "boosted",
        }
    }
}

impl Regressor for ModelChoice {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            ModelChoice::Linear(m) => m.predict(x),
            ModelChoice::Knn(m) => m.predict(x),
            ModelChoice::Boosted(m) => m.predict(x),
        }
    }
}

/// Cross-validates the three families on `(xs, ys)` and returns the best,
/// fitted on the full data, plus the per-family CV-MSE list
/// `[(family, mse); 3]`.
///
/// # Errors
///
/// Too few rows (needs at least `folds` rows), or model-fitting failures.
pub fn select_model(
    xs: &[Vec<f64>],
    ys: &[f64],
    folds: usize,
) -> Result<(ModelChoice, Vec<(&'static str, f64)>)> {
    if xs.len() < folds.max(4) {
        return Err(SeaError::invalid("too few rows for model selection"));
    }
    let gbt_params = GbtParams {
        n_trees: 60,
        max_depth: 3,
        learning_rate: 0.15,
        min_leaf: 2,
    };
    let lin = kfold_mse(xs, ys, folds, |tx, ty| LinearModel::fit(tx, ty, 1e-6))?;
    let knn = kfold_mse(xs, ys, folds, |tx, ty| KnnRegressor::fit(tx, ty, 5))?;
    let gbt = kfold_mse(xs, ys, folds, |tx, ty| {
        GradientBoostedTrees::fit(tx, ty, &gbt_params)
    })?;
    let scores = vec![("linear", lin), ("knn", knn), ("boosted", gbt)];
    // `total_cmp`: a NaN score (a fold whose targets or predictions were
    // NaN) loses to every finite one instead of panicking.
    let best = (scores.iter())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or_else(|| SeaError::Empty("no model family was scored".into()))?;
    let choice = match best.0 {
        "linear" => ModelChoice::Linear(LinearModel::fit(xs, ys, 1e-6)?),
        "knn" => ModelChoice::Knn(KnnRegressor::fit(xs, ys, 5)?),
        _ => ModelChoice::Boosted(GradientBoostedTrees::fit(xs, ys, &gbt_params)?),
    };
    Ok((choice, scores))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_fold_score_loses_instead_of_panicking() {
        // NaN targets make every family's score NaN.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        let (_, scores) = select_model(&xs, &[f64::NAN; 20], 4).unwrap();
        assert!(scores.iter().all(|s| s.1.is_nan()), "{scores:?}");
    }

    #[test]
    fn a_nan_feature_returns_instead_of_panicking() {
        let mut xs: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        xs[7][0] = f64::NAN;
        let ys: Vec<f64> = (0..20).map(f64::from).collect();
        let _ = select_model(&xs, &ys, 4);
    }

    #[test]
    fn linear_data_selects_linear() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0).collect();
        let (choice, scores) = select_model(&xs, &ys, 5).unwrap();
        assert_eq!(choice.family(), "linear", "{scores:?}");
    }

    #[test]
    fn step_data_prefers_trees_or_knn() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                if ((x[0] / 25.0) as u64).is_multiple_of(2) {
                    0.0
                } else {
                    10.0
                }
            })
            .collect();
        let (choice, scores) = select_model(&xs, &ys, 5).unwrap();
        assert_ne!(choice.family(), "linear", "{scores:?}");
    }

    #[test]
    fn selected_model_predicts_well() {
        let xs: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![(i % 15) as f64, (i / 15) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + x[1]).collect();
        let (choice, _) = select_model(&xs, &ys, 5).unwrap();
        let pred = choice.predict(&[7.0, 4.0]);
        assert!((pred - 18.0).abs() < 1.0, "got {pred}");
    }

    #[test]
    fn different_subspaces_pick_different_families() {
        // Subspace A: clean linear. Subspace B: sharp step.
        let xs: Vec<Vec<f64>> = (0..120).map(|i| vec![i as f64]).collect();
        let linear_ys: Vec<f64> = xs.iter().map(|x| 0.5 * x[0]).collect();
        let step_ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 60.0 { -5.0 } else { 5.0 })
            .collect();
        let (a, _) = select_model(&xs, &linear_ys, 4).unwrap();
        let (b, _) = select_model(&xs, &step_ys, 4).unwrap();
        assert_eq!(a.family(), "linear");
        assert_ne!(b.family(), "linear");
    }

    #[test]
    fn too_few_rows_is_an_error() {
        let xs = vec![vec![1.0], vec![2.0]];
        let ys = vec![1.0, 2.0];
        assert!(select_model(&xs, &ys, 5).is_err());
    }
}
