//! Gradient-boosted regression trees ("XGBoost-lite", after \[41\] and \[42\]).
//!
//! Least-squares boosting: each round fits a depth-limited regression tree
//! to the current residuals and adds it with shrinkage. Used by the
//! inference-model selection experiments (RT3-3 / E14) as the
//! high-capacity alternative to linear and kNN models.

use sea_common::{Result, SeaError};

use crate::Regressor;

/// Boosting rounds (trees).
const N_TREES: usize = 60;
/// Maximum tree depth (1 = stumps).
const MAX_DEPTH: usize = 3;
/// Shrinkage applied to every tree's output.
const LEARNING_RATE: f64 = 0.15;
/// Minimum samples in a leaf.
const MIN_LEAF: usize = 2;

#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    Leaf(f64),
    Split {
        dim: usize,
        threshold: f64,
        left: Box<TreeNode>,
        right: Box<TreeNode>,
    },
}

impl TreeNode {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            TreeNode::Leaf(v) => *v,
            TreeNode::Split {
                dim,
                threshold,
                left,
                right,
            } => {
                if x[*dim] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostedTrees {
    base: f64,
    trees: Vec<TreeNode>,
    dims: usize,
}

impl GradientBoostedTrees {
    /// Fits an ensemble of 60 depth-3 trees, shrunk by 0.15, on rows `xs`
    /// with targets `ys`.
    ///
    /// # Errors
    ///
    /// Empty input or mismatched lengths/dimensions.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self> {
        let Some(first) = xs.first() else {
            return Err(SeaError::Empty("GBT fit with no rows".into()));
        };
        SeaError::check_dims(xs.len(), ys.len())?;
        let dims = first.len();
        for x in xs {
            SeaError::check_dims(dims, x.len())?;
        }

        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
        let mut trees = Vec::with_capacity(N_TREES);
        let idx: Vec<usize> = (0..xs.len()).collect();

        for _ in 0..N_TREES {
            let tree = build_tree(xs, &residuals, &idx, MAX_DEPTH);
            for (i, x) in xs.iter().enumerate() {
                residuals[i] -= LEARNING_RATE * tree.predict(x);
            }
            trees.push(tree);
        }
        Ok(GradientBoostedTrees { base, trees, dims })
    }

    /// Number of features.
    pub fn dims(&self) -> usize {
        self.dims
    }
}

impl Regressor for GradientBoostedTrees {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut acc = self.base;
        for t in &self.trees {
            acc += LEARNING_RATE * t.predict(x);
        }
        acc
    }
}

/// Builds one variance-reduction regression tree over `rows` (indices into
/// `xs`/`targets`).
#[allow(clippy::needless_range_loop)] // dim indexes several parallel arrays
fn build_tree(xs: &[Vec<f64>], targets: &[f64], rows: &[usize], depth: usize) -> TreeNode {
    let mean = rows.iter().map(|&i| targets[i]).sum::<f64>() / rows.len().max(1) as f64;
    if depth == 0 || rows.len() < 2 * MIN_LEAF {
        return TreeNode::Leaf(mean);
    }

    let dims = xs[rows[0]].len();
    let base_sse: f64 = rows
        .iter()
        .map(|&i| {
            let e = targets[i] - mean;
            e * e
        })
        .sum();

    let mut best: Option<(usize, f64, f64)> = None; // (dim, threshold, sse)
    let mut sorted = rows.to_vec();
    for dim in 0..dims {
        // `total_cmp`: a NaN feature sorts to an end instead of panicking.
        sorted.sort_by(|&a, &b| xs[a][dim].total_cmp(&xs[b][dim]));
        // Prefix sums for O(1) split evaluation.
        let mut prefix_sum = 0.0;
        let mut prefix_sq = 0.0;
        let total_sum: f64 = sorted.iter().map(|&i| targets[i]).sum();
        let total_sq: f64 = sorted.iter().map(|&i| targets[i] * targets[i]).sum();
        for (pos, &i) in sorted.iter().enumerate() {
            prefix_sum += targets[i];
            prefix_sq += targets[i] * targets[i];
            let n_left = pos + 1;
            let n_right = sorted.len() - n_left;
            if n_left < MIN_LEAF || n_right < MIN_LEAF {
                continue;
            }
            // Skip ties: can't split between equal feature values.
            if xs[i][dim] == xs[sorted[pos + 1]][dim] {
                continue;
            }
            let left_sse = prefix_sq - prefix_sum * prefix_sum / n_left as f64;
            let right_sum = total_sum - prefix_sum;
            let right_sse = (total_sq - prefix_sq) - right_sum * right_sum / n_right as f64;
            let sse = left_sse + right_sse;
            if best.map_or(sse < base_sse - 1e-12, |(_, _, b)| sse < b) {
                let threshold = (xs[i][dim] + xs[sorted[pos + 1]][dim]) / 2.0;
                best = Some((dim, threshold, sse));
            }
        }
    }

    let Some((dim, threshold, _)) = best else {
        return TreeNode::Leaf(mean);
    };
    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
        rows.iter().partition(|&&i| xs[i][dim] <= threshold);
    TreeNode::Split {
        dim,
        threshold,
        left: Box::new(build_tree(xs, targets, &left_rows, depth - 1)),
        right: Box::new(build_tree(xs, targets, &right_rows, depth - 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_xy(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect()
    }

    #[test]
    fn fits_step_function() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 100.0 { 1.0 } else { 9.0 })
            .collect();
        let m = GradientBoostedTrees::fit(&xs, &ys).unwrap();
        assert!((m.predict(&[50.0]) - 1.0).abs() < 0.2);
        assert!((m.predict(&[150.0]) - 9.0).abs() < 0.2);
    }

    #[test]
    fn fits_nonlinear_surface_better_than_mean() {
        let xs = grid_xy(400);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1]).collect();
        let m = GradientBoostedTrees::fit(&xs, &ys).unwrap();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let mse_model: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (m.predict(x) - y).powi(2))
            .sum::<f64>()
            / ys.len() as f64;
        let mse_mean: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / ys.len() as f64;
        assert!(
            mse_model < mse_mean / 10.0,
            "model {mse_model} vs mean {mse_mean}"
        );
    }

    #[test]
    fn constant_target_predicts_constant() {
        let xs = grid_xy(50);
        let ys = vec![42.0; 50];
        let m = GradientBoostedTrees::fit(&xs, &ys).unwrap();
        assert!((m.predict(&[3.0, 1.0]) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn validations() {
        let xs = vec![vec![1.0]];
        assert!(GradientBoostedTrees::fit(&[], &[]).is_err());
        assert!(GradientBoostedTrees::fit(&xs, &[1.0, 2.0]).is_err());
        assert!(GradientBoostedTrees::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn a_nan_feature_returns_instead_of_panicking() {
        let mut xs: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        xs[7][0] = f64::NAN;
        let ys: Vec<f64> = (0..20).map(f64::from).collect();
        // Either answer is acceptable; a panic is not.
        let _ = GradientBoostedTrees::fit(&xs, &ys);
    }

    #[test]
    fn duplicate_feature_values_do_not_split_ties() {
        let xs = vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        let ys = vec![1.0, 2.0, 3.0, 4.0];
        let m = GradientBoostedTrees::fit(&xs, &ys).unwrap();
        assert!(
            (m.predict(&[1.0]) - 2.5).abs() < 1e-9,
            "no valid split; mean"
        );
    }
}
