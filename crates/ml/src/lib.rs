//! # sea-ml
//!
//! The statistical machine-learning substrate of SEA: every model the
//! intelligent agent (sea-core), the learned access-path selector and the
//! baselines (sea-operators) rely on, implemented from scratch on `f64`
//! slices with no external linear-algebra dependency.
//!
//! * [`linreg`] — batch OLS/ridge regression (normal equations) and
//!   *recursive least squares* for the agent's incremental per-quantum
//!   models.
//! * [`quantize`] — k-means and **online adaptive vector quantization**,
//!   the mechanism behind query-space quantization (RT1-1): prototypes
//!   drift toward the queries they absorb and new prototypes spawn when a
//!   query is far from all of them.
//! * [`knnreg`] — k-nearest-neighbour regression (the "learning set
//!   cardinality in distance nearest neighbours" family, \[26\]).
//! * [`piecewise`] — piecewise-linear 1-D regression, the representation
//!   the paper proposes for query-answer *explanations* (RT4-2).
//! * [`gbt`] — gradient-boosted regression trees (XGBoost-lite, \[41\]\[42\]),
//!   the heavier ensemble alternative in inference-model selection (RT3-3).
//! * [`selection`] — train/test splitting, k-fold cross-validation and the
//!   error metrics used to pick among inference models (\[48\]).
//! * [`model_select`] — inference-model selection (RT3-3, \[48\]): given
//!   a data subspace's training pairs, pick among the linear, kNN and
//!   gradient-boosted regressors above by k-fold validation error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gbt;
pub mod knnreg;
pub mod linalg;
pub mod linreg;
pub mod model_select;
pub mod piecewise;
pub mod quantize;
pub mod selection;

pub use gbt::{GbtParams, GradientBoostedTrees};
pub use knnreg::KnnRegressor;
pub use linreg::{LinearModel, RecursiveLeastSquares};
pub use model_select::{select_model, ModelChoice};
pub use piecewise::PiecewiseLinear;
pub use quantize::{KMeans, OnlineQuantizer, QuantizerParams};
pub use selection::{kfold_mse, train_test_split, Metrics};

/// Common interface for regression models mapping feature vectors to a
/// scalar: the trait the inference-model selector (RT3-3) dispatches over.
pub trait Regressor {
    /// Predicts the target for one feature vector.
    fn predict(&self, x: &[f64]) -> f64;
}
