//! E14 — inference-model selection per data subspace (RT3-3; \[41\], \[42\],
//! \[48\]).
//!
//! Shape target: different subspace shapes prefer different regressor
//! families, and the selected model's test error beats an always-linear
//! policy overall.

use sea_common::Result;
use sea_ml::linreg::LinearModel;
use sea_ml::selection::train_test_split;
use sea_ml::{select_model, Metrics};
use sea_telemetry::TelemetrySink;

use crate::Report;

/// Deterministic noise in `[-0.5, 0.5)` from an integer.
fn noise(i: usize) -> f64 {
    ((i.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0 - 0.5
}

/// Runs E14. Columns: subspace kind (0 = linear, 1 = step, 2 = smooth
/// nonlinear), test MSE of the selected family, of always-linear, and the
/// selected family id (0 linear / 1 knn / 2 boosted). Pure in-memory ML —
/// no simulated cluster — so telemetry is bench-level spans and counters.
pub fn run_e14_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E14",
        "per-subspace inference-model selection",
        &["subspace", "selected_mse", "linear_mse", "family"],
    );
    let make = |kind: usize| -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..240).map(|i| vec![i as f64 / 2.4]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let base = match kind {
                    0 => 3.0 * x[0] + 7.0,
                    1 => {
                        if ((x[0] / 20.0) as u64).is_multiple_of(2) {
                            0.0
                        } else {
                            50.0
                        }
                    }
                    _ => (x[0] / 8.0).sin() * 40.0,
                };
                base + noise(i)
            })
            .collect();
        (xs, ys)
    };
    for kind in 0..3usize {
        let span = sink.span("bench.e14.subspace");
        span.tag("kind", kind);
        let (xs, ys) = make(kind);
        let (train_x, train_y, test_x, test_y) = train_test_split(&xs, &ys, 5)?;
        let (choice, _scores) = select_model(&train_x, &train_y, 5)?;
        let selected = Metrics::evaluate(&choice, &test_x, &test_y)?.mse;
        let linear = LinearModel::fit(&train_x, &train_y, 1e-6)?;
        let linear_mse = Metrics::evaluate(&linear, &test_x, &test_y)?.mse;
        let family = match choice.family() {
            "linear" => 0.0,
            "knn" => 1.0,
            _ => 2.0,
        };
        if sink.is_enabled() {
            span.tag("family", choice.family());
        }
        sink.incr("bench.e14.selections", 1);
        drop(span);
        report.push_row(vec![kind as f64, selected, linear_mse, family]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_adapts_per_subspace() {
        let r = run_e14_with(&TelemetrySink::noop()).unwrap();
        // Linear subspace picks linear.
        assert_eq!(r.value(0, "family"), Some(0.0));
        // Non-linear subspaces pick something else.
        assert_ne!(r.value(1, "family"), Some(0.0));
        assert_ne!(r.value(2, "family"), Some(0.0));
        // On non-linear subspaces the selected model beats always-linear.
        for row in 1..3 {
            let sel = r.value(row, "selected_mse").unwrap();
            let lin = r.value(row, "linear_mse").unwrap();
            assert!(sel < lin / 2.0, "row {row}: selected {sel} linear {lin}");
        }
    }
}
