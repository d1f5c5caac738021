//! Property tests of the ML substrate's numerical invariants.

use proptest::prelude::*;

use sea_ml::gbt::GradientBoostedTrees;
use sea_ml::linreg::{LinearModel, RecursiveLeastSquares};
use sea_ml::piecewise::PiecewiseLinear;
use sea_ml::quantize::OnlineQuantizer;
use sea_ml::Regressor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ols_interpolates_noiseless_lines(slope in -5.0f64..5.0, intercept in -10.0f64..10.0,
                                        xs in prop::collection::vec(-20.0f64..20.0, 3..40)) {
        // Need some x variance.
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 0.5);
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let m = LinearModel::fit(&rows, &ys, 0.0).unwrap();
        prop_assert!((m.weights()[0] - slope).abs() < 1e-6);
        prop_assert!((m.intercept() - intercept).abs() < 1e-5);
    }

    #[test]
    fn rls_tracks_batch_ols(slope in -3.0f64..3.0, xs in prop::collection::vec(-10.0f64..10.0, 10..60)) {
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1.0);
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x + 1.0).collect();
        let batch = LinearModel::fit(&rows, &ys, 0.0).unwrap();
        let mut rls = RecursiveLeastSquares::new(1, 1e6, 1.0).unwrap();
        for (x, &y) in rows.iter().zip(&ys) {
            rls.update(x, y).unwrap();
        }
        let online = rls.model();
        prop_assert!((online.weights()[0] - batch.weights()[0]).abs() < 1e-3,
            "online {:?} batch {:?}", online, batch);
    }

    #[test]
    fn ridge_never_increases_weight_norm(lambda in 0.0f64..100.0,
                                         pts in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 5..40)) {
        let rows: Vec<Vec<f64>> = pts.iter().map(|(x, _)| vec![*x]).collect();
        let ys: Vec<f64> = pts.iter().map(|(_, y)| *y).collect();
        let spread = rows.iter().map(|r| r[0]).fold(f64::NEG_INFINITY, f64::max)
            - rows.iter().map(|r| r[0]).fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1.0);
        let free = LinearModel::fit(&rows, &ys, 1e-9).unwrap();
        let shrunk = LinearModel::fit(&rows, &ys, lambda + 1e-9).unwrap();
        prop_assert!(shrunk.weights()[0].abs() <= free.weights()[0].abs() + 1e-9);
    }

    #[test]
    fn quantizer_prototypes_cover_absorbed_points(points in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..80)) {
        let mut q = OnlineQuantizer::new(2).unwrap();
        for (x, y) in &points {
            q.absorb(&[*x, *y], 1.5).unwrap();
        }
        // Every absorbed point is within spawn_distance + drift slack of
        // some prototype (prototypes only move toward data).
        for (x, y) in &points {
            let (_, d2) = q.nearest_prototype(&[*x, *y]).unwrap();
            prop_assert!(d2.sqrt() <= 1.5 + 3.0, "point ({x},{y}) stranded at {}", d2.sqrt());
        }
        prop_assert!(q.len() <= points.len());
        prop_assert_eq!(q.clock(), points.len() as u64);
    }

    #[test]
    fn piecewise_fit_never_beats_zero_error_bound(xs in prop::collection::vec(0.0f64..50.0, 4..60), noise_scale in 0.0f64..2.0) {
        // Target: a clean line plus bounded noise; the fit's MSE must be
        // within the noise's square bound (plus slack for small samples).
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x + ((i % 5) as f64 - 2.0) / 2.0 * noise_scale)
            .collect();
        let m = PiecewiseLinear::fit(&xs, &ys, 4, 3, 1e-9).unwrap();
        let mse = m.mse(&xs, &ys).unwrap();
        prop_assert!(mse <= noise_scale * noise_scale + 1e-6, "mse {mse}");
    }

    #[test]
    fn gbt_predictions_stay_in_target_hull(pts in prop::collection::vec((0.0f64..10.0, -5.0f64..5.0), 8..60)) {
        let rows: Vec<Vec<f64>> = pts.iter().map(|(x, _)| vec![*x]).collect();
        let ys: Vec<f64> = pts.iter().map(|(_, y)| *y).collect();
        let m = GradientBoostedTrees::fit(&rows, &ys).unwrap();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Averaging-based trees cannot extrapolate beyond the target hull
        // (up to shrinkage remainder slack).
        for probe in [-100.0, 0.0, 5.0, 100.0] {
            let p = m.predict(&[probe]);
            let span = (hi - lo).max(1e-9);
            prop_assert!(p >= lo - span && p <= hi + span, "pred {p} outside [{lo}, {hi}]");
        }
    }
}
