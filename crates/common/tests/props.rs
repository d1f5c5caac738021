//! Property tests of the geometric and statistical core types.

use proptest::prelude::*;

use sea_common::{
    kernels, quantile_of, AggregateKind, AnswerValue, BivariateStats, Point, Record, Rect,
    SelectionMask,
};

fn arb_rect(max: f64) -> impl Strategy<Value = Rect> {
    (0.0..max, 0.0..max, 0.01..max, 0.01..max)
        .prop_map(|(x, y, w, h)| Rect::new(vec![x, y], vec![x + w, y + h]).unwrap())
}

fn arb_point(max: f64) -> impl Strategy<Value = Point> {
    (0.0..max, 0.0..max).prop_map(|(x, y)| Point::new(vec![x, y]))
}

/// Floats where comparisons go wrong first: NaN of either sign, ±inf,
/// ±0.0, subnormals — and half-integers in `[-4, 4]`, few enough that
/// values repeat and meet a bound exactly.
fn edgy_f64() -> impl Strategy<Value = f64> {
    (0u8..18, -8i32..9).prop_map(|(kind, half)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        6 => f64::from_bits(1),
        7 => -f64::from_bits(1),
        8 => 1e-310,
        _ => f64::from(half) / 2.0,
    })
}

/// Mask lengths around the kernel's seams: the eight-lane group, the
/// 64-row word and the 512-row block.
const MASK_LENS: [usize; 9] = [0, 1, 7, 8, 63, 64, 65, 511, 513];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lane-shaped range kernel selects exactly the rows the scalar
    /// row filter selects — inclusive bounds, NaN never matching, `lo ==
    /// hi` and `lo > hi` included — and re-filling a caller-owned mask,
    /// with a prefetch hint, leaves nothing of its previous contents.
    #[test]
    fn range_mask_matches_the_scalar_row_filter(
        pool in prop::collection::vec(edgy_f64(), 3 * 513..3 * 513 + 1),
        bounds in prop::collection::vec((edgy_f64(), edgy_f64()), 3..4),
        dims in 1usize..4,
        len_idx in 0usize..MASK_LENS.len(),
    ) {
        let len = MASK_LENS[len_idx];
        let cols: Vec<Vec<f64>> = pool.chunks(513).take(dims).map(|c| c[..len].to_vec()).collect();
        let (lo, hi): (Vec<f64>, Vec<f64>) = bounds.into_iter().take(dims).unzip();
        let want: Vec<usize> = (0..len)
            .filter(|&i| (0..dims).all(|d| lo[d] <= cols[d][i] && cols[d][i] <= hi[d]))
            .collect();
        let got = kernels::range_mask(&cols, len, &lo, &hi);
        prop_assert_eq!(got.len(), len);
        prop_assert_eq!(got.count(), want.len());
        prop_assert_eq!(got.to_indices(), want);
        let mut reused = SelectionMask::all(700);
        kernels::range_mask_into(&cols, len, &lo, &hi, &mut reused);
        prop_assert_eq!(reused, got);
    }

    /// Quantiles by selection are the sort-based rule's, bit for bit —
    /// duplicates, signed zeros, infinities and NaN included.
    #[test]
    fn quantile_by_selection_matches_a_full_sort(
        values in prop::collection::vec(edgy_f64(), 1000..1001),
    ) {
        for n in [1usize, 2, 3, 1000] {
            for q in [0.0, 0.5, 0.95, 1.0] {
                let mut sorted = values[..n].to_vec();
                sorted.sort_by(f64::total_cmp);
                let pos = q * (n - 1) as f64;
                let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
                let want = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
                let got = quantile_of(values[..n].iter().copied(), q);
                let Ok(AnswerValue::Scalar(got)) = got else {
                    return Err(TestCaseError::fail(format!("n={n} q={q}: {got:?}")));
                };
                prop_assert_eq!(got.to_bits(), want.to_bits(), "n={} q={}", n, q);
            }
        }
    }

    #[test]
    fn intersection_is_commutative(a in arb_rect(50.0), b in arb_rect(50.0)) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        match (a.intersection(&b), b.intersection(&a)) {
            (Some(x), Some(y)) => prop_assert_eq!(x, y),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric intersection: {other:?}"),
        }
    }

    #[test]
    fn intersection_is_contained_in_both(a in arb_rect(50.0), b in arb_rect(50.0)) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(i.volume() <= a.volume() + 1e-9);
            prop_assert!(i.volume() <= b.volume() + 1e-9);
        }
    }

    #[test]
    fn union_contains_both(a in arb_rect(50.0), b in arb_rect(50.0)) {
        let u = a.union(&b).unwrap();
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.volume() + 1e-9 >= a.volume().max(b.volume()));
    }

    #[test]
    fn contained_point_implies_intersection(r in arb_rect(50.0), p in arb_point(60.0)) {
        if r.contains(&p) {
            let tiny = Rect::centered(&p, &[1e-9, 1e-9]).unwrap();
            prop_assert!(r.intersects(&tiny));
            prop_assert_eq!(r.min_distance(&p).unwrap(), 0.0);
        }
    }

    #[test]
    fn centered_roundtrip(p in arb_point(50.0), e1 in 0.01f64..10.0, e2 in 0.01f64..10.0) {
        let r = Rect::centered(&p, &[e1, e2]).unwrap();
        let c = r.center();
        prop_assert!((c.coord(0) - p.coord(0)).abs() < 1e-9);
        prop_assert!((c.coord(1) - p.coord(1)).abs() < 1e-9);
        let ex = r.extents();
        prop_assert!((ex[0] - e1).abs() < 1e-9);
        prop_assert!((ex[1] - e2).abs() < 1e-9);
    }

    #[test]
    fn min_distance_triangle_consistency(r in arb_rect(50.0), p in arb_point(60.0)) {
        // min_distance(p) ≤ distance(p, center) always.
        let d = r.min_distance(&p).unwrap();
        let to_center = p.distance(&r.center()).unwrap();
        prop_assert!(d <= to_center + 1e-9);
    }

    #[test]
    fn distances_satisfy_metric_basics(
        a in arb_point(100.0),
        b in arb_point(100.0),
        c in arb_point(100.0),
    ) {
        let ab = a.distance(&b).unwrap();
        let ba = b.distance(&a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!(ab >= 0.0);
        // Triangle inequality.
        let ac = a.distance(&c).unwrap();
        let cb = c.distance(&b).unwrap();
        prop_assert!(ab <= ac + cb + 1e-9);
    }

    #[test]
    fn aggregates_are_permutation_invariant(values in prop::collection::vec(0.0f64..100.0, 2..40)) {
        let records: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Record::new(i as u64, vec![v, 100.0 - v]))
            .collect();
        let mut shuffled = records.clone();
        shuffled.reverse();
        for agg in [
            AggregateKind::Count,
            AggregateKind::Sum { dim: 0 },
            AggregateKind::Mean { dim: 0 },
            AggregateKind::Variance { dim: 1 },
            AggregateKind::Median { dim: 0 },
        ] {
            let a = agg.compute(&records).unwrap();
            let b = agg.compute(&shuffled).unwrap();
            prop_assert!(a.relative_error(&b) < 1e-9, "{agg:?}");
        }
    }

    #[test]
    fn variance_is_nonnegative_and_mean_in_range(values in prop::collection::vec(-50.0f64..50.0, 1..40)) {
        let records: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Record::new(i as u64, vec![v]))
            .collect();
        let var = AggregateKind::Variance { dim: 0 }
            .compute(&records)
            .unwrap()
            .as_scalar()
            .unwrap();
        prop_assert!(var >= -1e-9);
        let mean = AggregateKind::Mean { dim: 0 }
            .compute(&records)
            .unwrap()
            .as_scalar()
            .unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }

    #[test]
    fn correlation_is_bounded_and_symmetric(values in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 3..40)) {
        let mut stats = BivariateStats::default();
        let mut flipped = BivariateStats::default();
        for (x, y) in &values {
            stats.push(*x, *y);
            flipped.push(*y, *x);
        }
        if let (Ok(a), Ok(b)) = (stats.correlation(), flipped.correlation()) {
            prop_assert!(a.abs() <= 1.0 + 1e-9);
            prop_assert!((a - b).abs() < 1e-9, "corr(x,y) == corr(y,x)");
        }
    }

    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(0.0f64..100.0, 2..40)) {
        let records: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Record::new(i as u64, vec![v]))
            .collect();
        let q = |level: f64| {
            AggregateKind::Quantile { dim: 0, q: level }
                .compute(&records)
                .unwrap()
                .as_scalar()
                .unwrap()
        };
        prop_assert!(q(0.0) <= q(0.25) + 1e-9);
        prop_assert!(q(0.25) <= q(0.5) + 1e-9);
        prop_assert!(q(0.5) <= q(0.75) + 1e-9);
        prop_assert!(q(0.75) <= q(1.0) + 1e-9);
    }
}
