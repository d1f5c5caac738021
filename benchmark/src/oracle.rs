//! The correctness oracle: a single-threaded row-at-a-time evaluator
//! over `StorageCluster::all_records`, sharing no code with the
//! executor's scan paths or with `AggregateKind::compute`. Moments are
//! computed two-pass and centred, so it is also the more accurate side
//! of every floating-point comparison.

use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, Region, Result};
use sea_storage::StorageCluster;

pub struct Oracle {
    dims: usize,
    /// Row-major copy of the table.
    rows: Vec<f64>,
}

impl Oracle {
    pub fn new(cluster: &StorageCluster, table: &str) -> Result<Self> {
        let dims = cluster.dims(table)?;
        let mut rows = Vec::new();
        for r in cluster.all_records(table)? {
            rows.extend_from_slice(&r.values);
        }
        Ok(Oracle { dims, rows })
    }

    fn selected(&self, region: &Region) -> Vec<&[f64]> {
        let inside = |row: &&[f64]| match region {
            Region::Range(r) => row
                .iter()
                .zip(r.lo().iter().zip(r.hi()))
                .all(|(v, (lo, hi))| lo <= v && v <= hi),
            Region::Radius(b) => {
                let d2: f64 = row
                    .iter()
                    .zip(b.center().coords())
                    .map(|(v, c)| (v - c) * (v - c))
                    .sum();
                d2 <= b.radius() * b.radius()
            }
            _ => unreachable!("the generators emit rectangles and balls only"),
        };
        self.rows.chunks_exact(self.dims).filter(inside).collect()
    }

    /// The true answer, or `None` where the aggregate is undefined on
    /// the selection (the generators never produce such a statement).
    pub fn answer(&self, q: &AnalyticalQuery) -> Option<AnswerValue> {
        let rows = self.selected(&q.region);
        let n = rows.len() as f64;
        let col = |d: usize| rows.iter().map(move |r| r[d]);
        let mean = |d: usize| col(d).sum::<f64>() / n;
        // Centred second moment Σ(x−x̄)(y−ȳ).
        let co = |x: usize, y: usize| {
            let (mx, my) = (mean(x), mean(y));
            rows.iter().map(|r| (r[x] - mx) * (r[y] - my)).sum::<f64>()
        };
        let quantile = |d: usize, q: f64| {
            let mut v: Vec<f64> = col(d).collect();
            v.sort_by(f64::total_cmp);
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        use AggregateKind::*;
        let scalar = match q.aggregate {
            Count => n,
            Sum { dim } => col(dim).sum(),
            _ if rows.is_empty() => return None,
            Mean { dim } => mean(dim),
            Variance { dim } => co(dim, dim) / n,
            Min { dim } => col(dim).fold(f64::INFINITY, f64::min),
            Max { dim } => col(dim).fold(f64::NEG_INFINITY, f64::max),
            Median { dim } => quantile(dim, 0.5),
            Quantile { dim, q } => quantile(dim, q),
            Correlation { x, y } => co(x, y) / (co(x, x) * co(y, y)).sqrt(),
            Regression { x, y } => {
                let slope = co(x, y) / co(x, x);
                return Some(AnswerValue::Pair(slope, mean(y) - slope * mean(x)));
            }
            _ => unreachable!("the generators emit the ten aggregates above only"),
        };
        Some(AnswerValue::Scalar(scalar))
    }
}

/// Whether an exact answer agrees with the oracle: exactly for count,
/// min and max; otherwise within 1e-9 relative, with an absolute floor of
/// 1e-9 so a correlation or slope near zero is not held to a relative
/// bound its own cancellation error cannot meet.
pub fn agrees(kind: &AggregateKind, got: &AnswerValue, want: &AnswerValue) -> bool {
    let exact = matches!(
        kind,
        AggregateKind::Count | AggregateKind::Min { .. } | AggregateKind::Max { .. }
    );
    let close = |g: f64, w: f64| {
        if exact {
            g == w
        } else {
            (g - w).abs() <= 1e-9 * w.abs().max(1.0)
        }
    };
    match (got, want) {
        (AnswerValue::Scalar(g), AnswerValue::Scalar(w)) => close(*g, *w),
        (AnswerValue::Pair(g0, g1), AnswerValue::Pair(w0, w1)) => {
            close(*g0, *w0) && close(*g1, *w1)
        }
        _ => false,
    }
}

/// Bit-for-bit equality of two answers (NaN equals the same NaN).
pub fn bits_eq(a: &AnswerValue, b: &AnswerValue) -> bool {
    match (a, b) {
        (AnswerValue::Scalar(x), AnswerValue::Scalar(y)) => x.to_bits() == y.to_bits(),
        (AnswerValue::Pair(x0, x1), AnswerValue::Pair(y0, y1)) => {
            x0.to_bits() == y0.to_bits() && x1.to_bits() == y1.to_bits()
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Record, Rect};
    use sea_storage::Partitioning;

    #[test]
    fn oracle_matches_hand_computed_answers() {
        let mut c = StorageCluster::new(2, 4);
        let recs = (0..10)
            .map(|i| Record::new(i, vec![i as f64, 2.0 * i as f64 + 1.0]))
            .collect();
        c.load_table("t", recs, Partitioning::Hash).unwrap();
        let o = Oracle::new(&c, "t").unwrap();
        let region = Region::Range(Rect::new(vec![2.0, 0.0], vec![6.0, 100.0]).unwrap());
        let ask = |a| o.answer(&AnalyticalQuery::new(region.clone(), a)).unwrap();
        use AggregateKind::*;
        assert_eq!(ask(Count), AnswerValue::Scalar(5.0));
        assert_eq!(ask(Sum { dim: 0 }), AnswerValue::Scalar(20.0));
        assert_eq!(ask(Mean { dim: 1 }), AnswerValue::Scalar(9.0));
        assert_eq!(ask(Variance { dim: 0 }), AnswerValue::Scalar(2.0));
        assert_eq!(ask(Min { dim: 1 }), AnswerValue::Scalar(5.0));
        assert_eq!(ask(Median { dim: 0 }), AnswerValue::Scalar(4.0));
        assert_eq!(ask(Quantile { dim: 0, q: 0.95 }), AnswerValue::Scalar(5.8));
        assert_eq!(ask(Correlation { x: 0, y: 1 }), AnswerValue::Scalar(1.0));
        assert_eq!(ask(Regression { x: 0, y: 1 }), AnswerValue::Pair(2.0, 1.0));
        let empty = Region::Range(Rect::new(vec![50.0, 0.0], vec![60.0, 1.0]).unwrap());
        assert_eq!(
            o.answer(&AnalyticalQuery::new(empty.clone(), Count)),
            Some(AnswerValue::Scalar(0.0))
        );
        assert_eq!(
            o.answer(&AnalyticalQuery::new(empty, Mean { dim: 0 })),
            None
        );
    }

    #[test]
    fn agreement_is_exact_for_counts_and_relative_otherwise() {
        let s = AnswerValue::Scalar;
        assert!(!agrees(&AggregateKind::Count, &s(10.0), &s(10.000000001)));
        assert!(agrees(
            &AggregateKind::Sum { dim: 0 },
            &s(1e6),
            &s(1e6 + 1e-4)
        ));
        assert!(!agrees(
            &AggregateKind::Sum { dim: 0 },
            &s(1e6),
            &s(1e6 + 1e-2)
        ));
        assert!(agrees(
            &AggregateKind::Correlation { x: 0, y: 1 },
            &s(1e-12),
            &s(2e-12)
        ));
        assert!(bits_eq(&s(f64::NAN), &s(f64::NAN)) && !bits_eq(&s(0.0), &s(-0.0)));
    }
}
