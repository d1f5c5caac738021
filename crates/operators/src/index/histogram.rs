//! One-dimensional histogram for selectivity estimation.
//!
//! The optimizer (RT3) estimates how many records a selection touches
//! before choosing an execution strategy; a histogram is its cheapest
//! statistical structure. It is equi-depth (fixed bucket population),
//! which stays accurate on skewed data where fixed-width buckets do not.

use sea_common::{Result, SeaError};

/// An equi-depth histogram: bucket boundaries chosen so each bucket holds
/// (approximately) the same number of values.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    /// Ascending bucket boundaries, `buckets + 1` entries.
    bounds: Vec<f64>,
    /// Records per bucket.
    depth: Vec<u64>,
    total: u64,
}

impl EquiDepthHistogram {
    /// Builds an equi-depth histogram with `buckets` buckets.
    ///
    /// # Errors
    ///
    /// Zero buckets or empty input.
    pub fn build(values: &[f64], buckets: usize) -> Result<Self> {
        if buckets == 0 {
            return Err(SeaError::invalid("bucket count must be positive"));
        }
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return Err(SeaError::Empty("equi-depth histogram of no values".into()));
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut depth = Vec::with_capacity(buckets);
        bounds.push(sorted[0]);
        for i in 1..=buckets {
            let end = i * n / buckets;
            let start = (i - 1) * n / buckets;
            depth.push((end - start) as u64);
            bounds.push(if i == buckets {
                sorted[n - 1]
            } else {
                sorted[end]
            });
        }
        Ok(EquiDepthHistogram {
            bounds,
            depth,
            total: n as u64,
        })
    }

    /// Estimated number of values in `[a, b]` (intra-bucket uniformity).
    pub fn estimate_count(&self, a: f64, b: f64) -> f64 {
        if b < a {
            return 0.0;
        }
        let mut est = 0.0;
        for i in 0..self.depth.len() {
            let b_lo = self.bounds[i];
            let b_hi = self.bounds[i + 1];
            let olap_lo = a.max(b_lo);
            let olap_hi = b.min(b_hi);
            if b_hi > b_lo {
                if olap_hi > olap_lo {
                    est += self.depth[i] as f64 * (olap_hi - olap_lo) / (b_hi - b_lo);
                }
            } else if a <= b_lo && b_lo <= b {
                // Degenerate bucket (all-equal values).
                est += self.depth[i] as f64;
            }
        }
        est
    }

    /// Estimated selectivity of `[a, b]`.
    pub fn estimate_selectivity(&self, a: f64, b: f64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.estimate_count(a, b) / self.total as f64).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_depth_handles_skew_better() {
        // 90% of mass at ~0, 10% spread to 1000.
        let mut values: Vec<f64> = (0..900).map(|i| i as f64 / 1000.0).collect();
        values.extend((0..100).map(|i| 10.0 + i as f64 * 9.9));
        let ed = EquiDepthHistogram::build(&values, 10).unwrap();
        // True count in [0, 0.9): 900. Ten fixed-width buckets over
        // [0, 1000] would put nearly all of it in one bucket and miss by
        // almost the whole 900.
        let ed_err = (ed.estimate_count(0.0, 0.9) - 900.0).abs();
        assert!(ed_err < 150.0, "equi-depth error on skew: {ed_err}");
    }

    #[test]
    fn equi_depth_buckets_are_balanced() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let h = EquiDepthHistogram::build(&values, 8).unwrap();
        assert_eq!(h.depth.len(), 8);
        assert_eq!(h.total, 1000);
        // All buckets hold 125 ± 1.
        let full = h.estimate_count(f64::NEG_INFINITY, f64::INFINITY);
        assert!((full - 1000.0).abs() < 1.0, "got {full}");
    }

    #[test]
    fn equi_depth_all_equal_values() {
        let values = vec![5.0; 100];
        let h = EquiDepthHistogram::build(&values, 4).unwrap();
        let est = h.estimate_count(4.0, 6.0);
        assert!((est - 100.0).abs() < 1.0, "got {est}");
        assert_eq!(h.estimate_count(6.0, 7.0), 0.0);
    }

    #[test]
    fn equi_depth_rejects_empty() {
        assert!(EquiDepthHistogram::build(&[], 4).is_err());
        assert!(EquiDepthHistogram::build(&[1.0], 0).is_err());
    }

    #[test]
    fn equi_depth_more_buckets_than_values() {
        let h = EquiDepthHistogram::build(&[1.0, 2.0, 3.0], 10).unwrap();
        assert_eq!(h.depth.len(), 3);
        assert_eq!(h.total, 3);
    }
}
