//! Adaptive indexing over raw data (RT2-3: "developing adaptive indexing
//! and caching techniques that operate on raw data and facilitate
//! efficient and scalable raw-data analyses").
//!
//! A [`CrackerIndex`] implements *database cracking*: the column starts as
//! a raw, unsorted array; each range query partitions ("cracks") the
//! array around its bounds as a side effect of answering, so the data
//! incrementally self-organizes exactly where queries land. Early queries
//! pay near-scan costs; repeated interest in a region drives its query
//! cost toward binary search — with zero up-front indexing and zero
//! effort on never-queried regions.

use std::collections::BTreeMap;

use sea_common::{RecordId, Result, SeaError};

/// A crackable single-attribute column of `(value, record id)` pairs.
#[derive(Debug, Clone)]
pub struct CrackerIndex {
    /// The column; progressively partitioned in place.
    data: Vec<(f64, RecordId)>,
    /// Crack points: value → index such that everything below the index
    /// is `< value` and everything at/after is `>= value`.
    cracks: BTreeMap<OrderedF64, usize>,
}

/// A totally-ordered wrapper for crack keys (finite: `query` and `count`
/// reject any other bound).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl CrackerIndex {
    /// Wraps a raw column. No sorting, no preprocessing — the whole point.
    ///
    /// # Errors
    ///
    /// Non-finite values.
    pub fn new(column: Vec<(f64, RecordId)>) -> Result<Self> {
        if column.iter().any(|(v, _)| !v.is_finite()) {
            return Err(SeaError::invalid("cracker column values must be finite"));
        }
        Ok(CrackerIndex {
            data: column,
            cracks: BTreeMap::new(),
        })
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of crack points accumulated so far.
    pub fn num_cracks(&self) -> usize {
        self.cracks.len()
    }

    /// The ids of all records with value in `[lo, hi)`, cracking the
    /// column around both bounds as a side effect. Also returns how many
    /// elements were *touched* (moved or inspected beyond the final
    /// contiguous answer) — the adaptive-indexing work metric, which
    /// shrinks toward zero as the region gets queried repeatedly.
    ///
    /// # Errors
    ///
    /// Non-finite or inverted bounds.
    pub fn query(&mut self, lo: f64, hi: f64) -> Result<(Vec<RecordId>, usize)> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(SeaError::invalid("crack bounds must be finite and ordered"));
        }
        let (lo_idx, touched_lo) = self.crack_at(lo);
        let (hi_idx, touched_hi) = self.crack_at(hi);
        let ids = self.data[lo_idx..hi_idx]
            .iter()
            .map(|(_, id)| *id)
            .collect();
        Ok((ids, touched_lo + touched_hi))
    }

    /// Ensures a crack exists at `value`, returning its index and the
    /// number of elements the cracking pass touched (0 on a crack hit).
    fn crack_at(&mut self, value: f64) -> (usize, usize) {
        let key = OrderedF64(value);
        if let Some(&idx) = self.cracks.get(&key) {
            return (idx, 0);
        }
        // The tightest enclosing piece: [start, end).
        let start = self
            .cracks
            .range(..key)
            .next_back()
            .map(|(_, &i)| i)
            .unwrap_or(0);
        let end = self
            .cracks
            .range((std::ops::Bound::Excluded(key), std::ops::Bound::Unbounded))
            .next()
            .map(|(_, &i)| i)
            .unwrap_or(self.data.len());
        // Hoare-style partition of the piece around `value`.
        let piece = &mut self.data[start..end];
        let mut boundary = 0usize;
        for i in 0..piece.len() {
            if piece[i].0 < value {
                piece.swap(i, boundary);
                boundary += 1;
            }
        }
        let idx = start + boundary;
        self.cracks.insert(key, idx);
        (idx, end - start)
    }

    /// Exact count in `[lo, hi)` (cracks as a side effect).
    ///
    /// # Errors
    ///
    /// As [`CrackerIndex::query`].
    pub fn count(&mut self, lo: f64, hi: f64) -> Result<(usize, usize)> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(SeaError::invalid("crack bounds must be finite and ordered"));
        }
        let (lo_idx, t1) = self.crack_at(lo);
        let (hi_idx, t2) = self.crack_at(hi);
        Ok((hi_idx - lo_idx, t1 + t2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(n: u64) -> Vec<(f64, RecordId)> {
        // Deterministic shuffle of 0..n.
        (0..n)
            .map(|i| ((i.wrapping_mul(2654435761) % n) as f64, i))
            .collect()
    }

    fn brute_count(col: &[(f64, RecordId)], lo: f64, hi: f64) -> usize {
        col.iter().filter(|(v, _)| *v >= lo && *v < hi).count()
    }

    #[test]
    fn query_returns_exact_range_contents() {
        let col = column(1000);
        let mut idx = CrackerIndex::new(col.clone()).unwrap();
        for (lo, hi) in [(100.0, 200.0), (0.0, 50.0), (950.0, 1000.0), (333.3, 666.6)] {
            let (ids, _) = idx.query(lo, hi).unwrap();
            assert_eq!(ids.len(), brute_count(&col, lo, hi), "[{lo}, {hi})");
            // Every returned id's value really is in range.
            for id in &ids {
                let v = col.iter().find(|(_, i)| i == id).unwrap().0;
                assert!(v >= lo && v < hi);
            }
        }
    }

    #[test]
    fn repeated_queries_touch_less_and_less() {
        let mut idx = CrackerIndex::new(column(10_000)).unwrap();
        let (_, first) = idx.count(4000.0, 6000.0).unwrap();
        assert!(first > 9_000, "cold query scans nearly everything: {first}");
        let (_, second) = idx.count(4000.0, 6000.0).unwrap();
        assert_eq!(second, 0, "crack hit is free");
        // A nearby query only cracks within the already-narrowed piece.
        let (_, third) = idx.count(4500.0, 5500.0).unwrap();
        assert!(third < first / 3, "adaptive narrowing: {third} vs {first}");
    }

    #[test]
    fn cracking_converges_under_a_workload() {
        let mut idx = CrackerIndex::new(column(20_000)).unwrap();
        let mut touches = Vec::new();
        for i in 0..30 {
            let lo = (i * 613) % 15_000;
            let (_, t) = idx.count(lo as f64, (lo + 2_000) as f64).unwrap();
            touches.push(t);
        }
        let early: usize = touches[..5].iter().sum();
        let late: usize = touches[25..].iter().sum();
        assert!(late * 3 < early, "early {early}, late {late}");
        assert!(idx.num_cracks() <= 60);
    }

    #[test]
    fn counts_agree_with_brute_force_everywhere() {
        let col = column(3_000);
        let mut idx = CrackerIndex::new(col.clone()).unwrap();
        for i in 0..50 {
            let lo = ((i * 997) % 2_500) as f64;
            let hi = lo + ((i * 131) % 500) as f64;
            let (count, _) = idx.count(lo, hi).unwrap();
            assert_eq!(count, brute_count(&col, lo, hi), "[{lo}, {hi})");
        }
    }

    #[test]
    fn validations() {
        assert!(CrackerIndex::new(vec![(f64::NAN, 0)]).is_err());
        let mut idx = CrackerIndex::new(column(10)).unwrap();
        assert!(idx.query(5.0, 1.0).is_err());
        assert!(idx.count(f64::INFINITY, 0.0).is_err());
        assert_eq!(idx.len(), 10);
        assert!(!idx.is_empty());
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let mut idx = CrackerIndex::new(column(100)).unwrap();
        let (ids, _) = idx.query(50.0, 50.0).unwrap();
        assert!(ids.is_empty(), "half-open empty range");
        let (all, _) = idx.query(-1.0, 1e9).unwrap();
        assert_eq!(all.len(), 100);
    }
}
