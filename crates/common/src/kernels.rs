//! Vectorizable scan kernels over columnar data.
//!
//! The storage layer stores blocks column-major (one `Vec<f64>` per
//! attribute); query engines evaluate predicates as **selection bitmaps**
//! over those columns and only then touch the selected values. The split
//! matters twice over:
//!
//! * Predicate evaluation is a branchless compare loop over a contiguous
//!   slice — the shape the compiler autovectorizes — instead of a
//!   pointer-chasing walk over row structs.
//! * The aggregate folds that follow are *serial* replays of the exact
//!   row-order arithmetic (`sum += v`, Welford updates, `min.min(v)`),
//!   so every answer stays bit-identical to a row-at-a-time scan. The
//!   speedup comes from filtering cheaply, not from reordering floats.

use serde::{Deserialize, Serialize};

use crate::BivariateStats;

/// Packs `pred` over up to 64 values into a bitmap word, bit `j` for
/// `chunk[j]`. Full groups of eight go through a fixed `[f64; 8]`, and
/// callers pass a non-short-circuit predicate: that shape LLVM unrolls
/// into four packed compares back to back per group on baseline x86-64
/// (`cmplepd`/`andpd` pairs for a range; one row per trip compiles to a
/// single two-lane pair per trip with the bit insertion in between).
/// There is no `movmskpd` either way: the bits are packed with shifts
/// and ors. The ragged remainder takes the scalar loop.
#[inline]
fn pack_word(chunk: &[f64], pred: impl Fn(f64) -> bool) -> u64 {
    let mut bits = 0u64;
    let mut groups = chunk.chunks_exact(8);
    for (g, lanes) in (&mut groups).enumerate() {
        let lanes: &[f64; 8] = lanes.try_into().expect("chunks_exact(8) yields eight");
        let mut byte = 0u64;
        for (j, &v) in lanes.iter().enumerate() {
            byte |= u64::from(pred(v)) << j;
        }
        bits |= byte << (8 * g);
    }
    let done = chunk.len() - groups.remainder().len();
    for (j, &v) in groups.remainder().iter().enumerate() {
        bits |= u64::from(pred(v)) << (done + j);
    }
    bits
}

/// A fixed-length bitmap over the rows of a block: bit `i` set means row
/// `i` is selected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionMask {
    words: Vec<u64>,
    len: usize,
}

impl SelectionMask {
    /// An all-clear mask over `len` rows.
    pub fn none(len: usize) -> Self {
        SelectionMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-set mask over `len` rows (trailing bits stay clear).
    pub fn all(len: usize) -> Self {
        let mut m = SelectionMask::none(0);
        m.reset_all(len);
        m
    }

    /// Makes this an all-set mask over `len` rows, keeping the word
    /// buffer: a scan loop owns one mask and re-fills it per block
    /// instead of allocating one per block.
    pub fn reset_all(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), u64::MAX);
        if let Some(last) = self.words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        self.len = len;
    }

    /// Number of rows the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of selected rows (popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no row is selected.
    pub fn is_none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether row `i` is selected.
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Selects row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "row {i} out of range for mask of {}",
            self.len
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Keeps only rows whose `col` value lies in `[lo, hi]` (inclusive).
    /// NaN values never satisfy the predicate, so missing data drops out
    /// of the selection for free. Words already empty are skipped.
    fn retain_range(&mut self, col: &[f64], lo: f64, hi: f64) {
        for (w, chunk) in self.words.iter_mut().zip(col.chunks(64)) {
            if *w != 0 {
                *w &= pack_word(chunk, |v| (lo <= v) & (v <= hi));
            }
        }
    }

    /// Intersects with another mask of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn intersect(&mut self, other: &SelectionMask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Calls `f` with every selected row index in ascending order. Dense
    /// words (all 64 rows selected) take a straight-line path; sparse
    /// words iterate set bits only.
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            if w == u64::MAX {
                let base = wi * 64;
                for j in 0..64 {
                    f(base + j);
                }
                continue;
            }
            let mut bits = w;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                f(wi * 64 + j);
                bits &= bits - 1;
            }
        }
    }

    /// The selected row indices, ascending.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        self.for_each_set(|i| out.push(i));
        out
    }
}

/// Rows of `cols` (column-major, `len` rows each) inside the inclusive
/// box `[lo, hi]`: the selection-bitmap form of a range predicate.
/// Callers are responsible for the dimensionality check (`cols.len() ==
/// lo.len()`); rows with NaN in any dimension are never selected.
pub fn range_mask(cols: &[Vec<f64>], len: usize, lo: &[f64], hi: &[f64]) -> SelectionMask {
    let mut m = SelectionMask::none(0);
    range_mask_into(cols, len, lo, hi, &mut m);
    m
}

/// [`range_mask`] into a caller-owned mask (its word buffer is reused).
pub fn range_mask_into(
    cols: &[Vec<f64>],
    len: usize,
    lo: &[f64],
    hi: &[f64],
    out: &mut SelectionMask,
) {
    out.reset_all(len);
    for (d, col) in cols.iter().enumerate() {
        if out.is_none_set() {
            break;
        }
        out.retain_range(col, lo[d], hi[d]);
    }
}

/// Rows of `cols` within Euclidean distance `radius` of `center`.
/// Squared distances accumulate per row in dimension order from `0.0` —
/// the same float grouping as a row-at-a-time
/// `values.iter().zip(center).map(|(v, c)| (v - c)²).sum::<f64>()` — so
/// the selected set is bit-identical to the row path. NaN distances
/// never match.
pub fn ball_mask(cols: &[Vec<f64>], len: usize, center: &[f64], radius: f64) -> SelectionMask {
    let r2 = radius * radius;
    let mut m = SelectionMask::none(len);
    for (wi, w) in m.words.iter_mut().enumerate() {
        let base = wi * 64;
        let n = (len - base).min(64);
        // One word's squared distances, on the stack.
        let mut d2 = [0.0f64; 64];
        for (col, &c) in cols.iter().zip(center) {
            let rows = col.get(base..).unwrap_or(&[]);
            for (acc, &v) in d2[..n].iter_mut().zip(rows) {
                let diff = v - c;
                *acc += diff * diff;
            }
        }
        *w = pack_word(&d2[..n], |x| x <= r2);
    }
    m
}

/// Folds `sum += v; sum_sq += v * v` over the selected values of `col`
/// in row order — the exact arithmetic of a row-at-a-time sum partial.
pub fn fold_sum_sq(col: &[f64], mask: &SelectionMask, sum: &mut f64, sum_sq: &mut f64) {
    mask.for_each_set(|i| {
        let v = col[i];
        *sum += v;
        *sum_sq += v * v;
    });
}

/// Folds Welford's online moment update over the selected values of
/// `col` in row order (bit-identical to the row-at-a-time variance
/// partial).
pub fn fold_welford(
    col: &[f64],
    mask: &SelectionMask,
    count: &mut u64,
    mean: &mut f64,
    m2: &mut f64,
) {
    mask.for_each_set(|i| {
        let v = col[i];
        *count += 1;
        let delta = v - *mean;
        *mean += delta / *count as f64;
        *m2 += delta * (v - *mean);
    });
}

/// Folds `min = min.min(v); max = max.max(v)` over the selected values
/// of `col` in row order.
pub fn fold_min_max(col: &[f64], mask: &SelectionMask, min: &mut f64, max: &mut f64) {
    mask.for_each_set(|i| {
        let v = col[i];
        *min = min.min(v);
        *max = max.max(v);
    });
}

/// Accumulates the selected `(x, y)` pairs into `stats` in row order.
pub fn fold_bivariate(xs: &[f64], ys: &[f64], mask: &SelectionMask, stats: &mut BivariateStats) {
    mask.for_each_set(|i| stats.push(xs[i], ys[i]));
}

/// Appends the selected values of `col` to `out` in row order (the value
/// gather that follows predicate evaluation).
pub fn gather(col: &[f64], mask: &SelectionMask, out: &mut Vec<f64>) {
    mask.for_each_set(|i| out.push(col[i]));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none_masks() {
        let a = SelectionMask::all(70);
        assert_eq!(a.len(), 70);
        assert_eq!(a.count(), 70);
        assert!(a.get(0) && a.get(69) && !a.get(70));
        let n = SelectionMask::none(70);
        assert_eq!(n.count(), 0);
        assert!(n.is_none_set());
        assert_eq!(SelectionMask::all(0).count(), 0);
        assert_eq!(SelectionMask::all(64).count(), 64);
    }

    #[test]
    fn set_and_iterate_in_order() {
        let mut m = SelectionMask::none(130);
        for i in [0, 63, 64, 127, 129] {
            m.set(i);
        }
        assert_eq!(m.to_indices(), vec![0, 63, 64, 127, 129]);
        assert_eq!(m.count(), 5);
    }

    #[test]
    fn retain_range_excludes_nan_and_out_of_range() {
        let col = vec![1.0, 5.0, f64::NAN, 3.0, 10.0];
        let mut m = SelectionMask::all(5);
        m.retain_range(&col, 2.0, 9.0);
        assert_eq!(m.to_indices(), vec![1, 3]);
    }

    #[test]
    fn range_mask_over_two_columns() {
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 20.0, 30.0, 40.0]];
        let m = range_mask(&cols, 4, &[2.0, 0.0], &[4.0, 35.0]);
        assert_eq!(m.to_indices(), vec![1, 2]);
    }

    #[test]
    fn ball_mask_matches_row_distance() {
        let cols = vec![vec![0.0, 3.0, 1.0, f64::NAN], vec![0.0, 4.0, 1.0, 0.0]];
        let m = ball_mask(&cols, 4, &[0.0, 0.0], 5.0);
        // (0,0) at 0, (3,4) at exactly 5 (boundary inclusive), (1,1) at √2;
        // the NaN row never matches.
        assert_eq!(m.to_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn folds_match_row_loops_bitwise() {
        let col: Vec<f64> = (0..200).map(|i| (i as f64) * 0.1 + 1e9).collect();
        let mut mask = SelectionMask::all(200);
        mask.retain_range(&col, 1e9 + 2.0, 1e9 + 15.0);
        let rows: Vec<f64> = col
            .iter()
            .copied()
            .filter(|v| (1e9 + 2.0..=1e9 + 15.0).contains(v))
            .collect();

        let (mut sum, mut sum_sq) = (0.0, 0.0);
        fold_sum_sq(&col, &mask, &mut sum, &mut sum_sq);
        let (mut rsum, mut rsq) = (0.0, 0.0);
        for &v in &rows {
            rsum += v;
            rsq += v * v;
        }
        assert_eq!(sum.to_bits(), rsum.to_bits());
        assert_eq!(sum_sq.to_bits(), rsq.to_bits());

        let (mut n, mut mean, mut m2) = (0u64, 0.0, 0.0);
        fold_welford(&col, &mask, &mut n, &mut mean, &mut m2);
        let (mut rn, mut rmean, mut rm2) = (0u64, 0.0, 0.0);
        for &v in &rows {
            rn += 1;
            let delta = v - rmean;
            rmean += delta / rn as f64;
            rm2 += delta * (v - rmean);
        }
        assert_eq!(
            (n, mean.to_bits(), m2.to_bits()),
            (rn, rmean.to_bits(), rm2.to_bits())
        );

        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        fold_min_max(&col, &mask, &mut lo, &mut hi);
        assert_eq!(lo, rows.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(hi, rows.iter().copied().fold(f64::NEG_INFINITY, f64::max));

        let mut gathered = Vec::new();
        gather(&col, &mask, &mut gathered);
        assert_eq!(gathered, rows);
    }

    #[test]
    fn bivariate_fold_matches_push_order() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let ys = vec![2.0, 4.0, 6.0, 8.0];
        let mut m = SelectionMask::all(4);
        m.retain_range(&xs, 2.0, 4.0);
        let mut s = BivariateStats::default();
        fold_bivariate(&xs, &ys, &m, &mut s);
        let mut want = BivariateStats::default();
        for i in 1..4 {
            want.push(xs[i], ys[i]);
        }
        assert_eq!(s, want);
    }

    #[test]
    fn empty_mask_folds_are_neutral() {
        let col: Vec<f64> = vec![];
        let mask = SelectionMask::all(0);
        let (mut sum, mut sq) = (0.0, 0.0);
        fold_sum_sq(&col, &mask, &mut sum, &mut sq);
        assert_eq!((sum, sq), (0.0, 0.0));
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        fold_min_max(&col, &mask, &mut lo, &mut hi);
        assert!(lo.is_infinite() && hi.is_infinite());
    }
}
