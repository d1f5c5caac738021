//! Vectorizable scan kernels over columnar data.
//!
//! The storage layer keeps a node's rows column-major, one contiguous
//! array per attribute that each block is a row range of; query engines
//! evaluate predicates as **selection bitmaps** over those columns and
//! only then touch the selected values. The kernels take any list of
//! columns that reads as `&[f64]` (a block's ranges of its node's
//! columns, or columns gathered into `Vec`s). The split matters twice
//! over:
//!
//! * Predicate evaluation is a branchless compare loop over a contiguous
//!   slice — the shape the compiler autovectorizes — instead of a
//!   pointer-chasing walk over row structs. The range predicate, which
//!   every exact scan runs over every admitted row, has a second
//!   instantiation compiled for AVX2 and picked at run time when the CPU
//!   has it (the crate's one `unsafe` expression, see
//!   `SelectionMask::retain_range`); the mask it produces is the same
//!   set of exact comparisons either way. That body also prefetches the
//!   next admitted block's column while it masks the current one, so the
//!   first pass over a block does not wait on memory at every page.
//! * The aggregate folds that follow are *serial* replays of the exact
//!   row-order arithmetic (`sum += v`, Welford updates, `min.min(v)`),
//!   so every answer stays bit-identical to a row-at-a-time scan. The
//!   speedup comes from filtering cheaply, not from reordering floats.

use crate::BivariateStats;

/// Packs `pred` over up to 64 values into a bitmap word, bit `j` for
/// `chunk[j]`. Full groups of eight go through a fixed `[f64; 8]`, and
/// callers pass a non-short-circuit predicate: that shape LLVM unrolls
/// into four packed compares back to back per group on baseline x86-64
/// (`cmplepd`/`andpd` pairs for a range; one row per trip compiles to a
/// single two-lane pair per trip with the bit insertion in between).
/// There is no `movmskpd` either way, nor under AVX2: the bits are
/// packed with shifts and ors. A whole `[f64; 64]` word at a time is
/// slower than this on baseline x86-64 and faster under AVX2 (DESIGN.md, "Why the range
/// predicate has two bodies"), which is why [`retain_range_avx2`] walks
/// words and this helper groups of eight. The ragged remainder takes
/// the scalar loop.
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

/// [`SelectionMask::retain_range`] on any CPU: each non-empty word of
/// `words` keeps the rows of its 64-row chunk of `col` that lie in
/// `[lo, hi]`, packed in groups of eight ([`pack_word`]). It takes no
/// prefetch hint.
fn retain_range_portable(words: &mut [u64], col: &[f64], lo: f64, hi: f64) {
    for (w, chunk) in words.iter_mut().zip(col.chunks(64)) {
        if *w != 0 {
            *w &= pack_word(chunk, |v| (lo <= v) & (v <= hi));
        }
    }
}

/// [`retain_range_portable`] compiled for AVX2, for CPUs that have it:
/// each full 64-row chunk of `col` is one `[f64; 64]`, which LLVM turns
/// into four-lane `vcmplepd`s with the bits shifted into place four
/// lanes at a time; a ragged last chunk goes through [`pack_word`]. The comparisons, and so the bits,
/// are those of the portable body. While it masks word `i`, it asks for
/// the cache lines of word `i` of `ahead` — the same dimension of the
/// next block the scan will mask — which is a hint only: `ahead` may be
/// empty or of any length, and nothing is read from it.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn retain_range_avx2(words: &mut [u64], col: &[f64], ahead: &[f64], lo: f64, hi: f64) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::{_mm_prefetch, _MM_HINT_T0};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    let mut ahead = ahead.chunks(64);
    for (w, chunk) in words.iter_mut().zip(col.chunks(64)) {
        if let Some(next) = ahead.next() {
            // Eight `f64`s to a 64-byte line.
            for line in 0..next.len().div_ceil(8) {
                _mm_prefetch::<_MM_HINT_T0>(next.as_ptr().wrapping_add(8 * line).cast());
            }
        }
        if *w != 0 {
            *w &= match <&[f64; 64]>::try_from(chunk) {
                Ok(rows) => (rows.iter().enumerate()).fold(0, |bits, (j, &v)| {
                    bits | u64::from((lo <= v) & (v <= hi)) << j
                }),
                Err(_) => pack_word(chunk, |v| (lo <= v) & (v <= hi)),
            };
        }
    }
}

/// A fixed-length bitmap over the rows of a block: bit `i` set means row
/// `i` is selected.
#[derive(Debug, PartialEq, Eq)]
pub struct SelectionMask {
    words: Vec<u64>,
    len: usize,
}

/// `clone_from` keeps the destination's word buffer (the derived one
/// allocates a fresh one), so a scan that copies one block's mask into
/// a per-region buffer block after block allocates only at its first.
impl Clone for SelectionMask {
    fn clone(&self) -> Self {
        SelectionMask {
            words: self.words.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
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
    /// of the selection for free. Words already empty are skipped. Runs
    /// [`retain_range_avx2`] (which prefetches `ahead`) when the CPU has
    /// AVX2 and [`retain_range_portable`] otherwise; both clear exactly
    /// the same bits.
    fn retain_range(&mut self, col: &[f64], ahead: &[f64], lo: f64, hi: f64) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the only precondition of a `target_feature` function
            // is that the CPU has the feature, checked on the line above.
            #[allow(unsafe_code)]
            unsafe {
                retain_range_avx2(&mut self.words, col, ahead, lo, hi);
            }
            return;
        }
        retain_range_portable(&mut self.words, col, lo, hi);
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
pub fn range_mask<C: AsRef<[f64]>>(
    cols: &[C],
    len: usize,
    lo: &[f64],
    hi: &[f64],
) -> SelectionMask {
    let mut m = SelectionMask::none(0);
    range_mask_into(cols, &[], len, lo, hi, &mut m);
    m
}

/// [`range_mask`] into a caller-owned mask (its word buffer is reused).
/// `ahead` is the columns of the block a scan masks next (empty when
/// there is none): while the AVX2 body masks dimension `d`, it
/// prefetches `ahead[d]`. A hint only — the mask is the same whatever
/// `ahead` holds.
pub fn range_mask_into<C: AsRef<[f64]>>(
    cols: &[C],
    ahead: &[C],
    len: usize,
    lo: &[f64],
    hi: &[f64],
    out: &mut SelectionMask,
) {
    out.reset_all(len);
    range_retain(cols, ahead, lo, hi, out);
}

/// Rows of `cols` within Euclidean distance `radius` of `center`.
/// Squared distances accumulate per row in dimension order from `0.0` —
/// the same float grouping as a row-at-a-time
/// `values.iter().zip(center).map(|(v, c)| (v - c)²).sum::<f64>()` — so
/// the selected set is bit-identical to the row path. NaN distances
/// never match.
pub fn ball_mask<C: AsRef<[f64]>>(
    cols: &[C],
    len: usize,
    center: &[f64],
    radius: f64,
) -> SelectionMask {
    let mut m = SelectionMask::none(0);
    ball_mask_into(cols, len, center, radius, &mut m);
    m
}

/// [`ball_mask`] into a caller-owned mask (its word buffer is reused).
pub fn ball_mask_into<C: AsRef<[f64]>>(
    cols: &[C],
    len: usize,
    center: &[f64],
    radius: f64,
    out: &mut SelectionMask,
) {
    out.reset_all(len);
    ball_retain(cols, center, radius, out);
}

/// Keeps only the selected rows of `cols` that lie in the inclusive box
/// `[lo, hi]`: [`range_mask`] intersected into `mask`, evaluated only on
/// words that still select a row, with `ahead` prefetched as
/// [`range_mask_into`] does. Callers check the dimensionality.
pub fn range_retain<C: AsRef<[f64]>>(
    cols: &[C],
    ahead: &[C],
    lo: &[f64],
    hi: &[f64],
    mask: &mut SelectionMask,
) {
    for (d, col) in cols.iter().enumerate() {
        if mask.is_none_set() {
            break;
        }
        let next = ahead.get(d).map_or(&[][..], AsRef::as_ref);
        mask.retain_range(col.as_ref(), next, lo[d], hi[d]);
    }
}

/// Keeps only the selected rows of `cols` within `radius` of `center`:
/// [`ball_mask`] intersected into `mask`, with each row's distance
/// summed as [`ball_mask`] sums it. A word that selects every row it
/// covers is evaluated whole, on the stack, as [`ball_mask`] does;
/// any other word only at its selected rows, so a ball refining a box
/// pays for the rows the box kept, not for the block.
pub fn ball_retain<C: AsRef<[f64]>>(
    cols: &[C],
    center: &[f64],
    radius: f64,
    mask: &mut SelectionMask,
) {
    let r2 = radius * radius;
    let len = mask.len;
    for (wi, w) in mask.words.iter_mut().enumerate() {
        let base = wi * 64;
        let n = (len - base).min(64);
        if *w == u64::MAX >> (64 - n) {
            // One word's squared distances, on the stack.
            let mut d2 = [0.0f64; 64];
            for (col, &c) in cols.iter().zip(center) {
                let rows = col.as_ref().get(base..).unwrap_or(&[]);
                for (acc, &v) in d2[..n].iter_mut().zip(rows) {
                    let diff = v - c;
                    *acc += diff * diff;
                }
            }
            *w = pack_word(&d2[..n], |x| x <= r2);
            continue;
        }
        let mut bits = *w;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            let mut d2 = 0.0f64;
            for (col, &c) in cols.iter().zip(center) {
                if let Some(&v) = col.as_ref().get(base + j) {
                    let diff = v - c;
                    d2 += diff * diff;
                }
            }
            let keep = d2 <= r2;
            *w &= !(u64::from(!keep) << j);
            bits &= bits - 1;
        }
    }
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
        m.retain_range(&col, &[], 2.0, 9.0);
        assert_eq!(m.to_indices(), vec![1, 3]);
    }

    /// Both bodies of the range predicate — [`retain_range_portable`]
    /// called directly, and [`SelectionMask::retain_range`], which is the
    /// AVX2 body on a CPU that has AVX2 — keep exactly the rows the scalar
    /// filter keeps, and only among rows still selected, whatever the
    /// next block's column handed to the AVX2 body's prefetch: empty,
    /// shorter than, as long as or longer than the masked one.
    #[test]
    fn every_range_predicate_body_equals_the_scalar_filter() {
        let tiny = f64::from_bits(1);
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            2.5,
            f64::MAX,
            f64::MIN,
        ];
        let bounds = [
            (-0.0, 0.0),
            (0.0, -0.0),
            (-tiny, tiny),
            (1.0, 1.0),
            (2.5, -1.0),
            (-1.0, 2.5),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::MIN_POSITIVE / 2.0, f64::MAX),
        ];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let avx2 = false;
        if !avx2 {
            println!("no AVX2 on this CPU: the dispatched body is the portable one");
        }
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 11
        };
        for len in [0, 1, 63, 64, 65, 511, 512, 513] {
            let col: Vec<f64> = (0..len)
                .map(|_| values[next() as usize % values.len()])
                .collect();
            let spare: Vec<f64> = (0..len + 130).map(|i| i as f64).collect();
            let aheads = [&[][..], &spare[..len / 2], &spare[..len], &spare[..]];
            for &(lo, hi) in &bounds {
                // All set; every third word cleared; arbitrary earlier bits.
                for start in 0..3 {
                    let mut before = SelectionMask::all(len);
                    for (i, w) in before.words.iter_mut().enumerate() {
                        match start {
                            1 if i % 3 == 1 => *w = 0,
                            2 => *w &= next() | next() << 53,
                            _ => {}
                        }
                    }
                    let mut want = before.clone();
                    for (i, &v) in col.iter().enumerate() {
                        if !(lo <= v && v <= hi) {
                            want.words[i / 64] &= !(1 << (i % 64));
                        }
                    }
                    let mut portable = before.clone();
                    retain_range_portable(&mut portable.words, &col, lo, hi);
                    assert_eq!(portable, want, "portable, len {len}, [{lo:?}, {hi:?}]");
                    for ahead in aheads {
                        let mut dispatched = before.clone();
                        dispatched.retain_range(&col, ahead, lo, hi);
                        assert_eq!(
                            dispatched,
                            want,
                            "dispatched (AVX2: {avx2}), len {len}, ahead {}, [{lo:?}, {hi:?}]",
                            ahead.len()
                        );
                    }
                }
            }
        }
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

    /// Refining a mask by a ball keeps exactly the rows the dense mask
    /// and the previous selection both keep — over full, sparse and
    /// empty words, ragged lengths, NaN, ±inf, ±0.0 and subnormals, and a
    /// zero radius — and `ball_mask_into` is `ball_mask`; the same for a
    /// box and `range_mask`.
    #[test]
    fn retaining_equals_intersecting_the_dense_mask() {
        let tiny = f64::from_bits(1);
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            tiny,
            -tiny,
            1.0,
            -1.0,
            2.5,
            3.0,
        ];
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 11
        };
        for len in [0, 1, 63, 64, 65, 200] {
            let cols: Vec<Vec<f64>> = (0..2)
                .map(|_| {
                    (0..len)
                        .map(|_| values[next() as usize % values.len()])
                        .collect()
                })
                .collect();
            for (center, radius) in [([0.0, 0.0], 0.0), ([-0.0, 1.0], 2.0), ([1.0, tiny], 3.5)] {
                let dense = ball_mask(&cols, len, &center, radius);
                let mut into = SelectionMask::none(3);
                ball_mask_into(&cols, len, &center, radius, &mut into);
                assert_eq!(into, dense, "len {len}");
                let (lo, hi) = ([-1.0, -tiny], [2.5, 0.0]);
                let boxed = range_mask(&cols, len, &lo, &hi);
                // Full words, every other word cleared, arbitrary bits.
                for start in 0..3 {
                    let mut before = SelectionMask::all(len);
                    for (i, w) in before.words.iter_mut().enumerate() {
                        match start {
                            1 if i % 2 == 1 => *w = 0,
                            2 => *w &= next() | next() << 53,
                            _ => {}
                        }
                    }
                    let mut want = before.clone();
                    want.intersect(&dense);
                    let mut got = before.clone();
                    ball_retain(&cols, &center, radius, &mut got);
                    assert_eq!(got, want, "ball, len {len}, start {start}");
                    let mut want = before.clone();
                    want.intersect(&boxed);
                    let mut got = before.clone();
                    range_retain(&cols, &[], &lo, &hi, &mut got);
                    assert_eq!(got, want, "box, len {len}, start {start}");
                }
            }
        }
    }

    #[test]
    fn clone_from_keeps_the_word_buffer() {
        let source = SelectionMask::all(100);
        let mut mask = SelectionMask::none(500);
        let buffer = mask.words.as_ptr();
        mask.clone_from(&source);
        assert_eq!(mask, source);
        assert_eq!(mask.words.as_ptr(), buffer);
    }

    #[test]
    fn folds_match_row_loops_bitwise() {
        let col: Vec<f64> = (0..200).map(|i| (i as f64) * 0.1 + 1e9).collect();
        let mut mask = SelectionMask::all(200);
        mask.retain_range(&col, &[], 1e9 + 2.0, 1e9 + 15.0);
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
        m.retain_range(&xs, &[], 2.0, 4.0);
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
