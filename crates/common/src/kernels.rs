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
//!   every exact scan runs over every admitted row, has two bodies
//!   compiled for AVX2 and picked at run time when the CPU has it (the
//!   crate's one `unsafe` expression, `dispatch`, over a small enum of
//!   AVX2 kernels): one over the `f64` columns, and one over one-byte
//!   codes ([`byte_code`]) — a storage block's under its zone map, or
//!   rows gathered for a box under that box — which reads a byte per
//!   value and compares as `f64` only the rows on a bound's code
//!   ([`range_mask_coded`]). The coder of a column ([`byte_codes`]) is
//!   the enum's third kernel. Either way the mask is the same set of
//!   exact comparisons; without AVX2 the portable `f64` body runs.
//! * The aggregate folds that follow are *serial* replays of the exact
//!   row-order arithmetic (`sum += v`, Welford updates, `min.min(v)`),
//!   so every answer stays bit-identical to a row-at-a-time scan. The
//!   speedup comes from filtering cheaply, not from reordering floats.

use crate::{BivariateStats, Rect};

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

/// The `f64` range body on any CPU: each non-empty
/// word of `words` keeps the rows of its 64-row chunk of `col` that lie
/// in `[lo, hi]`, packed in groups of eight ([`pack_word`]).
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
/// lanes at a time; a ragged last chunk goes through [`pack_word`]. The
/// comparisons, and so the bits, are those of the portable body.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn retain_range_avx2(words: &mut [u64], col: &[f64], lo: f64, hi: f64) {
    for (w, chunk) in words.iter_mut().zip(col.chunks(64)) {
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

/// The code [`byte_code`] gives a value it cannot place: NaN, ±inf, and
/// every value of a zone map without a finite scale. A row on it is
/// always compared as `f64`.
pub const EXACT_CODE: u8 = u8::MAX;

/// The one-byte code of `v` in a storage block whose zone map spans
/// `[lo, hi]` on `v`'s dimension: `⌊(v − lo) · 255 / (hi − lo)⌋`,
/// capped at 254, for a finite `v`, and [`EXACT_CODE`] for a non-finite
/// one — and for every value when the map's width `hi − lo` is not a
/// normal number (a constant block, a width that overflows or is
/// subnormal) or its scale `255 / (hi − lo)` is not (a width so small
/// that the scale overflows). A block's byte columns hold it per value,
/// and [`range_mask_coded`] calls it on a box's bounds, so both sides of
/// every byte compare are this function.
///
/// **Monotone.** For finite `a <= b` and a finite scale `s > 0`,
/// `code(a) <= code(b)`: each step maps a non-decreasing pair to a
/// non-decreasing pair. `a − lo <= b − lo` exactly, and IEEE rounding
/// is monotone, so the rounded differences keep their order (at worst
/// both overflow to `+∞`; signed zeros meet only as a difference of
/// zero, which every later step takes to code 0). Multiplying by the
/// same `s > 0` and rounding keeps the order again (no NaN: a finite or
/// infinite factor times a positive normal one). `min(254)` keeps it,
/// and `as u8` — truncation, which is the floor on non-negative values,
/// saturating to 0 below zero — keeps it. So `code(v) > code(b)` implies
/// `v > b` and `code(v) < code(b)` implies `v < b`: a row whose code is
/// strictly between a box's bound codes on a dimension lies strictly
/// between the bounds, one strictly outside lies outside, and only a
/// row on a bound's code, or on [`EXACT_CODE`], needs the `f64` compare.
#[inline]
pub fn byte_code(lo: f64, hi: f64, v: f64) -> u8 {
    code_scale(lo, hi).map_or(EXACT_CODE, |scale| code_of(v, lo, scale))
}

/// The scale `255 / (hi − lo)` of a zone map `[lo, hi]` whose width and
/// scale are both positive normal numbers; `None` for any other map,
/// whose values [`byte_code`] all codes [`EXACT_CODE`].
#[inline]
fn code_scale(lo: f64, hi: f64) -> Option<f64> {
    let width = hi - lo;
    let scale = 255.0 / width;
    (width.is_normal() && width > 0.0 && scale.is_normal()).then_some(scale)
}

/// [`byte_code`] of `v` under a zone map from `lo` of finite scale
/// `scale` ([`code_scale`]).
#[inline]
fn code_of(v: f64, lo: f64, scale: f64) -> u8 {
    if v.is_finite() {
        ((v - lo) * scale).min(254.0) as u8
    } else {
        EXACT_CODE
    }
}

/// Writes the [`byte_code`] of each of `vals` under the zone map
/// `[lo, hi]` into `out`, value for value: how a storage block codes a
/// column, and rows gathered for a box are coded under it. The map's
/// scale is decided once: a map without a finite one fills `out` with
/// [`EXACT_CODE`]; otherwise the coder runs a vectorized AVX2 body on a
/// CPU with AVX2 and [`byte_code`]'s own per-value step on any other,
/// which write the same bytes.
pub fn byte_codes(lo: f64, hi: f64, vals: &[f64], out: &mut [u8]) {
    match code_scale(lo, hi) {
        Some(scale) => dispatch(Body::Code {
            vals,
            lo,
            scale,
            out,
        }),
        None => out.fill(EXACT_CODE),
    }
}

/// [`byte_codes`] under a finite scale on any CPU: [`code_of`] per value.
fn code_portable(vals: &[f64], lo: f64, scale: f64, out: &mut [u8]) {
    for (c, &v) in out.iter_mut().zip(vals) {
        *c = code_of(v, lo, scale);
    }
}

/// [`code_portable`] for CPUs with AVX2, sixteen values a step, four to
/// a vector (built from the values, no pointer read): `(v − lo) ·
/// scale` capped at 254 by `vminpd` (a finite `v` gives no NaN), a
/// non-finite `v` (`v − v` is NaN) blended to [`EXACT_CODE`], truncated
/// toward zero by `vcvttpd2dq`, and packed to bytes by `vpackssdw` and
/// `vpackuswb`. The packs' saturation is [`code_of`]'s saturating
/// `as u8` below zero: a negative code, and the `i32::MIN` that
/// `vcvttpd2dq` gives one too large to convert, become 0; every other
/// code is in `[0, 255]` and passes unchanged. A ragged tail takes
/// [`code_portable`].
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn code_avx2(vals: &[f64], lo: f64, scale: f64, out: &mut [u8]) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    let (base, times) = (_mm256_set1_pd(lo), _mm256_set1_pd(scale));
    let (zero, top) = (_mm256_setzero_pd(), _mm256_set1_pd(254.0));
    let exact = _mm256_set1_pd(f64::from(EXACT_CODE));
    // Four values' codes, one per 32-bit lane.
    let four = |v: &[f64; 4]| {
        let x = _mm256_set_pd(v[3], v[2], v[1], v[0]);
        let code = _mm256_min_pd(_mm256_mul_pd(_mm256_sub_pd(x, base), times), top);
        let finite = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_sub_pd(x, x), zero);
        _mm256_cvttpd_epi32(_mm256_blendv_pd(exact, code, finite))
    };
    let mut outs = out.chunks_exact_mut(16);
    let mut ins = vals.chunks_exact(16);
    for (o, v) in (&mut outs).zip(&mut ins) {
        let v = v.as_chunks::<4>().0;
        let bytes = _mm_packus_epi16(
            _mm_packs_epi32(four(&v[0]), four(&v[1])),
            _mm_packs_epi32(four(&v[2]), four(&v[3])),
        );
        let lanes = [
            _mm_extract_epi32::<0>(bytes),
            _mm_extract_epi32::<1>(bytes),
            _mm_extract_epi32::<2>(bytes),
            _mm_extract_epi32::<3>(bytes),
        ];
        for (o, lane) in o.chunks_exact_mut(4).zip(lanes) {
            o.copy_from_slice(&lane.to_le_bytes());
        }
    }
    code_portable(ins.remainder(), lo, scale, outs.into_remainder());
}

/// One dimension of a box in a block's codes: a row is possibly inside
/// when its code is in `[ge, le]` or is [`EXACT_CODE`], and it is
/// compared as `f64` when its code is `at_lo`, `at_hi` or
/// [`EXACT_CODE`]. A bound at or past its side of the zone map has no
/// code of its own: every finite row of the block lies on its inner
/// side, so its side checks nothing (`at_*` is [`EXACT_CODE`]).
#[derive(Debug, Clone, Copy)]
struct CodeBox {
    ge: u8,
    le: u8,
    at_lo: u8,
    at_hi: u8,
}

/// What one dimension of a box asks of a block, given the block's zone
/// map `[zlo, zhi]` on it.
enum Plan {
    /// The box misses the zone map: no row of the block is inside.
    Miss,
    /// The map has no finite scale: the dimension is compared as `f64`.
    Exact,
    /// The byte compares decide all rows but those [`CodeBox`] sends on.
    Codes(CodeBox),
}

impl Plan {
    fn of(zlo: f64, zhi: f64, lo: f64, hi: f64) -> Plan {
        if lo > zhi || hi < zlo {
            return Plan::Miss;
        }
        // A finite value codes to `EXACT_CODE` only under a map without a
        // finite scale.
        if byte_code(zlo, zhi, zlo) == EXACT_CODE {
            return Plan::Exact;
        }
        let (ge, at_lo) = if lo <= zlo {
            (0, EXACT_CODE)
        } else {
            let c = byte_code(zlo, zhi, lo);
            (c, c)
        };
        let (le, at_hi) = if hi >= zhi {
            (EXACT_CODE - 1, EXACT_CODE)
        } else {
            let c = byte_code(zlo, zhi, hi);
            (c, c)
        };
        Plan::Codes(CodeBox {
            ge,
            le,
            at_lo,
            at_hi,
        })
    }
}

/// One dimension of a box over a block's byte codes: the rows of
/// `col`, their `codes`, the bounds and their codes.
#[derive(Clone, Copy)]
struct CodedDim<'a> {
    codes: &'a [u8],
    col: &'a [f64],
    lo: f64,
    hi: f64,
    bounds: CodeBox,
}

/// Most dimensions [`retain_codes_avx2`] decides in one pass: a box of
/// more is masked a group of this many at a time.
const CODED_DIMS: usize = 4;

/// A kernel with an AVX2 form, and what it writes: the bodies
/// [`dispatch`] picks between.
enum Body<'a> {
    /// Keep, in `words`, the rows whose `col` value lies in `[lo, hi]`.
    Range {
        words: &'a mut [u64],
        col: &'a [f64],
        lo: f64,
        hi: f64,
    },
    /// Keep, in `words`, the rows inside every one of `dims`, decided on
    /// their byte codes where they can and on their `f64`s where they
    /// cannot.
    Codes {
        words: &'a mut [u64],
        dims: &'a [CodedDim<'a>],
    },
    /// Write into `out` the [`byte_code`] of each of `vals` under a zone
    /// map from `lo` of finite scale `scale`.
    Code {
        vals: &'a [f64],
        lo: f64,
        scale: f64,
        out: &'a mut [u8],
    },
}

/// Runs `body`: on a CPU with AVX2 its AVX2 form —
/// [`retain_range_avx2`], [`retain_codes_avx2`] or [`code_avx2`] —
/// otherwise its portable one: [`retain_range_portable`] (per dimension,
/// over the `f64`s, for byte codes) or [`code_portable`]. Both forms
/// write exactly the same bits.
fn dispatch(body: Body) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the only precondition of a `target_feature` function
        // is that the CPU has the feature, checked on the line above.
        #[allow(unsafe_code)]
        unsafe {
            match body {
                Body::Range { words, col, lo, hi } => retain_range_avx2(words, col, lo, hi),
                Body::Codes { words, dims } => retain_codes_avx2(words, dims),
                Body::Code {
                    vals,
                    lo,
                    scale,
                    out,
                } => code_avx2(vals, lo, scale, out),
            }
        }
        return;
    }
    match body {
        Body::Range { words, col, lo, hi } => retain_range_portable(words, col, lo, hi),
        Body::Codes { words, dims } => {
            for d in dims {
                retain_range_portable(words, d.col, d.lo, d.hi);
            }
        }
        Body::Code {
            vals,
            lo,
            scale,
            out,
        } => code_portable(vals, lo, scale, out),
    }
}

#[cfg(test)]
thread_local! {
    /// Rows a byte body has compared as `f64`, per thread: what
    /// `the_byte_body_compares_few_rows_as_f64` pins.
    static EXACT_ROWS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The byte body of the range predicate, for CPUs with AVX2:
/// per 64-row word still selecting a row, each dimension's 64 codes as
/// two 32-byte vectors (built from eight little-endian `u64`s, no
/// pointer read), compared against its bounds' codes with `vpmaxub` and
/// `vpcmpeqb` — unsigned `c >= ge` is `max(c, ge) == c` — and packed by
/// `vpmovmskb`. A row outside `[ge, le]` and not on [`EXACT_CODE`] on
/// any dimension is dropped, one strictly inside on every dimension is
/// kept ([`byte_code`] proves both), and only then is a row still kept
/// that lies on a bound's code or on [`EXACT_CODE`] compared as `f64`,
/// on that dimension: the other dimensions' bytes have already dropped
/// most of the rows one dimension's would send there. A ragged last
/// chunk is zero-padded; the word selects none of the padding.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn retain_codes_avx2(words: &mut [u64], dims: &[CodedDim]) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    let splat = |c: u8| _mm256_set1_epi8(c as i8);
    let exact = splat(EXACT_CODE);
    let mut bounds = [[exact; 4]; CODED_DIMS];
    for (splats, d) in bounds.iter_mut().zip(dims) {
        let b = d.bounds;
        *splats = [b.ge, b.le, b.at_lo, b.at_hi].map(splat);
    }
    // One dimension's bits of one word: (possibly inside, compare as f64).
    let word = |codes: &[u8], [ge, le, at_lo, at_hi]: [__m256i; 4]| {
        let pad: [u8; 64];
        let bytes = match <&[u8; 64]>::try_from(codes) {
            Ok(full) => full,
            Err(_) => {
                let mut tail = [0u8; 64];
                tail[..codes.len()].copy_from_slice(codes);
                pad = tail;
                &pad
            }
        };
        let lanes = bytes.as_chunks::<8>().0;
        let q: [i64; 8] = std::array::from_fn(|i| u64::from_le_bytes(lanes[i]) as i64);
        let (mut keep, mut check) = (0, 0);
        for (h, q) in q.as_chunks::<4>().0.iter().enumerate() {
            let c = _mm256_set_epi64x(q[3], q[2], q[1], q[0]);
            let inside = _mm256_and_si256(
                _mm256_cmpeq_epi8(_mm256_max_epu8(c, ge), c),
                _mm256_cmpeq_epi8(_mm256_max_epu8(c, le), le),
            );
            let at_exact = _mm256_cmpeq_epi8(c, exact);
            let at_bound =
                _mm256_or_si256(_mm256_cmpeq_epi8(c, at_lo), _mm256_cmpeq_epi8(c, at_hi));
            let bits = |v| u64::from(_mm256_movemask_epi8(v) as u32) << (32 * h);
            keep |= bits(_mm256_or_si256(inside, at_exact));
            check |= bits(_mm256_or_si256(at_bound, at_exact));
        }
        (keep, check)
    };
    let mut checks = [0u64; CODED_DIMS];
    for (wi, w) in words.iter_mut().enumerate() {
        let base = wi * 64;
        for ((d, &b), check) in dims.iter().zip(&bounds).zip(&mut checks) {
            if *w == 0 {
                break;
            }
            let (keep, at) = word(&d.codes[base..d.codes.len().min(base + 64)], b);
            *w &= keep;
            *check = at;
        }
        for (d, &at) in dims.iter().zip(&checks) {
            let mut check = *w & at;
            while check != 0 {
                let j = check.trailing_zeros() as usize;
                let v = d.col[base + j];
                *w &= !(u64::from(!((d.lo <= v) & (v <= d.hi))) << j);
                check &= check - 1;
                #[cfg(test)]
                EXACT_ROWS.with(|n| n.set(n.get() + 1));
            }
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

    /// The bitmap, 64 rows to a word, the bits past the last row clear:
    /// what a scan keeps of a block's mask — to gather through it later
    /// ([`gather_words`]), or as a cache fragment's selection (see
    /// [`SelectionMask::load`]) — while the mask buffer moves on to the
    /// next block.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Makes this a mask over `len` rows whose word `index[i]` is
    /// `words[i]` and every other word clear, keeping the word buffer:
    /// a mask kept as only its words that select a row (a cache
    /// fragment's), loaded back whole. A word or bit past `len` rows is
    /// dropped.
    pub fn load(&mut self, len: usize, index: &[u32], words: &[u64]) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        for (&i, &w) in index.iter().zip(words) {
            if let Some(slot) = self.words.get_mut(i as usize) {
                *slot = w;
            }
        }
        if let Some(last) = self.words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last &= (1u64 << tail) - 1;
            }
        }
        self.len = len;
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

    /// Keeps only the rows whose `col` value lies in `[lo, hi]`
    /// (inclusive), through [`dispatch`]. NaN values never satisfy the
    /// predicate, so missing data drops out of the selection for free.
    /// Words already empty are skipped.
    fn retain_range(&mut self, col: &[f64], lo: f64, hi: f64) {
        dispatch(Body::Range {
            words: &mut self.words,
            col,
            lo,
            hi,
        });
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
    range_mask_into(cols, len, lo, hi, &mut m);
    m
}

/// [`range_mask`] into a caller-owned mask (its word buffer is reused).
pub fn range_mask_into<C: AsRef<[f64]>>(
    cols: &[C],
    len: usize,
    lo: &[f64],
    hi: &[f64],
    out: &mut SelectionMask,
) {
    out.reset_all(len);
    range_retain(cols, lo, hi, out);
}

/// [`range_mask_into`] of `region` over coded columns: `cols` with
/// their byte codes `codes`, each value's [`byte_code`] under the zone
/// map `zone`, which bounds every finite value of `cols` — a storage
/// block's, or the box rows were gathered for. The same mask, bit for
/// bit; on a CPU with AVX2 each dimension reads
/// a byte per row and compares as `f64` only the rows on a bound's code
/// or on [`EXACT_CODE`] — a dimension whose zone map has no finite
/// scale is compared as `f64` whole, and a box that misses the zone map
/// on any dimension selects nothing without reading a row. Callers check
/// the dimensionality.
pub fn range_mask_coded<C: AsRef<[f64]>, K: AsRef<[u8]>>(
    cols: &[C],
    codes: &[K],
    zone: &Rect,
    region: &Rect,
    len: usize,
    out: &mut SelectionMask,
) {
    out.reset_all(len);
    let unset = CodedDim {
        codes: &[],
        col: &[],
        lo: 0.0,
        hi: 0.0,
        bounds: CodeBox {
            ge: 0,
            le: 0,
            at_lo: 0,
            at_hi: 0,
        },
    };
    let mut group = [unset; CODED_DIMS];
    let mut n = 0;
    for (d, (col, codes)) in cols.iter().zip(codes).enumerate() {
        let (col, lo, hi) = (col.as_ref(), region.lo()[d], region.hi()[d]);
        match Plan::of(zone.lo()[d], zone.hi()[d], lo, hi) {
            Plan::Miss => {
                out.words.fill(0);
                return;
            }
            Plan::Exact => out.retain_range(col, lo, hi),
            Plan::Codes(bounds) => {
                let codes = codes.as_ref();
                group[n] = CodedDim {
                    codes,
                    col,
                    lo,
                    hi,
                    bounds,
                };
                n += 1;
                if n == CODED_DIMS {
                    dispatch(Body::Codes {
                        words: &mut out.words,
                        dims: &group,
                    });
                    n = 0;
                }
            }
        }
    }
    if n > 0 {
        dispatch(Body::Codes {
            words: &mut out.words,
            dims: &group[..n],
        });
    }
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
    let mut m = SelectionMask::all(len);
    ball_retain(cols, center, radius, &mut m);
    m
}

/// Keeps only the selected rows of `cols` that lie in the inclusive box
/// `[lo, hi]`: [`range_mask`] intersected into `mask`, evaluated only on
/// words that still select a row. Callers check the dimensionality.
pub fn range_retain<C: AsRef<[f64]>>(cols: &[C], lo: &[f64], hi: &[f64], mask: &mut SelectionMask) {
    for (d, col) in cols.iter().enumerate() {
        if mask.is_none_set() {
            break;
        }
        mask.retain_range(col.as_ref(), lo[d], hi[d]);
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
/// gather that follows predicate evaluation): [`gather_words`] over the
/// mask's words.
pub fn gather(col: &[f64], mask: &SelectionMask, out: &mut Vec<f64>) {
    gather_words(col, &mask.words, out);
}

/// [`gather`] through a mask's words kept apart from it (see
/// [`SelectionMask::words`]): word `i` selects among rows `64 i ..
/// 64 i + 63` of `col`, and no word selects a row past its end. Each
/// word takes one of three bodies, which copy the same values in the
/// same order. A full word is one slice copy. Any other walks its first
/// eight set bits, which is all of a sparse word's; a word with at
/// least 32 rows left is then compacted without a branch per row into a
/// word's worth of spare capacity, and one with fewer rows left — or
/// that finds less than a word of spare capacity, as an output sized to
/// exactly the rows it will hold does at its end — walks on. Only the
/// walk's `push` checks capacity per value.
pub fn gather_words(col: &[f64], words: &[u64], out: &mut Vec<f64>) {
    for (wi, &w) in words.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let base = wi * 64;
        if w == u64::MAX {
            out.extend_from_slice(&col[base..base + 64]);
            continue;
        }
        let rest = gather_walk(col, base, w, GATHER_WALK_BITS, out);
        if rest == 0 {
            continue;
        }
        if rest.count_ones() >= GATHER_COMPACT_MIN_BITS && out.capacity() - out.len() >= 64 {
            gather_compact(&col[base..col.len().min(base + 64)], rest, out);
        } else {
            gather_walk(col, base, rest, 64, out);
        }
    }
}

/// Set bits [`gather_words`] walks before it counts a word's rest: a
/// word this sparse needs no popcount, which baseline x86-64 computes
/// in a dozen instructions.
const GATHER_WALK_BITS: usize = 8;

/// Fewest rows left after the first walk for which [`gather_words`]
/// compacts the rest of a word instead of walking on. The compaction
/// costs the same at every count, one step per row of the word, and the
/// walk one step per set bit; a timing of both through the crate on the
/// 2-core reference host read them even at about 40 rows a word (five
/// in eight).
const GATHER_COMPACT_MIN_BITS: u32 = 32;

/// Appends the rows of `chunk` that `w` selects by writing every row of
/// the word at the next free slot and advancing the slot by the row's
/// bit. The slots come from `out`'s spare capacity (the caller checks
/// there is a word of it, so nothing is reallocated) and the unselected
/// tail is cut off again.
fn gather_compact(chunk: &[f64], w: u64, out: &mut Vec<f64>) {
    let at = out.len();
    out.resize(at + 64, 0.0);
    let slots = &mut out[at..];
    let (mut k, mut bits) = (0, w);
    for &v in chunk {
        slots[k & 63] = v;
        k += (bits & 1) as usize;
        bits >>= 1;
    }
    out.truncate(at + k);
}

/// Appends the rows `base + j` of `col` for the set bits `j` of `w`, one
/// at a time, stopping after `most`; returns the bits it did not walk.
#[inline]
fn gather_walk(col: &[f64], base: usize, w: u64, most: usize, out: &mut Vec<f64>) -> u64 {
    let mut bits = w;
    for _ in 0..most {
        if bits == 0 {
            break;
        }
        out.push(col[base + bits.trailing_zeros() as usize]);
        bits &= bits - 1;
    }
    bits
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

    /// Both `f64` bodies of the range predicate — [`retain_range_portable`]
    /// called directly, and [`SelectionMask::retain_range`], which is the
    /// AVX2 body on a CPU that has AVX2 — keep exactly the rows the scalar
    /// filter keeps, and only among rows still selected.
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
                    let mut dispatched = before.clone();
                    dispatched.retain_range(&col, lo, hi);
                    assert_eq!(
                        dispatched, want,
                        "dispatched (AVX2: {avx2}), len {len}, [{lo:?}, {hi:?}]"
                    );
                }
            }
        }
    }

    /// A block's zone map on one column, as storage takes it: the min
    /// and max of its finite values, ±1e300 when there is none.
    fn zone_of(col: &[f64]) -> (f64, f64) {
        let mut finite = col.iter().copied().filter(|v| v.is_finite());
        let Some(first) = finite.next() else {
            return (-1e300, 1e300);
        };
        finite.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)))
    }

    /// A block of `cols`: its zone map and its byte codes.
    fn coded(cols: &[Vec<f64>]) -> (Rect, Vec<Vec<u8>>) {
        let (lo, hi): (Vec<f64>, Vec<f64>) = cols.iter().map(|c| zone_of(c)).unzip();
        let zone = Rect::new(lo, hi).unwrap();
        let codes = coded_under(cols, &zone);
        (zone, codes)
    }

    /// The byte codes of `cols` under `zone`.
    fn coded_under(cols: &[Vec<f64>], zone: &Rect) -> Vec<Vec<u8>> {
        (cols.iter().enumerate())
            .map(|(d, col)| {
                let (l, h) = (zone.lo()[d], zone.hi()[d]);
                col.iter().map(|&v| byte_code(l, h, v)).collect()
            })
            .collect()
    }

    fn scalar_filter(cols: &[Vec<f64>], len: usize, rect: &Rect) -> Vec<usize> {
        (0..len)
            .filter(|&i| {
                (cols.iter().enumerate()).all(|(d, c)| rect.lo()[d] <= c[i] && c[i] <= rect.hi()[d])
            })
            .collect()
    }

    /// [`byte_code`] is monotone over finite values inside a zone map —
    /// neighbouring floats, signed zeros, the map's ends — and codes
    /// every non-finite value, and every value of a map without a finite
    /// scale, [`EXACT_CODE`].
    #[test]
    fn byte_codes_are_monotone_and_reserve_the_exact_code() {
        let tiny = f64::from_bits(1);
        for (lo, hi) in [
            (0.0, 1.0),
            (-0.0, 0.5),
            (-3.0, 7.0),
            (-1e300, 1e300),
            (0.0, f64::MAX),
            (1.0, 1.0 + f64::EPSILON),
        ] {
            let mut values: Vec<f64> = (0..=2000)
                .map(|i| lo + (hi - lo) * (f64::from(i) / 2000.0))
                .filter(|v| (lo..=hi).contains(v))
                .collect();
            values.extend([lo, hi, 0.0, -0.0, lo.next_up(), hi.next_down()]);
            values.retain(|v| (lo..=hi).contains(v));
            values.sort_by(f64::total_cmp);
            let codes: Vec<u8> = values.iter().map(|&v| byte_code(lo, hi, v)).collect();
            assert!(codes.windows(2).all(|w| w[0] <= w[1]), "[{lo}, {hi}]");
            assert_eq!(byte_code(lo, hi, lo), 0);
            assert_eq!(byte_code(lo, hi, hi), EXACT_CODE - 1, "[{lo}, {hi}]");
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(byte_code(lo, hi, v), EXACT_CODE);
            }
        }
        // A constant map, a width that overflows, a subnormal width, a
        // normal width whose scale overflows.
        for (lo, hi) in [
            (2.5, 2.5),
            (f64::MIN, f64::MAX),
            (0.0, tiny * 3.0),
            (f64::MIN_POSITIVE, f64::MIN_POSITIVE * 2.0),
        ] {
            for v in [lo, hi, (lo + hi) / 2.0] {
                assert_eq!(byte_code(lo, hi, v), EXACT_CODE, "[{lo:e}, {hi:e}]");
            }
        }
    }

    /// Both bodies of the column coder — [`code_portable`] called
    /// directly, and [`byte_codes`], which decides the scale and
    /// dispatches — write each value's [`byte_code`]: over NaN, ±inf,
    /// ±0.0, subnormals, `f64::MAX`/`MIN`, values inside, on and outside
    /// the zone map, ragged lengths, and maps without a finite scale.
    #[test]
    fn both_coder_bodies_equal_byte_code() {
        let tiny = f64::from_bits(1);
        let edgy = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            -1e300,
            1e300,
        ];
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 11
        };
        let maps = [
            (0.0, 1.0),
            (-3.0, 7.0),
            (-0.0, 0.5),
            (-1e300, 1e300),
            (0.0, f64::MAX),
            (1.0, 1.0 + f64::EPSILON),
            (2.5, 2.5),
            (f64::MIN, f64::MAX),
            (0.0, tiny * 3.0),
            (f64::MIN_POSITIVE, f64::MIN_POSITIVE * 2.0),
        ];
        for (lo, hi) in maps {
            for len in [0, 1, 15, 16, 17, 63, 64, 513] {
                let vals: Vec<f64> = (0..len)
                    .map(|_| {
                        let r = next();
                        let t = (r % 1201) as f64 / 1000.0 - 0.1;
                        match r % 4 {
                            0 => edgy[r as usize % edgy.len()],
                            1 => [lo, hi, lo.next_up(), hi.next_down()][r as usize / 4 % 4],
                            _ => lo + (hi - lo) * t,
                        }
                    })
                    .collect();
                let want: Vec<u8> = vals.iter().map(|&v| byte_code(lo, hi, v)).collect();
                let mut got = vec![7; len];
                byte_codes(lo, hi, &vals, &mut got);
                assert_eq!(got, want, "byte_codes, len {len}, [{lo:e}, {hi:e}]");
                if let Some(scale) = code_scale(lo, hi) {
                    let mut portable = vec![7; len];
                    code_portable(&vals, lo, scale, &mut portable);
                    assert_eq!(portable, want, "portable, len {len}, [{lo:e}, {hi:e}]");
                }
            }
        }
    }

    /// The byte body of the range predicate — [`range_mask_coded`], and
    /// [`dispatch`] handed one dimension's [`Body::Codes`] over an
    /// arbitrary earlier selection — keeps exactly
    /// the rows the scalar filter keeps: over blocks of NaN, ±inf, ±0.0,
    /// subnormals and `f64::MAX`/`MIN`, constant blocks, zone maps whose
    /// width overflows or is subnormal or whose scale overflows, ragged
    /// lengths and one to three dimensions; and boxes below, above,
    /// straddling and inside the zone map, with bounds on a stored
    /// value's bits and on the map's ends. Half the blocks are coded
    /// under a map wider than their values, as rows gathered for a box
    /// are under the box.
    #[test]
    fn the_byte_body_equals_the_scalar_filter() {
        let tiny = f64::from_bits(1);
        let edgy = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            2.5,
            f64::MAX,
            f64::MIN,
        ];
        let state = std::cell::Cell::new(23u64);
        let next = || {
            let s = (state.get())
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state.set(s);
            s >> 11
        };
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let avx2 = false;
        // One column of `len` rows of kind `kind`.
        let column = |kind: u64, len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| {
                    let r = next();
                    let special = edgy[r as usize % edgy.len()];
                    let unit = (r % 1000) as f64 / 1000.0;
                    match kind {
                        0 => special,
                        1 if r % 9 == 0 => special,
                        1 => -3.0 + 10.0 * unit,
                        2 if r % 5 == 0 => f64::NAN,
                        2 => 2.5,
                        3 => tiny * (r % 4) as f64,
                        4 => f64::MIN_POSITIVE * (1.0 + (r % 2) as f64),
                        5 => f64::NAN,
                        6 => [0.0, -0.0, f64::MAX][r as usize % 3],
                        _ => (r % 7) as f64 - 3.0,
                    }
                })
                .collect()
        };
        for len in [0, 1, 63, 64, 65, 127, 511, 512, 513] {
            for dims in 1..=5 {
                for kinds in 0..8 {
                    let cols: Vec<Vec<f64>> = (0..dims)
                        .map(|d| column((kinds + 3 * d as u64) % 8, len))
                        .collect();
                    let (mut zone, mut codes) = coded(&cols);
                    if next() % 2 == 0 {
                        let (lo, hi): (Vec<f64>, Vec<f64>) = (zone.lo().iter().zip(zone.hi()))
                            .map(|(&lo, &hi)| {
                                let pad = [0.0, 0.5, 3.0, 1e10][next() as usize % 4];
                                (
                                    lo - pad * (next() % 3) as f64,
                                    hi + pad * (next() % 3) as f64,
                                )
                            })
                            .unzip();
                        zone = Rect::new(lo, hi).unwrap();
                        codes = coded_under(&cols, &zone);
                    }
                    // Bound candidates per dimension: the map's ends, just
                    // past them, stored values, points inside, far out.
                    let bound = |d: usize| -> f64 {
                        let (zlo, zhi) = (zone.lo()[d], zone.hi()[d]);
                        let stored = cols[d]
                            .get(next() as usize % len.max(1))
                            .copied()
                            .filter(|v| v.is_finite())
                            .unwrap_or(zlo);
                        let t = (next() % 1001) as f64 / 1000.0;
                        match next() % 8 {
                            0 => zlo,
                            1 => zhi,
                            2 => zlo.next_down(),
                            3 => zhi.next_up(),
                            4 | 5 => stored,
                            6 => zlo + (zhi - zlo) * t,
                            _ => [-1e300, 1e300, -5.0, 9.0][next() as usize % 4],
                        }
                    };
                    for _ in 0..12 {
                        let (lo, hi): (Vec<f64>, Vec<f64>) = (0..dims)
                            .map(|d| {
                                let (a, b) = (bound(d), bound(d));
                                let (a, b) = if a.is_finite() { (a, b) } else { (0.0, b) };
                                let b = if b.is_finite() { b } else { a };
                                (a.min(b), a.max(b))
                            })
                            .unzip();
                        let rect = Rect::new(lo, hi).unwrap();
                        let want = scalar_filter(&cols, len, &rect);
                        let mut got = SelectionMask::all(700);
                        range_mask_coded(&cols, &codes, &zone, &rect, len, &mut got);
                        assert_eq!(got.len(), len);
                        assert_eq!(
                            got.to_indices(),
                            want,
                            "range_mask_coded (AVX2: {avx2}), len {len}, kinds {kinds}, \
                             zone {zone:?}, box {rect:?}"
                        );
                        // The dispatcher, one dimension, over earlier bits.
                        let d = next() as usize % dims;
                        let (lo, hi) = (rect.lo()[d], rect.hi()[d]);
                        let Plan::Codes(bounds) = Plan::of(zone.lo()[d], zone.hi()[d], lo, hi)
                        else {
                            continue;
                        };
                        let mut before = SelectionMask::all(len);
                        for w in &mut before.words {
                            *w &= next() | next() << 53;
                        }
                        let mut want = before.clone();
                        for (i, &v) in cols[d].iter().enumerate() {
                            if !(lo <= v && v <= hi) {
                                want.words[i / 64] &= !(1 << (i % 64));
                            }
                        }
                        let mut dispatched = before.clone();
                        dispatch(Body::Codes {
                            words: &mut dispatched.words,
                            dims: &[CodedDim {
                                codes: &codes[d],
                                col: &cols[d],
                                lo,
                                hi,
                                bounds,
                            }],
                        });
                        assert_eq!(dispatched, want, "dispatched, len {len}, dim {d}");
                    }
                }
            }
        }
    }

    /// The byte body's `f64` fallback is rare: on uniform two-column
    /// 512-row blocks and boxes of 5–40 % extent per dimension, at most
    /// 2 % of the rows masked are compared as `f64` (counted inside the
    /// AVX2 body, so a CPU without it has nothing to pin).
    #[test]
    fn the_byte_body_compares_few_rows_as_f64() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let avx2 = false;
        if !avx2 {
            println!("no AVX2 on this CPU: the byte body does not run");
            return;
        }
        let mut state = 5u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut rows, mut mask) = (0, SelectionMask::none(0));
        EXACT_ROWS.with(|n| n.set(0));
        for _ in 0..400 {
            let cols: Vec<Vec<f64>> = (0..2).map(|_| (0..512).map(|_| unit()).collect()).collect();
            let (zone, codes) = coded(&cols);
            let (lo, hi): (Vec<f64>, Vec<f64>) = (0..2)
                .map(|_| {
                    let extent = 0.05 + 0.35 * unit();
                    let lo = unit() * (1.0 - extent);
                    (lo, lo + extent)
                })
                .unzip();
            let rect = Rect::new(lo, hi).unwrap();
            range_mask_coded(&cols, &codes, &zone, &rect, 512, &mut mask);
            assert_eq!(mask.to_indices(), scalar_filter(&cols, 512, &rect));
            rows += 512;
        }
        let exact = EXACT_ROWS.with(std::cell::Cell::get);
        println!("{exact} of {rows} rows compared as f64");
        assert!(exact > 0 && exact * 50 <= rows, "{exact} of {rows}");
    }

    /// Every body of the value gather — the slice copy of a full word,
    /// [`gather_compact`] and [`gather_walk`], each called directly on
    /// every word, and [`gather`], which picks among them by the word and
    /// the output's spare capacity — appends exactly the values the scalar
    /// filter keeps, bit for bit, NaN payloads included: over full,
    /// dense, sparse and empty words and ragged lengths, into outputs with
    /// exact, spare and zero capacity, after rows already there. An output
    /// with room for every row is never reallocated.
    #[test]
    fn every_gather_body_equals_the_scalar_filter() {
        let tiny = f64::from_bits(1);
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_dead_beef_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            -2.5,
            f64::MAX,
        ];
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 11
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in [0, 1, 63, 64, 65, 127, 511, 512, 513] {
            let col: Vec<f64> = (0..len)
                .map(|_| values[next() as usize % values.len()])
                .collect();
            // All set; empty; sparse; dense; every word a different kind.
            for shape in 0..5 {
                let mut mask = SelectionMask::all(len);
                for (i, w) in mask.words.iter_mut().enumerate() {
                    let r = next() | next() << 53;
                    *w &= match (shape, i % 4) {
                        (0, _) | (4, 0) => u64::MAX,
                        (1, _) | (4, 1) => 0,
                        (2, _) | (4, 2) => r & r >> 7 & r >> 13,
                        _ => r | r >> 5,
                    };
                }
                let want: Vec<f64> = (0..len).filter(|&i| mask.get(i)).map(|i| col[i]).collect();
                let before = [7.0, -0.0];
                for spare in [None, Some(0), Some(1), Some(63), Some(64), Some(200)] {
                    let mut out = match spare {
                        None => Vec::new(),
                        Some(s) => Vec::with_capacity(before.len() + want.len() + s),
                    };
                    out.extend_from_slice(&before);
                    let cap = out.capacity();
                    gather(&col, &mask, &mut out);
                    assert_eq!(
                        bits(&out[before.len()..]),
                        bits(&want),
                        "dispatched, len {len}, shape {shape}, spare {spare:?}"
                    );
                    assert_eq!(bits(&out[..before.len()]), bits(&before));
                    if spare.is_some() {
                        assert_eq!(out.capacity(), cap, "reallocated, spare {spare:?}");
                    }
                }
                let walk = |chunk: &[f64], w, out: &mut Vec<f64>| {
                    assert_eq!(gather_walk(chunk, 0, w, 64, out), 0);
                };
                for (name, body) in [
                    (
                        "compact",
                        &gather_compact as &dyn Fn(&[f64], u64, &mut Vec<f64>),
                    ),
                    ("walk", &walk),
                ] {
                    let mut out = Vec::new();
                    for (&w, chunk) in mask.words.iter().zip(col.chunks(64)) {
                        out.reserve(64);
                        body(chunk, w, &mut out);
                    }
                    assert_eq!(bits(&out), bits(&want), "{name}, len {len}, shape {shape}");
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
    /// zero radius; the same for a box and `range_mask`.
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
                    let and = |other: &SelectionMask| {
                        let mut both = before.clone();
                        for (w, o) in both.words.iter_mut().zip(&other.words) {
                            *w &= o;
                        }
                        both
                    };
                    let want = and(&dense);
                    let mut got = before.clone();
                    ball_retain(&cols, &center, radius, &mut got);
                    assert_eq!(got, want, "ball, len {len}, start {start}");
                    let want = and(&boxed);
                    let mut got = before.clone();
                    range_retain(&cols, &lo, &hi, &mut got);
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
