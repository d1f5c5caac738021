//! # sea-cache
//!
//! A deterministic, cost-aware **semantic answer cache** for the
//! analytical query path — the aggregate-query sibling of the
//! GraphCache-style subgraph cache in `sea-graph`.
//!
//! The paper's P2/P3 principles rest on workloads with overlapping,
//! drifting interest regions: analysts keep asking about the same
//! subspaces. Nothing on the exact path exploited that before this
//! crate — every repeated [`sea_common::AnalyticalQuery`] paid the full
//! scatter/gather bill again. [`SemanticCache`] closes the gap by
//! remembering, per (aggregate kind, region) key, both the merged
//! [`sea_common::AnswerValue`] and the per-partition answer *fragments*
//! (each node's matched rows: columns shared with the scan that read
//! them under the mask it selected them by, no value copied — see
//! [`ColumnFragment`]), so a later query is classified as one of:
//!
//! - **exact hit** — same aggregate, identical region: the stored answer
//!   is returned as-is;
//! - **containment hit** — same aggregate, the cached region *contains*
//!   the queried one: the answer is re-derived by loading each cached
//!   run's mask, narrowing it to the queried region and folding the
//!   run's columns through it, in order, with the kernels a cold scan
//!   runs — bit-identical to it, with every storage node skipped;
//! - **subsumption miss** — only strictly *smaller* cached regions
//!   exist: the query must execute, but the classification is surfaced
//!   (the workload's interest region grew);
//! - plain **miss** — nothing semantically related is cached.
//!
//! Admission is **cost-based**: an answer enters only when its simulated
//! recompute cost ([`sea_common::CostReport::wall_us`] of the execution
//! that produced it) exceeds [`CacheConfig::admit_min_cost_us`] — cheap
//! answers are cheaper to recompute than to store. Eviction is
//! **charge-aware**: when over [`CacheConfig::capacity_bytes`], the
//! entry with the lowest recompute-cost-per-byte goes first (ties broken
//! by admission sequence number), so the cache preferentially holds what
//! is expensive to rebuild and cheap to keep.
//!
//! ## Determinism contract
//!
//! No wall clock, no global RNG, `BTreeMap` iteration everywhere:
//! lookup, admission, and eviction depend only on the sequence of calls,
//! so cached and uncached runs — and runs at any `SEA_EXEC_THREADS`
//! setting — stay bit-reproducible. Consumers uphold their side by
//! consulting/populating the cache on the coordinator thread only (see
//! `sea-query`'s `Executor::with_cache`).
//!
//! ## Drift epochs
//!
//! [`SemanticCache::advance_epoch`] invalidates every entry admitted
//! before the bump — the hook a driver calls when the workload generator
//! shifts interest regions (and the hook a mutable-data deployment would
//! tie to ingest batches).
//!
//! Counters (`cache.hits`, `cache.containment_hits`, `cache.misses`,
//! `cache.subsumption_misses`, `cache.evictions`, `cache.insertions`,
//! `cache.invalidations`) and per-query events flow through an attached
//! [`sea_telemetry::TelemetrySink`].
//!
//! ```
//! use sea_cache::{CacheConfig, CacheDecision, SemanticCache};
//! use sea_common::{AggregateKind, AnswerValue, Rect, Region};
//!
//! let cache = SemanticCache::new(CacheConfig::default());
//! let region = Region::Range(Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap());
//! // First sight: a miss. Admit the (expensive-to-recompute) answer…
//! assert!(matches!(
//!     cache.lookup(&AggregateKind::Count, &region),
//!     CacheDecision::Miss { .. }
//! ));
//! assert!(cache.admit(&AggregateKind::Count, &region, &AnswerValue::Scalar(42.0), None, 25_000.0));
//! // …and the repeat is an exact hit.
//! assert!(matches!(
//!     cache.lookup(&AggregateKind::Count, &region),
//!     CacheDecision::Exact(AnswerValue::Scalar(v)) if v == 42.0
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sea_common::{
    AggregateKey, AggregateKind, AnswerValue, ColumnRange, Record, Rect, Region, SelectionMask,
};
use sea_telemetry::TelemetrySink;

/// Configuration of a [`SemanticCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Memory budget for cached entries (answers + fragments), in
    /// (simulated) bytes. Exceeding it triggers charge-aware eviction.
    pub capacity_bytes: u64,
    /// Cost-based admission threshold: only answers whose simulated
    /// recompute cost (µs) is at least this enter the cache.
    pub admit_min_cost_us: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 4 MiB holds a few hundred fragment-bearing entries at E19's
        // scales; 1 ms keeps sub-LAN-round-trip answers out (they are
        // cheaper to recompute than to manage).
        CacheConfig {
            capacity_bytes: 4 * 1024 * 1024,
            admit_min_cost_us: 1_000.0,
        }
    }
}

/// Monotone counters of everything the cache has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Exact hits (identical key and region).
    pub hits: u64,
    /// Containment hits (cached region ⊇ queried region, answer
    /// re-derived from fragments).
    pub containment_hits: u64,
    /// All misses, including subsumption misses.
    pub misses: u64,
    /// Misses where only strictly smaller cached regions existed for the
    /// key — the query *subsumes* what the cache holds.
    pub subsumption_misses: u64,
    /// Entries evicted under memory pressure.
    pub evictions: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries dropped by [`SemanticCache::advance_epoch`].
    pub invalidations: u64,
}

impl CacheStats {
    /// Exact + containment hits over all lookups (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits + self.containment_hits;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// One stretch of rows a fragment selects from, and which of them it
/// selects: each dimension's column over the stretch — shared with
/// wherever it is stored, not copied — and the stretch's selection mask
/// kept as only its words that select a row. Word `index[i]` is
/// `words[i]` and covers rows `64 index[i] .. 64 index[i] + 63` of the
/// columns; every other word selects nothing. So a kept word costs 12
/// bytes and selects at least one row. [`ColumnRun::new`] cuts every run.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRun {
    /// One column per dimension over the rows the run spans.
    pub cols: Vec<ColumnRange<f64>>,
    /// The index of each kept word, ascending.
    pub index: Vec<u32>,
    /// The kept words, none of them zero and none selecting a row past
    /// the columns' end.
    pub words: Vec<u64>,
}

impl ColumnRun {
    /// The run of the rows `mask` selects (a word per 64 rows, none
    /// past `span`) among the first `span` rows of `cols`, whose windows
    /// may reach past their own ends ([`ColumnRange::window`]): the
    /// columns shared, windowed from the first to the last word that
    /// selects a row, and only those words kept. `None` if none selects.
    pub fn new(cols: &[ColumnRange<f64>], span: usize, mask: &[u64]) -> Option<Self> {
        let mask = &mask[..mask.len().min(span.div_ceil(64))];
        let lo = mask.iter().position(|&w| w != 0)?;
        let hi = mask.iter().rposition(|&w| w != 0)?;
        let n = mask[lo..=hi].iter().filter(|&&w| w != 0).count();
        let (mut index, mut words) = (vec![0u32; n], vec![0u64; n]);
        // With no branch per word: each word is written to the next free
        // slot, which only a non-zero word claims; the window ends in a
        // non-zero word, so a zero one's slot is overwritten and in bounds.
        let mut k = 0;
        for (i, &w) in mask[lo..=hi].iter().enumerate() {
            (index[k], words[k]) = (i as u32, w);
            k += usize::from(w != 0);
        }
        let rows = 64 * lo..span.min(64 * (hi + 1));
        let cols = cols.iter().map(|c| c.window(rows.clone())).collect();
        Some(ColumnRun { cols, index, words })
    }

    /// Rows the run selects.
    pub fn rows(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Loads the run's selection into `mask` (its word buffer is
    /// reused): a mask over every row of the run's columns, the kept
    /// words set. A run without columns spans no row; no region of a
    /// dimension or more selects from it anyway.
    pub fn mask_into(&self, mask: &mut SelectionMask) {
        let span = self.cols.first().map_or(0, |c| c.len());
        mask.load(span, &self.index, &self.words);
    }
}

/// One storage partition's contribution to a cached answer: the rows
/// that matched the cached region on that node, as [`ColumnRun`]s in
/// scan order — shared columns under the mask the scan selected the
/// rows by, with no value copied. A containment hit loads each run's
/// mask, narrows it to the queried region and folds the run's columns
/// through it, run after run. Rows carry no ids: an aggregate never
/// reads one.
///
/// A fragment shares its columns with the storage segment or the
/// gather it was cut from, so an entry keeps them alive until it is
/// evicted or invalidated — also after the table's rows change under
/// it (a delete compacts a copy of the columns; a reload builds new
/// ones): the entry still answers for the rows it was cut from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnFragment {
    /// The runs, in scan order; none when no row matched.
    pub runs: Vec<ColumnRun>,
}

impl ColumnFragment {
    /// Matched rows over all runs.
    pub fn rows(&self) -> usize {
        self.runs.iter().map(ColumnRun::rows).sum()
    }

    /// Simulated bytes this fragment occupies in the cache: a header
    /// plus, per row, an id-sized slot, a length and its values — what
    /// the row it stands for is billed, whatever the host layout (how
    /// many runs, columns shared or not). A kept word costs the host 12
    /// bytes and selects at least one row, so this bill (at least 24
    /// bytes a row) bounds the masks a cache holds too.
    pub fn memory_bytes(&self) -> u64 {
        let dims = self.runs.first().map_or(0, |r| r.cols.len());
        24 + self.rows() as u64 * (16 + 8 * dims as u64)
    }
}

/// A fragment handed over as rows. Kept for producers that hold
/// [`Record`]s (the wall-clock benchmark's admission probe); the cache
/// stores [`ColumnFragment`]s only, so [`SemanticCache::admit`]
/// transposes these once on the way in.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFragment {
    /// The storage node this fragment came from.
    pub node: u64,
    /// Matched records, in the node's scan order.
    pub records: Vec<Record>,
}

impl From<NodeFragment> for ColumnFragment {
    /// Transposes the rows into columns of their own, one run that
    /// selects every row. Its rows are the frozen benchmark's admission
    /// probe's, cut from one table and all of its arity; storage refuses
    /// a short row, but `From` cannot, so one shorter than the widest is
    /// padded with NaN (missing).
    fn from(fragment: NodeFragment) -> Self {
        let records = fragment.records;
        let dims = records.iter().map(Record::dims).max().unwrap_or(0);
        let value = |r: &Record, d: usize| r.values.get(d).copied().unwrap_or(f64::NAN);
        let column = |d| ColumnRange::from(Vec::from_iter(records.iter().map(|r| value(r, d))));
        let cols: Vec<_> = (0..dims).map(column).collect();
        let every = SelectionMask::all(records.len());
        let run = ColumnRun::new(&cols, records.len(), every.words());
        ColumnFragment {
            runs: run.into_iter().collect(),
        }
    }
}

/// How a lookup was classified.
#[derive(Debug, Clone)]
pub enum CacheDecision {
    /// Identical key and region: the stored answer, verbatim.
    Exact(AnswerValue),
    /// A cached region contains the queried one: per-node fragments to
    /// re-derive the answer from, shared with the cache's own entry.
    Containment(Arc<[ColumnFragment]>),
    /// Nothing reusable.
    Miss {
        /// Whether cached entries for the key exist whose regions are
        /// strictly contained in the queried one (a *subsumption* miss).
        subsumed: bool,
    },
}

#[derive(Debug)]
struct Entry {
    rect: Rect,
    answer: AnswerValue,
    /// Present when the producer shipped per-node fragments; answer-only
    /// entries (admitted by a producer that never saw partials)
    /// serve exact hits but cannot serve containment hits.
    fragments: Option<Arc<[ColumnFragment]>>,
    /// Rows over all fragments, summed once at admission: what a
    /// containment hit re-derives from, so the fewest win a lookup.
    rows: u64,
    /// Simulated cost (µs) of the execution that produced the answer —
    /// what a future exact hit saves.
    recompute_cost_us: f64,
    bytes: u64,
    epoch: u64,
    /// Admission sequence number: the deterministic tie-break.
    seq: u64,
}

impl Entry {
    fn cost_per_byte(&self) -> f64 {
        self.recompute_cost_us / self.bytes.max(1) as f64
    }
}

/// One pass over a key's entries, in admission order. The precedence
/// is fixed: the first entry whose rectangle equals `exact_rect`; else,
/// among fragment-bearing entries containing `bbox`, the one with the
/// least `(rows, seq)`; else a miss, subsumed when some entry lies
/// inside `bbox`.
fn classify(list: &[Entry], exact_rect: Option<&Rect>, bbox: &Rect) -> CacheDecision {
    let mut best: Option<&Entry> = None;
    let mut subsumed = false;
    for e in list {
        if exact_rect == Some(&e.rect) {
            return CacheDecision::Exact(e.answer);
        }
        if e.fragments.is_some()
            && best.is_none_or(|b| (e.rows, e.seq) < (b.rows, b.seq))
            && e.rect.contains_rect(bbox)
        {
            best = Some(e);
        }
        subsumed = subsumed || bbox.contains_rect(&e.rect);
    }
    match best.and_then(|e| e.fragments.as_ref()) {
        Some(fragments) => CacheDecision::Containment(Arc::clone(fragments)),
        None => CacheDecision::Miss { subsumed },
    }
}

#[derive(Debug, Default)]
struct State {
    /// Aggregate key → entries in admission order. `BTreeMap` for
    /// deterministic iteration during eviction.
    entries: BTreeMap<AggregateKey, Vec<Entry>>,
    total_bytes: u64,
    next_seq: u64,
    epoch: u64,
    stats: CacheStats,
}

/// The cost-aware semantic answer cache. Interior-mutable (all methods
/// take `&self`) so one instance threads through an `Executor` and an
/// `AgentPipeline` without plumbing `&mut` everywhere; a single
/// [`parking_lot::Mutex`] keeps operations atomic.
#[derive(Debug)]
pub struct SemanticCache {
    state: Mutex<State>,
    config: CacheConfig,
    telemetry: TelemetrySink,
}

impl Default for SemanticCache {
    fn default() -> Self {
        SemanticCache::new(CacheConfig::default())
    }
}

impl SemanticCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        SemanticCache {
            state: Mutex::new(State::default()),
            config,
            telemetry: TelemetrySink::noop(),
        }
    }

    /// Attaches a telemetry sink: `cache.*` counters and per-query
    /// events flow into it.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Classifies `(agg, region)` against the cached entries and bumps
    /// the matching counters. Exact hits require an identical rectangle
    /// (only `Region::Range` selections are admitted); containment hits
    /// additionally serve `Region::Radius` queries whose bounding box
    /// fits inside a fragment-bearing cached rectangle. When several
    /// entries contain the query, the one with the fewest cached records
    /// (cheapest re-derivation) wins, ties broken by admission order.
    pub fn lookup(&self, agg: &AggregateKind, region: &Region) -> CacheDecision {
        let key = agg.key();
        // A rectangle is its own bounding box: only a ball builds one.
        let (exact_rect, bbox) = match region {
            Region::Range(r) => (Some(r), Cow::Borrowed(r)),
            _ => (None, Cow::Owned(region.bounding_rect())),
        };
        let decision = {
            let mut st = self.state.lock();
            let found = match st.entries.get(&key) {
                Some(list) => classify(list, exact_rect, &bbox),
                None => CacheDecision::Miss { subsumed: false },
            };
            match &found {
                CacheDecision::Exact(_) => st.stats.hits += 1,
                CacheDecision::Containment(_) => st.stats.containment_hits += 1,
                CacheDecision::Miss { subsumed } => {
                    st.stats.misses += 1;
                    if *subsumed {
                        st.stats.subsumption_misses += 1;
                    }
                }
            }
            found
        };
        match &decision {
            CacheDecision::Exact(_) => {
                self.telemetry.incr("cache.hits", 1);
                self.telemetry
                    .event("cache.hit", &[("class", "exact".into())]);
            }
            CacheDecision::Containment(frags) => {
                self.telemetry.incr("cache.containment_hits", 1);
                self.telemetry.event(
                    "cache.hit",
                    &[
                        ("class", "containment".into()),
                        ("fragments", frags.len().into()),
                    ],
                );
            }
            CacheDecision::Miss { subsumed } => {
                self.telemetry.incr("cache.misses", 1);
                if *subsumed {
                    self.telemetry.incr("cache.subsumption_misses", 1);
                }
                self.telemetry
                    .event("cache.miss", &[("subsumed", (*subsumed).into())]);
            }
        }
        decision
    }

    /// Offers an answer for admission; returns whether it was admitted.
    ///
    /// Rejected when the region is not a `Region::Range` (only
    /// rectangles support the exact/containment algebra), when
    /// `recompute_cost_us` is below the admission threshold, or when the
    /// entry alone would exceed the whole capacity. An existing entry
    /// with the same key and rectangle is replaced. Admission may evict:
    /// while over capacity, the entry with the lowest
    /// recompute-cost-per-byte is dropped (stable tie-break on admission
    /// sequence).
    pub fn admit_columns(
        &self,
        agg: &AggregateKind,
        region: &Region,
        answer: &AnswerValue,
        fragments: Option<Vec<ColumnFragment>>,
        recompute_cost_us: f64,
    ) -> bool {
        let Region::Range(rect) = region else {
            return false;
        };
        // A NaN cost is unpriceable — reject it along with cheap entries.
        if recompute_cost_us.is_nan() || recompute_cost_us < self.config.admit_min_cost_us {
            return false;
        }
        let held = fragments.as_deref().unwrap_or_default();
        let bytes = 64 + held.iter().map(ColumnFragment::memory_bytes).sum::<u64>();
        if bytes > self.config.capacity_bytes {
            return false;
        }
        let rows = held.iter().map(|f| f.rows() as u64).sum();
        let mut evicted = 0u64;
        {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            let seq = st.next_seq;
            st.next_seq += 1;
            let list = st.entries.entry(agg.key()).or_default();
            if let Some(pos) = list.iter().position(|e| e.rect == *rect) {
                st.total_bytes -= list.remove(pos).bytes;
            }
            list.push(Entry {
                rect: rect.clone(),
                answer: *answer,
                fragments: fragments.map(Arc::from),
                rows,
                recompute_cost_us,
                bytes,
                epoch: st.epoch,
                seq,
            });
            st.total_bytes += bytes;
            st.stats.insertions += 1;
            while st.total_bytes > self.config.capacity_bytes && Self::evict_one(st) {
                evicted += 1;
            }
        }
        self.telemetry.incr("cache.insertions", 1);
        self.telemetry.event(
            "cache.admitted",
            &[
                ("bytes", bytes.into()),
                ("cost_us", recompute_cost_us.into()),
            ],
        );
        if evicted > 0 {
            self.telemetry.incr("cache.evictions", evicted);
            self.telemetry
                .event("cache.evicted", &[("entries", evicted.into())]);
        }
        true
    }

    /// [`SemanticCache::admit_columns`] for a producer that holds its
    /// fragments as rows: each is transposed once (see
    /// [`NodeFragment`]) and the columnar admission runs.
    pub fn admit(
        &self,
        agg: &AggregateKind,
        region: &Region,
        answer: &AnswerValue,
        fragments: Option<Vec<NodeFragment>>,
        recompute_cost_us: f64,
    ) -> bool {
        let columns = fragments.map(|fs| fs.into_iter().map(ColumnFragment::from).collect());
        self.admit_columns(agg, region, answer, columns, recompute_cost_us)
    }

    /// Evicts the entry with the lowest recompute-cost-per-byte (ties:
    /// lowest admission sequence). Returns false when the cache is empty.
    fn evict_one(st: &mut State) -> bool {
        let order = |a: &Entry, b: &Entry| {
            a.cost_per_byte()
                .total_cmp(&b.cost_per_byte())
                .then(a.seq.cmp(&b.seq))
        };
        // Each key's cheapest entry, then the cheapest of those.
        let victim = st
            .entries
            .iter_mut()
            .filter_map(|(key, list)| {
                let pos = (0..list.len()).min_by(|&a, &b| order(&list[a], &list[b]))?;
                Some((key, list, pos))
            })
            .min_by(|(_, la, a), (_, lb, b)| order(&la[*a], &lb[*b]));
        let Some((key, list, pos)) = victim else {
            return false;
        };
        st.total_bytes -= list.remove(pos).bytes;
        st.stats.evictions += 1;
        if list.is_empty() {
            let key = *key;
            st.entries.remove(&key);
        }
        true
    }

    /// Starts a new drift epoch, invalidating every entry admitted
    /// before the bump, and returns the new epoch. The hook for workload
    /// drift (interest regions moved; cached regions are no longer worth
    /// their memory) and for data-mutation boundaries (cached answers
    /// would be stale).
    pub fn advance_epoch(&self) -> u64 {
        let (epoch, dropped) = {
            let mut st = self.state.lock();
            st.epoch += 1;
            let epoch = st.epoch;
            let mut dropped = 0u64;
            let mut freed = 0u64;
            for list in st.entries.values_mut() {
                list.retain(|e| {
                    let keep = e.epoch >= epoch;
                    if !keep {
                        dropped += 1;
                        freed += e.bytes;
                    }
                    keep
                });
            }
            st.entries.retain(|_, list| !list.is_empty());
            st.total_bytes -= freed;
            st.stats.invalidations += dropped;
            (epoch, dropped)
        };
        self.telemetry.incr("cache.invalidations", dropped);
        self.telemetry.event(
            "cache.epoch_advanced",
            &[("epoch", epoch.into()), ("dropped", dropped.into())],
        );
        epoch
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state.lock().entries.values().map(Vec::len).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulated bytes currently held.
    pub fn memory_bytes(&self) -> u64 {
        self.state.lock().total_bytes
    }

    /// Drops every entry (counters and epoch are kept).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.entries.clear();
        st.total_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(lo: [f64; 2], hi: [f64; 2]) -> Region {
        Region::Range(Rect::new(lo.to_vec(), hi.to_vec()).unwrap())
    }

    fn frag(node: u64, n: usize) -> NodeFragment {
        NodeFragment {
            node,
            records: (0..n)
                .map(|i| Record::new(i as u64, vec![i as f64, i as f64]))
                .collect(),
        }
    }

    #[test]
    fn classification_exact_containment_subsumption() {
        let cache = SemanticCache::new(CacheConfig::default());
        let big = range([0.0, 0.0], [20.0, 20.0]);
        let small = range([5.0, 5.0], [10.0, 10.0]);
        let huge = range([-10.0, -10.0], [50.0, 50.0]);
        assert!(cache.admit(
            &AggregateKind::Count,
            &big,
            &AnswerValue::Scalar(7.0),
            Some(vec![frag(0, 4), frag(1, 3)]),
            10_000.0,
        ));
        // Exact.
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &big),
            CacheDecision::Exact(AnswerValue::Scalar(v)) if v == 7.0
        ));
        // Containment: smaller region served from fragments.
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &small),
            CacheDecision::Containment(frags) if frags.len() == 2
        ));
        // Subsumption: the query contains what we cached.
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &huge),
            CacheDecision::Miss { subsumed: true }
        ));
        // A different aggregate kind is a plain miss.
        assert!(matches!(
            cache.lookup(&AggregateKind::Sum { dim: 0 }, &big),
            CacheDecision::Miss { subsumed: false }
        ));
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.containment_hits, s.misses, s.subsumption_misses),
            (1, 1, 2, 1)
        );
    }

    #[test]
    fn answer_only_entries_never_serve_containment() {
        let cache = SemanticCache::new(CacheConfig::default());
        let big = range([0.0, 0.0], [20.0, 20.0]);
        let small = range([5.0, 5.0], [10.0, 10.0]);
        assert!(cache.admit(
            &AggregateKind::Count,
            &big,
            &AnswerValue::Scalar(7.0),
            None,
            10_000.0,
        ));
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &small),
            CacheDecision::Miss { .. }
        ));
    }

    #[test]
    fn cost_based_admission_rejects_cheap_answers() {
        let cache = SemanticCache::new(CacheConfig {
            admit_min_cost_us: 500.0,
            ..CacheConfig::default()
        });
        let r = range([0.0, 0.0], [1.0, 1.0]);
        assert!(!cache.admit(
            &AggregateKind::Count,
            &r,
            &AnswerValue::Scalar(1.0),
            None,
            499.9
        ));
        assert!(!cache.admit(
            &AggregateKind::Count,
            &r,
            &AnswerValue::Scalar(1.0),
            None,
            f64::NAN
        ));
        assert!(cache.admit(
            &AggregateKind::Count,
            &r,
            &AnswerValue::Scalar(1.0),
            None,
            500.0
        ));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn radius_regions_are_not_admitted() {
        use sea_common::{Ball, Point};
        let cache = SemanticCache::new(CacheConfig::default());
        let ball = Region::Radius(Ball::new(Point::new(vec![5.0, 5.0]), 2.0).unwrap());
        assert!(!cache.admit(
            &AggregateKind::Count,
            &ball,
            &AnswerValue::Scalar(1.0),
            None,
            1e6
        ));
        // …but a ball query inside a cached rectangle is a containment hit.
        let big = range([0.0, 0.0], [20.0, 20.0]);
        assert!(cache.admit(
            &AggregateKind::Count,
            &big,
            &AnswerValue::Scalar(9.0),
            Some(vec![frag(0, 2)]),
            1e6
        ));
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &ball),
            CacheDecision::Containment(_)
        ));
    }

    #[test]
    fn eviction_order_is_deterministic_and_charge_aware() {
        // Capacity fits two fragment entries; admitting a third evicts
        // the lowest cost-per-byte one. Identical insert sequences must
        // produce identical eviction sequences.
        let run = || {
            let cache = SemanticCache::new(CacheConfig {
                capacity_bytes: 2 * (64 + 24 + 10 * 32),
                admit_min_cost_us: 0.0,
            });
            let regions = [
                range([0.0, 0.0], [1.0, 1.0]),
                range([2.0, 0.0], [3.0, 1.0]),
                range([4.0, 0.0], [5.0, 1.0]),
            ];
            // Same size, increasing recompute cost: the first (cheapest
            // per byte) is the deterministic victim.
            for (i, r) in regions.iter().enumerate() {
                cache.admit(
                    &AggregateKind::Count,
                    r,
                    &AnswerValue::Scalar(i as f64),
                    Some(vec![frag(0, 10)]),
                    1_000.0 * (i + 1) as f64,
                );
            }
            let survivors: Vec<bool> = regions
                .iter()
                .map(|r| {
                    matches!(
                        cache.lookup(&AggregateKind::Count, r),
                        CacheDecision::Exact(_)
                    )
                })
                .collect();
            (survivors, cache.stats().evictions, cache.len())
        };
        let (survivors, evictions, len) = run();
        assert_eq!(
            survivors,
            vec![false, true, true],
            "cheapest-per-byte first"
        );
        assert_eq!(evictions, 1);
        assert_eq!(len, 2);
        for _ in 0..5 {
            assert_eq!(run(), (survivors.clone(), evictions, len), "deterministic");
        }
    }

    #[test]
    fn eviction_ties_break_by_admission_sequence() {
        let entry_bytes = 64 + 24 + 10 * 32;
        let cache = SemanticCache::new(CacheConfig {
            capacity_bytes: 2 * entry_bytes,
            admit_min_cost_us: 0.0,
        });
        let regions = [
            range([0.0, 0.0], [1.0, 1.0]),
            range([2.0, 0.0], [3.0, 1.0]),
            range([4.0, 0.0], [5.0, 1.0]),
        ];
        // Identical cost-per-byte everywhere: the oldest admission loses.
        for r in &regions {
            cache.admit(
                &AggregateKind::Count,
                r,
                &AnswerValue::Scalar(0.0),
                Some(vec![frag(0, 10)]),
                5_000.0,
            );
        }
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &regions[0]),
            CacheDecision::Miss { .. }
        ));
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &regions[1]),
            CacheDecision::Exact(_)
        ));
    }

    #[test]
    fn advance_epoch_drops_pre_drift_entries() {
        let cache = SemanticCache::new(CacheConfig::default());
        let r0 = range([0.0, 0.0], [1.0, 1.0]);
        let r1 = range([2.0, 0.0], [3.0, 1.0]);
        cache.admit(
            &AggregateKind::Count,
            &r0,
            &AnswerValue::Scalar(1.0),
            None,
            1e6,
        );
        assert_eq!(cache.advance_epoch(), 1);
        assert!(cache.is_empty(), "pre-drift entries dropped");
        assert_eq!(cache.memory_bytes(), 0);
        assert_eq!(cache.stats().invalidations, 1);
        // Post-drift admissions live in the new epoch.
        cache.admit(
            &AggregateKind::Count,
            &r1,
            &AnswerValue::Scalar(2.0),
            None,
            1e6,
        );
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &r1),
            CacheDecision::Exact(_)
        ));
    }

    #[test]
    fn a_dense_run_selects_every_row_it_spans() {
        for rows in [1, 63, 64, 65, 130] {
            let col = ColumnRange::from((0..rows).map(|i| i as f64).collect::<Vec<_>>());
            let run = ColumnRun::new(&[col], rows, SelectionMask::all(rows).words()).unwrap();
            assert_eq!(run.rows(), rows);
            let mut mask = SelectionMask::none(0);
            run.mask_into(&mut mask);
            assert_eq!(mask, SelectionMask::all(rows), "{rows} rows");
        }
        assert_eq!(ColumnRun::new(&[], 0, &[]), None);
    }

    #[test]
    fn a_run_shares_its_columns_windowed_to_its_selected_words() {
        let col = ColumnRange::from((0..300).map(f64::from).collect::<Vec<_>>());
        // Rows 70 and 200 of 300; a word past the span is dropped.
        let mask = [0, 1 << 6, 0, 1 << 8, 0, u64::MAX];
        let run = ColumnRun::new(std::slice::from_ref(&col), 300, &mask).unwrap();
        assert_eq!(run.index, [0, 2]);
        assert_eq!(run.words, [1 << 6, 1 << 8]);
        assert_eq!(run.cols[0].rows(), 64..256);
        assert!(std::sync::Arc::ptr_eq(run.cols[0].column(), col.column()));
        let mut selected = SelectionMask::none(0);
        run.mask_into(&mut selected);
        assert_eq!(selected.to_indices(), [70 - 64, 200 - 64]);
        assert_eq!(ColumnRun::new(&[col], 300, &[0, 0]), None);
    }

    #[test]
    fn replacing_an_entry_does_not_leak_bytes() {
        let cache = SemanticCache::new(CacheConfig::default());
        let r = range([0.0, 0.0], [1.0, 1.0]);
        for i in 0..5 {
            cache.admit(
                &AggregateKind::Count,
                &r,
                &AnswerValue::Scalar(i as f64),
                Some(vec![frag(0, 10)]),
                1e6,
            );
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.memory_bytes(), 64 + 24 + 10 * 32);
        assert!(matches!(
            cache.lookup(&AggregateKind::Count, &r),
            CacheDecision::Exact(AnswerValue::Scalar(v)) if v == 4.0
        ));
    }

    #[test]
    fn telemetry_counters_flow_to_the_sink() {
        let sink = TelemetrySink::recording();
        let cache = SemanticCache::new(CacheConfig::default()).with_telemetry(sink.clone());
        let big = range([0.0, 0.0], [20.0, 20.0]);
        let small = range([5.0, 5.0], [10.0, 10.0]);
        cache.lookup(&AggregateKind::Count, &big);
        cache.admit(
            &AggregateKind::Count,
            &big,
            &AnswerValue::Scalar(7.0),
            Some(vec![frag(0, 4)]),
            10_000.0,
        );
        cache.lookup(&AggregateKind::Count, &big);
        cache.lookup(&AggregateKind::Count, &small);
        cache.advance_epoch();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("cache.hits"), 1);
        assert_eq!(snap.counter("cache.containment_hits"), 1);
        assert_eq!(snap.counter("cache.misses"), 1);
        assert_eq!(snap.counter("cache.insertions"), 1);
        assert_eq!(snap.counter("cache.invalidations"), 1);
        assert!(snap.event_count("cache.hit") == 2);
        assert!(snap.event_count("cache.admitted") == 1);
    }
}
