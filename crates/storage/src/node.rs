//! A single simulated data-server node.
//!
//! A node keeps a table's rows column-major and contiguous: one id
//! column and one `Vec<f64>` per dimension, in node record order, for
//! the rows a load gave it, and one more such set (a segment) for each
//! later insert. A [`Block`] — the unit of disk I/O and of zone-map
//! pruning — is a run of a segment's rows plus its zone map, and serves
//! its columns as ranges of the segment's. A scan of
//! consecutive blocks therefore walks each column front to back instead
//! of hopping between small allocations, which the hardware prefetcher
//! follows across pages (DESIGN.md, "Why a node's columns are
//! contiguous"), and an insert writes only its own rows.

use std::ops::Range;
use std::sync::Arc;

use sea_common::{kernels, ColumnRange, CostMeter, Record, RecordId, Rect, Region, SelectionMask};

/// A storage block: the unit of disk I/O, a run of rows of one segment
/// of its node's columns, each row of its table's arity.
///
/// Scans evaluate predicates as selection bitmaps over the block's
/// dimension slices — tight slice loops the compiler autovectorizes —
/// and only then gather or materialize the selected values.
///
/// Blocks also carry the bounding rectangle of their records so engines
/// can prune irrelevant blocks without reading them (the zone-map style
/// metadata that makes "surgical" access possible at all). Bounds are
/// computed per dimension over *finite* values only, seeded from the
/// first one: a missing (NaN) or infinite value lies in no region a scan
/// can ask for, so it neither widens a zone map nor costs the block its
/// map (bounds must be finite; a block without one is never read by a
/// pruned scan).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    ids: ColumnRange<RecordId>,
    cols: Vec<ColumnRange<f64>>,
    bounds: Option<Rect>,
}

impl Block {
    /// The id column.
    pub fn ids(&self) -> &[RecordId] {
        &self.ids
    }

    /// Number of dimensions (columns) in the block.
    pub fn dims(&self) -> usize {
        self.cols.len()
    }

    /// The values of dimension `d`, one entry per row (NaN = missing).
    pub fn col(&self, d: usize) -> &[f64] {
        &self.cols[d]
    }

    /// All dimension columns, each read as `&[f64]` — the form the mask
    /// kernels take.
    pub fn cols(&self) -> &[ColumnRange<f64>] {
        &self.cols
    }

    /// Bounding rectangle of the block's records (`None` for a table of
    /// no dimensions).
    pub fn bounds(&self) -> Option<&Rect> {
        self.bounds.as_ref()
    }

    /// Serialized size in bytes (what a disk read of this block costs):
    /// [`Record::bytes_of`] its arity, per row.
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * Record::bytes_of(self.dims())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Materializes row `i` back into a [`Record`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn record(&self, i: usize) -> Record {
        Record::new(self.ids[i], self.cols.iter().map(|c| c[i]).collect())
    }

    /// Selection bitmap of rows inside the inclusive box `region` — the
    /// columnar equivalent of the row filter `r.dims() == region.dims()
    /// && ∀d: lo[d] <= v[d] <= hi[d]` — written into the caller's mask,
    /// so a scan loop re-fills one word buffer instead of allocating one
    /// per block. `ahead` is the block the scan masks next, if any: its
    /// columns are prefetched while this block's are masked. A
    /// dimensionality mismatch selects nothing; NaN (missing) values
    /// never match.
    pub fn bbox_mask(&self, region: &Rect, ahead: Option<&Block>, out: &mut SelectionMask) {
        if self.dims() == region.dims() {
            let ahead = ahead.map_or(&[][..], |b| &b.cols[..]);
            kernels::range_mask_into(&self.cols, ahead, self.len(), region.lo(), region.hi(), out);
        } else {
            *out = SelectionMask::none(self.len());
        }
    }

    /// Selection bitmap of rows inside `region`, bit-identical to
    /// filtering materialized rows through `region.contains_record`.
    pub fn region_mask(&self, region: &Region) -> SelectionMask {
        region.column_mask(&self.cols, self.len())
    }

    /// Whether `next` holds the rows of this block's segment that follow
    /// this block's: each column of the two is one stretch of the
    /// segment's, which [`ColumnRange::window`] reads past this block.
    pub fn precedes(&self, next: &Block) -> bool {
        self.shares_segment(next) && self.ids.rows().end == next.ids.rows().start
    }

    /// Whether `other` is a row range of the same [`Segment`].
    fn shares_segment(&self, other: &Block) -> bool {
        Arc::ptr_eq(self.ids.column(), other.ids.column())
    }

    /// What the block is apart from the columns it reads.
    fn into_span(self) -> Span {
        Span {
            rows: self.ids.rows(),
            bounds: self.bounds,
        }
    }
}

/// A block apart from its columns: its rows of its segment, its zone map.
#[derive(Default)]
struct Span {
    rows: Range<usize>,
    bounds: Option<Rect>,
}

impl Span {
    /// An empty span at row `row`, to be filled.
    fn starting_at(row: usize) -> Span {
        Span {
            rows: row..row,
            ..Span::default()
        }
    }
}

/// Rows of a node written together — by one append, or by a delete's
/// compaction — as an id column and one column per dimension of their
/// table, in record order: the owned form of what a run of consecutive
/// blocks holds ranges of. A load writes each node one segment, so a
/// loaded node's columns are contiguous; each later append adds one.
#[derive(Default)]
struct Segment {
    ids: Vec<RecordId>,
    cols: Vec<Vec<f64>>,
    spans: Vec<Span>,
}

impl Segment {
    /// The columns a run of blocks — every block of one segment, as
    /// [`Block::shares_segment`] groups them — holds ranges of, the
    /// blocks dropped to their spans. Nothing else holds the columns
    /// then, so they come out without a copy — unless a caller kept a
    /// [`Block`] or a [`ColumnRange`] of them (a semantic cache's
    /// fragment does): then they are copied, and the holder keeps the
    /// rows as they were.
    fn take(run: Vec<Block>) -> Segment {
        let Some(first) = run.first() else {
            return Segment::default();
        };
        let ids = Arc::clone(first.ids.column());
        let cols: Vec<_> = first.cols.iter().map(|c| Arc::clone(c.column())).collect();
        let spans = run.into_iter().map(Block::into_span).collect();
        Segment {
            ids: Arc::unwrap_or_clone(ids),
            cols: cols.into_iter().map(Arc::unwrap_or_clone).collect(),
            spans,
        }
    }

    /// Pushes the segment's blocks, one per span, onto `out`.
    fn push_blocks(self, out: &mut Vec<Block>) {
        let ids = Arc::new(self.ids);
        let cols: Vec<_> = self.cols.into_iter().map(Arc::new).collect();
        out.extend(self.spans.into_iter().map(|span| {
            Block {
                ids: ColumnRange::new(&ids, span.rows.clone()),
                cols: (cols.iter())
                    .map(|c| ColumnRange::new(c, span.rows.clone()))
                    .collect(),
                bounds: span.bounds,
            }
        }));
    }

    /// Drops the rows `lost` selects — per span, the rows of its block
    /// (`None`: none) — moving the rest down in one pass. Only a block
    /// that lost rows gets a new zone map, over the rows it keeps; an
    /// emptied one is dropped.
    fn compact(&mut self, lost: &[Option<SelectionMask>]) {
        let spans = std::mem::take(&mut self.spans);
        let mut at = 0;
        for (span, lost) in spans.into_iter().zip(lost) {
            let from = span.rows.clone();
            let n = match lost {
                // An untouched block moves down whole, if at all.
                None => {
                    if at != from.start {
                        self.ids.copy_within(from.clone(), at);
                        for col in &mut self.cols {
                            col.copy_within(from.clone(), at);
                        }
                    }
                    from.len()
                }
                Some(lost) => {
                    for col in &mut self.cols {
                        compact(col, from.clone(), at, lost);
                    }
                    compact(&mut self.ids, from, at, lost)
                }
            };
            if n == 0 {
                continue;
            }
            let rows = at..at + n;
            at = rows.end;
            self.spans.push(match lost {
                None => Span { rows, ..span },
                Some(_) => Span {
                    bounds: bounds_of(&self.cols, rows.clone()),
                    rows,
                },
            });
        }
        self.ids.truncate(at);
        for col in &mut self.cols {
            col.truncate(at);
        }
    }
}

/// One node's share of an [`DataNode::append_routed`]: its new segment
/// and the block being filled.
struct Fill {
    segment: Segment,
    open: Span,
}

impl Fill {
    /// An empty segment of `arity` columns.
    fn new(arity: usize) -> Fill {
        Fill {
            segment: Segment {
                cols: vec![Vec::new(); arity],
                ..Segment::default()
            },
            open: Span::default(),
        }
    }

    /// Appends `r`, a row of the segment's arity, as the last row,
    /// closing the open block at `block_size` rows.
    fn push(&mut self, r: &Record, block_size: usize) {
        let segment = &mut self.segment;
        segment.ids.push(r.id);
        for (col, &v) in segment.cols.iter_mut().zip(&r.values) {
            col.push(v);
        }
        let open = &mut self.open;
        open.rows.end += 1;
        if open.rows.len() == block_size {
            let next = Span::starting_at(open.rows.end);
            segment.spans.push(std::mem::replace(open, next));
        }
    }

    /// Appends the segment's blocks to `node`, their zone maps taken.
    fn close(mut self, node: &mut DataNode) {
        let segment = &mut self.segment;
        if !self.open.rows.is_empty() {
            segment.spans.push(self.open);
        }
        segment.ids.shrink_to_fit();
        for col in &mut segment.cols {
            col.shrink_to_fit();
        }
        for span in &mut segment.spans {
            span.bounds = bounds_of(&segment.cols, span.rows.clone());
        }
        self.segment.push_blocks(&mut node.blocks);
    }
}

/// Zone-map bounds of rows `rows` of `cols`: per dimension, the min/max
/// of the *finite* values, seeded from the first one so a leading NaN
/// can never poison the bounds and an infinity never makes them
/// unrepresentable. Dimensions with no finite value at all fall back to
/// wide ±1e300 sentinels (conservative: never prunes).
fn bounds_of(cols: &[Vec<f64>], rows: Range<usize>) -> Option<Rect> {
    if cols.is_empty() {
        return None;
    }
    let mut lo = Vec::with_capacity(cols.len());
    let mut hi = Vec::with_capacity(cols.len());
    for col in cols {
        let mut d_lo = f64::NAN;
        let mut d_hi = f64::NAN;
        for &v in col[rows.clone()].iter().filter(|v| v.is_finite()) {
            if d_lo.is_nan() {
                d_lo = v;
                d_hi = v;
            } else {
                if v < d_lo {
                    d_lo = v;
                }
                if v > d_hi {
                    d_hi = v;
                }
            }
        }
        if d_lo.is_nan() {
            d_lo = -1e300;
            d_hi = 1e300;
        }
        lo.push(d_lo);
        hi.push(d_hi);
    }
    Rect::new(lo, hi).ok()
}

/// Moves the rows of `from` that `lost` (by their offset in `from`)
/// does not select down to start at row `to`, in order; `to <=
/// from.start`, so no row is overwritten before it is read. Returns how
/// many it kept.
fn compact<T: Copy>(col: &mut [T], from: Range<usize>, to: usize, lost: &SelectionMask) -> usize {
    let mut kept = 0;
    for (i, row) in from.enumerate() {
        if !lost.get(i) {
            col[to + kept] = col[row];
            kept += 1;
        }
    }
    kept
}

/// What one scan of a [`DataNode`] actually touched — the raw material
/// for `storage.node.*` telemetry (block counts and bytes are not
/// recoverable from a [`CostMeter`] alone once merged upstream).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks the node holds for the scanned table.
    pub blocks_total: usize,
    /// Blocks whose contents were actually read.
    pub blocks_read: usize,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Records returned to the caller (post-filtering).
    pub records_returned: usize,
}

/// One simulated data-server node's share of a table: its rows in
/// record order, cut into blocks over one segment per append (a
/// loaded node: one). Only its cluster writes it, and the cluster
/// refuses a row of the wrong arity: every segment has its table's.
#[derive(Debug, Default)]
pub struct DataNode {
    blocks: Vec<Block>,
}

/// A copy with columns of its own — a replica shares no memory with its
/// primary — cut into the same blocks.
impl Clone for DataNode {
    fn clone(&self) -> Self {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for run in self.blocks.chunk_by(Block::shares_segment) {
            Segment::take(run.to_vec()).push_blocks(&mut blocks);
        }
        DataNode { blocks }
    }
}

impl DataNode {
    /// Appends each record to `nodes[route(record)]`, in arrival order,
    /// in one pass over `records` — a table load or insert. Each node
    /// routed a record gets one new segment, cut into blocks of at most
    /// `block_size` records (at least one); the blocks already there are
    /// not touched. Every record must have the first one's arity (the
    /// cluster checks it). Records are taken a block's worth at a time
    /// and dropped once their values are in: the rows stay in cache
    /// across the columns, and the records' memory is free before the
    /// blocks' zone maps take theirs. A segment's columns are shrunk to
    /// fit once the pass is over.
    pub(crate) fn append_routed(
        nodes: &mut [DataNode],
        records: Vec<Record>,
        block_size: usize,
        route: impl Fn(&Record) -> usize,
    ) {
        let block_size = block_size.max(1);
        let arity = records.first().map_or(0, Record::dims);
        let mut fills: Vec<Option<Fill>> = nodes.iter().map(|_| None).collect();
        let mut to = Vec::with_capacity(block_size.min(records.len()));
        let mut rest = records.into_iter().peekable();
        while rest.peek().is_some() {
            let batch: Vec<Record> = rest.by_ref().take(block_size).collect();
            to.clear();
            to.extend(batch.iter().map(&route));
            for (r, &k) in batch.iter().zip(&to) {
                fills[k]
                    .get_or_insert_with(|| Fill::new(arity))
                    .push(r, block_size);
            }
        }
        // Zone maps only now, every record freed: taken during the pass,
        // their small allocations landed in the holes the records left
        // and kept those pages resident (seabench's `g`: 76 MB against 65
        // after `malloc_trim`).
        for (node, fill) in nodes.iter_mut().zip(fills) {
            if let Some(fill) = fill {
                fill.close(node);
            }
        }
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total records on this node.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Whether the node stores no records.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total bytes on this node.
    pub fn bytes(&self) -> u64 {
        self.blocks.iter().map(Block::bytes).sum()
    }

    /// The scan-cost rule — the one place that decides which blocks a
    /// scan of this node reads and what reading them costs. Its callers
    /// are the executor's statement body (the shared scan of a
    /// statement's box) and its one operator step
    /// (`sea_query::Executor::scan_blocks`) — plus the optimizer's
    /// scan estimate and the frozen benchmark's row adapter; none charges
    /// on its own.
    ///
    /// * `bbox = None` (BDAS full scan): **every** block is read, each
    ///   with its own seek-equivalent disk read — the full-scan path
    ///   launches a task per block/split.
    /// * `bbox = Some` (direct path): only blocks whose zone map
    ///   intersects the box are read — a pruned block is free, a block
    ///   without bounds is skipped — in **one** sequential disk
    ///   read covering their bytes (none when nothing is admitted).
    ///
    /// Either way each block read costs CPU per record it holds. Layer
    /// crossings are the caller's charge (`touch_node`: only it knows
    /// its regime), as is any slow-node scaling. Returns the
    /// admitted blocks in block order and the scan's [`ScanStats`] with
    /// `records_returned` left at zero for the caller's filter to fill.
    pub fn charge_scan(
        &self,
        bbox: Option<&Rect>,
        meter: &mut CostMeter,
    ) -> (Vec<&Block>, ScanStats) {
        let mut stats = ScanStats {
            blocks_total: self.blocks.len(),
            ..ScanStats::default()
        };
        let mut admitted = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            match bbox {
                None => meter.charge_disk_read(b.bytes()),
                Some(rect) => {
                    if !b.bounds().is_some_and(|zone| zone.intersects(rect)) {
                        continue;
                    }
                }
            }
            meter.charge_cpu(b.len() as u64);
            stats.blocks_read += 1;
            stats.bytes_read += b.bytes();
            admitted.push(b);
        }
        if bbox.is_some() && stats.bytes_read > 0 {
            meter.charge_disk_read(stats.bytes_read);
        }
        (admitted, stats)
    }

    /// Deletes the rows inside the inclusive box `region` — the rows a
    /// scan for it selects: a block whose zone map misses the box is
    /// skipped and [`Block::bbox_mask`] picks the rows. Each segment that
    /// lost rows is then compacted in one pass; the others keep their
    /// blocks. A pure function of the blocks and the box, so a replica
    /// handed the same box stays a block-for-block clone of its primary.
    /// Returns the number of rows removed.
    pub(crate) fn delete_box(&mut self, region: &Rect) -> usize {
        let mut mask = SelectionMask::none(0);
        let lost: Vec<Option<SelectionMask>> = (self.blocks.iter())
            .map(|b| {
                if !b.bounds().is_some_and(|zone| zone.intersects(region)) {
                    return None;
                }
                b.bbox_mask(region, None, &mut mask);
                (!mask.is_none_set()).then(|| mask.clone())
            })
            .collect();
        let removed = lost.iter().flatten().map(SelectionMask::count).sum();
        if removed == 0 {
            return 0;
        }
        let runs: Vec<usize> = (self.blocks.chunk_by(Block::shares_segment))
            .map(<[Block]>::len)
            .collect();
        let mut blocks = std::mem::take(&mut self.blocks).into_iter();
        let mut at = 0;
        for len in runs {
            let run: Vec<Block> = blocks.by_ref().take(len).collect();
            let lost = &lost[at..at + len];
            at += len;
            if lost.iter().all(Option::is_none) {
                self.blocks.extend(run);
                continue;
            }
            let mut segment = Segment::take(run);
            segment.compact(lost);
            segment.push_blocks(&mut self.blocks);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(i as u64, vec![i as f64, (i * 2) as f64]))
            .collect()
    }

    /// A node of `records`, appended in blocks of `block_size`.
    fn node_of(records: Vec<Record>, block_size: usize) -> DataNode {
        let mut nodes = [DataNode::default()];
        DataNode::append_routed(&mut nodes, records, block_size, |_| 0);
        let [node] = nodes;
        node
    }

    /// The one block of a node of `records`.
    fn block_of(records: Vec<Record>) -> Block {
        let n = records.len();
        node_of(records, n).blocks[0].clone()
    }

    /// The rows a scan of `node` for `bbox` reads: the blocks
    /// `charge_scan` admits, each masked by the box.
    fn scanned(node: &DataNode, bbox: Option<&Rect>) -> (Vec<Record>, ScanStats) {
        let (blocks, mut stats) = node.charge_scan(bbox, &mut CostMeter::new());
        let (mut rows, mut mask) = (Vec::new(), SelectionMask::none(0));
        for b in blocks {
            match bbox {
                Some(rect) => b.bbox_mask(rect, None, &mut mask),
                None => mask.reset_all(b.len()),
            }
            mask.for_each_set(|i| rows.push(b.record(i)));
        }
        stats.records_returned = rows.len();
        (rows, stats)
    }

    #[test]
    fn append_chunks_into_blocks() {
        let node = node_of(recs(25), 10);
        assert_eq!(node.blocks().len(), 3);
        assert_eq!(node.len(), 25);
        assert_eq!(node.blocks()[0].len(), 10);
        assert_eq!(node.blocks()[2].len(), 5);
    }

    #[test]
    fn an_append_leaves_the_blocks_already_there() {
        let mut nodes = vec![DataNode::default(), DataNode::default()];
        DataNode::append_routed(&mut nodes, recs(20), 8, |r| (r.id % 2) as usize);
        // A block held elsewhere shares its node's column: writing that
        // column would copy it first.
        let held: Vec<Block> = nodes.iter().map(|n| n.blocks()[0].clone()).collect();
        DataNode::append_routed(&mut nodes, recs(5), 8, |_| 0);
        for (node, held) in nodes.iter().zip(&held) {
            assert_eq!(node.blocks()[0].col(0).as_ptr(), held.col(0).as_ptr());
        }
        assert_eq!((nodes[0].len(), nodes[1].len()), (15, 10));
        assert_eq!(nodes[0].blocks().len(), 3);
    }

    #[test]
    fn append_cuts_the_blocks_chunks_would() {
        let bs = 8;
        for n in [0, 1, bs - 1, bs, bs + 1, 3 * bs + 7] {
            for block_size in [bs, 0] {
                let node = node_of(recs(n), block_size);
                let mut want = [DataNode::default()];
                for chunk in recs(n).chunks(block_size.max(1)) {
                    DataNode::append_routed(&mut want, chunk.to_vec(), usize::MAX, |_| 0);
                }
                let what = format!("{n} records in blocks of {block_size}");
                assert_eq!(node.blocks(), want[0].blocks(), "{what}");
            }
        }
    }

    #[test]
    fn block_bounds_cover_records() {
        let b = block_of(recs(10));
        let bounds = b.bounds().unwrap();
        assert_eq!(bounds.lo(), &[0.0, 0.0]);
        assert_eq!(bounds.hi(), &[9.0, 18.0]);
        assert_eq!(b.bytes(), 10 * (8 + 16));
    }

    #[test]
    fn columnar_round_trip_preserves_records() {
        let original = recs(25);
        let b = block_of(original.clone());
        assert_eq!(b.dims(), 2);
        assert_eq!(&b.ids()[..3], &[0, 1, 2]);
        assert_eq!(b.col(0)[7], 7.0);
        assert_eq!(b.col(1)[7], 14.0);
        let rows: Vec<Record> = (0..b.len()).map(|i| b.record(i)).collect();
        assert_eq!(rows, original);
    }

    #[test]
    fn infinite_values_neither_widen_nor_drop_a_zone_map() {
        let node = node_of(
            vec![
                Record::new(0, vec![f64::INFINITY, 1.0]),
                Record::new(1, vec![2.0, f64::NEG_INFINITY]),
                Record::new(2, vec![3.0, 4.0]),
            ],
            8,
        );
        let bounds = node.blocks()[0].bounds().unwrap();
        assert_eq!(
            (bounds.lo(), bounds.hi()),
            (&[2.0, 1.0][..], &[3.0, 4.0][..])
        );
        // A pruned scan reads the block and finds its finite row.
        let rect = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let (rows, stats) = scanned(&node, Some(&rect));
        assert_eq!(stats.blocks_read, 1);
        assert_eq!(rows, vec![Record::new(2, vec![3.0, 4.0])]);
    }

    #[test]
    fn scan_all_charges_everything() {
        let node = node_of(recs(100), 10);
        let mut meter = CostMeter::new();
        let (blocks, stats) = node.charge_scan(None, &mut meter);
        assert_eq!(blocks.len(), 10);
        assert_eq!(meter.disk_seeks, 10, "one seek-equivalent read per block");
        assert_eq!(meter.disk_bytes, node.bytes());
        assert_eq!(meter.records_processed, 100);
        assert_eq!(
            stats,
            ScanStats {
                blocks_total: 10,
                blocks_read: 10,
                bytes_read: node.bytes(),
                records_returned: 0,
            }
        );
    }

    #[test]
    fn scan_region_prunes_blocks() {
        let node = node_of(recs(100), 10); // block i covers dim0 in [10i, 10i+9]
        let mut meter = CostMeter::new();
        let region = Rect::new(vec![15.0, 0.0], vec![24.0, 1e9]).unwrap();
        let (blocks, stats) = node.charge_scan(Some(&region), &mut meter);
        assert!(
            std::ptr::eq(blocks[0], &node.blocks[1]) && std::ptr::eq(blocks[1], &node.blocks[2])
        );
        assert_eq!((stats.blocks_total, stats.blocks_read), (10, 2));
        assert_eq!(meter.disk_seeks, 1, "one sequential read over 2 blocks");
        assert_eq!(meter.disk_bytes, stats.bytes_read);
        assert_eq!(meter.disk_bytes, 2 * node.blocks[0].bytes());
        assert_eq!(meter.records_processed, 20, "pruned blocks are free");

        // A box that covers every zone map reads every block.
        let everything = Rect::new(vec![-1e9, -1e9], vec![1e9, 1e9]).unwrap();
        let (blocks, _) = node.charge_scan(Some(&everything), &mut CostMeter::new());
        assert_eq!(blocks.len(), 10);

        // Nothing admitted: no bytes, so not even the seek.
        let far = Rect::new(vec![500.0, 0.0], vec![600.0, 1e9]).unwrap();
        let mut idle = CostMeter::new();
        let (blocks, stats) = node.charge_scan(Some(&far), &mut idle);
        assert!(blocks.is_empty());
        assert_eq!((stats.blocks_read, stats.bytes_read), (0, 0));
        assert_eq!(idle, CostMeter::new());
    }

    #[test]
    fn scan_region_returns_only_contained_records() {
        let node = node_of(recs(20), 20); // one block
        let region = Rect::new(vec![5.0, 0.0], vec![7.0, 1e9]).unwrap();
        let (hits, stats) = scanned(&node, Some(&region));
        let ids: Vec<u64> = hits.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![5, 6, 7]);
        assert_eq!(stats.records_returned, 3);
        let (all, stats) = scanned(&node, None);
        assert_eq!(all, recs(20));
        assert_eq!(stats.records_returned, 20);
    }

    #[test]
    fn delete_box_rebuilds_bounds() {
        let mut node = node_of(recs(10), 10);
        let upper = Rect::new(vec![5.0, 0.0], vec![100.0, 100.0]).unwrap();
        assert_eq!(node.delete_box(&upper), 5);
        assert_eq!(node.len(), 5);
        let bounds = node.blocks()[0].bounds().unwrap();
        assert_eq!(bounds.hi()[0], 4.0, "bounds shrunk after delete");
    }

    #[test]
    fn delete_everything_leaves_empty_node() {
        let mut node = node_of(recs(10), 3);
        let all = Rect::new(vec![0.0, 0.0], vec![9.0, 18.0]).unwrap();
        assert_eq!(node.delete_box(&all), 10);
        assert!(node.is_empty());
        assert_eq!(node.blocks().len(), 0);
    }

    #[test]
    fn delete_box_rebuilds_only_the_blocks_it_touches() {
        let mut node = node_of(recs(30), 10); // block i covers dim 0 in [10i, 10i+9]
        let before = node.clone();
        let middle = Rect::new(vec![12.0, 0.0], vec![13.0, 100.0]).unwrap();
        assert_eq!(node.delete_box(&middle), 2);
        assert_eq!(node.blocks()[0], before.blocks()[0]);
        assert_eq!(node.blocks()[2], before.blocks()[2]);
        let ids = node.blocks()[1].ids();
        assert_eq!(ids, &[10, 11, 14, 15, 16, 17, 18, 19]);
        // A box no zone map meets deletes nothing.
        let far = Rect::new(vec![500.0, 0.0], vec![600.0, 100.0]).unwrap();
        assert_eq!(node.delete_box(&far), 0);
    }

    #[test]
    fn nan_values_do_not_poison_bounds() {
        let records = vec![
            Record::new(0, vec![1.0, f64::NAN]),
            Record::new(1, vec![3.0, 5.0]),
        ];
        let b = block_of(records);
        let bounds = b.bounds().unwrap();
        assert_eq!(bounds.lo()[0], 1.0);
        assert_eq!(bounds.hi()[0], 3.0);
        // Regression: a NaN in the *first* record used to poison the whole
        // dimension to ±1e300 sentinels. Bounds must be tight, not merely
        // finite — the only valid value in dim 1 is 5.0.
        assert_eq!(bounds.lo()[1], 5.0);
        assert_eq!(bounds.hi()[1], 5.0);
    }

    #[test]
    fn leading_nan_keeps_bounds_tight_for_pruning() {
        let records = vec![
            Record::new(0, vec![f64::NAN, 2.0]),
            Record::new(1, vec![5.0, 3.0]),
            Record::new(2, vec![7.0, 1.0]),
        ];
        let bounds = block_of(records).bounds().unwrap().clone();
        assert_eq!((bounds.lo()[0], bounds.hi()[0]), (5.0, 7.0));
        // Tight bounds mean a disjoint region can actually prune the block.
        let far = Rect::new(vec![100.0, 0.0], vec![200.0, 10.0]).unwrap();
        assert!(!bounds.intersects(&far));
    }

    #[test]
    fn all_nan_dimension_falls_back_to_wide_sentinels() {
        let records = vec![
            Record::new(0, vec![1.0, f64::NAN]),
            Record::new(1, vec![2.0, f64::NAN]),
        ];
        let bounds = block_of(records).bounds().unwrap().clone();
        assert_eq!((bounds.lo()[0], bounds.hi()[0]), (1.0, 2.0));
        assert!(bounds.lo()[1].is_finite() && bounds.lo()[1] <= -1e300);
        assert!(bounds.hi()[1].is_finite() && bounds.hi()[1] >= 1e300);
    }

    #[test]
    fn region_mask_matches_row_filter() {
        let records: Vec<Record> = (0..50)
            .map(|i| Record::new(i, vec![i as f64, (i % 7) as f64]))
            .collect();
        let b = block_of(records.clone());
        let rect = Rect::new(vec![10.0, 1.0], vec![30.0, 4.0]).unwrap();
        let region = Region::Range(rect.clone());
        let want: Vec<usize> = (0..records.len())
            .filter(|&i| region.contains_record(&records[i]))
            .collect();
        let mut mask = SelectionMask::all(3);
        b.bbox_mask(&rect, None, &mut mask);
        assert_eq!(mask.to_indices(), want);
        assert_eq!(b.region_mask(&region).to_indices(), want);
        // Dimensionality mismatch selects nothing, like the row filter.
        let skinny = Rect::new(vec![0.0], vec![100.0]).unwrap();
        b.bbox_mask(&skinny, None, &mut mask);
        assert!(mask.is_none_set() && mask.len() == b.len());
    }
}
