//! A single simulated data-server node.

use serde::{Deserialize, Serialize};

use sea_common::{kernels, CostMeter, Record, RecordId, Rect, Region, SelectionMask};

/// A storage block: the unit of disk I/O, stored **column-major**.
///
/// Records are decomposed on ingest into a contiguous id column plus one
/// `Vec<f64>` per dimension, with a validity bitmap per column marking
/// non-NaN (present) values. Scans evaluate predicates as selection
/// bitmaps over the dimension arrays — tight slice loops the compiler
/// autovectorizes — and only then gather or materialize the selected
/// values.
///
/// Blocks also carry the bounding rectangle of their records so engines
/// can prune irrelevant blocks without reading them (the zone-map style
/// metadata that makes "surgical" access possible at all). Bounds are
/// computed per dimension over *finite* values only, seeded from the
/// first one: a missing (NaN) or infinite value lies in no region a scan
/// can ask for, so it neither widens a zone map nor costs the block its
/// map (bounds must be finite; a block without one is never read by a
/// pruned scan).
///
/// Rows shorter than the block arity (the max dimensionality seen at
/// build time) are padded with NaN/invalid entries; clusters enforce
/// uniform dimensionality per table, so padding only arises for ad-hoc
/// node use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    ids: Vec<RecordId>,
    cols: Vec<Vec<f64>>,
    validity: Vec<SelectionMask>,
    bounds: Option<Rect>,
    bytes: u64,
}

impl Block {
    /// Builds a block from records, decomposing them into columns and
    /// computing validity bitmaps, zone-map bounds, and serialized size.
    pub fn new(records: Vec<Record>) -> Self {
        let bytes = records.iter().map(Record::storage_bytes).sum();
        let n = records.len();
        let dims = records.iter().map(Record::dims).max().unwrap_or(0);
        let ids = records.iter().map(|r| r.id).collect();
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(dims);
        for d in 0..dims {
            cols.push(
                records
                    .iter()
                    .map(|r| r.values.get(d).copied().unwrap_or(f64::NAN))
                    .collect(),
            );
        }
        let validity: Vec<SelectionMask> =
            cols.iter().map(|c| SelectionMask::from_valid(c)).collect();
        let bounds = bounds_of(&cols, n);
        Block {
            ids,
            cols,
            validity,
            bounds,
            bytes,
        }
    }

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

    /// All dimension columns.
    pub fn cols(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Bounding rectangle of the block's records (`None` for empty blocks).
    pub fn bounds(&self) -> Option<&Rect> {
        self.bounds.as_ref()
    }

    /// Serialized size in bytes (what a disk read of this block costs).
    pub fn bytes(&self) -> u64 {
        self.bytes
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
    /// per block. A dimensionality mismatch selects nothing; NaN
    /// (missing) values never match.
    pub fn bbox_mask(&self, region: &Rect, out: &mut SelectionMask) {
        if self.dims() == region.dims() {
            kernels::range_mask_into(&self.cols, self.len(), region.lo(), region.hi(), out);
        } else {
            *out = SelectionMask::none(self.len());
        }
    }

    /// Selection bitmap of rows inside `region`, bit-identical to
    /// filtering materialized rows through `region.contains_record`.
    pub fn region_mask(&self, region: &Region) -> SelectionMask {
        region.column_mask(&self.cols, self.len())
    }
}

/// Zone-map bounds over columns: per dimension, the min/max of the
/// *finite* values, seeded from the first one so a leading NaN can never
/// poison the bounds and an infinity never makes them unrepresentable.
/// Dimensions with no finite value at all fall back to wide ±1e300
/// sentinels (conservative: never prunes).
fn bounds_of(cols: &[Vec<f64>], n: usize) -> Option<Rect> {
    if n == 0 || cols.is_empty() {
        return None;
    }
    let mut lo = Vec::with_capacity(cols.len());
    let mut hi = Vec::with_capacity(cols.len());
    for col in cols {
        let mut d_lo = f64::NAN;
        let mut d_hi = f64::NAN;
        for &v in col.iter().filter(|v| v.is_finite()) {
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

/// One simulated data-server node: a list of columnar blocks per table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DataNode {
    blocks: Vec<Block>,
}

impl DataNode {
    /// A node with no blocks.
    pub fn new() -> Self {
        DataNode::default()
    }

    /// Appends records as new blocks of at most `block_size` records
    /// (at least one), walking them once.
    pub fn append(&mut self, records: Vec<Record>, block_size: usize) {
        let block_size = block_size.max(1);
        let mut rest = records.into_iter().peekable();
        while rest.peek().is_some() {
            self.blocks
                .push(Block::new(rest.by_ref().take(block_size).collect()));
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
        self.blocks.iter().all(Block::is_empty)
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
    ///   without bounds (empty) is skipped — in **one** sequential disk
    ///   read covering their bytes (none when nothing is admitted).
    ///
    /// Either way each block read costs CPU per record it holds. Layer
    /// crossings are the caller's charge (`touch_node`: only it knows
    /// its access path), as is any slow-node scaling. Returns the
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
    /// skipped, [`Block::bbox_mask`] picks the rows, and only a block
    /// that loses rows is rebuilt, from the rows it keeps (an emptied one
    /// is dropped). A pure function of the blocks and the box, so a
    /// replica handed the same box stays a block-for-block clone of its
    /// primary. Returns the number of rows removed.
    pub fn delete_box(&mut self, region: &Rect) -> usize {
        let (mut removed, mut mask) = (0, SelectionMask::none(0));
        for b in &mut self.blocks {
            if !b.bounds().is_some_and(|zone| zone.intersects(region)) {
                continue;
            }
            b.bbox_mask(region, &mut mask);
            if !mask.is_none_set() {
                removed += mask.count();
                let kept = (0..b.len()).filter(|&i| !mask.get(i));
                *b = Block::new(kept.map(|i| b.record(i)).collect());
            }
        }
        self.blocks.retain(|b| !b.is_empty());
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

    /// The rows a scan of `node` for `bbox` reads: the blocks
    /// `charge_scan` admits, each masked by the box.
    fn scanned(node: &DataNode, bbox: Option<&Rect>) -> (Vec<Record>, ScanStats) {
        let (blocks, mut stats) = node.charge_scan(bbox, &mut CostMeter::new());
        let (mut rows, mut mask) = (Vec::new(), SelectionMask::none(0));
        for b in blocks {
            match bbox {
                Some(rect) => b.bbox_mask(rect, &mut mask),
                None => mask.reset_all(b.len()),
            }
            mask.for_each_set(|i| rows.push(b.record(i)));
        }
        stats.records_returned = rows.len();
        (rows, stats)
    }

    #[test]
    fn append_chunks_into_blocks() {
        let mut node = DataNode::new();
        node.append(recs(25), 10);
        assert_eq!(node.blocks().len(), 3);
        assert_eq!(node.len(), 25);
        assert_eq!(node.blocks()[0].len(), 10);
        assert_eq!(node.blocks()[2].len(), 5);
    }

    #[test]
    fn append_cuts_the_blocks_chunks_would() {
        let bs = 8;
        for n in [0, 1, bs - 1, bs, bs + 1, 3 * bs + 7] {
            for block_size in [bs, 0] {
                let mut node = DataNode::new();
                node.append(recs(n), block_size);
                let want: Vec<Block> = recs(n)
                    .chunks(block_size.max(1))
                    .map(|c| Block::new(c.to_vec()))
                    .collect();
                assert_eq!(node.blocks(), want, "{n} records in blocks of {block_size}");
            }
        }
    }

    #[test]
    fn block_bounds_cover_records() {
        let b = Block::new(recs(10));
        let bounds = b.bounds().unwrap();
        assert_eq!(bounds.lo(), &[0.0, 0.0]);
        assert_eq!(bounds.hi(), &[9.0, 18.0]);
        assert_eq!(b.bytes(), 10 * (8 + 16));
    }

    #[test]
    fn columnar_round_trip_preserves_records() {
        let original = recs(25);
        let b = Block::new(original.clone());
        assert_eq!(b.dims(), 2);
        assert_eq!(&b.ids()[..3], &[0, 1, 2]);
        assert_eq!(b.col(0)[7], 7.0);
        assert_eq!(b.col(1)[7], 14.0);
        let rows: Vec<Record> = (0..b.len()).map(|i| b.record(i)).collect();
        assert_eq!(rows, original);
    }

    #[test]
    fn infinite_values_neither_widen_nor_drop_a_zone_map() {
        let mut node = DataNode::new();
        node.append(
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
    fn validity_bitmaps_track_missing_values() {
        let b = Block::new(vec![
            Record::new(0, vec![1.0, f64::NAN]),
            Record::new(1, vec![2.0, 5.0]),
        ]);
        assert_eq!(b.validity[0].count(), 2);
        assert_eq!(b.validity[1].to_indices(), vec![1]);
    }

    #[test]
    fn empty_block_has_no_bounds() {
        let b = Block::new(Vec::new());
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(b.bounds().is_none());
    }

    #[test]
    fn scan_all_charges_everything() {
        let mut node = DataNode::new();
        node.append(recs(100), 10);
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
        let mut node = DataNode::new();
        node.append(recs(100), 10); // block i covers dim0 in [10i, 10i+9]
        node.blocks.push(Block::new(Vec::new()));
        let mut meter = CostMeter::new();
        let region = Rect::new(vec![15.0, 0.0], vec![24.0, 1e9]).unwrap();
        let (blocks, stats) = node.charge_scan(Some(&region), &mut meter);
        assert!(
            std::ptr::eq(blocks[0], &node.blocks[1]) && std::ptr::eq(blocks[1], &node.blocks[2])
        );
        assert_eq!((stats.blocks_total, stats.blocks_read), (11, 2));
        assert_eq!(meter.disk_seeks, 1, "one sequential read over 2 blocks");
        assert_eq!(meter.disk_bytes, stats.bytes_read);
        assert_eq!(meter.disk_bytes, 2 * node.blocks[0].bytes());
        assert_eq!(meter.records_processed, 20, "pruned blocks are free");

        // A box that covers every zone map still skips the empty block.
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
        let mut node = DataNode::new();
        node.append(recs(20), 20); // one block
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
        let mut node = DataNode::new();
        node.append(recs(10), 10);
        let upper = Rect::new(vec![5.0, 0.0], vec![100.0, 100.0]).unwrap();
        assert_eq!(node.delete_box(&upper), 5);
        assert_eq!(node.len(), 5);
        let bounds = node.blocks()[0].bounds().unwrap();
        assert_eq!(bounds.hi()[0], 4.0, "bounds shrunk after delete");
    }

    #[test]
    fn delete_everything_leaves_empty_node() {
        let mut node = DataNode::new();
        node.append(recs(10), 3);
        let all = Rect::new(vec![0.0, 0.0], vec![9.0, 18.0]).unwrap();
        assert_eq!(node.delete_box(&all), 10);
        assert!(node.is_empty());
        assert_eq!(node.blocks().len(), 0);
    }

    #[test]
    fn delete_box_rebuilds_only_the_blocks_it_touches() {
        let mut node = DataNode::new();
        node.append(recs(30), 10); // block i covers dim 0 in [10i, 10i+9]
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
        let b = Block::new(records);
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
        let bounds = Block::new(records).bounds().unwrap().clone();
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
        let bounds = Block::new(records).bounds().unwrap().clone();
        assert_eq!((bounds.lo()[0], bounds.hi()[0]), (1.0, 2.0));
        assert!(bounds.lo()[1].is_finite() && bounds.lo()[1] <= -1e300);
        assert!(bounds.hi()[1].is_finite() && bounds.hi()[1] >= 1e300);
    }

    #[test]
    fn region_mask_matches_row_filter() {
        let records: Vec<Record> = (0..50)
            .map(|i| Record::new(i, vec![i as f64, (i % 7) as f64]))
            .collect();
        let b = Block::new(records.clone());
        let rect = Rect::new(vec![10.0, 1.0], vec![30.0, 4.0]).unwrap();
        let region = Region::Range(rect.clone());
        let want: Vec<usize> = (0..records.len())
            .filter(|&i| region.contains_record(&records[i]))
            .collect();
        let mut mask = SelectionMask::all(3);
        b.bbox_mask(&rect, &mut mask);
        assert_eq!(mask.to_indices(), want);
        assert_eq!(b.region_mask(&region).to_indices(), want);
        // Dimensionality mismatch selects nothing, like the row filter.
        let skinny = Rect::new(vec![0.0], vec![100.0]).unwrap();
        b.bbox_mask(&skinny, &mut mask);
        assert!(mask.is_none_set() && mask.len() == b.len());
    }
}
