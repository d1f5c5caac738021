//! The score-sorted statistical index behind surgical rank-join access.

use sea_common::{CostMeter, ExecMode, RecordId, Result, SeaError};
use sea_query::Executor;
use sea_storage::NodeId;

/// One index entry: where a tuple lives and what matters about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreEntry {
    /// Record id.
    pub id: RecordId,
    /// Join-key value (attribute 0).
    pub key: i64,
    /// Score (attribute 1).
    pub score: f64,
    /// Node storing the record.
    pub node: NodeId,
}

/// A descending-score index over one table.
///
/// Building the index performs one full pass over the table (charged to
/// the returned build meter); after that, [`ScoreIndex::batch`] hands out
/// successive descending-score batches, and charges only the batch's own
/// retrieval cost.
#[derive(Debug, Clone)]
pub struct ScoreIndex {
    /// Entries sorted by descending score.
    entries: Vec<ScoreEntry>,
    /// Bytes of one indexed tuple when fetched (id + key + score + payload
    /// estimate).
    tuple_bytes: u64,
}

impl ScoreIndex {
    /// Builds the index over `table` (attribute 0 = key, 1 = score) from
    /// those columns, charging the scan to `build_meter`.
    ///
    /// # Errors
    ///
    /// Missing table, a table with fewer than 2 attributes, or an
    /// unreadable partition (an index of part of it would answer short).
    pub fn build(exec: &Executor, table: &str, build_meter: &mut CostMeter) -> Result<Self> {
        let dims = exec.cluster().dims(table)?;
        if dims < 2 {
            return Err(SeaError::invalid(
                "rank-join tables need key (attr 0) and score (attr 1)",
            ));
        }
        let mut entries = Vec::new();
        let scatter = exec.scatter(table, None, ExecMode::Direct, |node, views, _| {
            for v in views {
                let (keys, scores, ids) = (v.block.col(0), v.block.col(1), v.block.ids());
                v.mask.for_each_set(|i| {
                    entries.push(ScoreEntry {
                        id: ids[i],
                        key: keys[i] as i64,
                        score: scores[i],
                        node,
                    });
                });
            }
            Ok(())
        })?;
        // One meter for the whole pass: the per-node counters sum.
        for (_, m) in &scatter.complete()?.meters {
            build_meter.merge(m);
        }
        // total_cmp: a NaN score sorts as a score, not as a panic.
        entries.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        Ok(ScoreIndex {
            entries,
            tuple_bytes: 8 * dims as u64 + 8,
        })
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The highest score in the table (`None` when empty).
    pub fn top_score(&self) -> Option<f64> {
        self.entries.first().map(|e| e.score)
    }

    /// Returns the batch of entries at ranks `[offset, offset + size)`
    /// (descending score), charging `meter` for the fetch.
    ///
    /// The index is *materialized in score order* (that is the point of
    /// the statistical access structure of \[30\]): a batch is one
    /// sequential read from the index server — one seek plus the batch
    /// bytes — followed by a LAN transfer to the coordinator, with a
    /// single direct-path layer crossing.
    pub fn batch(&self, offset: usize, size: usize, meter: &mut CostMeter) -> &[ScoreEntry] {
        let end = (offset + size).min(self.entries.len());
        if offset >= end {
            return &[];
        }
        let batch = &self.entries[offset..end];
        let bytes = batch.len() as u64 * self.tuple_bytes;
        meter.charge_disk_read(bytes);
        meter.charge_cpu(batch.len() as u64);
        meter.charge_lan(bytes);
        meter.touch_node(ExecMode::Direct);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::Record;
    use sea_storage::{Partitioning, StorageCluster};

    fn cluster(n: u64) -> StorageCluster {
        let mut c = StorageCluster::new(4, 64);
        let records: Vec<Record> = (0..n)
            .map(|i| Record::new(i, vec![(i % 50) as f64, (i * 7 % 1000) as f64, 1.0]))
            .collect();
        c.load_table("r", records, Partitioning::Hash).unwrap();
        c
    }

    #[test]
    fn build_sorts_descending() {
        let c = cluster(500);
        let mut meter = CostMeter::new();
        let idx = ScoreIndex::build(&Executor::new(&c), "r", &mut meter).unwrap();
        assert_eq!(idx.len(), 500);
        assert!(meter.disk_bytes > 0, "building reads the table");
        let b = idx.batch(0, 500, &mut CostMeter::new());
        for w in b.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert_eq!(idx.top_score().unwrap(), b[0].score);
    }

    #[test]
    fn batches_are_contiguous_and_charged() {
        let c = cluster(200);
        let idx = ScoreIndex::build(&Executor::new(&c), "r", &mut CostMeter::new()).unwrap();
        let mut meter = CostMeter::new();
        let b1 = idx.batch(0, 50, &mut meter).to_vec();
        let b2 = idx.batch(50, 50, &mut meter).to_vec();
        assert_eq!(b1.len(), 50);
        assert_eq!(b2.len(), 50);
        assert!(b1.last().unwrap().score >= b2.first().unwrap().score);
        assert!(meter.disk_bytes > 0);
        assert!(meter.lan_bytes > 0);
    }

    #[test]
    fn batch_past_end_is_empty() {
        let c = cluster(10);
        let idx = ScoreIndex::build(&Executor::new(&c), "r", &mut CostMeter::new()).unwrap();
        let mut m = CostMeter::new();
        assert!(idx.batch(10, 5, &mut m).is_empty());
        assert_eq!(m.disk_bytes, 0, "nothing fetched, nothing charged");
        let tail = idx.batch(8, 100, &mut m);
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn narrow_tables_are_rejected() {
        let mut c = StorageCluster::new(2, 16);
        let records: Vec<Record> = (0..10).map(|i| Record::new(i, vec![i as f64])).collect();
        c.load_table("narrow", records, Partitioning::Hash).unwrap();
        assert!(ScoreIndex::build(&Executor::new(&c), "narrow", &mut CostMeter::new()).is_err());
        assert!(ScoreIndex::build(&Executor::new(&c), "missing", &mut CostMeter::new()).is_err());
    }

    #[test]
    fn a_nan_score_builds_instead_of_panicking() {
        let mut c = StorageCluster::new(2, 16);
        let records: Vec<Record> = (0..10)
            .map(|i| Record::new(i, vec![i as f64, if i == 3 { f64::NAN } else { i as f64 }]))
            .collect();
        c.load_table("s", records, Partitioning::Hash).unwrap();
        let idx = ScoreIndex::build(&Executor::new(&c), "s", &mut CostMeter::new()).unwrap();
        let ranked: Vec<u64> = idx
            .batch(0, 10, &mut CostMeter::new())
            .iter()
            .map(|e| e.id)
            .collect();
        // The total order ranks the NaN first; the rest descend.
        assert_eq!(ranked, vec![3, 9, 8, 7, 6, 5, 4, 2, 1, 0]);
    }
}
