//! A Data-Canopy-style semantic cache of basic statistics (\[20\]).
//!
//! Data Canopy decomposes statistics into per-chunk *basic aggregates*
//! (count, Σx, Σx², Σxy) cached once and recombined across queries. Our
//! variant chunks each dimension's value range uniformly; a range query on
//! a dimension resolves to interior chunks (served from cache, free) plus
//! up to two boundary chunks (recomputed from base data). The paper's
//! critique — "the storage required … can grow prohibitively large \[and\]
//! such efforts typically only benefit previously seen queries" — is
//! directly observable via [`DataCanopy::storage_bytes`] and the cache-miss
//! cost of first-touch queries.

use std::collections::HashMap;

use sea_common::{
    AggregateKind, AnalyticalQuery, AnswerValue, CostMeter, CostReport, ExecMode, Rect, Result,
    SeaError,
};
use sea_query::Executor;

use super::sampling::AqpOutcome;

/// Basic aggregates of one chunk of one dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ChunkStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
}

/// A semantic cache of per-chunk statistics over one table.
#[derive(Debug)]
pub struct DataCanopy<'a> {
    exec: &'a Executor<'a>,
    table: String,
    domain: Rect,
    chunks_per_dim: usize,
    /// (dim, chunk index, value dim) → stats of records whose `dim` value
    /// falls in the chunk, aggregated over attribute `value dim`.
    cache: HashMap<(usize, usize, usize), ChunkStats>,
}

impl<'a> DataCanopy<'a> {
    /// Creates an empty canopy over `table`.
    ///
    /// # Errors
    ///
    /// Missing table or invalid chunking.
    pub fn new(
        exec: &'a Executor<'a>,
        table: &str,
        domain: Rect,
        chunks_per_dim: usize,
    ) -> Result<Self> {
        if chunks_per_dim == 0 {
            return Err(SeaError::invalid("chunks_per_dim must be positive"));
        }
        SeaError::check_dims(exec.cluster().dims(table)?, domain.dims())?;
        Ok(DataCanopy {
            exec,
            table: table.to_string(),
            domain,
            chunks_per_dim,
            cache: HashMap::new(),
        })
    }

    /// Cache storage in bytes (the E8 metric): grows with every new
    /// (dimension, chunk, attribute) combination queries touch.
    pub fn storage_bytes(&self) -> u64 {
        self.cache.len() as u64 * (24 + 24)
    }

    fn chunk_edges(&self, dim: usize, chunk: usize) -> (f64, f64) {
        let lo = self.domain.lo()[dim];
        let w = (self.domain.hi()[dim] - lo) / self.chunks_per_dim as f64;
        (lo + w * chunk as f64, lo + w * (chunk + 1) as f64)
    }

    fn chunk_of(&self, dim: usize, v: f64) -> usize {
        let lo = self.domain.lo()[dim];
        let hi = self.domain.hi()[dim];
        let frac = (v - lo) / (hi - lo);
        ((frac * self.chunks_per_dim as f64) as isize).clamp(0, self.chunks_per_dim as isize - 1)
            as usize
    }

    /// Ensures chunk `(dim, chunk)` statistics over attribute `value_dim`
    /// are cached, scanning base data on a miss — the chunk's key column
    /// and the value column, nothing else. Returns the stats plus the
    /// cost (zero on a hit); a chunk of part of the table is never cached.
    fn chunk_stats(
        &mut self,
        dim: usize,
        chunk: usize,
        value_dim: usize,
    ) -> Result<(ChunkStats, CostReport)> {
        if let Some(s) = self.cache.get(&(dim, chunk, value_dim)) {
            return Ok((*s, CostReport::zero()));
        }
        // Miss: scan the chunk's slab from base data (coordinator-style).
        let (lo, hi) = self.chunk_edges(dim, chunk);
        let mut slab_lo = self.domain.lo().to_vec();
        let mut slab_hi = self.domain.hi().to_vec();
        slab_lo[dim] = lo;
        slab_hi[dim] = hi;
        let slab = Rect::new(slab_lo, slab_hi)?;
        let (exec, table) = (self.exec, &self.table);
        let top = chunk == self.chunks_per_dim - 1;
        let mut stats = ChunkStats::default();
        let scatter = exec.scatter(table, Some(&slab), ExecMode::Direct, |_, views, meter| {
            for view in views {
                let (keys, xs) = (view.block.col(dim), view.block.col(value_dim));
                view.mask.for_each_set(|i| {
                    // Half-open chunks so adjacent chunks never double
                    // count (the top chunk is closed at the domain edge).
                    let v = keys[i];
                    if v >= lo && (v < hi || (top && v <= hi)) {
                        stats.count += 1;
                        stats.sum += xs[i];
                        stats.sum_sq += xs[i] * xs[i];
                    }
                });
            }
            meter.charge_lan(24);
            Ok(())
        })?;
        let cost = scatter.complete()?.report(&CostMeter::new());
        self.cache.insert((dim, chunk, value_dim), stats);
        Ok((stats, cost))
    }

    /// Answers a one-dimensional-selection statistic: the query's region
    /// must constrain exactly one dimension to `[a, b]` (all other
    /// dimensions spanning the full domain). Supports `Count`, `Sum`,
    /// `Mean`, `Variance`.
    ///
    /// The answer is assembled from cached chunk statistics; chunks
    /// partially covered at the selection boundary are *approximated*
    /// proportionally (the canopy trade-off). `Count` rounds each chunk's
    /// scaled count; `Mean` and `Variance` divide by the unrounded one,
    /// the weight the scaled sums carry.
    ///
    /// # Errors
    ///
    /// Regions constraining more than one dimension, unsupported
    /// operators, or a partition a chunk miss cannot read.
    pub fn query(&mut self, query: &AnalyticalQuery) -> Result<AqpOutcome> {
        let bbox = query.region.bounding_rect();
        SeaError::check_dims(self.domain.dims(), bbox.dims())?;
        // Find the single constrained dimension.
        let mut constrained = None;
        for d in 0..bbox.dims() {
            let full = bbox.lo()[d] <= self.domain.lo()[d] && bbox.hi()[d] >= self.domain.hi()[d];
            if !full {
                if constrained.is_some() {
                    return Err(SeaError::invalid(
                        "DataCanopy answers single-dimension range statistics only",
                    ));
                }
                constrained = Some(d);
            }
        }
        let dim = constrained.unwrap_or(0);
        let (a, b) = (bbox.lo()[dim], bbox.hi()[dim]);
        // The attribute the statistic reads, and how it finishes from the
        // chunks' combined basic aggregates and unrounded scaled count.
        type Finish = fn(ChunkStats, f64) -> Result<f64>;
        let (value_dim, finish): (usize, Finish) = match query.aggregate {
            AggregateKind::Count => (dim, |t, _| Ok(t.count as f64)),
            AggregateKind::Sum { dim: v } => (v, |t, _| Ok(t.sum)),
            AggregateKind::Mean { dim: v } => (v, |t, n| {
                if n == 0.0 {
                    return Err(SeaError::Empty("mean over empty selection".into()));
                }
                Ok(t.sum / n)
            }),
            AggregateKind::Variance { dim: v } => (v, |t, n| {
                if n == 0.0 {
                    return Err(SeaError::Empty("variance over empty selection".into()));
                }
                let mean = t.sum / n;
                Ok((t.sum_sq / n - mean * mean).max(0.0))
            }),
            other => {
                return Err(SeaError::invalid(format!(
                    "DataCanopy does not support {other:?}"
                )))
            }
        };

        let first = self.chunk_of(dim, a);
        let last = self.chunk_of(dim, b);
        let mut total = ChunkStats::default();
        let mut weight = 0.0;
        let mut cost = CostReport::zero();
        for chunk in first..=last {
            let (stats, c) = self.chunk_stats(dim, chunk, value_dim)?;
            cost = cost.then(&c);
            let (c_lo, c_hi) = self.chunk_edges(dim, chunk);
            // Fraction of the chunk covered by [a, b].
            let olap = (b.min(c_hi) - a.max(c_lo)).max(0.0);
            let frac = if c_hi > c_lo {
                olap / (c_hi - c_lo)
            } else {
                0.0
            };
            total.count += (stats.count as f64 * frac).round() as u64;
            weight += stats.count as f64 * frac;
            total.sum += stats.sum * frac;
            total.sum_sq += stats.sum_sq * frac;
        }

        let answer = AnswerValue::Scalar(finish(total, weight)?);
        Ok(AqpOutcome { answer, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Record, Region};
    use sea_storage::{Partitioning, StorageCluster};

    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 128);
        let records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, i as f64 / 100.0]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn slab_query(a: f64, b: f64, agg: AggregateKind) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::new(vec![a, 0.0], vec![b, 100.0]).unwrap()),
            agg,
        )
    }

    #[test]
    fn chunk_aligned_count_is_exact() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 10).unwrap();
        // [10, 20) aligned with chunk 1 plus boundary at 20 hits chunk 2.
        let q = slab_query(10.0, 19.99, AggregateKind::Count);
        let out = canopy.query(&q).unwrap();
        // dim0 values 10..=19 → 10 values × 100 records each = 1000.
        let got = out.answer.as_scalar().unwrap();
        assert!((got - 1000.0).abs() < 60.0, "got {got}");
    }

    #[test]
    fn repeated_queries_hit_cache() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 10).unwrap();
        let q = slab_query(10.0, 30.0, AggregateKind::Count);
        let first = canopy.query(&q).unwrap();
        assert!(first.cost.wall_us > 0.0, "cold cache pays");
        let second = canopy.query(&q).unwrap();
        assert_eq!(second.cost, CostReport::zero(), "warm cache is free");
        assert_eq!(first.answer, second.answer);
    }

    #[test]
    fn overlapping_queries_reuse_chunks() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 10).unwrap();
        canopy
            .query(&slab_query(0.0, 50.0, AggregateKind::Count))
            .unwrap();
        let chunks_before = canopy.cache.len();
        // Overlapping query: only new boundary chunks are built.
        let out = canopy
            .query(&slab_query(20.0, 70.0, AggregateKind::Count))
            .unwrap();
        assert!(canopy.cache.len() > chunks_before, "two new chunks");
        assert!(canopy.cache.len() <= chunks_before + 2);
        assert!(out.answer.as_scalar().unwrap() > 0.0);
    }

    #[test]
    fn mean_and_variance_from_chunks() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 20).unwrap();
        let q = slab_query(0.0, 100.0, AggregateKind::Mean { dim: 0 });
        let got = canopy.query(&q).unwrap().answer.as_scalar().unwrap();
        assert!((got - 49.5).abs() < 1.0, "mean of 0..99: {got}");
        let v = slab_query(0.0, 100.0, AggregateKind::Variance { dim: 0 });
        let got_v = canopy.query(&v).unwrap().answer.as_scalar().unwrap();
        // Variance of discrete uniform 0..99 ≈ 833.25.
        assert!((got_v - 833.25).abs() < 20.0, "got {got_v}");
    }

    #[test]
    fn a_partly_covered_chunk_keeps_mean_and_variance_inside_the_data() {
        let mut c = StorageCluster::new(2, 16);
        let records = (1..=3)
            .map(|i| Record::new(i, vec![i as f64, 5.0]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 1).unwrap();
        // [0, 4] covers 0.4 of the one chunk: 1.2 of its 3 rows.
        let mut answer = |agg| {
            let q = AnalyticalQuery::new(
                Region::Range(Rect::new(vec![0.0, 0.0], vec![4.0, 10.0]).unwrap()),
                agg,
            );
            canopy.query(&q).unwrap().answer.as_scalar().unwrap()
        };
        let mean = answer(AggregateKind::Mean { dim: 1 });
        assert!((mean - 5.0).abs() < 1e-9, "mean {mean}");
        let variance = answer(AggregateKind::Variance { dim: 1 });
        assert!((0.0..1e-9).contains(&variance), "variance {variance}");
        assert_eq!(answer(AggregateKind::Count), 1.0, "count rounds per chunk");
    }

    #[test]
    fn storage_grows_only_with_touched_chunks() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 100).unwrap();
        assert_eq!(canopy.storage_bytes(), 0);
        canopy
            .query(&slab_query(0.0, 10.0, AggregateKind::Count))
            .unwrap();
        let small = canopy.storage_bytes();
        canopy
            .query(&slab_query(0.0, 90.0, AggregateKind::Count))
            .unwrap();
        assert!(canopy.storage_bytes() > small * 5);
    }

    #[test]
    fn multi_dim_selection_is_rejected() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 10).unwrap();
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0]).unwrap()),
            AggregateKind::Count,
        );
        assert!(matches!(
            canopy.query(&q),
            Err(SeaError::InvalidArgument(_))
        ));
    }

    #[test]
    fn unsupported_operator_rejected() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut canopy = DataCanopy::new(&exec, "t", domain, 10).unwrap();
        let q = slab_query(0.0, 10.0, AggregateKind::Median { dim: 0 });
        assert!(canopy.query(&q).is_err());
    }
}
