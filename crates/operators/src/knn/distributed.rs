//! MapReduce-style vs coordinator–cohort distributed kNN.

use sea_common::{
    CostMeter, CostReport, ExecMode, Point, Record, RecordId, Rect, Result, SeaError,
};
use sea_query::Executor;
use sea_storage::Block;

use crate::index::kdtree::{KdTree, Neighbor};
use crate::nearest_first;

/// A kNN answer plus its resource bill.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnOutcome {
    /// The k nearest neighbours, ascending distance.
    pub neighbors: Vec<Neighbor>,
    /// The cost of finding them.
    pub cost: CostReport,
    /// Data nodes that actually did work.
    pub nodes_engaged: usize,
}

/// MapReduce-style kNN: full scan of every node's partition through the
/// BDAS stack, scoring each row off its coordinate columns; each node
/// ships its local top-k; the coordinator merges. A partition that could
/// not be read (partial-answer mode) leaves the report labelled partial
/// and is not counted in `nodes_engaged`.
///
/// # Errors
///
/// Missing table, `k == 0`, dimension mismatch, or an unreadable
/// partition.
pub fn mapreduce_knn(exec: &Executor, table: &str, query: &Point, k: usize) -> Result<KnnOutcome> {
    if k == 0 {
        return Err(SeaError::invalid("k must be positive"));
    }
    SeaError::check_dims(exec.cluster().dims(table)?, query.dims())?;
    let mut merged: Vec<Neighbor> = Vec::new();
    let scatter = exec.scatter(table, None, ExecMode::Bdas, |_, views, meter| {
        let mut local: Vec<Neighbor> = Vec::new();
        for v in views {
            v.mask.for_each_set(|i| {
                let (id, distance) = (v.block.ids()[i], dist(query, v.block, i));
                local.push(Neighbor { id, distance });
            });
        }
        local.sort_by(nearest_first(by_distance));
        local.truncate(k);
        meter.charge_lan(local.len() as u64 * 16);
        merged.extend(local);
        Ok(())
    })?;
    let mut coord = CostMeter::new();
    coord.charge_cpu(merged.len() as u64);
    merged.sort_by(nearest_first(by_distance));
    merged.truncate(k);
    Ok(KnnOutcome {
        neighbors: merged,
        cost: scatter.report(&coord),
        nodes_engaged: scatter.meters.len() - scatter.unread.len(),
    })
}

/// The [`nearest_first`] key of a neighbour.
fn by_distance(n: &Neighbor) -> (f64, RecordId) {
    (n.distance, n.id)
}

/// Euclidean distance from `q` to row `i` of `block`, read off its
/// coordinate columns.
fn dist(q: &Point, block: &Block, i: usize) -> f64 {
    q.coords()
        .iter()
        .zip(block.cols())
        .map(|(a, col)| (a - col[i]) * (a - col[i]))
        .sum::<f64>()
        .sqrt()
}

/// The coordinator–cohort kNN operator: one k-d tree per data node, plus
/// each partition's bounding rectangle for node-level pruning.
#[derive(Debug, Clone)]
pub struct DistributedKnnIndex {
    /// Per node: the partition's bounding rectangle and its tree (`None`
    /// for an empty partition).
    parts: Vec<Option<(Rect, KdTree)>>,
    dims: usize,
    record_bytes: u64,
    build_cost: CostReport,
}

impl DistributedKnnIndex {
    /// Builds the per-node trees with one offline pass over `table`.
    ///
    /// # Errors
    ///
    /// Missing table, or an unreadable partition (an index of part of
    /// the table would answer short).
    pub fn build(exec: &Executor, table: &str) -> Result<Self> {
        let dims = exec.cluster().dims(table)?;
        let mut parts = Vec::with_capacity(exec.cluster().num_nodes());
        let scatter = exec.scatter(table, None, ExecMode::Direct, |_, views, _| {
            // The partition's box is the union of its blocks' zone maps;
            // the tree indexes points, so it is built from rows on purpose.
            let mut bounds: Option<Rect> = None;
            for zone in views.iter().filter_map(|v| v.block.bounds()) {
                bounds = Some(bounds.map_or(Ok(zone.clone()), |b| b.union(zone))?);
            }
            let records: Vec<Record> = (views.iter())
                .flat_map(|v| v.mask.to_indices().into_iter().map(|i| v.block.record(i)))
                .collect();
            parts.push(match bounds {
                Some(rect) => Some((rect, KdTree::build(&records)?)),
                None => None,
            });
            Ok(())
        })?;
        Ok(DistributedKnnIndex {
            build_cost: scatter.complete()?.report(&CostMeter::new()),
            parts,
            dims,
            record_bytes: 8 + 8 * dims as u64,
        })
    }

    /// The one-time index construction bill.
    pub fn build_cost(&self) -> &CostReport {
        &self.build_cost
    }

    /// Data dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Answers a kNN query: nodes are visited in ascending
    /// distance-from-partition order; once `k` neighbours are known and the
    /// next node's partition lies farther than the current k-th distance,
    /// the remaining nodes are never engaged.
    ///
    /// # Errors
    ///
    /// `k == 0` or dimension mismatch.
    pub fn query(&self, query: &Point, k: usize) -> Result<KnnOutcome> {
        self.query_budgeted(query, k, usize::MAX)
    }

    /// Approximate kNN (RT2-1): like [`DistributedKnnIndex::query`] but
    /// engages at most `max_nodes` partitions. With hash partitioning the
    /// first partitions already contain a uniform sample of the data, so
    /// small budgets trade a little recall for a large cost reduction;
    /// `usize::MAX` recovers the exact operator.
    ///
    /// # Errors
    ///
    /// `k == 0`, `max_nodes == 0`, or dimension mismatch.
    fn query_budgeted(&self, query: &Point, k: usize, max_nodes: usize) -> Result<KnnOutcome> {
        if max_nodes == 0 {
            return Err(SeaError::invalid("max_nodes must be positive"));
        }
        if k == 0 {
            return Err(SeaError::invalid("k must be positive"));
        }
        SeaError::check_dims(self.dims, query.dims())?;

        // Visit order: ascending minimum distance from query to partition
        // (a NaN distance last), ties to the lower node (a stable sort).
        let mut order: Vec<(f64, &KdTree)> = Vec::new();
        for (rect, tree) in self.parts.iter().flatten() {
            order.push((rect.min_distance(query)?, tree));
        }
        order.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut coord = CostMeter::new();
        let mut node_meters = Vec::new();
        let mut merged: Vec<Neighbor> = Vec::new();
        let mut engaged = 0usize;
        for (min_dist, tree) in order {
            if engaged >= max_nodes {
                break; // approximate budget exhausted
            }
            let kth = merged.get(k - 1).map_or(f64::INFINITY, |n| n.distance);
            if merged.len() >= k && min_dist > kth {
                break; // this and all farther nodes are irrelevant
            }
            engaged += 1;
            coord.charge_lan(48); // the query message
            let mut meter = CostMeter::new();
            meter.touch_node(ExecMode::Direct);
            let local = tree.nearest(query, k)?;
            // Index traversal: ~log2(n) node inspections per result.
            // The tree (holding the vectors) is memory-resident on its
            // node — the offline build already paid the disk pass — so a
            // query costs only the logarithmic traversal plus shipping the
            // k winners.
            let visits = (tree.len().max(2) as f64).log2().ceil() as u64 * k as u64;
            meter.charge_cpu(visits);
            meter.charge_lan(local.len() as u64 * self.record_bytes.max(16));
            merged.extend(local);
            merged.sort_by(nearest_first(by_distance));
            merged.truncate(k);
            node_meters.push(meter);
        }
        coord.charge_cpu(merged.len() as u64);
        Ok(KnnOutcome {
            neighbors: merged,
            cost: coord.report_parallel(node_meters.iter()),
            nodes_engaged: engaged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_storage::{Partitioning, StorageCluster};

    fn cluster(n: u64, partitioning: Partitioning) -> StorageCluster {
        let mut c = StorageCluster::new(8, 256);
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    i,
                    vec![(i % 1000) as f64 / 10.0, (i / 1000) as f64 * 3.7 % 100.0],
                )
            })
            .collect();
        c.load_table("t", records, partitioning).unwrap();
        c
    }

    fn brute(c: &StorageCluster, q: &Point, k: usize) -> Vec<(RecordId, f64)> {
        let mut all: Vec<(RecordId, f64)> = c
            .all_records("t")
            .unwrap()
            .iter()
            .map(|r| (r.id, q.distance(&r.to_point()).unwrap()))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn both_strategies_match_brute_force() {
        let c = cluster(10_000, Partitioning::Hash);
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        for q in [
            Point::new(vec![50.0, 50.0]),
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![99.9, 13.0]),
        ] {
            for k in [1, 10, 50] {
                let want = brute(&c, &q, k);
                let mr = mapreduce_knn(&Executor::new(&c), "t", &q, k).unwrap();
                let cc = idx.query(&q, k).unwrap();
                let mr_d: Vec<f64> = mr.neighbors.iter().map(|n| n.distance).collect();
                let cc_d: Vec<f64> = cc.neighbors.iter().map(|n| n.distance).collect();
                let want_d: Vec<f64> = want.iter().map(|(_, d)| *d).collect();
                for (got, want) in mr_d.iter().zip(&want_d) {
                    assert!((got - want).abs() < 1e-9, "mapreduce distances");
                }
                for (got, want) in cc_d.iter().zip(&want_d) {
                    assert!((got - want).abs() < 1e-9, "cohort distances");
                }
            }
        }
    }

    #[test]
    fn coordinator_is_orders_cheaper() {
        let c = cluster(50_000, Partitioning::Hash);
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        let q = Point::new(vec![42.0, 37.0]);
        let mr = mapreduce_knn(&Executor::new(&c), "t", &q, 10).unwrap();
        let cc = idx.query(&q, 10).unwrap();
        let factor = mr.cost.wall_us / cc.cost.wall_us;
        assert!(factor > 50.0, "speedup factor {factor}");
        assert!(cc.cost.totals.disk_bytes * 100 < mr.cost.totals.disk_bytes);
    }

    #[test]
    fn range_partitioning_engages_fewer_nodes() {
        let c = cluster(
            50_000,
            Partitioning::Range {
                dim: 0,
                splits: Partitioning::equi_width_splits(0.0, 100.0, 8),
            },
        );
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        let q = Point::new(vec![42.0, 37.0]);
        let out = idx.query(&q, 10).unwrap();
        assert!(
            out.nodes_engaged <= 3,
            "pruned to the partitions near the query: {}",
            out.nodes_engaged
        );
        // Results still exact.
        let want = brute(&c, &q, 10);
        for (n, (_, d)) in out.neighbors.iter().zip(&want) {
            assert!((n.distance - d).abs() < 1e-9);
        }
    }

    #[test]
    fn k_larger_than_table() {
        let c = cluster(20, Partitioning::Hash);
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        let q = Point::new(vec![1.0, 1.0]);
        let out = idx.query(&q, 100).unwrap();
        assert_eq!(out.neighbors.len(), 20);
        let mr = mapreduce_knn(&Executor::new(&c), "t", &q, 100).unwrap();
        assert_eq!(mr.neighbors.len(), 20);
    }

    #[test]
    fn validations() {
        let c = cluster(100, Partitioning::Hash);
        let q = Point::new(vec![1.0, 1.0]);
        assert!(mapreduce_knn(&Executor::new(&c), "t", &q, 0).is_err());
        assert!(mapreduce_knn(&Executor::new(&c), "missing", &q, 5).is_err());
        let bad_q = Point::new(vec![1.0]);
        assert!(mapreduce_knn(&Executor::new(&c), "t", &bad_q, 5).is_err());
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        assert!(idx.query(&q, 0).is_err());
        assert!(idx.query(&bad_q, 5).is_err());
    }

    #[test]
    fn equidistant_neighbors_break_ties_by_id_not_storage_order() {
        // Two records equidistant from the query, stored with the HIGHER
        // id first: a distance-only stable sort would return id 10.
        let mut c = StorageCluster::new(1, 64);
        c.load_table(
            "t",
            vec![
                Record::new(10, vec![1.0, 0.0]),
                Record::new(5, vec![-1.0, 0.0]),
            ],
            Partitioning::Hash,
        )
        .unwrap();
        let q = Point::new(vec![0.0, 0.0]);
        let mr = mapreduce_knn(&Executor::new(&c), "t", &q, 1).unwrap();
        assert_eq!(mr.neighbors[0].id, 5, "lowest id wins the tie");
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        let cc = idx.query(&q, 1).unwrap();
        assert_eq!(cc.neighbors[0].id, 5);
        // Both ids surface, deterministically ordered, at k = 2.
        let both = mapreduce_knn(&Executor::new(&c), "t", &q, 2).unwrap();
        let ids: Vec<_> = both.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![5, 10]);
    }

    #[test]
    fn a_nan_coordinate_ranks_last_instead_of_panicking() {
        let mut c = StorageCluster::new(2, 4);
        let records: Vec<Record> = (0..20)
            .map(|i| Record::new(i, vec![i as f64, if i == 5 { f64::NAN } else { 0.0 }]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let exec = Executor::new(&c);
        let idx = DistributedKnnIndex::build(&exec, "t").unwrap();
        let q = Point::new(vec![5.0, 0.0]);
        let ids = |o: KnnOutcome| o.neighbors.iter().map(|n| n.id).collect::<Vec<_>>();
        // Distance 1 to ids 4 and 6, 2 to 3 and 7; the NaN row is nobody's
        // neighbour until every finite row is.
        let near = ids(mapreduce_knn(&exec, "t", &q, 4).unwrap());
        assert_eq!(near, vec![4, 6, 3, 7]);
        assert_eq!(ids(idx.query(&q, 4).unwrap()), near);
        let all = ids(mapreduce_knn(&exec, "t", &q, 20).unwrap());
        assert_eq!(all.last(), Some(&5));
        assert_eq!(ids(idx.query(&q, 20).unwrap()), all);
    }

    #[test]
    fn build_cost_reflects_full_scan() {
        let c = cluster(10_000, Partitioning::Hash);
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        assert!(idx.build_cost().totals.disk_bytes >= c.stats("t").unwrap().bytes);
    }
}

#[cfg(test)]
mod approximate_tests {
    use super::*;
    use sea_storage::{Partitioning, StorageCluster};

    fn cluster(n: u64) -> StorageCluster {
        let mut c = StorageCluster::new(8, 256);
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    i,
                    vec![(i % 1000) as f64 / 10.0, (i / 1000) as f64 * 3.7 % 100.0],
                )
            })
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    #[test]
    fn full_budget_equals_exact() {
        let c = cluster(20_000);
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        let q = Point::new(vec![42.0, 37.0]);
        let exact = idx.query(&q, 10).unwrap();
        let budgeted = idx.query_budgeted(&q, 10, usize::MAX).unwrap();
        let a: Vec<f64> = exact.neighbors.iter().map(|n| n.distance).collect();
        let b: Vec<f64> = budgeted.neighbors.iter().map(|n| n.distance).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn small_budget_trades_recall_for_cost() {
        let c = cluster(40_000);
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        let q = Point::new(vec![42.0, 37.0]);
        let exact = idx.query(&q, 20).unwrap();
        let approx = idx.query_budgeted(&q, 20, 2).unwrap();
        assert!(approx.nodes_engaged <= 2);
        assert!(approx.cost.wall_us <= exact.cost.wall_us);
        // Recall: fraction of exact ids that the approximate answer found.
        let exact_ids: std::collections::HashSet<_> =
            exact.neighbors.iter().map(|n| n.id).collect();
        let hits = approx
            .neighbors
            .iter()
            .filter(|n| exact_ids.contains(&n.id))
            .count();
        let recall = hits as f64 / exact.neighbors.len() as f64;
        // Hash partitioning: 2 of 8 nodes ≈ a 25% uniform sample, so
        // recall is imperfect but far above zero, and distances are close.
        assert!(recall > 0.1, "recall {recall}");
        let worst_exact = exact.neighbors.last().unwrap().distance;
        let worst_approx = approx.neighbors.last().unwrap().distance;
        assert!(worst_approx < worst_exact * 4.0 + 1.0);
    }

    #[test]
    fn zero_budget_is_invalid() {
        let c = cluster(1_000);
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        let q = Point::new(vec![1.0, 1.0]);
        assert!(idx.query_budgeted(&q, 5, 0).is_err());
    }
}
