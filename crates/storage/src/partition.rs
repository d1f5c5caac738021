//! Table partitioning policies.

use sea_common::{Record, Rect};

/// Identifier of a data node within a [`crate::StorageCluster`].
pub type NodeId = usize;

/// How a table's records are assigned to data nodes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Partitioning {
    /// Records are spread across all nodes by record-id hash. Every
    /// selection must engage every node (the common HDFS-style layout).
    Hash,
    /// Records are range-partitioned on attribute `dim` with the given
    /// split points: node `i` holds values in `[splits[i-1], splits[i])`
    /// (node 0 takes everything below `splits\[0\]`, the last node everything
    /// at or above the last split). Selections that constrain `dim` can
    /// prune nodes.
    Range {
        /// The partitioning attribute.
        dim: usize,
        /// Ascending split points; `splits.len() + 1` nodes are addressed.
        splits: Vec<f64>,
    },
}

impl Partitioning {
    /// Short policy name (`"hash"` / `"range"`) used in telemetry event
    /// payloads such as `storage.partition_pruned`.
    pub fn kind(&self) -> &'static str {
        match self {
            Partitioning::Hash => "hash",
            Partitioning::Range { .. } => "range",
        }
    }

    /// The node a record belongs to, given `n_nodes` nodes.
    ///
    /// Range partitioning routes a record whose partitioning attribute is
    /// NaN (missing) to **node 0** by convention. Such records are
    /// invisible to [`Partitioning::nodes_for_region`] pruning, which is
    /// consistent rather than lossy: a NaN value never satisfies any
    /// range predicate, so no region scan can match the record anyway —
    /// only full scans (which engage every node) can see it.
    pub fn node_for(&self, record: &Record, n_nodes: usize) -> NodeId {
        match self {
            Partitioning::Hash => {
                // Fibonacci hash of the record id: deterministic, well mixed.
                (record.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n_nodes
            }
            Partitioning::Range { dim, splits } => {
                let v = record.value(*dim);
                if v.is_nan() {
                    return 0;
                }
                let idx = splits.partition_point(|s| *s <= v);
                idx.min(n_nodes.saturating_sub(1))
            }
        }
    }

    /// The set of nodes that may hold records inside `region` (its
    /// axis-aligned bounding rectangle), given `n_nodes` nodes. Hash
    /// partitioning cannot prune; range partitioning returns only nodes
    /// whose value interval overlaps the region's interval in the
    /// partitioning dimension.
    pub fn nodes_for_region(&self, region: &Rect, n_nodes: usize) -> Vec<NodeId> {
        if n_nodes == 0 {
            return Vec::new();
        }
        match self {
            Partitioning::Hash => (0..n_nodes).collect(),
            Partitioning::Range { dim, splits } => {
                if *dim >= region.dims() {
                    return (0..n_nodes).collect();
                }
                let lo = region.lo()[*dim];
                let hi = region.hi()[*dim];
                let first = splits.partition_point(|s| *s <= lo).min(n_nodes - 1);
                let last = splits.partition_point(|s| *s <= hi).min(n_nodes - 1);
                (first..=last).collect()
            }
        }
    }

    /// Builds equi-width range splits over `[lo, hi]` for `n_nodes` nodes.
    ///
    /// Degenerate inputs — `n_nodes <= 1`, a non-finite bound, or an
    /// inverted interval (`lo > hi`) — yield **no** splits rather than
    /// NaN or descending split points that would silently corrupt
    /// `partition_point` routing. An empty split list routes every record
    /// to node 0 and prunes every region to node 0, which stays
    /// internally consistent.
    pub fn equi_width_splits(lo: f64, hi: f64, n_nodes: usize) -> Vec<f64> {
        if n_nodes <= 1 || !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Vec::new();
        }
        let width = (hi - lo) / n_nodes as f64;
        (1..n_nodes).map(|i| lo + width * i as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_spreads_records() {
        let p = Partitioning::Hash;
        let mut counts = vec![0usize; 4];
        for id in 0..4000u64 {
            let r = Record::new(id, vec![0.0]);
            counts[p.node_for(&r, 4)] += 1;
        }
        for c in &counts {
            assert!(*c > 800 && *c < 1200, "balanced-ish: {counts:?}");
        }
    }

    #[test]
    fn hash_cannot_prune() {
        let p = Partitioning::Hash;
        let region = Rect::new(vec![0.0], vec![0.1]).unwrap();
        assert_eq!(p.nodes_for_region(&region, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn range_assigns_by_split() {
        let p = Partitioning::Range {
            dim: 0,
            splits: vec![10.0, 20.0],
        };
        assert_eq!(p.node_for(&Record::new(0, vec![5.0]), 3), 0);
        assert_eq!(p.node_for(&Record::new(1, vec![10.0]), 3), 1);
        assert_eq!(p.node_for(&Record::new(2, vec![15.0]), 3), 1);
        assert_eq!(p.node_for(&Record::new(3, vec![25.0]), 3), 2);
    }

    #[test]
    fn range_prunes_nodes() {
        let p = Partitioning::Range {
            dim: 0,
            splits: vec![10.0, 20.0, 30.0],
        };
        let region = Rect::new(vec![12.0, 0.0], vec![18.0, 1.0]).unwrap();
        assert_eq!(p.nodes_for_region(&region, 4), vec![1]);
        let wide = Rect::new(vec![5.0, 0.0], vec![25.0, 1.0]).unwrap();
        assert_eq!(p.nodes_for_region(&wide, 4), vec![0, 1, 2]);
    }

    #[test]
    fn range_on_unconstrained_dim_touches_all() {
        let p = Partitioning::Range {
            dim: 5,
            splits: vec![10.0],
        };
        let region = Rect::new(vec![0.0], vec![1.0]).unwrap();
        assert_eq!(p.nodes_for_region(&region, 2), vec![0, 1]);
    }

    #[test]
    fn equi_width_splits_are_ascending() {
        let s = Partitioning::equi_width_splits(0.0, 100.0, 4);
        assert_eq!(s, vec![25.0, 50.0, 75.0]);
        assert!(Partitioning::equi_width_splits(0.0, 1.0, 1).is_empty());
    }

    #[test]
    fn equi_width_splits_guard_degenerate_inputs() {
        // Zero nodes: no division by zero, no splits.
        assert!(Partitioning::equi_width_splits(0.0, 100.0, 0).is_empty());
        // Inverted interval would produce descending splits.
        assert!(Partitioning::equi_width_splits(100.0, 0.0, 4).is_empty());
        // Non-finite bounds would produce NaN/infinite splits.
        assert!(Partitioning::equi_width_splits(f64::NAN, 100.0, 4).is_empty());
        assert!(Partitioning::equi_width_splits(0.0, f64::INFINITY, 4).is_empty());
        // A degenerate (but valid) single-point interval collapses every
        // split to the same value — routing still works via partition_point.
        let s = Partitioning::equi_width_splits(5.0, 5.0, 4);
        assert_eq!(s, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn empty_splits_route_consistently() {
        // With no valid splits, every record routes to node 0 and every
        // region prunes to node 0: degenerate but internally consistent.
        let p = Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(f64::NAN, 100.0, 4),
        };
        let rec = Record::new(0, vec![42.0]);
        assert_eq!(p.node_for(&rec, 4), 0);
        let region = Rect::new(vec![40.0], vec![45.0]).unwrap();
        assert_eq!(p.nodes_for_region(&region, 4), vec![0]);
    }

    #[test]
    fn range_partition_roundtrip_with_pruning() {
        // Every record must land on a node the pruner would visit for a
        // region containing the record.
        let p = Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(0.0, 100.0, 8),
        };
        for i in 0..100 {
            let v = i as f64;
            let rec = Record::new(i, vec![v]);
            let node = p.node_for(&rec, 8);
            let region = Rect::new(vec![v - 0.5], vec![v + 0.5]).unwrap();
            assert!(
                p.nodes_for_region(&region, 8).contains(&node),
                "value {v} on node {node} missed by pruner"
            );
        }
        // NaN in the partitioning dimension: routed to node 0 by the
        // explicit convention, deterministically.
        let nan_rec = Record::new(1000, vec![f64::NAN]);
        assert_eq!(p.node_for(&nan_rec, 8), 0);
        // Pruning never "misses" NaN records because no finite region can
        // contain them — the value fails every range predicate — so the
        // roundtrip invariant (record reachable on its routed node) holds
        // vacuously for every region a pruner could be asked about.
        for rect in [
            Rect::new(vec![-1e300], vec![1e300]).unwrap(),
            Rect::new(vec![0.0], vec![100.0]).unwrap(),
        ] {
            assert!(!sea_common::Region::Range(rect).contains_record(&nan_rec));
        }
    }
}
