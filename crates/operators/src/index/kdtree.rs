//! A bulk-built k-d tree with range and k-nearest-neighbour search.
//!
//! This is the per-node access structure behind the coordinator–cohort kNN
//! operator of experiment E5 (paper claim: three orders of magnitude over
//! MapReduce-style scanning, \[33\]).

use sea_common::{Point, Record, RecordId, Rect, Result, SeaError};

use crate::nearest_first;

#[derive(Debug, Clone)]
struct Node {
    /// Index into `points` of this node's pivot.
    point: usize,
    split_dim: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// A static k-d tree over a set of records, built once in `O(n log n)`.
///
/// # Examples
///
/// ```
/// use sea_common::{Point, Record};
/// use sea_operators::KdTree;
///
/// let records: Vec<Record> = (0..100)
///     .map(|i| Record::new(i, vec![i as f64, (i * 7 % 100) as f64]))
///     .collect();
/// let tree = KdTree::build(&records).unwrap();
/// let nn = tree.nearest(&Point::new(vec![50.0, 50.0]), 3).unwrap();
/// assert_eq!(nn.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    dims: usize,
    ids: Vec<RecordId>,
    coords: Vec<Vec<f64>>,
    nodes: Vec<Node>,
    root: Option<usize>,
}

/// A kNN search hit: record id and its distance to the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the neighbouring record.
    pub id: RecordId,
    /// Euclidean distance to the query point.
    pub distance: f64,
}

impl KdTree {
    /// Bulk-builds a tree from records.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] on no records; dimension mismatch when records
    /// disagree.
    pub fn build(records: &[Record]) -> Result<Self> {
        let Some(first) = records.first() else {
            return Err(SeaError::Empty("k-d tree needs at least one record".into()));
        };
        let dims = first.dims();
        if dims == 0 {
            return Err(SeaError::invalid("k-d tree needs at least one dimension"));
        }
        for r in records {
            SeaError::check_dims(dims, r.dims())?;
        }
        let ids: Vec<RecordId> = records.iter().map(|r| r.id).collect();
        let coords: Vec<Vec<f64>> = records.iter().map(|r| r.values.clone()).collect();
        let mut tree = KdTree {
            dims,
            ids,
            coords,
            nodes: Vec::with_capacity(records.len()),
            root: None,
        };
        let mut order: Vec<usize> = (0..records.len()).collect();
        tree.root = tree.build_rec(&mut order, 0);
        Ok(tree)
    }

    fn build_rec(&mut self, order: &mut [usize], depth: usize) -> Option<usize> {
        if order.is_empty() {
            return None;
        }
        let split_dim = depth % self.dims;
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, |&a, &b| {
            self.coords[a][split_dim].total_cmp(&self.coords[b][split_dim])
        });
        let pivot = order[mid];
        let node_idx = self.nodes.len();
        self.nodes.push(Node {
            point: pivot,
            split_dim,
            left: None,
            right: None,
        });
        let (left_slice, rest) = order.split_at_mut(mid);
        let right_slice = &mut rest[1..];
        let left = self.build_rec(left_slice, depth + 1);
        let right = self.build_rec(right_slice, depth + 1);
        self.nodes[node_idx].left = left;
        self.nodes[node_idx].right = right;
        Some(node_idx)
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Ids of all records inside `rect`, visiting only subtrees whose
    /// half-space can intersect it. Also returns how many tree nodes were
    /// inspected (the "work" measure for surgical-access accounting).
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn range(&self, rect: &Rect) -> Result<(Vec<RecordId>, usize)> {
        SeaError::check_dims(self.dims, rect.dims())?;
        let mut out = Vec::new();
        let mut visited = 0usize;
        let mut stack = Vec::new();
        if let Some(root) = self.root {
            stack.push(root);
        }
        while let Some(idx) = stack.pop() {
            visited += 1;
            let node = &self.nodes[idx];
            let p = &self.coords[node.point];
            if (0..self.dims).all(|d| rect.lo()[d] <= p[d] && p[d] <= rect.hi()[d]) {
                out.push(self.ids[node.point]);
            }
            let sd = node.split_dim;
            if let Some(l) = node.left {
                if rect.lo()[sd] <= p[sd] {
                    stack.push(l);
                }
            }
            if let Some(r) = node.right {
                if rect.hi()[sd] >= p[sd] {
                    stack.push(r);
                }
            }
        }
        Ok((out, visited))
    }

    /// The `k` records nearest to `query` in Euclidean distance, closest
    /// first. Returns fewer when the tree holds fewer than `k` records.
    ///
    /// # Errors
    ///
    /// Dimension mismatch, or `k == 0`.
    pub fn nearest(&self, query: &Point, k: usize) -> Result<Vec<Neighbor>> {
        SeaError::check_dims(self.dims, query.dims())?;
        if k == 0 {
            return Err(SeaError::invalid("k must be positive"));
        }
        let mut best = Vec::with_capacity(k + 1);
        self.nearest_rec(self.root, query.coords(), k, &mut best);
        Ok(best
            .into_iter()
            .map(|(dist_sq, id)| Neighbor {
                id,
                distance: dist_sq.sqrt(),
            })
            .collect())
    }

    /// Visits the subtree at `node`, keeping in `best` the `k` nearest
    /// `(squared distance, id)` pairs seen so far in the crate's
    /// nearest-first order.
    fn nearest_rec(
        &self,
        node: Option<usize>,
        q: &[f64],
        k: usize,
        best: &mut Vec<(f64, RecordId)>,
    ) {
        let Some(idx) = node else { return };
        let n = &self.nodes[idx];
        let p = &self.coords[n.point];
        let dist_sq: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
        let candidate = (dist_sq, self.ids[n.point]);
        // (dist, id)-lexicographic eviction: an equidistant record with a
        // lower id displaces the incumbent, so the reported top-k never
        // depends on tree traversal order.
        let order = nearest_first(|e: &(f64, RecordId)| *e);
        let at = best.partition_point(|e| order(e, &candidate).is_lt());
        if at < k {
            best.insert(at, candidate);
            best.truncate(k);
        }
        let sd = n.split_dim;
        let diff = q[sd] - p[sd];
        let (near, far) = if diff <= 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.nearest_rec(near, q, k, best);
        // Visit the far side unless the splitting plane is provably
        // farther than the current k-th best — the boundary case must
        // recurse so an equidistant lower-id record can still win its
        // tie, and a NaN on either side proves nothing.
        let worst = best.last().map_or(f64::INFINITY, |e| e.0);
        let plane = diff * diff;
        if best.len() < k || plane <= worst || plane.is_nan() || worst.is_nan() {
            self.nearest_rec(far, q, k, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> Vec<Record> {
        // n x n integer lattice.
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                out.push(Record::new((i * n + j) as u64, vec![i as f64, j as f64]));
            }
        }
        out
    }

    fn brute_knn(records: &[Record], q: &Point, k: usize) -> Vec<RecordId> {
        let mut d: Vec<(f64, RecordId)> = records
            .iter()
            .map(|r| (q.distance_sq(&r.to_point()).unwrap(), r.id))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.into_iter().take(k).map(|(_, id)| id).collect()
    }

    #[test]
    fn build_rejects_empty_and_mixed() {
        assert!(KdTree::build(&[]).is_err());
        let mixed = vec![Record::new(0, vec![1.0]), Record::new(1, vec![1.0, 2.0])];
        assert!(KdTree::build(&mixed).is_err());
    }

    #[test]
    fn range_query_matches_filter() {
        let records = lattice(20);
        let tree = KdTree::build(&records).unwrap();
        let rect = Rect::new(vec![3.0, 5.0], vec![7.0, 9.0]).unwrap();
        let (mut got, visited) = tree.range(&rect).unwrap();
        got.sort_unstable();
        let mut want: Vec<RecordId> = records
            .iter()
            .filter(|r| rect.contains(&r.to_point()))
            .map(|r| r.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(visited < records.len(), "pruning happened: {visited}");
    }

    #[test]
    fn knn_matches_brute_force() {
        let records = lattice(15);
        let tree = KdTree::build(&records).unwrap();
        for q in [
            Point::new(vec![7.2, 7.9]),
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![14.0, 0.5]),
            Point::new(vec![-3.0, 20.0]),
        ] {
            for k in [1, 5, 17] {
                let got: Vec<RecordId> =
                    tree.nearest(&q, k).unwrap().iter().map(|n| n.id).collect();
                let want = brute_knn(&records, &q, k);
                // Distances must agree even if ties order differently.
                let gd: Vec<f64> = tree
                    .nearest(&q, k)
                    .unwrap()
                    .iter()
                    .map(|n| n.distance)
                    .collect();
                let wd: Vec<f64> = want
                    .iter()
                    .map(|id| q.distance(&records[*id as usize].to_point()).unwrap())
                    .collect();
                for (a, b) in gd.iter().zip(&wd) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "k={k} q={q:?} got {got:?} want {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_returns_sorted_distances() {
        let records = lattice(10);
        let tree = KdTree::build(&records).unwrap();
        let hits = tree.nearest(&Point::new(vec![4.3, 4.7]), 10).unwrap();
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn knn_with_k_larger_than_tree() {
        let records = lattice(3);
        let tree = KdTree::build(&records).unwrap();
        let hits = tree.nearest(&Point::new(vec![1.0, 1.0]), 100).unwrap();
        assert_eq!(hits.len(), 9);
        assert!(tree.nearest(&Point::new(vec![0.0, 0.0]), 0).is_err());
    }

    #[test]
    fn single_record_tree() {
        let tree = KdTree::build(&[Record::new(42, vec![1.0, 2.0])]).unwrap();
        let hits = tree.nearest(&Point::new(vec![0.0, 0.0]), 5).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn duplicate_points_are_all_found() {
        let records = vec![
            Record::new(0, vec![1.0, 1.0]),
            Record::new(1, vec![1.0, 1.0]),
            Record::new(2, vec![1.0, 1.0]),
        ];
        let tree = KdTree::build(&records).unwrap();
        let hits = tree.nearest(&Point::new(vec![1.0, 1.0]), 3).unwrap();
        let mut ids: Vec<_> = hits.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
