//! An STR (Sort-Tile-Recursive) bulk-loaded R-tree over rectangles.
//!
//! SEA uses the R-tree to route queries to storage *blocks* and *index
//! entries* whose bounding rectangles overlap the selection — the routing
//! half of surgical access (RT2). Entries are `(Rect, payload)` pairs; the
//! payload is typically a `(node, block)` address.

use serde::{Deserialize, Serialize};

use sea_common::{Rect, Result, SeaError};

/// Maximum number of children per R-tree node.
const NODE_CAPACITY: usize = 16;

#[derive(Debug, Clone, Serialize, Deserialize)]
enum NodeKind<P> {
    Leaf(Vec<(Rect, P)>),
    Inner(Vec<(Rect, usize)>),
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RNode<P> {
    kind: NodeKind<P>,
}

/// A static R-tree built once over `(Rect, payload)` entries.
///
/// # Examples
///
/// ```
/// use sea_common::Rect;
/// use sea_index::RTree;
///
/// let entries: Vec<(Rect, usize)> = (0..100)
///     .map(|i| {
///         let lo = i as f64;
///         (Rect::new(vec![lo, lo], vec![lo + 1.0, lo + 1.0]).unwrap(), i)
///     })
///     .collect();
/// let tree = RTree::build(entries).unwrap();
/// let q = Rect::new(vec![10.5, 10.5], vec![12.5, 12.5]).unwrap();
/// let hits = tree.search(&q).unwrap();
/// assert_eq!(hits.len(), 3); // entries 10, 11, 12
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RTree<P> {
    dims: usize,
    nodes: Vec<RNode<P>>,
    root: usize,
    len: usize,
}

impl<P: Clone> RTree<P> {
    /// Bulk-loads a tree with the STR algorithm.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] on no entries, dimension mismatch when entry
    /// rectangles disagree.
    pub fn build(entries: Vec<(Rect, P)>) -> Result<Self> {
        let Some((first, _)) = entries.first() else {
            return Err(SeaError::Empty("R-tree needs at least one entry".into()));
        };
        let dims = first.dims();
        for (r, _) in &entries {
            SeaError::check_dims(dims, r.dims())?;
        }
        let mut tree = RTree {
            dims,
            nodes: Vec::new(),
            root: 0,
            len: entries.len(),
        };

        // Sort-tile-recursive packing of leaves.
        let mut sorted = entries;
        str_sort(&mut sorted, dims, 0);
        let mut level: Vec<(Rect, usize)> = sorted
            .chunks(NODE_CAPACITY)
            .map(|chunk| {
                let mbr = mbr_of(chunk.iter().map(|(r, _)| r));
                let idx = tree.nodes.len();
                tree.nodes.push(RNode {
                    kind: NodeKind::Leaf(chunk.to_vec()),
                });
                (mbr, idx)
            })
            .collect();

        // Pack upper levels until a single root remains.
        while level.len() > 1 {
            str_sort(&mut level, dims, 0);
            level = level
                .chunks(NODE_CAPACITY)
                .map(|chunk| {
                    let mbr = mbr_of(chunk.iter().map(|(r, _)| r));
                    let idx = tree.nodes.len();
                    tree.nodes.push(RNode {
                        kind: NodeKind::Inner(chunk.to_vec()),
                    });
                    (mbr, idx)
                })
                .collect();
        }
        tree.root = level[0].1;
        Ok(tree)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// All payloads whose rectangle intersects `query`, plus the rectangle
    /// itself. Also reports the number of tree nodes visited.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn search(&self, query: &Rect) -> Result<Vec<(Rect, P)>> {
        Ok(self.search_counted(query)?.0)
    }

    /// Like [`RTree::search`] but also returns the number of tree nodes
    /// visited (a work measure for the optimizer's cost models).
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    fn search_counted(&self, query: &Rect) -> Result<(Vec<(Rect, P)>, usize)> {
        SeaError::check_dims(self.dims, query.dims())?;
        let mut out = Vec::new();
        let mut visited = 0usize;
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            visited += 1;
            match &self.nodes[idx].kind {
                NodeKind::Leaf(entries) => {
                    for (r, p) in entries {
                        if r.intersects(query) {
                            out.push((r.clone(), p.clone()));
                        }
                    }
                }
                NodeKind::Inner(children) => {
                    for (mbr, child) in children {
                        if mbr.intersects(query) {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
        Ok((out, visited))
    }
}

fn mbr_of<'a>(rects: impl Iterator<Item = &'a Rect>) -> Rect {
    let mut acc: Option<Rect> = None;
    for r in rects {
        acc = Some(match acc {
            None => r.clone(),
            Some(a) => a.union(r).expect("uniform dims checked at build"),
        });
    }
    acc.expect("chunks are non-empty")
}

/// Recursively sort-and-tile entries for STR packing: sort by centre in
/// dimension `dim`, slice into tiles, recurse on the next dimension.
fn str_sort<T>(entries: &mut [(Rect, T)], dims: usize, dim: usize) {
    if dim >= dims || entries.len() <= NODE_CAPACITY {
        return;
    }
    entries.sort_by(|(a, _), (b, _)| {
        let ca = (a.lo()[dim] + a.hi()[dim]) / 2.0;
        let cb = (b.lo()[dim] + b.hi()[dim]) / 2.0;
        ca.partial_cmp(&cb).expect("finite bounds")
    });
    // Number of vertical slabs ≈ n / capacity^(remaining dims)… use the
    // classic sqrt heuristic for 2 levels of tiling.
    let n_leaves = entries.len().div_ceil(NODE_CAPACITY);
    let slabs = (n_leaves as f64).sqrt().ceil() as usize;
    let slab_size = entries.len().div_ceil(slabs.max(1));
    for chunk in entries.chunks_mut(slab_size.max(1)) {
        str_sort(chunk, dims, dim + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_boxes(n: usize) -> Vec<(Rect, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 50) as f64;
                let y = (i / 50) as f64;
                (Rect::new(vec![x, y], vec![x + 1.0, y + 1.0]).unwrap(), i)
            })
            .collect()
    }

    #[test]
    fn build_rejects_empty() {
        assert!(RTree::<usize>::build(vec![]).is_err());
    }

    #[test]
    fn search_matches_linear_scan() {
        let entries = unit_boxes(500);
        let tree = RTree::build(entries.clone()).unwrap();
        assert_eq!(tree.len(), 500);
        for q in [
            Rect::new(vec![3.5, 2.5], vec![6.5, 4.5]).unwrap(),
            Rect::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap(),
            Rect::new(vec![200.0, 200.0], vec![201.0, 201.0]).unwrap(),
        ] {
            let mut got: Vec<usize> = tree
                .search(&q)
                .unwrap()
                .into_iter()
                .map(|(_, p)| p)
                .collect();
            got.sort_unstable();
            let mut want: Vec<usize> = entries
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|(_, p)| *p)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn search_prunes_subtrees() {
        let entries = unit_boxes(2500);
        let tree = RTree::build(entries).unwrap();
        let q = Rect::new(vec![10.0, 10.0], vec![11.0, 11.0]).unwrap();
        let (_, visited) = tree.search_counted(&q).unwrap();
        assert!(
            visited < tree.nodes.len() / 2,
            "visited {visited} of {} nodes",
            tree.nodes.len()
        );
    }

    #[test]
    fn single_entry_tree() {
        let r = Rect::new(vec![0.0], vec![1.0]).unwrap();
        let tree = RTree::build(vec![(r.clone(), "x")]).unwrap();
        assert_eq!(tree.search(&r).unwrap().len(), 1);
        let miss = Rect::new(vec![5.0], vec![6.0]).unwrap();
        assert!(tree.search(&miss).unwrap().is_empty());
    }

    #[test]
    fn dimension_mismatch_on_search() {
        let entries = unit_boxes(10);
        let tree = RTree::build(entries).unwrap();
        let q = Rect::new(vec![0.0], vec![1.0]).unwrap();
        assert!(tree.search(&q).is_err());
    }

    #[test]
    fn overlapping_entries_all_reported() {
        let base = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let entries: Vec<(Rect, usize)> = (0..40).map(|i| (base.clone(), i)).collect();
        let tree = RTree::build(entries).unwrap();
        let q = Rect::new(vec![5.0, 5.0], vec![5.1, 5.1]).unwrap();
        assert_eq!(tree.search(&q).unwrap().len(), 40);
    }
}
