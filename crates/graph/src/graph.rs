//! A labelled undirected graph.

use sea_common::{Result, SeaError};

/// A simple undirected graph with `u32` node labels.
///
/// # Examples
///
/// ```
/// use sea_graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node(1);
/// let b = g.add_node(2);
/// g.add_edge(a, b).unwrap();
/// assert_eq!(g.num_nodes(), 2);
/// assert!(g.has_edge(a, b));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    labels: Vec<u32>,
    adjacency: Vec<Vec<usize>>,
    num_edges: usize,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node with `label`, returning its index.
    pub fn add_node(&mut self, label: u32) -> usize {
        self.labels.push(label);
        self.adjacency.push(Vec::new());
        self.labels.len() - 1
    }

    /// Adds an undirected edge; parallel edges and self-loops are rejected.
    ///
    /// # Errors
    ///
    /// Out-of-range endpoints, self-loop, or duplicate edge.
    pub fn add_edge(&mut self, a: usize, b: usize) -> Result<()> {
        let n = self.labels.len();
        if a >= n || b >= n {
            return Err(SeaError::invalid("edge endpoint out of range"));
        }
        if a == b {
            return Err(SeaError::invalid("self-loops are not supported"));
        }
        if self.adjacency[a].contains(&b) {
            return Err(SeaError::invalid("duplicate edge"));
        }
        self.adjacency[a].push(b);
        self.adjacency[b].push(a);
        self.num_edges += 1;
        Ok(())
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Label of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: usize) -> u32 {
        self.labels[v]
    }

    /// Neighbours of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Whether the edge `{a, b}` exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.num_nodes() && self.adjacency[a].contains(&b)
    }

    /// Multiset of labels, sorted — a cheap necessary-condition filter for
    /// subgraph containment.
    pub fn label_multiset(&self) -> Vec<u32> {
        let mut l = self.labels.clone();
        l.sort_unstable();
        l
    }

    /// A cheap structural fingerprint: sorted `(label, degree)` pairs plus
    /// edge count. Equal graphs always share fingerprints (used to bucket
    /// cache lookups; exact equality is verified by isomorphism).
    pub fn fingerprint(&self) -> u64 {
        let mut pairs: Vec<(u32, usize)> = (0..self.num_nodes())
            .map(|v| (self.labels[v], self.degree(v)))
            .collect();
        pairs.sort_unstable();
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.num_edges as u64);
        for (l, d) in pairs {
            mix(l as u64);
            mix(d as u64);
        }
        h
    }

    /// Approximate serialized size in bytes.
    pub fn storage_bytes(&self) -> u64 {
        4 * self.num_nodes() as u64 + 16 * self.num_edges as u64 + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(1);
        let b = g.add_node(2);
        let c = g.add_node(3);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        g
    }

    #[test]
    fn build_and_inspect() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0), "undirected");
        assert!(!g.has_edge(0, 5));
        assert_eq!(g.label_multiset(), vec![1, 2, 3]);
    }

    #[test]
    fn edge_validation() {
        let mut g = triangle();
        assert!(g.add_edge(0, 0).is_err(), "self-loop");
        assert!(g.add_edge(0, 1).is_err(), "duplicate");
        assert!(g.add_edge(0, 9).is_err(), "out of range");
    }

    #[test]
    fn fingerprint_is_structure_sensitive() {
        let t = triangle();
        let mut path = Graph::new();
        let a = path.add_node(1);
        let b = path.add_node(2);
        let c = path.add_node(3);
        path.add_edge(a, b).unwrap();
        path.add_edge(b, c).unwrap();
        assert_ne!(t.fingerprint(), path.fingerprint());
        assert_eq!(t.fingerprint(), triangle().fingerprint());
    }

    #[test]
    fn fingerprint_ignores_node_order() {
        let mut g1 = Graph::new();
        let a = g1.add_node(7);
        let b = g1.add_node(9);
        g1.add_edge(a, b).unwrap();
        let mut g2 = Graph::new();
        let b2 = g2.add_node(9);
        let a2 = g2.add_node(7);
        g2.add_edge(b2, a2).unwrap();
        assert_eq!(g1.fingerprint(), g2.fingerprint());
    }
}
