//! Hybrid algorithm selection for subgraph queries (\[37\], \[38\]).
//!
//! "For graph-pattern queries we have found that different algorithms and
//! different index types are preferable for different graph patterns and
//! graph databases" (P4). This module implements the two-algorithm
//! portfolio (VF2-style vs Ullmann-style) with a per-query selector:
//!
//! * a feature rule (pattern density), the selector's choice for a
//!   bucket it has not measured:
//!   dense patterns benefit from Ullmann's refinement, sparse ones from
//!   VF2's light checks.
//! * [`HybridMatcher`] — a *learned* selector in the spirit of G6: it
//!   measures both algorithms on a training sample (counting search work)
//!   and picks per query-feature-bucket thereafter.

use crate::graph::Graph;
use crate::iso::subgraph_isomorphic;
use crate::ullmann::subgraph_isomorphic_ullmann;

/// The available subgraph-matching algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchAlgorithm {
    /// VF2-style backtracking with connectivity-anchored candidates.
    Vf2,
    /// Ullmann-style candidate-matrix refinement.
    Ullmann,
}

impl MatchAlgorithm {
    /// Runs the algorithm.
    pub fn matches(&self, pattern: &Graph, target: &Graph) -> bool {
        match self {
            MatchAlgorithm::Vf2 => subgraph_isomorphic(pattern, target),
            MatchAlgorithm::Ullmann => subgraph_isomorphic_ullmann(pattern, target),
        }
    }

    /// The density-based heuristic choice for `pattern`: Ullmann for
    /// dense patterns (edge density ≥ 0.5 of the complete graph),
    /// VF2 otherwise.
    fn heuristic_for(pattern: &Graph) -> MatchAlgorithm {
        let n = pattern.num_nodes();
        if n < 2 {
            return MatchAlgorithm::Vf2;
        }
        let max_edges = n * (n - 1) / 2;
        if pattern.num_edges() * 2 >= max_edges {
            MatchAlgorithm::Ullmann
        } else {
            MatchAlgorithm::Vf2
        }
    }
}

/// Feature bucket of a pattern: (node-count band, density band).
fn bucket(pattern: &Graph) -> (usize, usize) {
    let n = pattern.num_nodes();
    let size_band = match n {
        0..=3 => 0,
        4..=6 => 1,
        _ => 2,
    };
    let max_edges = (n * n.saturating_sub(1) / 2).max(1);
    let density_band = (pattern.num_edges() * 3 / max_edges).min(2);
    (size_band, density_band)
}

/// A learned per-bucket algorithm selector.
#[derive(Debug, Clone, Default)]
pub struct HybridMatcher {
    /// bucket → (vf2 total µs, ullmann total µs, samples).
    measurements: std::collections::HashMap<(usize, usize), (f64, f64, u32)>,
}

impl HybridMatcher {
    /// An empty selector (falls back to the heuristic until trained).
    pub fn new() -> Self {
        HybridMatcher::default()
    }

    /// Measures both algorithms on one (pattern, target) pair and records
    /// the timings in the pattern's bucket. Returns whether they agreed
    /// (they always must — disagreement is a bug).
    pub fn train(&mut self, pattern: &Graph, target: &Graph) -> bool {
        let t0 = std::time::Instant::now();
        let a = subgraph_isomorphic(pattern, target);
        let vf2_us = t0.elapsed().as_secs_f64() * 1e6;
        let t1 = std::time::Instant::now();
        let b = subgraph_isomorphic_ullmann(pattern, target);
        let ull_us = t1.elapsed().as_secs_f64() * 1e6;
        let e = self
            .measurements
            .entry(bucket(pattern))
            .or_insert((0.0, 0.0, 0));
        e.0 += vf2_us;
        e.1 += ull_us;
        e.2 += 1;
        a == b
    }

    /// The selector's choice for `pattern`: the measured-faster algorithm
    /// of its bucket, or the heuristic when the bucket is unmeasured.
    pub fn choose(&self, pattern: &Graph) -> MatchAlgorithm {
        match self.measurements.get(&bucket(pattern)) {
            Some((vf2, ull, n)) if *n > 0 => {
                if vf2 <= ull {
                    MatchAlgorithm::Vf2
                } else {
                    MatchAlgorithm::Ullmann
                }
            }
            _ => MatchAlgorithm::heuristic_for(pattern),
        }
    }

    /// Runs the chosen algorithm.
    pub fn matches(&self, pattern: &Graph, target: &Graph) -> bool {
        self.choose(pattern).matches(pattern, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GraphGenerator;

    #[test]
    fn heuristic_splits_by_density() {
        let sparse = GraphGenerator::new(2, 0.1, 1).generate(8, 0);
        let mut dense = Graph::new();
        for _ in 0..5 {
            dense.add_node(1);
        }
        for a in 0..5 {
            for b in (a + 1)..5 {
                dense.add_edge(a, b).unwrap();
            }
        }
        assert_eq!(MatchAlgorithm::heuristic_for(&sparse), MatchAlgorithm::Vf2);
        assert_eq!(
            MatchAlgorithm::heuristic_for(&dense),
            MatchAlgorithm::Ullmann
        );
    }

    #[test]
    fn algorithms_always_agree_through_training() {
        let data_gen = GraphGenerator::new(3, 0.3, 7);
        let query_gen = GraphGenerator::new(3, 0.4, 8);
        let mut matcher = HybridMatcher::new();
        for i in 0..60 {
            let target = data_gen.generate(10 + (i % 5) as usize, i);
            let pattern = query_gen.generate(3 + (i % 4) as usize, 500 + i);
            assert!(matcher.train(&pattern, &target), "algorithms disagreed");
        }
        assert!(matcher.measurements.len() >= 2);
    }

    #[test]
    fn trained_choice_is_used_and_correct() {
        let data_gen = GraphGenerator::new(3, 0.3, 9);
        let query_gen = GraphGenerator::new(3, 0.4, 10);
        let mut matcher = HybridMatcher::new();
        for i in 0..40 {
            let target = data_gen.generate(12, i);
            let pattern = query_gen.generate(4, 900 + i);
            matcher.train(&pattern, &target);
        }
        // Fresh queries: the hybrid result equals both ground truths.
        for i in 0..20 {
            let target = data_gen.generate(12, 2000 + i);
            let pattern = query_gen.generate(4, 3000 + i);
            let want = MatchAlgorithm::Vf2.matches(&pattern, &target);
            assert_eq!(matcher.matches(&pattern, &target), want);
        }
    }

    #[test]
    fn untrained_matcher_falls_back_to_heuristic() {
        let matcher = HybridMatcher::new();
        let sparse = GraphGenerator::new(2, 0.1, 11).generate(8, 0);
        assert_eq!(matcher.choose(&sparse), MatchAlgorithm::Vf2);
    }
}
