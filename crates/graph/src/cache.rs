//! The GraphCache-style semantic cache for subgraph queries.

use std::collections::BTreeMap;

use crate::db::{GraphDb, QueryStats};
use crate::graph::Graph;
use crate::iso::{graphs_isomorphic, subgraph_isomorphic};

/// One cached query and its answer set.
#[derive(Debug, Clone)]
struct CacheEntry {
    pattern: Graph,
    answer: Vec<usize>,
}

/// A semantic cache in front of a [`GraphDb`].
///
/// # Examples
///
/// ```
/// use sea_graph::{Graph, GraphCache, GraphDb};
///
/// let mut db = GraphDb::new();
/// let mut g = Graph::new();
/// let a = g.add_node(1);
/// let b = g.add_node(2);
/// g.add_edge(a, b).unwrap();
/// db.add_graph(g.clone());
///
/// let mut cache = GraphCache::new(64);
/// let (first, s1) = cache.query(&db, &g);
/// let (second, s2) = cache.query(&db, &g);
/// assert_eq!(first, second);
/// assert!(s1.verifications > 0);
/// assert_eq!(s2.verifications, 0, "exact hit");
/// ```
#[derive(Debug, Clone)]
pub struct GraphCache {
    capacity: usize,
    /// fingerprint → entries (collisions resolved by exact isomorphism).
    /// A `BTreeMap` so the semantic-hit scan in [`Self::query`] visits
    /// entries in a fixed order: the tightest-subgraph tie-break keeps
    /// the first candidate set seen, and hash-map iteration order would
    /// make that (and hence verification counts) vary run to run.
    entries: BTreeMap<u64, Vec<CacheEntry>>,
    /// Insertion order for FIFO eviction.
    order: Vec<u64>,
    hits_exact: u64,
    hits_sub: u64,
    hits_super: u64,
    misses: u64,
}

impl GraphCache {
    /// A cache holding at most `capacity` query entries (FIFO eviction).
    pub fn new(capacity: usize) -> Self {
        GraphCache {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            order: Vec::new(),
            hits_exact: 0,
            hits_sub: 0,
            hits_super: 0,
            misses: 0,
        }
    }

    /// Cached query entries currently held.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache memory footprint in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.entries
            .values()
            .flatten()
            .map(|e| e.pattern.storage_bytes() + 8 * e.answer.len() as u64)
            .sum()
    }

    /// Answers `pattern` over `db`, exploiting exact, subgraph, and
    /// supergraph cache hits, then caches the fresh answer.
    pub fn query(&mut self, db: &GraphDb, pattern: &Graph) -> (Vec<usize>, QueryStats) {
        // 1. Exact hit.
        if let Some(bucket) = self.entries.get(&pattern.fingerprint()) {
            for e in bucket {
                if graphs_isomorphic(&e.pattern, pattern) {
                    self.hits_exact += 1;
                    let stats = QueryStats {
                        from_cache: e.answer.len(),
                        ..QueryStats::default()
                    };
                    return (e.answer.clone(), stats);
                }
            }
        }

        // 2. Semantic hits. The tightest subgraph hit gives the smallest
        // candidate set; all supergraph hits contribute guaranteed answers.
        let mut candidates: Option<Vec<usize>> = None;
        let mut guaranteed: Vec<usize> = Vec::new();
        for e in self.entries.values().flatten() {
            if e.pattern.num_nodes() <= pattern.num_nodes()
                && subgraph_isomorphic(&e.pattern, pattern)
            {
                // Cached pattern ⊆ query ⇒ answer(query) ⊆ cached answer.
                match &candidates {
                    Some(c) if c.len() <= e.answer.len() => {}
                    _ => candidates = Some(e.answer.clone()),
                }
            } else if e.pattern.num_nodes() >= pattern.num_nodes()
                && subgraph_isomorphic(pattern, &e.pattern)
            {
                // Query ⊆ cached pattern ⇒ cached answers contain query.
                guaranteed.extend(&e.answer);
            }
        }
        guaranteed.sort_unstable();
        guaranteed.dedup();
        match (&candidates, guaranteed.is_empty()) {
            (Some(_), _) => self.hits_sub += 1,
            (None, false) => self.hits_super += 1,
            (None, true) => self.misses += 1,
        }

        let (answer, stats) = db.query_candidates(pattern, candidates.as_deref(), &guaranteed);
        self.insert(pattern.clone(), answer.clone());
        (answer, stats)
    }

    fn insert(&mut self, pattern: Graph, answer: Vec<usize>) {
        while self.len() >= self.capacity {
            let oldest = self.order.remove(0);
            if let Some(bucket) = self.entries.get_mut(&oldest) {
                if !bucket.is_empty() {
                    bucket.remove(0);
                }
                if bucket.is_empty() {
                    self.entries.remove(&oldest);
                }
            }
        }
        let fp = pattern.fingerprint();
        self.entries
            .entry(fp)
            .or_default()
            .push(CacheEntry { pattern, answer });
        self.order.push(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GraphGenerator;

    fn path(labels: &[u32]) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<usize> = labels.iter().map(|&l| g.add_node(l)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    fn db() -> GraphDb {
        let gen = GraphGenerator::new(4, 0.25, 42);
        let mut db = GraphDb::new();
        for i in 0..200 {
            db.add_graph(gen.generate(12 + (i % 8), i as u64));
        }
        db
    }

    #[test]
    fn exact_hit_answers_free() {
        let db = db();
        let mut cache = GraphCache::new(32);
        let q = path(&[0, 1, 2]);
        let (a1, s1) = cache.query(&db, &q);
        let (a2, s2) = cache.query(&db, &q);
        assert_eq!(a1, a2);
        assert!(s1.verifications > 0);
        assert_eq!(s2.verifications, 0);
        assert_eq!(cache.hits_exact, 1);
    }

    #[test]
    fn subgraph_hit_prunes_candidates() {
        let db = db();
        let mut cache = GraphCache::new(32);
        // First the small pattern, then a bigger pattern containing it.
        let small = path(&[0, 1]);
        let (small_answer, cold) = cache.query(&db, &small);
        let big = path(&[0, 1, 2]);
        let (big_answer, warm) = cache.query(&db, &big);
        assert!(
            warm.verifications <= small_answer.len(),
            "candidates limited to the cached answer set: {} vs {}",
            warm.verifications,
            small_answer.len()
        );
        assert!(warm.verifications + warm.filtered_out <= cold.verifications + cold.filtered_out);
        // Answer correctness vs cold database query.
        let (want, _) = db.query(&big);
        assert_eq!(big_answer, want);
        assert_eq!(cache.hits_sub, 1, "one subgraph hit");
    }

    #[test]
    fn supergraph_hit_guarantees_answers() {
        let db = db();
        let mut cache = GraphCache::new(32);
        let big = path(&[0, 1, 2]);
        cache.query(&db, &big);
        let small = path(&[0, 1]);
        let (answer, stats) = cache.query(&db, &small);
        assert!(stats.from_cache > 0, "supergraph answers came free");
        let (want, _) = db.query(&small);
        assert_eq!(answer, want);
    }

    #[test]
    fn cache_answers_match_uncached_on_workload() {
        let db = db();
        let gen = GraphGenerator::new(4, 0.4, 9);
        let mut cache = GraphCache::new(64);
        for i in 0..30 {
            let q = gen.generate(3 + (i % 3), 1000 + (i % 10) as u64);
            let (cached, _) = cache.query(&db, &q);
            let (want, _) = db.query(&q);
            assert_eq!(cached, want, "query {i}");
        }
    }

    #[test]
    fn overlapping_workload_reduces_work() {
        let db = db();
        // Workload: 50 queries drawn from 5 distinct patterns.
        let patterns: Vec<Graph> = (0..5)
            .map(|i| path(&[i % 4, (i + 1) % 4, (i + 2) % 4]))
            .collect();
        let mut cold_work = 0usize;
        let mut warm_work = 0usize;
        let mut cache = GraphCache::new(64);
        for i in 0..50 {
            let q = &patterns[i % 5];
            let (_, cold) = db.query(q);
            cold_work += cold.verifications;
            let (_, warm) = cache.query(&db, q);
            warm_work += warm.verifications;
        }
        assert!(
            warm_work * 5 < cold_work,
            "cache saves most verification work: {warm_work} vs {cold_work}"
        );
    }

    #[test]
    fn eviction_respects_capacity() {
        let db = db();
        let mut cache = GraphCache::new(3);
        for i in 0..10u32 {
            let q = path(&[i % 4, (i + 1) % 4, (i + 3) % 4, i % 2]);
            cache.query(&db, &q);
            assert!(cache.len() <= 3);
        }
        assert!(cache.memory_bytes() > 0);
    }
}
