//! E6 — subgraph-query semantic caching (\[34\], \[35\]).
//!
//! Shape target: on workloads with realistic pattern reuse the cache cuts
//! isomorphism verifications by large factors — "up to 40X" at high
//! overlap.

use sea_common::Result;
use sea_graph::{GraphCache, GraphDb, GraphGenerator};
use sea_telemetry::TelemetrySink;

use crate::Report;

/// Runs E6. Columns: distinct patterns in a 200-query workload,
/// verifications without cache, with cache, and the speedup factor.
/// `GraphDb` has no simulated cluster underneath, so telemetry here is
/// bench-level: one span per workload sweep plus verification counters.
pub fn run_e6_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E6",
        "subgraph queries: semantic cache vs no cache",
        &[
            "distinct_patterns",
            "uncached_verifs",
            "cached_verifs",
            "factor",
        ],
    );
    // Database: 400 labelled graphs.
    let data_gen = GraphGenerator::new(4, 0.22, 42);
    let mut db = GraphDb::new();
    for i in 0..400 {
        db.add_graph(data_gen.generate(14 + (i % 8), i as u64));
    }
    let query_gen = GraphGenerator::new(4, 0.5, 9);

    for &distinct in &[2usize, 5, 20, 100] {
        let sweep = sink.span("bench.e6.sweep");
        sweep.tag("distinct_patterns", distinct);
        let patterns: Vec<_> = (0..distinct)
            .map(|i| query_gen.generate(3 + (i % 3), 500 + i as u64))
            .collect();
        let mut uncached = 0usize;
        let mut cached = 0usize;
        let mut cache = GraphCache::new(128);
        for i in 0..200 {
            let q = &patterns[i % distinct];
            let (_, cold) = db.query(q);
            uncached += cold.verifications;
            let (_, warm) = cache.query(&db, q);
            cached += warm.verifications;
        }
        sink.incr("bench.e6.uncached_verifications", uncached as u64);
        sink.incr("bench.e6.cached_verifications", cached as u64);
        drop(sweep);
        report.push_row(vec![
            distinct as f64,
            uncached as f64,
            cached as f64,
            uncached as f64 / cached.max(1) as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_overlap_gives_tens_of_x() {
        let r = run_e6_with(&TelemetrySink::noop()).unwrap();
        let factors = r.column("factor");
        assert!(
            factors[0] > 20.0,
            "2-pattern workload caches hard: {factors:?}"
        );
        assert!(
            factors[0] > *factors.last().unwrap(),
            "factor shrinks as overlap drops: {factors:?}"
        );
    }
}
