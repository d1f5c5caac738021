//! E19 — semantic-cache hit rate and cost under workload overlap.
//!
//! A query stream over a fixed table mixes fresh hotspot queries with
//! *reused* interest regions: at overlap `p`, `p` of every ten queries
//! revisit one of five fixed rectangles, alternating between the exact
//! rectangle (an exact hit once cached) and a shrunken sub-rectangle
//! (a containment hit, re-derived from the cached per-node fragments).
//! The *cached* arm runs the stream through an [`Executor`] wearing a
//! [`SemanticCache`]; the *uncached* arm runs the identical stream cold.
//! Sweeping overlap 0→90 % shows the crossover the cache is for: the
//! hit rate climbs monotonically with reuse and the simulated cost
//! ratio (cached / uncached) falls well below one at high overlap,
//! while at zero overlap the two arms cost the same.
//!
//! Cost-based admission and charge-aware eviction are exercised by
//! `sea-cache`'s own unit tests; here admission is left wide open so
//! the sweep isolates the effect of workload overlap alone. Answers
//! from the two arms are bit-identical by the cache's re-derivation
//! contract (asserted in this module's tests).

use sea_cache::{CacheConfig, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, Rect, Region, Result};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;
use sea_workload::{QueryGenerator, QuerySpec};

use crate::experiments::common::{observe_query_us, query_span, uniform_cluster};
use crate::Report;

const RECORDS: usize = 20_000;
const NODES: usize = 8;
const DATA_SEED: u64 = 47;
const QUERIES: usize = 80;

/// The five interest regions the reused slice of the stream revisits.
const HOTSPOTS: [(f64, f64); 5] = [
    (30.0, 30.0),
    (50.0, 50.0),
    (70.0, 40.0),
    (40.0, 70.0),
    (60.0, 60.0),
];

fn hotspot_rect(center: (f64, f64)) -> Result<Rect> {
    Rect::new(
        vec![center.0 - 6.0, center.1 - 6.0],
        vec![center.0 + 6.0, center.1 + 6.0],
    )
}

/// A sub-rectangle strictly inside [`hotspot_rect`], shifted
/// deterministically by `i` so repeats are not all byte-identical.
fn hotspot_subrect(center: (f64, f64), i: usize) -> Result<Rect> {
    let shift = (i % 3) as f64 - 1.0;
    Rect::new(
        vec![center.0 - 3.0 + shift, center.1 - 3.0],
        vec![center.0 + 3.0 + shift, center.1 + 3.0],
    )
}

/// The deterministic query stream for one overlap level: `overlap` of
/// every ten queries revisit a hotspot (even revisits use the exact
/// cached rectangle, odd ones a contained sub-rectangle), the rest come
/// fresh from the workload generator.
fn stream(overlap: f64) -> Result<Vec<AnalyticalQuery>> {
    let reuse_per_decade = (overlap * 10.0).round() as usize;
    // Fresh queries scatter widely with narrow, similar extents, so two
    // random ones almost never contain each other — accidental cache
    // hits stay negligible and the sweep isolates deliberate reuse.
    let mut gen = QueryGenerator::new(
        QuerySpec::simple_count(vec![50.0, 50.0], 20.0, (4.0, 8.0))?,
        131,
    )?;
    let mut queries = Vec::with_capacity(QUERIES);
    for i in 0..QUERIES {
        if i % 10 < reuse_per_decade {
            let center = HOTSPOTS[(i / 3) % HOTSPOTS.len()];
            let rect = if i % 2 == 0 {
                hotspot_rect(center)?
            } else {
                hotspot_subrect(center, i)?
            };
            queries.push(AnalyticalQuery::new(
                Region::Range(rect),
                AggregateKind::Count,
            ));
        } else {
            queries.push(gen.next_query());
        }
    }
    Ok(queries)
}

/// Runs one arm over the stream, returning per-query answers and the
/// mean simulated wall-clock.
fn run_arm(
    sink: &TelemetrySink,
    queries: &[AnalyticalQuery],
    cache: Option<&SemanticCache>,
    query_id: &mut u64,
) -> Result<(Vec<AnswerValue>, f64)> {
    let mut cluster = uniform_cluster(RECORDS, NODES, DATA_SEED)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);
    let exec = match cache {
        Some(cache) => exec.with_cache(cache),
        None => exec,
    };
    let mut answers = Vec::with_capacity(queries.len());
    let mut wall = 0.0;
    for q in queries {
        let span = query_span(sink, *query_id);
        *query_id += 1;
        let out = exec.execute_direct("t", q)?;
        span.record_sim_us(out.cost.wall_us);
        observe_query_us(sink, out.cost.wall_us);
        wall += out.cost.wall_us;
        answers.push(out.answer);
    }
    Ok((answers, wall / queries.len() as f64))
}

fn fresh_cache(sink: &TelemetrySink) -> SemanticCache {
    // Admission wide open: the sweep studies overlap, not thresholds.
    SemanticCache::new(CacheConfig {
        admit_min_cost_us: 0.0,
        ..CacheConfig::default()
    })
    .with_telemetry(sink.clone())
}

/// Runs E19. One row per workload-overlap level; a fresh cache per
/// level so hit rates do not bleed across rows.
pub fn run_e19_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E19",
        "semantic cache: hit rate and simulated-cost ratio vs workload overlap",
        &[
            "overlap",
            "hit_rate",
            "exact_hits",
            "containment_hits",
            "misses",
            "cached_mean_us",
            "uncached_mean_us",
            "cost_ratio",
        ],
    );
    let mut query_id = 0u64;
    for overlap in [0.0, 0.3, 0.5, 0.7, 0.9] {
        let queries = stream(overlap)?;
        let cache = fresh_cache(sink);
        let (_, cached_mean) = run_arm(sink, &queries, Some(&cache), &mut query_id)?;
        let (_, uncached_mean) = run_arm(sink, &queries, None, &mut query_id)?;
        let stats = cache.stats();
        report.push_row(vec![
            overlap,
            stats.hit_rate(),
            stats.hits as f64,
            stats.containment_hits as f64,
            stats.misses as f64,
            cached_mean,
            uncached_mean,
            cached_mean / uncached_mean,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_climbs_and_cost_crosses_over() {
        let r = run_e19_with(&TelemetrySink::noop()).unwrap();
        let rates = r.column("hit_rate");
        for w in rates.windows(2) {
            assert!(w[1] >= w[0], "hit rate grows with overlap: {rates:?}");
        }
        assert!(
            rates.last().unwrap() > &0.5,
            "90% overlap mostly hits: {rates:?}"
        );
        // At zero overlap the cache cannot help; at 90% it must.
        let first = r.value(0, "cost_ratio").unwrap();
        let last = r.rows.last().unwrap();
        let last_ratio = r.value(r.rows.len() - 1, "cost_ratio").unwrap();
        assert!(first > 0.9, "no reuse, no win: {first}");
        assert!(
            last_ratio < 0.5,
            "high overlap more than halves simulated cost: {last_ratio}"
        );
        assert!(last[2] > 0.0 && last[3] > 0.0, "both hit classes occur");
    }

    #[test]
    fn cached_answers_match_uncached_answers() {
        let sink = TelemetrySink::noop();
        for overlap in [0.3, 0.9] {
            let queries = stream(overlap).unwrap();
            let cache = fresh_cache(&sink);
            let mut id = 0u64;
            let (cached, _) = run_arm(&sink, &queries, Some(&cache), &mut id).unwrap();
            let (cold, _) = run_arm(&sink, &queries, None, &mut id).unwrap();
            assert_eq!(cached, cold, "overlap {overlap}: cache is transparent");
        }
    }

    #[test]
    fn cache_telemetry_reaches_the_sink() {
        let sink = TelemetrySink::recording();
        run_e19_with(&sink).unwrap();
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter("cache.hits") > 0, "exact hits counted");
        assert!(
            snap.counter("cache.containment_hits") > 0,
            "containment hits counted"
        );
        assert!(snap.counter("cache.misses") > 0, "misses counted");
        assert!(snap.counter("cache.insertions") > 0, "admissions counted");
        assert!(snap.event_count("cache.hit") > 0, "per-query hit events");
    }
}
