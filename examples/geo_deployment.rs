//! The Fig-3 scenario: a geo-distributed deployment where edge agents
//! filter analytical queries away from the WAN, and the core's master
//! model bootstraps freshly joined edges.
//!
//! ```text
//! cargo run -p sea-bench --release --example geo_deployment
//! ```

use sea_common::{AggregateKind, AnalyticalQuery, Point, Rect, Region};
use sea_geo::{GeoConfig, GeoSource, GeoSystem};
use sea_storage::{Partitioning, StorageCluster};
use sea_workload::{DataGenerator, DataSpec};

fn query(cx: f64, e: f64) -> sea_common::Result<AnalyticalQuery> {
    Ok(AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![cx, 50.0]), &[e, e])?),
        AggregateKind::Count,
    ))
}

fn main() -> sea_common::Result<()> {
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])?;
    let data = DataGenerator::new(DataSpec::Uniform { domain }, 7).generate(150_000)?;
    let mut cluster = StorageCluster::new(8, 512);
    cluster.load_table("events", data, Partitioning::Hash)?;

    // Deployment: 3 edge sites, 15% error budget.
    let mut geo = GeoSystem::new(
        &cluster,
        "events",
        GeoConfig {
            edges: 3,
            error_threshold: 0.15,
        },
    )?;

    // Phase 1: analysts at edge 0 issue 250 queries on their hotspot.
    for i in 0..250 {
        let e = 4.0 + (i % 18) as f64 * 0.5;
        geo.submit(0, &query(50.0, e)?)?;
    }
    let s = geo.stats().clone();
    println!(
        "edge 0 after 250 queries: {:.0}% answered locally, {:.1} KB over the WAN, \
         mean response {:.1} ms",
        100.0 * (1.0 - s.fallback_rate()),
        s.wan_bytes as f64 / 1e3,
        s.mean_response_us() / 1e3
    );

    // Baseline for the same workload: everything to the core.
    let mut baseline = GeoSystem::new(&cluster, "events", GeoConfig::default())?;
    for i in 0..250 {
        let e = 4.0 + (i % 18) as f64 * 0.5;
        baseline.submit_all_to_core(&query(50.0, e)?)?;
    }
    println!(
        "all-to-core baseline: {:.1} KB WAN, mean response {:.1} ms",
        baseline.stats().wan_bytes as f64 / 1e3,
        baseline.stats().mean_response_us() / 1e3
    );

    // Phase 2: a new edge joins. Shipping the core's master model lets it
    // answer locally from its first query (distributed model building).
    geo.reset_stats();
    let shipped = geo.sync_edge(2)?;
    let mut local = 0;
    for i in 0..50 {
        let e = 4.0 + (i % 18) as f64 * 0.5;
        if geo.submit(2, &query(50.0, e)?)?.source == GeoSource::EdgeModel {
            local += 1;
        }
    }
    println!(
        "fresh edge 2: synced {} model bytes from the core, then answered {local}/50 \
         queries locally",
        shipped
    );
    Ok(())
}
