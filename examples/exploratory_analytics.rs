//! The "Penny" scenario of §III-A: an analyst explores a multi-dimensional
//! data space with range selections and dependence statistics, gets
//! *explanations* with her answers, and asks a higher-level interrogation
//! — "where is the correlation above a threshold?" — answered entirely
//! from models.
//!
//! ```text
//! cargo run -p sea-bench --release --example exploratory_analytics
//! ```

use sea_common::{AggregateKind, AnalyticalQuery, Point, Record, Rect, Region};
use sea_core::{interesting_subspaces, AgentConfig, Explanation, SeaAgent};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};

fn main() -> sea_common::Result<()> {
    // A dataset whose attr0↔attr1 correlation is strong only in one
    // region: y = 2x + noise for x < 40, pure noise elsewhere.
    let records: Vec<Record> = (0u64..120_000)
        .map(|i| {
            let x = (i % 1000) as f64 / 10.0;
            let jitter = ((i.wrapping_mul(2654435761)) % 1000) as f64 / 100.0 - 5.0;
            let y = if x < 40.0 {
                2.0 * x + jitter
            } else {
                50.0 + jitter * 10.0
            };
            Record::new(i, vec![x, y])
        })
        .collect();
    let mut cluster = StorageCluster::new(8, 512);
    cluster.load_table("survey", records, Partitioning::Hash)?;
    let exec = Executor::new(&cluster);

    // Penny explores: correlation queries across the x-range train the
    // agent's correlation pool. A small spawn distance gives each explored
    // location its own quantum, so the models specialize.
    let mut agent = SeaAgent::new(
        2,
        AgentConfig {
            spawn_distance: 8.0,
            // Penalize extrapolation hard: interrogation sweeps probe far
            // from the trained prototypes, and those guesses must be
            // flagged, not reported.
            distance_penalty: 0.3,
            ..AgentConfig::default()
        },
    )?;
    for i in 0..400 {
        let cx = 5.0 + (i % 19) as f64 * 5.0;
        let cy = if cx < 40.0 { 2.0 * cx } else { 50.0 };
        let q = AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![cx, cy]), &[5.0, 30.0])?),
            AggregateKind::Correlation { x: 0, y: 1 },
        );
        if let Ok(exact) = exec.execute_direct("survey", &q) {
            agent.train(&q, &exact.answer)?;
        }
    }
    println!(
        "agent state: {} pools, {} quanta, {} training queries",
        agent.stats().pools,
        agent.stats().quanta,
        agent.stats().training_queries
    );

    // Higher-level interrogation: "return the subspaces where the
    // correlation coefficient exceeds 0.8" — zero base-data accesses.
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 120.0])?;
    let hits = interesting_subspaces(
        &agent,
        &domain,
        10,
        &[5.0, 30.0], // probe with the same selection geometry Penny used
        AggregateKind::Correlation { x: 0, y: 1 },
        0.8,
        0.45, // only confidently-known subspaces
    )?;
    println!("subspaces with predicted correlation > 0.8:");
    for h in hits.iter().take(8) {
        let c = h.region.center();
        println!(
            "  centre ({:5.1}, {:5.1})  predicted r = {:.3} (est err {:.3})",
            c.coord(0),
            c.coord(1),
            h.predicted,
            h.estimated_error
        );
    }

    // Explanations: how does the count in a subspace depend on its size?
    let mut count_agent = SeaAgent::new(2, AgentConfig::default())?;
    for i in 0..200 {
        let e = 3.0 + (i % 20) as f64 * 0.5;
        let q = AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![20.0, 40.0]), &[e, e])?),
            AggregateKind::Count,
        );
        if let Ok(exact) = exec.execute_direct("survey", &q) {
            count_agent.train(&q, &exact.answer)?;
        }
    }
    let anchor = AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![20.0, 40.0]), &[6.0, 6.0])?),
        AggregateKind::Count,
    );
    let explanation = Explanation::for_query(&count_agent, &anchor)?;
    println!(
        "explanation (support {} answers): count grows by ≈{:.1} per unit of volume",
        explanation.support,
        explanation.volume_slope_at(144.0)
    );
    println!("  plugging in volumes without issuing queries:");
    for vol in [64.0, 144.0, 256.0] {
        println!(
            "    volume {vol:6.0} → predicted count {:8.1}",
            explanation.answer_at_volume(vol)
        );
    }
    Ok(())
}
