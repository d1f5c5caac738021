//! E15 — multi-system (polystore) analytics (RT1-5).
//!
//! Shape target: migrating raw data between constituent systems moves
//! orders of magnitude more inter-system bytes than exchanging results,
//! and the agent-based alternative additionally eliminates local
//! base-data work on confident systems.

use sea_common::{AggregateKind, AnalyticalQuery, Point, Rect, Region, Result};
use sea_geo::{ConstituentSystem, Polystore};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;

use crate::Report;

fn make_cluster(shift: u64, n: u64) -> Result<StorageCluster> {
    let mut c = StorageCluster::new(4, 512);
    let records: Vec<sea_common::Record> = (0..n)
        .map(|i| {
            sea_common::Record::new(
                i,
                vec![
                    ((i + shift * 37) % 100) as f64,
                    ((i / 100 + shift * 13) % 80) as f64,
                ],
            )
        })
        .collect();
    c.load_table("t", records, Partitioning::Hash)?;
    Ok(c)
}

fn count_query(e: f64) -> Result<AnalyticalQuery> {
    Ok(AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![50.0, 40.0]), &[e, e])?),
        AggregateKind::Count,
    ))
}

/// Runs E15. Columns: strategy (0 = migrate data, 1 = exchange results,
/// 2 = exchange model answers), inter-system kilobytes, total simulated
/// ms, and the answer's relative error vs exact. All three constituent
/// clusters share `sink`, so the `geo.polystore.*` span trees cover every
/// system's local execution.
pub fn run_e15_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E15",
        "polystore: migrate data vs exchange results vs exchange models",
        &["strategy", "inter_system_kb", "total_ms", "rel_err"],
    );
    let mut c1 = make_cluster(0, 40_000)?;
    let mut c2 = make_cluster(1, 40_000)?;
    let mut c3 = make_cluster(2, 40_000)?;
    c1.set_telemetry(sink.clone());
    c2.set_telemetry(sink.clone());
    c3.set_telemetry(sink.clone());
    let systems = vec![
        ConstituentSystem::new(&Executor::new(&c1), "t")?,
        ConstituentSystem::new(&Executor::new(&c2), "t")?,
        ConstituentSystem::new(&Executor::new(&c3), "t")?,
    ];
    let mut store = Polystore::new(systems, 0.15)?;
    let training: Vec<AnalyticalQuery> = (0..120)
        .map(|i| count_query(6.0 + (i % 15) as f64 * 0.5))
        .collect::<Result<Vec<_>>>()?;
    store.train_agents(&training)?;

    // Probe across 15 fresh queries, averaging.
    let mut rows = [[0.0f64; 3]; 3];
    let probes = 15;
    for i in 0..probes {
        let q = count_query(6.2 + i as f64 * 0.5)?;
        sink.begin_query(i as u64);
        let exact = store.query_exchange_results(&q)?;
        let outcomes = [
            store.query_migrate_data(&q)?,
            store.query_exchange_results(&q)?,
            store.query_exchange_models(&q)?,
        ];
        for (row, out) in rows.iter_mut().zip(&outcomes) {
            row[0] += out.inter_system_bytes as f64 / 1e3;
            row[1] += out.cost.wall_us / 1e3;
            row[2] += out.answer.relative_error(&exact.answer);
        }
    }
    for (strategy, row) in rows.iter().enumerate() {
        report.push_row(vec![
            strategy as f64,
            row[0] / probes as f64,
            row[1] / probes as f64,
            row[2] / probes as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_migration_is_the_worst_and_models_are_cheapest() {
        let r = run_e15_with(&TelemetrySink::noop()).unwrap();
        let migrate_kb = r.value(0, "inter_system_kb").unwrap();
        let results_kb = r.value(1, "inter_system_kb").unwrap();
        assert!(
            migrate_kb > results_kb * 50.0,
            "raw migration moves bulk data: {migrate_kb} vs {results_kb}"
        );
        let results_ms = r.value(1, "total_ms").unwrap();
        let models_ms = r.value(2, "total_ms").unwrap();
        assert!(
            models_ms < results_ms,
            "model answers skip local execution: {models_ms} vs {results_ms}"
        );
        let rel = r.value(2, "rel_err").unwrap();
        assert!(rel < 0.1, "model answers stay accurate: {rel}");
    }
}
