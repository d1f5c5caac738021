//! E9 — execution-strategy crossovers and the learned selector (RT3).
//!
//! Shape target: index-fetch wins narrow selections, scan-aggregate wins
//! wide ones, the crossover sits at a selectivity between them, and the
//! trained selector's total cost is close to the per-query oracle.

use sea_common::{AggregateKind, AnalyticalQuery, Point, Record, Rect, Region, Result};
use sea_operators::{ExecutionEngines, LearnedOptimizer, QueryStrategy};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{observe_query_us, query_span};
use crate::Report;

fn cluster() -> Result<StorageCluster> {
    let mut c = StorageCluster::new(4, 512);
    let records: Vec<Record> = (0..80_000)
        .map(|i| Record::new(i, vec![(i / 800) as f64, (i % 800) as f64 / 2.0]))
        .collect();
    c.load_table(
        "t",
        records,
        Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(0.0, 100.0, 4),
        },
    )?;
    Ok(c)
}

fn query(e: f64) -> Result<AnalyticalQuery> {
    Ok(AnalyticalQuery::new(
        Region::Range(Rect::centered(
            &Point::new(vec![50.0, 200.0]),
            &[e, 4.0 * e],
        )?),
        AggregateKind::Count,
    ))
}

/// Runs E9. Columns: query extent, estimated selectivity, scan µs,
/// index-fetch µs, oracle choice (0 = scan, 1 = index), learned choice.
pub fn run_e9_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E9",
        "strategy crossover and learned selection",
        &[
            "extent",
            "selectivity",
            "scan_us",
            "index_us",
            "oracle",
            "learned",
        ],
    );
    let mut c = cluster()?;
    c.set_telemetry(sink.clone());
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 400.0])?;
    let exec = Executor::new(&c);
    let engines = ExecutionEngines::build(&exec, "t", domain, 100)?;

    let train_span = sink.span("bench.e9.optimizer_train");
    let mut opt = LearnedOptimizer::new(&exec, "t", 32)?;
    for i in 0..30 {
        let e = 0.3 + i as f64 * 1.6;
        opt.train(&engines, &query(e)?, &exec)?;
    }
    drop(train_span);

    for (qid, &e) in [0.3, 1.0, 3.0, 8.0, 20.0, 45.0].iter().enumerate() {
        let q = query(e)?;
        let span = query_span(sink, qid as u64);
        let scan = engines.execute(QueryStrategy::ScanAggregate, &q, &exec)?;
        let index = engines.execute(QueryStrategy::IndexFetch, &q, &exec)?;
        let oracle = if scan.cost.wall_us <= index.cost.wall_us {
            0.0
        } else {
            1.0
        };
        let learned = match opt.choose(&q)? {
            QueryStrategy::ScanAggregate => 0.0,
            QueryStrategy::IndexFetch => 1.0,
        };
        span.record_sim_us(scan.cost.wall_us + index.cost.wall_us);
        drop(span);
        observe_query_us(sink, scan.cost.wall_us.min(index.cost.wall_us));
        report.push_row(vec![
            e,
            opt.estimate_selectivity(&q),
            scan.cost.wall_us,
            index.cost.wall_us,
            oracle,
            learned,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_and_agreement() {
        let r = run_e9_with(&TelemetrySink::noop()).unwrap();
        let oracle = r.column("oracle");
        assert!(
            oracle.contains(&0.0) && oracle.contains(&1.0),
            "both strategies win somewhere: {oracle:?}"
        );
        // Oracle prefers the index at the narrowest extent and the scan at
        // the widest.
        assert_eq!(oracle[0], 1.0);
        assert_eq!(*oracle.last().unwrap(), 0.0);
        // The learned selector agrees with the oracle on most settings.
        let learned = r.column("learned");
        let agree = oracle.iter().zip(&learned).filter(|(a, b)| a == b).count();
        assert!(agree * 10 >= oracle.len() * 7, "{agree}/{}", oracle.len());
    }
}
