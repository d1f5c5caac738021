//! E13 — scalable missing-value imputation (\[36\]).
//!
//! Shape target: the grid-partitioned imputer matches the full-scan
//! baseline's accuracy while examining a small fraction of the candidates
//! and finishing far faster, with the gap widening as data grows.

use sea_common::{Record, Rect, Result};
use sea_operators::{fullscan_impute, GridImputer};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{observe_query_us, query_span};
use crate::Report;

fn cluster(n: u64) -> Result<StorageCluster> {
    let mut c = StorageCluster::new(8, 512);
    let per_x = (n / 100).max(1);
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let x = (i / per_x) as f64;
            Record::new(i, vec![x, 2.0 * x + 5.0, 100.0 - x])
        })
        .collect();
    c.load_table(
        "t",
        records,
        Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(0.0, 100.0, 8),
        },
    )?;
    Ok(c)
}

fn probes() -> Vec<Record> {
    (0..25)
        .map(|i| {
            let x = 2.0 + (i * 4) as f64;
            Record::new(900_000 + i as u64, vec![x, f64::NAN, 100.0 - x])
        })
        .collect()
}

/// Runs E13. Columns: table size, full-scan vs grid time factor,
/// candidates factor, and each method's RMSE against ground truth.
pub fn run_e13_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E13",
        "missing-value imputation: grid-partitioned vs full scan",
        &[
            "records",
            "time_factor",
            "candidates_factor",
            "full_rmse",
            "grid_rmse",
        ],
    );
    let domain = Rect::new(vec![0.0, 0.0, 0.0], vec![100.0, 205.0, 100.0])?;
    for (qid, &n) in [20_000u64, 100_000, 400_000].iter().enumerate() {
        let mut c = cluster(n)?;
        c.set_telemetry(sink.clone());
        let exec = Executor::new(&c);
        let probes = probes();
        let span = query_span(sink, qid as u64);
        let full = fullscan_impute(&exec, "t", &probes, 5)?;
        let imputer = GridImputer::new(domain.clone(), 50)?;
        let grid = imputer.impute(&exec, "t", &probes, 5)?;
        span.record_sim_us(full.cost.wall_us + grid.cost.wall_us);
        drop(span);
        observe_query_us(sink, grid.cost.wall_us);

        let rmse = |imputed: &[Record]| -> f64 {
            let mut sum = 0.0;
            for (probe, rec) in probes.iter().zip(imputed) {
                let truth = 2.0 * probe.value(0) + 5.0;
                sum += (rec.value(1) - truth).powi(2);
            }
            (sum / probes.len() as f64).sqrt()
        };
        report.push_row(vec![
            n as f64,
            full.cost.wall_us / grid.cost.wall_us.max(1e-9),
            full.candidates_examined as f64 / grid.candidates_examined.max(1) as f64,
            rmse(&full.imputed),
            rmse(&grid.imputed),
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_faster_and_as_accurate() {
        let r = run_e13_with(&TelemetrySink::noop()).unwrap();
        let time = r.column("time_factor");
        assert!(time.last().unwrap() > &time[0], "gap widens: {time:?}");
        assert!(time.last().unwrap() > &3.0, "{time:?}");
        for row in &r.rows {
            let (full_rmse, grid_rmse) = (row[3], row[4]);
            assert!(grid_rmse <= full_rmse + 0.5, "accuracy holds: {row:?}");
            assert!(grid_rmse < 1.0, "near-exact recovery: {row:?}");
        }
    }
}
