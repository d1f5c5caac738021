//! E5 — distributed kNN: coordinator–cohort vs MapReduce (\[33\]).
//!
//! Shape target: the cohort operator's advantage grows with data size
//! toward the paper's "three orders of magnitude"; its cost scales with
//! k, not with n.

use sea_common::{Point, Result};
use sea_operators::{mapreduce_knn, DistributedKnnIndex};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// Runs E5. Columns: records, k, time factor, disk-bytes factor.
pub fn run_e5_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E5",
        "kNN: coordinator-cohort vs MapReduce",
        &["records", "k", "time_factor", "bytes_factor"],
    );
    let mut qid = 0u64;
    for &n in &[50_000usize, 200_000, 500_000] {
        let mut cluster = uniform_cluster(n, 8, 2)?;
        cluster.set_telemetry(sink.clone());
        let exec = Executor::new(&cluster);
        let build_span = sink.span("bench.e5.index_build");
        let index = DistributedKnnIndex::build(&exec, "t")?;
        drop(build_span);
        for &k in &[1usize, 10, 50] {
            let q = Point::new(vec![42.0, 37.0]);
            let span = query_span(sink, qid);
            qid += 1;
            let mr = mapreduce_knn(&exec, "t", &q, k)?;
            let cc = index.query(&q, k)?;
            span.record_sim_us(mr.cost.wall_us + cc.cost.wall_us);
            drop(span);
            observe_query_us(sink, cc.cost.wall_us);
            report.push_row(vec![
                n as f64,
                k as f64,
                mr.cost.wall_us / cc.cost.wall_us.max(1e-9),
                mr.cost.totals.disk_bytes as f64 / (cc.cost.totals.disk_bytes.max(1)) as f64,
            ]);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advantage_grows_with_n() {
        let r = run_e5_with(&TelemetrySink::noop()).unwrap();
        // Compare k=10 rows across sizes.
        let rows: Vec<(f64, f64)> = r
            .rows
            .iter()
            .filter(|row| row[1] == 10.0)
            .map(|row| (row[0], row[2]))
            .collect();
        assert!(rows.len() == 3);
        assert!(rows[2].1 > rows[0].1, "factor grows with n: {rows:?}");
        assert!(rows[2].1 > 100.0, "large-n factor: {rows:?}");
    }
}
