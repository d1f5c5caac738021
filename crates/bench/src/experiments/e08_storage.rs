//! E8 — storage footprint: SEA models vs sampling AQP vs synopsis caches.
//!
//! The paper's §II critique: Data-Canopy-style caches "can grow
//! prohibitively large", BlinkDB-style "sample sizes can become
//! prohibitively large", DBL additionally stores query history. The
//! agent's models are bounded by quanta × pair-cap.

use sea_common::{AggregateKind, AnalyticalQuery, Rect, Region, Result};
use sea_core::{AgentConfig, SeaAgent};
use sea_operators::{DataCanopy, LearnedAqp, SamplingAqp};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{count_workload, observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// Runs E8. Columns: queries processed, then bytes held by the agent,
/// the stratified sample, the canopy cache, and the DBL-style layer.
pub fn run_e8_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E8",
        "storage footprint of each approach (bytes)",
        &["queries", "agent", "blinkdb_sample", "canopy", "dbl"],
    );
    let mut cluster = uniform_cluster(100_000, 8, 23)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])?;
    // BlinkDB-style sample sized to reach roughly the agent's accuracy on
    // this workload (32 strata × 64 records).
    let sample = SamplingAqp::build(&exec, "t", domain.clone(), 8, 64, 7)?;
    let mut dbl = LearnedAqp::new(SamplingAqp::build(&exec, "t", domain.clone(), 8, 64, 9)?, 5)?;
    let mut canopy = DataCanopy::new(&exec, "t", domain.clone(), 100)?;
    let mut agent = SeaAgent::new(2, AgentConfig::default())?;

    let mut gen = count_workload(4.0, 14.0, 41)?;
    let mut processed = 0usize;
    for checkpoint in [50usize, 200, 500] {
        while processed < checkpoint {
            let q = gen.next_query();
            let span = query_span(sink, processed as u64);
            processed += 1;
            if let Ok(exact) = exec.execute_direct("t", &q) {
                span.record_sim_us(exact.cost.wall_us);
                observe_query_us(sink, exact.cost.wall_us);
                agent.train(&q, &exact.answer)?;
                let _ = dbl.observe(&q, &exact.answer);
            }
            drop(span);
            // The canopy answers 1-D slab statistics; feed it the query's
            // dim-0 slab so its cache grows with the workload's footprint.
            let bbox = q.region.bounding_rect();
            let slab = AnalyticalQuery::new(
                Region::Range(Rect::new(
                    vec![bbox.lo()[0], 0.0],
                    vec![bbox.hi()[0], 100.0],
                )?),
                AggregateKind::Count,
            );
            let _ = canopy.query(&slab);
        }
        report.push_row(vec![
            processed as f64,
            agent.stats().memory_bytes as f64,
            sample.storage_bytes() as f64,
            canopy.storage_bytes() as f64,
            dbl.storage_bytes() as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_stays_smallest_and_bounded() {
        let r = run_e8_with(&TelemetrySink::noop()).unwrap();
        let last = r.rows.last().unwrap();
        let (agent, sample, dbl) = (last[1], last[2], last[4]);
        assert!(agent < sample, "agent {agent} vs sample {sample}");
        assert!(agent < dbl, "agent {agent} vs dbl {dbl}");
        // The agent's growth flattens once per-quantum pair caps bite:
        // going from 200 to 500 queries costs far less than 50 → 200 did.
        let g1 = r.value(1, "agent").unwrap() / r.value(0, "agent").unwrap();
        let g2 = r.value(2, "agent").unwrap() / r.value(1, "agent").unwrap();
        assert!(g2 < g1, "growth flattens: {g1} then {g2}");
    }
}
