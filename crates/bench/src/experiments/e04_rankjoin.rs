//! E4 — rank-join: surgical statistical-index access vs MapReduce (\[30\]).
//!
//! Shape target: the surgical operator wins by orders of magnitude in
//! bytes moved and money, and by a time factor that *grows with data
//! size* (the paper reports up to 6 orders of magnitude on real
//! deployments).

use sea_common::{AggregateKind, AnalyticalQuery, CostMeter, Rect, Region, Result};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_operators::{mapreduce_rank_join, surgical_rank_join, RankJoinOutcome, ScoreIndex};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{observe_query_us, query_span, rankjoin_cluster};
use crate::Report;

/// Agent-assisted planning phase: before committing to a join strategy,
/// the system answers COUNT cardinality probes over the left table with
/// the learned agent (falling back to exact scans while untrained).
/// This exercises the full predict-vs-exact decision path — it feeds
/// `agent.predicted` / `agent.fallback` events and deep span trees into
/// `sink` — and deliberately never touches the report rows, so E4's
/// result table is identical with or without a recording sink.
fn plan_cardinalities(sink: &TelemetrySink, qid: &mut u64) -> Result<()> {
    let mut cluster = rankjoin_cluster(10_000, 200, 8)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);
    let mut pipe = AgentPipeline::new(3, AgentConfig::default(), "l", 0.3, ExecMode::Direct)?
        .with_telemetry(sink.clone());
    for i in 0..40u64 {
        let e = 20.0 + (i % 8) as f64;
        let rect = Rect::new(vec![100.0 - e, 0.0, 0.0], vec![100.0 + e, 10_000.0, 3.0])?;
        let q = AnalyticalQuery::new(Region::Range(rect), AggregateKind::Count);
        let span = query_span(sink, *qid);
        *qid += 1;
        if let Ok(out) = pipe.process(&exec, &q) {
            span.record_sim_us(out.cost.wall_us);
            drop(span);
            observe_query_us(sink, out.cost.wall_us);
        }
    }
    Ok(())
}

/// Runs E4. Columns: tuples per table, time factor, bytes factor, money
/// factor, tuples retrieved by each side. Join-level spans, per-query
/// latency histograms, and planning-phase agent events flow into `sink`.
pub fn run_e4_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E4",
        "rank-join: surgical index vs MapReduce shuffle",
        &[
            "tuples",
            "time_factor",
            "bytes_factor",
            "money_factor",
            "surgical_tuples",
            "mapreduce_tuples",
        ],
    );
    let mut qid = 0u64;
    plan_cardinalities(sink, &mut qid)?;
    for &n in &[10_000u64, 50_000, 200_000] {
        let mut cluster = rankjoin_cluster(n, n / 50, 8)?;
        cluster.set_telemetry(sink.clone());
        let exec = Executor::new(&cluster);
        let span = query_span(sink, qid);
        qid += 1;
        let li = ScoreIndex::build(&exec, "l", &mut CostMeter::new())?;
        let ri = ScoreIndex::build(&exec, "r", &mut CostMeter::new())?;
        let surgical = surgical_rank_join(&li, &ri, 10, 256)?;
        let mr = mapreduce_rank_join(&exec, "l", "r", 10)?;
        span.record_sim_us(surgical.cost.wall_us + mr.cost.wall_us);
        drop(span);
        observe_query_us(sink, surgical.cost.wall_us);
        observe_query_us(sink, mr.cost.wall_us);
        let bytes =
            |o: &RankJoinOutcome| (o.cost.totals.disk_bytes + o.cost.totals.lan_bytes) as f64;
        report.push_row(vec![
            n as f64,
            mr.cost.wall_us / surgical.cost.wall_us,
            bytes(&mr) / bytes(&surgical),
            mr.cost.money / surgical.cost.money.max(1e-12),
            surgical.tuples_retrieved as f64,
            mr.tuples_retrieved as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_grow_with_data_size() {
        let r = run_e4_with(&TelemetrySink::noop()).unwrap();
        let time = r.column("time_factor");
        let bytes = r.column("bytes_factor");
        assert!(
            time.last().unwrap() > &time[0],
            "time advantage widens: {time:?}"
        );
        assert!(time.last().unwrap() > &5.0, "{time:?}");
        assert!(bytes.last().unwrap() > &10.0, "{bytes:?}");
    }
}
