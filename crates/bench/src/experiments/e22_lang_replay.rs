//! E22 — declarative workload replay: `sea-lang` statements reproduce
//! hand-built queries bit-identically.
//!
//! Replays `data/e22_replay.sea` (one statement per line) through the
//! [`sea_lang::Frontend`] against the E2 cluster, then executes
//! hand-constructed [`AnalyticalQuery`] equivalents of every statement
//! through the same [`Executor`] entry point, `execute_batch` (a
//! statement of one aggregate is a lone query). The
//! declarative surface must add zero semantics: every answer and every
//! simulated cost must match the hand-built path bit-for-bit, at any
//! `SEA_EXEC_THREADS` setting (pinned across pool sizes by
//! `tests/lang_determinism.rs`).

use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, Ball, Point, Rect, Region, Result};
use sea_lang::{Frontend, TableSchema};
use sea_query::{ExecPool, Executor};
use sea_telemetry::TelemetrySink;

use crate::experiments::common::{observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// The checked-in replay workload (embedded so the experiment has no
/// runtime file dependency).
pub const E22_REPLAY: &str = include_str!("../../data/e22_replay.sea");

/// The replay statements: one per non-blank, non-comment line.
pub fn e22_statements() -> Vec<&'static str> {
    E22_REPLAY
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("--"))
        .collect()
}

/// Hand-built equivalents of every replay statement, in file order.
/// These are written out long-hand on purpose: the experiment's claim is
/// that the declarative file above and this Rust below are the same
/// workload. Unconstrained dimensions use `domain`, mirroring the
/// planner's documented default.
fn hand_built(domain: &Rect) -> Result<Vec<Vec<AnalyticalQuery>>> {
    let (dlo, dhi) = (domain.lo().to_vec(), domain.hi().to_vec());
    let boxed = |lo: [f64; 2], hi: [f64; 2]| -> Result<Region> {
        Ok(Region::Range(Rect::new(lo.to_vec(), hi.to_vec())?))
    };
    // d0 constrained, d1 spanning the domain (and vice versa).
    let d0_only = |lo: f64, hi: f64| -> Result<Region> {
        Ok(Region::Range(Rect::new(
            vec![lo, dlo[1]],
            vec![hi, dhi[1]],
        )?))
    };
    let d1_only = |lo: f64, hi: f64| -> Result<Region> {
        Ok(Region::Range(Rect::new(
            vec![dlo[0], lo],
            vec![dhi[0], hi],
        )?))
    };
    let ball = |c: [f64; 2], r: f64| -> Result<Region> {
        Ok(Region::Radius(Ball::new(Point::new(c.to_vec()), r)?))
    };
    let q = |region: &Region, kind: AggregateKind| AnalyticalQuery::new(region.clone(), kind);

    let mut stmts = Vec::new();
    let r = boxed([40.0, 40.0], [60.0, 60.0])?;
    stmts.push(vec![q(&r, AggregateKind::Count)]);
    let r = boxed([10.0, 20.0], [30.0, 50.0])?;
    stmts.push(vec![
        q(&r, AggregateKind::Count),
        q(&r, AggregateKind::Mean { dim: 0 }),
    ]);
    let r = d0_only(0.0, 25.0)?;
    stmts.push(vec![
        q(&r, AggregateKind::Sum { dim: 1 }),
        q(&r, AggregateKind::Min { dim: 0 }),
        q(&r, AggregateKind::Max { dim: 0 }),
    ]);
    let r = d1_only(60.0, 90.0)?;
    stmts.push(vec![
        q(&r, AggregateKind::Mean { dim: 1 }),
        q(&r, AggregateKind::Quantile { dim: 1, q: 0.95 }),
    ]);
    let r = boxed([25.0, 25.0], [75.0, 75.0])?;
    stmts.push(vec![q(&r, AggregateKind::Median { dim: 0 })]);
    let r = ball([50.0, 50.0], 10.0)?;
    stmts.push(vec![q(&r, AggregateKind::Count)]);
    let r = ball([30.0, 70.0], 15.0)?;
    stmts.push(vec![
        q(&r, AggregateKind::Mean { dim: 0 }),
        q(&r, AggregateKind::Variance { dim: 1 }),
    ]);
    let r = d0_only(0.0, 50.0)?;
    stmts.push(vec![q(&r, AggregateKind::Correlation { x: 0, y: 1 })]);
    let r = d1_only(0.0, 50.0)?;
    stmts.push(vec![q(&r, AggregateKind::Regression { x: 0, y: 1 })]);
    let r = Region::Range(domain.clone());
    stmts.push(vec![
        q(&r, AggregateKind::Count),
        q(&r, AggregateKind::Mean { dim: 0 }),
    ]);
    Ok(stmts)
}

fn bits_eq(a: &AnswerValue, b: &AnswerValue) -> bool {
    match (a, b) {
        (AnswerValue::Scalar(x), AnswerValue::Scalar(y)) => x.to_bits() == y.to_bits(),
        (AnswerValue::Pair(x0, x1), AnswerValue::Pair(y0, y1)) => {
            x0.to_bits() == y0.to_bits() && x1.to_bits() == y1.to_bits()
        }
        _ => false,
    }
}

/// Runs E22 on the process-global pool.
pub fn run_e22_with(sink: &TelemetrySink) -> Result<Report> {
    run_e22_with_pool(sink, None)
}

/// Runs E22. Columns: statement index (file order), aggregates in the
/// statement, first aggregate's answer, declarative path's summed
/// simulated wall microseconds, and whether every answer **and** cost
/// matched the hand-built path bit-for-bit (1.0 = yes).
///
/// Also bumps the `lang.statements` counter per replayed statement and
/// `lang.mismatch` per statement that diverged (a healthy run leaves it
/// at zero — perfbaseline tracks both as non-gated trends).
///
/// # Errors
///
/// Parse, planning, or execution errors.
pub fn run_e22_with_pool(sink: &TelemetrySink, pool: Option<ExecPool>) -> Result<Report> {
    let mut report = Report::new(
        "E22",
        "declarative replay vs hand-built queries",
        &["stmt", "aggs", "answer0", "sim_wall_us", "bit_identical"],
    );
    let mut cluster = uniform_cluster(100_000, 8, 3)?;
    cluster.set_telemetry(sink.clone());
    let mut exec = Executor::new(&cluster);
    if let Some(pool) = pool {
        exec = exec.with_pool(pool);
    }
    let schema = TableSchema::infer(&cluster, "t")?;
    let mut front = Frontend::new(exec.clone(), "t")?;
    let hand = hand_built(schema.domain())?;
    let statements = e22_statements();
    assert_eq!(
        statements.len(),
        hand.len(),
        "replay file and hand-built workload drifted apart"
    );

    for (idx, (stmt, hand_queries)) in statements.iter().zip(&hand).enumerate() {
        sink.incr("lang.statements", 1);
        let out = front.run(stmt)?;

        // The hand-built path mirrors the front end's execution shape:
        // multi-aggregate statements share one batched superset scan.
        let hand_out: Vec<_> = exec
            .execute_batch("t", hand_queries)
            .into_iter()
            .collect::<Result<_>>()?;

        let mut identical = out.results.len() == hand_out.len();
        let mut sim_us = 0.0;
        for (r, h) in out.results.iter().zip(&hand_out) {
            identical &= bits_eq(&r.answer, &h.answer)
                && r.cost.wall_us.to_bits() == h.cost.wall_us.to_bits()
                && r.cost.money.to_bits() == h.cost.money.to_bits();
            sim_us += r.cost.wall_us;
        }
        if !identical {
            sink.incr("lang.mismatch", 1);
        }
        let span = query_span(sink, idx as u64);
        span.record_sim_us(sim_us);
        observe_query_us(sink, sim_us);
        let answer0 = match out.results[0].answer {
            AnswerValue::Scalar(v) => v,
            AnswerValue::Pair(a, _) => a,
        };
        report.push_row(vec![
            idx as f64,
            out.results.len() as f64,
            answer0,
            sim_us,
            f64::from(u8::from(identical)),
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_statement_is_bit_identical() {
        let r = run_e22_with(&TelemetrySink::noop()).unwrap();
        assert_eq!(r.rows.len(), e22_statements().len());
        for row in &r.rows {
            assert_eq!(row[4], 1.0, "statement {} diverged from hand-built", row[0]);
        }
    }

    #[test]
    fn mismatch_counter_stays_zero() {
        let sink = TelemetrySink::recording();
        run_e22_with(&sink).unwrap();
        let snap = sink.snapshot().unwrap();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert_eq!(get("lang.statements"), e22_statements().len() as u64);
        assert_eq!(get("lang.mismatch"), 0);
    }
}
