//! E11 — model maintenance under query-interest drift and data updates
//! (RT1-4).
//!
//! Shape target: after an abrupt interest jump, a maintained agent
//! (audits + purging) recovers low error; after base-data updates, the
//! region invalidation restores accuracy where a stale model would keep
//! mispredicting.

use sea_common::{AggregateKind, Record, Rect, Result};
use sea_core::{AgentConfig, AgentPipeline, AnswerSource, ExecMode};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;
use sea_workload::{DriftKind, DriftingWorkload, QueryGenerator, QuerySpec};

use crate::experiments::common::{observe_query_us, query_span, uniform_cluster};
use crate::Report;

/// Runs E11. Columns: stream phase (0 = before jump, 1 = right after
/// jump, 2 = recovered; 3 = after data update w/ invalidation, 4 = after
/// data update w/o invalidation), mean relative error in that phase.
pub fn run_e11_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E11",
        "maintenance under interest drift and data updates",
        &["phase", "rel_err", "exact_fraction"],
    );
    let mut cluster = uniform_cluster(100_000, 8, 43)?;
    cluster.set_telemetry(sink.clone());

    // --- Interest drift: hotspot jumps from (30,30) to (70,70) at query 250.
    {
        let exec = Executor::new(&cluster);
        let spec = QuerySpec::simple_count(vec![30.0, 30.0], 3.0, (5.0, 14.0))?;
        let gen = QueryGenerator::new(spec, 71)?;
        let mut workload = DriftingWorkload::new(
            gen,
            DriftKind::Jump {
                at_step: 250,
                offset: vec![40.0, 40.0],
            },
        );
        let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)?
            .with_refresh_every(16)
            .with_telemetry(sink.clone());
        let mut phase_err = [0.0f64; 3];
        let mut phase_exact = [0.0f64; 3];
        let mut phase_n = [0usize; 3];
        for step in 0..500 {
            let q = workload.next_query()?;
            let Ok(exact) = exec.execute_direct("t", &q) else {
                continue;
            };
            let span = query_span(sink, step);
            let out = pipe.process(&exec, &q)?;
            span.record_sim_us(out.cost.wall_us);
            drop(span);
            observe_query_us(sink, out.cost.wall_us);
            let phase = if step < 250 {
                0
            } else if step < 300 {
                1
            } else {
                2
            };
            phase_err[phase] += out.answer.relative_error(&exact.answer);
            if out.source == AnswerSource::Exact {
                phase_exact[phase] += 1.0;
            }
            phase_n[phase] += 1;
        }
        for p in 0..3 {
            report.push_row(vec![
                p as f64,
                phase_err[p] / phase_n[p].max(1) as f64,
                phase_exact[p] / phase_n[p].max(1) as f64,
            ]);
        }
    }

    // --- Data updates: densify the hotspot region, then compare a pipeline
    // that invalidates against one that keeps stale models.
    {
        let spec = QuerySpec::simple_count(vec![50.0, 50.0], 3.0, (5.0, 14.0))?;
        let train =
            |pipe: &mut AgentPipeline, cluster: &sea_storage::StorageCluster| -> Result<()> {
                let exec = Executor::new(cluster);
                let mut gen = QueryGenerator::new(spec.clone(), 73)?;
                for _ in 0..200 {
                    let q = gen.next_query();
                    let _ = pipe.process(&exec, &q);
                }
                Ok(())
            };
        let mut maintained =
            AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)?
                .with_refresh_every(0);
        let mut stale = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)?
            .with_refresh_every(0);
        train(&mut maintained, &cluster)?;
        train(&mut stale, &cluster)?;

        // Double the density around the hotspot.
        let update_region = Rect::new(vec![35.0, 35.0], vec![65.0, 65.0])?;
        let extra: Vec<Record> = (0..30_000)
            .map(|i| {
                let x = 35.0 + (i % 300) as f64 * 0.1;
                let y = 35.0 + (i / 300) as f64 * 0.3;
                Record::new(1_000_000 + i, vec![x, y])
            })
            .collect();
        cluster.insert("t", extra)?;
        maintained.agent_mut().invalidate_region(&update_region)?;
        // `stale` keeps its old models.

        let exec = Executor::new(&cluster);
        let mut probe = QueryGenerator::new(spec, 79)?;
        let mut err = [0.0f64; 2];
        let mut n = 0usize;
        for _ in 0..60 {
            let q = probe.next_query();
            let Ok(exact) = exec.execute_direct("t", &q) else {
                continue;
            };
            debug_assert!(matches!(q.aggregate, AggregateKind::Count));
            let m = maintained.process(&exec, &q)?;
            let s = stale.process(&exec, &q)?;
            err[0] += m.answer.relative_error(&exact.answer);
            err[1] += s.answer.relative_error(&exact.answer);
            n += 1;
        }
        report.push_row(vec![3.0, err[0] / n as f64, f64::NAN]);
        report.push_row(vec![4.0, err[1] / n as f64, f64::NAN]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_recovers_and_invalidation_beats_stale() {
        let r = run_e11_with(&TelemetrySink::noop()).unwrap();
        let before = r.value(0, "rel_err").unwrap();
        let recovered = r.value(2, "rel_err").unwrap();
        assert!(
            recovered < before * 3.0,
            "error recovers after the jump: before {before}, recovered {recovered}"
        );
        // Right after the jump the pipeline escalates to exact execution,
        // so answers stay correct at the price of exact fraction.
        let jump_exact = r.value(1, "exact_fraction").unwrap();
        let before_exact = r.value(0, "exact_fraction").unwrap();
        assert!(jump_exact > before_exact, "{jump_exact} vs {before_exact}");

        let maintained = r.value(3, "rel_err").unwrap();
        let stale = r.value(4, "rel_err").unwrap();
        assert!(
            maintained < stale,
            "invalidation helps: maintained {maintained} vs stale {stale}"
        );
    }
}
