//! A1 — ablations of the agent's design choices (DESIGN.md: audits,
//! distance penalty, forgetting under drift, quantizer granularity).
//!
//! Each ablation removes one mechanism and measures what breaks, so the
//! mechanism's contribution is attributable rather than assumed.

use sea_common::{AggregateKind, AnalyticalQuery, Point, Rect, Region, Result};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_query::Executor;
use sea_telemetry::TelemetrySink;
use sea_workload::{DriftKind, DriftingWorkload, QueryGenerator, QuerySpec};

use crate::Report;
use sea_storage::{Partitioning, StorageCluster};
use sea_workload::{DataGenerator, DataSpec, GaussianComponent};

fn query(cx: f64, e: f64) -> AnalyticalQuery {
    AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![cx, 50.0]), &[e, e]).unwrap()),
        AggregateKind::Count,
    )
}

/// Runs A1, feeding spans and per-variant counters into `sink`. Rows
/// are (variant, tail relative error, exact fraction):
///
/// * 0 — full agent (audits on, distance penalty on, forgetting on)
/// * 1 — no audits (`refresh_every = 0`)
/// * 2 — no distance penalty (`distance_penalty = 0`)
/// * 3 — no forgetting (`forget = 1.0`) under a drifting answer function
/// * 4 — coarse quantizer (one giant quantum)
pub fn run_a1_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "A1",
        "agent ablations under a drifting workload",
        &["variant", "tail_rel_err", "exact_fraction"],
    );
    // Two blobs of very different local density: a single global linear
    // model cannot fit both, so quantization (local models) matters.
    let comps = vec![
        GaussianComponent::new(vec![30.0, 50.0], vec![6.0, 6.0], 1.0)?,
        GaussianComponent::new(vec![70.0, 50.0], vec![18.0, 18.0], 1.0)?,
    ];
    let data = DataGenerator::new(DataSpec::GaussianMixture { components: comps }, 77)
        .generate(100_000)?;
    let mut cluster = StorageCluster::new(8, 512);
    cluster.load_table("t", data, Partitioning::Hash)?;
    cluster.set_telemetry(sink.clone());
    let exec = Executor::new(&cluster);

    let variants: Vec<(u64, AgentConfig)> = vec![
        (
            16,
            AgentConfig {
                forget: 0.995,
                ..AgentConfig::default()
            },
        ),
        (
            0,
            AgentConfig {
                forget: 0.995,
                ..AgentConfig::default()
            },
        ),
        (
            16,
            AgentConfig {
                forget: 0.995,
                distance_penalty: 0.0,
                ..AgentConfig::default()
            },
        ),
        (
            16,
            AgentConfig {
                forget: 1.0,
                ..AgentConfig::default()
            },
        ),
        (
            16,
            AgentConfig {
                forget: 0.995,
                spawn_distance: 1e9,
                ..AgentConfig::default()
            },
        ),
    ];

    for (variant, (refresh, config)) in variants.into_iter().enumerate() {
        let variant_span = sink.span("bench.a1.variant");
        variant_span.tag("variant", variant);
        let mut pipe = AgentPipeline::new(2, config, "t", 0.15, ExecMode::Direct)?
            .with_refresh_every(refresh)
            .with_telemetry(sink.clone());
        // A drifting hotspot: centre jumps from (30, 50) to (70, 50) at
        // query 200 (drift via the workload, not via data).
        let spec = QuerySpec::simple_count(vec![30.0, 50.0], 2.0, (4.0, 12.0))?;
        let gen = QueryGenerator::new(spec, 81)?;
        let mut workload = DriftingWorkload::new(
            gen,
            DriftKind::Jump {
                at_step: 200,
                offset: vec![40.0, 0.0],
            },
        );
        let mut tail_err = 0.0;
        let mut tail_exact = 0.0;
        let mut tail_n = 0usize;
        for step in 0..400 {
            let q = workload.next_query()?;
            let Ok(truth) = exec.execute_direct("t", &q) else {
                continue;
            };
            let out = pipe.process(&exec, &q)?;
            if step >= 300 {
                tail_err += out.answer.relative_error(&truth.answer);
                if matches!(out.source, sea_core::AnswerSource::Exact) {
                    tail_exact += 1.0;
                }
                tail_n += 1;
            }
        }
        let _ = query(30.0, 5.0);
        report.push_row(vec![
            variant as f64,
            tail_err / tail_n.max(1) as f64,
            tail_exact / tail_n.max(1) as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mechanism_earns_its_keep() {
        let r = run_a1_with(&TelemetrySink::noop()).unwrap();
        let full = r.value(0, "tail_rel_err").unwrap();
        assert!(full < 0.1, "full agent tracks the jump: {full}");
        // Removing audits must not *improve* the tail error.
        let no_audit = r.value(1, "tail_rel_err").unwrap();
        assert!(
            no_audit >= full * 0.5,
            "audits never hurt: {no_audit} vs {full}"
        );
        // The coarse quantizer (one giant quantum mixing both hotspots)
        // must be worse than the full agent on error or on exact cost.
        let coarse_err = r.value(4, "tail_rel_err").unwrap();
        let coarse_exact = r.value(4, "exact_fraction").unwrap();
        let full_exact = r.value(0, "exact_fraction").unwrap();
        assert!(
            coarse_err > full || coarse_exact > full_exact,
            "coarse quantization costs accuracy or exactness: err {coarse_err} vs {full}, \
             exact {coarse_exact} vs {full_exact}"
        );
    }
}
