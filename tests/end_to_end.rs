//! End-to-end integration: generated data → simulated cluster → exact
//! engines → trained agent → comparisons against every baseline — the
//! whole Fig-2 loop spanning all workspace crates.

use sea_common::{AggregateKind, Rect};
use sea_core::{AgentConfig, AgentPipeline, AnswerSource, ExecMode};
use sea_operators::{LearnedAqp, SamplingAqp};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};
use sea_workload::{DataGenerator, DataSpec, QueryGenerator, QuerySpec};

fn setup() -> (StorageCluster, QueryGenerator) {
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
    let data = DataGenerator::new(DataSpec::Uniform { domain }, 99)
        .generate(120_000)
        .unwrap();
    let mut cluster = StorageCluster::new(8, 512);
    cluster.load_table("t", data, Partitioning::Hash).unwrap();
    let spec = QuerySpec::simple_count(vec![50.0, 50.0], 4.0, (5.0, 15.0)).unwrap();
    let gen = QueryGenerator::new(spec, 7).unwrap();
    (cluster, gen)
}

#[test]
fn agent_pipeline_full_loop() {
    let (cluster, mut gen) = setup();
    let exec = Executor::new(&cluster);
    let mut pipe = AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct)
        .unwrap()
        .with_refresh_every(16);

    let mut predicted = 0usize;
    let mut exact = 0usize;
    let mut total_rel = 0.0;
    let mut exact_cost = 0.0;
    let mut agent_cost = 0.0;
    for _ in 0..300 {
        let q = gen.next_query();
        let Ok(truth) = exec.execute_direct("t", &q) else {
            continue;
        };
        let out = pipe.process(&exec, &q).unwrap();
        total_rel += out.answer.relative_error(&truth.answer);
        exact_cost += truth.cost.wall_us;
        agent_cost += out.cost.wall_us;
        match out.source {
            AnswerSource::Predicted { .. } => predicted += 1,
            AnswerSource::Exact => exact += 1,
            AnswerSource::Degraded { .. } => panic!("no faults injected"),
            AnswerSource::Cached => panic!("no cache attached"),
        }
    }
    assert!(predicted > 200, "mostly data-less: {predicted}");
    assert!(exact > 5, "training happened: {exact}");
    let mean_rel = total_rel / 300.0;
    assert!(mean_rel < 0.1, "end-to-end accuracy: {mean_rel}");
    assert!(
        agent_cost * 3.0 < exact_cost,
        "agent saves most of the cost: {agent_cost} vs {exact_cost}"
    );
}

#[test]
fn agent_beats_baselines_on_storage_at_similar_accuracy() {
    let (cluster, mut gen) = setup();
    let exec = Executor::new(&cluster);
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();

    // Train the agent on 200 queries.
    let mut agent = sea_core::SeaAgent::new(2, AgentConfig::default()).unwrap();
    for _ in 0..200 {
        let q = gen.next_query();
        if let Ok(exact) = exec.execute_direct("t", &q) {
            agent.train(&q, &exact.answer).unwrap();
        }
    }
    // Baselines.
    let sample = SamplingAqp::build(&exec, "t", domain.clone(), 8, 64, 3).unwrap();
    let mut dbl =
        LearnedAqp::new(SamplingAqp::build(&exec, "t", domain, 8, 64, 5).unwrap(), 5).unwrap();
    let mut observe_gen = gen.clone();
    for _ in 0..50 {
        let q = observe_gen.next_query();
        if let Ok(exact) = exec.execute_direct("t", &q) {
            let _ = dbl.observe(&q, &exact.answer);
        }
    }

    // Accuracy on 50 fresh probes.
    let mut probe_gen = QueryGenerator::new(
        QuerySpec::simple_count(vec![50.0, 50.0], 4.0, (5.0, 15.0)).unwrap(),
        1234,
    )
    .unwrap();
    let mut agent_err = 0.0;
    let mut sample_err = 0.0;
    let mut n = 0;
    for _ in 0..50 {
        let q = probe_gen.next_query();
        let Ok(truth) = exec.execute_direct("t", &q) else {
            continue;
        };
        if let (Ok(a), Ok(s)) = (agent.predict(&q), sample.query(&q)) {
            agent_err += a.answer.relative_error(&truth.answer);
            sample_err += s.answer.relative_error(&truth.answer);
            n += 1;
        }
    }
    assert!(n > 40);
    let agent_err = agent_err / n as f64;
    let sample_err = sample_err / n as f64;
    // Comparable (or better) accuracy at a fraction of the storage.
    assert!(
        agent_err < sample_err + 0.05,
        "agent {agent_err} vs sample {sample_err}"
    );
    assert!(
        agent.stats().memory_bytes * 2 < sample.storage_bytes(),
        "agent {} bytes vs sample {} bytes",
        agent.stats().memory_bytes,
        sample.storage_bytes()
    );
    assert!(agent.stats().memory_bytes < dbl.storage_bytes());
}

#[test]
fn all_aggregates_roundtrip_through_the_pipeline() {
    let domain = Rect::new(vec![0.0, 0.0, 0.0], vec![100.0; 3]).unwrap();
    let data = DataGenerator::new(DataSpec::Uniform { domain }, 11)
        .generate(50_000)
        .unwrap();
    let mut cluster = StorageCluster::new(4, 512);
    cluster.load_table("t", data, Partitioning::Hash).unwrap();
    let exec = Executor::new(&cluster);

    for agg in [
        AggregateKind::Count,
        AggregateKind::Sum { dim: 1 },
        AggregateKind::Mean { dim: 2 },
        AggregateKind::Variance { dim: 0 },
        AggregateKind::Min { dim: 1 },
        AggregateKind::Max { dim: 2 },
        AggregateKind::Median { dim: 0 },
        AggregateKind::Quantile { dim: 1, q: 0.9 },
        AggregateKind::Correlation { x: 0, y: 1 },
        AggregateKind::Regression { x: 0, y: 2 },
    ] {
        let mut spec = QuerySpec::simple_count(vec![50.0; 3], 3.0, (15.0, 25.0)).unwrap();
        spec.aggregates = vec![agg];
        let mut gen = QueryGenerator::new(spec, 17).unwrap();
        let mut agent = sea_core::SeaAgent::new(3, AgentConfig::default()).unwrap();
        let mut trained = 0;
        for _ in 0..60 {
            let q = gen.next_query();
            if let Ok(exact) = exec.execute_direct("t", &q) {
                agent.train(&q, &exact.answer).unwrap();
                trained += 1;
            }
        }
        assert!(trained > 40, "{agg:?} trained {trained}");
        let probe = gen.next_query();
        let truth = exec.execute_direct("t", &probe);
        let pred = agent.predict(&probe);
        if let (Ok(t), Ok(p)) = (truth, pred) {
            let rel = p.answer.relative_error(&t.answer);
            // Min/Max/medians of uniform data are easy; correlations of
            // independent attributes hover near 0 where relative error is
            // ill-conditioned — just require the prediction to exist and
            // be finite for those.
            match agg {
                AggregateKind::Correlation { .. } => {
                    assert!(p.answer.as_scalar().unwrap().abs() <= 1.0)
                }
                AggregateKind::Regression { .. } => {
                    assert!(p.answer.as_pair().is_some())
                }
                _ => assert!(rel < 0.6, "{agg:?} rel {rel}"),
            }
        }
    }
}
