//! Criterion benches: real CPU time of the kernel behind each experiment
//! (E1–E14). The simulated-cost *tables* are regenerated by the
//! `experiments` binary; these benches measure that the actual Rust
//! implementations are fast enough to be credible substrates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use sea_common::{
    AggregateKind, AnalyticalQuery, CostMeter, CostModel, Point, Record, Rect, Region,
};
use sea_core::{AgentConfig, Explanation, SeaAgent};
use sea_graph::{GraphCache, GraphDb, GraphGenerator};
use sea_imputation::{fullscan_impute, GridImputer};
use sea_knn::{mapreduce_knn, DistributedKnnIndex};
use sea_ml::gbt::{GbtParams, GradientBoostedTrees};
use sea_ml::linreg::RecursiveLeastSquares;
use sea_ml::quantize::{OnlineQuantizer, QuantizerParams};
use sea_optimizer::{select_model, ExecutionEngines, LearnedOptimizer, QueryStrategy};
use sea_query::Executor;
use sea_rankjoin::{mapreduce_rank_join, surgical_rank_join, ScoreIndex};
use sea_storage::{Partitioning, StorageCluster};

fn uniform_cluster(n: usize) -> StorageCluster {
    let mut c = StorageCluster::new(8, 512);
    let records: Vec<Record> = (0..n)
        .map(|i| {
            Record::new(
                i as u64,
                vec![(i % 1000) as f64 / 10.0, (i / 1000) as f64 * 9.7 % 100.0],
            )
        })
        .collect();
    c.load_table("t", records, Partitioning::Hash).unwrap();
    c
}

fn count_query(e: f64) -> AnalyticalQuery {
    AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![50.0, 50.0]), &[e, e]).unwrap()),
        AggregateKind::Count,
    )
}

fn trained_agent(cluster: &StorageCluster) -> SeaAgent {
    let exec = Executor::new(cluster);
    let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
    for i in 0..150 {
        let q = count_query(4.0 + (i % 20) as f64 * 0.4);
        if let Ok(exact) = exec.execute_direct("t", &q) {
            agent.train(&q, &exact.answer).unwrap();
        }
    }
    agent
}

/// E1/E2/E7: agent prediction vs exact execution.
fn bench_agent_vs_exact(c: &mut Criterion) {
    let cluster = uniform_cluster(100_000);
    let exec = Executor::new(&cluster);
    let agent = trained_agent(&cluster);
    let q = count_query(7.0);
    c.bench_function("e1_agent_predict", |b| {
        b.iter(|| black_box(agent.predict(black_box(&q)).unwrap()))
    });
    c.bench_function("e1_exact_direct", |b| {
        b.iter(|| black_box(exec.execute_direct("t", black_box(&q)).unwrap()))
    });
    c.bench_function("e1_exact_bdas", |b| {
        b.iter(|| black_box(exec.execute_bdas("t", black_box(&q)).unwrap()))
    });
}

/// E2/E3/E11: one agent training step (quantizer + RLS update).
fn bench_agent_train(c: &mut Criterion) {
    let cluster = uniform_cluster(50_000);
    c.bench_function("e2_agent_train_step", |b| {
        b.iter_batched(
            || trained_agent(&cluster),
            |mut agent| {
                let q = count_query(6.3);
                agent
                    .train(&q, &sea_common::AnswerValue::Scalar(1234.0))
                    .unwrap();
                black_box(agent.stats().training_queries)
            },
            BatchSize::LargeInput,
        )
    });
}

/// E4: rank-join strategies.
fn bench_rankjoin(c: &mut Criterion) {
    let mut cluster = StorageCluster::new(8, 512);
    let score =
        |i: u64, salt: u64| ((i.wrapping_mul(2654435761).wrapping_add(salt)) % 10_000) as f64;
    let n = 20_000u64;
    let left: Vec<Record> = (0..n)
        .map(|i| Record::new(i, vec![(i % 400) as f64, score(i, 17), 1.0]))
        .collect();
    let right: Vec<Record> = (0..n)
        .map(|i| Record::new(i, vec![(i % 400) as f64, score(i, 91), 2.0]))
        .collect();
    cluster.load_table("l", left, Partitioning::Hash).unwrap();
    cluster.load_table("r", right, Partitioning::Hash).unwrap();
    let model = CostModel::default();
    let li = ScoreIndex::build(&cluster, "l", &mut CostMeter::new()).unwrap();
    let ri = ScoreIndex::build(&cluster, "r", &mut CostMeter::new()).unwrap();
    c.bench_function("e4_surgical_rankjoin", |b| {
        b.iter(|| black_box(surgical_rank_join(&li, &ri, 10, 256, &model).unwrap()))
    });
    c.bench_function("e4_mapreduce_rankjoin", |b| {
        b.iter(|| black_box(mapreduce_rank_join(&cluster, "l", "r", 10, &model).unwrap()))
    });
}

/// E5: kNN strategies.
fn bench_knn(c: &mut Criterion) {
    let cluster = uniform_cluster(100_000);
    let model = CostModel::default();
    let index = DistributedKnnIndex::build(&cluster, "t", &model).unwrap();
    let q = Point::new(vec![42.0, 37.0]);
    c.bench_function("e5_cohort_knn", |b| {
        b.iter(|| black_box(index.query(&q, 10, &model).unwrap()))
    });
    c.bench_function("e5_mapreduce_knn", |b| {
        b.iter(|| black_box(mapreduce_knn(&cluster, "t", &q, 10, &model).unwrap()))
    });
}

/// E6: subgraph query with and without the semantic cache.
fn bench_graphcache(c: &mut Criterion) {
    let data_gen = GraphGenerator::new(4, 0.22, 42);
    let mut db = GraphDb::new();
    for i in 0..200 {
        db.add_graph(data_gen.generate(14, i));
    }
    let query_gen = GraphGenerator::new(4, 0.5, 9);
    let pattern = query_gen.generate(4, 777);
    c.bench_function("e6_query_uncached", |b| {
        b.iter(|| black_box(db.query(&pattern)))
    });
    let mut warm = GraphCache::new(64);
    warm.query(&db, &pattern);
    c.bench_function("e6_query_cached", |b| {
        b.iter_batched(
            || warm.clone(),
            |mut cache| black_box(cache.query(&db, &pattern)),
            BatchSize::SmallInput,
        )
    });
}

/// E8: storage-footprint computation (agent stats walk).
fn bench_agent_stats(c: &mut Criterion) {
    let cluster = uniform_cluster(50_000);
    let agent = trained_agent(&cluster);
    c.bench_function("e8_agent_stats", |b| b.iter(|| black_box(agent.stats())));
}

/// E9: learned strategy choice and both executions.
fn bench_optimizer(c: &mut Criterion) {
    let mut cluster = StorageCluster::new(4, 512);
    let records: Vec<Record> = (0..40_000)
        .map(|i| Record::new(i, vec![(i / 400) as f64, (i % 400) as f64]))
        .collect();
    cluster
        .load_table(
            "t",
            records,
            Partitioning::Range {
                dim: 0,
                splits: Partitioning::equi_width_splits(0.0, 100.0, 4),
            },
        )
        .unwrap();
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 400.0]).unwrap();
    let engines = ExecutionEngines::build(&cluster, "t", domain, 100).unwrap();
    let exec = Executor::new(&cluster);
    let mut opt = LearnedOptimizer::new(&cluster, "t", 32).unwrap();
    let probe = AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![50.0, 200.0]), &[2.0, 10.0]).unwrap()),
        AggregateKind::Count,
    );
    for i in 0..20 {
        let e = 0.5 + i as f64 * 2.0;
        let q = AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![50.0, 200.0]), &[e, 5.0 * e]).unwrap()),
            AggregateKind::Count,
        );
        opt.train(&engines, &q, &exec).unwrap();
    }
    c.bench_function("e9_learned_choose", |b| {
        b.iter(|| black_box(opt.choose(&probe).unwrap()))
    });
    c.bench_function("e9_index_fetch", |b| {
        b.iter(|| {
            black_box(
                engines
                    .execute(QueryStrategy::IndexFetch, &probe, &exec)
                    .unwrap(),
            )
        })
    });
    c.bench_function("e9_scan_aggregate", |b| {
        b.iter(|| {
            black_box(
                engines
                    .execute(QueryStrategy::ScanAggregate, &probe, &exec)
                    .unwrap(),
            )
        })
    });
}

/// E12: explanation construction.
fn bench_explanation(c: &mut Criterion) {
    let cluster = uniform_cluster(50_000);
    let agent = trained_agent(&cluster);
    let q = count_query(7.0);
    c.bench_function("e12_explanation_build", |b| {
        b.iter(|| black_box(Explanation::for_query(&agent, &q).unwrap()))
    });
}

/// E13: imputation strategies.
fn bench_imputation(c: &mut Criterion) {
    let mut cluster = StorageCluster::new(8, 512);
    let records: Vec<Record> = (0..50_000)
        .map(|i| {
            let x = (i / 500) as f64;
            Record::new(i, vec![x, 2.0 * x + 5.0, 100.0 - x])
        })
        .collect();
    cluster
        .load_table(
            "t",
            records,
            Partitioning::Range {
                dim: 0,
                splits: Partitioning::equi_width_splits(0.0, 100.0, 8),
            },
        )
        .unwrap();
    let probes: Vec<Record> = (0..25)
        .map(|i| {
            Record::new(
                900_000 + i as u64,
                vec![(2 + i * 4) as f64, f64::NAN, 98.0 - (i * 4) as f64],
            )
        })
        .collect();
    let model = CostModel::default();
    let domain = Rect::new(vec![0.0, 0.0, 0.0], vec![100.0, 205.0, 100.0]).unwrap();
    let imputer = GridImputer::new(domain, 50).unwrap();
    c.bench_function("e13_grid_impute", |b| {
        b.iter(|| black_box(imputer.impute(&cluster, "t", &probes, 5, &model).unwrap()))
    });
    c.bench_function("e13_fullscan_impute", |b| {
        b.iter(|| black_box(fullscan_impute(&cluster, "t", &probes, 5, &model).unwrap()))
    });
}

/// E15: polystore strategies.
fn bench_polystore(c: &mut Criterion) {
    use sea_core::agent::AgentConfig;
    use sea_geo::{ConstituentSystem, Polystore};
    let mk = |shift: u64| {
        let mut cl = StorageCluster::new(4, 512);
        let records: Vec<Record> = (0..20_000)
            .map(|i| {
                Record::new(
                    i,
                    vec![((i + shift * 37) % 100) as f64, ((i / 100) % 80) as f64],
                )
            })
            .collect();
        cl.load_table("t", records, Partitioning::Hash).unwrap();
        cl
    };
    let c1 = mk(0);
    let c2 = mk(1);
    let systems = vec![
        ConstituentSystem::new(&c1, "t", AgentConfig::default()).unwrap(),
        ConstituentSystem::new(&c2, "t", AgentConfig::default()).unwrap(),
    ];
    let mut store = Polystore::new(systems, 0.15).unwrap();
    let training: Vec<AnalyticalQuery> = (0..100)
        .map(|i| {
            AnalyticalQuery::new(
                Region::Range(
                    Rect::centered(
                        &Point::new(vec![50.0, 40.0]),
                        &[5.0 + (i % 12) as f64 * 0.5, 5.0 + (i % 12) as f64 * 0.5],
                    )
                    .unwrap(),
                ),
                AggregateKind::Count,
            )
        })
        .collect();
    store.train_agents(&training).unwrap();
    let q = training[5].clone();
    c.bench_function("e15_migrate_data", |b| {
        b.iter(|| black_box(store.query_migrate_data(&q).unwrap()))
    });
    c.bench_function("e15_exchange_models", |b| {
        b.iter(|| black_box(store.query_exchange_models(&q).unwrap()))
    });
}

/// E16: cracker index vs rescan.
fn bench_cracker(c: &mut Criterion) {
    use sea_index::CrackerIndex;
    let n = 100_000u64;
    let column: Vec<(f64, u64)> = (0..n)
        .map(|i| ((i.wrapping_mul(2654435761) % n) as f64, i))
        .collect();
    c.bench_function("e16_crack_cold", |b| {
        b.iter_batched(
            || CrackerIndex::new(column.clone()).unwrap(),
            |mut idx| black_box(idx.count(40_000.0, 60_000.0).unwrap()),
            BatchSize::LargeInput,
        )
    });
    let mut warm = CrackerIndex::new(column.clone()).unwrap();
    warm.count(40_000.0, 60_000.0).unwrap();
    c.bench_function("e16_crack_warm", |b| {
        b.iter_batched(
            || warm.clone(),
            |mut idx| black_box(idx.count(40_000.0, 60_000.0).unwrap()),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("e16_rescan", |b| {
        b.iter(|| {
            black_box(
                column
                    .iter()
                    .filter(|(v, _)| *v >= 40_000.0 && *v < 60_000.0)
                    .count(),
            )
        })
    });
}

/// Graph hybrid matching and agent serialization kernels.
fn bench_misc_kernels(c: &mut Criterion) {
    use sea_graph::{GraphGenerator, MatchAlgorithm};
    let target = GraphGenerator::new(3, 0.25, 5).generate(14, 0);
    let pattern = GraphGenerator::new(3, 0.5, 6).generate(4, 1);
    c.bench_function("graph_vf2", |b| {
        b.iter(|| black_box(MatchAlgorithm::Vf2.matches(&pattern, &target)))
    });
    c.bench_function("graph_ullmann", |b| {
        b.iter(|| black_box(MatchAlgorithm::Ullmann.matches(&pattern, &target)))
    });
    let cluster = uniform_cluster(50_000);
    let agent = trained_agent(&cluster);
    c.bench_function("agent_to_json", |b| {
        b.iter(|| black_box(agent.to_json().unwrap()))
    });
}

/// E14 + ML substrate kernels: model selection, boosting, RLS, quantizer.
fn bench_ml_kernels(c: &mut Criterion) {
    let xs: Vec<Vec<f64>> = (0..240).map(|i| vec![i as f64 / 2.4]).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            if ((x[0] / 20.0) as u64).is_multiple_of(2) {
                0.0
            } else {
                50.0
            }
        })
        .collect();
    c.bench_function("e14_select_model", |b| {
        b.iter(|| black_box(select_model(&xs, &ys, 5).unwrap()))
    });
    c.bench_function("ml_gbt_fit", |b| {
        b.iter(|| {
            black_box(
                GradientBoostedTrees::fit(
                    &xs,
                    &ys,
                    &GbtParams {
                        n_trees: 30,
                        ..GbtParams::default()
                    },
                )
                .unwrap(),
            )
        })
    });
    c.bench_function("ml_rls_update", |b| {
        b.iter_batched(
            || RecursiveLeastSquares::new(5, 100.0, 1.0).unwrap(),
            |mut rls| {
                for i in 0..100 {
                    rls.update(&[i as f64, 1.0, 2.0, 3.0, 4.0], i as f64)
                        .unwrap();
                }
                black_box(rls.n_updates())
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("ml_quantizer_absorb", |b| {
        b.iter_batched(
            || OnlineQuantizer::new(4, QuantizerParams::default()).unwrap(),
            |mut q| {
                for i in 0..200 {
                    q.absorb(&[(i % 17) as f64, (i % 5) as f64, 1.0, 2.0])
                        .unwrap();
                }
                black_box(q.len())
            },
            BatchSize::SmallInput,
        )
    });
}

fn configured() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = kernels;
    config = configured();
    targets = bench_agent_vs_exact, bench_agent_train, bench_rankjoin, bench_knn,
              bench_graphcache, bench_agent_stats, bench_optimizer, bench_explanation,
              bench_imputation, bench_ml_kernels, bench_polystore, bench_cracker,
              bench_misc_kernels
}
criterion_main!(kernels);
