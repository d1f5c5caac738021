//! Failure-injection integration tests: the operators keep answering —
//! exactly — through single-node failures when replication is on, and
//! fail loudly (never silently wrong) when it is not.

use sea_common::{
    AggregateKind, AnalyticalQuery, CostMeter, CostReport, ExecMode, Point, Record, Rect, Region,
    SeaError,
};
use sea_core::AgentConfig;
use sea_geo::{ConstituentSystem, Polystore};
use sea_operators::{
    cluster_subspace, fullscan_impute, mapreduce_knn, mapreduce_rank_join, DataCanopy,
    DistributedKnnIndex, GridImputer, SamplingAqp, ScoreIndex,
};
use sea_query::Executor;
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::TraceContext;

fn records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
        .collect()
}

fn count_query(e: f64) -> AnalyticalQuery {
    AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![50.0, 40.0]), &[e, e]).unwrap()),
        AggregateKind::Count,
    )
}

#[test]
fn exact_queries_survive_node_failure_with_replication() {
    let mut cluster = StorageCluster::with_replication(6, 256);
    cluster
        .load_table("t", records(30_000), Partitioning::Hash)
        .unwrap();
    let q = count_query(12.0);
    let before = {
        let exec = Executor::new(&cluster);
        exec.execute_direct("t", &q).unwrap().answer
    };
    for victim in 0..6 {
        cluster.fail_node(victim).unwrap();
        {
            let exec = Executor::new(&cluster);
            let bdas = exec
                .execute("t", &q, ExecMode::Bdas, &TraceContext::NONE)
                .unwrap()
                .answer;
            let direct = exec.execute_direct("t", &q).unwrap().answer;
            assert_eq!(bdas, before, "BDAS answer intact with node {victim} down");
            assert_eq!(
                direct, before,
                "direct answer intact with node {victim} down"
            );
        }
        cluster.restore_node(victim).unwrap();
    }
}

#[test]
fn unreplicated_failure_is_loud_not_wrong() {
    let mut cluster = StorageCluster::new(4, 256);
    cluster
        .load_table("t", records(10_000), Partitioning::Hash)
        .unwrap();
    cluster.fail_node(2).unwrap();
    let exec = Executor::new(&cluster);
    // The query spans all hash partitions, so execution must error rather
    // than return a partial (silently wrong) count.
    assert!(exec
        .execute("t", &count_query(12.0), ExecMode::Bdas, &TraceContext::NONE)
        .is_err());
    assert!(exec.execute_direct("t", &count_query(12.0)).is_err());
}

/// An operator that scans, run over one executor: its answer (rendered)
/// and its bill.
type Run = fn(&Executor) -> sea_common::Result<(String, CostReport)>;

/// Three dims over a 100 × 100 grid, the third twice the first.
fn grid_records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let x = (i % 100) as f64;
            Record::new(i, vec![x, (i / 100 % 100) as f64, 2.0 * x])
        })
        .collect()
}

/// `t` for kNN, imputation, sampling, the canopy, k-means and the
/// polystore; `l` and `r` (key, score) for the rank-join.
fn operator_cluster(replicated: bool) -> StorageCluster {
    let mut c = if replicated {
        StorageCluster::with_replication(6, 128)
    } else {
        StorageCluster::new(6, 128)
    };
    c.load_table("t", grid_records(6_000), Partitioning::Hash)
        .unwrap();
    let side = |salt: u64| -> Vec<Record> {
        (0..2_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, ((i * 7919 + salt) % 1000) as f64]))
            .collect()
    };
    c.load_table("l", side(17), Partitioning::Hash).unwrap();
    c.load_table("r", side(91), Partitioning::Hash).unwrap();
    c
}

fn domain() -> sea_common::Result<Rect> {
    Rect::new(vec![0.0, 0.0, 0.0], vec![100.0, 100.0, 200.0])
}

fn probe() -> Point {
    Point::new(vec![42.0, 37.0, 84.0])
}

fn incomplete() -> Vec<Record> {
    (0..8)
        .map(|i| Record::new(90_000 + i, vec![(i * 11) as f64, 50.0, f64::NAN]))
        .collect()
}

fn cube(e: f64) -> AnalyticalQuery {
    AnalyticalQuery::new(
        Region::Range(
            Rect::centered(&Point::new(vec![50.0, 40.0, 100.0]), &[e, e, 2.0 * e]).unwrap(),
        ),
        AggregateKind::Count,
    )
}

/// How an operator meets a partition it cannot read when partial
/// answers are accepted.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// `SeaError::Storage`: what it builds from part of the table would
    /// answer short.
    Refuses,
    /// An answer labelled partial, with this many engaged partitions
    /// unread.
    Partial(u64),
}

/// Every operator that reads the cluster — through `Executor::scatter`,
/// the rank-join through `Executor::scan_blocks` — and how it meets one
/// crashed unreplicated node of six (the grid imputer engages every hash
/// partition once per probe, eight probes).
fn operators() -> [(&'static str, Fault, Run); 10] {
    [
        ("mapreduce_rank_join", Fault::Partial(1), |e| {
            let o = mapreduce_rank_join(e, "l", "r", 10)?;
            Ok((format!("{:?} {}", o.results, o.tuples_retrieved), o.cost))
        }),
        ("ScoreIndex::build", Fault::Refuses, |e| {
            let mut meter = CostMeter::new();
            let idx = ScoreIndex::build(e, "l", &mut meter)?;
            let entries = idx.batch(0, idx.len(), &mut CostMeter::new());
            Ok((format!("{entries:?}"), meter.report_sequential()))
        }),
        ("mapreduce_knn", Fault::Partial(1), |e| {
            let o = mapreduce_knn(e, "t", &probe(), 10)?;
            Ok((format!("{:?}", o.neighbors), o.cost))
        }),
        ("DistributedKnnIndex::build", Fault::Refuses, |e| {
            let idx = DistributedKnnIndex::build(e, "t")?;
            let o = idx.query(&probe(), 10)?;
            Ok((format!("{:?}", o.neighbors), *idx.build_cost()))
        }),
        ("fullscan_impute", Fault::Partial(1), |e| {
            let o = fullscan_impute(e, "t", &incomplete(), 5)?;
            Ok((format!("{:?} {}", o.imputed, o.candidates_examined), o.cost))
        }),
        ("GridImputer::impute", Fault::Partial(8), |e| {
            let o = GridImputer::new(domain()?, 50)?.impute(e, "t", &incomplete(), 5)?;
            Ok((format!("{:?} {}", o.imputed, o.candidates_examined), o.cost))
        }),
        ("SamplingAqp::build", Fault::Refuses, |e| {
            let aqp = SamplingAqp::build(e, "t", domain()?, 4, 20, 7)?;
            let o = aqp.query(&cube(20.0))?;
            Ok((
                format!("{:?} {}", o.answer, aqp.storage_bytes()),
                *aqp.build_cost(),
            ))
        }),
        ("DataCanopy::query", Fault::Refuses, |e| {
            let mut canopy = DataCanopy::new(e, "t", domain()?, 10)?;
            let slab = Rect::new(vec![12.0, 0.0, 0.0], vec![47.0, 100.0, 200.0])?;
            let o = canopy.query(&AnalyticalQuery::new(
                Region::Range(slab),
                AggregateKind::Count,
            ))?;
            Ok((format!("{:?}", o.answer), o.cost))
        }),
        ("cluster_subspace", Fault::Partial(1), |e| {
            let o = cluster_subspace(e, "t", &cube(30.0).region, 2)?;
            Ok((
                format!("{:?} {}", o.output.centroids(), o.records_in_subspace),
                o.cost,
            ))
        }),
        ("query_migrate_data", Fault::Partial(1), |e| {
            let system = ConstituentSystem::new(e, "t")?;
            let o = Polystore::new(vec![system], 0.15)?.query_migrate_data(&cube(12.0))?;
            Ok((format!("{:?} {}", o.answer, o.inter_system_bytes), o.cost))
        }),
    ]
}

/// The bill of a run that rode out faults: the healthy bill plus retry
/// backoff and the slow node's scaled block charges — nothing else
/// moves, and the answer is complete.
fn only_backoff_and_slowness(name: &str, healthy: &CostReport, faulted: &CostReport) {
    let (h, f) = (healthy.totals, faulted.totals);
    let fixed = |m: CostMeter| {
        let lan = (m.lan_msgs, m.lan_bytes, m.wan_msgs, m.wan_bytes);
        (lan, m.layer_crossings, m.nodes_touched, m.disk_point_reads)
    };
    assert_eq!(fixed(h), fixed(f), "{name}: only backoff and slowness move");
    assert!(
        f.disk_seeks >= h.disk_seeks && f.disk_bytes >= h.disk_bytes,
        "{name}"
    );
    assert!(f.records_processed >= h.records_processed, "{name}");
    assert_eq!(
        (faulted.answered_fraction, faulted.nodes_unavailable),
        (1.0, 0)
    );
}

#[test]
fn knn_operators_survive_failover() {
    let healthy = operator_cluster(true);
    let want: Vec<(String, CostReport)> = operators()
        .iter()
        .map(|(name, _, run)| {
            run(&Executor::new(&healthy)).unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();

    // Node 3 down: its partitions are read through the replica on node 4
    // — the same blocks, so the same answer and the same bill. (A cohort
    // index *built* during the failure answers correctly too.)
    let mut failed = operator_cluster(true);
    failed.fail_node(3).unwrap();
    for ((name, _, run), want) in operators().iter().zip(&want) {
        let got = run(&Executor::new(&failed)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&got, want, "{name}: failover changes nothing");
    }

    // E18's plan — transient scan faults, a crash, a slow node — on the
    // replicated cluster with the default retry policy: retries ride out
    // the transients, the replica serves the crashed partition.
    for ((name, _, run), (answer, bill)) in operators().iter().zip(&want) {
        let mut faulted = operator_cluster(true);
        faulted.set_fault_plan(
            FaultPlan::new(97)
                .with_transient(0.2, 1)
                .with_crash(2, 10)
                .with_slow_node(1, 2.0),
        );
        let (got, cost) = run(&Executor::new(&faulted)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&got, answer, "{name}: the healthy answer");
        only_backoff_and_slowness(name, bill, &cost);
        assert!(
            cost.totals.backoff_us > 0,
            "{name}: met a transient, retried it"
        );
    }

    // No replica, a crashed node, partial answers accepted: an operator
    // either refuses or says it answered partially — never a silently
    // smaller answer — and which one it does is pinned.
    let mut crashed = operator_cluster(false);
    crashed.set_fault_plan(FaultPlan::new(97).with_crash(2, 0));
    let partial = Executor::new(&crashed).with_partial_answers(true);
    for (name, fault, run) in operators() {
        match (fault, run(&partial)) {
            (Fault::Refuses, Err(SeaError::Storage(_))) => {}
            (Fault::Partial(unread), Ok((_, cost))) => {
                assert!(
                    cost.answered_fraction < 1.0,
                    "{name}: a partial answer says so"
                );
                assert_eq!(cost.nodes_unavailable, unread, "{name}");
            }
            (_, got) => panic!("{name}: expected {fault:?}, got {got:?}"),
        }
    }
    // kNN counts the partitions that did work, not the ones it engaged.
    let knn = mapreduce_knn(&partial, "t", &probe(), 10).unwrap();
    assert_eq!(knn.nodes_engaged, crashed.num_nodes() - 1);
}

#[test]
fn agent_pipeline_rides_through_failover() {
    use sea_core::{AgentPipeline, ExecMode};
    let mut cluster = StorageCluster::with_replication(4, 256);
    cluster
        .load_table("t", records(20_000), Partitioning::Hash)
        .unwrap();
    let mut pipe =
        AgentPipeline::new(2, AgentConfig::default(), "t", 0.15, ExecMode::Direct).unwrap();
    // Train while healthy.
    {
        let exec = Executor::new(&cluster);
        for i in 0..120 {
            let q = count_query(5.0 + (i % 15) as f64 * 0.5);
            let _ = pipe.process(&exec, &q);
        }
    }
    // Fail a node: predictions never touch the cluster, and audits /
    // fallbacks are served by replicas — the pipeline stays correct.
    cluster.fail_node(1).unwrap();
    let exec = Executor::new(&cluster);
    let mut checked = 0;
    for i in 0..40 {
        let q = count_query(5.0 + (i % 15) as f64 * 0.5);
        let out = pipe.process(&exec, &q).unwrap();
        let truth = exec.execute_direct("t", &q).unwrap().answer;
        assert!(
            out.answer.relative_error(&truth) < 0.2,
            "answer ok during failure: {:?} vs {:?}",
            out.answer,
            truth
        );
        checked += 1;
    }
    assert_eq!(checked, 40);
}
