//! Quickstart: load a dataset into the simulated cluster, answer a query
//! exactly, train the SEA agent on a short query stream, and then answer
//! the same kind of query *data-lessly* — comparing cost and accuracy.
//!
//! ```text
//! cargo run -p sea-bench --release --example quickstart
//! ```

use sea_common::{AggregateKind, AnalyticalQuery, Point, Rect, Region};
use sea_core::{AgentConfig, AgentPipeline, AnswerSource, ExecMode};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};
use sea_telemetry::TraceContext;
use sea_workload::{DataGenerator, DataSpec};

fn main() -> sea_common::Result<()> {
    // 1. A 2-D dataset of 200k records, uniform over [0, 100]².
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])?;
    let data = DataGenerator::new(DataSpec::Uniform { domain }, 42).generate(200_000)?;
    let mut cluster = StorageCluster::new(8, 512);
    cluster.load_table("sensors", data, Partitioning::Hash)?;
    println!(
        "loaded {} records on {} nodes",
        cluster.stats("sensors")?.records,
        cluster.num_nodes()
    );

    // 2. One analytical query, answered exactly both ways.
    let query = AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![50.0, 50.0]), &[8.0, 8.0])?),
        AggregateKind::Count,
    );
    let exec = Executor::new(&cluster);
    let bdas = exec.execute("sensors", &query, ExecMode::Bdas, &TraceContext::NONE)?;
    let direct = exec.execute_direct("sensors", &query)?;
    println!(
        "exact count = {:?}; BDAS path {:.1} ms, direct path {:.1} ms",
        bdas.answer,
        bdas.cost.wall_us / 1e3,
        direct.cost.wall_us / 1e3
    );

    // 3. The intelligent agent: the first queries execute exactly and
    //    train it; later queries are answered from models alone.
    let mut pipeline =
        AgentPipeline::new(2, AgentConfig::default(), "sensors", 0.15, ExecMode::Direct)?;
    let mut predicted = 0;
    let mut exact = 0;
    for i in 0..120 {
        let extent = 5.0 + (i % 12) as f64;
        let q = AnalyticalQuery::new(
            Region::Range(Rect::centered(
                &Point::new(vec![50.0, 50.0]),
                &[extent, extent],
            )?),
            AggregateKind::Count,
        );
        match pipeline.process(&exec, &q)?.source {
            AnswerSource::Predicted { .. } => predicted += 1,
            AnswerSource::Exact => exact += 1,
            AnswerSource::Degraded { .. } => unreachable!("no faults injected"),
            AnswerSource::Cached => unreachable!("no cache attached"),
        }
    }
    println!("agent warm-up: {exact} exact executions, then {predicted} data-less answers");

    // 4. A fresh query: predicted answer vs ground truth.
    let probe = AnalyticalQuery::new(
        Region::Range(Rect::centered(&Point::new(vec![50.0, 50.0]), &[9.5, 9.5])?),
        AggregateKind::Count,
    );
    let out = pipeline.process(&exec, &probe)?;
    let truth = exec.execute_direct("sensors", &probe)?.answer;
    println!(
        "probe: predicted {:?}, truth {:?}, rel err {:.4}, cost {:.3} ms",
        out.answer,
        truth,
        out.answer.relative_error(&truth),
        out.cost.wall_us / 1e3
    );
    Ok(())
}
