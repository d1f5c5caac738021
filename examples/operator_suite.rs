//! Big-data-less operators (principle P3): rank-join, distributed kNN,
//! and missing-value imputation — each run both the MapReduce way and the
//! surgical way, printing the measured resource gap.
//!
//! ```text
//! cargo run -p sea-bench --release --example operator_suite
//! ```

use sea_common::{CostMeter, Point, Record, Rect};
use sea_operators::{
    fullscan_impute, knn_join, mapreduce_knn, mapreduce_rank_join, surgical_rank_join,
    DistributedKnnIndex, GridImputer, ScoreIndex,
};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};

fn main() -> sea_common::Result<()> {
    // ---- Rank-join -------------------------------------------------------
    let mut cluster = StorageCluster::new(8, 512);
    let score =
        |i: u64, salt: u64| ((i.wrapping_mul(2654435761).wrapping_add(salt)) % 10_000) as f64;
    let n = 100_000u64;
    let left: Vec<Record> = (0..n)
        .map(|i| Record::new(i, vec![(i % 2000) as f64, score(i, 17), 1.0]))
        .collect();
    let right: Vec<Record> = (0..n)
        .map(|i| Record::new(i, vec![(i % 2000) as f64, score(i, 91), 2.0]))
        .collect();
    cluster.load_table("l", left, Partitioning::Hash)?;
    cluster.load_table("r", right, Partitioning::Hash)?;
    let exec = Executor::new(&cluster);
    let li = ScoreIndex::build(&exec, "l", &mut CostMeter::new())?;
    let ri = ScoreIndex::build(&exec, "r", &mut CostMeter::new())?;
    let surgical = surgical_rank_join(&li, &ri, 10, 256)?;
    let mapreduce = mapreduce_rank_join(&exec, "l", "r", 10)?;
    println!("rank-join, top-10 of {n} x {n} tuples:");
    println!(
        "  surgical:  {:9.1} ms, {:9} tuples touched, best pair score {:.0}",
        surgical.cost.wall_us / 1e3,
        surgical.tuples_retrieved,
        surgical.results[0].score
    );
    println!(
        "  mapreduce: {:9.1} ms, {:9} tuples touched  →  {:.0}x saved",
        mapreduce.cost.wall_us / 1e3,
        mapreduce.tuples_retrieved,
        mapreduce.cost.wall_us / surgical.cost.wall_us
    );

    // ---- Distributed kNN -------------------------------------------------
    let mut knn_cluster = StorageCluster::new(8, 512);
    let points: Vec<Record> = (0..200_000)
        .map(|i| {
            Record::new(
                i,
                vec![(i % 1000) as f64 / 10.0, (i / 1000) as f64 * 7.3 % 100.0],
            )
        })
        .collect();
    knn_cluster.load_table("pts", points, Partitioning::Hash)?;
    let knn_exec = Executor::new(&knn_cluster);
    let index = DistributedKnnIndex::build(&knn_exec, "pts")?;
    let q = Point::new(vec![33.0, 66.0]);
    let cohort = index.query(&q, 10)?;
    let mr = mapreduce_knn(&knn_exec, "pts", &q, 10)?;
    println!("\nkNN, k=10 over 200k points:");
    println!(
        "  cohort:    {:9.2} ms ({} nodes engaged)",
        cohort.cost.wall_us / 1e3,
        cohort.nodes_engaged
    );
    println!(
        "  mapreduce: {:9.2} ms  →  {:.0}x saved; nearest distance {:.3}",
        mr.cost.wall_us / 1e3,
        mr.cost.wall_us / cohort.cost.wall_us,
        cohort.neighbors[0].distance
    );
    // And a parallel kNN join over 32 probe points.
    let probes: Vec<Point> = (0..32)
        .map(|i| Point::new(vec![i as f64 * 3.0, 50.0]))
        .collect();
    let joined = knn_join(&index, &probes, 5, 8)?;
    println!("  kNN join: {} probes × 5 neighbours each", joined.len());

    // ---- Missing-value imputation ----------------------------------------
    let mut imp_cluster = StorageCluster::new(8, 512);
    let complete: Vec<Record> = (0..100_000)
        .map(|i| {
            let x = (i / 1000) as f64;
            Record::new(i, vec![x, 2.0 * x + 5.0, 100.0 - x])
        })
        .collect();
    imp_cluster.load_table(
        "obs",
        complete,
        Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(0.0, 100.0, 8),
        },
    )?;
    let incomplete: Vec<Record> = (0..30)
        .map(|i| {
            Record::new(
                500_000 + i as u64,
                vec![(3 * i) as f64, f64::NAN, 100.0 - (3 * i) as f64],
            )
        })
        .collect();
    let domain = Rect::new(vec![0.0, 0.0, 0.0], vec![100.0, 205.0, 100.0])?;
    let imp_exec = Executor::new(&imp_cluster);
    let grid = GridImputer::new(domain, 50)?.impute(&imp_exec, "obs", &incomplete, 5)?;
    let full = fullscan_impute(&imp_exec, "obs", &incomplete, 5)?;
    println!("\nmissing-value imputation, 30 incomplete records over 100k:");
    println!(
        "  grid:      {:9.1} ms, {:8} candidates examined",
        grid.cost.wall_us / 1e3,
        grid.candidates_examined
    );
    println!(
        "  fullscan:  {:9.1} ms, {:8} candidates examined  →  {:.0}x saved",
        full.cost.wall_us / 1e3,
        full.candidates_examined,
        full.cost.wall_us / grid.cost.wall_us
    );
    println!(
        "  sample imputed value for x=30: {:.2} (truth {:.2})",
        grid.imputed[10].value(1),
        2.0 * 30.0 + 5.0
    );
    Ok(())
}
