//! A raw-data analytics session (RT2-2 + RT2-3): data lands as an
//! unsorted raw column with no ETL; the cracking index self-organizes
//! under the analyst's queries, and ad hoc ML tasks (clustering,
//! regression, classification) run directly over selected subspaces.
//!
//! ```text
//! cargo run -p sea-bench --release --example raw_data_session
//! ```

use sea_common::{Record, Rect, Region};
use sea_operators::{classify_subspace, cluster_subspace, regress_subspace, CrackerIndex};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};

fn main() -> sea_common::Result<()> {
    // ---- Raw-data exploration with a cracking index ---------------------
    // A 500k-value raw column, no preprocessing.
    let n = 500_000u64;
    let raw: Vec<(f64, u64)> = (0..n)
        .map(|i| ((i.wrapping_mul(2654435761) % n) as f64, i))
        .collect();
    let mut cracker = CrackerIndex::new(raw)?;
    println!(
        "raw column: {} values, 0 cracks, no ETL performed",
        cracker.len()
    );
    for round in 1..=3 {
        let (count, touched) = cracker.count(200_000.0, 250_000.0)?;
        println!(
            "  round {round}: count[200k, 250k) = {count}, touched {touched} elements, \
             {} cracks held",
            cracker.num_cracks()
        );
    }
    let (_, touched) = cracker.count(210_000.0, 240_000.0)?;
    println!("  nested range after warm-up: touched only {touched} elements");

    // ---- Ad hoc ML over an analyst-selected subspace ---------------------
    // 4-attribute table: spatial x/y, a response 3x − y + 2, and a class.
    let records: Vec<Record> = (0..60_000)
        .map(|i| {
            let x = (i % 300) as f64 / 3.0;
            let y = ((i / 300) % 200) as f64 / 2.0;
            let response = 3.0 * x - y + 2.0;
            let class = if x + y < 100.0 { 0.0 } else { 1.0 };
            Record::new(i as u64, vec![x, y, response, class])
        })
        .collect();
    let mut cluster = StorageCluster::new(8, 512);
    cluster.load_table("obs", records, Partitioning::Hash)?;
    let exec = Executor::new(&cluster);

    // Penny selects a subspace and asks for its structure.
    let subspace = Region::Range(Rect::new(
        vec![20.0, 20.0, -1e9, -1.0],
        vec![80.0, 80.0, 1e9, 2.0],
    )?);

    let km = cluster_subspace(&exec, "obs", &subspace, 2)?;
    println!(
        "\nk-means over the selected subspace ({} records, {:.1} ms):",
        km.records_in_subspace,
        km.cost.wall_us / 1e3
    );
    for c in km.output.centroids() {
        println!("  centroid at ({:6.2}, {:6.2}, …)", c[0], c[1]);
    }

    let reg = regress_subspace(&exec, "obs", &subspace, 2)?;
    println!(
        "regression of attr2 on the others: weights {:?} intercept {:.3}",
        reg.output
            .weights()
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        reg.output.intercept()
    );

    let probes = vec![
        vec![30.0, 30.0, 3.0 * 30.0 - 30.0 + 2.0],
        vec![70.0, 70.0, 3.0 * 70.0 - 70.0 + 2.0],
    ];
    let labels = classify_subspace(&exec, "obs", &subspace, 3, &probes, 7)?;
    println!(
        "kNN classification of two probes: {:?} (expected [0, 1])",
        labels.output
    );
    Ok(())
}
