//! The two tables, built from `--seed` through the program's public
//! generator and loader.

use std::time::Instant;

use sea_common::{Rect, Result};
use sea_storage::{Partitioning, StorageCluster};
use sea_workload::{DataGenerator, DataSpec, GaussianComponent};

use crate::spec::Workload;

pub const NODES: usize = 8;
pub const BLOCK_RECORDS: usize = 512;

/// A loaded table plus what building it cost.
pub struct Table {
    pub cluster: StorageCluster,
    pub name: &'static str,
    pub gen_s: f64,
    pub load_s: f64,
}

impl Workload {
    /// `drift_churn` runs over `g`, the other three over `t`.
    pub fn build_table(self, seed: u64, records: usize) -> Result<Table> {
        match self {
            Workload::DriftChurn => build_g(seed, records),
            _ => build_t(seed, records),
        }
    }
}

/// `t`: uniform 2-D records over `[0,100]²`, hash-partitioned over eight
/// replicated nodes — the E22 cluster scaled up.
fn build_t(seed: u64, records: usize) -> Result<Table> {
    let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])?;
    let start = Instant::now();
    let data = DataGenerator::new(DataSpec::Uniform { domain }, seed).generate(records)?;
    let gen_s = start.elapsed().as_secs_f64();
    let mut cluster = StorageCluster::with_replication(NODES, BLOCK_RECORDS);
    let start = Instant::now();
    cluster.load_table("t", data, Partitioning::Hash)?;
    Ok(Table {
        cluster,
        name: "t",
        gen_s,
        load_s: start.elapsed().as_secs_f64(),
    })
}

/// `g`: a 3-D Gaussian mixture, range-partitioned on d0 and arriving in
/// d1 order, so that node pruning (d0) and block zone maps (d1) both have
/// something to prune.
fn build_g(seed: u64, records: usize) -> Result<Table> {
    let components = vec![
        GaussianComponent::new(vec![30.0, 35.0, 40.0], vec![12.0, 12.0, 15.0], 3.0)?,
        GaussianComponent::new(vec![55.0, 60.0, 55.0], vec![14.0, 12.0, 15.0], 4.0)?,
        GaussianComponent::new(vec![70.0, 40.0, 60.0], vec![10.0, 14.0, 15.0], 3.0)?,
    ];
    let start = Instant::now();
    let mut data =
        DataGenerator::new(DataSpec::GaussianMixture { components }, seed).generate(records)?;
    let gen_s = start.elapsed().as_secs_f64();
    data.sort_by(|a, b| a.value(1).total_cmp(&b.value(1)));
    let mut cluster = StorageCluster::with_replication(NODES, BLOCK_RECORDS);
    let partitioning = Partitioning::Range {
        dim: 0,
        splits: Partitioning::equi_width_splits(0.0, 100.0, NODES),
    };
    let start = Instant::now();
    cluster.load_table("g", data, partitioning)?;
    Ok(Table {
        cluster,
        name: "g",
        gen_s,
        load_s: start.elapsed().as_secs_f64(),
    })
}
