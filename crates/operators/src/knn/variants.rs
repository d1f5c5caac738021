//! The kNN join (RT2-1).
//!
//! Built on the coordinator–cohort primitive
//! ([`DistributedKnnIndex`]); the per-probe queries of a join are
//! independent, so they are fanned out across the workspace's one
//! thread pool ([`ExecPool`]) — the coordinator-side parallelism a real
//! deployment would use.

use sea_common::{Point, Result, SeaError};
use sea_query::ExecPool;

use super::DistributedKnnIndex;
use crate::index::kdtree::Neighbor;

/// kNN join: for every probe point, its k nearest records. Probes are
/// processed in `threads` contiguous chunks on an [`ExecPool`] of that
/// budget; results come back in probe order whatever ran where.
///
/// # Errors
///
/// Zero `k` or `threads`, or dimension mismatches.
pub fn knn_join(
    index: &DistributedKnnIndex,
    probes: &[Point],
    k: usize,
    threads: usize,
) -> Result<Vec<Vec<Neighbor>>> {
    if threads == 0 {
        return Err(SeaError::invalid("threads must be positive"));
    }
    if k == 0 {
        return Err(SeaError::invalid("k must be positive"));
    }
    for p in probes {
        SeaError::check_dims(index.dims(), p.dims())?;
    }
    let chunks: Vec<&[Point]> = probes
        .chunks(probes.len().div_ceil(threads).max(1))
        .collect();
    let answered = ExecPool::new(threads).run(chunks.len(), |c| {
        (chunks[c].iter())
            .map(|p| index.query(p, k).map(|o| o.neighbors))
            .collect::<Result<Vec<_>>>()
    });
    let mut out = Vec::with_capacity(probes.len());
    for chunk in answered {
        out.extend(chunk?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::Record;
    use sea_query::Executor;
    use sea_storage::{Partitioning, StorageCluster};

    fn setup() -> (StorageCluster, DistributedKnnIndex) {
        let mut c = StorageCluster::new(4, 128);
        let records: Vec<Record> = (0..2500)
            .map(|i| Record::new(i, vec![(i % 50) as f64, (i / 50) as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let idx = DistributedKnnIndex::build(&Executor::new(&c), "t").unwrap();
        (c, idx)
    }

    #[test]
    fn knn_join_answers_every_probe() {
        let (_c, idx) = setup();
        let probes: Vec<Point> = (0..20)
            .map(|i| Point::new(vec![i as f64 * 2.0, i as f64]))
            .collect();
        let out = knn_join(&idx, &probes, 5, 4).unwrap();
        assert_eq!(out.len(), 20);
        for (probe, neighbors) in probes.iter().zip(&out) {
            assert_eq!(neighbors.len(), 5);
            // Nearest neighbour of a lattice point is itself (distance 0).
            if probe.coord(0) < 50.0 && probe.coord(1) < 50.0 {
                assert!(neighbors[0].distance < 1e-9);
            }
        }
    }

    #[test]
    fn knn_join_parallelism_is_equivalent() {
        let (_c, idx) = setup();
        let probes: Vec<Point> = (0..16)
            .map(|i| Point::new(vec![i as f64 * 3.0, 25.0]))
            .collect();
        let serial = knn_join(&idx, &probes, 3, 1).unwrap();
        let parallel = knn_join(&idx, &probes, 3, 8).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            let da: Vec<f64> = a.iter().map(|n| n.distance).collect();
            let db: Vec<f64> = b.iter().map(|n| n.distance).collect();
            assert_eq!(da, db);
        }
    }

    #[test]
    fn validations() {
        let (_c, idx) = setup();
        let probes = vec![Point::new(vec![0.0, 0.0])];
        assert!(knn_join(&idx, &probes, 0, 2).is_err());
        assert!(knn_join(&idx, &probes, 5, 0).is_err());
        let bad = vec![Point::new(vec![0.0])];
        assert!(knn_join(&idx, &bad, 5, 2).is_err());
    }
}
