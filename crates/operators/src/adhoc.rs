//! Ad hoc ML tasks over analyst-defined subspaces (RT2-2).
//!
//! "Analysts are to define (using selection operators …) subspaces of
//! interest and ask for the data items within these subspaces to be
//! clustered, classified, or to perform regressions". These operators
//! fetch the subspace surgically (partition + zone-map pruning through
//! the direct path, [`Executor::scatter`]) and then run the ML
//! routine coordinator-side, charging both phases to the returned
//! [`sea_common::CostReport`].

use std::cmp::Reverse;
use std::collections::HashMap;

use sea_common::{CostMeter, CostReport, ExecMode, Record, Region, Result, SeaError};
use sea_ml::linreg::LinearModel;
use sea_ml::quantize::KMeans;
use sea_query::Executor;

/// An ad hoc ML result plus its resource bill.
#[derive(Debug, Clone)]
pub struct AdHocOutcome<T> {
    /// The task's output.
    pub output: T,
    /// What producing it cost.
    pub cost: CostReport,
    /// Records the subspace contained.
    pub records_in_subspace: usize,
}

/// Runs `task` coordinator-side over the records inside `region`,
/// fetched via the surgical path, and bills both phases: each engaged
/// node's scan and shipment beside the coordinator's `task` work,
/// labelled partial for a partition that could not be read. The
/// subspace ships as rows on purpose: the `sea-ml` routines take rows.
fn on_subspace<T>(
    exec: &Executor,
    table: &str,
    region: &Region,
    task: impl FnOnce(&[Record], &mut CostMeter) -> Result<T>,
) -> Result<AdHocOutcome<T>> {
    let bbox = region.bounding_rect();
    let mut selected = Vec::new();
    let scatter = exec.scatter(table, Some(&bbox), ExecMode::Direct, |_, views, meter| {
        let shipped = selected.len();
        for view in views {
            let mut hits = view.block.region_mask(region);
            hits.intersect(&view.mask);
            hits.for_each_set(|i| selected.push(view.block.record(i)));
        }
        meter.charge_lan(selected[shipped..].iter().map(Record::storage_bytes).sum());
        Ok(())
    })?;
    let mut coord = CostMeter::new();
    let output = task(&selected, &mut coord)?;
    Ok(AdHocOutcome {
        output,
        cost: scatter.report(&coord),
        records_in_subspace: selected.len(),
    })
}

/// A record's attribute values, attribute `dim` left out.
fn without(r: &Record, dim: usize) -> Vec<f64> {
    (r.values.iter().enumerate())
        .filter(|(d, _)| *d != dim)
        .map(|(_, v)| *v)
        .collect()
}

/// Clusters the records inside `region` into `k` groups (Lloyd k-means on
/// all attributes). Returns the centroids.
///
/// # Errors
///
/// Empty subspace, `k == 0`, or missing table.
pub fn cluster_subspace(
    exec: &Executor,
    table: &str,
    region: &Region,
    k: usize,
) -> Result<AdHocOutcome<KMeans>> {
    on_subspace(exec, table, region, |records, coord| {
        if records.is_empty() {
            return Err(SeaError::Empty("clustering an empty subspace".into()));
        }
        let points: Vec<Vec<f64>> = records.iter().map(|r| r.values.clone()).collect();
        // Lloyd iterations: ~20 passes over the subspace.
        coord.charge_cpu(20 * points.len() as u64);
        KMeans::fit(&points, k, 20)
    })
}

/// Fits a multivariate OLS regression of attribute `target_dim` on all
/// other attributes, over the records inside `region`. Returns the fitted
/// linear model (weights ordered by attribute index, skipping the target).
///
/// # Errors
///
/// Empty subspace, singular design, or missing table.
pub fn regress_subspace(
    exec: &Executor,
    table: &str,
    region: &Region,
    target_dim: usize,
) -> Result<AdHocOutcome<LinearModel>> {
    let dims = exec.cluster().dims(table)?;
    if target_dim >= dims {
        return Err(SeaError::invalid(format!(
            "target dim {target_dim} out of range for {dims}-dim table"
        )));
    }
    on_subspace(exec, table, region, |records, coord| {
        if records.len() < 2 {
            return Err(SeaError::Empty(
                "regression needs at least 2 records".into(),
            ));
        }
        let xs: Vec<Vec<f64>> = records.iter().map(|r| without(r, target_dim)).collect();
        let ys: Vec<f64> = records.iter().map(|r| r.value(target_dim)).collect();
        coord.charge_cpu(xs.len() as u64);
        LinearModel::fit(&xs, &ys, 1e-9)
    })
}

/// Classifies `probes` by majority vote of their `k` nearest records
/// inside `region`, where attribute `label_dim` carries an integral class
/// label. Distances use all attributes except `label_dim`.
///
/// # Errors
///
/// Empty subspace, `k == 0`, or dimension mismatches.
pub fn classify_subspace(
    exec: &Executor,
    table: &str,
    region: &Region,
    label_dim: usize,
    probes: &[Vec<f64>],
    k: usize,
) -> Result<AdHocOutcome<Vec<i64>>> {
    if k == 0 {
        return Err(SeaError::invalid("k must be positive"));
    }
    let dims = exec.cluster().dims(table)?;
    if label_dim >= dims {
        return Err(SeaError::invalid("label dim out of range"));
    }
    for p in probes {
        SeaError::check_dims(dims - 1, p.len())?;
    }
    on_subspace(exec, table, region, |records, coord| {
        if records.is_empty() {
            return Err(SeaError::Empty(
                "classification over an empty subspace".into(),
            ));
        }
        coord.charge_cpu(records.len() as u64 * probes.len() as u64);
        let mut labels = Vec::with_capacity(probes.len());
        for p in probes {
            let mut dists: Vec<(f64, i64)> = records
                .iter()
                .map(|r| {
                    let f = without(r, label_dim);
                    let d: f64 = f.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                    (d, r.value(label_dim).round() as i64)
                })
                .collect();
            let kk = k.min(dists.len());
            // total_cmp (NaN-safe) with a label tie-break so equidistant
            // candidates partition deterministically.
            dists.select_nth_unstable_by(kk - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Majority vote over the k nearest, ties to the lower label.
            let mut votes: HashMap<i64, usize> = HashMap::new();
            for (_, label) in &dists[..kk] {
                *votes.entry(*label).or_default() += 1;
            }
            let winner = votes
                .into_iter()
                .max_by_key(|&(label, n)| (n, Reverse(label)))
                .ok_or_else(|| SeaError::Empty("no neighbours to vote".into()))?;
            labels.push(winner.0);
        }
        Ok(labels)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::Rect;
    use sea_storage::{Partitioning, StorageCluster};

    /// Records: attr0, attr1 spatial; attr2 = 3·attr0 − attr1 + 2; attr3 =
    /// class label (0 left half, 1 right half).
    fn cluster_with_data() -> StorageCluster {
        let mut c = StorageCluster::new(4, 256);
        let records: Vec<Record> = (0..8_000)
            .map(|i| {
                let x = (i % 100) as f64;
                let y = (i / 100) as f64;
                let target = 3.0 * x - y + 2.0;
                let label = if x < 50.0 { 0.0 } else { 1.0 };
                Record::new(i as u64, vec![x, y, target, label])
            })
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn whole_region() -> Region {
        Region::Range(Rect::new(vec![0.0, 0.0, -1e6, -1.0], vec![100.0, 100.0, 1e6, 2.0]).unwrap())
    }

    #[test]
    fn kmeans_finds_the_two_label_blobs() {
        let c = cluster_with_data();
        let exec = Executor::new(&c);
        // Subspace: a thin y-stripe so the two x-halves form two clear blobs.
        let region = Region::Range(
            Rect::new(vec![0.0, 0.0, -1e6, -1.0], vec![100.0, 5.0, 1e6, 2.0]).unwrap(),
        );
        let out = cluster_subspace(&exec, "t", &region, 2).unwrap();
        assert!(out.records_in_subspace > 100);
        let mut xs: Vec<f64> = out.output.centroids().iter().map(|c| c[0]).collect();
        xs.sort_by(f64::total_cmp);
        assert!(xs[0] < 50.0 && xs[1] >= 40.0, "separated blobs: {xs:?}");
        assert!(out.cost.wall_us > 0.0);
    }

    #[test]
    fn regression_recovers_plane() {
        let c = cluster_with_data();
        let exec = Executor::new(&c);
        let out = regress_subspace(&exec, "t", &whole_region(), 2).unwrap();
        // Features are [x, y, label] (target attr2 removed); true plane has
        // weights [3, −1, 0] and intercept 2 (label is redundant with x but
        // ridge keeps it tame).
        let w = out.output.weights();
        assert!((w[0] - 3.0).abs() < 0.05, "{w:?}");
        assert!((w[1] + 1.0).abs() < 0.05, "{w:?}");
        assert!((out.output.intercept() - 2.0).abs() < 1.0);
    }

    #[test]
    fn classification_labels_probes() {
        let c = cluster_with_data();
        let exec = Executor::new(&c);
        // Probe features exclude the label dim: [x, y, target].
        let probes = vec![
            vec![10.0, 10.0, 3.0 * 10.0 - 10.0 + 2.0],
            vec![90.0, 10.0, 3.0 * 90.0 - 10.0 + 2.0],
        ];
        let out = classify_subspace(&exec, "t", &whole_region(), 3, &probes, 5).unwrap();
        assert_eq!(out.output, vec![0, 1]);
    }

    #[test]
    fn narrow_subspace_is_cheaper_than_wide() {
        let c = cluster_with_data();
        let exec = Executor::new(&c);
        let narrow = Region::Range(
            Rect::new(vec![40.0, 40.0, -1e6, -1.0], vec![60.0, 60.0, 1e6, 2.0]).unwrap(),
        );
        let a = cluster_subspace(&exec, "t", &narrow, 2).unwrap();
        let b = cluster_subspace(&exec, "t", &whole_region(), 2).unwrap();
        assert!(a.records_in_subspace < b.records_in_subspace);
        assert!(a.cost.totals.records_processed < b.cost.totals.records_processed);
    }

    #[test]
    fn nan_probes_classify_without_panicking() {
        let c = cluster_with_data();
        let exec = Executor::new(&c);
        // Every distance to a NaN probe is NaN; total_cmp + the label
        // tie-break still produce a deterministic majority vote.
        let probes = vec![vec![f64::NAN, 10.0, 30.0]];
        let out = classify_subspace(&exec, "t", &whole_region(), 3, &probes, 5).unwrap();
        assert_eq!(out.output.len(), 1);
        let again = classify_subspace(&exec, "t", &whole_region(), 3, &probes, 5).unwrap();
        assert_eq!(out.output, again.output);
    }

    #[test]
    fn validations() {
        let c = cluster_with_data();
        let exec = Executor::new(&c);
        let empty = Region::Range(
            Rect::new(vec![-10.0, -10.0, 0.0, 0.0], vec![-5.0, -5.0, 1.0, 1.0]).unwrap(),
        );
        assert!(cluster_subspace(&exec, "t", &empty, 2).is_err());
        // Empty subspace: typed error, not a select_nth underflow panic.
        assert!(matches!(
            classify_subspace(&exec, "t", &empty, 3, &[vec![1.0; 3]], 5),
            Err(sea_common::SeaError::Empty(_))
        ));
        assert!(regress_subspace(&exec, "t", &whole_region(), 9).is_err());
        assert!(classify_subspace(&exec, "t", &whole_region(), 3, &[vec![1.0]], 5).is_err());
        assert!(classify_subspace(&exec, "t", &whole_region(), 3, &[vec![1.0; 3]], 0).is_err());
    }
}
