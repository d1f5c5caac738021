//! Missing-value **imputation** (P3, fourth bullet; \[36\]): each `NaN`
//! takes the mean of the k nearest donors (distance over the observed
//! dimensions), read in place from the scan's block views.
//! [`fullscan_impute`] compares every probe with the whole table;
//! [`GridImputer`] fetches donors only from the grid cells around a
//! probe's observed values.

use sea_common::{CostMeter, CostReport, ExecMode, Record, Rect, Result, SeaError};
use sea_query::Executor;
use sea_storage::Block;

use crate::nearest_first;

/// The outcome of imputing a batch of incomplete records.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputationOutcome {
    /// The records with `NaN` values replaced (order preserved; records
    /// with no usable donors keep their `NaN`s).
    pub imputed: Vec<Record>,
    /// Resource bill.
    pub cost: CostReport,
    /// Candidate comparisons performed (the surgical-access metric).
    pub candidates_examined: u64,
}

/// A stored row a probe may borrow from, read in place: (block, row).
type Donor<'c> = (&'c Block, usize);

/// Distance over the dimensions observed in `probe` (ignoring its NaNs)
/// to `donor`, read off the donor block's columns. Returns `None` when
/// no dimension is observed.
fn observed_distance(probe: &Record, (block, row): Donor) -> Option<f64> {
    let mut acc = 0.0;
    let mut n = 0;
    for (a, col) in probe.values.iter().zip(block.cols()) {
        let b = col[row];
        if a.is_nan() || b.is_nan() {
            continue;
        }
        acc += (a - b) * (a - b);
        n += 1;
    }
    (n > 0).then(|| acc.sqrt())
}

/// Compares `probe` with every donor (counting the comparisons that
/// produced a distance into `examined`), then fills its NaN dimensions
/// with the mean of the k nearest.
fn impute_one(probe: &Record, donors: &[Donor], k: usize, examined: &mut u64) -> Record {
    let mut near: Vec<(Donor, f64)> = (donors.iter())
        .filter_map(|&d| observed_distance(probe, d).map(|dist| (d, dist)))
        .collect();
    *examined += near.len() as u64;
    // Equidistant donors truncate to the same k-set whatever the input
    // order.
    near.sort_by(nearest_first(|((block, row), dist): &(Donor, f64)| {
        (*dist, block.ids()[*row])
    }));
    near.truncate(k);
    let mut out = probe.clone();
    for d in 0..out.values.len() {
        if out.values[d].is_nan() {
            let usable: Vec<f64> = (near.iter())
                .map(|((block, row), _)| block.col(d)[*row])
                .filter(|v| !v.is_nan())
                .collect();
            if !usable.is_empty() {
                out.values[d] = usable.iter().sum::<f64>() / usable.len() as f64;
            }
        }
    }
    out
}

/// Baseline: impute each incomplete record by scanning the complete table
/// fully through the BDAS stack, once per batch, comparing every probe
/// against every stored record. A partition that could not be read
/// (partial-answer mode) lends no donors and labels the report partial.
///
/// # Errors
///
/// Missing table, `k == 0`, dimension mismatch, or an unreadable
/// partition.
pub fn fullscan_impute(
    exec: &Executor,
    table: &str,
    incomplete: &[Record],
    k: usize,
) -> Result<ImputationOutcome> {
    if k == 0 {
        return Err(SeaError::invalid("k must be positive"));
    }
    let dims = exec.cluster().dims(table)?;
    for r in incomplete {
        SeaError::check_dims(dims, r.dims())?;
    }
    let mut donors: Vec<Donor> = Vec::new();
    let scatter = exec.scatter(table, None, ExecMode::Bdas, |_, views, meter| {
        let stored = donors.len();
        for v in views {
            v.mask.for_each_set(|i| donors.push((v.block, i)));
        }
        // Every probe × every record comparison happens node-side.
        let rows = (donors.len() - stored) as u64;
        meter.charge_cpu(rows * incomplete.len() as u64);
        meter.charge_lan(64);
        Ok(())
    })?;
    let mut examined = 0u64;
    let imputed = (incomplete.iter())
        .map(|probe| impute_one(probe, &donors, k, &mut examined))
        .collect();
    Ok(ImputationOutcome {
        imputed,
        cost: scatter.report(&CostMeter::new()),
        candidates_examined: examined,
    })
}

/// The scalable grid-partitioned imputer.
#[derive(Debug, Clone)]
pub struct GridImputer {
    domain: Rect,
    cells_per_dim: usize,
}

impl GridImputer {
    /// Creates an imputer that fetches donors from grid-cell-sized
    /// neighbourhoods of the observed attributes.
    ///
    /// # Errors
    ///
    /// Zero `cells_per_dim`.
    pub fn new(domain: Rect, cells_per_dim: usize) -> Result<Self> {
        if cells_per_dim == 0 {
            return Err(SeaError::invalid("cells_per_dim must be positive"));
        }
        Ok(GridImputer {
            domain,
            cells_per_dim,
        })
    }

    /// The donor-fetch region of one probe: observed dimensions are
    /// constrained to ± one cell width around the observed value; missing
    /// dimensions span the whole domain. `None` when an observed value's
    /// window misses the domain (more than a cell outside it, or ±inf):
    /// no donor lies there.
    fn donor_region(&self, probe: &Record) -> Result<Option<Rect>> {
        SeaError::check_dims(self.domain.dims(), probe.dims())?;
        let mut lo = self.domain.lo().to_vec();
        let mut hi = self.domain.hi().to_vec();
        for d in 0..probe.dims() {
            let v = probe.value(d);
            if v.is_nan() {
                continue;
            }
            let w = (self.domain.hi()[d] - self.domain.lo()[d]) / self.cells_per_dim as f64;
            lo[d] = (v - w).max(self.domain.lo()[d]);
            hi[d] = (v + w).min(self.domain.hi()[d]);
            if lo[d] > hi[d] {
                return Ok(None);
            }
        }
        Rect::new(lo, hi).map(Some)
    }

    /// Imputes a batch: each probe fetches donors only from its
    /// neighbourhood region via block-pruned coordinator reads; a probe
    /// whose region misses the domain engages no partition and keeps its
    /// `NaN`s. A partition read that fails (partial-answer mode) lends no
    /// donors and labels the report partial, one read of each engaged.
    ///
    /// # Errors
    ///
    /// Missing table, `k == 0`, dimension mismatch, or an unreadable
    /// partition.
    pub fn impute(
        &self,
        exec: &Executor,
        table: &str,
        incomplete: &[Record],
        k: usize,
    ) -> Result<ImputationOutcome> {
        if k == 0 {
            return Err(SeaError::invalid("k must be positive"));
        }
        let cluster = exec.cluster();
        SeaError::check_dims(cluster.dims(table)?, self.domain.dims())?;
        // Probes are independent; each data node serves its share of the
        // probe fetches sequentially while the nodes run in parallel, so
        // the batch's wall-clock is the busiest node, not the probe sum.
        let mut per_node_acc = vec![CostMeter::new(); cluster.num_nodes()];
        let (mut reads, mut unavailable) = (0, 0);
        let mut examined = 0u64;
        let mut out = Vec::with_capacity(incomplete.len());
        for probe in incomplete {
            let Some(region) = self.donor_region(probe)? else {
                out.push(probe.clone());
                continue;
            };
            let mut donors: Vec<Donor> = Vec::new();
            // The scan charges the block reads; only the donor shipment
            // is added here.
            let scatter =
                exec.scatter(table, Some(&region), ExecMode::Direct, |_, views, meter| {
                    let fetched = donors.len();
                    for v in views {
                        v.mask.for_each_set(|i| donors.push((v.block, i)));
                    }
                    meter.charge_lan((donors.len() - fetched) as u64 * 16);
                    Ok(())
                })?;
            for (node, meter) in &scatter.meters {
                per_node_acc[*node].merge(meter);
            }
            reads += scatter.meters.len();
            unavailable += scatter.unread.len();
            out.push(impute_one(probe, &donors, k, &mut examined));
        }
        let cost = CostMeter::new().report_parallel(per_node_acc.iter());
        Ok(ImputationOutcome {
            imputed: out,
            cost: cost.partial(reads, unavailable),
            candidates_examined: examined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_storage::{Partitioning, StorageCluster};

    /// Complete table where attr1 = 2·attr0 and attr2 = 100 − attr0: every
    /// missing value is exactly recoverable from neighbours.
    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 64);
        // Clustered layout: consecutive ids share x, so range partitioning
        // and block zone maps both get real locality.
        let records: Vec<Record> = (0..5000)
            .map(|i| {
                let x = (i / 50) as f64;
                Record::new(i, vec![x, 2.0 * x, 100.0 - x])
            })
            .collect();
        c.load_table(
            "t",
            records,
            Partitioning::Range {
                dim: 0,
                splits: Partitioning::equi_width_splits(0.0, 100.0, 4),
            },
        )
        .unwrap();
        c
    }

    fn probes() -> Vec<Record> {
        (0..20)
            .map(|i| {
                let x = (i * 5) as f64;
                Record::new(100_000 + i, vec![x, f64::NAN, 100.0 - x])
            })
            .collect()
    }

    #[test]
    fn fullscan_recovers_exact_values() {
        let c = cluster();
        let out = fullscan_impute(&Executor::new(&c), "t", &probes(), 5).unwrap();
        for (probe, imputed) in probes().iter().zip(&out.imputed) {
            let want = 2.0 * probe.value(0);
            assert!(
                (imputed.value(1) - want).abs() < 1e-9,
                "probe {probe:?} → {imputed:?}"
            );
            assert!(!imputed.values.iter().any(|v| v.is_nan()));
        }
    }

    #[test]
    fn grid_imputer_matches_fullscan_accuracy() {
        let c = cluster();
        let domain = Rect::new(vec![0.0, 0.0, 0.0], vec![100.0, 200.0, 100.0]).unwrap();
        let imputer = GridImputer::new(domain, 50).unwrap();
        let out = imputer
            .impute(&Executor::new(&c), "t", &probes(), 5)
            .unwrap();
        for (probe, imputed) in probes().iter().zip(&out.imputed) {
            let want = 2.0 * probe.value(0);
            assert!(
                (imputed.value(1) - want).abs() < 1e-9,
                "probe {probe:?} → {imputed:?}"
            );
        }
    }

    #[test]
    fn grid_imputer_is_much_cheaper() {
        let c = cluster();
        let domain = Rect::new(vec![0.0, 0.0, 0.0], vec![100.0, 200.0, 100.0]).unwrap();
        let imputer = GridImputer::new(domain, 50).unwrap();
        let grid = imputer
            .impute(&Executor::new(&c), "t", &probes(), 5)
            .unwrap();
        let full = fullscan_impute(&Executor::new(&c), "t", &probes(), 5).unwrap();
        assert!(
            grid.candidates_examined * 5 < full.candidates_examined,
            "grid {} vs full {}",
            grid.candidates_examined,
            full.candidates_examined
        );
        assert!(
            grid.cost.totals.records_processed < full.cost.totals.records_processed / 10,
            "grid {} vs full {}",
            grid.cost.totals.records_processed,
            full.cost.totals.records_processed
        );
    }

    #[test]
    fn donors_with_missing_values_are_skipped_for_that_dim() {
        let mut c = StorageCluster::new(2, 16);
        let records = vec![
            Record::new(0, vec![1.0, f64::NAN]),
            Record::new(1, vec![1.0, 10.0]),
            Record::new(2, vec![1.2, 12.0]),
        ];
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let probe = vec![Record::new(9, vec![1.1, f64::NAN])];
        let out = fullscan_impute(&Executor::new(&c), "t", &probe, 3).unwrap();
        let v = out.imputed[0].value(1);
        assert!((v - 11.0).abs() < 1e-9, "mean of usable donors: {v}");
    }

    #[test]
    fn unimputable_record_keeps_nan() {
        let mut c = StorageCluster::new(2, 16);
        let records = vec![
            Record::new(0, vec![1.0, f64::NAN]),
            Record::new(1, vec![2.0, f64::NAN]),
        ];
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let probe = vec![Record::new(9, vec![1.5, f64::NAN])];
        let out = fullscan_impute(&Executor::new(&c), "t", &probe, 2).unwrap();
        assert!(out.imputed[0].value(1).is_nan(), "no donor has the value");
    }

    #[test]
    fn equidistant_donors_break_ties_by_id() {
        // Two donors at the same distance but different values: the id
        // tie-break makes the k=1 choice deterministic regardless of the
        // order the scan returned them in.
        let mut c = StorageCluster::new(2, 16);
        let records = vec![
            Record::new(5, vec![2.0, 20.0]),
            Record::new(3, vec![0.0, 30.0]),
        ];
        c.load_table("t", records, Partitioning::Hash).unwrap();
        let probe = vec![Record::new(9, vec![1.0, f64::NAN])];
        let out = fullscan_impute(&Executor::new(&c), "t", &probe, 1).unwrap();
        let v = out.imputed[0].value(1);
        assert!((v - 30.0).abs() < 1e-9, "lowest-id donor wins the tie: {v}");
    }

    #[test]
    fn a_probe_outside_the_domain_keeps_its_nans_and_spares_the_batch() {
        let c = cluster();
        let exec = Executor::new(&c);
        let domain = Rect::new(vec![0.0, 0.0, 0.0], vec![100.0, 205.0, 100.0]).unwrap();
        let imputer = GridImputer::new(domain, 50).unwrap();
        let inside = Record::new(1, vec![40.0, f64::NAN, 60.0]);
        let batch = [
            inside.clone(),
            Record::new(2, vec![150.0, f64::NAN, 50.0]),
            Record::new(3, vec![f64::INFINITY, f64::NAN, 50.0]),
        ];
        let out = imputer.impute(&exec, "t", &batch, 5).unwrap();
        let alone = imputer.impute(&exec, "t", &[inside], 5).unwrap();
        assert_eq!(out.imputed[0], alone.imputed[0]);
        assert_eq!(out.candidates_examined, alone.candidates_examined);
        assert!(out.imputed[1].value(1).is_nan());
        assert!(out.imputed[2].value(1).is_nan());
    }

    #[test]
    fn validations() {
        let c = cluster();
        assert!(fullscan_impute(&Executor::new(&c), "t", &probes(), 0).is_err());
        assert!(fullscan_impute(&Executor::new(&c), "missing", &probes(), 5).is_err());
        let bad = vec![Record::new(0, vec![1.0])];
        assert!(fullscan_impute(&Executor::new(&c), "t", &bad, 5).is_err());
        let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        assert!(GridImputer::new(domain, 0).is_err());
    }
}
