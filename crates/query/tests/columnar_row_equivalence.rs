//! Property tests pinning the columnar layout to the row layout, bit
//! for bit.
//!
//! The storage refactor replaced row-major blocks with per-dimension
//! column arrays and rewrote every descriptive-statistics kernel as a
//! masked slice fold. The contract is that this is *only* a layout
//! change: every aggregate computed through selection bitmaps over
//! columns must produce exactly the float-op sequence of a row-at-a-time
//! loop over the same records — including blocks with NaN/missing
//! values and all-NaN columns — and the executor's
//! answers must not depend on the pool size (`SEA_EXEC_THREADS`
//! equivalents 1/2/8).

use proptest::prelude::*;
use sea_common::{
    kernels, AggregateKind, AnalyticalQuery, AnswerValue, Ball, BivariateStats, Point, Record,
    Rect, Region,
};
use sea_query::{ExecPool, Executor, RetryPolicy};
use sea_storage::{Block, FaultPlan, Partitioning, StorageCluster};

const DIMS: usize = 2;

/// A coordinate that is occasionally NaN, so validity bitmaps and
/// NaN-rejecting predicates get exercised.
fn coord() -> impl Strategy<Value = f64> {
    (0u8..9, -100.0..100.0f64).prop_map(|(k, v)| if k == 0 { f64::NAN } else { v })
}

/// Up to ~120 records of [`DIMS`] coordinates (possibly none — an
/// empty table, which a cluster refuses).
fn rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(coord(), DIMS..DIMS + 1), 0..120)
}

/// A query rectangle with sorted per-dimension bounds inside the data
/// domain.
fn rect() -> impl Strategy<Value = Rect> {
    prop::collection::vec((-100.0..100.0f64, -100.0..100.0f64), DIMS..DIMS + 1).prop_map(|bounds| {
        let lo = bounds.iter().map(|(a, b)| a.min(*b)).collect();
        let hi = bounds.iter().map(|(a, b)| a.max(*b)).collect();
        Rect::new(lo, hi).expect("sorted finite bounds")
    })
}

/// A coin flip: whether to overwrite dimension 1 with NaN everywhere
/// (the all-NaN column case), or whether to install a fault plan.
fn coin() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn records_from(rows: Vec<Vec<f64>>, nan_col: bool) -> Vec<Record> {
    rows.into_iter()
        .enumerate()
        .map(|(i, mut vals)| {
            if nan_col {
                vals[1] = f64::NAN;
            }
            Record::new(i as u64, vals)
        })
        .collect()
}

/// The one block a one-node cluster stores `records` (at least one) in.
fn block_of(records: &[Record]) -> Block {
    let mut cluster = StorageCluster::new(1, records.len());
    cluster
        .load_table("t", records.to_vec(), Partitioning::Hash)
        .unwrap();
    cluster.serving_node("t", 0).unwrap().0.blocks()[0].clone()
}

/// Every aggregate the executor supports, exercising both dimensions.
fn all_aggregates() -> Vec<AggregateKind> {
    vec![
        AggregateKind::Count,
        AggregateKind::Sum { dim: 0 },
        AggregateKind::Sum { dim: 1 },
        AggregateKind::Mean { dim: 0 },
        AggregateKind::Variance { dim: 1 },
        AggregateKind::Min { dim: 0 },
        AggregateKind::Max { dim: 1 },
        AggregateKind::Median { dim: 0 },
        AggregateKind::Quantile { dim: 1, q: 0.25 },
        AggregateKind::Correlation { x: 0, y: 1 },
        AggregateKind::Regression { x: 0, y: 1 },
    ]
}

proptest! {
    /// The region mask selects exactly the rows a row-at-a-time
    /// `contains_record` filter selects, in the same order — for both
    /// rectangular and ball regions.
    #[test]
    fn region_mask_matches_row_filter(rows in rows(), r in rect(), nan_col in coin()) {
        let records = records_from(rows, nan_col);
        if records.is_empty() {
            return Ok(());
        }
        let block = block_of(&records);
        let ball = Region::Radius(Ball::new(r.center(), 40.0).unwrap());
        for region in [Region::Range(r), ball] {
            let want: Vec<usize> = records
                .iter()
                .enumerate()
                .filter(|(_, rec)| region.contains_record(rec))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(block.region_mask(&region).to_indices(), want);
        }
    }

    /// Every kernel fold over masked columns reproduces the row loop's
    /// float-op sequence bit for bit: sums, Welford moments, min/max,
    /// gathered quantile inputs, and bivariate sufficient statistics.
    #[test]
    fn columnar_kernels_match_row_folds(rows in rows(), r in rect(), nan_col in coin()) {
        let records = records_from(rows, nan_col);
        if records.is_empty() {
            return Ok(());
        }
        let block = block_of(&records);
        let region = Region::Range(r);
        let mask = block.region_mask(&region);
        let selected: Vec<&Record> = records
            .iter()
            .filter(|rec| region.contains_record(rec))
            .collect();

        for dim in 0..DIMS {
            // Count + sum + sum of squares.
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            kernels::fold_sum_sq(block.col(dim), &mask, &mut sum, &mut sum_sq);
            let (mut rsum, mut rsum_sq) = (0.0f64, 0.0f64);
            for rec in &selected {
                let v = rec.value(dim);
                rsum += v;
                rsum_sq += v * v;
            }
            prop_assert_eq!(sum.to_bits(), rsum.to_bits());
            prop_assert_eq!(sum_sq.to_bits(), rsum_sq.to_bits());

            // Welford moments.
            let (mut count, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
            kernels::fold_welford(block.col(dim), &mask, &mut count, &mut mean, &mut m2);
            let (mut rcount, mut rmean, mut rm2) = (0u64, 0.0f64, 0.0f64);
            for rec in &selected {
                let v = rec.value(dim);
                rcount += 1;
                let delta = v - rmean;
                rmean += delta / rcount as f64;
                rm2 += delta * (v - rmean);
            }
            prop_assert_eq!(count, rcount);
            prop_assert_eq!(mean.to_bits(), rmean.to_bits());
            prop_assert_eq!(m2.to_bits(), rm2.to_bits());

            // Min/max.
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            kernels::fold_min_max(block.col(dim), &mask, &mut min, &mut max);
            let (mut rmin, mut rmax) = (f64::INFINITY, f64::NEG_INFINITY);
            for rec in &selected {
                rmin = rmin.min(rec.value(dim));
                rmax = rmax.max(rec.value(dim));
            }
            prop_assert_eq!(min.to_bits(), rmin.to_bits());
            prop_assert_eq!(max.to_bits(), rmax.to_bits());

            // Quantile inputs (value gathering in record order).
            let mut gathered = Vec::new();
            kernels::gather(block.col(dim), &mask, &mut gathered);
            let row_vals: Vec<f64> = selected.iter().map(|rec| rec.value(dim)).collect();
            prop_assert_eq!(gathered.len(), row_vals.len());
            for (a, b) in gathered.iter().zip(&row_vals) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Bivariate sufficient statistics (correlation/regression).
        let mut stats = BivariateStats::default();
        kernels::fold_bivariate(block.col(0), block.col(1), &mask, &mut stats);
        let rstats = BivariateStats::from_records(selected.iter().copied(), 0, 1);
        prop_assert_eq!(stats.n, rstats.n);
        prop_assert_eq!(stats.sum_x.to_bits(), rstats.sum_x.to_bits());
        prop_assert_eq!(stats.sum_y.to_bits(), rstats.sum_y.to_bits());
        prop_assert_eq!(stats.sum_xx.to_bits(), rstats.sum_xx.to_bits());
        prop_assert_eq!(stats.sum_yy.to_bits(), rstats.sum_yy.to_bits());
        prop_assert_eq!(stats.sum_xy.to_bits(), rstats.sum_xy.to_bits());
    }

    /// On a single node there is no cross-node merge, so the executor's
    /// columnar answer must be bit-identical to the row-layout oracle
    /// ([`AnalyticalQuery::answer_exact`]) for every aggregate — with
    /// the one documented exception that the executor clamps a
    /// rounding-negative variance to zero. Healthy and faulted clusters
    /// share the scan path, so the same must hold under a fault plan
    /// whose transients (no crash) are all ridden out by retries.
    #[test]
    fn one_node_executor_matches_row_oracle(
        rows in rows(),
        r in rect(),
        nan_col in coin(),
        fault_seed in 0..1_000u64,
        faulted in coin(),
    ) {
        let records = records_from(rows, nan_col);
        if records.is_empty() {
            return Ok(());
        }
        let mut cluster = StorageCluster::new(1, 16);
        cluster.load_table("t", records.clone(), Partitioning::Hash).unwrap();
        if faulted {
            cluster.set_fault_plan(
                FaultPlan::new(fault_seed).with_transient(0.3, 2).with_slow_node(0, 2.0),
            );
        }
        // Enough retries that no run of transients outlasts them.
        let exec = Executor::new(&cluster).with_retry_policy(RetryPolicy {
            max_retries: 64,
            backoff_base_us: 1,
        });
        for agg in all_aggregates() {
            let q = AnalyticalQuery::new(Region::Range(r.clone()), agg);
            let got = exec.execute_direct("t", &q);
            let want = q.answer_exact(&records);
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    let same = match (&g.answer, &w) {
                        (AnswerValue::Scalar(a), AnswerValue::Scalar(b)) => {
                            a.to_bits() == b.to_bits()
                                || (matches!(q.aggregate, AggregateKind::Variance { .. })
                                    && *b <= 0.0
                                    && *a == 0.0)
                        }
                        (AnswerValue::Pair(a1, a2), AnswerValue::Pair(b1, b2)) => {
                            a1.to_bits() == b1.to_bits() && a2.to_bits() == b2.to_bits()
                        }
                        _ => false,
                    };
                    prop_assert!(
                        same,
                        "{:?}: columnar {:?} != row oracle {:?}",
                        q.aggregate, g.answer, w
                    );
                }
                (Err(_), Err(_)) => {}
                (g, w) => prop_assert!(
                    false,
                    "{:?}: divergent fallibility: exec {:?} oracle {:?}",
                    q.aggregate,
                    g.map(|o| o.answer),
                    w
                ),
            }
        }
    }

    /// Answers, cost reports, and scan statistics are identical for
    /// pool sizes 1, 2, and 8 (the `SEA_EXEC_THREADS` settings), for
    /// both single-query and batch execution — the per-copy pool items
    /// and the batch's shared superset scan are invisible.
    #[test]
    fn outcomes_do_not_depend_on_pool_size(rows in rows(), r in rect(), nan_col in coin()) {
        let records = records_from(rows, nan_col);
        if records.is_empty() {
            return Ok(());
        }
        let mut cluster = StorageCluster::new(3, 16);
        cluster
            .load_table(
                "t",
                records,
                Partitioning::Range {
                    dim: 0,
                    splits: Partitioning::equi_width_splits(-100.0, 100.0, 3),
                },
            )
            .unwrap();
        let mk = |r: &Rect, agg: AggregateKind| AnalyticalQuery::new(Region::Range(r.clone()), agg);
        let shifted = Rect::centered(&Point::new(r.center().coords().to_vec()), &[30.0, 30.0]).unwrap();
        let queries = vec![
            mk(&r, AggregateKind::Count),
            mk(&shifted, AggregateKind::Sum { dim: 1 }),
            mk(&r, AggregateKind::Variance { dim: 0 }),
        ];
        let reference: Vec<String> = {
            let exec = Executor::new(&cluster).with_pool(ExecPool::sequential());
            queries
                .iter()
                .map(|q| format!("{:?}", exec.execute_direct("t", q).map(|o| (o.answer, o.cost))))
                .collect()
        };
        for threads in [1usize, 2, 8] {
            let exec = Executor::new(&cluster).with_pool(ExecPool::new(threads));
            let direct: Vec<String> = queries
                .iter()
                .map(|q| format!("{:?}", exec.execute_direct("t", q).map(|o| (o.answer, o.cost))))
                .collect();
            prop_assert_eq!(&direct, &reference);
            let batch: Vec<String> = exec
                .execute_batch("t", &queries)
                .into_iter()
                .map(|res| format!("{:?}", res.map(|o| (o.answer, o.cost))))
                .collect();
            prop_assert_eq!(&batch, &reference);
        }
    }
}
