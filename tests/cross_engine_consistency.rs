//! Property-based cross-engine consistency: for arbitrary selection
//! regions and aggregates, every exact engine (BDAS, direct, index-fetch)
//! must return the same answer as the in-memory oracle, and every access
//! structure must agree with brute force.

use proptest::prelude::*;

use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, Point, Record, Rect, Region};
use sea_operators::{ExecutionEngines, GridIndex, KdTree, QueryStrategy};
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};

/// A deterministic, modest dataset shared by the properties.
fn dataset() -> Vec<Record> {
    (0u64..4_000)
        .map(|i| {
            let x = (i % 200) as f64 / 2.0;
            let y = ((i.wrapping_mul(2654435761)) % 1000) as f64 / 10.0;
            Record::new(i, vec![x, y])
        })
        .collect()
}

fn cluster() -> StorageCluster {
    let mut c = StorageCluster::new(4, 64);
    c.load_table("t", dataset(), Partitioning::Hash).unwrap();
    c
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..40.0, 1.0f64..40.0)
        .prop_map(|(lx, ly, w, h)| Rect::new(vec![lx, ly], vec![lx + w, ly + h]).unwrap())
}

fn arb_aggregate() -> impl Strategy<Value = AggregateKind> {
    prop_oneof![
        Just(AggregateKind::Count),
        Just(AggregateKind::Sum { dim: 0 }),
        Just(AggregateKind::Mean { dim: 1 }),
        Just(AggregateKind::Variance { dim: 0 }),
        Just(AggregateKind::Min { dim: 1 }),
        Just(AggregateKind::Max { dim: 0 }),
        Just(AggregateKind::Median { dim: 1 }),
        Just(AggregateKind::Correlation { x: 0, y: 1 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_engines_agree_with_oracle(rect in arb_rect(), agg in arb_aggregate()) {
        let c = cluster();
        let exec = Executor::new(&c);
        let q = AnalyticalQuery::new(Region::Range(rect), agg);
        let oracle = q.answer_exact(&dataset());
        let bdas = exec.execute_bdas("t", &q);
        let direct = exec.execute_direct("t", &q);
        match oracle {
            Ok(want) => {
                let b = bdas.unwrap().answer;
                let d = direct.unwrap().answer;
                prop_assert!(b.relative_error(&want) < 1e-9, "bdas {b:?} vs {want:?}");
                prop_assert!(d.relative_error(&want) < 1e-9, "direct {d:?} vs {want:?}");
            }
            Err(_) => {
                prop_assert!(bdas.is_err(), "bdas should fail when oracle fails");
                prop_assert!(direct.is_err());
            }
        }
    }

    #[test]
    fn optimizer_strategies_agree(rect in arb_rect(), agg in arb_aggregate()) {
        // The index arm reads every column of its candidates from storage,
        // so every aggregate must agree with the scan's, or both fail.
        let c = cluster();
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let exec = Executor::new(&c);
        let engines = ExecutionEngines::build(&exec, "t", domain, 40).unwrap();
        let q = AnalyticalQuery::new(Region::Range(rect), agg);
        let scan = engines.execute(QueryStrategy::ScanAggregate, &q, &exec);
        let index = engines.execute(QueryStrategy::IndexFetch, &q, &exec);
        match (scan, index) {
            (Ok(s), Ok(i)) => {
                let (s, i) = (s.answer, i.answer);
                prop_assert!(i.relative_error(&s) < 1e-9, "index {i:?} vs scan {s:?}");
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "one arm failed: {other:?}"),
        }
    }

    #[test]
    fn kdtree_range_matches_filter(rect in arb_rect()) {
        let records = dataset();
        let tree = KdTree::build(&records).unwrap();
        let (mut got, _) = tree.range(&rect).unwrap();
        got.sort_unstable();
        let mut want: Vec<u64> = records
            .iter()
            .filter(|r| rect.contains(&r.to_point()))
            .map(|r| r.id)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn kdtree_knn_matches_brute_force(x in 0.0f64..100.0, y in 0.0f64..100.0, k in 1usize..40) {
        let records = dataset();
        let tree = KdTree::build(&records).unwrap();
        let q = Point::new(vec![x, y]);
        let hits = tree.nearest(&q, k).unwrap();
        let mut brute: Vec<f64> = records
            .iter()
            .map(|r| q.distance(&r.to_point()).unwrap())
            .collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (h, want) in hits.iter().zip(&brute) {
            prop_assert!((h.distance - want).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_candidates_are_a_superset_of_matches(rect in arb_rect()) {
        let records = dataset();
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let mut grid = GridIndex::new(domain, 20).unwrap();
        for r in &records {
            grid.insert(r.id, &r.values).unwrap();
        }
        let candidates = grid.candidates(&rect).unwrap();
        for r in &records {
            if rect.contains(&r.to_point()) {
                prop_assert!(
                    candidates.contains(&r.id),
                    "record {} in region but not a candidate",
                    r.id
                );
            }
        }
    }

    #[test]
    fn partial_aggregation_is_partition_invariant(rect in arb_rect(), parts in 1usize..7) {
        // Splitting the records into any number of partitions and merging
        // partial bivariate stats must equal the single-pass result.
        let records = dataset();
        let selected: Vec<&Record> = records
            .iter()
            .filter(|r| rect.contains(&r.to_point()))
            .collect();
        prop_assume!(selected.len() >= 2);
        let whole = sea_common::BivariateStats::from_records(selected.iter().copied(), 0, 1);
        let mut merged = sea_common::BivariateStats::default();
        for chunk in selected.chunks(selected.len().div_ceil(parts)) {
            let partial = sea_common::BivariateStats::from_records(chunk.iter().copied(), 0, 1);
            merged.merge(&partial);
        }
        prop_assert_eq!(whole.n, merged.n);
        prop_assert!((whole.sum_xy - merged.sum_xy).abs() < 1e-6);
        match (whole.correlation(), merged.correlation()) {
            (Ok(a), Ok(b)) => prop_assert!((a - b).abs() < 1e-9),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "divergent: {other:?}"),
        }
    }

    #[test]
    fn answers_survive_region_embedding(rect in arb_rect()) {
        // to_query_vector ∘ Rect::centered must be the identity on
        // (centre, extents) — the agent's feature map must not distort
        // query geometry.
        let q = AnalyticalQuery::new(Region::Range(rect.clone()), AggregateKind::Count);
        let v = q.to_query_vector();
        let rebuilt = Rect::centered(&Point::new(v[..2].to_vec()), &v[2..4]).unwrap();
        for d in 0..2 {
            prop_assert!((rebuilt.lo()[d] - rect.lo()[d]).abs() < 1e-9);
            prop_assert!((rebuilt.hi()[d] - rect.hi()[d]).abs() < 1e-9);
        }
        let _ = AnswerValue::Scalar(0.0);
    }
}
