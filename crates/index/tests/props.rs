//! Property tests of the access structures' correctness invariants.

use proptest::prelude::*;

use sea_common::{Record, Rect};
use sea_index::{EquiDepthHistogram, GridIndex, ReservoirSampler};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histograms_preserve_total_mass(values in prop::collection::vec(0.0f64..100.0, 1..200)) {
        let ed = EquiDepthHistogram::build(&values, 8).unwrap();
        let full_d = ed.estimate_count(f64::NEG_INFINITY, f64::INFINITY);
        prop_assert!((full_d - values.len() as f64).abs() < 1.0, "equi-depth mass {full_d}");
    }

    #[test]
    fn histogram_counts_are_monotone_in_range(values in prop::collection::vec(0.0f64..100.0, 1..200),
                                              a in 0.0f64..50.0, w1 in 0.0f64..25.0, w2 in 0.0f64..25.0) {
        let ed = EquiDepthHistogram::build(&values, 8).unwrap();
        let narrow = ed.estimate_count(a, a + w1);
        let wide = ed.estimate_count(a, a + w1 + w2);
        prop_assert!(narrow <= wide + 1e-9, "wider range, larger estimate");
        prop_assert!(narrow >= 0.0);
        let sel = ed.estimate_selectivity(a, a + w1);
        prop_assert!((0.0..=1.0).contains(&sel));
    }

    #[test]
    fn reservoir_respects_capacity_and_counts(n in 1usize..500, cap in 1usize..64, seed in 0u64..100) {
        let mut s = ReservoirSampler::new(cap, seed).unwrap();
        for i in 0..n {
            s.offer(Record::new(i as u64, vec![i as f64]));
        }
        prop_assert_eq!(s.sample().len(), n.min(cap));
        prop_assert_eq!(s.seen(), n as u64);
        // All sampled records are genuine stream elements.
        for r in s.sample() {
            prop_assert!(r.id < n as u64);
        }
        // No duplicates.
        let mut ids: Vec<_> = s.sample().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), s.sample().len());
    }

    #[test]
    fn grid_estimate_count_full_domain_is_total(points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..150)) {
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let records: Vec<Record> = points
            .iter()
            .enumerate()
            .map(|(i, (x, y))| Record::new(i as u64, vec![*x, *y]))
            .collect();
        let grid = GridIndex::build(domain.clone(), 8, &records).unwrap();
        let est = grid
            .estimate_count(&sea_common::Region::Range(domain))
            .unwrap();
        prop_assert!((est - records.len() as f64).abs() < 1e-6, "est {est}");
    }

    #[test]
    fn grid_insert_remove_roundtrip(points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..60)) {
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let mut grid = GridIndex::new(domain, 5).unwrap();
        let records: Vec<Record> = points
            .iter()
            .enumerate()
            .map(|(i, (x, y))| Record::new(i as u64, vec![*x, *y]))
            .collect();
        for r in &records {
            grid.insert(r.id, &r.values).unwrap();
        }
        prop_assert_eq!(grid.len(), records.len());
        for r in &records {
            prop_assert!(grid.remove(r).unwrap());
        }
        prop_assert!(grid.is_empty());
    }
}
