//! Property tests of the storage substrate: whatever the partitioning,
//! block size, or failure pattern, scans must return exactly the loaded
//! records.

use proptest::prelude::*;

use sea_common::{kernels, CostMeter, Record, Rect, SelectionMask};
use sea_storage::{DataNode, FaultPlan, Partitioning, StorageCluster};

/// Ids of the rows a scan of partition `n` of `t` reads, by the
/// primitives every reader uses: the copy `open_scan` resolves, the
/// blocks `charge_scan` admits for `bbox`, the rows the box selects.
fn scan_ids(c: &StorageCluster, n: usize, bbox: Option<&Rect>) -> Vec<u64> {
    let (dn, _, _) = c.open_scan("t", n).unwrap();
    let (blocks, _) = dn.charge_scan(bbox, &mut CostMeter::new());
    let (mut ids, mut mask) = (Vec::new(), SelectionMask::none(0));
    for b in blocks {
        match bbox {
            Some(rect) => b.bbox_mask(rect, &mut mask),
            None => mask.reset_all(b.len()),
        }
        mask.for_each_set(|i| ids.push(b.ids()[i]));
    }
    ids
}

fn arb_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..max).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| Record::new(i as u64, vec![x, y]))
            .collect()
    })
}

fn arb_partitioning() -> impl Strategy<Value = Partitioning> {
    prop_oneof![
        Just(Partitioning::Hash),
        (1usize..6).prop_map(|n| Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(0.0, 100.0, n + 1),
        }),
    ]
}

/// One table mutation after the initial load.
#[derive(Debug, Clone)]
enum Mutation {
    Insert(Vec<(f64, f64)>),
    /// Deletes the slab `[lo, lo + width]` of dimension 0.
    Delete(f64, f64),
}

fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    // Signed zeros ride along: the fold must keep whichever zero the
    // catalog order keeps.
    let coord = || prop_oneof![-50.0f64..150.0, Just(0.0), Just(-0.0)];
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec((coord(), coord()), 0..40).prop_map(Mutation::Insert),
            (-50.0f64..150.0, 0.0f64..120.0).prop_map(|(lo, w)| Mutation::Delete(lo, w)),
        ],
        0..8,
    )
}

/// The table's bounding box as `TableSchema::infer` used to derive it:
/// the fold of `block_catalog()`'s zone maps, as bit patterns.
fn catalog_fold(c: &StorageCluster, dims: usize) -> Option<(Vec<u64>, Vec<u64>)> {
    let catalog = c.block_catalog("t").unwrap();
    if catalog.is_empty() {
        return None;
    }
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for (_, _, bounds, _, _) in &catalog {
        for d in 0..dims {
            lo[d] = lo[d].min(bounds.lo()[d]);
            hi[d] = hi[d].max(bounds.hi()[d]);
        }
    }
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    Some((bits(lo), bits(hi)))
}

fn table_bounds_bits(c: &StorageCluster) -> Option<(Vec<u64>, Vec<u64>)> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    c.table_bounds("t")
        .unwrap()
        .map(|r| (bits(r.lo()), bits(r.hi())))
}

/// Whether every block of `node` holds, per dimension, one code per row
/// and each the [`kernels::byte_code`] of its value under the block's
/// own zone map.
fn codes_follow_the_columns(node: &DataNode) -> bool {
    node.blocks().iter().all(|b| {
        let zone = b.bounds().unwrap();
        (0..b.dims()).all(|d| {
            let (lo, hi) = (zone.lo()[d], zone.hi()[d]);
            let want: Vec<u8> = b
                .col(d)
                .iter()
                .map(|&v| kernels::byte_code(lo, hi, v))
                .collect();
            b.codes(d) == want
        })
    })
}

/// [`codes_follow_the_columns`] for every partition of `t`, and for its
/// replica when the cluster keeps one (served with the primary down).
fn every_copy_is_coded(c: &StorageCluster, nodes: usize, replicated: bool) -> bool {
    (0..nodes).all(|n| {
        let primary = codes_follow_the_columns(c.serving_node("t", n).unwrap().0);
        primary
            && (!replicated || {
                let mut failed = c.clone();
                failed.set_fault_plan(FaultPlan::new(0).with_crash(n, 0));
                codes_follow_the_columns(failed.serving_node("t", n).unwrap().0)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A block's byte codes follow every write: after a load and after
    /// each insert and box delete — replicated or not, hash or range
    /// partitioned, with signed zeros and an all-NaN dimension — every
    /// block's codes are those of its own columns under its own zone map.
    #[test]
    fn block_codes_follow_every_write(
        records in arb_records(120),
        mutations in arb_mutations(),
        partitioning in arb_partitioning(),
        block in 1usize..32,
        replicated in 0usize..2,
        all_nan in 0usize..2,
    ) {
        let y = |y: f64| if all_nan == 1 { f64::NAN } else { y };
        let replicated = replicated == 1;
        let mut c = if replicated {
            StorageCluster::with_replication(3, block)
        } else {
            StorageCluster::new(3, block)
        };
        let loaded = records
            .iter()
            .map(|r| Record::new(r.id, vec![r.value(0), y(r.value(1))]))
            .collect();
        c.load_table("t", loaded, partitioning).unwrap();
        prop_assert!(every_copy_is_coded(&c, 3, replicated));
        let mut next_id = 10_000u64;
        for m in mutations {
            match m {
                Mutation::Insert(points) => {
                    let batch = points
                        .into_iter()
                        .map(|(x, v)| {
                            next_id += 1;
                            Record::new(next_id, vec![x, y(v)])
                        })
                        .collect();
                    c.insert("t", batch).unwrap();
                }
                Mutation::Delete(lo, w) => {
                    let slab = Rect::new(vec![lo, -1e300], vec![lo + w, 1e300]).unwrap();
                    c.delete_region("t", &slab).unwrap();
                }
            }
            prop_assert!(every_copy_is_coded(&c, 3, replicated));
        }
    }

    #[test]
    fn full_scans_return_every_record_exactly_once(
        records in arb_records(150),
        partitioning in arb_partitioning(),
        nodes in 1usize..8,
        block in 1usize..64,
    ) {
        let mut c = StorageCluster::new(nodes, block);
        c.load_table("t", records.clone(), partitioning).unwrap();
        let mut ids = Vec::new();
        for n in 0..nodes {
            ids.extend(scan_ids(&c, n, None));
        }
        ids.sort_unstable();
        let mut want: Vec<u64> = records.iter().map(|r| r.id).collect();
        want.sort_unstable();
        prop_assert_eq!(ids, want);
    }

    #[test]
    fn region_scans_equal_filtering(
        records in arb_records(150),
        partitioning in arb_partitioning(),
        lx in 0.0f64..80.0, ly in 0.0f64..80.0, w in 1.0f64..40.0, h in 1.0f64..40.0,
    ) {
        let region = Rect::new(vec![lx, ly], vec![lx + w, ly + h]).unwrap();
        let mut c = StorageCluster::new(4, 16);
        c.load_table("t", records.clone(), partitioning).unwrap();
        let mut got = Vec::new();
        for n in c.nodes_for_region("t", &region).unwrap() {
            got.extend(scan_ids(&c, n, Some(&region)));
        }
        got.sort_unstable();
        let mut want: Vec<u64> = records
            .iter()
            .filter(|r| region.contains(&r.to_point()))
            .map(|r| r.id)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn replication_masks_any_single_failure(
        records in arb_records(120),
        fail in 0usize..4,
    ) {
        let mut c = StorageCluster::with_replication(4, 16);
        c.load_table("t", records.clone(), Partitioning::Hash).unwrap();
        c.set_fault_plan(FaultPlan::new(0).with_crash(fail, 0));
        let mut ids = Vec::new();
        for n in 0..4 {
            ids.extend(scan_ids(&c, n, None));
        }
        ids.sort_unstable();
        let mut want: Vec<u64> = records.iter().map(|r| r.id).collect();
        want.sort_unstable();
        prop_assert_eq!(ids, want);
    }

    #[test]
    fn insert_then_delete_region_is_consistent(
        records in arb_records(100),
        lx in 0.0f64..80.0, w in 1.0f64..40.0,
    ) {
        let region = Rect::new(vec![lx, 0.0], vec![lx + w, 100.0]).unwrap();
        let mut c = StorageCluster::new(3, 16);
        c.load_table("t", records.clone(), Partitioning::Hash).unwrap();
        let removed = c.delete_region("t", &region).unwrap();
        let want_removed = records
            .iter()
            .filter(|r| region.contains(&r.to_point()))
            .count();
        prop_assert_eq!(removed, want_removed);
        prop_assert_eq!(
            c.stats("t").unwrap().records,
            records.len() - want_removed
        );
        // Nothing inside the region survives.
        for n in 0..3 {
            prop_assert!(scan_ids(&c, n, Some(&region)).is_empty());
        }
    }

    #[test]
    fn table_bounds_equal_the_block_catalog_fold(
        records in arb_records(120),
        mutations in arb_mutations(),
        partitioning in arb_partitioning(),
        block in 1usize..32,
        replicated in 0usize..2,
        // Every value of dimension 1 missing: its zone maps, and so the
        // table's box, fall back to the ±1e300 sentinels.
        all_nan in 0usize..2,
    ) {
        let y = |y: f64| if all_nan == 1 { f64::NAN } else { y };
        let mut c = if replicated == 1 {
            StorageCluster::with_replication(3, block)
        } else {
            StorageCluster::new(3, block)
        };
        let loaded = records
            .iter()
            .map(|r| Record::new(r.id, vec![r.value(0), y(r.value(1))]))
            .collect();
        c.load_table("t", loaded, partitioning).unwrap();
        prop_assert_eq!(table_bounds_bits(&c), catalog_fold(&c, 2));
        if all_nan == 1 {
            let b = c.table_bounds("t").unwrap().unwrap();
            prop_assert_eq!((b.lo()[1], b.hi()[1]), (-1e300, 1e300));
        }
        let mut next_id = 10_000u64;
        for m in mutations {
            match m {
                Mutation::Insert(points) => {
                    let batch = points
                        .into_iter()
                        .map(|(x, v)| {
                            next_id += 1;
                            Record::new(next_id, vec![x, y(v)])
                        })
                        .collect();
                    c.insert("t", batch).unwrap();
                }
                Mutation::Delete(lo, w) => {
                    let slab = Rect::new(vec![lo, -1e300], vec![lo + w, 1e300]).unwrap();
                    c.delete_region("t", &slab).unwrap();
                }
            }
            prop_assert_eq!(table_bounds_bits(&c), catalog_fold(&c, 2));
        }
        // The empty table: no block left, no box. (A NaN never lies
        // inside a region, so the all-NaN rows cannot be deleted.)
        if all_nan == 0 {
            let everything = Rect::new(vec![-1e300; 2], vec![1e300; 2]).unwrap();
            c.delete_region("t", &everything).unwrap();
            prop_assert!(c.block_catalog("t").unwrap().is_empty());
            prop_assert_eq!(c.table_bounds("t").unwrap(), None);
        }
    }
}
