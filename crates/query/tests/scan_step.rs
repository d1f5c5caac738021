//! The one scan: `Executor::scan_blocks`, the open step every operator
//! reads the cluster through, its whole-table form `Executor::scan_table`
//! that every offline pass takes, and the frozen benchmark's row adapter
//! (`StorageCluster::scan_node_region_stats`) pinned to it — the rows the
//! benchmark times and caches are the rows operators read, counted and
//! charged alike.

use proptest::prelude::*;
use sea_common::{CostMeter, Record, Rect, SeaError};
use sea_query::{BlockView, Executor};
use sea_storage::{FaultPlan, Partitioning, ScanStats, StorageCluster};
use sea_telemetry::TelemetrySink;

/// A coordinate that is occasionally NaN.
fn coord() -> impl Strategy<Value = f64> {
    (0u8..9, 0.0..100.0f64).prop_map(|(k, v)| if k == 0 { f64::NAN } else { v })
}

fn cluster(points: Vec<(f64, f64)>, block: usize) -> StorageCluster {
    let records = (points.into_iter().enumerate())
        .map(|(i, (x, y))| Record::new(i as u64, vec![x, y]))
        .collect();
    let mut c = StorageCluster::new(4, block);
    c.load_table("t", records, Partitioning::Hash).unwrap();
    c
}

/// Each selected row's id and value bits, in the order a scan yields them.
fn selected(views: &[BlockView]) -> Vec<(u64, Vec<u64>)> {
    let mut rows = Vec::new();
    for v in views {
        v.mask.for_each_set(|i| {
            let bits = v.block.cols().iter().map(|c| c[i].to_bits()).collect();
            rows.push((v.block.ids()[i], bits));
        });
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_benchmark_adapter_reads_what_the_scan_step_yields(
        points in prop::collection::vec((coord(), coord()), 1..150),
        block in 1usize..24,
        lx in -10.0f64..100.0, ly in -10.0f64..100.0, w in 0.0f64..60.0, h in 0.0f64..60.0,
        slow in 0usize..2,
    ) {
        let mut c = cluster(points, block);
        if slow == 1 {
            c.set_fault_plan(FaultPlan::new(5).with_slow_node(1, 2.5));
        }
        let region = Rect::new(vec![lx, ly], vec![lx + w, ly + h]).unwrap();
        let exec = Executor::new(&c);
        for node in 0..c.num_nodes() {
            let mut adapter_meter = CostMeter::new();
            let (rows, stats) = c
                .scan_node_region_stats("t", node, &region, &mut adapter_meter)
                .unwrap();
            let mut step_meter = CostMeter::new();
            let views = exec
                .scan_blocks("t", node, Some(&region), &mut step_meter)
                .unwrap()
                .unwrap();
            let adapter: Vec<(u64, Vec<u64>)> = rows
                .iter()
                .map(|r| (r.id, r.values.iter().map(|v| v.to_bits()).collect()))
                .collect();
            prop_assert_eq!(&adapter, &selected(&views));
            let yielded = ScanStats {
                blocks_total: c.serving_node("t", node).unwrap().0.blocks().len(),
                blocks_read: views.len(),
                bytes_read: views.iter().map(|v| v.block.bytes()).sum(),
                records_returned: adapter.len(),
            };
            prop_assert_eq!(stats, yielded);
            prop_assert_eq!(adapter_meter, step_meter);
        }
    }
}

/// A scan records what a statement's node does: a `query.executor.node`
/// span under the caller's open span, wrapping storage's
/// `storage.node.scan` span, counters and event.
#[test]
fn a_scan_records_its_node_like_a_statement_does() {
    let mut c = cluster(
        (0..200)
            .map(|i| (i as f64 % 100.0, i as f64 / 2.0))
            .collect(),
        16,
    );
    let sink = TelemetrySink::recording();
    c.set_telemetry(sink.clone());
    let exec = Executor::new(&c);
    let parent = sink.span("operator");
    let mut meter = CostMeter::new();
    let views = exec.scan_blocks("t", 1, None, &mut meter).unwrap().unwrap();
    drop(parent);
    let snap = sink.snapshot().unwrap();
    let node = snap.spans.roots[0].find("query.executor.node").unwrap();
    let scan = node.find("storage.node.scan").unwrap();
    assert_eq!(scan.parent_span_id, node.span_id);
    assert_eq!(snap.counter("storage.node.scans"), 1);
    assert_eq!(snap.counter("storage.node.blocks_read"), views.len() as u64);
    assert_eq!(snap.event_count("storage.node.scanned"), 1);
    assert!(meter.disk_bytes > 0);
}

/// Partition `node`'s ids through the one scan, in scan order.
fn ids_of(exec: &Executor, node: usize) -> Vec<u64> {
    let views = exec.scan_blocks("t", node, None, &mut CostMeter::new());
    selected(&views.unwrap().unwrap())
        .into_iter()
        .map(|(id, _)| id)
        .collect()
}

/// An offline pass visits every partition in node order, each on its own
/// meter charged its layer crossings and its scan, and refuses a table
/// it could read only part of.
#[test]
fn an_offline_pass_reads_every_partition_or_refuses() {
    let c = cluster((0..200).map(|i| (i as f64 % 100.0, i as f64)).collect(), 16);
    let exec = Executor::new(&c);
    let mut rows = Vec::new();
    let meters = exec
        .scan_table("t", 3, |node, views| {
            rows.push((node, selected(views).len()));
            Ok(())
        })
        .unwrap();
    let per_node = c.stats("t").unwrap().per_node;
    assert_eq!(
        rows,
        per_node.iter().copied().enumerate().collect::<Vec<_>>()
    );
    for (node, m) in meters.iter().enumerate() {
        let mut want = CostMeter::new();
        want.touch_node(3);
        exec.scan_blocks("t", node, None, &mut want).unwrap();
        assert_eq!(*m, want, "partition {node}");
    }
    let mut down = c.clone();
    down.fail_node(2).unwrap();
    let partial = Executor::new(&down).with_partial_answers(true);
    let refused = partial.scan_table("t", 3, |_, _| Ok(()));
    assert!(matches!(refused, Err(SeaError::Storage(_))), "{refused:?}");
}

/// A replica is a block-for-block clone of its primary after inserts and
/// a box delete, so a failover read serves the same rows at the same
/// positions.
#[test]
fn a_replica_serves_its_primarys_rows_after_a_delete() {
    let mut c = StorageCluster::with_replication(4, 16);
    let records = (0..400)
        .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 4) as f64]))
        .collect();
    c.load_table("t", records, Partitioning::Hash).unwrap();
    let late = (0..40).map(|i| Record::new(1_000 + i, vec![i as f64 * 2.5, 50.0]));
    c.insert("t", late.collect()).unwrap();
    let region = Rect::new(vec![20.0, 0.0], vec![60.0, 70.0]).unwrap();
    assert!(c.delete_region("t", &region).unwrap() > 0);
    let exec = Executor::new(&c);
    for node in 0..c.num_nodes() {
        let mut failed = c.clone();
        failed.fail_node(node).unwrap();
        let (replica, failover) = failed.serving_node("t", node).unwrap();
        assert!(failover);
        assert_eq!(
            replica.blocks(),
            c.serving_node("t", node).unwrap().0.blocks()
        );
        let ids = ids_of(&Executor::new(&failed), node);
        assert_eq!(
            ids,
            ids_of(&exec, node),
            "partition {node} through its replica"
        );
    }
}
