//! The one scan: `Executor::scan_blocks`, the open step every operator
//! reads the cluster through, the node loop `Executor::scatter` that
//! every operator and offline pass runs it in, and the frozen
//! benchmark's row adapter (`StorageCluster::scan_node_region_stats`)
//! pinned to it — the rows the benchmark times and caches are the rows
//! operators read, counted and charged alike.

use proptest::prelude::*;
use sea_common::{CostMeter, ExecMode, Record, Rect, SeaError};
use sea_query::{BlockView, Executor, RetryPolicy, Scatter};
use sea_storage::{FaultPlan, Partitioning, ScanStats, StorageCluster};
use sea_telemetry::{FieldValue, TelemetrySink};

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

/// A scatter engages the nodes a statement over the same box would —
/// every node without one, the partitions metadata admits with one —
/// each on its own meter: `touch_node(mode)`, the scan's charges and
/// whatever `visit` adds, the views being the scan's own.
#[test]
fn a_scatter_engages_a_statements_nodes_each_on_its_own_meter() {
    let mut c = StorageCluster::new(4, 16);
    let records = (0..400)
        .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 4) as f64]))
        .collect();
    let splits = Partitioning::equi_width_splits(0.0, 100.0, 4);
    let ranged = Partitioning::Range { dim: 0, splits };
    c.load_table("t", records, ranged).unwrap();
    let exec = Executor::new(&c);
    let region = Rect::new(vec![30.0, 10.0], vec![55.0, 60.0]).unwrap();
    let pruned = c.nodes_for_region("t", &region).unwrap();
    assert_eq!(pruned, [1, 2], "the box prunes the range partitions");
    for (bbox, nodes) in [(None, vec![0, 1, 2, 3]), (Some(&region), pruned)] {
        let mut visited = Vec::new();
        let scatter = exec
            .scatter("t", bbox, ExecMode::Bdas, |node, views, meter| {
                visited.push((node, selected(views)));
                meter.charge_lan(8);
                Ok(())
            })
            .unwrap();
        assert!(scatter.unread.is_empty());
        let engaged: Vec<usize> = scatter.meters.iter().map(|(node, _)| *node).collect();
        assert_eq!(engaged, nodes, "{bbox:?}");
        for ((node, meter), (seen, rows)) in scatter.meters.iter().zip(&visited) {
            assert_eq!(node, seen);
            let mut want = CostMeter::new();
            want.touch_node(ExecMode::Bdas);
            let views = exec.scan_blocks("t", *node, bbox, &mut want).unwrap();
            want.charge_lan(8);
            assert_eq!(*meter, want, "partition {node}");
            assert_eq!(*rows, selected(&views.unwrap()));
        }
        let cost = scatter.report(&CostMeter::new());
        assert_eq!((cost.answered_fraction, cost.nodes_unavailable), (1.0, 0));
    }
}

/// A partition left unread in partial-answer mode is counted, not
/// visited, and keeps its meter — layer crossings and retry backoff —
/// and the report says what share was read.
#[test]
fn an_unread_partition_is_counted_not_visited_and_keeps_its_meter() {
    let c = cluster((0..200).map(|i| (i as f64 % 100.0, i as f64)).collect(), 16);
    let mut down = c.clone();
    down.fail_node(2).unwrap();
    let exec = Executor::new(&down).with_partial_answers(true);
    let mut visited = Vec::new();
    let scatter = exec
        .scatter("t", None, ExecMode::Bdas, |node, _, _| {
            visited.push(node);
            Ok(())
        })
        .unwrap();
    assert_eq!(visited, [0, 1, 3]);
    assert_eq!(scatter.unread, [2]);
    let mut touched = CostMeter::new();
    touched.touch_node(ExecMode::Bdas);
    assert_eq!(scatter.meters[2], (2, touched));
    let cost = scatter.report(&CostMeter::new());
    assert_eq!((cost.answered_fraction, cost.nodes_unavailable), (0.75, 1));

    // Every scan faults past its retries: nothing is read, and each
    // engaged node's bill is its crossings plus the backoff it waited.
    let mut flaky = c.clone();
    flaky.set_fault_plan(FaultPlan::new(3).with_transient(1.0, 100));
    let retry = RetryPolicy {
        max_retries: 2,
        backoff_base_us: 10,
    };
    let exec = (Executor::new(&flaky).with_retry_policy(retry)).with_partial_answers(true);
    let scatter = exec
        .scatter("t", None, ExecMode::Bdas, |node, _, _| {
            panic!("partition {node} read")
        })
        .unwrap();
    assert_eq!(scatter.unread, [0, 1, 2, 3]);
    let mut waited = touched;
    waited.charge_backoff(retry.backoff_us(0) + retry.backoff_us(1));
    for (node, meter) in &scatter.meters {
        assert_eq!(*meter, waited, "partition {node}");
    }
    let cost = scatter.report(&CostMeter::new());
    assert_eq!((cost.answered_fraction, cost.nodes_unavailable), (0.0, 4));
}

/// An offline pass visits every partition in node order and refuses a
/// table it could read only part of — after opening every partition,
/// each leaving its `query.executor.node` span.
#[test]
fn an_offline_pass_reads_every_partition_or_refuses() {
    let mut c = cluster((0..200).map(|i| (i as f64 % 100.0, i as f64)).collect(), 16);
    let exec = Executor::new(&c);
    let mut rows = Vec::new();
    let pass = exec
        .scatter("t", None, ExecMode::Bdas, |node, views, _| {
            rows.push((node, selected(views).len()));
            Ok(())
        })
        .and_then(Scatter::complete)
        .unwrap();
    let per_node = c.stats("t").unwrap().per_node;
    assert_eq!(
        rows,
        per_node.iter().copied().enumerate().collect::<Vec<_>>()
    );
    assert_eq!(pass.meters.len(), c.num_nodes());

    let sink = TelemetrySink::recording();
    c.set_telemetry(sink.clone());
    c.fail_node(2).unwrap();
    let partial = Executor::new(&c).with_partial_answers(true);
    let parent = sink.span("pass");
    let mut visited = Vec::new();
    let refused = partial
        .scatter("t", None, ExecMode::Bdas, |node, _, _| {
            visited.push(node);
            Ok(())
        })
        .and_then(Scatter::complete);
    drop(parent);
    match refused {
        Err(SeaError::Storage(msg)) => assert!(msg.contains("partition 2"), "{msg}"),
        other => panic!("refused with a storage error, not {other:?}"),
    }
    assert_eq!(visited, [0, 1, 3], "the pass went on past the unread one");
    let snap = sink.snapshot().unwrap();
    let opened: Vec<_> = (snap.spans.roots[0].children.iter())
        .filter(|s| s.name == "query.executor.node")
        .map(|s| (s.tag("node").cloned(), s.tag("unavailable").is_some()))
        .collect();
    let want: Vec<_> = (0..4u64)
        .map(|node| (Some(FieldValue::U64(node)), node == 2))
        .collect();
    assert_eq!(opened, want);
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
