//! The simulated storage cluster: tables partitioned across data nodes.

use std::collections::HashMap;
use std::sync::Arc;

use sea_common::{CostMeter, Record, Rect, Result, SeaError, SelectionMask};
use sea_telemetry::{TelemetrySink, TraceContext};

use crate::fault::{FaultDecision, FaultPlan, FaultState};
use crate::node::{DataNode, ScanStats};
use crate::partition::{NodeId, Partitioning};

/// One entry of a table's block catalog: `(node, block index, bounds,
/// bytes, record count)` — the in-memory metadata index structures build
/// from.
pub type BlockCatalogEntry = (NodeId, usize, Rect, u64, usize);

/// Summary statistics of a stored table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Total number of records.
    pub records: usize,
    /// Total stored bytes.
    pub bytes: u64,
    /// Number of dimensions/attributes.
    pub dims: usize,
    /// Records per node.
    pub per_node: Vec<usize>,
}

#[derive(Debug, Clone)]
struct TableMeta {
    dims: usize,
    partitioning: Partitioning,
    /// Per-node primary storage for this table.
    nodes: Vec<DataNode>,
    /// Chained replicas when the cluster runs with replication factor 2:
    /// `replicas[i]` is a copy of node `(i − 1) mod n`'s partition, stored
    /// on node `i`.
    replicas: Option<Vec<DataNode>>,
    /// Bounding box of the table's records: the union of the primaries'
    /// block zone maps, refolded whenever they change (`None` when no
    /// block has bounds).
    bounds: Option<Rect>,
}

/// Folds the union of every block's zone map, in node then block order.
fn fold_bounds(dims: usize, nodes: &[DataNode]) -> Option<Rect> {
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    let mut any = false;
    for zone in nodes
        .iter()
        .flat_map(DataNode::blocks)
        .filter_map(|b| b.bounds())
    {
        any = true;
        for d in 0..dims {
            lo[d] = lo[d].min(zone.lo()[d]);
            hi[d] = hi[d].max(zone.hi()[d]);
        }
    }
    if !any {
        return None;
    }
    Rect::new(lo, hi).ok()
}

/// A simulated cluster of data-server nodes holding partitioned tables.
///
/// It holds no row scan: a reader opens a partition
/// ([`StorageCluster::open_scan`]) and charges its own [`CostMeter`].
///
/// # Examples
///
/// ```
/// use sea_common::{CostMeter, Record};
/// use sea_storage::{Partitioning, StorageCluster};
///
/// let mut cluster = StorageCluster::new(4, 100);
/// let records: Vec<Record> = (0..1000)
///     .map(|i| Record::new(i, vec![i as f64, (i % 10) as f64]))
///     .collect();
/// cluster.load_table("t", records, Partitioning::Hash).unwrap();
/// assert_eq!(cluster.stats("t").unwrap().records, 1000);
/// ```
#[derive(Debug, Clone)]
pub struct StorageCluster {
    n_nodes: usize,
    block_size: usize,
    replication: usize,
    tables: HashMap<String, TableMeta>,
    /// Telemetry sink for `storage.*` spans/events; defaults to the
    /// no-op sink.
    telemetry: TelemetrySink,
    /// Installed fault-injection state (see [`crate::fault`]). Shared
    /// across clones so one fault timeline governs an experiment; a
    /// node is down only when this plan has crashed it.
    faults: Option<Arc<FaultState>>,
}

impl StorageCluster {
    /// Creates a cluster of `n_nodes` nodes storing blocks of at most
    /// `block_size` records.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    pub fn new(n_nodes: usize, block_size: usize) -> Self {
        assert!(n_nodes > 0, "cluster needs at least one node");
        StorageCluster {
            n_nodes,
            block_size: block_size.max(1),
            replication: 1,
            tables: HashMap::new(),
            telemetry: TelemetrySink::default(),
            faults: None,
        }
    }

    /// Creates a cluster with chained replication (factor 2): node `i`
    /// additionally stores a copy of node `i − 1`'s partitions, so any
    /// single node failure leaves every partition readable.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2` (replication needs a distinct peer).
    pub fn with_replication(n_nodes: usize, block_size: usize) -> Self {
        assert!(n_nodes >= 2, "replication needs at least two nodes");
        StorageCluster {
            n_nodes,
            block_size: block_size.max(1),
            replication: 2,
            tables: HashMap::new(),
            telemetry: TelemetrySink::default(),
            faults: None,
        }
    }

    /// Attaches a telemetry sink; `storage.*` spans, counters, and events
    /// flow into it. Engines built on top of the cluster (e.g. the exact
    /// executor) inherit this sink, so attaching one here instruments the
    /// whole read path.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// The cluster's telemetry sink (no-op unless
    /// [`StorageCluster::set_telemetry`] was called).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Installs a deterministic fault-injection plan (replacing any
    /// previous one and resetting its operation counters and crash
    /// latches). A crash at op 0 takes its node down at once. See
    /// [`crate::fault`] for the determinism contract.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(Arc::new(FaultState::new(plan, self.n_nodes)));
    }

    /// Removes the installed fault plan; the cluster becomes fault-free
    /// again, every crashed node included.
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Whether partition `node`'s primary is currently unable to serve:
    /// the fault plan has crashed it. A successful scan of such a
    /// partition was served by its replica (a failover).
    fn primary_down(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed(node))
    }

    /// Consults the fault layer for one scan attempt against partition
    /// `node`: advances the node's operation counter, latches plan
    /// crashes, and either returns the latency multiplier to apply or a
    /// [`SeaError::Transient`] for an injected transient fault. No-op
    /// (multiplier 1.0) without an installed plan.
    fn fault_gate(&self, node: NodeId) -> Result<f64> {
        let Some(faults) = &self.faults else {
            return Ok(1.0);
        };
        match faults.on_scan(node) {
            FaultDecision::Proceed(multiplier) => Ok(multiplier),
            FaultDecision::Transient => Err(SeaError::Transient(format!(
                "injected fault: scan of partition {node} failed"
            ))),
        }
    }

    /// Number of data nodes.
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Block size in records.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Creates and loads a table, distributing records per `partitioning`.
    ///
    /// # Errors
    ///
    /// Returns an error when the table already exists, `records` is empty,
    /// or records disagree in dimensionality.
    pub fn load_table(
        &mut self,
        name: &str,
        records: Vec<Record>,
        partitioning: Partitioning,
    ) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(SeaError::invalid(format!("table {name} already exists")));
        }
        let Some(first) = records.first() else {
            return Err(SeaError::Empty(format!("no records for table {name}")));
        };
        let dims = first.dims();
        for r in &records {
            SeaError::check_dims(dims, r.dims())?;
        }
        let n = self.n_nodes;
        let mut nodes: Vec<DataNode> = (0..n).map(|_| DataNode::default()).collect();
        DataNode::append_routed(&mut nodes, records, self.block_size, |r| {
            partitioning.node_for(r, n)
        });
        let replicas = (self.replication >= 2).then(|| {
            (0..self.n_nodes)
                .map(|i| nodes[(i + self.n_nodes - 1) % self.n_nodes].clone())
                .collect()
        });
        self.tables.insert(
            name.to_string(),
            TableMeta {
                dims,
                partitioning,
                bounds: fold_bounds(dims, &nodes),
                nodes,
                replicas,
            },
        );
        Ok(())
    }

    fn meta(&self, name: &str) -> Result<&TableMeta> {
        self.tables
            .get(name)
            .ok_or_else(|| SeaError::NotFound(format!("table {name}")))
    }

    fn meta_mut(&mut self, name: &str) -> Result<&mut TableMeta> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| SeaError::NotFound(format!("table {name}")))
    }

    /// Table summary statistics.
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] when the table does not exist.
    pub fn stats(&self, name: &str) -> Result<TableStats> {
        let meta = self.meta(name)?;
        Ok(TableStats {
            records: meta.nodes.iter().map(DataNode::len).sum(),
            bytes: meta.nodes.iter().map(DataNode::bytes).sum(),
            dims: meta.dims,
            per_node: meta.nodes.iter().map(DataNode::len).collect(),
        })
    }

    /// Dimensionality of a table.
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] when the table does not exist.
    pub fn dims(&self, name: &str) -> Result<usize> {
        Ok(self.meta(name)?.dims)
    }

    /// Bounding box of a table's records — the union of the zone maps
    /// [`StorageCluster::block_catalog`] lists, kept current across
    /// [`StorageCluster::insert`] and [`StorageCluster::delete_region`].
    /// `None` for a table with no bounded block left.
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] when the table does not exist.
    pub fn table_bounds(&self, name: &str) -> Result<Option<&Rect>> {
        Ok(self.meta(name)?.bounds.as_ref())
    }

    /// The nodes that may hold records of `name` inside `region` under the
    /// table's partitioning (partition pruning).
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] when the table does not exist.
    pub fn nodes_for_region(&self, name: &str, region: &Rect) -> Result<Vec<NodeId>> {
        let meta = self.meta(name)?;
        let candidates = meta.partitioning.nodes_for_region(region, self.n_nodes);
        self.telemetry.incr("storage.cluster.prune_checks", 1);
        if candidates.len() < self.n_nodes {
            let pruned = self.n_nodes - candidates.len();
            self.telemetry
                .incr("storage.cluster.nodes_pruned", pruned as u64);
            // Gated: the table name is the one field that allocates.
            if self.telemetry.is_enabled() {
                self.telemetry.event(
                    "storage.partition_pruned",
                    &[
                        ("table", name.to_string().into()),
                        ("partitioning", meta.partitioning.kind().into()),
                        ("candidates", candidates.len().into()),
                        ("pruned", pruned.into()),
                        ("total_nodes", self.n_nodes.into()),
                    ],
                );
            }
        }
        Ok(candidates)
    }

    /// Opens one scan attempt against partition `node` of table `name`:
    /// consults the fault layer (one operation of the node's counter —
    /// this is where an installed [`FaultPlan`] is consumed) and resolves
    /// the copy that serves the partition right now. Returns that
    /// [`DataNode`], whether it is a replica failover (primary down),
    /// and the latency multiplier the scan's disk + CPU charges must be
    /// scaled by (1.0 unless the plan slows the node). Quiet: no spans,
    /// counters or events, and nothing is charged — the caller asks
    /// [`DataNode::charge_scan`] which blocks to read and what they cost,
    /// reads their columns itself and records the scan via
    /// [`StorageCluster::record_scan`] (in the workspace, that caller is
    /// `sea_query::Executor`, retries and failover included).
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] for a missing table,
    /// [`SeaError::Transient`] for an injected transient fault (worth
    /// retrying: the next attempt is the node's next operation),
    /// [`SeaError::Storage`] for an out-of-range node id or an
    /// unservable partition (node down with no live replica).
    pub fn open_scan(&self, name: &str, node: NodeId) -> Result<(&DataNode, bool, f64)> {
        let meta = self.meta(name)?;
        let slow = self.fault_gate(node)?;
        let n = self.serving_copy(meta, node)?;
        Ok((n, self.primary_down(node), slow))
    }

    /// The rows of partition `node` inside `region`, materialized: kept
    /// only because the frozen benchmark (`benchmark/src/probes.rs`)
    /// times it and cuts cache fragments from its rows, and built from
    /// the primitives every scan uses — [`StorageCluster::open_scan`],
    /// [`DataNode::charge_scan`] (scaled by the slow-node multiplier),
    /// [`Block::bbox_mask`](crate::Block::bbox_mask). Quiet, no retry.
    ///
    /// # Errors
    ///
    /// A missing table, a region of the wrong dimensionality, or
    /// whatever [`StorageCluster::open_scan`] refuses.
    pub fn scan_node_region_stats(
        &self,
        name: &str,
        node: NodeId,
        region: &Rect,
        meter: &mut CostMeter,
    ) -> Result<(Vec<Record>, ScanStats)> {
        SeaError::check_dims(self.dims(name)?, region.dims())?;
        let (n, _, slow) = self.open_scan(name, node)?;
        let mut charges = CostMeter::new();
        let (blocks, mut stats) = n.charge_scan(Some(region), &mut charges);
        meter.merge_scaled(&charges, slow);
        let (mut rows, mut mask) = (Vec::new(), SelectionMask::none(0));
        for (i, b) in blocks.iter().enumerate() {
            b.bbox_mask(region, blocks.get(i + 1).copied(), &mut mask);
            mask.for_each_set(|i| rows.push(b.record(i)));
        }
        stats.records_returned = rows.len();
        Ok((rows, stats))
    }

    /// Records one scan already performed over [`StorageCluster::open_scan`]
    /// and [`DataNode::charge_scan`]: opens its `storage.node.scan` span
    /// under `parent` and emits its `storage.node.*` counters and
    /// `storage.node.scanned` event. Calling this from a single
    /// coordinator thread in a fixed node order makes the recorded tables
    /// independent of how many worker threads performed the scans.
    /// `kind` is `"full"` or `"region"`.
    pub fn record_scan(
        &self,
        name: &str,
        node: NodeId,
        kind: &'static str,
        stats: &ScanStats,
        parent: &TraceContext,
    ) {
        // Simulated time lives on the caller's spans (only it knows the
        // cost model); this span carries wall time.
        let span = self.telemetry.span_child_of(parent, "storage.node.scan");
        if !self.telemetry.is_enabled() {
            return;
        }
        span.tag("node", node);
        span.tag("table", name.to_string());
        span.tag("kind", kind);
        self.telemetry.incr("storage.node.scans", 1);
        self.telemetry
            .incr("storage.node.blocks_read", stats.blocks_read as u64);
        self.telemetry.incr(
            "storage.node.blocks_pruned",
            (stats.blocks_total - stats.blocks_read) as u64,
        );
        self.telemetry
            .incr("storage.node.bytes_read", stats.bytes_read);
        self.telemetry.event(
            "storage.node.scanned",
            &[
                ("table", name.to_string().into()),
                ("node", node.into()),
                ("kind", kind.into()),
                ("blocks_read", stats.blocks_read.into()),
                ("blocks_total", stats.blocks_total.into()),
                ("bytes_read", stats.bytes_read.into()),
                ("records_returned", stats.records_returned.into()),
            ],
        );
    }

    /// The [`DataNode`] that can serve partition `node`'s data right now:
    /// the primary when it is up, otherwise the chained replica on node
    /// `node + 1` (when replication is on and that node is up).
    fn serving_copy<'a>(&'a self, meta: &'a TableMeta, node: NodeId) -> Result<&'a DataNode> {
        if node >= self.n_nodes {
            return Err(SeaError::Storage(format!("node {node} out of range")));
        }
        if !self.primary_down(node) {
            return Ok(&meta.nodes[node]);
        }
        if let Some(replicas) = &meta.replicas {
            let holder = (node + 1) % self.n_nodes;
            if !self.primary_down(holder) {
                return Ok(&replicas[holder]);
            }
        }
        Err(SeaError::Storage(format!(
            "partition {node} unavailable: node down and no live replica"
        )))
    }

    /// The [`DataNode`] currently serving partition `node` of table
    /// `name`, plus whether that copy is a replica failover (primary
    /// down). This is quiet, metadata-level access that does **not**
    /// consult the fault gate: a scan that injected faults must be able
    /// to reach goes through [`StorageCluster::open_scan`] instead.
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] for a missing table, [`SeaError::Storage`]
    /// for an out-of-range node id or an unservable partition (node down
    /// with no live replica).
    pub fn serving_node(&self, name: &str, node: NodeId) -> Result<(&DataNode, bool)> {
        let meta = self.meta(name)?;
        let n = self.serving_copy(meta, node)?;
        Ok((n, self.primary_down(node)))
    }

    /// Inserts additional records into an existing table (appended as new
    /// blocks on their partition's node).
    ///
    /// # Errors
    ///
    /// Missing table or dimension mismatch.
    pub fn insert(&mut self, name: &str, records: Vec<Record>) -> Result<()> {
        let n_nodes = self.n_nodes;
        let block_size = self.block_size;
        let meta = self.meta_mut(name)?;
        let dims = meta.dims;
        for r in &records {
            SeaError::check_dims(dims, r.dims())?;
        }
        let route = |r: &Record| meta.partitioning.node_for(r, n_nodes);
        // The replica on node `k + 1` holds partition `k`.
        if let Some(replicas) = &mut meta.replicas {
            let replica = |r: &Record| (route(r) + 1) % n_nodes;
            DataNode::append_routed(replicas, records.clone(), block_size, replica);
        }
        DataNode::append_routed(&mut meta.nodes, records, block_size, route);
        meta.bounds = fold_bounds(dims, &meta.nodes);
        Ok(())
    }

    /// Deletes all records of `name` inside `region`. Returns how many
    /// records were removed.
    ///
    /// # Errors
    ///
    /// Missing table or dimension mismatch.
    pub fn delete_region(&mut self, name: &str, region: &Rect) -> Result<usize> {
        let meta = self.meta_mut(name)?;
        SeaError::check_dims(meta.dims, region.dims())?;
        let removed = meta.nodes.iter_mut().map(|n| n.delete_box(region)).sum();
        for replica in meta.replicas.iter_mut().flatten() {
            replica.delete_box(region);
        }
        meta.bounds = fold_bounds(meta.dims, &meta.nodes);
        Ok(removed)
    }

    /// Every record of a table, materialised from the primaries in scan
    /// order (node, then block, then row) with no cost accounting, no
    /// fault gate and no telemetry. It exists for the frozen benchmark's
    /// oracle (`benchmark/src/oracle.rs`) and for tests; no engine calls
    /// it — an engine reads through `sea_query::Executor::scan_blocks` —
    /// and CI fails on a call in any crate's non-test source.
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] when the table does not exist.
    pub fn all_records(&self, name: &str) -> Result<Vec<Record>> {
        let meta = self.meta(name)?;
        let blocks = meta.nodes.iter().flat_map(DataNode::blocks);
        Ok(blocks
            .flat_map(|b| (0..b.len()).map(|i| b.record(i)))
            .collect())
    }

    /// Per-node block metadata (bounds and sizes) for index construction:
    /// `(node, block_index, bounds, bytes, records)` for every non-empty
    /// block. Reading this catalog is free — it models the metadata a
    /// storage engine keeps in memory.
    ///
    /// # Errors
    ///
    /// [`SeaError::NotFound`] when the table does not exist.
    pub fn block_catalog(&self, name: &str) -> Result<Vec<BlockCatalogEntry>> {
        let meta = self.meta(name)?;
        let mut out = Vec::new();
        for (node_id, n) in meta.nodes.iter().enumerate() {
            for (block_idx, b) in n.blocks().iter().enumerate() {
                if let Some(bounds) = b.bounds() {
                    out.push((node_id, block_idx, bounds.clone(), b.bytes(), b.len()));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a scan of partition `node` reads, by the primitives every
    /// reader uses: the copy `open_scan` resolves, the blocks
    /// `charge_scan` admits for `bbox` (charged to `meter`), the rows
    /// the box selects — as ids, with the scan's statistics.
    pub(super) fn scanned(
        c: &StorageCluster,
        name: &str,
        node: NodeId,
        bbox: Option<&Rect>,
        meter: &mut CostMeter,
    ) -> Result<(Vec<u64>, ScanStats)> {
        let (dn, _, slow) = c.open_scan(name, node)?;
        let mut charges = CostMeter::new();
        let (blocks, mut stats) = dn.charge_scan(bbox, &mut charges);
        meter.merge_scaled(&charges, slow);
        let (mut ids, mut mask) = (Vec::new(), SelectionMask::none(0));
        for b in blocks {
            match bbox {
                Some(rect) => b.bbox_mask(rect, None, &mut mask),
                None => mask.reset_all(b.len()),
            }
            mask.for_each_set(|i| ids.push(b.ids()[i]));
        }
        stats.records_returned = ids.len();
        Ok((ids, stats))
    }

    fn sample_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(i as u64, vec![i as f64 % 100.0, i as f64]))
            .collect()
    }

    fn loaded_cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 50);
        c.load_table("t", sample_records(1000), Partitioning::Hash)
            .unwrap();
        c
    }

    #[test]
    fn load_and_stats() {
        let c = loaded_cluster();
        let s = c.stats("t").unwrap();
        assert_eq!(s.records, 1000);
        assert_eq!(s.dims, 2);
        assert_eq!(s.per_node.iter().sum::<usize>(), 1000);
        assert!(
            s.per_node.iter().all(|&n| n > 150),
            "hash balance: {:?}",
            s.per_node
        );
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = loaded_cluster();
        assert!(matches!(
            c.load_table("t", sample_records(10), Partitioning::Hash),
            Err(SeaError::InvalidArgument(_))
        ));
    }

    #[test]
    fn empty_load_rejected() {
        let mut c = StorageCluster::new(2, 10);
        assert!(matches!(
            c.load_table("e", vec![], Partitioning::Hash),
            Err(SeaError::Empty(_))
        ));
    }

    #[test]
    fn mixed_dims_rejected() {
        let mut c = StorageCluster::new(2, 10);
        let recs = vec![Record::new(0, vec![1.0]), Record::new(1, vec![1.0, 2.0])];
        assert!(c.load_table("m", recs, Partitioning::Hash).is_err());
    }

    #[test]
    fn scan_all_nodes_reads_everything() {
        let c = loaded_cluster();
        let mut total = 0;
        for node in 0..c.num_nodes() {
            let mut meter = CostMeter::new();
            total += scanned(&c, "t", node, None, &mut meter).unwrap().0.len();
            assert!(meter.disk_bytes > 0);
        }
        assert_eq!(total, 1000);
    }

    #[test]
    fn range_partitioning_prunes_and_finds() {
        let mut c = StorageCluster::new(4, 50);
        let splits = Partitioning::equi_width_splits(0.0, 100.0, 4);
        c.load_table(
            "r",
            sample_records(1000),
            Partitioning::Range { dim: 0, splits },
        )
        .unwrap();
        let region = Rect::new(vec![10.0, 0.0], vec![20.0, 1e9]).unwrap();
        let nodes = c.nodes_for_region("r", &region).unwrap();
        assert_eq!(nodes, vec![0], "10..20 lives on node 0");
        let mut meter = CostMeter::new();
        let (hits, _) = scanned(&c, "r", 0, Some(&region), &mut meter).unwrap();
        // dim0 = i % 100 in [10, 20] → 11 values × 10 repetitions
        assert_eq!(hits.len(), 110);
    }

    #[test]
    fn insert_then_scan_sees_new_records() {
        let mut c = loaded_cluster();
        c.insert(
            "t",
            vec![
                Record::new(5000, vec![1.0, 2.0]),
                Record::new(5001, vec![3.0, 4.0]),
            ],
        )
        .unwrap();
        assert_eq!(c.stats("t").unwrap().records, 1002);
        assert!(c.insert("nope", vec![]).is_err());
        assert!(c.insert("t", vec![Record::new(9, vec![1.0])]).is_err());
    }

    #[test]
    fn delete_region_removes_matching() {
        let mut c = loaded_cluster();
        let region = Rect::new(vec![0.0, 0.0], vec![100.0, 49.0]).unwrap();
        let removed = c.delete_region("t", &region).unwrap();
        assert_eq!(removed, 50, "records with second attr 0..=49");
        assert_eq!(c.stats("t").unwrap().records, 950);
    }

    #[test]
    fn rows_outside_every_box_survive_delete_region() {
        // NaN and ±inf lie in no finite box: a delete over the rows'
        // finite dimensions keeps them, values intact, and drops the rest.
        let rows = vec![
            Record::new(0, vec![1.0, f64::NAN]),
            Record::new(1, vec![f64::INFINITY, 2.0]),
            Record::new(2, vec![3.0, f64::NEG_INFINITY]),
            Record::new(3, vec![4.0, 5.0]),
            Record::new(4, vec![f64::NAN, f64::NAN]),
        ];
        let mut c = StorageCluster::new(2, 2);
        c.load_table("t", rows.clone(), Partitioning::Hash).unwrap();
        let finite = Rect::new(vec![-1e9, -1e9], vec![1e9, 1e9]).unwrap();
        assert_eq!(c.delete_region("t", &finite).unwrap(), 1);
        let mut kept = c.all_records("t").unwrap();
        kept.sort_by_key(|r| r.id);
        let want: Vec<&Record> = rows.iter().filter(|r| r.id != 3).collect();
        assert_eq!(format!("{kept:?}"), format!("{want:?}"));
    }

    #[test]
    fn block_catalog_covers_all_records() {
        let c = loaded_cluster();
        let catalog = c.block_catalog("t").unwrap();
        let total: usize = catalog.iter().map(|(_, _, _, _, n)| *n).sum();
        assert_eq!(total, 1000);
        assert!(catalog.iter().all(|(node, ..)| *node < 4));
    }

    #[test]
    fn all_records_is_cost_free_oracle() {
        let c = loaded_cluster();
        assert_eq!(c.all_records("t").unwrap().len(), 1000);
    }

    #[test]
    fn quiet_scan_plus_record_scan_matches_the_traced_scan() {
        let mut traced = loaded_cluster();
        let traced_sink = TelemetrySink::recording();
        traced.set_telemetry(traced_sink.clone());
        let mut quiet = loaded_cluster();
        let quiet_sink = TelemetrySink::recording();
        quiet.set_telemetry(quiet_sink.clone());

        let region = Rect::new(vec![10.0, 0.0], vec![20.0, 1e9]).unwrap();
        for node in 0..traced.num_nodes() {
            // The reader's scan — open, charge, mask — recorded as it goes.
            let mut mt = CostMeter::new();
            let (rt, st) = scanned(&traced, "t", node, Some(&region), &mut mt).unwrap();
            traced.record_scan("t", node, "region", &st, &TraceContext::NONE);
            // The benchmark's adapter, replayed afterwards.
            let mut mq = CostMeter::new();
            let (rq, stats) = quiet
                .scan_node_region_stats("t", node, &region, &mut mq)
                .unwrap();
            assert_eq!(rt, rq.iter().map(|r| r.id).collect::<Vec<_>>());
            assert_eq!(
                (mt, st),
                (mq, stats),
                "the adapter charges and counts alike"
            );
            quiet.record_scan("t", node, "region", &stats, &TraceContext::NONE);
        }
        let ts = traced_sink.snapshot().unwrap();
        let qs = quiet_sink.snapshot().unwrap();
        for counter in [
            "storage.node.scans",
            "storage.node.blocks_read",
            "storage.node.blocks_pruned",
            "storage.node.bytes_read",
        ] {
            assert_eq!(ts.counter(counter), qs.counter(counter), "{counter}");
        }
        assert_eq!(
            ts.event_count("storage.node.scanned"),
            qs.event_count("storage.node.scanned")
        );
        assert_eq!(ts.spans.roots.len(), qs.spans.roots.len());
        assert_eq!(ts.spans.roots[0].name, "storage.node.scan");
        assert_eq!(ts.spans.roots[0].tags, qs.spans.roots[0].tags);
    }

    #[test]
    fn quiet_scans_emit_no_telemetry() {
        let mut c = loaded_cluster();
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        let mut meter = CostMeter::new();
        let (node, failover, slow) = c.open_scan("t", 0).unwrap();
        assert!(!node.blocks().is_empty());
        assert_eq!((failover, slow), (false, 1.0), "healthy primary serves");
        let region = Rect::new(vec![0.0, 0.0], vec![50.0, 1e9]).unwrap();
        c.scan_node_region_stats("t", 1, &region, &mut meter)
            .unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("storage.node.scans"), 0);
        assert!(snap.spans.roots.is_empty());
        assert_eq!(snap.event_count("storage.node.scanned"), 0);
        assert!(meter.disk_bytes > 0, "cost is still charged");
    }
}

#[cfg(test)]
mod replication_tests {
    use super::tests::scanned;
    use super::*;

    fn replicated_cluster() -> StorageCluster {
        let mut c = StorageCluster::with_replication(4, 50);
        let records: Vec<Record> = (0..1000)
            .map(|i| Record::new(i as u64, vec![i as f64 % 100.0, i as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn total_scanned(c: &StorageCluster) -> usize {
        (0..c.num_nodes())
            .map(|n| {
                let mut m = CostMeter::new();
                scanned(c, "t", n, None, &mut m).map_or(0, |(ids, _)| ids.len())
            })
            .sum()
    }

    #[test]
    fn replicated_reads_survive_single_failure() {
        let mut c = replicated_cluster();
        assert_eq!(total_scanned(&c), 1000);
        c.set_fault_plan(FaultPlan::new(0).with_crash(2, 0));
        assert!(c.primary_down(2));
        // Partition 2 is served by the replica on node 3.
        assert_eq!(total_scanned(&c), 1000, "no records lost");
        c.clear_fault_plan();
        assert!(!c.primary_down(2));
    }

    #[test]
    fn unreplicated_cluster_loses_partition_on_failure() {
        let mut c = StorageCluster::new(4, 50);
        let records: Vec<Record> = (0..100)
            .map(|i| Record::new(i as u64, vec![i as f64]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c.set_fault_plan(FaultPlan::new(0).with_crash(1, 0));
        assert!(matches!(c.open_scan("t", 1), Err(SeaError::Storage(_))));
    }

    #[test]
    fn double_failure_of_adjacent_nodes_loses_data() {
        let mut c = replicated_cluster();
        // Node 3 held node 2's replica.
        c.set_fault_plan(FaultPlan::new(0).with_crash(2, 0).with_crash(3, 0));
        assert!(c.open_scan("t", 2).is_err());
        // Non-adjacent partitions are still fine.
        assert!(c.open_scan("t", 0).is_ok());
    }

    #[test]
    fn inserts_and_deletes_propagate_to_replicas() {
        let mut c = replicated_cluster();
        c.insert("t", vec![Record::new(5000, vec![5.0, 5.0])])
            .unwrap();
        let removed = c
            .delete_region("t", &Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap())
            .unwrap();
        assert!(removed > 0);
        // Fail each node in turn: replica contents must match the
        // post-update state (insert visible, deletes applied).
        let baseline = total_scanned(&c);
        for node in 0..4 {
            c.set_fault_plan(FaultPlan::new(0).with_crash(node, 0));
            assert_eq!(total_scanned(&c), baseline, "node {node} failover");
            c.clear_fault_plan();
        }
    }

    #[test]
    fn updates_during_failure_reconverge_and_never_double_count() {
        let mut c = replicated_cluster();
        let probe = Rect::new(vec![40.0, 0.0], vec![49.0, 1e9]).unwrap();
        // Ground truth over primaries only: what an honest delete count
        // looks like.
        let expected = {
            let recs = c.all_records("t").unwrap();
            recs.iter()
                .filter(|r| (40.0..=49.0).contains(&r.values[0]))
                .count()
        };
        c.set_fault_plan(FaultPlan::new(0).with_crash(2, 0));
        // Updates land while a node is down: one record inside the
        // soon-to-be-deleted region, one outside it.
        c.insert(
            "t",
            vec![
                Record::new(7000, vec![45.0, 4500.0]),
                Record::new(7001, vec![80.0, 8000.0]),
            ],
        )
        .unwrap();
        let removed = c.delete_region("t", &probe).unwrap();
        // Every partition also exists as a replica; a count that included
        // replica removals would report roughly double.
        assert_eq!(removed, expected + 1, "delete counts primary removals only");
        let during = total_scanned(&c);
        assert_eq!(
            during,
            1000 + 2 - removed,
            "reads during the failure see the updates through replicas"
        );
        c.clear_fault_plan();
        assert_eq!(
            total_scanned(&c),
            during,
            "restored primary reconverges with the updates applied while it was down"
        );
    }

    #[test]
    fn region_scans_work_through_replicas() {
        let mut c = replicated_cluster();
        let region = Rect::new(vec![10.0, 0.0], vec![20.0, 1e9]).unwrap();
        let count_before: usize = (0..4)
            .map(|n| {
                let mut m = CostMeter::new();
                scanned(&c, "t", n, Some(&region), &mut m).unwrap().0.len()
            })
            .sum();
        c.set_fault_plan(FaultPlan::new(0).with_crash(0, 0));
        let count_after: usize = (0..4)
            .map(|n| {
                let mut m = CostMeter::new();
                scanned(&c, "t", n, Some(&region), &mut m).unwrap().0.len()
            })
            .sum();
        assert_eq!(count_before, count_after);
    }

    #[test]
    fn a_crash_from_the_start_is_down_before_any_scan() {
        // `serving_node` takes no fault gate, so it sees the crash only
        // if installing the plan latched it.
        let mut c = replicated_cluster();
        c.set_fault_plan(FaultPlan::new(0).with_crash(2, 0));
        let (_, failover) = c.serving_node("t", 2).unwrap();
        assert!(failover, "served by node 3's replica");
        let mut lone = StorageCluster::new(4, 50);
        lone.load_table("t", vec![Record::new(0, vec![0.0])], Partitioning::Hash)
            .unwrap();
        lone.set_fault_plan(FaultPlan::new(0).with_crash(2, 0));
        assert!(matches!(
            lone.serving_node("t", 2),
            Err(SeaError::Storage(_))
        ));
    }

    #[test]
    fn fail_validation() {
        let mut c = replicated_cluster();
        // A crash naming a node outside the cluster is ignored at install.
        c.set_fault_plan(FaultPlan::new(0).with_crash(99, 0));
        assert!(!c.primary_down(99));
        assert_eq!(total_scanned(&c), 1000);
        assert_eq!(c.replication, 2);
        assert_eq!(StorageCluster::new(2, 10).replication, 1);
    }
}
