//! Access-method selection (RT3-1/RT3-2): full-partition scan with
//! node-side aggregation versus index-driven point fetches.
//!
//! This is the classic selectivity trade-off the optimizer must learn:
//!
//! * **ScanAggregate** — the coordinator–cohort scan: every candidate node
//!   reads its (zone-map-pruned) partition sequentially and ships a
//!   constant-size partial aggregate. Cost ≈ partition bytes, independent
//!   of how many records match.
//! * **IndexFetch** — a secondary grid index maps the selection to
//!   candidate row positions; each candidate is fetched from storage with
//!   a *random point read* and shipped to the coordinator, which
//!   aggregates. Cost ≈ matches × point-read, independent of partition
//!   size.
//!
//! Narrow selections favour the index; wide ones favour the scan; the
//! crossover moves with table size — exactly the structure a learned
//! selector (RT3/G6) must capture.

use sea_common::{
    AnalyticalQuery, CostMeter, CostReport, ExecMode, Record, Rect, Result, SeaError,
};
use sea_query::{Executor, Provenance, QueryOutcome};
use sea_storage::{NodeId, StorageCluster};

use crate::GridIndex;

/// An execution strategy for analytical queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryStrategy {
    /// Sequential pruned scan with node-side partial aggregation.
    ScanAggregate,
    /// Secondary-index lookup with per-record point fetches.
    IndexFetch,
}

impl QueryStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [QueryStrategy; 2] = [QueryStrategy::ScanAggregate, QueryStrategy::IndexFetch];
}

/// The execution context the optimizer chooses within: the cluster, the
/// table, and a pre-built secondary index holding positions into the
/// stored table, not a copy of it.
#[derive(Debug)]
pub struct ExecutionEngines<'a> {
    cluster: &'a StorageCluster,
    table: String,
    /// The secondary grid index, keyed by each row's ordinal in scan
    /// order: node, then block, then row.
    grid: GridIndex,
    /// `(node, block, first ordinal)` for every block, in ordinal order:
    /// where a candidate's row sits in its partition's serving copy.
    blocks: Vec<(NodeId, usize, u64)>,
    record_bytes: u64,
}

impl<'a> ExecutionEngines<'a> {
    /// Builds the secondary grid index over `table` in one offline pass
    /// through [`Executor::scatter`] — billed, fault-gated and traced
    /// like any scan, under one `optimizer.engines.build` span carrying
    /// the pass's simulated µs — from the columns, no row materialised.
    ///
    /// # Errors
    ///
    /// Missing table, invalid grid parameters, or an unreadable
    /// partition (an index of part of the table would answer short).
    pub fn build(
        exec: &Executor<'a>,
        table: &str,
        domain: Rect,
        cells_per_dim: usize,
    ) -> Result<Self> {
        let dims = exec.cluster().dims(table)?;
        SeaError::check_dims(dims, domain.dims())?;
        let mut grid = GridIndex::new(domain, cells_per_dim)?;
        let span = exec.telemetry().span("optimizer.engines.build");
        let (mut blocks, mut ordinal, mut row) = (Vec::new(), 0u64, vec![0.0; dims]);
        let scatter = exec.scatter(table, None, ExecMode::Direct, |node, views, _| {
            // The pass admits every block, so a view's position is the
            // block's index in the serving copy.
            for (block, v) in views.iter().enumerate() {
                blocks.push((node, block, ordinal));
                for i in 0..v.block.len() {
                    for (x, col) in row.iter_mut().zip(v.block.cols()) {
                        *x = col[i];
                    }
                    grid.insert(ordinal, &row)?;
                    ordinal += 1;
                }
            }
            Ok(())
        })?;
        let bill = scatter.complete()?.report(&CostMeter::new());
        span.record_sim_us(bill.wall_us);
        Ok(ExecutionEngines {
            cluster: exec.cluster(),
            table: table.to_string(),
            grid,
            blocks,
            record_bytes: Record::bytes_of(dims),
        })
    }

    /// Executes `query` with the chosen strategy. Both arms read the
    /// caller's `executor`'s cluster: the scan runs on the executor (its
    /// telemetry sink, pool, retry policy and cache); the index fetch
    /// reads each candidate from its partition's serving copy there and
    /// is priced from the same price list.
    ///
    /// # Errors
    ///
    /// As the underlying strategy.
    pub fn execute(
        &self,
        strategy: QueryStrategy,
        query: &AnalyticalQuery,
        executor: &Executor<'_>,
    ) -> Result<QueryOutcome> {
        match strategy {
            QueryStrategy::ScanAggregate => executor.execute_direct(&self.table, query),
            QueryStrategy::IndexFetch => self.index_fetch(query, executor),
        }
    }

    /// Estimates the modelled wall-clock (µs) of executing `query` with
    /// `strategy` **without touching any data** — the planner-side cost
    /// model behind `sea-lang`'s access-path choice and EXPLAIN's
    /// "estimated vs actual" comparison.
    ///
    /// * [`QueryStrategy::ScanAggregate`] — priced by the executor's own
    ///   scan-cost rule: every partition's serving copy is asked
    ///   [`DataNode::charge_scan`](sea_storage::DataNode::charge_scan)
    ///   for the query's bounding box, and each partition that admits a
    ///   block ships a constant-size partial. Partitions that admit no
    ///   block or have no live copy are skipped. The estimate equals the
    ///   measured cost of a healthy scan whose partials are that size
    ///   (`count()`); it is off only by a larger partial's wire bytes
    ///   and by partitions the executor engages that admit nothing.
    /// * [`QueryStrategy::IndexFetch`] — priced from the grid index:
    ///   candidates from overlapping cells, one point read each,
    ///   spread across the cluster — the charges the real fetch makes,
    ///   which reads records only to aggregate them, so estimate and
    ///   actual coincide.
    ///
    /// Deterministic: same engines, same query, same number.
    ///
    /// # Errors
    ///
    /// Missing table or invalid query geometry.
    pub fn estimate_cost(&self, strategy: QueryStrategy, query: &AnalyticalQuery) -> Result<f64> {
        let bbox = query.region.bounding_rect();
        match strategy {
            QueryStrategy::ScanAggregate => {
                let mut coord = CostMeter::new();
                let mut node_meters = Vec::new();
                for node in 0..self.cluster.num_nodes() {
                    let serving = match self.cluster.serving_node(&self.table, node) {
                        Ok((serving, _)) => serving,
                        Err(SeaError::Storage(_)) => continue,
                        Err(e) => return Err(e),
                    };
                    let mut m = CostMeter::new();
                    if serving.charge_scan(Some(&bbox), &mut m).0.is_empty() {
                        continue;
                    }
                    coord.charge_lan(64); // request fan-out
                    m.touch_node(ExecMode::Direct);
                    m.charge_lan(24); // constant-size partial
                    node_meters.push(m);
                }
                coord.charge_cpu(node_meters.len() as u64);
                Ok(coord.report_parallel(node_meters.iter()).wall_us)
            }
            QueryStrategy::IndexFetch => {
                let candidates = self.grid.candidates(&bbox)?.len();
                Ok(self.point_read_cost(candidates).wall_us)
            }
        }
    }

    /// The bill for fetching `candidates` records through the index: one
    /// point read each on the data nodes — modelled as spread evenly and
    /// running in parallel across the cluster — each shipped to the
    /// coordinator, which pays CPU per candidate.
    fn point_read_cost(&self, candidates: usize) -> CostReport {
        let nodes = self.cluster.num_nodes().max(1);
        let per_node = candidates.div_ceil(nodes).max(1);
        let mut node_meters = Vec::new();
        let mut remaining = candidates;
        while remaining > 0 {
            let chunk = remaining.min(per_node);
            let mut m = CostMeter::new();
            m.touch_node(ExecMode::Direct);
            for _ in 0..chunk {
                m.charge_point_read(self.record_bytes);
            }
            m.charge_lan(chunk as u64 * self.record_bytes);
            node_meters.push(m);
            remaining -= chunk;
        }
        let mut coord = CostMeter::new();
        coord.charge_cpu(candidates as u64);
        coord.report_parallel(node_meters.iter())
    }

    /// Index-driven execution: candidates from overlapping grid cells,
    /// one point read per candidate from its partition's serving copy on
    /// the executor's cluster (a replica is a block-for-block clone of
    /// its primary, so a failover read resolves the same position),
    /// aggregation at the coordinator.
    fn index_fetch(
        &self,
        query: &AnalyticalQuery,
        executor: &Executor<'_>,
    ) -> Result<QueryOutcome> {
        query.aggregate.validate(self.grid.dims())?;
        let bbox = query.region.bounding_rect();
        let candidates = self.grid.candidates(&bbox)?;
        let cluster = executor.cluster();
        SeaError::check_dims(cluster.dims(&self.table)?, self.grid.dims())?;
        // A partition out of reach fails the fetch only if a candidate
        // lives there.
        let copies: Vec<_> = (0..cluster.num_nodes())
            .map(|node| cluster.serving_node(&self.table, node))
            .collect();
        let mut matched = Vec::new();
        for &ordinal in &candidates {
            let at = self.blocks.partition_point(|&(.., first)| first <= ordinal);
            let &(node, block, first) = self.blocks[..at].last().ok_or_else(|| stale(ordinal))?;
            let (copy, _) = copies.get(node).ok_or_else(|| stale(ordinal))?.clone()?;
            let row = (ordinal - first) as usize;
            let block = (copy.blocks().get(block))
                .filter(|b| row < b.len())
                .ok_or_else(|| stale(ordinal))?;
            let r = block.record(row);
            if query.region.contains_record(&r) {
                matched.push(r);
            }
        }
        let answer = query.aggregate.compute(&matched)?;
        Ok(QueryOutcome {
            answer,
            cost: self.point_read_cost(candidates.len()),
            provenance: Provenance::default(),
        })
    }

    /// Ground-truth best strategy for one query (executes all strategies).
    ///
    /// # Errors
    ///
    /// As [`ExecutionEngines::execute`].
    pub fn oracle_choice(
        &self,
        query: &AnalyticalQuery,
        executor: &Executor<'_>,
    ) -> Result<(QueryStrategy, f64)> {
        let mut best: Option<(QueryStrategy, f64)> = None;
        for s in QueryStrategy::ALL {
            let out = self.execute(s, query, executor)?;
            if best.is_none_or(|(_, c)| out.cost.wall_us < c) {
                best = Some((s, out.cost.wall_us));
            }
        }
        best.ok_or_else(|| SeaError::Empty("no strategies".into()))
    }
}

/// A candidate position the executor's cluster does not hold: the index
/// was built over another image of the table.
fn stale(ordinal: u64) -> SeaError {
    SeaError::Storage(format!("indexed row {ordinal} is not stored"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{AggregateKind, Point, Region};
    use sea_storage::{FaultPlan, Partitioning};

    /// `t` on `c`, range-partitioned on dim 0: partition 1 holds
    /// dim 0 in [25, 50).
    fn load(mut c: StorageCluster) -> StorageCluster {
        let records: Vec<Record> = (0..40_000)
            .map(|i| Record::new(i, vec![(i / 400) as f64, (i % 400) as f64]))
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

    fn cluster() -> StorageCluster {
        load(StorageCluster::new(4, 512))
    }

    fn domain() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![100.0, 400.0]).unwrap()
    }

    fn engines(c: &StorageCluster) -> ExecutionEngines<'_> {
        ExecutionEngines::build(&Executor::new(c), "t", domain(), 100).unwrap()
    }

    fn count_query(cx: f64, e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![cx, 200.0]), &[e, 5.0 * e]).unwrap()),
            AggregateKind::Count,
        )
    }

    #[test]
    fn strategies_agree_on_answers() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        for q in [count_query(50.0, 2.0), count_query(20.0, 30.0)] {
            let scan = eng
                .execute(QueryStrategy::ScanAggregate, &q, &exec)
                .unwrap();
            let fetch = eng.execute(QueryStrategy::IndexFetch, &q, &exec).unwrap();
            assert_eq!(scan.answer, fetch.answer);
        }
    }

    #[test]
    fn index_wins_narrow_scan_wins_wide() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        let narrow = count_query(50.0, 0.5);
        let (best_narrow, _) = eng.oracle_choice(&narrow, &exec).unwrap();
        assert_eq!(best_narrow, QueryStrategy::IndexFetch);

        let wide = count_query(50.0, 50.0); // the whole table
        let scan = eng
            .execute(QueryStrategy::ScanAggregate, &wide, &exec)
            .unwrap();
        let fetch = eng
            .execute(QueryStrategy::IndexFetch, &wide, &exec)
            .unwrap();
        assert!(
            scan.cost.wall_us < fetch.cost.wall_us,
            "wide selections favour the scan: scan {} fetch {}",
            scan.cost.wall_us,
            fetch.cost.wall_us
        );
    }

    #[test]
    fn crossover_exists_along_the_extent_sweep() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        let mut saw_fetch = false;
        let mut saw_scan = false;
        for e in [0.5, 2.0, 8.0, 20.0, 50.0] {
            let (best, _) = eng.oracle_choice(&count_query(50.0, e), &exec).unwrap();
            match best {
                QueryStrategy::IndexFetch => saw_fetch = true,
                QueryStrategy::ScanAggregate => saw_scan = true,
            }
        }
        assert!(saw_fetch && saw_scan, "both strategies win somewhere");
    }

    #[test]
    fn estimates_rank_strategies_like_the_oracle_at_the_extremes() {
        let c = cluster();
        let eng = engines(&c);
        let narrow = count_query(50.0, 0.5);
        let est_scan = eng
            .estimate_cost(QueryStrategy::ScanAggregate, &narrow)
            .unwrap();
        let est_fetch = eng
            .estimate_cost(QueryStrategy::IndexFetch, &narrow)
            .unwrap();
        assert!(
            est_fetch < est_scan,
            "narrow: index should estimate cheaper ({est_fetch} vs {est_scan})"
        );
        let wide = count_query(50.0, 50.0);
        let est_scan = eng
            .estimate_cost(QueryStrategy::ScanAggregate, &wide)
            .unwrap();
        let est_fetch = eng.estimate_cost(QueryStrategy::IndexFetch, &wide).unwrap();
        assert!(
            est_scan < est_fetch,
            "wide: scan should estimate cheaper ({est_scan} vs {est_fetch})"
        );
    }

    #[test]
    fn index_estimate_matches_measured_cost_and_scan_estimate_is_deterministic() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        let q = count_query(50.0, 2.0);
        let est = eng.estimate_cost(QueryStrategy::IndexFetch, &q).unwrap();
        let actual = eng.execute(QueryStrategy::IndexFetch, &q, &exec).unwrap();
        assert_eq!(est.to_bits(), actual.cost.wall_us.to_bits());
        let a = eng.estimate_cost(QueryStrategy::ScanAggregate, &q).unwrap();
        let b = eng.estimate_cost(QueryStrategy::ScanAggregate, &q).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a > 0.0);

        // The scan estimate is the executor's own scan-cost rule: on a
        // healthy table, range- or hash-partitioned, it is the measured
        // cost of a `count()` (constant-size partials) to the bit, as
        // long as every partition the executor engages admits a block.
        let mut hashed = StorageCluster::new(4, 512);
        hashed
            .load_table("t", c.all_records("t").unwrap(), Partitioning::Hash)
            .unwrap();
        for cluster in [&c, &hashed] {
            let eng = engines(cluster);
            let exec = Executor::new(cluster);
            for q in [count_query(50.0, 2.0), count_query(20.0, 30.0)] {
                let est = eng.estimate_cost(QueryStrategy::ScanAggregate, &q).unwrap();
                let actual = exec.execute_direct("t", &q).unwrap();
                assert_eq!(est.to_bits(), actual.cost.wall_us.to_bits());
            }
        }
    }

    #[test]
    fn fetch_errors_propagate() {
        let c = cluster();
        let eng = engines(&c);
        let empty_mean = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![-10.0, -10.0], vec![-5.0, -5.0]).unwrap()),
            AggregateKind::Mean { dim: 0 },
        );
        assert!(eng
            .execute(QueryStrategy::IndexFetch, &empty_mean, &Executor::new(&c))
            .is_err());
    }

    #[test]
    fn build_validates() {
        let c = cluster();
        let exec = Executor::new(&c);
        let bad_domain = Rect::new(vec![0.0], vec![1.0]).unwrap();
        assert!(ExecutionEngines::build(&exec, "t", bad_domain, 10).is_err());
        assert!(ExecutionEngines::build(&exec, "missing", domain(), 10).is_err());
    }

    /// Queries over partition 1's rows that read every column.
    fn partition_one_queries() -> Vec<AnalyticalQuery> {
        let region = count_query(30.0, 2.0).region; // dim 0 in [28, 32]
        [
            AggregateKind::Count,
            AggregateKind::Mean { dim: 1 },
            AggregateKind::Variance { dim: 0 },
        ]
        .into_iter()
        .map(|agg| AnalyticalQuery::new(region.clone(), agg))
        .collect()
    }

    #[test]
    fn the_index_arm_reads_live_storage() {
        let c = cluster();
        let eng = engines(&c);
        let mut failed = c.clone();
        failed.set_fault_plan(FaultPlan::new(0).with_crash(1, 0));
        let exec = Executor::new(&failed);
        // No replica holds partition 1: a fetch that needs its rows fails
        // like a scan would; one whose candidates live elsewhere answers.
        for q in partition_one_queries() {
            let fetched = eng.execute(QueryStrategy::IndexFetch, &q, &exec);
            assert!(matches!(fetched, Err(SeaError::Storage(_))), "{fetched:?}");
        }
        let elsewhere = count_query(80.0, 2.0);
        let healthy = eng.execute(QueryStrategy::IndexFetch, &elsewhere, &Executor::new(&c));
        let fetched = eng.execute(QueryStrategy::IndexFetch, &elsewhere, &exec);
        assert_eq!(fetched.unwrap(), healthy.unwrap());
        // Neither offline pass builds from part of the table.
        let built = ExecutionEngines::build(&exec, "t", domain(), 100);
        assert!(matches!(built, Err(SeaError::Storage(_))));
        let learned = crate::LearnedOptimizer::new(&exec, "t", 16);
        assert!(matches!(learned, Err(SeaError::Storage(_))));
    }

    #[test]
    fn a_failover_fetch_resolves_the_same_positions() {
        let healthy = load(StorageCluster::with_replication(4, 512));
        let mut failed = healthy.clone();
        failed.set_fault_plan(FaultPlan::new(0).with_crash(1, 0));
        let eng = engines(&healthy);
        let built_on_failover = engines(&failed);
        for q in partition_one_queries() {
            let want = eng
                .execute(QueryStrategy::IndexFetch, &q, &Executor::new(&healthy))
                .unwrap();
            for e in [&eng, &built_on_failover] {
                let got = e
                    .execute(QueryStrategy::IndexFetch, &q, &Executor::new(&failed))
                    .unwrap();
                assert_eq!(format!("{:?}", got.answer), format!("{:?}", want.answer));
                assert_eq!(got.cost.wall_us.to_bits(), want.cost.wall_us.to_bits());
                assert_eq!(got, want);
            }
        }
    }
}
