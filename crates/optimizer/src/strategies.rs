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
//!   candidate record ids; each candidate is fetched with a *random point
//!   read* and shipped to the coordinator, which aggregates. Cost ≈
//!   matches × point-read, independent of partition size.
//!
//! Narrow selections favour the index; wide ones favour the scan; the
//! crossover moves with table size — exactly the structure a learned
//! selector (RT3/G6) must capture.

use sea_common::{
    AnalyticalQuery, CostMeter, CostModel, CostReport, Record, RecordId, Rect, Result, SeaError,
};
use sea_index::GridIndex;
use sea_query::{Executor, Provenance, QueryOutcome};
use sea_storage::{StorageCluster, DIRECT_LAYERS};

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
/// table, and a pre-built secondary index.
#[derive(Debug)]
pub struct ExecutionEngines<'a> {
    cluster: &'a StorageCluster,
    table: String,
    grid: GridIndex,
    /// id → (record clone, node) — the base-data image the index points
    /// into; fetches through it are charged as point reads.
    by_id: std::collections::HashMap<RecordId, Record>,
    record_bytes: u64,
}

impl<'a> ExecutionEngines<'a> {
    /// Builds the secondary grid index over `table` (one offline pass).
    ///
    /// # Errors
    ///
    /// Missing table or invalid grid parameters.
    pub fn build(
        cluster: &'a StorageCluster,
        table: &str,
        domain: Rect,
        cells_per_dim: usize,
    ) -> Result<Self> {
        let dims = cluster.dims(table)?;
        SeaError::check_dims(dims, domain.dims())?;
        let mut grid = GridIndex::new(domain, cells_per_dim)?;
        let mut by_id = std::collections::HashMap::new();
        for r in cluster.all_records(table)? {
            grid.insert(&r)?;
            by_id.insert(r.id, r);
        }
        Ok(ExecutionEngines {
            cluster,
            table: table.to_string(),
            grid,
            by_id,
            record_bytes: 8 + 8 * dims as u64,
        })
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &StorageCluster {
        self.cluster
    }

    /// The table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Executes `query` with the chosen strategy. The scan runs on the
    /// caller's `executor` (its telemetry sink, pool, retry policy and
    /// cache); the index fetch is priced by the same executor's cost
    /// model.
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
            QueryStrategy::IndexFetch => self.index_fetch(query, executor.cost_model()),
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
    ///   candidate ids from overlapping cells, one point read each,
    ///   spread across the cluster — the charges the real fetch makes,
    ///   which reads records only to aggregate them, so estimate and
    ///   actual coincide.
    ///
    /// Deterministic: same engines, same query, same number.
    ///
    /// # Errors
    ///
    /// Missing table or invalid query geometry.
    pub fn estimate_cost(
        &self,
        strategy: QueryStrategy,
        query: &AnalyticalQuery,
        cost_model: &CostModel,
    ) -> Result<f64> {
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
                    m.touch_node(DIRECT_LAYERS);
                    m.charge_lan(24); // constant-size partial
                    node_meters.push(m);
                }
                coord.charge_cpu(node_meters.len() as u64);
                Ok(coord
                    .report_parallel(node_meters.iter(), cost_model)
                    .wall_us)
            }
            QueryStrategy::IndexFetch => {
                let candidates = self.grid.candidates(&bbox)?.len();
                Ok(self.point_read_cost(candidates, cost_model).wall_us)
            }
        }
    }

    /// The bill for fetching `candidates` records through the index: one
    /// point read each on the data nodes — modelled as spread evenly and
    /// running in parallel across the cluster — each shipped to the
    /// coordinator, which pays CPU per candidate.
    fn point_read_cost(&self, candidates: usize, cost_model: &CostModel) -> CostReport {
        let nodes = self.cluster.num_nodes().max(1);
        let per_node = candidates.div_ceil(nodes).max(1);
        let mut node_meters = Vec::new();
        let mut remaining = candidates;
        while remaining > 0 {
            let chunk = remaining.min(per_node);
            let mut m = CostMeter::new();
            m.touch_node(DIRECT_LAYERS);
            for _ in 0..chunk {
                m.charge_point_read(self.record_bytes);
            }
            m.charge_lan(chunk as u64 * self.record_bytes);
            node_meters.push(m);
            remaining -= chunk;
        }
        let mut coord = CostMeter::new();
        coord.charge_cpu(candidates as u64);
        coord.report_parallel(node_meters.iter(), cost_model)
    }

    /// Index-driven execution: candidate ids from overlapping grid cells,
    /// one point read per candidate, aggregation at the coordinator.
    fn index_fetch(&self, query: &AnalyticalQuery, cost_model: &CostModel) -> Result<QueryOutcome> {
        query.aggregate.validate(self.grid.dims())?;
        let bbox = query.region.bounding_rect();
        let candidates = self.grid.candidates(&bbox)?;
        let matched: Vec<&Record> = candidates
            .iter()
            .filter_map(|id| self.by_id.get(id))
            .filter(|r| query.region.contains_record(r))
            .collect();
        let answer = query.aggregate.compute(matched)?;
        Ok(QueryOutcome {
            answer,
            cost: self.point_read_cost(candidates.len(), cost_model),
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

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{AggregateKind, Point, Region};
    use sea_storage::Partitioning;

    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 512);
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

    fn engines(c: &StorageCluster) -> ExecutionEngines<'_> {
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 400.0]).unwrap();
        ExecutionEngines::build(c, "t", domain, 100).unwrap()
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
        let model = CostModel::default();
        let narrow = count_query(50.0, 0.5);
        let est_scan = eng
            .estimate_cost(QueryStrategy::ScanAggregate, &narrow, &model)
            .unwrap();
        let est_fetch = eng
            .estimate_cost(QueryStrategy::IndexFetch, &narrow, &model)
            .unwrap();
        assert!(
            est_fetch < est_scan,
            "narrow: index should estimate cheaper ({est_fetch} vs {est_scan})"
        );
        let wide = count_query(50.0, 50.0);
        let est_scan = eng
            .estimate_cost(QueryStrategy::ScanAggregate, &wide, &model)
            .unwrap();
        let est_fetch = eng
            .estimate_cost(QueryStrategy::IndexFetch, &wide, &model)
            .unwrap();
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
        let model = exec.cost_model();
        let q = count_query(50.0, 2.0);
        let est = eng
            .estimate_cost(QueryStrategy::IndexFetch, &q, model)
            .unwrap();
        let actual = eng.execute(QueryStrategy::IndexFetch, &q, &exec).unwrap();
        assert_eq!(est.to_bits(), actual.cost.wall_us.to_bits());
        let a = eng
            .estimate_cost(QueryStrategy::ScanAggregate, &q, model)
            .unwrap();
        let b = eng
            .estimate_cost(QueryStrategy::ScanAggregate, &q, model)
            .unwrap();
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
                let est = eng
                    .estimate_cost(QueryStrategy::ScanAggregate, &q, exec.cost_model())
                    .unwrap();
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
        let bad_domain = Rect::new(vec![0.0], vec![1.0]).unwrap();
        assert!(ExecutionEngines::build(&c, "t", bad_domain, 10).is_err());
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 400.0]).unwrap();
        assert!(ExecutionEngines::build(&c, "missing", domain, 10).is_err());
    }
}
