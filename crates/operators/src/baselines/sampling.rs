//! A BlinkDB-style stratified-sampling AQP engine.

use sea_common::{
    AggregateKind, AnalyticalQuery, AnswerValue, CostMeter, CostModel, CostReport, Record, Rect,
    Result, SeaError,
};
use sea_query::Executor;
use sea_storage::BDAS_LAYERS;

use crate::{GridIndex, StratifiedSample};

/// The outcome of an approximate query: the estimate and its resource bill.
#[derive(Debug, Clone, PartialEq)]
pub struct AqpOutcome {
    /// The approximate answer.
    pub answer: AnswerValue,
    /// Cost of producing it.
    pub cost: CostReport,
}

/// A stratified-sampling approximate query engine.
///
/// Strata are the cells of a coarse grid over the data domain, so spatial
/// selections always intersect some represented stratum. The sample is
/// built once by a full scan (the offline cost BlinkDB pays on sample
/// creation) and then serves queries by scanning only the sample —
/// *through the BDAS stack*, which is the paper's architectural criticism:
/// the engine's "key functionality \[is\] at the wrong place within the big
/// data analytics stack".
#[derive(Debug, Clone)]
pub struct SamplingAqp {
    sample: StratifiedSample,
    /// Nodes the sample is spread over (for per-query cost accounting).
    sample_nodes: usize,
    build_cost: CostReport,
    cost_model: CostModel,
}

impl SamplingAqp {
    /// Builds the engine over table `table` with `per_stratum` sampled
    /// records per stratum of a `cells_per_dim`-grid over `domain`.
    ///
    /// # Errors
    ///
    /// Missing table, invalid grid parameters, zero `per_stratum`, or an
    /// unreadable partition (a sample of part of it would answer short).
    pub fn build(
        exec: &Executor,
        table: &str,
        domain: Rect,
        cells_per_dim: usize,
        per_stratum: usize,
        seed: u64,
    ) -> Result<Self> {
        // The grid only defines the strata.
        let grid = GridIndex::new(domain, cells_per_dim)?;
        // Offline pass: full BDAS scan of every node. Records ship as rows
        // on purpose: the stratified sample stores rows.
        let mut all: Vec<Record> = Vec::new();
        let scatter = exec.scatter(table, None, BDAS_LAYERS, |_, views, _| {
            for v in views {
                v.mask.for_each_set(|i| all.push(v.block.record(i)));
            }
            Ok(())
        })?;
        let scatter = scatter.complete()?;
        let sample = StratifiedSample::build(&all, per_stratum, seed, |r| {
            grid.cell_of(&r.values).unwrap_or(0) as u64
        })?;
        let mut coord = CostMeter::new();
        coord.charge_lan(sample.memory_bytes());
        let cost_model = exec.cost_model().clone();
        let build_cost = scatter.report(&coord, &cost_model);
        Ok(SamplingAqp {
            sample,
            sample_nodes: exec.cluster().num_nodes().min(4),
            build_cost,
            cost_model,
        })
    }

    /// The one-time sample-construction bill.
    pub fn build_cost(&self) -> &CostReport {
        &self.build_cost
    }

    /// Bytes the stored sample occupies (the E8 storage metric).
    pub fn storage_bytes(&self) -> u64 {
        self.sample.memory_bytes()
    }

    /// Number of sampled records.
    pub fn sample_size(&self) -> usize {
        self.sample.sample_size()
    }

    /// Answers an analytical query from the sample.
    ///
    /// Supports `Count`, `Sum`, and `Mean`; other operators return
    /// [`SeaError::InvalidArgument`] (mirroring the restricted operator
    /// support of sampling AQP engines on holistic statistics).
    ///
    /// # Errors
    ///
    /// Unsupported operator, or an empty matching sample for `Mean`.
    pub fn query(&self, query: &AnalyticalQuery) -> Result<AqpOutcome> {
        // Per-query cost: the sample partitions are scanned through the
        // BDAS stack on the nodes storing them.
        let mut node_meters = Vec::new();
        let bytes_per_node = self.storage_bytes() / self.sample_nodes.max(1) as u64;
        let recs_per_node = (self.sample_size() / self.sample_nodes.max(1)) as u64;
        for _ in 0..self.sample_nodes {
            let mut m = CostMeter::new();
            m.touch_node(BDAS_LAYERS);
            m.charge_disk_read(bytes_per_node);
            m.charge_cpu(recs_per_node);
            m.charge_lan(64);
            node_meters.push(m);
        }
        let coord = CostMeter::new();
        let cost = coord.report_parallel(node_meters.iter(), &self.cost_model);

        let region = &query.region;
        let answer = match query.aggregate {
            AggregateKind::Count => {
                AnswerValue::Scalar(self.sample.estimate_count(|r| region.contains_record(r)))
            }
            AggregateKind::Sum { dim } => {
                let mut total = 0.0;
                for (r, w) in self.sample.weighted_records() {
                    if region.contains_record(r) {
                        total += w * r.value(dim);
                    }
                }
                AnswerValue::Scalar(total)
            }
            AggregateKind::Mean { dim } => {
                let est = self
                    .sample
                    .estimate_mean(dim, |r| region.contains_record(r))
                    .ok_or_else(|| SeaError::Empty("no sampled records in the selection".into()))?;
                AnswerValue::Scalar(est)
            }
            other => {
                return Err(SeaError::invalid(format!(
                    "sampling AQP does not support {other:?}"
                )))
            }
        };
        Ok(AqpOutcome { answer, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Point, Region};
    use sea_storage::{Partitioning, StorageCluster};

    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 128);
        let records: Vec<Record> = (0..40_000)
            .map(|i| Record::new(i, vec![(i % 200) as f64 / 2.0, (i / 200) as f64 / 2.0]))
            .collect();
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn engine(c: &StorageCluster) -> SamplingAqp {
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        SamplingAqp::build(&Executor::new(c), "t", domain, 10, 40, 7).unwrap()
    }

    fn count_query(lo: Vec<f64>, hi: Vec<f64>) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::new(lo, hi).unwrap()),
            AggregateKind::Count,
        )
    }

    #[test]
    fn count_estimates_are_close() {
        let c = cluster();
        let e = engine(&c);
        let q = count_query(vec![10.0, 10.0], vec![60.0, 60.0]);
        let truth = {
            let all: Vec<Record> = c.all_records("t").unwrap();
            q.answer_exact(&all).unwrap().as_scalar().unwrap()
        };
        let out = e.query(&q).unwrap();
        let est = out.answer.as_scalar().unwrap();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.15, "rel {rel} (est {est} truth {truth})");
    }

    #[test]
    fn mean_estimates_are_close() {
        let c = cluster();
        let e = engine(&c);
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![20.0, 20.0], vec![80.0, 80.0]).unwrap()),
            AggregateKind::Mean { dim: 0 },
        );
        let out = e.query(&q).unwrap();
        let est = out.answer.as_scalar().unwrap();
        assert!((est - 50.0).abs() < 5.0, "mean of uniform 20..80: {est}");
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        let c = cluster();
        let e = engine(&c);
        let q = AnalyticalQuery::new(
            Region::Radius(sea_common::Ball::new(Point::new(vec![50.0, 50.0]), 10.0).unwrap()),
            AggregateKind::Median { dim: 0 },
        );
        assert!(matches!(e.query(&q), Err(SeaError::InvalidArgument(_))));
    }

    #[test]
    fn per_query_cost_is_smaller_than_full_scan_but_not_free() {
        let c = cluster();
        let e = engine(&c);
        let q = count_query(vec![0.0, 0.0], vec![100.0, 100.0]);
        let out = e.query(&q).unwrap();
        assert!(out.cost.wall_us > 0.0, "samples live behind the BDAS");
        assert!(out.cost.totals.layer_crossings > 0);
        // but the sample is much smaller than the base table
        let full: u64 = c.stats("t").unwrap().bytes;
        assert!(out.cost.totals.disk_bytes < full / 5);
    }

    #[test]
    fn build_cost_scans_whole_table() {
        let c = cluster();
        let e = engine(&c);
        assert_eq!(e.build_cost().totals.nodes_touched, 4);
        assert!(e.build_cost().totals.disk_bytes >= c.stats("t").unwrap().bytes);
    }

    #[test]
    fn storage_grows_with_strata() {
        let c = cluster();
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let small = SamplingAqp::build(&Executor::new(&c), "t", domain.clone(), 5, 40, 7).unwrap();
        let large = SamplingAqp::build(&Executor::new(&c), "t", domain, 20, 40, 7).unwrap();
        assert!(large.storage_bytes() > small.storage_bytes() * 4);
        assert!(large.sample_size() > small.sample_size());
    }

    #[test]
    fn empty_selection_mean_is_error() {
        let c = cluster();
        let e = engine(&c);
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![500.0, 500.0], vec![510.0, 510.0]).unwrap()),
            AggregateKind::Mean { dim: 0 },
        );
        assert!(matches!(e.query(&q), Err(SeaError::Empty(_))));
    }
}
