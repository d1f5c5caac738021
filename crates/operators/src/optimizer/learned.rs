//! The learned strategy selector (G6/O6): "train models which learn from
//! past task executions and build optimising modules, which, on-the-fly,
//! adopt the best execution method."

use sea_common::{AnalyticalQuery, ExecMode, Result, SeaError};
use sea_ml::linreg::RecursiveLeastSquares;
use sea_ml::Regressor;
use sea_query::Executor;

use crate::{EquiDepthHistogram, ExecutionEngines, QueryStrategy};

/// A learned per-strategy cost model over query features.
#[derive(Debug)]
pub struct LearnedOptimizer {
    /// One cost regressor per strategy (same order as
    /// [`QueryStrategy::ALL`]); predicts `ln(wall_us)`.
    cost_models: Vec<RecursiveLeastSquares>,
    /// Per-dimension marginal histograms for selectivity estimation.
    histograms: Vec<EquiDepthHistogram>,
    table_records: f64,
    table_bytes: f64,
    nodes: f64,
    trained: u64,
}

impl LearnedOptimizer {
    /// Creates an optimizer for `table`, collecting per-dimension
    /// histograms (the statistics pass a real system piggybacks on data
    /// loading) in one offline pass through [`Executor::scatter`], from
    /// the block columns.
    ///
    /// # Errors
    ///
    /// Missing table, or an unreadable partition (histograms of part of
    /// the table would misestimate).
    pub fn new(exec: &Executor, table: &str, buckets: usize) -> Result<Self> {
        let cluster = exec.cluster();
        let stats = cluster.stats(table)?;
        let mut columns = vec![Vec::new(); stats.dims];
        exec.scatter(table, None, ExecMode::Direct, |_, views, _| {
            for v in views {
                for (d, values) in columns.iter_mut().enumerate() {
                    values.extend_from_slice(v.block.col(d));
                }
            }
            Ok(())
        })?
        .complete()?;
        let histograms = (columns.iter())
            .map(|values| EquiDepthHistogram::build(values, buckets.max(2)))
            .collect::<Result<Vec<_>>>()?;
        let features = 4;
        let cost_models = QueryStrategy::ALL
            .iter()
            .map(|_| RecursiveLeastSquares::new(features, 100.0, 1.0))
            .collect::<Result<Vec<_>>>()?;
        Ok(LearnedOptimizer {
            cost_models,
            histograms,
            table_records: stats.records as f64,
            table_bytes: stats.bytes as f64,
            nodes: cluster.num_nodes() as f64,
            trained: 0,
        })
    }

    /// Number of training executions absorbed.
    pub fn trained(&self) -> u64 {
        self.trained
    }

    /// Estimated selectivity of a query (independence assumption over
    /// per-dimension marginals).
    pub fn estimate_selectivity(&self, query: &AnalyticalQuery) -> f64 {
        let bbox = query.region.bounding_rect();
        let mut sel = 1.0;
        for (d, h) in self.histograms.iter().enumerate() {
            if d < bbox.dims() {
                sel *= h.estimate_selectivity(bbox.lo()[d], bbox.hi()[d]);
            }
        }
        sel
    }

    /// Feature vector of a query: `[ln(est matches + 1), est selectivity,
    /// ln(table bytes), nodes]`.
    fn features(&self, query: &AnalyticalQuery) -> Vec<f64> {
        let sel = self.estimate_selectivity(query);
        vec![
            (sel * self.table_records + 1.0).ln(),
            sel,
            self.table_bytes.ln(),
            self.nodes,
        ]
    }

    /// Trains by executing `query` with **every** strategy and absorbing
    /// the measured costs (the in-depth experimentation pass of RT3).
    ///
    /// # Errors
    ///
    /// Execution errors propagate.
    pub fn train(
        &mut self,
        engines: &ExecutionEngines<'_>,
        query: &AnalyticalQuery,
        executor: &Executor<'_>,
    ) -> Result<()> {
        let features = self.features(query);
        for (i, s) in QueryStrategy::ALL.iter().enumerate() {
            let out = engines.execute(*s, query, executor)?;
            self.cost_models[i].update(&features, out.cost.wall_us.max(1.0).ln())?;
        }
        self.trained += 1;
        Ok(())
    }

    /// Predicted wall-clock (µs) per strategy, in [`QueryStrategy::ALL`]
    /// order.
    fn predict_costs(&self, query: &AnalyticalQuery) -> Vec<f64> {
        let features = self.features(query);
        self.cost_models
            .iter()
            .map(|m| m.predict(&features).exp())
            .collect()
    }

    /// The strategy with the lowest predicted cost.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] before any training.
    pub fn choose(&self, query: &AnalyticalQuery) -> Result<QueryStrategy> {
        if self.trained == 0 {
            return Err(SeaError::Empty("optimizer has no training yet".into()));
        }
        // `total_cmp`: a NaN prediction (a poisoned model) loses to every
        // finite one instead of panicking.
        let costs = self.predict_costs(query);
        (costs.iter().zip(QueryStrategy::ALL))
            .min_by(|a, b| a.0.total_cmp(b.0))
            .map(|(_, s)| s)
            .ok_or_else(|| SeaError::Empty("optimizer has no cost models".into()))
    }

    /// Executes with the learned choice, returning the outcome and the
    /// chosen strategy.
    ///
    /// # Errors
    ///
    /// No training yet, or execution errors.
    pub fn execute(
        &self,
        engines: &ExecutionEngines<'_>,
        query: &AnalyticalQuery,
        executor: &Executor<'_>,
    ) -> Result<(sea_query::QueryOutcome, QueryStrategy)> {
        let s = self.choose(query)?;
        Ok((engines.execute(s, query, executor)?, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{AggregateKind, Point, Record, Rect, Region};
    use sea_storage::{Partitioning, StorageCluster};

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
        ExecutionEngines::build(&Executor::new(c), "t", domain, 100).unwrap()
    }

    fn count_query(cx: f64, e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![cx, 200.0]), &[e, 5.0 * e]).unwrap()),
            AggregateKind::Count,
        )
    }

    #[test]
    fn selectivity_estimates_track_extent() {
        let c = cluster();
        let opt = LearnedOptimizer::new(&Executor::new(&c), "t", 32).unwrap();
        let narrow = opt.estimate_selectivity(&count_query(50.0, 1.0));
        let wide = opt.estimate_selectivity(&count_query(50.0, 40.0));
        assert!(narrow < wide);
        assert!(narrow > 0.0 && wide <= 1.0);
        let full = opt.estimate_selectivity(&count_query(50.0, 50.0));
        assert!(full > 0.9, "got {full}");
    }

    #[test]
    fn untrained_optimizer_refuses_to_choose() {
        let c = cluster();
        let opt = LearnedOptimizer::new(&Executor::new(&c), "t", 16).unwrap();
        assert!(matches!(
            opt.choose(&count_query(50.0, 1.0)),
            Err(SeaError::Empty(_))
        ));
    }

    #[test]
    fn a_nan_predicted_cost_loses_instead_of_panicking() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        let mut opt = LearnedOptimizer::new(&Executor::new(&c), "t", 16).unwrap();
        let q = count_query(50.0, 1.0);
        opt.train(&eng, &q, &exec).unwrap();
        // One NaN observation poisons the scan model's weights for good.
        opt.cost_models[0].update(&[f64::NAN; 4], 1.0).unwrap();
        assert!(opt.predict_costs(&q)[0].is_nan());
        assert_eq!(opt.choose(&q).unwrap(), QueryStrategy::IndexFetch);
        opt.cost_models[1].update(&[f64::NAN; 4], 1.0).unwrap();
        assert!(opt.choose(&q).is_ok(), "every cost NaN: still a choice");
    }

    #[test]
    fn learned_choice_matches_oracle_after_training() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        let mut opt = LearnedOptimizer::new(&Executor::new(&c), "t", 32).unwrap();
        for i in 0..30 {
            let e = 0.5 + i as f64 * 1.7; // 0.5 .. 49.8
            opt.train(&eng, &count_query(50.0, e), &exec).unwrap();
        }
        let mut agree = 0;
        let mut total = 0;
        for e in [0.7, 1.5, 3.0, 6.0, 12.0, 25.0, 45.0] {
            let q = count_query(50.0, e);
            let choice = opt.choose(&q).unwrap();
            let (oracle, _) = eng.oracle_choice(&q, &exec).unwrap();
            total += 1;
            if choice == oracle {
                agree += 1;
            }
        }
        assert!(agree * 10 >= total * 7, "agreement {agree}/{total}");
    }

    #[test]
    fn learned_regret_is_small() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        let mut opt = LearnedOptimizer::new(&Executor::new(&c), "t", 32).unwrap();
        for i in 0..30 {
            let e = 0.5 + i as f64 * 1.7;
            opt.train(&eng, &count_query(50.0, e), &exec).unwrap();
        }
        let mut learned_cost = 0.0;
        let mut oracle_cost = 0.0;
        for e in [0.9, 2.5, 7.0, 15.0, 35.0] {
            let q = count_query(50.0, e);
            let (out, _) = opt.execute(&eng, &q, &exec).unwrap();
            learned_cost += out.cost.wall_us;
            let (_, best) = eng.oracle_choice(&q, &exec).unwrap();
            oracle_cost += best;
        }
        let regret = learned_cost / oracle_cost;
        assert!(regret < 1.5, "regret factor {regret}");
    }

    #[test]
    fn execute_returns_answer_and_strategy() {
        let c = cluster();
        let eng = engines(&c);
        let exec = Executor::new(&c);
        let mut opt = LearnedOptimizer::new(&Executor::new(&c), "t", 16).unwrap();
        opt.train(&eng, &count_query(50.0, 5.0), &exec).unwrap();
        let q = count_query(50.0, 5.0);
        let (out, s) = opt.execute(&eng, &q, &exec).unwrap();
        assert!(QueryStrategy::ALL.contains(&s));
        assert!(out.answer.as_scalar().unwrap() > 0.0);
        assert_eq!(opt.trained(), 1);
    }
}
