//! A DBL-style learned layer over the sampling AQP engine (\[19\]).
//!
//! Database Learning observes (query, approximate answer, exact answer)
//! triples and learns to correct the AQP engine's error, so the system
//! "becomes smarter every time". Our variant keeps the architecture the
//! paper criticizes — it *inherits* the AQP engine's storage and per-query
//! BDAS access costs, plus storage for its own training history — while
//! improving accuracy with use. That combination is what experiments E2
//! and E8 compare the SEA agent against.

use sea_common::{AnalyticalQuery, AnswerValue, Result, SeaError};
use sea_ml::linreg::RecursiveLeastSquares;
use sea_ml::Regressor;

use super::sampling::{AqpOutcome, SamplingAqp};

/// A learned correction layer over [`SamplingAqp`].
#[derive(Debug)]
pub struct LearnedAqp {
    engine: SamplingAqp,
    /// Correction model: query features → multiplicative residual
    /// (exact / estimate).
    correction: RecursiveLeastSquares,
    /// Stored training history (the storage overhead DBL pays; \[19\] keeps
    /// thousands of answer items per executed query).
    history: Vec<(Vec<f64>, f64)>,
    trained: u64,
}

impl LearnedAqp {
    /// Wraps a sampling engine.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn new(engine: SamplingAqp, feature_dims: usize) -> Result<Self> {
        Ok(LearnedAqp {
            engine,
            correction: RecursiveLeastSquares::new(feature_dims, 100.0, 1.0)?,
            history: Vec::new(),
            trained: 0,
        })
    }

    /// Observations absorbed.
    pub fn trained(&self) -> u64 {
        self.trained
    }

    /// Total storage: the sample plus the retained training history
    /// (the E8 metric).
    pub fn storage_bytes(&self) -> u64 {
        let hist: u64 = self
            .history
            .iter()
            .map(|(f, _)| 8 * f.len() as u64 + 16)
            .sum();
        self.engine.storage_bytes() + hist
    }

    /// Learns from one exactly-executed query.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; non-scalar answers are rejected.
    pub fn observe(&mut self, query: &AnalyticalQuery, exact: &AnswerValue) -> Result<()> {
        let approx = self.engine.query(query)?;
        let (a, e) = match (approx.answer.as_scalar(), exact.as_scalar()) {
            (Some(a), Some(e)) => (a, e),
            _ => return Err(SeaError::invalid("LearnedAqp corrects scalar answers only")),
        };
        if a.abs() < 1e-9 {
            return Ok(()); // nothing to scale from
        }
        let ratio = (e / a).clamp(0.0, 10.0);
        let features = query.region.to_feature_vector();
        self.correction.update(&features, ratio)?;
        self.history.push((features, ratio));
        self.trained += 1;
        Ok(())
    }

    /// Answers a query: the sample estimate, multiplied by the learned
    /// correction once enough observations exist.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn query(&self, query: &AnalyticalQuery) -> Result<AqpOutcome> {
        let base = self.engine.query(query)?;
        if self.trained < 5 {
            return Ok(base);
        }
        let Some(a) = base.answer.as_scalar() else {
            return Ok(base);
        };
        let ratio = self
            .correction
            .predict(&query.region.to_feature_vector())
            .clamp(0.1, 10.0);
        Ok(AqpOutcome {
            answer: AnswerValue::Scalar(a * ratio),
            cost: base.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{AggregateKind, CostReport, Point, Record, Rect, Region};
    use sea_query::Executor;
    use sea_storage::{Partitioning, StorageCluster};

    /// A cluster whose density is *doubled* in a stripe, so a coarse
    /// stratified sample systematically mis-estimates counts there and the
    /// correction model has signal to learn.
    fn cluster() -> StorageCluster {
        let mut c = StorageCluster::new(4, 128);
        let mut records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
            .collect();
        // Densify x ∈ [40, 50): three extra copies at half-offsets.
        let mut id = 20_000;
        for i in 0..10_000u64 {
            let x = (i % 100) as f64;
            if (40.0..50.0).contains(&x) {
                for k in 1..=3 {
                    records.push(Record::new(
                        id,
                        vec![x + k as f64 * 0.2, (i / 100) as f64 + 0.1],
                    ));
                    id += 1;
                }
            }
        }
        c.load_table("t", records, Partitioning::Hash).unwrap();
        c
    }

    fn count_query(cx: f64, e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(Rect::centered(&Point::new(vec![cx, 50.0]), &[e, 40.0]).unwrap()),
            AggregateKind::Count,
        )
    }

    fn exact(c: &StorageCluster, q: &AnalyticalQuery) -> AnswerValue {
        let all: Vec<Record> = c.all_records("t").unwrap();
        q.answer_exact(&all).unwrap()
    }

    #[test]
    fn learning_corrects_systematically_stale_samples() {
        // The sample is built BEFORE the dense stripe appears (the classic
        // stale-sample failure of offline AQP); exact answers come from the
        // grown table, so the engine systematically underestimates and the
        // correction model has real signal.
        let mut sparse = StorageCluster::new(4, 128);
        let base: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
            .collect();
        sparse.load_table("t", base, Partitioning::Hash).unwrap();
        let domain = Rect::new(vec![0.0, 0.0], vec![101.0, 101.0]).unwrap();
        let engine = SamplingAqp::build(&Executor::new(&sparse), "t", domain, 10, 40, 3).unwrap();

        let grown = cluster(); // same data + 4x density in x ∈ [40, 50)
        let mut learned = LearnedAqp::new(engine, 5).unwrap();

        let probe = count_query(45.0, 4.0);
        let truth = exact(&grown, &probe);
        let before = learned.query(&probe).unwrap().answer.relative_error(&truth);
        assert!(before > 0.5, "stale sample badly underestimates: {before}");

        for i in 0..40 {
            let q = count_query(43.0 + (i % 5) as f64, 3.0 + (i % 4) as f64 * 0.5);
            let t = exact(&grown, &q);
            learned.observe(&q, &t).unwrap();
        }
        let after = learned.query(&probe).unwrap().answer.relative_error(&truth);
        assert!(
            after < before / 3.0,
            "error should drop: before {before}, after {after}"
        );
        assert_eq!(learned.trained(), 40);
    }

    #[test]
    fn storage_includes_history() {
        let c = cluster();
        let domain = Rect::new(vec![0.0, 0.0], vec![101.0, 101.0]).unwrap();
        let engine = SamplingAqp::build(&Executor::new(&c), "t", domain, 4, 20, 3).unwrap();
        let base_storage = engine.storage_bytes();
        let mut learned = LearnedAqp::new(engine, 5).unwrap();
        assert_eq!(learned.storage_bytes(), base_storage);
        for i in 0..20 {
            let q = count_query(45.0, 3.0 + i as f64 * 0.1);
            let t = exact(&c, &q);
            learned.observe(&q, &t).unwrap();
        }
        assert!(
            learned.storage_bytes() > base_storage,
            "history costs bytes"
        );
    }

    #[test]
    fn queries_still_pay_aqp_cost() {
        let c = cluster();
        let domain = Rect::new(vec![0.0, 0.0], vec![101.0, 101.0]).unwrap();
        let engine = SamplingAqp::build(&Executor::new(&c), "t", domain, 4, 20, 3).unwrap();
        let learned = LearnedAqp::new(engine, 5).unwrap();
        let out = learned.query(&count_query(45.0, 3.0)).unwrap();
        assert_ne!(out.cost, CostReport::zero());
    }

    #[test]
    fn non_scalar_observation_rejected() {
        let c = cluster();
        let domain = Rect::new(vec![0.0, 0.0], vec![101.0, 101.0]).unwrap();
        let engine = SamplingAqp::build(&Executor::new(&c), "t", domain, 4, 20, 3).unwrap();
        let mut learned = LearnedAqp::new(engine, 5).unwrap();
        let q = count_query(45.0, 3.0);
        assert!(learned.observe(&q, &AnswerValue::Pair(1.0, 2.0)).is_err());
    }
}
