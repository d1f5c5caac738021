//! The SEA agent: query-space quantization, per-quantum answer models,
//! prediction with error estimation, and model maintenance.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use sea_common::{
    AggregateKey, AggregateKind, AnalyticalQuery, AnswerValue, Rect, Result, SeaError,
};
use sea_ml::linreg::RecursiveLeastSquares;
use sea_ml::quantize::OnlineQuantizer;
use sea_ml::Regressor;
use sea_telemetry::TelemetrySink;

/// Minimum training queries a quantum needs before its local model is
/// trusted for prediction; below it the kNN fallback answers.
const MIN_TRAINING: u64 = 8;
/// Neighbours used by the raw-pair fallback predictor.
const KNN_K: usize = 5;
/// Cap on stored raw training pairs per quantum (memory bound; also the
/// explanation sample).
const MAX_PAIRS_PER_QUANTUM: usize = 256;

/// Configuration of a [`SeaAgent`]: the three settings its ablations
/// vary. Everything else the agent tunes is fixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// A query farther than this from every prototype of its operator's
    /// pool spawns a new quantum. It is in query-vector units (centre ⊕
    /// extents), so it should scale with the data domain.
    pub spawn_distance: f64,
    /// RLS forgetting factor in `(0, 1]`; below 1 the agent tracks drifting
    /// answer functions.
    pub forget: f64,
    /// Weight of the distance-to-prototype term in the error estimate.
    pub distance_penalty: f64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            spawn_distance: 10.0,
            forget: 1.0,
            distance_penalty: 0.05,
        }
    }
}

impl AgentConfig {
    /// The one check of an agent's settings, at construction and on
    /// every wire it reads: a zero or NaN spawn distance, or a NaN or
    /// infinite distance penalty, would make every error estimate NaN or
    /// infinite (so the agent silently never predicts), and a forgetting
    /// factor outside `(0, 1]` would fail the first quantum it trains.
    fn check(&self, dims: usize) -> Result<()> {
        if dims == 0 {
            return Err(SeaError::invalid("agent needs at least one data dimension"));
        }
        if self.spawn_distance.is_nan() || self.spawn_distance <= 0.0 {
            return Err(SeaError::invalid("spawn_distance must be positive"));
        }
        if !(self.forget > 0.0 && self.forget <= 1.0) {
            return Err(SeaError::invalid("forget must be in (0, 1]"));
        }
        if !(self.distance_penalty >= 0.0 && self.distance_penalty.is_finite()) {
            return Err(SeaError::invalid(
                "distance_penalty must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

/// A prediction produced without touching base data.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted answer.
    pub answer: AnswerValue,
    /// Estimated relative error (prequential residual mean of the quantum,
    /// inflated with the query's distance from the quantum prototype).
    pub estimated_error: f64,
    /// Index of the quantum that produced the prediction (within its
    /// operator pool).
    pub quantum: usize,
    /// Training queries the quantum has absorbed.
    pub quantum_training: u64,
}

/// Running prequential error statistics of one quantum.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct ResidualStats {
    n: u64,
    mean_abs_rel: f64,
}

impl ResidualStats {
    /// Exponentially-smoothed absolute relative error.
    fn push(&mut self, rel_err: f64) {
        self.n += 1;
        let alpha = (2.0 / (1.0 + self.n as f64)).max(0.05);
        self.mean_abs_rel += alpha * (rel_err - self.mean_abs_rel);
    }

    fn estimate(&self) -> f64 {
        if self.n == 0 {
            f64::INFINITY
        } else {
            self.mean_abs_rel
        }
    }
}

/// The local model of one quantum: incremental linear model(s) over query
/// geometry plus the retained raw pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QuantumModel {
    /// Primary model (scalar answers; slope for pair answers).
    primary: RecursiveLeastSquares,
    /// Secondary model (intercept of pair answers), if the pool's operator
    /// returns pairs.
    secondary: Option<RecursiveLeastSquares>,
    residuals: ResidualStats,
    training: u64,
    /// Retained `(features, answer)` pairs for kNN fallback + explanations.
    pairs: Vec<(Vec<f64>, AnswerValue)>,
}

impl QuantumModel {
    fn new(feature_dims: usize, pair_answer: bool, forget: f64) -> Result<Self> {
        Ok(QuantumModel {
            primary: RecursiveLeastSquares::new(feature_dims, 100.0, forget)?,
            secondary: if pair_answer {
                Some(RecursiveLeastSquares::new(feature_dims, 100.0, forget)?)
            } else {
                None
            },
            residuals: ResidualStats::default(),
            training: 0,
            pairs: Vec::new(),
        })
    }

    fn predict(&self, features: &[f64]) -> AnswerValue {
        match &self.secondary {
            None => AnswerValue::Scalar(self.primary.predict(features)),
            Some(s) => AnswerValue::Pair(self.primary.predict(features), s.predict(features)),
        }
    }

    fn train(&mut self, features: &[f64], answer: &AnswerValue) -> Result<()> {
        // Prequential residual: evaluate before updating.
        if self.training > 0 {
            let pred = self.predict(features);
            self.residuals.push(pred.relative_error(answer).min(10.0));
        }
        match (answer, &mut self.secondary) {
            (AnswerValue::Scalar(v), None) => self.primary.update(features, *v)?,
            (AnswerValue::Pair(a, b), Some(s)) => {
                self.primary.update(features, *a)?;
                s.update(features, *b)?;
            }
            _ => {
                return Err(SeaError::Model(
                    "answer shape inconsistent with operator pool".into(),
                ))
            }
        }
        self.training += 1;
        if self.pairs.len() >= MAX_PAIRS_PER_QUANTUM {
            self.pairs.remove(0);
        }
        self.pairs.push((features.to_vec(), *answer));
        Ok(())
    }

    fn knn_predict(&self, features: &[f64]) -> Option<AnswerValue> {
        if self.pairs.is_empty() {
            return None;
        }
        let mut dists: Vec<(f64, &AnswerValue)> = self
            .pairs
            .iter()
            .map(|(x, a)| {
                let d: f64 = x.iter().zip(features).map(|(p, q)| (p - q) * (p - q)).sum();
                (d.sqrt(), a)
            })
            .collect();
        let k = KNN_K.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let neigh = &dists[..k];
        let mut w_sum = 0.0;
        let mut acc = (0.0, 0.0);
        let mut is_pair = false;
        for (d, a) in neigh {
            let w = 1.0 / (d + 1e-9);
            w_sum += w;
            match a {
                AnswerValue::Scalar(v) => acc.0 += w * v,
                AnswerValue::Pair(x, y) => {
                    is_pair = true;
                    acc.0 += w * x;
                    acc.1 += w * y;
                }
            }
        }
        Some(if is_pair {
            AnswerValue::Pair(acc.0 / w_sum, acc.1 / w_sum)
        } else {
            AnswerValue::Scalar(acc.0 / w_sum)
        })
    }

    fn memory_bytes(&self) -> u64 {
        let rls = |m: &RecursiveLeastSquares| (m.dims() as u64 + 1).pow(2) * 8 + 64;
        let pairs: u64 = self
            .pairs
            .iter()
            .map(|(x, _)| 8 * x.len() as u64 + 24)
            .sum();
        rls(&self.primary) + self.secondary.as_ref().map_or(0, rls) + pairs + 64
    }
}

/// One operator pool: a quantizer plus per-quantum models for a single
/// aggregate operator.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pool {
    quantizer: OnlineQuantizer,
    models: Vec<QuantumModel>,
}

fn is_pair_answer(agg: &AggregateKind) -> bool {
    matches!(agg, AggregateKind::Regression { .. })
}

/// The query vector `[centre, extents]` inside a feature vector
/// `[centre, extents, volume]` ([`sea_common::Region::to_feature_vector`]):
/// what the quantizer reads, the models read all of it.
fn query_vector(features: &[f64]) -> &[f64] {
    &features[..features.len() - 1]
}

/// Aggregate statistics about an agent's state.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentStats {
    /// Operator pools held.
    pub pools: usize,
    /// Total quanta across pools.
    pub quanta: usize,
    /// Total training queries absorbed.
    pub training_queries: u64,
    /// Approximate memory footprint in bytes (the E8 metric).
    pub memory_bytes: u64,
}

/// The intelligent agent of Fig 2.
///
/// # Examples
///
/// ```
/// use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, Point, Rect, Region};
/// use sea_core::{AgentConfig, SeaAgent};
///
/// let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
/// // Train: count grows linearly with volume in this synthetic answer fn.
/// for i in 0..50 {
///     let e = 1.0 + (i % 10) as f64 / 10.0;
///     let region = Region::Range(
///         Rect::centered(&Point::new(vec![50.0, 50.0]), &[e, e]).unwrap(),
///     );
///     let q = AnalyticalQuery::new(region, AggregateKind::Count);
///     let truth = AnswerValue::Scalar(4.0 * e * e * 3.0);
///     agent.train(&q, &truth).unwrap();
/// }
/// let probe = AnalyticalQuery::new(
///     Region::Range(Rect::centered(&Point::new(vec![50.0, 50.0]), &[1.5, 1.5]).unwrap()),
///     AggregateKind::Count,
/// );
/// let pred = agent.predict(&probe).unwrap();
/// assert!((pred.answer.as_scalar().unwrap() - 27.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct SeaAgent {
    config: AgentConfig,
    dims: usize,
    pools: BTreeMap<AggregateKey, Pool>,
    /// Read by the pipeline's `agent.cached` / `agent.trained` events,
    /// which must not pay [`SeaAgent::stats`]' walk over every model.
    pub(crate) training_queries: u64,
    /// Telemetry sink for `core.agent.*` counters/events; not part of the
    /// serialized model state.
    telemetry: TelemetrySink,
}

/// The wire form of a [`SeaAgent`]: pools as explicit pairs (JSON maps
/// need string keys, so the map is flattened for transport, in key
/// order: two agents with the same state write the same bytes).
#[derive(Debug, Serialize, Deserialize)]
struct AgentWire {
    config: AgentConfig,
    dims: usize,
    pools: Vec<(AggregateKey, Pool)>,
    training_queries: u64,
}

impl SeaAgent {
    /// Creates an agent for `dims`-dimensional data.
    ///
    /// # Errors
    ///
    /// Zero dims or invalid configuration parameters.
    pub fn new(dims: usize, config: AgentConfig) -> Result<Self> {
        config.check(dims)?;
        Ok(SeaAgent {
            config,
            dims,
            pools: BTreeMap::new(),
            training_queries: 0,
            telemetry: TelemetrySink::default(),
        })
    }

    /// Attaches a telemetry sink for `core.agent.*` counters and events
    /// (quantum spawns, train/predict volume).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Data dimensionality this agent serves.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Absorbs one `(query, exact answer)` training observation.
    ///
    /// An answer with a NaN or infinite component is not learned: the
    /// call returns `Ok(())` before the quantizer absorbs the query, so
    /// one such answer cannot turn a quantum's weights non-finite (which
    /// the wire writes as `null` and [`SeaAgent::from_json`] rejects).
    ///
    /// # Errors
    ///
    /// Dimension mismatch between query and agent, or an answer shape that
    /// does not match the operator (e.g. a scalar for a regression query).
    pub fn train(&mut self, query: &AnalyticalQuery, answer: &AnswerValue) -> Result<()> {
        SeaError::check_dims(self.dims, query.region.dims())?;
        let finite = match *answer {
            AnswerValue::Scalar(v) => v.is_finite(),
            AnswerValue::Pair(a, b) => a.is_finite() && b.is_finite(),
        };
        if !finite {
            return Ok(());
        }
        let key = query.aggregate.key();
        let features = query.region.to_feature_vector();
        let qvec = query_vector(&features);
        let feature_dims = features.len();
        let pair = is_pair_answer(&query.aggregate);
        let forget = self.config.forget;
        let pool = match self.pools.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => e.insert(Pool {
                quantizer: OnlineQuantizer::new(qvec.len())?,
                models: Vec::new(),
            }),
        };
        let (idx, spawned) = pool.quantizer.absorb(qvec, self.config.spawn_distance)?;
        if spawned {
            debug_assert_eq!(idx, pool.models.len());
            pool.models
                .push(QuantumModel::new(feature_dims, pair, forget)?);
            self.telemetry.event(
                "core.agent.quantum_spawned",
                &[
                    ("quantum", idx.into()),
                    ("pool_quanta", pool.models.len().into()),
                ],
            );
        }
        pool.models[idx].train(&features, answer)?;
        self.training_queries += 1;
        self.telemetry.incr("core.agent.train_total", 1);
        Ok(())
    }

    /// Predicts the answer to `query` without touching base data.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] when no quantum can serve the operator yet (the
    /// caller should execute exactly and [`SeaAgent::train`] on the
    /// result), or a dimension mismatch.
    pub fn predict(&self, query: &AnalyticalQuery) -> Result<Prediction> {
        SeaError::check_dims(self.dims, query.region.dims())?;
        self.telemetry.incr("core.agent.predict_total", 1);
        let key = query.aggregate.key();
        let pool = self
            .pools
            .get(&key)
            .ok_or_else(|| SeaError::Empty("no model pool for this operator yet".into()))?;
        let features = query.region.to_feature_vector();
        let (idx, dist_sq) = pool
            .quantizer
            .nearest_prototype(query_vector(&features))
            .ok_or_else(|| SeaError::Empty("operator pool has no quanta".into()))?;
        let model = &pool.models[idx];

        let answer = if model.training >= MIN_TRAINING {
            let mut a = model.predict(&features);
            // Counts and spreads cannot be negative.
            a = clamp_answer(&query.aggregate, a);
            a
        } else {
            let a = model
                .knn_predict(&features)
                .ok_or_else(|| SeaError::Empty("quantum has no training pairs".into()))?;
            clamp_answer(&query.aggregate, a)
        };

        let dist = dist_sq.sqrt();
        let base_err = model.residuals.estimate();
        let distance_term = self.config.distance_penalty * dist / self.config.spawn_distance;
        let estimated_error = if model.training < MIN_TRAINING || !base_err.is_finite() {
            // Undertrained quantum: be pessimistic (but finite, so callers
            // can still rank candidates) until enough exact answers have
            // been absorbed.
            (1.0 + distance_term).max(base_err.min(10.0))
        } else {
            base_err + distance_term
        };
        Ok(Prediction {
            answer,
            estimated_error,
            quantum: idx,
            quantum_training: model.training,
        })
    }

    /// Training pairs retained by the quantum that would serve `query`
    /// (used by explanation fitting). Empty when the operator pool is
    /// missing.
    pub fn quantum_pairs(&self, query: &AnalyticalQuery) -> Vec<(Vec<f64>, AnswerValue)> {
        let key = query.aggregate.key();
        let Some(pool) = self.pools.get(&key) else {
            return Vec::new();
        };
        let qvec = query.to_query_vector();
        let Some((idx, _)) = pool.quantizer.nearest_prototype(&qvec) else {
            return Vec::new();
        };
        pool.models[idx].pairs.clone()
    }

    /// Linear weights of the quantum model serving `query`:
    /// `(weights over [centre, extents, volume], intercept)`. `None` when
    /// the quantum is missing or undertrained. These weights *are* a
    /// first-order explanation of how the answer depends on each query
    /// parameter.
    pub fn quantum_weights(&self, query: &AnalyticalQuery) -> Option<(Vec<f64>, f64)> {
        let pool = self.pools.get(&query.aggregate.key())?;
        let (idx, _) = pool.quantizer.nearest_prototype(&query.to_query_vector())?;
        let model = &pool.models[idx];
        if model.training < MIN_TRAINING {
            return None;
        }
        let lm = model.primary.model();
        Some((lm.weights().to_vec(), lm.intercept()))
    }

    /// Drops quanta (across all pools) not used by the last `max_age`
    /// training queries of their pool — the query-drift half of model
    /// maintenance. Returns how many quanta were purged.
    pub fn purge_stale(&mut self, max_age: u64) -> usize {
        let mut purged = 0;
        for pool in self.pools.values_mut() {
            let dropped = pool.quantizer.purge_stale(max_age);
            // Remove models at dropped indices, descending so indices stay
            // valid.
            for &i in dropped.iter().rev() {
                pool.models.remove(i);
                purged += 1;
            }
        }
        purged
    }

    /// Invalidates every quantum whose interest region (prototype centre ±
    /// extents) intersects `region` — the base-data-update half of model
    /// maintenance: after inserts/deletes inside `region`, models there
    /// are stale and must relearn. Returns how many quanta were reset.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn invalidate_region(&mut self, region: &Rect) -> Result<usize> {
        SeaError::check_dims(self.dims, region.dims())?;
        let mut reset = 0;
        let forget = self.config.forget;
        for pool in self.pools.values_mut() {
            for (proto, model) in pool
                .quantizer
                .prototypes()
                .iter()
                .zip(pool.models.iter_mut())
            {
                let dims = region.dims();
                let centre = &proto.position[..dims];
                let extents = &proto.position[dims..2 * dims];
                let overlaps = (0..dims).all(|d| {
                    let lo = centre[d] - extents[d].abs();
                    let hi = centre[d] + extents[d].abs();
                    lo <= region.hi()[d] && region.lo()[d] <= hi
                });
                if overlaps {
                    let feature_dims = 2 * dims + 1;
                    let pair = model.secondary.is_some();
                    *model = QuantumModel::new(feature_dims, pair, forget)
                        .expect("validated at construction");
                    reset += 1;
                }
            }
        }
        Ok(reset)
    }

    /// Serializes the agent's full model state to JSON — the payload of
    /// "the models themselves are migrated" (RT1-5) and of edge model
    /// shipping (RT5-2). The byte length is the honest WAN bill.
    ///
    /// # Errors
    ///
    /// Serialization failures surface as [`SeaError::Serde`].
    pub fn to_json(&self) -> Result<String> {
        let wire = AgentWire {
            config: self.config.clone(),
            dims: self.dims,
            pools: self.pools.iter().map(|(k, p)| (*k, p.clone())).collect(),
            training_queries: self.training_queries,
        };
        serde_json::to_string(&wire).map_err(|e| SeaError::Serde(e.to_string()))
    }

    /// Reconstructs an agent from [`SeaAgent::to_json`] output.
    ///
    /// # Errors
    ///
    /// Malformed JSON surfaces as [`SeaError::Serde`]; a configuration
    /// [`SeaAgent::new`] would refuse is refused here too, as
    /// [`SeaError::InvalidArgument`].
    pub fn from_json(json: &str) -> Result<Self> {
        let wire: AgentWire =
            serde_json::from_str(json).map_err(|e| SeaError::Serde(e.to_string()))?;
        wire.config.check(wire.dims)?;
        Ok(SeaAgent {
            config: wire.config,
            dims: wire.dims,
            pools: wire.pools.into_iter().collect(),
            training_queries: wire.training_queries,
            telemetry: TelemetrySink::default(),
        })
    }

    /// Aggregate statistics, including the memory footprint used by
    /// experiment E8.
    pub fn stats(&self) -> AgentStats {
        let quanta = self.pools.values().map(|p| p.models.len()).sum();
        let memory_bytes = self
            .pools
            .values()
            .map(|p| {
                let proto: u64 = p
                    .quantizer
                    .prototypes()
                    .iter()
                    .map(|pr| 8 * pr.position.len() as u64 + 24)
                    .sum();
                let models: u64 = p.models.iter().map(QuantumModel::memory_bytes).sum();
                proto + models + 64
            })
            .sum();
        AgentStats {
            pools: self.pools.len(),
            quanta,
            training_queries: self.training_queries,
            memory_bytes,
        }
    }
}

fn clamp_answer(agg: &AggregateKind, a: AnswerValue) -> AnswerValue {
    match (agg, a) {
        (AggregateKind::Count, AnswerValue::Scalar(v)) => AnswerValue::Scalar(v.max(0.0)),
        (AggregateKind::Variance { .. }, AnswerValue::Scalar(v)) => AnswerValue::Scalar(v.max(0.0)),
        (AggregateKind::Correlation { .. }, AnswerValue::Scalar(v)) => {
            AnswerValue::Scalar(v.clamp(-1.0, 1.0))
        }
        (_, other) => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::{Point, Region};

    fn count_query(center: &[f64], extent: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(
                Rect::centered(&Point::new(center.to_vec()), &vec![extent; center.len()]).unwrap(),
            ),
            AggregateKind::Count,
        )
    }

    /// Synthetic ground truth: density 3 records per unit volume.
    fn count_truth(q: &AnalyticalQuery) -> AnswerValue {
        AnswerValue::Scalar(3.0 * q.region.volume())
    }

    fn trained_agent() -> SeaAgent {
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        for i in 0..100 {
            let e = 1.0 + (i % 20) as f64 / 10.0;
            let cx = 50.0 + (i % 5) as f64;
            let q = count_query(&[cx, 50.0], e);
            agent.train(&q, &count_truth(&q)).unwrap();
        }
        agent
    }

    #[test]
    fn a_nan_valued_training_pair_does_not_panic_the_knn_fallback() {
        let mut model = QuantumModel::new(2, false, 1.0).unwrap();
        for x in [1.0, f64::NAN, 1.5] {
            let answer = AnswerValue::Scalar(2.0);
            model.train(&[x, 1.0], &answer).unwrap();
        }
        // The NaN distance is ordered, not compared to a panic.
        assert!(model.knn_predict(&[1.0, 1.0]).is_some());
    }

    #[test]
    fn predicts_counts_in_trained_region() {
        let agent = trained_agent();
        let q = count_query(&[52.0, 50.0], 1.7);
        let pred = agent.predict(&q).unwrap();
        let truth = count_truth(&q).as_scalar().unwrap();
        let rel = (pred.answer.as_scalar().unwrap() - truth).abs() / truth;
        assert!(rel < 0.15, "rel error {rel}");
        assert!(pred.estimated_error.is_finite());
    }

    #[test]
    fn error_estimate_grows_away_from_training() {
        let agent = trained_agent();
        let near = agent.predict(&count_query(&[51.0, 50.0], 1.5)).unwrap();
        let far = agent.predict(&count_query(&[500.0, 500.0], 1.5)).unwrap();
        assert!(
            far.estimated_error > near.estimated_error,
            "near {} far {}",
            near.estimated_error,
            far.estimated_error
        );
    }

    #[test]
    fn unknown_operator_pool_is_empty_error() {
        let agent = trained_agent();
        let q = AnalyticalQuery::new(
            count_query(&[50.0, 50.0], 1.0).region,
            AggregateKind::Mean { dim: 0 },
        );
        assert!(matches!(agent.predict(&q), Err(SeaError::Empty(_))));
    }

    #[test]
    fn separate_pools_per_operator() {
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        let q = count_query(&[0.0, 0.0], 1.0);
        agent.train(&q, &AnswerValue::Scalar(5.0)).unwrap();
        let mean_q = AnalyticalQuery::new(q.region.clone(), AggregateKind::Mean { dim: 1 });
        agent.train(&mean_q, &AnswerValue::Scalar(7.0)).unwrap();
        assert_eq!(agent.stats().pools, 2);
    }

    #[test]
    fn regression_queries_predict_pairs() {
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        for i in 0..60 {
            let e = 1.0 + (i % 10) as f64 / 5.0;
            let q = AnalyticalQuery::new(
                count_query(&[10.0, 10.0], e).region,
                AggregateKind::Regression { x: 0, y: 1 },
            );
            // Constant true line regardless of window.
            agent.train(&q, &AnswerValue::Pair(2.0, -1.0)).unwrap();
        }
        let probe = AnalyticalQuery::new(
            count_query(&[10.0, 10.0], 1.5).region,
            AggregateKind::Regression { x: 0, y: 1 },
        );
        let pred = agent.predict(&probe).unwrap();
        let (s, i) = pred.answer.as_pair().unwrap();
        assert!((s - 2.0).abs() < 0.1, "slope {s}");
        assert!((i + 1.0).abs() < 0.1, "intercept {i}");
    }

    #[test]
    fn mismatched_answer_shape_is_model_error() {
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        let q = AnalyticalQuery::new(
            count_query(&[0.0, 0.0], 1.0).region,
            AggregateKind::Regression { x: 0, y: 1 },
        );
        assert!(matches!(
            agent.train(&q, &AnswerValue::Scalar(1.0)),
            Err(SeaError::Model(_))
        ));
    }

    #[test]
    fn count_predictions_clamp_at_zero() {
        let mut agent = SeaAgent::new(1, AgentConfig::default()).unwrap();
        // Teach a steeply decreasing function so extrapolation goes negative.
        for i in 0..30 {
            let e = 1.0 + i as f64 / 30.0;
            let q = count_query(&[0.0], e);
            agent
                .train(&q, &AnswerValue::Scalar(100.0 - 90.0 * (e - 1.0)))
                .unwrap();
        }
        let extreme = count_query(&[0.0], 50.0);
        let pred = agent.predict(&extreme).unwrap();
        assert!(pred.answer.as_scalar().unwrap() >= 0.0);
    }

    #[test]
    fn purge_stale_drops_abandoned_quanta() {
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        for _ in 0..10 {
            let q = count_query(&[0.0, 0.0], 1.0);
            agent.train(&q, &AnswerValue::Scalar(5.0)).unwrap();
        }
        for _ in 0..100 {
            let q = count_query(&[500.0, 500.0], 1.0);
            agent.train(&q, &AnswerValue::Scalar(9.0)).unwrap();
        }
        assert_eq!(agent.stats().quanta, 2);
        let purged = agent.purge_stale(50);
        assert_eq!(purged, 1);
        assert_eq!(agent.stats().quanta, 1);
        // Remaining quantum still predicts the active region.
        let pred = agent.predict(&count_query(&[500.0, 500.0], 1.0)).unwrap();
        assert!((pred.answer.as_scalar().unwrap() - 9.0).abs() < 1.0);
    }

    #[test]
    fn invalidate_region_resets_overlapping_quanta() {
        let mut agent = trained_agent();
        let before = agent.predict(&count_query(&[52.0, 50.0], 1.5)).unwrap();
        assert!(before.quantum_training > 0);
        let reset = agent
            .invalidate_region(&Rect::new(vec![40.0, 40.0], vec![60.0, 60.0]).unwrap())
            .unwrap();
        assert!(reset >= 1);
        let after = agent.predict(&count_query(&[52.0, 50.0], 1.5));
        // Quantum exists but has no pairs → Empty, or training reset to 0.
        match after {
            Err(SeaError::Empty(_)) => {}
            Ok(p) => assert_eq!(p.quantum_training, 0),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn invalidate_elsewhere_keeps_models() {
        let mut agent = trained_agent();
        let reset = agent
            .invalidate_region(&Rect::new(vec![900.0, 900.0], vec![910.0, 910.0]).unwrap())
            .unwrap();
        assert_eq!(reset, 0);
        assert!(agent.predict(&count_query(&[52.0, 50.0], 1.5)).is_ok());
    }

    #[test]
    fn memory_is_bounded_by_pair_cap() {
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        let train = |agent: &mut SeaAgent, n: u64| {
            for i in 0..n {
                let q = count_query(&[0.0, 0.0], 1.0 + (i % 7) as f64 * 0.01);
                agent.train(&q, &AnswerValue::Scalar(5.0)).unwrap();
            }
        };
        train(&mut agent, 1000);
        let probe = count_query(&[0.0, 0.0], 1.0);
        let stats = agent.stats();
        assert_eq!((stats.training_queries, stats.quanta), (1000, 1));
        assert_eq!(agent.quantum_pairs(&probe).len(), MAX_PAIRS_PER_QUANTUM);
        // Four times the training leaves the footprint where it was.
        train(&mut agent, 4000);
        assert_eq!(agent.quantum_pairs(&probe).len(), MAX_PAIRS_PER_QUANTUM);
        assert_eq!(agent.stats().memory_bytes, stats.memory_bytes);
    }

    #[test]
    fn config_validation() {
        assert!(SeaAgent::new(0, AgentConfig::default()).is_err());
        let refused = [
            AgentConfig {
                forget: 0.0,
                ..AgentConfig::default()
            },
            AgentConfig {
                spawn_distance: 0.0,
                ..AgentConfig::default()
            },
            AgentConfig {
                distance_penalty: f64::NAN,
                ..AgentConfig::default()
            },
        ];
        for config in refused {
            assert!(
                matches!(
                    SeaAgent::new(2, config.clone()),
                    Err(SeaError::InvalidArgument(_))
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn a_wire_with_an_invalid_config_is_refused() {
        let json = trained_agent().to_json().unwrap();
        let default = r#""config":{"spawn_distance":10,"forget":1,"distance_penalty":0.05}"#;
        assert!(json.contains(default), "{}", &json[..80]);
        for bad in [
            r#""config":{"spawn_distance":10,"forget":0,"distance_penalty":0.05}"#,
            r#""config":{"spawn_distance":0,"forget":1,"distance_penalty":0.05}"#,
        ] {
            let tampered = json.replacen(default, bad, 1);
            assert!(
                matches!(
                    SeaAgent::from_json(&tampered),
                    Err(SeaError::InvalidArgument(_))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn radius_queries_form_their_own_geometry() {
        // The agent serves radius selections through the same embedding;
        // a radius workload trains and predicts like a range workload.
        use sea_common::{Ball, Region};
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        for i in 0..80 {
            let r = 2.0 + (i % 16) as f64 * 0.25;
            let q = AnalyticalQuery::new(
                Region::Radius(Ball::new(Point::new(vec![40.0, 40.0]), r).unwrap()),
                AggregateKind::Count,
            );
            // Density 3 per unit area: count = 3·πr².
            let truth = AnswerValue::Scalar(3.0 * std::f64::consts::PI * r * r);
            agent.train(&q, &truth).unwrap();
        }
        let probe = AnalyticalQuery::new(
            Region::Radius(Ball::new(Point::new(vec![40.0, 40.0]), 3.3).unwrap()),
            AggregateKind::Count,
        );
        let pred = agent.predict(&probe).unwrap();
        let truth = 3.0 * std::f64::consts::PI * 3.3 * 3.3;
        let rel = (pred.answer.as_scalar().unwrap() - truth).abs() / truth;
        assert!(rel < 0.1, "radius workload rel err {rel}");
    }

    #[test]
    fn distinct_quantile_levels_use_distinct_pools() {
        let mut agent = SeaAgent::new(1, AgentConfig::default()).unwrap();
        let region = count_query(&[0.0], 1.0).region;
        let q25 = AnalyticalQuery::new(region.clone(), AggregateKind::Quantile { dim: 0, q: 0.25 });
        let q75 = AnalyticalQuery::new(region.clone(), AggregateKind::Quantile { dim: 0, q: 0.75 });
        agent.train(&q25, &AnswerValue::Scalar(10.0)).unwrap();
        agent.train(&q75, &AnswerValue::Scalar(90.0)).unwrap();
        assert_eq!(agent.stats().pools, 2, "different q = different pool");
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let agent = trained_agent();
        let json = agent.to_json().unwrap();
        assert!(
            json.len() > 500,
            "non-trivial payload: {} bytes",
            json.len()
        );
        let back = SeaAgent::from_json(&json).unwrap();
        for e in [1.2, 1.8, 2.4] {
            let q = count_query(&[52.0, 50.0], e);
            let a = agent.predict(&q).unwrap();
            let b = back.predict(&q).unwrap();
            assert_eq!(a.answer, b.answer);
            assert!((a.estimated_error - b.estimated_error).abs() < 1e-12);
        }
        assert_eq!(agent.stats().quanta, back.stats().quanta);
        assert!(SeaAgent::from_json("{broken").is_err());
    }

    #[test]
    fn a_non_finite_answer_is_not_learned_and_the_agent_still_ships() {
        let mut agent = trained_agent();
        let region = count_query(&[52.0, 50.0], 1.5).region;
        let min = AnalyticalQuery::new(region.clone(), AggregateKind::Min { dim: 0 });
        agent.train(&min, &AnswerValue::Scalar(-3.0)).unwrap();
        let count = AnalyticalQuery::new(region.clone(), AggregateKind::Count);
        let line = AnalyticalQuery::new(region, AggregateKind::Regression { x: 0, y: 1 });
        let before = [agent.predict(&count).unwrap(), agent.predict(&min).unwrap()];
        let trained = agent.stats().training_queries;

        agent
            .train(&min, &AnswerValue::Scalar(f64::INFINITY))
            .unwrap();
        agent.train(&count, &AnswerValue::Scalar(f64::NAN)).unwrap();
        agent
            .train(&line, &AnswerValue::Pair(0.5, f64::NEG_INFINITY))
            .unwrap();
        assert_eq!(agent.stats().training_queries, trained, "nothing absorbed");

        let back = SeaAgent::from_json(&agent.to_json().unwrap()).unwrap();
        assert_eq!(back.predict(&count).unwrap(), before[0]);
        assert_eq!(back.predict(&min).unwrap(), before[1]);
        assert!(back.predict(&line).is_err(), "no pool for the regression");
    }

    #[test]
    fn quantum_weights_expose_linear_explanation() {
        let agent = trained_agent();
        let q = count_query(&[52.0, 50.0], 1.5);
        let (weights, _) = agent.quantum_weights(&q).unwrap();
        assert_eq!(weights.len(), 5, "[cx, cy, ex, ey, volume]");
        // Count grows with volume → the volume weight should carry most of
        // the signal and be positive... combined with extents.
        let pairs = agent.quantum_pairs(&q);
        assert!(!pairs.is_empty());
    }

    /// One of each of the ten aggregates, over attributes `a` and `b`.
    fn all_ten(a: usize, b: usize, q: f64) -> [AggregateKind; 10] {
        [
            AggregateKind::Count,
            AggregateKind::Sum { dim: a },
            AggregateKind::Mean { dim: a },
            AggregateKind::Variance { dim: a },
            AggregateKind::Min { dim: a },
            AggregateKind::Max { dim: a },
            AggregateKind::Median { dim: a },
            AggregateKind::Quantile { dim: a, q },
            AggregateKind::Correlation { x: a, y: b },
            AggregateKind::Regression { x: a, y: b },
        ]
    }

    #[test]
    fn identically_trained_agents_write_identical_wire_bytes() {
        let wire = || {
            let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
            for i in 0..20 {
                let region = count_query(&[40.0 + i as f64, 50.0], 2.0).region;
                for agg in all_ten(0, 1, 0.95) {
                    let v = i as f64;
                    let answer = match agg {
                        AggregateKind::Regression { .. } => AnswerValue::Pair(0.5, v),
                        _ => AnswerValue::Scalar(v),
                    };
                    let q = AnalyticalQuery::new(region.clone(), agg);
                    agent.train(&q, &answer).unwrap();
                }
            }
            assert_eq!(agent.stats().pools, 10);
            agent.to_json().unwrap()
        };
        assert_eq!(wire(), wire());
    }

    #[test]
    fn aggregate_keys_are_injective_and_keep_the_wire_form() {
        let mut kinds = Vec::new();
        for a in 0..3 {
            for b in 0..3 {
                for q in [0.25, 0.5, 0.95] {
                    kinds.extend(all_ten(a, b, q));
                }
            }
        }
        for x in &kinds {
            for y in &kinds {
                assert_eq!(x == y, x.key() == y.key(), "{x:?} vs {y:?}");
            }
        }
        let key = AggregateKind::Quantile { dim: 0, q: 0.5 }.key();
        assert_eq!(
            serde_json::to_string(&key).unwrap(),
            format!(r#"{{"tag":7,"a":0,"b":0,"qbits":{}}}"#, 0.5f64.to_bits())
        );
    }
}
