//! Query-answer explanations (RT4-2).
//!
//! "Consider Penny receiving the answer that the population within a data
//! subspace is 273. […] We need systems that offer rich, compact, and
//! accurate explanations, which will accompany answers" — concretely, "a
//! (piecewise) linear regression model showing how [the answer] depends on
//! the size of the subspace". An [`Explanation`] packages exactly that:
//!
//! * first-order sensitivities of the answer to every query parameter
//!   (centre coordinate and extent per dimension), read directly off the
//!   serving quantum's linear model, and
//! * a piecewise-linear curve of the answer as a function of subspace
//!   *volume*, fitted to the quantum's retained training pairs,
//!
//! so the analyst can "simply plug in values for parameters" instead of
//! issuing more queries.

use sea_common::{AnalyticalQuery, AnswerValue, Result, SeaError};
use sea_ml::PiecewiseLinear;

use crate::agent::SeaAgent;

/// A compact model of how a query's answer depends on its parameters.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// ∂answer/∂centre_d for each data dimension.
    pub centre_sensitivity: Vec<f64>,
    /// ∂answer/∂extent_d for each data dimension.
    pub extent_sensitivity: Vec<f64>,
    /// ∂answer/∂volume.
    pub volume_sensitivity: f64,
    /// Intercept of the local linear model.
    pub intercept: f64,
    /// Piecewise-linear model of answer vs subspace volume (present when
    /// the quantum retained enough training pairs).
    pub answer_vs_volume: Option<PiecewiseLinear>,
    /// How many training pairs supported this explanation.
    pub support: usize,
}

impl Explanation {
    /// Builds the explanation for `query` from the agent's serving quantum.
    ///
    /// # Errors
    ///
    /// [`SeaError::Empty`] when the quantum is missing or undertrained
    /// (no reliable local model exists yet).
    pub fn for_query(agent: &SeaAgent, query: &AnalyticalQuery) -> Result<Self> {
        let (weights, intercept) = agent
            .quantum_weights(query)
            .ok_or_else(|| SeaError::Empty("no trained quantum to explain this query".into()))?;
        let dims = agent.dims();
        // Features are [centre_0..d, extent_0..d, volume].
        let centre_sensitivity = weights[..dims].to_vec();
        let extent_sensitivity = weights[dims..2 * dims].to_vec();
        let volume_sensitivity = weights[2 * dims];

        let pairs = agent.quantum_pairs(query);
        let mut vols = Vec::with_capacity(pairs.len());
        let mut answers = Vec::with_capacity(pairs.len());
        for (features, ans) in &pairs {
            if let AnswerValue::Scalar(v) = ans {
                vols.push(features[2 * dims]);
                answers.push(*v);
            }
        }
        let answer_vs_volume = if vols.len() >= 4 {
            PiecewiseLinear::fit(&vols, &answers, 4, 3, 1e-6).ok()
        } else {
            None
        };
        Ok(Explanation {
            centre_sensitivity,
            extent_sensitivity,
            volume_sensitivity,
            intercept,
            answer_vs_volume,
            support: pairs.len(),
        })
    }

    /// Predicted answer if the queried subspace had volume `v` (uses the
    /// piecewise curve when available, otherwise the first-order volume
    /// term around the intercept).
    pub fn answer_at_volume(&self, v: f64) -> f64 {
        match &self.answer_vs_volume {
            Some(pw) => pw.eval(v),
            None => self.intercept + self.volume_sensitivity * v,
        }
    }

    /// Marginal effect of subspace volume at `v`: the slope of the
    /// piecewise curve there (falls back to the first-order weight). This
    /// — not the raw linear weight, which shares credit with the
    /// correlated extent features — is the number an analyst should read
    /// as "answers grow by X per unit of volume".
    pub fn volume_slope_at(&self, v: f64) -> f64 {
        match &self.answer_vs_volume {
            Some(pw) => {
                let h = (v.abs() * 1e-3).max(1e-6);
                (pw.eval(v + h) - pw.eval(v - h)) / (2.0 * h)
            }
            None => self.volume_sensitivity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use sea_common::{AggregateKind, Point, Rect, Region};

    fn count_query(center: &[f64], e: f64) -> AnalyticalQuery {
        AnalyticalQuery::new(
            Region::Range(
                Rect::centered(&Point::new(center.to_vec()), &vec![e; center.len()]).unwrap(),
            ),
            AggregateKind::Count,
        )
    }

    fn trained_agent() -> SeaAgent {
        let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
        // Density 2 per unit volume.
        for i in 0..200 {
            let e = 1.0 + (i % 25) as f64 / 10.0;
            let q = count_query(&[50.0, 50.0], e);
            let truth = AnswerValue::Scalar(2.0 * q.region.volume());
            agent.train(&q, &truth).unwrap();
        }
        agent
    }

    #[test]
    fn explanation_tracks_volume_dependence() {
        let agent = trained_agent();
        let q = count_query(&[50.0, 50.0], 2.0);
        let ex = Explanation::for_query(&agent, &q).unwrap();
        assert!(ex.support > 100);
        // True answer at volume v is 2v; the explanation curve should be
        // close over the trained volume range (4..49).
        for v in [9.0, 16.0, 25.0, 36.0] {
            let got = ex.answer_at_volume(v);
            assert!((got - 2.0 * v).abs() < 0.15 * 2.0 * v, "at v={v}: {got}");
        }
    }

    #[test]
    fn explanation_answers_related_queries_without_issuing_them() {
        // The E12 scenario: instead of issuing N queries with varied
        // extents, the analyst evaluates the explanation.
        let agent = trained_agent();
        let q = count_query(&[50.0, 50.0], 1.5);
        let ex = Explanation::for_query(&agent, &q).unwrap();
        let mut max_rel = 0.0f64;
        for i in 0..10 {
            let e = 1.2 + i as f64 * 0.2;
            let vol = (2.0 * e) * (2.0 * e);
            let truth = 2.0 * vol;
            let got = ex.answer_at_volume(vol);
            max_rel = max_rel.max((got - truth).abs() / truth);
        }
        assert!(max_rel < 0.25, "max rel err {max_rel}");
    }

    #[test]
    fn untrained_query_has_no_explanation() {
        let agent = trained_agent();
        let q = AnalyticalQuery::new(
            count_query(&[50.0, 50.0], 1.0).region,
            AggregateKind::Mean { dim: 0 },
        );
        assert!(matches!(
            Explanation::for_query(&agent, &q),
            Err(SeaError::Empty(_))
        ));
    }
}
