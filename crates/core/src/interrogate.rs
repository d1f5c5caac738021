//! Higher-level interrogations (RT4-1).
//!
//! The paper's example: "return the data subspaces where the correlation
//! coefficient between attributes is greater than a threshold value". With
//! a trained agent, such an interrogation sweeps a lattice of candidate
//! subspaces over *predictions only* — no base-data access — exactly the
//! indirect-scalability argument of §III-A: the analyst gets a data-space
//! overview for the cost of zero queries to the system.

use sea_common::{AggregateKind, AnalyticalQuery, Point, Rect, Region, Result, SeaError};

use crate::agent::SeaAgent;

/// One candidate subspace and the agent's verdict about it.
#[derive(Debug, Clone, PartialEq)]
pub struct SubspaceReport {
    /// The candidate subspace.
    pub region: Rect,
    /// The predicted statistic.
    pub predicted: f64,
    /// The agent's error estimate for that prediction.
    pub estimated_error: f64,
}

/// Sweeps a `cells_per_dim`-per-dimension lattice of subspaces with
/// per-dimension half-widths `extents` over `domain`, predicting
/// `aggregate` on each, and
/// returns the subspaces whose predicted scalar exceeds `threshold`,
/// sorted descending by predicted value.
///
/// Subspaces the agent cannot predict yet (no quantum) are skipped — they
/// are *unknown*, not uninteresting; callers wanting completeness should
/// widen training first. Predictions whose estimated error exceeds
/// `max_estimated_error` are likewise skipped: a confident interrogation
/// only reports subspaces the models actually know (use `f64::INFINITY`
/// to disable the filter).
///
/// # Errors
///
/// Invalid lattice parameters or dimension mismatches.
pub fn interesting_subspaces(
    agent: &SeaAgent,
    domain: &Rect,
    cells_per_dim: usize,
    extents: &[f64],
    aggregate: AggregateKind,
    threshold: f64,
    max_estimated_error: f64,
) -> Result<Vec<SubspaceReport>> {
    if cells_per_dim == 0 {
        return Err(SeaError::invalid("cells_per_dim must be positive"));
    }
    if extents.iter().any(|e| e.is_nan() || *e <= 0.0) {
        return Err(SeaError::invalid("extents must be positive"));
    }
    SeaError::check_dims(agent.dims(), domain.dims())?;
    SeaError::check_dims(domain.dims(), extents.len())?;
    let dims = domain.dims();
    let total = (cells_per_dim as u64)
        .checked_pow(dims as u32)
        .filter(|t| *t <= 1 << 20)
        .ok_or_else(|| SeaError::invalid("lattice too large (over 2^20 candidates)"))?;

    let mut out = Vec::new();
    for flat in 0..total {
        // Decode the lattice coordinate.
        let mut rest = flat;
        let mut centre = vec![0.0; dims];
        for d in (0..dims).rev() {
            let c = (rest % cells_per_dim as u64) as f64;
            rest /= cells_per_dim as u64;
            let w = (domain.hi()[d] - domain.lo()[d]) / cells_per_dim as f64;
            centre[d] = domain.lo()[d] + w * (c + 0.5);
        }
        let region = Rect::centered(&Point::new(centre), extents)?;
        let query = AnalyticalQuery::new(Region::Range(region.clone()), aggregate);
        let Ok(pred) = agent.predict(&query) else {
            continue;
        };
        if pred.estimated_error > max_estimated_error {
            continue;
        }
        if let Some(v) = pred.answer.as_scalar() {
            if v > threshold {
                out.push(SubspaceReport {
                    region,
                    predicted: v,
                    estimated_error: pred.estimated_error,
                });
            }
        }
    }
    out.sort_by(|a, b| b.predicted.total_cmp(&a.predicted));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use sea_common::AnswerValue;

    /// Agent trained so that correlation is high only around (25, 25).
    fn trained_agent() -> SeaAgent {
        let mut agent = SeaAgent::new(
            2,
            AgentConfig {
                spawn_distance: 15.0,
                ..AgentConfig::default()
            },
        )
        .unwrap();
        for i in 0..400 {
            let cx = (i % 20) as f64 * 5.0 + 2.5; // 2.5..97.5
            let cy = ((i / 20) % 20) as f64 * 5.0 + 2.5;
            let q = AnalyticalQuery::new(
                Region::Range(Rect::centered(&Point::new(vec![cx, cy]), &[3.0, 3.0]).unwrap()),
                AggregateKind::Correlation { x: 0, y: 1 },
            );
            // Correlation peaks near (25, 25), decaying with distance.
            let d = ((cx - 25.0).powi(2) + (cy - 25.0).powi(2)).sqrt();
            let corr = (1.0 - d / 40.0).max(0.0);
            agent.train(&q, &AnswerValue::Scalar(corr)).unwrap();
        }
        agent
    }

    #[test]
    fn a_nan_prediction_is_dropped_not_sorted_to_a_panic() {
        let mut agent = trained_agent();
        // Exact answers can be NaN (a correlation over constant data):
        // the quanta around (75, 75) now predict it.
        for i in 0..40 {
            let c = 70.0 + f64::from(i % 5) * 2.5;
            let q = AnalyticalQuery::new(
                Region::Range(Rect::centered(&Point::new(vec![c, c]), &[3.0, 3.0]).unwrap()),
                AggregateKind::Correlation { x: 0, y: 1 },
            );
            agent.train(&q, &AnswerValue::Scalar(f64::NAN)).unwrap();
        }
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let hits = interesting_subspaces(
            &agent,
            &domain,
            10,
            &[3.0, 3.0],
            AggregateKind::Correlation { x: 0, y: 1 },
            0.6,
            f64::INFINITY,
        )
        .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.predicted.is_finite()));
    }

    #[test]
    fn finds_high_correlation_subspaces() {
        let agent = trained_agent();
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let hits = interesting_subspaces(
            &agent,
            &domain,
            10,
            &[3.0, 3.0],
            AggregateKind::Correlation { x: 0, y: 1 },
            0.6,
            f64::INFINITY,
        )
        .unwrap();
        assert!(!hits.is_empty(), "some subspaces qualify");
        // The best hit should be near (25, 25).
        let top = &hits[0];
        let c = top.region.center();
        assert!(
            (c.coord(0) - 25.0).abs() < 11.0 && (c.coord(1) - 25.0).abs() < 11.0,
            "top at {:?}",
            c
        );
        // Sorted descending.
        for w in hits.windows(2) {
            assert!(w[0].predicted >= w[1].predicted);
        }
        // Far-away subspaces must not qualify.
        for h in &hits {
            let c = h.region.center();
            let d = ((c.coord(0) - 25.0).powi(2) + (c.coord(1) - 25.0).powi(2)).sqrt();
            assert!(d < 45.0, "qualified subspace too far: {d}");
        }
    }

    #[test]
    fn threshold_filters_everything_when_high() {
        let agent = trained_agent();
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let hits = interesting_subspaces(
            &agent,
            &domain,
            10,
            &[3.0, 3.0],
            AggregateKind::Correlation { x: 0, y: 1 },
            1.5,
            f64::INFINITY,
        )
        .unwrap();
        assert!(hits.is_empty(), "correlation is clamped to ≤ 1");
    }

    #[test]
    fn parameter_validation() {
        let agent = trained_agent();
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let agg = AggregateKind::Correlation { x: 0, y: 1 };
        assert!(interesting_subspaces(&agent, &domain, 0, &[3.0, 3.0], agg, 0.5, 1.0).is_err());
        assert!(interesting_subspaces(&agent, &domain, 10, &[0.0, 3.0], agg, 0.5, 1.0).is_err());
        assert!(interesting_subspaces(&agent, &domain, 10, &[3.0], agg, 0.5, 1.0).is_err());
        let bad_domain = Rect::new(vec![0.0], vec![1.0]).unwrap();
        assert!(interesting_subspaces(&agent, &bad_domain, 10, &[1.0], agg, 0.5, 1.0).is_err());
    }

    #[test]
    fn untrained_operator_yields_no_hits() {
        let agent = trained_agent();
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let hits = interesting_subspaces(
            &agent,
            &domain,
            5,
            &[3.0, 3.0],
            AggregateKind::Count,
            0.0,
            1.0,
        )
        .unwrap();
        assert!(hits.is_empty(), "count pool was never trained");
    }
}
