//! Analyst-interest drift processes.
//!
//! RT1-4 (model maintenance) requires workloads whose interest regions move
//! over time: "query patterns \[change\] as analysts' interests drift". A
//! [`DriftingWorkload`] wraps a [`QueryGenerator`] and relocates its
//! hotspots as a function of a logical time step, supporting both gradual
//! linear drift and abrupt jumps.

use sea_common::{AnalyticalQuery, Result};

use crate::queries::{Hotspot, QueryGenerator};

/// How hotspot centres move with logical time.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DriftKind {
    /// No movement (control case).
    None,
    /// Each hotspot centre moves by `velocity` per time step (gradual
    /// concept drift).
    Linear {
        /// Per-dimension displacement per step.
        velocity: Vec<f64>,
    },
    /// At step `at_step` every hotspot centre jumps by `offset`
    /// (abrupt interest shift).
    Jump {
        /// Step at which the jump occurs.
        at_step: u64,
        /// Per-dimension displacement applied at the jump.
        offset: Vec<f64>,
    },
}

/// A query stream whose hotspots move over logical time.
#[derive(Debug, Clone)]
pub struct DriftingWorkload {
    base_hotspots: Vec<Hotspot>,
    generator: QueryGenerator,
    drift: DriftKind,
    step: u64,
}

impl DriftingWorkload {
    /// Wraps `generator` with drift behaviour `drift`.
    pub fn new(generator: QueryGenerator, drift: DriftKind) -> Self {
        DriftingWorkload {
            base_hotspots: generator.spec().hotspots.clone(),
            generator,
            drift,
            step: 0,
        }
    }

    /// Current logical time step (number of queries issued).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Hotspot centres effective at step `t`.
    fn hotspots_at(&self, t: u64) -> Vec<Hotspot> {
        self.base_hotspots
            .iter()
            .map(|h| {
                let mut center = h.center.clone();
                match &self.drift {
                    DriftKind::None => {}
                    DriftKind::Linear { velocity } => {
                        for (d, v) in velocity.iter().enumerate().take(center.len()) {
                            center[d] += v * t as f64;
                        }
                    }
                    DriftKind::Jump { at_step, offset } => {
                        if t >= *at_step {
                            for (d, o) in offset.iter().enumerate().take(center.len()) {
                                center[d] += o;
                            }
                        }
                    }
                }
                Hotspot {
                    center,
                    spread: h.spread.clone(),
                    weight: h.weight,
                }
            })
            .collect()
    }

    /// Draws the next query, advancing logical time by one step.
    ///
    /// # Errors
    ///
    /// Propagates hotspot validation errors (cannot occur for drift kinds
    /// constructed with dimensionality matching the base hotspots).
    pub fn next_query(&mut self) -> Result<AnalyticalQuery> {
        let hs = self.hotspots_at(self.step);
        self.generator.set_hotspots(hs)?;
        self.step += 1;
        Ok(self.generator.next_query())
    }

    /// Draws the next `n` queries.
    ///
    /// # Errors
    ///
    /// As [`DriftingWorkload::next_query`].
    pub fn take_queries(&mut self, n: usize) -> Result<Vec<AnalyticalQuery>> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::QuerySpec;

    fn base_gen() -> QueryGenerator {
        let spec = QuerySpec::simple_count(vec![0.0, 0.0], 0.5, (1.0, 1.0)).unwrap();
        QueryGenerator::new(spec, 42).unwrap()
    }

    #[test]
    fn no_drift_keeps_hotspots_fixed() {
        let w = DriftingWorkload::new(base_gen(), DriftKind::None);
        assert_eq!(w.hotspots_at(0)[0].center, vec![0.0, 0.0]);
        assert_eq!(w.hotspots_at(1000)[0].center, vec![0.0, 0.0]);
    }

    #[test]
    fn linear_drift_moves_centres() {
        let mut w = DriftingWorkload::new(
            base_gen(),
            DriftKind::Linear {
                velocity: vec![1.0, 0.0],
            },
        );
        assert_eq!(w.hotspots_at(10)[0].center, vec![10.0, 0.0]);
        // After 100 queries, the generated centres should be far from origin.
        let qs = w.take_queries(100).unwrap();
        let last = qs.last().unwrap().region.center();
        assert!(
            last.coord(0) > 80.0,
            "drifted centre, got {}",
            last.coord(0)
        );
        assert_eq!(w.step(), 100);
    }

    #[test]
    fn jump_drift_is_abrupt() {
        let w = DriftingWorkload::new(
            base_gen(),
            DriftKind::Jump {
                at_step: 50,
                offset: vec![100.0, 100.0],
            },
        );
        assert_eq!(w.hotspots_at(49)[0].center, vec![0.0, 0.0]);
        assert_eq!(w.hotspots_at(50)[0].center, vec![100.0, 100.0]);
    }

    #[test]
    fn queries_follow_the_jump() {
        let mut w = DriftingWorkload::new(
            base_gen(),
            DriftKind::Jump {
                at_step: 10,
                offset: vec![500.0, 0.0],
            },
        );
        let qs = w.take_queries(20).unwrap();
        assert!(qs[5].region.center().coord(0) < 250.0);
        assert!(qs[15].region.center().coord(0) > 250.0);
    }
}
