//! Analyst query workload generation.
//!
//! An analyst population's queries concentrate on a handful of *interest
//! regions* of the data space (the overlapping-subspace property P2 relies
//! on). A [`QueryGenerator`] samples a hotspot (weighted), then a query
//! centre near the hotspot's own centre, then a query extent, producing an
//! [`AnalyticalQuery`] stream that is deterministic in its seed.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::Normal;

use sea_common::{AggregateKind, AnalyticalQuery, Ball, Point, Rect, Region, Result, SeaError};

/// An analyst interest region: query centres are drawn from
/// `N(center, spread²)` per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Centre of the interest region.
    pub center: Vec<f64>,
    /// Standard deviation of query centres around `center`, per dimension.
    pub spread: Vec<f64>,
    /// Relative share of queries hitting this hotspot.
    pub weight: f64,
}

impl Hotspot {
    /// Creates a hotspot.
    ///
    /// # Errors
    ///
    /// Returns an error on mismatched lengths, negative spread, or a
    /// non-positive weight.
    pub fn new(center: Vec<f64>, spread: Vec<f64>, weight: f64) -> Result<Self> {
        SeaError::check_dims(center.len(), spread.len())?;
        if spread.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(SeaError::invalid("spread must be finite and non-negative"));
        }
        if weight.is_nan() || weight <= 0.0 {
            return Err(SeaError::invalid("hotspot weight must be positive"));
        }
        Ok(Hotspot {
            center,
            spread,
            weight,
        })
    }
}

/// The shape of generated selection regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionShape {
    /// Axis-aligned hyper-rectangles (range queries).
    Range,
    /// Hyper-spheres (radius queries).
    Radius,
}

/// Full specification of a query workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Interest regions queries cluster around.
    pub hotspots: Vec<Hotspot>,
    /// Range of query half-widths (uniformly sampled per query); for radius
    /// queries this is the radius range.
    pub extent_range: (f64, f64),
    /// Shape of the selection regions.
    pub shape: RegionShape,
    /// Aggregate operators to cycle through, weighted uniformly.
    pub aggregates: Vec<AggregateKind>,
}

impl QuerySpec {
    /// A convenient single-hotspot COUNT workload used widely in tests.
    ///
    /// # Errors
    ///
    /// Propagates hotspot validation errors.
    pub fn simple_count(center: Vec<f64>, spread: f64, extent_range: (f64, f64)) -> Result<Self> {
        let dims = center.len();
        Ok(QuerySpec {
            hotspots: vec![Hotspot::new(center, vec![spread; dims], 1.0)?],
            extent_range,
            shape: RegionShape::Range,
            aggregates: vec![AggregateKind::Count],
        })
    }

    /// Dimensionality of the query space.
    pub fn dims(&self) -> usize {
        self.hotspots.first().map_or(0, |h| h.center.len())
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error when there are no hotspots or aggregates, hotspot
    /// dimensionalities disagree, or the extent range is invalid.
    pub fn validate(&self) -> Result<()> {
        if self.hotspots.is_empty() {
            return Err(SeaError::Empty("query spec has no hotspots".into()));
        }
        if self.aggregates.is_empty() {
            return Err(SeaError::Empty("query spec has no aggregates".into()));
        }
        let dims = self.dims();
        for h in &self.hotspots {
            SeaError::check_dims(dims, h.center.len())?;
        }
        let (lo, hi) = self.extent_range;
        if !(lo.is_finite() && hi.is_finite()) || lo < 0.0 || lo > hi {
            return Err(SeaError::invalid("extent range must satisfy 0 <= lo <= hi"));
        }
        Ok(())
    }
}

/// Deterministic, seeded generator of analyst query streams.
///
/// # Examples
///
/// ```
/// use sea_workload::{QueryGenerator, QuerySpec};
///
/// let spec = QuerySpec::simple_count(vec![50.0, 50.0], 5.0, (1.0, 4.0)).unwrap();
/// let mut gen = QueryGenerator::new(spec, 9).unwrap();
/// let queries = gen.take_queries(100);
/// assert_eq!(queries.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    spec: QuerySpec,
    rng: StdRng,
}

impl QueryGenerator {
    /// Creates a generator after validating `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`QuerySpec::validate`] errors.
    pub fn new(spec: QuerySpec, seed: u64) -> Result<Self> {
        spec.validate()?;
        Ok(QueryGenerator {
            spec,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The generator's spec.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Replaces the hotspots (used by drifting workloads).
    ///
    /// # Errors
    ///
    /// Returns an error when the new hotspot set is empty or mismatched in
    /// dimensionality.
    pub fn set_hotspots(&mut self, hotspots: Vec<Hotspot>) -> Result<()> {
        let candidate = QuerySpec {
            hotspots,
            ..self.spec.clone()
        };
        candidate.validate()?;
        self.spec = candidate;
        Ok(())
    }

    /// Draws the next query.
    pub fn next_query(&mut self) -> AnalyticalQuery {
        let spec = &self.spec;
        let total_w: f64 = spec.hotspots.iter().map(|h| h.weight).sum();
        let mut pick = self.rng.gen_range(0.0..total_w);
        let mut hs = &spec.hotspots[0];
        for h in &spec.hotspots {
            if pick < h.weight {
                hs = h;
                break;
            }
            pick -= h.weight;
        }
        let center: Vec<f64> = (0..hs.center.len())
            .map(|d| {
                if hs.spread[d] == 0.0 {
                    hs.center[d]
                } else {
                    Normal::new(hs.center[d], hs.spread[d])
                        .expect("validated")
                        .sample(&mut self.rng)
                }
            })
            .collect();
        let (lo, hi) = spec.extent_range;
        let extent = if lo == hi {
            lo
        } else {
            self.rng.gen_range(lo..hi)
        };
        let region = match spec.shape {
            RegionShape::Range => {
                let extents = vec![extent; center.len()];
                Region::Range(
                    Rect::centered(&Point::new(center), &extents).expect("validated extents"),
                )
            }
            RegionShape::Radius => {
                Region::Radius(Ball::new(Point::new(center), extent).expect("validated radius"))
            }
        };
        let agg = spec.aggregates[self.rng.gen_range(0..spec.aggregates.len())];
        AnalyticalQuery::new(region, agg)
    }

    /// Draws the next `n` queries.
    pub fn take_queries(&mut self, n: usize) -> Vec<AnalyticalQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_per_seed() {
        let spec = QuerySpec::simple_count(vec![0.0, 0.0], 1.0, (0.5, 2.0)).unwrap();
        let a = QueryGenerator::new(spec.clone(), 1)
            .unwrap()
            .take_queries(50);
        let b = QueryGenerator::new(spec.clone(), 1)
            .unwrap()
            .take_queries(50);
        let c = QueryGenerator::new(spec, 2).unwrap().take_queries(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn queries_cluster_near_hotspot() {
        let spec = QuerySpec::simple_count(vec![100.0, 100.0], 2.0, (1.0, 1.5)).unwrap();
        let qs = QueryGenerator::new(spec, 3).unwrap().take_queries(200);
        for q in &qs {
            let c = q.region.center();
            assert!((c.coord(0) - 100.0).abs() < 15.0, "centre far from hotspot");
            assert!((c.coord(1) - 100.0).abs() < 15.0);
        }
    }

    #[test]
    fn hotspot_weights_bias_selection() {
        let spec = QuerySpec {
            hotspots: vec![
                Hotspot::new(vec![0.0], vec![0.1], 9.0).unwrap(),
                Hotspot::new(vec![1000.0], vec![0.1], 1.0).unwrap(),
            ],
            extent_range: (1.0, 1.0),
            shape: RegionShape::Range,
            aggregates: vec![AggregateKind::Count],
        };
        let qs = QueryGenerator::new(spec, 4).unwrap().take_queries(1000);
        let near_zero = qs
            .iter()
            .filter(|q| q.region.center().coord(0) < 500.0)
            .count();
        assert!(near_zero > 820 && near_zero < 980, "got {near_zero}");
    }

    #[test]
    fn radius_shape_produces_balls() {
        let spec = QuerySpec {
            hotspots: vec![Hotspot::new(vec![0.0, 0.0], vec![1.0, 1.0], 1.0).unwrap()],
            extent_range: (2.0, 3.0),
            shape: RegionShape::Radius,
            aggregates: vec![AggregateKind::Count],
        };
        let qs = QueryGenerator::new(spec, 5).unwrap().take_queries(20);
        for q in &qs {
            match &q.region {
                Region::Radius(b) => assert!(b.radius() >= 2.0 && b.radius() <= 3.0),
                other => panic!("expected radius region, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let no_hotspots = QuerySpec {
            hotspots: vec![],
            extent_range: (0.0, 1.0),
            shape: RegionShape::Range,
            aggregates: vec![AggregateKind::Count],
        };
        assert!(QueryGenerator::new(no_hotspots, 0).is_err());

        let bad_extent = QuerySpec {
            hotspots: vec![Hotspot::new(vec![0.0], vec![1.0], 1.0).unwrap()],
            extent_range: (2.0, 1.0),
            shape: RegionShape::Range,
            aggregates: vec![AggregateKind::Count],
        };
        assert!(QueryGenerator::new(bad_extent, 0).is_err());

        let no_aggs = QuerySpec {
            hotspots: vec![Hotspot::new(vec![0.0], vec![1.0], 1.0).unwrap()],
            extent_range: (0.5, 1.0),
            shape: RegionShape::Range,
            aggregates: vec![],
        };
        assert!(QueryGenerator::new(no_aggs, 0).is_err());
    }

    #[test]
    fn aggregates_cycle_through_spec() {
        let spec = QuerySpec {
            hotspots: vec![Hotspot::new(vec![0.0], vec![1.0], 1.0).unwrap()],
            extent_range: (1.0, 1.0),
            shape: RegionShape::Range,
            aggregates: vec![AggregateKind::Count, AggregateKind::Mean { dim: 0 }],
        };
        let qs = QueryGenerator::new(spec, 6).unwrap().take_queries(100);
        let counts = qs
            .iter()
            .filter(|q| q.aggregate == AggregateKind::Count)
            .count();
        assert!(
            counts > 25 && counts < 75,
            "both operators appear: {counts}"
        );
    }

    #[test]
    fn set_hotspots_validates() {
        let spec = QuerySpec::simple_count(vec![0.0, 0.0], 1.0, (0.5, 1.0)).unwrap();
        let mut gen = QueryGenerator::new(spec, 7).unwrap();
        assert!(gen.set_hotspots(vec![]).is_err());
        let moved = Hotspot::new(vec![50.0, 50.0], vec![1.0, 1.0], 1.0).unwrap();
        gen.set_hotspots(vec![moved]).unwrap();
        let q = gen.next_query();
        assert!((q.region.center().coord(0) - 50.0).abs() < 10.0);
    }
}
