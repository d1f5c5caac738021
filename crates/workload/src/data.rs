//! Synthetic dataset generators.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Normal, Zipf};

use sea_common::{Record, Rect, Result, SeaError};

/// One component of a Gaussian mixture: a spherical-ish Gaussian with
/// per-dimension standard deviation.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianComponent {
    /// Component mean.
    pub mean: Vec<f64>,
    /// Per-dimension standard deviation.
    pub sigma: Vec<f64>,
    /// Relative sampling weight (need not be normalized).
    pub weight: f64,
}

impl GaussianComponent {
    /// Creates a component.
    ///
    /// # Errors
    ///
    /// Returns an error when `mean` and `sigma` lengths differ, any sigma is
    /// negative, or the weight is not positive.
    pub fn new(mean: Vec<f64>, sigma: Vec<f64>, weight: f64) -> Result<Self> {
        SeaError::check_dims(mean.len(), sigma.len())?;
        if sigma.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(SeaError::invalid("sigma must be finite and non-negative"));
        }
        if weight.is_nan() || weight <= 0.0 {
            return Err(SeaError::invalid("component weight must be positive"));
        }
        Ok(GaussianComponent {
            mean,
            sigma,
            weight,
        })
    }
}

/// Specification of a synthetic dataset's distribution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DataSpec {
    /// Uniform over an axis-aligned domain rectangle.
    Uniform {
        /// The data domain.
        domain: Rect,
    },
    /// Mixture of axis-aligned Gaussians (values are *not* clipped to any
    /// domain; tails extend beyond component means).
    GaussianMixture {
        /// Mixture components.
        components: Vec<GaussianComponent>,
    },
    /// Each dimension is an independent Zipf-distributed positive value
    /// (rank drawn from Zipf(`n_elements`, `exponent`)), modelling heavily
    /// skewed attributes such as degree or frequency counts.
    Zipf {
        /// Number of dimensions.
        dims: usize,
        /// Universe size per dimension.
        n_elements: u64,
        /// Skew exponent (s > 0; larger = more skew).
        exponent: f64,
    },
    /// Attribute 0 is uniform on `[x_lo, x_hi]`; every further attribute d
    /// is `slope[d-1] * x + intercept[d-1] + N(0, noise_sigma[d-1])` —
    /// the workload for regression/correlation operators whose ground truth
    /// is known by construction.
    LinearCorrelated {
        /// Lower bound of the explanatory attribute.
        x_lo: f64,
        /// Upper bound of the explanatory attribute.
        x_hi: f64,
        /// Slope per dependent attribute.
        slope: Vec<f64>,
        /// Intercept per dependent attribute.
        intercept: Vec<f64>,
        /// Gaussian noise sigma per dependent attribute.
        noise_sigma: Vec<f64>,
    },
}

impl DataSpec {
    /// Dimensionality of records generated under this spec.
    pub fn dims(&self) -> usize {
        match self {
            DataSpec::Uniform { domain } => domain.dims(),
            DataSpec::GaussianMixture { components } => {
                components.first().map_or(0, |c| c.mean.len())
            }
            DataSpec::Zipf { dims, .. } => *dims,
            DataSpec::LinearCorrelated { slope, .. } => slope.len() + 1,
        }
    }
}

/// Deterministic, seeded generator of synthetic datasets.
///
/// # Examples
///
/// ```
/// use sea_common::Rect;
/// use sea_workload::{DataGenerator, DataSpec};
///
/// let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
/// let gen = DataGenerator::new(DataSpec::Uniform { domain }, 42);
/// let records = gen.generate(1_000).unwrap();
/// assert_eq!(records.len(), 1_000);
/// assert_eq!(records[0].dims(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DataGenerator {
    spec: DataSpec,
    seed: u64,
}

impl DataGenerator {
    /// Creates a generator for `spec`, seeded with `seed`. The same
    /// `(spec, seed, n)` always yields the same dataset.
    pub fn new(spec: DataSpec, seed: u64) -> Self {
        DataGenerator { spec, seed }
    }

    /// The generator's data spec.
    pub fn spec(&self) -> &DataSpec {
        &self.spec
    }

    /// Generates `n` records with ids `0..n`.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is internally inconsistent (e.g. an
    /// empty Gaussian mixture or mismatched slope/intercept lengths).
    pub fn generate(&self, n: usize) -> Result<Vec<Record>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(n);
        match &self.spec {
            DataSpec::Uniform { domain } => {
                for id in 0..n {
                    let values = (0..domain.dims())
                        .map(|d| rng.gen_range(domain.lo()[d]..=domain.hi()[d]))
                        .collect();
                    out.push(Record::new(id as u64, values));
                }
            }
            DataSpec::GaussianMixture { components } => {
                if components.is_empty() {
                    return Err(SeaError::Empty("Gaussian mixture has no components".into()));
                }
                let dims = components[0].mean.len();
                for c in components {
                    SeaError::check_dims(dims, c.mean.len())?;
                }
                let total_w: f64 = components.iter().map(|c| c.weight).sum();
                for id in 0..n {
                    let mut pick = rng.gen_range(0.0..total_w);
                    let mut comp = &components[0];
                    for c in components {
                        if pick < c.weight {
                            comp = c;
                            break;
                        }
                        pick -= c.weight;
                    }
                    let values = (0..dims)
                        .map(|d| {
                            if comp.sigma[d] == 0.0 {
                                comp.mean[d]
                            } else {
                                let normal = Normal::new(comp.mean[d], comp.sigma[d])
                                    .expect("sigma validated");
                                normal.sample(&mut rng)
                            }
                        })
                        .collect();
                    out.push(Record::new(id as u64, values));
                }
            }
            DataSpec::Zipf {
                dims,
                n_elements,
                exponent,
            } => {
                if *dims == 0 {
                    return Err(SeaError::invalid("Zipf spec needs at least 1 dimension"));
                }
                let zipf = Zipf::new(*n_elements, *exponent)
                    .map_err(|e| SeaError::invalid(format!("bad Zipf parameters: {e}")))?;
                for id in 0..n {
                    let values = (0..*dims).map(|_| zipf.sample(&mut rng)).collect();
                    out.push(Record::new(id as u64, values));
                }
            }
            DataSpec::LinearCorrelated {
                x_lo,
                x_hi,
                slope,
                intercept,
                noise_sigma,
            } => {
                SeaError::check_dims(slope.len(), intercept.len())?;
                SeaError::check_dims(slope.len(), noise_sigma.len())?;
                if x_lo.partial_cmp(x_hi) != Some(std::cmp::Ordering::Less) {
                    return Err(SeaError::invalid("x_lo must be < x_hi"));
                }
                for id in 0..n {
                    let x = rng.gen_range(*x_lo..*x_hi);
                    let mut values = Vec::with_capacity(slope.len() + 1);
                    values.push(x);
                    for d in 0..slope.len() {
                        let noise = if noise_sigma[d] == 0.0 {
                            0.0
                        } else {
                            Normal::new(0.0, noise_sigma[d])
                                .expect("validated")
                                .sample(&mut rng)
                        };
                        values.push(slope[d] * x + intercept[d] + noise);
                    }
                    out.push(Record::new(id as u64, values));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_gen(seed: u64) -> DataGenerator {
        let domain = Rect::new(vec![0.0, -5.0], vec![10.0, 5.0]).unwrap();
        DataGenerator::new(DataSpec::Uniform { domain }, seed)
    }

    #[test]
    fn uniform_stays_in_domain_and_is_deterministic() {
        let gen = uniform_gen(7);
        let a = gen.generate(500).unwrap();
        let b = gen.generate(500).unwrap();
        assert_eq!(a, b, "same seed, same data");
        for r in &a {
            assert!(r.value(0) >= 0.0 && r.value(0) <= 10.0);
            assert!(r.value(1) >= -5.0 && r.value(1) <= 5.0);
        }
        let c = uniform_gen(8).generate(500).unwrap();
        assert_ne!(a, c, "different seed, different data");
    }

    #[test]
    fn gaussian_mixture_clusters_around_means() {
        let comps = vec![
            GaussianComponent::new(vec![0.0, 0.0], vec![0.5, 0.5], 1.0).unwrap(),
            GaussianComponent::new(vec![100.0, 100.0], vec![0.5, 0.5], 1.0).unwrap(),
        ];
        let gen = DataGenerator::new(DataSpec::GaussianMixture { components: comps }, 1);
        let recs = gen.generate(1000).unwrap();
        let near_a = recs
            .iter()
            .filter(|r| r.value(0).abs() < 5.0 && r.value(1).abs() < 5.0)
            .count();
        let near_b = recs
            .iter()
            .filter(|r| (r.value(0) - 100.0).abs() < 5.0 && (r.value(1) - 100.0).abs() < 5.0)
            .count();
        assert_eq!(near_a + near_b, 1000, "every point near one of the modes");
        assert!(near_a > 350 && near_b > 350, "roughly balanced weights");
    }

    #[test]
    fn gaussian_mixture_respects_weights() {
        let comps = vec![
            GaussianComponent::new(vec![0.0], vec![0.1], 9.0).unwrap(),
            GaussianComponent::new(vec![100.0], vec![0.1], 1.0).unwrap(),
        ];
        let gen = DataGenerator::new(DataSpec::GaussianMixture { components: comps }, 3);
        let recs = gen.generate(2000).unwrap();
        let heavy = recs.iter().filter(|r| r.value(0) < 50.0).count();
        assert!(
            heavy > 1650 && heavy < 1950,
            "≈90% from the heavy mode, got {heavy}"
        );
    }

    #[test]
    fn empty_mixture_is_an_error() {
        let gen = DataGenerator::new(DataSpec::GaussianMixture { components: vec![] }, 0);
        assert!(gen.generate(10).is_err());
    }

    #[test]
    fn zipf_is_skewed() {
        let gen = DataGenerator::new(
            DataSpec::Zipf {
                dims: 1,
                n_elements: 1000,
                exponent: 1.2,
            },
            5,
        );
        let recs = gen.generate(2000).unwrap();
        let ones = recs.iter().filter(|r| r.value(0) == 1.0).count();
        assert!(ones > 300, "rank 1 should dominate, got {ones}");
        assert!(recs.iter().all(|r| r.value(0) >= 1.0));
    }

    #[test]
    fn linear_correlated_recovers_slope() {
        let gen = DataGenerator::new(
            DataSpec::LinearCorrelated {
                x_lo: 0.0,
                x_hi: 100.0,
                slope: vec![2.0],
                intercept: vec![5.0],
                noise_sigma: vec![0.0],
            },
            11,
        );
        let recs = gen.generate(100).unwrap();
        for r in &recs {
            assert!((r.value(1) - (2.0 * r.value(0) + 5.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn spec_dims() {
        assert_eq!(uniform_gen(0).spec().dims(), 2);
        let spec = DataSpec::LinearCorrelated {
            x_lo: 0.0,
            x_hi: 1.0,
            slope: vec![1.0, 2.0],
            intercept: vec![0.0, 0.0],
            noise_sigma: vec![0.0, 0.0],
        };
        assert_eq!(spec.dims(), 3);
    }
}
