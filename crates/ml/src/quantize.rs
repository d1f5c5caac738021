//! Vector quantization: batch k-means and the online adaptive quantizer
//! behind SEA's query-space quantization (RT1-1).
//!
//! The online quantizer implements the paper's requirement to "efficiently
//! and scalably learn the structure of the query space, identifying
//! analysts' current interests": each incoming query vector either joins
//! its nearest prototype (which drifts toward it at a decaying learning
//! rate) or — when farther than `spawn_distance` from every prototype —
//! spawns a new prototype. Staleness-based purging drops quanta whose
//! interest region analysts have abandoned (RT1-4).

use serde::{Deserialize, Serialize};

use sea_common::{Result, SeaError};

/// Batch k-means (Lloyd's algorithm) with deterministic seeding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
}

impl KMeans {
    /// Fits `k` centroids over `points` with at most `max_iters`
    /// Lloyd iterations, using k-means++-style greedy seeding made
    /// deterministic (first seed = first point, next seeds maximize
    /// distance to chosen seeds).
    ///
    /// # Errors
    ///
    /// `k == 0`, empty input, or inconsistent dimensionality.
    pub fn fit(points: &[Vec<f64>], k: usize, max_iters: usize) -> Result<Self> {
        if k == 0 {
            return Err(SeaError::invalid("k must be positive"));
        }
        let Some(first) = points.first() else {
            return Err(SeaError::Empty("k-means over no points".into()));
        };
        let d = first.len();
        for p in points {
            SeaError::check_dims(d, p.len())?;
        }
        let k = k.min(points.len());

        // Deterministic farthest-point seeding.
        let mut centroids: Vec<Vec<f64>> = vec![points[0].clone()];
        while centroids.len() < k {
            let Some(far) = points.iter().max_by(|a, b| {
                let da = nearest_dist_sq(a, &centroids);
                let db = nearest_dist_sq(b, &centroids);
                da.total_cmp(&db)
            }) else {
                break;
            };
            centroids.push(far.clone());
        }

        let mut assign = vec![0usize; points.len()];
        for _ in 0..max_iters {
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let (best, _) = nearest(p, &centroids);
                if assign[i] != best {
                    assign[i] = best;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0.0; d]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, p) in points.iter().enumerate() {
                counts[assign[i]] += 1;
                for (s, v) in sums[assign[i]].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if *count > 0 {
                    for (cv, sv) in c.iter_mut().zip(sum) {
                        *cv = sv / *count as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Ok(KMeans { centroids })
    }

    /// The fitted centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }
}

fn nearest(x: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d: f64 = c.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

fn nearest_dist_sq(x: &[f64], centroids: &[Vec<f64>]) -> f64 {
    nearest(x, centroids).1
}

/// Tuning parameters of the [`OnlineQuantizer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizerParams {
    /// A query farther than this (Euclidean) from every prototype spawns a
    /// new prototype.
    pub spawn_distance: f64,
    /// Base learning rate; the effective rate for a prototype that has
    /// absorbed `n` queries is `base / (1 + n·decay)`.
    pub learning_rate: f64,
    /// Learning-rate decay per absorbed query.
    pub decay: f64,
    /// Hard cap on the number of prototypes (0 = unlimited).
    pub max_prototypes: usize,
}

impl Default for QuantizerParams {
    fn default() -> Self {
        QuantizerParams {
            spawn_distance: 1.0,
            learning_rate: 0.2,
            decay: 0.05,
            max_prototypes: 0,
        }
    }
}

/// One prototype of the online quantizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prototype {
    /// Current position in query space.
    pub position: Vec<f64>,
    /// Queries absorbed.
    pub hits: u64,
    /// Logical time of the last absorbed query.
    pub last_hit: u64,
}

/// Online adaptive vector quantizer over a stream of query vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineQuantizer {
    params: QuantizerParams,
    prototypes: Vec<Prototype>,
    dims: usize,
    clock: u64,
}

impl OnlineQuantizer {
    /// Creates an empty quantizer over `dims`-dimensional query vectors.
    ///
    /// # Errors
    ///
    /// Non-positive spawn distance or learning rate, or zero dims.
    pub fn new(dims: usize, params: QuantizerParams) -> Result<Self> {
        if dims == 0 {
            return Err(SeaError::invalid("quantizer needs at least one dimension"));
        }
        if params.spawn_distance.is_nan() || params.spawn_distance <= 0.0 {
            return Err(SeaError::invalid("spawn_distance must be positive"));
        }
        if params.learning_rate.is_nan()
            || params.learning_rate <= 0.0
            || params.learning_rate > 1.0
        {
            return Err(SeaError::invalid("learning_rate must be in (0, 1]"));
        }
        if params.decay.is_nan() || params.decay < 0.0 {
            return Err(SeaError::invalid("decay must be non-negative"));
        }
        Ok(OnlineQuantizer {
            params,
            prototypes: Vec::new(),
            dims,
            clock: 0,
        })
    }

    /// Number of prototypes.
    pub fn len(&self) -> usize {
        self.prototypes.len()
    }

    /// Whether no prototypes exist yet.
    pub fn is_empty(&self) -> bool {
        self.prototypes.is_empty()
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The prototypes.
    pub fn prototypes(&self) -> &[Prototype] {
        &self.prototypes
    }

    /// Logical clock (number of absorbed queries).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Absorbs a query vector. Returns `(prototype_index, spawned)`:
    /// the index of the prototype that absorbed the query, and whether it
    /// was newly spawned for it.
    ///
    /// # Errors
    ///
    /// Dimension mismatch.
    pub fn absorb(&mut self, x: &[f64]) -> Result<(usize, bool)> {
        SeaError::check_dims(self.dims, x.len())?;
        self.clock += 1;
        let at_cap =
            self.params.max_prototypes > 0 && self.prototypes.len() >= self.params.max_prototypes;

        if let Some((idx, dist_sq)) = self.nearest_prototype(x) {
            let dist = dist_sq.sqrt();
            if dist <= self.params.spawn_distance || at_cap {
                let p = &mut self.prototypes[idx];
                let rate = self.params.learning_rate / (1.0 + p.hits as f64 * self.params.decay);
                for (pv, xv) in p.position.iter_mut().zip(x) {
                    *pv += rate * (xv - *pv);
                }
                p.hits += 1;
                p.last_hit = self.clock;
                return Ok((idx, false));
            }
        }
        self.prototypes.push(Prototype {
            position: x.to_vec(),
            hits: 1,
            last_hit: self.clock,
        });
        Ok((self.prototypes.len() - 1, true))
    }

    /// Index and squared distance of the prototype nearest to `x`, or
    /// `None` when no prototypes exist.
    pub fn nearest_prototype(&self, x: &[f64]) -> Option<(usize, f64)> {
        if self.prototypes.is_empty() {
            return None;
        }
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, p) in self.prototypes.iter().enumerate() {
            let d: f64 = p
                .position
                .iter()
                .zip(x)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        Some((best, best_d))
    }

    /// Drops prototypes not hit in the last `max_age` queries. Returns the
    /// indices (pre-purge) of the dropped prototypes, ascending.
    pub fn purge_stale(&mut self, max_age: u64) -> Vec<usize> {
        let clock = self.clock;
        let mut dropped = Vec::new();
        let mut kept = Vec::with_capacity(self.prototypes.len());
        for (i, p) in self.prototypes.drain(..).enumerate() {
            if clock.saturating_sub(p.last_hit) > max_age {
                dropped.push(i);
            } else {
                kept.push(p);
            }
        }
        self.prototypes = kept;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_clusters() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..50 {
            let jitter = (i % 7) as f64 * 0.01;
            pts.push(vec![0.0 + jitter, 0.0 - jitter]);
            pts.push(vec![10.0 - jitter, 10.0 + jitter]);
        }
        pts
    }

    #[test]
    fn kmeans_finds_two_clusters() {
        let pts = two_clusters();
        let km = KMeans::fit(&pts, 2, 50).unwrap();
        let mut cs = km.centroids().to_vec();
        cs.sort_by(|a, b| a[0].total_cmp(&b[0]));
        // Each centroid sits on its blob (jitter ≤ 0.06 per coordinate).
        assert!(cs[0].iter().all(|v| v.abs() < 0.1), "{cs:?}");
        assert!(cs[1].iter().all(|v| (v - 10.0).abs() < 0.1), "{cs:?}");
    }

    #[test]
    fn kmeans_survives_nan_points() {
        let mut pts = two_clusters();
        pts.push(vec![f64::NAN, 0.0]);
        // Farthest-point seeding compares NaN distances via total_cmp and
        // the assignment loop treats NaN as never-nearer: no panic.
        let km = KMeans::fit(&pts, 2, 20).unwrap();
        assert_eq!(km.centroids().len(), 2);
    }

    #[test]
    fn kmeans_k_larger_than_points() {
        let pts = vec![vec![0.0], vec![1.0]];
        let km = KMeans::fit(&pts, 10, 10).unwrap();
        assert_eq!(km.centroids().len(), 2);
    }

    #[test]
    fn kmeans_validations() {
        assert!(KMeans::fit(&[], 2, 10).is_err());
        assert!(KMeans::fit(&[vec![1.0]], 0, 10).is_err());
        assert!(KMeans::fit(&[vec![1.0], vec![1.0, 2.0]], 1, 10).is_err());
    }

    #[test]
    fn quantizer_spawns_per_cluster() {
        let mut q = OnlineQuantizer::new(
            2,
            QuantizerParams {
                spawn_distance: 2.0,
                ..QuantizerParams::default()
            },
        )
        .unwrap();
        for p in two_clusters() {
            q.absorb(&p).unwrap();
        }
        assert_eq!(q.len(), 2, "one prototype per cluster");
        let (idx0, _) = q.nearest_prototype(&[0.0, 0.0]).unwrap();
        let (idx1, _) = q.nearest_prototype(&[10.0, 10.0]).unwrap();
        assert_ne!(idx0, idx1);
    }

    #[test]
    fn quantizer_prototypes_drift_toward_data() {
        let mut q = OnlineQuantizer::new(
            1,
            QuantizerParams {
                spawn_distance: 100.0,
                learning_rate: 0.5,
                decay: 0.0,
                max_prototypes: 0,
            },
        )
        .unwrap();
        q.absorb(&[0.0]).unwrap();
        for _ in 0..50 {
            q.absorb(&[10.0]).unwrap();
        }
        let pos = q.prototypes()[0].position[0];
        assert!((pos - 10.0).abs() < 0.01, "drifted to 10: {pos}");
    }

    #[test]
    fn quantizer_cap_forces_absorption() {
        let mut q = OnlineQuantizer::new(
            1,
            QuantizerParams {
                spawn_distance: 0.1,
                max_prototypes: 2,
                ..QuantizerParams::default()
            },
        )
        .unwrap();
        q.absorb(&[0.0]).unwrap();
        q.absorb(&[100.0]).unwrap();
        let (_, spawned) = q.absorb(&[50.0]).unwrap();
        assert!(!spawned, "cap reached, absorbed into nearest");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn quantizer_purges_stale() {
        let mut q = OnlineQuantizer::new(1, QuantizerParams::default()).unwrap();
        q.absorb(&[0.0]).unwrap();
        for _ in 0..100 {
            q.absorb(&[50.0]).unwrap();
        }
        assert_eq!(q.len(), 2);
        let dropped = q.purge_stale(50);
        assert_eq!(dropped, vec![0], "the abandoned prototype is dropped");
        assert_eq!(q.len(), 1);
        assert!((q.prototypes()[0].position[0] - 50.0).abs() < 1.0);
    }

    #[test]
    fn quantizer_hit_counts_and_clock() {
        let mut q = OnlineQuantizer::new(1, QuantizerParams::default()).unwrap();
        for _ in 0..10 {
            q.absorb(&[0.0]).unwrap();
        }
        assert_eq!(q.clock(), 10);
        assert_eq!(q.prototypes()[0].hits, 10);
        assert_eq!(q.prototypes()[0].last_hit, 10);
    }

    #[test]
    fn quantizer_validations() {
        assert!(OnlineQuantizer::new(0, QuantizerParams::default()).is_err());
        assert!(OnlineQuantizer::new(
            1,
            QuantizerParams {
                spawn_distance: 0.0,
                ..QuantizerParams::default()
            }
        )
        .is_err());
        assert!(OnlineQuantizer::new(
            1,
            QuantizerParams {
                learning_rate: 1.5,
                ..QuantizerParams::default()
            }
        )
        .is_err());
        let mut q = OnlineQuantizer::new(2, QuantizerParams::default()).unwrap();
        assert!(q.absorb(&[1.0]).is_err());
    }
}
