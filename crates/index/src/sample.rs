//! Samplers: the substrate of sampling-based approximate query processing.
//!
//! BlinkDB-style engines (\[17\]) answer aggregates on *stratified samples*
//! so that rare strata are still represented. This module provides the
//! classic reservoir sampler (uniform) and a stratified sample keyed by a
//! user-supplied stratum function, both with the scale-up weights needed to
//! turn sample aggregates into population estimates.

use std::collections::HashMap;

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use sea_common::{Record, Result, SeaError};

/// Algorithm-R reservoir sampler: a uniform sample of fixed capacity over a
/// stream of unknown length.
#[derive(Debug, Clone)]
pub struct ReservoirSampler {
    capacity: usize,
    seen: u64,
    reservoir: Vec<Record>,
    rng: StdRng,
}

impl ReservoirSampler {
    /// Creates a sampler keeping at most `capacity` records.
    ///
    /// # Errors
    ///
    /// Zero capacity.
    pub fn new(capacity: usize, seed: u64) -> Result<Self> {
        if capacity == 0 {
            return Err(SeaError::invalid("reservoir capacity must be positive"));
        }
        Ok(ReservoirSampler {
            capacity,
            seen: 0,
            reservoir: Vec::with_capacity(capacity),
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Offers one record to the reservoir.
    pub fn offer(&mut self, record: Record) {
        self.seen += 1;
        if self.reservoir.len() < self.capacity {
            self.reservoir.push(record);
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.reservoir[j as usize] = record;
            }
        }
    }

    /// Records seen so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample.
    pub fn sample(&self) -> &[Record] {
        &self.reservoir
    }
}

/// A stratified sample: per-stratum uniform samples with per-stratum
/// scale-up weights, built offline from a full dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StratifiedSample {
    /// stratum key → (sampled records, population size of the stratum)
    strata: HashMap<u64, (Vec<Record>, u64)>,
}

impl StratifiedSample {
    /// Builds a stratified sample holding at most `per_stratum` records per
    /// stratum. `stratum_of` maps a record to its stratum key (e.g. a grid
    /// cell or a categorical column).
    ///
    /// # Errors
    ///
    /// Zero `per_stratum`.
    pub fn build(
        records: &[Record],
        per_stratum: usize,
        seed: u64,
        stratum_of: impl Fn(&Record) -> u64,
    ) -> Result<Self> {
        if per_stratum == 0 {
            return Err(SeaError::invalid("per_stratum must be positive"));
        }
        let mut samplers: HashMap<u64, ReservoirSampler> = HashMap::new();
        for r in records {
            let key = stratum_of(r);
            let sampler = match samplers.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(ReservoirSampler::new(per_stratum, seed ^ key)?)
                }
            };
            sampler.offer(r.clone());
        }
        let strata = samplers
            .into_iter()
            .map(|(k, s)| {
                let seen = s.seen();
                (k, (s.reservoir, seen))
            })
            .collect();
        Ok(StratifiedSample { strata })
    }

    /// Total sampled records.
    pub fn sample_size(&self) -> usize {
        self.strata.values().map(|(s, _)| s.len()).sum()
    }

    /// Memory footprint in bytes (E8 storage metric).
    pub fn memory_bytes(&self) -> u64 {
        self.strata
            .values()
            .map(|(s, _)| s.iter().map(Record::storage_bytes).sum::<u64>() + 16)
            .sum()
    }

    /// Iterates `(record, weight)` pairs where `weight` is the number of
    /// population records this sampled record represents. Weighted sums
    /// over these pairs estimate population aggregates.
    pub fn weighted_records(&self) -> impl Iterator<Item = (&Record, f64)> {
        self.strata.values().flat_map(|(sample, population)| {
            let w = if sample.is_empty() {
                0.0
            } else {
                *population as f64 / sample.len() as f64
            };
            sample.iter().map(move |r| (r, w))
        })
    }

    /// Estimates the population count of records matching `pred` by
    /// weighted sample counting.
    pub fn estimate_count(&self, pred: impl Fn(&Record) -> bool) -> f64 {
        self.weighted_records()
            .filter(|(r, _)| pred(r))
            .map(|(_, w)| w)
            .sum()
    }

    /// Estimates the population mean of attribute `dim` over records
    /// matching `pred` (weighted ratio estimator). Returns `None` when no
    /// sampled record matches.
    pub fn estimate_mean(&self, dim: usize, pred: impl Fn(&Record) -> bool) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for (r, w) in self.weighted_records() {
            if pred(r) {
                num += w * r.value(dim);
                den += w;
            }
        }
        (den > 0.0).then_some(num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: u64) -> impl Iterator<Item = Record> {
        (0..n).map(|i| Record::new(i, vec![i as f64]))
    }

    #[test]
    fn reservoir_caps_size_and_counts_seen() {
        let mut s = ReservoirSampler::new(100, 1).unwrap();
        for r in stream(10_000) {
            s.offer(r);
        }
        assert_eq!(s.sample().len(), 100);
        assert_eq!(s.seen(), 10_000);
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Mean of a uniform sample of 0..10000 should be near 5000.
        let mut means = Vec::new();
        for seed in 0..20 {
            let mut s = ReservoirSampler::new(200, seed).unwrap();
            for r in stream(10_000) {
                s.offer(r);
            }
            let mean: f64 =
                s.sample().iter().map(|r| r.value(0)).sum::<f64>() / s.sample().len() as f64;
            means.push(mean);
        }
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        assert!((grand - 5000.0).abs() < 200.0, "got {grand}");
    }

    #[test]
    fn reservoir_smaller_stream_keeps_everything() {
        let mut s = ReservoirSampler::new(100, 2).unwrap();
        for r in stream(30) {
            s.offer(r);
        }
        assert_eq!(s.sample().len(), 30);
        assert!(ReservoirSampler::new(0, 0).is_err());
    }

    #[test]
    fn stratified_preserves_rare_strata() {
        // Stratum 0: 10_000 records; stratum 1: only 5.
        let mut records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![0.0, i as f64]))
            .collect();
        records.extend((0..5).map(|i| Record::new(20_000 + i, vec![1.0, i as f64])));
        let s = StratifiedSample::build(&records, 50, 7, |r| r.value(0) as u64).unwrap();
        assert_eq!(s.strata.len(), 2);
        // The rare stratum is fully retained.
        let rare_count = s.estimate_count(|r| r.value(0) == 1.0);
        assert!((rare_count - 5.0).abs() < 1e-9, "got {rare_count}");
    }

    #[test]
    fn stratified_count_estimates_population() {
        let records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 10) as f64, i as f64]))
            .collect();
        let s = StratifiedSample::build(&records, 100, 3, |r| r.value(0) as u64).unwrap();
        assert_eq!(s.strata.values().map(|(_, n)| *n).sum::<u64>(), 10_000);
        let est = s.estimate_count(|r| r.value(0) < 3.0);
        assert!(
            (est - 3000.0).abs() < 1e-9,
            "exact per-stratum scaling: {est}"
        );
    }

    #[test]
    fn stratified_mean_is_close() {
        let records: Vec<Record> = (0..10_000)
            .map(|i| Record::new(i, vec![(i % 4) as f64, i as f64]))
            .collect();
        let s = StratifiedSample::build(&records, 200, 5, |r| r.value(0) as u64).unwrap();
        let est = s.estimate_mean(1, |_| true).unwrap();
        assert!((est - 4999.5).abs() < 400.0, "got {est}");
        assert!(s.estimate_mean(1, |r| r.value(0) > 100.0).is_none());
    }

    #[test]
    fn stratified_memory_is_bounded() {
        let records: Vec<Record> = (0..100_000)
            .map(|i| Record::new(i, vec![(i % 2) as f64]))
            .collect();
        let s = StratifiedSample::build(&records, 10, 1, |r| r.value(0) as u64).unwrap();
        assert_eq!(s.sample_size(), 20);
        assert!(s.memory_bytes() < 1000);
    }
}
