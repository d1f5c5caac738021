//! Metrics registry: named counters and fixed-bucket histograms.
//!
//! Registration takes a short registry lock; bumping a registered
//! counter is a relaxed atomic add under the registry's read lock, and
//! histogram observations take only that histogram's own mutex, so the
//! hot path never contends on a write lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::Serialize;

/// Upper bucket bounds (microseconds or any unit the caller picks) in a
/// 1–2–5 decade ladder; one implicit overflow bucket sits above the
/// last bound.
pub const DEFAULT_BUCKET_BOUNDS: [f64; 31] = [
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4,
    5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
];

/// The slot of [`DEFAULT_BUCKET_BOUNDS`] a value is counted in: the
/// first bound it does not exceed, or the overflow slot past the last.
/// The one placement rule, shared by the cumulative histograms here and
/// sea-watch's windowed summaries so their bucket counts agree.
#[inline]
pub fn bucket_index(value: f64) -> usize {
    DEFAULT_BUCKET_BOUNDS
        .iter()
        .position(|bound| value <= *bound)
        .unwrap_or(DEFAULT_BUCKET_BOUNDS.len())
}

#[derive(Debug, Default)]
struct HistogramCell {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl HistogramCell {
    fn record(&mut self, value: f64) {
        if self.counts.is_empty() {
            self.counts = vec![0; DEFAULT_BUCKET_BOUNDS.len() + 1];
            self.min = f64::INFINITY;
            self.max = f64::NEG_INFINITY;
        }
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// Shared registry behind a recording sink.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, AtomicU64>>,
    histograms: RwLock<HashMap<String, Arc<Mutex<HistogramCell>>>>,
}

impl MetricsRegistry {
    /// Adds `by` to a counter, registering it on first use. A registered
    /// counter is bumped under the read lock.
    pub(crate) fn add(&self, name: &str, by: u64) {
        if let Some(cell) = self.counters.read().get(name) {
            cell.fetch_add(by, Ordering::Relaxed);
            return;
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .fetch_add(by, Ordering::Relaxed);
    }

    /// Reads a counter's current value *without* registering it: a name
    /// never incremented reads 0 and leaves no trace in snapshots, so
    /// read-only consumers (the service ledger's per-request
    /// retry/failover deltas) cannot perturb the recorded table set.
    pub(crate) fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .get(name)
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    pub(crate) fn observe(&self, name: &str, value: f64) {
        if let Some(cell) = self.histograms.read().get(name) {
            cell.lock().record(value);
            return;
        }
        // Another thread may have registered it since the read: `entry`
        // keeps the first cell either way.
        self.histograms
            .write()
            .entry(name.to_string())
            .or_default()
            .lock()
            .record(value);
    }

    pub(crate) fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        let mut out: Vec<CounterSnapshot> = self
            .counters
            .read()
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    pub(crate) fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        let mut out: Vec<HistogramSnapshot> = self
            .histograms
            .read()
            .iter()
            .map(|(name, cell)| summarize(name, &cell.lock()))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

fn summarize(name: &str, h: &HistogramCell) -> HistogramSnapshot {
    let buckets: Vec<BucketSnapshot> = h
        .counts
        .iter()
        .enumerate()
        .map(|(i, count)| BucketSnapshot {
            le: DEFAULT_BUCKET_BOUNDS.get(i).copied().unwrap_or(f64::MAX),
            count: *count,
        })
        .collect();
    HistogramSnapshot {
        name: name.to_string(),
        count: h.count,
        sum: h.sum,
        min: if h.count == 0 { 0.0 } else { h.min },
        max: if h.count == 0 { 0.0 } else { h.max },
        mean: if h.count == 0 {
            0.0
        } else {
            h.sum / h.count as f64
        },
        p50: percentile(h, 0.50),
        p95: percentile(h, 0.95),
        p99: percentile(h, 0.99),
        p999: percentile(h, 0.999),
        buckets,
    }
}

/// Percentile estimate: locate the bucket where the cumulative count
/// crosses `q·total`, then interpolate linearly inside its bounds
/// (clamped to the observed min/max so estimates never leave the data
/// range).
fn percentile(h: &HistogramCell, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut cumulative = 0u64;
    for (i, count) in h.counts.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        let before = cumulative as f64;
        cumulative += count;
        if cumulative as f64 >= target {
            let lower = if i == 0 {
                h.min
            } else {
                DEFAULT_BUCKET_BOUNDS[i - 1].max(h.min)
            };
            let upper = DEFAULT_BUCKET_BOUNDS
                .get(i)
                .copied()
                .unwrap_or(h.max)
                .min(h.max);
            let fraction = ((target - before) / *count as f64).clamp(0.0, 1.0);
            return (lower + fraction * (upper - lower)).clamp(h.min, h.max);
        }
    }
    h.max
}

/// Serializable counter reading.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// One histogram bucket: observations `≤ le` (cumulative style is left
/// to consumers; counts here are per-bucket).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BucketSnapshot {
    pub le: f64,
    pub count: u64,
}

/// Serializable histogram summary with interpolated percentiles. The
/// `mean` is count-weighted (`sum / count`), and `sum` is the exact
/// accumulated total, so exporters can emit it without reconstructing
/// it from the mean.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    /// Exact sum of all observations (0 when empty).
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Count-weighted mean: `sum / count` (0 when empty).
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// 99.9th percentile — the tail the windowed watch layer alerts on.
    pub p999: f64,
    pub buckets: Vec<BucketSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_ordered_and_plausible() {
        let reg = MetricsRegistry::default();
        for i in 1..=1000 {
            reg.observe("lat", f64::from(i));
        }
        let snap = &reg.histogram_snapshots()[0];
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 1000.0);
        assert!(snap.p50 > 300.0 && snap.p50 < 700.0, "p50 {}", snap.p50);
        assert!(snap.p95 > 800.0, "p95 {}", snap.p95);
        assert!(snap.p99 >= snap.p95 && snap.p99 <= snap.max);
        assert!(snap.p999 >= snap.p99 && snap.p999 <= snap.max);
        assert_eq!(snap.sum, (1..=1000).map(f64::from).sum::<f64>());
        assert!((snap.mean - snap.sum / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation_collapses_percentiles() {
        let reg = MetricsRegistry::default();
        reg.observe("one", 42.0);
        let snap = &reg.histogram_snapshots()[0];
        assert_eq!(snap.p50, 42.0);
        assert_eq!(snap.p99, 42.0);
        assert_eq!(snap.p999, 42.0);
        assert_eq!(snap.mean, 42.0);
        assert_eq!(snap.sum, 42.0);
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let reg = MetricsRegistry::default();
        reg.observe("big", 1e12);
        let snap = &reg.histogram_snapshots()[0];
        assert_eq!(snap.buckets.last().unwrap().count, 1);
        assert_eq!(snap.p50, 1e12);
    }
}
