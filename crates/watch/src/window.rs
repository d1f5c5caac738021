//! Windowed summaries over simulated time: tumbling windows (aligned,
//! non-overlapping) and sliding windows (the trailing `width_us`).
//!
//! A window keeps the raw samples while it is open, so its summary is
//! *exact* — percentiles come from the raw samples by the workspace's one
//! quantile rule ([`quantile_of`]), not from bucket interpolation — and
//! additionally counts samples into the same
//! [`DEFAULT_BUCKET_BOUNDS`] ladder the cumulative telemetry registry
//! uses, so merging adjacent windows reproduces the cumulative
//! [`sea_telemetry::HistogramSnapshot`] bucket counts bit-for-bit.
//! Once a tumbling window closes, only its summary is retained.
//!
//! Nothing here reads a wall clock: time only moves when the owner
//! advances it, so the same sample stream replayed in the same order
//! yields byte-identical snapshots at any host thread count.

use serde::Serialize;

use sea_common::quantile_of;
use sea_telemetry::metrics::{bucket_index, DEFAULT_BUCKET_BOUNDS};

/// Number of bucket slots in a window summary: one per bound in
/// [`DEFAULT_BUCKET_BOUNDS`] plus the overflow bucket.
pub const BUCKET_SLOTS: usize = DEFAULT_BUCKET_BOUNDS.len() + 1;

/// Closed tumbling windows retained per series; older summaries are
/// evicted (and counted) so a long-running hub stays bounded.
pub const MAX_RETAINED_WINDOWS: usize = 512;

/// Exact summary of one window's samples.
///
/// Two percentile rules exist on purpose. A window holds its raw samples
/// until it closes, so `p50`…`p999` here are exact: linear interpolation
/// between the two order statistics at rank `q·(n−1)`. The cumulative
/// [`sea_telemetry::HistogramSnapshot`] never holds samples, only the
/// bucket counts, so its percentiles interpolate inside the bucket where
/// the cumulative count crosses `q·n`. That bucket always holds one of
/// the two order statistics, so over the same samples the two estimates
/// differ by at most the span of the bucket(s) enclosing that pair —
/// one bucket's width wherever samples are dense (`window_props.rs` pins
/// this).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowSummary {
    /// Tumbling window index (`floor(t / width)`); 0 for sliding
    /// summaries, whose extent is `[start_us, end_us]` instead.
    pub index: u64,
    /// Inclusive window start, simulated µs.
    pub start_us: f64,
    /// Exclusive window end, simulated µs.
    pub end_us: f64,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub p999: f64,
    /// Per-bucket sample counts over [`DEFAULT_BUCKET_BOUNDS`] (+1
    /// overflow slot), NOT cumulative.
    pub buckets: Vec<u64>,
}

/// Summarizes `samples` (any order) for the window `[start_us, end_us)`.
/// An empty window reports 0 for every statistic.
fn summarize_window(index: u64, start_us: f64, end_us: f64, samples: &[f64]) -> WindowSummary {
    let percentile = |q| {
        quantile_of(samples.iter().copied(), q)
            .ok()
            .and_then(|answer| answer.as_scalar())
            .unwrap_or(0.0)
    };
    let mut buckets = vec![0u64; BUCKET_SLOTS];
    let mut sum = 0.0;
    for v in samples {
        buckets[bucket_index(*v)] += 1;
        sum += v;
    }
    let count = samples.len() as u64;
    WindowSummary {
        index,
        start_us,
        end_us,
        count,
        sum,
        min: samples
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .unwrap_or(0.0),
        max: samples
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(0.0),
        mean: if count == 0 { 0.0 } else { sum / count as f64 },
        p50: percentile(0.50),
        p95: percentile(0.95),
        p99: percentile(0.99),
        p999: percentile(0.999),
        buckets,
    }
}

/// Merges window summaries into one: counts, sums, extrema, and bucket
/// counts are exact; percentiles are *not* recoverable from summaries
/// and are reported as 0 — consumers wanting tail estimates over a
/// merged range should read the bucket counts.
pub fn merge_windows(windows: &[WindowSummary]) -> WindowSummary {
    let mut out = WindowSummary {
        index: windows.first().map_or(0, |w| w.index),
        start_us: windows.first().map_or(0.0, |w| w.start_us),
        end_us: windows.last().map_or(0.0, |w| w.end_us),
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        mean: 0.0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        p999: 0.0,
        buckets: vec![0u64; BUCKET_SLOTS],
    };
    for w in windows {
        out.count += w.count;
        out.sum += w.sum;
        if w.count > 0 {
            out.min = out.min.min(w.min);
            out.max = out.max.max(w.max);
        }
        for (slot, c) in out.buckets.iter_mut().zip(&w.buckets) {
            *slot += c;
        }
    }
    if out.count == 0 {
        out.min = 0.0;
        out.max = 0.0;
    } else {
        out.mean = out.sum / out.count as f64;
    }
    out
}

/// Aligned, non-overlapping windows of width `width_us` over the
/// simulated clock. The open window keeps raw samples; it closes (and
/// collapses to a [`WindowSummary`]) when a sample or an explicit
/// [`advance_to`](TumblingSeries::advance_to) moves time past its end.
/// Empty windows produce no summary.
#[derive(Debug, Clone)]
pub struct TumblingSeries {
    width_us: f64,
    closed: Vec<WindowSummary>,
    /// Summaries evicted off the front once [`MAX_RETAINED_WINDOWS`] is
    /// exceeded.
    evicted: u64,
    open_index: u64,
    open: Vec<f64>,
}

impl TumblingSeries {
    /// A new series with `width_us`-wide windows (clamped to > 0).
    pub fn new(width_us: f64) -> Self {
        TumblingSeries {
            width_us: if width_us > 0.0 { width_us } else { 1.0 },
            closed: Vec::new(),
            evicted: 0,
            open_index: 0,
            open: Vec::new(),
        }
    }

    /// The configured window width.
    pub fn width_us(&self) -> f64 {
        self.width_us
    }

    fn index_of(&self, now_us: f64) -> u64 {
        (now_us / self.width_us).floor().max(0.0) as u64
    }

    fn close_through(&mut self, index: u64) {
        if index <= self.open_index {
            return;
        }
        if !self.open.is_empty() {
            let start = self.open_index as f64 * self.width_us;
            let summary =
                summarize_window(self.open_index, start, start + self.width_us, &self.open);
            self.open.clear();
            self.closed.push(summary);
            if self.closed.len() > MAX_RETAINED_WINDOWS {
                self.closed.remove(0);
                self.evicted += 1;
            }
        }
        self.open_index = index;
    }

    /// Records `value` at simulated time `now_us` (monotone per series;
    /// an earlier timestamp lands in the currently open window).
    pub fn record(&mut self, now_us: f64, value: f64) {
        let index = self.index_of(now_us);
        self.close_through(index);
        self.open.push(value);
    }

    /// Moves time forward, closing the open window if `now_us` is past
    /// its end (so a quiescent series still seals its last window).
    pub fn advance_to(&mut self, now_us: f64) {
        let index = self.index_of(now_us);
        self.close_through(index);
    }

    /// Closed summaries evicted to bound memory.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// All retained summaries: closed windows plus the open one (if it
    /// has samples), in window order.
    pub fn snapshot(&self) -> Vec<WindowSummary> {
        let mut out = self.closed.clone();
        if !self.open.is_empty() {
            let start = self.open_index as f64 * self.width_us;
            out.push(summarize_window(
                self.open_index,
                start,
                start + self.width_us,
                &self.open,
            ));
        }
        out
    }
}

/// The trailing `width_us` of samples: each [`record`](Self::record) /
/// [`advance_to`](Self::advance_to) drops samples older than the
/// window, and [`summary`](Self::summary) folds what remains.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    width_us: f64,
    now_us: f64,
    samples: std::collections::VecDeque<(f64, f64)>,
}

impl SlidingWindow {
    /// A new sliding window of width `width_us` (clamped to > 0).
    pub fn new(width_us: f64) -> Self {
        SlidingWindow {
            width_us: if width_us > 0.0 { width_us } else { 1.0 },
            now_us: 0.0,
            samples: std::collections::VecDeque::new(),
        }
    }

    /// The configured window width.
    pub fn width_us(&self) -> f64 {
        self.width_us
    }

    fn prune(&mut self) {
        let cutoff = self.now_us - self.width_us;
        while let Some((t, _)) = self.samples.front() {
            if *t <= cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Records `value` at simulated time `now_us`.
    pub fn record(&mut self, now_us: f64, value: f64) {
        self.now_us = self.now_us.max(now_us);
        self.samples.push_back((self.now_us, value));
        self.prune();
    }

    /// Moves time forward, expiring samples that fell out of the window.
    pub fn advance_to(&mut self, now_us: f64) {
        self.now_us = self.now_us.max(now_us);
        self.prune();
    }

    /// Summary over the samples currently inside the window.
    pub fn summary(&self) -> WindowSummary {
        let values: Vec<f64> = self.samples.iter().map(|(_, v)| *v).collect();
        summarize_window(
            0,
            (self.now_us - self.width_us).max(0.0),
            self.now_us,
            &values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_windows_close_on_index_crossings() {
        let mut s = TumblingSeries::new(100.0);
        s.record(10.0, 1.0);
        s.record(20.0, 3.0);
        s.record(150.0, 5.0); // closes window 0
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].index, 0);
        assert_eq!(snap[0].count, 2);
        assert_eq!(snap[0].sum, 4.0);
        assert_eq!((snap[0].start_us, snap[0].end_us), (0.0, 100.0));
        assert_eq!(snap[1].index, 1);
        assert_eq!(snap[1].count, 1);
        // Empty windows leave no summary.
        let mut gap = TumblingSeries::new(100.0);
        gap.record(10.0, 1.0);
        gap.record(950.0, 2.0);
        let snap = gap.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[1].index, 9);
    }

    #[test]
    fn advance_to_seals_the_open_window() {
        let mut s = TumblingSeries::new(100.0);
        s.record(10.0, 1.0);
        s.advance_to(250.0);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].index, 0);
        // The next record lands in window 2, not window 0.
        let mut s2 = s.clone();
        s2.record(210.0, 9.0);
        assert_eq!(s2.snapshot()[1].index, 2);
    }

    #[test]
    fn window_percentiles_are_exact_over_raw_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let w = summarize_window(0, 0.0, 1000.0, &samples);
        assert_eq!(w.p50, 50.5);
        assert!((w.p95 - 95.05).abs() < 1e-9, "p95 {}", w.p95);
        assert_eq!(w.min, 1.0);
        assert_eq!(w.max, 100.0);
        assert_eq!(w.mean, 50.5);
        assert!(w.p99 <= w.p999 && w.p999 <= w.max);
        assert_eq!(w.buckets.iter().sum::<u64>(), 100);
    }

    #[test]
    fn window_percentile_at_an_exact_rank_ignores_an_infinite_neighbour() {
        // p50 of three samples sits exactly on rank 1; the +inf at rank 2
        // must not enter the interpolation as 0 × inf = NaN.
        let w = summarize_window(0, 0.0, 1000.0, &[1.0, 2.0, f64::INFINITY]);
        assert_eq!(w.p50, 2.0);
        assert_eq!(w.max, f64::INFINITY);
    }

    #[test]
    fn sliding_window_expires_old_samples() {
        let mut s = SlidingWindow::new(100.0);
        s.record(10.0, 1.0);
        s.record(50.0, 2.0);
        s.record(140.0, 3.0); // expires the t=10 sample (10 <= 140-100? no: 10 <= 40 yes)
        let w = s.summary();
        assert_eq!(w.count, 2);
        assert_eq!(w.sum, 5.0);
        s.advance_to(300.0);
        assert_eq!(s.summary().count, 0);
    }

    #[test]
    fn retention_is_bounded() {
        let mut s = TumblingSeries::new(1.0);
        for i in 0..(MAX_RETAINED_WINDOWS + 10) {
            s.record(i as f64 + 0.5, 1.0);
        }
        assert!(s.snapshot().len() <= MAX_RETAINED_WINDOWS + 1);
        assert!(s.evicted() > 0);
    }

    #[test]
    fn merge_is_exact_on_counts_sums_and_buckets() {
        let a = summarize_window(0, 0.0, 100.0, &[1.0, 50.0]);
        let b = summarize_window(1, 100.0, 200.0, &[7.0]);
        let m = merge_windows(&[a, b]);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 58.0);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 50.0);
        assert_eq!(m.buckets.iter().sum::<u64>(), 3);
        assert_eq!(merge_windows(&[]).count, 0);
    }
}
