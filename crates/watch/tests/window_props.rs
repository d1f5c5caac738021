//! Property tests pinning the watch layer's two load-bearing claims:
//!
//! 1. Every windowed summary equals a *manual fold* of the raw samples
//!    that landed in that window — count, sum, min, max, mean, and the
//!    exact sorted-rank percentiles.
//! 2. Summing a run of tumbling windows reproduces the *cumulative*
//!    histogram the telemetry registry builds from the same stream:
//!    identical count/min/max and identical per-bucket counts (both
//!    sides bucket on `DEFAULT_BUCKET_BOUNDS`).

use proptest::prelude::*;

use sea_telemetry::metrics::{bucket_index, DEFAULT_BUCKET_BOUNDS};
use sea_telemetry::TelemetrySink;
use sea_watch::{TumblingSeries, WindowSummary};

/// A run of windows added up: counts, sums, extrema and per-bucket
/// counts (the fields a sum keeps exactly), over non-empty windows.
struct Merged {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

fn sum_windows(windows: &[WindowSummary]) -> Merged {
    let mut out = Merged {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        buckets: vec![0; DEFAULT_BUCKET_BOUNDS.len() + 1],
    };
    for w in windows {
        out.count += w.count;
        out.sum += w.sum;
        out.min = out.min.min(w.min);
        out.max = out.max.max(w.max);
        for (slot, c) in out.buckets.iter_mut().zip(&w.buckets) {
            *slot += c;
        }
    }
    out
}

/// A stream of (timestamp, value) samples with non-decreasing
/// simulated timestamps — the only shape the hub ever feeds.
fn arb_stream() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..5_000.0, 0.01f64..100_000.0), 1..200).prop_map(|mut v| {
        // Turn arbitrary gaps into a monotone clock.
        let mut now = 0.0;
        for (t, _) in v.iter_mut() {
            now += *t;
            *t = now;
        }
        v
    })
}

/// The manual fold: what a straight recomputation over the raw samples
/// of one window says the summary must be.
fn manual_percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_summaries_equal_manual_fold(stream in arb_stream(), width in 500.0f64..20_000.0) {
        let mut series = TumblingSeries::new(width);
        for (t, v) in &stream {
            series.record(*t, *v);
        }
        let last = stream.last().unwrap().0;
        series.advance_to(last + width * 2.0); // seal everything

        for w in series.snapshot() {
            let mut raw: Vec<f64> = stream
                .iter()
                .filter(|(t, _)| *t >= w.start_us && *t < w.end_us)
                .map(|(_, v)| *v)
                .collect();
            raw.sort_by(f64::total_cmp);
            prop_assert!(!raw.is_empty(), "empty windows must not be emitted");
            prop_assert_eq!(w.count, raw.len() as u64);
            let sum: f64 = raw.iter().sum();
            prop_assert!((w.sum - sum).abs() <= 1e-9 * sum.abs().max(1.0));
            prop_assert_eq!(w.min, raw[0]);
            prop_assert_eq!(w.max, *raw.last().unwrap());
            prop_assert!((w.mean - sum / raw.len() as f64).abs() <= 1e-9 * sum.abs().max(1.0));
            for (got, q) in [(w.p50, 0.5), (w.p95, 0.95), (w.p99, 0.99), (w.p999, 0.999)] {
                let want = manual_percentile(&raw, q);
                prop_assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "q{} got {} want {}", q, got, want
                );
            }
            // Bucket counts: each sample falls in exactly one slot.
            let mut want_buckets = vec![0u64; w.buckets.len()];
            for v in &raw {
                want_buckets[bucket_index(*v)] += 1;
            }
            prop_assert_eq!(&w.buckets, &want_buckets);
        }
    }

    #[test]
    fn merged_windows_reproduce_cumulative_histogram(stream in arb_stream(), width in 500.0f64..20_000.0) {
        // The same stream goes to a tumbling series and, via the
        // recording sink, to the cumulative registry histogram.
        let mut series = TumblingSeries::new(width);
        let sink = TelemetrySink::recording();
        for (t, v) in &stream {
            series.record(*t, *v);
            sink.observe("merge.check_us", *v);
        }
        series.advance_to(stream.last().unwrap().0 + width * 2.0);

        let merged = sum_windows(&series.snapshot());
        let snap = sink.snapshot().unwrap();
        let h = snap.histogram("merge.check_us").expect("histogram recorded");

        prop_assert_eq!(merged.count, h.count);
        prop_assert_eq!(merged.min, h.min);
        prop_assert_eq!(merged.max, h.max);
        // Sums associate differently (per-window then merge vs one
        // running total), so compare to relative epsilon.
        prop_assert!((merged.sum - h.sum).abs() <= 1e-9 * h.sum.abs().max(1.0));
        // Both sides keep per-slot counts on `DEFAULT_BUCKET_BOUNDS`;
        // they must agree slot for slot.
        prop_assert_eq!(merged.buckets.len(), h.buckets.len());
        for (slot, registry_bucket) in merged.buckets.iter().zip(h.buckets.iter()) {
            prop_assert_eq!(
                *slot, registry_bucket.count,
                "bucket le={} diverged", registry_bucket.le
            );
        }

        // One window over the whole stream holds exactly the registry's
        // samples. Its percentiles are exact, the registry's are
        // bucket-interpolated, and both bracket the same rank: they
        // differ by at most the span of the bucket(s) enclosing the two
        // order statistics around it.
        let mut whole = TumblingSeries::new(stream.last().unwrap().0 + 1.0);
        let mut sorted = Vec::with_capacity(stream.len());
        for (t, v) in &stream {
            whole.record(*t, *v);
            sorted.push(*v);
        }
        sorted.sort_by(f64::total_cmp);
        let exact = &whole.snapshot()[0];
        prop_assert_eq!(exact.count, h.count);
        for (q, windowed, interpolated) in [
            (0.5, exact.p50, h.p50),
            (0.95, exact.p95, h.p95),
            (0.99, exact.p99, h.p99),
            (0.999, exact.p999, h.p999),
        ] {
            let rank = q * (sorted.len() - 1) as f64;
            let below = bucket_index(sorted[rank.floor() as usize]);
            let above = bucket_index(sorted[rank.ceil() as usize]);
            let lower = if below == 0 { 0.0 } else { DEFAULT_BUCKET_BOUNDS[below - 1] };
            let upper = DEFAULT_BUCKET_BOUNDS[above];
            prop_assert!(
                (windowed - interpolated).abs() <= upper - lower,
                "q{}: exact {} vs interpolated {} outside ({}, {}]",
                q, windowed, interpolated, lower, upper
            );
        }
    }
}
