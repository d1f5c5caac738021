//! The continuous bench-regression harness behind the `perfbaseline`
//! binary.
//!
//! A fixed subset of experiments runs under a recording
//! [`TelemetrySink`]; headline metrics (simulated I/O ops, bytes moved,
//! nodes touched, mean simulated per-query latency, predicted-vs-exact
//! hit rate) are extracted from the telemetry snapshot into a
//! schema-versioned [`BenchBaseline`]. Comparing a fresh collection
//! against the committed `BENCH_baseline.json` with a relative tolerance
//! turns silent performance regressions into loud exit codes.
//!
//! Simulated metrics are deterministic — same code, same numbers — so
//! the committed baseline only changes when behaviour changes. Host
//! wall-clock is recorded per experiment too, informational only: it
//! varies with the machine running the suite. One wall-clock ratio is
//! gated, E1's `batch_plain_speedup`, because both of its sides run on
//! one thread of the same host (see `measure_batch_speedup`).

use serde::{Deserialize, Serialize};

use crate::experiments::common::{count_workload, uniform_cluster, uniform_records};
use crate::experiments::run_by_id_with;
use sea_query::{ExecPool, Executor};
use sea_telemetry::TelemetrySink;

/// Version of the on-disk baseline layout. Bump on any change to the
/// JSON shape or to the metric definitions; files with a different
/// version are never compared against, only replaced.
pub const BASELINE_SCHEMA_VERSION: u64 = 1;

/// The fixed experiment subset the harness runs: E1 (data-less vs
/// BDAS), E4 (rank join), E7 (throughput), E8 (storage footprint) —
/// together they exercise the executor, storage, pipeline, and agent
/// layers — plus E18 (fault tolerance), E19 (semantic cache), E20
/// (multi-tenant admission), E21 (watch layer), and E22 (declarative
/// replay), whose metrics are recorded for trend-watching only
/// (injected faults measure the recovery machinery, cache arms
/// deliberately skip scans, admission deliberately rejects load, and
/// the replay re-executes every statement twice by design, so none of
/// them measures the steady-state query path and none of them gate).
pub const BASELINE_EXPERIMENTS: [&str; 9] =
    ["e1", "e4", "e7", "e8", "e18", "e19", "e20", "e21", "e22"];

/// Default relative tolerance for [`compare`]: a gated metric may move
/// up to this fraction in its bad direction before it counts as a
/// regression.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// One headline metric of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadlineMetric {
    /// Metric name, e.g. `sim_io_ops`.
    pub name: String,
    /// Observed value.
    pub value: f64,
    /// Direction: `true` if larger values are better (hit rates),
    /// `false` if smaller values are better (I/O, bytes, latency).
    pub higher_is_better: bool,
    /// Whether [`compare`] gates on this metric. Non-gated metrics are
    /// recorded for trend-watching only.
    pub gate: bool,
}

/// One experiment's headline metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentBaseline {
    /// Experiment id (`e1`, `e4`, …).
    pub id: String,
    /// Host wall-clock for the whole experiment, milliseconds.
    /// Machine-dependent; informational only, never gated.
    pub wall_clock_ms: f64,
    /// The extracted metrics.
    pub metrics: Vec<HeadlineMetric>,
}

/// The whole baseline file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// See [`BASELINE_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// One entry per [`BASELINE_EXPERIMENTS`] id, in order.
    pub experiments: Vec<ExperimentBaseline>,
}

/// One gated metric that moved past tolerance in its bad direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Experiment id.
    pub experiment: String,
    /// Metric name.
    pub metric: String,
    /// Committed (old) value.
    pub baseline: f64,
    /// Freshly collected value.
    pub current: f64,
    /// Signed relative change, positive = metric grew.
    pub change: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} -> {} ({:+.1}%)",
            self.experiment,
            self.metric,
            self.baseline,
            self.current,
            self.change * 100.0
        )
    }
}

/// Rounds behind the batch metrics (odd: the median is a round that
/// ran).
const SPEEDUP_ROUNDS: usize = 15;

/// Host wall-clock speedups of [`Executor::execute_batch`] over two
/// one-by-one loops on the same queries (see [`measure_batch_speedup`]).
struct BatchSpeedup {
    /// On the pool, over the executor's sequential per-query loop:
    /// `batch_wall_speedup`.
    over_sequential: f64,
    /// On one thread, over a plain scan of the table's columns per query:
    /// `batch_plain_speedup`.
    over_plain_scan: f64,
}

/// The rows of `xs`/`ys` inside `[lo, hi]`, by the plainest loop: the
/// reference [`measure_batch_speedup`] holds the batch against. Out of
/// line, so that its code is the same whatever calls it.
#[inline(never)]
fn plain_count(xs: &[f64], ys: &[f64], lo: &[f64], hi: &[f64]) -> usize {
    (xs.iter().zip(ys))
        .filter(|&(&x, &y)| (lo[0] <= x) & (x <= hi[0]) & (lo[1] <= y) & (y <= hi[1]))
        .count()
}

/// Measures host wall-clock speedups of [`Executor::execute_batch`] on
/// an E1-style COUNT workload of 48 queries, each the median ratio of
/// [`SPEEDUP_ROUNDS`] rounds that rotate which side runs first:
///
/// * `batch_wall_speedup`, a trend: the batch on the pool against the
///   executor's sequential per-query loop;
/// * `batch_plain_speedup`, the gate: the batch on one thread against a
///   plain scan — a copy of the table's two columns, filtered once per
///   query by [`plain_count`].
///
/// The answers and simulated costs of the executor's paths are
/// identical by its determinism contract — only host wall-clock differs.
/// The speedup is **algorithmic**, not thread-parallel: an
/// all-rectangular batch shares one superset scan (the union of the
/// query boxes, gathered once per node) and each query evaluates its
/// predicate over that small shared subset, so even one thread answers
/// the batch several times faster than scanning per query. The gate
/// holds that, on one thread against code no engine change touches: it
/// moves only when the batch does, and not with a neighbour on the other
/// core, which took the pooled batch from 0.65 to 0.92 ms between runs
/// of one binary. The trend also falls when the one-by-one scan gets
/// faster, which is no regression of the batch.
///
/// # Errors
///
/// Workload-generation or execution errors.
fn measure_batch_speedup() -> sea_common::Result<BatchSpeedup> {
    let (n, seed) = (200_000, 7);
    let cluster = uniform_cluster(n, 8, seed)?;
    let mut gen = count_workload(5.0, 15.0, 11)?;
    let queries: Vec<_> = (0..48).map(|_| gen.next_query()).collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = (uniform_records(n, seed)?.iter())
        .map(|r| (r.values[0], r.values[1]))
        .unzip();
    let boxes: Vec<_> = queries.iter().map(|q| q.region.bounding_rect()).collect();

    let sequential = Executor::new(&cluster).with_pool(ExecPool::sequential());
    let parallel = Executor::new(&cluster).with_pool(ExecPool::from_env());
    let timed = |run: &dyn Fn() -> sea_common::Result<()>| -> sea_common::Result<f64> {
        let started = std::time::Instant::now();
        run()?;
        Ok(started.elapsed().as_secs_f64())
    };
    let one_by_one = || -> sea_common::Result<()> {
        for q in &queries {
            sequential.execute_direct("t", q)?;
        }
        Ok(())
    };
    let batch = |on: &Executor| -> sea_common::Result<()> {
        for r in on.execute_batch("t", &queries) {
            r?;
        }
        Ok(())
    };
    let plain = || -> sea_common::Result<()> {
        for b in &boxes {
            std::hint::black_box(plain_count(&xs, &ys, b.lo(), b.hi()));
        }
        Ok(())
    };
    let sides: [&dyn Fn() -> sea_common::Result<()>; 4] = [
        &one_by_one,
        &|| batch(&parallel),
        &|| batch(&sequential),
        &plain,
    ];
    // Warm caches so no side pays first-touch costs.
    for side in sides {
        side()?;
    }
    // The host changes speed for seconds at a time: one pair read 0.82
    // to 10.8 on unchanged code. The median ratio of rounds that take
    // turns running first is what the gate can hold.
    let mut over_sequential = Vec::with_capacity(SPEEDUP_ROUNDS);
    let mut over_plain_scan = Vec::with_capacity(SPEEDUP_ROUNDS);
    for round in 0..SPEEDUP_ROUNDS {
        let mut s = [0.0; 4];
        for k in 0..sides.len() {
            let i = (round + k) % sides.len();
            s[i] = timed(sides[i])?.max(1e-9);
        }
        over_sequential.push(s[0] / s[1]);
        over_plain_scan.push(s[3] / s[2]);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[SPEEDUP_ROUNDS / 2]
    };
    Ok(BatchSpeedup {
        over_sequential: median(over_sequential),
        over_plain_scan: median(over_plain_scan),
    })
}

/// Calls behind `pool_dispatch_us` (odd: the median is a call that
/// ran).
const DISPATCH_CALLS: usize = 301;

/// Median host wall-clock, in microseconds, of
/// `ExecPool::new(2).run(2, |i| i)`: what a fan-out costs its caller
/// when there is nothing to fan out — lending the claim loop to one
/// sleeping helper and taking it back. The calls are 300 µs of
/// caller-side work apart so that the helper really goes back to sleep;
/// back to back it never does, and the number hides what every scanning
/// statement pays. Machine-dependent, so never gated: a trend in which a
/// thread created per `run` (a few hundred µs) cannot hide.
fn measure_pool_dispatch_us() -> f64 {
    let pool = ExecPool::new(2);
    let mut us = Vec::with_capacity(DISPATCH_CALLS);
    for _ in 0..DISPATCH_CALLS {
        let apart = std::time::Instant::now();
        while apart.elapsed() < std::time::Duration::from_micros(300) {
            std::hint::spin_loop();
        }
        let started = std::time::Instant::now();
        std::hint::black_box(pool.run(2, |i| i));
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    us[DISPATCH_CALLS / 2]
}

/// Runs [`BASELINE_EXPERIMENTS`] under recording sinks and extracts
/// headline metrics from each telemetry snapshot.
///
/// # Errors
///
/// Experiment-internal errors.
pub fn collect() -> sea_common::Result<BenchBaseline> {
    let mut experiments = Vec::new();
    for id in BASELINE_EXPERIMENTS {
        let sink = TelemetrySink::recording();
        let started = std::time::Instant::now();
        run_by_id_with(id, &sink)?;
        let wall_clock_ms = started.elapsed().as_secs_f64() * 1e3;
        let snap = sink.snapshot().expect("recording sink has a snapshot");

        let mut metrics = vec![
            HeadlineMetric {
                name: "sim_io_ops".to_string(),
                value: snap.counter("storage.node.blocks_read") as f64,
                higher_is_better: false,
                gate: true,
            },
            HeadlineMetric {
                name: "sim_bytes_moved".to_string(),
                value: snap.counter("storage.node.bytes_read") as f64,
                higher_is_better: false,
                gate: true,
            },
            HeadlineMetric {
                name: "nodes_touched".to_string(),
                value: snap.counter("storage.node.scans") as f64,
                higher_is_better: false,
                gate: true,
            },
        ];
        if let Some(h) = snap.histogram(crate::experiments::common::QUERY_LATENCY_HISTOGRAM) {
            metrics.push(HeadlineMetric {
                name: "query_sim_us_mean".to_string(),
                value: h.mean,
                higher_is_better: false,
                gate: true,
            });
        }
        let predicted = snap.event_count("agent.predicted") as f64;
        let fallback = snap.event_count("agent.fallback") as f64;
        if predicted + fallback > 0.0 {
            metrics.push(HeadlineMetric {
                name: "predict_hit_rate".to_string(),
                value: predicted / (predicted + fallback),
                higher_is_better: true,
                gate: true,
            });
        }
        if id == "e1" {
            let speedup = measure_batch_speedup()?;
            metrics.push(HeadlineMetric {
                name: "batch_wall_speedup".to_string(),
                value: speedup.over_sequential,
                higher_is_better: true,
                gate: false,
            });
            metrics.push(HeadlineMetric {
                name: "batch_plain_speedup".to_string(),
                value: speedup.over_plain_scan,
                higher_is_better: true,
                gate: true,
            });
            metrics.push(HeadlineMetric {
                name: "pool_dispatch_us".to_string(),
                value: measure_pool_dispatch_us(),
                higher_is_better: false,
                gate: false,
            });
        }
        if id == "e18" {
            // Deliberately injected faults: every number here measures
            // the fault-handling machinery (retries, failovers, partial
            // answers), so nothing gates — recorded as trends only.
            for m in &mut metrics {
                m.gate = false;
            }
            for (name, counter) in [
                ("fault_retries", "query.retries"),
                ("fault_failovers", "query.failovers"),
                ("fault_degraded", "query.degraded"),
            ] {
                metrics.push(HeadlineMetric {
                    name: name.to_string(),
                    value: snap.counter(counter) as f64,
                    higher_is_better: false,
                    gate: false,
                });
            }
        }
        if id == "e19" {
            // The cached arm answers most of the stream without touching
            // storage, so the storage counters measure cache behaviour,
            // not the scan path — recorded as trends only, like E18.
            for m in &mut metrics {
                m.gate = false;
            }
            for (name, counter, higher_is_better) in [
                ("cache_hits", "cache.hits", true),
                ("cache_containment_hits", "cache.containment_hits", true),
                ("cache_misses", "cache.misses", false),
                ("cache_insertions", "cache.insertions", false),
            ] {
                metrics.push(HeadlineMetric {
                    name: name.to_string(),
                    value: snap.counter(counter) as f64,
                    higher_is_better,
                    gate: false,
                });
            }
        }
        if id == "e20" {
            // The admission tier deliberately rejects part of the load,
            // so storage counters here measure policy (how much the
            // noisy tenant got through), not the scan path — trends
            // only, like E18/E19.
            for m in &mut metrics {
                m.gate = false;
            }
            for (name, counter) in [
                ("service_answered", "service.answered"),
                ("service_rejected_budget", "service.rejected_budget"),
                ("service_rejected_rate", "service.rejected_rate"),
            ] {
                metrics.push(HeadlineMetric {
                    name: name.to_string(),
                    value: snap.counter(counter) as f64,
                    higher_is_better: false,
                    gate: false,
                });
            }
        }
        if id == "e21" {
            // E21 injects the E18 fault plans behind the watch layer,
            // so every number measures detection/alerting machinery
            // under deliberate faults — trends only, like E18.
            for m in &mut metrics {
                m.gate = false;
            }
            for (name, counter) in [
                ("watch_alerts", "watch.alerts"),
                ("watch_suspects", "watch.suspects"),
            ] {
                metrics.push(HeadlineMetric {
                    name: name.to_string(),
                    value: snap.counter(counter) as f64,
                    higher_is_better: false,
                    gate: false,
                });
            }
        }
        if id == "e22" {
            // The replay runs every statement through both the
            // declarative and the hand-built path, so storage counters
            // are doubled by construction and measure the comparison
            // harness, not the query path — trends only, like E18.
            for m in &mut metrics {
                m.gate = false;
            }
            for (name, counter) in [
                ("lang_statements", "lang.statements"),
                ("lang_mismatch", "lang.mismatch"),
            ] {
                metrics.push(HeadlineMetric {
                    name: name.to_string(),
                    value: snap.counter(counter) as f64,
                    higher_is_better: false,
                    gate: false,
                });
            }
        }
        experiments.push(ExperimentBaseline {
            id: id.to_string(),
            wall_clock_ms,
            metrics,
        });
    }
    Ok(BenchBaseline {
        schema_version: BASELINE_SCHEMA_VERSION,
        experiments,
    })
}

/// Compares `current` against `baseline`, returning every gated metric
/// that moved more than `tolerance` (relative) in its bad direction.
/// Metrics present on only one side are skipped (they are new or
/// retired, not regressed); experiments are matched by id.
pub fn compare(
    baseline: &BenchBaseline,
    current: &BenchBaseline,
    tolerance: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for cur_exp in &current.experiments {
        let Some(base_exp) = baseline.experiments.iter().find(|e| e.id == cur_exp.id) else {
            continue;
        };
        for cur in &cur_exp.metrics {
            if !cur.gate {
                continue;
            }
            let Some(base) = base_exp.metrics.iter().find(|m| m.name == cur.name) else {
                continue;
            };
            // A zero baseline can't anchor a relative comparison; treat
            // any growth from zero on a lower-is-better metric as
            // regressed only if it exceeds tolerance in absolute terms.
            let denom = base.value.abs().max(1e-12);
            let change = (cur.value - base.value) / denom;
            let regressed = if cur.higher_is_better {
                change < -tolerance
            } else {
                change > tolerance
            };
            if regressed {
                regressions.push(Regression {
                    experiment: cur_exp.id.clone(),
                    metric: cur.name.clone(),
                    baseline: base.value,
                    current: cur.value,
                    change,
                });
            }
        }
    }
    regressions
}

/// Serializes a baseline to pretty JSON (trailing newline included, so
/// the committed file is POSIX-friendly).
///
/// # Errors
///
/// Serialization errors from the JSON layer.
pub fn to_json(baseline: &BenchBaseline) -> sea_common::Result<String> {
    let mut s = serde_json::to_string_pretty(baseline)
        .map_err(|e| sea_common::SeaError::invalid(e.to_string()))?;
    s.push('\n');
    Ok(s)
}

/// Parses a baseline from JSON.
///
/// # Errors
///
/// Malformed JSON or missing fields.
pub fn from_json(text: &str) -> sea_common::Result<BenchBaseline> {
    serde_json::from_str(text).map_err(|e| sea_common::SeaError::invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, higher_is_better: bool) -> HeadlineMetric {
        HeadlineMetric {
            name: name.to_string(),
            value,
            higher_is_better,
            gate: true,
        }
    }

    fn baseline_with(metrics: Vec<HeadlineMetric>) -> BenchBaseline {
        BenchBaseline {
            schema_version: BASELINE_SCHEMA_VERSION,
            experiments: vec![ExperimentBaseline {
                id: "e1".to_string(),
                wall_clock_ms: 10.0,
                metrics,
            }],
        }
    }

    #[test]
    fn comparison_is_direction_aware() {
        let base = baseline_with(vec![
            metric("sim_io_ops", 1000.0, false),
            metric("predict_hit_rate", 0.8, true),
        ]);
        // I/O grew 30%, hit rate fell 30%: both regressions at 15%.
        let bad = baseline_with(vec![
            metric("sim_io_ops", 1300.0, false),
            metric("predict_hit_rate", 0.56, true),
        ]);
        let regs = compare(&base, &bad, DEFAULT_TOLERANCE);
        assert_eq!(regs.len(), 2, "{regs:?}");
        // I/O *fell* 30%, hit rate *rose*: improvements, not regressions.
        let good = baseline_with(vec![
            metric("sim_io_ops", 700.0, false),
            metric("predict_hit_rate", 0.95, true),
        ]);
        assert!(compare(&base, &good, DEFAULT_TOLERANCE).is_empty());
        // Within tolerance: quiet.
        let near = baseline_with(vec![
            metric("sim_io_ops", 1100.0, false),
            metric("predict_hit_rate", 0.75, true),
        ]);
        assert!(compare(&base, &near, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn ungated_and_unmatched_metrics_never_fire() {
        let base = baseline_with(vec![metric("sim_io_ops", 1000.0, false)]);
        let mut cur = baseline_with(vec![
            metric("sim_io_ops", 1001.0, false),
            metric("brand_new_metric", 1e9, false),
        ]);
        cur.experiments[0].metrics.push(HeadlineMetric {
            name: "wall_informational".to_string(),
            value: 1e12,
            higher_is_better: false,
            gate: false,
        });
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn json_round_trip_preserves_the_baseline() {
        let base = baseline_with(vec![
            metric("sim_io_ops", 1234.0, false),
            metric("predict_hit_rate", 0.875, true),
        ]);
        let text = to_json(&base).unwrap();
        assert!(text.ends_with('\n'));
        let back = from_json(&text).unwrap();
        assert_eq!(back, base);
    }
}
