//! The benchmark's contract: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is generated from
//! this file (`seabench spec`) and a self-test keeps the two equal.

use crate::json::{obj, Json};

/// Seconds of timed statements in one run, roughly: the four workloads'
/// rounds hold 9 to 18 s of them (the driver passes the number back as
/// `--seconds`, and `Scale::rounds` scales the round counts by it).
pub const RUN_SECONDS: u64 = 12;

/// One named workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The four workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanCold,
    ExploreWarm,
    DriftChurn,
    FaultedScan,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::ScanCold,
    Workload::ExploreWarm,
    Workload::DriftChurn,
    Workload::FaultedScan,
];

impl Workload {
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Workload::ScanCold => WorkloadSpec {
                name: "scan_cold",
                why: "exact statements, no cache or agent: storage, kernels and scatter/gather do the work, so kernel gains show here and front-end work must not",
            },
            Workload::ExploreWarm => WorkloadSpec {
                name: "explore_warm",
                why: "hotspot session through the tenant service, mostly predicted: the median is per-statement overhead, the tail is audit scans, so a kernel change leaves p50 unchanged",
            },
            Workload::DriftChurn => WorkloadSpec {
                name: "drift_churn",
                why: "moving hotspots over a cache smaller than the working set: admissions, evictions and invalidations beside hits, so lookup and admit cost trade off",
            },
            Workload::FaultedScan => WorkloadSpec {
                name: "faulted_scan",
                why: "scan_cold statements under a fault plan: forces the guarded row-at-a-time path, so its gap to scan_cold is what one scan path would close",
            },
        }
    }

    pub fn name(self) -> &'static str {
        self.spec().name
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's definition. `bound` is set on end-to-end metrics only;
/// `moves` says which end-to-end metric on which workload a per-layer
/// metric is expected to move (README glossary, `result.json`).
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a caller of the system sees.
///
/// The driver judges a bound between runs that each use another seed, at
/// different times on a shared host, so a bound has to cover more than
/// the change it is meant to catch. The reference host's cores each run
/// a third slower for seconds to minutes at a time; with every statement
/// taken at its fastest repetition over the rounds, ten seeds still
/// spread by 3–12 % on the three wall-clock metrics depending on the
/// hour, and single runs differ by more. They carry the contract's
/// maximum (README, "End-to-end metrics"). The
/// deterministic metrics repeat exactly at one fixed seed (`seabench
/// compare` shows it) and move by under 1 % between seeds.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("stmt_per_s", "statements/s", Higher, 0.25),
    e2e("stmt_p50_us", "us", Lower, 0.25),
    e2e("stmt_p99_us", "us", Lower, 0.25),
    e2e("sim_us_per_stmt", "sim_us", Lower, 0.05),
    e2e("scan_share", "fraction", Lower, 0.05),
    e2e("accuracy_p50", "fraction", Higher, 0.02),
    e2e("rss_mb", "MiB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

const EW_P50: &str = "stmt_p50_us on explore_warm";
const EW_BOTH: &str = "stmt_p50_us, stmt_per_s on explore_warm";
const SCAN: &str =
    "stmt_per_s, stmt_p50_us on scan_cold; nothing on faulted_scan or explore_warm p50";

/// Per-layer metrics, measured in the traced phase around each layer's
/// public functions. A layer that is not on a workload's statement path
/// reports 0 there.
pub const PER_LAYER: [MetricSpec; 70] = [
    layer("lang.parse_us", "us", Lower, EW_P50),
    layer("lang.schema_infer_us", "us", Lower, EW_BOTH),
    layer("lang.lower_us", "us", Lower, EW_BOTH),
    layer("lang.aggs_per_stmt", "count", Lower, EW_BOTH),
    layer("service.submit_self_us", "us", Lower, EW_P50),
    layer("service.ledger_append_us", "us", Lower, EW_P50),
    layer("service.ledger_rows", "count", Lower, "rss_mb on explore_warm"),
    layer("service.admitted", "count", Higher, "failed count on explore_warm"),
    layer("service.rejected", "count", Lower, "failed count on explore_warm"),
    layer("core.predict_us", "us", Lower, EW_P50),
    layer("core.train_us", "us", Lower, "stmt_per_s on explore_warm"),
    layer("core.process_self_us", "us", Lower, EW_P50),
    layer("core.predicted", "count", Higher, "scan_share, sim_us_per_stmt on explore_warm"),
    layer("core.exact", "count", Lower, "scan_share, sim_us_per_stmt on explore_warm"),
    layer("core.cached", "count", Higher, "scan_share on explore_warm"),
    layer("core.quanta", "count", Lower, "accuracy_p50, rss_mb on explore_warm"),
    layer("core.dataless_share", "fraction", Higher, "scan_share (its complement) on every workload"),
    layer("core.predict_rel_err_p50", "fraction", Lower, "accuracy_p50 on explore_warm"),
    layer("cache.lookup_us", "us", Lower, "stmt_p50_us on drift_churn and explore_warm"),
    layer("cache.derive_us", "us", Lower, "stmt_p50_us on drift_churn"),
    layer("cache.admit_us", "us", Lower, "stmt_per_s on drift_churn"),
    layer("cache.hits", "count", Higher, "scan_share, sim_us_per_stmt on drift_churn"),
    layer("cache.containment_hits", "count", Higher, "scan_share, sim_us_per_stmt on drift_churn"),
    layer("cache.misses", "count", Lower, "scan_share, sim_us_per_stmt on drift_churn"),
    layer("cache.insertions", "count", Lower, "stmt_per_s on drift_churn"),
    layer("cache.evictions", "count", Lower, "scan_share on drift_churn"),
    layer("cache.invalidations", "count", Lower, "scan_share on drift_churn"),
    layer("cache.hit_rate", "fraction", Higher, "scan_share on drift_churn"),
    layer("cache.bytes", "bytes", Lower, "rss_mb on drift_churn"),
    layer("query.direct_us", "us", Lower, "stmt_per_s, stmt_p50_us, stmt_p99_us on scan_cold and faulted_scan; stmt_p99_us on explore_warm"),
    layer("query.batch_us", "us", Lower, "stmt_per_s, stmt_p99_us on scan_cold"),
    layer("query.self_us", "us", Lower, "stmt_per_s on scan_cold and faulted_scan"),
    layer("query.pool_speedup", "ratio", Higher, "stmt_per_s on scan_cold"),
    layer("query.retries", "count", Lower, "sim_us_per_stmt on faulted_scan"),
    layer("query.failovers", "count", Lower, "sim_us_per_stmt on faulted_scan"),
    layer("query.unavailable", "count", Lower, "failed count on faulted_scan"),
    layer("storage.row_scan_us", "us", Lower, "stmt_per_s on faulted_scan only"),
    layer("storage.block_mask_us", "us", Lower, "stmt_per_s on scan_cold"),
    layer("storage.catalog_us", "us", Lower, "lang.schema_infer_us, so stmt_p50_us on explore_warm"),
    layer("storage.blocks_read", "count", Lower, "sim_us_per_stmt, stmt_per_s on drift_churn"),
    layer("storage.blocks_pruned", "count", Higher, "sim_us_per_stmt, stmt_per_s on drift_churn"),
    layer("storage.prune_ratio", "fraction", Higher, "sim_us_per_stmt, stmt_per_s on drift_churn"),
    layer("storage.records_scanned", "count", Lower, "sim_us_per_stmt on every scan workload"),
    layer("storage.nodes_engaged", "count", Lower, "sim_us_per_stmt on drift_churn"),
    layer("storage.load_s", "s", Lower, "setup_s everywhere"),
    layer("common.range_mask_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.ball_mask_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_sum_sq_dense_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_sum_sq_sparse_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_welford_dense_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_welford_sparse_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_min_max_dense_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_min_max_sparse_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_bivariate_dense_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.fold_bivariate_sparse_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.gather_dense_mrec_s", "Mrec/s", Higher, SCAN),
    layer("common.gather_sparse_mrec_s", "Mrec/s", Higher, SCAN),
    layer("telemetry.overhead_ratio", "ratio", Lower, EW_BOTH),
    layer("telemetry.span_us", "us", Lower, EW_BOTH),
    layer("telemetry.event_us", "us", Lower, EW_BOTH),
    layer("telemetry.observe_us", "us", Lower, EW_BOTH),
    layer("telemetry.events_dropped", "count", Lower, "rss_mb on explore_warm"),
    layer("watch.tap_us", "us", Lower, EW_P50),
    layer("watch.slo_record_us", "us", Lower, EW_P50),
    layer("watch.snapshot_us", "us", Lower, "nothing end to end: off the statement path"),
    layer("watch.alerts", "count", Lower, EW_P50),
    layer("watch.windows_evicted", "count", Lower, "rss_mb on explore_warm"),
    layer("workload.gen_s", "s", Lower, "setup_s everywhere"),
    layer("trace.overhead_ratio", "ratio", Lower, "instrument health, not a target"),
    layer("trace.residual_share", "fraction", Lower, "instrument health, not a target"),
];

/// How the metrics interact (README and `result.json`).
pub const INTERACTIONS: [&str; 3] = [
    "On an idle pool a faster layer saves at most its share of the blocking path: kernels are most of scan_cold but the slowest node's serial fold bounds stmt_p50_us, so query.pool_speedup says how much of a kernel gain can reach stmt_per_s.",
    "On explore_warm the median is set by per-statement overhead and the p99 by the audit scans, so the two percentiles move independently.",
    "On drift_churn read cost (cache.lookup_us, cache.derive_us), admit cost (cache.admit_us) and cache.bytes trade against each other; all three are reported.",
];

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec| {
        let mut fields = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.label())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::from(b)));
        }
        obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    obj(vec![
        ("command", Json::Arr(command.map(Json::from).to_vec())),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        let s = w.spec();
                        obj(vec![("name", s.name.into()), ("why", s.why.into())])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_caps_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            let s = w.spec();
            assert!(valid_name(s.name), "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert!(seen.insert(s.name));
            assert_eq!(Workload::from_name(s.name), Some(w));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER
            .iter()
            .all(|m| m.bound.is_none() && !m.moves.is_empty()));
    }

    #[test]
    fn benchmark_json_on_disk_matches_this_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk.trim_end(), benchmark_json().pretty());
        assert!(on_disk.len() <= 64 * 1024);
    }
}
