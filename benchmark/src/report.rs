//! One workload's results: the printed lines, the driver's JSON line,
//! and the `result.json` entry.

use crate::json::{obj, Json};
use crate::probes::Traced;
use crate::run::{EndToEnd, Scale};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::OverRounds;

/// A reported metric: the value, and where it came from several
/// samples (rounds, or set-ups) their range and count.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub over: OverRounds,
    pub samples: usize,
}

pub struct WorkloadReport {
    pub workload: Workload,
    pub warmup: usize,
    pub stmts_per_round: usize,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Every timing percentile had its ten samples beyond it.
    pub percentiles_supported: bool,
    /// Empty when the untraced phase did not run (`--trace 1`).
    pub end_to_end: Vec<Reported>,
    /// Empty when the traced phase did not run (`--trace 0`).
    pub per_layer: Vec<Reported>,
}

fn single(v: f64) -> OverRounds {
    OverRounds {
        value: v,
        min: v,
        max: v,
    }
}

impl WorkloadReport {
    pub fn new(workload: Workload, scale: Scale) -> Self {
        let (warmup, stmts_per_round) = scale.statements(workload);
        WorkloadReport {
            workload,
            warmup,
            stmts_per_round,
            rounds: 0,
            attempted: 0,
            failed: 0,
            percentiles_supported: true,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    /// Adds the untraced phase: the end-to-end metrics in contract order.
    pub fn add_end_to_end(&mut self, e: &EndToEnd) {
        self.rounds = e.rounds;
        self.percentiles_supported = e.p99_supported;
        self.attempted += e.attempted;
        self.failed += e.failed;
        let value = |name: &str| match name {
            "stmt_per_s" => (e.stmt_per_s, e.rounds),
            "stmt_p50_us" => (e.stmt_p50_us, e.rounds),
            "stmt_p99_us" => (e.stmt_p99_us, e.rounds),
            "sim_us_per_stmt" => (e.sim_us_per_stmt, e.rounds),
            "scan_share" => (e.scan_share, e.rounds),
            "accuracy_p50" => (single(e.accuracy_p50), 1),
            "rss_mb" => (e.rss_mb, e.rounds),
            "setup_s" => (e.setup_s, e.rounds),
            other => unreachable!("{other} has no measurement"),
        };
        self.end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let (over, samples) = value(m.name);
                Reported {
                    name: m.name,
                    unit: m.unit,
                    over,
                    samples,
                }
            })
            .collect();
    }

    /// Adds the traced phase: the per-layer metrics in contract order.
    pub fn add_per_layer(&mut self, t: &Traced) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.per_layer = PER_LAYER
            .iter()
            .zip(&t.metrics)
            .map(|(m, (name, v))| {
                assert_eq!(m.name, *name, "per-layer metrics come in contract order");
                Reported {
                    name: m.name,
                    unit: m.unit,
                    over: single(*v),
                    samples: 1,
                }
            })
            .collect();
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// By how much the rounds' own values of an end-to-end metric differ,
    /// as a share of the middle of their range. `None` before the untraced
    /// phase.
    pub fn round_spread(&self, metric: &str) -> Option<f64> {
        let r = self.end_to_end.iter().find(|r| r.name == metric)?;
        Some((r.over.max - r.over.min) / ((r.over.max + r.over.min) / 2.0))
    }

    fn all(&self) -> impl Iterator<Item = &Reported> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// `workload metric value unit`, one line per metric.
    pub fn print(&self) {
        let w = self.workload.name();
        for r in self.all() {
            println!("{w} {} {} {}", r.name, r.over.value, r.unit);
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .all()
            .map(|r| {
                (
                    r.name,
                    obj(vec![
                        ("value", r.over.value.into()),
                        ("unit", r.unit.into()),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", obj(metrics)),
        ])
        .compact()
    }

    /// The workload's entry in `result.json`.
    pub fn to_json(&self) -> Json {
        let block = |rs: &[Reported]| {
            obj(rs
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("value", r.over.value.into()),
                        ("unit", r.unit.into()),
                        ("min", r.over.min.into()),
                        ("max", r.over.max.into()),
                        ("samples", r.samples.into()),
                    ];
                    if let Some(m) = PER_LAYER.iter().find(|m| m.name == r.name) {
                        fields.push(("should_move", m.moves.into()));
                    }
                    (r.name, obj(fields))
                })
                .collect())
        };
        let spec = self.workload.spec();
        obj(vec![
            ("workload", spec.name.into()),
            ("why", spec.why.into()),
            ("warmup_statements", self.warmup.into()),
            ("statements_per_round", self.stmts_per_round.into()),
            ("rounds", self.rounds.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("correct", self.correct().into()),
            ("end_to_end", block(&self.end_to_end)),
            ("per_layer", block(&self.per_layer)),
        ])
    }
}
