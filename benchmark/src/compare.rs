//! `seabench compare A.json B.json`: per workload × end-to-end metric,
//! both values, the relative difference, the metric's bound, and a
//! verdict. A is the reference (the parent); B is what is judged.

use crate::json::Json;
use crate::spec::{Better, MetricSpec, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The samples of either side spread wider than the bound, and B's do
    /// not all read better than A's: the bound cannot be judged.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: the reported value and the range of
/// the rounds' own values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// By how much B is worse than A, as a share of A (negative: better).
pub fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let d = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    d / a.abs().max(f64::MIN_POSITIVE)
}

pub fn judge(m: &MetricSpec, a: Reading, b: Reading) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    let spread = |r: Reading| (r.max - r.min) / r.value.abs().max(f64::MIN_POSITIVE);
    let b_all_better = match m.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if spread(a).max(spread(b)) > bound && !b_all_better {
        Verdict::Unresolved
    } else if worsening(m, a.value, b.value) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
    })
}

fn workloads(result: &Json) -> Vec<(&str, &Json)> {
    let list = match result.get("workloads") {
        Some(Json::Arr(list)) => list.as_slice(),
        _ => &[],
    };
    list.iter()
        .filter_map(|w| Some((w.get("workload")?.as_str()?, w)))
        .collect()
}

/// Prints the comparison table and returns how many pairings are worse.
/// Workloads or metrics present in only one file are reported and count
/// as worse: a result that lost a metric cannot pass.
pub fn compare(a: &Json, b: &Json) -> usize {
    let mut worse = 0;
    for (side, j) in [("A", a), ("B", b)] {
        if j.get("comparable") != Some(&Json::Bool(true)) {
            println!("note: {side} is not stamped comparable (quick mode or a noisy host)");
        }
    }
    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let b_workloads = workloads(b);
    for (name, wa) in workloads(a) {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            println!("{name:<13} missing from B");
            worse += 1;
            continue;
        };
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(wa, m.name), reading(wb, m.name)) else {
                println!("{name:<13} {:<16} missing from A or B", m.name);
                worse += 1;
                continue;
            };
            let verdict = judge(m, ra, rb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{name:<13} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                m.name,
                ra.value,
                rb.value,
                100.0 * worsening(m, ra.value, rb.value),
                100.0 * m.bound.unwrap_or(0.0),
                verdict.label()
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let sim = end_to_end("sim_us_per_stmt").unwrap(); // lower is better, bound 0.05
        assert_eq!(
            judge(sim, r(100.0, 99.0, 101.0), r(104.0, 103.0, 105.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(sim, r(100.0, 99.0, 101.0), r(107.0, 106.0, 108.0)),
            Verdict::Worse
        );
        // Rounds spread wider than the bound: neither ok nor worse...
        assert_eq!(
            judge(sim, r(100.0, 95.0, 110.0), r(107.0, 98.0, 112.0)),
            Verdict::Unresolved
        );
        // ...unless every sample of B reads better than every sample of A.
        assert_eq!(
            judge(sim, r(100.0, 95.0, 110.0), r(80.0, 75.0, 90.0)),
            Verdict::Ok
        );
        let acc = end_to_end("accuracy_p50").unwrap(); // higher is better, bound 0.02
        assert_eq!(
            judge(acc, r(0.99, 0.99, 0.99), r(0.95, 0.95, 0.95)),
            Verdict::Worse
        );
        assert_eq!(
            judge(acc, r(0.99, 0.99, 0.99), r(0.98, 0.98, 0.98)),
            Verdict::Ok
        );
        assert!((worsening(acc, 0.8, 0.7) - 0.125).abs() < 1e-12);
    }
}
