//! EXPLAIN: render a statement's plan, the planner's decisions, the
//! estimated-vs-actual simulated cost, and the recorded span tree.
//!
//! The report is **deterministic**: every number is derived from the
//! simulated cost model or from [`SpanNode::sim_us`] — never from
//! host wall-clock (`SpanNode::wall_us` is deliberately excluded), so
//! the rendering is bit-identical across machines, runs, and
//! `SEA_EXEC_THREADS` settings, and a golden test can pin it.

use std::fmt::Write as _;

use sea_operators::QueryStrategy;
use sea_telemetry::{FieldValue, SpanNode};

use crate::ast::{LogicalPlan, ModeHint};
use crate::planner::{AggregateResult, Estimates};

fn strategy_name(s: Option<QueryStrategy>) -> &'static str {
    match s {
        Some(QueryStrategy::ScanAggregate) => "scan",
        Some(QueryStrategy::IndexFetch) => "index",
        None => "executor",
    }
}

/// Formats the report for a statement the planner's ladder has already
/// run: `planned` is what it returned, `roots` the span tree recorded
/// under it.
pub(crate) fn render(
    plan: &LogicalPlan,
    mode: ModeHint,
    table: &str,
    planned: &[(AggregateResult, Option<Estimates>)],
    roots: &[SpanNode],
) -> String {
    let mut canonical = plan.clone();
    canonical.explain = false;
    let mut out = String::new();
    let _ = writeln!(out, "EXPLAIN {canonical}");
    let _ = writeln!(out, "plan");
    let _ = writeln!(out, "  table: {table}");
    let _ = writeln!(
        out,
        "  mode: {} (requested {})",
        mode.keyword(),
        plan.mode.keyword()
    );
    let _ = writeln!(out, "decision");
    for (r, est) in planned {
        let mut line = format!(
            "  {}: path={}({})",
            r.spec,
            r.source,
            strategy_name(r.strategy)
        );
        if let Some(e) = est {
            let _ = write!(
                line,
                " est_scan_us={:.1} est_index_us={:.1}",
                e.scan_us, e.index_us
            );
        }
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "cost");
    for (r, est) in planned {
        let mut line = format!("  {}:", r.spec);
        // The estimate of the path that ran.
        let estimate = est.zip(r.strategy).map(|(e, s)| match s {
            QueryStrategy::ScanAggregate => e.scan_us,
            QueryStrategy::IndexFetch => e.index_us,
        });
        if let Some(e) = estimate {
            let _ = write!(line, " estimated_us={e:.1}");
        }
        let _ = write!(
            line,
            " actual_sim_us={:.1} money={:.6} answered_fraction={:.3}",
            r.cost.wall_us, r.cost.money, r.cost.answered_fraction
        );
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "trace");
    if roots.is_empty() {
        let _ = writeln!(out, "  (no spans recorded)");
    }
    for root in roots {
        render_span(&mut out, root, 1);
    }
    // Drop the trailing newline so goldens are editor-stable.
    out.truncate(out.trim_end_matches('\n').len());
    out
}

fn render_span(out: &mut String, node: &SpanNode, depth: usize) {
    let mut line = format!("{}{}", "  ".repeat(depth), node.name);
    for (k, v) in &node.tags {
        let _ = write!(line, " {k}={}", fmt_field(v));
    }
    let _ = write!(line, " sim_us={:.1}", node.sim_us_total());
    let _ = writeln!(out, "{line}");
    for child in &node.children {
        render_span(out, child, depth + 1);
    }
}

fn fmt_field(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(x) => x.to_string(),
        FieldValue::I64(x) => x.to_string(),
        FieldValue::F64(x) => format!("{x:.1}"),
        FieldValue::Bool(x) => x.to_string(),
        FieldValue::Str(x) => x.to_string(),
    }
}
