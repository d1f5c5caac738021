//! E16 — raw-data analytics via adaptive indexing (RT2-3).
//!
//! Shape target: the cracker index's per-query touched-element count
//! collapses as a hotspot workload repeats, while a re-scanning baseline
//! stays flat — "data-to-insight" cost amortizes with use, with zero
//! up-front indexing.

use sea_common::Result;
use sea_index::CrackerIndex;
use sea_telemetry::TelemetrySink;

use crate::Report;

/// Runs E16. Columns: query batch (of 10), mean elements touched per
/// query by the cracker, by a full re-scan baseline, and cracks held.
/// The cracker is a single in-memory column — no cluster — so telemetry
/// is bench-level: a span per batch plus touched-element counters.
pub fn run_e16_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E16",
        "raw-data analytics: adaptive cracking vs rescan",
        &["batch", "cracker_touched", "rescan_touched", "cracks"],
    );
    let n = 200_000u64;
    let column: Vec<(f64, u64)> = (0..n)
        .map(|i| ((i.wrapping_mul(2654435761) % n) as f64, i))
        .collect();
    let mut cracker = CrackerIndex::new(column.clone())?;

    // Hotspot workload: analysts revisit a dashboard of 9 recurring
    // ranges inside [80k, 118k), plus one brand-new range per batch.
    let recurring: Vec<(f64, f64)> = (0..9)
        .map(|j| {
            let lo = 80_000.0 + (j * 3_313 % 30_000) as f64;
            (lo, lo + 8_000.0)
        })
        .collect();
    let mut batch_idx = 0.0;
    for batch in 0..5 {
        let span = sink.span("bench.e16.batch");
        span.tag("batch", batch as u64);
        let mut cracked = 0usize;
        let mut scanned = 0usize;
        for (lo, hi) in &recurring {
            let (_, touched) = cracker.count(*lo, *hi)?;
            cracked += touched;
            scanned += column.len();
        }
        // One exploratory (new) range per batch.
        let lo = 80_000.0 + (batch * 977 % 30_000) as f64 + 0.5;
        let (_, touched) = cracker.count(lo, lo + 8_000.0)?;
        cracked += touched;
        scanned += column.len();
        sink.incr("bench.e16.elements_touched", cracked as u64);
        drop(span);
        batch_idx += 1.0;
        report.push_row(vec![
            batch_idx,
            cracked as f64 / 10.0,
            scanned as f64 / 10.0,
            cracker.num_cracks() as f64,
        ]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cracking_amortizes_to_near_zero() {
        let r = run_e16_with(&TelemetrySink::noop()).unwrap();
        let first = r.value(0, "cracker_touched").unwrap();
        let last = r.rows.last().unwrap()[1];
        assert!(
            last * 10.0 < first,
            "touched work collapses: {first} → {last}"
        );
        let rescan = r.value(4, "rescan_touched").unwrap();
        assert!(last * 100.0 < rescan, "vs rescan {rescan}: {last}");
    }
}
