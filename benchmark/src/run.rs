//! Set-up, untraced rounds, and the checks on their answers.

use std::time::Instant;

use sea_common::Result;

use crate::data::Table;
use crate::env::rss_mb;
use crate::oracle::{agrees, bits_eq, Oracle};
use crate::session::{with_session, Counters, SessionOpts, StmtOutcome};
use crate::spec::{Workload, RUN_SECONDS};
use crate::stats::{fastest_of, median, over_rounds, percentile, samples_beyond, OverRounds};
use crate::stmts::{
    drift_statements, explore_statements, scan_statements, Stmt, DRIFT_EPOCH, SCAN_BLOCK,
};

/// Sizes of one run. `FULL` is the comparable configuration; `QUICK`
/// exercises every code path in seconds and is stamped not comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub records: usize,
    pub quick: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        records: 1_000_000,
        quick: false,
    };
    pub const QUICK: Scale = Scale {
        records: 100_000,
        quick: true,
    };

    /// `(untimed warm-up statements, timed statements)` per round.
    pub fn statements(&self, w: Workload) -> (usize, usize) {
        if self.quick {
            return match w {
                Workload::ExploreWarm => (100, 200),
                _ => (0, 200),
            };
        }
        match w {
            Workload::ScanCold => (0, 3 * SCAN_BLOCK),
            Workload::ExploreWarm => (1_000, 1_500),
            Workload::DriftChurn => (0, 3 * DRIFT_EPOCH),
            Workload::FaultedScan => (0, 3 * SCAN_BLOCK),
        }
    }

    /// Untraced rounds in a run of `seconds`: the workload's share of the
    /// reference run, scaled, and at least [`FRESH_ROUNDS`]. Fixed by the
    /// arguments alone — a count that followed the measured time would
    /// make `rss_mb`, and every minimum over rounds, depend on how fast
    /// the host happened to be.
    pub fn rounds(&self, w: Workload, seconds: f64) -> usize {
        if self.quick {
            return 1;
        }
        // Rounds in the reference run of `spec::RUN_SECONDS`. A round over
        // a kept table takes about 3.9 s, 2.7 s (1.8 s of it the warm-up),
        // 4.0 s and 6.9 s on the 2-core reference host. `explore_warm`
        // gets the most: its median lies on the slope between warm-cache
        // and cold-cache statements and its p99 among near-identical audit
        // scans, so both read the host's noise until every statement has
        // been repeated often enough to have met a calm moment (README,
        // "End-to-end metrics"). More rounds buy the scan workloads little.
        let reference = match w {
            Workload::ScanCold => 4,
            Workload::ExploreWarm => 10,
            Workload::DriftChurn => 4,
            Workload::FaultedScan => 3,
        };
        let scaled = reference as f64 * seconds / RUN_SECONDS as f64;
        (scaled.round() as usize).max(FRESH_ROUNDS)
    }
}

/// The first rounds of a run each set everything up themselves and so
/// give a `setup_s` sample each; the rounds after them rebuild only the
/// serving state, over the last of those tables. A table build buys no
/// repetition of a statement, and it is the number of repetitions, spread
/// over the run, that lets each statement meet a calm moment of the host.
pub const FRESH_ROUNDS: usize = 3;

/// Everything a workload needs before its first timed statement.
pub struct Setup {
    pub table: Table,
    /// Warm-up prefix followed by the timed statements.
    pub stmts: Vec<Stmt>,
    pub warmup: usize,
}

impl Setup {
    pub fn timed(&self) -> &[Stmt] {
        &self.stmts[self.warmup..]
    }
}

/// The workload's statement list: `(warm-up prefix + timed, warm-up length)`.
pub fn statements(w: Workload, seed: u64, scale: Scale) -> (Vec<Stmt>, usize) {
    let (warmup, timed) = scale.statements(w);
    let n = warmup + timed;
    let stmts = match w {
        // The generator is prefix-stable, so `faulted_scan`'s list is the
        // head of `scan_cold`'s, byte for byte.
        Workload::ScanCold | Workload::FaultedScan => scan_statements(seed, n),
        Workload::ExploreWarm => explore_statements(seed, n),
        Workload::DriftChurn => drift_statements(seed, n),
    };
    (stmts, warmup)
}

/// One round's raw results (timed statements only).
pub struct Round {
    /// Wall-clock from the round's start to its first timed statement:
    /// the whole set-up for a [`fresh_round`], the serving-state build
    /// and warm-up replay otherwise.
    pub setup_s: f64,
    pub latencies_us: Vec<f64>,
    /// The round's wall-clock cut into one slot per statement: from the
    /// serving loop's duty before it to the one before the next. They
    /// add up to `wall_s`.
    pub slots_us: Vec<f64>,
    pub wall_s: f64,
    pub outcomes: Vec<StmtOutcome>,
    pub rss_mb: f64,
    pub counters: Counters,
}

/// A round that sets everything up itself: data generation, `load_table`
/// and statement generation, then the serving-state build, the warm-up
/// replay and the timed statements of [`run_round`]. Every untraced round
/// is one of these, so each gives a `setup_s` sample and each runs over
/// freshly placed data — a process that keeps one table for all rounds
/// inherits that one placement's cache behaviour in every round.
pub fn fresh_round(w: Workload, seed: u64, scale: Scale) -> Result<(Setup, Round)> {
    let started = Instant::now();
    let table = w.build_table(seed, scale.records)?;
    let (stmts, warmup) = statements(w, seed, scale);
    let mut setup = Setup {
        table,
        stmts,
        warmup,
    };
    let round = round_from(w, &mut setup, SessionOpts::pinned(), usize::MAX, started)?;
    Ok((setup, round))
}

/// Rebuilds the serving state over an existing table, replays the
/// warm-up, then times the first `n` statements of the list in a closed
/// loop: one client, next statement only after the previous outcome
/// returned.
pub fn run_round(w: Workload, setup: &mut Setup, opts: SessionOpts, n: usize) -> Result<Round> {
    round_from(w, setup, opts, n, Instant::now())
}

fn round_from(
    w: Workload,
    setup: &mut Setup,
    opts: SessionOpts,
    n: usize,
    started: Instant,
) -> Result<Round> {
    let Setup {
        table,
        stmts,
        warmup,
    } = setup;
    with_session(w, table, opts, |s| {
        for (i, st) in stmts[..*warmup].iter().enumerate() {
            s.before(i);
            s.issue(st);
        }
        let setup_s = started.elapsed().as_secs_f64();
        let timed = &stmts[*warmup..];
        let timed = &timed[..n.min(timed.len())];
        let mut latencies_us = Vec::with_capacity(timed.len());
        let mut slots_us = Vec::with_capacity(timed.len());
        let mut outcomes = Vec::with_capacity(timed.len());
        let start = Instant::now();
        let mut slot_start = 0.0;
        for (i, st) in timed.iter().enumerate() {
            s.before(*warmup + i);
            let (us, out) = s.issue(st);
            latencies_us.push(us);
            outcomes.push(out);
            let now = start.elapsed().as_secs_f64();
            slots_us.push((now - slot_start) * 1e6);
            slot_start = now;
        }
        Ok(Round {
            setup_s,
            latencies_us,
            slots_us,
            wall_s: slot_start,
            outcomes,
            rss_mb: rss_mb(),
            counters: s.counters(),
        })
    })
}

/// The metrics of one round that do not depend on the host's speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Deterministic {
    pub sim_us_per_stmt: f64,
    pub scan_share: f64,
    pub aggs: u64,
    pub dataless: u64,
    pub predicted: u64,
    pub failed_stmts: u64,
}

pub fn deterministic(outcomes: &[StmtOutcome], stmts: &[Stmt]) -> Deterministic {
    let mut d = Deterministic::default();
    let mut sim_us = 0.0;
    for (out, st) in outcomes.iter().zip(stmts) {
        d.aggs += st.queries.len() as u64;
        let Some(aggs) = out else {
            d.failed_stmts += 1;
            continue;
        };
        for a in aggs {
            sim_us += a.sim_us;
            d.dataless += u64::from(a.dataless);
            d.predicted += u64::from(a.predicted);
        }
    }
    d.sim_us_per_stmt = sim_us / outcomes.len() as f64;
    d.scan_share = (d.aggs - d.dataless) as f64 / d.aggs as f64;
    d
}

fn outcomes_identical(a: &[StmtOutcome], b: &[StmtOutcome], answers_only: bool) -> u64 {
    let same = |x: &StmtOutcome, y: &StmtOutcome| match (x, y) {
        (Some(x), Some(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| {
                    bits_eq(&p.answer, &q.answer)
                        && (answers_only
                            || (p.sim_us.to_bits() == q.sim_us.to_bits()
                                && p.dataless == q.dataless))
                })
        }
        (None, None) => true,
        _ => false,
    };
    a.iter().zip(b).filter(|(x, y)| !same(x, y)).count() as u64 + a.len().abs_diff(b.len()) as u64
}

/// Statements whose outcome differs between two rounds of one workload
/// (answers, simulated costs and provenance, bit for bit).
fn round_mismatches(a: &[StmtOutcome], b: &[StmtOutcome]) -> u64 {
    outcomes_identical(a, b, false)
}

/// Statements whose *answers* differ (used across workloads and between
/// the staged and the untraced round, where costs legitimately differ).
pub fn answer_mismatches(a: &[StmtOutcome], b: &[StmtOutcome]) -> u64 {
    outcomes_identical(a, b, true)
}

/// The stride of every sample of a round's statements. A prime, so that
/// it shares no period with the workloads' own rotations (eleven shapes,
/// every fifth a ball, three tenants, every eighth prediction audited)
/// and a sample meets every kind of statement.
pub const SAMPLE_STRIDE: usize = 17;

/// What the checks on one round's answers found.
pub struct Check {
    /// Statements that failed, sampled statements whose exact answers
    /// disagree with the oracle, and on `faulted_scan` statements whose
    /// answers differ from a healthy pass over the same data.
    pub failed: u64,
    /// Relative error of every sampled answer (≈0 for exact ones).
    rel_errs: Vec<f64>,
    /// Relative error of the sampled predicted answers only.
    predicted_rel_errs: Vec<f64>,
}

impl Check {
    pub fn accuracy_p50(&self) -> f64 {
        1.0 - median(&self.rel_errs)
    }

    pub fn predict_rel_err_p50(&self) -> f64 {
        if self.predicted_rel_errs.is_empty() {
            0.0
        } else {
            median(&self.predicted_rel_errs)
        }
    }
}

/// Checks one round against the oracle on every seventeenth statement
/// from a seeded offset (a 5.9 % sample): exact answers must agree,
/// predicted ones contribute their relative error. The oracle's work is
/// harness work, outside every round.
pub fn check_round(w: Workload, setup: &mut Setup, seed: u64, round: &Round) -> Result<Check> {
    let oracle = Oracle::new(&setup.table.cluster, setup.table.name)?;
    let timed = setup.timed();
    let mut c = Check {
        failed: deterministic(&round.outcomes, timed).failed_stmts,
        rel_errs: Vec::new(),
        predicted_rel_errs: Vec::new(),
    };
    for i in ((seed as usize % SAMPLE_STRIDE)..timed.len()).step_by(SAMPLE_STRIDE) {
        let Some(aggs) = &round.outcomes[i] else {
            continue;
        };
        let mut wrong = false;
        for (q, a) in timed[i].queries.iter().zip(aggs) {
            let Some(want) = oracle.answer(q) else {
                wrong = true;
                continue;
            };
            let err = a.answer.relative_error(&want).min(1.0);
            c.rel_errs.push(err);
            if a.predicted {
                c.predicted_rel_errs.push(err);
            } else {
                wrong |= !agrees(&q.aggregate, &a.answer, &want);
            }
        }
        c.failed += u64::from(wrong);
    }
    drop(oracle);
    if w == Workload::FaultedScan {
        // Replication and retry keep every answer exact.
        let healthy = run_round(Workload::ScanCold, setup, SessionOpts::pinned(), usize::MAX)?;
        c.failed += answer_mismatches(&healthy.outcomes, &round.outcomes);
    }
    Ok(c)
}

/// End-to-end results of one workload's untraced rounds.
pub struct EndToEnd {
    pub rounds: usize,
    pub stmt_per_s: OverRounds,
    pub stmt_p50_us: OverRounds,
    pub stmt_p99_us: OverRounds,
    pub sim_us_per_stmt: OverRounds,
    pub scan_share: OverRounds,
    pub rss_mb: OverRounds,
    pub setup_s: OverRounds,
    pub accuracy_p50: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The p99 had at least ten samples beyond it.
    pub p99_supported: bool,
}

/// One workload's untraced rounds, run one at a time so that the caller
/// can do something between them — in a paced run, wait for its turn.
/// One table is alive at a time.
pub struct Rounds {
    w: Workload,
    seed: u64,
    scale: Scale,
    rounds: Vec<Round>,
    dets: Vec<Deterministic>,
    /// The first round's check; the others must repeat that round.
    check: Option<Check>,
    mismatches: u64,
    /// The last round's set-up, for the rounds that build none.
    kept: Option<Setup>,
}

impl Rounds {
    pub fn new(w: Workload, seed: u64, scale: Scale) -> Self {
        Rounds {
            w,
            seed,
            scale,
            rounds: Vec::new(),
            dets: Vec::new(),
            check: None,
            mismatches: 0,
            kept: None,
        }
    }

    pub fn run_one(&mut self) -> Result<()> {
        let (mut setup, round) = if self.rounds.len() < FRESH_ROUNDS {
            // One table alive at a time, or `rss_mb` would hold two.
            self.kept = None;
            fresh_round(self.w, self.seed, self.scale)?
        } else {
            let mut setup = self.kept.take().expect("a fresh round ran first");
            let round = run_round(self.w, &mut setup, SessionOpts::pinned(), usize::MAX)?;
            (setup, round)
        };
        self.dets
            .push(deterministic(&round.outcomes, setup.timed()));
        match self.rounds.first() {
            None => self.check = Some(check_round(self.w, &mut setup, self.seed, &round)?),
            Some(first) => {
                self.mismatches += match self.w {
                    // Under a fault plan the aggregates of one statement
                    // run concurrently and share each node's operation
                    // counter, so which of them pays a retry's backoff
                    // depends on the thread schedule: answers repeat
                    // exactly, per-aggregate simulated costs do not.
                    Workload::FaultedScan => answer_mismatches(&first.outcomes, &round.outcomes),
                    _ => round_mismatches(&first.outcomes, &round.outcomes),
                };
                self.mismatches += u64::from(round.counters != first.counters);
            }
        }
        self.rounds.push(round);
        self.kept = Some(setup);
        Ok(())
    }

    /// Folds the rounds into the end-to-end metrics.
    ///
    /// Every round issues the same statements over the same data, and
    /// what a shared host does to a statement only ever adds time. So the
    /// timing metrics are computed from each statement's fastest
    /// repetition: `stmt_p50_us` and `stmt_p99_us` are percentiles of the
    /// per-statement minima over rounds, and `stmt_per_s` is the
    /// statement count over the sum of the per-slot minima — a round with
    /// the host's interference taken out, not the best round. The
    /// per-round values are kept as the range.
    pub fn finish(self) -> EndToEnd {
        let Rounds { rounds, dets, .. } = &self;
        let n = rounds[0].latencies_us.len();
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        let over =
            |f: &dyn Fn(usize) -> f64| over_rounds(&(0..rounds.len()).map(f).collect::<Vec<_>>());
        let per_round: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| sorted(r.latencies_us.clone()))
            .collect();
        let fastest = sorted(fastest_of(rounds.iter().map(|r| r.latencies_us.as_slice())));
        let fastest_wall_us: f64 = fastest_of(rounds.iter().map(|r| r.slots_us.as_slice()))
            .iter()
            .sum();
        let rss_mb = over(&|i| rounds[i].rss_mb);
        let check = self.check.as_ref().expect("at least one round ran");
        EndToEnd {
            rounds: rounds.len(),
            stmt_per_s: OverRounds {
                value: n as f64 / (fastest_wall_us / 1e6),
                ..over(&|i| n as f64 / rounds[i].wall_s)
            },
            stmt_p50_us: OverRounds {
                value: percentile(&fastest, 0.50),
                ..over(&|i| percentile(&per_round[i], 0.50))
            },
            stmt_p99_us: OverRounds {
                value: percentile(&fastest, 0.99),
                ..over(&|i| percentile(&per_round[i], 0.99))
            },
            sim_us_per_stmt: over(&|i| dets[i].sim_us_per_stmt),
            scan_share: over(&|i| dets[i].scan_share),
            // The most any round held: the rounds are alike, so this does
            // not grow with their number.
            rss_mb: OverRounds {
                value: rss_mb.max,
                ..rss_mb
            },
            // Of the rounds that set everything up.
            setup_s: over_rounds(
                &rounds
                    .iter()
                    .take(FRESH_ROUNDS)
                    .map(|r| r.setup_s)
                    .collect::<Vec<_>>(),
            ),
            accuracy_p50: check.accuracy_p50(),
            attempted: (rounds.len() * n) as u64,
            failed: check.failed
                + self.mismatches
                + dets[1..].iter().map(|d| d.failed_stmts).sum::<u64>(),
            p99_supported: samples_beyond(n, 0.99) >= 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn round_counts_follow_the_arguments_only() {
        let rounds = |scale: Scale, s| WORKLOADS.map(|w| scale.rounds(w, s));
        assert_eq!(rounds(Scale::FULL, RUN_SECONDS as f64), [4, 10, 4, 3]);
        assert_eq!(rounds(Scale::FULL, 0.0), [3, 3, 3, 3]);
        assert_eq!(rounds(Scale::FULL, 2.0 * RUN_SECONDS as f64), [8, 20, 8, 6]);
        assert_eq!(rounds(Scale::QUICK, 30.0), [1, 1, 1, 1]);
    }
}
