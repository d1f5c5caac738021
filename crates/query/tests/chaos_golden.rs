//! Golden-file pin of the simulated bill under injected faults.
//!
//! Twelve seeded query streams — three E18-style fault plans (transient
//! rate 0.05 / 0.1 / 0.2, node 1 three times slower, node 2 crashing at
//! its 10th scan) × {replicated + default retries, unreplicated +
//! partial answers} × {direct, BDAS} — each run against a fresh cluster
//! armed with its plan. Every query's answer bits, simulated `wall_us`
//! bits, money, availability, retries and failovers (or its error) are
//! rendered one per line and compared byte for byte with
//! `tests/fixtures/chaos_golden.txt`, at pools of 1, 2 and 8 threads.
//! The retries and failovers a line shows are the per-query deltas of
//! the `query.retries` / `query.failovers` counters — the only place
//! that subtraction survives — and every answered query's
//! [`Provenance`](sea_query::Provenance) must equal them, alone or in a
//! batch.
//!
//! Fault decisions depend on the per-node operation counters every
//! earlier query left behind, so one scan that consumes an operation too
//! many (or too few), scales a charge it should not, or drops a retry's
//! backoff shifts every later line. Regenerate after an intentional
//! change with
//! `UPDATE_GOLDEN=1 cargo test -p sea-query --test chaos_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use sea_common::{
    AggregateKind, AnalyticalQuery, AnswerValue, Ball, ExecMode, Point, Record, Rect, Region,
    Result,
};
use sea_query::{CacheClass, ExecPool, Executor, Provenance, QueryOutcome, RetryPolicy};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::{TelemetrySink, TraceContext};

const NODES: usize = 8;
const RECORDS: u64 = 4000;
const QUERIES_PER_STREAM: usize = 67;
const RATES: [f64; 3] = [0.05, 0.1, 0.2];

/// SplitMix64 stream: the query generator's only source of randomness.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// A hash-partitioned table `t` and a range-partitioned copy `r` (so
/// direct queries engage node subsets and the per-node operation
/// counters drift apart).
fn build_cluster(replicated: bool) -> StorageCluster {
    let mut c = if replicated {
        StorageCluster::with_replication(NODES, 64)
    } else {
        StorageCluster::new(NODES, 64)
    };
    let records = || -> Vec<Record> {
        (0..RECORDS)
            .map(|i| {
                Record::new(
                    i,
                    vec![
                        (i % 100) as f64,
                        (i % 7) as f64 + 0.25 * (i % 3) as f64,
                        ((i * 31) % 53) as f64,
                    ],
                )
            })
            .collect()
    };
    c.load_table("t", records(), Partitioning::Hash).unwrap();
    c.load_table(
        "r",
        records(),
        Partitioning::Range {
            dim: 0,
            splits: Partitioning::equi_width_splits(0.0, 100.0, NODES),
        },
    )
    .unwrap();
    c
}

fn aggregate(idx: u64) -> AggregateKind {
    match idx % 11 {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum { dim: 1 },
        2 => AggregateKind::Mean { dim: 2 },
        3 => AggregateKind::Variance { dim: 1 },
        4 => AggregateKind::Min { dim: 2 },
        5 => AggregateKind::Max { dim: 0 },
        6 => AggregateKind::Median { dim: 0 },
        7 => AggregateKind::Quantile { dim: 2, q: 0.9 },
        8 => AggregateKind::Correlation { x: 0, y: 2 },
        9 => AggregateKind::Regression { x: 2, y: 1 },
        _ => AggregateKind::Count,
    }
}

/// Mostly rectangles of varying extent (some narrow enough to select
/// nothing), every fifth query a ball.
fn query(rng: &mut Mix, k: usize) -> AnalyticalQuery {
    let agg = aggregate(rng.next());
    let c = [
        rng.in_range(0.0, 100.0),
        rng.in_range(0.0, 7.5),
        rng.in_range(0.0, 53.0),
    ];
    let region = if k % 5 == 4 {
        Region::Radius(Ball::new(Point::new(c.to_vec()), rng.in_range(2.0, 30.0)).unwrap())
    } else {
        let half = [
            rng.in_range(0.2, 45.0),
            rng.in_range(0.2, 5.0),
            rng.in_range(0.5, 40.0),
        ];
        Region::Range(Rect::centered(&Point::new(c.to_vec()), &half).unwrap())
    };
    AnalyticalQuery::new(region, agg)
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render(out: &Result<QueryOutcome>, retries: u64, failovers: u64) -> String {
    match out {
        Ok(o) => {
            let answer = match o.answer {
                AnswerValue::Scalar(v) => bits(v),
                AnswerValue::Pair(a, b) => format!("{}:{}", bits(a), bits(b)),
            };
            format!(
                "ok answer={answer} wall={} money={} answered={} unavailable={} backoff_us={} retries={retries} failovers={failovers}",
                bits(o.cost.wall_us),
                bits(o.cost.money),
                bits(o.cost.answered_fraction),
                o.cost.nodes_unavailable,
                o.cost.totals.backoff_us,
            )
        }
        Err(e) => format!("err {e:?} retries={retries} failovers={failovers}"),
    }
}

/// A fresh cluster armed with fault plan `plan_idx`.
fn armed(plan_idx: usize, replicated: bool) -> StorageCluster {
    let mut cluster = build_cluster(replicated);
    cluster.set_fault_plan(
        FaultPlan::new(97 + plan_idx as u64)
            .with_transient(RATES[plan_idx], 1 + plan_idx as u32 % 2)
            .with_crash(2, 10)
            .with_slow_node(1, 3.0),
    );
    cluster
}

/// The arm's executor over `cluster`, recording into `sink`.
fn executor<'a>(
    cluster: &'a StorageCluster,
    replicated: bool,
    pool: ExecPool,
    sink: &TelemetrySink,
) -> Executor<'a> {
    let exec = Executor::new(cluster)
        .with_pool(pool)
        .with_telemetry(sink.clone());
    if replicated {
        exec
    } else {
        exec.with_partial_answers(true)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                backoff_base_us: 5_000,
            })
    }
}

fn fault_counters(sink: &TelemetrySink) -> (u64, u64) {
    (
        sink.counter_value("query.retries"),
        sink.counter_value("query.failovers"),
    )
}

fn render_all(pool: ExecPool) -> String {
    let mut text = String::new();
    for (plan_idx, rate) in RATES.into_iter().enumerate() {
        for replicated in [true, false] {
            for regime in ["direct", "bdas"] {
                let cluster = armed(plan_idx, replicated);
                let sink = TelemetrySink::recording();
                let exec = executor(&cluster, replicated, pool, &sink);
                let arm = if replicated { "repl" } else { "norepl" };
                // The same query stream for every (arm, regime) of a plan.
                let mut rng = Mix(0x5EA0 + plan_idx as u64);
                for k in 0..QUERIES_PER_STREAM {
                    let q = query(&mut rng, k);
                    let table = if k % 2 == 0 { "t" } else { "r" };
                    let before = fault_counters(&sink);
                    let out = match regime {
                        "direct" => exec.execute_direct(table, &q),
                        _ => exec.execute(table, &q, ExecMode::Bdas, &TraceContext::NONE),
                    };
                    let after = fault_counters(&sink);
                    let (retries, failovers) = (after.0 - before.0, after.1 - before.1);
                    if let Ok(o) = &out {
                        let counted = Provenance {
                            cache: CacheClass::None,
                            retries,
                            failovers,
                        };
                        assert_eq!(o.provenance, counted, "{arm} {regime} q={k}");
                    }
                    writeln!(
                        text,
                        "rate={rate} {arm} {regime} q={k} {table} {:?} => {}",
                        q.aggregate,
                        render(&out, retries, failovers)
                    )
                    .unwrap();
                }
            }
        }
    }
    text
}

/// The same streams eight queries to a batch: a batch's counter delta is
/// the sum of what its outcomes carry. A query that fails in the merge
/// (an operator undefined on an empty selection) returns no outcome
/// though its nodes' retries were counted, so such a batch can only be
/// bounded. Returns the retries and failovers matched exactly.
fn check_batches(pool: ExecPool) -> (u64, u64) {
    let mut matched = (0, 0);
    for plan_idx in 0..RATES.len() {
        for replicated in [true, false] {
            for regime in ["direct", "bdas"] {
                let cluster = armed(plan_idx, replicated);
                let sink = TelemetrySink::recording();
                let exec = executor(&cluster, replicated, pool, &sink);
                let mut rng = Mix(0x5EA0 + plan_idx as u64);
                let queries: Vec<_> = (0..QUERIES_PER_STREAM)
                    .map(|k| query(&mut rng, k))
                    .collect();
                for batch in queries.chunks(8) {
                    let before = fault_counters(&sink);
                    let outs = match regime {
                        "direct" => exec.execute_batch("r", batch),
                        _ => exec.run("r", batch, ExecMode::Bdas, &TraceContext::NONE),
                    };
                    let after = fault_counters(&sink);
                    let counted = (after.0 - before.0, after.1 - before.1);
                    let carried = outs.iter().flatten().fold((0, 0), |sum, o| {
                        assert_eq!(o.provenance.cache, CacheClass::None);
                        (sum.0 + o.provenance.retries, sum.1 + o.provenance.failovers)
                    });
                    if outs.iter().all(Result::is_ok) {
                        assert_eq!(carried, counted, "plan {plan_idx} {regime}");
                        matched = (matched.0 + carried.0, matched.1 + carried.1);
                    } else {
                        assert!(carried.0 <= counted.0 && carried.1 <= counted.1);
                    }
                }
            }
        }
    }
    matched
}

#[test]
fn faulted_bills_match_the_golden_file() {
    let rendered = render_all(ExecPool::new(1));
    let matched = check_batches(ExecPool::new(1));
    assert!(
        matched.0 > 0 && matched.1 > 0,
        "batches met faults: {matched:?}"
    );
    for threads in [2, 8] {
        let pool = ExecPool::new(threads);
        assert_eq!(render_all(pool), rendered, "{threads} threads");
        assert_eq!(check_batches(pool), matched, "{threads} threads");
    }
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "fixtures",
        "chaos_golden.txt",
    ]
    .iter()
    .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture chaos_golden.txt ({e}); run with UPDATE_GOLDEN=1")
    });
    // Compare line by line first so a drift names the first query it
    // hits instead of dumping 800 lines.
    for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "chaos_golden.txt drifted at line {}; if intentional, regenerate with UPDATE_GOLDEN=1",
            i + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        expected.lines().count(),
        "chaos_golden.txt line count drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
