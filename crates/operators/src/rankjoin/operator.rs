//! The two rank-join execution strategies.

use std::collections::HashMap;

use sea_common::{CostMeter, CostReport, ExecMode, RecordId, Result, SeaError};
use sea_query::Executor;

use super::ScoreIndex;

/// One joined pair in the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinResult {
    /// Id of the left tuple.
    pub left: RecordId,
    /// Id of the right tuple.
    pub right: RecordId,
    /// The shared join key.
    pub key: i64,
    /// Combined score (left score + right score).
    pub score: f64,
}

/// A rank-join answer plus its resource bill.
#[derive(Debug, Clone, PartialEq)]
pub struct RankJoinOutcome {
    /// Top-k joined pairs, descending combined score.
    pub results: Vec<JoinResult>,
    /// The cost of producing them.
    pub cost: CostReport,
    /// Tuples actually retrieved from storage (the surgical-access metric).
    pub tuples_retrieved: u64,
}

/// MapReduce-style rank-join: scan both tables fully on every node through
/// the BDAS stack, shuffle every tuple to the coordinator, hash-join,
/// sort, truncate to `k`. A node whose partition of either table could
/// not be read (partial-answer mode) leaves the report labelled partial.
///
/// It loops over nodes itself, not through [`Executor::scatter`]: a node
/// reads both tables under one meter and one `touch_node`, and is unread
/// if either side is.
///
/// # Errors
///
/// Missing tables, narrow schemas, `k == 0`, or an unreadable partition.
pub fn mapreduce_rank_join(
    exec: &Executor,
    left: &str,
    right: &str,
    k: usize,
) -> Result<RankJoinOutcome> {
    if k == 0 {
        return Err(SeaError::invalid("k must be positive"));
    }
    for t in [left, right] {
        if exec.cluster().dims(t)? < 2 {
            return Err(SeaError::invalid(
                "rank-join tables need key (attr 0) and score (attr 1)",
            ));
        }
    }
    let mut node_meters = Vec::new();
    let mut left_tuples: Vec<(i64, RecordId, f64)> = Vec::new();
    let mut right_tuples: Vec<(i64, RecordId, f64)> = Vec::new();
    let mut unavailable = 0;
    for node in 0..exec.cluster().num_nodes() {
        let mut meter = CostMeter::new();
        meter.touch_node(ExecMode::Bdas);
        let mut served = true;
        for (table, tuples) in [(left, &mut left_tuples), (right, &mut right_tuples)] {
            let Some(views) = exec.scan_blocks(table, node, None, &mut meter)? else {
                served = false;
                continue;
            };
            // Every row ships as one (key, id, score) tuple and LAN
            // message carrying the whole row, read off the columns.
            for v in &views {
                let (keys, scores, ids) = (v.block.col(0), v.block.col(1), v.block.ids());
                let bytes = 8 + 8 * v.block.dims() as u64;
                v.mask.for_each_set(|i| {
                    meter.charge_lan(bytes);
                    tuples.push((keys[i] as i64, ids[i], scores[i]));
                });
            }
        }
        unavailable += usize::from(!served);
        node_meters.push(meter);
    }
    let retrieved = (left_tuples.len() + right_tuples.len()) as u64;
    // Coordinator hash join.
    let mut coord = CostMeter::new();
    coord.charge_cpu(retrieved);
    let mut by_key: HashMap<i64, Vec<(RecordId, f64)>> = HashMap::new();
    for (key, id, score) in &left_tuples {
        by_key.entry(*key).or_default().push((*id, *score));
    }
    let mut results = Vec::new();
    for (key, rid, rscore) in &right_tuples {
        if let Some(ls) = by_key.get(key) {
            for (lid, lscore) in ls {
                results.push(JoinResult {
                    left: *lid,
                    right: *rid,
                    key: *key,
                    score: lscore + rscore,
                });
            }
        }
    }
    coord.charge_cpu(results.len() as u64);
    sort_join_results(&mut results);
    results.truncate(k);
    let cost = coord.report_parallel(node_meters.iter());
    Ok(RankJoinOutcome {
        results,
        cost: cost.partial(node_meters.len(), unavailable),
        tuples_retrieved: retrieved,
    })
}

/// Surgical rank-join over pre-built score indexes: pull descending-score
/// batches from each side, join incrementally, and stop as soon as the
/// rank-join threshold bound certifies the current top-k.
///
/// The threshold after seeing score prefixes down to `l̄` (left) and `r̄`
/// (right) is `max(l_top + r̄, l̄ + r_top)`: no unseen pair can beat it.
///
/// # Errors
///
/// `k == 0` or `batch == 0`.
pub fn surgical_rank_join(
    left_index: &ScoreIndex,
    right_index: &ScoreIndex,
    k: usize,
    batch: usize,
) -> Result<RankJoinOutcome> {
    if k == 0 {
        return Err(SeaError::invalid("k must be positive"));
    }
    if batch == 0 {
        return Err(SeaError::invalid("batch must be positive"));
    }
    let mut meter = CostMeter::new();
    let (Some(l_top), Some(r_top)) = (left_index.top_score(), right_index.top_score()) else {
        return Ok(RankJoinOutcome {
            results: Vec::new(),
            cost: meter.report_sequential(),
            tuples_retrieved: 0,
        });
    };

    let mut l_seen: HashMap<i64, Vec<(RecordId, f64)>> = HashMap::new();
    let mut r_seen: HashMap<i64, Vec<(RecordId, f64)>> = HashMap::new();
    let mut l_off = 0usize;
    let mut r_off = 0usize;
    let mut l_last = l_top;
    let mut r_last = r_top;
    let mut results: Vec<JoinResult> = Vec::new();
    let mut retrieved = 0u64;

    loop {
        let l_done = l_off >= left_index.len();
        let r_done = r_off >= right_index.len();
        if l_done && r_done {
            break;
        }
        // Pull from the side with the higher frontier score (round-robin on
        // ties), so the threshold drops as fast as possible.
        let pull_left = !l_done && (r_done || l_last >= r_last);
        if pull_left {
            let b = left_index.batch(l_off, batch, &mut meter);
            for e in b {
                retrieved += 1;
                meter.charge_cpu(1);
                if let Some(matches) = r_seen.get(&e.key) {
                    for (rid, rscore) in matches {
                        results.push(JoinResult {
                            left: e.id,
                            right: *rid,
                            key: e.key,
                            score: e.score + rscore,
                        });
                    }
                }
                l_seen.entry(e.key).or_default().push((e.id, e.score));
                l_last = e.score;
            }
            l_off += b.len();
        } else {
            let b = right_index.batch(r_off, batch, &mut meter);
            for e in b {
                retrieved += 1;
                meter.charge_cpu(1);
                if let Some(matches) = l_seen.get(&e.key) {
                    for (lid, lscore) in matches {
                        results.push(JoinResult {
                            left: *lid,
                            right: e.id,
                            key: e.key,
                            score: lscore + e.score,
                        });
                    }
                }
                r_seen.entry(e.key).or_default().push((e.id, e.score));
                r_last = e.score;
            }
            r_off += b.len();
        }

        if results.len() >= k {
            sort_join_results(&mut results);
            results.truncate(k.max(256)); // keep a bounded working set
            let threshold = (l_top + r_last).max(l_last + r_top);
            if results[k - 1].score >= threshold {
                break;
            }
        }
    }
    sort_join_results(&mut results);
    results.truncate(k);
    Ok(RankJoinOutcome {
        results,
        cost: meter.report_sequential(),
        tuples_retrieved: retrieved,
    })
}

fn sort_join_results(results: &mut [JoinResult]) {
    // total_cmp: a NaN score sorts as a score, not as a panic.
    results.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_common::Record;
    use sea_storage::{Partitioning, StorageCluster};

    /// Two tables with `n` tuples each, `keys` distinct join keys, and
    /// deterministic pseudo-random scores in [0, 1000).
    fn cluster(n: u64, keys: u64) -> StorageCluster {
        let mut c = StorageCluster::new(4, 128);
        let score =
            |i: u64, salt: u64| ((i.wrapping_mul(2654435761).wrapping_add(salt)) % 1000) as f64;
        let left: Vec<Record> = (0..n)
            .map(|i| Record::new(i, vec![(i % keys) as f64, score(i, 17), 1.0]))
            .collect();
        let right: Vec<Record> = (0..n)
            .map(|i| Record::new(i, vec![(i % keys) as f64, score(i, 91), 2.0]))
            .collect();
        c.load_table("l", left, Partitioning::Hash).unwrap();
        c.load_table("r", right, Partitioning::Hash).unwrap();
        c
    }

    fn oracle(c: &StorageCluster, k: usize) -> Vec<JoinResult> {
        mapreduce_rank_join(&Executor::new(c), "l", "r", k)
            .unwrap()
            .results
    }

    #[test]
    fn surgical_matches_mapreduce_results() {
        let c = cluster(2000, 100);
        let mut m = CostMeter::new();
        let li = ScoreIndex::build(&Executor::new(&c), "l", &mut m).unwrap();
        let ri = ScoreIndex::build(&Executor::new(&c), "r", &mut m).unwrap();
        for k in [1, 5, 20] {
            let surgical = surgical_rank_join(&li, &ri, k, 32).unwrap();
            let exact = oracle(&c, k);
            assert_eq!(surgical.results.len(), k);
            // Scores must agree exactly (ids may tie-swap).
            for (s, e) in surgical.results.iter().zip(&exact) {
                assert!((s.score - e.score).abs() < 1e-9, "k={k}: {s:?} vs {e:?}");
            }
        }
    }

    #[test]
    fn surgical_retrieves_far_fewer_tuples() {
        let c = cluster(20_000, 500);
        let li = ScoreIndex::build(&Executor::new(&c), "l", &mut CostMeter::new()).unwrap();
        let ri = ScoreIndex::build(&Executor::new(&c), "r", &mut CostMeter::new()).unwrap();
        let surgical = surgical_rank_join(&li, &ri, 10, 256).unwrap();
        let mr = mapreduce_rank_join(&Executor::new(&c), "l", "r", 10).unwrap();
        assert!(
            surgical.tuples_retrieved * 10 < mr.tuples_retrieved,
            "surgical {} vs mapreduce {}",
            surgical.tuples_retrieved,
            mr.tuples_retrieved
        );
        assert!(
            surgical.cost.wall_us < mr.cost.wall_us / 5.0,
            "surgical {} vs mapreduce {}",
            surgical.cost.wall_us,
            mr.cost.wall_us
        );
        assert!(surgical.cost.totals.lan_bytes * 10 < mr.cost.totals.lan_bytes);
    }

    #[test]
    fn advantage_grows_with_data_size() {
        let mut factors = Vec::new();
        for n in [2_000u64, 20_000] {
            let c = cluster(n, 200);
            let li = ScoreIndex::build(&Executor::new(&c), "l", &mut CostMeter::new()).unwrap();
            let ri = ScoreIndex::build(&Executor::new(&c), "r", &mut CostMeter::new()).unwrap();
            let s = surgical_rank_join(&li, &ri, 10, 64).unwrap();
            let m = mapreduce_rank_join(&Executor::new(&c), "l", "r", 10).unwrap();
            factors.push(m.cost.wall_us / s.cost.wall_us);
        }
        assert!(
            factors[1] > factors[0],
            "the gap should widen with n: {factors:?}"
        );
    }

    #[test]
    fn empty_join_results() {
        // Disjoint key spaces.
        let mut c = StorageCluster::new(2, 32);
        let left: Vec<Record> = (0..100)
            .map(|i| Record::new(i, vec![i as f64, (i % 10) as f64]))
            .collect();
        let right: Vec<Record> = (0..100)
            .map(|i| Record::new(i, vec![(i + 1000) as f64, (i % 10) as f64]))
            .collect();
        c.load_table("l", left, Partitioning::Hash).unwrap();
        c.load_table("r", right, Partitioning::Hash).unwrap();
        let mr = mapreduce_rank_join(&Executor::new(&c), "l", "r", 5).unwrap();
        assert!(mr.results.is_empty());
        let li = ScoreIndex::build(&Executor::new(&c), "l", &mut CostMeter::new()).unwrap();
        let ri = ScoreIndex::build(&Executor::new(&c), "r", &mut CostMeter::new()).unwrap();
        let s = surgical_rank_join(&li, &ri, 5, 16).unwrap();
        assert!(s.results.is_empty());
    }

    #[test]
    fn results_are_sorted_descending() {
        let c = cluster(1000, 50);
        let out = mapreduce_rank_join(&Executor::new(&c), "l", "r", 20).unwrap();
        for w in out.results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // Joined keys actually match.
        for r in &out.results {
            assert!(r.key >= 0 && r.key < 50);
        }
    }

    #[test]
    fn parameter_validation() {
        let c = cluster(100, 10);
        assert!(mapreduce_rank_join(&Executor::new(&c), "l", "r", 0).is_err());
        assert!(mapreduce_rank_join(&Executor::new(&c), "nope", "r", 5).is_err());
        let li = ScoreIndex::build(&Executor::new(&c), "l", &mut CostMeter::new()).unwrap();
        let ri = ScoreIndex::build(&Executor::new(&c), "r", &mut CostMeter::new()).unwrap();
        assert!(surgical_rank_join(&li, &ri, 0, 16).is_err());
        assert!(surgical_rank_join(&li, &ri, 5, 0).is_err());
    }

    #[test]
    fn k_larger_than_result_set() {
        let c = cluster(50, 5);
        let li = ScoreIndex::build(&Executor::new(&c), "l", &mut CostMeter::new()).unwrap();
        let ri = ScoreIndex::build(&Executor::new(&c), "r", &mut CostMeter::new()).unwrap();
        let s = surgical_rank_join(&li, &ri, 100_000, 16).unwrap();
        let m = mapreduce_rank_join(&Executor::new(&c), "l", "r", 100_000).unwrap();
        assert_eq!(s.results.len(), m.results.len());
    }

    #[test]
    fn nan_scores_sort_instead_of_panicking() {
        let mut c = StorageCluster::new(2, 32);
        let side = |salt: f64| -> Vec<Record> {
            (0..50)
                .map(|i| {
                    let score = if i == 7 { f64::NAN } else { i as f64 + salt };
                    Record::new(i, vec![(i % 5) as f64, score])
                })
                .collect()
        };
        c.load_table("l", side(0.0), Partitioning::Hash).unwrap();
        c.load_table("r", side(0.5), Partitioning::Hash).unwrap();
        let exec = Executor::new(&c);
        let out = mapreduce_rank_join(&exec, "l", "r", 20).unwrap();
        // Key 2 holds one NaN score a side: 10 + 10 − 1 NaN pairs, which
        // the total order ranks above every finite pair.
        assert!(out.results[..19].iter().all(|r| r.score.is_nan()));
        assert_eq!(out.results[19].score, 49.0 + 49.5);
        let again = mapreduce_rank_join(&exec, "l", "r", 20).unwrap();
        assert_eq!(format!("{:?}", out.results), format!("{:?}", again.results));
    }
}
