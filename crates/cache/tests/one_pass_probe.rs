//! `SemanticCache::lookup` classifies a query in one pass over its
//! key's entries. This checks that pass against the three-pass rule it
//! replaced, kept here as the reference over a model of the cache's
//! entries:
//!
//! 1. the first entry whose rectangle equals the queried rectangle is an
//!    exact hit;
//! 2. else, among the fragment-bearing entries whose rectangle contains
//!    the query's bounding box, the one with the least `(rows, seq)` is
//!    a containment hit;
//! 3. else it is a miss, subsumed when some entry lies inside the
//!    bounding box.
//!
//! Generated entry lists mix answer-only and fragment-bearing entries,
//! tie on `rows`, re-admit rectangles (which moves an entry to the end
//! with a new `seq`) and span two aggregate keys; queries are rectangles
//! on the same grid and balls. Every lookup must give the reference's
//! decision and leave the reference's `CacheStats`.

use std::sync::Arc;

use proptest::prelude::*;
use sea_cache::{CacheConfig, CacheDecision, CacheStats, ColumnFragment, ColumnRun, SemanticCache};
use sea_common::{
    AggregateKind, AnswerValue, Ball, ColumnRange, Point, Rect, Region, SelectionMask,
};

/// Every admission clears the default 1 ms admission threshold.
const COST_US: f64 = 25_000.0;

/// One admitted entry as the model keeps it.
#[derive(Debug)]
struct ModelEntry {
    rect: Rect,
    answer: f64,
    fragments: Option<Vec<ColumnFragment>>,
    rows: u64,
    seq: u64,
}

/// What a lookup must return, in comparable form.
#[derive(Debug, PartialEq)]
enum Expected {
    Exact(f64),
    Containment(Vec<ColumnFragment>),
    Miss { subsumed: bool },
}

/// The cache and its model, admitted to and probed in lock step.
struct Pair {
    cache: SemanticCache,
    model: Vec<(AggregateKind, Vec<ModelEntry>)>,
    stats: CacheStats,
    next_seq: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            cache: SemanticCache::new(CacheConfig::default()),
            model: Vec::new(),
            stats: CacheStats::default(),
            next_seq: 0,
        }
    }

    fn list(&mut self, agg: AggregateKind) -> &mut Vec<ModelEntry> {
        let i = match self.model.iter().position(|(a, _)| *a == agg) {
            Some(i) => i,
            None => {
                self.model.push((agg, Vec::new()));
                self.model.len() - 1
            }
        };
        &mut self.model[i].1
    }

    /// Admits `rect` with `rows` rows per fragment (none: answer-only),
    /// a re-admitted rectangle replacing its entry as the cache does.
    fn admit(&mut self, agg: AggregateKind, rect: Rect, rows: Option<usize>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let answer = seq as f64;
        // The answer marks the columns, so each entry's fragments are
        // its own.
        let fragments = rows.map(|rows| {
            vec![ColumnFragment {
                runs: ColumnRun::new(
                    &vec![ColumnRange::from(vec![answer; rows]); 2],
                    rows,
                    SelectionMask::all(rows).words(),
                )
                .into_iter()
                .collect(),
            }]
        });
        let region = Region::Range(rect.clone());
        assert!(self.cache.admit_columns(
            &agg,
            &region,
            &AnswerValue::Scalar(answer),
            fragments.clone(),
            COST_US,
        ));
        self.stats.insertions += 1;
        let list = self.list(agg);
        list.retain(|e| e.rect != rect);
        list.push(ModelEntry {
            rect,
            answer,
            rows: rows.map_or(0, |r| r as u64),
            fragments,
            seq,
        });
    }

    /// The three-pass reference decision, with its counters.
    fn reference(&mut self, agg: AggregateKind, region: &Region) -> Expected {
        let bbox = region.bounding_rect();
        let exact_rect = match region {
            Region::Range(r) => Some(r),
            _ => None,
        };
        let list = self.list(agg);
        let expected = if let Some(e) = exact_rect.and_then(|q| list.iter().find(|e| e.rect == *q))
        {
            Expected::Exact(e.answer)
        } else if let Some(e) = list
            .iter()
            .filter(|e| e.rect.contains_rect(&bbox))
            .filter(|e| e.fragments.is_some())
            .min_by_key(|e| (e.rows, e.seq))
        {
            Expected::Containment(e.fragments.clone().unwrap_or_default())
        } else {
            Expected::Miss {
                subsumed: list.iter().any(|e| bbox.contains_rect(&e.rect)),
            }
        };
        match &expected {
            Expected::Exact(_) => self.stats.hits += 1,
            Expected::Containment(_) => self.stats.containment_hits += 1,
            Expected::Miss { subsumed } => {
                self.stats.misses += 1;
                if *subsumed {
                    self.stats.subsumption_misses += 1;
                }
            }
        }
        expected
    }

    /// Looks `region` up in both and checks they agree.
    fn check(&mut self, agg: AggregateKind, region: &Region) -> Result<(), TestCaseError> {
        let got = match self.cache.lookup(&agg, region) {
            CacheDecision::Exact(AnswerValue::Scalar(v)) => Expected::Exact(v),
            CacheDecision::Exact(other) => {
                return Err(TestCaseError::fail(format!("pair answer {other:?}")))
            }
            CacheDecision::Containment(frags) => Expected::Containment(frags.to_vec()),
            CacheDecision::Miss { subsumed } => Expected::Miss { subsumed },
        };
        let want = self.reference(agg, region);
        prop_assert_eq!(got, want);
        prop_assert_eq!(self.cache.stats(), self.stats);
        Ok(())
    }
}

/// Grid step `i` of `[0, 40]`.
fn at(i: usize) -> f64 {
    10.0 * i as f64
}

fn rect(lo0: usize, w0: usize, lo1: usize, w1: usize) -> Rect {
    Rect::new(vec![at(lo0), at(lo1)], vec![at(lo0 + w0), at(lo1 + w1)]).unwrap()
}

fn agg(k: u8) -> AggregateKind {
    if k == 0 {
        AggregateKind::Count
    } else {
        AggregateKind::Sum { dim: 0 }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_probe_equals_the_three_pass_rule(
        admissions in prop::collection::vec(
            (0..2u8, 0..4usize, 1..4usize, 0..4usize, 1..4usize, 0..4usize),
            0..24,
        ),
        queries in prop::collection::vec(
            (0..2u8, 0..3u8, 0..4usize, 1..4usize, 0..4usize, 1..4usize),
            1..16,
        ),
    ) {
        let mut pair = Pair::new();
        for &(k, lo0, w0, lo1, w1, rows) in &admissions {
            // rows 0 admits an answer-only entry; 1 and 2 tie often.
            let rows = (rows > 0).then(|| rows.min(2));
            pair.admit(agg(k), rect(lo0, w0, lo1, w1), rows);
        }
        for &(k, kind, a, b, c, d) in &queries {
            let region = if kind < 2 {
                Region::Range(rect(a, b, c, d))
            } else {
                let center = Point::new(vec![at(a) + 5.0, at(c) + 5.0]);
                Region::Radius(Ball::new(center, 5.0 * b as f64).unwrap())
            };
            pair.check(agg(k), &region)?;
        }
    }
}

#[test]
fn an_exact_match_after_a_containing_entry_wins() {
    let mut pair = Pair::new();
    pair.admit(AggregateKind::Count, rect(0, 4, 0, 4), Some(1));
    pair.admit(AggregateKind::Count, rect(1, 1, 1, 1), None);
    let region = Region::Range(rect(1, 1, 1, 1));
    pair.check(AggregateKind::Count, &region).unwrap();
    assert_eq!(pair.stats.hits, 1);
}

#[test]
fn the_fewest_rows_win_a_containment_and_seq_breaks_the_tie() {
    let mut pair = Pair::new();
    pair.admit(AggregateKind::Count, rect(0, 4, 0, 4), Some(2));
    pair.admit(AggregateKind::Count, rect(0, 3, 0, 3), Some(1));
    pair.admit(AggregateKind::Count, rect(1, 2, 1, 2), Some(1));
    pair.check(AggregateKind::Count, &Region::Range(rect(1, 1, 1, 1)))
        .unwrap();
    let CacheDecision::Containment(frags) = pair
        .cache
        .lookup(&AggregateKind::Count, &Region::Range(rect(1, 1, 1, 1)))
    else {
        panic!("expected a containment hit");
    };
    // The second admission (seq 1) is the first of the two one-row
    // entries.
    assert_eq!(*frags[0].runs[0].cols[0], [1.0]);
    assert!(Arc::strong_count(&frags) >= 2, "shared with the entry");
}

#[test]
fn an_empty_list_is_a_plain_miss() {
    let mut pair = Pair::new();
    pair.check(AggregateKind::Count, &Region::Range(rect(0, 1, 0, 1)))
        .unwrap();
    pair.admit(AggregateKind::Count, rect(0, 1, 0, 1), Some(1));
    let ball = Region::Radius(Ball::new(Point::new(vec![5.0, 5.0]), 5.0).unwrap());
    pair.check(AggregateKind::Sum { dim: 0 }, &ball).unwrap();
    assert_eq!(pair.stats.misses, 2);
}
