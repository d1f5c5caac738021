//! Cross-path differential: the executor reads a statement's blocks in
//! one of two ways — it *folds through the mask* when its queries share
//! one box (every statement below, cached or not), and it *gathers* the
//! rows of their union box first when their boxes differ — and the two
//! must be indistinguishable. Three checks, at every pool size, on a
//! 4-node and a 2-node cluster (more threads than serving copies),
//! healthy and under a fault plan whose crash lands mid-batch:
//!
//! - an executor with a populate-only cache, whose rectangles keep the
//!   masks they fold through as cache fragments, and one without a cache
//!   return bit-identical answers, cost reports and provenance (bar the
//!   cache class the attached cache adds), and record the same span
//!   trees, counters and events;
//! - each statement with a query of another box appended last — which
//!   sends it down the gather path — returns, for its own queries, the
//!   outcomes it returns alone;
//! - containment hits re-derived from the kept masks, on a cluster whose
//!   node 1 has failed over to its replica, are the answers of a cold
//!   scan of the same region.

use sea_cache::{CacheConfig, CacheDecision, SemanticCache};
use sea_common::{AggregateKind, AnalyticalQuery, Ball, ExecMode, Point, Record, Rect, Region};
use sea_query::{CacheClass, ExecPool, Executor, QueryOutcome};
use sea_storage::{FaultPlan, Partitioning, StorageCluster};
use sea_telemetry::{SpanNode, TelemetrySink, TelemetrySnapshot, TraceContext};

const POOLS: [usize; 3] = [1, 2, 8];

/// 3 000 rows of three dimensions, with NaN, ±inf, ±0.0 and subnormals
/// sprinkled through every column: the non-finite values fall outside
/// every box and ball, the zeros and subnormals are folded.
fn records() -> Vec<Record> {
    let tiny = f64::from_bits(1);
    (0..3000u64)
        .map(|i| {
            let mut v = vec![
                (i % 100) as f64,
                ((i * 7) % 53) as f64 - 20.0,
                ((i * 31) % 97) as f64 / 4.0,
            ];
            match i % 11 {
                0 => v[0] = f64::NAN,
                1 => v[1] = f64::INFINITY,
                2 => v[1] = f64::NEG_INFINITY,
                3 => v[2] = -0.0,
                4 => v[2] = 0.0,
                5 => v[2] = tiny * (i as f64),
                6 => v[1] = -f64::MIN_POSITIVE / 2.0,
                7 => v[0] = f64::NAN * 0.0,
                _ => {}
            }
            Record::new(i, v)
        })
        .collect()
}

fn cluster(nodes: usize, replicated: bool, faults: Option<u64>) -> StorageCluster {
    let mut c = if replicated {
        StorageCluster::with_replication(nodes, 64)
    } else {
        StorageCluster::new(nodes, 64)
    };
    c.load_table("t", records(), Partitioning::Hash).unwrap();
    c.set_telemetry(TelemetrySink::recording());
    if let Some(seed) = faults {
        // Node 1 crashes at its sixth operation: inside a statement,
        // whose queries open the nodes one query after another.
        c.set_fault_plan(
            FaultPlan::new(seed)
                .with_transient(0.3, 1)
                .with_crash(1, 5)
                .with_slow_node(0, 3.0),
        );
    }
    c
}

/// Statements over one box each — the statements that fold through the
/// mask — each with a rectangle in it, so that the populate-only cache
/// makes the same statement keep a mask for a fragment.
fn statements() -> Vec<(&'static str, Vec<AnalyticalQuery>)> {
    let rect = Region::Range(Rect::new(vec![10.0, -15.0, 0.0], vec![70.0, 25.0, 20.0]).unwrap());
    let ball = Ball::new(Point::new(vec![40.0, 5.0, 10.0]), 18.0).unwrap();
    let ball_box = Region::Range(ball.bounding_rect());
    let ball = Region::Radius(ball);
    // Row 20 is (20, 14, 9.5): exactly on this ball's boundary.
    let edge = Ball::new(Point::new(vec![23.0, 18.0, 9.5]), 5.0).unwrap();
    let edge_box = Region::Range(edge.bounding_rect());
    let edge = Region::Radius(edge);
    let nowhere = Region::Range(Rect::new(vec![-9.0; 3], vec![-5.0; 3]).unwrap());
    let q = |region: &Region, aggregate| AnalyticalQuery::new(region.clone(), aggregate);
    use AggregateKind::*;
    vec![
        (
            "min+max",
            vec![q(&rect, Min { dim: 2 }), q(&rect, Max { dim: 2 })],
        ),
        (
            "sum+mean",
            vec![
                q(&rect, Sum { dim: 1 }),
                q(&rect, Mean { dim: 1 }),
                q(&rect, Count),
            ],
        ),
        (
            "median+quantile",
            vec![
                q(&rect, Median { dim: 2 }),
                q(&rect, Quantile { dim: 2, q: 0.9 }),
                q(&rect, Median { dim: 2 }),
            ],
        ),
        (
            "moments",
            vec![
                q(&rect, Variance { dim: 0 }),
                q(&rect, Correlation { x: 0, y: 2 }),
                q(&rect, Regression { x: 2, y: 1 }),
            ],
        ),
        ("a lone rectangle", vec![q(&rect, Mean { dim: 2 })]),
        (
            "a ball beside its box",
            vec![
                q(&ball, Count),
                q(&ball, Min { dim: 2 }),
                q(&ball, Max { dim: 2 }),
                q(&ball, Sum { dim: 1 }),
                q(&ball, Mean { dim: 1 }),
                q(&ball, Quantile { dim: 0, q: 0.25 }),
                q(&ball_box, Count),
                q(&ball, Variance { dim: 2 }),
            ],
        ),
        (
            "a ball through a row",
            vec![
                q(&edge, Count),
                q(&edge, Sum { dim: 2 }),
                q(&edge_box, Count),
            ],
        ),
        (
            "an empty selection",
            vec![
                q(&nowhere, Count),
                q(&nowhere, Mean { dim: 0 }),
                q(&nowhere, Min { dim: 1 }),
                q(&nowhere, Median { dim: 2 }),
            ],
        ),
    ]
}

/// Host wall-clock, the one field two runs may not share, zeroed.
fn scrub(node: &mut SpanNode) {
    node.wall_us = 0.0;
    node.children.iter_mut().for_each(scrub);
}

/// One outcome as text (floats print shortest-round-trip, so equal text
/// is equal bits), with the cache class an attached cache adds taken
/// off after checking it.
fn key(out: sea_common::Result<QueryOutcome>, cached: bool) -> String {
    let out = out.map(|mut o| {
        let want = if cached {
            CacheClass::Miss
        } else {
            CacheClass::None
        };
        assert_eq!(o.provenance.cache, want);
        o.provenance.cache = CacheClass::None;
        o
    });
    format!("{out:?}")
}

/// Every statement in both regimes through one executor: the outcomes,
/// the recorded telemetry, and how many answers the cache admitted.
fn run(
    nodes: usize,
    replicated: bool,
    faults: Option<u64>,
    pool: usize,
    cached: bool,
) -> (Vec<String>, TelemetrySnapshot, u64) {
    let c = cluster(nodes, replicated, faults);
    let cache = SemanticCache::new(CacheConfig {
        capacity_bytes: 1 << 30,
        admit_min_cost_us: 0.0,
    });
    let mut exec = Executor::new(&c)
        .with_pool(ExecPool::new(pool))
        .with_partial_answers(!replicated);
    if cached {
        exec = exec.with_cache_populate_only(&cache);
    }
    let sink = c.telemetry();
    let mut outcomes = Vec::new();
    for (i, (_, stmt)) in statements().into_iter().enumerate() {
        for mode in [ExecMode::Direct, ExecMode::Bdas] {
            sink.begin_query(i as u64);
            let outs = exec.run("t", &stmt, mode, &TraceContext::NONE);
            outcomes.extend(outs.into_iter().map(|o| key(o, cached)));
        }
    }
    let mut telemetry = sink.snapshot().unwrap();
    telemetry.spans.roots.iter_mut().for_each(scrub);
    (outcomes, telemetry, cache.stats().insertions)
}

fn assert_paths_agree(nodes: usize, replicated: bool, faults: Option<u64>) {
    let (base, base_telemetry, none) = run(nodes, replicated, faults, 1, false);
    assert_eq!(none, 0);
    for pool in POOLS {
        for cached in [false, true] {
            let at = format!(
                "{nodes} nodes, replicated {replicated}, faults {faults:?}, pool {pool}, cached {cached}"
            );
            let (outcomes, telemetry, admitted) = run(nodes, replicated, faults, pool, cached);
            if cached {
                assert!(admitted > 0, "{at}: the cached run kept masks");
            }
            for (i, (got, want)) in outcomes.iter().zip(&base).enumerate() {
                assert_eq!(got, want, "{at}: outcome {i}");
            }
            assert_eq!(outcomes.len(), base.len(), "{at}");
            assert_eq!(
                telemetry.counters, base_telemetry.counters,
                "{at}: counters"
            );
            assert_eq!(telemetry.events, base_telemetry.events, "{at}: events");
            assert_eq!(
                telemetry.spans, base_telemetry.spans,
                "{at}: span forest (ids, parents, tags, sim)"
            );
        }
    }
}

#[test]
fn both_scan_paths_agree_on_a_healthy_cluster() {
    assert_paths_agree(4, true, None);
    // More threads than serving copies.
    assert_paths_agree(2, true, None);
    assert_gather_agrees(4, true, None);
    assert_gather_agrees(2, true, None);
}

#[test]
fn both_scan_paths_agree_under_a_mid_batch_crash() {
    let mut saw = (false, false);
    for seed in 0..3 {
        for replicated in [true, false] {
            assert_paths_agree(4, replicated, Some(seed));
            assert_gather_agrees(4, replicated, Some(seed));
            let (outcomes, telemetry, _) = run(4, replicated, Some(seed), 1, false);
            saw.0 |= telemetry.counter("query.failovers") > 0;
            saw.1 |= outcomes.iter().any(|o| o.contains("nodes_unavailable: 1"));
        }
    }
    assert!(saw.0, "a replica served a crashed primary");
    assert!(saw.1, "an unreplicated crash left a partial answer");
}

/// A rectangle whose box is no statement's: appended last to a
/// statement, it sends it down the gather path, and opens its nodes
/// after the statement's own queries have opened theirs.
fn widening() -> AnalyticalQuery {
    let wide = Rect::new(vec![0.0, -30.0, -5.0], vec![99.0, 40.0, 30.0]).unwrap();
    AnalyticalQuery::new(Region::Range(wide), AggregateKind::Count)
}

/// Each statement in the direct regime (the only one with boxes) on a
/// fresh cluster, so that every run meets the fault plan from its first
/// operation: alone, and with [`widening`] appended — through an
/// executor with a populate-only cache or none. The widened statement's
/// own outcomes must be the lone statement's.
fn assert_gather_agrees(nodes: usize, replicated: bool, faults: Option<u64>) {
    for (name, stmt) in statements() {
        let lone = {
            let c = cluster(nodes, replicated, faults);
            let exec = Executor::new(&c).with_partial_answers(!replicated);
            let outs = exec.run("t", &stmt, ExecMode::Direct, &TraceContext::NONE);
            outs.into_iter().map(|o| key(o, false)).collect::<Vec<_>>()
        };
        let mut widened = stmt.clone();
        widened.push(widening());
        for pool in POOLS {
            for cached in [false, true] {
                let at = format!(
                    "{name}: {nodes} nodes, replicated {replicated}, faults {faults:?}, pool {pool}, cached {cached}"
                );
                let c = cluster(nodes, replicated, faults);
                let cache = SemanticCache::new(CacheConfig {
                    capacity_bytes: 1 << 30,
                    admit_min_cost_us: 0.0,
                });
                let mut exec = Executor::new(&c)
                    .with_pool(ExecPool::new(pool))
                    .with_partial_answers(!replicated);
                if cached {
                    exec = exec.with_cache_populate_only(&cache);
                }
                let outs = exec.run("t", &widened, ExecMode::Direct, &TraceContext::NONE);
                let got: Vec<_> = (outs.into_iter().take(stmt.len()))
                    .map(|o| key(o, cached))
                    .collect();
                assert_eq!(got, lone, "{at}");
            }
        }
    }
}

/// A replicated cluster whose node 1 is down from its first operation:
/// every scan of partition 1 reads the replica.
fn failed_over() -> StorageCluster {
    let mut c = StorageCluster::with_replication(4, 64);
    c.load_table("t", records(), Partitioning::Hash).unwrap();
    c.set_fault_plan(FaultPlan::new(0).with_crash(1, 0));
    c
}

/// Containment hits re-derived from kept masks are a cold scan's
/// answers, bit for bit: rectangles and balls inside a warmed rectangle,
/// warmed and probed in either regime, for every aggregate, at every
/// pool size, with node 1 failed over to its replica — so that node 1's
/// fragment is the replica's columns under the mask.
#[test]
fn containment_hits_from_kept_masks_are_a_cold_scan_after_failover() {
    use AggregateKind::*;
    let outer = Rect::new(vec![5.0, -18.0, 1.0], vec![80.0, 30.0, 22.0]).unwrap();
    let subs = [
        Region::Range(Rect::new(vec![10.0, -15.0, 2.0], vec![70.0, 25.0, 20.0]).unwrap()),
        Region::Range(Rect::new(vec![5.0, -18.0, 1.0], vec![6.0, 30.0, 22.0]).unwrap()),
        Region::Radius(Ball::new(Point::new(vec![40.0, 5.0, 10.0]), 9.0).unwrap()),
        // Row 20 is (20, 14, 9.5): exactly on this ball's boundary.
        Region::Radius(Ball::new(Point::new(vec![23.0, 18.0, 9.5]), 5.0).unwrap()),
    ];
    let aggregates = [
        Count,
        Sum { dim: 1 },
        Mean { dim: 2 },
        Variance { dim: 0 },
        Min { dim: 2 },
        Max { dim: 1 },
        Median { dim: 0 },
        Quantile { dim: 2, q: 0.9 },
        Correlation { x: 0, y: 2 },
        Regression { x: 2, y: 1 },
    ];
    let c = failed_over();
    let (replica, failover) = c.serving_node("t", 1).unwrap();
    assert!(failover, "node 1 is served by its replica");
    let replica_columns = replica.blocks()[0].cols()[0].column();
    for warm_mode in [ExecMode::Direct, ExecMode::Bdas] {
        for pool in POOLS {
            let cache = SemanticCache::new(CacheConfig {
                capacity_bytes: 1 << 30,
                admit_min_cost_us: 0.0,
            });
            let exec = Executor::new(&c)
                .with_pool(ExecPool::new(pool))
                .with_cache(&cache);
            for agg in aggregates {
                let at = format!("{warm_mode:?} pool {pool} {agg:?}");
                let warm = AnalyticalQuery::new(Region::Range(outer.clone()), agg);
                let out = exec.execute("t", &warm, warm_mode, &TraceContext::NONE);
                assert_eq!(out.unwrap().provenance.failovers, 1, "{at}");
                let CacheDecision::Containment(frags) = cache.lookup(&agg, &subs[0]) else {
                    panic!("{at}: the warm answer was admitted");
                };
                assert!(
                    (frags[1].runs.iter())
                        .all(|r| std::sync::Arc::ptr_eq(r.cols[0].column(), replica_columns)),
                    "{at}: node 1's fragment is the replica's columns"
                );
                for sub in &subs {
                    for mode in [ExecMode::Direct, ExecMode::Bdas] {
                        let q = AnalyticalQuery::new(sub.clone(), agg);
                        let hit = exec.execute("t", &q, mode, &TraceContext::NONE).map(|o| {
                            assert_eq!(o.provenance.cache, CacheClass::Containment, "{at}");
                            o.answer
                        });
                        let cold = (Executor::new(&c).execute("t", &q, mode, &TraceContext::NONE))
                            .map(|o| o.answer);
                        assert_eq!(
                            format!("{hit:?}"),
                            format!("{cold:?}"),
                            "{at}: {sub:?} in {mode:?}"
                        );
                    }
                }
            }
        }
    }
}
