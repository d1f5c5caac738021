//! The agent's wire format, pinned byte for byte.
//!
//! `SeaAgent::to_json` is what geo ships from the master to every edge
//! (E10 bills its length), so its bytes are a contract: a small,
//! deterministically trained agent must serialise exactly to the
//! checked-in `fixtures/agent_wire.json`, and that text must read back
//! into an agent that writes it again unchanged.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p sea-core --test agent_wire`

use std::path::PathBuf;

use sea_common::{AggregateKind, AnalyticalQuery, AnswerValue, Point, Rect, Region};
use sea_core::{AgentConfig, SeaAgent};

fn query(cx: f64, cy: f64, extent: f64, aggregate: AggregateKind) -> AnalyticalQuery {
    let rect = Rect::centered(&Point::new(vec![cx, cy]), &[extent, extent]).unwrap();
    AnalyticalQuery::new(Region::Range(rect), aggregate)
}

/// Four pools — a count, a mean, a quantile (whose key carries the
/// level's bits) and a regression (pair answers) — eight queries each.
fn small_agent() -> SeaAgent {
    let mut agent = SeaAgent::new(2, AgentConfig::default()).unwrap();
    for i in 0..8 {
        let step = f64::from(i);
        let extent = 1.0 + step / 4.0;
        let (cx, cy) = (40.0 + step, 50.0 - step / 2.0);
        let trained = [
            (
                AggregateKind::Count,
                AnswerValue::Scalar(12.0 * extent * extent),
            ),
            (
                AggregateKind::Mean { dim: 1 },
                AnswerValue::Scalar(cy / 2.0 + 0.25),
            ),
            (
                AggregateKind::Quantile { dim: 0, q: 0.9 },
                AnswerValue::Scalar(cx + 0.9 * extent),
            ),
            (
                AggregateKind::Regression { x: 0, y: 1 },
                AnswerValue::Pair(0.5 - step / 16.0, 3.0 + step),
            ),
        ];
        for (aggregate, answer) in trained {
            agent
                .train(&query(cx, cy, extent, aggregate), &answer)
                .unwrap();
        }
    }
    agent
}

#[test]
fn agent_wire_matches_golden_fixture() {
    let rendered = small_agent().to_json().unwrap();
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "fixtures",
        "agent_wire.json",
    ]
    .iter()
    .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture agent_wire.json ({e}); run with UPDATE_GOLDEN=1")
    });
    assert!(expected.len() <= 16 * 1024, "fixture grew past 16 KB");
    assert_eq!(
        rendered, expected,
        "agent_wire.json drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
    // What an edge receives, it writes back unchanged.
    let edge = SeaAgent::from_json(&expected).unwrap();
    assert_eq!(edge.to_json().unwrap(), expected);
}

/// A setting crosses the wire once, in the agent's config: a pool's
/// quantizer takes the spawn distance from it, and a pool answers pairs
/// when its models carry a secondary model.
#[test]
fn the_wire_carries_each_setting_once() {
    let wire = small_agent().to_json().unwrap();
    assert_eq!(wire.matches("\"spawn_distance\"").count(), 1);
    assert_eq!(wire.matches("\"pair_answer\"").count(), 0);
}
