//! Property tests: the canonical printer and the parser are inverses.

use proptest::prelude::*;

use sea_common::AggregateKind;
use sea_lang::{parse, BallPred, LogicalPlan, ModeHint, RangePred, Selection};

fn arb_agg() -> impl Strategy<Value = AggregateKind> {
    prop_oneof![
        Just(AggregateKind::Count),
        (0usize..4).prop_map(|dim| AggregateKind::Sum { dim }),
        (0usize..4).prop_map(|dim| AggregateKind::Mean { dim }),
        (0usize..4).prop_map(|dim| AggregateKind::Variance { dim }),
        (0usize..4).prop_map(|dim| AggregateKind::Min { dim }),
        (0usize..4).prop_map(|dim| AggregateKind::Max { dim }),
        (0usize..4).prop_map(|dim| AggregateKind::Median { dim }),
        (0usize..4, 0.0..=1.0).prop_map(|(dim, q)| AggregateKind::Quantile { dim, q }),
        (0usize..4, 0usize..4).prop_map(|(x, y)| AggregateKind::Correlation { x, y }),
        (0usize..4, 0usize..4).prop_map(|(x, y)| AggregateKind::Regression { x, y }),
    ]
}

fn arb_selection() -> impl Strategy<Value = Selection> {
    // Ranges: per-dimension (enabled, lo, width) triples keep dims
    // distinct and pre-sorted, the parser's canonical form.
    let ranges = proptest::prop::collection::vec((0u8..2, -50.0..50.0, 0.0..25.0), 1..5).prop_map(
        |per_dim| {
            let preds: Vec<RangePred> = per_dim
                .into_iter()
                .enumerate()
                .filter(|(_, (on, _, _))| *on == 1)
                .map(|(dim, (_, lo, width))| RangePred {
                    dim,
                    lo,
                    hi: lo + width,
                })
                .collect();
            if preds.is_empty() {
                Selection::All
            } else {
                Selection::Ranges(preds)
            }
        },
    );
    let ball = (
        proptest::prop::collection::vec(-50.0..50.0, 1..4),
        0.1..30.0,
    )
        .prop_map(|(center, radius)| Selection::Ball(BallPred { center, radius }));
    prop_oneof![Just(Selection::All), ranges, ball]
}

fn arb_plan() -> impl Strategy<Value = LogicalPlan> {
    (
        proptest::prop::collection::vec(arb_agg(), 1..4),
        arb_selection(),
        prop_oneof![
            Just(ModeHint::Auto),
            Just(ModeHint::Exact),
            Just(ModeHint::Predict)
        ],
        0u8..2,
    )
        .prop_map(|(aggregates, selection, mode, explain)| LogicalPlan {
            aggregates,
            selection,
            mode,
            explain: explain == 1,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_then_parse_roundtrips(plan in arb_plan()) {
        let printed = plan.to_string();
        let reparsed = parse(&printed)
            .map_err(|e| TestCaseError::fail(format!("reparse of {printed:?} failed:\n{e}")))?;
        prop_assert_eq!(&reparsed, &plan, "printed: {}", printed);
        // And printing is a fixed point: parse(print(p)) prints identically.
        prop_assert_eq!(reparsed.to_string(), printed);
    }
}
