//! Golden-file test for the EXPLAIN renderer: the full report for a
//! fixed statement over a fixed cluster is pinned byte-for-byte. Every
//! number in the report is simulated (cost-model microseconds and span
//! `sim_us`), so the rendering is machine-independent and identical at
//! any `SEA_EXEC_THREADS` setting — which is exactly what makes a golden
//! test meaningful here.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p sea-lang --test explain_golden`

use std::path::PathBuf;

use sea_common::{AggregateKind, AnalyticalQuery, Record, Rect, Region};
use sea_core::{AgentConfig, AgentPipeline, ExecMode};
use sea_lang::Frontend;
use sea_query::Executor;
use sea_storage::{Partitioning, StorageCluster};

fn check_against_fixture(rendered: &str, fixture: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", fixture]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {fixture} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        rendered, expected,
        "{fixture} drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// 2-D grid over [0, 100)²: d0 = i % 100, d1 = i / 100.
fn cluster() -> StorageCluster {
    let mut cluster = StorageCluster::new(4, 128);
    let records: Vec<Record> = (0..10_000)
        .map(|i| Record::new(i, vec![(i % 100) as f64, (i / 100) as f64]))
        .collect();
    cluster
        .load_table("t", records, Partitioning::Hash)
        .unwrap();
    cluster
}

#[test]
fn explain_report_matches_golden_fixture() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t").unwrap();
    let out = front
        .run("SELECT count(), mean(d0) WHERE d0 IN [20.0, 60.0] AND d1 IN [10.0, 30.0] EXPLAIN")
        .unwrap();
    check_against_fixture(out.explain.as_deref().unwrap(), "explain_plain.txt");
}

#[test]
fn explain_with_engines_matches_golden_fixture() {
    let cluster = cluster();
    let mut front = Frontend::new(Executor::new(&cluster), "t")
        .unwrap()
        .with_engines(10)
        .unwrap();
    // Narrow box so the decision section shows the index winning.
    let out = front
        .run("SELECT count() WHERE d0 IN [4.0, 6.0] AND d1 IN [4.0, 6.0] EXPLAIN")
        .unwrap();
    check_against_fixture(out.explain.as_deref().unwrap(), "explain_engines.txt");
}

/// A pipeline whose agent has seen four exact answers, built the same
/// way every time it is called.
fn trained_pipeline(cluster: &StorageCluster) -> AgentPipeline {
    let exec = Executor::new(cluster);
    let mut pipe =
        AgentPipeline::new(2, AgentConfig::default(), "t", 0.5, ExecMode::Direct).unwrap();
    for lo in [10.0, 20.0, 30.0, 40.0] {
        let q = AnalyticalQuery::new(
            Region::Range(Rect::new(vec![lo, lo], vec![lo + 20.0, lo + 20.0]).unwrap()),
            AggregateKind::Count,
        );
        let truth = exec.execute_direct("t", &q).unwrap();
        pipe.agent_mut().train(&q, &truth.answer).unwrap();
    }
    pipe
}

/// `S` and `S EXPLAIN` must agree on everything but the report. Each
/// runs on a front end of its own: an `auto` run trains the agent.
fn assert_explain_is_a_view<'c>(build: impl Fn() -> Frontend<'c>, stmt: &str) {
    let unexplained = build().run(stmt).unwrap();
    let explained = build().run(&format!("{stmt} EXPLAIN")).unwrap();
    assert!(unexplained.explain.is_none() && explained.explain.is_some());
    assert_eq!(
        unexplained.results, explained.results,
        "EXPLAIN must not change answer, cost, source or strategy: {stmt}"
    );
}

#[test]
fn explain_answers_match_the_unexplained_statement() {
    let cluster = cluster();
    let plain = || Frontend::new(Executor::new(&cluster), "t").unwrap();
    let engines = || plain().with_engines(10).unwrap();
    let agent = || plain().with_pipeline(trained_pipeline(&cluster));
    let boxed = "WHERE d0 IN [25.0, 45.0] AND d1 IN [25.0, 45.0]";

    assert_explain_is_a_view(plain, "SELECT count(), mean(d0) WHERE d0 IN [20.0, 60.0]");
    // Narrow box: the index wins. Whole table: the scan wins.
    assert_explain_is_a_view(
        engines,
        "SELECT count() WHERE d0 IN [4.0, 6.0] AND d1 IN [4.0, 6.0]",
    );
    assert_explain_is_a_view(engines, "SELECT count(), sum(d1)");
    assert_explain_is_a_view(agent, &format!("SELECT count() {boxed} WITH MODE predict"));
    assert_explain_is_a_view(agent, &format!("SELECT count(), mean(d1) {boxed}"));
}
