//! E20 — multi-tenant serving with a noisy neighbor under admission
//! control.
//!
//! Three tenants share one [`QueryService`] front door over the same
//! cluster: `alpha` and `bravo` submit modest, well-behaved streams;
//! `noisy` floods eight times as many (and wider, costlier) queries per
//! round. The noisy tenant runs under a simulated-money budget (25 % of
//! its uncapped spend) plus a token-bucket rate limit; the well-behaved
//! tenants are unconstrained. Each tenant's stream is also run through
//! its own *single-tenant* open service as the isolation baseline.
//!
//! The table shows the serving tier doing its job: the noisy tenant's
//! spend is hard-capped (bounded overshoot of one query) with the
//! overflow visible as `rejected_rate` / `rejected_budget` rows, while
//! the well-behaved tenants' per-query cost and simulated latency are
//! *bit-identical* to their solo baselines — admission isolates tenants
//! without perturbing anyone else's bill. Every number is simulated, so
//! the whole experiment (and its `--stats-out` ledger sidecar) is
//! deterministic at any `SEA_EXEC_THREADS` setting.

use sea_common::{AggregateKind, AnalyticalQuery, Result};
use sea_query::Executor;
use sea_service::{QueryService, StatsReport, StatsService, TenantConfig};
use sea_telemetry::TelemetrySink;
use sea_workload::{QueryGenerator, QuerySpec};

use crate::experiments::common::{observe_query_us, query_span, uniform_cluster};
use crate::Report;

const RECORDS: usize = 20_000;
const NODES: usize = 8;
const DATA_SEED: u64 = 53;
const ROUNDS: usize = 20;
/// Queries per round: well-behaved tenants pace themselves; the noisy
/// tenant floods.
const WELL_BEHAVED_PER_ROUND: usize = 1;
const NOISY_PER_ROUND: usize = 8;
/// Simulated idle time between rounds (refills token buckets).
const ROUND_GAP_US: f64 = 2_000_000.0;
/// The noisy tenant's budget as a fraction of its uncapped spend.
const NOISY_BUDGET_FRACTION: f64 = 0.25;

const TENANTS: [&str; 3] = ["alpha", "bravo", "noisy"];

/// Deterministic per-tenant query stream. Well-behaved tenants ask
/// narrow counts (constant-size partials on the wire); the noisy
/// tenant floods wide *median* queries — holistic, so every selected
/// value ships to the coordinator and cost scales with selectivity.
fn stream(tenant: &str) -> Result<Vec<AnalyticalQuery>> {
    let (per_round, extent, seed) = match tenant {
        "alpha" => (WELL_BEHAVED_PER_ROUND, (4.0, 8.0), 211),
        "bravo" => (WELL_BEHAVED_PER_ROUND, (4.0, 8.0), 223),
        _ => (NOISY_PER_ROUND, (20.0, 35.0), 227),
    };
    let mut spec = QuerySpec::simple_count(vec![50.0, 50.0], 22.0, extent)?;
    if tenant == "noisy" {
        spec.aggregates = vec![AggregateKind::Median { dim: 0 }];
    }
    let mut gen = QueryGenerator::new(spec, seed)?;
    Ok((0..ROUNDS * per_round).map(|_| gen.next_query()).collect())
}

/// Per-tenant outcome of one serving run.
#[derive(Clone, Copy)]
struct TenantRow {
    submitted: f64,
    answered: f64,
    rejected_budget: f64,
    rejected_rate: f64,
    money: f64,
    mean_us: f64,
}

/// Runs `queries` for one tenant through its own open single-tenant
/// service: the isolation baseline (what the tenant's bill looks like
/// with nobody else on the system and no admission policy).
fn run_solo(sink: &TelemetrySink, tenant: &str, queries: &[AnalyticalQuery]) -> Result<TenantRow> {
    let mut cluster = uniform_cluster(RECORDS, NODES, DATA_SEED)?;
    cluster.set_telemetry(sink.clone());
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant(tenant, TenantConfig::default())?;
    let per_round = queries.len() / ROUNDS;
    for (i, q) in queries.iter().enumerate() {
        svc.submit(tenant, q)?;
        if (i + 1) % per_round == 0 {
            svc.advance_clock(ROUND_GAP_US);
        }
    }
    Ok(usage_row(&svc, tenant))
}

fn usage_row(svc: &QueryService<'_>, tenant: &str) -> TenantRow {
    let u = svc.tenant_usage(tenant).expect("registered");
    TenantRow {
        submitted: u.submitted as f64,
        answered: u.answered as f64,
        rejected_budget: u.rejected_budget as f64,
        rejected_rate: u.rejected_rate as f64,
        money: u.money,
        mean_us: if u.answered > 0 {
            u.wall_us / u.answered as f64
        } else {
            0.0
        },
    }
}

/// Runs the shared multi-tenant service: round-robin rounds in which
/// each tenant submits its per-round quota, with simulated idle gaps
/// between rounds. Returns per-tenant rows plus the full stats report
/// over the service ledger (the `--stats-out` sidecar).
fn run_multi(sink: &TelemetrySink, noisy_budget: f64) -> Result<(Vec<TenantRow>, StatsReport)> {
    let mut cluster = uniform_cluster(RECORDS, NODES, DATA_SEED)?;
    cluster.set_telemetry(sink.clone());
    let mut svc = QueryService::new(Executor::new(&cluster), "t");
    svc.register_tenant("alpha", TenantConfig::default())?;
    svc.register_tenant("bravo", TenantConfig::default())?;
    svc.register_tenant(
        "noisy",
        TenantConfig {
            money_budget: Some(noisy_budget),
            rate_per_sec: Some(2.0),
            burst: 4.0,
            ..TenantConfig::default()
        },
    )?;
    let streams: Vec<Vec<AnalyticalQuery>> = TENANTS
        .iter()
        .map(|t| stream(t))
        .collect::<Result<Vec<_>>>()?;
    let mut query_id = 0u64;
    for round in 0..ROUNDS {
        for (tenant, queries) in TENANTS.iter().zip(&streams) {
            let per_round = queries.len() / ROUNDS;
            for q in &queries[round * per_round..(round + 1) * per_round] {
                let span = query_span(sink, query_id);
                query_id += 1;
                let out = svc.submit(tenant, q)?;
                span.record_sim_us(out.row.wall_us);
                observe_query_us(sink, out.row.wall_us);
            }
        }
        svc.advance_clock(ROUND_GAP_US);
    }
    let rows = TENANTS.iter().map(|t| usage_row(&svc, t)).collect();
    let stats = StatsService::new(&svc.ledger(), sink.clone());
    Ok((rows, stats.report(5)))
}

/// The noisy tenant's uncapped solo spend, which calibrates its budget.
fn noisy_uncapped(sink: &TelemetrySink) -> Result<TenantRow> {
    run_solo(sink, "noisy", &stream("noisy")?)
}

/// Runs E20. One row per tenant (0 = alpha, 1 = bravo, 2 = noisy).
pub fn run_e20_with(sink: &TelemetrySink) -> Result<Report> {
    let mut report = Report::new(
        "E20",
        "multi-tenant serving: noisy neighbor capped by budget/rate admission, well-behaved bills unchanged",
        &[
            "tenant",
            "submitted",
            "answered",
            "rejected_budget",
            "rejected_rate",
            "money",
            "solo_money",
            "mean_us",
            "solo_mean_us",
        ],
    );
    let noisy_open = noisy_uncapped(sink)?;
    let budget = noisy_open.money * NOISY_BUDGET_FRACTION;
    let (multi, _) = run_multi(sink, budget)?;
    for (i, tenant) in TENANTS.iter().enumerate() {
        let solo = if *tenant == "noisy" {
            // The calibration run above is this tenant's solo baseline.
            noisy_open
        } else {
            run_solo(sink, tenant, &stream(tenant)?)?
        };
        let m = &multi[i];
        report.push_row(vec![
            i as f64,
            m.submitted,
            m.answered,
            m.rejected_budget,
            m.rejected_rate,
            m.money,
            solo.money,
            m.mean_us,
            solo.mean_us,
        ]);
    }
    Ok(report)
}

/// The multi-tenant run's full ledger stats report (the `--stats-out`
/// sidecar): summary, tenant × aggregate × source breakdown, top-5 most
/// expensive queries, telemetry counters. Deterministic, so this rerun
/// matches the run [`run_e20_with`] measured.
pub fn e20_stats_with(sink: &TelemetrySink) -> Result<StatsReport> {
    let budget = noisy_uncapped(&TelemetrySink::noop())?.money * NOISY_BUDGET_FRACTION;
    let (_, stats) = run_multi(sink, budget)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_is_capped_and_well_behaved_tenants_are_unperturbed() {
        let r = run_e20_with(&TelemetrySink::noop()).unwrap();
        // Well-behaved tenants: everything admitted, bill bit-identical
        // to the solo baseline.
        for i in [0, 1] {
            assert_eq!(r.value(i, "submitted"), r.value(i, "answered"));
            assert_eq!(r.value(i, "rejected_budget"), Some(0.0));
            assert_eq!(r.value(i, "rejected_rate"), Some(0.0));
            assert_eq!(r.value(i, "money"), r.value(i, "solo_money"));
            assert_eq!(r.value(i, "mean_us"), r.value(i, "solo_mean_us"));
        }
        // The noisy tenant is capped: spend stays within budget plus at
        // most one query of overshoot, far below its uncapped appetite.
        let money = r.value(2, "money").unwrap();
        let solo = r.value(2, "solo_money").unwrap();
        let answered = r.value(2, "answered").unwrap();
        let budget = solo * NOISY_BUDGET_FRACTION;
        let per_query = solo / (ROUNDS * NOISY_PER_ROUND) as f64;
        assert!(
            money <= budget + 2.0 * per_query,
            "spend {money} vs budget {budget}"
        );
        assert!(money < 0.5 * solo, "cap bites: {money} vs uncapped {solo}");
        assert!(answered < r.value(2, "submitted").unwrap());
        // Both rejection mechanisms fired.
        assert!(r.value(2, "rejected_rate").unwrap() > 0.0);
        assert!(r.value(2, "rejected_budget").unwrap() > 0.0);
    }

    #[test]
    fn stats_sidecar_reflects_the_multi_tenant_ledger() {
        let stats = e20_stats_with(&TelemetrySink::noop()).unwrap();
        let total = ROUNDS * (2 * WELL_BEHAVED_PER_ROUND + NOISY_PER_ROUND);
        assert_eq!(stats.summary.queries, total as u64);
        assert!(stats.summary.rejected_budget > 0);
        assert!(stats.summary.rejected_rate > 0);
        assert_eq!(stats.top_expensive.len(), 5);
        // The noisy tenant's wide queries dominate the expensive list.
        assert!(stats.top_expensive.iter().all(|r| r.tenant == "noisy"));
        let tenants: Vec<&str> = stats.breakdown.iter().map(|c| c.tenant.as_str()).collect();
        for t in TENANTS {
            assert!(tenants.contains(&t), "breakdown covers {t}");
        }
        let json = stats.to_json().unwrap();
        assert!(json.contains("\"rejected_budget\""));
    }

    #[test]
    fn service_telemetry_reaches_the_sink() {
        let sink = TelemetrySink::recording();
        run_e20_with(&sink).unwrap();
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter("query.executor.direct_queries") > 0);
    }
}
