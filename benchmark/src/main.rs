//! `seabench`: a wall-clock statement benchmark for the SEA stack — four
//! workloads in a closed loop, end-to-end metrics from untraced rounds,
//! and a staged, probe-backed per-layer trace. See `README.md`.

mod compare;
mod data;
mod env;
mod json;
mod oracle;
mod paced;
mod probes;
mod report;
mod run;
mod session;
mod spec;
mod stats;
mod stmts;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::{obj, Json};
use report::WorkloadReport;
use run::{Rounds, Scale};
use spec::Workload;

const USAGE: &str = "usage:
  seabench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
               [--out DIR] [--dump-workload DIR]
  seabench compare A.json B.json
  seabench spec

run      without --workload runs all four, each in a process of its own, taking
         turns round by round; without --trace runs the untraced rounds and then
         the traced phase (0: untraced only, 1: traced only)
compare  judges result B against result A, metric by metric; exits 1 on any `worse`
spec     prints BENCHMARK.json";

struct RunArgs {
    /// `None`: all four, as child processes of this one (see [`paced`]).
    workload: Option<Workload>,
    seed: u64,
    /// What the untraced rounds are sized to fill; `--quick` runs one
    /// round whatever it says.
    seconds: f64,
    /// `Some(false)`: untraced only; `Some(true)`: traced only.
    trace: Option<bool>,
    scale: Scale,
    out: PathBuf,
    dump: Option<PathBuf>,
    /// Set by the parent of a run over all workloads: wait for a turn
    /// before every round and before the traced phase.
    paced: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        scale: Scale::FULL,
        out: PathBuf::from("benchmark/out"),
        dump: None,
        paced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => r.scale = Scale::QUICK,
            "--paced" => r.paced = true,
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad value for {flag}: {value}");
                match flag.as_str() {
                    "--workload" => r.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
                    "--seed" => r.seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        r.seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?
                    }
                    "--trace" => {
                        r.trace = Some(
                            matches!(value.as_str(), "0" | "1")
                                .then(|| value == "1")
                                .ok_or_else(bad)?,
                        )
                    }
                    "--out" => r.out = PathBuf::from(value),
                    "--dump-workload" => r.dump = Some(PathBuf::from(value)),
                    _ => return Err(format!("unknown flag {flag}")),
                }
            }
        }
    }
    Ok(r)
}

/// One statement per line, the format `examples/repl.rs` and E22 read.
fn dump_statements(dir: &Path, w: Workload, a: &RunArgs) -> std::io::Result<()> {
    let (stmts, warmup) = run::statements(w, a.seed, a.scale);
    std::fs::create_dir_all(dir)?;
    let mut text = format!(
        "-- seabench workload {} (seed {}): {warmup} warm-up statements, then {} timed\n",
        w.name(),
        a.seed,
        stmts.len() - warmup
    );
    for s in &stmts {
        text.push_str(&s.text);
        text.push('\n');
    }
    std::fs::write(dir.join(format!("{}.sea", w.name())), text)
}

/// Runs the requested phases of one workload in this process.
fn measure(w: Workload, a: &RunArgs) -> Result<(WorkloadReport, Vec<trace::Span>), String> {
    let named = |e: sea_common::SeaError| format!("{}: {e}", w.name());
    let mut report = WorkloadReport::new(w, a.scale);
    if a.trace != Some(true) {
        let mut rounds = Rounds::new(w, a.seed, a.scale);
        for _ in 0..a.scale.rounds(w, a.seconds) {
            paced::wait_for_turn(a.paced)?;
            rounds.run_one().map_err(named)?;
        }
        report.add_end_to_end(&rounds.finish());
    }
    let mut spans = Vec::new();
    if a.trace != Some(false) {
        paced::wait_for_turn(a.paced)?;
        let t = probes::trace(w, a.seed, a.scale).map_err(named)?;
        report.add_per_layer(&t);
        spans = t.spans;
    }
    Ok((report, spans))
}

/// The top of `result.json`; `workloads` are entries as
/// [`WorkloadReport::to_json`] writes them.
fn result_json(a: &RunArgs, environment: Json, comparable: bool, workloads: Vec<Json>) -> Json {
    obj(vec![
        ("schema_version", 1u64.into()),
        ("comparable", comparable.into()),
        ("seed", a.seed.into()),
        ("quick", a.scale.quick.into()),
        ("records", a.scale.records.into()),
        ("seconds", a.seconds.into()),
        ("environment", environment),
        (
            "interactions",
            Json::Arr(spec::INTERACTIONS.map(Json::from).to_vec()),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn write_out(a: &RunArgs, name: &str, text: &str) -> Result<(), String> {
    let path = a.out.join(name);
    std::fs::create_dir_all(&a.out)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The bound `stmt_per_s` is judged by: rounds of one workload that
/// differ by more mark the host noisy.
fn round_spread_bound() -> f64 {
    spec::end_to_end("stmt_per_s")
        .and_then(|m| m.bound)
        .expect("stmt_per_s is an end-to-end metric")
}

fn run(a: &RunArgs) -> Result<bool, String> {
    let Some(w) = a.workload else {
        return paced::run_all(a);
    };
    let load_before = env::load_average();
    if let Some(dir) = &a.dump {
        dump_statements(dir, w, a).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let (report, spans) = measure(w, a)?;
    report.print();
    let round_spread = report.round_spread("stmt_per_s").unwrap_or(0.0);
    let environment = env::environment(load_before, round_spread, round_spread_bound());
    let noisy = environment.get("noisy_host") == Some(&Json::Bool(true));
    let comparable = !a.scale.quick && !noisy && report.percentiles_supported;
    let result = result_json(a, environment, comparable, vec![report.to_json()]);
    write_out(a, "result.json", &(result.pretty() + "\n"))?;
    if !spans.is_empty() {
        write_out(a, "trace.json", &trace::chrome_trace(w, &spans))?;
    }
    // The driver reads the last line of standard output.
    println!("{}", report.driver_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("compare") if args.len() == 3 => {
            let load = |p: &String| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            };
            load(&args[1]).and_then(|a| Ok(compare::compare(&a, &load(&args[2])?) == 0))
        }
        Some("spec") if args.len() == 1 => {
            println!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, both phases, at a size a debug build finishes in
    /// seconds: answers check out, every metric of the contract is
    /// reported, and no end-to-end metric is 0.
    #[test]
    fn every_workload_runs_clean_at_a_small_scale() {
        let args = RunArgs {
            scale: Scale {
                records: 20_000,
                ..Scale::QUICK
            },
            ..parse_run(&[]).unwrap()
        };
        for w in spec::WORKLOADS {
            let (report, spans) = measure(w, &args).unwrap();
            assert!(
                report.correct(),
                "{}: {} of {} failed",
                w.name(),
                report.failed,
                report.attempted
            );
            assert_eq!(report.end_to_end.len(), spec::END_TO_END.len());
            assert_eq!(report.per_layer.len(), spec::PER_LAYER.len());
            for r in &report.end_to_end {
                assert!(
                    r.over.value.is_finite() && r.over.value > 0.0,
                    "{} {}",
                    w.name(),
                    r.name
                );
            }
            assert!(
                report.per_layer.iter().all(|r| r.over.value.is_finite()),
                "{}",
                w.name()
            );
            assert_eq!(
                spans.iter().filter(|s| s.parent.is_none()).count(),
                report.stmts_per_round
            );
            let line = Json::parse(&report.driver_line()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed"), Some(&Json::Int(0)));
        }
    }
}
