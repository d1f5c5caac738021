//! `seabench run` over all workloads: one child process per workload —
//! the very run `seabench run --workload NAME` makes, which is what the
//! benchmark driver starts — taking turns. Round 1 of every workload,
//! then round 2, …: a noisy stretch on a shared host costs every workload
//! one round instead of one workload all of its rounds. A process each,
//! because what one workload's rounds leave behind in the heap would
//! otherwise sit in the next one's `rss_mb`.
//!
//! A child started with `--paced` prints [`TURN`] on a line of its own
//! before every step (an untraced round, the traced phase) and waits for
//! a line on its standard input; the parent answers one child at a time.

use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::json::Json;
use crate::spec::{Workload, WORKLOADS};
use crate::{env, trace, RunArgs};

const TURN: &str = "seabench: waiting for my turn";

/// In a paced child, blocks until the parent grants the next step.
pub fn wait_for_turn(paced: bool) -> Result<(), String> {
    if !paced {
        return Ok(());
    }
    println!("{TURN}");
    let mut line = String::new();
    match std::io::stdin().read_line(&mut line) {
        Ok(n) if n > 0 => Ok(()),
        _ => Err("the pacing parent went away".to_string()),
    }
}

struct Paced {
    workload: Workload,
    child: Child,
    /// `None` once the child has ended.
    stdin: Option<ChildStdin>,
    lines: Lines<BufReader<ChildStdout>>,
}

impl Paced {
    fn spawn(w: Workload, a: &RunArgs) -> Result<Paced, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["run", "--paced", "--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .arg("--out")
            .arg(a.out.join(w.name()));
        if let Some(traced) = a.trace {
            cmd.args(["--trace", if traced { "1" } else { "0" }]);
        }
        if a.scale.quick {
            cmd.arg("--quick");
        }
        if let Some(dir) = &a.dump {
            cmd.arg("--dump-workload").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok(Paced {
            workload: w,
            stdin: child.stdin.take(),
            lines: BufReader::new(stdout).lines(),
            child,
        })
    }

    /// Passes the child's output on until it asks for its next turn;
    /// forgets its standard input when it ends instead.
    fn until_waiting(&mut self) -> Result<(), String> {
        for line in &mut self.lines {
            let line = line.map_err(|e| format!("{}: {e}", self.workload.name()))?;
            if line == TURN {
                return Ok(());
            }
            println!("{line}");
        }
        self.stdin = None;
        Ok(())
    }
}

/// Grants turns in rotation until every child has ended.
fn take_turns(children: &mut [Paced]) -> Result<(), String> {
    for c in children.iter_mut() {
        c.until_waiting()?;
    }
    while children.iter().any(|c| c.stdin.is_some()) {
        for c in children.iter_mut() {
            let Some(stdin) = &mut c.stdin else { continue };
            writeln!(stdin).map_err(|e| format!("{}: {e}", c.workload.name()))?;
            c.until_waiting()?;
        }
    }
    Ok(())
}

/// Runs every workload as a paced child and joins their results into
/// one `result.json` and one `trace.json`.
pub fn run_all(a: &RunArgs) -> Result<bool, String> {
    let load_before = env::load_average();
    let mut children = Vec::new();
    let mut outcome = Ok(());
    for w in WORKLOADS {
        match Paced::spawn(w, a) {
            Ok(c) => children.push(c),
            Err(e) => outcome = Err(e),
        }
    }
    if outcome.is_ok() {
        outcome = take_turns(&mut children);
    }
    // Every child is waited for, whatever happened; one still waiting for
    // a turn ends when its standard input closes.
    let mut correct = true;
    for mut c in children {
        drop(c.stdin.take());
        match c.child.wait() {
            Ok(status) if status.success() => {}
            // A child exits with 1 when a check failed.
            Ok(status) if status.code() == Some(1) => correct = false,
            Ok(status) => outcome = outcome.and(Err(format!("{}: {status}", c.workload.name()))),
            Err(e) => outcome = outcome.and(Err(format!("{}: {e}", c.workload.name()))),
        }
    }
    outcome?;

    let (mut workloads, mut traces) = (Vec::new(), Vec::new());
    let (mut comparable, mut round_spread) = (true, 0.0_f64);
    for w in WORKLOADS {
        let dir = a.out.join(w.name());
        let read = |name: &str| {
            let path = dir.join(name);
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let result = Json::parse(&read("result.json")?)?;
        comparable &= result.get("comparable") == Some(&Json::Bool(true));
        let spread = result
            .get("environment")
            .and_then(|e| e.get("round_spread"));
        round_spread = round_spread.max(spread.and_then(Json::as_f64).unwrap_or(0.0));
        if let Some(Json::Arr(entries)) = result.get("workloads") {
            workloads.extend(entries.iter().cloned());
        }
        if a.trace != Some(false) {
            traces.push(read("trace.json")?);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let environment = env::environment(load_before, round_spread, crate::round_spread_bound());
    let result = crate::result_json(a, environment, comparable, workloads);
    crate::write_out(a, "result.json", &(result.pretty() + "\n"))?;
    if !traces.is_empty() {
        let joined = trace::join_chrome_traces(&traces)
            .ok_or("a child wrote a trace.json this version cannot join")?;
        crate::write_out(a, "trace.json", &joined)?;
    }
    Ok(correct)
}
