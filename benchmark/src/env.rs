//! What the host looked like while the numbers were taken.

use std::process::Command;

use crate::json::{obj, Json};
use crate::session::exec_threads;

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| first_line(&String::from_utf8_lossy(&o.stdout)),
        )
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Resident set size of this process in MiB (0 where `/proc` is absent),
/// read after handing the heap's free pages back to the system: what is
/// alive now, not what the allocator kept of what earlier rounds — of
/// this or another workload — freed. How much glibc keeps depends on the
/// process's history (its mmap threshold rises with the largest block
/// freed so far), which made a first round read 80 MiB and the identical
/// second one 137.
pub fn rss_mb() -> f64 {
    trim_heap();
    proc_field("/proc/self/status", "VmRSS")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A no-op where the allocator is not glibc's.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's, the allocator `std` uses on
        // this target; it takes no pointer, keeps `pad` bytes at the top
        // of the heap, and may be called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One-minute load average (0 where `/proc` is absent).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment block of `result.json`. The host counts as noisy when
/// the load read as the run started exceeded the core count, or when some
/// workload's rounds — the same statements over the same data — differed
/// in `stmt_per_s` by more than `round_spread_bound` of their mid-range
/// (`round_spread` is the widest such difference). The load after the run
/// is recorded too but not judged: by then it holds the benchmark's own
/// client and worker threads.
pub fn environment(load_before: f64, round_spread: f64, round_spread_bound: f64) -> Json {
    let noisy = load_before > nproc() as f64 || round_spread > round_spread_bound;
    obj(vec![
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("nproc", nproc().into()),
        ("exec_threads", exec_threads().into()),
        ("load_before", load_before.into()),
        ("load_after", load_average().into()),
        ("round_spread", round_spread.into()),
        ("noisy_host", noisy.into()),
    ])
}
