//! The executor's worker-thread budget for real (host) parallelism.
//!
//! The cost model already *simulates* node parallelism
//! ([`sea_common::CostMeter::report_parallel`] takes the max over node
//! meters), but until now the executor ran its per-node scans in a
//! sequential loop, so host wall-clock scaled with cluster size instead
//! of with the slowest node. [`ExecPool`] supplies the missing real
//! parallelism: a thread budget sized from the host
//! (`available_parallelism`, overridable via `SEA_EXEC_THREADS`) that
//! [`run`](ExecPool::run) spends on work items claimed off a shared
//! atomic counter — by the calling thread and by helpers it borrows for
//! the length of the call from one process-wide set of worker threads,
//! which sleep between calls. No thread is created per `run`: waking a
//! sleeping helper costs the caller microseconds where spawning and
//! joining one cost hundreds, every scanning statement.
//!
//! The helpers are one [`scoped_threadpool::Pool`] behind a lock.
//! It starts on the first parallel `run` and is replaced by a larger
//! one when a larger budget asks (so it holds the largest
//! `threads − 1` ever asked for). A `run` takes the lock for its whole
//! length; one that finds it taken — a second client thread, a
//! parallel test, a `run` nested inside a job — does its work inline
//! instead of waiting, which is also what keeps nested calls
//! sequential. Lending a borrowed closure to a thread that outlives the
//! call needs one lifetime erasure; it lives in that vendored crate,
//! with its safety argument, not here.
//!
//! Determinism contract: `run` returns results **in item-index order**
//! regardless of which worker computed what or when it finished —
//! or whether any helper took part at all — and a single-thread pool
//! degenerates to a plain loop on the calling thread.
//! Callers keep all side-effecting work (telemetry, shared counters) out
//! of the closure and on the calling thread, so every observable output
//! is independent of the thread count.

use parking_lot::Mutex;
use scoped_threadpool::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The process-wide helper threads every [`ExecPool`] borrows from (see
/// the module docs); `None` until the first parallel [`ExecPool::run`].
static HELPERS: Mutex<Option<Pool>> = Mutex::new(None);

/// Environment variable overriding the global pool's thread budget
/// (`1` forces sequential execution; unset/invalid falls back to
/// `available_parallelism`).
pub const EXEC_THREADS_ENV: &str = "SEA_EXEC_THREADS";

/// A thread budget for fanning per-node (or per-query) work out across
/// the host's cores. Cheap to copy: it is only the number of threads a
/// [`run`](ExecPool::run) may use — the caller and up to `threads − 1`
/// helpers borrowed from the process-wide workers, which belong to no
/// budget and to no executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// A pool running work on up to `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ExecPool {
            threads: threads.max(1),
        }
    }

    /// A pool that runs everything inline on the calling thread. Used
    /// where a fan-out is too small to pay for waking a helper and for
    /// exercising the sequential path in tests.
    pub fn sequential() -> Self {
        ExecPool::new(1)
    }

    /// Sizes a pool from the environment: [`EXEC_THREADS_ENV`] when set
    /// to a positive integer, otherwise the host's
    /// `available_parallelism`.
    pub fn from_env() -> Self {
        let threads = std::env::var(EXEC_THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        ExecPool::new(threads)
    }

    /// The process-wide pool shared across queries (and executors):
    /// sized once from the environment on first use.
    pub fn global() -> ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        *GLOBAL.get_or_init(ExecPool::from_env)
    }

    /// This pool's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the pool's workers and
    /// returns the results in index order. Workers claim indices from a
    /// shared atomic counter (dynamic load balancing: one slow item
    /// doesn't idle the other workers behind a static stride). The
    /// calling thread is one of the workers, so a budget of `t` threads
    /// lends the claim loop to `min(t, n) − 1` sleeping helpers; one
    /// that has not woken by the time the caller runs out of items is
    /// never waited for. With a budget of one thread, a single item, or
    /// the helpers already lent to another `run`, this is a plain loop
    /// on the calling thread.
    ///
    /// # Panics
    ///
    /// A panic in `f` is resumed on the calling thread once no helper
    /// is still running `f`.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let parallel = self.threads > 1 && n > 1;
        let Some(mut slot) = parallel.then(|| HELPERS.try_lock()).flatten() else {
            return (0..n).map(f).collect();
        };
        let budget = u32::try_from(self.threads - 1).unwrap_or(u32::MAX);
        let helpers = match &mut *slot {
            Some(pool) if pool.thread_count() >= budget => pool,
            outgrown => outgrown.insert(Pool::new(budget)),
        };
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut out = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                out.push((i, f(i)));
            }
            out
        };
        let lent = Mutex::new(Vec::new());
        // The scope ends — returning, or unwinding with the caller's own
        // panic or a helper's — only once no helper can still call `f`.
        let mut items = helpers.scoped(|scope| {
            for _ in 1..self.threads.min(n) {
                scope.execute(|| {
                    let out = claim();
                    lent.lock().extend(out);
                });
            }
            claim()
        });
        items.append(&mut lent.into_inner());
        items.sort_unstable_by_key(|&(i, _)| i);
        items.into_iter().map(|(_, v)| v).collect()
    }
}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            let pool = ExecPool::new(threads);
            let out = pool.run(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_single_item_runs_are_inline() {
        let pool = ExecPool::new(8);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(pool.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn thread_budget_is_clamped_to_one() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::sequential().threads(), 1);
        assert!(ExecPool::from_env().threads() >= 1);
    }

    #[test]
    fn worker_panics_resume_on_the_caller() {
        let pool = ExecPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(16, |i| {
                assert!(i != 11, "injected failure");
                i
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn borrowed_data_flows_into_workers() {
        let data: Vec<u64> = (0..1000).collect();
        let pool = ExecPool::new(4);
        let sums = pool.run(10, |i| data[i * 100..(i + 1) * 100].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }
}
