//! [`ExecPool::run`] borrows helper threads that exist between calls:
//! who serves a run, what a caller does when they are already lent, and
//! where a panic goes. The workers are process-wide, so this file is a
//! test binary of its own, its tests take turns, and every budget in it
//! is four (a larger one would replace the three workers the first test
//! counts).

use sea_query::ExecPool;
use std::collections::HashSet;
use std::panic::resume_unwind;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

const POOL: usize = 4;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `body` on a thread of its own and fails the test if it is not
/// done within a minute: a deadlock must fail, not hang the suite.
fn within_a_minute(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let handle = thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if finished.recv_timeout(Duration::from_secs(60)) == Err(RecvTimeoutError::Timeout) {
        panic!("a run neither returned nor panicked within a minute");
    }
    if let Err(payload) = handle.join() {
        resume_unwind(payload);
    }
}

/// One run of [`POOL`] items that each wait for the others, so that
/// [`POOL`] distinct threads serve it (an inline run would never
/// return); the ids of those that are not the caller.
fn helpers_of_one_run(pool: ExecPool) -> HashSet<ThreadId> {
    let caller = thread::current().id();
    let together = Barrier::new(POOL);
    let ids = pool.run(POOL, |_| {
        together.wait();
        thread::current().id()
    });
    ids.into_iter().filter(|id| *id != caller).collect()
}

#[test]
fn every_run_is_served_by_the_helpers_the_first_one_started() {
    let _turn = serial();
    within_a_minute(|| {
        let pool = ExecPool::new(POOL);
        let first = helpers_of_one_run(pool);
        assert_eq!(first.len(), POOL - 1);
        for run in 1..200 {
            assert_eq!(helpers_of_one_run(pool), first, "run {run}");
        }
    });
}

#[test]
fn concurrent_and_nested_runs_are_index_ordered() {
    let _turn = serial();
    within_a_minute(|| {
        let pool = ExecPool::new(POOL);
        let start = Barrier::new(8);
        thread::scope(|s| {
            for t in 0..8usize {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..100 {
                        let out = pool.run(33, |i| i * t + round);
                        let want: Vec<usize> = (0..33).map(|i| i * t + round).collect();
                        assert_eq!(out, want, "thread {t}, round {round}");
                    }
                });
            }
        });
        let nested = pool.run(6, |i| pool.run(5, |j| i * 10 + j));
        let want: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..5).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(nested, want);
    });
}

/// While one caller's run holds every helper, another caller's run
/// completes inline; the first one's panic — on a helper or on the
/// caller itself — reaches the first caller alone, and the helpers
/// serve the next run.
#[test]
fn a_panic_is_resumed_on_its_caller_and_nowhere_else() {
    let _turn = serial();
    within_a_minute(|| {
        let pool = ExecPool::new(POOL);
        let before = helpers_of_one_run(pool);
        for on_helper in [true, false] {
            // POOL jobs and this thread meet at `lent`, then at `released`.
            let lent = Barrier::new(POOL + 1);
            let released = Barrier::new(POOL + 1);
            thread::scope(|s| {
                let panicking = s.spawn(|| {
                    let caller = thread::current().id();
                    pool.run(POOL, |i| {
                        lent.wait();
                        released.wait();
                        assert!(
                            (thread::current().id() == caller) == on_helper,
                            "injected failure, on_helper {on_helper}"
                        );
                        i
                    })
                });
                lent.wait();
                let me = thread::current().id();
                let mine = pool.run(16, |i| (i * 3, thread::current().id()));
                let want: Vec<_> = (0..16).map(|i| (i * 3, me)).collect();
                assert_eq!(mine, want, "inline, in order, while the helpers are lent");
                released.wait();
                let payload = panicking.join().expect_err("the panic reaches its caller");
                let message = payload.downcast_ref::<String>().expect("assert! message");
                assert!(message.contains("injected failure"), "{message}");
            });
            assert_eq!(helpers_of_one_run(pool), before, "on_helper {on_helper}");
        }
    });
}
