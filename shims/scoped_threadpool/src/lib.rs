//! Offline stand-in for the subset of `scoped_threadpool` this workspace
//! uses: [`Pool::new`] / [`Pool::thread_count`] / [`Pool::scoped`] /
//! [`Scope::execute`] — worker threads that outlive any one scope and
//! sleep on a condvar between them, running jobs that borrow from the
//! stack of the thread that opened the scope.
//!
//! Semantic notes relative to the real crate:
//! - A job no worker has started when its scope ends is **revoked**
//!   (dropped unrun) instead of run: the scope's owner never waits for a
//!   sleeping worker to wake up only to be handed work the owner has
//!   already finished. Callers must therefore not rely on every
//!   `execute`d job running — only on none running after the scope ends.
//!   (Code correct under this rule is correct against the real crate,
//!   which runs them all.)
//! - A panic in a job is caught on the worker, which survives; the first
//!   payload of a scope is resumed on the scope's owner when the scope
//!   ends (the real crate panics there too, with its own message).
//!
//! This is the one place in the workspace that erases a lifetime — as
//! `std::thread::scope` does inside std — so that no crate under
//! `crates/` needs an `unsafe` for its thread pool.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct State {
    /// Jobs no worker has started yet.
    queue: VecDeque<Job>,
    /// Jobs popped from `queue` and not yet finished.
    running: usize,
    /// The first panic payload of the current scope's jobs.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Workers sleep here until a job is queued or the pool shuts down.
    work: Condvar,
    /// A scope's owner sleeps here until `running` is zero.
    idle: Condvar,
}

impl Shared {
    /// Jobs run outside the lock, so a poisoned lock still guards a
    /// consistent `State`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn worker(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if let Some(job) = state.queue.pop_front() {
            state.running += 1;
            drop(state);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            state = shared.lock();
            state.running -= 1;
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            if state.running == 0 {
                shared.idle.notify_one();
            }
        } else if state.shutdown {
            return;
        } else {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A fixed set of worker threads, parked between scopes. Dropping the
/// pool stops and joins them.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Starts `n` worker threads.
    ///
    /// # Panics
    ///
    /// If `n` is zero (as the real crate does), or a thread cannot be
    /// started.
    pub fn new(n: u32) -> Pool {
        assert!(n >= 1, "a pool needs at least one worker");
        // Built first, so that a failed spawn drops — stops and joins —
        // the workers started before it.
        let mut pool = Pool {
            shared: Arc::new(Shared::default()),
            workers: Vec::new(),
        };
        for _ in 0..n {
            let shared = Arc::clone(&pool.shared);
            pool.workers.push(thread::spawn(move || worker(&shared)));
        }
        pool
    }

    /// How many worker threads the pool holds.
    pub fn thread_count(&self) -> u32 {
        self.workers.len() as u32
    }

    /// Runs `f` with a [`Scope`] whose jobs may borrow anything that
    /// outlives this call. Returns — or unwinds, if `f` panics — only
    /// once no job of the scope is queued or running.
    pub fn scoped<'pool, 'scope, F, R>(&'pool mut self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            _marker: PhantomData,
        };
        f(&scope)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            // Workers catch their jobs' panics; a join error has nothing
            // to report and `drop` must not panic.
            let _ = handle.join();
        }
    }
}

/// Handle for lending jobs to a [`Pool`]'s workers; see [`Pool::scoped`].
pub struct Scope<'pool, 'scope> {
    /// Exclusive for `'pool`: one scope at a time, so every queued or
    /// running job belongs to this scope.
    pool: &'pool mut Pool,
    /// Invariant in `'scope`.
    _marker: PhantomData<Cell<&'scope mut ()>>,
}

impl<'scope> Scope<'_, 'scope> {
    /// Queues `f` for the next free worker and wakes one.
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: only the lifetime bound of the trait object changes, so
        // the layouts agree; what must hold is that the job is neither
        // run nor dropped after `'scope` ends. `'scope` is a lifetime
        // parameter of `Pool::scoped`, so it outlives that call, and the
        // call cannot end before this `Scope` is dropped: `scoped` owns
        // it and hands `f` only a reference, so it can be neither leaked
        // nor moved out. `Scope::drop` takes the state lock, drops every
        // job still queued, and then waits for `running == 0`; a worker
        // moves a job from the queue to `running` under that same lock
        // and decrements `running` only after the job has been consumed
        // (run to completion or unwound, its captures dropped either
        // way). The pool is borrowed `&mut` for the scope's whole life,
        // so no other scope's jobs are in `queue` or `running`. After
        // the drop, therefore, no job of this scope exists anywhere.
        // Nothing else of the job survives it: it returns `()`, and a
        // panic payload is `'static` by its type.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.shared.lock().queue.push_back(job);
        self.pool.shared.work.notify_one();
    }
}

impl Drop for Scope<'_, '_> {
    /// Revokes the jobs nobody started, waits for the ones somebody did,
    /// and resumes the first panic among them on this thread (unless it
    /// is already unwinding: the scope's closure panicked first).
    fn drop(&mut self) {
        let shared = &self.pool.shared;
        let mut state = shared.lock();
        state.queue.clear();
        while state.running > 0 {
            state = shared
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let panic = state.panic.take();
        drop(state);
        if let Some(payload) = panic {
            if !thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn jobs_borrow_from_the_owner_stack() {
        let mut pool = Pool::new(3);
        assert_eq!(pool.thread_count(), 3);
        let data = [1u64, 2, 3, 4, 5, 6];
        let total = AtomicUsize::new(0);
        // One job per worker, each held at the barrier until all three
        // (and the owner) have arrived: none can be revoked.
        let barrier = Barrier::new(4);
        pool.scoped(|scope| {
            for chunk in data.chunks(2) {
                let (total, barrier) = (&total, &barrier);
                scope.execute(move || {
                    barrier.wait();
                    total.fetch_add(chunk.iter().sum::<u64>() as usize, Ordering::SeqCst);
                });
            }
            barrier.wait();
        });
        assert_eq!(total.load(Ordering::SeqCst), 21);
    }

    #[test]
    fn a_scope_ends_only_when_no_job_of_it_can_run() {
        let mut pool = Pool::new(2);
        for _ in 0..200 {
            let started = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            pool.scoped(|scope| {
                for _ in 0..4 {
                    scope.execute(|| {
                        started.fetch_add(1, Ordering::SeqCst);
                        thread::yield_now();
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            // Started jobs finished; the rest were revoked, not deferred.
            let done = finished.load(Ordering::SeqCst);
            assert_eq!(started.load(Ordering::SeqCst), done);
            assert!(done <= 4);
        }
    }

    #[test]
    fn a_job_panic_resumes_on_the_owner_and_the_workers_survive() {
        let mut pool = Pool::new(1);
        let barrier = Barrier::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| {
                    barrier.wait();
                    panic!("boom");
                });
                barrier.wait();
            })
        }));
        let payload = caught.expect_err("the job's panic reaches the owner");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // Same worker, next scope: no stale payload, and it still runs.
        let ran = AtomicUsize::new(0);
        pool.scoped(|scope| {
            scope.execute(|| {
                barrier.wait();
                ran.fetch_add(1, Ordering::SeqCst);
            });
            barrier.wait();
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn an_owner_panic_still_waits_for_running_jobs() {
        let mut pool = Pool::new(1);
        let barrier = Barrier::new(2);
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| {
                    barrier.wait();
                    thread::yield_now();
                    finished.fetch_add(1, Ordering::SeqCst);
                });
                barrier.wait();
                panic!("owner");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }
}
