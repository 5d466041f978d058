//! Persistent worker pool.
//!
//! The kernels in `kryst-dense` / `kryst-sparse` sit on the per-iteration
//! hot path of every solver, and each of them used to pay a full
//! `std::thread::scope` spawn + join per call. This module replaces that
//! with a process-wide pool of parked worker threads, created lazily on the
//! first parallel dispatch and kept alive for the lifetime of the process:
//! waking a parked thread through a condvar costs on the order of a few
//! microseconds, versus tens of microseconds for an OS thread spawn.
//!
//! Execution model:
//!
//! * A **job** is a `Sync` closure `f(part)` over `nparts` part indices.
//!   Parts are claimed dynamically through an atomic counter, so workers
//!   that finish early steal remaining parts instead of idling.
//! * The dispatching thread participates: it claims parts like any worker
//!   and then blocks until every part has completed, which makes it sound
//!   to let the job closure borrow the dispatcher's stack (scoped-thread
//!   semantics without the spawn).
//! * Exactly one job is in flight at a time. A dispatch that finds the pool
//!   busy — a concurrent dispatch from another thread, or a *nested*
//!   dispatch from inside a running job — simply runs its parts serially
//!   inline. This keeps the pool deadlock-free by construction.
//! * A panic inside a part is caught on the worker, recorded, and re-thrown
//!   on the dispatching thread after the job drains; the worker itself
//!   returns to its parked loop, so the pool survives panicking jobs.
//! * `KRYST_THREADS=1` (or a single-core machine) spawns no workers at all:
//!   every dispatch runs serially on the calling thread, byte-for-byte
//!   deterministic.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::par::max_threads;

/// Lifetime-erased pointer to the job closure. The dispatcher blocks until
/// every part has run before returning, so the pointee outlives all uses.
#[derive(Copy, Clone)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the closure behind the pointer is `Sync`, and the dispatch
// protocol guarantees it stays alive while any worker can reach it.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One in-flight job: the closure, the part counter, and completion state.
struct Job {
    task: TaskPtr,
    nparts: usize,
    /// Next part index to claim (may run past `nparts`; claims are bounded).
    next: AtomicUsize,
    /// Parts not yet finished + the first captured panic payload.
    done: Mutex<JobDone>,
    done_cv: Condvar,
}

struct JobDone {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Worker-visible dispatch slot: a generation counter plus the current job.
struct Gate {
    epoch: u64,
    job: Option<Arc<Job>>,
}

struct Shared {
    gate: Mutex<Gate>,
    work_cv: Condvar,
}

/// The process-wide pool.
pub struct Pool {
    shared: Arc<Shared>,
    /// Serializes dispatches; `try_lock` failure falls back to inline serial.
    dispatch: Mutex<()>,
    workers: usize,
}

thread_local! {
    /// Set on pool worker threads so nested dispatches run inline.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

impl Pool {
    fn new() -> Self {
        let workers = max_threads().saturating_sub(1);
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                epoch: 0,
                job: None,
            }),
            work_cv: Condvar::new(),
        });
        for w in 0..workers {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("kryst-pool-{w}"))
                .spawn(move || worker_loop(sh))
                .expect("spawn kryst pool worker");
        }
        Self {
            shared,
            dispatch: Mutex::new(()),
            workers,
        }
    }
}

fn worker_loop(sh: Arc<Shared>) {
    IS_WORKER.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut gate = sh.gate.lock().unwrap();
            loop {
                if gate.epoch != seen {
                    seen = gate.epoch;
                    if let Some(job) = gate.job.clone() {
                        break job;
                    }
                }
                gate = sh.work_cv.wait(gate).unwrap();
            }
        };
        work_on(&job);
    }
}

/// Claim and run parts of `job` until the counter is exhausted.
fn work_on(job: &Job) {
    loop {
        let part = job.next.fetch_add(1, Ordering::Relaxed);
        if part >= job.nparts {
            return;
        }
        // SAFETY: the dispatcher keeps the closure alive until
        // `remaining == 0`, which cannot happen before this part finishes.
        let task = unsafe { &*job.task.0 };
        let result = catch_unwind(AssertUnwindSafe(|| task(part)));
        let mut done = job.done.lock().unwrap();
        if let Err(payload) = result {
            if done.panic.is_none() {
                done.panic = Some(payload);
            }
        }
        done.remaining -= 1;
        if done.remaining == 0 {
            job.done_cv.notify_all();
        }
    }
}

fn run_serial(nparts: usize, f: &(dyn Fn(usize) + Sync)) {
    for part in 0..nparts {
        f(part);
    }
}

/// Run `f(0), f(1), …, f(nparts-1)` on the pool, blocking until all parts
/// complete. The closure may borrow the caller's stack (the call does not
/// return while any part is running). Runs serially inline when the pool is
/// unavailable: single-thread cap, nested dispatch, or a concurrent job.
///
/// If any part panics, the panic is re-thrown here after the job drains;
/// the pool remains usable afterwards.
pub fn run_parts<F: Fn(usize) + Sync>(nparts: usize, f: F) {
    if nparts == 0 {
        return;
    }
    let fr: &(dyn Fn(usize) + Sync) = &f;
    if nparts == 1 || max_threads() <= 1 || IS_WORKER.with(|w| w.get()) {
        run_serial(nparts, fr);
        return;
    }
    let pool = global();
    if pool.workers == 0 {
        run_serial(nparts, fr);
        return;
    }
    let Ok(_dispatch) = pool.dispatch.try_lock() else {
        run_serial(nparts, fr);
        return;
    };
    // SAFETY: erases the closure's lifetime; this frame outlives the job
    // (we wait on `remaining == 0` below and clear the slot before return).
    let task = TaskPtr(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(fr)
    });
    let job = Arc::new(Job {
        task,
        nparts,
        next: AtomicUsize::new(0),
        done: Mutex::new(JobDone {
            remaining: nparts,
            panic: None,
        }),
        done_cv: Condvar::new(),
    });
    {
        let mut gate = pool.shared.gate.lock().unwrap();
        gate.epoch = gate.epoch.wrapping_add(1);
        gate.job = Some(Arc::clone(&job));
        pool.shared.work_cv.notify_all();
    }
    // The dispatcher pulls parts too — it never just waits while work exists.
    work_on(&job);
    let payload = {
        let mut done = job.done.lock().unwrap();
        while done.remaining > 0 {
            done = job.done_cv.wait(done).unwrap();
        }
        done.panic.take()
    };
    // Drop the slot so the lifetime-erased pointer can never be observed
    // after this frame returns.
    pool.shared.gate.lock().unwrap().job = None;
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_parts_run_exactly_once() {
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        run_parts(97, |p| {
            hits[p].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "part {i}");
        }
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_parts(8, |p| {
                if p == 3 {
                    panic!("boom in part 3");
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the dispatcher");
        // The pool keeps serving jobs afterwards.
        let sum = AtomicU64::new(0);
        run_parts(16, |p| {
            sum.fetch_add(p as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..16).sum::<u64>());
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let total = AtomicU64::new(0);
        run_parts(4, |_outer| {
            run_parts(4, |inner| {
                total.fetch_add(inner as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn concurrent_dispatches_from_plain_threads_complete() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let sum = AtomicU64::new(0);
                    for _ in 0..50 {
                        run_parts(8, |p| {
                            sum.fetch_add(p as u64, Ordering::Relaxed);
                        });
                    }
                    assert_eq!(sum.load(Ordering::Relaxed), 50 * (0..8).sum::<u64>());
                });
            }
        });
    }
}
