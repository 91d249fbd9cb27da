//! The process-global enumeration scheduler: one helper-thread pool plus
//! per-query token accounting, shared by every layer of parallelism.
//!
//! PR 4's morsel pool spawned a fresh `std::thread::scope` per parallel
//! enumeration and split the core budget *statically* (`worker_split`:
//! query workers × enum threads). This module replaces both mechanisms:
//!
//! * **One pool.** [`run_on_pool`] runs a closure on the calling thread
//!   (slot 0) plus up to `extra` pool helpers (slots 1..), drawn from a
//!   lazily-grown set of persistent threads. The pool never blocks a
//!   caller waiting for helpers — a busy pool just grants fewer (possibly
//!   zero), and a helper that frees up mid-run can still claim an open
//!   slot and join late, which is exactly what a work-stealing run wants.
//! * **Token accounting.** A [`TokenBudget`] is a counting semaphore over
//!   a total core budget. Every concurrently-running participant —
//!   harness query worker, serve request worker, enumeration helper —
//!   holds one token while it runs, so `query-level × intra-query`
//!   parallelism composes *dynamically* under one cap instead of through
//!   a static split: when only one query is in flight its enumeration can
//!   soak up the whole budget, and under full query-level load
//!   enumerations degrade gracefully to serial.
//!
//! Lifetime soundness of the borrowed closure: [`run_on_pool`] erases the
//! closure to a raw pointer so pool threads can call it, and does not
//! return (or unwind) until the job is closed **and** every helper that
//! entered the closure has exited it — claims and the close are serialized
//! under one lock, so no helper can begin a call after the caller decided
//! the closure's stack frame may die.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Steal / queue counters (serve `metrics` and the steal_sched regression
// binary read these; process-global, reset only in single-test binaries)
// ---------------------------------------------------------------------------

static STEALS: AtomicU64 = AtomicU64::new(0);
static STEAL_FAILURES: AtomicU64 = AtomicU64::new(0);
static TASKS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static QUEUE_DEPTH: AtomicI64 = AtomicI64::new(0);
static HELPERS_GRANTED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the scheduler's process-global counters.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerStats {
    /// Open-subtree tasks taken from another worker's deque.
    pub steals: u64,
    /// Full victim scans that found every deque empty (the thief yielded
    /// and retried — a measure of steal-loop spin, not an error).
    pub steal_failures: u64,
    /// Open-subtree tasks ever pushed to a deque (donations + roots).
    pub tasks_spawned: u64,
    /// Tasks currently sitting in deques across all running enumerations
    /// (a gauge: pushed but not yet popped or stolen).
    pub queue_depth: u64,
    /// Helper slots pool threads have claimed, over all [`run_on_pool`]
    /// calls.
    pub helpers_granted: u64,
    /// Helper threads currently spawned in the pool.
    pub pool_threads: usize,
}

/// Reads the scheduler counters (monotone except `queue_depth`).
pub fn scheduler_stats() -> SchedulerStats {
    SchedulerStats {
        steals: STEALS.load(Ordering::Relaxed),
        steal_failures: STEAL_FAILURES.load(Ordering::Relaxed),
        tasks_spawned: TASKS_SPAWNED.load(Ordering::Relaxed),
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed).max(0) as u64,
        helpers_granted: HELPERS_GRANTED.load(Ordering::Relaxed),
        pool_threads: pool().state.lock().unwrap_or_else(PoisonError::into_inner).threads,
    }
}

/// Zeroes the monotone steal counters. Only meaningful in single-test
/// binaries (other threads may be enumerating concurrently).
pub fn reset_scheduler_counters() {
    STEALS.store(0, Ordering::Relaxed);
    STEAL_FAILURES.store(0, Ordering::Relaxed);
    TASKS_SPAWNED.store(0, Ordering::Relaxed);
    HELPERS_GRANTED.store(0, Ordering::Relaxed);
}

pub(crate) fn note_steal() {
    STEALS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_steal_failure() {
    STEAL_FAILURES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_task_pushed() {
    TASKS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    QUEUE_DEPTH.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_task_taken() {
    QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Token budget
// ---------------------------------------------------------------------------

/// A counting semaphore over a total core budget — the per-query token
/// accounting that replaced the static `worker_split`. Holders are
/// *participants*: a thread acquires one token for itself before doing
/// budgeted work and `extra` more before asking the pool for `extra`
/// helpers; [`try_acquire`](TokenBudget::try_acquire) never blocks, so an
/// exhausted budget degrades the request to fewer workers (ultimately
/// serial) instead of queueing.
#[derive(Debug)]
pub struct TokenBudget {
    available: AtomicI64,
}

impl TokenBudget {
    /// A budget of `total` tokens.
    pub fn new(total: usize) -> Self {
        TokenBudget { available: AtomicI64::new(total.max(1) as i64) }
    }

    /// A leaked budget, giving the `&'static` lifetime [`crate::EnumConfig`]
    /// needs to stay `Copy` across scoped-thread boundaries (same pattern
    /// as its `cancel` flag). Long-lived callers leak one per instance;
    /// the harness leaks one small allocation per roster call — bounded
    /// in any real process.
    pub fn leaked(total: usize) -> &'static TokenBudget {
        Box::leak(Box::new(TokenBudget::new(total)))
    }

    /// Takes up to `want` tokens, returning how many were actually
    /// acquired (possibly 0). Never blocks.
    pub fn try_acquire(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let mut cur = self.available.load(Ordering::Relaxed);
        loop {
            if cur <= 0 {
                return 0;
            }
            let got = cur.min(want as i64);
            match self.available.compare_exchange_weak(cur, cur - got, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return got as usize,
                Err(now) => cur = now,
            }
        }
    }

    /// Returns `n` tokens to the budget.
    pub fn release(&self, n: usize) {
        if n > 0 {
            self.available.fetch_add(n as i64, Ordering::AcqRel);
        }
    }
}

// ---------------------------------------------------------------------------
// The global helper pool
// ---------------------------------------------------------------------------

/// One `run_on_pool` call in flight. The raw closure pointer is valid
/// from submission until the caller observes `closed && active == 0`;
/// claims (which set `active`) and the close are serialized under the
/// pool lock, so that observation is race-free.
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    /// Next helper slot to hand out (1-based; 0 is the caller).
    next_slot: usize,
    /// Highest helper slot this job accepts.
    max_slot: usize,
    /// Helpers currently inside the closure.
    active: usize,
    /// Set by the caller when it stops accepting helpers.
    closed: bool,
    /// First helper panic, rethrown on the caller's thread.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

// SAFETY: the raw closure pointer is only dereferenced by helpers whose
// slot claim happened under the pool lock while the job was open, and the
// submitting caller keeps the closure alive until every such helper has
// exited (see `run_on_pool`). All other fields are only touched under the
// pool lock.
unsafe impl Send for JobCell {}
unsafe impl Sync for JobCell {}

struct JobCell(Mutex<Job>);

struct PoolState {
    /// Jobs with unclaimed helper slots, oldest first.
    jobs: Vec<Arc<JobCell>>,
    /// Helpers parked on `work`.
    idle: usize,
    /// Helper threads ever spawned.
    threads: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Helpers wait here for jobs; callers wait here for their helpers to
    /// exit (completion events are rare enough to share the condvar).
    work: Condvar,
    cap: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        // On a small host the floor of 8 still lets a `threads = 4`
        // request run 4 wide (overhead-bound there, not a speedup) —
        // parallelism is capped by tokens and grants, not by the
        // hardware guess.
        let cap = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(8);
        Pool { state: Mutex::new(PoolState { jobs: Vec::new(), idle: 0, threads: 0 }), work: Condvar::new(), cap }
    })
}

/// Runs `f` on the calling thread (as slot 0) and up to `extra` pool
/// helpers (slots `1..=extra`), returning once every participant has
/// exited `f`. Helpers are granted opportunistically: idle threads wake
/// immediately, new threads spawn while the pool is below its cap
/// (`max(hardware, 8)`), and a helper that
/// frees up later can still claim an open slot and join the run in
/// progress. The caller is never blocked waiting for a grant, and a
/// panic on any participant is rethrown here after the others finish.
///
/// Returns the number of helpers that actually entered `f`.
pub fn run_on_pool<F: Fn(usize) + Sync>(extra: usize, f: F) -> usize {
    if extra == 0 {
        f(0);
        return 0;
    }
    let pool = pool();
    // SAFETY: pure lifetime erasure; the retire protocol below keeps `f`'s
    // frame alive until every helper that entered it has exited.
    let fp: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f) };
    let job = Arc::new(JobCell(Mutex::new(Job {
        f: fp,
        next_slot: 1,
        max_slot: extra,
        active: 0,
        closed: false,
        panic: None,
    })));
    submit(pool, &job, extra);
    // Slot 0 — the caller's own share. A panic is caught so the job is
    // always retired (and the closure's frame kept alive) before any
    // unwinding continues past this function.
    let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
    let (entered, helper_panic) = retire(pool, &job);
    if let Err(p) = caller {
        resume_unwind(p);
    }
    if let Some(p) = helper_panic {
        resume_unwind(p);
    }
    entered
}

fn submit(pool: &'static Pool, job: &Arc<JobCell>, extra: usize) {
    let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
    st.jobs.push(Arc::clone(job));
    let shortfall = extra.saturating_sub(st.idle);
    let spawn = shortfall.min(pool.cap.saturating_sub(st.threads));
    for _ in 0..spawn {
        st.threads += 1;
        std::thread::Builder::new()
            .name("rlqvo-pool".into())
            .spawn(move || helper_main(pool))
            .expect("spawn pool helper");
    }
    drop(st);
    pool.work.notify_all();
}

/// Closes the job, waits for every entered helper to leave the closure,
/// and returns (helpers entered, first helper panic).
fn retire(pool: &Pool, job: &Arc<JobCell>) -> (usize, Option<Box<dyn std::any::Any + Send>>) {
    let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
    {
        let mut j = job.0.lock().unwrap_or_else(PoisonError::into_inner);
        j.closed = true;
    }
    st.jobs.retain(|other| !Arc::ptr_eq(other, job));
    loop {
        let (active, entered, panic) = {
            let mut j = job.0.lock().unwrap_or_else(PoisonError::into_inner);
            (j.active, j.next_slot - 1, if j.active == 0 { j.panic.take() } else { None })
        };
        if active == 0 {
            return (entered, panic);
        }
        st = pool.work.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

fn helper_main(pool: &'static Pool) {
    loop {
        let (job, slot) = {
            let mut st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(claim) = claim_slot(&mut st) {
                    break claim;
                }
                st.idle += 1;
                st = pool.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.idle -= 1;
            }
        };
        // SAFETY: the slot claim above ran under the pool lock while the
        // job was open, which made this helper `active`; the submitting
        // caller cannot return (or unwind) until `active` drops back to
        // zero below, so the closure outlives this call.
        let fp = job.0.lock().unwrap_or_else(PoisonError::into_inner).f;
        let r = catch_unwind(AssertUnwindSafe(|| unsafe { (*fp)(slot) }));
        {
            // Re-acquire the pool lock so the active-count drop and the
            // caller's wait can never miss each other's wakeup.
            let _st = pool.state.lock().unwrap_or_else(PoisonError::into_inner);
            let mut j = job.0.lock().unwrap_or_else(PoisonError::into_inner);
            j.active -= 1;
            if let Err(p) = r {
                if j.panic.is_none() {
                    j.panic = Some(p);
                }
            }
        }
        pool.work.notify_all();
    }
}

/// Under the pool lock: the oldest job with an unclaimed slot, if any.
/// Claiming marks the helper active *atomically with the claim*, which is
/// what makes the caller's `closed && active == 0` observation sound.
fn claim_slot(st: &mut PoolState) -> Option<(Arc<JobCell>, usize)> {
    let mut i = 0;
    while i < st.jobs.len() {
        let job = Arc::clone(&st.jobs[i]);
        let mut j = job.0.lock().unwrap_or_else(PoisonError::into_inner);
        if !j.closed && j.next_slot <= j.max_slot {
            let slot = j.next_slot;
            j.next_slot += 1;
            j.active += 1;
            let exhausted = j.next_slot > j.max_slot;
            drop(j);
            if exhausted {
                st.jobs.remove(i);
            }
            HELPERS_GRANTED.fetch_add(1, Ordering::Relaxed);
            return Some((job, slot));
        }
        drop(j);
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn token_budget_grants_at_most_the_total() {
        let b = TokenBudget::new(3);
        assert_eq!(b.try_acquire(2), 2);
        assert_eq!(b.try_acquire(5), 1, "only one left");
        assert_eq!(b.try_acquire(1), 0, "exhausted");
        b.release(3);
        assert_eq!(b.try_acquire(3), 3);
        assert_eq!(b.try_acquire(0), 0, "zero-want is free");
    }

    #[test]
    fn run_on_pool_zero_extra_runs_inline() {
        let hits = AtomicUsize::new(0);
        let entered = run_on_pool(0, |slot| {
            assert_eq!(slot, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(entered, 0);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_on_pool_every_slot_is_distinct_and_covered() {
        let seen = Mutex::new(Vec::new());
        run_on_pool(3, |slot| {
            seen.lock().unwrap().push(slot);
            // Hold the slot briefly so distinct helpers (not one helper
            // twice) have a chance to claim the others.
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let mut slots = seen.into_inner().unwrap();
        slots.sort_unstable();
        assert!(slots.contains(&0), "the caller always participates: {slots:?}");
        assert!(slots.len() <= 4, "never more than extra + 1 participants: {slots:?}");
        let before = slots.len();
        slots.dedup();
        assert_eq!(slots.len(), before, "slots are distinct");
    }

    #[test]
    fn helper_panic_is_rethrown_on_the_caller() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_on_pool(2, |slot| {
                if slot != 0 {
                    panic!("helper boom");
                }
                // Give a helper time to enter and die.
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        }));
        // A busy pool may have granted no helper, in which case the run
        // simply succeeds — only assert no hang and payload passthrough.
        if let Err(p) = r {
            let msg = p.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "helper boom");
        }
    }

    #[test]
    fn caller_panic_still_retires_the_job() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_on_pool(1, |slot| {
                if slot == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool survives for the next run.
        let hits = AtomicUsize::new(0);
        run_on_pool(1, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let hits = AtomicUsize::new(0);
        run_on_pool(2, |_| {
            run_on_pool(1, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }
}
