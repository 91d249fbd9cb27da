//! The enumeration scheduler's process-global state: per-query token
//! accounting plus the steal and queue counters, shared by every layer of
//! parallelism.
//!
//! A stealing run ([`crate::parallel`]) and the harness's query-parallel
//! map spawn their helpers inside one `std::thread::scope` each and run
//! slot 0 on the calling thread; this module holds what must outlive any
//! one such scope:
//!
//! * **Token accounting.** A [`TokenBudget`] is a counting semaphore over
//!   a total core budget. Every concurrently-running participant —
//!   harness query worker, serve request worker, enumeration helper —
//!   holds one token while it runs, so `query-level × intra-query`
//!   parallelism composes *dynamically* under one cap instead of through
//!   a static split: when only one query is in flight its enumeration can
//!   soak up the whole budget, and under full query-level load
//!   enumerations degrade gracefully to serial.
//! * **Counters.** Steals, failed victim scans, donated tasks and the
//!   queued-task gauge, read by serve's `metrics` and the ledger.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Steal / queue counters (serve `metrics` and the steal_sched regression
// binary read these; process-global, reset only in single-test binaries)
// ---------------------------------------------------------------------------

static STEALS: AtomicU64 = AtomicU64::new(0);
static STEAL_FAILURES: AtomicU64 = AtomicU64::new(0);
static TASKS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static QUEUE_DEPTH: AtomicI64 = AtomicI64::new(0);

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
    /// (a gauge: pushed but not yet popped, stolen, or dropped by a run
    /// that stopped early).
    pub queue_depth: u64,
}

/// Reads the scheduler counters (monotone except `queue_depth`).
pub fn scheduler_stats() -> SchedulerStats {
    SchedulerStats {
        steals: STEALS.load(Ordering::Relaxed),
        steal_failures: STEAL_FAILURES.load(Ordering::Relaxed),
        tasks_spawned: TASKS_SPAWNED.load(Ordering::Relaxed),
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Zeroes the monotone steal counters. Only meaningful in single-test
/// binaries (other threads may be enumerating concurrently).
pub fn reset_scheduler_counters() {
    STEALS.store(0, Ordering::Relaxed);
    STEAL_FAILURES.store(0, Ordering::Relaxed);
    TASKS_SPAWNED.store(0, Ordering::Relaxed);
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

pub(crate) fn note_tasks_taken(n: usize) {
    QUEUE_DEPTH.fetch_sub(n as i64, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Token budget
// ---------------------------------------------------------------------------

/// A counting semaphore over a total core budget — the per-query token
/// accounting that replaced the static `worker_split`. Holders are
/// *participants*: a thread acquires one token for itself before doing
/// budgeted work and `extra` more before spawning `extra` helpers; [`try_acquire`](TokenBudget::try_acquire) never blocks, so an
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
