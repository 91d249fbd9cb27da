//! Intra-query parallel enumeration: work-stealing over open subtrees.
//!
//! A serial run explores one recursion tree. PR 4 parallelized only
//! its first level — contiguous morsels of `C(order[0])` claimed from a
//! cursor — which serialized exactly the hard cases: a query whose root
//! has one candidate, or one monster subtree, kept every other core idle
//! behind its owner. This module parallelizes the *whole* tree instead:
//!
//! * Every worker owns a bounded chase-lev-style deque of **open
//!   subtrees** ([`Task`]: a frozen partial embedding plus the remaining
//!   candidate chunk at its depth). The owner pushes and pops at the back
//!   (LIFO — depth-first locality); thieves take from the front (FIFO —
//!   the biggest, shallowest subtrees move between workers).
//! * While recursing, a worker **donates**: whenever the candidate list
//!   at the current depth is longer than a granularity threshold
//!   (`STEAL_GRANULARITY` — the hook a learned per-subtree cost
//!   estimate can later replace) and its deque has room, it freezes
//!   geometric tail chunks of the list into tasks and keeps the head. A
//!   worker whose deque drains **steals** from a random victim, so one
//!   monster subtree fans out across all workers no matter who first
//!   claimed it.
//! * The caller participates directly as slot 0, and up to `threads - 1`
//!   helpers are spawned for the run inside one `std::thread::scope` —
//!   gated by the config's [`TokenBudget`][crate::scheduler::TokenBudget]
//!   so query-level and intra-query parallelism compose under one cap (an
//!   exhausted budget degrades the run towards serial instead of
//!   oversubscribing).
//!
//! Each worker owns a full private recursion context (`Ctx` — mapping,
//! injectivity bitmap, per-depth LC buffers) and runs the one recursion
//! in [`crate::enumerate`], so the steady-state hot path is the serial
//! code; shared state is touched only at donation points (an atomic room
//! check, rarely a deque push), at the existing 1024-call cadence (budget
//! sync), and per emitted match under a finite cap.
//!
//! Both engines enter through the one driver here, `drive`, and "no
//! helpers" is not a mechanism of its own: a `threads <= 1` request, a
//! token budget with nothing to spare, and a budget the root call alone
//! exhausts all run that same recursion from depth 0 on the calling
//! thread with no shared state — which is the serial engine, exact caps
//! and deterministic `#enum` included.
//!
//! ## Result semantics
//!
//! * **Find-all** (no caps bind): every subtree is fully explored exactly
//!   once, and because every candidate list the engines iterate is sorted
//!   ascending, the serial match stream is lexicographic in the
//!   order-permuted mapping `(M[order[0]], M[order[1]], …)`. The merge
//!   re-sorts the concatenated worker streams by that same key, so
//!   `match_count`, `#enum`, and — with `store_matches` — the match
//!   stream itself are **byte-identical** to the serial engines
//!   (property-tested in `tests/oracle.rs`, including single-root-candidate
//!   queries the morsel pool used to serialize).
//! * **`max_matches` cap**: the reported `match_count` is exact (the
//!   merge truncates), but *which* matches are kept and the reported
//!   `#enum` may differ from serial run to run.
//! * **`max_enumerations` budget**: a shared atomic budget with
//!   *at-least* semantics — workers sync local call counts every 1024
//!   calls and stop once the global total reaches the budget, so the run
//!   performs at least `max_enumerations` total work (possibly up to
//!   `threads × 1024` calls more, and therefore possibly more matches
//!   than a serial run at the same budget). Training rewards need exact
//!   determinism, which is why [`EnumConfig::budgeted`] pins `threads: 1`
//!   — deterministic runs never enter the steal path.
//!
//! Cancellation, deadlines, and the failpoint surface thread through the
//! steal loop unchanged: `enum.morsel.stall` fires at every task claim
//! (a stalled claimant holds no task, so peers keep draining the deques),
//! and one worker observing `deadline`/`cancel` raises the shared stop
//! that peers see at their next cadence sync or task claim.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use rlqvo_graph::VertexId;

use crate::enumerate::{recurse, run_task, Ctx, Engine, EnumConfig, EnumResult};
use crate::scheduler;

/// Deque capacity per worker. Donations stop when the owner's deque is
/// full, bounding queued (cloned-prefix) memory per worker; a full deque
/// simply means thieves are not keeping up, so the owner descends into
/// the work itself.
const DEQUE_CAP: usize = 8;

/// Candidate lists at or below this length are not worth freezing into a
/// task (ROADMAP's learned per-subtree estimator is the intended future
/// replacement for this scalar gate). Deliberately coarse: donation
/// halves a list down to this floor, so a single fat level still fans
/// out into plenty of tasks, while the short (≤ tens of candidates) inner
/// lists that dominate deep recursion never pay the freeze-a-prefix cost
/// — measured on the skewed single-root kernel, a floor of 4 spent ~70%
/// of the run donating and re-stealing depth-2 crumbs.
pub(crate) const STEAL_GRANULARITY: usize = 64;

// ---------------------------------------------------------------------------
// Worker gauge (oversubscription guard)
// ---------------------------------------------------------------------------

static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
static PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);

struct WorkerGuard;

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

fn gauge_enter() -> WorkerGuard {
    let now = ACTIVE_WORKERS.fetch_add(1, Ordering::SeqCst) + 1;
    PEAK_WORKERS.fetch_max(now, Ordering::SeqCst);
    WorkerGuard
}

/// High-water mark of concurrently running enumeration workers (the
/// calling thread participates in its own run, so a `threads = 4` run
/// registers 4, not 5). Process-global and monotone; the
/// no-oversubscription regression test resets it, runs a composed
/// harness, and asserts the peak never exceeded the configured budget.
pub fn peak_parallel_workers() -> usize {
    PEAK_WORKERS.load(Ordering::SeqCst)
}

/// Resets [`peak_parallel_workers`] to the currently active count. Only
/// meaningful in single-test binaries (other threads may be enumerating).
pub fn reset_peak_parallel_workers() {
    PEAK_WORKERS.store(ACTIVE_WORKERS.load(Ordering::SeqCst), Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Shared caps
// ---------------------------------------------------------------------------

/// The match/budget caps every worker of one parallel enumeration
/// coordinates through. All counters are relaxed atomics: cap
/// enforcement tolerates the sync lag by design (the documented
/// "at-least" semantics), and the final result is computed from each
/// worker's exact local counts, not from these.
pub struct SharedCaps {
    /// Recursion calls synced so far (seeded with 1 for the root call the
    /// merge accounts to keep `#enum` aligned with the serial engines).
    enumerations: AtomicU64,
    /// Matches emitted so far (only maintained under a finite cap).
    matches: AtomicU64,
    /// Set once any cap/budget/deadline is hit; workers observe it at
    /// their next sync point and stop claiming tasks.
    stop: AtomicBool,
    max_enumerations: u64,
    max_matches: u64,
}

impl SharedCaps {
    pub(crate) fn new(config: &EnumConfig) -> Self {
        SharedCaps {
            enumerations: AtomicU64::new(1),
            matches: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            max_enumerations: config.max_enumerations,
            max_matches: config.max_matches,
        }
    }

    /// Adds a worker's local call delta and reports whether the worker
    /// should stop (budget exhausted here or a stop raised elsewhere).
    pub(crate) fn sync_enumerations(&self, delta: u64) -> bool {
        if delta > 0 && self.max_enumerations != u64::MAX {
            let total = self.enumerations.fetch_add(delta, Ordering::Relaxed) + delta;
            if total >= self.max_enumerations {
                self.stop.store(true, Ordering::Relaxed);
            }
        }
        self.stop.load(Ordering::Relaxed)
    }

    /// Books one emitted match; true once the global cap is reached (the
    /// emitting worker unwinds, everyone else stops at their next check).
    /// Free under find-all: an uncapped run never touches the atomic.
    pub(crate) fn note_match(&self) -> bool {
        if self.max_matches == u64::MAX {
            return false;
        }
        let total = self.matches.fetch_add(1, Ordering::Relaxed) + 1;
        if total >= self.max_matches {
            self.stop.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    pub(crate) fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Raised by a worker that observed a cooperative cancel
    /// ([`EnumConfig::deadline`] / [`EnumConfig::cancel`]) — or by the
    /// panic fence, so a dead worker's open subtrees can never wedge its
    /// peers; everyone exits at the next cadence sync or task claim.
    pub(crate) fn raise_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    pub(crate) fn budget_exhausted(&self) -> bool {
        self.max_enumerations != u64::MAX && self.enumerations.load(Ordering::Relaxed) >= self.max_enumerations
    }
}

// ---------------------------------------------------------------------------
// Open-subtree tasks and the per-run deque set
// ---------------------------------------------------------------------------

/// One open subtree, frozen at a donation point: everything a thief
/// needs to continue the donor's depth-`depth` loop on its own context.
pub(crate) struct Task {
    /// Depth whose candidate loop this task continues.
    pub(crate) depth: usize,
    /// The frozen partial embedding covering `order[..depth]`. Space
    /// engine: chosen candidate *positions* per depth; probe engine: the
    /// mapped data vertices along the order. Both reconstruct the donor's
    /// exact `mapping`/`used` state in `O(depth)`.
    pub(crate) path: Vec<u32>,
    /// The remaining candidate chunk at `depth` (space: positions into
    /// `C(order[depth])`; probe: data vertices), in ascending order.
    pub(crate) slots: Vec<u32>,
}

struct TaskDeque {
    q: Mutex<VecDeque<Task>>,
    /// Approximate length, maintained beside the lock so the hot-path
    /// room check ([`StealShared::has_room`]) and victim scan are plain
    /// atomic loads.
    len: AtomicUsize,
}

/// The per-run stealing state: the shared caps, one bounded deque per
/// participant, and the open-subtree count that detects termination
/// (`open` counts tasks queued *or executing*, so `open == 0` means the
/// whole tree has been explored).
pub(crate) struct StealShared {
    pub(crate) caps: SharedCaps,
    deques: Vec<TaskDeque>,
    open: AtomicUsize,
}

impl StealShared {
    fn new(participants: usize, config: &EnumConfig) -> Self {
        StealShared {
            caps: SharedCaps::new(config),
            deques: (0..participants)
                .map(|_| TaskDeque { q: Mutex::new(VecDeque::new()), len: AtomicUsize::new(0) })
                .collect(),
            open: AtomicUsize::new(0),
        }
    }

    /// Cheap pre-check a donor runs before freezing a prefix: false once
    /// its deque is full (thieves are not keeping up — descend instead).
    pub(crate) fn has_room(&self, slot: usize) -> bool {
        self.deques[slot].len.load(Ordering::Relaxed) < DEQUE_CAP
    }

    /// Pushes an open subtree onto `slot`'s deque (back — the owner pops
    /// newest-first for depth-first locality).
    pub(crate) fn donate(&self, slot: usize, task: Task) {
        self.open.fetch_add(1, Ordering::AcqRel);
        let d = &self.deques[slot];
        let mut q = d.q.lock().unwrap_or_else(PoisonError::into_inner);
        q.push_back(task);
        d.len.store(q.len(), Ordering::Relaxed);
        drop(q);
        scheduler::note_task_pushed();
    }

    fn pop_own(&self, slot: usize) -> Option<Task> {
        let d = &self.deques[slot];
        if d.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut q = d.q.lock().unwrap_or_else(PoisonError::into_inner);
        let t = q.pop_back();
        d.len.store(q.len(), Ordering::Relaxed);
        drop(q);
        if t.is_some() {
            scheduler::note_tasks_taken(1);
        }
        t
    }

    /// One full victim scan from a random start. Steals the *front* of a
    /// victim's deque: its shallowest, biggest frozen subtree.
    fn try_steal(&self, thief: usize, rng: &mut u32) -> Option<Task> {
        let n = self.deques.len();
        let from = (xorshift(rng) as usize) % n;
        for k in 0..n {
            let v = (from + k) % n;
            if v == thief || self.deques[v].len.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let d = &self.deques[v];
            let mut q = d.q.lock().unwrap_or_else(PoisonError::into_inner);
            let t = q.pop_front();
            d.len.store(q.len(), Ordering::Relaxed);
            drop(q);
            if t.is_some() {
                scheduler::note_steal();
                scheduler::note_tasks_taken(1);
                return t;
            }
        }
        None
    }

    /// Books the completion of one claimed task. Claims don't change
    /// `open`; the decrement happens *after* execution so that
    /// `open == 0` really means "nothing left anywhere".
    fn finish_task(&self) {
        self.open.fetch_sub(1, Ordering::AcqRel);
    }

    fn done(&self) -> bool {
        self.open.load(Ordering::Acquire) == 0
    }

    /// Blocks (spinning with backoff) until this worker has a task, the
    /// run is complete, or a stop is raised. The spin must re-check the
    /// stop flag: the only worker holding work may be unwinding a cancel
    /// — or dead, with its panic fence having raised the stop.
    fn next_task(&self, slot: usize, rng: &mut u32) -> Option<Task> {
        let mut fails = 0u32;
        loop {
            if self.caps.should_stop() {
                return None;
            }
            if let Some(t) = self.pop_own(slot) {
                return Some(t);
            }
            if self.done() {
                return None;
            }
            if let Some(t) = self.try_steal(slot, rng) {
                return Some(t);
            }
            // Every deque empty but subtrees still executing: their
            // owners may donate again any moment. Yield first; back off
            // to a short sleep quickly — on an oversubscribed host a
            // spinning thief competes with the very owner it is waiting
            // on, so idle claimants must get off the core fast.
            scheduler::note_steal_failure();
            fails += 1;
            if fails > 8 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// A run that stops early (a match cap, a budget, a deadline or cancel, a
/// dead worker) leaves tasks in its deques; they leave the
/// `queue_depth` gauge with the run.
impl Drop for StealShared {
    fn drop(&mut self) {
        let left = self.deques.iter_mut().map(|d| d.q.get_mut().unwrap_or_else(PoisonError::into_inner).len()).sum();
        scheduler::note_tasks_taken(left);
    }
}

fn xorshift(state: &mut u32) -> u32 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    *state = x;
    x
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Folds the workers' exact local results into one [`EnumResult`].
/// Counters are sums (+1 for the depth-0 root call, which no task
/// executes but the serial recursion counts before fanning out). The
/// match stream is restored to the serial emission order by sorting on
/// the order-permuted mapping — the serial stream is lexicographic in
/// that key because every candidate list the engines iterate is
/// ascending — which makes find-all byte-identical without tracking
/// where each stolen fragment came from.
fn merge(
    parts: Vec<EnumResult>,
    caps: &SharedCaps,
    config: &EnumConfig,
    order: &[VertexId],
    start: Instant,
) -> EnumResult {
    let mut res =
        EnumResult { enumerations: 1, budget_exhausted: caps.budget_exhausted(), ..EnumResult::empty(start.elapsed()) };
    for mut part in parts {
        res.enumerations += part.enumerations;
        res.match_count += part.match_count;
        res.timed_out |= part.timed_out;
        res.budget_exhausted |= part.budget_exhausted;
        res.cancelled |= part.cancelled;
        res.matches.append(&mut part.matches);
    }
    res.match_count = res.match_count.min(config.max_matches);
    if config.store_matches {
        res.matches.sort_unstable_by(|a, b| {
            for &u in order {
                match a[u as usize].cmp(&b[u as usize]) {
                    std::cmp::Ordering::Equal => continue,
                    unequal => return unequal,
                }
            }
            std::cmp::Ordering::Equal
        });
        res.matches.truncate(res.match_count as usize);
    }
    res.elapsed = start.elapsed();
    res
}

/// Runs one enumeration: `engine` over `order`, serially or — when the
/// config asks for helpers and its token budget grants some — as a
/// work-stealing run in which every participant drives a clone of
/// `engine` through the same recursion. `start` is the caller's phase
/// clock, `num_data_vertices` sizes the injectivity bitmap, and
/// `root_slots` yields the root's full candidate slot list (only called
/// when a stealing run needs a root task). The public entry points have
/// already run the order/empty-candidate checks.
pub(crate) fn drive<'a, E: Engine<'a> + Clone + Sync>(
    engine: E,
    num_data_vertices: usize,
    order: &[VertexId],
    root_slots: impl FnOnce() -> Vec<u32>,
    config: EnumConfig,
    start: Instant,
) -> EnumResult {
    // Engine entry check: the deadline may have expired (or the cancel
    // flag risen) during the candidate-space build or backward-set
    // derivation that ran between the public entry check and this
    // dispatch — do zero enumeration work, and don't spin up workers that
    // would each burn a cadence window before noticing.
    if config.cancel_requested() {
        return EnumResult { cancelled: true, ..EnumResult::empty(start.elapsed()) };
    }
    // Helper tokens: `threads - 1` when no budget is attached, otherwise
    // whatever the budget can spare right now (the caller's own token is
    // its caller's business — see `EnumConfig::pool_tokens`). A budget
    // the root call alone exhausts never asks: serial stops right there,
    // whereas a stealing run books that call in the merge, unexecuted.
    let want = if config.max_enumerations <= 1 { 0 } else { config.threads.saturating_sub(1) };
    let granted = config.pool_tokens.map_or(want, |budget| budget.try_acquire(want));
    if granted == 0 {
        // Alone on the calling thread — a serial request, or a composed
        // load that already holds the whole budget: the recursion from
        // depth 0 with no shared state is the serial engine.
        let mut ctx = Ctx::new(engine, num_data_vertices, order, config, start, None);
        recurse(&mut ctx, 0);
        return ctx.into_result();
    }

    let shared = StealShared::new(granted + 1, &config);
    shared.donate(0, Task { depth: 0, path: Vec::new(), slots: root_slots() });
    let participate = |slot: usize| {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _gauge = gauge_enter();
            let mut ctx = Ctx::new(engine.clone(), num_data_vertices, order, config, start, Some((&shared, slot)));
            let mut rng = (slot as u32).wrapping_mul(0x9E37_79B9) | 1;
            loop {
                if shared.caps.should_stop() {
                    break;
                }
                // A stall here holds an idle claimant, never a claimed
                // task: peers keep draining every deque, so forward
                // progress must survive one slow worker (the chaos
                // sweeps assert exact counts).
                if let Some(f) = rlqvo_fault::failpoint!("enum.morsel.stall") {
                    f.sleep();
                }
                let Some(task) = shared.next_task(slot, &mut rng) else {
                    break;
                };
                let stop = run_task(&mut ctx, task);
                shared.finish_task();
                if stop {
                    break;
                }
            }
            ctx.into_result()
        }));
        if r.is_err() {
            // A dead worker's open subtrees would wedge its peers' steal
            // spins; the stop flag drains everyone first, then the caller
            // rethrows below.
            shared.caps.raise_stop();
        }
        r
    };
    // The helpers live for this run only; slot 0 is the calling thread.
    let results: Vec<std::thread::Result<EnumResult>> = std::thread::scope(|s| {
        let participate = &participate;
        let helpers: Vec<_> = (1..=granted).map(|slot| s.spawn(move || participate(slot))).collect();
        let mut results = vec![participate(0)];
        results.extend(helpers.into_iter().map(|h| h.join().and_then(|r| r)));
        results
    });
    if let Some(budget) = config.pool_tokens {
        budget.release(granted);
    }
    let parts = results.into_iter().collect::<std::thread::Result<Vec<_>>>().unwrap_or_else(|p| resume_unwind(p));
    merge(parts, &shared.caps, &config, order, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_caps_budget_has_at_least_semantics() {
        let cfg = EnumConfig { max_enumerations: 100, ..EnumConfig::find_all() };
        let caps = SharedCaps::new(&cfg);
        assert!(!caps.sync_enumerations(50), "under budget: keep going");
        assert!(!caps.budget_exhausted());
        assert!(caps.sync_enumerations(60), "1 + 50 + 60 >= 100: stop");
        assert!(caps.budget_exhausted());
        assert!(caps.should_stop());
    }

    #[test]
    fn shared_caps_match_cap_stops_at_the_cap() {
        let cfg = EnumConfig { max_matches: 2, ..EnumConfig::find_all() };
        let caps = SharedCaps::new(&cfg);
        assert!(!caps.note_match());
        assert!(caps.note_match(), "second match reaches the cap");
        assert!(caps.should_stop());
        assert!(!caps.budget_exhausted(), "match cap is not the enum budget");
    }

    #[test]
    fn find_all_caps_never_touch_the_stop_flag() {
        let caps = SharedCaps::new(&EnumConfig::find_all());
        for _ in 0..10 {
            assert!(!caps.note_match());
            assert!(!caps.sync_enumerations(1_000_000));
        }
        assert!(!caps.should_stop());
    }

    #[test]
    fn steal_shared_owner_pops_newest_thief_takes_oldest() {
        let s = StealShared::new(2, &EnumConfig::find_all());
        for depth in 0..3usize {
            s.donate(0, Task { depth, path: vec![0; depth], slots: vec![1, 2, 3] });
        }
        assert!(!s.done(), "three open tasks");
        let own = s.pop_own(0).expect("owner pops");
        assert_eq!(own.depth, 2, "owner takes the newest (deepest) task");
        let mut rng = 1u32;
        let stolen = s.try_steal(1, &mut rng).expect("thief steals");
        assert_eq!(stolen.depth, 0, "thief takes the oldest (shallowest) task");
        s.finish_task();
        s.finish_task();
        assert!(!s.done(), "one task still open");
        s.finish_task();
        assert!(s.done());
    }

    #[test]
    fn steal_shared_room_check_respects_the_cap() {
        let s = StealShared::new(1, &EnumConfig::find_all());
        for _ in 0..DEQUE_CAP {
            assert!(s.has_room(0));
            s.donate(0, Task { depth: 0, path: Vec::new(), slots: vec![0] });
        }
        assert!(!s.has_room(0), "full deque stops donations");
        s.pop_own(0).expect("still pops");
        assert!(s.has_room(0), "room returns as the deque drains");
    }

    /// Regression: the driver itself must reject a deadline that expired
    /// *after* the public entry check (e.g. during the candidate-space
    /// build) — previously each worker burned up to a full cadence window
    /// of recursion before noticing.
    #[test]
    fn engine_entries_reject_pre_expired_deadlines() {
        use crate::enumerate::{probe_from, space_from};
        use crate::filter::{CandidateFilter, LdfFilter};
        use rlqvo_graph::GraphBuilder;
        let mut qb = GraphBuilder::new(3);
        let (a, b, c) = (qb.add_vertex(0), qb.add_vertex(1), qb.add_vertex(2));
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        qb.add_edge(a, c);
        let q = qb.build();
        let mut gb = GraphBuilder::new(6);
        for _ in 0..2 {
            let (x, y, z) = (gb.add_vertex(0), gb.add_vertex(1), gb.add_vertex(2));
            gb.add_edge(x, y);
            gb.add_edge(y, z);
            gb.add_edge(x, z);
        }
        let g = gb.build();
        let cand = LdfFilter.filter(&q, &g);
        let cs = crate::CandidateSpace::build(&q, &g, &cand);
        let order: Vec<VertexId> = vec![0, 1, 2];
        let backward = crate::QueryAdjBits::build(&q).backward_sets(&order);
        for threads in [1usize, 4] {
            let cfg = EnumConfig::find_all().with_threads(threads).with_deadline(Instant::now());
            let res = space_from(&q, &cs, &order, cfg, Instant::now());
            assert!(res.cancelled, "space engine, {threads} threads");
            assert_eq!(res.enumerations, 0, "space engine must do zero work, {threads} threads");
            let res = probe_from(&g, &cand, &order, &backward, cfg, Instant::now());
            assert!(res.cancelled, "probe engine, {threads} threads");
            assert_eq!(res.enumerations, 0, "probe engine must do zero work, {threads} threads");
        }
    }

    #[test]
    fn peak_gauge_tracks_entries() {
        reset_peak_parallel_workers();
        let base = peak_parallel_workers();
        {
            let _a = gauge_enter();
            let _b = gauge_enter();
            assert!(peak_parallel_workers() >= base + 2);
        }
        reset_peak_parallel_workers();
        assert!(peak_parallel_workers() <= base + 2);
    }
}
