//! Work-stealing scheduler pins: the counters and the no-deadlock
//! guarantee that the oracle's byte-identity proptests cannot see.
//!
//! The workload is the adversarial case for the retired root-partitioned
//! morsel pool: a unique-labeled hub gives the query root exactly ONE
//! candidate, so any scheme that partitions work by root candidate
//! degenerates to a single busy worker and `threads - 1` idle ones. The
//! stealing scheduler must instead split the subtree *below* the root —
//! observable as `steals > 0` and a peak worker gauge equal to the
//! requested thread count.
//!
//! Scheduler counters and the peak gauge are process-global, so this is
//! a single-purpose test binary (CI runs it by name) and the tests
//! serialize on one mutex.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use rlqvo_graph::{Graph, GraphBuilder};
use rlqvo_matching::{
    enumerate, peak_parallel_workers, reset_peak_parallel_workers, reset_scheduler_counters, scheduler_stats,
    CandidateFilter, EnumConfig, EnumEngine, GqlFilter,
};

/// Serializes the tests in this binary: both read/reset the global
/// scheduler counters and the peak gauge.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Skewed-hub host: vertex 0 carries the unique label 0 and is adjacent
/// to all `n` spokes (label 1); spokes `v` and `v + step` are adjacent
/// for `step` in `1..=fan`, so the hub's subtree is wide and uneven.
fn skewed_hub(n: usize, fan: usize) -> Graph {
    let mut b = GraphBuilder::new(2);
    b.add_vertex(0);
    for _ in 0..n {
        b.add_vertex(1);
    }
    for v in 1..=n as u32 {
        b.add_edge(0, v);
    }
    for v in 1..n as u32 {
        for step in 1..=fan as u32 {
            if v + step <= n as u32 {
                b.add_edge(v, v + step);
            }
        }
    }
    b.build()
}

/// Triangle query rooted at the hub label: (0)-(1), (0)-(2), (1)-(2).
fn hub_triangle() -> Graph {
    let mut b = GraphBuilder::new(2);
    b.add_vertex(0);
    b.add_vertex(1);
    b.add_vertex(1);
    b.add_edge(0, 1);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.build()
}

/// On the single-root-candidate workload at `threads = 4`, the stealing
/// scheduler must (a) match serial counts exactly, (b) actually steal,
/// and (c) drive the peak worker gauge to 4 — the configuration where
/// the old root-partitioned pool pinned it at 1.
#[test]
fn stealing_fills_the_pool_where_root_partitioning_serialized() {
    let _guard = GLOBALS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let g = skewed_hub(20_000, 8);
    let q = hub_triangle();
    let cand = GqlFilter::default().filter(&q, &g);
    assert_eq!(cand.len_of(0), 1, "the hub must be the query root's only candidate");
    let order = vec![0u32, 1, 2];

    for engine in [EnumEngine::CandidateSpace, EnumEngine::Probe] {
        let cfg = EnumConfig::find_all().with_engine(engine);
        let serial = enumerate(&q, &g, &cand, &order, cfg.with_threads(1));
        assert!(serial.match_count > 10_000, "workload too small to exercise stealing");

        // Each helper is a thread spawned for this run, and one that
        // starts after the deques drain finds nothing to steal. Unslowed,
        // this enumeration ends in about a millisecond, a race a late
        // start loses on a loaded machine. A 1 ms delay per 1024-call
        // cadence window makes the run a third of a second of sleeps for
        // its workers to share — far past any spawn latency — and changes
        // no count.
        let fault = rlqvo_fault::arm_scoped("enum.delay=1ms@always", 1).unwrap();
        reset_scheduler_counters();
        reset_peak_parallel_workers();
        let par = enumerate(&q, &g, &cand, &order, cfg.with_threads(4));
        let (stats, peak) = (scheduler_stats(), peak_parallel_workers());
        assert!(
            rlqvo_fault::fired("enum.delay") >= serial.enumerations >> 11,
            "{}: the delay must slow the run",
            engine.name()
        );
        drop(fault);
        assert_eq!(par.match_count, serial.match_count, "{}", engine.name());
        assert_eq!(par.enumerations, serial.enumerations, "{}", engine.name());
        assert!(stats.tasks_spawned > 0, "{}: no subtree was ever donated", engine.name());
        assert!(stats.steals > 0, "{}: single-root workload ran without one steal", engine.name());
        assert_eq!(peak, 4, "{}: the steal run never reached 4 concurrent workers", engine.name());
    }
    assert_eq!(scheduler_stats().queue_depth, 0, "deques must drain to empty");
}

/// A worker stalled at the task-claim point (the `enum.morsel.stall`
/// failpoint) must never wedge the run: its peers keep draining every
/// deque, the stalled worker wakes to empty deques and exits, and the
/// merged counts stay exact. The run is driven from a watchdog thread so
/// a deadlock fails fast instead of hanging the suite.
#[test]
fn stall_failpoint_cannot_deadlock_the_steal_loop() {
    let _guard = GLOBALS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let g = skewed_hub(6_000, 6);
    let q = hub_triangle();
    let cand = GqlFilter::default().filter(&q, &g);
    let order = vec![0u32, 1, 2];
    let serial = enumerate(&q, &g, &cand, &order, EnumConfig::find_all().with_threads(1));

    let fault = rlqvo_fault::arm_scoped("enum.morsel.stall=2ms@1in3", 7).unwrap();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = {
        let done = std::sync::Arc::clone(&done);
        std::thread::spawn(move || {
            let g = skewed_hub(6_000, 6);
            let q = hub_triangle();
            let cand = GqlFilter::default().filter(&q, &g);
            let order = vec![0u32, 1, 2];
            let mut counts = Vec::new();
            for engine in [EnumEngine::CandidateSpace, EnumEngine::Probe] {
                let cfg = EnumConfig::find_all().with_engine(engine).with_threads(4);
                let r = enumerate(&q, &g, &cand, &order, cfg);
                counts.push((r.match_count, r.enumerations));
            }
            done.store(true, Ordering::Relaxed);
            let _ = tx.send(counts);
        })
    };
    let counts = rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("steal loop deadlocked under enum.morsel.stall (workers idle, deques non-empty)"));
    runner.join().unwrap();
    assert!(done.load(Ordering::Relaxed));
    assert!(rlqvo_fault::fired("enum.morsel.stall") > 0, "the stall failpoint never fired");
    drop(fault);
    for (match_count, enumerations) in counts {
        assert_eq!(match_count, serial.match_count);
        assert_eq!(enumerations, serial.enumerations);
    }
}

/// A 4-worker run that stops early — at a match cap, at a deadline, or
/// because a worker died — leaves open subtrees in its deques. They leave
/// the `queue_depth` gauge with the run, so serve's `metrics` reports the
/// tasks queued now, not every task any early stop ever stranded.
#[test]
fn queue_depth_returns_to_its_pre_run_value_after_early_stops() {
    let _guard = GLOBALS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let g = skewed_hub(3_000, 8);
    let q = hub_triangle();
    let cand = GqlFilter::default().filter(&q, &g);
    let order = vec![0u32, 1, 2];
    let cfg = EnumConfig::find_all().with_threads(4);
    let before = scheduler_stats();

    for _ in 0..50 {
        let r = enumerate(&q, &g, &cand, &order, EnumConfig { max_matches: 10, ..cfg });
        assert_eq!(r.match_count, 10);
    }
    let capped = scheduler_stats();
    assert!(capped.tasks_spawned > before.tasks_spawned, "the capped runs never donated");
    assert_eq!(capped.queue_depth, before.queue_depth, "capped runs left tasks in the gauge");

    // A 1 ms delay per cadence window keeps the run going far past its
    // 5 ms deadline.
    let fault = rlqvo_fault::arm_scoped("enum.delay=1ms@always", 1).unwrap();
    let r = enumerate(&q, &g, &cand, &order, cfg.with_deadline(std::time::Instant::now() + Duration::from_millis(5)));
    drop(fault);
    assert!(r.cancelled, "the deadline must stop the run");
    assert_eq!(scheduler_stats().queue_depth, before.queue_depth, "a cancelled run left tasks in the gauge");

    // The same delay holds the dying worker for a millisecond, so its
    // peers stop with tasks still queued.
    let fault = rlqvo_fault::arm_scoped("enum.delay=1ms@always;enum.panic=once", 1).unwrap();
    let outcome = std::panic::catch_unwind(|| enumerate(&q, &g, &cand, &order, cfg));
    drop(fault);
    assert!(outcome.is_err(), "the armed run must panic");
    assert_eq!(scheduler_stats().queue_depth, before.queue_depth, "a panicked run left tasks in the gauge");
}
