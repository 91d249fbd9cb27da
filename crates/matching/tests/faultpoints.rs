//! Cache corruption/poison/oversize contracts, driven through the
//! `rlqvo_fault` failpoint registry (ISSUE 9: the bespoke
//! `*_for_test` hooks are gone — the registry is the only injection
//! mechanism).
//!
//! Lives in its own binary, run by explicit name in CI: the registry is
//! process-global, so an armed schedule must never share a process with
//! unrelated tests. `arm_scoped` serializes only the *armed windows*: the
//! un-armed fills and post-`drop(guard)` lookups of one test would still
//! evaluate `cache.*` sites while another test's `once` schedule is armed,
//! and spend its fire. So every test holds `GLOBALS` for its whole body.
//!
//! Every cache hit is verified, in every build profile, so the corruption
//! fires are observed on the very next lookup — CI runs this binary under
//! `--release` too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rlqvo_graph::{Graph, GraphBuilder};
use rlqvo_matching::order::{OrderingMethod, RiOrdering};
use rlqvo_matching::{CandidateFilter, LdfFilter, OrderCache, OrderEntry, QueryKey, SpaceCache, SpaceEntry};

/// Serializes the tests in this binary, armed or not: each evaluates
/// failpoint sites of the one process-global registry.
static GLOBALS: Mutex<()> = Mutex::new(());

fn globals() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn space_lookup(cache: &SpaceCache, q: &Graph, g: &Graph) -> (Arc<SpaceEntry>, bool) {
    cache.entry_keyed(&QueryKey::of(q), q, g, &LdfFilter)
}

fn order_lookup(cache: &OrderCache, q: &Graph, g: &Graph) -> (Arc<OrderEntry>, bool) {
    let cand = LdfFilter.filter(q, g);
    cache.get_or_compute_keyed(&QueryKey::of(q), "RI", q, || RiOrdering.order(q, g, &cand))
}

fn case() -> (Graph, Graph) {
    let mut qb = GraphBuilder::new(2);
    let a = qb.add_vertex(0);
    let b = qb.add_vertex(1);
    let c = qb.add_vertex(0);
    qb.add_edge(a, b);
    qb.add_edge(b, c);
    let q = qb.build();
    let mut gb = GraphBuilder::new(2);
    for i in 0..8u32 {
        gb.add_vertex(i % 2);
    }
    for i in 0..8u32 {
        gb.add_edge(i, (i + 1) % 8);
    }
    (q, gb.build())
}

/// A second query for `case()`'s host: its path with the labels swapped.
fn other_query() -> Graph {
    let mut qb = GraphBuilder::new(2);
    let a = qb.add_vertex(1);
    let b = qb.add_vertex(0);
    let c = qb.add_vertex(1);
    qb.add_edge(a, b);
    qb.add_edge(b, c);
    qb.build()
}

#[test]
fn corrupted_space_checksum_degrades_to_a_counted_refilter() {
    let _globals = globals();
    let (q, g) = case();
    let cache = SpaceCache::new();
    let (bad, fresh) = space_lookup(&cache, &q, &g);
    assert!(fresh);
    // Armed *after* the fill: the first verified hit fires once,
    // flipping the resident's checksum right before the comparison.
    let guard = rlqvo_fault::arm_scoped("cache.checksum_corrupt=once", 1).unwrap();
    let (good, fresh) = space_lookup(&cache, &q, &g);
    assert_eq!(rlqvo_fault::fired("cache.checksum_corrupt"), 1);
    assert!(fresh, "the corrupted resident must be replaced, not served");
    assert!(!Arc::ptr_eq(&bad, &good), "degrade produces a new entry");
    assert!(good.verify_checksum(&q), "the replacement is trustworthy");
    assert_eq!(cache.checksum_failures(), 1);
    assert_eq!(cache.evictions(), 1, "the corrupted entry was evicted, not leaked");
    // Steady state again: the replacement serves hits (the `once`
    // trigger is spent, so the verify passes).
    let (again, fresh) = space_lookup(&cache, &q, &g);
    assert!(!fresh);
    assert!(Arc::ptr_eq(&good, &again));
    assert_eq!(cache.checksum_failures(), 1, "one fire, one degrade");
    drop(guard);
}

#[test]
fn corrupted_order_checksum_degrades_to_a_counted_recompute() {
    let _globals = globals();
    let (q, g) = case();
    let cand = LdfFilter.filter(&q, &g);
    let cache = OrderCache::new();
    let (bad, _) = order_lookup(&cache, &q, &g);
    let guard = rlqvo_fault::arm_scoped("cache.checksum_corrupt=once", 1).unwrap();
    let mut recomputed = false;
    let (good, fresh) = cache.get_or_compute_keyed(&QueryKey::of(&q), "RI", &q, || {
        recomputed = true;
        RiOrdering.order(&q, &g, &cand)
    });
    assert!(fresh && recomputed, "degrade recomputes the order");
    assert!(!Arc::ptr_eq(&bad, &good));
    assert!(good.verify_checksum(&q));
    assert_eq!(cache.checksum_failures(), 1);
    assert_eq!(cache.evictions(), 1);
    drop(guard);
    let (_, fresh2) = order_lookup(&cache, &q, &g);
    assert!(!fresh2, "resident again");
}

#[test]
fn poisoned_space_cache_recovers_and_refilters() {
    let _globals = globals();
    let (q, g) = case();
    let q2 = other_query();
    let cache = SpaceCache::new();
    space_lookup(&cache, &q, &g);
    space_lookup(&cache, &q2, &g);
    assert_eq!(cache.len(), 2);
    // The fire dies while holding the cache lock — the
    // worker-died-mid-operation scenario, reached through the real lookup
    // path.
    let guard = rlqvo_fault::arm_scoped("cache.lock.poison=once", 1).unwrap();
    let poisoned = catch_unwind(AssertUnwindSafe(|| space_lookup(&cache, &q, &g)));
    assert!(poisoned.is_err(), "the armed lookup must die holding the cache lock");
    drop(guard);
    // The next lock recovers the cache: every resident is dropped (as if
    // evicted), so both keys refilter.
    let (e, fresh) = space_lookup(&cache, &q, &g);
    assert!(fresh, "recovered cache starts empty");
    assert!(!e.cand().any_empty());
    let (e2, fresh2) = space_lookup(&cache, &q2, &g);
    assert!(fresh2, "recovery drops every resident, not only the key that died");
    assert_eq!(cache.poison_recoveries(), 1);
    assert_eq!(cache.len(), 2);
    assert_eq!(
        cache.storage_bytes(),
        e.resident_bytes() + e2.resident_bytes(),
        "recovery refunds every charged byte, and the refills are charged again"
    );
    // And the cache keeps serving afterwards.
    let (_, fresh3) = space_lookup(&cache, &q, &g);
    assert!(!fresh3);
}

#[test]
fn poisoned_order_cache_recovers_and_recomputes() {
    let _globals = globals();
    let (q, g) = case();
    let cache = OrderCache::new();
    order_lookup(&cache, &q, &g);
    let guard = rlqvo_fault::arm_scoped("cache.lock.poison=once", 1).unwrap();
    let poisoned = catch_unwind(AssertUnwindSafe(|| order_lookup(&cache, &q, &g)));
    assert!(poisoned.is_err());
    drop(guard);
    let (e, fresh) = order_lookup(&cache, &q, &g);
    assert!(fresh, "recovered cache starts empty");
    assert_eq!(e.order().len(), 3);
    assert_eq!(cache.poison_recoveries(), 1);
    let (_, fresh2) = order_lookup(&cache, &q, &g);
    assert!(!fresh2, "the cache keeps serving after recovery");
}

#[test]
fn oversize_failpoint_forces_admit_uncached_on_an_unbounded_cache() {
    let _globals = globals();
    let (q, g) = case();
    let cache = SpaceCache::new();
    let guard = rlqvo_fault::arm_scoped("cache.oversize=times(2)", 1).unwrap();
    // Both fires serve standalone: never resident, no bytes charged —
    // the admit-uncached contract without needing a byte bound.
    let (e1, f1) = space_lookup(&cache, &q, &g);
    let (e2, f2) = space_lookup(&cache, &q, &g);
    assert!(f1 && f2, "oversize serves are standalone misses");
    assert!(!Arc::ptr_eq(&e1, &e2));
    assert_eq!(cache.len(), 0, "never resident");
    assert_eq!(cache.storage_bytes(), 0);
    assert_eq!(cache.oversize_serves(), 2);
    drop(guard);
    // Trigger spent: the next lookup is an ordinary resident fill.
    let (_, f3) = space_lookup(&cache, &q, &g);
    assert!(f3);
    assert_eq!(cache.len(), 1);
}

/// The panic reaches the caller wherever it fires: on the calling thread
/// of a serial run, or on any participant of a stealing run, whose
/// helpers are scoped threads of that one run. Each armed run is driven
/// from a watchdog thread so a wedged steal loop fails fast.
#[test]
fn enum_panic_failpoint_kills_a_run_on_the_cadence() {
    let _globals = globals();
    // A query/host pair big enough to cross the 1024-call cadence, with a
    // root candidate list longer than the steal granularity (64), so a
    // stealing run splits it between its workers.
    let mut qb = GraphBuilder::new(1);
    let a = qb.add_vertex(0);
    let b = qb.add_vertex(0);
    let c = qb.add_vertex(0);
    qb.add_edge(a, b);
    qb.add_edge(b, c);
    let q = Arc::new(qb.build());
    let mut gb = GraphBuilder::new(1);
    for _ in 0..80u32 {
        gb.add_vertex(0);
    }
    for i in 0..80u32 {
        for j in (i + 1)..80u32 {
            gb.add_edge(i, j);
        }
    }
    let g = Arc::new(gb.build());
    let cand = Arc::new(LdfFilter.filter(&q, &g));
    let order = Arc::new(RiOrdering.order(&q, &g, &cand));
    for threads in [1usize, 2, 4] {
        let config = rlqvo_matching::EnumConfig { max_matches: u64::MAX, ..rlqvo_matching::EnumConfig::default() }
            .with_threads(threads);
        let run = || rlqvo_matching::enumerate(&q, &g, &cand, &order, config);
        // Unarmed: the run completes.
        let clean = run();
        assert!(clean.match_count > 0);
        assert!(clean.enumerations > 1024, "fixture must cross the failpoint cadence");
        // Armed: the first cadence window after 1024 calls dies.
        let guard = rlqvo_fault::arm_scoped("enum.panic=once", 1).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = {
            let (q, g, cand, order) = (Arc::clone(&q), Arc::clone(&g), Arc::clone(&cand), Arc::clone(&order));
            std::thread::spawn(move || {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| rlqvo_matching::enumerate(&q, &g, &cand, &order, config)));
                let _ = tx.send(outcome.err().map(|p| p.downcast_ref::<&str>().map(|m| m.to_string())));
            })
        };
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{threads} threads: the armed run hung"));
        runner.join().unwrap();
        let payload = payload.unwrap_or_else(|| panic!("{threads} threads: the armed cadence must panic"));
        assert_eq!(
            payload.as_deref(),
            Some("failpoint enum.panic: dying mid-enumeration"),
            "{threads} threads: the failpoint's own payload reaches the caller"
        );
        assert_eq!(rlqvo_fault::fired("enum.panic"), 1, "{threads} threads");
        drop(guard);
        // Every worker's gauge guard was dropped: nothing still counts as
        // running once the peak is reset to the active count.
        rlqvo_matching::reset_peak_parallel_workers();
        assert_eq!(rlqvo_matching::peak_parallel_workers(), 0, "{threads} threads: a worker gauge leaked");
        // Disarmed again: identical counts to the clean run (the failpoint
        // leaves no residue in the engine).
        let again = run();
        assert_eq!(again.match_count, clean.match_count, "{threads} threads");
        assert_eq!(again.enumerations, clean.enumerations, "{threads} threads");
    }
}

/// Leaf calls are counted by addition, never across a cadence boundary:
/// the failpoints of a leaf-dominated run are evaluated where they always
/// were, once per 1024 calls, so a chaos schedule replays unchanged.
#[test]
fn enum_delay_failpoint_fires_once_per_1024_calls_of_a_leaf_dominated_run() {
    let _globals = globals();
    // `fired` counts the whole process: nothing else in it may enumerate
    // while this schedule is armed, which `GLOBALS` sees to.
    // A 3-path in K24, one label: 1 + 24 + 24·23 + 24·23·22 calls, of
    // which the last term are leaves.
    let mut qb = GraphBuilder::new(1);
    let path = [qb.add_vertex(0), qb.add_vertex(0), qb.add_vertex(0)];
    qb.add_edge(path[0], path[1]);
    qb.add_edge(path[1], path[2]);
    let q = qb.build();
    let mut gb = GraphBuilder::new(1);
    for _ in 0..24u32 {
        gb.add_vertex(0);
    }
    for i in 0..24u32 {
        for j in (i + 1)..24u32 {
            gb.add_edge(i, j);
        }
    }
    let g = gb.build();
    let cand = LdfFilter.filter(&q, &g);
    for engine in [rlqvo_matching::EnumEngine::Probe, rlqvo_matching::EnumEngine::CandidateSpace] {
        let config = rlqvo_matching::EnumConfig::find_all().with_engine(engine).with_threads(1);
        let guard = rlqvo_fault::arm_scoped("enum.delay=1us@always", 1).unwrap();
        let res = rlqvo_matching::enumerate(&q, &g, &cand, &path, config);
        assert_eq!(res.enumerations, 1 + 24 + 24 * 23 + 24 * 23 * 22, "{engine:?}");
        assert_eq!(res.match_count, 24 * 23 * 22, "{engine:?}");
        assert_eq!(rlqvo_fault::fired("enum.delay"), res.enumerations >> 10, "{engine:?}");
        drop(guard);
    }
}

/// Calls booked by product in an independent suffix never cross the
/// cadence either: a run made almost wholly of them evaluates the
/// failpoints once per 1024 calls.
#[test]
fn enum_delay_failpoint_fires_once_per_1024_calls_of_a_suffix_dominated_run() {
    let _globals = globals();
    // A star, its hub first, four leaves of distinct labels, against a hub
    // with twelve neighbours of each: every leaf is in the suffix, and each
    // child of the first leaf has a subtree of 1 + 12·(1 + 12·(1 + 12))
    // calls, so booking descends into it across the cadence.
    let mut qb = GraphBuilder::new(5);
    let hub = qb.add_vertex(0);
    for label in 1..5 {
        let leaf = qb.add_vertex(label);
        qb.add_edge(hub, leaf);
    }
    let q = qb.build();
    let mut gb = GraphBuilder::new(5);
    let centre = gb.add_vertex(0);
    for label in 1..5 {
        for _ in 0..12 {
            let v = gb.add_vertex(label);
            gb.add_edge(centre, v);
        }
    }
    let g = gb.build();
    let cand = LdfFilter.filter(&q, &g);
    for engine in [rlqvo_matching::EnumEngine::Probe, rlqvo_matching::EnumEngine::CandidateSpace] {
        let config = rlqvo_matching::EnumConfig::find_all().with_engine(engine).with_threads(1);
        let guard = rlqvo_fault::arm_scoped("enum.delay=1us@always", 1).unwrap();
        let before = rlqvo_matching::suffix_paths();
        let res = rlqvo_matching::enumerate(&q, &g, &cand, &[0, 1, 2, 3, 4], config);
        let paths = rlqvo_matching::suffix_paths() - before;
        assert!(paths.counted > 0 && paths.descended >= 12, "{engine:?}: {paths:?}");
        assert_eq!(res.enumerations, 2 + 12 * (1 + 12 * (1 + 12 * (1 + 12))), "{engine:?}");
        assert_eq!(res.match_count, 12u64.pow(4), "{engine:?}");
        assert_eq!(rlqvo_fault::fired("enum.delay"), res.enumerations >> 10, "{engine:?}");
        drop(guard);
    }
}
