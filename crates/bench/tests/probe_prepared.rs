//! Acceptance guard for the probe fallback of the shared harness: the
//! backward-neighbour precomputation ([`QueryAdjBits`]) is built **once
//! per query** — shared by every compared order, every filter group, and
//! every round of a sweep — never recomputed per order (the ROADMAP open
//! item this pins down).
//!
//! Lives in its own integration-test binary because the adjacency build
//! counter is process-global and concurrent tests would make exact-delta
//! assertions flaky. Keep this file to a single `#[test]`.

use rlqvo_bench::{baseline_methods, run_methods, Caches};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_matching::{EnumConfig, EnumEngine, QueryAdjBits, SpaceCache};

#[test]
fn probe_fallback_builds_the_backward_precomputation_once_per_query() {
    let g = Dataset::Citeseer.load_scaled(700);
    let set = build_query_set(&g, 5, 5, 13);
    let methods = baseline_methods();
    assert!(methods.len() >= 4, "roster must compare enough orders to make per-order rebuilds visible");

    let probe_cfg = EnumConfig::find_all().with_engine(EnumEngine::Probe);
    let cache = SpaceCache::new();
    let before = QueryAdjBits::build_count();
    let round1 = run_methods(&g, &set.queries, &methods, probe_cfg, 2, Caches::Shared { spaces: &cache, orders: None });
    let after_round1 = QueryAdjBits::build_count() - before;
    assert_eq!(
        after_round1,
        set.queries.len() as u64,
        "one QueryAdjBits per query across {} methods and {} filter groups — never one per order",
        methods.len(),
        3
    );

    // A replay round reuses the cached cells: zero additional builds.
    let round2 = run_methods(&g, &set.queries, &methods, probe_cfg, 2, Caches::Shared { spaces: &cache, orders: None });
    assert_eq!(
        QueryAdjBits::build_count() - before,
        set.queries.len() as u64,
        "round 2 must not rebuild the precomputation"
    );

    // The shared precomputation changes nothing observable: both probe
    // rounds agree with each other and with the candspace engine.
    let reference = run_methods(&g, &set.queries, &methods, EnumConfig::find_all(), 2, Caches::Local);
    for ((a, b), r) in round1.iter().zip(&round2).zip(&reference) {
        assert_eq!(a.matches, b.matches, "{} diverges between probe rounds", a.name);
        assert_eq!(a.matches, r.matches, "{} probe diverges from candspace", a.name);
        assert_eq!(a.enumerations, r.enumerations, "{} #enum diverges from candspace", a.name);
    }
}
