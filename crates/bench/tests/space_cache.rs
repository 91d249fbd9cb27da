//! Acceptance guard for cross-round amortization: a Fig. 11-style cap
//! sweep through [`run_methods`] on caller-owned caches performs exactly **one filter
//! pass and one `CandidateSpace::build` per (query, filter) key across
//! all caps** — and distinct filter semantics (`GQL/r1` vs `GQL/r2`)
//! never collide in the cache.
//!
//! Lives in its own integration-test binary because the build counter is
//! process-global and concurrent tests would make exact-delta assertions
//! flaky. Keep this file to a single `#[test]`.

use rlqvo_bench::{run_methods, Caches};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_matching::{CandidateFilter, CandidateSpace, EnumConfig, GqlFilter, LdfFilter, Method, SpaceCache};

#[test]
fn cap_sweep_filters_and_builds_once_per_query_filter_key() {
    let g = Dataset::Yeast.load_scaled(500);
    let set = build_query_set(&g, 6, 4, 7);

    // Four methods over three distinct filter *semantics*: two GQL
    // configurations that must not share entries, one of them also shared
    // by a second method (Hybrid's stack), plus LDF.
    let [hybrid, gql, qsi] = ["hybrid", "gql", "qsi"].map(|name| Method::by_cli_name(name).expect("a roster name"));
    let methods = [Method { name: "GQL-r1", filter: &GqlFilter { refinement_rounds: 1 }, ..gql }, hybrid, gql, qsi];
    let filters: [&dyn CandidateFilter; 3] = [&GqlFilter { refinement_rounds: 1 }, &GqlFilter::default(), &LdfFilter];
    let distinct_keys = filters.len();

    // A build only happens for keys whose candidate sets are non-empty
    // (complete filters prove emptiness without a space).
    let expected_builds: u64 =
        set.queries.iter().map(|q| filters.iter().filter(|f| !f.filter(q, &g).any_empty()).count() as u64).sum();
    assert!(expected_builds > 0, "fixture must build at least one space");

    let caps = [3u64, 50, u64::MAX];
    let cache = SpaceCache::new();
    let before = CandidateSpace::build_count();
    let mut final_matches: Option<Vec<u64>> = None;
    for cap in caps {
        let config = EnumConfig { max_matches: cap, ..EnumConfig::find_all() };
        let stats = run_methods(&g, &set.queries, &methods, config, 2, Caches::Shared { spaces: &cache });
        // Methods sharing a filter key agree on candidates, and at
        // find-all every method agrees on match counts.
        if cap == u64::MAX {
            let first = &stats[0];
            for s in &stats[1..] {
                assert_eq!(s.matches, first.matches, "{} diverges at find-all", s.name);
            }
            final_matches = Some(first.matches.clone());
        }
    }
    assert!(final_matches.is_some());

    // Exactly one build per non-empty (query, filter) key for the WHOLE
    // sweep — not one per cap, not one per method.
    let builds = CandidateSpace::build_count() - before;
    assert_eq!(builds, expected_builds, "cap sweep must build once per (query, filter) key");

    // Exactly one filter pass per (query, filter) key; every later round
    // is a hit. Distinct semantics occupy distinct entries: GQL/r1 and
    // GQL/r2 never collide, so the cache holds queries x 3 keys.
    let keys = (set.queries.len() * distinct_keys) as u64;
    assert_eq!(cache.misses(), keys, "one filter pass per key across all caps");
    assert_eq!(cache.hits(), keys * (caps.len() as u64 - 1), "rounds 2+ are pure hits");
    assert_eq!(cache.len(), keys as usize, "GQL/r1 and GQL/r2 must not share entries");
}
