//! Acceptance guard for the amortized figure harness: a shared-space
//! evaluation performs exactly one `CandidateSpace::build` per
//! (query, filter group) across all compared orders.
//!
//! Lives in its own integration-test binary because the build counter is
//! process-global and concurrent tests would make exact-delta assertions
//! flaky. Keep this file to a single `#[test]`.

use rlqvo_bench::{run_methods, Caches};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_matching::{CandidateSpace, EnumConfig, ROSTER};

#[test]
fn fig_harness_builds_each_space_exactly_once() {
    let g = Dataset::Yeast.load_scaled(500);
    let set = build_query_set(&g, 6, 4, 7);
    let methods = ROSTER;
    // The paper roster spans three distinct filters (GQL, LDF, NLF); the
    // seven methods would pay seven builds per query unamortized.
    let distinct_filters = {
        let mut names: Vec<&str> = methods.iter().map(|m| m.filter.name()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    };
    assert!(distinct_filters >= 2, "roster must exercise grouping");
    assert!(methods.len() > distinct_filters, "some group must share a space");

    let before = CandidateSpace::build_count();
    let stats = run_methods(&g, &set.queries, &methods, EnumConfig::find_all(), 1, Caches::Local);
    let builds = CandidateSpace::build_count() - before;
    assert_eq!(
        builds,
        (set.queries.len() * distinct_filters) as u64,
        "exactly one build per (query, filter group), never one per order"
    );

    // Sanity: the amortized run still produces order-invariant matches.
    let first = &stats[0];
    for s in &stats[1..] {
        assert_eq!(s.matches, first.matches, "{} diverges", s.name);
    }
}
