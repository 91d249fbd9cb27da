//! Amortization regression guard: the build-once/enumerate-many contract
//! of `run_in_entry` / `run_cached` must never trigger a second
//! `CandidateSpace::build` for the same (query, data) pair.
//!
//! This lives in its own integration-test binary on purpose: the build
//! counter is process-global, and any other test building spaces
//! concurrently would make exact-delta assertions flaky. Keep this file
//! to a single `#[test]`.

use rlqvo_matching::order::{GqlOrdering, QsiOrdering, RiOrdering, Vf2ppOrdering};
use rlqvo_matching::{
    enumerate_in_space, run_cached, run_in_entry, CandidateSpace, EnumConfig, EnumEngine, GqlFilter, OrderCache,
    OrderingMethod, Pipeline, QueryKey, SpaceCache,
};

#[test]
fn prebuilt_space_is_built_exactly_once_across_all_orders() {
    let mut qb = rlqvo_graph::GraphBuilder::new(2);
    let a = qb.add_vertex(0);
    let b = qb.add_vertex(1);
    let c = qb.add_vertex(0);
    let d = qb.add_vertex(1);
    qb.add_edge(a, b);
    qb.add_edge(b, c);
    qb.add_edge(c, d);
    qb.add_edge(a, d);
    let q = qb.build();
    let mut gb = rlqvo_graph::GraphBuilder::new(2);
    for i in 0..30u32 {
        gb.add_vertex(i % 2);
    }
    for i in 0..30u32 {
        for j in (i + 1)..30u32.min(i + 4) {
            gb.add_edge(i, j);
        }
    }
    let g = gb.build();

    let filter = GqlFilter::default();
    let cache = SpaceCache::new();
    let key = QueryKey::of(&q);
    // One build, by the lookup that filters…
    let before = CandidateSpace::build_count();
    let (entry, _) = cache.entry_keyed(&key, &q, &g, &filter);
    assert!(!entry.cand().any_empty(), "fixture must have candidates");
    assert_eq!(CandidateSpace::build_count(), before + 1);
    let pipeline =
        |ordering, engine| Pipeline { filter: &filter, ordering, config: EnumConfig::find_all().with_engine(engine) };
    let first = run_in_entry(&q, &g, &entry, &pipeline(&RiOrdering, EnumEngine::CandidateSpace), None).0;
    assert_eq!(CandidateSpace::build_count(), before + 1, "run_in_entry never builds");

    // …then every compared order enumerates in it without rebuilding:
    // the Fig. 5/6 pattern (N orderings, one (query, data) pair).
    let orderings: Vec<Box<dyn OrderingMethod>> =
        vec![Box::new(RiOrdering), Box::new(QsiOrdering), Box::new(Vf2ppOrdering), Box::new(GqlOrdering)];
    let mut counts = vec![first.enum_result.match_count];
    for o in &orderings {
        let r = run_in_entry(&q, &g, &entry, &pipeline(o.as_ref(), EnumEngine::CandidateSpace), None).0;
        counts.push(r.enum_result.match_count);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "orders must agree: {counts:?}");
    assert_eq!(CandidateSpace::build_count(), before + 1, "run_in_entry must never rebuild");

    // The raw entry point is equally clean…
    let direct = enumerate_in_space(&q, entry.space().expect("built"), &[0, 1, 2, 3], EnumConfig::find_all());
    assert_eq!(direct.match_count, counts[0]);
    assert_eq!(CandidateSpace::build_count(), before + 1);

    // …and so is the whole warm path, lookups included: replayed rounds
    // are served the resident entry, whatever the engine.
    let orders = OrderCache::new();
    for engine in [EnumEngine::Auto, EnumEngine::Probe, EnumEngine::CandidateSpace] {
        for _round in 0..2 {
            let (r, hit_space, _) = run_cached(&q, &g, &pipeline(&RiOrdering, engine), &key, &cache, Some(&orders));
            assert!(hit_space, "{}", engine.name());
            assert_eq!(r.enum_result.match_count, counts[0], "{}", engine.name());
        }
    }
    assert_eq!(CandidateSpace::build_count(), before + 1, "no engine may rebuild behind run_cached");
}
