//! Acceptance guard for the intra-query parallel path and the bounded
//! cache, in one single-test binary (the worker gauge and build counter
//! are process-global, so concurrent tests would make the exact
//! assertions flaky — same discipline as `amortized.rs`):
//!
//! 1. **No oversubscription**: composing the query-parallel harness with
//!    intra-query enumeration workers never exceeds the configured total
//!    thread budget — including when `config.threads` alone exceeds the
//!    budget (the harness clamps it).
//! 2. **Auto gating**: a tiny yeast-style capped workload resolves to one
//!    worker however many threads are requested, and running it through
//!    the Auto engine spawns no workers at all.
//! 3. **Bounded cache**: a distinct-query flood through a
//!    byte-bounded [`SpaceCache`] never exceeds the bound (each entry
//!    charged with its space), evicts, rebuilds an evicted key exactly
//!    once, and serves every *resident* key with exactly one filter pass
//!    and one `CandidateSpace::build` however many rounds replay it.

use rlqvo_bench::{run_methods, Caches};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_graph::GraphBuilder;
use rlqvo_matching::order::RiOrdering;
use rlqvo_matching::{
    peak_parallel_workers, reset_peak_parallel_workers, CandidateSpace, EnumConfig, EnumEngine, GqlFilter, LdfFilter,
    Method, QueryKey, SpaceCache,
};

/// Structurally distinct label-shifted paths (see the fingerprint: labels
/// + edges), sized to produce non-trivial candidate sets on the host.
fn distinct_query(i: u32) -> rlqvo_graph::Graph {
    let mut qb = GraphBuilder::new(64);
    let n = 3 + i / 64;
    let mut prev = qb.add_vertex(i % 64);
    for j in 1..n {
        let v = qb.add_vertex((i + j) % 64);
        qb.add_edge(prev, v);
        prev = v;
    }
    qb.build()
}

fn flood_host() -> rlqvo_graph::Graph {
    let mut gb = GraphBuilder::new(64);
    for i in 0..256u32 {
        gb.add_vertex(i % 64);
    }
    for i in 0..256u32 {
        gb.add_edge(i, (i + 1) % 256);
        gb.add_edge(i, (i + 2) % 256);
    }
    gb.build()
}

#[test]
fn parallel_budget_and_bounded_cache_hold() {
    let g = Dataset::Yeast.load_scaled(500);
    let set = build_query_set(&g, 6, 4, 11);
    let methods = ["hybrid", "gql"].map(|name| Method::by_cli_name(name).expect("a roster name"));

    // --- 1a. config.threads above the budget is clamped to it. ---------
    reset_peak_parallel_workers();
    let base = peak_parallel_workers();
    let cfg8 = EnumConfig::find_all().with_threads(8);
    let clamped = run_methods(&g, &set.queries, &methods, cfg8, 2, Caches::Local);
    assert!(
        peak_parallel_workers() <= base.max(2),
        "budget 2 with 8 requested enum workers oversubscribed: peak {}",
        peak_parallel_workers()
    );

    // --- 1b. query workers × enum workers stays within the budget. -----
    reset_peak_parallel_workers();
    let base = peak_parallel_workers();
    let cfg2 = EnumConfig::find_all().with_threads(2);
    let composed = run_methods(&g, &set.queries, &methods, cfg2, 4, Caches::Local);
    let peak = peak_parallel_workers();
    assert!(peak <= base.max(4), "budget 4 (2 query workers x 2 enum workers) oversubscribed: peak {peak}");

    // Parallel find-all must not change any reported number.
    let serial = run_methods(&g, &set.queries, &methods, EnumConfig::find_all().with_threads(1), 1, Caches::Local);
    for ((c, p), s) in clamped.iter().zip(&composed).zip(&serial) {
        assert_eq!(c.matches, s.matches, "{} match counts diverge under clamped parallelism", s.name);
        assert_eq!(p.matches, s.matches, "{} match counts diverge under composed parallelism", s.name);
        assert_eq!(c.enumerations, s.enumerations, "{} #enum diverges under clamped parallelism", s.name);
        assert_eq!(p.enumerations, s.enumerations, "{} #enum diverges under composed parallelism", s.name);
    }

    // --- 2. Auto refuses to parallelize tiny yeast-style workloads. ----
    let q = &set.queries[0];
    let cand = rlqvo_matching::CandidateFilter::filter(&GqlFilter::default(), q, &g);
    // The yeast-first-1k shape: a 1000-match cap over a small query.
    let tiny =
        EnumConfig { max_matches: 1_000, ..EnumConfig::find_all() }.with_engine(EnumEngine::Auto).with_threads(4);
    let resolved = tiny.resolved(q);
    assert_eq!(
        (resolved.engine, resolved.threads),
        (EnumEngine::CandidateSpace, 1),
        "tiny capped workload must stay serial"
    );
    reset_peak_parallel_workers();
    let before = peak_parallel_workers();
    let order = rlqvo_matching::order::OrderingMethod::order(&RiOrdering, q, &g, &cand);
    let res = rlqvo_matching::enumerate(q, &g, &cand, &order, tiny);
    assert!(res.match_count > 0);
    assert_eq!(peak_parallel_workers(), before, "gated Auto run must spawn no enumeration workers");

    // --- 3. Bounded cache under a distinct-query flood. ----------------
    let host = flood_host();
    // Size the bound from a real built entry: room for ~12 of them.
    let probe_cache = SpaceCache::new();
    let q0 = distinct_query(0);
    let (e0, _) = probe_cache.entry_keyed(&QueryKey::of(&q0), &q0, &host, &LdfFilter);
    let bound = e0.resident_bytes() * 12;

    let cache = SpaceCache::with_capacity_bytes(bound);
    for i in 0..200 {
        let q = distinct_query(i);
        let (e, fresh) = cache.entry_keyed(&QueryKey::of(&q), &q, &host, &LdfFilter);
        assert!(fresh, "distinct queries must never alias (i = {i})");
        assert!(e.space().is_some());
        assert!(
            cache.storage_bytes() <= bound,
            "flood iteration {i}: {} bytes exceeds the {bound}-byte bound",
            cache.storage_bytes()
        );
    }
    assert!(cache.evictions() > 0, "a 200-query flood through a 12-entry budget must evict");

    // Evicted key: exactly one rebuild (one miss, one filter+build), then
    // resident again.
    let misses = cache.misses();
    let builds = CandidateSpace::build_count();
    let (_, fresh) = cache.entry_keyed(&QueryKey::of(&q0), &q0, &host, &LdfFilter);
    assert!(fresh, "q0 was evicted by the flood and must refilter");
    assert_eq!(cache.misses(), misses + 1);
    assert_eq!(CandidateSpace::build_count(), builds + 1, "exactly one rebuild for the evicted key");

    // Resident key: any number of replay rounds serve the same entry with
    // zero additional filter passes or builds.
    let builds = CandidateSpace::build_count();
    let misses = cache.misses();
    for _ in 0..5 {
        let (_, fresh) = cache.entry_keyed(&QueryKey::of(&q0), &q0, &host, &LdfFilter);
        assert!(!fresh, "resident key must hit");
    }
    assert_eq!(cache.misses(), misses, "hits never refilter");
    assert_eq!(CandidateSpace::build_count(), builds, "hits never rebuild");
}
