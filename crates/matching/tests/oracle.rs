//! Correctness oracle: the full pipeline must agree with brute force on
//! random graphs, for every filter and every ordering method.
//!
//! The worker count is an input here, never ambient: every property
//! whose result could depend on it sweeps 1, 2 and 4. To check that the
//! sweeps (here and in `limits`, `steal_sched`, `enumerate::tests`, the
//! bench harness, `serve_faults` and the root `cli` test) still carry the
//! parallel contract, mutate `parallel::merge` on a scratch copy — once
//! `enumerations: 1` → `2`, once `res.match_count +=
//! part.match_count.saturating_sub(1)` — and run `cargo test -q
//! --no-fail-fast` with no environment set: each of those binaries must
//! fail (the last two under the second mutation only).
//!
//! The space engine's cached bitmaps have a recipe of their own: make
//! `ListBits::refresh` rebuild only bitmaps that have no tag yet, so a
//! stale one is reused, and `space_engine_bitmaps_agree_with_the_probe_oracle`
//! fails (run once, with `limits`' two-list fixtures failing beside it).

mod common;

use proptest::prelude::*;
use rlqvo_graph::{Graph, GraphBuilder};
use rlqvo_matching::naive;
use rlqvo_matching::order::{
    CflOrdering, GqlOrdering, OptimalOrdering, OrderingMethod, QsiOrdering, RiOrdering, VeqOrdering, Vf2ppOrdering,
};
use rlqvo_matching::{
    enumerate, enumerate_in_space, enumerate_probe, enumerate_probe_prepared, run_cached, run_pipeline, ArenaOverflow,
    CandidateFilter, CandidateSpace, Candidates, EnumConfig, EnumEngine, GqlFilter, LdfFilter, NlfFilter, OrderCache,
    Pipeline, QueryAdjBits, QueryKey, SpaceCache, TokenBudget,
};

/// Random connected-ish labeled graph.
fn arb_graph(max_n: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let label_vec = proptest::collection::vec(0..labels, n);
        // A random spanning-tree-ish backbone plus extra edges keeps most
        // instances connected without forcing it.
        let backbone = proptest::collection::vec(0..n, n - 1);
        let extra = proptest::collection::vec((0..n, 0..n), 0..n);
        (label_vec, backbone, extra).prop_map(move |(lv, bb, ex)| {
            let mut b = GraphBuilder::new(labels);
            for l in lv {
                b.add_vertex(l);
            }
            for (i, anchor) in bb.iter().enumerate() {
                let u = (i + 1) as u32;
                let v = (*anchor % (i + 1)) as u32;
                if u != v {
                    b.add_edge(u, v);
                }
            }
            for (u, v) in ex {
                if u != v {
                    b.add_edge(u as u32, v as u32);
                }
            }
            b.build()
        })
    })
}

/// Small connected query extracted from the data graph itself, so matches
/// are likely to exist (all-empty cases are worthless tests).
fn query_of(g: &Graph, seed: u64, size: usize) -> Option<Graph> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    rlqvo_graph::extract_connected_subgraph(g, size.min(g.num_vertices()), &mut rng).ok().map(|(q, _)| q)
}

fn all_orderings() -> Vec<Box<dyn OrderingMethod>> {
    vec![
        Box::new(RiOrdering),
        Box::new(QsiOrdering),
        Box::new(Vf2ppOrdering),
        Box::new(GqlOrdering),
        Box::new(CflOrdering),
        Box::new(VeqOrdering),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every (filter, ordering) pair finds exactly the brute-force match set.
    #[test]
    fn pipeline_agrees_with_brute_force(g in arb_graph(9, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let expected = naive::all_matches(&q, &g);

        let filters: Vec<Box<dyn CandidateFilter>> =
            vec![Box::new(LdfFilter), Box::new(NlfFilter), Box::new(GqlFilter::default())];
        for f in &filters {
            let cand = f.filter(&q, &g);
            for o in all_orderings() {
                let order = o.order(&q, &g, &cand);
                for threads in [1, 2, 4] {
                    let mut cfg = EnumConfig::find_all().with_threads(threads);
                    cfg.store_matches = true;
                    let res = enumerate(&q, &g, &cand, &order, cfg);
                    let mut got = res.matches.clone();
                    got.sort();
                    prop_assert_eq!(
                        &got, &expected,
                        "filter {} ordering {} x{} disagrees with brute force", f.name(), o.name(), threads
                    );
                }
            }
        }
    }

    /// Filters are complete: no vertex participating in a match is pruned.
    #[test]
    fn filters_are_complete(g in arb_graph(9, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let expected = naive::all_matches(&q, &g);
        let filters: Vec<Box<dyn CandidateFilter>> =
            vec![Box::new(LdfFilter), Box::new(NlfFilter), Box::new(GqlFilter::default())];
        for f in &filters {
            let cand = f.filter(&q, &g);
            for m in &expected {
                for (u, &v) in m.iter().enumerate() {
                    prop_assert!(
                        cand.contains(u as u32, v),
                        "{} pruned {v} from C({u}) though it appears in a match", f.name()
                    );
                }
            }
        }
    }

    /// `#enum` is ordering-dependent but the match count never is.
    #[test]
    fn match_count_is_order_invariant(g in arb_graph(9, 2), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 5) else { return Ok(()) };
        let cand = GqlFilter::default().filter(&q, &g);
        let mut counts = Vec::new();
        for o in all_orderings() {
            let order = o.order(&q, &g, &cand);
            for threads in [1, 2, 4] {
                counts.push(enumerate(&q, &g, &cand, &order, EnumConfig::find_all().with_threads(threads)).match_count);
            }
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    /// Differential engine equivalence: the CandidateSpace engine and the
    /// seed probe engine must report identical `match_count` AND identical
    /// `#enum` (same recursion tree, not merely the same answer) for every
    /// filter, every ordering method, and random query/data graphs. This
    /// is the contract that keeps all paper figures comparable across
    /// engines.
    #[test]
    fn engines_are_differentially_identical(g in arb_graph(9, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let filters: Vec<Box<dyn CandidateFilter>> =
            vec![Box::new(LdfFilter), Box::new(NlfFilter), Box::new(GqlFilter::default())];
        for f in &filters {
            let cand = f.filter(&q, &g);
            let cs = CandidateSpace::build(&q, &g, &cand);
            for o in all_orderings() {
                let order = o.order(&q, &g, &cand);
                for threads in [1, 2, 4] {
                    let mut cfg = EnumConfig::find_all().with_threads(threads);
                    cfg.store_matches = true;
                    let probe = enumerate_probe(&q, &g, &cand, &order, cfg);
                    let space = enumerate(&q, &g, &cand, &order, cfg.with_engine(EnumEngine::CandidateSpace));
                    prop_assert_eq!(
                        probe.match_count, space.match_count,
                        "match_count diverges: filter {} ordering {} x{}", f.name(), o.name(), threads
                    );
                    prop_assert_eq!(
                        probe.enumerations, space.enumerations,
                        "#enum diverges: filter {} ordering {}", f.name(), o.name()
                    );
                    prop_assert_eq!(
                        &probe.matches, &space.matches,
                        "match stream diverges: filter {} ordering {}", f.name(), o.name()
                    );
                    // The prebuilt-space entry point must agree too (it is the
                    // path harnesses use to amortize the build across orders).
                    let reused = enumerate_in_space(&q, &cs, &order, cfg);
                    prop_assert_eq!(reused.match_count, probe.match_count);
                    prop_assert_eq!(reused.enumerations, probe.enumerations);
                }
            }
        }
    }

    /// Engine equivalence must also hold under match caps and enumeration
    /// budgets: truncation happens at the same point of the identical
    /// recursion tree.
    #[test]
    fn engines_truncate_identically(g in arb_graph(9, 2), seed in 0u64..500, cap in 1u64..40) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let cand = NlfFilter.filter(&q, &g);
        for o in all_orderings() {
            let order = o.order(&q, &g, &cand);
            // Serial pin: identical truncation points are a serial-order
            // property (parallel capped runs overshoot by design).
            let capped = EnumConfig { max_matches: cap, ..EnumConfig::find_all() }.with_threads(1);
            let budgeted = EnumConfig::budgeted(4 * cap);
            for cfg in [capped, budgeted] {
                let probe = enumerate_probe(&q, &g, &cand, &order, cfg);
                let space = enumerate(&q, &g, &cand, &order, cfg.with_engine(EnumEngine::CandidateSpace));
                prop_assert_eq!(probe.match_count, space.match_count, "ordering {}", o.name());
                prop_assert_eq!(probe.enumerations, space.enumerations, "ordering {}", o.name());
                prop_assert_eq!(probe.budget_exhausted, space.budget_exhausted, "ordering {}", o.name());
            }
        }
    }

    /// The mask-based GQL refinement, which compacts raw sets each round
    /// and wraps them once, must produce byte-identical surviving
    /// candidate sets to the retained rebuild-from-scratch naive
    /// reference, for every refinement depth, on random labeled graphs —
    /// and its bitmaps must answer membership exactly like the
    /// reference's.
    #[test]
    fn gql_in_place_shrink_matches_rebuild_reference(g in arb_graph(10, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 5) else { return Ok(()) };
        for rounds in [1usize, 2, 3, 4] {
            let f = GqlFilter { refinement_rounds: rounds };
            let fast = f.filter(&q, &g);
            let reference = f.filter_reference(&q, &g);
            prop_assert_eq!(fast.num_query_vertices(), reference.num_query_vertices());
            prop_assert_eq!(fast.total(), reference.total(), "total diverges at {} rounds", rounds);
            prop_assert_eq!(fast.any_empty(), reference.any_empty());
            for u in q.vertices() {
                prop_assert_eq!(
                    fast.of(u), reference.of(u),
                    "surviving C({}) diverges at {} rounds", u, rounds
                );
                // The shrunk bitmap and a fresh rebuild must agree on
                // every membership query, not just on the sorted sets.
                for v in 0..g.num_vertices() as u32 {
                    prop_assert_eq!(
                        fast.contains(u, v), reference.contains(u, v),
                        "contains({}, {}) diverges at {} rounds", u, v, rounds
                    );
                }
            }
        }
    }

    /// Every candidate carries its query vertex's label, under every
    /// filter. The refinement splits each bipartite check into one part
    /// per label on the strength of it.
    #[test]
    fn candidates_are_label_pure(g in arb_graph(10, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 5) else { return Ok(()) };
        let filters: [&dyn CandidateFilter; 3] = [&LdfFilter, &NlfFilter, &GqlFilter::DEFAULT];
        for f in filters {
            let cand = f.filter(&q, &g);
            for u in q.vertices() {
                for &v in cand.of(u) {
                    prop_assert_eq!(g.label(v), q.label(u), "{}: {} in C({})", f.name(), v, u);
                }
            }
        }
    }

    /// The warm path must be invisible to results: `run_cached` is
    /// byte-identical to the cold `run_pipeline` (match count, `#enum`,
    /// order, match stream) for every filter and engine (probe,
    /// candspace, auto), at 1, 2 and 4 workers, with and without an order
    /// cache, on the cold entry (round 0: filter pass, order fill) and the
    /// warm one (round 1: space hit, order hit) — and a space hit books
    /// exactly zero filter time. The probe rows pin that `engine=probe` in
    /// a warm entry is the cold `enumerate_probe` on the entry's
    /// candidates.
    #[test]
    fn cache_served_space_is_differentially_identical(g in arb_graph(9, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let key = QueryKey::of(&q);
        let filters: Vec<Box<dyn CandidateFilter>> =
            vec![Box::new(LdfFilter), Box::new(NlfFilter), Box::new(GqlFilter::default())];
        for f in &filters {
            for o in [&RiOrdering as &dyn OrderingMethod, &GqlOrdering as &dyn OrderingMethod] {
                for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
                    for threads in [1usize, 2, 4] {
                        let mut cfg = EnumConfig::find_all().with_engine(engine).with_threads(threads);
                        cfg.store_matches = true;
                        let p = Pipeline { filter: f.as_ref(), ordering: o, config: cfg };
                        let cold = run_pipeline(&q, &g, &p);
                        for with_orders in [false, true] {
                            let (spaces, orders) = (SpaceCache::new(), OrderCache::new());
                            for round in 0..2 {
                                let (warm, hit_space, hit_order) =
                                    run_cached(&q, &g, &p, &key, &spaces, with_orders.then_some(&orders));
                                let cell = format!(
                                    "{} {} {} x{} orders={} round {}",
                                    f.name(), o.name(), engine.name(), threads, with_orders, round
                                );
                                prop_assert_eq!(hit_space, round == 1, "space hit: {}", &cell);
                                prop_assert_eq!(hit_order, with_orders && round == 1, "order hit: {}", &cell);
                                if hit_space {
                                    prop_assert_eq!(warm.filter_time, std::time::Duration::ZERO, "{}", &cell);
                                }
                                prop_assert_eq!(
                                    warm.enum_result.match_count, cold.enum_result.match_count,
                                    "match_count diverges: {}", &cell
                                );
                                prop_assert_eq!(
                                    warm.enum_result.enumerations, cold.enum_result.enumerations,
                                    "#enum diverges: {}", &cell
                                );
                                prop_assert_eq!(&warm.order, &cold.order, "order diverges: {}", &cell);
                                prop_assert_eq!(
                                    &warm.enum_result.matches, &cold.enum_result.matches,
                                    "match stream diverges: {}", &cell
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The prepared probe path (shared order-independent backward
    /// precomputation) must be byte-identical to the plain probe oracle
    /// for random graphs, every filter, every ordering, with and without
    /// caps.
    #[test]
    fn prepared_probe_is_differentially_identical(g in arb_graph(9, 3), seed in 0u64..500, cap in 1u64..40) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let adj = QueryAdjBits::build(&q);
        let filters: Vec<Box<dyn CandidateFilter>> =
            vec![Box::new(LdfFilter), Box::new(GqlFilter::default())];
        for f in &filters {
            let cand = f.filter(&q, &g);
            for o in all_orderings() {
                let order = o.order(&q, &g, &cand);
                let mut find_all = EnumConfig::find_all();
                find_all.store_matches = true;
                // The capped row stays serial: truncation points are only
                // deterministic serially.
                let capped = EnumConfig { max_matches: cap, ..find_all };
                for cfg in [find_all, find_all.with_threads(2), find_all.with_threads(4), capped] {
                    let plain = enumerate_probe(&q, &g, &cand, &order, cfg);
                    let prepared = enumerate_probe_prepared(&q, &g, &cand, &adj, &order, cfg);
                    prop_assert_eq!(plain.match_count, prepared.match_count, "{} {}", f.name(), o.name());
                    prop_assert_eq!(plain.enumerations, prepared.enumerations, "{} {}", f.name(), o.name());
                    prop_assert_eq!(&plain.matches, &prepared.matches, "{} {}", f.name(), o.name());
                }
            }
        }
    }

    /// `EnumEngine::Auto` is the CandidateSpace engine — same
    /// `match_count`, same `#enum`, same match stream at every cap from 1
    /// to find-all, on both sides of its worker gate — and, like it,
    /// indistinguishable from the probe oracle, for every filter and
    /// ordering and for a query a candidate set of which is empty.
    #[test]
    fn auto_engine_is_differentially_identical(g in arb_graph(9, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let filters: Vec<Box<dyn CandidateFilter>> =
            vec![Box::new(LdfFilter), Box::new(GqlFilter::default())];
        let mut cands: Vec<(&str, Candidates)> = filters.iter().map(|f| (f.name(), f.filter(&q, &g))).collect();
        // The same query with its first vertex starved of candidates.
        let mut starved: Vec<Vec<u32>> = q.vertices().map(|u| cands[0].1.of(u).to_vec()).collect();
        starved[0].clear();
        cands.push(("starved", Candidates::new(starved)));
        for (f, cand) in &cands {
            for o in all_orderings() {
                let order = o.order(&q, &g, cand);
                // The capped rows stay serial: truncation points are only
                // deterministic serially.
                for (cap, threads) in [(1u64, 1), (10, 1), (100_000, 1), (u64::MAX, 1), (u64::MAX, 2), (u64::MAX, 4)] {
                    let cfg = EnumConfig { max_matches: cap, store_matches: true, ..EnumConfig::find_all() }
                        .with_threads(threads);
                    let auto = enumerate(&q, &g, cand, &order, cfg.with_engine(EnumEngine::Auto));
                    let probe = enumerate_probe(&q, &g, cand, &order, cfg);
                    let space = enumerate(&q, &g, cand, &order, cfg.with_engine(EnumEngine::CandidateSpace));
                    prop_assert_eq!(auto.match_count, probe.match_count, "vs probe: {} {} cap {}", f, o.name(), cap);
                    prop_assert_eq!(auto.enumerations, probe.enumerations, "vs probe: {} {} cap {}", f, o.name(), cap);
                    prop_assert_eq!(&auto.matches, &probe.matches, "stream vs probe: {} {} cap {}", f, o.name(), cap);
                    prop_assert_eq!(auto.match_count, space.match_count, "vs space: {} {} cap {}", f, o.name(), cap);
                    prop_assert_eq!(auto.enumerations, space.enumerations, "vs space: {} {} cap {}", f, o.name(), cap);
                    prop_assert_eq!(&auto.matches, &space.matches, "stream vs space: {} {} cap {}", f, o.name(), cap);
                    if cand.any_empty() {
                        prop_assert_eq!((auto.match_count, auto.enumerations), (0, 0), "{} {} cap {}", f, o.name(), cap);
                    }
                }
            }
        }
    }

    /// The checked build accepts exactly the inputs the plain build
    /// accepts, and produces an identical space.
    #[test]
    fn try_build_is_equivalent_on_random_inputs(g in arb_graph(9, 3), seed in 0u64..200) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let cand = NlfFilter.filter(&q, &g);
        let checked = CandidateSpace::try_build(&q, &g, &cand).expect("small inputs always fit");
        prop_assert_eq!(checked, CandidateSpace::build(&q, &g, &cand));
    }

    /// Parallel find-all is byte-identical to serial — `match_count`,
    /// `#enum`, and the stored match stream — for all three engines at
    /// 1, 2, and 4 intra-query workers. This is the contract that lets a
    /// caller raise the worker count without changing a single reported
    /// number in the find-all columns.
    #[test]
    fn parallel_find_all_is_identical_to_serial(g in arb_graph(9, 3), seed in 0u64..500) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let cand = GqlFilter::default().filter(&q, &g);
        for o in all_orderings() {
            let order = o.order(&q, &g, &cand);
            for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
                let mut cfg = EnumConfig::find_all().with_engine(engine).with_threads(1);
                cfg.store_matches = true;
                let serial = enumerate(&q, &g, &cand, &order, cfg);
                for threads in [2usize, 4] {
                    let par = enumerate(&q, &g, &cand, &order, cfg.with_threads(threads));
                    prop_assert_eq!(
                        par.match_count, serial.match_count,
                        "match_count diverges: {} x{} ordering {}", engine.name(), threads, o.name()
                    );
                    prop_assert_eq!(
                        par.enumerations, serial.enumerations,
                        "#enum diverges: {} x{} ordering {}", engine.name(), threads, o.name()
                    );
                    prop_assert_eq!(
                        &par.matches, &serial.matches,
                        "match stream diverges: {} x{} ordering {}", engine.name(), threads, o.name()
                    );
                }
            }
        }
    }

    /// A token-starved parallel request — `threads > 1` against a budget
    /// whose tokens are all held — is the serial run: byte-identical to
    /// `threads = 1` under *every* configuration, caps and budgets
    /// included (where the truncation point must land on exactly the same
    /// recursion step), for both engines. It also leaves the budget as it
    /// found it: once the held tokens are released, all of them can be
    /// acquired again.
    #[test]
    fn token_starved_parallel_is_exactly_the_serial_engine(
        g in arb_graph(9, 3),
        seed in 0u64..500,
        cap in 1u64..40,
        threads in 2usize..5,
    ) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let cand = NlfFilter.filter(&q, &g);
        let total = 3;
        let budget = TokenBudget::leaked(total);
        prop_assert_eq!(budget.try_acquire(total), total);
        for o in all_orderings() {
            let order = o.order(&q, &g, &cand);
            let mut find_all = EnumConfig::find_all();
            find_all.store_matches = true;
            let capped = EnumConfig { max_matches: cap, ..find_all };
            let budgeted = EnumConfig { max_enumerations: 4 * cap, ..find_all };
            for engine in [EnumEngine::CandidateSpace, EnumEngine::Probe] {
                for cfg in [find_all, capped, budgeted] {
                    let cfg = cfg.with_engine(engine);
                    let serial = enumerate(&q, &g, &cand, &order, cfg.with_threads(1));
                    let starved_cfg = cfg.with_threads(threads).with_pool_tokens(budget);
                    let starved = enumerate(&q, &g, &cand, &order, starved_cfg);
                    prop_assert_eq!(starved.match_count, serial.match_count, "{} ordering {}", engine.name(), o.name());
                    prop_assert_eq!(starved.enumerations, serial.enumerations, "{} ordering {}", engine.name(), o.name());
                    prop_assert_eq!(
                        starved.budget_exhausted, serial.budget_exhausted,
                        "{} ordering {}", engine.name(), o.name()
                    );
                    prop_assert_eq!(&starved.matches, &serial.matches, "{} ordering {}", engine.name(), o.name());
                }
            }
        }
        prop_assert_eq!(budget.try_acquire(1), 0, "a starved run must not mint tokens");
        budget.release(total);
        prop_assert_eq!(budget.try_acquire(total), total, "a starved run must not leak tokens");
    }

    /// Under a binding match cap the parallel engines still report the
    /// exact capped count (the merge truncates), and their matches are
    /// valid embeddings — only *which* matches survive is scheduling-
    /// dependent.
    #[test]
    fn parallel_capped_count_is_exact(g in arb_graph(9, 2), seed in 0u64..300, cap in 1u64..10) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let cand = LdfFilter.filter(&q, &g);
        let order = all_orderings()[0].order(&q, &g, &cand);
        let full = enumerate(&q, &g, &cand, &order, EnumConfig::find_all().with_threads(1)).match_count;
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
            let mut cfg = EnumConfig { max_matches: cap, ..EnumConfig::find_all() }
                .with_engine(engine)
                .with_threads(4);
            cfg.store_matches = true;
            let res = enumerate(&q, &g, &cand, &order, cfg);
            prop_assert_eq!(res.match_count, cap.min(full), "{}", engine.name());
            prop_assert_eq!(res.matches.len() as u64, res.match_count, "{}", engine.name());
            for m in &res.matches {
                for (u, &v) in m.iter().enumerate() {
                    prop_assert_eq!(q.label(u as u32), g.label(v), "{}", engine.name());
                }
            }
        }
    }

    /// The independent-suffix counting against Algorithm 2 on random
    /// orders, not only the heuristics' connected ones, so suffixes with
    /// clashing levels, levels of an unconnected vertex and levels that
    /// empty all occur. Under random budgets and caps, `(match_count,
    /// #enum, budget_exhausted)` equal the per-call reference's on both
    /// engines; find-all, counted and stored, is byte-identical at 1, 2
    /// and 4 workers; and a stored run is the counted prefix of find-all's
    /// stream.
    #[test]
    fn suffix_counting_is_algorithm_2_on_random_orders(
        g in arb_graph(12, 2),
        seed in 0u64..500,
        draws in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let Some(q) = query_of(&g, seed, 5) else { return Ok(()) };
        let cand = LdfFilter.filter(&q, &g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(draws);
        let mut order: Vec<u32> = q.vertices().collect();
        order.shuffle(&mut rng);
        let (all, stream) = common::algorithm2(&q, &g, &cand, &order, u64::MAX, u64::MAX, true);
        // Six budgets and caps at or below the run's own totals, so they bind.
        let limits: Vec<(u64, u64)> = (0..6)
            .map(|_| (rng.gen_range(1..=all.1 + 1), rng.gen_range(1..=all.0 + 1)))
            .flat_map(|(budget, cap)| [(budget, u64::MAX), (u64::MAX, cap), (budget, cap)])
            .collect();
        let stream = stream.expect("asked for");
        let cs = CandidateSpace::build(&q, &g, &cand);
        let triple = |r: &rlqvo_matching::EnumResult| (r.match_count, r.enumerations, r.budget_exhausted);
        let serial = EnumConfig::find_all().with_threads(1);
        let storing = EnumConfig { store_matches: true, ..serial };
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
            let run = |cfg: EnumConfig| match engine {
                EnumEngine::Probe => enumerate_probe(&q, &g, &cand, &order, cfg),
                _ => enumerate_in_space(&q, &cs, &order, cfg),
            };
            for threads in [1, 2, 4] {
                let what = format!("{} order {:?} x{}", engine.name(), order, threads);
                prop_assert_eq!(triple(&run(serial.with_threads(threads))), all, "find-all: {}", &what);
                let stored = run(storing.with_threads(threads));
                prop_assert_eq!(triple(&stored), all, "find-all (storing): {}", &what);
                prop_assert_eq!(&stored.matches, &stream, "find-all stream: {}", &what);
            }
            for &(max_enumerations, max_matches) in &limits {
                let what = format!("{} order {:?} budget {} cap {}", engine.name(), order, max_enumerations, max_matches);
                let (expected, _) = common::algorithm2(&q, &g, &cand, &order, max_enumerations, max_matches, false);
                let counted = run(EnumConfig { max_enumerations, max_matches, ..serial });
                prop_assert_eq!(triple(&counted), expected, "{}", &what);
                let stored = run(EnumConfig { max_enumerations, max_matches, ..storing });
                prop_assert_eq!(triple(&stored), expected, "storing: {}", &what);
                prop_assert_eq!(&stored.matches[..], &stream[..expected.0 as usize], "stream: {}", &what);
            }
        }
    }

    /// The exhaustive optimal order is at least as good as every heuristic.
    #[test]
    fn optimal_lower_bounds_heuristics(g in arb_graph(8, 2), seed in 0u64..200) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let cand = LdfFilter.filter(&q, &g);
        let (_, opt_cost) = OptimalOrdering::default().order_with_cost(&q, &g, &cand);
        for o in all_orderings() {
            let order = o.order(&q, &g, &cand);
            if !rlqvo_matching::connected_prefix_ok(&q, &order) {
                continue; // optimal only sweeps connected orders
            }
            for threads in [1, 2, 4] {
                let res = enumerate(&q, &g, &cand, &order, EnumConfig::find_all().with_threads(threads));
                prop_assert!(
                    opt_cost <= res.enumerations,
                    "Opt {} must be <= {} ({} x{})", opt_cost, res.enumerations, o.name(), threads
                );
            }
        }
    }

    /// The adversarial case for a root-partitioned pool: the root has
    /// exactly ONE candidate (a unique-labeled hub), so every morsel
    /// scheme keyed on root candidates degenerates to one worker. The
    /// work-stealing scheduler must still return find-all byte-identical
    /// to serial — stolen subtrees split *below* the root.
    #[test]
    fn single_root_candidate_steal_is_identical_to_serial(n in 6usize..40, chain in 1usize..4) {
        // Host: unique-labeled hub 0 adjacent to everything, plus a chain
        // among the label-1 spokes. Query: a triangle (hub, spoke, spoke)
        // whose root vertex is the hub — one candidate, wide subtree.
        let mut b = GraphBuilder::new(2);
        b.add_vertex(0);
        for _ in 0..n {
            b.add_vertex(1);
        }
        for v in 1..=n as u32 {
            b.add_edge(0, v);
        }
        for v in 1..n as u32 {
            for step in 1..=chain as u32 {
                if v + step <= n as u32 {
                    b.add_edge(v, v + step);
                }
            }
        }
        let g = b.build();
        let mut qb = GraphBuilder::new(2);
        qb.add_vertex(0);
        qb.add_vertex(1);
        qb.add_vertex(1);
        qb.add_edge(0, 1);
        qb.add_edge(0, 2);
        qb.add_edge(1, 2);
        let q = qb.build();
        let cand = GqlFilter::default().filter(&q, &g);
        let order = vec![0u32, 1, 2];
        prop_assert_eq!(cand.len_of(0), 1, "the hub must be the only root candidate");
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
            let mut cfg = EnumConfig::find_all().with_engine(engine).with_threads(1);
            cfg.store_matches = true;
            let serial = enumerate(&q, &g, &cand, &order, cfg);
            for threads in [2usize, 4] {
                let par = enumerate(&q, &g, &cand, &order, cfg.with_threads(threads));
                prop_assert_eq!(par.match_count, serial.match_count, "{} x{}", engine.name(), threads);
                prop_assert_eq!(par.enumerations, serial.enumerations, "{} x{}", engine.name(), threads);
                prop_assert_eq!(&par.matches, &serial.matches, "{} x{}", engine.name(), threads);
            }
        }
    }

    /// Cancellation raised mid-steal must terminate every worker — owner
    /// and thieves alike poll the flag through the steal loop — and the
    /// partial result stays a valid truncation: no invented matches, no
    /// count above the full answer, `cancelled` reported truthfully.
    #[test]
    fn steal_under_cancel_terminates_with_a_valid_partial(
        g in arb_graph(9, 3),
        seed in 0u64..200,
        delay_us in 0u64..60,
    ) {
        let Some(q) = query_of(&g, seed, 4) else { return Ok(()) };
        let cand = GqlFilter::default().filter(&q, &g);
        let order = all_orderings()[0].order(&q, &g, &cand);
        let mut cfg = EnumConfig::find_all().with_threads(4);
        cfg.store_matches = true;
        let full = enumerate(&q, &g, &cand, &order, cfg.with_threads(1));
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
            // Leaked per case: one byte each, bounded by the case count.
            let cancel: &'static std::sync::atomic::AtomicBool =
                Box::leak(Box::new(std::sync::atomic::AtomicBool::new(false)));
            let arm = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                cancel.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            let res = enumerate(&q, &g, &cand, &order, cfg.with_engine(engine).with_cancel_flag(cancel));
            arm.join().unwrap();
            prop_assert!(res.match_count <= full.match_count, "{}", engine.name());
            prop_assert_eq!(res.matches.len() as u64, res.match_count, "{}", engine.name());
            for m in &res.matches {
                prop_assert!(full.matches.contains(m), "invented match under cancel: {}", engine.name());
            }
            if !res.cancelled {
                // The race lost: the run finished first — then it must be
                // the exact find-all answer.
                prop_assert_eq!(res.match_count, full.match_count, "{}", engine.name());
                prop_assert_eq!(&res.matches, &full.matches, "{}", engine.name());
            }
        }
    }
}

// ---- Fast filters against their definitions, at the shapes the neighbour-
// ---- label table and the mask kernel treat specially.

/// NLF by its definition (same label, enough degree, per-label
/// neighbour-count dominance), from `neighbor_label_frequency` on both
/// sides — no table, no early-exit scan.
fn nlf_by_definition(q: &Graph, g: &Graph) -> Vec<Vec<u32>> {
    q.vertices()
        .map(|u| {
            let need = q.neighbor_label_frequency(u);
            g.vertices()
                .filter(|&v| {
                    let have = g.neighbor_label_frequency(v);
                    g.label(v) == q.label(u)
                        && g.degree(v) >= q.degree(u)
                        && need.iter().enumerate().all(|(l, &n)| n <= have.get(l).copied().unwrap_or(0))
                })
                .collect()
        })
        .collect()
}

/// `fast` holds exactly `sets`: the sorted sets and the `contains` bitmap,
/// probed past the last data vertex too.
fn assert_same_candidates(q: &Graph, g: &Graph, fast: &Candidates, sets: &[Vec<u32>], what: &str) {
    for u in q.vertices() {
        assert_eq!(fast.of(u), sets[u as usize].as_slice(), "{what}: C({u})");
        for v in 0..g.num_vertices() as u32 + 70 {
            assert_eq!(fast.contains(u, v), sets[u as usize].binary_search(&v).is_ok(), "{what}: contains({u}, {v})");
        }
    }
}

/// `NlfFilter` equals the definition and `GqlFilter::filter` equals
/// `filter_reference` at 0, 1, 2 and 4 rounds.
fn assert_filters_match_references(q: &Graph, g: &Graph) {
    assert_same_candidates(q, g, &NlfFilter.filter(q, g), &nlf_by_definition(q, g), "NLF");
    for rounds in [0usize, 1, 2, 4] {
        let f = GqlFilter { refinement_rounds: rounds };
        let reference = f.filter_reference(q, g);
        let sets: Vec<Vec<u32>> = q.vertices().map(|u| reference.of(u).to_vec()).collect();
        assert_same_candidates(q, g, &f.filter(q, g), &sets, &format!("GQL/r{rounds}"));
    }
}

/// A ring of `n` vertices with pseudo-random labels and chords.
fn chorded_ring(n: u32, labels: u32, num_labels: u32) -> Graph {
    let mut b = GraphBuilder::new(num_labels);
    let mut x = 12345u32;
    let mut next = move || {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        x >> 16
    };
    for _ in 0..n {
        b.add_vertex(next() % labels);
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n);
        let chord = next() % n;
        if chord != v {
            b.add_edge(v, chord);
        }
    }
    b.build()
}

/// A query of more than 64 vertices: two-word masks, with the query edge
/// (63, 64) crossing the word boundary.
#[test]
fn filters_match_references_on_a_query_wider_than_one_mask_word() {
    let g = chorded_ring(160, 3, 3);
    let (q, _) = g.induced_subgraph(&(0..70).collect::<Vec<u32>>());
    assert!(q.has_edge(63, 64));
    let nlf = NlfFilter.filter(&q, &g);
    let gql = GqlFilter::default().filter(&q, &g);
    assert!(gql.total() < nlf.total() && !gql.any_empty(), "refinement must have work to do and leave the embedding");
    assert_filters_match_references(&q, &g);
}

/// Which query vertices a refinement round starting from `cand` scans:
/// those with a neighbour whose set costs at least as much as their own.
fn scanned(q: &Graph, g: &Graph, cand: &Candidates) -> Vec<bool> {
    let cost: Vec<u64> = q.vertices().map(|u| scan_cost(g, cand.of(u))).collect();
    q.vertices().map(|u| q.neighbors(u).iter().any(|&u2| cost[u2 as usize] >= cost[u as usize])).collect()
}

/// True when `u` has two neighbours of one label, so the matcher is asked.
fn shares_a_label(q: &Graph, u: u32) -> bool {
    let nu = q.neighbors(u);
    nu.iter().enumerate().any(|(i, &a)| nu[i + 1..].iter().any(|&b| q.label(a) == q.label(b)))
}

/// A query of 120 vertices, so its masks are two words, with every kind
/// of decision in the second word: past bit 63 there are scanned and
/// unscanned vertices, with and without two neighbours of one label, and
/// round 1 removes candidates of each kind. Query edges cross the word
/// edge, so an unscanned vertex reads `reach` bits in the word it is not in.
#[test]
fn filters_match_references_on_a_two_word_query_with_every_kind_of_decision() {
    let g = chorded_ring(200, 3, 3);
    let (q, _) = g.induced_subgraph(&(0..120).collect::<Vec<u32>>());
    let nlf = NlfFilter.filter(&q, &g);
    let one = GqlFilter { refinement_rounds: 1 }.filter(&q, &g);
    let scans = scanned(&q, &g, &nlf);
    for scan in [true, false] {
        for shared in [true, false] {
            let pruned = (64..120u32)
                .filter(|&u| scans[u as usize] == scan && shares_a_label(&q, u) == shared)
                .any(|u| one.len_of(u) < nlf.len_of(u));
            assert!(pruned, "no vertex past bit 63 with scanned {scan}, shared {shared} loses a candidate");
        }
    }
    let crosses = |u: u32| q.neighbors(u).iter().any(|&u2| (u2 < 64) != (u < 64));
    assert!(q.vertices().filter(|&u| !scans[u as usize]).any(crosses));
    assert!(!GqlFilter::default().filter(&q, &g).any_empty(), "the embedding survives");
    assert_filters_match_references(&q, &g);
}

/// Two adjacent query vertices whose sets cost the same, the tie at which
/// the scan rule is decided: both are scanned, as a neighbour at least as
/// dear makes a vertex scanned. `u` (label 0) and `u'` (label 1) each
/// carry a leaf, `x` (2) and `y` (3). `A'` is in `C(u)` only through the
/// labels of its neighbours, and its label-1 neighbour is in no set, so it
/// falls in round 1 on the tied edge; `B''` likewise from the other side;
/// the leaves they held fall in round 2. Mutation check: with `>` in
/// place of the rule's `≥`, neither tied vertex is scanned, no `reach` bit
/// of either is set, and `C(u)` empties.
#[test]
fn filters_match_references_across_a_tied_query_edge() {
    let q = query(4, &[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3)]);
    let (u, u2, x, y) = (0u32, 1u32, 2u32, 3u32);
    // A B X Y, then A' B' X', then B'' A'' Y''.
    let g = query(4, &[0, 1, 2, 3, 0, 1, 2, 1, 0, 3], &[(0, 1), (0, 2), (1, 3), (4, 5), (4, 6), (7, 8), (7, 9)]);
    let nlf = NlfFilter.filter(&q, &g);
    assert_eq!((nlf.of(u), nlf.of(u2)), (&[0, 4][..], &[1, 7][..]));
    assert_eq!(scan_cost(&g, nlf.of(u)), scan_cost(&g, nlf.of(u2)), "the edge (u, u') must be tied");
    assert!(scanned(&q, &g, &nlf).iter().all(|&s| s));
    let one = GqlFilter { refinement_rounds: 1 }.filter(&q, &g);
    assert_eq!((one.of(u), one.of(u2), one.of(x), one.of(y)), (&[0][..], &[1][..], &[2, 6][..], &[3, 9][..]));
    let two = GqlFilter { refinement_rounds: 2 }.filter(&q, &g);
    assert_eq!((two.of(x), two.of(y)), (&[2][..], &[3][..]));
    assert_filters_match_references(&q, &g);
}

/// `Σ d(v)` over a candidate set: the cost `GqlFilter::filter` and
/// `CandidateSpace::build` compare to pick the side a query edge is
/// scanned from.
fn scan_cost(g: &Graph, set: &[u32]) -> u64 {
    set.iter().map(|&v| u64::from(g.degree(v))).sum()
}

/// A query from labels and edges.
fn query(num_labels: u32, labels: &[u32], edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(num_labels);
    for &l in labels {
        b.add_vertex(l);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Both sides of the scan rule. A round scans every query vertex with a
/// neighbour whose set costs at least as much (`scan_cost`) and decides
/// the others, whose neighbours are all strictly cheaper, from `reach`.
/// The shapes below put the cheap side at the hub and at the leaves, hang
/// several leaves off one scanned hub, tie the costs (K2 with equal
/// labels: `C(u) = C(u')`, so both sides are scanned), give a vertex two
/// neighbours of one label and two of different labels, add a vertex with
/// no edge at all, and run on data graphs whose `|V|` sits on every side
/// of a bitmap word edge. The 70- and 120-vertex queries cover two-word
/// masks next to these one-word ones.
#[test]
fn filters_match_references_on_both_sides_of_the_cheaper_side_rule() {
    let (mut hub_cheaper, mut leaf_cheaper, mut tied, mut pruned) = (0, 0, 0, 0);
    for n in [63u32, 64, 65, 129] {
        for labels in [2u32, 3] {
            let g = chorded_ring(n, labels, 3);
            let mut queries = Vec::new();
            for a in 0..labels {
                let (b, c) = ((a + 1) % labels, (a + 2) % labels);
                // Stars: distinct leaf labels, then one label on every leaf.
                queries.push(query(3, &[a, a, b, c], &[(0, 1), (0, 2), (0, 3)]));
                queries.push(query(3, &[a, b, b, b], &[(0, 1), (0, 2), (0, 3)]));
                // The hub with the largest id, its leaves before it.
                queries.push(query(3, &[b, b, c, a], &[(3, 0), (3, 1), (3, 2)]));
                // K2, equal and unequal labels; K2 beside an isolated vertex.
                queries.push(query(3, &[a, a], &[(0, 1)]));
                queries.push(query(3, &[a, b], &[(0, 1)]));
                queries.push(query(3, &[a, b, a], &[(1, 2)]));
                // Two inner vertices, two leaves.
                queries.push(query(3, &[a, b, c, a], &[(0, 1), (1, 2), (2, 3)]));
            }
            for q in &queries {
                assert_filters_match_references(q, &g);
                let nlf = NlfFilter.filter(q, &g);
                let cost: Vec<u64> = q.vertices().map(|u| scan_cost(&g, nlf.of(u))).collect();
                for u in q.vertices().filter(|&u| q.degree(u) == 1) {
                    let parent = q.neighbors(u)[0];
                    match cost[parent as usize].cmp(&cost[u as usize]) {
                        std::cmp::Ordering::Less => hub_cheaper += 1,
                        std::cmp::Ordering::Greater => leaf_cheaper += 1,
                        std::cmp::Ordering::Equal => tied += 1,
                    }
                }
                pruned += nlf.total() - GqlFilter::default().filter(q, &g).total();
            }
        }
    }
    assert!(hub_cheaper > 0 && leaf_cheaper > 0 && tied > 0, "{hub_cheaper} {leaf_cheaper} {tied}");
    assert!(pruned > 0, "refinement must have had something to remove");
}

/// `reach` is built from the start-of-round sets. Leaf `x` hangs off `y`,
/// which is processed first and loses its only candidate in round 1
/// (`C(z)` is empty: no label-2 vertex has a label-3 neighbour). `y` is
/// the cheap side, so `x` is decided by `reach(y)` alone — and must
/// survive round 1, since `b ∈ C(y)` when the round began, and fall in
/// round 2.
#[test]
fn a_leaf_whose_parent_empties_in_round_one_falls_in_round_two() {
    // q: x(0) - y(1) - z(2) - t(3), numbered y, z, t, x.
    let q = query(4, &[1, 2, 3, 0], &[(3, 0), (0, 1), (1, 2)]);
    let (y, z, x) = (0u32, 1u32, 3u32);
    // G: a(0) - b(1) - c(2), and three more label-0 neighbours on `a`.
    let g = query(4, &[0, 1, 2, 0, 0, 0], &[(0, 1), (1, 2), (0, 3), (0, 4), (0, 5)]);
    let (a, b) = (0u32, 1u32);
    let nlf = NlfFilter.filter(&q, &g);
    assert_eq!((nlf.of(x), nlf.of(y), nlf.of(z)), (&[a][..], &[b][..], &[][..]));
    assert!(scan_cost(&g, nlf.of(y)) < scan_cost(&g, nlf.of(x)), "y must be the cheap side of (x, y)");
    let one = GqlFilter { refinement_rounds: 1 }.filter(&q, &g);
    assert_eq!((one.of(x), one.of(y)), (&[a][..], &[][..]));
    assert!(GqlFilter { refinement_rounds: 2 }.filter(&q, &g).of(x).is_empty());
    assert_filters_match_references(&q, &g);
}

/// The table's saturation boundary: a star centre demanding 254, 255 and
/// 256 same-label neighbours against hubs that have 254, 255 and 300.
#[test]
fn filters_match_references_at_the_255_saturation_boundary() {
    let mut gb = GraphBuilder::new(2);
    let hubs: Vec<u32> = [254u32, 255, 300]
        .iter()
        .map(|&leaves| {
            let hub = gb.add_vertex(0);
            for _ in 0..leaves {
                let leaf = gb.add_vertex(1);
                gb.add_edge(hub, leaf);
            }
            hub
        })
        .collect();
    let g = gb.build();
    assert_eq!(g.vertices_with_label(0), &hubs[..]);
    assert_eq!(g.neighbor_label_column(0, 1), Some(&[254u8, 255, 255][..]), "300 saturates");
    for (demand, expect) in [(254u32, &hubs[..]), (255, &hubs[1..]), (256, &hubs[2..])] {
        let mut qb = GraphBuilder::new(2);
        let centre = qb.add_vertex(0);
        for _ in 0..demand {
            let leaf = qb.add_vertex(1);
            qb.add_edge(centre, leaf);
        }
        let q = qb.build();
        assert_eq!(NlfFilter.filter(&q, &g).of(centre), expect, "demand {demand}");
        assert_filters_match_references(&q, &g);
    }
}

/// The query was built against a wider label universe than the data graph
/// and demands a neighbour label the data graph does not have: empty
/// candidate sets, and no read past the end of a table row.
#[test]
fn filters_match_references_when_the_query_demands_a_label_the_data_graph_lacks() {
    let g = chorded_ring(40, 3, 3);
    let mut qb = GraphBuilder::new(6);
    let centre = qb.add_vertex(0);
    let known = qb.add_vertex(1);
    let alien = qb.add_vertex(5);
    qb.add_edge(centre, known);
    qb.add_edge(centre, alien);
    let q = qb.build();
    assert!((0..3).all(|l2| g.neighbor_label_column(0, l2).is_some()) && g.neighbor_label_column(0, 5).is_none());
    let nlf = NlfFilter.filter(&q, &g);
    assert!(nlf.of(centre).is_empty() && nlf.of(alien).is_empty());
    assert!(!nlf.of(known).is_empty(), "label 1 with a label-0 neighbour exists");
    assert_filters_match_references(&q, &g);
}

/// A label universe so wide that the data graph builds no table: NLF runs
/// on the scan alone and must not notice.
#[test]
fn filters_match_references_when_the_data_graph_has_no_label_table() {
    let g = chorded_ring(60, 3, 1000);
    assert!(g.neighbor_label_column(0, 0).is_none(), "60 x 1000 bytes is over twice the CSR size");
    let (q, _) = g.induced_subgraph(&(0..6).collect::<Vec<u32>>());
    assert!(!GqlFilter::default().filter(&q, &g).any_empty());
    assert_filters_match_references(&q, &g);
}

/// The column path against the retained scan, with no reference shipped
/// for it: the same edges built against a narrow label universe (table,
/// columns) and against 1000 labels (no table, scan) must filter alike.
#[test]
fn filters_agree_between_the_column_table_and_the_scan() {
    for (n, labels) in [(40u32, 2u32), (60, 3), (97, 5), (160, 3)] {
        let narrow = chorded_ring(n, labels, labels);
        let wide = chorded_ring(n, labels, 1000);
        assert!(narrow.neighbor_label_column(0, 0).is_some() && wide.neighbor_label_column(0, 0).is_none());
        for (start, size) in [(0u32, 1u32), (3, 4), (10, 8), (n - 20, 16)] {
            let window: Vec<u32> = (start..start + size).collect();
            let (q_narrow, _) = narrow.induced_subgraph(&window);
            let (q_wide, _) = wide.induced_subgraph(&window);
            for (what, filter) in [("NLF", &NlfFilter as &dyn CandidateFilter), ("GQL", &GqlFilter::DEFAULT)] {
                let scanned = filter.filter(&q_wide, &wide);
                let sets: Vec<Vec<u32>> = q_wide.vertices().map(|u| scanned.of(u).to_vec()).collect();
                assert!(sets.iter().all(|set| !set.is_empty()), "{what}: the window embeds in the ring");
                assert_same_candidates(&q_narrow, &narrow, &filter.filter(&q_narrow, &narrow), &sets, what);
            }
        }
    }
}

/// A data graph of ten label classes whose sizes straddle the vector
/// widths the column loops are compiled to, each class vertex adjacent to
/// a random number of label-10 and label-11 leaves (a few per class at the
/// table's saturation boundary), and a query of star centres — one per
/// class and demand — sharing one pool of leaves.
fn straddling_classes_case(seed: u64) -> (Graph, Graph) {
    use rand::{Rng, SeedableRng};
    const SIZES: [usize; 10] = [0, 1, 15, 16, 17, 31, 32, 33, 64, 300];
    const DEMANDS: [(u32, u32); 9] = [(0, 0), (1, 0), (2, 0), (254, 0), (255, 0), (1, 1), (2, 2), (254, 2), (255, 1)];
    let (leaf_a, leaf_b, num_labels) = (10u32, 11u32, 12u32);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let mut gb = GraphBuilder::new(num_labels);
    let a_pool: Vec<u32> = (0..300).map(|_| gb.add_vertex(leaf_a)).collect();
    let b_pool: Vec<u32> = (0..4).map(|_| gb.add_vertex(leaf_b)).collect();
    for (class, &size) in SIZES.iter().enumerate() {
        let members: Vec<u32> = (0..size).map(|_| gb.add_vertex(class as u32)).collect();
        let hubs: Vec<usize> = (0..4).map(|_| rng.gen_range(0..size.max(1))).collect();
        for (i, &v) in members.iter().enumerate() {
            let a_count: usize = if hubs.contains(&i) {
                [253, 254, 255, 256, 300][rng.gen_range(0..5usize)]
            } else {
                rng.gen_range(0..4)
            };
            let first = rng.gen_range(0..=a_pool.len() - a_count);
            for &leaf in &a_pool[first..first + a_count] {
                gb.add_edge(v, leaf);
            }
            for &leaf in &b_pool[..rng.gen_range(0..=b_pool.len())] {
                gb.add_edge(v, leaf);
            }
        }
    }

    let mut qb = GraphBuilder::new(num_labels);
    let a_pool: Vec<u32> = (0..255).map(|_| qb.add_vertex(leaf_a)).collect();
    let b_pool: Vec<u32> = (0..2).map(|_| qb.add_vertex(leaf_b)).collect();
    for class in 0..SIZES.len() as u32 {
        for (a_count, b_count) in DEMANDS {
            let centre = qb.add_vertex(class);
            for &leaf in a_pool[..a_count as usize].iter().chain(&b_pool[..b_count as usize]) {
                qb.add_edge(centre, leaf);
            }
        }
    }
    (qb.build(), gb.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The column scan at every class size around a vector width, with
    /// demands 1, 2, 254 (the last the table answers), 255 (the scan) and
    /// none (a degree-0 query vertex keeps its whole class: no column is
    /// read, and the degree test the column path dropped is vacuous).
    #[test]
    fn nlf_columns_match_the_definition_at_every_class_size(seed in 0u64..1000) {
        let (q, g) = straddling_classes_case(seed);
        assert_filters_match_references(&q, &g);
        let nlf = NlfFilter.filter(&q, &g);
        for class in 0..10u32 {
            let lone = q.vertices().find(|&u| q.label(u) == class && q.degree(u) == 0).expect("demand (0, 0)");
            prop_assert_eq!(nlf.of(lone), g.vertices_with_label(class));
        }
    }
}

// ---- The candidate space against the per-direction build it replaced.

/// The arenas of a `CandidateSpace`, as the per-direction build lays them
/// out: the reference the shipped build is pinned to.
struct RefSpace {
    cand_offsets: Vec<u32>,
    cand_flat: Vec<u32>,
    q_offsets: Vec<u32>,
    q_targets: Vec<u32>,
    edge_seg: Vec<u32>,
    list_offsets: Vec<u32>,
    nbr_pos: Vec<u32>,
}

/// `CandidateSpace::try_build_with_limit` as it shipped before the
/// cheaper-side rule: every directed query edge `(u, u')` scanned from
/// `C(u)`, each undirected edge twice, with every overflow check where it
/// was.
fn build_by_direction(q: &Graph, g: &Graph, cand: &Candidates, limit: u64) -> Result<RefSpace, ArenaOverflow> {
    if cand.total() as u64 > limit {
        return Err(ArenaOverflow { arena: "cand_flat", required: cand.total() as u64, limit });
    }
    let (mut cand_offsets, mut cand_flat) = (vec![0u32], Vec::new());
    for u in q.vertices() {
        cand_flat.extend_from_slice(cand.of(u));
        cand_offsets.push(cand_flat.len() as u32);
    }
    if 2 * q.num_edges() as u64 > limit {
        return Err(ArenaOverflow { arena: "q_targets", required: 2 * q.num_edges() as u64, limit });
    }
    let (mut q_offsets, mut q_targets) = (vec![0u32], Vec::new());
    for u in q.vertices() {
        q_targets.extend_from_slice(q.neighbors(u));
        q_offsets.push(q_targets.len() as u32);
    }
    let (mut edge_seg, mut list_offsets, mut nbr_pos) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch: Vec<u32> = Vec::new();
    const UNMAPPED: u32 = u32::MAX;
    let mut pos_of: Vec<u32> = vec![UNMAPPED; g.num_vertices()];
    for u in q.vertices() {
        for &up in q.neighbors(u) {
            if list_offsets.len() as u64 > limit {
                return Err(ArenaOverflow { arena: "list_offsets", required: list_offsets.len() as u64, limit });
            }
            edge_seg.push(list_offsets.len() as u32);
            let c_up = cand.of(up);
            for (j, &w) in c_up.iter().enumerate() {
                pos_of[w as usize] = j as u32;
            }
            for &v in cand.of(u) {
                if nbr_pos.len() as u64 > limit {
                    return Err(ArenaOverflow { arena: "nbr_pos", required: nbr_pos.len() as u64, limit });
                }
                list_offsets.push(nbr_pos.len() as u32);
                let nv = g.neighbors(v);
                if nv.len() >= c_up.len().saturating_mul(16) {
                    rlqvo_graph::intersect_positions_into(&mut scratch, nv, c_up);
                    nbr_pos.extend_from_slice(&scratch);
                } else {
                    nbr_pos.extend(nv.iter().map(|&w| pos_of[w as usize]).filter(|&p| p != UNMAPPED));
                }
            }
            for &w in c_up {
                pos_of[w as usize] = UNMAPPED;
            }
        }
    }
    if nbr_pos.len() as u64 > limit {
        return Err(ArenaOverflow { arena: "nbr_pos", required: nbr_pos.len() as u64, limit });
    }
    list_offsets.push(nbr_pos.len() as u32);
    Ok(RefSpace { cand_offsets, cand_flat, q_offsets, q_targets, edge_seg, list_offsets, nbr_pos })
}

/// `cs` holds exactly the arenas of `r`. Read through the accessors, which
/// between them reach every arena: `cand` the candidate CSR, `edge_id` the
/// query CSR, `edge_list` the two-level edge CSR at every (edge, position);
/// `total_edge_list_entries` and `storage_bytes` leave no room for an entry
/// the accessors do not reach.
fn assert_same_space(q: &Graph, cs: &CandidateSpace, r: &RefSpace, what: &str) {
    assert_eq!(cs.num_query_vertices(), q.num_vertices(), "{what}");
    for u in q.vertices() {
        let (s, t) = (r.cand_offsets[u as usize] as usize, r.cand_offsets[u as usize + 1] as usize);
        assert_eq!(cs.cand(u), &r.cand_flat[s..t], "{what}: C({u})");
        for (k, e) in (r.q_offsets[u as usize]..r.q_offsets[u as usize + 1]).enumerate() {
            let up = r.q_targets[e as usize];
            assert_eq!(q.neighbors(u)[k], up, "{what}");
            assert_eq!(cs.edge_id(u, up), Some(e), "{what}: edge ({u}, {up})");
            for pos in 0..t - s {
                let seg = r.edge_seg[e as usize] as usize + pos;
                let list = &r.nbr_pos[r.list_offsets[seg] as usize..r.list_offsets[seg + 1] as usize];
                assert_eq!(cs.edge_list(e, pos as u32), list, "{what}: edge ({u}, {up}) position {pos}");
            }
        }
    }
    assert_eq!(cs.total_edge_list_entries(), r.nbr_pos.len(), "{what}");
    let entries = [&r.cand_offsets, &r.cand_flat, &r.q_offsets, &r.q_targets, &r.edge_seg, &r.list_offsets, &r.nbr_pos];
    assert_eq!(cs.storage_bytes(), 4 * entries.iter().map(|a| a.len()).sum::<usize>(), "{what}");
}

/// Two hubs joined by an edge, 30 spokes on the first and 20 on the
/// second, and the query K2 with `C(0)` = the dearer hub, `C(1)` = the
/// cheaper one: the cheaper endpoint has the larger id, so the first-seen
/// edge `(0, 1)` goes through the one-edge temp, and its scan takes the
/// gallop arm (`d(v) = 21 ≥ 16·|C(0)|`).
fn two_hub_case() -> (Graph, Graph, Candidates) {
    let mut gb = GraphBuilder::new(1);
    let (h0, h1) = (gb.add_vertex(0), gb.add_vertex(0));
    gb.add_edge(h0, h1);
    for (hub, spokes) in [(h0, 30), (h1, 20)] {
        for _ in 0..spokes {
            let s = gb.add_vertex(0);
            gb.add_edge(hub, s);
        }
    }
    (query(1, &[0, 0], &[(0, 1)]), gb.build(), Candidates::new(vec![vec![h0], vec![h1]]))
}

/// The whole space equals the per-direction build on random
/// (q, G, candidates) — LDF, NLF and GQL sets, and random subsets of LDF's,
/// which are what empties a set or ties two costs — and the cases the
/// cheaper-side rule treats differently all occur: the gallop arm on the
/// scanned side, a cheaper endpoint with the larger id (the one-edge
/// temp), an empty `C(u)`, equal costs.
#[test]
fn candidate_space_equals_the_per_direction_build() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(24);
    let mut cases: Vec<(Graph, Graph, Candidates)> = vec![two_hub_case()];
    for case in 0..400u64 {
        // A sparse random graph under a hub of high degree, so that small
        // candidate sets meet long adjacency lists.
        let n = rng.gen_range(6..48u32);
        let labels = rng.gen_range(1..4u32);
        let mut gb = GraphBuilder::new(labels);
        for _ in 0..n {
            gb.add_vertex(rng.gen_range(0..labels));
        }
        for v in 1..n {
            gb.add_edge(v, rng.gen_range(0..v));
            if rng.gen_range(0..3u32) > 0 {
                gb.add_edge(v, 0);
            }
        }
        let g = gb.build();
        let Some(q) = query_of(&g, case, rng.gen_range(2..7usize)) else { continue };
        let ldf = LdfFilter.filter(&q, &g);
        let subsets = q
            .vertices()
            .map(|u| match rng.gen_range(0..8u32) {
                0 => Vec::new(),
                keep => ldf.of(u).iter().copied().filter(|_| rng.gen_range(0..8u32) < keep).collect(),
            })
            .collect();
        for cand in [ldf, NlfFilter.filter(&q, &g), GqlFilter::DEFAULT.filter(&q, &g), Candidates::new(subsets)] {
            cases.push((q.clone(), g.clone(), cand));
        }
    }
    let (mut gallop, mut temp, mut empty, mut tied) = (0, 0, 0, 0);
    for (i, (q, g, cand)) in cases.iter().enumerate() {
        let reference = build_by_direction(q, g, cand, u64::from(u32::MAX)).expect("small inputs always fit");
        assert_same_space(q, &CandidateSpace::build(q, g, cand), &reference, &format!("case {i}"));
        empty += cand.any_empty() as usize;
        for (u, up) in q.edges() {
            let (cu, cup) = (scan_cost(g, cand.of(u)), scan_cost(g, cand.of(up)));
            let (from, to) = if cup < cu { (up, u) } else { (u, up) };
            temp += (from > to) as usize;
            tied += (cu == cup && cu > 0) as usize;
            let long = |&v: &u32| g.degree(v) as usize >= 16 * cand.len_of(to);
            gallop += (cand.len_of(to) > 0 && cand.of(from).iter().any(long)) as usize;
        }
    }
    assert!(gallop > 0 && temp > 0 && empty > 0 && tied > 0, "{gallop} {temp} {empty} {tied}");
}

/// The refinement and the build on the hosts the ledger times, scaled to
/// 800 vertices: Q8 and Q16 queries sampled from the yeast, dblp and
/// eu2005 analogs, whose label skew, hubs and `V(G)` hundreds of words
/// wide the random graphs above do not have. `GqlFilter::filter` equals
/// `filter_reference` (sets and `contains`), and the space built on its
/// sets equals the per-direction build.
#[test]
fn filter_and_build_match_references_on_the_dataset_analogs() {
    use rlqvo_datasets::{build_query_set, Dataset};
    let mut pruned = 0;
    for dataset in [Dataset::Yeast, Dataset::Dblp, Dataset::Eu2005] {
        let g = dataset.load_scaled(800);
        for size in [8, 16] {
            for (i, q) in build_query_set(&g, size, 6, 28).queries.iter().enumerate() {
                let what = format!("{} Q{size} query {i}", dataset.name());
                let reference = GqlFilter::DEFAULT.filter_reference(q, &g);
                let sets: Vec<Vec<u32>> = q.vertices().map(|u| reference.of(u).to_vec()).collect();
                let cand = GqlFilter::DEFAULT.filter(q, &g);
                assert_same_candidates(q, &g, &cand, &sets, &what);
                let by_direction = build_by_direction(q, &g, &cand, u64::from(u32::MAX)).expect("fits");
                assert_same_space(q, &CandidateSpace::build(q, &g, &cand), &by_direction, &what);
                pruned += NlfFilter.filter(q, &g).total() - cand.total();
            }
        }
    }
    assert!(pruned > 0, "refinement must have had something to remove");
}

/// Every ceiling from nothing to one past the requirement: below it the
/// build refuses with the very error the per-direction build gave — same
/// arena, same lower bound — and at or above it returns the one space.
#[test]
fn try_build_with_limit_refuses_or_returns_the_same_space_at_every_limit() {
    let g = chorded_ring(40, 2, 2);
    let (q, _) = g.induced_subgraph(&[0, 1, 2, 3]);
    let ring = (q.clone(), g.clone(), NlfFilter.filter(&q, &g));
    for (q, g, cand) in [ring, two_hub_case()] {
        let full = CandidateSpace::build(&q, &g, &cand);
        let need = (0..).find(|&limit| build_by_direction(&q, &g, &cand, limit).is_ok()).unwrap();
        assert!(need >= full.total_edge_list_entries() as u64 && need > 0);
        for limit in 0..=need + 1 {
            let got = CandidateSpace::try_build_with_limit(&q, &g, cand.clone(), limit);
            match (got, build_by_direction(&q, &g, &cand, limit)) {
                (Ok(space), Ok(_)) => assert!(limit >= need && space == full, "limit {limit}"),
                (Err(got), Err(want)) => assert!(limit < need && got == want, "limit {limit}: {got:?} vs {want:?}"),
                (got, want) => panic!("limit {limit}: {:?} vs {:?}", got.map(|_| ()), want.map(|_| ())),
            }
        }
    }
}

// ---- The space engine's cached bitmaps against the probe oracle.

/// `n` vertices of `labels` random labels, each joined to each of its next
/// `width` with probability `p`: local density, so sampled queries close
/// cycles, at a size that sets how many words `C(u)` is wide.
fn random_band(rng: &mut rand::rngs::StdRng, n: u32, labels: u32, width: u32, p: f64) -> Graph {
    use rand::Rng;
    let mut b = GraphBuilder::new(labels);
    for _ in 0..n {
        b.add_vertex(rng.gen_range(0..labels));
    }
    for i in 0..n {
        for j in i + 1..n.min(i + width + 1) {
            if rng.gen_bool(p) {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

/// Which ways the space engine computes `LC` on the way to each of
/// `matches`, read from list lengths: at a level of two backward
/// neighbours or more, `[bitmap, AND, merge]` — the cached bitmaps when
/// every shallower list has at least one entry per word of `C(u)` (their
/// AND when there are two or more), else the merge.
fn lc_paths(q: &Graph, cs: &CandidateSpace, order: &[u32], matches: &[Vec<u32>]) -> [usize; 3] {
    let mut paths = [0; 3];
    for (depth, &u) in order.iter().enumerate() {
        let backward: Vec<u32> = order[..depth].iter().copied().filter(|&b| q.has_edge(b, u)).collect();
        let Some((_, shallower)) = backward.split_last().filter(|(_, s)| !s.is_empty()) else { continue };
        let words = cs.cand_len(u).div_ceil(64);
        for m in matches {
            let len = |b: u32| {
                let pos = cs.cand(b).binary_search(&m[b as usize]).expect("a candidate") as u32;
                cs.edge_list(cs.edge_id(b, u).expect("a query edge"), pos).len()
            };
            let path = if shallower.iter().all(|&b| len(b) >= words) { usize::from(shallower.len() > 1) } else { 2 };
            paths[path] += 1;
        }
    }
    paths
}

/// The space engine equals the probe oracle where it intersects against
/// cached bitmaps: random 2- and 3-label hosts from 40 to 900 vertices, so
/// `C(u)` runs from under one bitmap word to several hundred candidates;
/// connected Q4–Q8 sampled from them, under random orders with a level of
/// two backward neighbours or more. Counts, flags and streams equal the
/// serial probe engine's on find-all, counted and stored, at 1, 2 and 4
/// workers, and serially under random budgets and caps. Over the cases,
/// the bitmap path, the AND of bitmaps and the merge all occur. Reusing a
/// bitmap without checking its tag fails it (see the header).
#[test]
fn space_engine_bitmaps_agree_with_the_probe_oracle() {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let (mut paths, mut cases) = ([0; 3], 0);
    for case in 0..72u64 {
        let n = [40u32, 120, 300, 900][case as usize % 4];
        let (labels, width, p) = (rng.gen_range(2..=3u32), rng.gen_range(4..=10u32), rng.gen_range(0.3..0.9));
        let g = random_band(&mut rng, n, labels, width, p);
        let Some(q) = query_of(&g, case, rng.gen_range(4..=8usize)) else { continue };
        let mut order: Vec<u32> = q.vertices().collect();
        order.shuffle(&mut rng);
        if !(0..order.len()).any(|d| order[..d].iter().filter(|&&b| q.has_edge(b, order[d])).count() >= 2) {
            continue;
        }
        let cand = if case % 2 == 0 { LdfFilter.filter(&q, &g) } else { GqlFilter::DEFAULT.filter(&q, &g) };
        let cs = CandidateSpace::build(&q, &g, &cand);
        let counting = EnumConfig::find_all().with_threads(1);
        let storing = EnumConfig { store_matches: true, ..counting };
        // Bounded, so a dense draw costs milliseconds; one that needs more is skipped.
        let all = enumerate_probe(&q, &g, &cand, &order, EnumConfig { max_enumerations: 100_000, ..storing });
        if all.budget_exhausted {
            continue;
        }
        cases += 1;
        let triple = |r: &rlqvo_matching::EnumResult| (r.match_count, r.enumerations, r.budget_exhausted);
        let mut configs: Vec<EnumConfig> =
            [1, 2, 4].iter().flat_map(|&t| [counting.with_threads(t), storing.with_threads(t)]).collect();
        for _ in 0..4 {
            let (max_enumerations, max_matches) =
                (rng.gen_range(1..=all.enumerations + 1), rng.gen_range(1..=all.match_count + 1));
            for cfg in [counting, storing] {
                configs.extend([EnumConfig { max_enumerations, ..cfg }, EnumConfig { max_matches, ..cfg }]);
            }
        }
        for cfg in configs {
            let what = format!("case {case}: order {order:?} {cfg:?}");
            // Parallel runs are find-all, which is the serial run.
            let probe = enumerate_probe(&q, &g, &cand, &order, cfg.with_threads(1));
            let space = enumerate_in_space(&q, &cs, &order, cfg);
            assert_eq!(triple(&space), triple(&probe), "{what}");
            assert_eq!(space.matches, probe.matches, "{what}: stream");
        }
        for (total, seen) in paths.iter_mut().zip(lc_paths(&q, &cs, &order, &all.matches)) {
            *total += seen;
        }
    }
    assert!(cases >= 36, "only {cases} cases ran");
    assert!(paths.iter().all(|&p| p > 0), "bitmap / AND / merge: {paths:?}");
}
