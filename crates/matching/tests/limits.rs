//! Failure injection and limit-interplay tests for the enumeration engine:
//! the paper's evaluation protocol (match caps, time limits, unsolved
//! accounting) depends on these behaviours being exact.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rlqvo_graph::{Graph, GraphBuilder, VertexId};
use rlqvo_matching::order::{OrderingMethod, RiOrdering};
use rlqvo_matching::{
    enumerate, enumerate_in_space, enumerate_probe, suffix_paths, CandidateFilter, CandidateSpace, EnumConfig,
    EnumEngine, EnumResult, GqlFilter, LdfFilter, SuffixPaths,
};

const ENGINES: [EnumEngine; 2] = [EnumEngine::Probe, EnumEngine::CandidateSpace];

/// A dense labeled host graph with plenty of matches.
fn host(n: u32, labels: u32) -> rlqvo_graph::Graph {
    let mut b = GraphBuilder::new(labels);
    for i in 0..n {
        b.add_vertex(i % labels);
    }
    for i in 0..n {
        for j in (i + 1)..n.min(i + 6) {
            b.add_edge(i, j);
        }
    }
    b.build()
}

fn query(labels: u32) -> rlqvo_graph::Graph {
    let mut b = GraphBuilder::new(labels);
    let a = b.add_vertex(0);
    let c = b.add_vertex(1);
    let d = b.add_vertex(2);
    b.add_edge(a, c);
    b.add_edge(c, d);
    b.build()
}

#[test]
fn match_cap_is_exact() {
    let g = host(40, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for threads in [1, 2, 4] {
        let find_all = EnumConfig::find_all().with_threads(threads);
        let all = enumerate(&q, &g, &cand, &order, find_all).match_count;
        assert!(all > 10, "need enough matches for the test ({all})");
        for cap in [1u64, 2, 5, all - 1, all, all + 10] {
            let res = enumerate(&q, &g, &cand, &order, EnumConfig { max_matches: cap, ..find_all });
            assert_eq!(res.match_count, cap.min(all), "cap {cap} x{threads}");
        }
    }
}

#[test]
fn enumeration_count_monotone_in_match_cap() {
    let g = host(40, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    let mut last = 0u64;
    for cap in [1u64, 4, 16, 64, 256] {
        // Serial pin: capped parallel runs deliberately overshoot (the
        // documented at-least semantics), which would break monotonicity.
        let cfg = EnumConfig { max_matches: cap, ..EnumConfig::find_all() }.with_threads(1);
        let res = enumerate(&q, &g, &cand, &order, cfg);
        assert!(res.enumerations >= last, "#enum must grow with the cap");
        last = res.enumerations;
    }
}

#[test]
fn budget_truncates_consistently() {
    let g = host(60, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for threads in [1, 2, 4] {
        let full = enumerate(&q, &g, &cand, &order, EnumConfig::find_all().with_threads(threads));
        let half = enumerate(&q, &g, &cand, &order, EnumConfig::budgeted(full.enumerations / 2));
        assert!(half.budget_exhausted);
        assert!(half.enumerations <= full.enumerations / 2);
        assert!(half.match_count <= full.match_count);
        // A budget beyond the natural cost changes nothing and is not flagged.
        let loose = enumerate(&q, &g, &cand, &order, EnumConfig::budgeted(full.enumerations * 2));
        assert!(!loose.budget_exhausted);
        assert_eq!(loose.match_count, full.match_count, "x{threads}");
    }
}

#[test]
fn zero_time_limit_times_out_without_panicking() {
    let g = host(200, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for threads in [1, 2, 4] {
        let config = EnumConfig { time_limit: Duration::ZERO, ..EnumConfig::find_all() }.with_threads(threads);
        let res = enumerate(&q, &g, &cand, &order, config);
        // Timeout checks are amortized every 1024 calls *per worker*, so tiny
        // runs may finish first; either way the engine must terminate cleanly.
        assert!(res.timed_out || res.enumerations < 2048 * threads as u64, "x{threads}");
    }
}

#[test]
fn stored_matches_respect_cap() {
    let g = host(40, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for threads in [1, 2, 4] {
        let cfg = EnumConfig { max_matches: 7, store_matches: true, ..EnumConfig::find_all() }.with_threads(threads);
        let res = enumerate(&q, &g, &cand, &order, cfg);
        assert_eq!(res.matches.len(), 7, "x{threads}");
        for m in &res.matches {
            // Valid embeddings even under truncation.
            for (u, &v) in m.iter().enumerate() {
                assert_eq!(q.label(u as u32), g.label(v));
            }
            assert!(g.has_edge(m[0], m[1]) && g.has_edge(m[1], m[2]));
        }
    }
}

/// A single-label dense host whose path queries explode combinatorially:
/// a 6-vertex one-label path has millions of partial embeddings, so a
/// run against it cannot finish inside a few-millisecond deadline — the
/// fixture the cooperative-cancel tests need to be deterministic.
fn heavy_host() -> rlqvo_graph::Graph {
    let mut b = GraphBuilder::new(1);
    for _ in 0..80 {
        b.add_vertex(0);
    }
    for i in 0..80u32 {
        for j in (i + 1)..80.min(i + 11) {
            b.add_edge(i, j);
        }
    }
    b.build()
}

fn heavy_query() -> rlqvo_graph::Graph {
    let mut b = GraphBuilder::new(1);
    let vs: Vec<_> = (0..6).map(|_| b.add_vertex(0)).collect();
    for w in vs.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.build()
}

#[test]
fn budgeted_with_threads_clamps_to_serial() {
    // The RL training budget needs exact `#enum` determinism; a worker
    // pool has at-least semantics. Combining them is a documented clamp,
    // not silent nondeterminism.
    assert_eq!(EnumConfig::budgeted(1000).with_threads(8).threads, 1);
    assert_eq!(EnumConfig::budgeted(1000).with_threads(8).with_engine(EnumEngine::Probe).threads, 1);
    // Non-budgeted configs still honour the request.
    assert_eq!(EnumConfig::find_all().with_threads(8).threads, 8);
}

#[test]
fn budgeted_with_threads_stays_deterministic() {
    let g = host(60, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    let serial = enumerate(&q, &g, &cand, &order, EnumConfig::budgeted(5_000));
    let clamped = enumerate(&q, &g, &cand, &order, EnumConfig::budgeted(5_000).with_threads(4));
    assert_eq!(serial.enumerations, clamped.enumerations);
    assert_eq!(serial.match_count, clamped.match_count);
}

#[test]
fn pre_expired_deadline_cancels_with_zero_work() {
    let g = host(40, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
        let cfg = EnumConfig::find_all().with_engine(engine).with_deadline(Instant::now());
        let res = enumerate(&q, &g, &cand, &order, cfg);
        assert!(res.cancelled, "{engine:?}");
        assert_eq!(res.enumerations, 0, "a pre-expired deadline performs zero recursion calls");
        assert_eq!(res.match_count, 0);
        assert!(!res.timed_out && !res.budget_exhausted);
    }
}

#[test]
fn short_deadline_cancels_on_the_cadence_serial() {
    let g = heavy_host();
    let q = heavy_query();
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
        let cfg = EnumConfig::find_all()
            .with_engine(engine)
            .with_threads(1)
            .with_deadline(Instant::now() + Duration::from_millis(5));
        let res = enumerate(&q, &g, &cand, &order, cfg);
        assert!(res.cancelled, "{engine:?}");
        assert!(res.enumerations > 0, "the run started before the deadline expired");
        // The cancel check is amortized: it fires exactly when the call
        // counter crosses a 1024 boundary, so a cancelled serial run's
        // `#enum` is always a multiple of the cadence.
        assert_eq!(res.enumerations % 1024, 0, "{engine:?}: cancel must fire at a cadence boundary");
    }
}

#[test]
fn short_deadline_cancels_parallel_run() {
    let g = heavy_host();
    let q = heavy_query();
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
        let cfg = EnumConfig::find_all()
            .with_engine(engine)
            .with_threads(4)
            .with_deadline(Instant::now() + Duration::from_millis(5));
        let res = enumerate(&q, &g, &cand, &order, cfg);
        assert!(res.cancelled, "{engine:?}");
        // Every worker answers within one cadence window of the deadline;
        // the generous bound only guards against a hang.
        assert!(res.elapsed < Duration::from_secs(30), "{engine:?}: cancelled run must return promptly");
    }
}

static PRE_RAISED_CANCEL: AtomicBool = AtomicBool::new(false);

#[test]
fn raised_cancel_flag_rejects_at_entry() {
    PRE_RAISED_CANCEL.store(true, Ordering::Relaxed);
    let g = host(40, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    let res = enumerate(&q, &g, &cand, &order, EnumConfig::find_all().with_cancel_flag(&PRE_RAISED_CANCEL));
    assert!(res.cancelled);
    assert_eq!(res.enumerations, 0);
}

static MID_RUN_CANCEL: AtomicBool = AtomicBool::new(false);

#[test]
fn cancel_flag_raised_mid_run_stops_within_a_cadence_window() {
    let g = heavy_host();
    let q = heavy_query();
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    let killer = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(5));
        MID_RUN_CANCEL.store(true, Ordering::Relaxed);
    });
    let cfg = EnumConfig::find_all().with_threads(1).with_cancel_flag(&MID_RUN_CANCEL);
    let res = enumerate(&q, &g, &cand, &order, cfg);
    killer.join().unwrap();
    assert!(res.cancelled);
    assert!(res.enumerations > 0 && res.enumerations.is_multiple_of(1024));
}

#[test]
fn zero_match_cap_asks_for_nothing() {
    let g = host(40, 3);
    let q = query(3);
    let cand = LdfFilter.filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    for engine in ENGINES {
        for threads in [1usize, 2, 4] {
            for store_matches in [false, true] {
                let cfg = EnumConfig { max_matches: 0, store_matches, ..EnumConfig::find_all() }
                    .with_engine(engine)
                    .with_threads(threads);
                let res = enumerate(&q, &g, &cand, &order, cfg);
                let what = format!("{engine:?} x{threads} store={store_matches}");
                assert_eq!((res.match_count, res.enumerations), (0, 0), "{what}");
                assert!(res.matches.is_empty(), "{what}");
                assert!(!res.budget_exhausted && !res.timed_out && !res.cancelled, "{what}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Budgets and caps land exactly: a sweep against Algorithm 2 written out
// ---------------------------------------------------------------------------

fn labeled(labels: &[u32], edges: impl IntoIterator<Item = (u32, u32)>) -> Graph {
    let mut b = GraphBuilder::new(labels.iter().max().map_or(1, |&l| l + 1));
    for &l in labels {
        b.add_vertex(l);
    }
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

fn one_label(n: u32, edges: impl IntoIterator<Item = (u32, u32)>) -> Graph {
    labeled(&vec![0; n as usize], edges)
}

/// `n` vertices of one label, each joined to its next `k`.
fn band(n: u32, k: u32) -> Graph {
    one_label(n, (0..n).flat_map(|i| (i + 1..n.min(i + k + 1)).map(move |j| (i, j))))
}

/// Every budget and every cap in `1..=3000` and around the run's own
/// totals, serial, on both engines: counts and flag equal the reference's,
/// and a storing run returns exactly the counted prefix of find-all — which,
/// counted or stored, is byte-identical at 1, 2 and 4 workers. Returns the
/// suffix paths one serial find-all takes, which both engines agree on.
fn sweep(q: &Graph, g: &Graph, order: &[VertexId]) -> SuffixPaths {
    let cand = LdfFilter.filter(q, g);
    let reference = |max_enumerations, max_matches, stream| {
        common::algorithm2(q, g, &cand, order, max_enumerations, max_matches, stream)
    };
    let ((matches, calls, _), stream) = reference(u64::MAX, u64::MAX, true);
    // Every limit of the sweep binds, across three cadence boundaries.
    assert!(calls > 3 * 1024 && matches > 3000, "fixture too small: {calls} calls, {matches} matches");
    let around = |total: u64| (1..=3000).chain([total - 1, total, total + 1]);
    let limits: Vec<(u64, u64)> =
        around(calls).map(|b| (b, u64::MAX)).chain(around(matches).map(|c| (u64::MAX, c))).collect();
    let expected: Vec<_> = limits.iter().map(|&(b, c)| reference(b, c, false).0).collect();

    let cs = CandidateSpace::build(q, g, &cand);
    let triple = |r: &EnumResult| (r.match_count, r.enumerations, r.budget_exhausted);
    let serial = EnumConfig::find_all().with_threads(1);
    let storing = EnumConfig { store_matches: true, ..serial };
    let mut paths = Vec::new();
    for engine in ENGINES {
        let run = |cfg: EnumConfig| match engine {
            EnumEngine::Probe => enumerate_probe(q, g, &cand, order, cfg),
            _ => enumerate_in_space(q, &cs, order, cfg),
        };
        let before = suffix_paths();
        let counted = run(serial);
        paths.push(suffix_paths() - before);
        assert_eq!(triple(&counted), (matches, calls, false), "{engine:?} find-all");
        let all = run(storing);
        assert_eq!(triple(&all), (matches, calls, false), "{engine:?} find-all (storing)");
        assert_eq!(Some(&all.matches), stream.as_ref(), "{engine:?} find-all stream");
        for threads in [2usize, 4] {
            assert_eq!(triple(&run(serial.with_threads(threads))), triple(&all), "{engine:?} x{threads}");
            let par = run(storing.with_threads(threads));
            assert_eq!(triple(&par), triple(&all), "{engine:?} x{threads} (storing)");
            assert_eq!(par.matches, all.matches, "{engine:?} x{threads} stream");
        }
        for (&(max_enumerations, max_matches), &expected) in limits.iter().zip(&expected) {
            let what = format!("{engine:?} budget {max_enumerations} cap {max_matches}");
            let counted = run(EnumConfig { max_enumerations, max_matches, ..serial });
            assert_eq!(triple(&counted), expected, "{what}");
            let stored = run(EnumConfig { max_enumerations, max_matches, ..storing });
            assert_eq!(triple(&stored), expected, "{what} (storing)");
            assert_eq!(stored.matches[..], all.matches[..expected.0 as usize], "{what} (stream)");
        }
    }
    assert_eq!(paths[0], paths[1], "both engines take the same suffix paths");
    paths[0]
}

// One fixture per shape in which the last level's list reaches the
// recursion. All labels are equal, so that list holds mapped vertices
// wherever the query allows it, and hosts are sized to a little over 3072
// calls and 3000 matches.

/// Space engine `All`, probe engine `List`, at depth 0.
#[test]
fn budgets_and_caps_land_exactly_on_a_one_vertex_query() {
    sweep(&one_label(1, []), &one_label(3100, []), &[0]);
}

/// The same two shapes below a prefix: the last vertex is isolated, so it
/// and its predecessor form an independent suffix whose last level is the
/// whole candidate set, and whose other level's candidates are all in it —
/// each booked with the last level one short.
#[test]
fn budgets_and_caps_land_exactly_on_a_disconnected_last_vertex() {
    let paths = sweep(&one_label(3, [(0, 1)]), &band(42, 1), &[0, 1, 2]);
    assert!(paths.counted > 0 && paths.short > 0, "{paths:?}");
    assert_eq!((paths.clashed, paths.emptied), (0, 0), "{paths:?}");
}

/// Space engine `List`: one backward neighbour, whose own predecessor
/// sits in the last list.
#[test]
fn budgets_and_caps_land_exactly_on_a_pendant_last_vertex() {
    let (q, g) = pendant();
    sweep(&q, &g, &[0, 1, 2]);
}

/// A 3-path and its host: 91 % of a run's calls are leaf calls.
fn pendant() -> (Graph, Graph) {
    (one_label(3, [(0, 1), (1, 2)]), band(24, 7))
}

/// `Buf` of two lists: the 4-cycle's last list holds vertex 1's image.
#[test]
fn budgets_and_caps_land_exactly_on_two_backward_neighbours() {
    sweep(&one_label(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), &band(14, 5), &[0, 1, 2, 3]);
}

/// `Buf` of three lists, sorted first: K_{2,3}, whose last list holds the
/// image of the other degree-3 vertex.
#[test]
fn budgets_and_caps_land_exactly_on_three_backward_neighbours() {
    sweep(&one_label(5, [(0, 1), (1, 2), (1, 3), (4, 0), (4, 2), (4, 3)]), &band(8, 5), &[0, 1, 2, 3, 4]);
}

// Fixtures for the space engine's two ways of intersecting two lists and
// more: against cached bitmaps of the shallower lists when each has at least
// one entry per bitmap word of `C(u)`, else by merging. Each asserts from its
// space's list lengths which of them its levels take.

/// What the space engine reads at `order[depth]` to choose, in the space
/// `sweep` enumerates in: the bitmap words of the level's candidate set
/// and, per backward neighbour in order, the list of the edge from it at
/// each of that neighbour's candidates.
fn lists_at(q: &Graph, g: &Graph, order: &[VertexId], depth: usize) -> (usize, Vec<Vec<Vec<u32>>>) {
    let cs = CandidateSpace::build(q, g, &LdfFilter.filter(q, g));
    let u = order[depth];
    let lists = order[..depth]
        .iter()
        .filter_map(|&b| {
            cs.edge_id(b, u).map(|e| (0..cs.cand_len(b) as u32).map(|p| cs.edge_list(e, p).to_vec()).collect())
        })
        .collect();
    (cs.cand_len(u).div_ceil(64), lists)
}

/// A triangle on a 100-vertex band, so the last level's two lists index a
/// candidate set two words wide, and the lists of vertices around 63 set
/// bits on both sides of the word edge. Every shallower list is long enough
/// for its bitmap.
#[test]
fn budgets_and_caps_land_exactly_on_a_two_list_level_two_words_wide() {
    let (q, g) = (one_label(3, [(0, 1), (1, 2), (0, 2)]), band(100, 4));
    let order = [0, 1, 2];
    let (words, lists) = lists_at(&q, &g, &order, 2);
    assert_eq!((words, lists.len()), (2, 2));
    assert!(lists[0].iter().all(|l| l.len() >= words), "every call takes the bitmap path");
    for side in &lists {
        assert!(side.iter().any(|l| l.contains(&63) && l.contains(&64)), "a list straddles the word edge");
    }
    sweep(&q, &g, &order);
}

/// K4 on a one-label band in order: depth 2 reads one cached bitmap, depth
/// 3 the AND of two.
#[test]
fn budgets_and_caps_land_exactly_on_k4_through_one_bitmap_then_an_and() {
    let q = one_label(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    let g = band(24, 5);
    let order = [0, 1, 2, 3];
    for (depth, shallower) in [(2, 1), (3, 2)] {
        let (words, lists) = lists_at(&q, &g, &order, depth);
        assert_eq!(lists.len(), shallower + 1, "depth {depth}");
        assert!(lists[..shallower].iter().flatten().all(|l| l.len() >= words), "depth {depth}: bitmaps every call");
    }
    sweep(&q, &g, &order);
}

/// Rare hubs among low-degree commons, all of one label: five hubs, each
/// joined to the next 25 vertices of a 300-vertex band of width 2. A
/// triangle's last level has one shallower list, its root's, over a
/// candidate set five words wide: a hub's list is long enough for its
/// bitmap, and a common's four entries away from the hubs are merged.
#[test]
fn budgets_and_caps_land_exactly_on_a_skewed_hub_through_both_paths() {
    let hubs = (0..300).step_by(60).flat_map(|h| (h + 1..=h + 25).map(move |j| (h, j)));
    let g = one_label(300, (0..298).flat_map(|i| [(i, i + 1), (i, i + 2)]).chain([(298, 299)]).chain(hubs));
    let (q, order) = (one_label(3, [(0, 1), (1, 2), (0, 2)]), [0, 1, 2]);
    let (words, lists) = lists_at(&q, &g, &order, 2);
    assert_eq!((words, lists.len()), (5, 2));
    assert!(lists[0].iter().any(|l| l.len() >= words), "a hub's list takes the bitmap path");
    assert!(lists[0].iter().any(|l| l.len() < words), "a common's list merges");
    sweep(&q, &g, &order);
}

// Fixtures whose order ends in an independent suffix of two levels or more
// — every `LC` in it reads only vertices placed before it — so calls there
// book their children's subtrees as products. Each names the path of that
// counting it reaches, and asserts that it does.

/// A star query, its hub (label 0) first, then one leaf per entry of
/// `leaves`, of that label: every leaf is in the suffix.
fn star(leaves: &[u32]) -> (Graph, Vec<VertexId>) {
    let labels: Vec<u32> = std::iter::once(0).chain(leaves.iter().copied()).collect();
    let q = labeled(&labels, (1..labels.len() as u32).map(|leaf| (0, leaf)));
    (q, (0..labels.len() as u32).collect())
}

/// `hubs` label-0 vertices and one pool per entry of `pools`, of that
/// label: hub `h` is joined to `k` consecutive vertices of each pool from
/// its `h`-th on — but to the pool numbered `even_only`, if any, only when
/// `h` is even.
fn star_host(hubs: u32, k: u32, pools: &[u32], even_only: Option<usize>) -> Graph {
    let mut labels = vec![0; hubs as usize];
    let mut edges = Vec::new();
    for (p, &label) in pools.iter().enumerate() {
        let base = labels.len() as u32;
        labels.extend(std::iter::repeat_n(label, (hubs + k - 1) as usize));
        for h in (0..hubs).filter(|h| even_only != Some(p) || h % 2 == 0) {
            edges.extend((h..h + k).map(|i| (h, base + i)));
        }
    }
    labeled(&labels, edges)
}

/// Leaves of distinct labels: no vertex is free at two levels, so every
/// call below the hub books its children.
#[test]
fn budgets_and_caps_land_exactly_on_a_star_of_distinct_labels() {
    let (q, order) = star(&[1, 2, 3]);
    let paths = sweep(&q, &star_host(15, 6, &[1, 2, 3], None), &order);
    assert!(paths.counted > 0, "{paths:?}");
    assert_eq!((paths.clashed, paths.short, paths.emptied), (0, 0, 0), "{paths:?}");
}

/// Leaves of one label: their lists are equal, so every call with two
/// leaves below it clashes and runs plain; the call with one leaf below
/// it books, its children one short there.
#[test]
fn budgets_and_caps_land_exactly_on_a_star_of_equal_labels() {
    let (q, order) = star(&[1, 1, 1]);
    let paths = sweep(&q, &star_host(7, 3, &[1, 1, 1], None), &order);
    assert!(paths.clashed > 0 && paths.counted > 0 && paths.short > 0, "{paths:?}");
}

/// Two adjacent parents, one leaf each, of one label: adjacent parents
/// share all but one of their leaf neighbours, so a child of the first
/// leaf is mostly in the second leaf's list — booked one short there.
#[test]
fn budgets_and_caps_land_exactly_on_two_parents_sharing_leaves() {
    let q = labeled(&[0, 0, 1, 1], [(0, 1), (0, 2), (1, 3)]);
    let (parents, k) = (30, 8);
    let leaves = (0..parents).flat_map(|p| (p..p + k).map(move |i| (p, parents + i)));
    let mut labels = vec![0; parents as usize];
    labels.extend(std::iter::repeat_n(1, (parents + k - 1) as usize));
    let g = labeled(&labels, (0..parents - 1).map(|p| (p, p + 1)).chain(leaves));
    let paths = sweep(&q, &g, &[0, 1, 2, 3]);
    assert!(paths.counted > 0 && paths.short > 0, "{paths:?}");
    assert_eq!(paths.clashed, 0, "{paths:?}");
}

/// Odd hubs have no label-2 neighbour: below them the second leaf's level
/// is empty, and the products stop there.
#[test]
fn budgets_and_caps_land_exactly_on_a_suffix_level_that_empties() {
    let (q, order) = star(&[1, 2, 3]);
    let paths = sweep(&q, &star_host(30, 6, &[1, 2, 3], Some(1)), &order);
    assert!(paths.counted > 0 && paths.emptied > 0, "{paths:?}");
}

/// One hub, four leaves of twelve candidates each: every child of the
/// first leaf has a subtree of 1885 calls, more than a cadence window
/// holds, so booking descends into each of them.
#[test]
fn budgets_and_caps_land_exactly_where_each_suffix_child_outgrows_the_cadence() {
    let (q, order) = star(&[1, 2, 3, 4]);
    let paths = sweep(&q, &star_host(1, 12, &[1, 2, 3, 4], None), &order);
    assert!(paths.descended >= 12, "{paths:?}");
}

static SUFFIX_RUN_HEARTBEAT: AtomicU64 = AtomicU64::new(0);

/// The cadence ticks on booked calls too: a run whose calls are almost all
/// booked by product ticks once per 1024 of them.
#[test]
fn heartbeat_ticks_once_per_1024_calls_of_a_suffix_dominated_run() {
    let (q, order) = star(&[1, 2, 3, 4]);
    let g = star_host(1, 12, &[1, 2, 3, 4], None);
    let cand = LdfFilter.filter(&q, &g);
    for engine in ENGINES {
        let before = (SUFFIX_RUN_HEARTBEAT.load(Ordering::Relaxed), suffix_paths());
        let cfg = EnumConfig::find_all().with_engine(engine).with_threads(1).with_heartbeat(&SUFFIX_RUN_HEARTBEAT);
        let res = enumerate(&q, &g, &cand, &order, cfg);
        let paths = suffix_paths() - before.1;
        assert!(paths.counted > 0 && paths.descended > 0, "{engine:?}: {paths:?}");
        assert!(res.enumerations >> 10 >= 20, "{engine:?}");
        assert_eq!(SUFFIX_RUN_HEARTBEAT.load(Ordering::Relaxed) - before.0, res.enumerations >> 10, "{engine:?}");
    }
}

static LEAF_RUN_HEARTBEAT: AtomicU64 = AtomicU64::new(0);

/// The cadence is counted in calls, leaf calls included: a serial run
/// ticks once per 1024 of them, wherever its calls are made.
#[test]
fn heartbeat_ticks_once_per_1024_calls_of_a_leaf_dominated_run() {
    let (q, g) = pendant();
    let cand = LdfFilter.filter(&q, &g);
    for engine in ENGINES {
        let before = LEAF_RUN_HEARTBEAT.load(Ordering::Relaxed);
        let cfg = EnumConfig::find_all().with_engine(engine).with_threads(1).with_heartbeat(&LEAF_RUN_HEARTBEAT);
        let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
        assert!(res.match_count * 10 > res.enumerations * 9, "{engine:?}: leaf calls must dominate");
        assert!(res.enumerations >> 10 >= 3, "{engine:?}");
        assert_eq!(LEAF_RUN_HEARTBEAT.load(Ordering::Relaxed) - before, res.enumerations >> 10, "{engine:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The first `k` matches under a cap are a prefix of the uncapped
    /// match stream (deterministic enumeration order).
    #[test]
    fn capped_matches_are_a_prefix(cap in 1u64..20) {
        let g = host(30, 3);
        let q = query(3);
        let cand = GqlFilter::default().filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        let mut full_cfg = EnumConfig::find_all();
        full_cfg.store_matches = true;
        let full = enumerate(&q, &g, &cand, &order, full_cfg);
        // Serial pin: under a binding cap the parallel path keeps the
        // exact count but not the serial *choice* of matches.
        let mut capped_cfg = EnumConfig { max_matches: cap, ..EnumConfig::find_all() }.with_threads(1);
        capped_cfg.store_matches = true;
        let capped = enumerate(&q, &g, &cand, &order, capped_cfg);
        let k = capped.matches.len();
        prop_assert!(k as u64 <= cap);
        prop_assert_eq!(&capped.matches[..], &full.matches[..k]);
    }

    /// Unsatisfiable label demands yield zero matches and zero work.
    #[test]
    fn impossible_label_is_free(extra in 0u32..4) {
        let g = host(30, 3);
        let mut b = GraphBuilder::new(5);
        let a = b.add_vertex(4); // label absent from host
        let c = b.add_vertex(extra % 3);
        b.add_edge(a, c);
        let q = b.build();
        let cand = LdfFilter.filter(&q, &g);
        prop_assert!(cand.any_empty());
        let order = RiOrdering.order(&q, &g, &cand);
        let res = enumerate(&q, &g, &cand, &order, EnumConfig::find_all());
        prop_assert_eq!(res.match_count, 0);
        prop_assert_eq!(res.enumerations, 0);
    }
}
