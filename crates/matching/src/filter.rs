//! Phase 1: complete candidate vertex set generation.
//!
//! Definition II.2 of the paper: `C(u)` is *complete* when every data
//! vertex that participates in some match as the image of `u` is contained
//! in `C(u)`. All filters here only remove vertices that provably cannot
//! appear in any match, so completeness is preserved (property-tested
//! against the brute-force oracle in `tests/oracle.rs`).
//!
//! Filtering is where a cold query spends most of its time, so the two
//! expensive filters avoid re-deriving what does not depend on the query.
//! [`NlfFilter`] never counts `N(v)`: the data graph keeps its saturating
//! neighbour-label counts class-major and column-major
//! ([`Graph::neighbor_label_column`]), so a query vertex's dominance test
//! is one sequential pass per demanded label over the bytes of its label
//! class, ANDed into a byte mask the class is then compacted by. That
//! path reads no degree either — dominance implies it. The exact scan
//! (degree test, then `N(v)` counted with an early exit) still runs where
//! the table cannot answer: a demand of 255 or more, a neighbour label
//! outside `G`'s universe, a graph that built no table. [`GqlFilter`]
//! reads `N(v)` once per candidate and round, or not at all, unless two
//! neighbours of the query vertex share a label. With `cost(x) =
//! Σ_{v ∈ C(x)} d(v)` over the start-of-round sets, a query vertex with a
//! neighbour at least as dear is *scanned*: one pass over `N(v)` per
//! candidate ORs the per-data-vertex membership masks of `N(v)` into the
//! candidate's coverage (which `C(u')` it touches) and marks `reach`, a
//! mask over query vertices per data vertex laid out like the membership
//! masks. Every neighbour of an unscanned vertex is strictly cheaper,
//! hence scanned, so `N` being symmetric, one row of `reach` is its
//! candidate's coverage. Candidates are label-pure, so the bipartite check
//! splits per label: a neighbour alone in its label within `N(u)` is
//! decided by coverage, and the matcher ([`crate::bipartite`]) runs only
//! for the neighbours that share a label. A verdict advances the round's
//! removal cursor by 0 or 1, so no verdict is a branch.
//! `GqlFilter::filter_reference` is the naive version both are tested
//! against, sets and membership, byte for byte.

use rlqvo_graph::{Graph, VertexId};

use crate::bipartite::{has_left_saturating_matching, MaskMatcher};

/// Per-query-vertex candidate sets, in one `u32` buffer allocated at its
/// exact length: the `|V(q)| + 1` offsets of the sets, then the sets. An
/// offset indexes the whole buffer, so the first one, where `C(0)` starts,
/// is `|V(q)| + 1`. Each set is sorted ascending (the enumeration engines
/// rely on that for intersection). What [`Candidates::storage_bytes`]
/// charges a cached entry is what it holds.
///
/// Membership ([`Candidates::contains`]) is a binary search of `C(u)`.
/// Only the probe oracle's enumeration and the naive semi-perfect check
/// behind [`GqlFilter::filter_reference`] ask it; the production GQL
/// refinement reads its own `member` masks, and the space engine never
/// asks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidates {
    /// `buf[buf[u]..buf[u + 1]]` = sorted `C(u)`.
    buf: Box<[u32]>,
}

impl Candidates {
    /// Wraps raw candidate sets (each must be sorted).
    pub fn new(sets: Vec<Vec<VertexId>>) -> Self {
        let mut buf = empty_buf(sets.len(), sets.iter().map(Vec::len).sum());
        for (u, set) in sets.iter().enumerate() {
            buf.extend_from_slice(set);
            close_set(&mut buf, u as VertexId);
        }
        Candidates::from_buf(buf)
    }

    /// Wraps a buffer in the layout above, copied to its exact length. A
    /// filter reserves its buffer for whole label classes; trimmed in
    /// place, it would keep its address and leave the rest of that
    /// reservation as a hole beside every cached entry (on the ledger's
    /// `serve-churn`, peak RSS +29 %), where the copy is placed like any
    /// small allocation.
    fn from_buf(buf: Vec<u32>) -> Self {
        let cand = Candidates { buf: buf[..].into() };
        debug_assert!((0..cand.num_query_vertices() as VertexId).all(|u| cand.of(u).windows(2).all(|w| w[0] < w[1])));
        cand
    }

    /// Candidate set `C(u)`.
    #[inline]
    pub fn of(&self, u: VertexId) -> &[VertexId] {
        set_of(&self.buf, u)
    }

    /// `|C(u)|`.
    #[inline]
    pub fn len_of(&self, u: VertexId) -> usize {
        (self.buf[u as usize + 1] - self.buf[u as usize]) as usize
    }

    /// The candidate at `pos` in `C(u)`.
    #[inline]
    pub(crate) fn vertex_at(&self, u: VertexId, pos: u32) -> VertexId {
        self.buf[self.buf[u as usize] as usize + pos as usize]
    }

    /// True when `v ∈ C(u)` (binary search).
    #[inline]
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.of(u).binary_search(&v).is_ok()
    }

    /// Number of query vertices covered.
    pub fn num_query_vertices(&self) -> usize {
        self.buf[0] as usize - 1
    }

    /// True when some candidate set is empty — the query has no match and
    /// enumeration can be skipped entirely.
    pub fn any_empty(&self) -> bool {
        self.buf[..self.buf[0] as usize].windows(2).any(|w| w[0] == w[1])
    }

    /// Total candidate count across query vertices.
    pub fn total(&self) -> usize {
        self.buf.len() - self.buf[0] as usize
    }

    /// Bytes held by the sets and their offsets — the term a byte-bounded
    /// [`SpaceCache`][crate::SpaceCache] charges for the candidates of a
    /// resident entry.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.buf)
    }
}

/// Phase-1 strategy: builds complete candidate sets for all query vertices.
///
/// `Send + Sync` so the experiment harness can evaluate queries in
/// parallel against one shared filter instance.
pub trait CandidateFilter: Send + Sync {
    /// Short name for reports ("LDF", "NLF", "GQL").
    fn name(&self) -> &'static str;
    /// Builds `C(u)` for every `u ∈ V(q)`.
    fn filter(&self, q: &Graph, g: &Graph) -> Candidates;
    /// Cache identity of this filter's *semantics*: two filters with equal
    /// `cache_key` must produce identical candidate sets on every input.
    /// The default (the display name) is right for parameterless filters;
    /// parameterized filters must fold their knobs in (see
    /// [`GqlFilter::cache_key`]) so a `SpaceCache` never serves one
    /// configuration's candidates to another.
    fn cache_key(&self) -> String {
        self.name().to_string()
    }
}

/// Label-and-degree filter: `v ∈ C(u)` iff `f_l(v) = f_l(u)` and
/// `d(v) ≥ d(u)`. The weakest (and cheapest) complete filter; also the
/// candidate structure QuickSI effectively works against.
#[derive(Clone, Copy, Debug, Default)]
pub struct LdfFilter;

impl CandidateFilter for LdfFilter {
    fn name(&self) -> &'static str {
        "LDF"
    }

    fn filter(&self, q: &Graph, g: &Graph) -> Candidates {
        let mut buf = empty_csr(q, g);
        for u in q.vertices() {
            let du = q.degree(u);
            buf.extend(g.vertices_with_label(q.label(u)).iter().copied().filter(|&v| g.degree(v) >= du));
            close_set(&mut buf, u);
        }
        Candidates::from_buf(buf)
    }
}

/// A candidate buffer for `n` query vertices with room for `entries`
/// candidates: its `n + 1` offsets, the first one `n + 1` and the others 0
/// until [`close_set`] ends each set as it is appended.
fn empty_buf(n: usize, entries: usize) -> Vec<u32> {
    let mut buf = Vec::with_capacity(n + 1 + entries);
    buf.push(offset(n + 1));
    buf.resize(n + 1, 0);
    buf
}

/// The buffer for `q`'s candidates, with room for every label class a
/// query vertex draws from (no set outgrows its class).
fn empty_csr(q: &Graph, g: &Graph) -> Vec<u32> {
    empty_buf(q.num_vertices(), q.vertices().map(|u| g.label_frequency(q.label(u))).sum())
}

/// Ends `C(u)` at the buffer's current length.
fn close_set(buf: &mut [u32], u: VertexId) {
    buf[u as usize + 1] = offset(buf.len());
}

/// `len` as a candidate offset: a buffer past `u32::MAX` entries panics
/// rather than wrap.
fn offset(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("Candidates: {len} entries overflow the u32 offsets"))
}

/// `C(u)` of a candidate buffer, complete or under construction.
#[inline]
fn set_of(buf: &[u32], u: VertexId) -> &[VertexId] {
    &buf[buf[u as usize] as usize..buf[u as usize + 1] as usize]
}

/// Neighbour-label-frequency filter: LDF plus the requirement that for
/// every label `l`, `u` has no more `l`-labeled neighbours than `v`. This
/// is exactly GraphQL's *profile-based local pruning* (the profile of a
/// vertex is the sorted multiset of its own and its neighbours' labels;
/// sub-sequence containment of sorted multisets ⇔ per-label counting
/// dominance).
#[derive(Clone, Copy, Debug, Default)]
pub struct NlfFilter;

impl CandidateFilter for NlfFilter {
    fn name(&self) -> &'static str {
        "NLF"
    }

    fn filter(&self, q: &Graph, g: &Graph) -> Candidates {
        Candidates::from_buf(nlf_sets(q, g))
    }
}

/// [`NlfFilter`]'s sorted candidate sets in the [`Candidates`] layout,
/// before they are wrapped: what [`GqlFilter::filter`] refines.
fn nlf_sets(q: &Graph, g: &Graph) -> Vec<u32> {
    // Scratch shared by the whole run: the current query vertex's
    // demands as (neighbour label, count), their table columns and the
    // class-wide survivor mask.
    let mut demands: Vec<(u32, u32)> = Vec::new();
    let mut columns: Vec<(&[u8], u8)> = Vec::new();
    let mut mask: Vec<u8> = Vec::new();
    // Scan path only.
    let mut counts: Vec<u32> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut buf = empty_csr(q, g);
    for u in q.vertices() {
        demands.clear();
        for &w in q.neighbors(u) {
            let l = q.label(w);
            match demands.iter_mut().find(|d| d.0 == l) {
                Some(d) => d.1 += 1,
                None => demands.push((l, 1)),
            }
        }
        let lu = q.label(u);
        let class = g.vertices_with_label(lu);
        // A saturated byte only says "at least 255": such a demand
        // goes to the scan, as does a graph without a table and a
        // label outside G's universe (which has no column).
        columns.clear();
        columns.extend(demands.iter().map_while(|&(l, need)| {
            let need = u8::try_from(need).ok().filter(|&n| n < u8::MAX)?;
            Some((g.neighbor_label_column(lu, l)?, need))
        }));
        if columns.len() < demands.len() {
            let du = q.degree(u);
            let nlf_u = q.neighbor_label_frequency(u);
            counts.resize(g.num_labels().max(q.num_labels()) as usize, 0);
            buf.extend(class.iter().copied().filter(|&v| {
                g.degree(v) >= du && nlf_dominates(g, v, &nlf_u, demands.len(), &mut counts, &mut touched)
            }));
        } else {
            // No degree test here: dominance implies it, since
            // d(u) = Σ need ≤ Σ min(255, count) ≤ d(v).
            mask.clear();
            mask.resize(class.len(), 1);
            for &(column, need) in &columns {
                for (m, &count) in mask.iter_mut().zip(column) {
                    *m &= (count >= need) as u8;
                }
            }
            // Branch-free compaction: every vertex is written, only a
            // survivor advances the cursor.
            let mut len = buf.len();
            buf.resize(len + class.len(), 0);
            for (&v, &m) in class.iter().zip(&mask) {
                buf[len] = v;
                len += m as usize;
            }
            buf.truncate(len);
        }
        close_set(&mut buf, u);
    }
    buf
}

/// The exact scan [`NlfFilter`] falls back to where the data graph's table
/// cannot answer. True when `v`'s neighbour-label counts dominate the query
/// vector `nlf_u` (which has `required` non-zero entries). Scans `N(v)`
/// into the caller's zeroed scratch `counts`, **stopping as soon as every
/// demanded label has reached its quota** — on dominating candidates (the
/// common case after the label/degree pre-filter) this touches only a
/// prefix of the adjacency list. `counts` is re-zeroed through `touched`
/// before returning, so the caller's buffer stays all-zero without a full
/// clear.
fn nlf_dominates(
    g: &Graph,
    v: VertexId,
    nlf_u: &[u32],
    required: usize,
    counts: &mut [u32],
    touched: &mut Vec<u32>,
) -> bool {
    let mut satisfied = 0usize;
    let mut dominates = required == 0;
    if !dominates {
        for &w in g.neighbors(v) {
            let l = g.label(w) as usize;
            if counts[l] == 0 {
                touched.push(l as u32);
            }
            counts[l] += 1;
            if l < nlf_u.len() && counts[l] == nlf_u[l] {
                satisfied += 1;
                if satisfied == required {
                    dominates = true;
                    break;
                }
            }
        }
    }
    for &l in touched.iter() {
        counts[l as usize] = 0;
    }
    touched.clear();
    dominates
}

/// `cost(x) = Σ_{v ∈ C(x)} d(v)`: the adjacency entries read when every
/// candidate of `x` has its `N(v)` scanned. A query edge `(u, u')` asks the
/// same thing of either endpoint — which pairs of `C(u) × C(u')` are
/// adjacent — and `N` is symmetric, so [`crate::CandidateSpace::build`]
/// answers it from the cheaper endpoint, and [`GqlFilter::filter`] scans a
/// query vertex only when some neighbour is at least as dear: each edge
/// from an endpoint no dearer than the other, and a tied edge from both.
/// Both sums are exact; no constant is involved.
pub(crate) fn scan_cost(g: &Graph, set: &[VertexId]) -> u64 {
    set.iter().map(|&v| u64::from(g.degree(v))).sum()
}

/// GraphQL's candidate filter (the one `Hybrid` uses): NLF-style local
/// pruning followed by `refinement_rounds` of global refinement. A
/// candidate `v ∈ C(u)` survives a round only if the bipartite graph
/// between `N(u)` and `N(v)` — with an edge `(u', v')` whenever
/// `v' ∈ C(u')` — has a matching saturating `N(u)` (paper §II-C).
#[derive(Clone, Copy, Debug)]
pub struct GqlFilter {
    /// Number of global-refinement sweeps (GraphQL converges quickly; the
    /// in-memory study uses a small constant).
    pub refinement_rounds: usize,
}

impl GqlFilter {
    /// Two refinement sweeps: what `Hybrid`, `GQL` and RL-QVO run. A
    /// `const`, so the method roster can hand it out as `&'static`.
    pub const DEFAULT: GqlFilter = GqlFilter { refinement_rounds: 2 };
}

impl Default for GqlFilter {
    fn default() -> Self {
        GqlFilter::DEFAULT
    }
}

impl CandidateFilter for GqlFilter {
    fn name(&self) -> &'static str {
        "GQL"
    }

    fn filter(&self, q: &Graph, g: &Graph) -> Candidates {
        let mut buf = nlf_sets(q, g);
        if self.refinement_rounds == 0 {
            return Candidates::from_buf(buf);
        }
        let mut state = Refinement::new(q, g, &buf);
        let mut wide = vec![0u64; state.w];
        for _ in 0..self.refinement_rounds {
            // One code path for every width. The one-word case (queries of
            // up to 64 vertices: every query set of the paper) is
            // instantiated with the width as a constant and its coverage
            // row on the stack, as `MaskMatcher::saturates` does.
            if state.w == 1 {
                state.round(&buf, &mut [0]);
            } else {
                state.round(&buf, &mut wide);
            }
            if state.doomed.is_empty() {
                break;
            }
            state.remove_doomed(&mut buf);
        }
        Candidates::from_buf(buf)
    }

    /// Folds `refinement_rounds` into the identity: `GQL/r1` and `GQL/r2`
    /// produce different candidate sets and must never share a cache entry.
    fn cache_key(&self) -> String {
        format!("GQL/r{}", self.refinement_rounds)
    }
}

/// What [`GqlFilter::filter`] carries from round to round. Query vertex
/// sets are masks of `w` words, and every table is `w` words a row.
///
/// The instance for `(u, v)` has lefts `N(u)` (`nbr` row `u`), rights
/// `N(v)`, and the row of right `x` is `member` row `x`. (`x ∈ C(u')`
/// already implies equal labels, so no label routing is needed.)
struct Refinement<'a> {
    q: &'a Graph,
    g: &'a Graph,
    /// `⌈|V(q)| / 64⌉`.
    w: usize,
    /// Row `x` has bit `u` ⇔ `x ∈ C(u)`, over the round's starting sets
    /// until [`Refinement::remove_doomed`] clears the removals at its end.
    member: Vec<u64>,
    /// Row `u` is `N(u)`.
    nbr: Vec<u64>,
    /// Row `u` is the part of `N(u)` whose label another vertex of `N(u)`
    /// carries: the lefts the matcher is asked about.
    shared: Vec<u64>,
    /// Row `x` has bit `u` ⇔ `x ∈ N(C(u))`, for the round's scanned `u`.
    reach: Vec<u64>,
    /// [`scan_cost`] of each starting set of the round.
    cost: Vec<u64>,
    /// The round's removals, `(u, v)`.
    doomed: Vec<(VertexId, VertexId)>,
    matcher: MaskMatcher,
}

impl<'a> Refinement<'a> {
    fn new(q: &'a Graph, g: &'a Graph, buf: &[u32]) -> Self {
        let w = q.num_vertices().div_ceil(64);
        let mut member = vec![0u64; g.num_vertices() * w];
        let mut nbr = vec![0u64; q.num_vertices() * w];
        let mut shared = vec![0u64; q.num_vertices() * w];
        for u in q.vertices() {
            for &v in set_of(buf, u) {
                let (word, mask) = bit(w, v, u);
                member[word] |= mask;
            }
            let nu = q.neighbors(u);
            for &u2 in nu {
                let (word, mask) = bit(w, u, u2);
                nbr[word] |= mask;
                if nu.iter().any(|&u3| u3 != u2 && q.label(u3) == q.label(u2)) {
                    shared[word] |= mask;
                }
            }
        }
        Refinement {
            q,
            g,
            w,
            member,
            nbr,
            shared,
            reach: vec![0u64; g.num_vertices() * w],
            cost: vec![0u64; q.num_vertices()],
            doomed: Vec::new(),
            matcher: MaskMatcher::default(),
        }
    }

    /// Decides every candidate of `buf`'s sets, the round's starting sets,
    /// and leaves the losers in `doomed`. `cover` is `w` words of scratch.
    ///
    /// A query vertex `u` with a neighbour at least as dear ([`scan_cost`])
    /// is *scanned*: one pass over `N(v)` per `v ∈ C(u)` ORs the `member`
    /// rows of `N(v)` into `cover` — bit `u'` ⇔ `N(v) ∩ C(u') ≠ ∅` — and
    /// bit `u` into `reach[x]` for each `x ∈ N(v)`. Every neighbour of an
    /// unscanned `u` is strictly cheaper, hence scanned, so once the
    /// scanned vertices are done `reach[v]` answers the same question for
    /// `v ∈ C(u)` without `N(v)` being read (`N` is symmetric:
    /// `GraphBuilder` symmetrizes it). Candidates are label-pure, so the
    /// instance splits into one part per label of `N(u)`, and a part of
    /// one left saturates iff that left is covered: a `v` whose coverage
    /// misses a bit of `N(u)` loses, and the matcher runs, on the surviving
    /// `v` only, for the lefts in `shared` alone.
    #[inline(always)]
    fn round(&mut self, buf: &[u32], cover: &mut [u64]) {
        let Refinement { q, g, member, nbr, shared, reach, cost, doomed, matcher, .. } = self;
        let w = cover.len();
        doomed.clear();
        for u in q.vertices() {
            cost[u as usize] = scan_cost(g, set_of(buf, u));
        }
        reach.fill(0);
        let scans = |u: VertexId| q.neighbors(u).iter().any(|&u2| cost[u2 as usize] >= cost[u as usize]);
        // The scanned vertices first: they complete `reach` before an
        // unscanned one reads it.
        for scanned in [true, false] {
            for u in q.vertices().filter(|&u| scans(u) == scanned) {
                let set = set_of(buf, u);
                let need = &nbr[u as usize * w..][..w];
                let split = &shared[u as usize * w..][..w];
                let any_split = split.iter().any(|&s| s != 0);
                let (word, mask) = bit(w, 0, u);
                // Every pair is written and its verdict only advances the
                // cursor: the verdict goes either way too often to predict,
                // so the coverage test folds every word rather than stop
                // at the first miss.
                let mut dead = doomed.len();
                doomed.resize(dead + set.len(), (0, 0));
                for &v in set {
                    let rights = g.neighbors(v);
                    let row: &[u64] = if scanned {
                        cover.fill(0);
                        for &x in rights {
                            let x = x as usize * w;
                            for (c, &m) in cover.iter_mut().zip(&member[x..x + w]) {
                                *c |= m;
                            }
                            reach[x + word] |= mask;
                        }
                        cover
                    } else {
                        &reach[v as usize * w..][..w]
                    };
                    let mut missed = need.iter().zip(row).fold(0, |acc, (&n, &c)| acc | n & !c) != 0;
                    if any_split && !missed {
                        missed = !matcher.saturates(split, member, rights);
                    }
                    doomed[dead] = (u, v);
                    dead += missed as usize;
                }
                doomed.truncate(dead);
            }
        }
    }

    /// Clears the round's removals from `member`, then compacts every set
    /// of `buf` by those bits.
    fn remove_doomed(&mut self, buf: &mut Vec<u32>) {
        let (w, member) = (self.w, &mut self.member);
        for &(u, v) in &self.doomed {
            let (word, mask) = bit(w, v, u);
            member[word] &= !mask;
        }
        // Branch-free, like NLF's compaction: every vertex is written back,
        // only one still in `member` advances the cursor. One pass over the
        // sets compacts them all; `start` is where `C(u)` began before this
        // round moved it.
        let (mut len, mut start) = (buf[0] as usize, buf[0] as usize);
        for u in self.q.vertices() {
            let end = buf[u as usize + 1] as usize;
            for i in start..end {
                let v = buf[i];
                buf[len] = v;
                let (word, mask) = bit(w, v, u);
                len += (member[word] & mask != 0) as usize;
            }
            // `len` only shrinks, so it fits where `end` did.
            (start, buf[u as usize + 1]) = (end, len as u32);
        }
        buf.truncate(len);
    }
}

/// (word index, mask) of bit `u` in row `x` of a table `w` words a row.
#[inline(always)]
fn bit(w: usize, x: VertexId, u: VertexId) -> (usize, u64) {
    (x as usize * w + u as usize / 64, 1u64 << (u % 64))
}

impl GqlFilter {
    /// The retained naive reference: rebuild-from-scratch candidate sets
    /// each round (fresh `Candidates::new`) with per-candidate
    /// `Vec<Vec<_>>` bipartite reconstruction via
    /// [`semi_perfect_ok_reference`]. Kept solely as the differential
    /// oracle for the mask-based fast path (`tests/oracle.rs` checks
    /// byte-identical surviving sets and `contains`).
    #[doc(hidden)]
    pub fn filter_reference(&self, q: &Graph, g: &Graph) -> Candidates {
        let mut cand = NlfFilter.filter(q, g);
        for _ in 0..self.refinement_rounds {
            let mut changed = false;
            let mut new_sets: Vec<Vec<VertexId>> = Vec::with_capacity(q.num_vertices());
            for u in q.vertices() {
                let qu_neighbors = q.neighbors(u);
                let kept: Vec<VertexId> = cand
                    .of(u)
                    .iter()
                    .copied()
                    .filter(|&v| semi_perfect_ok_reference(q, g, &cand, qu_neighbors, v))
                    .collect();
                if kept.len() != cand.len_of(u) {
                    changed = true;
                }
                new_sets.push(kept);
            }
            cand = Candidates::new(new_sets);
            if !changed {
                break;
            }
        }
        cand
    }
}

/// The original per-candidate reconstruction (left = `N(u)`, right =
/// `N(v)`, fresh `Vec<Vec<_>>` per call). Retained as the naive
/// differential reference for the mask check in [`GqlFilter::filter`].
fn semi_perfect_ok_reference(q: &Graph, g: &Graph, cand: &Candidates, qu_neighbors: &[VertexId], v: VertexId) -> bool {
    let gv_neighbors = g.neighbors(v);
    // Build the bipartite graph: left = N(u) in q, right = N(v) in G.
    let mut adj: Vec<Vec<usize>> = Vec::with_capacity(qu_neighbors.len());
    for &uq in qu_neighbors {
        let mut row = Vec::new();
        for (ri, &vg) in gv_neighbors.iter().enumerate() {
            // Cheap label pre-check before the membership search.
            if g.label(vg) == q.label(uq) && cand.contains(uq, vg) {
                row.push(ri);
            }
        }
        if row.is_empty() {
            return false; // Hall violation, no need to run matching
        }
        adj.push(row);
    }
    has_left_saturating_matching(&adj, gv_neighbors.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlqvo_graph::GraphBuilder;

    /// q: triangle A-B-C. G: triangle A-B-C plus a pendant A attached to B.
    fn triangle_case() -> (Graph, Graph) {
        let mut qb = GraphBuilder::new(3);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(2);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        qb.add_edge(a, c);
        let q = qb.build();

        let mut gb = GraphBuilder::new(3);
        let ga = gb.add_vertex(0);
        let gbv = gb.add_vertex(1);
        let gc = gb.add_vertex(2);
        let pendant = gb.add_vertex(0); // label A, degree 1
        gb.add_edge(ga, gbv);
        gb.add_edge(gbv, gc);
        gb.add_edge(ga, gc);
        gb.add_edge(gbv, pendant);
        (q, gb.build())
    }

    #[test]
    fn ldf_keeps_label_matches_with_enough_degree() {
        let (q, g) = triangle_case();
        let c = LdfFilter.filter(&q, &g);
        // Query vertex 0 (label A, degree 2): data vertex 0 qualifies; the
        // pendant (degree 1) does not.
        assert_eq!(c.of(0), &[0]);
        assert_eq!(c.of(1), &[1]);
        assert_eq!(c.of(2), &[2]);
    }

    #[test]
    fn nlf_prunes_on_neighbor_labels() {
        // q: center labeled 0 with two neighbours labeled 1 and 2.
        let mut qb = GraphBuilder::new(3);
        let c = qb.add_vertex(0);
        let x = qb.add_vertex(1);
        let y = qb.add_vertex(2);
        qb.add_edge(c, x);
        qb.add_edge(c, y);
        let q = qb.build();
        // G: one center with neighbours {1,2} (good) and one with {1,1} (bad).
        let mut gb = GraphBuilder::new(3);
        let good = gb.add_vertex(0);
        let g1 = gb.add_vertex(1);
        let g2 = gb.add_vertex(2);
        gb.add_edge(good, g1);
        gb.add_edge(good, g2);
        let bad = gb.add_vertex(0);
        let b1 = gb.add_vertex(1);
        let b2 = gb.add_vertex(1);
        gb.add_edge(bad, b1);
        gb.add_edge(bad, b2);
        let g = gb.build();

        let ldf = LdfFilter.filter(&q, &g);
        assert_eq!(ldf.of(0), &[good, bad]); // LDF cannot tell them apart
        let nlf = NlfFilter.filter(&q, &g);
        assert_eq!(nlf.of(0), &[good]); // NLF can
    }

    /// q: center c(0) with two label-1 arms x, y, each arm carrying a
    /// label-2 leaf. A data center must have two DISTINCT label-1
    /// neighbours that each reach a label-2 vertex — a 2-hop constraint
    /// NLF cannot see (it is 1-hop) but the semi-perfect matching check
    /// catches through the arms' candidate sets. Each data center also
    /// carries `pendants` label-3 leaves the query does not ask for.
    /// Returns `q`, `G` and the data vertices `[good, bad, bb]`.
    fn arms_case(pendants: usize) -> (Graph, Graph, [VertexId; 3]) {
        let mut qb = GraphBuilder::new(4);
        let c = qb.add_vertex(0);
        let x = qb.add_vertex(1);
        let y = qb.add_vertex(1);
        let z1 = qb.add_vertex(2);
        let z2 = qb.add_vertex(2);
        qb.add_edge(c, x);
        qb.add_edge(c, y);
        qb.add_edge(x, z1);
        qb.add_edge(y, z2);
        let q = qb.build();

        let mut gb = GraphBuilder::new(4);
        // good center: both arms reach a label-2 leaf.
        let good = gb.add_vertex(0);
        let ga = gb.add_vertex(1);
        let gb2 = gb.add_vertex(1);
        let t1 = gb.add_vertex(2);
        let t2 = gb.add_vertex(2);
        gb.add_edge(good, ga);
        gb.add_edge(good, gb2);
        gb.add_edge(ga, t1);
        gb.add_edge(gb2, t2);
        // bad center: two label-1 neighbours (NLF passes) but only ONE of
        // them reaches a label-2 leaf, so its arms cannot be saturated.
        let bad = gb.add_vertex(0);
        let ba = gb.add_vertex(1);
        let bb = gb.add_vertex(1);
        let t3 = gb.add_vertex(2);
        gb.add_edge(bad, ba);
        gb.add_edge(bad, bb);
        gb.add_edge(ba, t3);
        // bb needs degree >= 2 to stay an arm candidate on degree grounds;
        // give it a label-1 neighbour (useless for the label-2 requirement).
        let filler = gb.add_vertex(1);
        gb.add_edge(bb, filler);
        for center in [good, bad] {
            for _ in 0..pendants {
                let p = gb.add_vertex(3);
                gb.add_edge(center, p);
            }
        }
        (q, gb.build(), [good, bad, bb])
    }

    #[test]
    fn gql_global_refinement_prunes_unmatchable() {
        let (q, g, [good, bad, bb]) = arms_case(0);
        let nlf = NlfFilter.filter(&q, &g);
        assert!(nlf.of(0).contains(&bad), "NLF alone keeps the bad center");
        assert!(!nlf.of(1).contains(&bb), "NLF drops bb from the arm candidates");
        let gql = GqlFilter::default().filter(&q, &g);
        assert_eq!(gql.of(0), &[good], "global refinement prunes the bad center");
    }

    /// What a cached entry is charged is what it holds: after GQL
    /// refinement has removed candidates, the one buffer is allocated at
    /// exactly its offsets and sets, the bytes `storage_bytes` counts.
    #[test]
    fn storage_bytes_are_the_allocations_capacities() {
        let (q, g, _) = arms_case(3);
        let nlf = NlfFilter.filter(&q, &g);
        let gql = GqlFilter::default().filter(&q, &g);
        assert!(gql.total() < nlf.total(), "the fixture must refine");
        for c in [&nlf, &gql, &LdfFilter.filter(&q, &g), &Candidates::new(vec![vec![2, 9], vec![], vec![1]])] {
            let n = c.num_query_vertices();
            let sets: usize = (0..n as VertexId).map(|u| c.of(u).len()).sum();
            assert_eq!(c.buf.len(), n + 1 + sets, "offsets, then sets, nothing else");
            assert_eq!(c.storage_bytes(), std::mem::size_of::<u32>() * c.buf.len());
        }
    }

    /// An offset past `u32::MAX` panics, naming the candidates, instead of
    /// wrapping — checked on the conversion itself, since a buffer that
    /// long is 16 GiB.
    #[test]
    #[should_panic(expected = "Candidates: 4294967296 entries overflow the u32 offsets")]
    fn an_offset_past_u32_max_panics() {
        assert_eq!(offset(u32::MAX as usize), u32::MAX);
        offset(u32::MAX as usize + 1);
    }

    #[test]
    fn empty_candidate_detection() {
        let mut qb = GraphBuilder::new(5);
        qb.add_vertex(4);
        let q = qb.build();
        let mut gb = GraphBuilder::new(5);
        gb.add_vertex(0);
        let g = gb.build();
        let c = LdfFilter.filter(&q, &g);
        assert!(c.any_empty());
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn candidates_accessors() {
        let c = Candidates::new(vec![vec![1, 3, 5], vec![]]);
        assert_eq!(c.num_query_vertices(), 2);
        assert_eq!(c.len_of(0), 3);
        assert!(c.contains(0, 3));
        assert!(!c.contains(0, 2));
        assert!(c.any_empty());
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn filter_names() {
        assert_eq!(LdfFilter.name(), "LDF");
        assert_eq!(NlfFilter.name(), "NLF");
        assert_eq!(GqlFilter::default().name(), "GQL");
    }

    #[test]
    fn cache_keys_separate_filter_semantics() {
        // Parameterless filters key on their name…
        assert_eq!(LdfFilter.cache_key(), "LDF");
        assert_eq!(NlfFilter.cache_key(), "NLF");
        // …while GQL folds its refinement depth in: different rounds can
        // produce different candidate sets and must never collide.
        assert_eq!(GqlFilter::default().cache_key(), "GQL/r2");
        assert_ne!(GqlFilter { refinement_rounds: 1 }.cache_key(), GqlFilter { refinement_rounds: 2 }.cache_key());
    }

    /// `fast` and `reference` agree on every set and on `contains` over
    /// every data vertex and past the last one.
    fn assert_same_candidates(q: &Graph, g: &Graph, fast: &Candidates, reference: &Candidates) {
        for u in q.vertices() {
            assert_eq!(fast.of(u), reference.of(u), "C({u})");
            for v in 0..g.num_vertices() as VertexId + 70 {
                assert_eq!(fast.contains(u, v), reference.contains(u, v), "contains({u}, {v})");
            }
        }
        assert_eq!((fast.total(), fast.any_empty()), (reference.total(), reference.any_empty()));
    }

    #[test]
    fn a_decided_leaf_outside_reach_ends_empty() {
        // q: x(0) - y(1) - z(2). No label-1 data vertex has both a label-0
        // and a label-2 neighbour, so NLF leaves `C(y)` empty: `y` is the
        // cheap side of both edges and the only scanned vertex, the leaves
        // `x` and `z` are decided by `reach` alone, and none of their
        // candidates lies in it.
        let mut qb = GraphBuilder::new(3);
        let (x, y, z) = (qb.add_vertex(0), qb.add_vertex(1), qb.add_vertex(2));
        qb.add_edge(x, y);
        qb.add_edge(y, z);
        let q = qb.build();
        let mut gb = GraphBuilder::new(3);
        for label in [0, 0, 0, 2] {
            let (v, w) = (gb.add_vertex(label), gb.add_vertex(1));
            gb.add_edge(v, w);
        }
        let g = gb.build();
        let nlf = NlfFilter.filter(&q, &g);
        assert_eq!((nlf.len_of(x), nlf.len_of(y), nlf.len_of(z)), (3, 0, 1));
        let gql = GqlFilter { refinement_rounds: 1 }.filter(&q, &g);
        assert!(gql.of(x).is_empty() && gql.of(z).is_empty() && gql.any_empty());
        assert_same_candidates(&q, &g, &gql, &GqlFilter { refinement_rounds: 1 }.filter_reference(&q, &g));
    }

    #[test]
    fn a_non_leaf_sends_every_reached_candidate_to_the_matcher() {
        // With pendants the centre's candidates are the dearest set, so the
        // arms are scanned and the centre is not. Both centres lie in the
        // arms' reach, and the arms share a label, so the matcher alone
        // rejects `bad`.
        let (q, g, [good, bad, _]) = arms_case(8);
        let (c, x, y) = (0, 1, 2);
        let nlf = NlfFilter.filter(&q, &g);
        assert_eq!(nlf.of(c), &[good, bad]);
        let cost = |u: VertexId| scan_cost(&g, nlf.of(u));
        assert!(cost(x) < cost(c) && cost(y) < cost(c) && q.degree(c) == 2);
        let reached = |v: VertexId| nlf.of(x).iter().any(|&a| g.neighbors(a).contains(&v));
        assert!(reached(good) && reached(bad));
        let gql = GqlFilter::default().filter(&q, &g);
        assert_eq!(gql.of(c), &[good]);
        assert_same_candidates(&q, &g, &gql, &GqlFilter::default().filter_reference(&q, &g));
    }

    #[test]
    fn scratch_semi_perfect_matches_reference_on_fixtures() {
        let cases = [triangle_case()];
        for (q, g) in cases {
            for rounds in [1usize, 2, 4] {
                let f = GqlFilter { refinement_rounds: rounds };
                let fast = f.filter(&q, &g);
                let reference = f.filter_reference(&q, &g);
                for u in q.vertices() {
                    assert_eq!(fast.of(u), reference.of(u), "rounds {rounds} vertex {u}");
                }
            }
        }
    }

    #[test]
    fn scratch_state_survives_label_skew_and_isolated_query_vertices() {
        // Query with an isolated vertex (empty left side) plus a hub:
        // exercises the left_count == 0 and pigeonhole paths of the
        // scratch matcher in one filter run.
        let mut qb = GraphBuilder::new(3);
        let hub = qb.add_vertex(0);
        let a = qb.add_vertex(1);
        let b = qb.add_vertex(2);
        qb.add_edge(hub, a);
        qb.add_edge(hub, b);
        qb.add_vertex(1); // isolated
        let q = qb.build();
        let mut gb = GraphBuilder::new(3);
        let c = gb.add_vertex(0);
        let x = gb.add_vertex(1);
        let y = gb.add_vertex(2);
        gb.add_edge(c, x);
        gb.add_edge(c, y);
        gb.add_vertex(1);
        let g = gb.build();
        let f = GqlFilter::default();
        let fast = f.filter(&q, &g);
        let reference = f.filter_reference(&q, &g);
        for u in q.vertices() {
            assert_eq!(fast.of(u), reference.of(u), "vertex {u}");
        }
        assert!(!fast.any_empty());
    }
}
