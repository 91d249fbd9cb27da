//! The edge-indexed candidate space — the auxiliary structure behind the
//! intersection-based enumeration engine.
//!
//! After phase-1 filtering, [`CandidateSpace::build`] materializes, for
//! every *directed* query edge `(u, u')` and every candidate `v ∈ C(u)`,
//! the sorted list of positions (into `C(u')`) of `v`'s data-neighbours
//! that survive in `C(u')`. This is the DAF/CFL-style auxiliary structure:
//! with it, the enumeration-time local candidate set
//!
//! ```text
//! LC(u, M) = { v ∈ C(u) : ∀ mapped backward neighbour u_b,
//!                          (M(u_b), v) ∈ E(G) }
//! ```
//!
//! becomes a multi-way intersection of precomputed sorted lists
//! ([`rlqvo_graph::intersect`]) — no adjacency probing, no binary-search
//! membership tests, no `has_edge` calls.
//!
//! Everything is stored in flat CSR-style arenas (no `Vec<Vec<_>>` on the
//! access path), three allocations in all, each at its exact length:
//!
//! * the [`Candidates`] the space was built from, which it owns: one
//!   buffer of their offsets and sets;
//! * one index buffer of four arenas: the query CSR `q_offsets` /
//!   `q_targets`, then `edge_seg` / `list_offsets`, the first two levels
//!   of a CSR directed edge → per-candidate segment → list;
//! * `nbr_pos`, the lists themselves: positions into the target candidate
//!   set.
//!
//! The lists of `(u', u)` are the transpose of the lists of `(u, u')` —
//! `G` is undirected, and [`rlqvo_graph::GraphBuilder`] symmetrizes `N` —
//! so the build reads data adjacency once per *undirected* query edge,
//! from the endpoint with the smaller `scan_cost` `Σ_{v ∈ C(x)} d(v)`
//! (the rule `GqlFilter` refines by), and writes the other direction by
//! count, prefix and fill over positions. The arenas are byte for byte
//! what scanning every direction gives (`tests/oracle.rs` keeps that build
//! as the reference).
//!
//! Lists hold candidate **positions**, not vertex ids: position lists
//! intersect exactly like vertex lists (both are strictly ascending), and
//! the winning position doubles as the key for the *next* depth's edge
//! lists, so the engine never searches for "where is `v` in `C(u)`".

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rlqvo_graph::{intersect_positions_into, Graph, VertexId};

use crate::filter::{scan_cost, Candidates};

/// Process-wide count of completed [`CandidateSpace`] builds. The build is
/// the dominant fixed cost of the intersection engine, so amortization
/// regressions (a harness silently rebuilding per order) are caught by
/// asserting on [`CandidateSpace::build_count`] deltas in tests.
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);

/// A [`CandidateSpace::try_build`] refusal: some flat arena would need more
/// entries than its `u32` offsets can address, so continuing would silently
/// truncate offsets and corrupt the space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaOverflow {
    /// Which arena overflowed ("cand_flat", "q_targets", "nbr_pos", …).
    pub arena: &'static str,
    /// Entries the build needed at the point it gave up (a lower bound on
    /// the true requirement — the build stops at the first violation).
    pub required: u64,
    /// The largest entry count the `u32` offsets can address.
    pub limit: u64,
}

impl fmt::Display for ArenaOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "candidate-space arena `{}` needs >= {} entries but u32 offsets address at most {}",
            self.arena, self.required, self.limit
        )
    }
}

impl std::error::Error for ArenaOverflow {}

/// Edge lists under construction: `off[i]` is where list `i` starts in
/// `pos`. The index (its tail is `list_offsets`) and `nbr_pos` of a space
/// being built, and the one-edge temp of
/// [`CandidateSpace::try_build_with_limit`].
#[derive(Default)]
struct Lists {
    off: Vec<u32>,
    pos: Vec<u32>,
}

impl Lists {
    /// Records `offset` as the start of the next list. The offset must
    /// itself fit in `u32`; the check runs before the cast so an oversized
    /// space fails loudly instead of wrapping.
    fn mark(&mut self, offset: usize, limit: u64) -> Result<(), ArenaOverflow> {
        if offset as u64 > limit {
            return Err(ArenaOverflow { arena: "nbr_pos", required: offset as u64, limit });
        }
        self.off.push(offset as u32);
        Ok(())
    }
}

const UNMAPPED: u32 = u32::MAX;

/// The scanned arm of the build: one directed query edge answered from the
/// data adjacency of its source candidates.
struct Scanner<'a> {
    g: &'a Graph,
    cand: &'a Candidates,
    /// Dense vertex → position-in-`C(to)` table, maintained per scanned
    /// edge (set and cleared through `C(to)`, never refilled wholesale).
    /// It answers membership AND rank in O(1), so the common case is a
    /// single pass over each adjacency list; galloping from the candidate
    /// side takes over when d(v) dwarfs `|C(to)|`.
    pos_of: Vec<u32>,
    scratch: Vec<u32>,
}

impl Scanner<'_> {
    /// Appends the `|C(from)|` lists of directed edge `(from, to)` to
    /// `out`: per candidate of `from`, the sorted positions in `C(to)` of
    /// its data-neighbours there.
    fn scan(&mut self, from: VertexId, to: VertexId, out: &mut Lists, limit: u64) -> Result<(), ArenaOverflow> {
        let c_to = self.cand.of(to);
        for (j, &w) in c_to.iter().enumerate() {
            self.pos_of[w as usize] = j as u32;
        }
        for &v in self.cand.of(from) {
            out.mark(out.pos.len(), limit)?;
            let nv = self.g.neighbors(v);
            if nv.len() >= c_to.len().saturating_mul(16) {
                intersect_positions_into(&mut self.scratch, nv, c_to);
                out.pos.extend_from_slice(&self.scratch);
            } else {
                // Branch-free: `d(v)` slots, every lookup written, only a
                // hit advances the cursor (hits and misses are too mixed to
                // predict); what is past the cursor is cut off.
                let mut len = out.pos.len();
                out.pos.resize(len + nv.len(), 0);
                for &w in nv {
                    let p = self.pos_of[w as usize];
                    out.pos[len] = p;
                    len += (p != UNMAPPED) as usize;
                }
                out.pos.truncate(len);
            }
        }
        for &w in c_to {
            self.pos_of[w as usize] = UNMAPPED;
        }
        Ok(())
    }
}

/// Edge-indexed candidate space (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateSpace {
    num_data_vertices: usize,
    cand: Candidates,
    /// Four arenas in one buffer. The query CSR (copied so the space is
    /// self-contained): `q_offsets` (`|V(q)| + 1` entries from 0), then
    /// `q_targets`; directed edge `e = q_offsets[u] + k` is
    /// `(u, q_targets[q_offsets[u] + k])`. Then `edge_seg`, at `seg_at`:
    /// the start of edge `e`'s segment inside `list_offsets`, which comes
    /// last, at `lists_at`; a segment holds `|C(u)| + 1` monotone offsets
    /// into `nbr_pos`.
    index: Box<[u32]>,
    seg_at: usize,
    lists_at: usize,
    /// Concatenated neighbour lists, as positions into the target `C(u')`.
    nbr_pos: Box<[u32]>,
}

impl CandidateSpace {
    /// Materializes the space for `(q, g, cand)`: [`CandidateSpace::new`]
    /// on a copy of `cand`.
    ///
    /// Panics on arena overflow — use [`CandidateSpace::try_build`] when
    /// the input may be large enough (≥ 2³² edge-list entries) to exceed
    /// the `u32` offset arenas.
    pub fn build(q: &Graph, g: &Graph, cand: &Candidates) -> Self {
        Self::new(q, g, cand.clone())
    }

    /// Materializes the space for `(q, g, cand)` and keeps `cand`. Each
    /// undirected query edge `{u, u'}` is scanned from its cheaper
    /// endpoint `x` (the other being `y`) and transposed for the other
    /// direction:
    /// `O(Σ_{u,u'}∈E(q) (Σ_{v∈C(x)} min(d(v), |C(y)|·log) + entries))`,
    /// galloping where `d(v)` dwarfs `|C(y)|`. The result is reusable
    /// across every matching order of the same query. Panics on arena
    /// overflow, like [`CandidateSpace::build`].
    pub fn new(q: &Graph, g: &Graph, cand: Candidates) -> Self {
        Self::try_build_with_limit(q, g, cand, u32::MAX as u64).unwrap_or_else(|e| panic!("CandidateSpace::build: {e}"))
    }

    /// Overflow-checked build: identical to [`CandidateSpace::build`] on
    /// every input that fits, and returns [`ArenaOverflow`] instead of
    /// silently truncating `u32` offsets when one would not.
    pub fn try_build(q: &Graph, g: &Graph, cand: &Candidates) -> Result<Self, ArenaOverflow> {
        Self::try_build_with_limit(q, g, cand.clone(), u32::MAX as u64)
    }

    /// [`CandidateSpace::new`] with an explicit arena-entry ceiling,
    /// returning [`ArenaOverflow`] past it. Exists so tests can exercise
    /// the overflow path without allocating multi-gigabyte arenas;
    /// production callers want the `u32::MAX` default.
    #[doc(hidden)]
    pub fn try_build_with_limit(q: &Graph, g: &Graph, cand: Candidates, limit: u64) -> Result<Self, ArenaOverflow> {
        let n_q = q.num_vertices();
        assert_eq!(cand.num_query_vertices(), n_q, "candidates must cover the query");

        if cand.total() as u64 > limit {
            return Err(ArenaOverflow { arena: "cand_flat", required: cand.total() as u64, limit });
        }
        let directed = 2 * q.num_edges();
        if directed as u64 > limit {
            return Err(ArenaOverflow { arena: "q_targets", required: directed as u64, limit });
        }
        // Every directed edge `(u, up)` has one list offset per candidate
        // of `u`, and one closing offset ends the arena, so the index is
        // allocated once at its exact length and written in place
        // (growing it by pushes and trimming it after raised the ledger's
        // `findall-heavy` peak RSS); `nbr_pos` grows as the scans find
        // entries and is trimmed at the end. A space past `limit` still
        // fails below, offset by offset.
        let (seg_at, lists_at) = (n_q + 1 + directed, n_q + 1 + 2 * directed);
        let offsets = q.vertices().map(|u| q.degree(u) as usize * cand.len_of(u)).sum::<usize>() + 1;
        let mut index = Vec::with_capacity(lists_at + offsets.min((limit as usize).saturating_add(1)));
        index.push(0u32);
        for u in q.vertices() {
            index.push(index[u as usize] + q.degree(u));
        }
        for u in q.vertices() {
            index.extend_from_slice(q.neighbors(u));
        }
        // `edge_seg`, written edge by edge below.
        index.resize(lists_at, 0);
        let mut lists = Lists { off: index, pos: Vec::new() };
        // The one-edge temp: the lists of `(up, u)` and their closing
        // offset, when `up` is the cheap side of a first-seen `(u, up)`.
        let mut temp = Lists::default();
        let mut scanner = Scanner { g, cand: &cand, pos_of: vec![UNMAPPED; g.num_vertices()], scratch: Vec::new() };
        let cost: Vec<u64> = q.vertices().map(|u| scan_cost(g, cand.of(u))).collect();
        let mut cursor: Vec<u32> = Vec::new();
        let mut slot = seg_at;
        for u in q.vertices() {
            for &up in q.neighbors(u) {
                let listed = lists.off.len() - lists_at;
                if listed as u64 > limit {
                    return Err(ArenaOverflow { arena: "list_offsets", required: listed as u64, limit });
                }
                lists.off[slot] = listed as u32;
                slot += 1;
                // `G` is undirected (`GraphBuilder` symmetrizes `N`), so the
                // lists of `(u, up)` are the transpose of the lists of
                // `(up, u)`. When `up < u` those are in the arena already,
                // their `|C(up)| + 1` offsets starting at `rev_seg` of
                // `lists.off` (the closing one is the next edge's first,
                // which this edge may be yet to record). A first-seen edge
                // is scanned from its cheaper endpoint ([`scan_cost`]):
                // from `u` straight into place, or — only when `up` is
                // strictly cheaper — from `up` into the temp.
                let rev_seg = (up < u).then(|| {
                    let k = q.neighbors(up).binary_search(&u).expect("query adjacency is symmetric");
                    lists_at + lists.off[seg_at + lists.off[up as usize] as usize + k] as usize
                });
                if rev_seg.is_none() && cost[u as usize] <= cost[up as usize] {
                    scanner.scan(u, up, &mut lists, limit)?;
                    continue;
                }
                let base = lists.pos.len();
                if rev_seg.is_none() {
                    temp.off.clear();
                    temp.pos.clear();
                    // The temp's own offsets are `u32` too; an edge that
                    // outgrows them has outgrown the arena it lands in,
                    // behind `base`. What `limit` refuses is decided below,
                    // offset by offset, as in the scanned arm.
                    let room = u64::from(u32::MAX);
                    scanner
                        .scan(up, u, &mut temp, room)
                        .and_then(|()| temp.mark(temp.pos.len(), room))
                        .map_err(|e| ArenaOverflow { required: e.required + base as u64, limit, ..e })?;
                }
                // Transpose — count, prefix, fill: O(entries of the edge).
                let rows = cand.len_of(up);
                let at = |i: usize| lists.off.get(i).map_or(base, |&o| o as usize);
                let entries = rev_seg.map_or(&temp.pos[..], |seg| &lists.pos[at(seg)..at(seg + rows)]);
                cursor.clear();
                cursor.resize(cand.len_of(u), 0);
                for &p in entries {
                    cursor[p as usize] += 1;
                }
                let mut end = base;
                for c in &mut cursor {
                    lists.mark(end, limit)?;
                    (*c, end) = ((end - base) as u32, end + *c as usize);
                }
                if end == base {
                    continue;
                }
                lists.pos.resize(end, 0);
                let (arena, new) = lists.pos.split_at_mut(base);
                let (src_off, src) =
                    rev_seg.map_or((&temp.off[..], &temp.pos[..]), |seg| (&lists.off[seg..=seg + rows], &*arena));
                for (j, span) in src_off.windows(2).enumerate() {
                    for &p in &src[span[0] as usize..span[1] as usize] {
                        new[cursor[p as usize] as usize] = j as u32;
                        cursor[p as usize] += 1;
                    }
                }
            }
        }
        // Closing offset shared by the final edge segment.
        lists.mark(lists.pos.len(), limit)?;
        debug_assert_eq!(lists.off.len(), lists.off.capacity(), "the index is allocated at its length");
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);

        // A cached space keeps its arenas and is charged their lengths.
        Ok(CandidateSpace {
            num_data_vertices: g.num_vertices(),
            cand,
            index: lists.off.into_boxed_slice(),
            seg_at,
            lists_at,
            nbr_pos: lists.pos.into_boxed_slice(),
        })
    }

    /// Completed builds in this process so far. Monotone (other threads
    /// may also build); tests assert on deltas around single-threaded
    /// sections to prove a harness amortizes rather than rebuilds.
    pub fn build_count() -> u64 {
        BUILD_COUNT.load(Ordering::Relaxed)
    }

    /// Number of query vertices covered.
    #[inline]
    pub fn num_query_vertices(&self) -> usize {
        self.cand.num_query_vertices()
    }

    /// `|V(G)|` of the data graph this space was built against.
    #[inline]
    pub fn num_data_vertices(&self) -> usize {
        self.num_data_vertices
    }

    /// The candidate sets the space was built from.
    #[inline]
    pub fn candidates(&self) -> &Candidates {
        &self.cand
    }

    /// Sorted `C(u)`.
    #[inline]
    pub fn cand(&self, u: VertexId) -> &[VertexId] {
        self.cand.of(u)
    }

    /// `|C(u)|`.
    #[inline]
    pub fn cand_len(&self, u: VertexId) -> usize {
        self.cand.len_of(u)
    }

    /// The candidate at `pos` in `C(u)`.
    #[inline]
    pub fn cand_vertex(&self, u: VertexId, pos: u32) -> VertexId {
        self.cand.vertex_at(u, pos)
    }

    /// True when some candidate set is empty (no match can exist).
    pub fn any_empty(&self) -> bool {
        self.cand.any_empty()
    }

    /// Directed-edge id of `(u, up)`, or `None` when the query edge does
    /// not exist. O(log d(u)) — called once per (order, depth), never in
    /// the per-candidate loop.
    #[inline]
    pub fn edge_id(&self, u: VertexId, up: VertexId) -> Option<u32> {
        let targets = &self.index[self.num_query_vertices() + 1..self.seg_at];
        let (s, t) = (self.index[u as usize] as usize, self.index[u as usize + 1] as usize);
        targets[s..t].binary_search(&up).ok().map(|k| (s + k) as u32)
    }

    /// For directed edge `e = (u, u')` and the candidate at `pos` in
    /// `C(u)`: the sorted positions (into `C(u')`) of its data-neighbours
    /// inside `C(u')`.
    #[inline]
    pub fn edge_list(&self, e: u32, pos: u32) -> &[u32] {
        let seg = self.lists_at + self.index[self.seg_at + e as usize] as usize + pos as usize;
        &self.nbr_pos[self.index[seg] as usize..self.index[seg + 1] as usize]
    }

    /// Total entries across all edge lists (diagnostic; the dominant term
    /// of [`CandidateSpace::storage_bytes`]).
    pub fn total_edge_list_entries(&self) -> usize {
        self.nbr_pos.len()
    }

    /// Bytes held by the candidates and the flat arenas (paper Table
    /// IV-style accounting): every allocation the space owns, at its
    /// length.
    pub fn storage_bytes(&self) -> usize {
        self.cand.storage_bytes() + std::mem::size_of_val(&*self.index) + std::mem::size_of_val(&*self.nbr_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CandidateFilter, LdfFilter};
    use rlqvo_graph::GraphBuilder;

    /// q = path 0(l0)-1(l1)-2(l0); G = 5-cycle alternating labels plus a
    /// chord, so candidate sets have >1 entry.
    fn case() -> (Graph, Graph) {
        let mut qb = GraphBuilder::new(2);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(0);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        let q = qb.build();
        let mut gb = GraphBuilder::new(2);
        for i in 0..6u32 {
            gb.add_vertex(i % 2);
        }
        for i in 0..6u32 {
            gb.add_edge(i, (i + 1) % 6);
        }
        gb.add_edge(0, 2);
        (q, gb.build())
    }

    #[test]
    fn edge_lists_match_adjacency_semantics() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let cs = CandidateSpace::build(&q, &g, &cand);
        assert_eq!(cs.num_query_vertices(), 3);
        assert_eq!(cs.num_data_vertices(), 6);
        // For every directed edge and every candidate, the edge list must
        // contain exactly the positions of adjacent candidates.
        for u in q.vertices() {
            for &up in q.neighbors(u) {
                let e = cs.edge_id(u, up).expect("edge exists");
                for (pos, &v) in cand.of(u).iter().enumerate() {
                    let list = cs.edge_list(e, pos as u32);
                    let expected: Vec<u32> = cand
                        .of(up)
                        .iter()
                        .enumerate()
                        .filter(|&(_, &w)| g.has_edge(v, w))
                        .map(|(j, _)| j as u32)
                        .collect();
                    assert_eq!(list, &expected[..], "edge ({u},{up}) cand {v}");
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "list sorted");
                }
            }
        }
    }

    #[test]
    fn cand_accessors_mirror_candidates() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let cs = CandidateSpace::build(&q, &g, &cand);
        for u in q.vertices() {
            assert_eq!(cs.cand(u), cand.of(u));
            assert_eq!(cs.cand_len(u), cand.len_of(u));
            for (i, &v) in cand.of(u).iter().enumerate() {
                assert_eq!(cs.cand_vertex(u, i as u32), v);
            }
        }
        assert_eq!(cs.candidates(), &cand);
        assert_eq!(cs, CandidateSpace::new(&q, &g, cand), "build is the by-value build of a copy");
        assert!(!cs.any_empty());
        assert!(cs.storage_bytes() > 0);
        assert!(cs.total_edge_list_entries() > 0);
    }

    /// What the space charges a cache is what it holds: its three
    /// allocations, each exactly as long as its arenas — the index
    /// `|V(q)| + 1` query offsets, `2|E(q)|` targets, `2|E(q)|` edge
    /// segments and one list offset per (directed edge, candidate) plus the
    /// closing one, `nbr_pos` its entries.
    #[test]
    fn storage_bytes_are_the_arenas_capacities() {
        let (q, g) = case();
        for cand in [LdfFilter.filter(&q, &g), crate::GqlFilter::DEFAULT.filter(&q, &g)] {
            let cs = CandidateSpace::build(&q, &g, &cand);
            let (n, directed) = (q.num_vertices(), 2 * q.num_edges());
            let offsets: usize = q.vertices().map(|u| q.degree(u) as usize * cand.len_of(u)).sum::<usize>() + 1;
            assert_eq!(cs.index.len(), n + 1 + 2 * directed + offsets);
            assert_eq!(cs.nbr_pos.len(), cs.total_edge_list_entries());
            assert_eq!(cs.storage_bytes(), cand.storage_bytes() + 4 * (cs.index.len() + cs.nbr_pos.len()));
        }
    }

    #[test]
    fn missing_query_edge_has_no_id() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let cs = CandidateSpace::build(&q, &g, &cand);
        assert!(cs.edge_id(0, 2).is_none(), "0-2 is not a query edge");
        assert!(cs.edge_id(0, 1).is_some());
    }

    #[test]
    fn empty_candidate_sets_are_flagged() {
        let (q, g) = case();
        let cand = Candidates::new(vec![vec![], vec![1], vec![2]]);
        let cs = CandidateSpace::build(&q, &g, &cand);
        assert!(cs.any_empty());
    }

    #[test]
    fn try_build_matches_build_on_normal_input() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let checked = CandidateSpace::try_build(&q, &g, &cand).expect("fits comfortably");
        assert_eq!(checked, CandidateSpace::build(&q, &g, &cand));
    }

    #[test]
    fn arena_overflow_is_a_checked_error() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        // A ceiling below what this space needs must surface as the typed
        // error — never as truncated offsets.
        let err = CandidateSpace::try_build_with_limit(&q, &g, cand, 1).expect_err("must refuse");
        assert_eq!(err.limit, 1);
        assert!(err.required > err.limit);
        assert!(!err.arena.is_empty());
        let msg = err.to_string();
        assert!(msg.contains("u32 offsets"), "{msg}");
    }

    #[test]
    fn overflow_check_triggers_on_the_edge_list_arena() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let full = CandidateSpace::build(&q, &g, &cand);
        let entries = full.total_edge_list_entries() as u64;
        assert!(entries > 1, "fixture must have edge-list entries");
        // Generous enough for the small arenas, too small for nbr_pos.
        let err = CandidateSpace::try_build_with_limit(&q, &g, cand, entries - 1).expect_err("must refuse");
        assert_eq!(err.arena, "nbr_pos");
    }

    #[test]
    fn build_count_increments_per_build() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let before = CandidateSpace::build_count();
        let _a = CandidateSpace::build(&q, &g, &cand);
        let _b = CandidateSpace::build(&q, &g, &cand);
        // Other tests run concurrently in this binary, so the delta is a
        // lower bound.
        assert!(CandidateSpace::build_count() >= before + 2);
    }
}
