//! RI ordering (Bonnici et al. 2013) — the state-of-the-art heuristic the
//! paper's `Hybrid` baseline uses, reproduced from the paper's §II-C
//! description including both tie-breakers.

use std::cmp::Reverse;

use rlqvo_graph::{Graph, VertexId};

use crate::filter::Candidates;
use crate::order::OrderingMethod;

/// RI: start at the maximum-degree vertex; then repeatedly append the
/// unordered vertex with the most neighbours already in the order, breaking
/// ties by (1) `|u_neig|` — ordered vertices that share an unordered
/// neighbour with `u` — then (2) `|u_unv|` — neighbours of `u` that are
/// unordered and not adjacent to any ordered vertex — then by lowest id
/// (the paper says "arbitrarily"; lowest id keeps runs reproducible).
#[derive(Clone, Copy, Debug, Default)]
pub struct RiOrdering;

impl OrderingMethod for RiOrdering {
    fn name(&self) -> &str {
        "RI"
    }

    fn order(&self, q: &Graph, _g: &Graph, _cand: &Candidates) -> Vec<VertexId> {
        // Vertex sets are bitmasks of `w` words: any query width, one code
        // path. Up to 64 vertices (every query set of the paper) it is
        // instantiated with the width as a constant, so the word loops
        // fold away — as `MaskMatcher::saturates` does.
        match q.num_vertices().div_ceil(64) {
            0 => Vec::new(),
            1 => order_in(q, 1),
            w => order_in(q, w),
        }
    }
}

#[inline(always)]
fn order_in(q: &Graph, w: usize) -> Vec<VertexId> {
    let n = q.num_vertices();
    // `adj` row `u` is `N(u)`, `ordered` the order so far, `touched` the
    // union of its members' neighbourhoods.
    let mut adj = vec![0u64; n * w];
    for u in q.vertices() {
        for &nb in q.neighbors(u) {
            adj[u as usize * w + nb as usize / 64] |= 1u64 << (nb % 64);
        }
    }
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut ordered = vec![0u64; w];
    let mut touched = vec![0u64; w];

    let mut next =
        q.vertices().max_by(|&a, &b| q.degree(a).cmp(&q.degree(b)).then(b.cmp(&a))).expect("non-empty query");
    loop {
        order.push(next);
        ordered[next as usize / 64] |= 1u64 << (next % 64);
        for i in 0..w {
            touched[i] |= adj[next as usize * w + i];
        }
        if order.len() == n {
            return order;
        }
        // One score per candidate per step. `Reverse(u)`: the lower id
        // wins the final tie, and no two keys are equal.
        next = q
            .vertices()
            .filter(|&u| ordered[u as usize / 64] & (1u64 << (u % 64)) == 0)
            .max_by_key(|&u| (score(&adj, &ordered, &touched, u, w), Reverse(u)))
            .expect("unordered vertex exists");
    }
}

/// Lexicographic RI score of appending `u`: (backward-neighbour count,
/// |u_neig|, |u_unv|), over the masks of [`order_in`].
#[inline(always)]
fn score(adj: &[u64], ordered: &[u64], touched: &[u64], u: VertexId, w: usize) -> (u32, u32, u32) {
    let row = |x: VertexId| &adj[x as usize * w..][..w];
    let (nu, ordered, touched) = (row(u), &ordered[..w], &touched[..w]);
    let backward = (0..w).map(|i| (nu[i] & ordered[i]).count_ones()).sum();

    // |u_neig| = ordered vertices u' such that some unordered u'' is a
    // neighbour of both u' and u (paper §II-C tie-break (1)): the ordered
    // part of the union of `N(u'')` over u's unordered neighbours u''.
    let uneig = (0..w)
        .map(|j| {
            let mut reach = 0u64;
            for i in 0..w {
                let mut open = nu[i] & !ordered[i];
                while open != 0 {
                    reach |= adj[(i * 64 + open.trailing_zeros() as usize) * w + j];
                    open &= open - 1;
                }
            }
            (reach & ordered[j]).count_ones()
        })
        .sum();

    // |u_unv| = neighbours of u that are unordered and not adjacent to any
    // ordered vertex (tie-break (2)).
    let uunv = (0..w).map(|i| (nu[i] & !ordered[i] & !touched[i]).count_ones()).sum();

    (backward, uneig, uunv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CandidateFilter, LdfFilter};
    use crate::order::testutil::{assert_permutation, fig1_data, fig1_query};
    use rlqvo_graph::GraphBuilder;

    #[test]
    fn starts_with_max_degree() {
        let q = fig1_query(); // degrees: u1=2, u2=3, u3=3, u4=2
        let g = fig1_data();
        let cand = LdfFilter.filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        assert_permutation(&order, 4);
        // u2 (id 1) and u3 (id 2) tie at degree 3; lower id wins.
        assert_eq!(order[0], 1);
    }

    /// Path 0-1-2-3 plus chord 0-2, one label.
    fn chorded_path() -> Graph {
        let mut b = GraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn prefers_most_backward_neighbors() {
        // Path 0-1-2-3 plus chord 0-2: after [0], vertex 2 has... both 1
        // and 2 have one backward neighbour; tie-breaks decide.
        let q = chorded_path();
        let g = q.clone();
        let cand = LdfFilter.filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        // Max degree is vertex 2 (degree 3). Then both 0 and 1 have one
        // backward neighbour; u_neig: 0 via middle 1 (unordered, adj to 2
        // and 0)? 1's neighbours = {0,2}; for candidate 0: ordered 2 has
        // unordered neighbour 1 adjacent to 0 -> uneig=1; for candidate 1:
        // ordered 2 has unordered neighbour 0 adjacent to 1 -> uneig=1;
        // u_unv: candidate 0: neighbours {1,2}; 1 is unordered and 1 is
        // adjacent to ordered 2 -> not counted; so 0. candidate 1:
        // neighbours {0,2}: 0 unordered, adjacent to ordered 2 -> 0. Tie ->
        // lower id 0.
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 0);
        assert!(crate::order::connected_prefix_ok(&q, &order));
    }

    /// The score as it was written before the adjacency masks: the three
    /// definitions walked over `N(·)` and `has_edge`.
    fn old_score(q: &Graph, order: &[VertexId], in_order: &[bool], u: VertexId) -> (usize, usize, usize) {
        let backward = q.neighbors(u).iter().filter(|&&nb| in_order[nb as usize]).count();
        let uneig = order
            .iter()
            .filter(|&&prev| q.neighbors(prev).iter().any(|&mid| !in_order[mid as usize] && q.has_edge(u, mid)))
            .count();
        let uunv = q
            .neighbors(u)
            .iter()
            .filter(|&&nb| !in_order[nb as usize] && !q.neighbors(nb).iter().any(|&x| in_order[x as usize]))
            .count();
        (backward, uneig, uunv)
    }

    /// The selection step as it was written before `max_by_key`: a
    /// comparator that scores both sides of every comparison.
    fn order_by_old_comparator(q: &Graph) -> Vec<VertexId> {
        let n = q.num_vertices();
        let first = q.vertices().max_by(|&a, &b| q.degree(a).cmp(&q.degree(b)).then(b.cmp(&a))).unwrap();
        let mut order = vec![first];
        let mut in_order = vec![false; n];
        in_order[first as usize] = true;
        while order.len() < n {
            let next = q
                .vertices()
                .filter(|&u| !in_order[u as usize])
                .max_by(|&a, &b| {
                    old_score(q, &order, &in_order, a).cmp(&old_score(q, &order, &in_order, b)).then(b.cmp(&a))
                })
                .unwrap();
            order.push(next);
            in_order[next as usize] = true;
        }
        order
    }

    #[test]
    fn orders_equal_the_old_comparators() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        // One label and a regular band: ties everywhere, so the tie-breaks
        // and the final lowest-id rule decide most steps.
        let mut b = GraphBuilder::new(1);
        for _ in 0..200 {
            b.add_vertex(0);
        }
        for i in 0..200u32 {
            for j in (i + 1)..200.min(i + 5) {
                b.add_edge(i, j);
            }
            b.add_edge(i, (i + rng.gen_range(1..200u32)) % 200);
        }
        let g = b.build();
        let cand = Candidates::new(Vec::new());
        let (mut sampled, mut wide) = (0, 0);
        // From 65 up the masks are two and three words wide.
        for size in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 65, 70, 130] {
            for _ in 0..if size < 64 { 40 } else { 4 } {
                let Ok((q, _)) = rlqvo_graph::extract_connected_subgraph(&g, size, &mut rng) else { continue };
                assert_eq!(RiOrdering.order(&q, &g, &cand), order_by_old_comparator(&q), "|V(q)| = {size}");
                sampled += 1;
                wide += usize::from(size > 64);
            }
        }
        assert!(sampled >= 300 && wide >= 6, "only {sampled} queries sampled, {wide} wider than a word");
        for q in [fig1_query(), chorded_path()] {
            assert_eq!(RiOrdering.order(&q, &g, &cand), order_by_old_comparator(&q));
        }
    }

    #[test]
    fn single_vertex_query() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(0);
        let q = b.build();
        let g = q.clone();
        let cand = LdfFilter.filter(&q, &g);
        assert_eq!(RiOrdering.order(&q, &g, &cand), vec![0]);
    }

    #[test]
    fn deterministic() {
        let q = fig1_query();
        let g = fig1_data();
        let cand = LdfFilter.filter(&q, &g);
        assert_eq!(RiOrdering.order(&q, &g, &cand), RiOrdering.order(&q, &g, &cand));
    }
}
