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
        let n = q.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let mut order: Vec<VertexId> = Vec::with_capacity(n);
        let mut in_order = vec![false; n];

        let first =
            q.vertices().max_by(|&a, &b| q.degree(a).cmp(&q.degree(b)).then(b.cmp(&a))).expect("non-empty query");
        order.push(first);
        in_order[first as usize] = true;

        while order.len() < n {
            // One score per candidate per step. `Reverse(u)`: the lower id
            // wins the final tie, and no two keys are equal.
            let next = q
                .vertices()
                .filter(|&u| !in_order[u as usize])
                .max_by_key(|&u| (score(q, &order, &in_order, u), Reverse(u)))
                .expect("unordered vertex exists");
            order.push(next);
            in_order[next as usize] = true;
        }
        order
    }
}

/// Lexicographic RI score of appending `u`: (backward-neighbour count,
/// |u_neig|, |u_unv|).
fn score(q: &Graph, order: &[VertexId], in_order: &[bool], u: VertexId) -> (usize, usize, usize) {
    let backward = q.neighbors(u).iter().filter(|&&nb| in_order[nb as usize]).count();

    // |u_neig| = ordered vertices u' such that some unordered u'' is a
    // neighbour of both u' and u (paper §II-C tie-break (1)).
    let uneig = order
        .iter()
        .filter(|&&prev| q.neighbors(prev).iter().any(|&mid| !in_order[mid as usize] && q.has_edge(u, mid)))
        .count();

    // |u_unv| = neighbours of u that are unordered and not adjacent to any
    // ordered vertex (tie-break (2)).
    let uunv = q
        .neighbors(u)
        .iter()
        .filter(|&&nb| !in_order[nb as usize] && !q.neighbors(nb).iter().any(|&x| in_order[x as usize]))
        .count();

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
                .max_by(|&a, &b| score(q, &order, &in_order, a).cmp(&score(q, &order, &in_order, b)).then(b.cmp(&a)))
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
        let mut sampled = 0;
        for size in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
            for _ in 0..40 {
                let Ok((q, _)) = rlqvo_graph::extract_connected_subgraph(&g, size, &mut rng) else { continue };
                assert_eq!(RiOrdering.order(&q, &g, &cand), order_by_old_comparator(&q), "|V(q)| = {size}");
                sampled += 1;
            }
        }
        assert!(sampled >= 300, "only {sampled} queries sampled");
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
