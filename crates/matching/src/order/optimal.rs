//! Exhaustive optimal ordering — the paper's `Opt` baseline (§IV-C).
//!
//! "To obtain the optimal matching order, we generate the orders of all
//! permutations of the query vertices, and feed them into the subgraph
//! matching algorithm with the same filtering and enumeration methods …
//! We pick the permutation that requires the minimum enumeration number."
//!
//! Only connected-prefix permutations are explored (the search space all
//! compared methods draw from); with the paper's spectrum-analysis setting
//! (|V(q)| = 8) this is comfortably tractable.

use rlqvo_graph::{Graph, VertexId};

use crate::candspace::CandidateSpace;
use crate::enumerate::{enumerate, enumerate_in_space, EnumConfig, EnumEngine};
use crate::filter::Candidates;
use crate::order::OrderingMethod;

/// Brute-force minimum-`#enum` order. `per_order_config` bounds each
/// candidate evaluation (budget/time) so a pathological permutation cannot
/// stall the sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimalOrdering {
    /// Enumeration knobs applied to every evaluated permutation.
    pub per_order_config: EnumConfig,
}

impl OptimalOrdering {
    /// Returns the best order *and* its `#enum`, which the spectrum
    /// analysis (Fig. 6 harness) reports directly.
    pub fn order_with_cost(&self, q: &Graph, g: &Graph, cand: &Candidates) -> (Vec<VertexId>, u64) {
        // The candidate space is order-independent, so the O(n!) sweep
        // builds it exactly once and reuses it for every permutation
        // (rebuilding per permutation would dwarf the enumeration cost on
        // build-dominated workloads).
        let space = match self.per_order_config.resolved(q).engine {
            EnumEngine::CandidateSpace if !cand.any_empty() => Some(CandidateSpace::build(q, g, cand)),
            _ => None,
        };
        self.order_with_cost_in_space(q, g, cand, space.as_ref())
    }

    /// The sweep against a caller-provided prebuilt space (`None` falls
    /// back to the engine in `per_order_config`, probing per permutation).
    /// Harnesses that also enumerate heuristic orders on the same
    /// (query, data) pair (Fig. 6) pass the space they already built so
    /// the whole figure performs exactly one build per pair.
    pub fn order_with_cost_in_space(
        &self,
        q: &Graph,
        g: &Graph,
        cand: &Candidates,
        space: Option<&CandidateSpace>,
    ) -> (Vec<VertexId>, u64) {
        let n = q.num_vertices();
        assert!(n > 0, "empty query has no order");
        let mut best_order: Option<Vec<VertexId>> = None;
        let mut best_cost = u64::MAX;
        let mut prefix: Vec<VertexId> = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let connected = q.is_connected();
        self.explore(q, g, cand, space, &mut prefix, &mut used, connected, &mut best_order, &mut best_cost);
        (best_order.expect("at least one permutation exists"), best_cost)
    }

    #[allow(clippy::too_many_arguments)]
    fn explore(
        &self,
        q: &Graph,
        g: &Graph,
        cand: &Candidates,
        space: Option<&CandidateSpace>,
        prefix: &mut Vec<VertexId>,
        used: &mut Vec<bool>,
        connected: bool,
        best_order: &mut Option<Vec<VertexId>>,
        best_cost: &mut u64,
    ) {
        let n = q.num_vertices();
        if prefix.len() == n {
            let res = match space {
                Some(cs) => enumerate_in_space(q, cs, prefix, self.per_order_config),
                None => enumerate(q, g, cand, prefix, self.per_order_config),
            };
            if res.enumerations < *best_cost {
                *best_cost = res.enumerations;
                *best_order = Some(prefix.clone());
            }
            return;
        }
        for u in q.vertices() {
            if used[u as usize] {
                continue;
            }
            // Connectivity pruning: for connected queries only extend with
            // frontier vertices (every method under comparison does).
            if connected && !prefix.is_empty() && !q.neighbors(u).iter().any(|&p| used[p as usize]) {
                continue;
            }
            prefix.push(u);
            used[u as usize] = true;
            self.explore(q, g, cand, space, prefix, used, connected, best_order, best_cost);
            used[u as usize] = false;
            prefix.pop();
        }
    }
}

impl OrderingMethod for OptimalOrdering {
    fn name(&self) -> &str {
        "Opt"
    }

    fn order(&self, q: &Graph, g: &Graph, cand: &Candidates) -> Vec<VertexId> {
        self.order_with_cost(q, g, cand).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CandidateFilter, LdfFilter};
    use crate::order::testutil::{assert_permutation, fig1_data, fig1_query};
    use crate::order::RiOrdering;

    #[test]
    fn optimal_never_worse_than_ri() {
        let q = fig1_query();
        let g = fig1_data();
        let cand = LdfFilter.filter(&q, &g);
        let (opt_order, opt_cost) = OptimalOrdering::default().order_with_cost(&q, &g, &cand);
        assert_permutation(&opt_order, 4);

        let ri = RiOrdering.order(&q, &g, &cand);
        let ri_cost = enumerate(&q, &g, &cand, &ri, EnumConfig::default()).enumerations;
        assert!(opt_cost <= ri_cost, "opt {opt_cost} must be <= RI {ri_cost}");
    }

    #[test]
    fn optimal_matches_exhaustive_minimum_on_tiny_case() {
        let q = fig1_query();
        let g = fig1_data();
        let cand = LdfFilter.filter(&q, &g);
        // Manual exhaustive check over ALL permutations (connected or not):
        // the connected optimum can't beat the global optimum by definition
        // of the pruned space, but must match the connected-space minimum.
        let mut best = u64::MAX;
        let perms = permutations(4);
        for p in perms {
            if crate::order::connected_prefix_ok(&q, &p) {
                let c = enumerate(&q, &g, &cand, &p, EnumConfig::default()).enumerations;
                best = best.min(c);
            }
        }
        let (_, opt_cost) = OptimalOrdering::default().order_with_cost(&q, &g, &cand);
        assert_eq!(opt_cost, best);
    }

    fn permutations(n: u32) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        let mut used = vec![false; n as usize];
        fn rec(n: u32, cur: &mut Vec<u32>, used: &mut Vec<bool>, out: &mut Vec<Vec<u32>>) {
            if cur.len() == n as usize {
                out.push(cur.clone());
                return;
            }
            for v in 0..n {
                if !used[v as usize] {
                    used[v as usize] = true;
                    cur.push(v);
                    rec(n, cur, used, out);
                    cur.pop();
                    used[v as usize] = false;
                }
            }
        }
        rec(n, &mut cur, &mut used, &mut out);
        out
    }
}
