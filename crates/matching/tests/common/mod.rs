//! Algorithm 2 as the paper prints it, for the test binaries that pin the
//! engines' counts to it. It shares no code with the engines' recursion.

use rlqvo_graph::{Graph, VertexId};
use rlqvo_matching::Candidates;

/// `(match count, #enum, budget exhausted)`, and the matches themselves
/// when they were asked for.
pub type Outcome = ((u64, u64, bool), Option<Vec<Vec<VertexId>>>);

/// Runs Algorithm 2 over `order`: `LC(u, M)` by probing a mapped
/// neighbour's adjacency, one count per call (Definition II.6), the budget
/// tested on entry and the cap after a match.
pub fn algorithm2(
    q: &Graph,
    g: &Graph,
    cand: &Candidates,
    order: &[VertexId],
    max_enumerations: u64,
    max_matches: u64,
    stream: bool,
) -> Outcome {
    let backward: Vec<Vec<VertexId>> =
        (0..order.len()).map(|i| order[..i].iter().copied().filter(|&p| q.has_edge(p, order[i])).collect()).collect();
    let mut r = Reference {
        g,
        cand,
        order,
        backward: &backward,
        max_enumerations,
        max_matches,
        calls: 0,
        matches: 0,
        exhausted: false,
        mapping: vec![VertexId::MAX; order.len()],
        used: vec![false; g.num_vertices()],
        stream: stream.then(Vec::new),
    };
    r.call(0);
    ((r.matches, r.calls, r.exhausted), r.stream)
}

struct Reference<'a> {
    g: &'a Graph,
    cand: &'a Candidates,
    order: &'a [VertexId],
    /// Per depth, the vertices of `order[..depth]` adjacent to `order[depth]`.
    backward: &'a [Vec<VertexId>],
    max_enumerations: u64,
    max_matches: u64,
    calls: u64,
    matches: u64,
    exhausted: bool,
    mapping: Vec<VertexId>,
    used: Vec<bool>,
    stream: Option<Vec<Vec<VertexId>>>,
}

impl Reference<'_> {
    fn call(&mut self, depth: usize) -> bool {
        self.calls += 1;
        if self.calls >= self.max_enumerations {
            self.exhausted = true;
            return true;
        }
        if depth == self.order.len() {
            self.matches += 1;
            if let Some(stream) = &mut self.stream {
                stream.push(self.mapping.clone());
            }
            return self.matches >= self.max_matches;
        }
        let (g, u, backward) = (self.g, self.order[depth], &self.backward[depth]);
        let pool = backward.first().map_or(self.cand.of(u), |&p| g.neighbors(self.mapping[p as usize]));
        for &v in pool {
            let joined = || backward.iter().all(|&p| g.has_edge(self.mapping[p as usize], v));
            if self.used[v as usize] || !self.cand.contains(u, v) || !joined() {
                continue;
            }
            (self.mapping[u as usize], self.used[v as usize]) = (v, true);
            let stop = self.call(depth + 1);
            self.used[v as usize] = false;
            if stop {
                return true;
            }
        }
        false
    }
}
