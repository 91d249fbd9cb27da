//! Mutable construction of [`Graph`] values.

use crate::graph::{Graph, VertexId};

/// Accumulates vertices and edges, then freezes into the immutable CSR
/// [`Graph`]. Self-loops are rejected; duplicate edges are deduplicated at
/// `build` time so generators can be sloppy.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    labels: Vec<u32>,
    edges: Vec<(VertexId, VertexId)>,
    num_labels: u32,
}

impl GraphBuilder {
    /// Creates a builder whose graphs live in a label universe of size
    /// `num_labels`. Every added vertex label must be `< num_labels`.
    pub fn new(num_labels: u32) -> Self {
        GraphBuilder { labels: Vec::new(), edges: Vec::new(), num_labels }
    }

    /// Pre-allocates for `n` vertices and `m` edges.
    pub fn with_capacity(num_labels: u32, n: usize, m: usize) -> Self {
        GraphBuilder { labels: Vec::with_capacity(n), edges: Vec::with_capacity(m), num_labels }
    }

    /// A builder over already checked parts: every label `< num_labels`,
    /// every edge `(u, v)` with `u < v < labels.len()`. The text parser
    /// validates as it reads and hands its buffers over without a copy.
    pub(crate) fn from_parts(num_labels: u32, labels: Vec<u32>, edges: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(labels.iter().all(|&l| l < num_labels));
        debug_assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < labels.len()));
        GraphBuilder { labels, edges, num_labels }
    }

    /// Adds a vertex with the given label, returning its id.
    ///
    /// # Panics
    /// If `label >= num_labels`.
    pub fn add_vertex(&mut self, label: u32) -> VertexId {
        assert!(label < self.num_labels, "label {label} out of universe 0..{}", self.num_labels);
        let id = self.labels.len() as VertexId;
        self.labels.push(label);
        id
    }

    /// Adds an undirected edge. Both endpoints must already exist.
    ///
    /// # Panics
    /// On self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert_ne!(u, v, "self-loops are not allowed");
        let n = self.labels.len() as VertexId;
        assert!(u < n && v < n, "edge ({u},{v}) references a missing vertex (n={n})");
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// True if the edge was already added (linear scan — only meant for
    /// generators that need occasional membership checks; they should keep
    /// their own hash set when the check is hot).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&key)
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of edge insertions so far (before deduplication).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes into a CSR [`Graph`]: sorts, deduplicates, symmetrizes.
    pub fn build(mut self) -> Graph {
        let n = self.labels.len();
        self.edges.sort_unstable();
        self.edges.dedup();

        let mut degrees = vec![0u32; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degrees[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as VertexId; offsets[n] as usize];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Each adjacency slice must be sorted; insertion above preserves order
        // for the `u -> v` direction (edges sorted by (u,v)) but not for the
        // reverse direction, so sort each slice.
        for v in 0..n {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Graph::from_csr(offsets, neighbors, self.labels, self.num_labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_edges() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(0);
        b.add_vertex(0);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(0);
        b.add_edge(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn rejects_label_out_of_universe() {
        let mut b = GraphBuilder::new(2);
        b.add_vertex(2);
    }

    #[test]
    #[should_panic(expected = "missing vertex")]
    fn rejects_dangling_edge() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(0);
        b.add_edge(0, 3);
    }

    #[test]
    fn builds_sorted_adjacency() {
        let mut b = GraphBuilder::new(1);
        for _ in 0..5 {
            b.add_vertex(0);
        }
        b.add_edge(4, 2);
        b.add_edge(4, 0);
        b.add_edge(4, 3);
        b.add_edge(4, 1);
        let g = b.build();
        assert_eq!(g.neighbors(4), &[0, 1, 2, 3]);
    }

    #[test]
    fn has_edge_prebuild() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(0);
        b.add_vertex(0);
        assert!(!b.has_edge(0, 1));
        b.add_edge(1, 0);
        assert!(b.has_edge(0, 1));
    }
}
