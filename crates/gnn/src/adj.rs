//! Dense graph tensors consumed by the GNN layers.

use std::sync::Arc;

use rlqvo_graph::Graph;
use rlqvo_tensor::Matrix;

/// The adjacency-derived matrices every layer type needs, computed once
/// per query graph and shared across layers and time steps — and, being
/// `Arc`s, bound onto a training tape without a copy
/// ([`rlqvo_tensor::Tape::constant_arc`]).
#[derive(Clone, Debug)]
pub struct GraphTensors {
    /// Symmetric-normalized adjacency with self-loops,
    /// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` — GCN's propagation matrix (Eq. 3).
    pub norm_adj: Arc<Matrix>,
    /// Raw adjacency `A` (no self-loops) — GraphConv / LEConv.
    pub adj: Arc<Matrix>,
    /// Row-normalized adjacency (mean aggregator) — GraphSAGE.
    pub mean_adj: Arc<Matrix>,
    /// Degree column vector `n×1` — LEConv's `D·X` term.
    pub degree: Arc<Matrix>,
    /// 0/1 mask of `A + I` — GAT attends over neighbours and self.
    pub mask_self: Arc<Matrix>,
}

impl GraphTensors {
    /// Builds all tensors for `q`.
    pub fn of(q: &Graph) -> Self {
        let n = q.num_vertices();
        let mut adj = Matrix::zeros(n, n);
        for (u, v) in q.edges() {
            adj.set(u as usize, v as usize, 1.0);
            adj.set(v as usize, u as usize, 1.0);
        }

        // Â with self loops.
        let mut norm_adj = Matrix::zeros(n, n);
        let deg_tilde: Vec<f32> = (0..n).map(|v| q.degree(v as u32) as f32 + 1.0).collect();
        for i in 0..n {
            for j in 0..n {
                let a = if i == j { 1.0 } else { adj.get(i, j) };
                if a != 0.0 {
                    norm_adj.set(i, j, a / (deg_tilde[i] * deg_tilde[j]).sqrt());
                }
            }
        }

        let mut mean_adj = Matrix::zeros(n, n);
        for i in 0..n {
            let d = q.degree(i as u32) as f32;
            if d > 0.0 {
                for j in 0..n {
                    if adj.get(i, j) != 0.0 {
                        mean_adj.set(i, j, 1.0 / d);
                    }
                }
            }
        }

        let degree = Matrix::from_fn(n, 1, |r, _| q.degree(r as u32) as f32);
        let mask_self = Matrix::from_fn(n, n, |r, c| if r == c || adj.get(r, c) != 0.0 { 1.0 } else { 0.0 });

        GraphTensors {
            norm_adj: Arc::new(norm_adj),
            adj: Arc::new(adj),
            mean_adj: Arc::new(mean_adj),
            degree: Arc::new(degree),
            mask_self: Arc::new(mask_self),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.degree.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlqvo_graph::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(1);
        for _ in 0..3 {
            b.add_vertex(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn adjacency_is_symmetric_zero_diagonal() {
        let gt = GraphTensors::of(&path3());
        for i in 0..3 {
            assert_eq!(gt.adj.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(gt.adj.get(i, j), gt.adj.get(j, i));
            }
        }
        assert_eq!(gt.adj.get(0, 1), 1.0);
        assert_eq!(gt.adj.get(0, 2), 0.0);
    }

    #[test]
    fn norm_adj_matches_hand_computation() {
        // Path 0-1-2: d̃ = [2,3,2].
        let gt = GraphTensors::of(&path3());
        assert!((gt.norm_adj.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((gt.norm_adj.get(0, 1) - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
        assert_eq!(gt.norm_adj.get(0, 2), 0.0);
        assert!((gt.norm_adj.get(1, 1) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mean_adj_rows_sum_to_one_or_zero() {
        let gt = GraphTensors::of(&path3());
        for r in 0..3 {
            let s: f32 = (0..3).map(|c| gt.mean_adj.get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
        // Isolated vertex: zero row.
        let mut b = GraphBuilder::new(1);
        b.add_vertex(0);
        let gt1 = GraphTensors::of(&b.build());
        assert_eq!(gt1.mean_adj.get(0, 0), 0.0);
    }

    #[test]
    fn degree_and_mask() {
        let gt = GraphTensors::of(&path3());
        assert_eq!(gt.degree.get(1, 0), 2.0);
        assert_eq!(gt.mask_self.get(0, 0), 1.0);
        assert_eq!(gt.mask_self.get(0, 1), 1.0);
        assert_eq!(gt.mask_self.get(0, 2), 0.0);
        assert_eq!(gt.num_vertices(), 3);
    }
}
