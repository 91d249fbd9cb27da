//! GNN layer implementations.
//!
//! Layers own their parameters as plain matrices. Each forward pass *binds*
//! the parameters onto a tape (one leaf per matrix, in [`GnnLayer::params`]
//! order) so the trainer can read gradients back out of the
//! [`rlqvo_tensor::GradStore`] by position.

use std::borrow::Cow;

use rand::Rng;
use rlqvo_tensor::infer::broadcast_add_col_row_into;
use rlqvo_tensor::{InferScratch, Matrix, Tape, Var};

use crate::adj::GraphTensors;

/// The layer families of the paper's ablation (Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Graph convolutional network (Kipf & Welling) — RL-QVO's default.
    Gcn,
    /// Graph attention network (Veličković et al.) — `RL-QVO-GAT`.
    Gat,
    /// GraphSAGE mean aggregator (Hamilton et al.) — `RL-QVO-GraphSAGE`.
    GraphSage,
    /// GraphConv / Weisfeiler-Leman operator (Morris et al.) —
    /// `RL-QVO-GraphNN`.
    GraphConv,
    /// LEConv, the operator inside ASAP (Ranjan et al.) — `RL-QVO-ASAP`.
    LeConv,
    /// Structure-blind dense layer — the `RL-QVO-NN` ablation.
    Dense,
}

impl GnnKind {
    /// Ablation-style display name.
    pub fn name(self) -> &'static str {
        match self {
            GnnKind::Gcn => "GCN",
            GnnKind::Gat => "GAT",
            GnnKind::GraphSage => "GraphSAGE",
            GnnKind::GraphConv => "GraphNN",
            GnnKind::LeConv => "ASAP",
            GnnKind::Dense => "NN",
        }
    }
}

/// A graph layer with owned parameters.
///
/// `Send + Sync` (parameters are plain matrices) so policies can be shared
/// across harness threads.
pub trait GnnLayer: Send + Sync {
    /// Parameter matrices (stable order).
    fn params(&self) -> Vec<&Matrix>;
    /// Mutable access in the same order (optimizer updates).
    fn params_mut(&mut self) -> Vec<&mut Matrix>;
    /// Creates tape leaves for all parameters, in [`Self::params`] order.
    fn bind(&self, t: &Tape) -> Vec<Var> {
        self.params().into_iter().map(|p| t.leaf(p.clone())).collect()
    }
    /// Forward pass on the tape for the output rows in `rows` (`None`:
    /// every row). `bound` must come from [`Self::bind`] on the same tape;
    /// `h` is always the full `n`-row input.
    ///
    /// Row `r` of the `rows.len() × out_dim` result is row `rows[r]` of the
    /// every-row forward, bit for bit, and so are the gradients reaching
    /// `bound` and `h` when the loss reads the selected rows only: the
    /// graph constants are sliced by row, and each consumer of an own-row
    /// term (`h` for GraphSAGE, GraphConv, LEConv and the dense layer,
    /// GAT's source scores) gets its own [`Tape::gather_rows`], recorded
    /// right before it, so gradient slots accumulate in the every-row
    /// forward's order. What a kind needs of *all* vertices (GAT's `H W`,
    /// LEConv's `H W₃`) stays full width, as in [`Self::infer_rows`].
    fn forward(&self, t: &Tape, gt: &GraphTensors, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var;
    /// Tape-free inference forward: the same math as [`Self::forward`],
    /// bitwise identical under the default `InferMath::Bitwise` contract
    /// (shared kernels, same accumulation order; `scratch.math()` selects
    /// the opt-in fast-math kernels instead), but with zero tape nodes,
    /// zero parameter binding, and no heap allocation beyond `scratch`'s
    /// reusable buffers. Returns a buffer owned by the pool — `put` it
    /// back when finished with it.
    fn infer(&self, gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix) -> Matrix {
        self.infer_rows(gt, scratch, h, None)
    }
    /// [`Self::infer`] for the output rows in `rows` only (`None`: every
    /// row): row `r` of the `rows.len() × out_dim` result is row `rows[r]`
    /// of the full forward, bit for bit in either math mode. `h` is always
    /// the full `n`-row input. Every layer kind's output row `i` is a
    /// function of row `i` of its `M·h` products, so the left operands are
    /// cut down to the selected rows ([`InferScratch::rows_of`]) and the
    /// same kernels run on fewer rows; what a kind needs of *all* vertices
    /// (GAT's `H W`, LEConv's `H W₃`) stays full width.
    fn infer_rows(&self, gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix, rows: Option<&[usize]>) -> Matrix;
    /// Output feature dimension.
    fn out_dim(&self) -> usize;
    /// Which ablation family this layer belongs to.
    fn kind(&self) -> GnnKind;
}

/// `m`'s rows `rows` (`None`: all of `m`).
fn rows_of<'m>(m: &'m Matrix, rows: Option<&[usize]>) -> Cow<'m, Matrix> {
    match rows {
        Some(rows) => Cow::Owned(Matrix::from_fn(rows.len(), m.cols(), |r, c| m.get(rows[r], c))),
        None => Cow::Borrowed(m),
    }
}

/// A graph tensor's rows `rows` bound as a tape constant.
fn constant_rows(t: &Tape, m: &Matrix, rows: Option<&[usize]>) -> Var {
    t.constant(rows_of(m, rows).into_owned())
}

/// The rows `rows` of `v` for one consumer: call it inside that
/// consumer's argument list, never share the result (see
/// [`GnnLayer::forward`]).
fn own_rows(t: &Tape, v: Var, rows: Option<&[usize]>) -> Var {
    rows.map_or(v, |rows| t.gather_rows(v, rows))
}

/// Constructs a layer of the requested kind.
pub fn build_layer<R: Rng>(kind: GnnKind, in_dim: usize, out_dim: usize, rng: &mut R) -> Box<dyn GnnLayer> {
    match kind {
        GnnKind::Gcn => Box::new(GcnLayer::new(in_dim, out_dim, rng)),
        GnnKind::Gat => Box::new(GatLayer::new(in_dim, out_dim, rng)),
        GnnKind::GraphSage => Box::new(SageLayer::new(in_dim, out_dim, rng)),
        GnnKind::GraphConv => Box::new(GraphConvLayer::new(in_dim, out_dim, rng)),
        GnnKind::LeConv => Box::new(LeConvLayer::new(in_dim, out_dim, rng)),
        GnnKind::Dense => Box::new(DenseLayer::new(in_dim, out_dim, rng)),
    }
}

/// GCN (paper Eq. 3): `H' = ReLU(Â H W + b)`.
pub struct GcnLayer {
    w: Matrix,
    b: Matrix,
}

impl GcnLayer {
    /// Xavier-initialized GCN layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GcnLayer { w: Matrix::xavier_uniform(in_dim, out_dim, rng), b: Matrix::zeros(1, out_dim) }
    }
}

impl GnnLayer for GcnLayer {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.b]
    }
    fn forward(&self, t: &Tape, gt: &GraphTensors, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var {
        let adj = constant_rows(t, &gt.norm_adj, rows);
        let agg = t.matmul(adj, h);
        t.affine(agg, bound[0], bound[1], true)
    }
    fn infer_rows(&self, gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix, rows: Option<&[usize]>) -> Matrix {
        let math = scratch.math();
        let adj = scratch.rows_of(&gt.norm_adj, rows);
        let mut agg = scratch.take(adj.rows(), h.cols());
        math.matmul_into(&adj, h, &mut agg);
        scratch.put_rows(adj);
        let mut out = scratch.take(agg.rows(), self.w.cols());
        math.matmul_into(&agg, &self.w, &mut out);
        scratch.put(agg);
        out.add_bias_row_assign(&self.b);
        out.relu_in_place();
        out
    }
    fn out_dim(&self) -> usize {
        self.w.cols()
    }
    fn kind(&self) -> GnnKind {
        GnnKind::Gcn
    }
}

/// Single-head GAT: attention scores
/// `e_ij = LeakyReLU(a₁ᵀ W h_i + a₂ᵀ W h_j)` masked to `A + I`,
/// row-softmaxed, then `H' = ReLU(α (H W))`.
pub struct GatLayer {
    w: Matrix,
    a_src: Matrix,
    a_dst: Matrix,
}

impl GatLayer {
    /// Xavier-initialized GAT layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GatLayer {
            w: Matrix::xavier_uniform(in_dim, out_dim, rng),
            a_src: Matrix::xavier_uniform(out_dim, 1, rng),
            a_dst: Matrix::xavier_uniform(out_dim, 1, rng),
        }
    }
}

impl GnnLayer for GatLayer {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.a_src, &self.a_dst]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.a_src, &mut self.a_dst]
    }
    fn forward(&self, t: &Tape, gt: &GraphTensors, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var {
        let z = t.matmul(h, bound[0]);
        let s_src = t.matmul(z, bound[1]);
        let s_dst = t.matmul(z, bound[2]);
        let scores = t.leaky_relu(t.broadcast_add_col_row(own_rows(t, s_src, rows), s_dst), 0.2);
        let att = t.masked_softmax_rows(scores, &rows_of(&gt.mask_self, rows));
        t.relu(t.matmul(att, z))
    }
    fn infer_rows(&self, gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix, rows: Option<&[usize]>) -> Matrix {
        let math = scratch.math();
        let n = h.rows();
        // Every selected vertex attends over all of its neighbours' `z`.
        let mut z = scratch.take(n, self.w.cols());
        math.matmul_into(h, &self.w, &mut z);
        let mut s_src = scratch.take(n, 1);
        math.matmul_into(&z, &self.a_src, &mut s_src);
        let mut s_dst = scratch.take(n, 1);
        math.matmul_into(&z, &self.a_dst, &mut s_dst);
        let src_rows = scratch.rows_of(&s_src, rows);
        let mut scores = scratch.take(src_rows.rows(), n);
        broadcast_add_col_row_into(&src_rows, &s_dst, &mut scores);
        scratch.put_rows(src_rows);
        scratch.put(s_src);
        scratch.put(s_dst);
        scores.leaky_relu_in_place(0.2);
        let mask = scratch.rows_of(&gt.mask_self, rows);
        let mut att = scratch.take(scores.rows(), n);
        math.masked_softmax_rows_into(&scores, &mask, &mut att);
        scratch.put_rows(mask);
        scratch.put(scores);
        let mut out = scratch.take(att.rows(), z.cols());
        math.matmul_into(&att, &z, &mut out);
        scratch.put(att);
        scratch.put(z);
        out.relu_in_place();
        out
    }
    fn out_dim(&self) -> usize {
        self.w.cols()
    }
    fn kind(&self) -> GnnKind {
        GnnKind::Gat
    }
}

/// `ReLU(H W_own + (M H) W_neigh + b)` on the output rows `rows`, on the
/// tape (`bound` = `[W_own, W_neigh, b]`) — the body GraphSAGE (`M` = mean
/// adjacency) and GraphConv (`M` = adjacency) share; see
/// [`GnnLayer::forward`].
fn own_plus_neighbours(t: &Tape, adj: &Matrix, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var {
    let adj = constant_rows(t, adj, rows);
    let own = t.matmul(own_rows(t, h, rows), bound[0]);
    let neigh = t.matmul(t.matmul(adj, h), bound[1]);
    t.relu(t.add_bias_row(t.add(own, neigh), bound[2]))
}

/// [`own_plus_neighbours`] without the tape, on the output rows `rows`;
/// see [`GnnLayer::infer_rows`].
fn infer_own_plus_neighbours(
    adj: &Matrix,
    w_own: &Matrix,
    w_neigh: &Matrix,
    b: &Matrix,
    scratch: &mut InferScratch,
    h: &Matrix,
    rows: Option<&[usize]>,
) -> Matrix {
    let math = scratch.math();
    let h_rows = scratch.rows_of(h, rows);
    let mut own = scratch.take(h_rows.rows(), w_own.cols());
    math.matmul_into(&h_rows, w_own, &mut own);
    scratch.put_rows(h_rows);
    let adj = scratch.rows_of(adj, rows);
    let mut agg = scratch.take(adj.rows(), h.cols());
    math.matmul_into(&adj, h, &mut agg);
    scratch.put_rows(adj);
    let mut neigh = scratch.take(agg.rows(), w_neigh.cols());
    math.matmul_into(&agg, w_neigh, &mut neigh);
    scratch.put(agg);
    own.add_assign(&neigh);
    scratch.put(neigh);
    own.add_bias_row_assign(b);
    own.relu_in_place();
    own
}

/// GraphSAGE mean aggregator: `H' = ReLU(H W_self + (A_mean H) W_neigh + b)`.
pub struct SageLayer {
    w_self: Matrix,
    w_neigh: Matrix,
    b: Matrix,
}

impl SageLayer {
    /// Xavier-initialized GraphSAGE layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        SageLayer {
            w_self: Matrix::xavier_uniform(in_dim, out_dim, rng),
            w_neigh: Matrix::xavier_uniform(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
        }
    }
}

impl GnnLayer for SageLayer {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w_self, &self.w_neigh, &self.b]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w_self, &mut self.w_neigh, &mut self.b]
    }
    fn forward(&self, t: &Tape, gt: &GraphTensors, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var {
        own_plus_neighbours(t, &gt.mean_adj, bound, h, rows)
    }
    fn infer_rows(&self, gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix, rows: Option<&[usize]>) -> Matrix {
        infer_own_plus_neighbours(&gt.mean_adj, &self.w_self, &self.w_neigh, &self.b, scratch, h, rows)
    }
    fn out_dim(&self) -> usize {
        self.w_self.cols()
    }
    fn kind(&self) -> GnnKind {
        GnnKind::GraphSage
    }
}

/// GraphConv (Morris et al. "Weisfeiler and Leman go neural"):
/// `H' = ReLU(H W₁ + (A H) W₂ + b)`.
pub struct GraphConvLayer {
    w1: Matrix,
    w2: Matrix,
    b: Matrix,
}

impl GraphConvLayer {
    /// Xavier-initialized GraphConv layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GraphConvLayer {
            w1: Matrix::xavier_uniform(in_dim, out_dim, rng),
            w2: Matrix::xavier_uniform(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
        }
    }
}

impl GnnLayer for GraphConvLayer {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w1, &self.w2, &self.b]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w1, &mut self.w2, &mut self.b]
    }
    fn forward(&self, t: &Tape, gt: &GraphTensors, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var {
        own_plus_neighbours(t, &gt.adj, bound, h, rows)
    }
    fn infer_rows(&self, gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix, rows: Option<&[usize]>) -> Matrix {
        infer_own_plus_neighbours(&gt.adj, &self.w1, &self.w2, &self.b, scratch, h, rows)
    }
    fn out_dim(&self) -> usize {
        self.w1.cols()
    }
    fn kind(&self) -> GnnKind {
        GnnKind::GraphConv
    }
}

/// LEConv (the operator inside ASAP):
/// `h'_i = ReLU(W₁ h_i + Σ_j A_ij (W₂ h_i − W₃ h_j))`
/// `     = ReLU(H W₁ + D (H W₂) − A (H W₃) + b)`.
pub struct LeConvLayer {
    w1: Matrix,
    w2: Matrix,
    w3: Matrix,
    b: Matrix,
}

impl LeConvLayer {
    /// Xavier-initialized LEConv layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        LeConvLayer {
            w1: Matrix::xavier_uniform(in_dim, out_dim, rng),
            w2: Matrix::xavier_uniform(in_dim, out_dim, rng),
            w3: Matrix::xavier_uniform(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
        }
    }
}

impl GnnLayer for LeConvLayer {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w1, &self.w2, &self.w3, &self.b]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w1, &mut self.w2, &mut self.w3, &mut self.b]
    }
    fn forward(&self, t: &Tape, gt: &GraphTensors, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var {
        let adj = constant_rows(t, &gt.adj, rows);
        let deg = constant_rows(t, &gt.degree, rows);
        let own = t.matmul(own_rows(t, h, rows), bound[0]);
        let scaled = t.mul_col_broadcast(t.matmul(own_rows(t, h, rows), bound[1]), deg);
        let neigh = t.matmul(adj, t.matmul(h, bound[2]));
        let combined = t.sub(t.add(own, scaled), neigh);
        t.relu(t.add_bias_row(combined, bound[3]))
    }
    fn infer_rows(&self, gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix, rows: Option<&[usize]>) -> Matrix {
        let math = scratch.math();
        let h_rows = scratch.rows_of(h, rows);
        let mut own = scratch.take(h_rows.rows(), self.w1.cols());
        math.matmul_into(&h_rows, &self.w1, &mut own);
        let mut scaled = scratch.take(h_rows.rows(), self.w2.cols());
        math.matmul_into(&h_rows, &self.w2, &mut scaled);
        scratch.put_rows(h_rows);
        let degree = scratch.rows_of(&gt.degree, rows);
        scaled.mul_col_broadcast_assign(&degree);
        scratch.put_rows(degree);
        // `A (H W₃)` in the tape's association: `H W₃` of every vertex.
        let mut tmp = scratch.take(h.rows(), self.w3.cols());
        math.matmul_into(h, &self.w3, &mut tmp);
        let adj = scratch.rows_of(&gt.adj, rows);
        let mut neigh = scratch.take(adj.rows(), self.w3.cols());
        math.matmul_into(&adj, &tmp, &mut neigh);
        scratch.put_rows(adj);
        scratch.put(tmp);
        own.add_assign(&scaled);
        own.sub_assign(&neigh);
        scratch.put(scaled);
        scratch.put(neigh);
        own.add_bias_row_assign(&self.b);
        own.relu_in_place();
        own
    }
    fn out_dim(&self) -> usize {
        self.w1.cols()
    }
    fn kind(&self) -> GnnKind {
        GnnKind::LeConv
    }
}

/// Structure-blind dense layer (`RL-QVO-NN` ablation): `H' = ReLU(H W + b)`.
/// Deliberately ignores the graph tensors.
pub struct DenseLayer {
    w: Matrix,
    b: Matrix,
}

impl DenseLayer {
    /// Xavier-initialized dense layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        DenseLayer { w: Matrix::xavier_uniform(in_dim, out_dim, rng), b: Matrix::zeros(1, out_dim) }
    }
}

impl GnnLayer for DenseLayer {
    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.b]
    }
    fn forward(&self, t: &Tape, _gt: &GraphTensors, bound: &[Var], h: Var, rows: Option<&[usize]>) -> Var {
        t.affine(own_rows(t, h, rows), bound[0], bound[1], true)
    }
    fn infer_rows(&self, _gt: &GraphTensors, scratch: &mut InferScratch, h: &Matrix, rows: Option<&[usize]>) -> Matrix {
        let math = scratch.math();
        let h_rows = scratch.rows_of(h, rows);
        let mut out = scratch.take(h_rows.rows(), self.w.cols());
        math.matmul_into(&h_rows, &self.w, &mut out);
        scratch.put_rows(h_rows);
        out.add_bias_row_assign(&self.b);
        out.relu_in_place();
        out
    }
    fn out_dim(&self) -> usize {
        self.w.cols()
    }
    fn kind(&self) -> GnnKind {
        GnnKind::Dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rlqvo_graph::GraphBuilder;
    use rlqvo_tensor::InferMath;

    fn path4_tensors() -> GraphTensors {
        let mut b = GraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        GraphTensors::of(&b.build())
    }

    const ALL_KINDS: [GnnKind; 6] =
        [GnnKind::Gcn, GnnKind::Gat, GnnKind::GraphSage, GnnKind::GraphConv, GnnKind::LeConv, GnnKind::Dense];

    #[test]
    fn every_kind_produces_right_shape() {
        let gt = path4_tensors();
        let mut rng = StdRng::seed_from_u64(1);
        for kind in ALL_KINDS {
            let layer = build_layer(kind, 7, 16, &mut rng);
            let t = Tape::new();
            let h = t.leaf(Matrix::ones(4, 7));
            let bound = layer.bind(&t);
            let out = layer.forward(&t, &gt, &bound, h, None);
            assert_eq!(out.shape(), (4, 16), "{}", kind.name());
            assert_eq!(layer.out_dim(), 16);
            assert_eq!(layer.kind(), kind);
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let gt = path4_tensors();
        let mut rng = StdRng::seed_from_u64(2);
        for kind in ALL_KINDS {
            let layer = build_layer(kind, 5, 8, &mut rng);
            let t = Tape::new();
            // Non-constant input so ReLU passes some signal.
            let h = t.leaf(Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f32 * 0.13).sin()));
            let bound = layer.bind(&t);
            let out = layer.forward(&t, &gt, &bound, h, None);
            let loss = t.sum(t.mul(out, out));
            let grads = t.backward(loss);
            for (i, v) in bound.iter().enumerate() {
                let g = grads.get(*v);
                assert!(g.is_some(), "{}: param {i} received no gradient", kind.name());
            }
        }
    }

    #[test]
    fn dense_layer_ignores_structure() {
        // Same features, different graphs -> identical output.
        let mut rng = StdRng::seed_from_u64(3);
        let layer = DenseLayer::new(3, 4, &mut rng);
        let gt_a = path4_tensors();
        let mut b = GraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(0);
        }
        b.add_edge(0, 3);
        let gt_b = GraphTensors::of(&b.build());

        let h_val = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
        let run = |gt: &GraphTensors| {
            let t = Tape::new();
            let h = t.leaf(h_val.clone());
            let bound = layer.bind(&t);
            t.value(layer.forward(&t, gt, &bound, h, None))
        };
        assert_eq!(run(&gt_a), run(&gt_b));
    }

    #[test]
    fn gcn_propagates_neighbor_information() {
        // A one-hot feature on vertex 0 must reach vertex 1 (its neighbour)
        // but not vertex 3 (two hops away) after one GCN layer.
        let gt = path4_tensors();
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = GcnLayer::new(1, 1, &mut rng);
        layer.w = Matrix::full(1, 1, 1.0); // identity-ish weight
        let t = Tape::new();
        let h = t.leaf(Matrix::from_rows(&[&[1.0], &[0.0], &[0.0], &[0.0]]));
        let bound = layer.bind(&t);
        let out = t.value(layer.forward(&t, &gt, &bound, h, None));
        assert!(out.get(0, 0) > 0.0);
        assert!(out.get(1, 0) > 0.0, "neighbour receives the message");
        assert_eq!(out.get(3, 0), 0.0, "two-hop vertex does not (1 layer)");
    }

    #[test]
    fn gat_attention_rows_normalize() {
        // Indirect check: forward must not NaN and stays finite.
        let gt = path4_tensors();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GatLayer::new(3, 6, &mut rng);
        let t = Tape::new();
        let h = t.leaf(Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.7));
        let bound = layer.bind(&t);
        let out = t.value(layer.forward(&t, &gt, &bound, h, None));
        assert!(out.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn infer_is_bitwise_identical_to_tape_forward_for_every_kind() {
        let gt = path4_tensors();
        let mut rng = StdRng::seed_from_u64(6);
        let h_val = Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f32 * 0.31).sin());
        for kind in ALL_KINDS {
            let layer = build_layer(kind, 5, 8, &mut rng);
            let t = Tape::new();
            let h = t.leaf(h_val.clone());
            let bound = layer.bind(&t);
            let tape_out = t.value(layer.forward(&t, &gt, &bound, h, None));
            let mut scratch = InferScratch::new();
            let infer_out = layer.infer(&gt, &mut scratch, &h_val);
            assert_eq!(tape_out, infer_out, "{}: tape vs tape-free forward diverge", kind.name());
            // A second pass through the warmed scratch must agree too
            // (recycled buffers carry no state).
            let again = layer.infer(&gt, &mut scratch, &h_val);
            assert_eq!(infer_out, again, "{}: warmed scratch changed the result", kind.name());
        }
    }

    #[test]
    fn infer_rows_are_the_full_forwards_rows_for_every_kind() {
        let gt = path4_tensors();
        let mut rng = StdRng::seed_from_u64(7);
        let h = Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f32 * 0.31).sin());
        for kind in ALL_KINDS {
            let layer = build_layer(kind, 5, 8, &mut rng);
            for math in [InferMath::Bitwise, InferMath::Fast] {
                let mut scratch = InferScratch::with_math(math);
                let full = layer.infer(&gt, &mut scratch, &h);
                for rows in [&[0usize, 1, 2, 3][..], &[3, 1], &[2]] {
                    let some = layer.infer_rows(&gt, &mut scratch, &h, Some(rows));
                    assert_eq!(some.shape(), (rows.len(), 8), "{}", kind.name());
                    for (r, &v) in rows.iter().enumerate() {
                        assert_eq!(some.row(r), full.row(v), "{} {math:?}: row {v}", kind.name());
                    }
                    scratch.put(some);
                }
            }
        }
    }

    /// The tape forward on a row subset against the every-row forward
    /// whose output is then cut to the same rows: equal values, and equal
    /// gradients for every parameter and the input, bit for bit.
    #[test]
    fn tape_rows_are_the_full_forwards_rows_with_the_same_gradients_for_every_kind() {
        let gt = path4_tensors();
        let mut rng = StdRng::seed_from_u64(8);
        let h_val = Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f32 * 0.31).sin());
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in ALL_KINDS {
            let layer = build_layer(kind, 5, 8, &mut rng);
            for rows in [&[0usize, 1, 2, 3][..], &[1, 3], &[2]] {
                let run = |restricted: bool| {
                    let t = Tape::new();
                    let h = t.leaf(h_val.clone());
                    let bound = layer.bind(&t);
                    let out = if restricted {
                        layer.forward(&t, &gt, &bound, h, Some(rows))
                    } else {
                        t.gather_rows(layer.forward(&t, &gt, &bound, h, None), rows)
                    };
                    let value = t.value(out);
                    let grads = t.backward(t.sum(t.tanh(out)));
                    let g: Vec<Vec<u32>> = bound.iter().chain([&h]).map(|v| bits(grads.get(*v).unwrap())).collect();
                    (bits(&value), g)
                };
                let (full, some) = (run(false), run(true));
                assert_eq!(full.0, some.0, "{} rows {rows:?}: values", kind.name());
                assert_eq!(full.1, some.1, "{} rows {rows:?}: gradients", kind.name());
            }
        }
    }

    #[test]
    fn kind_names_match_ablation_labels() {
        assert_eq!(GnnKind::Gcn.name(), "GCN");
        assert_eq!(GnnKind::GraphConv.name(), "GraphNN");
        assert_eq!(GnnKind::LeConv.name(), "ASAP");
        assert_eq!(GnnKind::Dense.name(), "NN");
    }
}
