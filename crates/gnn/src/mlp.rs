//! The scoring head of the policy network (paper Eq. 4):
//! `score_u = W₂ · σ(W₁ h_u)` — two linear layers producing one real
//! number per query vertex. The mask + softmax live in `rlqvo-core`, next
//! to the action-space logic.

use rand::Rng;
use rlqvo_tensor::{InferScratch, Matrix, Tape, Var};

/// Two-layer perceptron head mapping `n×d` node embeddings to `n×1` scores.
pub struct MlpHead {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
}

impl MlpHead {
    /// Head with hidden width `hidden` on `in_dim`-dimensional embeddings.
    pub fn new<R: Rng>(in_dim: usize, hidden: usize, rng: &mut R) -> Self {
        MlpHead {
            w1: Matrix::xavier_uniform(in_dim, hidden, rng),
            b1: Matrix::zeros(1, hidden),
            w2: Matrix::xavier_uniform(hidden, 1, rng),
            b2: Matrix::zeros(1, 1),
        }
    }

    /// Parameter matrices (stable order).
    pub fn params(&self) -> Vec<&Matrix> {
        vec![&self.w1, &self.b1, &self.w2, &self.b2]
    }

    /// Mutable parameters, same order.
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]
    }

    /// Tape leaves for all parameters, in [`Self::params`] order.
    pub fn bind(&self, t: &Tape) -> Vec<Var> {
        self.params().into_iter().map(|p| t.leaf(p.clone())).collect()
    }

    /// `scores = (σ(H W₁ + b₁)) W₂ + b₂`, shape `n×1`: two fused
    /// [`Tape::affine`] nodes. Both layers are row-independent, so on the
    /// action-space rows of `GnnLayer::forward` each score, and each
    /// parameter gradient of a loss that reads only those scores, is bit
    /// for bit the every-row forward's.
    pub fn forward(&self, t: &Tape, bound: &[Var], h: Var) -> Var {
        let hidden = t.affine(h, bound[0], bound[1], true);
        t.affine(hidden, bound[2], bound[3], false)
    }

    /// Tape-free inference forward, bitwise identical to
    /// [`MlpHead::forward`] under the default `InferMath::Bitwise`
    /// contract (shared kernels; `scratch.math()` selects the opt-in
    /// fast-math kernels). Returns an `n×1` score buffer owned by the
    /// scratch pool.
    ///
    /// Both layers are row-independent: on a row subset of the embeddings
    /// (the action-space rows of `GnnLayer::infer_rows`) each score is bit
    /// for bit the full forward's score of that vertex.
    pub fn infer(&self, scratch: &mut InferScratch, h: &Matrix) -> Matrix {
        let math = scratch.math();
        let mut hidden = scratch.take(h.rows(), self.w1.cols());
        math.matmul_into(h, &self.w1, &mut hidden);
        hidden.add_bias_row_assign(&self.b1);
        hidden.relu_in_place();
        let mut scores = scratch.take(h.rows(), 1);
        math.matmul_into(&hidden, &self.w2, &mut scores);
        scratch.put(hidden);
        scores.add_bias_row_assign(&self.b2);
        scores
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.w1.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_one_score_per_vertex() {
        let mut rng = StdRng::seed_from_u64(1);
        let head = MlpHead::new(16, 32, &mut rng);
        let t = Tape::new();
        let h = t.leaf(Matrix::ones(5, 16));
        let bound = head.bind(&t);
        let scores = head.forward(&t, &bound, h);
        assert_eq!(scores.shape(), (5, 1));
        assert_eq!(head.hidden_dim(), 32);
    }

    #[test]
    fn gradients_reach_all_four_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        let head = MlpHead::new(4, 8, &mut rng);
        let t = Tape::new();
        let h = t.leaf(Matrix::from_fn(3, 4, |r, c| (r as f32 + 1.0) * (c as f32 - 1.5)));
        let bound = head.bind(&t);
        let scores = head.forward(&t, &bound, h);
        let loss = t.sum(t.mul(scores, scores));
        let grads = t.backward(loss);
        for (i, v) in bound.iter().enumerate() {
            assert!(grads.get(*v).is_some(), "param {i} missing gradient");
        }
    }

    #[test]
    fn infer_matches_tape_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(4);
        let head = MlpHead::new(6, 12, &mut rng);
        let h_val = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f32 * 0.23).cos());
        let t = Tape::new();
        let h = t.leaf(h_val.clone());
        let bound = head.bind(&t);
        let tape_scores = t.value(head.forward(&t, &bound, h));
        let mut scratch = InferScratch::new();
        let scores = head.infer(&mut scratch, &h_val);
        assert_eq!(tape_scores, scores);
    }

    #[test]
    fn different_inputs_different_scores() {
        let mut rng = StdRng::seed_from_u64(3);
        let head = MlpHead::new(2, 4, &mut rng);
        let t = Tape::new();
        let h = t.leaf(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let bound = head.bind(&t);
        let scores = t.value(head.forward(&t, &bound, h));
        assert_ne!(scores.get(0, 0), scores.get(1, 0));
    }
}
