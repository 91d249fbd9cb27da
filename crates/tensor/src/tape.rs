//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every operation as a node holding its value and a
//! backward closure. [`Tape::backward`] walks the tape in reverse, seeding
//! the (scalar) root with gradient 1 and accumulating parent gradients.
//!
//! Design notes:
//! * Backward closures capture clones of the parent values they need.
//!   Policy-network matrices are ≤ `32×256`, so the copies are cheap and
//!   buy a borrow-checker-free backward pass.
//! * A tape is built per forward pass and dropped afterwards — the pattern
//!   PyTorch calls define-by-run.
//! * Every op's gradient is validated against finite differences in
//!   `tests/gradcheck.rs`.

use std::cell::RefCell;
use std::sync::Arc;

use crate::matrix::Matrix;

/// Handle to a tape node; carries its shape for early shape errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    idx: usize,
    rows: usize,
    cols: usize,
}

impl Var {
    /// Shape of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

type BackFn = Box<dyn Fn(&Matrix, &mut GradStore)>;

/// Node values are `Arc`-shared: ops hand the same immutable value to the
/// node, to sibling ops, and to their backward closures without copying —
/// and [`Tape::leaf_arc`] lets callers bind an existing shared matrix
/// (e.g. a stored feature matrix replayed across PPO passes) as a leaf
/// with zero copies.
struct Node {
    value: Arc<Matrix>,
    backward: Option<BackFn>,
}

/// Gradients keyed by tape index, produced by [`Tape::backward`].
pub struct GradStore {
    grads: Vec<Option<Matrix>>,
}

impl GradStore {
    /// Gradient of the root with respect to `v`, if any path reached it.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.idx).and_then(|g| g.as_ref())
    }

    /// Accumulates `g` into the slot for node `idx`.
    fn accumulate(&mut self, idx: usize, g: Matrix) {
        match &mut self.grads[idx] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

/// The autograd tape. Interior mutability lets ops take `&self`, so
/// forward code reads like ordinary expressions.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape { nodes: RefCell::new(Vec::new()) }
    }

    /// Number of recorded nodes (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records an input (parameter or constant). Leaves have no backward
    /// closure; their gradients are whatever downstream ops accumulate.
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push(value, None)
    }

    /// Records a leaf by reference: the node shares `value` instead of
    /// copying it. This is how training binds stored per-step feature
    /// matrices without paying one clone per step per PPO pass.
    pub fn leaf_arc(&self, value: Arc<Matrix>) -> Var {
        self.push_arc(value, None)
    }

    /// Clone of a node's current value.
    pub fn value(&self, v: Var) -> Matrix {
        (*self.nodes.borrow()[v.idx].value).clone()
    }

    fn push(&self, value: Matrix, backward: Option<BackFn>) -> Var {
        self.push_arc(Arc::new(value), backward)
    }

    fn push_arc(&self, value: Arc<Matrix>, backward: Option<BackFn>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let idx = nodes.len();
        let (rows, cols) = value.shape();
        nodes.push(Node { value, backward });
        Var { idx, rows, cols }
    }

    /// Shared handle to a node's value (cheap; backward closures capture
    /// these instead of deep copies).
    fn val(&self, v: Var) -> Arc<Matrix> {
        Arc::clone(&self.nodes.borrow()[v.idx].value)
    }

    // ---------------------------------------------------------------- ops

    /// `a @ b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.val(a), self.val(b));
        let out = av.matmul(&bv);
        let (ai, bi) = (a.idx, b.idx);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.matmul(&bv.transpose()));
                store.accumulate(bi, av.transpose().matmul(g));
            })),
        )
    }

    /// `a + b` (same shape).
    pub fn add(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).add(&self.val(b));
        let (ai, bi) = (a.idx, b.idx);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.clone());
                store.accumulate(bi, g.clone());
            })),
        )
    }

    /// `a - b` (same shape).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).sub(&self.val(b));
        let (ai, bi) = (a.idx, b.idx);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.clone());
                store.accumulate(bi, g.scale(-1.0));
            })),
        )
    }

    /// Element-wise `a * b` (same shape).
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.val(a), self.val(b));
        let out = av.hadamard(&bv);
        let (ai, bi) = (a.idx, b.idx);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.hadamard(&bv));
                store.accumulate(bi, g.hadamard(&av));
            })),
        )
    }

    /// `a + bias`, broadcasting a `1×c` bias row over every row of `a`.
    pub fn add_bias_row(&self, a: Var, bias: Var) -> Var {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(a.cols, bias.cols, "bias width mismatch");
        let (av, bv) = (self.val(a), self.val(bias));
        let out = Matrix::from_fn(a.rows, a.cols, |r, c| av.get(r, c) + bv.get(0, c));
        let (ai, bi) = (a.idx, bias.idx);
        let cols = a.cols;
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.clone());
                // Bias gradient: column sums of g.
                let mut bg = Matrix::zeros(1, cols);
                for r in 0..g.rows() {
                    for c in 0..cols {
                        bg.set(0, c, bg.get(0, c) + g.get(r, c));
                    }
                }
                store.accumulate(bi, bg);
            })),
        )
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        let out = self.val(a).scale(s);
        let ai = a.idx;
        self.push(out, Some(Box::new(move |g, store| store.accumulate(ai, g.scale(s)))))
    }

    /// ReLU.
    pub fn relu(&self, a: Var) -> Var {
        let av = self.val(a);
        let out = av.map(|x| x.max(0.0));
        let ai = a.idx;
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.zip_map(&av, |gi, x| if x > 0.0 { gi } else { 0.0 }));
            })),
        )
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, a: Var, alpha: f32) -> Var {
        let av = self.val(a);
        let out = av.map(|x| if x > 0.0 { x } else { alpha * x });
        let ai = a.idx;
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.zip_map(&av, |gi, x| if x > 0.0 { gi } else { alpha * gi }));
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let out = Arc::new(self.val(a).map(f32::tanh));
        let ai = a.idx;
        let saved = Arc::clone(&out);
        self.push_arc(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.zip_map(&saved, |gi, y| gi * (1.0 - y * y)));
            })),
        )
    }

    /// Element-wise `exp`.
    pub fn exp(&self, a: Var) -> Var {
        let out = Arc::new(self.val(a).map(f32::exp));
        let ai = a.idx;
        let saved = Arc::clone(&out);
        self.push_arc(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.hadamard(&saved));
            })),
        )
    }

    /// Element-wise natural log, clamped below at `eps = 1e-8` so entropy
    /// terms never produce NaNs on zero probabilities.
    pub fn ln(&self, a: Var) -> Var {
        const EPS: f32 = 1e-8;
        let av = self.val(a);
        let out = av.map(|x| x.max(EPS).ln());
        let ai = a.idx;
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.zip_map(&av, |gi, x| gi / x.max(EPS)));
            })),
        )
    }

    /// Sum of all elements, a `1×1` result.
    pub fn sum(&self, a: Var) -> Var {
        let av = self.val(a);
        let out = Matrix::full(1, 1, av.sum());
        let (ai, rows, cols) = (a.idx, a.rows, a.cols);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, Matrix::full(rows, cols, g.scalar()));
            })),
        )
    }

    /// Extracts element `(r, c)` as a `1×1` node (action log-prob lookup).
    pub fn pick(&self, a: Var, r: usize, c: usize) -> Var {
        let av = self.val(a);
        let out = Matrix::full(1, 1, av.get(r, c));
        let (ai, rows, cols) = (a.idx, a.rows, a.cols);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                let mut m = Matrix::zeros(rows, cols);
                m.set(r, c, g.scalar());
                store.accumulate(ai, m);
            })),
        )
    }

    /// Masked softmax over a column vector: entries where `mask` is false
    /// get probability exactly 0 and receive no gradient. This is the
    /// paper's Equation 4 `Softmax(mask_{u' ∈ AS(t)}(...))`.
    pub fn masked_softmax_col(&self, a: Var, mask: &[bool]) -> Var {
        assert_eq!(a.cols, 1, "masked_softmax_col expects an n×1 score vector");
        assert_eq!(a.rows, mask.len(), "mask length mismatch");
        let av = self.val(a);
        let max = av.data().iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x).fold(f32::NEG_INFINITY, f32::max);
        assert!(max.is_finite(), "mask must keep at least one entry");
        let mut probs = Matrix::zeros(a.rows, 1);
        let mut denom = 0.0;
        for (i, &m) in mask.iter().enumerate() {
            if m {
                let e = (av.get(i, 0) - max).exp();
                probs.set(i, 0, e);
                denom += e;
            }
        }
        for i in 0..a.rows {
            probs.set(i, 0, probs.get(i, 0) / denom);
        }
        let probs = Arc::new(probs);
        let saved = Arc::clone(&probs);
        let ai = a.idx;
        let mask_owned: Vec<bool> = mask.to_vec();
        self.push_arc(
            probs,
            Some(Box::new(move |g, store| {
                // Softmax Jacobian: dx_i = p_i (g_i - Σ_j g_j p_j).
                let dot: f32 = (0..saved.rows()).map(|j| g.get(j, 0) * saved.get(j, 0)).sum();
                let mut out = Matrix::zeros(saved.rows(), 1);
                for (i, &keep) in mask_owned.iter().enumerate().take(saved.rows()) {
                    if keep {
                        out.set(i, 0, saved.get(i, 0) * (g.get(i, 0) - dot));
                    }
                }
                store.accumulate(ai, out);
            })),
        )
    }

    /// Row-wise masked softmax over an `n×n` score matrix; `mask[i][j]`
    /// false ⇒ probability 0. Rows whose mask is all-false become all-zero
    /// rows (isolated vertices in GAT attention).
    pub fn masked_softmax_rows(&self, a: Var, mask: &Matrix) -> Var {
        assert_eq!((a.rows, a.cols), mask.shape(), "mask shape mismatch");
        let av = self.val(a);
        let mut probs = Matrix::zeros(a.rows, a.cols);
        for r in 0..a.rows {
            let row_mask: Vec<bool> = (0..a.cols).map(|c| mask.get(r, c) != 0.0).collect();
            if !row_mask.iter().any(|&m| m) {
                continue;
            }
            let max = (0..a.cols).filter(|&c| row_mask[c]).map(|c| av.get(r, c)).fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (c, &keep) in row_mask.iter().enumerate().take(a.cols) {
                if keep {
                    let e = (av.get(r, c) - max).exp();
                    probs.set(r, c, e);
                    denom += e;
                }
            }
            for c in 0..a.cols {
                probs.set(r, c, probs.get(r, c) / denom);
            }
        }
        let probs = Arc::new(probs);
        let saved = Arc::clone(&probs);
        let ai = a.idx;
        let mask_owned = mask.clone();
        self.push_arc(
            probs,
            Some(Box::new(move |g, store| {
                let mut out = Matrix::zeros(saved.rows(), saved.cols());
                for r in 0..saved.rows() {
                    let dot: f32 = (0..saved.cols()).map(|c| g.get(r, c) * saved.get(r, c)).sum();
                    for c in 0..saved.cols() {
                        if mask_owned.get(r, c) != 0.0 {
                            out.set(r, c, saved.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                }
                store.accumulate(ai, out);
            })),
        )
    }

    /// Outer broadcast sum: given column vectors `a` (n×1) and `b` (n×1),
    /// produces `M[i][j] = a_i + b_j` (GAT attention scores).
    pub fn broadcast_add_col_row(&self, a: Var, b: Var) -> Var {
        assert_eq!(a.cols, 1, "a must be n×1");
        assert_eq!(b.cols, 1, "b must be n×1");
        let (av, bv) = (self.val(a), self.val(b));
        let n = a.rows;
        let m = b.rows;
        let out = Matrix::from_fn(n, m, |i, j| av.get(i, 0) + bv.get(j, 0));
        let (ai, bi) = (a.idx, b.idx);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                let mut ga = Matrix::zeros(n, 1);
                let mut gb = Matrix::zeros(m, 1);
                for i in 0..n {
                    for j in 0..m {
                        ga.set(i, 0, ga.get(i, 0) + g.get(i, j));
                        gb.set(j, 0, gb.get(j, 0) + g.get(i, j));
                    }
                }
                store.accumulate(ai, ga);
                store.accumulate(bi, gb);
            })),
        )
    }

    /// Scales row `i` of `a` by `c_i` (column vector `c`, n×1) — the
    /// `D·X` term of LEConv.
    pub fn mul_col_broadcast(&self, a: Var, c: Var) -> Var {
        assert_eq!(c.cols, 1, "c must be n×1");
        assert_eq!(a.rows, c.rows, "row count mismatch");
        let (av, cv) = (self.val(a), self.val(c));
        let out = Matrix::from_fn(a.rows, a.cols, |r, col| av.get(r, col) * cv.get(r, 0));
        let (ai, ci) = (a.idx, c.idx);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                let ga = Matrix::from_fn(av.rows(), av.cols(), |r, col| g.get(r, col) * cv.get(r, 0));
                let mut gc = Matrix::zeros(cv.rows(), 1);
                for r in 0..av.rows() {
                    let mut acc = 0.0;
                    for col in 0..av.cols() {
                        acc += g.get(r, col) * av.get(r, col);
                    }
                    gc.set(r, 0, acc);
                }
                store.accumulate(ai, ga);
                store.accumulate(ci, gc);
            })),
        )
    }

    /// Element-wise product with a constant mask (dropout; no gradient to
    /// the mask).
    pub fn mul_const(&self, a: Var, mask: &Matrix) -> Var {
        assert_eq!((a.rows, a.cols), mask.shape(), "mask shape mismatch");
        let out = self.val(a).hadamard(mask);
        let ai = a.idx;
        let mask_owned = mask.clone();
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.hadamard(&mask_owned));
            })),
        )
    }

    /// Element-wise minimum of two same-shape nodes; gradient flows to the
    /// smaller operand (ties favour `a`) — PPO's clipped-surrogate `min`.
    pub fn min(&self, a: Var, b: Var) -> Var {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "min shape mismatch");
        let (av, bv) = (self.val(a), self.val(b));
        let out = av.zip_map(&bv, f32::min);
        let (ai, bi) = (a.idx, b.idx);
        self.push(
            out,
            Some(Box::new(move |g, store| {
                let ga =
                    Matrix::from_fn(
                        av.rows(),
                        av.cols(),
                        |r, c| {
                            if av.get(r, c) <= bv.get(r, c) {
                                g.get(r, c)
                            } else {
                                0.0
                            }
                        },
                    );
                let gb =
                    Matrix::from_fn(
                        av.rows(),
                        av.cols(),
                        |r, c| {
                            if av.get(r, c) <= bv.get(r, c) {
                                0.0
                            } else {
                                g.get(r, c)
                            }
                        },
                    );
                store.accumulate(ai, ga);
                store.accumulate(bi, gb);
            })),
        )
    }

    /// Clamp to `[lo, hi]`; gradient is zero outside the bounds — PPO's
    /// `clip(ratio, 1−ε, 1+ε)`.
    pub fn clip(&self, a: Var, lo: f32, hi: f32) -> Var {
        let av = self.val(a);
        let out = av.map(|x| x.clamp(lo, hi));
        let ai = a.idx;
        self.push(
            out,
            Some(Box::new(move |g, store| {
                store.accumulate(ai, g.zip_map(&av, |gi, x| if x > lo && x < hi { gi } else { 0.0 }));
            })),
        )
    }

    // ----------------------------------------------------------- backward

    /// Runs reverse-mode differentiation from the scalar `root`.
    ///
    /// # Panics
    /// If `root` is not `1×1`.
    pub fn backward(&self, root: Var) -> GradStore {
        assert_eq!((root.rows, root.cols), (1, 1), "backward root must be scalar");
        let nodes = self.nodes.borrow();
        let mut store = GradStore { grads: vec![None; nodes.len()] };
        store.grads[root.idx] = Some(Matrix::ones(1, 1));
        for idx in (0..=root.idx).rev() {
            let Some(grad) = store.grads[idx].clone() else { continue };
            if let Some(back) = &nodes[idx].backward {
                back(&grad, &mut store);
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_are_correct() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0], &[4.0]]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c).scalar(), 11.0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn simple_chain_gradients() {
        // loss = sum((x * 2)^2) = 4 x^2 -> dloss/dx = 8x.
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, -3.0]]));
        let y = t.scale(x, 2.0);
        let sq = t.mul(y, y);
        let loss = t.sum(sq);
        let grads = t.backward(loss);
        let gx = grads.get(x).unwrap();
        assert_eq!(gx, &Matrix::from_rows(&[&[8.0, -24.0]]));
    }

    #[test]
    fn matmul_gradients_match_formula() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = t.matmul(a, b);
        let loss = t.sum(c);
        let grads = t.backward(loss);
        // dA = 1 @ B^T, dB = A^T @ 1.
        let ones = Matrix::ones(2, 2);
        assert_eq!(grads.get(a).unwrap(), &ones.matmul(&t.value(b).transpose()));
        assert_eq!(grads.get(b).unwrap(), &t.value(a).transpose().matmul(&ones));
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[2.0, -2.0]]));
        let y = t.relu(x);
        let loss = t.sum(y);
        let grads = t.backward(loss);
        assert_eq!(grads.get(x).unwrap(), &Matrix::from_rows(&[&[1.0, 0.0]]));
    }

    #[test]
    fn masked_softmax_is_a_distribution() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[5.0]]));
        let p = t.masked_softmax_col(x, &[true, true, false]);
        let pv = t.value(p);
        assert_eq!(pv.get(2, 0), 0.0, "masked entry must be exactly zero");
        assert!((pv.sum() - 1.0).abs() < 1e-6);
        assert!(pv.get(1, 0) > pv.get(0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_mask_panics() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
        t.masked_softmax_col(x, &[false, false]);
    }

    #[test]
    fn pick_routes_gradient_to_one_element() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let y = t.pick(x, 1, 0);
        let grads = t.backward(y);
        assert_eq!(grads.get(x).unwrap(), &Matrix::from_rows(&[&[0.0], &[1.0], &[0.0]]));
    }

    #[test]
    fn min_routes_gradient_to_smaller() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 5.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[2.0, 3.0]]));
        let m = t.min(a, b);
        let loss = t.sum(m);
        let grads = t.backward(loss);
        assert_eq!(grads.get(a).unwrap(), &Matrix::from_rows(&[&[1.0, 0.0]]));
        assert_eq!(grads.get(b).unwrap(), &Matrix::from_rows(&[&[0.0, 1.0]]));
    }

    #[test]
    fn clip_zeroes_gradient_outside_bounds() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.5, 2.0, -1.0]]));
        let y = t.clip(x, 0.0, 1.0);
        let loss = t.sum(y);
        let grads = t.backward(loss);
        assert_eq!(grads.get(x).unwrap(), &Matrix::from_rows(&[&[1.0, 0.0, 0.0]]));
        assert_eq!(t.value(y), Matrix::from_rows(&[&[0.5, 1.0, 0.0]]));
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // loss = sum(x + x) -> grad 2 everywhere.
        let t = Tape::new();
        let x = t.leaf(Matrix::ones(2, 2));
        let y = t.add(x, x);
        let loss = t.sum(y);
        let grads = t.backward(loss);
        assert_eq!(grads.get(x).unwrap(), &Matrix::full(2, 2, 2.0));
    }

    #[test]
    fn unreached_leaf_has_no_gradient() {
        let t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 1));
        let unused = t.leaf(Matrix::ones(1, 1));
        let loss = t.sum(x);
        let grads = t.backward(loss);
        assert!(grads.get(unused).is_none());
        assert!(grads.get(x).is_some());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar_root() {
        let t = Tape::new();
        let x = t.leaf(Matrix::ones(2, 2));
        t.backward(x);
    }
}
