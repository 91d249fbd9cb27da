//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every operation as a node holding its value and a
//! backward closure. [`Tape::backward`] walks the tape in reverse, seeding
//! the (scalar) root with gradient 1 and accumulating parent gradients.
//!
//! Design notes:
//! * Node values are `Arc`-shared. Backward closures capture `Arc` handles
//!   to the parent values they need (a reference count, not a copy), which
//!   buys a borrow-checker-free backward pass.
//! * Inputs are either *leaves* ([`Tape::leaf`], the parameters) or
//!   *constants* ([`Tape::constant`]: adjacency, features, recorded
//!   log-probs). An op whose inputs are all constants records a constant
//!   with no backward closure; an op with some constant inputs computes
//!   and accumulates gradients for the other inputs only. No gradient is
//!   ever computed for a value nobody reads.
//! * `matmul`'s backward transposes each operand at most once per
//!   backward pass, when a gradient first needs it, and drops the
//!   transpose once the walk passes the operand (every consumer of a node
//!   lies after it on the tape).
//! * Gradients live only as long as they are needed: the walk moves each
//!   interior node's gradient out of its slot, runs the node's closure and
//!   drops it. The returned [`GradStore`] holds leaf gradients only.
//! * [`Tape::affine`] records `a·W + b (→ ReLU)` as one node where the
//!   `matmul → add_bias_row → relu` chain records three, and keeps only
//!   the output; its backward is the chain's, kernel for kernel.
//! * [`Tape::gather_rows`] lets a forward compute only the rows its loss
//!   reads: a row slice of a node, whose backward scatters into zero rows.
//!   Off-slice rows then carry `+0` gradients, which the bitwise matmul's
//!   zero-skip and the ascending-row sums turn into no-op adds, so the
//!   leaves' gradients are bit for bit those of the every-row forward as
//!   long as each gather is recorded right before its one consumer (the
//!   gradient slot of the sliced node then receives its terms in the same
//!   order).
//! * A tape is built per forward pass and dropped afterwards — the pattern
//!   PyTorch calls define-by-run. A loss that is a sum of many terms (the
//!   PPO update's steps) need not sit on one tape: it is cut into windows,
//!   one tape per window, walked last window first, each walk seeding its
//!   leaves from the gradients the later windows left
//!   ([`Tape::backward_into`]). Only one window's values are alive at a
//!   time, and the leaf gradients are bit for bit the one tape's.
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

type BackFn = Box<dyn Fn(&Matrix, &mut Backward<'_>)>;

/// Node values are `Arc`-shared: ops hand the same immutable value to the
/// node, to sibling ops, and to their backward closures without copying —
/// and [`Tape::constant_arc`] lets callers bind an existing shared matrix
/// (e.g. a stored feature matrix replayed across PPO passes) with zero
/// copies.
struct Node {
    value: Arc<Matrix>,
    /// `None` for leaves, constants and ops on constants only.
    backward: Option<BackFn>,
    /// True for leaves and for ops with at least one such input.
    needs_grad: bool,
}

/// Gradients keyed by tape index, produced by [`Tape::backward`].
pub struct GradStore {
    grads: Vec<Option<Matrix>>,
}

impl GradStore {
    /// Gradient of the root with respect to the leaf `v`, if any path
    /// reached it. Answers for leaves only: constants get no gradient, and
    /// an interior node's gradient is dropped once the backward walk has
    /// propagated it, so both are `None`.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.idx).and_then(|g| g.as_ref())
    }
}

/// What a backward closure works on: the recorded nodes, the gradient
/// slots, and the transposes built so far.
struct Backward<'a> {
    nodes: &'a [Node],
    grads: Vec<Option<Matrix>>,
    transposes: Vec<Option<Matrix>>,
}

impl Backward<'_> {
    /// Whether node `idx` takes a gradient at all.
    fn needs(&self, idx: usize) -> bool {
        self.nodes[idx].needs_grad
    }

    /// Accumulates `g` into the slot for node `idx`.
    fn accumulate(&mut self, idx: usize, g: Matrix) {
        debug_assert!(self.needs(idx), "gradient for a constant");
        match &mut self.grads[idx] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Node `idx`'s value transposed, built on first use.
    fn transposed(&mut self, idx: usize) -> &Matrix {
        let nodes = self.nodes;
        self.transposes[idx].get_or_insert_with(|| nodes[idx].value.transpose())
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

    /// Records a differentiable input (a parameter). Leaves have no
    /// backward closure; their gradients are whatever downstream ops
    /// accumulate.
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push(Arc::new(value), None, true)
    }

    /// Records an input that takes no gradient (adjacency, features, a
    /// recorded log-prob). Ops on constants only are constants too.
    pub fn constant(&self, value: Matrix) -> Var {
        self.constant_arc(Arc::new(value))
    }

    /// Records a constant by reference: the node shares `value` instead of
    /// copying it. This is how training binds stored per-step feature
    /// matrices without paying one clone per step per PPO pass.
    pub fn constant_arc(&self, value: Arc<Matrix>) -> Var {
        self.push(value, None, false)
    }

    /// Clone of a node's current value.
    pub fn value(&self, v: Var) -> Matrix {
        (*self.nodes.borrow()[v.idx].value).clone()
    }

    fn push(&self, value: Arc<Matrix>, backward: Option<BackFn>, needs_grad: bool) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let idx = nodes.len();
        let (rows, cols) = value.shape();
        nodes.push(Node { value, backward, needs_grad });
        Var { idx, rows, cols }
    }

    /// Records an op's result: with `backward` when some input in `inputs`
    /// takes a gradient, as a constant otherwise.
    fn op(
        &self,
        value: impl Into<Arc<Matrix>>,
        inputs: &[Var],
        backward: impl Fn(&Matrix, &mut Backward<'_>) + 'static,
    ) -> Var {
        let needs_grad = {
            let nodes = self.nodes.borrow();
            inputs.iter().any(|v| nodes[v.idx].needs_grad)
        };
        let backward: Option<BackFn> = if needs_grad { Some(Box::new(backward)) } else { None };
        self.push(value.into(), backward, needs_grad)
    }

    /// Shared handle to a node's value (cheap; backward closures capture
    /// these instead of deep copies).
    fn val(&self, v: Var) -> Arc<Matrix> {
        Arc::clone(&self.nodes.borrow()[v.idx].value)
    }

    // ---------------------------------------------------------------- ops

    /// `a @ b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).matmul(&self.val(b));
        let (ai, bi) = (a.idx, b.idx);
        self.op(out, &[a, b], move |g, cx| {
            if cx.needs(ai) {
                let ga = g.matmul(cx.transposed(bi));
                cx.accumulate(ai, ga);
            }
            if cx.needs(bi) {
                let gb = cx.transposed(ai).matmul(g);
                cx.accumulate(bi, gb);
            }
        })
    }

    /// `a + b` (same shape).
    pub fn add(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).add(&self.val(b));
        let (ai, bi) = (a.idx, b.idx);
        self.op(out, &[a, b], move |g, cx| {
            if cx.needs(ai) {
                cx.accumulate(ai, g.clone());
            }
            if cx.needs(bi) {
                cx.accumulate(bi, g.clone());
            }
        })
    }

    /// `a - b` (same shape).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).sub(&self.val(b));
        let (ai, bi) = (a.idx, b.idx);
        self.op(out, &[a, b], move |g, cx| {
            if cx.needs(ai) {
                cx.accumulate(ai, g.clone());
            }
            if cx.needs(bi) {
                cx.accumulate(bi, g.scale(-1.0));
            }
        })
    }

    /// Element-wise `a * b` (same shape).
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.val(a), self.val(b));
        let out = av.hadamard(&bv);
        let (ai, bi) = (a.idx, b.idx);
        self.op(out, &[a, b], move |g, cx| {
            if cx.needs(ai) {
                cx.accumulate(ai, g.hadamard(&bv));
            }
            if cx.needs(bi) {
                cx.accumulate(bi, g.hadamard(&av));
            }
        })
    }

    /// `a + bias`, broadcasting a `1×c` bias row over every row of `a`.
    pub fn add_bias_row(&self, a: Var, bias: Var) -> Var {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(a.cols, bias.cols, "bias width mismatch");
        let mut out = (*self.val(a)).clone();
        out.add_bias_row_assign(&self.val(bias));
        let (ai, bi) = (a.idx, bias.idx);
        self.op(out, &[a, bias], move |g, cx| {
            if cx.needs(ai) {
                cx.accumulate(ai, g.clone());
            }
            if cx.needs(bi) {
                cx.accumulate(bi, column_sums(g));
            }
        })
    }

    /// `a @ w + bias` (a `1×c` bias row), then ReLU when `relu`: one node
    /// for the `matmul → add_bias_row (→ relu)` chain, without the chain's
    /// two intermediate values. Value and all three gradients are bit for
    /// bit the chain's: the backward runs the same kernels on the same
    /// operands, and reads the ReLU mask off the output (`max(x, 0) > 0`
    /// exactly when `x > 0`).
    pub fn affine(&self, a: Var, w: Var, bias: Var, relu: bool) -> Var {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(w.cols, bias.cols, "bias width mismatch");
        let mut out = self.val(a).matmul(&self.val(w));
        out.add_bias_row_assign(&self.val(bias));
        if relu {
            out.relu_in_place();
        }
        let out = Arc::new(out);
        let saved = relu.then(|| Arc::clone(&out));
        let (ai, wi, bi) = (a.idx, w.idx, bias.idx);
        self.op(out, &[a, w, bias], move |g, cx| {
            let masked = saved.as_ref().map(|y| g.zip_map(y, |gi, y| if y > 0.0 { gi } else { 0.0 }));
            let g = masked.as_ref().unwrap_or(g);
            if cx.needs(bi) {
                cx.accumulate(bi, column_sums(g));
            }
            if cx.needs(ai) {
                let ga = g.matmul(cx.transposed(wi));
                cx.accumulate(ai, ga);
            }
            if cx.needs(wi) {
                let gw = cx.transposed(ai).matmul(g);
                cx.accumulate(wi, gw);
            }
        })
    }

    /// Rows `rows` of `a`, in that order, as a `rows.len() × c` node. The
    /// backward adds each gradient row into row `rows[r]` of a zero
    /// `a`-shaped matrix, so rows nobody selected get `+0`.
    pub fn gather_rows(&self, a: Var, rows: &[usize]) -> Var {
        let av = self.val(a);
        let mut out = Matrix::zeros(rows.len(), a.cols);
        for (r, &src) in rows.iter().enumerate() {
            out.data_mut()[r * a.cols..(r + 1) * a.cols].copy_from_slice(av.row(src));
        }
        let (ai, n, cols) = (a.idx, a.rows, a.cols);
        let rows = rows.to_vec();
        self.op(out, &[a], move |g, cx| {
            let mut ga = Matrix::zeros(n, cols);
            for (r, &dst) in rows.iter().enumerate() {
                for (acc, &x) in ga.data_mut()[dst * cols..(dst + 1) * cols].iter_mut().zip(g.row(r)) {
                    *acc += x;
                }
            }
            cx.accumulate(ai, ga);
        })
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        let out = self.val(a).scale(s);
        let ai = a.idx;
        self.op(out, &[a], move |g, cx| cx.accumulate(ai, g.scale(s)))
    }

    /// ReLU.
    pub fn relu(&self, a: Var) -> Var {
        let av = self.val(a);
        let out = av.map(|x| x.max(0.0));
        let ai = a.idx;
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, g.zip_map(&av, |gi, x| if x > 0.0 { gi } else { 0.0 }));
        })
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, a: Var, alpha: f32) -> Var {
        let av = self.val(a);
        let out = av.map(|x| if x > 0.0 { x } else { alpha * x });
        let ai = a.idx;
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, g.zip_map(&av, |gi, x| if x > 0.0 { gi } else { alpha * gi }));
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let out = Arc::new(self.val(a).map(f32::tanh));
        let ai = a.idx;
        let saved = Arc::clone(&out);
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, g.zip_map(&saved, |gi, y| gi * (1.0 - y * y)));
        })
    }

    /// Element-wise `exp`.
    pub fn exp(&self, a: Var) -> Var {
        let out = Arc::new(self.val(a).map(f32::exp));
        let ai = a.idx;
        let saved = Arc::clone(&out);
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, g.hadamard(&saved));
        })
    }

    /// Element-wise natural log, clamped below at `eps = 1e-8` so entropy
    /// terms never produce NaNs on zero probabilities.
    pub fn ln(&self, a: Var) -> Var {
        const EPS: f32 = 1e-8;
        let av = self.val(a);
        let out = av.map(|x| x.max(EPS).ln());
        let ai = a.idx;
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, g.zip_map(&av, |gi, x| gi / x.max(EPS)));
        })
    }

    /// Sum of all elements, a `1×1` result.
    pub fn sum(&self, a: Var) -> Var {
        let av = self.val(a);
        let out = Matrix::full(1, 1, av.sum());
        let (ai, rows, cols) = (a.idx, a.rows, a.cols);
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, Matrix::full(rows, cols, g.scalar()));
        })
    }

    /// Extracts element `(r, c)` as a `1×1` node (action log-prob lookup).
    pub fn pick(&self, a: Var, r: usize, c: usize) -> Var {
        let av = self.val(a);
        let out = Matrix::full(1, 1, av.get(r, c));
        let (ai, rows, cols) = (a.idx, a.rows, a.cols);
        self.op(out, &[a], move |g, cx| {
            let mut m = Matrix::zeros(rows, cols);
            m.set(r, c, g.scalar());
            cx.accumulate(ai, m);
        })
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
        self.op(probs, &[a], move |g, cx| {
            // Softmax Jacobian: dx_i = p_i (g_i - Σ_j g_j p_j).
            let dot: f32 = (0..saved.rows()).map(|j| g.get(j, 0) * saved.get(j, 0)).sum();
            let mut out = Matrix::zeros(saved.rows(), 1);
            for (i, &keep) in mask_owned.iter().enumerate().take(saved.rows()) {
                if keep {
                    out.set(i, 0, saved.get(i, 0) * (g.get(i, 0) - dot));
                }
            }
            cx.accumulate(ai, out);
        })
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
        self.op(probs, &[a], move |g, cx| {
            let mut out = Matrix::zeros(saved.rows(), saved.cols());
            for r in 0..saved.rows() {
                let dot: f32 = (0..saved.cols()).map(|c| g.get(r, c) * saved.get(r, c)).sum();
                for c in 0..saved.cols() {
                    if mask_owned.get(r, c) != 0.0 {
                        out.set(r, c, saved.get(r, c) * (g.get(r, c) - dot));
                    }
                }
            }
            cx.accumulate(ai, out);
        })
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
        self.op(out, &[a, b], move |g, cx| {
            if cx.needs(ai) {
                let mut ga = Matrix::zeros(n, 1);
                for i in 0..n {
                    for j in 0..m {
                        ga.set(i, 0, ga.get(i, 0) + g.get(i, j));
                    }
                }
                cx.accumulate(ai, ga);
            }
            if cx.needs(bi) {
                let mut gb = Matrix::zeros(m, 1);
                for i in 0..n {
                    for j in 0..m {
                        gb.set(j, 0, gb.get(j, 0) + g.get(i, j));
                    }
                }
                cx.accumulate(bi, gb);
            }
        })
    }

    /// Scales row `i` of `a` by `c_i` (column vector `c`, n×1) — the
    /// `D·X` term of LEConv.
    pub fn mul_col_broadcast(&self, a: Var, c: Var) -> Var {
        assert_eq!(c.cols, 1, "c must be n×1");
        assert_eq!(a.rows, c.rows, "row count mismatch");
        let (av, cv) = (self.val(a), self.val(c));
        let out = Matrix::from_fn(a.rows, a.cols, |r, col| av.get(r, col) * cv.get(r, 0));
        let (ai, ci) = (a.idx, c.idx);
        self.op(out, &[a, c], move |g, cx| {
            if cx.needs(ai) {
                let ga = Matrix::from_fn(av.rows(), av.cols(), |r, col| g.get(r, col) * cv.get(r, 0));
                cx.accumulate(ai, ga);
            }
            if cx.needs(ci) {
                let mut gc = Matrix::zeros(cv.rows(), 1);
                for r in 0..av.rows() {
                    let mut acc = 0.0;
                    for col in 0..av.cols() {
                        acc += g.get(r, col) * av.get(r, col);
                    }
                    gc.set(r, 0, acc);
                }
                cx.accumulate(ci, gc);
            }
        })
    }

    /// Element-wise product with a constant mask (dropout; no gradient to
    /// the mask).
    pub fn mul_const(&self, a: Var, mask: &Matrix) -> Var {
        assert_eq!((a.rows, a.cols), mask.shape(), "mask shape mismatch");
        let out = self.val(a).hadamard(mask);
        let ai = a.idx;
        let mask_owned = mask.clone();
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, g.hadamard(&mask_owned));
        })
    }

    /// Element-wise minimum of two same-shape nodes; gradient flows to the
    /// smaller operand (ties favour `a`) — PPO's clipped-surrogate `min`.
    pub fn min(&self, a: Var, b: Var) -> Var {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "min shape mismatch");
        let (av, bv) = (self.val(a), self.val(b));
        let out = av.zip_map(&bv, f32::min);
        let (ai, bi) = (a.idx, b.idx);
        self.op(out, &[a, b], move |g, cx| {
            let a_wins = |r, c| av.get(r, c) <= bv.get(r, c);
            if cx.needs(ai) {
                let ga = Matrix::from_fn(av.rows(), av.cols(), |r, c| if a_wins(r, c) { g.get(r, c) } else { 0.0 });
                cx.accumulate(ai, ga);
            }
            if cx.needs(bi) {
                let gb = Matrix::from_fn(av.rows(), av.cols(), |r, c| if a_wins(r, c) { 0.0 } else { g.get(r, c) });
                cx.accumulate(bi, gb);
            }
        })
    }

    /// Clamp to `[lo, hi]`; gradient is zero outside the bounds — PPO's
    /// `clip(ratio, 1−ε, 1+ε)`.
    pub fn clip(&self, a: Var, lo: f32, hi: f32) -> Var {
        let av = self.val(a);
        let out = av.map(|x| x.clamp(lo, hi));
        let ai = a.idx;
        self.op(out, &[a], move |g, cx| {
            cx.accumulate(ai, g.zip_map(&av, |gi, x| if x > lo && x < hi { gi } else { 0.0 }));
        })
    }

    // ----------------------------------------------------------- backward

    /// Runs reverse-mode differentiation from the scalar `root`.
    ///
    /// Each interior gradient is moved out of its slot when the walk
    /// reaches its node, handed to the node's closure and dropped; the
    /// returned store holds the leaves' gradients only.
    ///
    /// # Panics
    /// If `root` is not `1×1`.
    pub fn backward(&self, root: Var) -> GradStore {
        GradStore { grads: self.walk(root, vec![None; root.idx + 1]) }
    }

    /// The backward walk of [`Tape::backward`], accumulating the gradients
    /// of `leaves` into caller-owned slots: `grads[i]` is the running
    /// gradient of `leaves[i]`. The walk starts from those slots and adds
    /// this tape's terms in its usual order, so a loss split over several
    /// tapes whose walks run in the reverse of the order the tapes were
    /// cut in gets, term for term and bit for bit, the leaf gradients of
    /// the one tape they were cut from. A `None` slot takes its first term
    /// by move, exactly as on one tape; a leaf this walk does not reach
    /// keeps its slot unchanged.
    ///
    /// # Panics
    /// If `root` is not `1×1`, if `leaves` and `grads` differ in length,
    /// or if some entry of `leaves` is not a leaf of this tape.
    pub fn backward_into(&self, root: Var, leaves: &[Var], grads: &mut [Option<Matrix>]) {
        assert_eq!(leaves.len(), grads.len(), "one gradient slot per leaf");
        let len = root.idx + 1;
        let mut slots = vec![None; len];
        for (v, g) in leaves.iter().zip(grads.iter_mut()) {
            let node = &self.nodes.borrow()[v.idx];
            assert!(node.needs_grad && node.backward.is_none(), "backward_into seeds leaves only");
            if v.idx < len {
                debug_assert!(slots[v.idx].is_none(), "leaf listed twice");
                slots[v.idx] = g.take();
            }
        }
        let mut slots = self.walk(root, slots);
        for (v, g) in leaves.iter().zip(grads.iter_mut()) {
            if v.idx < len {
                *g = slots[v.idx].take();
            }
        }
    }

    /// The reverse walk from `root` over gradient slots `grads` (one per
    /// node up to `root`, leaves possibly pre-seeded); returns the slots,
    /// in which only leaves still hold a gradient.
    fn walk(&self, root: Var, grads: Vec<Option<Matrix>>) -> Vec<Option<Matrix>> {
        assert_eq!((root.rows, root.cols), (1, 1), "backward root must be scalar");
        let nodes = self.nodes.borrow();
        let len = root.idx + 1;
        let mut cx = Backward { nodes: &nodes, grads, transposes: vec![None; len] };
        if nodes[root.idx].needs_grad {
            cx.grads[root.idx] = Some(Matrix::ones(1, 1));
        }
        for idx in (0..len).rev() {
            // Every consumer of `idx` lies after it and has run.
            cx.transposes[idx] = None;
            let Some(back) = &nodes[idx].backward else { continue };
            let Some(grad) = cx.grads[idx].take() else { continue };
            back(&grad, &mut cx);
        }
        cx.grads
    }
}

/// Column sums of `g` as a `1×c` row, rows added in ascending order — the
/// gradient of a broadcast bias row.
fn column_sums(g: &Matrix) -> Matrix {
    let mut sums = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (acc, &x) in sums.data_mut().iter_mut().zip(g.row(r)) {
            *acc += x;
        }
    }
    sums
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

    #[test]
    fn constant_gets_no_gradient() {
        let t = Tape::new();
        let p = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let c = t.constant(Matrix::from_rows(&[&[3.0, -4.0]]));
        let loss = t.sum(t.mul(p, c));
        let grads = t.backward(loss);
        assert!(grads.get(c).is_none());
        assert_eq!(grads.get(p).unwrap(), &Matrix::from_rows(&[&[3.0, -4.0]]));
    }

    #[test]
    fn all_constant_op_records_no_backward() {
        let t = Tape::new();
        let a = t.constant(Matrix::ones(2, 2));
        let b = t.constant_arc(Arc::new(Matrix::full(2, 2, 3.0)));
        let both = t.relu(t.matmul(a, b));
        assert_eq!(t.value(both), Matrix::full(2, 2, 6.0));
        let p = t.leaf(Matrix::ones(2, 2));
        let mixed = t.add(both, p);
        let nodes = t.nodes.borrow();
        assert!(nodes[both.idx].backward.is_none() && !nodes[both.idx].needs_grad);
        assert!(nodes[mixed.idx].backward.is_some() && nodes[mixed.idx].needs_grad);
    }

    #[test]
    fn interior_gradients_are_dropped_after_backward() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, -3.0]]));
        let y = t.scale(x, 2.0);
        let loss = t.sum(y);
        let grads = t.backward(loss);
        assert!(grads.get(y).is_none());
        assert!(grads.get(loss).is_none());
        assert_eq!(grads.get(x).unwrap(), &Matrix::from_rows(&[&[2.0, 2.0]]));
    }

    /// Bits of the gradient of `sum(tanh(op(p, o)))` with respect to the
    /// leaf `p`, the other operand `o` bound as a constant or as a leaf.
    fn param_grad_bits(p: &Matrix, o: &Matrix, o_constant: bool, op: impl Fn(&Tape, Var, Var) -> Var) -> Vec<u32> {
        let t = Tape::new();
        let pv = t.leaf(p.clone());
        let ov = if o_constant { t.constant(o.clone()) } else { t.leaf(o.clone()) };
        let loss = t.sum(t.tanh(op(&t, pv, ov)));
        let grads = t.backward(loss);
        assert_eq!(grads.get(ov).is_none(), o_constant);
        grads.get(pv).expect("parameter gradient").data().iter().map(|x| x.to_bits()).collect()
    }

    /// A deterministic matrix with exact zeros (the matmul zero-skip) and
    /// signed values.
    fn sample(rows: usize, cols: usize, salt: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = ((r * 7 + c * 3) as f32 * 0.61 + salt).sin();
            if (r + c) % 3 == 0 {
                0.0
            } else {
                x
            }
        })
    }

    #[test]
    fn parameter_gradients_are_bitwise_the_same_with_constant_operands() {
        type Shape = (usize, usize);
        type Op = fn(&Tape, Var, Var) -> Var;
        // (name, parameter shape, other operand shape, op(parameter, other))
        let cases: [(&str, Shape, Shape, Op); 12] = [
            ("matmul, parameter left", (4, 3), (3, 5), |t, p, o| t.matmul(p, o)),
            ("matmul, parameter right", (3, 5), (4, 3), |t, p, o| t.matmul(o, p)),
            ("add, parameter left", (3, 4), (3, 4), |t, p, o| t.add(p, o)),
            ("add, parameter right", (3, 4), (3, 4), |t, p, o| t.add(o, p)),
            ("sub, parameter left", (3, 4), (3, 4), |t, p, o| t.sub(p, o)),
            ("sub, parameter right", (3, 4), (3, 4), |t, p, o| t.sub(o, p)),
            ("add_bias_row, parameter bias", (1, 4), (3, 4), |t, p, o| t.add_bias_row(o, p)),
            ("add_bias_row, parameter rows", (3, 4), (1, 4), |t, p, o| t.add_bias_row(p, o)),
            ("mul_col_broadcast, parameter rows", (4, 3), (4, 1), |t, p, o| t.mul_col_broadcast(p, o)),
            ("mul_col_broadcast, parameter column", (4, 1), (4, 3), |t, p, o| t.mul_col_broadcast(o, p)),
            ("broadcast_add_col_row, parameter column", (4, 1), (5, 1), |t, p, o| t.broadcast_add_col_row(p, o)),
            ("broadcast_add_col_row, parameter row", (5, 1), (4, 1), |t, p, o| t.broadcast_add_col_row(o, p)),
        ];
        for (name, ps, os, op) in cases {
            let p = sample(ps.0, ps.1, 0.3);
            let o = sample(os.0, os.1, 1.7);
            let as_leaf = param_grad_bits(&p, &o, false, op);
            let as_constant = param_grad_bits(&p, &o, true, op);
            assert_eq!(as_leaf, as_constant, "{name}");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gather_rows_selects_rows_and_passes_the_gradient_check() {
        let x = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.3], &[-0.7, 1.1], &[0.2, -0.4]]);
        let t = Tape::new();
        let v = t.leaf(x.clone());
        let g = t.gather_rows(v, &[3, 1]);
        assert_eq!(t.value(g), Matrix::from_rows(&[&[0.2, -0.4], &[2.0, 0.3]]));
        // A repeated row sums its gradients; rows nobody selected get +0.
        let report = crate::gradcheck::check_gradients(std::slice::from_ref(&x), 1e-3, |t, vs| {
            let y = t.gather_rows(vs[0], &[0, 2, 2]);
            t.sum(t.mul(y, y))
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn gather_rows_scatters_the_gradient_onto_the_selected_rows() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32));
        let w = t.constant(Matrix::from_rows(&[&[1.0, -2.0, 3.0], &[4.0, 5.0, -6.0]]));
        let picked = t.gather_rows(x, &[1, 3]);
        let loss = t.sum(t.mul(picked, w));
        let grads = t.backward(loss);
        let want = Matrix::from_rows(&[&[0.0; 3], &[1.0, -2.0, 3.0], &[0.0; 3], &[4.0, 5.0, -6.0]]);
        assert_eq!(bits(grads.get(x).unwrap()), bits(&want), "+0 off the slice, the gradient rows on it");
        // A gather of a constant is a constant.
        let c = t.constant(Matrix::ones(3, 2));
        let cg = t.gather_rows(c, &[2]);
        assert!(t.nodes.borrow()[cg.idx].backward.is_none());
    }

    const STEPS: usize = 5;

    /// Binds the leaves `[W, b, z, u]` on `t` and records steps `steps` of
    /// the loss `(1/STEPS) Σ_k obj_k`, `obj_k = sum(tanh(x_k·W + b))`. The
    /// last step also adds `z·(−0)`, so `z`'s one gradient term is `−0`;
    /// no step reads `u`.
    fn step_loss(t: &Tape, steps: std::ops::Range<usize>) -> (Vec<Var>, Var) {
        let leaves = vec![
            t.leaf(sample(2, 3, 0.4)),
            t.leaf(sample(1, 3, 2.2)),
            t.leaf(Matrix::full(1, 1, 0.5)),
            t.leaf(Matrix::ones(1, 1)),
        ];
        let (w, b, z) = (leaves[0], leaves[1], leaves[2]);
        let mut total = None;
        for k in steps {
            let x = t.constant(Matrix::from_rows(&[&[(k as f32 * 1.3).sin(), (k as f32 * 0.7 + 0.2).cos()]]));
            let mut obj = t.sum(t.tanh(t.affine(x, w, b, false)));
            if k == STEPS - 1 {
                obj = t.add(obj, t.mul(z, t.constant(Matrix::full(1, 1, -0.0))));
            }
            total = Some(match total {
                Some(acc) => t.add(acc, obj),
                None => obj,
            });
        }
        (leaves, t.scale(total.expect("at least one step"), 1.0 / STEPS as f32))
    }

    #[test]
    fn windows_walked_last_to_first_give_the_one_tape_gradients() {
        let t = Tape::new();
        let (leaves, loss) = step_loss(&t, 0..STEPS);
        let one = t.backward(loss);
        let want: Vec<Option<Vec<u32>>> = leaves.iter().map(|&v| one.get(v).map(bits)).collect();
        assert_eq!(want[2], Some(vec![(-0.0f32).to_bits()]), "z's gradient is its one term, −0");
        assert_eq!(want[3], None, "u is never reached");
        // Windows of every width: 1 cuts the loss at every step boundary,
        // STEPS is the one tape.
        for width in 1..=STEPS {
            let mut grads: Vec<Option<Matrix>> = vec![None; leaves.len()];
            for start in (0..STEPS).step_by(width).rev() {
                let t = Tape::new();
                let (leaves, loss) = step_loss(&t, start..(start + width).min(STEPS));
                t.backward_into(loss, &leaves, &mut grads);
            }
            let got: Vec<Option<Vec<u32>>> = grads.iter().map(|g| g.as_ref().map(bits)).collect();
            assert_eq!(got, want, "windows of {width} steps");
        }
    }

    #[test]
    #[should_panic(expected = "leaves only")]
    fn backward_into_rejects_a_non_leaf_slot() {
        let t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 1));
        let y = t.scale(x, 2.0);
        t.backward_into(y, &[y], &mut [None]);
    }

    /// Value and the three gradients of `sum(tanh(·))` through the fused
    /// node and through the chain it replaces, as bits.
    fn affine_bits(a: &Matrix, w: &Matrix, b: &Matrix, relu: bool, fused: bool) -> [Vec<u32>; 4] {
        let t = Tape::new();
        let (av, wv, bv) = (t.leaf(a.clone()), t.leaf(w.clone()), t.leaf(b.clone()));
        let out = if fused {
            t.affine(av, wv, bv, relu)
        } else {
            let lin = t.add_bias_row(t.matmul(av, wv), bv);
            if relu {
                t.relu(lin)
            } else {
                lin
            }
        };
        let value = bits(&t.value(out));
        let grads = t.backward(t.sum(t.tanh(out)));
        [value, bits(grads.get(av).unwrap()), bits(grads.get(wv).unwrap()), bits(grads.get(bv).unwrap())]
    }

    #[test]
    fn affine_is_bitwise_the_matmul_bias_relu_chain() {
        // Row 0 of `a` is zero and the bias has a zero, so (0, 1) is an
        // exact-zero pre-activation; the rest are mixed in sign.
        let mut a = sample(5, 4, 0.3);
        a.data_mut()[..4].fill(0.0);
        let w = sample(4, 6, 1.1);
        let b = Matrix::from_rows(&[&[0.25, 0.0, -0.5, 0.75, -0.1, 0.3]]);
        let pre = {
            let mut m = a.matmul(&w);
            m.add_bias_row_assign(&b);
            m
        };
        assert_eq!(pre.get(0, 1), 0.0);
        assert!(pre.data().iter().any(|&x| x < 0.0) && pre.data().iter().any(|&x| x > 0.0));
        for relu in [true, false] {
            let fused = affine_bits(&a, &w, &b, relu, true);
            let chain = affine_bits(&a, &w, &b, relu, false);
            for (what, (f, c)) in
                ["value", "a gradient", "W gradient", "bias gradient"].iter().zip(fused.iter().zip(&chain))
            {
                assert_eq!(f, c, "relu {relu}: {what}");
            }
        }
    }
}
