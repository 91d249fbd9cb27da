//! Allocation-free inference kernels.
//!
//! The tape ([`crate::Tape`]) exists for training: every op records a node
//! and clones values for its backward closure. Inference needs none of
//! that, so the serving hot path runs on two pieces instead:
//!
//! * [`InferScratch`] — a pool of reusable [`Matrix`] buffers. Kernels
//!   `take` a buffer (recycling a previous one when its capacity fits) and
//!   `put` it back when done; after the first pass of an inference stream
//!   no further heap allocation happens, also when later passes ask for
//!   fewer rows ([`InferScratch::rows_of`]: a forward restricted to the
//!   rows its consumer reads).
//! * `_into` kernels — the forward halves of the tape ops, writing into
//!   caller-provided buffers. Each mirrors its tape counterpart's
//!   floating-point operations *exactly* (same kernels, same accumulation
//!   order), so tape and tape-free forwards are bitwise identical — the
//!   invariant `crates/core/tests/infer_parity.rs` pins per GNN layer
//!   kind and end to end through `order_query`.
//!
//! Matrix-shaped kernels (`matmul_into`, `relu_in_place`,
//! `add_bias_row_assign`, …) live on [`Matrix`] itself — see the
//! `matrix` module header for which matmul arms exist and why the bitwise
//! one never fuses a multiply-add; this module holds the arena plus the
//! softmax/broadcast kernels whose tape versions build fresh output
//! matrices.
//!
//! [`InferMath`] selects between the bitwise kernels and the
//! tolerance-tested fast-math ones per stream. `Fast` is no longer the
//! faster of the two on AVX2 hosts; it stays because the benchmark ledger
//! measures it.

use std::borrow::Cow;

use crate::matrix::Matrix;

/// The floating-point contract an inference stream runs under.
///
/// * [`InferMath::Bitwise`] (the default) keeps the original guarantee:
///   every kernel mirrors its tape counterpart's operations exactly, so
///   tape and tape-free forwards are bitwise identical (the invariant
///   `crates/core/tests/infer_parity.rs` pins).
/// * [`InferMath::Fast`] opts into the FMA/blocked-reduction kernels
///   ([`Matrix::matmul_into_fast`], reciprocal-multiply softmax): results
///   are tolerance-tested against the reference (≤ `1e-5` relative error,
///   `crates/tensor/tests/fastmath_tolerance.rs`) but **not** bitwise
///   reproducible against the tape.
///
/// The knob lives on [`InferScratch`] so every kernel in one forward pass
/// sees one consistent mode; layers dispatch through the methods below.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InferMath {
    /// Bit-for-bit identical to the tape forward (differential contract).
    #[default]
    Bitwise,
    /// FMA + reordered reductions; tolerance-tested, not bit-reproducible.
    Fast,
}

impl InferMath {
    /// True for [`InferMath::Fast`].
    pub fn is_fast(self) -> bool {
        matches!(self, InferMath::Fast)
    }

    /// `a @ rhs` into `out` under this contract.
    pub fn matmul_into(self, a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        match self {
            InferMath::Bitwise => a.matmul_into(rhs, out),
            InferMath::Fast => a.matmul_into_fast(rhs, out),
        }
    }

    /// Masked column softmax ([`masked_softmax_col_into`]) under this
    /// contract.
    pub fn masked_softmax_col_into(self, scores: &Matrix, mask: &[bool], out: &mut Vec<f32>) {
        assert_eq!(scores.cols(), 1, "masked_softmax_col expects an n×1 score vector");
        match self {
            InferMath::Bitwise => masked_softmax_slice_into(scores.data(), mask, out),
            InferMath::Fast => masked_softmax_slice_into_fast(scores.data(), mask, out),
        }
    }

    /// Row-wise masked softmax ([`masked_softmax_rows_into`]) under this
    /// contract.
    pub fn masked_softmax_rows_into(self, scores: &Matrix, mask: &Matrix, out: &mut Matrix) {
        match self {
            InferMath::Bitwise => masked_softmax_rows_into(scores, mask, out),
            InferMath::Fast => masked_softmax_rows_into_fast(scores, mask, out),
        }
    }
}

/// A recycling pool of matrix buffers for tape-free forward passes.
///
/// `take` hands out a buffer resized to the requested dimensions with
/// **unspecified contents** (recycled buffers keep stale values — every
/// `_into` kernel fully overwrites its output, so zeroing here would be
/// a wasted memory pass per buffer per step), preferring a pooled buffer
/// whose allocation already fits; `put` returns it. One scratch serves
/// one inference stream — it is deliberately not `Sync`-shared;
/// concurrent orderers each own one.
#[derive(Default)]
pub struct InferScratch {
    pool: Vec<Matrix>,
    math: InferMath,
}

impl InferScratch {
    /// An empty pool (buffers materialize on first use) under the default
    /// [`InferMath::Bitwise`] contract.
    pub fn new() -> Self {
        InferScratch::default()
    }

    /// An empty pool running under `math` — kernels that receive this
    /// scratch dispatch through [`InferScratch::math`].
    pub fn with_math(math: InferMath) -> Self {
        InferScratch { pool: Vec::new(), math }
    }

    /// The floating-point contract this inference stream runs under.
    pub fn math(&self) -> InferMath {
        self.math
    }

    /// A `rows × cols` buffer with unspecified contents (see the type
    /// docs), recycled from the pool when one with sufficient capacity
    /// is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        // Prefer a buffer that already fits (no realloc); otherwise grow
        // the largest available so repeated growth converges quickly.
        let idx = self
            .pool
            .iter()
            .position(|m| m.capacity() >= need)
            .or_else(|| self.pool.iter().enumerate().max_by_key(|(_, m)| m.capacity()).map(|(i, _)| i));
        let mut m = match idx {
            Some(i) => self.pool.swap_remove(i),
            None => return Matrix::zeros(rows, cols),
        };
        m.resize_for_overwrite(rows, cols);
        m
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, m: Matrix) {
        self.pool.push(m);
    }

    /// The rows of `m` a row-restricted pass reads: `m` itself for `None`
    /// (every row), otherwise a pooled `rows.len() × m.cols()` copy whose
    /// row `r` is `m`'s row `rows[r]`. Every kernel computes an output row
    /// from the same row of its left operand alone, so a product over the
    /// copy is bit for bit the selected rows of the product over `m`.
    /// Hand the result to [`InferScratch::put_rows`] when done.
    pub fn rows_of<'m>(&mut self, m: &'m Matrix, rows: Option<&[usize]>) -> Cow<'m, Matrix> {
        let Some(rows) = rows else { return Cow::Borrowed(m) };
        let mut out = self.take(rows.len(), m.cols());
        for (dst, &r) in out.data_mut().chunks_exact_mut(m.cols()).zip(rows) {
            dst.copy_from_slice(m.row(r));
        }
        Cow::Owned(out)
    }

    /// Returns a [`InferScratch::rows_of`] copy to the pool (a borrowed
    /// full matrix has nothing to return).
    pub fn put_rows(&mut self, m: Cow<'_, Matrix>) {
        if let Cow::Owned(m) = m {
            self.put(m);
        }
    }

    /// Number of idle buffers currently pooled (tests/diagnostics).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Summed element capacity of the idle buffers (tests/diagnostics).
    pub fn pooled_capacity(&self) -> usize {
        self.pool.iter().map(Matrix::capacity).sum()
    }
}

/// Masked softmax over an `n×1` score column into a reusable `Vec<f32>`:
/// entries where `mask` is false get probability exactly 0. Mirrors
/// [`crate::Tape::masked_softmax_col`]'s forward bit for bit (same max,
/// exp, and division sequence).
///
/// # Panics
/// If shapes mismatch or the mask keeps no entry.
pub fn masked_softmax_col_into(scores: &Matrix, mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(scores.cols(), 1, "masked_softmax_col expects an n×1 score vector");
    assert_eq!(scores.rows(), mask.len(), "mask length mismatch");
    masked_softmax_slice_into(scores.data(), mask, out);
}

/// [`masked_softmax_col_into`] over a raw score slice — the shared body
/// (an `n×1` column's data *is* its flat slice, so this is the same
/// computation bit for bit). Scores where `mask` is false are never read.
pub fn masked_softmax_slice_into(scores: &[f32], mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(scores.len(), mask.len(), "mask length mismatch");
    let max = scores.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x).fold(f32::NEG_INFINITY, f32::max);
    assert!(max.is_finite(), "mask must keep at least one entry");
    out.clear();
    out.resize(mask.len(), 0.0);
    let mut denom = 0.0;
    for (i, &m) in mask.iter().enumerate() {
        if m {
            let e = (scores[i] - max).exp();
            out[i] = e;
            denom += e;
        }
    }
    for p in out.iter_mut() {
        *p /= denom;
    }
}

/// Fast-math variant of [`masked_softmax_slice_into`]: one division to
/// form the reciprocal, then a multiply per element, instead of a divide
/// per element. Within 1 ULP per probability of the bitwise version;
/// covered by the same tolerance suite as the fast matmul.
pub fn masked_softmax_slice_into_fast(scores: &[f32], mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(scores.len(), mask.len(), "mask length mismatch");
    let max = scores.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x).fold(f32::NEG_INFINITY, f32::max);
    assert!(max.is_finite(), "mask must keep at least one entry");
    out.clear();
    out.resize(mask.len(), 0.0);
    let mut denom = 0.0;
    for (i, &m) in mask.iter().enumerate() {
        if m {
            let e = (scores[i] - max).exp();
            out[i] = e;
            denom += e;
        }
    }
    let inv = 1.0 / denom;
    for p in out.iter_mut() {
        *p *= inv;
    }
}

/// Row-wise masked softmax over an `n×n` score matrix into `out`;
/// `mask[i][j] == 0` ⇒ probability 0, all-masked rows become all-zero
/// rows. Mirrors [`crate::Tape::masked_softmax_rows`]'s forward bit for
/// bit.
pub fn masked_softmax_rows_into(scores: &Matrix, mask: &Matrix, out: &mut Matrix) {
    assert_eq!(scores.shape(), mask.shape(), "mask shape mismatch");
    let (rows, cols) = scores.shape();
    out.reshape_in_place(rows, cols);
    for r in 0..rows {
        let any = (0..cols).any(|c| mask.get(r, c) != 0.0);
        if !any {
            continue;
        }
        let max =
            (0..cols).filter(|&c| mask.get(r, c) != 0.0).map(|c| scores.get(r, c)).fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for c in 0..cols {
            if mask.get(r, c) != 0.0 {
                let e = (scores.get(r, c) - max).exp();
                out.set(r, c, e);
                denom += e;
            }
        }
        for c in 0..cols {
            out.set(r, c, out.get(r, c) / denom);
        }
    }
}

/// Fast-math variant of [`masked_softmax_rows_into`]: reciprocal-multiply
/// normalization per row (same contract as
/// [`masked_softmax_slice_into_fast`]).
pub fn masked_softmax_rows_into_fast(scores: &Matrix, mask: &Matrix, out: &mut Matrix) {
    assert_eq!(scores.shape(), mask.shape(), "mask shape mismatch");
    let (rows, cols) = scores.shape();
    out.reshape_in_place(rows, cols);
    for r in 0..rows {
        let any = (0..cols).any(|c| mask.get(r, c) != 0.0);
        if !any {
            continue;
        }
        let max =
            (0..cols).filter(|&c| mask.get(r, c) != 0.0).map(|c| scores.get(r, c)).fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for c in 0..cols {
            if mask.get(r, c) != 0.0 {
                let e = (scores.get(r, c) - max).exp();
                out.set(r, c, e);
                denom += e;
            }
        }
        let inv = 1.0 / denom;
        for c in 0..cols {
            out.set(r, c, out.get(r, c) * inv);
        }
    }
}

/// Outer broadcast sum of two `n×1`/`m×1` columns into `out`:
/// `out[i][j] = a_i + b_j`. Mirrors
/// [`crate::Tape::broadcast_add_col_row`]'s forward.
pub fn broadcast_add_col_row_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), 1, "a must be n×1");
    assert_eq!(b.cols(), 1, "b must be n×1");
    out.resize_for_overwrite(a.rows(), b.rows()); // every cell written below
    for (i, &ai) in a.data().iter().enumerate() {
        for (j, &bj) in b.data().iter().enumerate() {
            out.set(i, j, ai + bj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn scratch_recycles_buffers() {
        let mut s = InferScratch::new();
        let a = s.take(4, 4);
        let ptr = a.data().as_ptr();
        s.put(a);
        assert_eq!(s.pooled(), 1);
        let b = s.take(2, 3); // smaller: must reuse the same allocation
        assert_eq!(b.data().as_ptr(), ptr);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn scratch_prefers_fitting_buffer() {
        let mut s = InferScratch::new();
        let small = s.take(1, 2);
        let big = s.take(8, 8);
        let big_ptr = big.data().as_ptr();
        s.put(small);
        s.put(big);
        let c = s.take(5, 5); // only the big buffer fits without realloc
        assert_eq!(c.data().as_ptr(), big_ptr);
    }

    #[test]
    fn masked_softmax_col_matches_tape() {
        let scores = Matrix::from_rows(&[&[1.0], &[-0.5], &[2.5], &[0.0]]);
        let mask = [true, false, true, true];
        let t = Tape::new();
        let v = t.masked_softmax_col(t.leaf(scores.clone()), &mask);
        let tape_probs = t.value(v);
        let mut out = Vec::new();
        masked_softmax_col_into(&scores, &mask, &mut out);
        for (i, &p) in out.iter().enumerate() {
            assert_eq!(p, tape_probs.get(i, 0), "row {i}");
        }
        assert_eq!(out[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn masked_softmax_col_rejects_empty_mask() {
        let mut out = Vec::new();
        masked_softmax_col_into(&Matrix::zeros(2, 1), &[false, false], &mut out);
    }

    #[test]
    fn masked_softmax_rows_matches_tape() {
        let scores = Matrix::from_fn(3, 3, |r, c| (r as f32 - c as f32) * 0.7);
        // Row 2 fully masked: must come out all-zero.
        let mask = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[0.0, 0.0, 0.0]]);
        let t = Tape::new();
        let v = t.masked_softmax_rows(t.leaf(scores.clone()), &mask);
        let tape_probs = t.value(v);
        let mut out = Matrix::zeros(1, 1);
        masked_softmax_rows_into(&scores, &mask, &mut out);
        assert_eq!(out, tape_probs);
        assert_eq!(out.get(2, 0), 0.0);
    }

    #[test]
    fn broadcast_add_matches_tape() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let b = Matrix::from_rows(&[&[10.0], &[20.0], &[30.0]]);
        let t = Tape::new();
        let v = t.broadcast_add_col_row(t.leaf(a.clone()), t.leaf(b.clone()));
        let mut out = Matrix::zeros(1, 1);
        broadcast_add_col_row_into(&a, &b, &mut out);
        assert_eq!(out, t.value(v));
    }
}
