//! Dense row-major `f32` matrices, and the two matmul kernels.
//!
//! **Bitwise** ([`Matrix::matmul_into`], the tape's `matmul`, every
//! `InferMath::Bitwise` forward): each output element is one rounded
//! multiply and one rounded add per non-zero `a[i][k]`, in ascending `k` —
//! the naive [`Matrix::matmul_reference`] sequence, so tape, tape-free and
//! reference results are equal bit for bit. Two arms compute it, selected
//! once per process from the CPU: portable 16-column register blocks, and
//! under AVX2 64-column blocks for outputs at least 64 wide (eight
//! independent accumulator chains instead of one add latency per `k`).
//! The AVX2 arm is compiled without the `fma` target feature and nothing
//! on the path calls `mul_add`: a fused multiply-add rounds once where the
//! contract rounds twice. Both arms, and every split of a row into
//! 64-blocks, 16-blocks and tail, are pinned against the reference in this
//! module's tests and in `tests/matmul_kernels.rs` (CI runs them in debug
//! and `--release`).
//!
//! **Fast** ([`Matrix::matmul_into_fast`], `InferMath::Fast`): FMA and
//! blocked reductions, within a tolerance of the reference
//! (`tests/fastmath_tolerance.rs`), AVX-512F / AVX2+FMA / portable arms.
//! Since the bitwise kernel stopped being latency-bound, `Fast` is *not*
//! the faster mode on an AVX2 host (a Q16 order: 76 µs bitwise, 85 µs
//! fast); it is kept because the benchmark ledger measures it
//! (`core.ordering.infer_fast_us`), and removing it is a benchmark change.

use rand::Rng;

/// A dense row-major matrix of `f32`.
///
/// All RL-QVO tensors are rank ≤ 2 (node-feature matrices, weights, score
/// vectors), so a matrix type covers the whole workload; column vectors are
/// `n×1` matrices.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// All-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape {rows}x{cols} needs {} values", rows * cols);
        Matrix { rows, cols, data }
    }

    /// Builds from row slices (test convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Builds element-wise from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialization: `U(-a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))` — the standard GCN/MLP init.
    pub fn xavier_uniform<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Allocated element capacity of the backing buffer (may exceed
    /// `rows * cols` after [`Matrix::reshape_in_place`] shrinks a reused
    /// buffer) — [`crate::InferScratch`]'s recycling heuristic.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a 1×1 matrix.
    pub fn scalar(&self) -> f32 {
        assert_eq!((self.rows, self.cols), (1, 1), "scalar() needs a 1x1 matrix");
        self.data[0]
    }

    /// Matrix product `self @ rhs`.
    ///
    /// Allocating wrapper around [`Matrix::matmul_into`] — both the tape
    /// ops and the tape-free inference kernels go through the same inner
    /// loop, so their results are bitwise identical.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self @ rhs` written into `out` (resized in place,
    /// reusing its allocation).
    ///
    /// Every output element accumulates over ascending `k` with the same
    /// zero-skip, one rounded multiply and one rounded add per step, so
    /// the result is bitwise identical to the naive
    /// [`Matrix::matmul_reference`] kernel for finite inputs on every
    /// shape path and dispatch arm (see `kernel_bitwise`;
    /// property-checked in `tests/matmul_kernels.rs`).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul {:?} @ {:?}", self.shape(), rhs.shape());
        // Every path below overwrites (or explicitly zeroes) each output
        // cell before reading it, so skip reshape_in_place's zero pass.
        out.resize_for_overwrite(self.rows, rhs.cols);
        kernel_bitwise(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// [`Matrix::matmul`] through the fast-math kernel (allocating
    /// wrapper around [`Matrix::matmul_into_fast`]).
    pub fn matmul_fast(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into_fast(rhs, &mut out);
        out
    }

    /// Matrix product through the **fast-math** kernel: fused
    /// multiply-adds and register-blocked partial sums, dispatched to an
    /// AVX2+FMA code path when the CPU supports it.
    ///
    /// Unlike [`Matrix::matmul_into`], this kernel reorders the reduction
    /// (blocked partial sums, combined pairwise) and contracts `a*b + c`
    /// into one rounding, so results are **not** bitwise identical to
    /// [`Matrix::matmul_reference`] — only close: relative error on each
    /// output element stays within a few ULPs of the reference for
    /// well-conditioned inputs (property-checked against an explicit
    /// `1e-5` relative bound in `tests/fastmath_tolerance.rs`). Callers
    /// that need the bit-for-bit differential contract must stay on
    /// [`Matrix::matmul_into`]; the `InferMath` knob on `InferScratch`
    /// selects between the two per inference stream.
    pub fn matmul_into_fast(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul {:?} @ {:?}", self.shape(), rhs.shape());
        out.resize_for_overwrite(self.rows, rhs.cols);
        kernel_fast_dispatch(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// The fast-math kernel pinned to the portable (no `target_feature`)
    /// code path regardless of CPU capabilities. Test-only hook: lets the
    /// tolerance suite exercise both dispatch arms on one machine.
    #[doc(hidden)]
    pub fn matmul_into_fast_portable(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul {:?} @ {:?}", self.shape(), rhs.shape());
        out.resize_for_overwrite(self.rows, rhs.cols);
        kernel_fast::<PlainMac>(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// The naive `i-j-k` triple loop over the row-major `rhs` — the
    /// original kernel, kept as the differential reference for
    /// [`Matrix::matmul`]/[`Matrix::matmul_into`]. Strided column reads
    /// of `rhs` make it markedly slower; never use it on a hot path.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul {:?} @ {:?}", self.shape(), rhs.shape());
        Matrix::from_fn(self.rows, rhs.cols, |i, j| {
            let mut acc = 0.0f32;
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue; // mirror matmul_into's skip exactly (signed zeros)
                }
                acc += a * rhs.get(k, j);
            }
            acc
        })
    }

    /// Reshapes to `rows × cols`, zero-filled, reusing the existing
    /// allocation when its capacity suffices — the buffer-recycling
    /// primitive behind [`crate::InferScratch`].
    pub fn reshape_in_place(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// [`Matrix::reshape_in_place`] without the zero-fill: existing
    /// elements keep arbitrary stale values (new elements from a grow are
    /// zeroed — plain `Vec::resize` semantics). Only for kernels that
    /// overwrite every cell before any read; saves a full memory pass per
    /// call on the inference hot path.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Transpose: one pass over the rows, scattering each into a column.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        if self.cols > 0 {
            for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
                for (dst, &x) in out.data[r..].iter_mut().step_by(self.rows).zip(row) {
                    *dst = x;
                }
            }
        }
        out
    }

    /// Element-wise sum (shapes must match).
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Hadamard (element-wise) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise zip-map.
    pub fn zip_map(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place element-wise accumulate: `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place element-wise subtract: `self -= rhs`.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// In-place ReLU — element-wise `x.max(0.0)`, matching
    /// [`crate::Tape::relu`]'s forward exactly.
    pub fn relu_in_place(&mut self) {
        for x in &mut self.data {
            *x = x.max(0.0);
        }
    }

    /// In-place leaky ReLU with negative slope `alpha`, matching
    /// [`crate::Tape::leaky_relu`]'s forward exactly.
    pub fn leaky_relu_in_place(&mut self, alpha: f32) {
        for x in &mut self.data {
            if *x <= 0.0 {
                *x *= alpha;
            }
        }
    }

    /// In-place row-broadcast bias add: `self[r][c] += bias[0][c]`,
    /// matching [`crate::Tape::add_bias_row`]'s forward exactly.
    pub fn add_bias_row_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(self.cols, bias.cols, "bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// In-place column-broadcast scale: row `r` of `self` is multiplied by
    /// `col[r][0]`, matching [`crate::Tape::mul_col_broadcast`]'s forward.
    pub fn mul_col_broadcast_assign(&mut self, col: &Matrix) {
        assert_eq!(col.cols, 1, "col must be n×1");
        assert_eq!(self.rows, col.rows, "row count mismatch");
        for (row, &c) in self.data.chunks_exact_mut(self.cols).zip(&col.data) {
            for x in row {
                *x *= c;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Storage footprint in bytes (paper Table IV's "Model Space" counts
    /// parameter bytes).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Largest absolute element difference to `rhs` (test helper).
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape());
        self.data.iter().zip(&rhs.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// The bitwise kernel behind [`Matrix::matmul_into`] (and so the tape's
/// `matmul`), over raw row-major slices (`a` is `m×k`, `rhs` is `k×n`,
/// `out` is `m×n`): [`kernel_bitwise_body`] at the block width the CPU
/// can keep in registers. Two arms, same bits:
///
/// * portable — 16-column blocks (four `xmm` accumulators);
/// * AVX2, when `n ≥ 64` — 64-column blocks: eight independent `ymm`
///   accumulator chains per `k` step, so the loop is bound by multiply and
///   add throughput instead of one add latency per step.
///
/// Neither arm may fuse a multiply-add (module header). A 512-bit arm
/// measured no faster than the AVX2 one; there is none.
fn kernel_bitwise(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if n >= 64 && cpu().avx2 {
            // SAFETY: the detection above proves avx2 is available.
            unsafe { kernel_bitwise_avx2(a, m, k, rhs, n, out) };
            return;
        }
    }
    kernel_bitwise_body::<16>(a, m, k, rhs, n, out);
}

/// The bitwise kernel body, generic over the widest column block `W`.
///
/// Three shapes, one contract: every output element accumulates over
/// ascending `k` with the same zero-skip, so all paths are bitwise
/// identical to the naive [`Matrix::matmul_reference`] kernel for finite
/// inputs (property-checked in `tests/matmul_kernels.rs`, per arm in this
/// module's tests).
///
/// * `n == 1` (score/attention columns): a plain sequential dot product
///   per row, contiguous on both operands, no per-`k` slice overhead;
/// * wide outputs (≥ 16 columns — hidden-layer weights): `W`-column, then
///   16-column register blocks whose accumulators survive the whole `k`
///   loop (one contiguous load of `rhs`'s row chunk per `k`, one store per
///   block), instead of the textbook `ikj` reload-and-store of the output
///   row on every `k`;
/// * otherwise, and for the columns left over, the textbook `ikj` loop,
///   which wins on narrow/sparse operands (adjacency propagation).
#[inline(always)]
fn kernel_bitwise_body<const W: usize>(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    if n == 1 {
        for (o, i) in out.iter_mut().zip(0..m) {
            let mut acc = 0.0f32;
            for (&av, &bv) in a[i * k..(i + 1) * k].iter().zip(rhs) {
                if av != 0.0 {
                    acc += av * bv;
                }
            }
            *o = acc;
        }
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let j = bitwise_blocks::<W>(a_row, rhs, n, out_row, 0);
        let j = bitwise_blocks::<16>(a_row, rhs, n, out_row, j);
        if j < n {
            let tail = &mut out_row[j..];
            tail.fill(0.0); // the tail accumulates in place
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &rhs[kk * n + j..kk * n + n];
                for (o, &bv) in tail.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// `B`-column register blocks of one output row, from column `j` for as
/// long as a whole block fits; returns the first column left uncovered.
#[inline(always)]
fn bitwise_blocks<const B: usize>(a_row: &[f32], rhs: &[f32], n: usize, out_row: &mut [f32], mut j: usize) -> usize {
    while j + B <= n {
        let mut acc = [0.0f32; B];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue; // adjacency matrices are sparse in practice
            }
            let b = &rhs[kk * n + j..kk * n + j + B];
            for (acc_t, &b_t) in acc.iter_mut().zip(b) {
                *acc_t += av * b_t;
            }
        }
        out_row[j..j + B].copy_from_slice(&acc);
        j += B;
    }
    j
}

/// [`kernel_bitwise_body`] at 64-column blocks, compiled with AVX2 — and
/// deliberately not `fma` — enabled.
///
/// # Safety
/// The CPU must support AVX2 (checked by the dispatcher).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_bitwise_avx2(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    kernel_bitwise_body::<64>(a, m, k, rhs, n, out);
}

/// The vector extensions the matmul dispatchers select on, detected once.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Cpu {
    avx2: bool,
    fma: bool,
    avx512f: bool,
}

#[cfg(target_arch = "x86_64")]
fn cpu() -> Cpu {
    static CPU: std::sync::OnceLock<Cpu> = std::sync::OnceLock::new();
    *CPU.get_or_init(|| Cpu {
        avx2: std::is_x86_feature_detected!("avx2"),
        fma: std::is_x86_feature_detected!("fma"),
        avx512f: std::is_x86_feature_detected!("avx512f"),
    })
}

/// One multiply-accumulate step, abstracted so the fast kernel body can
/// be monomorphized twice: [`FusedMac`] for the AVX2+FMA wrapper (where
/// `mul_add` lowers to a single `vfmadd` instruction) and [`PlainMac`]
/// for the portable fallback (where a bare `mul_add` without hardware
/// FMA would lower to a slow `fmaf` libcall — the separate-multiply form
/// keeps the fallback autovectorizable).
///
/// This must be a trait, not a `cfg!(target_feature)` branch inside the
/// body: `cfg!` resolves at the *helper's* compile time, before inlining,
/// so it would never observe the caller's `#[target_feature]` context.
trait MulAcc {
    fn mac(a: f32, b: f32, c: f32) -> f32;
}

enum FusedMac {}
enum PlainMac {}

impl MulAcc for FusedMac {
    #[inline(always)]
    fn mac(a: f32, b: f32, c: f32) -> f32 {
        a.mul_add(b, c)
    }
}

impl MulAcc for PlainMac {
    #[inline(always)]
    fn mac(a: f32, b: f32, c: f32) -> f32 {
        c + a * b
    }
}

/// Blocked-reduction dot product: 8 independent accumulator lanes over
/// the length of the row, combined pairwise at the end. Branchless (no
/// zero-skip) so the compiler can keep the lanes in one vector register.
#[inline(always)]
fn fast_dot<M: MulAcc>(row: &[f32], col: &[f32]) -> f32 {
    const L: usize = 8;
    let mut acc = [0.0f32; L];
    for (a8, b8) in row.chunks_exact(L).zip(col.chunks_exact(L)) {
        for ((acc_t, &av), &bv) in acc.iter_mut().zip(a8).zip(b8) {
            *acc_t = M::mac(av, bv, *acc_t);
        }
    }
    let rem = row.len() - row.len() % L;
    let mut tail = 0.0f32;
    for (&av, &bv) in row[rem..].iter().zip(&col[rem..]) {
        tail = M::mac(av, bv, tail);
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Fast-kernel inner body for `RB` consecutive output rows starting at
/// `i0`: 16-column register blocks whose accumulators survive the whole
/// `k` loop, with each load of `rhs`'s row chunk shared across the `RB`
/// accumulator streams. Branchless, FMA-contracted via `M`.
#[inline(always)]
fn fast_block_rows<M: MulAcc, const RB: usize, const JB: usize>(
    a: &[f32],
    k: usize,
    i0: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let chunks = if n >= JB { n - n % JB } else { 0 };
    let mut j = 0;
    while j < chunks {
        let mut acc = [[0.0f32; JB]; RB];
        for kk in 0..k {
            let b = &rhs[kk * n + j..kk * n + j + JB];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = a[(i0 + r) * k + kk];
                for (acc_rt, &b_t) in acc_r.iter_mut().zip(b) {
                    *acc_rt = M::mac(av, b_t, *acc_rt);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[(i0 + r) * n + j..(i0 + r) * n + j + JB].copy_from_slice(acc_r);
        }
        j += JB;
    }
    if j < n {
        for r in 0..RB {
            let row = i0 + r;
            let tail = &mut out[row * n + j..(row + 1) * n];
            tail.fill(0.0); // the tail accumulates in place
            for kk in 0..k {
                let av = a[row * k + kk];
                let b_row = &rhs[kk * n + j..kk * n + n];
                for (o, &bv) in tail.iter_mut().zip(b_row) {
                    *o = M::mac(av, bv, *o);
                }
            }
        }
    }
}

/// The fast-math kernel body (`a` is `m×k`, `rhs` is `k×n`, `out` is
/// `m×n`): blocked-reduction dots for columns, 4-row × 16-column register
/// blocking otherwise. Generic over the multiply-accumulate so the same
/// body serves both the FMA and the portable dispatch arms.
#[inline(always)]
fn kernel_fast<M: MulAcc>(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    if n == 1 {
        for (o, i) in out.iter_mut().zip(0..m) {
            *o = fast_dot::<M>(&a[i * k..(i + 1) * k], &rhs[..k]);
        }
        return;
    }
    let mut i = 0;
    while i + 4 <= m {
        fast_block_rows::<M, 4, 16>(a, k, i, rhs, n, out);
        i += 4;
    }
    while i < m {
        fast_block_rows::<M, 1, 16>(a, k, i, rhs, n, out);
        i += 1;
    }
}

/// [`kernel_fast`] reshaped for 512-bit vectors: 8-row × 32-column
/// register blocks (16 zmm accumulators under AVX-512). Output-identical
/// to [`kernel_fast`] for the same `M` — the row/column blocking never
/// changes any single output's `k`-accumulation order — so dispatch
/// width is invisible to the tolerance and row-restriction contracts.
#[inline(always)]
fn kernel_fast_wide<M: MulAcc>(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    if n < 32 {
        // Narrow outputs would fall entirely into the scalar column tail;
        // the 16-column shape covers them with full vector blocks.
        kernel_fast::<M>(a, m, k, rhs, n, out);
        return;
    }
    let mut i = 0;
    while i + 8 <= m {
        fast_block_rows::<M, 8, 32>(a, k, i, rhs, n, out);
        i += 8;
    }
    while i + 4 <= m {
        fast_block_rows::<M, 4, 32>(a, k, i, rhs, n, out);
        i += 4;
    }
    while i < m {
        fast_block_rows::<M, 1, 32>(a, k, i, rhs, n, out);
        i += 1;
    }
}

/// [`kernel_fast`] compiled with AVX2+FMA enabled: the generic body
/// inlines here and its `mul_add`s contract to `vfmadd` instructions.
///
/// # Safety
/// The CPU must support AVX2 and FMA (checked by the dispatcher).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_fast_avx2(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    kernel_fast::<FusedMac>(a, m, k, rhs, n, out);
}

/// [`kernel_fast_wide`] compiled with AVX-512F enabled: the 32-column
/// blocks vectorize to zmm registers with `vfmadd` contraction.
///
/// # Safety
/// The CPU must support AVX-512F (checked by the dispatcher; AVX-512F
/// implies AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn kernel_fast_avx512(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    kernel_fast_wide::<FusedMac>(a, m, k, rhs, n, out);
}

/// Runtime-dispatched fast kernel: AVX-512F when the CPU has it, then
/// AVX2+FMA, portable blocked-reduction otherwise (detected once, shared
/// with [`kernel_bitwise`]). All three arms of one `MulAcc` flavour
/// produce identical outputs; only FMA-vs-separate rounding distinguishes
/// the portable arm.
fn kernel_fast_dispatch(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        let cpu = cpu();
        if cpu.avx512f {
            // SAFETY: the detection above proves avx512f is available.
            unsafe { kernel_fast_avx512(a, m, k, rhs, n, out) };
            return;
        }
        if cpu.avx2 && cpu.fma {
            // SAFETY: the detection above proves avx2+fma are available.
            unsafe { kernel_fast_avx2(a, m, k, rhs, n, out) };
            return;
        }
    }
    kernel_fast::<PlainMac>(a, m, k, rhs, n, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_accessors() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(Matrix::zeros(2, 3).sum(), 0.0);
        assert_eq!(Matrix::ones(2, 3).sum(), 6.0);
        assert_eq!(Matrix::full(2, 2, 0.5).sum(), 2.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.sub(&b), Matrix::from_rows(&[&[-2.0, -6.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c, a.add(&b));
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier_uniform(64, 64, &mut rng);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= a));
        assert!(m.data().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn scalar_accessor() {
        assert_eq!(Matrix::full(1, 1, 3.5).scalar(), 3.5);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn scalar_rejects_non_1x1() {
        Matrix::zeros(2, 1).scalar();
    }

    #[test]
    fn storage_bytes_counts_parameters() {
        assert_eq!(Matrix::zeros(8, 4).storage_bytes(), 128);
    }

    #[test]
    fn matmul_into_reuses_and_matches() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::zeros(7, 9); // wrong shape: must be reshaped
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // A second multiply into the same buffer must not accumulate.
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        assert_eq!(out, a.matmul_reference(&b));
    }

    /// Every bitwise arm this host can run — the portable 16-column body,
    /// the AVX2 64-column body when detected, and the dispatcher — against
    /// the naive reference, bit for bit. The widths cross every split of a
    /// row into 64-blocks, 16-blocks and tail (87 = 64 + 16 + 7); `a`
    /// carries exact zeros (the skip) and negative values.
    #[test]
    fn every_bitwise_arm_matches_reference_bit_for_bit() {
        type Kernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);
        let mut arms: Vec<(&str, Kernel)> =
            vec![("portable-16", kernel_bitwise_body::<16>), ("dispatch", kernel_bitwise)];
        #[cfg(target_arch = "x86_64")]
        if cpu().avx2 {
            // SAFETY: avx2 was just detected.
            arms.push(("avx2-64", |a, m, k, rhs, n, out| unsafe { kernel_bitwise_avx2(a, m, k, rhs, n, out) }));
        }
        let mut rng = StdRng::seed_from_u64(16);
        for n in [1usize, 7, 15, 16, 17, 63, 64, 65, 80, 87, 128, 256] {
            for m in [1usize, 5, 16] {
                for k in [1usize, 7, 64] {
                    let a =
                        Matrix::from_fn(m, k, |_, _| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-2.0f32..2.0) });
                    let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-2.0f32..2.0));
                    let naive = a.matmul_reference(&b);
                    for (name, kernel) in &arms {
                        let mut out = vec![7.5f32; m * n]; // dirty: every cell must be overwritten
                        kernel(a.data(), m, k, b.data(), n, &mut out);
                        assert_eq!(out, naive.data(), "{name}: {m}x{k} @ {k}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn reshape_in_place_zeroes_and_resizes() {
        let mut m = Matrix::full(3, 3, 7.0);
        m.reshape_in_place(2, 4);
        assert_eq!(m.shape(), (2, 4));
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn in_place_ops_match_allocating_forms() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let b = Matrix::from_rows(&[&[0.25, 1.5], &[-1.0, 2.0]]);
        let mut c = a.clone();
        c.sub_assign(&b);
        assert_eq!(c, a.sub(&b));

        let mut r = a.clone();
        r.relu_in_place();
        assert_eq!(r, a.map(|x| x.max(0.0)));

        let mut l = a.clone();
        l.leaky_relu_in_place(0.2);
        assert_eq!(l, a.map(|x| if x > 0.0 { x } else { 0.2 * x }));

        let bias = Matrix::from_rows(&[&[10.0, -10.0]]);
        let mut ab = a.clone();
        ab.add_bias_row_assign(&bias);
        assert_eq!(ab, Matrix::from_fn(2, 2, |r, c| a.get(r, c) + bias.get(0, c)));

        let col = Matrix::from_rows(&[&[2.0], &[-1.0]]);
        let mut mc = a.clone();
        mc.mul_col_broadcast_assign(&col);
        assert_eq!(mc, Matrix::from_fn(2, 2, |r, c| a.get(r, c) * col.get(r, 0)));
    }
}
