//! Tolerance pin for the opt-in fast-math kernels.
//!
//! `InferMath::Fast` trades the bitwise differential contract for FMA and
//! reordered (blocked) reductions, so its outputs cannot be compared with
//! `==`. What it *does* promise, and what this suite pins:
//!
//! * every output element of the fast matmul stays within a documented
//!   error budget of `matmul_reference`: `1e-5 × Σ_k |a_ik|·|b_kj|`
//!   (relative to the *magnitude* sum, so cancellation-heavy rows are
//!   covered honestly rather than hidden behind a `|reference|`-relative
//!   bound that blows up when the true value is near zero);
//! * the budget holds on adversarial large-magnitude cancellation rows,
//!   both through the runtime-dispatched kernel and the pinned portable
//!   code path;
//! * `Bitwise` mode is untouched by the fast-kernel work: still byte
//!   identical to the naive reference;
//! * on realistic logit gaps, softmax-then-argmax agrees between the fast
//!   pipeline (fast matmul + reciprocal-multiply softmax) and the bitwise
//!   one — the property the greedy ordering path actually relies on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlqvo_tensor::infer::{masked_softmax_slice_into, masked_softmax_slice_into_fast};
use rlqvo_tensor::Matrix;

/// The documented fast-math bound: per output element,
/// `|fast − reference| ≤ REL_BOUND × Σ_k |a_ik|·|b_kj|`.
const REL_BOUND: f32 = 1e-5;

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
}

/// Magnitude-relative error budget for element `(i, j)` (tiny absolute
/// floor so all-zero rows don't demand exact equality of rounding noise).
fn budget(a: &Matrix, b: &Matrix, i: usize, j: usize) -> f32 {
    let mut mag = 0.0f64;
    for k in 0..a.cols() {
        mag += f64::from(a.get(i, k).abs()) * f64::from(b.get(k, j).abs());
    }
    (f64::from(REL_BOUND) * mag) as f32 + 1e-12
}

/// Worst `(error / budget, i, j)` over all elements of `fast` vs `naive`.
fn worst_budget_ratio(a: &Matrix, b: &Matrix, fast: &Matrix, naive: &Matrix) -> (f32, usize, usize) {
    let mut worst = (0.0f32, 0, 0);
    for i in 0..naive.rows() {
        for j in 0..naive.cols() {
            let err = (fast.get(i, j) - naive.get(i, j)).abs();
            let ratio = err / budget(a, b, i, j);
            if ratio > worst.0 {
                worst = (ratio, i, j);
            }
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both fast-kernel dispatch arms (runtime-detected and pinned
    /// portable) stay within the documented budget of the naive
    /// reference across the kernel's shape paths (`n = 1` dot,
    /// register-blocked wide, column tails, row-block tails).
    #[test]
    fn fast_kernel_stays_within_relative_error_budget(seed in 0u64..10_000, m in 1usize..12, k in 1usize..48, n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, k, 2.0);
        let b = random_matrix(&mut rng, k, n, 2.0);
        let naive = a.matmul_reference(&b);

        let mut fast = random_matrix(&mut rng, 3, 5, 1.0); // dirty, wrong shape
        a.matmul_into_fast(&b, &mut fast);
        let (ratio, i, j) = worst_budget_ratio(&a, &b, &fast, &naive);
        prop_assert!(ratio <= 1.0, "dispatched kernel over budget at ({}, {}): ratio {}", i, j, ratio);

        let mut portable = Matrix::zeros(1, 1);
        a.matmul_into_fast_portable(&b, &mut portable);
        let (ratio, i, j) = worst_budget_ratio(&a, &b, &portable, &naive);
        prop_assert!(ratio <= 1.0, "portable kernel over budget at ({}, {}): ratio {}", i, j, ratio);
    }

    /// Worst-case conditioning: rows built from large-magnitude
    /// cancelling pairs `(x, -x)` with `x` up to `1e6`, so the true dot
    /// products are tiny relative to the magnitude sums. The
    /// magnitude-relative budget must still hold — this is the input
    /// family where an `|reference|`-relative bound would be meaningless.
    #[test]
    fn fast_kernel_survives_large_magnitude_cancellation(seed in 0u64..10_000, m in 1usize..8, pairs in 1usize..24, n in 1usize..36) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let k = pairs * 2;
        let mut a = Matrix::zeros(m, k);
        for i in 0..m {
            for t in 0..pairs {
                let x = rng.gen_range(1.0e4f32..1.0e6);
                a.set(i, 2 * t, x);
                a.set(i, 2 * t + 1, -x * rng.gen_range(0.999f32..1.001));
            }
        }
        let b = random_matrix(&mut rng, k, n, 2.0);
        let naive = a.matmul_reference(&b);

        let mut fast = Matrix::zeros(1, 1);
        a.matmul_into_fast(&b, &mut fast);
        let (ratio, i, j) = worst_budget_ratio(&a, &b, &fast, &naive);
        prop_assert!(ratio <= 1.0, "dispatched kernel over budget at ({}, {}): ratio {}", i, j, ratio);

        let mut portable = Matrix::zeros(1, 1);
        a.matmul_into_fast_portable(&b, &mut portable);
        let (ratio, i, j) = worst_budget_ratio(&a, &b, &portable, &naive);
        prop_assert!(ratio <= 1.0, "portable kernel over budget at ({}, {}): ratio {}", i, j, ratio);
    }

    /// `Bitwise` keeps its teeth: the production kernel is still
    /// byte-identical to the naive reference next to the fast-math one.
    #[test]
    fn bitwise_mode_remains_byte_identical(seed in 0u64..10_000, m in 1usize..10, k in 1usize..10, n in 1usize..36) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB17);
        let a = random_matrix(&mut rng, m, k, 2.0);
        let b = random_matrix(&mut rng, k, n, 2.0);
        prop_assert_eq!(&a.matmul(&b), &a.matmul_reference(&b));
    }

    /// End-to-end argmax agreement on realistic logit gaps: score a
    /// random hidden state through both pipelines (bitwise matmul +
    /// bitwise softmax vs fast matmul + reciprocal-multiply softmax).
    /// Whenever the masked top-2 score gap clears 1e-2 — orders of
    /// magnitude above the kernel budget at these scales — the greedy
    /// argmax must agree, and the probabilities stay close.
    #[test]
    fn fast_softmax_keeps_argmax_on_realistic_logit_gaps(seed in 0u64..10_000, n in 2usize..24, d in 1usize..48) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50F7);
        let h = random_matrix(&mut rng, n, d, 2.0);
        let w = random_matrix(&mut rng, d, 1, 2.0);
        let mut mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
        mask[rng.gen_range(0..n)] = true; // keep at least one entry

        let naive = h.matmul_reference(&w);
        let mut masked: Vec<(f32, usize)> =
            naive.data().iter().enumerate().filter(|(i, _)| mask[*i]).map(|(i, &s)| (s, i)).collect();
        masked.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
        if masked.len() >= 2 && masked[0].0 - masked[1].0 < 1e-2 {
            return Ok(()); // ambiguous logits: argmax agreement is not promised
        }

        let fast_scores = h.matmul_fast(&w);
        let (mut p_ref, mut p_fast) = (Vec::new(), Vec::new());
        masked_softmax_slice_into(naive.data(), &mask, &mut p_ref);
        masked_softmax_slice_into_fast(fast_scores.data(), &mask, &mut p_fast);

        let argmax = |p: &[f32]| {
            p.iter().enumerate().fold((0usize, f32::NEG_INFINITY), |best, (i, &x)| if x > best.1 { (i, x) } else { best }).0
        };
        prop_assert_eq!(argmax(&p_ref), argmax(&p_fast), "argmax diverged");
        for (i, (&r, &f)) in p_ref.iter().zip(&p_fast).enumerate() {
            prop_assert!((r - f).abs() <= 1e-4, "probability {} drifted: {} vs {}", i, r, f);
        }
    }
}
