//! Differential pin for the matmul kernels: the production `ikj` kernel
//! (contiguous rows of `rhs` and the output, shared by `matmul` and the
//! tape-free `matmul_into`) against the naive `i-j-k` reference
//! (`matmul_reference`, strided column reads). Per output element both
//! accumulate over ascending `k` with the same zero-skip, so for finite
//! inputs the results are bitwise identical — exactly what the tape vs
//! tape-free contract needs from the layer beneath it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlqvo_tensor::Matrix;

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, sparse: bool) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if sparse && rng.gen_bool(0.4) {
            0.0 // exercise the zero-skip branch
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matmul` is bitwise identical to the naive ijk reference on
    /// random shapes, dense and sparse. The column range deliberately
    /// spans all three production paths: `n = 1` (sequential dot),
    /// `n < 16` (textbook ikj), and `n ≥ 16` up to multi-block widths
    /// with and without a tail (16-column register blocks).
    #[test]
    fn ikj_kernel_matches_naive_reference(seed in 0u64..10_000, m in 1usize..12, k in 1usize..12, n in 1usize..40, sparse in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, k, sparse);
        let b = random_matrix(&mut rng, k, n, sparse);
        let fast = a.matmul(&b);
        let naive = a.matmul_reference(&b);
        prop_assert_eq!(&fast, &naive, "kernels disagree on {}x{} @ {}x{}", m, k, k, n);

        // matmul_into into a dirty, wrongly-shaped buffer agrees too.
        let mut out = random_matrix(&mut rng, 3, 5, false);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(&out, &naive);
    }

    /// The tape's matmul op rides the same kernel: its forward value is
    /// bitwise the reference result as well.
    #[test]
    fn tape_matmul_rides_the_same_kernel(seed in 0u64..10_000, m in 1usize..8, k in 1usize..8, n in 1usize..36) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        let a = random_matrix(&mut rng, m, k, true);
        let b = random_matrix(&mut rng, k, n, true);
        let t = rlqvo_tensor::Tape::new();
        let y = t.matmul(t.leaf(a.clone()), t.leaf(b.clone()));
        prop_assert_eq!(t.value(y), a.matmul_reference(&b));
    }

    /// `transpose` (a slice loop) is bitwise the `from_fn` definition on
    /// random shapes, zero-row and zero-column ones included, with signed
    /// zeros in the data.
    #[test]
    fn transpose_matches_its_definition(seed in 0u64..10_000, m in 0usize..12, n in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A05);
        let a = Matrix::from_fn(m, n, |_, _| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        });
        let t = a.transpose();
        let want = Matrix::from_fn(n, m, |r, c| a.get(c, r));
        prop_assert_eq!(t.shape(), (n, m));
        let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&t), bits(&want), "transpose of {}x{}", m, n);
    }
}

/// The zero extents the property above may not draw: `0 × n` (what
/// `rows_of` produces for an empty row set), `m × 0` and `0 × 0`.
#[test]
fn transpose_handles_zero_extents() {
    for (m, n) in [(0, 0), (0, 5), (5, 0), (1, 0), (0, 1)] {
        let t = Matrix::zeros(m, n).transpose();
        assert_eq!(t.shape(), (n, m));
        assert!(t.data().is_empty());
    }
}
