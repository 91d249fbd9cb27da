//! Finite-difference gradient checking.
//!
//! Validates analytic gradients by perturbing each input element and
//! comparing the central difference `(f(x+h) − f(x−h)) / 2h` with the tape
//! gradient. Used by this crate's and the GNN crate's test suites.

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// Result of a gradient check: worst absolute and relative error.
#[derive(Clone, Copy, Debug)]
pub struct CheckReport {
    /// Largest |analytic − numeric|.
    pub max_abs_err: f32,
    /// Largest |analytic − numeric| / max(1, |numeric|).
    pub max_rel_err: f32,
}

impl CheckReport {
    /// True when both errors are below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err <= tol || self.max_rel_err <= tol
    }
}

/// Checks the gradient of `f` with respect to each matrix in `inputs`.
///
/// `f` receives a fresh tape plus one leaf per input and must return a
/// scalar (1×1) output node. Returns the worst error over all inputs and
/// elements. `h` around `1e-3` suits `f32`.
pub fn check_gradients(inputs: &[Matrix], h: f32, f: impl Fn(&Tape, &[Var]) -> Var) -> CheckReport {
    // Analytic gradients.
    let tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.leaf(m.clone())).collect();
    let out = f(&tape, &vars);
    let grads = tape.backward(out);
    let analytic: Vec<Matrix> = vars
        .iter()
        .zip(inputs)
        .map(|(v, m)| grads.get(*v).cloned().unwrap_or_else(|| Matrix::zeros(m.rows(), m.cols())))
        .collect();

    let eval = |xs: &[Matrix]| -> f32 {
        let t = Tape::new();
        let vs: Vec<Var> = xs.iter().map(|m| t.leaf(m.clone())).collect();
        t.value(f(&t, &vs)).scalar()
    };

    let mut max_abs_err = 0.0f32;
    let mut max_rel_err = 0.0f32;
    for (i, input) in inputs.iter().enumerate() {
        for j in 0..input.data().len() {
            let mut plus = inputs.to_vec();
            plus[i].data_mut()[j] += h;
            let mut minus = inputs.to_vec();
            minus[i].data_mut()[j] -= h;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * h);
            let got = analytic[i].data()[j];
            let abs = (got - numeric).abs();
            max_abs_err = max_abs_err.max(abs);
            max_rel_err = max_rel_err.max(abs / numeric.abs().max(1.0));
        }
    }
    CheckReport { max_abs_err, max_rel_err }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f32 = 2e-2;

    #[test]
    fn matmul_chain() {
        let a = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.3]]);
        let b = Matrix::from_rows(&[&[1.5, 0.2], &[-0.7, 1.1]]);
        let report = check_gradients(&[a, b], 1e-3, |t, vs| {
            let c = t.matmul(vs[0], vs[1]);
            t.sum(t.mul(c, c))
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn activations() {
        let x = Matrix::from_rows(&[&[0.5, -1.2, 2.0, -0.1]]);
        for op in ["relu", "leaky", "tanh", "exp"] {
            let report = check_gradients(std::slice::from_ref(&x), 1e-3, |t, vs| {
                let y = match op {
                    "relu" => t.relu(vs[0]),
                    "leaky" => t.leaky_relu(vs[0], 0.2),
                    "tanh" => t.tanh(vs[0]),
                    _ => t.exp(vs[0]),
                };
                t.sum(t.mul(y, y))
            });
            assert!(report.passes(TOL), "{op}: {report:?}");
        }
    }

    #[test]
    fn masked_softmax_entropy() {
        // The exact expression RL-QVO's entropy reward differentiates.
        let x = Matrix::from_rows(&[&[0.3], &[1.2], &[-0.5], &[0.9]]);
        let mask = [true, true, false, true];
        let report = check_gradients(&[x], 1e-3, |t, vs| {
            let p = t.masked_softmax_col(vs[0], &mask);
            let logp = t.ln(p);
            let neg_ent = t.sum(t.mul(p, logp));
            t.scale(neg_ent, -1.0)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn broadcast_ops() {
        let a = Matrix::from_rows(&[&[0.2], &[0.8], &[-0.4]]);
        let b = Matrix::from_rows(&[&[1.0], &[-0.6], &[0.3]]);
        let report = check_gradients(&[a, b], 1e-3, |t, vs| {
            let m = t.broadcast_add_col_row(vs[0], vs[1]);
            t.sum(t.mul(m, m))
        });
        assert!(report.passes(TOL), "{report:?}");

        let x = Matrix::from_rows(&[&[0.5, 1.0], &[-0.3, 0.7]]);
        let c = Matrix::from_rows(&[&[2.0], &[0.5]]);
        let report = check_gradients(&[x, c], 1e-3, |t, vs| {
            let y = t.mul_col_broadcast(vs[0], vs[1]);
            t.sum(t.mul(y, y))
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn bias_broadcast() {
        let x = Matrix::from_rows(&[&[0.5, 1.0], &[-0.3, 0.7]]);
        let b = Matrix::from_rows(&[&[0.1, -0.2]]);
        let report = check_gradients(&[x, b], 1e-3, |t, vs| {
            let y = t.add_bias_row(vs[0], vs[1]);
            t.sum(t.mul(y, y))
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn ppo_surrogate_shape() {
        // min(r·A, clip(r)·A) with A constant — smoke-check the PPO math.
        let logp = Matrix::from_rows(&[&[-1.0]]);
        let logp_old = Matrix::from_rows(&[&[-1.3]]);
        let report = check_gradients(&[logp, logp_old], 1e-3, |t, vs| {
            let ratio = t.exp(t.sub(vs[0], vs[1]));
            let adv = 2.0;
            let unclipped = t.scale(ratio, adv);
            let clipped = t.scale(t.clip(ratio, 0.8, 1.2), adv);
            t.min(unclipped, clipped)
        });
        assert!(report.passes(TOL), "{report:?}");
    }
}
