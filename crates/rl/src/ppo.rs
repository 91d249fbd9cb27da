//! The PPO clipped-surrogate objective as a tape expression.
//!
//! The paper (Eq. 6–7) maximizes
//! `J(θ) = Σ_t min(ρ_t · r_t(θ), clip(ρ_t, 1−ε, 1+ε) · r_t(θ))`
//! where `ρ_t = π_θ(a_t|s_t) / π_{θ'}(a_t|s_t)` and `θ'` is the sampling
//! policy from the previous epoch. This module contributes the per-step
//! surrogate node; the trainer sums the steps and runs `backward`.

use rlqvo_tensor::{Tape, Var};

/// Builds `-min(ρ·A, clip(ρ, 1−ε, 1+ε)·A)` for one step, as a `1×1` node.
///
/// * `logp_new` — `ln π_θ(a|s)` recomputed on the current tape;
/// * `logp_old` — `ln π_{θ'}(a|s)` recorded at sampling time (constant);
/// * `advantage` — the (whitened, decayed) return standing in for `r_t(θ)`.
///
/// The negation turns the paper's maximization into a loss for the
/// minimizing optimizers.
pub fn ppo_step_objective(t: &Tape, logp_new: Var, logp_old: f32, advantage: f32, epsilon: f32) -> Var {
    assert_eq!(logp_new.shape(), (1, 1), "logp must be scalar");
    let old = t.constant(rlqvo_tensor::Matrix::full(1, 1, logp_old));
    let ratio = t.exp(t.sub(logp_new, old));
    let unclipped = t.scale(ratio, advantage);
    let clipped = t.scale(t.clip(ratio, 1.0 - epsilon, 1.0 + epsilon), advantage);
    t.scale(t.min(unclipped, clipped), -1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlqvo_tensor::Matrix;

    /// A 2-action policy parameterized by one logit; checks PPO pushes the
    /// logit toward the advantaged action.
    fn logp_of_action(t: &Tape, theta: Var, action: usize) -> Var {
        // probs = softmax([theta, 0]); the 2x1 score vector is built by
        // multiplying the scalar theta with a [1; 0] selector column.
        let sel = t.leaf(Matrix::from_rows(&[&[1.0], &[0.0]]));
        let scores = t.matmul(sel, theta);
        let probs = t.masked_softmax_col(scores, &[true, true]);
        t.ln(t.pick(probs, action, 0))
    }

    #[test]
    fn ppo_increases_probability_of_advantaged_action() {
        let mut theta = Matrix::zeros(1, 1);
        for _ in 0..50 {
            let t = Tape::new();
            let th = t.leaf(theta.clone());
            let logp = logp_of_action(&t, th, 0);
            let logp_val = t.value(logp).scalar();
            let loss = ppo_step_objective(&t, logp, logp_val, 1.0, 0.2);
            let grads = t.backward(loss);
            if let Some(g) = grads.get(th) {
                theta.data_mut()[0] -= 0.5 * g.scalar();
            }
        }
        assert!(theta.scalar() > 0.2, "theta should rise, got {}", theta.scalar());
    }

    #[test]
    fn ppo_clipping_stops_gradient_when_ratio_large() {
        // logp_new - logp_old = ln 2 => ratio 2 > 1+eps -> min picks the
        // clipped branch whose gradient is zero (positive advantage).
        let t = Tape::new();
        let theta = t.leaf(Matrix::full(1, 1, std::f32::consts::LN_2));
        let loss = ppo_step_objective(&t, theta, 0.0, 1.0, 0.2);
        let grads = t.backward(loss);
        let g = grads.get(theta).map(|g| g.scalar()).unwrap_or(0.0);
        assert_eq!(g, 0.0, "clipped surrogate must cut the gradient");
    }

    #[test]
    fn ppo_negative_advantage_keeps_gradient_when_ratio_large() {
        // With A < 0 and ratio above 1+eps, min picks the *unclipped*
        // branch (more negative), so gradient still flows — the PPO
        // asymmetry that prevents runaway policies.
        let t = Tape::new();
        let theta = t.leaf(Matrix::full(1, 1, std::f32::consts::LN_2));
        let loss = ppo_step_objective(&t, theta, 0.0, -1.0, 0.2);
        let grads = t.backward(loss);
        let g = grads.get(theta).map(|g| g.scalar()).unwrap_or(0.0);
        assert!(g != 0.0, "unclipped branch must keep the gradient");
    }
}
