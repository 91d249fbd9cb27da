//! First-order optimizers over flat parameter lists.
//!
//! Parameters live outside the tape as plain [`Matrix`] values; a training
//! step builds a fresh tape, computes gradients with [`crate::Tape::backward`]
//! and hands `(params, grads)` to an optimizer.

use crate::matrix::Matrix;

/// Adam (Kingma & Ba, 2015), β = (0.9, 0.999); the paper trains with
/// learning rate `1e-3`.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam over parameters of `shapes` with learning rate `lr`.
    pub fn with_lr(shapes: &[(usize, usize)], lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
            v: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update over borrowed parameters (the shape model
    /// containers expose via `params_mut()`). `grads[i]` may be `None` when
    /// parameter `i` was unreached this step (e.g. a GNN layer skipped by
    /// `|AS| = 1` short-circuits); its moments still decay, matching
    /// PyTorch.
    ///
    /// # Panics
    /// If lengths or shapes disagree with construction.
    pub fn step_refs(&mut self, params: &mut [&mut Matrix], grads: &[Option<Matrix>]) {
        assert_eq!(params.len(), self.m.len(), "parameter count changed");
        assert_eq!(params.len(), grads.len(), "grad count mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for i in 0..params.len() {
            let zero = Matrix::zeros(params[i].rows(), params[i].cols());
            let g = grads[i].as_ref().unwrap_or(&zero);
            assert_eq!(g.shape(), params[i].shape(), "grad shape mismatch at {i}");
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for j in 0..g.data().len() {
                let gj = g.data()[j];
                m.data_mut()[j] = self.beta1 * m.data()[j] + (1.0 - self.beta1) * gj;
                v.data_mut()[j] = self.beta2 * v.data()[j] + (1.0 - self.beta2) * gj * gj;
                let mhat = m.data()[j] / bc1;
                let vhat = v.data()[j] / bc2;
                params[i].data_mut()[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Global-norm gradient clipping (stabilizes PPO on spiky enumeration
/// rewards). Returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut [Option<Matrix>], max_norm: f32) -> f32 {
    let total: f32 = grads.iter().flatten().map(|g| g.data().iter().map(|x| x * x).sum::<f32>()).sum::<f32>().sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for g in grads.iter_mut().flatten() {
            for x in g.data_mut() {
                *x *= scale;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = (x - 3)^2 must converge to 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut x = Matrix::full(1, 1, 0.0);
        let mut adam = Adam::with_lr(&[(1, 1)], 0.1);
        for _ in 0..300 {
            let grad = Matrix::full(1, 1, 2.0 * (x.scalar() - 3.0));
            adam.step_refs(&mut [&mut x], &[Some(grad)]);
        }
        assert!((x.scalar() - 3.0).abs() < 1e-2, "got {}", x.scalar());
    }

    #[test]
    fn missing_gradients_are_tolerated() {
        let (mut a, mut b) = (Matrix::full(1, 1, 1.0), Matrix::full(1, 1, 1.0));
        let mut adam = Adam::with_lr(&[(1, 1), (1, 1)], 1e-3);
        adam.step_refs(&mut [&mut a, &mut b], &[Some(Matrix::full(1, 1, 1.0)), None]);
        assert!(a.scalar() < 1.0, "updated param moved");
        assert_eq!(b.scalar(), 1.0, "missing grad leaves param untouched");
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let mut grads = vec![Some(Matrix::full(1, 2, 3.0)), Some(Matrix::full(1, 2, 4.0))];
        let norm = clip_global_norm(&mut grads, 1.0);
        assert!((norm - (9.0f32 * 2.0 + 16.0 * 2.0).sqrt()).abs() < 1e-5);
        let new_norm: f32 =
            grads.iter().flatten().map(|g| g.data().iter().map(|x| x * x).sum::<f32>()).sum::<f32>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_under_threshold() {
        let mut grads = vec![Some(Matrix::full(1, 1, 0.1))];
        clip_global_norm(&mut grads, 10.0);
        assert_eq!(grads[0].as_ref().unwrap().scalar(), 0.1);
    }
}
