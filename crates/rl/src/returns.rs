//! Reward aggregation.

/// The paper's episode objective (Eq. 2): `R_q = Σ_t γ^t R_t`, weighting
/// *early* ordering decisions more ("the starting nodes in the order are
/// usually more important than the trailing nodes").
pub fn decayed_episode_return(rewards: &[f32], gamma: f32) -> f32 {
    rewards.iter().enumerate().map(|(t, &r)| gamma.powi(t as i32 + 1) * r).sum()
}

/// Whitens values to zero mean / unit variance (no-op on constant or
/// singleton inputs). Stabilizes PPO given the enumeration reward's heavy
/// tails.
pub fn whiten(values: &[f32]) -> Vec<f32> {
    if values.len() < 2 {
        return values.to_vec();
    }
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let std = var.sqrt();
    if std < 1e-6 {
        return values.iter().map(|v| v - mean).collect();
    }
    values.iter().map(|v| (v - mean) / std).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_return_matches_eq2() {
        // Σ γ^t R_t with t starting at 1.
        let g = 0.9f32;
        let r = decayed_episode_return(&[2.0, 1.0], g);
        assert!((r - (g * 2.0 + g * g * 1.0)).abs() < 1e-6);
    }

    #[test]
    fn whiten_normalizes() {
        let w = whiten(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f32 = w.iter().sum::<f32>() / 4.0;
        let var: f32 = w.iter().map(|x| x * x).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn whiten_degenerate_inputs() {
        assert_eq!(whiten(&[5.0]), vec![5.0]);
        assert_eq!(whiten(&[2.0, 2.0, 2.0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(whiten(&[]), Vec::<f32>::new());
    }
}
