//! The top-level RL-QVO model: configuration + policy + training entry
//! points.

use rlqvo_gnn::GnnKind;
use rlqvo_graph::{Graph, VertexId};

use crate::features::{FeatureScaling, FEATURE_DIM};
use crate::ordering::RlQvoOrdering;
use crate::policy::PolicyNetwork;
use crate::rewards::RewardConfig;
use crate::trainer::{TrainReport, Trainer};

/// Every knob of the model, with the paper's experiment settings (§IV-A)
/// as defaults. The harness scales `epochs` and the training enumeration
/// budget down and prints what it used.
#[derive(Clone, Copy, Debug)]
pub struct RlQvoConfig {
    /// GNN family (paper default: GCN; the others are Fig. 7 ablations).
    pub gnn_kind: GnnKind,
    /// Number of GNN layers (paper default 2; Fig. 10 sweeps 1–4).
    pub num_layers: usize,
    /// GNN output dimension (paper default 64; Fig. 8 sweeps 16–256).
    pub hidden_dim: usize,
    /// Dropout rate during training (paper: 0.2).
    pub dropout: f32,
    /// Adam learning rate (paper: 1e-3).
    pub learning_rate: f32,
    /// Training epochs (paper: 100; 10 for incremental fine-tuning).
    pub epochs: usize,
    /// Incremental fine-tuning epochs (paper: 10).
    pub incremental_epochs: usize,
    /// PPO clip radius ε.
    pub clip_epsilon: f32,
    /// PPO re-optimization passes per collected batch.
    pub update_epochs: usize,
    /// Steps per PPO update pass (uniform subsample of the collected
    /// batch; 0 = full batch). Keeps the update cost independent of the
    /// rollout volume — standard PPO minibatching. The update's memory does
    /// not grow with it: a pass records its steps one fixed-size window at
    /// a time (see [`crate::trainer`]).
    pub minibatch_steps: usize,
    /// Global gradient-norm clip (0 disables).
    pub max_grad_norm: f32,
    /// Reward design knobs (β_val, β_h, γ, ...).
    pub reward: RewardConfig,
    /// Feature scaling factors (paper: all 1).
    pub scaling: FeatureScaling,
    /// `RL-QVO-RIF` ablation: random input features.
    pub random_features: bool,
    /// Sampled ordering episodes per training query per epoch. More
    /// rollouts sharpen the per-query advantage baseline (the rollout's
    /// return minus the query's mean return), which matters at the small
    /// epoch counts this harness runs; 1 recovers the paper's literal
    /// one-episode-per-query collection.
    pub rollouts_per_query: usize,
    /// Enumeration-count budget per reward evaluation during training.
    /// Deterministic stand-in for the paper's 500 s training time limit.
    pub train_enum_budget: u64,
    /// Match cap during training reward evaluation (paper: 10^5).
    pub train_max_matches: u64,
    /// Master seed (weights, sampling, dropout).
    pub seed: u64,
}

impl Default for RlQvoConfig {
    fn default() -> Self {
        RlQvoConfig {
            gnn_kind: GnnKind::Gcn,
            num_layers: 2,
            hidden_dim: 64,
            dropout: 0.2,
            learning_rate: 1e-3,
            epochs: 100,
            incremental_epochs: 10,
            clip_epsilon: 0.2,
            update_epochs: 4,
            minibatch_steps: 768,
            max_grad_norm: 5.0,
            reward: RewardConfig::default(),
            scaling: FeatureScaling::default(),
            random_features: false,
            rollouts_per_query: 4,
            train_enum_budget: 500_000,
            train_max_matches: 100_000,
            seed: 0x51_D7,
        }
    }
}

impl RlQvoConfig {
    /// The experiment-harness recipe: compensates the drastically smaller
    /// training budgets (tens of queries / epochs instead of the paper's
    /// hundreds) with a higher learning rate, no dropout, more rollouts
    /// per query, and a reduced match cap during reward evaluation — the
    /// training-cost lever the paper itself names in §III-H ("reducing
    /// number of enumerated matches in the training phase"). Architecture
    /// and reward design are unchanged from the paper.
    pub fn harness() -> Self {
        RlQvoConfig {
            learning_rate: 1e-2,
            dropout: 0.0,
            rollouts_per_query: 5,
            train_max_matches: 10_000,
            train_enum_budget: 300_000,
            ..Default::default()
        }
    }

    /// A configuration sized for fast tests and examples: a small network
    /// and few epochs. Semantics are unchanged.
    pub fn fast() -> Self {
        RlQvoConfig {
            hidden_dim: 32,
            epochs: 8,
            incremental_epochs: 3,
            update_epochs: 2,
            minibatch_steps: 256,
            rollouts_per_query: 2,
            train_enum_budget: 4_000,
            train_max_matches: 1_000,
            ..Default::default()
        }
    }
}

/// A (possibly trained) RL-QVO model.
///
/// Debug output shows the architecture, not the weights.
pub struct RlQvo {
    /// The configuration the model was built with.
    pub config: RlQvoConfig,
    pub(crate) policy: PolicyNetwork,
}

impl std::fmt::Debug for RlQvo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RlQvo")
            .field("gnn", &self.policy.kind().name())
            .field("layers", &self.policy.num_layers())
            .field("hidden_dim", &self.policy.hidden_dim())
            .field("param_bytes", &self.storage_bytes())
            .finish()
    }
}

impl RlQvo {
    /// Fresh model with Xavier-initialized weights.
    pub fn new(config: RlQvoConfig) -> Self {
        let policy =
            PolicyNetwork::new(config.gnn_kind, config.num_layers, FEATURE_DIM, config.hidden_dim, config.seed);
        RlQvo { config, policy }
    }

    /// Wraps an existing policy (model loading).
    pub(crate) fn from_policy(config: RlQvoConfig, policy: PolicyNetwork) -> Self {
        RlQvo { config, policy }
    }

    /// Read access to the policy network.
    pub fn policy(&self) -> &PolicyNetwork {
        &self.policy
    }

    /// Trains on `queries` against data graph `g` for `config.epochs`
    /// epochs (paper §III-E).
    pub fn train(&mut self, queries: &[Graph], g: &Graph) -> TrainReport {
        let epochs = self.config.epochs;
        Trainer::new(self.config).train(&mut self.policy, queries, g, epochs)
    }

    /// Incremental training (paper §III-F): assumes `self` was already
    /// trained on some query set; fine-tunes on `queries` for
    /// `config.incremental_epochs` epochs.
    pub fn train_incremental(&mut self, queries: &[Graph], g: &Graph) -> TrainReport {
        let epochs = self.config.incremental_epochs;
        Trainer::new(self.config).train(&mut self.policy, queries, g, epochs)
    }

    /// The ordering strategy to plug into a
    /// [`rlqvo_matching::Pipeline`] (greedy inference).
    pub fn ordering(&self) -> RlQvoOrdering<'_> {
        RlQvoOrdering::new(&self.policy, self.config.scaling, self.config.random_features, self.config.seed)
    }

    /// Convenience: order one query directly.
    pub fn order_query(&self, q: &Graph, g: &Graph) -> Vec<VertexId> {
        self.ordering().run_episode(q, g)
    }

    /// Parameter bytes (paper Table IV "Model Space").
    pub fn storage_bytes(&self) -> usize {
        self.policy.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlqvo_datasets::Dataset;
    use rlqvo_matching::connected_prefix_ok;

    #[test]
    fn default_config_matches_paper() {
        let c = RlQvoConfig::default();
        assert_eq!(c.num_layers, 2);
        assert_eq!(c.hidden_dim, 64);
        assert_eq!(c.epochs, 100);
        assert_eq!(c.incremental_epochs, 10);
        assert!((c.learning_rate - 1e-3).abs() < 1e-9);
        assert!((c.dropout - 0.2).abs() < 1e-9);
        assert_eq!(c.gnn_kind, GnnKind::Gcn);
    }

    #[test]
    fn untrained_model_still_orders() {
        let g = Dataset::Yeast.load_scaled(400);
        let set = rlqvo_datasets::build_query_set(&g, 6, 2, 7);
        let model = RlQvo::new(RlQvoConfig::fast());
        for q in &set.queries {
            let order = model.order_query(q, &g);
            assert_eq!(order.len(), 6);
            assert!(connected_prefix_ok(q, &order));
        }
    }

    #[test]
    fn model_space_is_paper_order_of_magnitude() {
        // Paper Table IV: 186.2 kB at default settings.
        let model = RlQvo::new(RlQvoConfig::default());
        let kb = model.storage_bytes() as f64 / 1024.0;
        assert!(kb > 20.0 && kb < 400.0, "{kb} kB");
    }
}
