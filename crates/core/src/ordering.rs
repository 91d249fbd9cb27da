//! Plugging the learned policy into the matching pipeline.
//!
//! [`RlQvoOrdering`] implements [`rlqvo_matching::OrderingMethod`], so the
//! evaluation harness runs RL-QVO through the *identical* filter +
//! enumeration code as every baseline — the paper's fairness requirement.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlqvo_gnn::{GraphTensors, InferMath};
use rlqvo_graph::{Graph, VertexId};
use rlqvo_matching::{Candidates, OrderingMethod};
use rlqvo_rl::Categorical;

use crate::env::OrderingEnv;
use crate::features::{FeatureExtractor, FeatureScaling};
use crate::policy::{PolicyNetwork, PreparedPolicy};

/// Inference-time ordering driven by a trained policy.
///
/// Evaluation uses the greedy argmax of the masked distribution
/// (deterministic); construct with [`RlQvoOrdering::sampling`] to sample
/// instead (training-style exploration, useful in tests).
pub struct RlQvoOrdering<'m> {
    policy: &'m PolicyNetwork,
    scaling: FeatureScaling,
    random_features: bool,
    feature_seed: u64,
    sample_seed: Option<u64>,
    math: InferMath,
}

impl<'m> RlQvoOrdering<'m> {
    /// Greedy (deterministic) inference ordering.
    pub fn new(policy: &'m PolicyNetwork, scaling: FeatureScaling, random_features: bool, feature_seed: u64) -> Self {
        RlQvoOrdering { policy, scaling, random_features, feature_seed, sample_seed: None, math: InferMath::Bitwise }
    }

    /// Sampling variant: actions drawn from the masked distribution.
    pub fn sampling(mut self, seed: u64) -> Self {
        self.sample_seed = Some(seed);
        self
    }

    /// Selects the inference math mode. The default `Bitwise` keeps the
    /// bit-for-bit contract against the tape reference; `Fast` opts into
    /// the FMA/blocked-reduction kernels (tolerance-bounded, so produced
    /// orders may differ on near-tied logits — the cache key reflects
    /// this).
    pub fn with_math(mut self, math: InferMath) -> Self {
        self.math = math;
        self
    }

    fn extractor(&self, q: &Graph, g: &Graph) -> FeatureExtractor {
        if self.random_features {
            FeatureExtractor::new_random(q, self.feature_seed)
        } else {
            FeatureExtractor::new(q, g, self.scaling)
        }
    }

    /// Runs one ordering episode on the tape-free hot path. Exposed
    /// separately from the trait so the trainer can reuse it.
    ///
    /// Per-query work happens once up front ([`GraphTensors`], the
    /// feature extractor, a [`PreparedPolicy`] scratch); per step the loop
    /// performs zero tape construction, zero parameter binding, and no
    /// heap allocation — the feature matrix is updated incrementally
    /// ([`FeatureExtractor::apply_step`]), the mask buffer is reused, and
    /// only the action-space vertices are scored
    /// ([`PreparedPolicy::action_probs`]). Output is bitwise identical to
    /// [`RlQvoOrdering::run_episode_reference`] (pinned in
    /// `tests/infer_parity.rs`).
    pub fn run_episode(&self, q: &Graph, g: &Graph) -> Vec<VertexId> {
        self.episode(&mut self.policy.prepare_with(self.math), q, g)
    }

    /// Orders a batch of queries, one [`RlQvoOrdering::run_episode`] after
    /// the other over one shared [`PreparedPolicy`] (one warm scratch for
    /// the whole batch). Returns one order per query, in input position;
    /// each is exactly what `run_episode` produces for that query alone.
    /// Stacking the episodes into one tall forward was measured slower
    /// than this loop once single-query inference stopped being
    /// latency-bound, and is gone.
    pub fn order_many(&self, queries: &[&Graph], g: &Graph) -> Vec<Vec<VertexId>> {
        let mut prepared = self.policy.prepare_with(self.math);
        queries.iter().map(|q| self.episode(&mut prepared, q, g)).collect()
    }

    fn episode(&self, prepared: &mut PreparedPolicy<'_>, q: &Graph, g: &Graph) -> Vec<VertexId> {
        let fx = self.extractor(q, g);
        let gt = GraphTensors::of(q);
        let mut rng = self.sample_seed.map(StdRng::seed_from_u64);
        let mut env = OrderingEnv::new(q);
        let mut feats = rlqvo_tensor::Matrix::zeros(1, 1);
        fx.write_features_at(1, env.ordered_flags(), &mut feats);
        let mut mask: Vec<bool> = Vec::new();
        while !env.done() {
            env.action_mask_into(&mut mask);
            // |AS| = 1 short-circuit (paper §III-D): no network pass.
            let action = match OrderingEnv::forced_in(&mask) {
                Some(forced) => forced,
                None => {
                    let probs = prepared.action_probs(&gt, &feats, &mask);
                    match &mut rng {
                        // Sampling (training-style exploration) allocates
                        // a Categorical; greedy inference stays on the
                        // allocation-free argmax.
                        Some(r) => Categorical::new(probs.to_vec()).sample(r) as VertexId,
                        None => greedy_argmax(probs) as VertexId,
                    }
                }
            };
            env.apply_with_mask(action, &mask);
            fx.apply_step(env.step_number(), action, &mut feats);
        }
        env.into_order()
    }

    /// The original tape-based episode — one throwaway [`Tape`] and a
    /// full feature rebuild per step — kept as the differential reference
    /// for [`RlQvoOrdering::run_episode`].
    ///
    /// [`Tape`]: rlqvo_tensor::Tape
    pub fn run_episode_reference(&self, q: &Graph, g: &Graph) -> Vec<VertexId> {
        let fx = self.extractor(q, g);
        let gt = GraphTensors::of(q);
        let mut rng = self.sample_seed.map(StdRng::seed_from_u64);
        let mut env = OrderingEnv::new(q);
        while !env.done() {
            if let Some(forced) = env.forced_action() {
                env.apply(forced);
                continue;
            }
            let feats = fx.features_at(env.step_number(), env.ordered_flags());
            let mask = env.action_mask();
            let out = self.policy.forward(&gt, &feats, &mask);
            let dist = Categorical::new(out.probs);
            let action = match &mut rng {
                Some(r) => dist.sample(r),
                None => dist.argmax(),
            };
            env.apply(action as VertexId);
        }
        env.into_order()
    }
}

/// Index of the most probable action — [`Categorical::argmax`]'s exact
/// semantics (both delegate to [`rlqvo_rl::argmax_lowest_index`]),
/// computed straight off the shared probability buffer with no
/// distribution allocation.
fn greedy_argmax(probs: &[f32]) -> usize {
    rlqvo_rl::argmax_lowest_index(probs)
}

impl OrderingMethod for RlQvoOrdering<'_> {
    fn name(&self) -> &str {
        "RL-QVO"
    }

    fn order(&self, q: &Graph, g: &Graph, _cand: &Candidates) -> Vec<VertexId> {
        self.run_episode(q, g)
    }

    /// Folds in every configuration knob *except* the policy weights —
    /// those cannot become a string, so an
    /// [`OrderCache`][rlqvo_matching::OrderCache] serving this method
    /// must be scoped to one model (the cache's documented contract).
    /// Non-RIF features depend on every [`FeatureScaling`] field, so the
    /// scaling goes into the key too (RIF ignores it — there the seed is
    /// what matters). Sampling variants are keyed by seed: a seeded
    /// sampler is still deterministic per (seed, query).
    fn cache_key(&self) -> String {
        let mut key = String::from("RL-QVO");
        if self.random_features {
            key.push_str(&format!("/rif{}", self.feature_seed));
        } else {
            let s = &self.scaling;
            key.push_str(&format!(
                "/a{};{};{};n{}",
                s.alpha_degree,
                s.alpha_d,
                s.alpha_l,
                if s.normalize { 1 } else { 0 }
            ));
        }
        if let Some(seed) = self.sample_seed {
            key.push_str(&format!("/sample{seed}"));
        }
        // Fast math may legitimately pick a different vertex on near-tied
        // logits, so fast and bitwise orders must never share a cache slot.
        if self.math.is_fast() {
            key.push_str("/fast");
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlqvo_gnn::GnnKind;
    use rlqvo_graph::GraphBuilder;
    use rlqvo_matching::{connected_prefix_ok, CandidateFilter, LdfFilter};

    fn case() -> (Graph, Graph) {
        let mut qb = GraphBuilder::new(2);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(0);
        let d = qb.add_vertex(1);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        qb.add_edge(c, d);
        qb.add_edge(a, d);
        let q = qb.build();
        let mut gb = GraphBuilder::new(2);
        for i in 0..8u32 {
            gb.add_vertex(i % 2);
        }
        for i in 0..8u32 {
            gb.add_edge(i, (i + 1) % 8);
        }
        gb.add_edge(0, 4);
        (q, gb.build())
    }

    #[test]
    fn produces_connected_permutation() {
        let (q, g) = case();
        let policy = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 1);
        let ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0);
        let cand = LdfFilter.filter(&q, &g);
        let order = ordering.order(&q, &g, &cand);
        assert_eq!(order.len(), 4);
        assert!(connected_prefix_ok(&q, &order), "{order:?}");
    }

    #[test]
    fn greedy_inference_is_deterministic() {
        let (q, g) = case();
        let policy = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 2);
        let ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0);
        assert_eq!(ordering.run_episode(&q, &g), ordering.run_episode(&q, &g));
    }

    #[test]
    fn sampling_explores() {
        let (q, g) = case();
        let policy = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 3);
        // Across many seeds, sampling must produce at least two distinct
        // orders (an untrained policy is near-uniform).
        let mut seen = std::collections::HashSet::new();
        for seed in 0..10 {
            let ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0).sampling(seed);
            seen.insert(ordering.run_episode(&q, &g));
        }
        assert!(seen.len() >= 2, "sampling produced a single order across seeds");
    }

    #[test]
    fn cache_keys_separate_every_ordering_configuration() {
        let policy = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 5);
        let base = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0);
        // Different feature scaling ⇒ different features ⇒ potentially
        // different orders: must never share a cached order.
        let literal = RlQvoOrdering::new(&policy, FeatureScaling::paper_literal(), false, 0);
        assert_ne!(base.cache_key(), literal.cache_key());
        let alpha =
            RlQvoOrdering::new(&policy, FeatureScaling { alpha_degree: 2.0, ..FeatureScaling::default() }, false, 0);
        assert_ne!(base.cache_key(), alpha.cache_key());
        // RIF mode keys by seed (scaling is ignored there).
        let rif1 = RlQvoOrdering::new(&policy, FeatureScaling::default(), true, 1);
        let rif2 = RlQvoOrdering::new(&policy, FeatureScaling::default(), true, 2);
        assert_ne!(rif1.cache_key(), rif2.cache_key());
        assert_ne!(base.cache_key(), rif1.cache_key());
        // Sampling variants key by seed; same config keys equal.
        let sampled = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0).sampling(7);
        assert_ne!(base.cache_key(), sampled.cache_key());
        let same = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0);
        assert_eq!(base.cache_key(), same.cache_key());
        // Fast math keys separately from bitwise; Bitwise is the default.
        let fast = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0).with_math(InferMath::Fast);
        assert_ne!(base.cache_key(), fast.cache_key());
        let bitwise = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0).with_math(InferMath::Bitwise);
        assert_eq!(base.cache_key(), bitwise.cache_key());
    }

    #[test]
    fn order_many_matches_one_at_a_time() {
        let (q, g) = case();
        let mut qb = GraphBuilder::new(2);
        for i in 0..5u32 {
            qb.add_vertex(i % 2);
        }
        for i in 0..4u32 {
            qb.add_edge(i, i + 1);
        }
        let q2 = qb.build();
        let policy = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 6);
        let ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0);
        let batched = ordering.order_many(&[&q, &q2, &q], &g);
        assert_eq!(batched[0], ordering.run_episode(&q, &g));
        assert_eq!(batched[1], ordering.run_episode(&q2, &g));
        assert_eq!(batched[2], batched[0]);
    }

    #[test]
    fn rif_mode_runs() {
        let (q, g) = case();
        let policy = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 4);
        let ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), true, 11);
        let order = ordering.run_episode(&q, &g);
        assert!(connected_prefix_ok(&q, &order));
    }
}
