//! The RL-QVO policy network (paper §III-D, Eq. 3–4):
//! `L` GNN layers embed the query vertices, a two-layer MLP scores each
//! vertex, scores outside the action space are masked out, and a softmax
//! yields the selection distribution.

use std::borrow::Cow;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlqvo_gnn::{build_layer, GnnKind, GnnLayer, GraphTensors, InferMath, InferScratch, MlpHead};
use rlqvo_tensor::{Matrix, Tape, Var};

/// Inference output for one ordering step.
#[derive(Clone, Debug)]
pub struct PolicyOutput {
    /// Masked softmax probabilities per query vertex (zeros off-mask).
    pub probs: Vec<f32>,
    /// Argmax of the *unmasked* scores — the validate reward checks
    /// whether this lands inside the action space (§III-C).
    pub raw_argmax: usize,
}

/// Argmax of an `n×1` score column with the deterministic lowest-index
/// tie-break: among equal scores the smallest row index wins. This is
/// load-bearing for reproducible orders — both the tape and tape-free
/// forward paths route through it, and it is pinned by tests. The
/// comparator itself lives in [`rlqvo_rl::argmax_lowest_index`], shared
/// with [`rlqvo_rl::Categorical::argmax`] so the two can never drift.
pub fn raw_argmax_of(scores: &Matrix) -> usize {
    assert_eq!(scores.cols(), 1, "raw_argmax_of expects an n×1 score column");
    rlqvo_rl::argmax_lowest_index(scores.data())
}

/// Tape handles for one bound forward pass.
pub struct PolicyBinding {
    layer_vars: Vec<Vec<Var>>,
    head_vars: Vec<Var>,
}

impl PolicyBinding {
    /// All parameter handles flattened in [`PolicyNetwork::params`] order.
    pub fn flat(&self) -> Vec<Var> {
        self.layer_vars.iter().flatten().chain(self.head_vars.iter()).copied().collect()
    }
}

/// The GNN + MLP policy `π_θ`.
pub struct PolicyNetwork {
    layers: Vec<Box<dyn GnnLayer>>,
    head: MlpHead,
    kind: GnnKind,
    feature_dim: usize,
    hidden_dim: usize,
}

impl PolicyNetwork {
    /// Builds the paper's default topology: `num_layers` GNN layers of
    /// width `hidden_dim` (64 in the paper) on `feature_dim`-dimensional
    /// inputs, then an MLP head with hidden width `hidden_dim`.
    pub fn new(kind: GnnKind, num_layers: usize, feature_dim: usize, hidden_dim: usize, seed: u64) -> Self {
        assert!(num_layers >= 1, "at least one layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn GnnLayer>> = Vec::with_capacity(num_layers);
        let mut in_dim = feature_dim;
        for _ in 0..num_layers {
            layers.push(build_layer(kind, in_dim, hidden_dim, &mut rng));
            in_dim = hidden_dim;
        }
        let head = MlpHead::new(hidden_dim, hidden_dim, &mut rng);
        PolicyNetwork { layers, head, kind, feature_dim, hidden_dim }
    }

    /// GNN family used.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Number of GNN layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// GNN output dimension (the paper's "output dimension" knob, Fig. 8).
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// All parameters (layers in order, then the MLP head).
    pub fn params(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.params()).chain(self.head.params()).collect()
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = Vec::new();
        for l in &mut self.layers {
            out.extend(l.params_mut());
        }
        out.extend(self.head.params_mut());
        out
    }

    /// Parameter shapes (optimizer construction).
    pub fn param_shapes(&self) -> Vec<(usize, usize)> {
        self.params().iter().map(|p| p.shape()).collect()
    }

    /// Bytes of parameter storage — the paper's Table IV "Model Space".
    pub fn storage_bytes(&self) -> usize {
        self.params().iter().map(|p| p.storage_bytes()).sum()
    }

    /// Binds every parameter onto `t` (leaves in [`Self::params`] order).
    pub fn bind(&self, t: &Tape) -> PolicyBinding {
        PolicyBinding { layer_vars: self.layers.iter().map(|l| l.bind(t)).collect(), head_vars: self.head.bind(t) }
    }

    /// The training forward on an existing tape: the masked softmax of
    /// Eq. 4 as a compact `|AS|×1` column, row `r` the probability of the
    /// `r`-th vertex inside `mask` (ascending). That softmax reads no score
    /// outside the action space, so the front GNN layers run full width
    /// (their outputs feed every row's aggregation) and the last layer and
    /// the head run on the action-space rows only ([`GnnLayer::forward`]);
    /// the probabilities, and every parameter gradient of a loss on them,
    /// are bit for bit those of the every-row forward behind
    /// [`PolicyNetwork::forward`] (pinned in `tests/train_rows.rs`).
    ///
    /// `dropout` (probability, rng) applies inverted dropout after every
    /// GNN layer. Its mask is drawn for every vertex and then cut to the
    /// rows computed, so the rng advances exactly as in the every-row
    /// forward.
    ///
    /// `features` is bound as a constant *by reference*
    /// ([`Tape::constant_arc`]): it takes no gradient, and the trainer
    /// replays stored per-step feature matrices across PPO passes without
    /// one copy per step.
    pub fn forward_on_tape(
        &self,
        t: &Tape,
        binding: &PolicyBinding,
        gt: &GraphTensors,
        features: Arc<Matrix>,
        mask: &[bool],
        dropout: Option<(f32, &mut StdRng)>,
    ) -> Var {
        let rows: Vec<usize> = mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i).collect();
        let scores = self.scores_on_tape(t, binding, gt, features, Some(&rows), dropout);
        t.masked_softmax_col(scores, &vec![true; rows.len()])
    }

    /// Advances `rng` past the dropout draws of one
    /// [`Self::forward_on_tape`] on an `n`-vertex query without running it:
    /// one draw per vertex per output column per GNN layer, the masks'
    /// full `n×c` draws. The trainer uses it to find the
    /// rng state at the start of each window of an update pass.
    pub fn skip_dropout(&self, n: usize, rng: &mut StdRng) {
        for layer in &self.layers {
            for _ in 0..n * layer.out_dim() {
                let _: f32 = rng.gen();
            }
        }
    }

    /// The score column on the tape for the vertices in `rows` (`None`:
    /// every vertex), rows restricting the last GNN layer and the head.
    fn scores_on_tape(
        &self,
        t: &Tape,
        binding: &PolicyBinding,
        gt: &GraphTensors,
        features: Arc<Matrix>,
        rows: Option<&[usize]>,
        mut dropout: Option<(f32, &mut StdRng)>,
    ) -> Var {
        let n = features.rows();
        let mut h = t.constant_arc(features);
        let last = self.layers.len() - 1;
        for (i, (layer, vars)) in self.layers.iter().zip(&binding.layer_vars).enumerate() {
            let rows = if i == last { rows } else { None };
            h = layer.forward(t, gt, vars, h, rows);
            if let Some((p, rng)) = dropout.as_mut() {
                let keep = 1.0 - *p;
                let cols = h.shape().1;
                let m = Matrix::from_fn(n, cols, |_, _| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 });
                let m = match rows {
                    Some(rows) => Matrix::from_fn(rows.len(), cols, |r, c| m.get(rows[r], c)),
                    None => m,
                };
                h = t.mul_const(h, &m);
            }
        }
        self.head.forward(t, &binding.head_vars, h)
    }

    /// Tape-based inference forward: throwaway tape, no dropout, every
    /// vertex scored. This is the *reference* path —
    /// [`PolicyNetwork::prepare`] is the serving path (no tape
    /// construction, no parameter binding, no per-step allocation),
    /// property-tested bitwise identical to this one.
    pub fn forward(&self, gt: &GraphTensors, features: &Matrix, mask: &[bool]) -> PolicyOutput {
        let t = Tape::new();
        let binding = self.bind(&t);
        let scores = self.scores_on_tape(&t, &binding, gt, Arc::new(features.clone()), None, None);
        let probs = t.masked_softmax_col(scores, mask);
        let pv = t.value(probs);
        let sv = t.value(scores);
        let raw_argmax = raw_argmax_of(&sv);
        PolicyOutput { probs: (0..pv.rows()).map(|r| pv.get(r, 0)).collect(), raw_argmax }
    }

    /// Readies this network for tape-free inference: the returned
    /// [`PreparedPolicy`] owns a scratch arena and a reusable probability
    /// buffer, so every [`PreparedPolicy::forward`] call after the first
    /// performs zero heap allocation. Uses the default bitwise math
    /// contract; see [`PolicyNetwork::prepare_with`] for the opt-in
    /// fast-math kernels.
    pub fn prepare(&self) -> PreparedPolicy<'_> {
        self.prepare_with(InferMath::default())
    }

    /// [`PolicyNetwork::prepare`] with an explicit [`InferMath`] mode.
    /// `InferMath::Bitwise` keeps the bit-for-bit differential contract
    /// against [`PolicyNetwork::forward`]; `InferMath::Fast` opts into the
    /// FMA/blocked-reduction kernels (tolerance-tested, argmax-preserving
    /// on realistic logit gaps — see `rlqvo-tensor`'s
    /// `fastmath_tolerance` suite for the documented bound).
    pub fn prepare_with(&self, math: InferMath) -> PreparedPolicy<'_> {
        PreparedPolicy { policy: self, scratch: InferScratch::with_math(math), probs: Vec::new(), rows: Vec::new() }
    }
}

/// One tape-free forward result, borrowing [`PreparedPolicy`]'s reusable
/// buffers. Field semantics match [`PolicyOutput`].
#[derive(Debug)]
pub struct PolicyStep<'a> {
    /// Masked softmax probabilities per query vertex (zeros off-mask).
    pub probs: &'a [f32],
    /// Argmax of the *unmasked* scores (validate-reward probe).
    pub raw_argmax: usize,
}

/// The inference-configured view of a [`PolicyNetwork`]: parameters are
/// used in place (no tape, no re-binding), intermediates live in a
/// recycled [`InferScratch`] arena, and the output probability vector is
/// reused across steps. Bitwise identical to [`PolicyNetwork::forward`]
/// (pinned per GNN kind in `tests/infer_parity.rs`).
///
/// One `PreparedPolicy` serves one inference stream; create one per
/// worker when ordering queries concurrently (the underlying network is
/// shared, the scratch is not).
pub struct PreparedPolicy<'p> {
    policy: &'p PolicyNetwork,
    scratch: InferScratch,
    probs: Vec<f32>,
    /// The action-space rows of the last [`PreparedPolicy::action_probs`].
    rows: Vec<usize>,
}

impl PreparedPolicy<'_> {
    /// The network this view serves.
    pub fn policy(&self) -> &PolicyNetwork {
        self.policy
    }

    /// The math mode this view was prepared with.
    pub fn math(&self) -> InferMath {
        self.scratch.math()
    }

    /// Tape-free forward pass for one ordering step: every vertex is
    /// scored, so [`PolicyStep::raw_argmax`] (the trainer's
    /// validate-reward probe) is available.
    pub fn forward(&mut self, gt: &GraphTensors, features: &Matrix, mask: &[bool]) -> PolicyStep<'_> {
        let scores = self.score(gt, features, mask, false);
        let raw_argmax = raw_argmax_of(&scores);
        self.scratch.put(scores);
        PolicyStep { probs: &self.probs, raw_argmax }
    }

    /// The masked probabilities of [`PreparedPolicy::forward`], bit for
    /// bit, scoring only the vertices inside `mask` — what greedy and
    /// sampled inference consume. The masked softmax never reads an
    /// off-mask score, so the last GNN layer and the head run on the
    /// action-space rows alone (`|AS|` of `n`; pinned against the full
    /// forward in `tests/infer_parity.rs`).
    pub fn action_probs(&mut self, gt: &GraphTensors, features: &Matrix, mask: &[bool]) -> &[f32] {
        let scores = self.score(gt, features, mask, true);
        self.scratch.put(scores);
        &self.probs
    }

    /// The one scoring routine behind both entry points: the GNN stack and
    /// the head, then the masked softmax into `self.probs`. Returns the
    /// pooled `n×1` score column. With `action_rows_only` the last GNN
    /// layer ([`GnnLayer::infer_rows`]) and the head see the mask's rows
    /// only and the column's off-mask entries are unspecified; layers in
    /// front of the last stay full width (their outputs feed every row's
    /// aggregation).
    fn score(&mut self, gt: &GraphTensors, features: &Matrix, mask: &[bool], action_rows_only: bool) -> Matrix {
        let PreparedPolicy { policy, scratch, probs, rows } = self;
        let rows = action_rows_only.then(|| {
            rows.clear();
            rows.extend(mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i));
            &rows[..]
        });
        let (last, front) = policy.layers.split_last().expect("at least one layer");
        let mut h = Cow::Borrowed(features);
        for layer in front {
            let next = layer.infer(gt, scratch, &h);
            scratch.put_rows(std::mem::replace(&mut h, Cow::Owned(next)));
        }
        let embedded = last.infer_rows(gt, scratch, &h, rows);
        scratch.put_rows(h);
        let mut scores = policy.head.infer(scratch, &embedded);
        scratch.put(embedded);
        if let Some(rows) = rows {
            // Back to vertex positions for the masked softmax.
            let mut column = scratch.take(mask.len(), 1);
            for (&v, &s) in rows.iter().zip(scores.data()) {
                column.data_mut()[v] = s;
            }
            scratch.put(std::mem::replace(&mut scores, column));
        }
        scratch.math().masked_softmax_col_into(&scores, mask, probs);
        scores
    }

    /// [`PreparedPolicy::forward`] materialized as an owned
    /// [`PolicyOutput`] (allocates; convenience for callers that need to
    /// store the result).
    pub fn forward_owned(&mut self, gt: &GraphTensors, features: &Matrix, mask: &[bool]) -> PolicyOutput {
        let step = self.forward(gt, features, mask);
        PolicyOutput { probs: step.probs.to_vec(), raw_argmax: step.raw_argmax }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlqvo_graph::GraphBuilder;

    fn tensors_and_features() -> (GraphTensors, Matrix) {
        let mut b = GraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let q = b.build();
        let gt = GraphTensors::of(&q);
        let f = Matrix::from_fn(4, 7, |r, c| ((r * 7 + c) as f32 * 0.21).sin());
        (gt, f)
    }

    #[test]
    fn output_is_masked_distribution() {
        let (gt, f) = tensors_and_features();
        let net = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 1);
        let mask = [true, false, true, false];
        let out = net.forward(&gt, &f, &mask);
        assert_eq!(out.probs.len(), 4);
        assert_eq!(out.probs[1], 0.0);
        assert_eq!(out.probs[3], 0.0);
        let sum: f32 = out.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(out.raw_argmax < 4);
    }

    #[test]
    fn parameter_count_matches_shapes() {
        let net = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 64, 2);
        // GCN layer = W + b; ×2 layers; MLP head = W1,b1,W2,b2.
        assert_eq!(net.params().len(), 2 * 2 + 4);
        assert_eq!(net.param_shapes()[0], (7, 64));
        // Paper Table IV: model space is fixed (~186 kB at d=64); ours is
        // the same order of magnitude.
        let bytes = net.storage_bytes();
        assert!(bytes > 10_000 && bytes < 300_000, "{bytes}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (gt, f) = tensors_and_features();
        let a = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 7);
        let b = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 7);
        let mask = [true; 4];
        assert_eq!(a.forward(&gt, &f, &mask).probs, b.forward(&gt, &f, &mask).probs);
    }

    #[test]
    fn every_gnn_kind_runs() {
        let (gt, f) = tensors_and_features();
        for kind in
            [GnnKind::Gcn, GnnKind::Gat, GnnKind::GraphSage, GnnKind::GraphConv, GnnKind::LeConv, GnnKind::Dense]
        {
            let net = PolicyNetwork::new(kind, 2, 7, 8, 3);
            let out = net.forward(&gt, &f, &[true; 4]);
            assert!(out.probs.iter().all(|p| p.is_finite()), "{}", kind.name());
            assert_eq!(net.kind(), kind);
        }
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let (gt, f) = tensors_and_features();
        let net = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 8, 4);
        let t = Tape::new();
        let binding = net.bind(&t);
        let probs = net.forward_on_tape(&t, &binding, &gt, Arc::new(f.clone()), &[true; 4], None);
        let loss = t.ln(t.pick(probs, 1, 0));
        let grads = t.backward(loss);
        for (i, v) in binding.flat().iter().enumerate() {
            assert!(grads.get(*v).is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn dropout_changes_training_pass_but_not_inference() {
        let (gt, f) = tensors_and_features();
        let net = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 5);
        let mask = [true; 4];
        let a = net.forward(&gt, &f, &mask).probs;
        let b = net.forward(&gt, &f, &mask).probs;
        assert_eq!(a, b, "inference is deterministic");

        let t = Tape::new();
        let binding = net.bind(&t);
        let mut rng = StdRng::seed_from_u64(9);
        let p1 = net.forward_on_tape(&t, &binding, &gt, Arc::new(f.clone()), &mask, Some((0.5, &mut rng)));
        let p2 = net.forward_on_tape(&t, &binding, &gt, Arc::new(f.clone()), &mask, Some((0.5, &mut rng)));
        assert_ne!(t.value(p1), t.value(p2), "dropout masks differ across passes");
    }

    #[test]
    fn skip_dropout_advances_the_rng_like_a_training_forward() {
        let (gt, f) = tensors_and_features();
        for (kind, layers) in [(GnnKind::Gcn, 2), (GnnKind::Gat, 3), (GnnKind::LeConv, 1)] {
            let net = PolicyNetwork::new(kind, layers, 7, 16, 5);
            let t = Tape::new();
            let binding = net.bind(&t);
            let mut ran = StdRng::seed_from_u64(9);
            net.forward_on_tape(
                &t,
                &binding,
                &gt,
                Arc::new(f.clone()),
                &[true, false, true, false],
                Some((0.2, &mut ran)),
            );
            let mut skipped = StdRng::seed_from_u64(9);
            net.skip_dropout(f.rows(), &mut skipped);
            assert_eq!(ran.gen::<u64>(), skipped.gen::<u64>(), "{kind:?} x{layers}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_zero_layers() {
        PolicyNetwork::new(GnnKind::Gcn, 0, 7, 8, 1);
    }

    #[test]
    fn raw_argmax_breaks_ties_toward_the_lowest_index() {
        // Unique maximum: position wins regardless of index.
        assert_eq!(raw_argmax_of(&Matrix::from_rows(&[&[0.1], &[0.9], &[0.3]])), 1);
        // Two-way tie at the maximum: the LOWER index must win.
        assert_eq!(raw_argmax_of(&Matrix::from_rows(&[&[1.0], &[2.0], &[2.0]])), 1);
        // Tie at the front, later non-max entries don't matter.
        assert_eq!(raw_argmax_of(&Matrix::from_rows(&[&[5.0], &[5.0], &[1.0]])), 0);
        // All equal: index 0.
        assert_eq!(raw_argmax_of(&Matrix::from_rows(&[&[0.5], &[0.5], &[0.5], &[0.5]])), 0);
        // Negative plateau.
        assert_eq!(raw_argmax_of(&Matrix::from_rows(&[&[-3.0], &[-1.0], &[-1.0]])), 1);
        // Single entry.
        assert_eq!(raw_argmax_of(&Matrix::from_rows(&[&[42.0]])), 0);
    }

    #[test]
    fn forward_argmax_is_deterministic_under_all_equal_scores() {
        // Zeroing every parameter collapses all vertex scores to b2 (a
        // constant), so raw_argmax exercises the tie-break on a full
        // plateau through the real forward pass: index 0 must win, on
        // both the tape and the tape-free path.
        let (gt, f) = tensors_and_features();
        let mut net = PolicyNetwork::new(GnnKind::Gcn, 2, 7, 16, 9);
        for p in net.params_mut() {
            let (r, c) = p.shape();
            *p = Matrix::zeros(r, c);
        }
        let out = net.forward(&gt, &f, &[true; 4]);
        assert_eq!(out.raw_argmax, 0, "plateau tie must resolve to the lowest index");
        let mut prepared = net.prepare();
        assert_eq!(prepared.forward(&gt, &f, &[true; 4]).raw_argmax, 0);
    }

    /// "No heap allocation after the first forward" with a row count that
    /// changes every step: the first forward of an episode scores all 16
    /// vertices, so it sizes every buffer the episode will ever need; from
    /// the second on the pool must neither grow a buffer nor gain one.
    #[test]
    fn scratch_pool_is_settled_after_the_second_forward_of_a_q16_episode() {
        use crate::{FeatureExtractor, OrderingEnv};
        let mut b = GraphBuilder::new(1);
        for _ in 0..36 {
            b.add_vertex(0);
        }
        for v in 0..36u32 {
            if v % 6 + 1 < 6 {
                b.add_edge(v, v + 1);
            }
            if v + 6 < 36 {
                b.add_edge(v, v + 6);
            }
        }
        let (q, _) = rlqvo_graph::extract_connected_subgraph(&b.build(), 16, &mut StdRng::seed_from_u64(16)).unwrap();
        let gt = GraphTensors::of(&q);
        let fx = FeatureExtractor::new_random(&q, 1);
        for kind in
            [GnnKind::Gcn, GnnKind::Gat, GnnKind::GraphSage, GnnKind::GraphConv, GnnKind::LeConv, GnnKind::Dense]
        {
            let net = PolicyNetwork::new(kind, 2, 7, 64, 3);
            let mut prepared = net.prepare();
            let mut env = OrderingEnv::new(&q);
            let mut pool = Vec::new(); // (buffers, capacity) after each forward
            let mut sizes = Vec::new();
            while !env.done() {
                let mask = env.action_mask();
                let action = OrderingEnv::forced_in(&mask).unwrap_or_else(|| {
                    let feats = fx.features_at(env.step_number(), env.ordered_flags());
                    let best = rlqvo_rl::argmax_lowest_index(prepared.action_probs(&gt, &feats, &mask)) as u32;
                    pool.push((prepared.scratch.pooled(), prepared.scratch.pooled_capacity()));
                    sizes.push(mask.iter().filter(|&&m| m).count());
                    best
                });
                env.apply(action);
            }
            assert!(sizes.len() > 4 && sizes[1..].windows(2).any(|w| w[0] < w[1]), "|AS| must vary: {sizes:?}");
            assert_eq!(
                pool[1],
                pool[pool.len() - 1],
                "{}: pool kept changing, |AS| = {sizes:?}: {pool:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn prepared_forward_matches_tape_forward_bitwise() {
        let (gt, f) = tensors_and_features();
        for kind in
            [GnnKind::Gcn, GnnKind::Gat, GnnKind::GraphSage, GnnKind::GraphConv, GnnKind::LeConv, GnnKind::Dense]
        {
            let net = PolicyNetwork::new(kind, 2, 7, 16, 8);
            let mask = [true, false, true, true];
            let tape = net.forward(&gt, &f, &mask);
            let mut prepared = net.prepare();
            for _ in 0..3 {
                // Repeated passes through the warmed scratch stay identical.
                let step = prepared.forward(&gt, &f, &mask);
                assert_eq!(step.probs, &tape.probs[..], "{}", kind.name());
                assert_eq!(step.raw_argmax, tape.raw_argmax, "{}", kind.name());
            }
        }
    }
}
