//! Differential pin: the PPO update's tape forward, which runs the last
//! GNN layer and the head on the action-space rows only, is bit for bit
//! the every-row forward it replaced.
//!
//! For every GNN family at 1, 2 and 3 layers, with dropout off and at 0.2
//! (both sides drawing from equally seeded rngs), at every non-forced step
//! of sampled Q8–Q16 episodes on the 500-vertex yeast analog:
//! * `PolicyNetwork::forward_on_tape`'s compact `|AS|×1` probabilities
//!   equal the every-row masked softmax at the action-space rows;
//! * every parameter gradient of the PPO step objective is bit-identical
//!   between the two forwards;
//! * both sides leave the dropout rng in the same state.
//!
//! The every-row reference is rebuilt here from the public layer API
//! (`build_layer`, `MlpHead`, `GnnLayer::forward` with `rows: None`), with
//! the same seed and construction order as `PolicyNetwork::new`.
//!
//! Two mutations must fail this file and `train_parity`:
//! * LEConv's two own-row consumers sharing one `gather_rows` (instead of
//!   one each, recorded right before its consumer) changes the order in
//!   which `h`'s gradient slot accumulates, and moves the ASAP gradients;
//! * drawing the last layer's dropout mask for the `|AS|` rows only
//!   (instead of for every vertex, then sliced) shifts the rng, and moves
//!   every dropout case.
//!
//! CI runs it in release too: the profile that trains the ledger's
//! models.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlqvo_core::features::FeatureScaling;
use rlqvo_core::{FeatureExtractor, OrderingEnv, PolicyNetwork};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_gnn::{build_layer, GnnKind, GnnLayer, GraphTensors, MlpHead};
use rlqvo_graph::Graph;
use rlqvo_rl::ppo_step_objective;
use rlqvo_tensor::{GradStore, Matrix, Tape, Var};

const KINDS: [GnnKind; 6] =
    [GnnKind::Gcn, GnnKind::Gat, GnnKind::GraphSage, GnnKind::GraphConv, GnnKind::LeConv, GnnKind::Dense];
const HIDDEN: usize = 64;
const EPSILON: f32 = 0.2;

/// The layers and head of `PolicyNetwork::new(kind, num_layers,
/// feature_dim, HIDDEN, seed)`, built in its order from its rng.
struct Reference {
    layers: Vec<Box<dyn GnnLayer>>,
    head: MlpHead,
}

impl Reference {
    fn new(kind: GnnKind, num_layers: usize, feature_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut in_dim = feature_dim;
        let layers = (0..num_layers)
            .map(|_| {
                let layer = build_layer(kind, in_dim, HIDDEN, &mut rng);
                in_dim = HIDDEN;
                layer
            })
            .collect();
        Reference { layers, head: MlpHead::new(HIDDEN, HIDDEN, &mut rng) }
    }

    fn params(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.params()).chain(self.head.params()).collect()
    }
}

/// What one side of the comparison produced for a step.
struct Step {
    /// Probability bits at the action-space rows, ascending.
    probs: Vec<u32>,
    /// Gradient bits per parameter, in `params` order.
    grads: Vec<Option<Vec<u32>>>,
    /// The dropout rng's next draw after the forward.
    rng_after: u64,
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// `-min(ρA, clip(ρ)A)` on `logp` with `logp_old` its own value (ρ = 1,
/// inside the clip, so the gradient reaches every parameter), backward.
fn ppo_grads(t: &Tape, logp: Var, advantage: f32, params: &[Var]) -> Vec<Option<Vec<u32>>> {
    let old = t.value(logp).scalar();
    let grads: GradStore = t.backward(ppo_step_objective(t, logp, old, advantage, EPSILON));
    params.iter().map(|v| grads.get(*v).map(bits)).collect()
}

fn dropout_mask(rng: &mut StdRng, p: f32, rows: usize, cols: usize) -> Matrix {
    let keep = 1.0 - p;
    Matrix::from_fn(rows, cols, |_, _| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
}

/// The every-row forward: every layer and the head on all `n` rows, the
/// masked softmax over the `n×1` score column.
#[allow(clippy::too_many_arguments)]
fn full_step(
    r: &Reference,
    gt: &GraphTensors,
    feats: &Arc<Matrix>,
    mask: &[bool],
    action: usize,
    advantage: f32,
    dropout: f32,
    seed: u64,
) -> Step {
    let t = Tape::new();
    let layer_vars: Vec<Vec<Var>> = r.layers.iter().map(|l| l.bind(&t)).collect();
    let head_vars = r.head.bind(&t);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = t.constant_arc(Arc::clone(feats));
    for (layer, vars) in r.layers.iter().zip(&layer_vars) {
        h = layer.forward(&t, gt, vars, h, None);
        if dropout > 0.0 {
            let (rows, cols) = h.shape();
            h = t.mul_const(h, &dropout_mask(&mut rng, dropout, rows, cols));
        }
    }
    let probs = t.masked_softmax_col(r.head.forward(&t, &head_vars, h), mask);
    let pv = t.value(probs);
    let logp = t.ln(t.pick(probs, action, 0));
    let params: Vec<Var> = layer_vars.into_iter().flatten().chain(head_vars).collect();
    Step {
        probs: (0..mask.len()).filter(|&i| mask[i]).map(|i| pv.get(i, 0).to_bits()).collect(),
        grads: ppo_grads(&t, logp, advantage, &params),
        rng_after: rng.gen(),
    }
}

/// The training forward: `forward_on_tape`'s compact column, the action
/// picked at its rank inside the mask.
#[allow(clippy::too_many_arguments)]
fn compact_step(
    policy: &PolicyNetwork,
    gt: &GraphTensors,
    feats: &Arc<Matrix>,
    mask: &[bool],
    action: usize,
    advantage: f32,
    dropout: f32,
    seed: u64,
) -> Step {
    let t = Tape::new();
    let binding = policy.bind(&t);
    let mut rng = StdRng::seed_from_u64(seed);
    let drop = (dropout > 0.0).then_some((dropout, &mut rng));
    let probs = policy.forward_on_tape(&t, &binding, gt, Arc::clone(feats), mask, drop);
    let rank = mask[..action].iter().filter(|&&m| m).count();
    let logp = t.ln(t.pick(probs, rank, 0));
    Step { probs: bits(&t.value(probs)), grads: ppo_grads(&t, logp, advantage, &binding.flat()), rng_after: rng.gen() }
}

fn yeast() -> &'static Graph {
    static G: std::sync::OnceLock<Graph> = std::sync::OnceLock::new();
    G.get_or_init(|| Dataset::Yeast.load_scaled(500))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn action_rows_forward_gives_the_every_row_probabilities_and_gradients(seed in 0u64..1000, size in 8usize..=16) {
        let g = yeast();
        let q = build_query_set(g, size, 1, seed).queries.remove(0);
        let gt = GraphTensors::of(&q);
        let fx = FeatureExtractor::new(&q, g, FeatureScaling::default());
        let feature_dim = fx.features_at(0, &vec![false; q.num_vertices()]).cols();
        for kind in KINDS {
            for num_layers in 1..=3 {
                for dropout in [0.0, 0.2] {
                    let policy = PolicyNetwork::new(kind, num_layers, feature_dim, HIDDEN, seed);
                    let reference = Reference::new(kind, num_layers, feature_dim, seed);
                    prop_assert_eq!(
                        policy.params().iter().map(|m| bits(m)).collect::<Vec<_>>(),
                        reference.params().iter().map(|m| bits(m)).collect::<Vec<_>>(),
                        "the reference must mirror PolicyNetwork::new"
                    );
                    let mut env = OrderingEnv::new(&q);
                    while !env.done() {
                        if let Some(forced) = env.forced_action() {
                            env.apply(forced);
                            continue;
                        }
                        let step = env.step_number();
                        let feats = Arc::new(fx.features_at(step, env.ordered_flags()));
                        let mask = env.action_mask();
                        let candidates: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
                        let action = candidates[(step * 5 + seed as usize) % candidates.len()];
                        let advantage = if step.is_multiple_of(2) { 0.7 } else { -0.4 };
                        let drop_seed = seed ^ ((step as u64) << 8);
                        let full = full_step(&reference, &gt, &feats, &mask, action, advantage, dropout, drop_seed);
                        let compact = compact_step(&policy, &gt, &feats, &mask, action, advantage, dropout, drop_seed);
                        let case = format!("{} x{num_layers} dropout {dropout} step {step} |AS| {}", kind.name(), candidates.len());
                        prop_assert!(full.grads.iter().all(Option::is_some), "{}: a parameter got no gradient", case);
                        prop_assert_eq!(&full.probs, &compact.probs, "{}: probabilities", case);
                        let moved: Vec<usize> = (0..full.grads.len()).filter(|&i| full.grads[i] != compact.grads[i]).collect();
                        prop_assert!(moved.is_empty(), "{}: gradients of parameters {:?} differ", case, moved);
                        prop_assert_eq!(full.rng_after, compact.rng_after, "{}: dropout rng", case);
                        env.apply(action as u32);
                    }
                }
            }
        }
    }
}
