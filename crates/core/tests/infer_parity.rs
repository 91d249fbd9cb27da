//! Differential pin: the tape-free inference path is *bitwise identical*
//! to the tape-based reference, per GNN layer kind and end to end.
//!
//! Four layers of the refactor are covered, each against its retained
//! reference implementation:
//! * `PreparedPolicy::forward` (scratch-arena kernels) vs
//!   `PolicyNetwork::forward` (throwaway tape) — probabilities and the
//!   raw argmax, for every GNN family, exact `f32` equality;
//! * `PreparedPolicy::action_probs` (last GNN layer and head on the
//!   action-space rows only) vs `PreparedPolicy::forward` (every row) —
//!   exact equality in both math modes, every GNN family and depth;
//! * `FeatureExtractor::write_features_at` + `apply_step` (incremental
//!   step-column updates) vs `features_at` (full rebuild) — at every step
//!   of real episodes;
//! * `RlQvoOrdering::run_episode` (tape-free, incremental, greedy or
//!   sampling) vs `run_episode_reference` (tape + rebuilds) — identical
//!   orders.
//!
//! CI runs this binary by explicit name so a harness filter change can
//! never silently skip the tape-vs-tape-free contract.

use proptest::prelude::*;
use rand::SeedableRng;
use rlqvo_core::features::FeatureScaling;
use rlqvo_core::ordering::RlQvoOrdering;
use rlqvo_core::{FeatureExtractor, InferMath, OrderingEnv, PolicyNetwork};
use rlqvo_gnn::{GnnKind, GraphTensors};
use rlqvo_graph::{extract_connected_subgraph, GraphBuilder};
use rlqvo_tensor::Matrix;

fn random_query(seed: u64, size: usize) -> rlqvo_graph::Graph {
    // Host: a fixed 6x6 labeled grid; queries are random connected chunks.
    let mut b = GraphBuilder::new(4);
    for i in 0..36u32 {
        b.add_vertex(i % 4);
    }
    for r in 0..6u32 {
        for c in 0..6u32 {
            let v = r * 6 + c;
            if c + 1 < 6 {
                b.add_edge(v, v + 1);
            }
            if r + 1 < 6 {
                b.add_edge(v, v + 6);
            }
        }
    }
    let host = b.build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    extract_connected_subgraph(&host, size, &mut rng).unwrap().0
}

const KINDS: [GnnKind; 6] =
    [GnnKind::Gcn, GnnKind::Gat, GnnKind::GraphSage, GnnKind::GraphConv, GnnKind::LeConv, GnnKind::Dense];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tape vs tape-free forward, per layer kind, across whole episodes:
    /// probabilities bitwise equal, raw argmax equal, every step.
    #[test]
    fn prepared_forward_is_bitwise_identical_per_kind(seed in 0u64..300, size in 4usize..10, kind_ix in 0usize..6) {
        let q = random_query(seed, size);
        let g = random_query(seed ^ 1, 10.min(size + 2));
        let policy = PolicyNetwork::new(KINDS[kind_ix], 2, 7, 8, seed);
        let fx = FeatureExtractor::new(&q, &g, FeatureScaling::default());
        let gt = GraphTensors::of(&q);
        let mut prepared = policy.prepare();
        let mut env = OrderingEnv::new(&q);
        while !env.done() {
            if let Some(forced) = env.forced_action() {
                env.apply(forced);
                continue;
            }
            let feats = fx.features_at(env.step_number(), env.ordered_flags());
            let mask = env.action_mask();
            let tape = policy.forward(&gt, &feats, &mask);
            let fast = prepared.forward(&gt, &feats, &mask);
            prop_assert_eq!(fast.probs, &tape.probs[..], "step {} probs diverge", env.step_number());
            prop_assert_eq!(fast.raw_argmax, tape.raw_argmax, "step {} argmax diverges", env.step_number());
            // Advance greedily off the (identical) distribution.
            let best = tape
                .probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap();
            env.apply(best);
        }
    }

    /// Incremental feature updates track full rebuilds at every step of
    /// random greedy episodes (both scaling modes).
    #[test]
    fn incremental_features_track_full_rebuilds(seed in 0u64..300, size in 4usize..10, literal in any::<bool>()) {
        let q = random_query(seed, size);
        let g = random_query(seed ^ 2, 10.min(size + 2));
        let scaling = if literal { FeatureScaling::paper_literal() } else { FeatureScaling::default() };
        let fx = FeatureExtractor::new(&q, &g, scaling);
        let mut env = OrderingEnv::new(&q);
        let mut buf = Matrix::zeros(1, 1);
        fx.write_features_at(1, env.ordered_flags(), &mut buf);
        prop_assert_eq!(&buf, &fx.features_at(1, env.ordered_flags()));
        // Order vertices in a connected sequence, checking after each.
        while !env.done() {
            let mask = env.action_mask();
            let u = mask.iter().position(|&m| m).unwrap() as u32;
            env.apply(u);
            fx.apply_step(env.step_number(), u, &mut buf);
            prop_assert_eq!(
                &buf,
                &fx.features_at(env.step_number(), env.ordered_flags()),
                "diverged after ordering {}", u
            );
        }
    }

    /// End to end: the tape-free episode produces exactly the reference
    /// episode's order — greedy inference, every GNN kind.
    #[test]
    fn order_query_identical_end_to_end(seed in 0u64..300, size in 4usize..10, kind_ix in 0usize..6, rif in any::<bool>()) {
        let q = random_query(seed, size);
        let g = random_query(seed ^ 3, 10.min(size + 2));
        let policy = PolicyNetwork::new(KINDS[kind_ix], 2, 7, 8, seed ^ 0xA5);
        let ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), rif, seed);
        prop_assert_eq!(ordering.run_episode(&q, &g), ordering.run_episode_reference(&q, &g));
    }

    /// Sampling mode too: identical probabilities mean identical RNG
    /// consumption, so sampled episodes replay exactly.
    #[test]
    fn sampling_episodes_identical_end_to_end(seed in 0u64..300, size in 4usize..10, kind_ix in 0usize..6) {
        let q = random_query(seed, size);
        let g = random_query(seed ^ 4, 10.min(size + 2));
        let policy = PolicyNetwork::new(KINDS[kind_ix], 2, 7, 8, seed ^ 0x5A);
        let ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0).sampling(seed ^ 0xBEEF);
        prop_assert_eq!(ordering.run_episode(&q, &g), ordering.run_episode_reference(&q, &g));
    }
}

proptest! {
    // 6 kinds × 3 depths × 3 widths × 2 maths: more cases than the rest.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Scoring only the action-space rows changes no probability: for
    /// every GNN kind, depth (1 layer: the restricted layer reads the
    /// features; 3: two full-width layers in front of it) and math mode
    /// (the same kernels run on the same rows, so `Fast` is exact too),
    /// on every mask a greedy episode visits — forced single-vertex masks
    /// included — plus the all-true mask and a two-vertex one. The hidden
    /// widths cross the matmul kernel's paths (`ikj`, 16-block + tail,
    /// 64-block).
    #[test]
    fn action_row_probs_equal_full_forward_probs(seed in 0u64..300, size in 4usize..10, kind_ix in 0usize..6, layers in 1usize..4, hidden_ix in 0usize..3, fast in any::<bool>()) {
        let q = random_query(seed, size);
        let g = random_query(seed ^ 5, 10.min(size + 2));
        let policy = PolicyNetwork::new(KINDS[kind_ix], layers, 7, [8, 24, 64][hidden_ix], seed ^ 0x16);
        let math = if fast { InferMath::Fast } else { InferMath::Bitwise };
        let (mut full, mut restricted) = (policy.prepare_with(math), policy.prepare_with(math));
        let fx = FeatureExtractor::new(&q, &g, FeatureScaling::default());
        let gt = GraphTensors::of(&q);
        let mut env = OrderingEnv::new(&q);

        let first = fx.features_at(1, env.ordered_flags());
        let mut two = vec![false; size];
        (two[0], two[size - 1]) = (true, true);
        for mask in [vec![true; size], two] {
            let want = full.forward(&gt, &first, &mask).probs.to_vec();
            prop_assert_eq!(restricted.action_probs(&gt, &first, &mask), &want[..], "mask {:?}", mask);
        }
        while !env.done() {
            let feats = fx.features_at(env.step_number(), env.ordered_flags());
            let mask = env.action_mask();
            let want = full.forward(&gt, &feats, &mask).probs.to_vec();
            prop_assert_eq!(restricted.action_probs(&gt, &feats, &mask), &want[..], "step {}", env.step_number());
            env.apply(rlqvo_rl::argmax_lowest_index(&want) as u32);
        }
    }
}
