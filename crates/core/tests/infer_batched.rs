//! Differential pin for ordering many queries over one shared
//! `PreparedPolicy`, and for the fast-math mode against the bitwise one.
//!
//! * `RlQvoOrdering::order_many` vs `run_episode` — identical orders,
//!   greedy and sampling, under `Bitwise` and under `InferMath::Fast`: a
//!   scratch warmed by earlier queries of the batch carries no state into
//!   the next one;
//! * fast probabilities stay within the documented tolerance of the
//!   bitwise ones, and the greedy argmax agrees whenever the masked
//!   top-2 probability gap is clear of the kernel budget.
//!
//! (The stacked multi-query forward this file used to pin against the
//! single-query one is gone: it was slower than the loop it replaced.)
//!
//! CI runs this binary by explicit name so a harness filter change can
//! never silently skip the many-vs-one contract.

use proptest::prelude::*;
use rand::SeedableRng;
use rlqvo_core::features::FeatureScaling;
use rlqvo_core::ordering::RlQvoOrdering;
use rlqvo_core::{FeatureExtractor, InferMath, PolicyNetwork};
use rlqvo_gnn::{GnnKind, GraphTensors};
use rlqvo_graph::{extract_connected_subgraph, Graph, GraphBuilder};
use rlqvo_matching::connected_prefix_ok;

fn random_query(seed: u64, size: usize) -> Graph {
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

    /// Whole batched episodes vs one-at-a-time, greedy and sampling,
    /// under the default bitwise math: identical orders.
    #[test]
    fn batched_orders_match_one_at_a_time_bitwise(seed in 0u64..300, s1 in 3usize..9, s2 in 3usize..9, s3 in 3usize..9, kind_ix in 0usize..6, sample in any::<bool>()) {
        let g = random_query(seed ^ 1, 10);
        let queries = [random_query(seed, s1), random_query(seed ^ 2, s2), random_query(seed ^ 3, s3)];
        let policy = PolicyNetwork::new(KINDS[kind_ix], 2, 7, 8, seed);
        let mut ordering = RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0);
        if sample {
            ordering = ordering.sampling(seed ^ 0x5EED);
        }
        let refs: Vec<&Graph> = queries.iter().collect();
        let batched = ordering.order_many(&refs, &g);
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(&batched[i], &ordering.run_episode(q, &g), "query {} diverged ({})", i, KINDS[kind_ix].name());
            prop_assert!(connected_prefix_ok(q, &batched[i]));
        }
    }

    /// The same order equality under `InferMath::Fast`: the shared
    /// scratch is the only thing a batch shares, in either mode.
    #[test]
    fn batched_orders_match_one_at_a_time_fast(seed in 0u64..300, s1 in 3usize..9, s2 in 3usize..9, kind_ix in 0usize..6) {
        let g = random_query(seed ^ 1, 10);
        let queries = [random_query(seed, s1), random_query(seed ^ 2, s2)];
        let policy = PolicyNetwork::new(KINDS[kind_ix], 2, 7, 8, seed);
        let ordering =
            RlQvoOrdering::new(&policy, FeatureScaling::default(), false, 0).with_math(InferMath::Fast);
        let refs: Vec<&Graph> = queries.iter().collect();
        let batched = ordering.order_many(&refs, &g);
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(&batched[i], &ordering.run_episode(q, &g), "query {} diverged ({})", i, KINDS[kind_ix].name());
            prop_assert!(connected_prefix_ok(q, &batched[i]));
        }
    }

    /// Fast vs bitwise, tolerance-aware: first-step fast probabilities
    /// stay within 1e-4 of the bitwise ones, and the greedy argmax agrees
    /// whenever the bitwise top-2 gap clears that budget — the property
    /// the fast serving path actually relies on.
    #[test]
    fn fast_probs_track_bitwise_within_tolerance(seed in 0u64..300, size in 3usize..9, kind_ix in 0usize..6) {
        let g = random_query(seed ^ 1, 10);
        let q = random_query(seed, size);
        let policy = PolicyNetwork::new(KINDS[kind_ix], 2, 7, 8, seed);
        let gt = GraphTensors::of(&q);
        let feats = FeatureExtractor::new(&q, &g, FeatureScaling::default()).features_at(1, &vec![false; q.num_vertices()]);
        let mask = vec![true; q.num_vertices()];

        let mut fast = policy.prepare_with(InferMath::Fast);
        let mut bitwise = policy.prepare();
        let fast_probs = fast.action_probs(&gt, &feats, &mask);
        let reference = bitwise.action_probs(&gt, &feats, &mask);
        let mut sorted: Vec<f32> = reference.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (v, (&f, &r)) in fast_probs.iter().zip(reference).enumerate() {
            prop_assert!((f - r).abs() <= 1e-4, "prob {} drifted: {} vs {}", v, f, r);
        }
        if sorted.len() >= 2 && sorted[0] - sorted[1] > 1e-4 {
            prop_assert_eq!(rlqvo_rl::argmax_lowest_index(fast_probs), rlqvo_rl::argmax_lowest_index(reference));
        }
    }
}
