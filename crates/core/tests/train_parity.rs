//! Training pin: PPO training is deterministic and its trained weights
//! are bit for bit the recorded ones.
//!
//! * Two `RlQvo::train` runs on one fixed input give bit-identical
//!   weights.
//! * The FNV-1a-64 hash of the weights trained from `RlQvoConfig::fast()`
//!   on the trainer tests' fixture (500-vertex yeast analog, 4 queries of
//!   size 6) equals the recorded value, for the default GCN and, over two
//!   epochs, for every other GNN family — so every tape op the layers use
//!   (attention softmax, column broadcasts, bias rows, dropout masks) is
//!   pinned.
//! * `RlQvoConfig::harness()` with dropout 0.2, two epochs on 6 Q8 queries
//!   of the same graph, hashes to its recorded value. Its update passes
//!   replay 163 and 172 steps (asserted), six windows each, so the pin
//!   covers the windowed update: windows recorded and walked last to
//!   first, leaf gradients carried from window to window, and each
//!   window's dropout masks drawn from the rng state at its start. The hash
//!   was recorded on the one-tape update before the windows came in. Two
//!   mutations of the trainer were checked to move it: walking the windows
//!   first to last, and drawing each window's masks from the live rng.
//! * The weights the benchmark ledger's `learned-order` workload trains —
//!   `RlQvoConfig::harness()` at 5 epochs on 8 Q16 queries of the
//!   full-size yeast and dblp analogs, the ledger's fixed training inputs
//!   — hash to the recorded values. This test exists in release builds
//!   only: in debug the two trainings take minutes.
//!
//! The small-fixture hashes were recorded before the tape learned constant
//! leaves and leaf-only gradient storage, the ledger ones before the
//! update ran the last GNN layer and the head on the action-space rows
//! only; a change to the tape, the layers or the
//! trainer that moves any gradient by one ulp moves a hash. To regenerate
//! after a deliberate change to the training math, run
//! `cargo test --release -p rlqvo-core --test train_parity` and copy the
//! `actual` hashes from the failure messages.
//!
//! CI runs this binary by explicit name in release, the profile that
//! trains the ledger's models.

use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_gnn::GnnKind;
use rlqvo_graph::Graph;

fn fixture() -> (Graph, Vec<Graph>) {
    let g = Dataset::Yeast.load_scaled(500);
    let set = build_query_set(&g, 6, 6, 11);
    (g, set.queries)
}

/// FNV-1a-64 over the little-endian bytes of every weight's `to_bits()`,
/// parameters in `PolicyNetwork::params` order.
fn weights_hash(model: &RlQvo) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in model.policy().params() {
        for &x in m.data() {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The ledger's training inputs for a Q16 `learned-order` cell.
#[cfg(not(debug_assertions))]
fn ledger_training_inputs(dataset: Dataset) -> (Graph, Vec<Graph>) {
    let g = dataset.load_scaled(usize::MAX);
    let set = build_query_set(&g, 16, 8, dataset.default_seed() ^ 16);
    (g, set.queries)
}

fn trained(cfg: RlQvoConfig, g: &Graph, queries: &[Graph]) -> RlQvo {
    let mut model = RlQvo::new(cfg);
    model.train(queries, g);
    model
}

#[test]
fn two_training_runs_give_bit_identical_weights() {
    let (g, queries) = fixture();
    let cfg = RlQvoConfig { epochs: 3, ..RlQvoConfig::fast() };
    let a = trained(cfg, &g, &queries[..4]);
    let b = trained(cfg, &g, &queries[..4]);
    let (pa, pb) = (a.policy().params(), b.policy().params());
    assert_eq!(pa.len(), pb.len());
    for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
        let bits = |m: &rlqvo_tensor::Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(x), bits(y), "parameter {i} differs between two identical training runs");
    }
}

#[test]
fn fast_config_weights_match_the_recorded_hash() {
    let (g, queries) = fixture();
    let model = trained(RlQvoConfig::fast(), &g, &queries[..4]);
    let actual = weights_hash(&model);
    assert_eq!(actual, 0x2640_aa06_749c_845c, "trained-weights hash moved: actual {actual:#018x}");
}

#[test]
fn every_gnn_family_trains_to_its_recorded_hash() {
    let (g, queries) = fixture();
    let pinned: [(GnnKind, u64); 5] = [
        (GnnKind::Gat, 0xf6b1_813f_5353_4d28),
        (GnnKind::GraphSage, 0x4df4_dd89_521c_39ff),
        (GnnKind::GraphConv, 0x472c_6d6a_d799_1081),
        (GnnKind::LeConv, 0x67df_578c_2fc9_7509),
        (GnnKind::Dense, 0xebd3_54a9_9ae7_01d1),
    ];
    let mut moved = Vec::new();
    for (kind, want) in pinned {
        let cfg = RlQvoConfig { gnn_kind: kind, epochs: 2, ..RlQvoConfig::fast() };
        let actual = weights_hash(&trained(cfg, &g, &queries[..4]));
        if actual != want {
            moved.push(format!("{}: actual {actual:#018x}", kind.name()));
        }
    }
    assert!(moved.is_empty(), "trained-weights hashes moved: {moved:?}");
}

#[cfg(not(debug_assertions))]
#[test]
fn the_ledgers_learned_order_models_match_their_recorded_hashes() {
    let mut moved = Vec::new();
    for (dataset, want) in [(Dataset::Yeast, 0x6db0_fc46_a4ce_c3f7), (Dataset::Dblp, 0x484d_78f5_2fec_da86)] {
        let (g, queries) = ledger_training_inputs(dataset);
        let cfg = RlQvoConfig { epochs: 5, ..RlQvoConfig::harness() };
        let actual = weights_hash(&trained(cfg, &g, &queries));
        if actual != want {
            moved.push(format!("{}: actual {actual:#018x}", dataset.name()));
        }
    }
    assert!(moved.is_empty(), "ledger model hashes moved: {moved:?}");
}

/// `harness()` with the paper's dropout, so the update passes replay
/// enough steps to span several windows of the windowed update, each
/// window drawing its dropout masks from its own rng state.
#[test]
fn dropout_training_across_update_windows_matches_the_recorded_hash() {
    let g = Dataset::Yeast.load_scaled(500);
    let queries = build_query_set(&g, 8, 6, 11).queries;
    let cfg = RlQvoConfig { dropout: 0.2, epochs: 2, ..RlQvoConfig::harness() };
    let mut model = RlQvo::new(cfg);
    let report = model.train(&queries, &g);
    // Six windows of 32 steps per pass in both epochs: a change that shrinks
    // the passes to one window fails here, not silently below.
    let steps: Vec<usize> = report.epochs.iter().map(|e| e.update_steps).collect();
    assert_eq!(steps, [163, 172], "steps per update pass");
    let actual = weights_hash(&model);
    assert_eq!(actual, 0x0eee_f8d8_e1ec_07a6, "trained-weights hash moved: actual {actual:#018x}");
}
