//! Finite-difference gradient checks for every GNN layer family.
//!
//! These test the *composition* of tape ops each layer uses, catching
//! mistakes the per-op checks in rlqvo-tensor cannot (e.g. wiring the wrong
//! adjacency into a term).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlqvo_gnn::adj::GraphTensors;
use rlqvo_graph::GraphBuilder;
use rlqvo_tensor::gradcheck::check_gradients;
use rlqvo_tensor::{Matrix, Tape, Var};

const TOL: f32 = 3e-2;

fn tensors() -> GraphTensors {
    let mut b = GraphBuilder::new(1);
    for _ in 0..4 {
        b.add_vertex(0);
    }
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(0, 3);
    GraphTensors::of(&b.build())
}

fn smooth_loss(t: &Tape, out: Var) -> Var {
    // tanh keeps the loss differentiable and bounded; sum to scalar.
    t.sum(t.tanh(out))
}

fn features() -> Matrix {
    Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin())
}

#[test]
fn gcn_gradcheck() {
    let gt = tensors();
    let inputs = vec![features(), Matrix::from_fn(3, 2, |r, c| 0.3 * (r as f32 - c as f32)), Matrix::zeros(1, 2)];
    let report = check_gradients(&inputs, 1e-3, |t, vs| {
        let adj = t.leaf(gt.norm_adj.as_ref().clone());
        let agg = t.matmul(adj, vs[0]);
        let out = t.relu(t.add_bias_row(t.matmul(agg, vs[1]), vs[2]));
        smooth_loss(t, out)
    });
    assert!(report.passes(TOL), "{report:?}");
}

#[test]
fn gat_gradcheck() {
    let gt = tensors();
    let mut rng = StdRng::seed_from_u64(7);
    let inputs = vec![
        features(),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::xavier_uniform(2, 1, &mut rng),
        Matrix::xavier_uniform(2, 1, &mut rng),
    ];
    let report = check_gradients(&inputs, 1e-3, |t, vs| {
        let z = t.matmul(vs[0], vs[1]);
        let s1 = t.matmul(z, vs[2]);
        let s2 = t.matmul(z, vs[3]);
        let scores = t.leaky_relu(t.broadcast_add_col_row(s1, s2), 0.2);
        let att = t.masked_softmax_rows(scores, &gt.mask_self);
        let out = t.relu(t.matmul(att, z));
        smooth_loss(t, out)
    });
    assert!(report.passes(TOL), "{report:?}");
}

#[test]
fn sage_gradcheck() {
    let gt = tensors();
    let mut rng = StdRng::seed_from_u64(8);
    let inputs = vec![
        features(),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::zeros(1, 2),
    ];
    let report = check_gradients(&inputs, 1e-3, |t, vs| {
        let mean = t.leaf(gt.mean_adj.as_ref().clone());
        let own = t.matmul(vs[0], vs[1]);
        let neigh = t.matmul(t.matmul(mean, vs[0]), vs[2]);
        let out = t.relu(t.add_bias_row(t.add(own, neigh), vs[3]));
        smooth_loss(t, out)
    });
    assert!(report.passes(TOL), "{report:?}");
}

#[test]
fn graphconv_gradcheck() {
    let gt = tensors();
    let mut rng = StdRng::seed_from_u64(9);
    let inputs = vec![
        features(),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::zeros(1, 2),
    ];
    let report = check_gradients(&inputs, 1e-3, |t, vs| {
        let adj = t.leaf(gt.adj.as_ref().clone());
        let own = t.matmul(vs[0], vs[1]);
        let neigh = t.matmul(t.matmul(adj, vs[0]), vs[2]);
        let out = t.relu(t.add_bias_row(t.add(own, neigh), vs[3]));
        smooth_loss(t, out)
    });
    assert!(report.passes(TOL), "{report:?}");
}

#[test]
fn leconv_gradcheck() {
    let gt = tensors();
    let mut rng = StdRng::seed_from_u64(10);
    let inputs = vec![
        features(),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::xavier_uniform(3, 2, &mut rng),
        Matrix::zeros(1, 2),
    ];
    let report = check_gradients(&inputs, 1e-3, |t, vs| {
        let adj = t.leaf(gt.adj.as_ref().clone());
        let deg = t.leaf(gt.degree.as_ref().clone());
        let own = t.matmul(vs[0], vs[1]);
        let scaled = t.mul_col_broadcast(t.matmul(vs[0], vs[2]), deg);
        let neigh = t.matmul(adj, t.matmul(vs[0], vs[3]));
        let combined = t.sub(t.add(own, scaled), neigh);
        let out = t.relu(t.add_bias_row(combined, vs[4]));
        smooth_loss(t, out)
    });
    assert!(report.passes(TOL), "{report:?}");
}

#[test]
fn mlp_head_gradcheck() {
    let mut rng = StdRng::seed_from_u64(11);
    let inputs = vec![
        features(),
        Matrix::xavier_uniform(3, 4, &mut rng),
        Matrix::zeros(1, 4),
        Matrix::xavier_uniform(4, 1, &mut rng),
        Matrix::zeros(1, 1),
    ];
    let report = check_gradients(&inputs, 1e-3, |t, vs| {
        let hidden = t.relu(t.add_bias_row(t.matmul(vs[0], vs[1]), vs[2]));
        let scores = t.add_bias_row(t.matmul(hidden, vs[3]), vs[4]);
        smooth_loss(t, scores)
    });
    assert!(report.passes(TOL), "{report:?}");
}

/// The full policy pipeline: GCN → MLP head → masked softmax → log prob.
/// This is exactly the expression RL-QVO differentiates each PPO step.
#[test]
fn full_policy_pipeline_gradcheck() {
    let gt = tensors();
    let mut rng = StdRng::seed_from_u64(12);
    let inputs = vec![
        features(),
        Matrix::xavier_uniform(3, 4, &mut rng), // GCN W
        Matrix::zeros(1, 4),                    // GCN b
        Matrix::xavier_uniform(4, 4, &mut rng), // MLP W1
        Matrix::zeros(1, 4),                    // MLP b1
        Matrix::xavier_uniform(4, 1, &mut rng), // MLP W2
        Matrix::zeros(1, 1),                    // MLP b2
    ];
    let mask = [true, false, true, true];
    let report = check_gradients(&inputs, 1e-3, |t, vs| {
        let adj = t.leaf(gt.norm_adj.as_ref().clone());
        let h1 = t.relu(t.add_bias_row(t.matmul(t.matmul(adj, vs[0]), vs[1]), vs[2]));
        let hidden = t.relu(t.add_bias_row(t.matmul(h1, vs[3]), vs[4]));
        let scores = t.add_bias_row(t.matmul(hidden, vs[5]), vs[6]);
        let probs = t.masked_softmax_col(scores, &mask);
        // log π(a|s) for action 2 — the PPO building block.
        t.ln(t.pick(probs, 2, 0))
    });
    assert!(report.passes(TOL), "{report:?}");
}
