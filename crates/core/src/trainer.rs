//! PPO training (paper §III-E) and incremental training (§III-F).
//!
//! Per training epoch:
//! 1. **Collect** — for every training query, run one sampling episode
//!    under the current policy `π_θ'`, recording per-step states, actions,
//!    log-probs and step rewards (validate + entropy). Evaluate the
//!    finished order with a *budgeted* enumeration and broadcast the
//!    shared enumeration reward `r_enum` into every step (§III-C).
//! 2. **Aggregate** — per-query episode return `R_q = Σ_t γ^t R_t`
//!    (Eq. 2), whitened across the batch into advantages.
//! 3. **Update** — `update_epochs` passes of the clipped surrogate
//!    (Eq. 6–7) over the recorded steps (a uniform minibatch of them), with
//!    dropout active, Adam, and global-norm gradient clipping. `θ'` stays
//!    fixed within the epoch (the recorded log-probs) and becomes the new
//!    sampling policy afterwards — exactly PPO's sampling-network scheme.
//!    A pass records its steps in windows of `WINDOW_STEPS`, one tape per
//!    window, and walks the windows last to first, each backward walk
//!    adding its terms to the leaf gradients the later windows left
//!    ([`rlqvo_tensor::Tape::backward_into`]): the gradient is bit for bit
//!    the one tape's over the whole pass, while only one window's values
//!    are alive at a time. Each window draws its dropout masks from the
//!    rng state at its first step, found by a forward sweep over the
//!    pass's draws ([`PolicyNetwork::skip_dropout`]) that also leaves the
//!    live rng where the pass's draws end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlqvo_gnn::GraphTensors;
use rlqvo_graph::Graph;
use rlqvo_matching::order::RiOrdering;
use rlqvo_matching::{enumerate, CandidateFilter, Candidates, EnumConfig, GqlFilter, OrderingMethod};
use rlqvo_rl::{decayed_episode_return, ppo_step_objective, whiten, Categorical, Trajectory};
use rlqvo_tensor::optim::{clip_global_norm, Adam};
use rlqvo_tensor::{Matrix, Tape};

use crate::env::OrderingEnv;
use crate::features::FeatureExtractor;
use crate::model::RlQvoConfig;
use crate::policy::PolicyNetwork;

/// Per-epoch training statistics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Mean episode return `R_q` across the batch (pre-whitening).
    pub mean_return: f32,
    /// Mean enumeration log-ratio vs the Hybrid baseline — the GQL filter
    /// with the RI order (`> 0` ⇔ the policy beats Hybrid on average).
    pub mean_enum_advantage: f32,
    /// Mean per-step entropy (exploration monitor).
    pub mean_entropy: f32,
    /// Seconds spent collecting the epoch's rollouts (sampling episodes
    /// and their budgeted enumerations).
    pub rollout_s: f64,
    /// Seconds spent in the epoch's PPO update passes.
    pub update_s: f64,
    /// Steps each of the epoch's update passes replays (the minibatch, or
    /// every recorded step when there are fewer).
    pub update_steps: usize,
    /// Nodes on the largest tape the epoch's update passes recorded: one
    /// window of steps plus the bound parameters, however many steps a pass
    /// replays.
    pub max_tape_nodes: usize,
}

/// Steps recorded on one update tape. A pass walks its steps in windows of
/// this many, so the tape's memory is bounded by the window, not by
/// [`RlQvoConfig::minibatch_steps`].
const WINDOW_STEPS: usize = 32;

/// Outcome of a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
    /// Wall-clock training time (paper Fig. 9 compares these).
    pub elapsed: Duration,
}

impl TrainReport {
    /// Mean enumeration advantage of the final epoch (quick quality read).
    pub fn final_enum_advantage(&self) -> f32 {
        self.epochs.last().map(|e| e.mean_enum_advantage).unwrap_or(0.0)
    }
}

/// Stored state for PPO re-evaluation. Features are `Arc`-shared: the
/// update passes bind them as tape constants by reference
/// ([`rlqvo_tensor::Tape::constant_arc`]) instead of cloning one matrix per
/// step per pass.
struct StoredState {
    features: Arc<Matrix>,
    mask: Vec<bool>,
}

/// Per-query immutable training context.
struct QueryCtx {
    tensors: GraphTensors,
    extractor: FeatureExtractor,
    candidates: Candidates,
    baseline_enums: u64,
}

/// The PPO trainer. Stateless between calls apart from the config; the
/// optimizer lives for the duration of one `train` call (the paper
/// re-initializes training per query set, with incremental training
/// continuing from the trained weights).
pub struct Trainer {
    config: RlQvoConfig,
}

impl Trainer {
    /// Trainer with the given configuration.
    pub fn new(config: RlQvoConfig) -> Self {
        Trainer { config }
    }

    /// Trains `policy` on `queries` against `g` for `epochs` epochs.
    pub fn train(&self, policy: &mut PolicyNetwork, queries: &[Graph], g: &Graph, epochs: usize) -> TrainReport {
        assert!(!queries.is_empty(), "training needs at least one query");
        let start = Instant::now();
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7EA1);

        // Phase-1 artifacts are training-invariant: compute once.
        let filter = GqlFilter::default();
        let train_cfg = EnumConfig {
            max_matches: cfg.train_max_matches,
            max_enumerations: cfg.train_enum_budget,
            ..EnumConfig::budgeted(cfg.train_enum_budget)
        };
        let contexts: Vec<QueryCtx> = queries
            .iter()
            .map(|q| {
                let candidates = filter.filter(q, g);
                let ri_order = RiOrdering.order(q, g, &candidates);
                let baseline = enumerate(q, g, &candidates, &ri_order, train_cfg);
                QueryCtx {
                    tensors: GraphTensors::of(q),
                    extractor: if cfg.random_features {
                        FeatureExtractor::new_random(q, cfg.seed)
                    } else {
                        FeatureExtractor::new(q, g, cfg.scaling)
                    },
                    candidates,
                    baseline_enums: baseline.enumerations,
                }
            })
            .collect();

        let shapes = policy.param_shapes();
        let mut adam = Adam::with_lr(&shapes, cfg.learning_rate);
        let mut report = TrainReport::default();

        let rollouts = cfg.rollouts_per_query.max(1);

        for _epoch in 0..epochs {
            let collect_start = Instant::now();
            // ---- collect -------------------------------------------------
            // `rollouts` sampled episodes per query. The advantage of a
            // rollout is its decayed return minus the mean return of its
            // own query's rollouts — a per-query baseline that removes the
            // (huge) across-query reward variance before the batch-level
            // whitening.
            let mut trajectories: Vec<(usize, Trajectory<StoredState>)> = Vec::with_capacity(queries.len() * rollouts);
            let mut returns: Vec<f32> = Vec::with_capacity(queries.len() * rollouts);
            let mut entropy_sum = 0.0f32;
            let mut entropy_steps = 0usize;
            let mut enum_adv_sum = 0.0f32;
            let mut enum_adv_count = 0usize;

            // Rollout collection is pure inference: run it on the
            // tape-free prepared path (bitwise identical to the tape
            // forward, so sampling behaviour is unchanged).
            let mut prepared = policy.prepare();
            for (qi, (q, ctx)) in queries.iter().zip(&contexts).enumerate() {
                for _ in 0..rollouts {
                    let mut traj: Trajectory<StoredState> = Trajectory::new();
                    let mut env = OrderingEnv::new(q);
                    while !env.done() {
                        if let Some(forced) = env.forced_action() {
                            env.apply(forced);
                            continue;
                        }
                        let feats = ctx.extractor.features_at(env.step_number(), env.ordered_flags());
                        let mask = env.action_mask();
                        let out = prepared.forward_owned(&ctx.tensors, &feats, &mask);
                        let dist = Categorical::new(out.probs);
                        let action = dist.sample(&mut rng);
                        let logp_old = dist.log_prob(action);
                        let entropy = dist.entropy();
                        entropy_sum += entropy;
                        entropy_steps += 1;
                        let step_reward = cfg.reward.step_reward(mask[out.raw_argmax], entropy);
                        traj.push(StoredState { features: Arc::new(feats), mask }, action, logp_old, step_reward);
                        env.apply(action as u32);
                    }
                    let order = env.into_order();
                    let result = enumerate(q, g, &ctx.candidates, &order, train_cfg);
                    let r_enum = cfg.reward.enum_reward(ctx.baseline_enums, result.enumerations);
                    enum_adv_sum += r_enum;
                    enum_adv_count += 1;
                    traj.add_shared_reward(r_enum);
                    returns.push(decayed_episode_return(&traj.rewards(), cfg.reward.gamma));
                    trajectories.push((qi, traj));
                }
            }
            drop(prepared); // release the immutable borrow before updates
            let rollout_s = collect_start.elapsed().as_secs_f64();

            // Per-query baseline, then batch whitening.
            let mut query_mean = vec![0.0f32; queries.len()];
            let mut query_count = vec![0usize; queries.len()];
            for ((qi, _), &ret) in trajectories.iter().zip(&returns) {
                query_mean[*qi] += ret;
                query_count[*qi] += 1;
            }
            for (m, c) in query_mean.iter_mut().zip(&query_count) {
                *m /= (*c).max(1) as f32;
            }
            let centered: Vec<f32> =
                trajectories.iter().zip(&returns).map(|((qi, _), &ret)| ret - query_mean[*qi]).collect();
            let advantages = whiten(&centered);

            // ---- update --------------------------------------------------
            let update_start = Instant::now();
            // Index every recorded step once; each pass visits a uniform
            // subsample (PPO minibatching) so update cost stays bounded.
            let all_steps: Vec<(usize, usize)> = trajectories
                .iter()
                .enumerate()
                .flat_map(|(ti, (_, traj))| (0..traj.steps.len()).map(move |si| (ti, si)))
                .collect();
            let mut update_steps = 0;
            let mut max_tape_nodes = 0;
            for _pass in 0..cfg.update_epochs {
                let batch: Vec<(usize, usize)> = if cfg.minibatch_steps > 0 && all_steps.len() > cfg.minibatch_steps {
                    rand::seq::index::sample(&mut rng, all_steps.len(), cfg.minibatch_steps)
                        .into_iter()
                        .map(|i| all_steps[i])
                        .collect()
                } else {
                    all_steps.clone()
                };
                if batch.is_empty() {
                    break;
                }
                update_steps = batch.len();
                // The windows run last to first, but the dropout masks are
                // drawn in step order: note the rng at each window's start
                // and leave the live rng where the pass's draws end.
                let mut window_rngs: Vec<StdRng> = Vec::new();
                if cfg.dropout > 0.0 {
                    for window in batch.chunks(WINDOW_STEPS) {
                        window_rngs.push(rng.clone());
                        for &(ti, si) in window {
                            policy.skip_dropout(trajectories[ti].1.steps[si].state.features.rows(), &mut rng);
                        }
                    }
                }
                // The loss is `(1/|batch|) Σ obj`; each window's tape
                // records its share and walks it, adding its terms to the
                // gradients the later windows left.
                let scale = 1.0 / batch.len() as f32;
                let mut grads: Vec<Option<Matrix>> = vec![None; shapes.len()];
                for window in batch.chunks(WINDOW_STEPS).rev() {
                    let mut window_rng = window_rngs.pop();
                    let tape = Tape::new();
                    let binding = policy.bind(&tape);
                    let mut total: Option<rlqvo_tensor::Var> = None;
                    for &(ti, si) in window {
                        let (qi, traj) = &trajectories[ti];
                        let ctx = &contexts[*qi];
                        let step = &traj.steps[si];
                        // One probability per action-space vertex: the
                        // action's row is its rank inside the mask.
                        let probs = policy.forward_on_tape(
                            &tape,
                            &binding,
                            &ctx.tensors,
                            Arc::clone(&step.state.features),
                            &step.state.mask,
                            window_rng.as_mut().map(|r| (cfg.dropout, r)),
                        );
                        let rank = step.state.mask[..step.action].iter().filter(|&&m| m).count();
                        let logp = tape.ln(tape.pick(probs, rank, 0));
                        let obj = ppo_step_objective(&tape, logp, step.logp_old, advantages[ti], cfg.clip_epsilon);
                        total = Some(match total {
                            Some(acc) => tape.add(acc, obj),
                            None => obj,
                        });
                    }
                    let loss = tape.scale(total.expect("windows are non-empty"), scale);
                    tape.backward_into(loss, &binding.flat(), &mut grads);
                    max_tape_nodes = max_tape_nodes.max(tape.len());
                }
                if cfg.max_grad_norm > 0.0 {
                    clip_global_norm(&mut grads, cfg.max_grad_norm);
                }
                let mut params = policy.params_mut();
                adam.step_refs(&mut params, &grads);
            }

            let n = returns.len().max(1) as f32;
            report.epochs.push(EpochStats {
                mean_return: returns.iter().sum::<f32>() / n,
                mean_enum_advantage: enum_adv_sum / enum_adv_count.max(1) as f32,
                mean_entropy: entropy_sum / entropy_steps.max(1) as f32,
                rollout_s,
                update_s: update_start.elapsed().as_secs_f64(),
                update_steps,
                max_tape_nodes,
            });
        }
        report.elapsed = start.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RlQvo, RlQvoConfig};
    use rlqvo_datasets::{build_query_set, Dataset};

    fn small_setup() -> (Graph, Vec<Graph>) {
        let g = Dataset::Yeast.load_scaled(500);
        let set = build_query_set(&g, 6, 6, 11);
        (g, set.queries)
    }

    #[test]
    fn training_runs_and_reports() {
        let (g, queries) = small_setup();
        let mut model = RlQvo::new(RlQvoConfig::fast());
        let report = model.train(&queries[..4], &g);
        assert_eq!(report.epochs.len(), RlQvoConfig::fast().epochs);
        assert!(report.elapsed.as_nanos() > 0);
        for e in &report.epochs {
            assert!(e.mean_return.is_finite());
            assert!(e.mean_entropy >= 0.0);
        }
        // The two phases are timed inside the run, so they fit in it.
        let phases: f64 = report.epochs.iter().map(|e| e.rollout_s + e.update_s).sum();
        assert!(phases > 0.0 && phases <= report.elapsed.as_secs_f64(), "{phases} s of {:?}", report.elapsed);
        // An update tape holds one window of steps and the bound
        // parameters, however many steps the pass replays. A pass of one
        // step measures what a step records (its share of the sum
        // included): its tape is the parameters, the step and the scaling.
        let leaves = model.policy().params().len();
        let tape_nodes = |cfg: RlQvoConfig| -> Vec<(usize, usize)> {
            let report = RlQvo::new(cfg).train(&queries[..4], &g);
            report.epochs.iter().map(|e| (e.update_steps, e.max_tape_nodes)).collect()
        };
        let per_step = tape_nodes(RlQvoConfig { minibatch_steps: 1, epochs: 1, ..RlQvoConfig::fast() })[0].1 - leaves;
        // Eight rollouts a query: passes of three windows or more.
        let long = tape_nodes(RlQvoConfig { rollouts_per_query: 8, epochs: 2, ..RlQvoConfig::fast() });
        assert!(long.iter().all(|&(steps, _)| steps > 2 * WINDOW_STEPS), "{long:?}");
        let short = report.epochs.iter().map(|e| (e.update_steps, e.max_tape_nodes));
        for (steps, nodes) in long.iter().copied().chain(short) {
            assert!(
                steps > 0 && nodes <= WINDOW_STEPS * per_step + leaves + 2,
                "{steps} steps, {nodes} nodes, {per_step} a step"
            );
        }
    }

    #[test]
    fn training_changes_parameters() {
        let (g, queries) = small_setup();
        let mut model = RlQvo::new(RlQvoConfig::fast());
        let before: Vec<Matrix> = model.policy().params().into_iter().cloned().collect();
        model.train(&queries[..3], &g);
        let after = model.policy().params();
        let moved = before.iter().zip(&after).any(|(b, a)| b.max_abs_diff(a) > 1e-6);
        assert!(moved, "at least one parameter must move");
    }

    #[test]
    fn incremental_training_continues() {
        let (g, queries) = small_setup();
        let mut cfg = RlQvoConfig::fast();
        cfg.epochs = 3;
        let mut model = RlQvo::new(cfg);
        model.train(&queries[..2], &g);
        let report = model.train_incremental(&queries[2..4], &g);
        assert_eq!(report.epochs.len(), cfg.incremental_epochs);
    }

    /// On a tiny fixed workload the trained policy should, on average, not
    /// be far behind RI — and usually beat it. We assert the final-epoch
    /// advantage improved over the first epoch or is already positive;
    /// a weak but non-flaky signal that learning happens.
    #[test]
    fn learning_signal_is_positive() {
        let (g, queries) = small_setup();
        let mut cfg = RlQvoConfig::fast();
        cfg.epochs = 12;
        cfg.dropout = 0.0; // less noise in the tiny test
        let mut model = RlQvo::new(cfg);
        let report = model.train(&queries[..4], &g);
        let first = report.epochs.first().unwrap().mean_enum_advantage;
        let last = report.final_enum_advantage();
        assert!(last >= first - 0.5 || last > 0.0, "no learning signal: first {first}, last {last}");
    }
}
