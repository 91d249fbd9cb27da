//! # rlqvo-rl
//!
//! Reinforcement-learning substrate for RL-QVO: categorical policies,
//! trajectories, decayed returns, and the PPO clipped-surrogate
//! objective (paper Eq. 6–7) expressed as tape operations.
//!
//! The paper's §III-A argues value-function methods (Q-learning,
//! actor-critic) fail to converge because enumeration counts vary across
//! orders by orders of magnitude, and chooses pure policy search trained
//! with PPO. This crate therefore provides:
//!
//! * [`policy`] — masked categorical distributions: sampling (training),
//!   argmax (evaluation), log-probs and entropy.
//! * [`trajectory`] — per-episode step records with rewards and the
//!   sampling policy's log-probs.
//! * [`returns`] — decayed reward aggregation (paper Eq. 2) and batch
//!   whitening.
//! * [`ppo`] — the clipped surrogate built on a [`rlqvo_tensor::Tape`].

pub mod policy;
pub mod ppo;
pub mod returns;
pub mod trajectory;

pub use policy::{argmax_lowest_index, Categorical};
pub use ppo::ppo_step_objective;
pub use returns::{decayed_episode_return, whiten};
pub use trajectory::{Step, Trajectory};
