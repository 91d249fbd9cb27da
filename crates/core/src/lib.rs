//! # rlqvo-core
//!
//! RL-QVO: the Reinforcement-Learning based Query Vertex Ordering model of
//! *"Reinforcement Learning Based Query Vertex Ordering Model for Subgraph
//! Matching"* (ICDE 2022).
//!
//! RL-QVO replaces the ordering phase of a backtracking subgraph-matching
//! engine with a learned policy: a GNN + MLP network scores the query
//! vertices, a mask restricts the choice to the action space `N(φ_t)`
//! (neighbours of the already-ordered vertices), and PPO trains the policy
//! against rewards derived from the enumeration count of the produced
//! order relative to the RI baseline.
//!
//! ## Quick start
//!
//! ```no_run
//! use rlqvo_core::{RlQvo, RlQvoConfig};
//! use rlqvo_matching::{run_pipeline, EnumConfig, GqlFilter, Pipeline};
//! # let data_graph: rlqvo_graph::Graph = unimplemented!();
//! # let train_queries: Vec<rlqvo_graph::Graph> = unimplemented!();
//! # let q: rlqvo_graph::Graph = unimplemented!();
//!
//! // Train on one query set…
//! let mut model = RlQvo::new(RlQvoConfig::default());
//! model.train(&train_queries, &data_graph);
//!
//! // …then plug the learned ordering into the Hybrid pipeline.
//! let ordering = model.ordering();
//! let filter = GqlFilter::default();
//! let pipeline = Pipeline { filter: &filter, ordering: &ordering, config: EnumConfig::default() };
//! let result = run_pipeline(&q, &data_graph, &pipeline);
//! println!("matches: {}", result.enum_result.match_count);
//! ```
//!
//! Module map (paper section → module):
//! * §III-C state/features  → [`features`]
//! * §III-C MDP / action space → [`mod@env`]
//! * §III-D policy network  → [`policy`]
//! * §III-C reward design   → [`rewards`]
//! * §III-E/F PPO + incremental training → [`trainer`]
//! * §IV integration with the matcher → [`ordering`], [`model`]
//! * model persistence      → [`model_io`]

pub mod env;
pub mod features;
pub mod model;
pub mod model_io;
pub mod ordering;
pub mod policy;
pub mod rewards;
pub mod trainer;

pub use env::OrderingEnv;
pub use features::FeatureExtractor;
pub use model::{RlQvo, RlQvoConfig};
pub use ordering::RlQvoOrdering;
pub use policy::{raw_argmax_of, PolicyNetwork, PolicyOutput, PolicyStep, PreparedPolicy};
pub use rewards::RewardConfig;
pub use rlqvo_gnn::InferMath;
pub use trainer::{TrainReport, Trainer};
