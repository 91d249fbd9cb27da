//! # rlqvo-matching
//!
//! A backtracking subgraph-matching engine implementing the three-phase
//! framework the RL-QVO paper builds on (Algorithm 1 of the paper, after
//! Sun & Luo's SIGMOD'20 in-memory study):
//!
//! 1. **Candidate filtering** ([`filter`]) — [`filter::LdfFilter`] (label +
//!    degree), [`filter::NlfFilter`] (neighbour-label frequency) and
//!    [`filter::GqlFilter`] (GraphQL: NLF-style local pruning plus global
//!    refinement via semi-perfect bipartite matching) — the filter `Hybrid`
//!    uses.
//! 2. **Ordering** ([`order`]) — QuickSI, RI, VF2++, GraphQL, CFL, VEQ and
//!    an exhaustive [`order::OptimalOrdering`], all behind the
//!    [`order::OrderingMethod`] trait. RL-QVO's learned ordering implements
//!    the same trait from the `rlqvo-core` crate.
//! 3. **Enumeration** ([`enumerate()`]) — the recursive procedure of the
//!    paper's Algorithm 2, with `#enum` counting, match caps, time limits
//!    and enumeration budgets. Two engines share the exact recursion
//!    semantics (selected by [`enumerate::EnumEngine`]): the default
//!    intersection-based engine over an edge-indexed [`CandidateSpace`]
//!    ([`candspace`]), and the original adjacency-probing path kept as a
//!    differential oracle, run only when asked for by name. Every ordering
//!    method is evaluated through the same engine, exactly as the paper
//!    requires for a fair comparison.
//!
//! [`pipeline`] wires the three phases together and times each one, so the
//! harness can report `t = t_filter + t_order + t_enum` (paper §IV-B): one
//! cold run ([`run_pipeline`]) and one warm run ([`run_cached`]) that the
//! CLI, the server and the figure harness all share. [`methods`] is the
//! paper's roster of (filter, ordering) pairs, once.
//! [`spacecache`] adds the cross-round amortization layer: a [`SpaceCache`]
//! keyed by `(query fingerprint, filter semantics)` owns filtered
//! [`Candidates`] and the [`CandidateSpace`] built with them when the entry
//! is computed (unless a candidate set is empty; a cold lookup made for a
//! probe-by-name run builds too), so sweeps replaying the same queries (cap
//! sweeps, repeated CLI invocations) filter and build exactly once per key. [`ordercache`] is its phase-2 sibling:
//! an [`OrderCache`] of matching orders keyed by `(query fingerprint,
//! ordering semantics)`, so a serving loop replaying a query skips the
//! ordering phase — including a learned policy's whole GNN inference —
//! entirely. Both are thin instantiations of [`cache`], the one generic
//! bounded cache behind one lock. A lookup takes a [`QueryKey`], both
//! structural hashes of the query, and the cache verifies every hit
//! against the key's checksum under that lock (exact LRU eviction,
//! degradation, poison recovery). [`naive`] holds a
//! brute-force enumerator used as a correctness oracle in tests.

pub mod bipartite;
pub mod cache;
pub mod candspace;
pub mod enumerate;
pub mod filter;
pub mod methods;
pub mod naive;
pub mod nec;
pub mod order;
pub mod ordercache;
pub mod parallel;
pub mod pipeline;
pub mod scheduler;
pub mod spacecache;

pub use cache::{Cache, CacheConfig, CacheKey, CacheWeight, EvictPolicy, QueryKey};
pub use candspace::{ArenaOverflow, CandidateSpace};
pub use enumerate::{
    auto_decide, effective_threads, enumerate, enumerate_in_space, enumerate_probe, enumerate_probe_prepared,
    estimate_enum_work, AutoDecision, EnumConfig, EnumEngine, EnumResult, QueryAdjBits, AUTO_PARALLEL_WORK_PER_WORKER,
};
#[doc(hidden)]
pub use enumerate::{suffix_paths, SuffixPaths};
pub use filter::{CandidateFilter, Candidates, GqlFilter, LdfFilter, NlfFilter};
pub use methods::{Method, ROSTER};
pub use order::{connected_prefix_ok, OrderingMethod};
pub use ordercache::{order_variant, OrderCache, OrderEntry};
pub use parallel::{peak_parallel_workers, reset_peak_parallel_workers};
pub use pipeline::{run_cached, run_in_entry, run_pipeline, Pipeline, PipelineResult};
pub use scheduler::{reset_scheduler_counters, scheduler_stats, SchedulerStats, TokenBudget};
pub use spacecache::{SpaceCache, SpaceEntry};
