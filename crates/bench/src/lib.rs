//! Shared infrastructure for the experiment harness.
//!
//! Every figure/table of the paper has a binary in `src/bin/` built on the
//! helpers here: a parallel per-query runner with aggregate statistics
//! ([`harness`]), model training/caching ([`models`]), and the scale
//! flags ([`scale`]). The compared-method roster is the matching library's
//! ([`rlqvo_matching::methods`]).
//!
//! Run e.g. `cargo run --release -p rlqvo-bench --bin fig3_query_time --
//! --queries 8 --epochs 2`. Every binary takes the same six optional
//! flags, parsed in [`scale`]: `--queries`, `--epochs`, `--time-limit-ms`,
//! `--max-matches`, `--threads` (the total thread budget) and
//! `--enum-threads` (intra-query enumeration workers under it). A value
//! that does not parse, or a flag not in that list, is an error, not a
//! default.

pub mod harness;
pub mod models;
pub mod scale;

pub use harness::{run_methods, Caches, RunStats};
pub use models::train_model_for;
pub use scale::Scale;
