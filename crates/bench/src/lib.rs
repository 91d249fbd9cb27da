//! Shared infrastructure for the experiment harness.
//!
//! Every figure/table of the paper has a binary in `src/bin/` built on the
//! helpers here: a parallel per-query runner with aggregate statistics
//! ([`harness`]), model training/caching ([`models`]), and
//! environment-variable scale knobs ([`scale`]). The compared-method
//! roster is the matching library's ([`rlqvo_matching::methods`]).
//!
//! Run e.g. `cargo run --release -p rlqvo-bench --bin fig3_query_time`.
//! Scale knobs (all optional, all read in [`scale`]): `RLQVO_QUERIES`,
//! `RLQVO_EPOCHS`, `RLQVO_TIME_LIMIT_MS`, `RLQVO_MAX_MATCHES`,
//! `RLQVO_THREADS`, `RLQVO_ENGINE` (probe|candspace|auto),
//! `RLQVO_SPACE_CACHE` (`off` re-filters every round of a sweep) and
//! `RLQVO_ENUM_THREADS` (intra-query enumeration workers — the harness
//! is the one surface that takes the count from the environment; the
//! binaries take `--enum-threads`). A value that does not parse is an
//! error, not a default.

pub mod harness;
pub mod models;
pub mod scale;

pub use harness::{run_methods, Caches, RunStats};
pub use models::train_model_for;
pub use scale::Scale;
