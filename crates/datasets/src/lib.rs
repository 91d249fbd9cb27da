//! # rlqvo-datasets
//!
//! Seeded synthetic analogs of the six real-life data graphs the RL-QVO
//! paper evaluates on (Table II), plus query-set construction (Table III).
//!
//! ## Substitution note (see DESIGN.md §2)
//!
//! The paper's datasets (Citeseer, Yeast, DBLP, Youtube, Wordnet, EU2005)
//! cannot be downloaded in this environment. Query-vertex ordering quality
//! depends on the *distributions* the ordering heuristics read — label
//! counts, label skew, degree skew, density — not on the identity of
//! individual edges. Each analog therefore matches its original's
//! `|L|`, average degree, and degree/label skew *category* (citation /
//! biology / social / lexical / web) at a reduced scale, so the same
//! ordering phenomena occur: RI tie-breaks firing on symmetric queries,
//! label-frequency signal strength varying across datasets, and candidate
//! set sizes spanning orders of magnitude.
//!
//! Every generator is fully deterministic given a seed.

pub mod generator;
pub mod paper;
pub mod queries;

pub use generator::{generate, SyntheticConfig};
pub use paper::{Dataset, PaperProperties, ALL_DATASETS};
pub use queries::{build_query_set, try_build_query_set, QuerySet, SplitQuerySet};
