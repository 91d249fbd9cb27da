//! Model training with on-disk caching.
//!
//! Several figure binaries need a trained RL-QVO model per (dataset,
//! query size). Training is deterministic given the scale and the
//! configuration, so models are cached under `target/rlqvo-models/` keyed
//! by every input that affects the weights; re-running a binary (or
//! another binary with the same needs) reuses the cache.

use std::path::PathBuf;

use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::{build_query_set, Dataset, SplitQuerySet};
use rlqvo_graph::Graph;

use crate::scale::Scale;

fn cache_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("target");
    p.push("rlqvo-models");
    p
}

/// The model file [`train_model_for`] trains for `(dataset, query_size)`
/// under `scale` and `config`: the query set is fixed by the dataset, the
/// size and `--queries`, and every training input — epochs, budgets,
/// reward design, seed, … — by `config` with the scale's epochs, keyed
/// through an FNV-1a hash of its `Debug` text, so a changed recipe trains
/// a new model instead of loading one trained under the old.
fn cache_key(dataset: Dataset, query_size: usize, scale: &Scale, config: &RlQvoConfig) -> String {
    let config = RlQvoConfig { epochs: scale.train_epochs, ..*config };
    let hash = format!("{config:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    format!("{}-q{}-n{}-{hash:016x}.model", dataset.name(), query_size, scale.queries_per_set)
}

/// The standard train/eval split for `(dataset, size)` under `scale`.
pub fn split_queries(g: &Graph, dataset: Dataset, size: usize, scale: &Scale) -> SplitQuerySet {
    let set = build_query_set(g, size, scale.queries_per_set, dataset.default_seed() ^ size as u64);
    SplitQuerySet::from(set)
}

/// Returns a model trained on the train half of `(dataset, query_size)`,
/// loading from cache when available. `config.epochs` is overwritten by
/// the scale's `train_epochs`. Set `use_cache = false` for experiments
/// that measure training time itself (Fig. 9).
pub fn train_model_for(
    g: &Graph,
    dataset: Dataset,
    query_size: usize,
    scale: &Scale,
    mut config: RlQvoConfig,
    use_cache: bool,
) -> (RlQvo, std::time::Duration) {
    config.epochs = scale.train_epochs;
    let dir = cache_dir();
    let path = dir.join(cache_key(dataset, query_size, scale, &config));
    if use_cache {
        if let Ok(model) = RlQvo::load(&path, config) {
            return (model, std::time::Duration::ZERO);
        }
    }
    let split = split_queries(g, dataset, query_size, scale);
    let mut model = RlQvo::new(config);
    let report = model.train(&split.train, g);
    if use_cache {
        std::fs::create_dir_all(&dir).ok();
        model.save(&path).ok();
    }
    (model, report.elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trip() {
        let scale = Scale { queries_per_set: 4, train_epochs: 2, ..Scale::default() };
        let g = Dataset::Yeast.load_scaled(300);
        let cfg = RlQvoConfig::fast();
        // Unique key space: use an uncommon hidden dim to avoid collisions
        // with other tests, and clear any cache left by a previous run so
        // the "first call trains" assertion is idempotent.
        let mut cfg2 = cfg;
        cfg2.hidden_dim = 24;
        std::fs::remove_file(cache_dir().join(cache_key(Dataset::Yeast, 5, &scale, &cfg2))).ok();
        let (a, t_a) = train_model_for(&g, Dataset::Yeast, 5, &scale, cfg2, true);
        let (b, t_b) = train_model_for(&g, Dataset::Yeast, 5, &scale, cfg2, true);
        assert!(t_a > std::time::Duration::ZERO, "first call trains");
        assert_eq!(t_b, std::time::Duration::ZERO, "second call loads from cache");
        let q = build_query_set(&g, 5, 1, 3).queries.pop().unwrap();
        assert_eq!(a.order_query(&q, &g), b.order_query(&q, &g));
    }

    #[test]
    fn every_training_input_names_its_own_file() {
        let scale = Scale::default();
        let base = RlQvoConfig::harness();
        let key = |c: &RlQvoConfig| cache_key(Dataset::Yeast, 8, &scale, c);
        let budget = RlQvoConfig { train_enum_budget: base.train_enum_budget * 10, ..base };
        assert_ne!(key(&base), key(&budget));
        assert_ne!(key(&base), key(&RlQvoConfig { seed: base.seed + 1, ..base }));
        assert_ne!(key(&base), key(&RlQvoConfig { learning_rate: base.learning_rate / 2.0, ..base }));
        assert_eq!(key(&base), key(&RlQvoConfig::harness()));
    }
}
