//! Figure 11 — average enumeration time vs number of matches requested
//! (10³ … ALL) on youtube Q16, RL-QVO vs Hybrid.
//!
//! Paper expectation: indistinguishable at small match counts; RL-QVO's
//! advantage appears and grows beyond ~10⁶ matches (large search spaces).

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, train_model_for, Caches, Scale};
use rlqvo_core::RlQvoConfig;
use rlqvo_datasets::Dataset;
use rlqvo_matching::{EnumConfig, Method, SpaceCache};

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 11 — enumeration time vs number of matches",
        "youtube Q16; caps 10^3…10^9 and ALL; times of unsolved clamped to the limit",
    );
    let dataset = Dataset::Youtube;
    let g = dataset.load();
    let size = 16usize;
    let split = split_queries(&g, dataset, size, &scale);
    let (model, _) = train_model_for(&g, dataset, size, &scale, RlQvoConfig::harness(), true);

    let caps: [(&str, u64); 5] =
        [("1e3", 1_000), ("1e4", 10_000), ("1e5", 100_000), ("1e6", 1_000_000), ("ALL", u64::MAX)];

    // The cap sweep replays the same eval queries once per cap; the cache
    // makes the whole sweep pay exactly one filter pass and one space
    // build per (query, filter) key instead of one per cap.
    let cache = SpaceCache::new();
    let caches = Caches::Shared { spaces: &cache };
    let learned = model.ordering();
    println!("{:<8} {:>12} {:>12} {:>10} {:>10}", "matches", "RL-QVO(s)", "Hybrid(s)", "unsRL", "unsHY");
    for (label, cap) in caps {
        let config = EnumConfig { max_matches: cap, ..scale.enum_config() };
        // RL-QVO and Hybrid share the GQL filter: one build per query.
        let methods = [Method::learned(&learned), Method::hybrid()];
        let mut stats = run_methods(&g, &split.eval, &methods, config, scale.threads, caches).into_iter();
        let (rl, hy) = (stats.next().expect("RL-QVO stats"), stats.next().expect("Hybrid stats"));
        println!(
            "{:<8} {:>12.5} {:>12.5} {:>10} {:>10}",
            label,
            rl.mean_enum_secs(),
            hy.mean_enum_secs(),
            rl.unsolved,
            hy.unsolved
        );
    }
    println!();
    println!(
        "space cache   : {} filter+build misses, {} cross-round hits over {} caps",
        cache.misses(),
        cache.hits(),
        caps.len()
    );
    println!("paper shape: curves overlap at 10^3–10^6 then separate, RL-QVO below Hybrid.");
}
