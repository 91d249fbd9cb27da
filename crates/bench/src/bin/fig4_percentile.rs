//! Figure 4 — cumulative query-processing-time distribution (percentile
//! curves) and unsolved-query counts, find-all-matches mode.
//!
//! Paper expectation: the gap between RL-QVO and the competitors grows
//! with the percentile (hard queries), and RL-QVO has far fewer unsolved
//! queries on youtube/wordnet/eu2005.

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, train_model_for, Caches, Scale};
use rlqvo_core::RlQvoConfig;
use rlqvo_datasets::ALL_DATASETS;
use rlqvo_matching::{EnumConfig, Method, ROSTER};

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 4 — query time percentiles + unsolved counts",
        "find ALL matches; unsolved = over the time limit (500 s in the paper)",
    );
    let percentiles = [50.0, 70.0, 80.0, 90.0, 95.0, 100.0];
    // Find-all config (the paper's Fig. 4 protocol), still time-limited.
    let config = EnumConfig { max_matches: u64::MAX, ..scale.enum_config() };

    // The paper's Fig. 4 shows RL-QVO, Hybrid, QSI, RI, VF2++.
    let shown = ["RL-QVO", "Hybrid", "QSI", "RI", "VF2++"];

    for dataset in ALL_DATASETS {
        let g = dataset.load();
        let size = dataset.default_query_size();
        let split = split_queries(&g, dataset, size, &scale);
        let (model, _) = train_model_for(&g, dataset, size, &scale, RlQvoConfig::harness(), true);

        println!("--- {} (Q{size}, {} eval queries) ---", dataset.name(), split.eval.len());
        print!("{:<8}", "method");
        for p in percentiles {
            print!(" {:>8}", format!("p{p:.0}"));
        }
        println!(" {:>9}", "unsolved");

        let learned = model.ordering();
        let mut methods = vec![Method::learned(&learned)];
        methods.extend(ROSTER);
        let all = run_methods(&g, &split.eval, &methods, config, scale.threads, Caches::Local);
        for name in shown {
            let Some(stats) = all.iter().find(|s| s.name == name) else { continue };
            print!("{:<8}", stats.name);
            for p in percentiles {
                print!(" {:>8.4}", stats.percentile_total_secs(p));
            }
            println!(" {:>9}", stats.unsolved);
        }
        println!();
    }
    println!("paper shape: RL-QVO's curve flattest; its lead grows at high percentiles;");
    println!("fewest unsolved queries on youtube/wordnet/eu2005.");
}
