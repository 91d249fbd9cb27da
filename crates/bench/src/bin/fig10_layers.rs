//! Figure 10 — query processing time vs number of GNN layers {1,2,3,4}
//! on dblp/eu2005/wordnet.
//!
//! Paper expectation: on smaller graphs the time grows near-linearly with
//! layer count (inference dominates); on larger graphs one layer underfits
//! and 2–3 layers tie, with 4 layers drifting up again.

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, train_model_for, Caches, Scale};
use rlqvo_core::RlQvoConfig;
use rlqvo_datasets::Dataset;
use rlqvo_matching::Method;

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 10 — query time vs number of GNN layers",
        "L ∈ {1,2,3,4}; dblp/eu2005/wordnet default query sets",
    );

    println!("{:<10} {:>7} | {:>10} {:>12} {:>12}", "dataset", "layers", "query(s)", "order(s)", "enum(s)");
    for dataset in [Dataset::Dblp, Dataset::Eu2005, Dataset::Wordnet] {
        let g = dataset.load();
        let size = dataset.default_query_size();
        let split = split_queries(&g, dataset, size, &scale);
        for layers in 1usize..=4 {
            let mut config = RlQvoConfig::harness();
            config.num_layers = layers;
            let (model, _) = train_model_for(&g, dataset, size, &scale, config, true);
            let learned = model.ordering();
            let methods = [Method::learned(&learned)];
            let stats = &run_methods(&g, &split.eval, &methods, scale.enum_config(), scale.threads, Caches::Local)[0];
            println!(
                "{:<10} {:>7} | {:>10.5} {:>12.6} {:>12.5}",
                dataset.name(),
                layers,
                stats.mean_total_secs(),
                stats.mean_order_secs(),
                stats.mean_enum_secs()
            );
        }
        println!();
    }
    println!("paper shape: 1 layer worst on the larger graphs; ≥2 layers close to flat");
    println!("with order time creeping up per extra layer.");
}
