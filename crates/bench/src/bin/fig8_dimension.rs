//! Figure 8 — query processing time vs GNN output dimension
//! {16, 32, 64, 128, 256} on dblp/eu2005/wordnet.
//!
//! Paper expectation: small dimensions underfit (slow queries), the sweet
//! spot sits around 64, and larger dimensions slowly get worse again
//! because ordering-time (inference) grows with d².

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, train_model_for, Caches, Scale};
use rlqvo_core::RlQvoConfig;
use rlqvo_datasets::Dataset;
use rlqvo_matching::Method;

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 8 — query time vs output dimension",
        "d ∈ {16,32,64,128,256}; dblp/eu2005/wordnet default query sets",
    );
    let dims = [16usize, 32, 64, 128, 256];

    println!("{:<10} {:>6} | {:>10} {:>12} {:>12}", "dataset", "dim", "query(s)", "order(s)", "enum(s)");
    for dataset in [Dataset::Dblp, Dataset::Eu2005, Dataset::Wordnet] {
        let g = dataset.load();
        let size = dataset.default_query_size();
        let split = split_queries(&g, dataset, size, &scale);
        for &dim in &dims {
            let mut config = RlQvoConfig::harness();
            config.hidden_dim = dim;
            let (model, _) = train_model_for(&g, dataset, size, &scale, config, true);
            let learned = model.ordering();
            let methods = [Method::learned(&learned)];
            let stats = &run_methods(&g, &split.eval, &methods, scale.enum_config(), scale.threads, Caches::Local)[0];
            println!(
                "{:<10} {:>6} | {:>10.5} {:>12.6} {:>12.5}",
                dataset.name(),
                dim,
                stats.mean_total_secs(),
                stats.mean_order_secs(),
                stats.mean_enum_secs()
            );
        }
        println!();
    }
    println!("paper shape: U-curve with the salient point around d = 64; order time");
    println!("grows with d (the t_order term), pushing total time back up at 128–256.");
}
