//! Table IV — space evaluation: data-graph storage vs model parameter
//! storage.
//!
//! Paper expectation: the model is a fixed 186.2 kB regardless of the data
//! graph (437.6 MB for EU2005), i.e. the learned component's space cost is
//! negligible and constant.

use rlqvo_bench::Scale;
use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::ALL_DATASETS;

fn main() {
    let scale = Scale::from_cli();
    scale.banner("Table IV — space evaluation", "graph space grows with the dataset; model space fixed at 186.2 kB");

    let model = RlQvo::new(RlQvoConfig::default());
    let model_kb = model.storage_bytes() as f64 / 1024.0;

    println!("{:<10} {:>14} {:>14} {:>16}", "dataset", "graph space", "model space", "paper graph");
    for d in ALL_DATASETS {
        let g = d.load();
        let paper = match d.name() {
            "citeseer" => "112.4 kB",
            "yeast" => "260.8 kB",
            "dblp" => "30.4 MB",
            "youtube" => "89.7 MB",
            "wordnet" => "3.5 MB",
            _ => "437.6 MB",
        };
        println!("{:<10} {:>12.1} kB {:>12.1} kB {:>16}", d.name(), g.storage_bytes() as f64 / 1024.0, model_kb, paper);
    }
    println!();
    println!(
        "model space is constant ({model_kb:.1} kB at the paper's d=64, 2 GCN layers; paper: 186.2 kB) — \
         it does not grow with |V(G)| or |V(q)| (paper §III-G)."
    );
}
