//! Figure 5 — average enumeration time vs query size (Q4…Q32 per
//! dataset), the paper's direct measure of matching-order quality (all
//! methods share the enumeration implementation).
//!
//! Paper expectation: RL-QVO best at every size; the gap grows with query
//! size (larger search spaces reward better orders).

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, train_model_for, Caches, Scale};
use rlqvo_core::RlQvoConfig;
use rlqvo_datasets::ALL_DATASETS;
use rlqvo_matching::{Method, ROSTER};

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 5 — enumeration time vs query size",
        "Q4–Q32 (Q16 max wordnet); one trained model per (dataset, size)",
    );

    let order = ["RL-QVO", "VEQ", "Hybrid", "RI", "QSI", "VF2++", "GQL"];
    for dataset in ALL_DATASETS {
        let g = dataset.load();
        println!("--- {} ---", dataset.name());
        print!("{:<6}", "Qset");
        for name in order {
            print!(" {:>10}", name);
        }
        println!();
        for &size in dataset.query_sizes() {
            let split = split_queries(&g, dataset, size, &scale);
            let (model, _) = train_model_for(&g, dataset, size, &scale, RlQvoConfig::harness(), true);
            // Build-once/enumerate-many: all seven orders per filter group
            // share one filtering pass and one CandidateSpace build per
            // (query, data) pair.
            let learned = model.ordering();
            let mut methods = vec![Method::learned(&learned)];
            methods.extend(ROSTER);
            let stats = run_methods(&g, &split.eval, &methods, scale.enum_config(), scale.threads, Caches::Local);
            print!("{:<6}", format!("Q{size}"));
            for name in order {
                let s = stats.iter().find(|s| s.name == name).expect("method present");
                print!(" {:>10.5}", s.mean_enum_secs());
            }
            println!();
        }
        println!();
    }
    println!("paper shape: RL-QVO lowest curve everywhere; gap widens with |V(q)|;");
    println!("on yeast RL-QVO is merely on par (paper §IV-C notes the same).");
}
