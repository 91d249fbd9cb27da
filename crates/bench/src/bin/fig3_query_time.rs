//! Figure 3 — average query processing time, all methods × all datasets,
//! default query sets (Q32; Q16 for wordnet).
//!
//! Paper expectation: RL-QVO generally fastest, up to two orders of
//! magnitude over VEQ/Hybrid on citeseer/dblp.

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, train_model_for, Caches, Scale};
use rlqvo_core::RlQvoConfig;
use rlqvo_datasets::ALL_DATASETS;
use rlqvo_matching::{Method, ROSTER};

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 3 — average query processing time",
        "default query sets; t = t_filter + t_order + t_enum; unsolved = 500 s",
    );

    println!(
        "{:<10} {:>6} | {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} | unsolved(RL-QVO)",
        "dataset", "Qset", "RL-QVO", "VEQ", "Hybrid", "RI", "QSI", "VF2++", "GQL", "CFL"
    );

    for dataset in ALL_DATASETS {
        let g = dataset.load();
        let size = dataset.default_query_size();
        let split = split_queries(&g, dataset, size, &scale);
        let (model, _) = train_model_for(&g, dataset, size, &scale, RlQvoConfig::harness(), true);

        // One filtering pass + one CandidateSpace build per (query, filter
        // group), shared by all eight compared orders.
        let learned = model.ordering();
        let mut methods = vec![Method::learned(&learned)];
        methods.extend(ROSTER);
        let row: Vec<(String, f64, usize)> =
            run_methods(&g, &split.eval, &methods, scale.enum_config(), scale.threads, Caches::Local)
                .into_iter()
                .map(|s| (s.name.clone(), s.mean_total_secs(), s.unsolved))
                .collect();

        print!("{:<10} {:>6}", dataset.name(), format!("Q{size}"));
        print!(" |");
        let order = ["RL-QVO", "VEQ", "Hybrid", "RI", "QSI", "VF2++", "GQL", "CFL"];
        for name in order {
            let (_, secs, _) = row.iter().find(|(n, _, _)| n == name).expect("method present");
            print!(" {:>10.4}", secs);
        }
        let unsolved = row.iter().find(|(n, _, _)| n == "RL-QVO").map(|r| r.2).unwrap_or(0);
        println!(" | {unsolved}");
    }

    println!();
    println!("paper shape: RL-QVO lowest bar on every dataset (Fig. 3); largest gaps on");
    println!("citeseer/dblp (≈2 orders of magnitude vs VEQ/Hybrid).");
}
