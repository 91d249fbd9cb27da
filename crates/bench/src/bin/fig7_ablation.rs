//! Figure 7 — ablation study on the eu2005 analog: swap the GNN family
//! (GAT / GraphSAGE / GraphNN / ASAP / plain NN), randomize the input
//! features (RIF), and drop the entropy / validate rewards (NoEnt/NoVal).
//!
//! Paper expectation: the full model and the GNN-family variants cluster
//! together (choice of GNN barely matters); RL-QVO-NN (no structure) and
//! RL-QVO-RIF (no features) degrade clearly; NoEnt/NoVal hurt most on
//! large query sets.
//!
//! Cost note: the paper trains every variant on every query size; this
//! harness trains each variant once (on the dataset's mid-size Q16 set)
//! and evaluates across sizes — the cross-size application mirrors the
//! paper's incremental-training observation that policies transfer across
//! sizes.

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, Caches, Scale};
use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::Dataset;
use rlqvo_gnn::GnnKind;
use rlqvo_matching::{Method, SpaceCache};

struct Variant {
    name: &'static str,
    build: fn(RlQvoConfig) -> RlQvoConfig,
}

const VARIANTS: &[Variant] = &[
    Variant { name: "RL-QVO", build: |c| c },
    Variant {
        name: "RIF",
        build: |mut c| {
            c.random_features = true;
            c
        },
    },
    Variant {
        name: "NN",
        build: |mut c| {
            c.gnn_kind = GnnKind::Dense;
            c
        },
    },
    Variant {
        name: "GAT",
        build: |mut c| {
            c.gnn_kind = GnnKind::Gat;
            c
        },
    },
    Variant {
        name: "GraphSAGE",
        build: |mut c| {
            c.gnn_kind = GnnKind::GraphSage;
            c
        },
    },
    Variant {
        name: "GraphNN",
        build: |mut c| {
            c.gnn_kind = GnnKind::GraphConv;
            c
        },
    },
    Variant {
        name: "ASAP",
        build: |mut c| {
            c.gnn_kind = GnnKind::LeConv;
            c
        },
    },
    Variant {
        name: "NoEnt",
        build: |mut c| {
            c.reward.use_entropy = false;
            c
        },
    },
    Variant {
        name: "NoVal",
        build: |mut c| {
            c.reward.use_validate = false;
            c
        },
    },
];

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 7 — ablation on eu2005: query & enumeration time",
        "variants RIF/NN/GAT/GraphSAGE/GraphNN/ASAP/NoEnt/NoVal vs full RL-QVO",
    );
    let dataset = Dataset::Eu2005;
    let g = dataset.load();
    let train_split = split_queries(&g, dataset, 16, &scale);

    // Train every variant up front so evaluation can batch all nine
    // orders per query set: they share the GQL filter, so the amortized
    // runner performs exactly one filtering pass and one CandidateSpace
    // build per (query, data) pair across the whole ablation.
    let models: Vec<(&'static str, RlQvo)> = VARIANTS
        .iter()
        .map(|v| {
            let mut config = (v.build)(RlQvoConfig::harness());
            config.epochs = scale.train_epochs;
            let mut model = RlQvo::new(config);
            model.train(&train_split.train, &g);
            (v.name, model)
        })
        .collect();

    // Within a size, one cache entry per query serves all nine variants
    // (they share the GQL filter). Sizes never share queries, so the
    // cache is cleared between sizes — peak memory stays one size's
    // worth of candidate spaces instead of the whole sweep's.
    let cache = SpaceCache::new();
    let caches = Caches::Shared { spaces: &cache };
    let orderings: Vec<_> = models.iter().map(|(_, model)| model.ordering()).collect();
    println!("{:<10} {:>6} {:>12} {:>12} {:>10}", "variant", "Qset", "query(s)", "enum(s)", "unsolved");
    for &size in dataset.query_sizes() {
        let split = split_queries(&g, dataset, size, &scale);
        let methods: Vec<Method<'_>> =
            models.iter().zip(&orderings).map(|((name, _), o)| Method { name, ..Method::learned(o) }).collect();
        let all_stats = run_methods(&g, &split.eval, &methods, scale.enum_config(), scale.threads, caches);
        cache.clear();
        for stats in &all_stats {
            println!(
                "{:<10} {:>6} {:>12.5} {:>12.5} {:>10}",
                stats.name,
                format!("Q{size}"),
                stats.mean_total_secs(),
                stats.mean_enum_secs(),
                stats.unsolved
            );
        }
    }
    println!();
    println!("paper shape: GNN-family variants ≈ full model; NN and RIF clearly worse;");
    println!("NoEnt/NoVal degrade most at Q16/Q32.");
}
