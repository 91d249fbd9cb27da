//! Training diagnostics (not a paper figure): prints the per-epoch
//! learning curve — mean episode return, mean enumeration advantage over
//! the RI baseline, and policy entropy — plus the eval-set comparison
//! against Hybrid after training. Used to sanity-check that learning
//! actually happens before running the figure harnesses.

use rlqvo_bench::models::split_queries;
use rlqvo_bench::scale::env_or;
use rlqvo_bench::{run_methods, Caches, Scale};
use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::Dataset;
use rlqvo_matching::Method;

fn main() {
    let scale = Scale::default();
    let dataset = std::env::args().nth(1).and_then(|n| Dataset::from_name(&n)).unwrap_or(Dataset::Dblp);
    scale.banner("training diagnostics", "not a paper figure");

    let g = dataset.load();
    let size = dataset.default_query_size();
    let split = split_queries(&g, dataset, size, &scale);
    println!("dataset {} Q{} | {} train / {} eval queries", dataset.name(), size, split.train.len(), split.eval.len());

    let mut config = RlQvoConfig::harness();
    config.epochs = scale.train_epochs;
    config.learning_rate = env_or("RLQVO_LR", config.learning_rate);
    config.dropout = env_or("RLQVO_DROPOUT", config.dropout);
    config.rollouts_per_query = env_or("RLQVO_ROLLOUTS", config.rollouts_per_query);
    config.update_epochs = env_or("RLQVO_UPDATE_EPOCHS", config.update_epochs);
    println!(
        "lr {} dropout {} rollouts {} update_epochs {}",
        config.learning_rate, config.dropout, config.rollouts_per_query, config.update_epochs
    );
    let mut model = RlQvo::new(config);
    let report = model.train(&split.train, &g);
    println!("training took {:?}", report.elapsed);
    println!("{:>5} {:>12} {:>12} {:>10}", "epoch", "return", "enum_adv", "entropy");
    for (i, e) in report.epochs.iter().enumerate() {
        println!("{:>5} {:>12.4} {:>12.4} {:>10.4}", i + 1, e.mean_return, e.mean_enum_advantage, e.mean_entropy);
    }

    let learned = model.ordering();
    // One method per run, so neither shares the other's filter pass or
    // space build and the totals are what each pays alone.
    let run = |queries, method| {
        run_methods(&g, queries, &[method], scale.enum_config(), scale.threads, Caches::Local).remove(0)
    };
    let (rl, hy) = (Method::learned(&learned), Method::hybrid());
    let rl_train = run(&split.train, rl);
    let hy_train = run(&split.train, hy);
    println!();
    println!(
        "train(greedy): RL-QVO #enum {:.0} vs Hybrid #enum {:.0} | totals {:.4}s vs {:.4}s",
        rl_train.mean_enumerations(),
        hy_train.mean_enumerations(),
        rl_train.mean_total_secs(),
        hy_train.mean_total_secs()
    );
    let rl_stats = run(&split.eval, rl);
    let hy_stats = run(&split.eval, hy);
    println!(
        "eval: RL-QVO mean total {:.4}s (enum {:.4}s, order {:.4}s, #enum {:.0}, unsolved {})",
        rl_stats.mean_total_secs(),
        rl_stats.mean_enum_secs(),
        rl_stats.mean_order_secs(),
        rl_stats.mean_enumerations(),
        rl_stats.unsolved
    );
    println!(
        "eval: Hybrid mean total {:.4}s (enum {:.4}s, #enum {:.0}, unsolved {})",
        hy_stats.mean_total_secs(),
        hy_stats.mean_enum_secs(),
        hy_stats.mean_enumerations(),
        hy_stats.unsolved
    );
}
