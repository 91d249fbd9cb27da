//! Figure 9 — full training vs incremental training vs pretrained-only,
//! on dblp/eu2005/youtube: query processing time AND training time.
//!
//! * `RL-QVO` — trained on the default (large) query set for the full
//!   epoch budget.
//! * `Incr` — pretrained on Q16 (Q8 for wordnet in the paper) for the full
//!   budget, then fine-tuned on the default set for ~1/10 of the epochs.
//! * `Pretrained` — the Q16 model applied to the default set directly.
//!
//! Paper expectation: RL-QVO slightly best on query time; Incr within a
//! hair of it while cutting training time by nearly two orders of
//! magnitude (the pretraining is amortized across query sets); Pretrained
//! clearly worse on query time.

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{run_methods, Caches, Scale};
use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::Dataset;
use rlqvo_matching::Method;

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 9 — incremental training",
        "paper: 100 epochs full vs 100 pre + 10 incremental vs pretrained-only",
    );

    println!("{:<10} {:<12} {:>12} {:>12} {:>12}", "dataset", "method", "query(s)", "enum(s)", "train(s)");
    for dataset in [Dataset::Dblp, Dataset::Eu2005, Dataset::Youtube] {
        let g = dataset.load();
        let size = dataset.default_query_size();
        let split = split_queries(&g, dataset, size, &scale);
        let pre_size = 16usize;
        let pre_split = split_queries(&g, dataset, pre_size, &scale);

        let mut config = RlQvoConfig::harness();
        config.epochs = scale.train_epochs;
        config.incremental_epochs = (scale.train_epochs / 10).max(2);

        // (1) Full training on the default set.
        let mut full = RlQvo::new(config);
        let full_report = full.train(&split.train, &g);

        // (2) Pretrain on the smaller set, fine-tune incrementally.
        let mut incr = RlQvo::new(config);
        let pre_report = incr.train(&pre_split.train, &g);
        let incr_report = incr.train_incremental(&split.train, &g);

        // (3) The pretrained model applied directly (rows share weights
        //     with (2) *before* fine-tuning, so train it separately).
        let mut pre_only = RlQvo::new(config);
        let pre_only_report = pre_only.train(&pre_split.train, &g);

        for (label, model, train_secs) in [
            ("RL-QVO", &full, full_report.elapsed.as_secs_f64()),
            ("Incr", &incr, pre_report.elapsed.as_secs_f64() + incr_report.elapsed.as_secs_f64()),
            ("Pretrained", &pre_only, pre_only_report.elapsed.as_secs_f64()),
        ] {
            let learned = model.ordering();
            let methods = [Method::learned(&learned)];
            let stats = &run_methods(&g, &split.eval, &methods, scale.enum_config(), scale.threads, Caches::Local)[0];
            println!(
                "{:<10} {:<12} {:>12.5} {:>12.5} {:>12.2}",
                dataset.name(),
                label,
                stats.mean_total_secs(),
                stats.mean_enum_secs(),
                train_secs
            );
        }
        println!();
    }
    println!("note: `Incr`'s training time charges the full pretraining; the paper's");
    println!("two-orders-of-magnitude saving counts only the 10 fine-tuning epochs");
    println!("(the pretrained model is shared across query sets). The incremental");
    println!("fine-tune alone is the `Incr − Pretrained` difference above.");
    println!("paper shape: query time RL-QVO ≤ Incr ≪ Pretrained; train time Incr ≪ RL-QVO.");
}
