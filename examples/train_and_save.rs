//! Domain scenario: offline training, persistent deployment.
//!
//! The paper positions training as a preprocessing step "which is a common
//! practice for various indexing techniques" (§III-A). This example trains
//! a model on the dblp-analog collaboration network, saves it next to the
//! binary, reloads it, and verifies the reloaded model produces identical
//! orders — the deploy-time workflow.
//!
//! ```text
//! cargo run --release --example train_and_save
//! ```

use rlqvo_suite::core::{RlQvo, RlQvoConfig};
use rlqvo_suite::datasets::{build_query_set, Dataset, SplitQuerySet};

fn main() {
    let g = Dataset::Dblp.load_scaled(4_000);
    let split = SplitQuerySet::from(build_query_set(&g, 12, 16, 77));

    let mut config = RlQvoConfig::harness();
    config.epochs = 12;
    let mut model = RlQvo::new(config);
    let report = model.train(&split.train, &g);
    println!(
        "trained in {:?}; last-epoch advantage over Hybrid: {:+.3}",
        report.elapsed,
        report.final_enum_advantage()
    );

    let path = std::env::temp_dir().join("rlqvo-dblp-demo.model");
    model.save(&path).expect("save model");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "saved {} ({} kB on disk; {} kB of parameters)",
        path.display(),
        bytes / 1024,
        model.storage_bytes() / 1024
    );

    let loaded = RlQvo::load(&path, RlQvoConfig::harness()).expect("load model");
    for q in &split.eval {
        assert_eq!(model.order_query(q, &g), loaded.order_query(q, &g), "loaded model must agree");
    }
    println!("reloaded model reproduces all {} evaluation orders exactly", split.eval.len());
    std::fs::remove_file(&path).ok();
}
