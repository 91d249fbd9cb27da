//! Quickstart: build a data graph, extract a query, and run the full
//! three-phase matching pipeline with both a heuristic ordering (Hybrid)
//! and a freshly trained RL-QVO ordering.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rlqvo_suite::core::{RlQvo, RlQvoConfig};
use rlqvo_suite::datasets::{build_query_set, Dataset};
use rlqvo_suite::matching::order::RiOrdering;
use rlqvo_suite::matching::{run_pipeline, EnumConfig, GqlFilter, Pipeline};

fn main() {
    // 1. A data graph: the yeast-analog protein-interaction network
    //    (3.1k vertices, 71 labels — paper Table II).
    let g = Dataset::Yeast.load();
    println!("data graph: {}", rlqvo_suite::graph::GraphStats::of(&g));

    // 2. A query workload: 12 connected 8-vertex subgraphs of G.
    let split = rlqvo_suite::datasets::SplitQuerySet::from(build_query_set(&g, 8, 12, 42));

    // 3. Train RL-QVO on the first half of the workload.
    let mut config = RlQvoConfig::harness();
    config.epochs = 15;
    let mut model = RlQvo::new(config);
    let report = model.train(&split.train, &g);
    println!(
        "trained {} epochs in {:?} (final advantage over Hybrid: {:+.3})",
        report.epochs.len(),
        report.elapsed,
        report.final_enum_advantage()
    );

    // 4. Match the held-out queries with Hybrid and with RL-QVO.
    let filter = GqlFilter::default();
    let enum_config = EnumConfig::default(); // first 10^5 matches, as in the paper
    let learned = model.ordering();
    let hybrid = Pipeline { filter: &filter, ordering: &RiOrdering, config: enum_config };
    let rlqvo = Pipeline { filter: &filter, ordering: &learned, config: enum_config };

    println!("\n{:<8} {:>12} {:>12} {:>10} {:>10}", "query", "Hybrid #enum", "RL-QVO #enum", "matches", "order");
    for (i, q) in split.eval.iter().enumerate() {
        let h = run_pipeline(q, &g, &hybrid);
        let r = run_pipeline(q, &g, &rlqvo);
        assert_eq!(h.enum_result.match_count, r.enum_result.match_count, "same matches, any order");
        println!(
            "{:<8} {:>12} {:>12} {:>10} {:>10?}",
            format!("q{i}"),
            h.enum_result.enumerations,
            r.enum_result.enumerations,
            r.enum_result.match_count,
            &r.order[..4.min(r.order.len())],
        );
    }
    println!("\nBoth pipelines find identical match sets; the ordering only changes #enum.");
}
