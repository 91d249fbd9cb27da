//! Figure 6 — enumeration-time spectrum against the optimal matching
//! order: 15 random Q8 queries each on citeseer/yeast/dblp, all matches,
//! optimum found by evaluating every connected permutation.
//!
//! Paper expectation: RL-QVO sits much closer to Opt than Hybrid does.

use rlqvo_bench::models::split_queries;
use rlqvo_bench::{train_model_for, Scale};
use rlqvo_core::RlQvoConfig;
use rlqvo_datasets::Dataset;
use rlqvo_matching::order::OptimalOrdering;
use rlqvo_matching::{enumerate, enumerate_in_space, CandidateFilter, CandidateSpace, EnumConfig, GqlFilter, Method};

/// Per-permutation budget of the exhaustive sweep: heavy dblp-analog
/// queries make an unbudgeted sweep expensive, so the optimum is the best
/// order within it.
const OPT_BUDGET: u64 = 2_000_000;

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Figure 6 — spectrum analysis vs optimal order",
        "15 random Q8 queries on Citeseer/Yeast/DBLP; find ALL matches",
    );
    let num_queries = 15usize;
    let config = EnumConfig { max_matches: u64::MAX, ..scale.enum_config() };
    let opt = OptimalOrdering { per_order_config: EnumConfig::budgeted(OPT_BUDGET) };

    for dataset in [Dataset::Citeseer, Dataset::Yeast, Dataset::Dblp] {
        let g = dataset.load();
        let split = split_queries(&g, dataset, 8, &scale);
        let (model, _) = train_model_for(&g, dataset, 8, &scale, RlQvoConfig::harness(), true);
        let filter = GqlFilter::default();
        let hybrid = Method::hybrid();
        let learned = model.ordering();
        let rlqvo = Method::learned(&learned);

        let eval = &split.eval[..num_queries.min(split.eval.len())];
        println!("--- {} (Q8, {} queries) — #enum per query ---", dataset.name(), eval.len());
        println!("{:<6} {:>12} {:>12} {:>12} {:>10} {:>10}", "query", "Opt", "RL-QVO", "Hybrid", "RL/Opt", "Hyb/Opt");
        let mut geo_rl = 0.0f64;
        let mut geo_hy = 0.0f64;
        for (i, q) in eval.iter().enumerate() {
            let cand = filter.filter(q, &g);
            // Exactly one CandidateSpace build per (query, data) pair: the
            // exhaustive Opt sweep and both compared orders all enumerate
            // in the same prebuilt space (none when a candidate set is
            // empty: every order then enumerates nothing).
            let space = (!cand.any_empty()).then(|| CandidateSpace::build(q, &g, &cand));
            let (_, opt_cost) = opt.order_with_cost_in_space(q, &g, &cand, space.as_ref());
            let rl_order = rlqvo.ordering.order(q, &g, &cand);
            let hy_order = hybrid.ordering.order(q, &g, &cand);
            let cost = |order: &[u32]| match &space {
                Some(cs) => enumerate_in_space(q, cs, order, config).enumerations,
                None => enumerate(q, &g, &cand, order, config).enumerations,
            };
            let rl_cost = cost(&rl_order);
            let hy_cost = cost(&hy_order);
            let rl_ratio = (rl_cost + 1) as f64 / (opt_cost + 1) as f64;
            let hy_ratio = (hy_cost + 1) as f64 / (opt_cost + 1) as f64;
            geo_rl += rl_ratio.ln();
            geo_hy += hy_ratio.ln();
            println!(
                "{:<6} {:>12} {:>12} {:>12} {:>10.2} {:>10.2}",
                format!("q{}", i + 1),
                opt_cost,
                rl_cost,
                hy_cost,
                rl_ratio,
                hy_ratio
            );
        }
        println!(
            "geometric mean #enum ratio vs Opt: RL-QVO {:.2}, Hybrid {:.2}",
            (geo_rl / eval.len() as f64).exp(),
            (geo_hy / eval.len() as f64).exp()
        );
        println!();
    }
    println!("paper shape: RL-QVO's bars hug Opt; Hybrid shows visible gaps on many queries.");
}
