//! Table II (dataset properties) and Table III (query sets).
//!
//! Prints the analog graphs' measured properties next to the paper's
//! ground truth for the real datasets, plus the query-set inventory.

use rlqvo_bench::Scale;
use rlqvo_datasets::{QuerySet, ALL_DATASETS};
use rlqvo_graph::GraphStats;

fn main() {
    let scale = Scale::from_cli();
    scale.banner(
        "Table II/III — dataset properties & query sets",
        "6 real graphs, |V| 3.1k–1.1M; query sets Q4–Q32 (Q16 max for Wordnet)",
    );

    println!("Table II — paper (real graph) vs analog (this harness)");
    println!(
        "{:<10} {:>9} {:>10} {:>5} {:>6}   {:>9} {:>10} {:>5} {:>6} {:>10}",
        "dataset", "|V|", "|E|", "|L|", "d", "|V|*", "|E|*", "|L|*", "d*", "space*"
    );
    for d in ALL_DATASETS {
        let paper = d.paper_properties();
        let g = d.load();
        let s = GraphStats::of(&g);
        println!(
            "{:<10} {:>9} {:>10} {:>5} {:>6.1}   {:>9} {:>10} {:>5} {:>6.1} {:>9}kB",
            d.name(),
            paper.num_vertices,
            paper.num_edges,
            paper.num_labels,
            paper.avg_degree,
            s.num_vertices,
            s.num_edges,
            s.num_labels_present,
            s.avg_degree,
            s.storage_bytes / 1024,
        );
    }
    println!("(* = analog, scaled per DESIGN.md §2; |L| and d match the paper by construction)");

    println!();
    println!("Table III — query sets");
    println!("{:<10} {:>18} {:>9} {:>22}", "dataset", "sizes", "default", "paper count / harness");
    for d in ALL_DATASETS {
        let sizes: Vec<String> = d.query_sizes().iter().map(|s| format!("Q{s}")).collect();
        let counts: Vec<String> = d
            .query_sizes()
            .iter()
            .map(|&s| format!("{}→{}", QuerySet::paper_count(s), scale.queries_per_set))
            .collect();
        println!(
            "{:<10} {:>18} {:>9} {:>22}",
            d.name(),
            sizes.join(","),
            format!("Q{}", d.default_query_size()),
            counts.join(" ")
        );
    }
}
