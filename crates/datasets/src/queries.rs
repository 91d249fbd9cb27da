//! Query-set construction (paper Table III).
//!
//! The paper uses 200 query graphs for Q4/Q32 and 400 for Q8/Q16, with 50 %
//! used for training and the rest for evaluation. Counts here are
//! configurable so the harness can run scaled-down versions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlqvo_graph::{extract_connected_subgraph, Graph, SampleError};

/// A named set of same-size query graphs, e.g. `Q8`.
#[derive(Clone, Debug)]
pub struct QuerySet {
    /// Number of vertices in each query (`i` of `Qi`).
    pub size: usize,
    /// The query graphs. Label universes match the data graph.
    pub queries: Vec<Graph>,
}

impl QuerySet {
    /// Paper's query count for a given size (Table III): 200 for Q4/Q32,
    /// 400 for Q8/Q16.
    pub fn paper_count(size: usize) -> usize {
        match size {
            8 | 16 => 400,
            _ => 200,
        }
    }

    /// `Qi` display name.
    pub fn name(&self) -> String {
        format!("Q{}", self.size)
    }
}

/// A query set split into training and evaluation halves (paper: 50/50).
#[derive(Clone, Debug)]
pub struct SplitQuerySet {
    /// Query size.
    pub size: usize,
    /// Training queries (first half).
    pub train: Vec<Graph>,
    /// Evaluation queries (second half).
    pub eval: Vec<Graph>,
}

impl SplitQuerySet {
    /// Splits `set` 50/50 in generation order, as in the paper.
    pub fn from(set: QuerySet) -> Self {
        let mid = set.queries.len() / 2;
        let mut queries = set.queries;
        let eval = queries.split_off(mid);
        SplitQuerySet { size: set.size, train: queries, eval }
    }
}

/// Builds a query set of `count` connected `size`-vertex subgraphs of `g`.
///
/// Queries are extracted independently with a derived seed per query, so a
/// set is reproducible and adding queries never perturbs earlier ones.
/// Panics where [`try_build_query_set`] returns an error.
pub fn build_query_set(g: &Graph, size: usize, count: usize, seed: u64) -> QuerySet {
    try_build_query_set(g, size, count, seed).expect("data graph too fragmented for the requested query size")
}

/// [`build_query_set`], returning the first extraction that fails — a
/// `size` of 0 or above `|V(g)|`, or no connected `size`-vertex subgraph
/// found — instead of panicking.
pub fn try_build_query_set(g: &Graph, size: usize, count: usize, seed: u64) -> Result<QuerySet, SampleError> {
    let queries = (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)));
            extract_connected_subgraph(g, size, &mut rng).map(|(q, _)| q)
        })
        .collect::<Result<_, _>>()?;
    Ok(QuerySet { size, queries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    #[test]
    fn builds_requested_count_and_size() {
        let g = Dataset::Yeast.load_scaled(800);
        let set = build_query_set(&g, 8, 10, 42);
        assert_eq!(set.queries.len(), 10);
        assert!(set.queries.iter().all(|q| q.num_vertices() == 8));
        assert!(set.queries.iter().all(|q| q.is_connected()));
        assert_eq!(set.name(), "Q8");
    }

    #[test]
    fn paper_counts_match_table_iii() {
        assert_eq!(QuerySet::paper_count(4), 200);
        assert_eq!(QuerySet::paper_count(8), 400);
        assert_eq!(QuerySet::paper_count(16), 400);
        assert_eq!(QuerySet::paper_count(32), 200);
    }

    #[test]
    fn split_is_half_half() {
        let g = Dataset::Yeast.load_scaled(800);
        let set = build_query_set(&g, 4, 11, 1);
        let split = SplitQuerySet::from(set);
        assert_eq!(split.train.len(), 5);
        assert_eq!(split.eval.len(), 6);
        assert_eq!(split.size, 4);
    }

    #[test]
    fn per_query_seeds_are_stable_under_count_growth() {
        let g = Dataset::Yeast.load_scaled(800);
        let small = build_query_set(&g, 6, 3, 9);
        let large = build_query_set(&g, 6, 6, 9);
        for (a, b) in small.queries.iter().zip(&large.queries) {
            assert_eq!(a.labels(), b.labels());
            assert_eq!(a.num_edges(), b.num_edges());
        }
    }

    #[test]
    fn queries_share_data_label_universe() {
        let g = Dataset::Dblp.load_scaled(2000);
        let set = build_query_set(&g, 8, 5, 3);
        for q in &set.queries {
            assert_eq!(q.num_labels(), g.num_labels());
        }
    }
}
