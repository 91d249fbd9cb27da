//! Input generation: every graph, query and draw is a function of the
//! workload seed (data-graph analogs keep their own fixed seeds). The
//! program under test only ever sees the generated graphs and requests.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;
use rlqvo_datasets::build_query_set;
use rlqvo_graph::io::write_graph;
use rlqvo_graph::{Graph, GraphBuilder, VertexId};
use rlqvo_matching::{enumerate_probe, CandidateFilter, EnumConfig, EnumEngine, GqlFilter, OrderingMethod};

/// Recursive calls the probe oracle may spend on one sampled query. A
/// candidate over it is dropped before any timing (a count, not a
/// clock, so the kept set is a pure function of the seed): the paper
/// counts such queries as unsolved; the ledger wants every pass to do
/// the same bounded work and no operation to fail.
pub const SCREEN_BUDGET: u64 = 1_000_000;

/// The GQL filter of `Hybrid`, its one knob written out.
pub const GQL: GqlFilter = GqlFilter { refinement_rounds: 2 };

/// Every [`EnumConfig`] field literally: `EnumConfig::default()` reads
/// `RLQVO_ENUM_THREADS` and `RLQVO_ENGINE` is one `from_env` away, and
/// ambient state must not reach a measurement.
pub fn enum_config(max_matches: u64, engine: EnumEngine, threads: usize) -> EnumConfig {
    EnumConfig {
        max_matches,
        time_limit: Duration::from_secs(500),
        max_enumerations: u64::MAX,
        store_matches: false,
        engine,
        threads,
        deadline: None,
        cancel: None,
        deterministic: false,
        pool_tokens: None,
        heartbeat: None,
    }
}

/// One sampled query with what the probe oracle says about it.
pub struct Query {
    pub graph: Graph,
    /// Match count every engine must report.
    pub matches: u64,
    /// `#enum` under each ordering passed to [`screen`], same order.
    pub enums: Vec<u64>,
}

/// `count` connected `size`-vertex subgraphs of `g`, plus a quarter
/// spare for [`screen`] to drop from.
pub fn candidates(g: &Graph, size: usize, count: usize, seed: u64) -> Vec<Graph> {
    build_query_set(g, size, count + count / 4 + 4, seed).queries
}

/// The output oracle and the tail screen in one untimed pass: runs each
/// candidate through `enumerate_probe` under every ordering and keeps
/// the first `count` that stay within [`SCREEN_BUDGET`] under all of
/// them. Uncapped queries must agree on the match count across
/// orderings; a disagreement is returned as a failed operation.
pub fn screen(
    g: &Graph,
    pool: Vec<Graph>,
    count: usize,
    max_matches: u64,
    orderings: &[&dyn OrderingMethod],
) -> Result<(Vec<Query>, u64), String> {
    let oracle = EnumConfig { max_enumerations: SCREEN_BUDGET, ..enum_config(max_matches, EnumEngine::Probe, 1) };
    let mut kept = Vec::with_capacity(count);
    let mut failed = 0;
    for graph in pool {
        if kept.len() == count {
            break;
        }
        let cand = GQL.filter(&graph, g);
        let runs: Vec<_> =
            orderings.iter().map(|o| enumerate_probe(&graph, g, &cand, &o.order(&graph, g, &cand), oracle)).collect();
        if runs.iter().any(|r| r.budget_exhausted || r.timed_out) {
            continue;
        }
        if runs.iter().any(|r| r.match_count != runs[0].match_count) {
            failed += 1;
        }
        kept.push(Query { graph, matches: runs[0].match_count, enums: runs.iter().map(|r| r.enumerations).collect() });
    }
    if kept.len() < count {
        return Err(format!("only {} of {count} sampled queries fit the screen budget", kept.len()));
    }
    Ok((kept, failed))
}

pub fn graph_text(q: &Graph) -> String {
    let mut buf = Vec::new();
    write_graph(q, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("graph text is ascii")
}

/// Zipf(s) over `n` ranks (the vendored `rand` has no distributions).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A host/query pair of `findall-heavy` with its pinned find-all count.
pub struct Host {
    pub name: &'static str,
    pub g: Graph,
    pub q: Graph,
    /// Matching order; `None` = RI.
    pub order: Option<Vec<VertexId>>,
    pub matches: u64,
}

/// Builds a host from labels and edges given in the generator's own
/// numbering, renumbered by rotating every id by `seed mod n`. The
/// result is isomorphic whatever the seed, so the pinned match counts
/// hold and every seed does the same work on a different layout.
fn rotated(num_labels: u32, labels: &[u32], edges: &[(u32, u32)], seed: u64) -> Graph {
    let n = labels.len() as u32;
    let r = (seed % n as u64) as u32;
    let at = |v: u32| (v + r) % n;
    let mut placed = vec![0u32; n as usize];
    for (v, &l) in labels.iter().enumerate() {
        placed[at(v as u32) as usize] = l;
    }
    let mut b = GraphBuilder::with_capacity(num_labels, labels.len(), edges.len());
    for l in placed {
        b.add_vertex(l);
    }
    for &(u, v) in edges {
        b.add_edge(at(u), at(v));
    }
    b.build()
}

fn small_query(num_labels: u32, labels: &[u32], edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(num_labels);
    for &l in labels {
        b.add_vertex(l);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// The three adversarial hosts of `crates/bench/benches/kernels.rs`
/// (`dense_case`, `skewed_case`, `steal_single_root_case`), shrunk by
/// `scale` for `--smoke` (pins then do not apply: `matches` is 0).
pub fn adversarial_hosts(seed: u64, scale: u32) -> Vec<Host> {
    let pin = |m: u64| if scale == 1 { m } else { 0 };

    // Dense band, 3 labels, K4 query: multi-way intersections.
    let n = 500 / scale;
    let labels: Vec<u32> = (0..n).map(|i| i % 3).collect();
    let edges: Vec<(u32, u32)> = (0..n).flat_map(|i| ((i + 1)..n.min(i + 20)).map(move |j| (i, j))).collect();
    let dense = Host {
        name: "dense_band",
        g: rotated(3, &labels, &edges, seed),
        q: small_query(3, &[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)]),
        order: None,
        matches: pin(156_324),
    };

    // Rare hubs of degree ~200 among low-degree commons, 4-cycle query.
    let n = 3000 / scale;
    let labels: Vec<u32> = (0..n).map(|i| u32::from(i % 60 != 0)).collect();
    let mut edges: Vec<(u32, u32)> = (0..n).flat_map(|i| ((i + 1)..n.min(i + 8)).map(move |j| (i, j))).collect();
    edges.extend((0..n).step_by(60).flat_map(|h| ((h + 1)..n.min(h + 200)).map(move |j| (h, j))));
    let skewed = Host {
        name: "skewed_hub",
        g: rotated(2, &labels, &edges, seed),
        q: small_query(2, &[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]),
        order: None,
        matches: pin(2_716_068),
    };

    // One mega-hub is the root's only candidate: root partitioning
    // degenerates, stealing must split below the root.
    let n = 20_000 / scale;
    let mut labels = vec![1u32; n as usize + 1];
    labels[0] = 0;
    let mut edges: Vec<(u32, u32)> = (1..=n).map(|v| (0, v)).collect();
    edges.extend((1..n).flat_map(|v| (1..=8u32).filter(move |s| v + s <= n).map(move |s| (v, v + s))));
    let single = Host {
        name: "single_root",
        g: rotated(2, &labels, &edges, seed),
        q: small_query(2, &[0, 1, 1], &[(0, 1), (0, 2), (1, 2)]),
        order: Some(vec![0, 1, 2]),
        matches: pin(319_928),
    };
    vec![dense, skewed, single]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rotation_keeps_the_host_isomorphic() {
        let a = adversarial_hosts(0, 10);
        let b = adversarial_hosts(12_345, 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.g.num_vertices(), y.g.num_vertices(), "{}", x.name);
            assert_eq!(x.g.num_edges(), y.g.num_edges(), "{}", x.name);
            let mut dx: Vec<(u32, u32)> = x.g.vertices().map(|v| (x.g.label(v), x.g.degree(v))).collect();
            let mut dy: Vec<(u32, u32)> = y.g.vertices().map(|v| (y.g.label(v), y.g.degree(v))).collect();
            dx.sort_unstable();
            dy.sort_unstable();
            assert_eq!(dx, dy, "{}", x.name);
        }
        assert_ne!(a[0].g.labels(), b[0].g.labels(), "a different seed lays the host out differently");
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(24, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0u32; 24];
        for _ in 0..10_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[5] && hits[5] > hits[23]);
    }
}
