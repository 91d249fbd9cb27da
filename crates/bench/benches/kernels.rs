//! Criterion micro-benchmarks for the hot kernels, backing the paper's
//! complexity claims (§III-G): order inference is
//! `O(|V(q)|·(|E(q)|+d²))` and completes well under 100 ms; filtering and
//! enumeration dominate end-to-end time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_gnn::GraphTensors;
use rlqvo_graph::{intersect_in_place, intersect_into, GraphBuilder};
use rlqvo_matching::order::{GqlOrdering, OrderingMethod, QsiOrdering, RiOrdering, VeqOrdering, Vf2ppOrdering};
use rlqvo_matching::{
    enumerate, enumerate_in_space, CandidateFilter, CandidateSpace, EnumConfig, EnumEngine, GqlFilter, LdfFilter,
    NlfFilter,
};
use rlqvo_tensor::{Matrix, Tape};

fn bench_filters(c: &mut Criterion) {
    let g = Dataset::Yeast.load();
    let q = build_query_set(&g, 16, 1, 7).queries.pop().unwrap();
    let mut group = c.benchmark_group("filter");
    group.bench_function("LDF", |b| b.iter(|| LdfFilter.filter(&q, &g)));
    group.bench_function("NLF", |b| b.iter(|| NlfFilter.filter(&q, &g)));
    group.bench_function("GQL", |b| b.iter(|| GqlFilter::default().filter(&q, &g)));
    group.finish();
}

fn bench_orderings(c: &mut Criterion) {
    let g = Dataset::Yeast.load();
    let q = build_query_set(&g, 16, 1, 7).queries.pop().unwrap();
    let cand = GqlFilter::default().filter(&q, &g);
    let methods: Vec<(&str, Box<dyn OrderingMethod>)> = vec![
        ("RI", Box::new(RiOrdering)),
        ("QSI", Box::new(QsiOrdering)),
        ("VF2++", Box::new(Vf2ppOrdering)),
        ("GQL", Box::new(GqlOrdering)),
        ("VEQ", Box::new(VeqOrdering)),
    ];
    let mut group = c.benchmark_group("ordering");
    for (name, m) in &methods {
        group.bench_with_input(BenchmarkId::from_parameter(name), m, |b, m| b.iter(|| m.order(&q, &g, &cand)));
    }
    group.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    let g = Dataset::Yeast.load();
    let q = build_query_set(&g, 12, 1, 3).queries.pop().unwrap();
    let cand = GqlFilter::default().filter(&q, &g);
    let order = RiOrdering.order(&q, &g, &cand);
    let config = EnumConfig { max_matches: 1_000, ..EnumConfig::default() };
    c.bench_function("enumerate/first-1k-matches", |b| b.iter(|| enumerate(&q, &g, &cand, &order, config)));
}

fn bench_intersect_kernels(c: &mut Criterion) {
    // Similar sizes → linear merge regime.
    let a: Vec<u32> = (0..40_000).filter(|x| x % 3 != 0).collect();
    let b: Vec<u32> = (0..40_000).filter(|x| x % 5 != 0).collect();
    // Heavily skewed → galloping regime.
    let small: Vec<u32> = (0..40_000).step_by(700).collect();
    let mut group = c.benchmark_group("intersect");
    let mut out: Vec<u32> = Vec::with_capacity(a.len());
    group.bench_function("merge-similar-27k-32k", |bch| bch.iter(|| intersect_into(&mut out, &a, &b)));
    group.bench_function("gallop-skewed-58-32k", |bch| bch.iter(|| intersect_into(&mut out, &small, &b)));
    group.bench_function("in-place-similar", |bch| {
        bch.iter(|| {
            out.clear();
            out.extend_from_slice(&a);
            intersect_in_place(&mut out, &b);
        })
    });
    group.finish();
}

/// A dense banded host with few labels: candidate sets are large and the
/// probe path pays a membership test plus `has_edge` binary searches per
/// scanned neighbour — the regime the CandidateSpace engine exists for.
fn dense_case() -> (rlqvo_graph::Graph, rlqvo_graph::Graph) {
    let labels = 3u32;
    let n = 500u32;
    let mut gb = GraphBuilder::new(labels);
    for i in 0..n {
        gb.add_vertex(i % labels);
    }
    for i in 0..n {
        for j in (i + 1)..n.min(i + 20) {
            gb.add_edge(i, j);
        }
    }
    let g = gb.build();
    // K4 query: every extension after the first two has 2–3 mapped
    // backward neighbours, the multi-way-intersection regime.
    let mut qb = GraphBuilder::new(labels);
    let a = qb.add_vertex(0);
    let b = qb.add_vertex(1);
    let c = qb.add_vertex(2);
    let d = qb.add_vertex(0);
    qb.add_edge(a, b);
    qb.add_edge(b, c);
    qb.add_edge(c, d);
    qb.add_edge(a, c);
    qb.add_edge(a, d);
    qb.add_edge(b, d);
    (qb.build(), g)
}

/// Skewed-candidate case: a rare hub label (|C| ≈ 50, degree ≈ 200) and a
/// common label (|C| ≈ 2950, low degree). Extending onto a vertex whose
/// mapped backward neighbours are hubs forces the probe engine to scan a
/// ~200-entry adjacency list with an O(log d) `has_edge` per entry, while
/// the CandidateSpace engine merges two precomputed position lists.
fn skewed_case() -> (rlqvo_graph::Graph, rlqvo_graph::Graph) {
    let n = 3000u32;
    let hub_every = 60u32;
    let mut gb = GraphBuilder::new(2);
    for i in 0..n {
        gb.add_vertex(if i % hub_every == 0 { 0 } else { 1 });
    }
    for i in 0..n {
        for j in (i + 1)..n.min(i + 8) {
            gb.add_edge(i, j);
        }
    }
    for h in (0..n).step_by(hub_every as usize) {
        for j in (h + 1)..n.min(h + 200) {
            gb.add_edge(h, j);
        }
    }
    let g = gb.build();
    // 4-cycle hub-common-hub-common.
    let mut qb = GraphBuilder::new(2);
    let a = qb.add_vertex(0);
    let b = qb.add_vertex(1);
    let c = qb.add_vertex(0);
    let d = qb.add_vertex(1);
    qb.add_edge(a, b);
    qb.add_edge(b, c);
    qb.add_edge(c, d);
    qb.add_edge(a, d);
    (qb.build(), g)
}

fn bench_candspace_build(c: &mut Criterion) {
    let g = Dataset::Yeast.load();
    let q = build_query_set(&g, 12, 1, 3).queries.pop().unwrap();
    let cand = GqlFilter::default().filter(&q, &g);
    let mut group = c.benchmark_group("candspace");
    group.bench_function("build/yeast-q12", |b| b.iter(|| CandidateSpace::build(&q, &g, &cand)));
    let (dq, dg) = dense_case();
    let dcand = LdfFilter.filter(&dq, &dg);
    group.bench_function("build/dense-band", |b| b.iter(|| CandidateSpace::build(&dq, &dg, &dcand)));
    let (sq, sg) = skewed_case();
    let scand = LdfFilter.filter(&sq, &sg);
    group.bench_function("build/skewed-hub", |b| b.iter(|| CandidateSpace::build(&sq, &sg, &scand)));
    group.finish();
}

/// Probe vs. CandidateSpace on the dense/skewed-candidate cases — the
/// before/after numbers recorded in BENCH_enum.json.
fn bench_enum_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    {
        let (q, g) = dense_case();
        let cand = LdfFilter.filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        let cfg = EnumConfig::find_all();
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
            group.bench_with_input(BenchmarkId::new("dense-band-all", engine.name()), &engine, |b, &e| {
                b.iter(|| enumerate(&q, &g, &cand, &order, cfg.with_engine(e)))
            });
        }
    }
    {
        let (q, g) = skewed_case();
        let cand = LdfFilter.filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        let cfg = EnumConfig { max_matches: 200_000, ..EnumConfig::find_all() };
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
            group.bench_with_input(BenchmarkId::new("skewed-hub-200k", engine.name()), &engine, |b, &e| {
                b.iter(|| enumerate(&q, &g, &cand, &order, cfg.with_engine(e)))
            });
        }
    }
    {
        let g = Dataset::Yeast.load();
        let q = build_query_set(&g, 12, 1, 3).queries.pop().unwrap();
        let cand = GqlFilter::default().filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        let cfg = EnumConfig { max_matches: 1_000, ..EnumConfig::default() };
        // `auto` is the cost model's headline case: this small workload is
        // build-dominated, so Auto should track whichever side wins.
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
            group.bench_with_input(BenchmarkId::new("yeast-first-1k", engine.name()), &engine, |b, &e| {
                b.iter(|| enumerate(&q, &g, &cand, &order, cfg.with_engine(e)))
            });
        }
        // The build-once/enumerate-many contract: what each *additional*
        // order costs once the space is amortized across the harness.
        let space = CandidateSpace::build(&q, &g, &cand);
        group.bench_function("yeast-first-1k/amortized", |b| b.iter(|| enumerate_in_space(&q, &space, &order, cfg)));
    }
    {
        let (q, g) = dense_case();
        let cand = LdfFilter.filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        let space = CandidateSpace::build(&q, &g, &cand);
        let cfg = EnumConfig::find_all();
        group.bench_function("dense-band-all/amortized", |b| b.iter(|| enumerate_in_space(&q, &space, &order, cfg)));
    }
    group.finish();
}

/// The work-stealing scheduler's worst case for the old root-partitioned
/// pool: one unique-labeled mega-hub is the query root's ONLY candidate,
/// so root partitioning degenerates to one busy worker. Stealing splits
/// the subtree below the root instead.
fn steal_single_root_case() -> (rlqvo_graph::Graph, rlqvo_graph::Graph) {
    let n = 20_000u32;
    let mut gb = GraphBuilder::new(2);
    gb.add_vertex(0); // the hub: the unique label-0 vertex
    for _ in 0..n {
        gb.add_vertex(1);
    }
    for v in 1..=n {
        gb.add_edge(0, v);
    }
    for v in 1..n {
        for step in 1..=8u32 {
            if v + step <= n {
                gb.add_edge(v, v + step);
            }
        }
    }
    let g = gb.build();
    // Triangle rooted at the hub label: all the fan-out is at depth 1.
    let mut qb = GraphBuilder::new(2);
    let a = qb.add_vertex(0);
    let b = qb.add_vertex(1);
    let c = qb.add_vertex(1);
    qb.add_edge(a, b);
    qb.add_edge(a, c);
    qb.add_edge(b, c);
    (qb.build(), g)
}

/// Intra-query parallel enumeration over prebuilt spaces: the serial
/// amortized kernels at 1/2/4 workers. Find-all is byte-identical across
/// worker counts, so these measure pure wall-clock scaling of the
/// work-stealing scheduler — `threads = 1` is the same recursion run
/// serially on the calling thread. The `steal-single-root` rows
/// are the adversarial shape the retired root-partitioned pool could
/// not parallelize at all. (On a single-core host the >1 worker rows
/// measure scheduling overhead, not speedup — BENCH_enum.json records
/// which kind of host produced each entry.)
fn bench_parallel_enum(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    {
        let (q, g) = dense_case();
        let cand = LdfFilter.filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        let space = CandidateSpace::build(&q, &g, &cand);
        for threads in [1usize, 2, 4] {
            let cfg = EnumConfig::find_all().with_threads(threads);
            group.bench_with_input(BenchmarkId::new("steal-dense-band-all", threads), &threads, |b, _| {
                b.iter(|| enumerate_in_space(&q, &space, &order, cfg))
            });
        }
    }
    {
        let (q, g) = skewed_case();
        let cand = LdfFilter.filter(&q, &g);
        let order = RiOrdering.order(&q, &g, &cand);
        let space = CandidateSpace::build(&q, &g, &cand);
        for threads in [1usize, 2, 4] {
            let cfg = EnumConfig::find_all().with_threads(threads);
            group.bench_with_input(BenchmarkId::new("steal-skewed-hub-all", threads), &threads, |b, _| {
                b.iter(|| enumerate_in_space(&q, &space, &order, cfg))
            });
        }
    }
    {
        let (q, g) = steal_single_root_case();
        let cand = LdfFilter.filter(&q, &g);
        let order = vec![0u32, 1, 2]; // rooted at the single-candidate hub
        let space = CandidateSpace::build(&q, &g, &cand);
        for threads in [1usize, 2, 4] {
            let cfg = EnumConfig::find_all().with_threads(threads);
            group.bench_with_input(BenchmarkId::new("steal-single-root", threads), &threads, |b, _| {
                b.iter(|| enumerate_in_space(&q, &space, &order, cfg))
            });
        }
    }
    group.finish();
}

/// The ISSUE-7 thrash regime: cold-miss cost *at capacity*, where every
/// distinct lookup must evict a victim before (well, after) inserting.
/// Measured through `OrderCache` with a trivial fixed-size compute so the
/// numbers isolate the eviction machinery — victim selection + unlink +
/// accounting — from filter/build cost. The resident count axis {128,
/// 1024} is the point: under the retained `ScanReference` policy (the
/// pre-PR-7 global LRU scan) cost grows ~8x with residents; under the
/// default `Sampled` policy it must stay flat.
fn bench_cache_thrash(c: &mut Criterion) {
    use rlqvo_matching::{CacheConfig, EvictPolicy, OrderCache, QueryKey};
    let q = build_query_set(&Dataset::Yeast.load(), 6, 1, 3).queries.pop().unwrap();
    // One query, distinct variants: eviction cost depends on keys and
    // weights only.
    let key = QueryKey::of(&q);
    let mut group = c.benchmark_group("cache-thrash");
    for policy in [EvictPolicy::Sampled, EvictPolicy::ScanReference] {
        for residents in [128usize, 1024] {
            let cache =
                OrderCache::with_config(CacheConfig { max_entries: Some(residents), policy, ..CacheConfig::default() });
            // Fill to capacity so every benchmarked lookup is a cold miss
            // that must evict.
            for i in 0..residents as u64 {
                cache.get_or_compute_keyed(&key, &format!("V{i}"), &q, || vec![0; 16]);
            }
            let mut next = residents as u64;
            let name = match policy {
                EvictPolicy::Sampled => "cold-miss-at-capacity/sampled",
                EvictPolicy::ScanReference => "cold-miss-at-capacity/scan-reference",
            };
            group.bench_with_input(BenchmarkId::new(name, residents), &residents, |b, _| {
                b.iter(|| {
                    next += 1;
                    cache.get_or_compute_keyed(&key, &format!("V{next}"), &q, || vec![0; 16])
                })
            });
        }
    }
    group.finish();
}

/// The PR 5 inference-path contract: tape-based vs tape-free policy
/// forward (one ordering step) and full order inference. (The cache hits
/// that replace both for repeated queries are the ledger's
/// `matching.spacecache.hit_ns` / `matching.ordercache.hit_ns`.)
/// `infer/tape-step` spins up a throwaway autodiff tape and re-binds
/// every parameter per call — what every ordering step paid before;
/// `infer/prepared-step` is the PreparedPolicy path (no tape, no
/// binding, recycled scratch buffers), bitwise identical output.
fn bench_ordering_infer(c: &mut Criterion) {
    let g = Dataset::Yeast.load();
    let n = 16usize;
    let q = build_query_set(&g, n, 1, 11).queries.pop().unwrap();
    let mut group = c.benchmark_group("ordering");
    // Two hidden widths: at d=16 the tape's fixed per-step overhead
    // (node recording, parameter re-binding, output clones) dominates
    // the shared math; at the paper-default d=64 the bitwise-pinned
    // matmuls dominate both paths, so the residual gap is the tape
    // machinery alone.
    for d in [16usize, 64] {
        let model = RlQvo::new(RlQvoConfig { hidden_dim: d, ..RlQvoConfig::default() });
        let gt = GraphTensors::of(&q);
        let feats = Matrix::from_fn(n, 7, |r, c| ((r * 7 + c) as f32 * 0.1).sin());
        let mask = vec![true; n];
        group.bench_with_input(BenchmarkId::new("infer/tape-step", d), &d, |b, _| {
            b.iter(|| model.policy().forward(&gt, &feats, &mask))
        });
        let mut prepared = model.policy().prepare();
        group.bench_with_input(BenchmarkId::new("infer/prepared-step", d), &d, |b, _| {
            b.iter(|| {
                let step = prepared.forward(&gt, &feats, &mask);
                (step.raw_argmax, step.probs[0])
            })
        });
        // Whole-query inference, both paths (includes GraphTensors/
        // extractor setup and the |AS|=1 short-circuits real episodes
        // hit).
        let ordering = model.ordering();
        group.bench_with_input(BenchmarkId::new("infer/order-query-tape", d), &d, |b, _| {
            b.iter(|| ordering.run_episode_reference(&q, &g))
        });
        group.bench_with_input(BenchmarkId::new("infer/order-query-prepared", d), &d, |b, _| {
            b.iter(|| ordering.run_episode(&q, &g))
        });
    }
    group.finish();
}

/// The PR 8 fast-math contract at the kernel level: the bitwise-pinned
/// matmul (the tape-parity reference every inference path defaulted to
/// through PR 7) against the opt-in FMA/blocked-reduction kernel, at the
/// two hidden widths the inference benches use. Shapes mirror the policy
/// hot loop: a tall activations × square weights product.
fn bench_matmul_math(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for d in [16usize, 64] {
        let a = Matrix::from_fn(64, d, |r, q| ((r * d + q) as f32 * 0.01).sin());
        let w = Matrix::from_fn(d, d, |r, q| ((r + q) as f32 * 0.001).cos());
        let mut out = Matrix::zeros(64, d);
        group
            .bench_with_input(BenchmarkId::new("matmul/bitwise", d), &d, |b, _| b.iter(|| a.matmul_into(&w, &mut out)));
        group.bench_with_input(BenchmarkId::new("matmul/fast", d), &d, |b, _| {
            b.iter(|| a.matmul_into_fast(&w, &mut out))
        });
    }
    group.finish();
}

fn bench_gcn_forward(c: &mut Criterion) {
    let g = Dataset::Yeast.load();
    let mut group = c.benchmark_group("policy");
    for &n in &[8usize, 16, 32] {
        let q = build_query_set(&g, n, 1, 11).queries.pop().unwrap();
        let model = RlQvo::new(RlQvoConfig::default());
        let gt = GraphTensors::of(&q);
        let feats = Matrix::from_fn(n, 7, |r, c| ((r * 7 + c) as f32 * 0.1).sin());
        let mask = vec![true; n];
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| model.policy().forward(&gt, &feats, &mask))
        });
        // Full order inference (the paper's ≤100 ms claim).
        group.bench_with_input(BenchmarkId::new("order-inference", n), &n, |b, _| b.iter(|| model.order_query(&q, &g)));
    }
    group.finish();
}

fn bench_autograd(c: &mut Criterion) {
    let mut group = c.benchmark_group("autograd");
    for &d in &[64usize, 256] {
        let a = Matrix::from_fn(32, d, |r, q| ((r * d + q) as f32 * 0.01).sin());
        let w = Matrix::from_fn(d, d, |r, q| ((r + q) as f32 * 0.001).cos());
        group.bench_with_input(BenchmarkId::new("matmul-fwd-bwd", d), &d, |b, _| {
            b.iter(|| {
                let t = Tape::new();
                let av = t.leaf(a.clone());
                let wv = t.leaf(w.clone());
                let y = t.matmul(av, wv);
                let loss = t.sum(t.mul(y, y));
                t.backward(loss)
            })
        });
    }
    group.finish();
}

/// The disarmed-failpoint floor: PR 9 threads `failpoint!` sites through
/// the cache lookup and enumeration hot paths, and the acceptance bar is
/// that a *disarmed* site is free to within noise (≤1% on the
/// `spacecache/hit-lookup` and `enumerate/` kernels above, which now
/// contain real sites). This kernel isolates the per-site cost itself:
/// 1024 disarmed evaluations against an empty counting loop of the same
/// shape. Disarmed, each site is one relaxed atomic load — the two bars
/// should be indistinguishable.
fn bench_failpoints(c: &mut Criterion) {
    rlqvo_fault::disarm_all();
    let mut group = c.benchmark_group("fault");
    group.bench_function("disarmed-site-x1024", |b| {
        b.iter(|| {
            let mut fired = 0u32;
            for _ in 0..1024 {
                if rlqvo_fault::failpoint!("bench.disarmed").is_some() {
                    fired += 1;
                }
            }
            criterion::black_box(fired)
        })
    });
    group.bench_function("empty-loop-x1024", |b| {
        b.iter(|| {
            let mut fired = 0u32;
            for i in 0..1024u32 {
                if criterion::black_box(i) == u32::MAX {
                    fired += 1;
                }
            }
            criterion::black_box(fired)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_filters, bench_orderings, bench_enumeration, bench_intersect_kernels, bench_candspace_build, bench_enum_engines, bench_parallel_enum, bench_cache_thrash, bench_ordering_infer, bench_matmul_math, bench_gcn_forward, bench_autograd, bench_failpoints
}
criterion_main!(benches);
