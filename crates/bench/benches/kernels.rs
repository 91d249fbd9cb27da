//! Criterion micro-benchmarks for the kernels the benchmark ledger has no
//! row for: sorted intersection, cache eviction at capacity, the matmul
//! and autograd kernels, the tape against the tape-free policy step, the
//! heuristic orderings and the disarmed failpoint. Filtering, the space
//! build, enumeration (serial and stolen) and whole-query inference are
//! per-layer ledger metrics (`BENCHMARK.json`) and are measured there.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_gnn::GraphTensors;
use rlqvo_graph::{intersect_in_place, intersect_into};
use rlqvo_matching::order::{GqlOrdering, OrderingMethod, QsiOrdering, RiOrdering, VeqOrdering, Vf2ppOrdering};
use rlqvo_matching::{CandidateFilter, GqlFilter};
use rlqvo_tensor::{Matrix, Tape};

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
/// forward (one ordering step), and whole-query inference on the retained
/// tape path (the tape-free one is the ledger's `core.ordering.infer_us`;
/// the cache hits that replace both for repeated queries are its
/// `matching.spacecache.hit_ns` / `matching.ordercache.hit_ns`).
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
        // Whole-query inference on the tape reference (includes
        // GraphTensors/extractor setup and the |AS|=1 short-circuits real
        // episodes hit).
        let ordering = model.ordering();
        group.bench_with_input(BenchmarkId::new("infer/order-query-tape", d), &d, |b, _| {
            b.iter(|| ordering.run_episode_reference(&q, &g))
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
/// that a *disarmed* site is free to within noise. This kernel isolates
/// the per-site cost itself:
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
    targets = bench_orderings, bench_intersect_kernels, bench_cache_thrash, bench_ordering_infer, bench_matmul_math, bench_gcn_forward, bench_autograd, bench_failpoints
}
criterion_main!(benches);
