//! `oneshot-cold` and `learned-order`: the paper's protocol on the
//! library path — one full cold pipeline per query (GQL filter, RI or
//! learned order, `EnumEngine::Auto`, 10^5-match cap, 1 thread, no
//! cache), over cells of (dataset analog, query size).

use std::time::Instant;

use rlqvo_core::{InferMath, RlQvo, RlQvoConfig};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_graph::Graph;
use rlqvo_matching::order::RiOrdering;
use rlqvo_matching::{
    auto_decide, enumerate, enumerate_in_space, enumerate_probe, enumerate_probe_prepared, run_pipeline,
    CandidateFilter, CandidateSpace, EnumConfig, EnumEngine, LdfFilter, NlfFilter, OrderingMethod, Pipeline,
    QueryAdjBits,
};

use crate::inputs::{candidates, enum_config, screen, Query, GQL};
use crate::schema::{Metrics, PER_LAYER};
use crate::stats::mean;
use crate::trace::{Tracer, OP};
use crate::{set_up, timed, Counts, Measured, Outcome, Run};

const MAX_MATCHES: u64 = 100_000;
/// Queries of a cell the traced run also times stage by stage outside
/// the pipeline (both engines, the weaker filters, the other math).
const AUX_QUERIES: usize = 32;

struct CellSpec {
    dataset: Dataset,
    size: usize,
}

const ONESHOT_CELLS: [CellSpec; 4] = [
    CellSpec { dataset: Dataset::Yeast, size: 16 },
    CellSpec { dataset: Dataset::Dblp, size: 16 },
    CellSpec { dataset: Dataset::Eu2005, size: 16 },
    CellSpec { dataset: Dataset::Dblp, size: 32 },
];

/// Q16 on the two analogs where training fits a run's set-up: on yeast
/// policy inference is close to half of the query time, on dblp a
/// twentieth.
const LEARNED_CELLS: [CellSpec; 2] =
    [CellSpec { dataset: Dataset::Yeast, size: 16 }, CellSpec { dataset: Dataset::Dblp, size: 16 }];

struct Sizes {
    queries_per_cell: usize,
    train_queries: usize,
    epochs: usize,
    max_vertices: usize,
}

fn sizes(run: &Run, learned: bool) -> Sizes {
    if run.smoke {
        Sizes { queries_per_cell: 4, train_queries: 2, epochs: 1, max_vertices: 600 }
    } else {
        Sizes {
            queries_per_cell: if learned { 256 } else { 192 },
            train_queries: 8,
            epochs: 5,
            max_vertices: usize::MAX,
        }
    }
}

/// What set-up builds for one cell: the data graph, the trained model
/// (learned-order only) and the unscreened query candidates.
struct Built {
    name: String,
    g: Graph,
    model: Option<RlQvo>,
    train_s: f64,
    enum_advantage: f64,
    pool: Vec<Graph>,
}

struct Cell {
    name: String,
    g: Graph,
    model: Option<RlQvo>,
    queries: Vec<Query>,
}

fn build(spec: &CellSpec, index: usize, learned: bool, run: &Run, sz: &Sizes) -> Built {
    let g = spec.dataset.load_scaled(sz.max_vertices);
    let (model, train_s, enum_advantage) = if learned {
        // Training inputs and seed are fixed: the model is the same for
        // every workload seed, only the held-out queries change.
        let train = build_query_set(&g, spec.size, sz.train_queries, spec.dataset.default_seed() ^ spec.size as u64);
        let mut config = RlQvoConfig { epochs: sz.epochs, ..RlQvoConfig::harness() };
        if run.smoke {
            // One cheap rollout: the smoke run trains to exercise the
            // path, in a debug build too, not to learn anything.
            config = RlQvoConfig { rollouts_per_query: 1, train_enum_budget: 2_000, train_max_matches: 100, ..config };
        }
        let mut model = RlQvo::new(config);
        let report = model.train(&train.queries, &g);
        (Some(model), report.elapsed.as_secs_f64(), f64::from(report.final_enum_advantage()))
    } else {
        (None, 0.0, 0.0)
    };
    let pool = candidates(&g, spec.size, sz.queries_per_cell, run.seed.wrapping_mul(0x1000).wrapping_add(index as u64));
    Built { name: format!("{}-q{}", spec.dataset.name(), spec.size), g, model, train_s, enum_advantage, pool }
}

fn config() -> EnumConfig {
    enum_config(MAX_MATCHES, EnumEngine::Auto, 1)
}

/// One untraced pass, which is one group: `run_pipeline` per query,
/// timed from outside.
fn pass_untraced(cells: &[Cell], m: &mut Measured) {
    let t0 = Instant::now();
    for (ci, cell) in cells.iter().enumerate() {
        let learned = cell.model.as_ref().map(RlQvo::ordering);
        let ordering: &dyn OrderingMethod = learned.as_ref().map_or(&RiOrdering, |o| o);
        let pipeline = Pipeline { filter: &GQL, ordering, config: config() };
        for q in &cell.queries {
            let t = Instant::now();
            let r = run_pipeline(&q.graph, &cell.g, &pipeline);
            m.sample(ci, t.elapsed().as_secs_f64() * 1e6);
            let ok = !r.unsolved()
                && r.enum_result.match_count == q.matches
                && r.enum_result.enumerations == *q.enums.last().expect("screened");
            m.record(ok);
        }
    }
    m.close_group(t0.elapsed().as_secs_f64(), None);
}

/// Counts taken at the stage boundaries of the traced pass.
#[derive(Default)]
struct StageCounts {
    candidates: Vec<f64>,
    space_bytes: Vec<f64>,
    enums: u64,
    probe_picks: u64,
    queries: u64,
}

/// One traced pass: the stages `run_pipeline` + `enumerate(Auto)` run,
/// called one by one with a span at each.
fn pass_traced(cells: &[Cell], tr: &mut Tracer, counts: &mut StageCounts, m: &mut Measured) {
    let t0 = Instant::now();
    let cfg = config();
    for (ci, cell) in cells.iter().enumerate() {
        let g = &cell.g;
        let learned = cell.model.as_ref().map(RlQvo::ordering);
        let (ordering, order_span): (&dyn OrderingMethod, _) = match &learned {
            Some(o) => (o, "core.ordering.infer"),
            None => (&RiOrdering, "matching.order.ri"),
        };
        for query in &cell.queries {
            let q = &query.graph;
            let op = tr.open(OP);
            let cand = tr.span("matching.filter.gql", || GQL.filter(q, g));
            let order = tr.span(order_span, || ordering.order(q, g, &cand));
            let result = if cand.any_empty() {
                tr.span("matching.enumerate.empty", || enumerate(q, g, &cand, &order, cfg))
            } else {
                let decision = tr.span("matching.enumerate.auto_decide", || auto_decide(q, g, &cand, &cfg));
                let cfg = cfg.with_threads(decision.effective_threads(cfg.threads));
                if decision.engine == EnumEngine::CandidateSpace {
                    let cs = tr.span("matching.candspace.build", || CandidateSpace::build(q, g, &cand));
                    counts.space_bytes.push(cs.storage_bytes() as f64);
                    tr.span("matching.enumerate.space", move || enumerate_in_space(q, &cs, &order, cfg))
                } else {
                    counts.probe_picks += 1;
                    tr.span("matching.enumerate.probe", || enumerate_probe(q, g, &cand, &order, cfg))
                }
            };
            tr.close(op);
            let span = &tr.spans()[op as usize];
            m.sample(ci, (span.end_ns - span.start_ns) as f64 / 1e3);
            counts.candidates.push(cand.total() as f64);
            counts.enums += result.enumerations;
            counts.queries += 1;
            m.record(
                !result.timed_out
                    && result.match_count == query.matches
                    && result.enumerations == *query.enums.last().expect("screened"),
            );
        }
    }
    m.close_group(t0.elapsed().as_secs_f64(), None);
}

/// Stage timings the pipeline never shows on its own: LDF and NLF alone,
/// RI alone, both engines on the same order, fast and batched inference.
fn aux_stages(cells: &[Cell], out: &mut Metrics) {
    let cfg = config();
    let (mut ldf, mut nlf, mut ri, mut fast, mut b8) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut space_s, mut probe_s, mut space_calls, mut probe_calls) = (0.0, 0.0, 0u64, 0u64);
    let (mut wrong, mut decided) = (0u64, 0u64);
    for cell in cells {
        let g = &cell.g;
        let sample = &cell.queries[..cell.queries.len().min(AUX_QUERIES)];
        let learned = cell.model.as_ref().map(RlQvo::ordering);
        for query in sample {
            let q = &query.graph;
            ldf.push(timed(|| LdfFilter.filter(q, g)).1 * 1e6);
            nlf.push(timed(|| NlfFilter.filter(q, g)).1 * 1e6);
            let cand = GQL.filter(q, g);
            let (ri_order, ri_s) = timed(|| RiOrdering.order(q, g, &cand));
            ri.push(ri_s * 1e6);
            let order = learned.as_ref().map_or(ri_order, |o| o.order(q, g, &cand));
            if cand.any_empty() {
                continue;
            }
            // Both engines from outside, on the order the pipeline used.
            let (cs, build_s) = timed(|| CandidateSpace::build(q, g, &cand));
            let in_space = enumerate_in_space(q, &cs, &order, cfg);
            let prepared = enumerate_probe_prepared(q, g, &cand, &QueryAdjBits::build(q), &order, cfg);
            space_s += in_space.elapsed.as_secs_f64();
            space_calls += in_space.enumerations;
            probe_s += prepared.elapsed.as_secs_f64();
            probe_calls += prepared.enumerations;
            let probe_path_s = timed(|| enumerate_probe(q, g, &cand, &order, cfg)).1;
            let space_path_s = build_s + in_space.elapsed.as_secs_f64();
            let picked_probe = auto_decide(q, g, &cand, &cfg).engine == EnumEngine::Probe;
            decided += 1;
            wrong += u64::from(picked_probe == (probe_path_s > space_path_s));
        }
        if let Some(bitwise) = &learned {
            let fast_math = cell.model.as_ref().expect("learned").ordering().with_math(InferMath::Fast);
            for query in sample {
                fast.push(timed(|| fast_math.run_episode(&query.graph, g)).1 * 1e6);
            }
            for chunk in sample.chunks(8) {
                let qs: Vec<&Graph> = chunk.iter().map(|q| &q.graph).collect();
                b8.push(timed(|| bitwise.order_many(&qs, g)).1 * 1e6 / chunk.len() as f64);
            }
        }
    }
    out.set("matching.filter.ldf_us", mean(&ldf));
    out.set("matching.filter.nlf_us", mean(&nlf));
    out.set("matching.order.ri_us", mean(&ri));
    out.set("core.ordering.infer_fast_us", mean(&fast));
    out.set("core.ordering.infer_b8_us_per_query", mean(&b8));
    out.set("matching.enumerate.space_ns_per_call", space_s * 1e9 / space_calls.max(1) as f64);
    out.set("matching.enumerate.probe_ns_per_call", probe_s * 1e9 / probe_calls.max(1) as f64);
    out.set("matching.enumerate.auto_wrong_engine_share", wrong as f64 / decided.max(1) as f64);
}

pub fn run(run: &Run, learned: bool) -> Result<Outcome, String> {
    let sz = sizes(run, learned);
    let specs: &[CellSpec] = if learned { &LEARNED_CELLS } else { &ONESHOT_CELLS };
    let (built, setup_s) =
        set_up(run, || specs.iter().enumerate().map(|(i, s)| build(s, i, learned, run, &sz)).collect::<Vec<Built>>());

    // Untimed: the probe oracle fixes every query's expected counts and
    // drops candidates past the screen budget.
    let mut m = Measured::new(specs.len());
    let train_s: f64 = built.iter().map(|b| b.train_s).sum();
    let enum_advantage = mean(&built.iter().map(|b| b.enum_advantage).collect::<Vec<_>>());
    let mut cells = Vec::new();
    for b in built {
        let (queries, failed) = {
            let learned_order = b.model.as_ref().map(RlQvo::ordering);
            let mut orderings: Vec<&dyn OrderingMethod> = vec![&RiOrdering];
            if let Some(o) = &learned_order {
                orderings.push(o);
            }
            screen(&b.g, b.pool, sz.queries_per_cell, MAX_MATCHES, &orderings)?
        };
        m.attempted += queries.len() as u64;
        m.failed += failed;
        cells.push(Cell { name: b.name, g: b.g, model: b.model, queries });
    }

    let queries = || cells.iter().flat_map(|c| &c.queries);
    let (ri_enums, used_enums) =
        queries().fold((0u64, 0u64), |(a, b), q| (a + q.enums[0], b + q.enums.last().expect("screened")));
    let counts = Counts {
        enum_calls_per_query: used_enums as f64 / queries().count() as f64,
        enum_ratio_vs_ri: used_enums as f64 / ri_enums.max(1) as f64,
    };

    let budget = run.seconds / if run.trace { 2.0 } else { 1.0 };
    let t0 = Instant::now();
    while m.groups_closed() == 0 || t0.elapsed().as_secs_f64() < budget {
        pass_untraced(&cells, &mut m);
    }
    if !run.trace {
        return Ok(m.end_to_end(setup_s, cells.iter().map(|c| c.name.clone()).collect(), counts));
    }

    let mut tr = Tracer::new();
    let mut stages = StageCounts::default();
    let mut traced = Measured::new(specs.len());
    let t0 = Instant::now();
    while traced.groups_closed() == 0 || t0.elapsed().as_secs_f64() < budget {
        pass_traced(&cells, &mut tr, &mut stages, &mut traced);
    }
    let mut out = Metrics::new(&PER_LAYER);
    aux_stages(&cells, &mut out);
    let tr_sum = tr.summary();

    out.set("matching.filter.gql_us", tr_sum.mean_us("matching.filter.gql"));
    out.set("matching.filter.candidates_per_query", mean(&stages.candidates));
    out.set("matching.filter.busy_frac", tr_sum.busy_frac("matching.filter"));
    out.set("matching.candspace.build_us", tr_sum.mean_us("matching.candspace.build"));
    out.set("matching.candspace.bytes_per_query", mean(&stages.space_bytes));
    out.set("matching.candspace.busy_frac", tr_sum.busy_frac("matching.candspace"));
    out.set("core.ordering.infer_us", tr_sum.mean_us("core.ordering.infer"));
    out.set("core.ordering.busy_frac", tr_sum.busy_frac("core.ordering"));
    out.set("core.trainer.train_s", train_s);
    out.set("core.trainer.enum_advantage", enum_advantage);
    // Per pass, so the count repeats exactly however many passes fit.
    out.set("matching.enumerate.calls", (stages.enums / traced.groups_closed() as u64) as f64);
    out.set("matching.enumerate.calls_per_query", stages.enums as f64 / stages.queries.max(1) as f64);
    out.set("matching.enumerate.busy_frac", tr_sum.busy_frac("matching.enumerate"));
    out.set("matching.enumerate.auto_probe_share", stages.probe_picks as f64 / stages.queries.max(1) as f64);

    m.attempted += traced.attempted;
    m.failed += traced.failed;
    Ok(m.per_layer(out, &tr, &tr_sum, &traced, run, Vec::new()))
}
