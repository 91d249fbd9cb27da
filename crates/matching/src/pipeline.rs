//! The three-phase pipeline (paper Algorithm 1) with per-phase timing.
//!
//! The paper reports `t = t_filter + t_order + t_enum` (§IV-B); this module
//! measures each term so every figure harness reads them off directly.
//!
//! The enumeration engine (probe oracle vs. CandidateSpace intersection)
//! is selected by [`EnumConfig::engine`][crate::EnumConfig]; for the
//! CandidateSpace engine, the build cost of the auxiliary structure is
//! accounted in `enum_time`, where the paper books all phase-3 work.

use std::time::{Duration, Instant};

use rlqvo_graph::{Graph, VertexId};

use crate::candspace::CandidateSpace;
use crate::enumerate::{enumerate, enumerate_in_space, enumerate_probe_prepared, EnumConfig, EnumEngine, EnumResult};
use crate::filter::{CandidateFilter, Candidates};
use crate::order::OrderingMethod;
use crate::spacecache::SpaceEntry;

/// A configured matching algorithm: filter + ordering + enumeration knobs.
/// `Hybrid` of the paper = `Pipeline::hybrid()`; RL-QVO = the same filter
/// and enumeration with the learned ordering plugged in.
pub struct Pipeline<'a> {
    /// Phase-1 strategy.
    pub filter: &'a dyn CandidateFilter,
    /// Phase-2 strategy.
    pub ordering: &'a dyn OrderingMethod,
    /// Phase-3 knobs.
    pub config: EnumConfig,
}

/// Timed outcome of a full pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Phase-1 wall time.
    pub filter_time: Duration,
    /// Phase-2 wall time (the paper's `t_order` — RL-QVO's inference cost
    /// shows up here).
    pub order_time: Duration,
    /// Phase-3 wall time.
    pub enum_time: Duration,
    /// The matching order that was used.
    pub order: Vec<VertexId>,
    /// Enumeration outcome (`#enum`, match count, timeout flag).
    pub enum_result: EnumResult,
    /// Total candidate count after filtering (diagnostic).
    pub candidate_total: usize,
}

impl PipelineResult {
    /// `t = t_filter + t_order + t_enum`.
    pub fn total_time(&self) -> Duration {
        self.filter_time + self.order_time + self.enum_time
    }

    /// The paper's *unsolved* predicate.
    pub fn unsolved(&self) -> bool {
        self.enum_result.timed_out
    }
}

/// Runs the three phases for one query.
pub fn run_pipeline(q: &Graph, g: &Graph, pipeline: &Pipeline<'_>) -> PipelineResult {
    let t0 = Instant::now();
    let cand = pipeline.filter.filter(q, g);
    let filter_time = t0.elapsed();

    let t1 = Instant::now();
    let order = pipeline.ordering.order(q, g, &cand);
    let order_time = t1.elapsed();

    let t2 = Instant::now();
    let enum_result = enumerate(q, g, &cand, &order, pipeline.config);
    let enum_time = t2.elapsed();

    PipelineResult { filter_time, order_time, enum_time, candidate_total: cand.total(), order, enum_result }
}

/// The build-once/enumerate-many entry point: phases 2 and 3 against a
/// `CandidateSpace` prebuilt from exactly `(q, g, cand)`. Never triggers a
/// [`CandidateSpace::build`] of its own, so a harness comparing N orders
/// on one (query, data) pair pays the build once, not N times.
///
/// Engine handling: [`EnumEngine::Probe`] is honoured (the oracle path
/// ignores the space); `CandidateSpace` and `Auto` both enumerate in the
/// prebuilt space — with the build already paid, the Auto cost model has
/// nothing left to trade off on the engine side, but it still gates the
/// intra-query worker count (tiny workloads never pay a thread spawn).
pub fn run_with_space(
    q: &Graph,
    g: &Graph,
    cand: &Candidates,
    space: &CandidateSpace,
    ordering: &dyn OrderingMethod,
    config: EnumConfig,
) -> PipelineResult {
    let t1 = Instant::now();
    let order = ordering.order(q, g, cand);
    let order_time = t1.elapsed();
    let t2 = Instant::now();
    let enum_result = match config.engine {
        EnumEngine::Probe => enumerate(q, g, cand, &order, config),
        EnumEngine::CandidateSpace => enumerate_in_space(q, space, &order, config),
        EnumEngine::Auto => {
            let threads =
                crate::enumerate::effective_threads(crate::enumerate::estimate_enum_work(q, &config), config.threads);
            enumerate_in_space(q, space, &order, config.with_threads(threads))
        }
    };
    let enum_time = t2.elapsed();
    PipelineResult {
        filter_time: Duration::ZERO,
        order_time,
        enum_time,
        candidate_total: cand.total(),
        order,
        enum_result,
    }
}

/// Phases 2–3 against a [`SpaceEntry`] served by a
/// [`SpaceCache`][crate::SpaceCache]: the cross-round analogue of
/// [`run_with_space`]. Never filters and never rebuilds — the entry's
/// candidates, candidate space, and probe adjacency bits are each
/// computed at most once per residency of its key (once ever in an
/// unbounded cache; a byte-bounded cache may evict the key, whose next
/// lookup refilters — see [`crate::cache`]), however many rounds replay
/// the query.
///
/// Engine handling mirrors [`run_with_space`]: [`EnumEngine::Probe`]
/// enumerates through the entry's shared [`QueryAdjBits`]
/// precomputation (no per-order `has_edge` backward scans);
/// `CandidateSpace` enumerates in the entry's space. `Auto` uses an
/// already-built space unconditionally (the build is a sunk, cached
/// cost), but on a cold entry it still consults the cost model — a
/// build-dominated single-shot query probes instead of forcing a build
/// the enumeration can never win back. `filter_time` is reported as
/// zero: the caller that created the entry decides how to account the
/// one-time filter pass.
pub fn run_with_entry(
    q: &Graph,
    g: &Graph,
    entry: &SpaceEntry,
    ordering: &dyn OrderingMethod,
    config: EnumConfig,
) -> PipelineResult {
    let t1 = Instant::now();
    let order = ordering.order(q, g, entry.cand());
    let order_time = t1.elapsed();
    let mut r = run_with_entry_ordered(q, g, entry, order, config);
    r.order_time = order_time;
    r
}

/// Phase 3 only, against a [`SpaceEntry`] and an already-known matching
/// order — the serving-loop shape where the order came out of an
/// [`OrderCache`][crate::OrderCache] hit and phase 2 genuinely did not
/// run. Engine handling is identical to [`run_with_entry`];
/// `order_time` (like `filter_time`) is reported as zero, the caller
/// accounting for whatever its order lookup cost.
pub fn run_with_entry_ordered(
    q: &Graph,
    g: &Graph,
    entry: &SpaceEntry,
    order: Vec<VertexId>,
    config: EnumConfig,
) -> PipelineResult {
    let cand = entry.cand();
    let order_time = Duration::ZERO;
    let (engine, config) = match config.engine {
        // Warm or cold, Auto also gates the worker count: the cheap
        // work-estimate side of the cost model refuses to parallelize
        // workloads whose per-worker share can't amortize a spawn.
        EnumEngine::Auto => {
            let engine = if entry.space_ready() {
                EnumEngine::CandidateSpace
            } else {
                crate::enumerate::auto_decide(q, g, cand, &config).engine
            };
            let threads =
                crate::enumerate::effective_threads(crate::enumerate::estimate_enum_work(q, &config), config.threads);
            (engine, config.with_threads(threads))
        }
        e => (e, config),
    };
    let t2 = Instant::now();
    let enum_result = match engine {
        EnumEngine::Probe | EnumEngine::Auto => enumerate_probe_prepared(q, g, cand, entry.adj(q), &order, config),
        EnumEngine::CandidateSpace => {
            if cand.any_empty() {
                // Complete candidate sets: no match exists, skip the build.
                enumerate_probe_prepared(q, g, cand, entry.adj(q), &order, config)
            } else {
                enumerate_in_space(q, entry.space(q, g), &order, config)
            }
        }
    };
    let enum_time = t2.elapsed();
    PipelineResult {
        filter_time: Duration::ZERO,
        order_time,
        enum_time,
        candidate_total: cand.total(),
        order,
        enum_result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{GqlFilter, LdfFilter};
    use crate::order::{GqlOrdering, QsiOrdering, RiOrdering, Vf2ppOrdering};
    use rlqvo_graph::GraphBuilder;

    fn small_case() -> (Graph, Graph) {
        let mut qb = GraphBuilder::new(2);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(0);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        let q = qb.build();
        let mut gb = GraphBuilder::new(2);
        let mut prev = gb.add_vertex(0);
        for i in 1..10 {
            let v = gb.add_vertex(i % 2);
            gb.add_edge(prev, v);
            prev = v;
        }
        (q, gb.build())
    }

    #[test]
    fn pipeline_produces_same_matches_for_all_orderings() {
        let (q, g) = small_case();
        let filter = GqlFilter::default();
        let orderings: Vec<Box<dyn OrderingMethod>> =
            vec![Box::new(RiOrdering), Box::new(QsiOrdering), Box::new(Vf2ppOrdering), Box::new(GqlOrdering)];
        let mut counts = Vec::new();
        for o in &orderings {
            let p = Pipeline { filter: &filter, ordering: o.as_ref(), config: EnumConfig::find_all() };
            let r = run_pipeline(&q, &g, &p);
            assert!(!r.unsolved());
            counts.push(r.enum_result.match_count);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "match counts differ: {counts:?}");
    }

    #[test]
    fn total_time_is_sum_of_phases() {
        let (q, g) = small_case();
        let filter = LdfFilter;
        let p = Pipeline { filter: &filter, ordering: &RiOrdering, config: EnumConfig::find_all() };
        let r = run_pipeline(&q, &g, &p);
        assert_eq!(r.total_time(), r.filter_time + r.order_time + r.enum_time);
        assert!(r.candidate_total > 0);
    }

    #[test]
    fn engines_agree_through_the_pipeline() {
        let (q, g) = small_case();
        let filter = GqlFilter::default();
        let mut results = Vec::new();
        for engine in [crate::EnumEngine::Probe, crate::EnumEngine::CandidateSpace] {
            let p =
                Pipeline { filter: &filter, ordering: &RiOrdering, config: EnumConfig::find_all().with_engine(engine) };
            results.push(run_pipeline(&q, &g, &p));
        }
        assert_eq!(results[0].enum_result.match_count, results[1].enum_result.match_count);
        assert_eq!(results[0].enum_result.enumerations, results[1].enum_result.enumerations);
        assert_eq!(results[0].order, results[1].order);
    }

    #[test]
    fn run_with_space_agrees_with_per_call_builds() {
        let (q, g) = small_case();
        let cand = crate::filter::CandidateFilter::filter(&LdfFilter, &q, &g);
        let space = CandidateSpace::build(&q, &g, &cand);
        let orderings: Vec<Box<dyn OrderingMethod>> =
            vec![Box::new(RiOrdering), Box::new(QsiOrdering), Box::new(Vf2ppOrdering), Box::new(GqlOrdering)];
        for o in &orderings {
            let shared = run_with_space(&q, &g, &cand, &space, o.as_ref(), EnumConfig::find_all());
            let order = o.order(&q, &g, &cand);
            let rebuilt = enumerate(&q, &g, &cand, &order, EnumConfig::find_all());
            assert_eq!(shared.enum_result.match_count, rebuilt.match_count, "{}", o.name());
            assert_eq!(shared.enum_result.enumerations, rebuilt.enumerations, "{}", o.name());
            assert_eq!(shared.order, order, "{}", o.name());
            assert_eq!(shared.filter_time, Duration::ZERO);
        }
    }

    #[test]
    fn run_with_entry_agrees_with_fresh_pipeline_for_all_engines() {
        let (q, g) = small_case();
        let cache = crate::SpaceCache::new();
        let filter = LdfFilter;
        let (entry, fresh) = cache.entry_for(&q, &g, &filter);
        assert!(fresh);
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
            let cfg = EnumConfig::find_all().with_engine(engine);
            let cached = run_with_entry(&q, &g, &entry, &RiOrdering, cfg);
            let p = Pipeline { filter: &filter, ordering: &RiOrdering, config: cfg };
            let fresh_run = run_pipeline(&q, &g, &p);
            assert_eq!(cached.enum_result.match_count, fresh_run.enum_result.match_count, "{}", engine.name());
            assert_eq!(cached.enum_result.enumerations, fresh_run.enum_result.enumerations, "{}", engine.name());
            assert_eq!(cached.order, fresh_run.order, "{}", engine.name());
            assert_eq!(cached.filter_time, Duration::ZERO);
        }
    }

    #[test]
    fn entry_ordered_agrees_with_entry_for_all_engines() {
        let (q, g) = small_case();
        let cache = crate::SpaceCache::new();
        let (entry, _) = cache.entry_for(&q, &g, &LdfFilter);
        let ocache = crate::OrderCache::new();
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
            let cfg = EnumConfig::find_all().with_engine(engine);
            let direct = run_with_entry(&q, &g, &entry, &RiOrdering, cfg);
            // Serving shape: order served by the OrderCache, enumeration
            // via run_with_entry_ordered.
            let key = crate::QueryKey::of(&q);
            let (oe, _) = ocache.get_or_compute_keyed(&key, "RI@LDF", &q, || RiOrdering.order(&q, &g, entry.cand()));
            let served = run_with_entry_ordered(&q, &g, &entry, oe.order().to_vec(), cfg);
            assert_eq!(served.enum_result.match_count, direct.enum_result.match_count, "{}", engine.name());
            assert_eq!(served.enum_result.enumerations, direct.enum_result.enumerations, "{}", engine.name());
            assert_eq!(served.order, direct.order, "{}", engine.name());
            assert_eq!(served.order_time, Duration::ZERO);
            // The decorator path (CachedOrdering through run_with_entry)
            // must agree too.
            let cached_method = crate::CachedOrdering::new(&RiOrdering, &ocache, "LDF");
            let decorated = run_with_entry(&q, &g, &entry, &cached_method, cfg);
            assert_eq!(decorated.order, direct.order, "{}", engine.name());
            assert_eq!(decorated.enum_result.match_count, direct.enum_result.match_count, "{}", engine.name());
        }
        assert!(ocache.hits() > 0, "rounds 2+ must be served");
    }

    #[test]
    fn cold_auto_entry_respects_the_cost_model() {
        // Dense one-label host: every vertex is everyone's candidate, so
        // the space build scans the whole adjacency structure — with a
        // 1-match cap this is the build-dominated regime where Auto must
        // probe, not force a build onto the cold cache entry.
        let mut gb = GraphBuilder::new(1);
        for _ in 0..80u32 {
            gb.add_vertex(0);
        }
        for i in 0..80u32 {
            for j in (i + 1)..80u32.min(i + 10) {
                gb.add_edge(i, j);
            }
        }
        let g = gb.build();
        let mut qb = GraphBuilder::new(1);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(0);
        let c = qb.add_vertex(0);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        let q = qb.build();

        let cache = crate::SpaceCache::new();
        let (entry, _) = cache.entry_for(&q, &g, &LdfFilter);
        let capped = EnumConfig { max_matches: 1, ..EnumConfig::find_all() }.with_engine(crate::EnumEngine::Auto);
        let cold = run_with_entry(&q, &g, &entry, &RiOrdering, capped);
        assert!(!entry.space_ready(), "build-dominated cold Auto must not force a space build");
        assert_eq!(cold.enum_result.match_count, 1);
        // Once some round has paid the build, Auto uses it unconditionally.
        entry.space(&q, &g);
        let warm = run_with_entry(&q, &g, &entry, &RiOrdering, capped);
        assert_eq!(warm.enum_result.match_count, cold.enum_result.match_count);
        assert_eq!(warm.enum_result.enumerations, cold.enum_result.enumerations);
    }

    #[test]
    fn run_with_space_honours_the_probe_oracle_and_auto() {
        let (q, g) = small_case();
        let cand = crate::filter::CandidateFilter::filter(&LdfFilter, &q, &g);
        let space = CandidateSpace::build(&q, &g, &cand);
        let mut results = Vec::new();
        for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
            let r = run_with_space(&q, &g, &cand, &space, &RiOrdering, EnumConfig::find_all().with_engine(engine));
            results.push((engine, r));
        }
        for (engine, r) in &results[1..] {
            assert_eq!(r.enum_result.match_count, results[0].1.enum_result.match_count, "{}", engine.name());
            assert_eq!(r.enum_result.enumerations, results[0].1.enum_result.enumerations, "{}", engine.name());
        }
    }
}
