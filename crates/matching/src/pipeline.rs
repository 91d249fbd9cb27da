//! The three-phase pipeline (paper Algorithm 1) with per-phase timing.
//!
//! The paper reports `t = t_filter + t_order + t_enum` (§IV-B); this module
//! measures each term so every figure harness reads them off directly, and
//! books the `CandidateSpace` build in `enum_time`, where the paper books
//! all phase-3 work.
//!
//! Three ways to run one query, and no others:
//!
//! * [`run_pipeline`] — cold: filter, order, enumerate, nothing kept;
//! * [`run_cached`] — warm: the entry from a [`SpaceCache`], the order from
//!   an [`OrderCache`] if one is given, enumeration in the entry. The CLI's
//!   `--repeat` loop and the server's `match` handler are calls to it;
//! * [`run_in_entry`] — phases 2–3 in an entry the caller already holds
//!   (what `run_cached` does after its lookup; the figure harness calls it
//!   once per method of a filter group).
//!
//! What engine and worker count a configuration means is
//! [`EnumConfig::resolved`]'s to say, here as in [`enumerate`]; the one
//! rule that is about the entry — an empty candidate set is never built —
//! is in [`run_in_entry`].

use std::time::{Duration, Instant};

use rlqvo_graph::{Graph, VertexId};

use crate::enumerate::{enumerate, enumerate_in_space, enumerate_probe, EnumConfig, EnumEngine, EnumResult};
use crate::filter::CandidateFilter;
use crate::order::OrderingMethod;
use crate::ordercache::{order_variant, OrderCache};
use crate::spacecache::{QueryKey, SpaceCache, SpaceEntry};

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

/// Phases 2–3 in a [`SpaceEntry`]: the order comes from `orders` when one
/// is given (a hit books the lookup only — phase 2 genuinely did not run)
/// or from `pipeline.ordering`, then enumerates under the
/// [resolved](EnumConfig::resolved) configuration — in the entry's lazily
/// built space, or, when the probe oracle was asked for by name, by
/// [`enumerate_probe`] on the entry's candidates. An empty candidate set
/// proves there is no match, so whatever the engine the space is not
/// built for it. Never filters; builds at most once per residency of the
/// entry. `filter_time` is zero: whoever looked the entry up knows whether
/// a filter pass ran. Returns the result and whether the order was a
/// cache hit.
pub fn run_in_entry(
    q: &Graph,
    g: &Graph,
    entry: &SpaceEntry,
    pipeline: &Pipeline<'_>,
    orders: Option<(&OrderCache, &QueryKey)>,
) -> (PipelineResult, bool) {
    let cand = entry.cand();
    let t1 = Instant::now();
    let compute = || pipeline.ordering.order(q, g, cand);
    let (order, hit_order) = match orders {
        Some((cache, key)) => {
            let variant = order_variant(pipeline.ordering, pipeline.filter);
            let (cached, fresh) = cache.get_or_compute_keyed(key, &variant, q, compute);
            (cached.order().to_vec(), !fresh)
        }
        None => (compute(), false),
    };
    let order_time = t1.elapsed();

    let config = pipeline.config.resolved(q);
    let t2 = Instant::now();
    // `enumerate_probe` answers an empty candidate set at entry, with no
    // work — which is what keeps such an entry's space unbuilt.
    let enum_result = if config.engine == EnumEngine::Probe || cand.any_empty() {
        enumerate_probe(q, g, cand, &order, config)
    } else {
        enumerate_in_space(q, entry.space(q, g), &order, config)
    };
    let enum_time = t2.elapsed();
    let result = PipelineResult {
        filter_time: Duration::ZERO,
        order_time,
        enum_time,
        candidate_total: cand.total(),
        order,
        enum_result,
    };
    (result, hit_order)
}

/// The warm run of one query — what `rlqvo match --repeat`, a served
/// `match` request and every cached surface execute: look the entry up
/// (filtering on a miss), then [`run_in_entry`]. `filter_time` is the
/// lookup-and-filter time on a miss and exactly zero on a hit. Returns the
/// result plus (space hit, order hit).
pub fn run_cached(
    q: &Graph,
    g: &Graph,
    pipeline: &Pipeline<'_>,
    key: &QueryKey,
    spaces: &SpaceCache,
    orders: Option<&OrderCache>,
) -> (PipelineResult, bool, bool) {
    let t0 = Instant::now();
    let (entry, fresh) = spaces.entry_keyed(key, q, g, pipeline.filter);
    let filter_time = if fresh { t0.elapsed() } else { Duration::ZERO };
    let (mut result, hit_order) = run_in_entry(q, g, &entry, pipeline, orders.map(|cache| (cache, key)));
    result.filter_time = filter_time;
    (result, !fresh, hit_order)
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
    fn run_in_entry_agrees_with_fresh_pipeline_for_all_engines() {
        let (q, g) = small_case();
        // A star whose centre needs degree 3 on a path host: LDF leaves
        // the centre no candidate.
        let mut qb = GraphBuilder::new(2);
        let centre = qb.add_vertex(1);
        for _ in 0..3 {
            let leaf = qb.add_vertex(0);
            qb.add_edge(centre, leaf);
        }
        let starved = qb.build();
        let filter = LdfFilter;
        for (q, empty) in [(&q, false), (&starved, true)] {
            let cache = SpaceCache::new();
            let (entry, fresh) = cache.entry_keyed(&QueryKey::of(q), q, &g, &filter);
            assert!(fresh);
            assert_eq!(entry.cand().any_empty(), empty);
            for engine in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto] {
                let p = Pipeline {
                    filter: &filter,
                    ordering: &RiOrdering,
                    config: EnumConfig::find_all().with_engine(engine),
                };
                let (cached, hit_order) = run_in_entry(q, &g, &entry, &p, None);
                let fresh_run = run_pipeline(q, &g, &p);
                assert_eq!(cached.enum_result.match_count, fresh_run.enum_result.match_count, "{}", engine.name());
                assert_eq!(cached.enum_result.enumerations, fresh_run.enum_result.enumerations, "{}", engine.name());
                assert_eq!(cached.order, fresh_run.order, "{}", engine.name());
                assert_eq!(cached.filter_time, Duration::ZERO);
                assert!(!hit_order, "no order cache, no order hit");
                // The probe oracle never builds; no engine builds for an
                // empty candidate set.
                let built = !empty && engine != EnumEngine::Probe;
                assert_eq!(entry.space_ready(), built, "{} empty={empty}", engine.name());
            }
        }
    }

    #[test]
    fn entry_ordered_agrees_with_entry_for_all_engines() {
        let (q, g) = small_case();
        let cache = SpaceCache::new();
        let ocache = OrderCache::new();
        let key = QueryKey::of(&q);
        let filter = LdfFilter;
        let (entry, _) = cache.entry_keyed(&key, &q, &g, &filter);
        for (round, engine) in [EnumEngine::Probe, EnumEngine::CandidateSpace, EnumEngine::Auto].into_iter().enumerate()
        {
            let p =
                Pipeline { filter: &filter, ordering: &RiOrdering, config: EnumConfig::find_all().with_engine(engine) };
            let (direct, _) = run_in_entry(&q, &g, &entry, &p, None);
            // Serving shape: entry and order both through their caches.
            let (served, hit_space, hit_order) = run_cached(&q, &g, &p, &key, &cache, Some(&ocache));
            assert_eq!(served.enum_result.match_count, direct.enum_result.match_count, "{}", engine.name());
            assert_eq!(served.enum_result.enumerations, direct.enum_result.enumerations, "{}", engine.name());
            assert_eq!(served.order, direct.order, "{}", engine.name());
            assert!(hit_space, "the entry was resident before the first round");
            assert_eq!(served.filter_time, Duration::ZERO, "a space hit books no filter time");
            assert_eq!(hit_order, round > 0, "the order is computed in round 0 and served afterwards");
        }
        assert_eq!((ocache.misses(), ocache.hits()), (1, 2));
        assert!(ocache.contains(&key, &order_variant(&RiOrdering, &filter)), "filled under the one variant key");
    }

    #[test]
    fn cold_auto_entry_respects_the_cost_model() {
        // Dense one-label host under a 1-match cap: the build-dominated
        // regime. What is left of the cost model is the worker gate, so
        // Auto builds the cold entry's space like the engine it resolves
        // to, and the cold round, the warm round and the cold pipeline
        // agree.
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

        let cache = SpaceCache::new();
        let (entry, _) = cache.entry_keyed(&QueryKey::of(&q), &q, &g, &LdfFilter);
        let capped =
            EnumConfig { max_matches: 1, ..EnumConfig::find_all() }.with_engine(EnumEngine::Auto).with_threads(4);
        assert_eq!(capped.resolved(&q).threads, 1, "three calls cannot keep a helper busy");
        let p = Pipeline { filter: &LdfFilter, ordering: &RiOrdering, config: capped };
        let (cold, _) = run_in_entry(&q, &g, &entry, &p, None);
        assert!(entry.space_ready(), "Auto is the space engine, on a cold entry too");
        assert_eq!(cold.enum_result.match_count, 1);
        let (warm, _) = run_in_entry(&q, &g, &entry, &p, None);
        let fresh_run = run_pipeline(&q, &g, &p);
        for other in [&warm, &fresh_run] {
            assert_eq!(other.enum_result.match_count, cold.enum_result.match_count);
            assert_eq!(other.enum_result.enumerations, cold.enum_result.enumerations);
        }
    }
}
