//! Phase 3: the recursive enumeration procedure (paper Algorithm 2).
//!
//! One shared implementation is used for every ordering method — the
//! paper's fairness requirement (§IV-C: "all these methods utilize the same
//! enumeration methods which are implemented in the same way, \[so\] the
//! enumeration time costs could directly reflect the qualities of the
//! output matching orders").
//!
//! There is one recursion (`recurse`: budget, cadence checks, match
//! emission, extend-and-unwind, work donation), monomorphized over two
//! engines that differ only in how they compute `LC(u, M)` and produce
//! byte-identical results (`match_count`, `#enum`, and the match stream
//! itself):
//!
//! * [`EnumEngine::CandidateSpace`] (default) — builds a
//!   [`CandidateSpace`] and computes `LC(u, M)` as a multi-way
//!   intersection of precomputed per-query-edge candidate lists, with
//!   per-depth preallocated buffers (zero allocation and zero `has_edge`
//!   calls in steady-state recursion): the deepest list tested against
//!   cached bitmaps of the others where they are long enough, merged
//!   where they are not.
//! * [`EnumEngine::Probe`] — the original adjacency-probing path, kept as
//!   the differential oracle and run only when asked for by name: it scans
//!   the data adjacency list of the smallest-degree mapped backward
//!   neighbour and filters by candidate membership and edge tests.
//!
//! Because both engines enumerate `LC(u, M)` in ascending vertex order,
//! their recursion trees — and therefore `#enum` (Definition II.6), the
//! paper's order-quality metric — are identical; `tests/oracle.rs`
//! property-checks that equivalence.
//!
//! The independent suffix is counted, not recursed. Its start `s` is the
//! smallest order position such that every `LC` at or after `s` reads only
//! vertices placed before `s` (computed once per order from the backward
//! sets). Below a call at depth `d ≥ s` every list is therefore fixed, and
//! the call's subtree is a product of its levels' free-candidate counts:
//! `count_suffix` books each child's subtree by addition while none of its
//! calls can fire anything — no 1024-call cadence boundary, budget or match
//! cap — and makes the child on which something can fire through the
//! unchanged `extend → recurse`. A call runs plain where a product would
//! be wrong: when a vertex is free at two deeper levels (its children then
//! retry one level down), under `store_matches`, and in a stealing run
//! with a match cap. The last level is `count_leaves`: a leaf call that can
//! fire nothing is one call and one match, booked without being made. So
//! `#enum` is exactly what the per-call recursion reports, call for call —
//! `tests/limits.rs` sweeps every budget and cap over each suffix shape,
//! and `tests/oracle.rs` checks random orders against Algorithm 2.
//!
//! [`EnumEngine::Auto`] does not choose between them: it is the
//! CandidateSpace engine with the worker count gated by the estimated
//! enumeration work, and [`EnumConfig::resolved`] is the one place that
//! says so.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rlqvo_graph::{intersect_in_place, intersect_into, Graph, VertexId};

use crate::candspace::CandidateSpace;
use crate::filter::Candidates;

/// Order-independent query-adjacency precomputation for the probe engine:
/// one dense bitmap row per query vertex. Computing a matching order's
/// backward-neighbour sets (paper Definition II.4) through it is `O(n²)`
/// bit tests instead of `O(n²)` binary-searched [`Graph::has_edge`]
/// probes. The saving is under a microsecond per order, so nothing in the
/// workspace caches one; the benchmark ledger times the probe recursion
/// through [`enumerate_probe_prepared`] with the build outside the clock.
#[derive(Clone, Debug)]
pub struct QueryAdjBits {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl QueryAdjBits {
    /// Materializes the adjacency bitmap of `q`.
    pub fn build(q: &Graph) -> Self {
        let n = q.num_vertices();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; n * words_per_row];
        for u in q.vertices() {
            let row = &mut bits[u as usize * words_per_row..(u as usize + 1) * words_per_row];
            for &v in q.neighbors(u) {
                row[v as usize / 64] |= 1u64 << (v % 64);
            }
        }
        QueryAdjBits { n, words_per_row, bits }
    }

    /// True when `(u, v) ∈ E(q)`; false for any out-of-range `v` (same
    /// guard discipline as [`Candidates::contains`] — never a silent read
    /// of a neighbouring row).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let word = v as usize / 64;
        word < self.words_per_row && self.bits[u as usize * self.words_per_row + word] & (1u64 << (v % 64)) != 0
    }

    /// Number of query vertices covered.
    #[inline]
    pub fn num_query_vertices(&self) -> usize {
        self.n
    }

    /// Backward-neighbour sets of `order` (backward\[i\] = neighbours of
    /// `order[i]` among `order[..i]`), the per-order input of the probe
    /// recursion.
    pub fn backward_sets(&self, order: &[VertexId]) -> Vec<Vec<VertexId>> {
        order
            .iter()
            .enumerate()
            .map(|(i, &u)| order[..i].iter().copied().filter(|&p| self.has_edge(p, u)).collect())
            .collect()
    }
}

/// Which enumeration implementation to run. All variants report identical
/// results; they differ only in wall-clock profile (see module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumEngine {
    /// Adjacency-probing reference path (the differential oracle).
    Probe,
    /// Intersection over a prebuilt edge-indexed candidate space.
    #[default]
    CandidateSpace,
    /// [`EnumEngine::CandidateSpace`] with the worker count the estimated
    /// enumeration work endorses — see [`EnumConfig::resolved`].
    Auto,
}

impl EnumEngine {
    /// Short display name ("probe" / "candspace" / "auto").
    pub fn name(&self) -> &'static str {
        match self {
            EnumEngine::Probe => "probe",
            EnumEngine::CandidateSpace => "candspace",
            EnumEngine::Auto => "auto",
        }
    }

    /// Parses "probe" / "candspace" / "auto" (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "probe" => Some(EnumEngine::Probe),
            "candspace" | "cs" | "candidate-space" => Some(EnumEngine::CandidateSpace),
            "auto" => Some(EnumEngine::Auto),
            _ => None,
        }
    }
}

/// Knobs of an enumeration run. The paper's defaults are
/// `max_matches = 10^5` and a 500 s time limit; the harness scales both
/// down (and prints what it used) so figures regenerate quickly.
#[derive(Clone, Copy, Debug)]
pub struct EnumConfig {
    /// Stop after this many matches (`u64::MAX` = find all).
    pub max_matches: u64,
    /// Wall-clock budget. Exceeding it marks the query *unsolved*.
    pub time_limit: Duration,
    /// Budget on `#enum` (recursive calls); `u64::MAX` = unbounded. Used by
    /// training, where wall-clock limits would make rewards noisy.
    pub max_enumerations: u64,
    /// Record the matches themselves (tests/oracles) or just count them.
    pub store_matches: bool,
    /// Which enumeration implementation to run.
    pub engine: EnumEngine,
    /// Worker threads for intra-query parallel enumeration (1 = serial).
    /// Values above 1 spawn up to `threads - 1` scoped helpers that
    /// steal open subtrees of the one recursion — see [`crate::parallel`]
    /// for the exact semantics (find-all is byte-identical to serial;
    /// capped/budgeted runs keep exact match counts but trade
    /// deterministic `#enum` for wall-clock). A run granted no helper is
    /// the serial run.
    pub threads: usize,
    /// Cooperative cancellation: an absolute wall-clock deadline checked
    /// at enumeration entry and on the same amortized 1024-call cadence
    /// as `time_limit`. A run that trips it returns its partial counts
    /// with [`EnumResult::cancelled`] set — it never hangs and never
    /// kills its thread. `None` (the default) disables the check. Unlike
    /// `time_limit` (the paper's per-query *unsolved* budget, relative
    /// to enumeration start), the deadline is a point in time the caller
    /// fixed at admission — the serving layer's request deadline, which
    /// keeps ticking while a request waits in queue.
    pub deadline: Option<Instant>,
    /// Cooperative external kill switch, polled on the same cadence as
    /// `deadline`: raising the flag makes every enumeration carrying it
    /// return partial counts with [`EnumResult::cancelled`] set. The
    /// `&'static` lifetime keeps [`EnumConfig`] `Copy` (the hook crosses
    /// scoped-thread boundaries in parallel runs); long-lived callers
    /// like a server leak one flag per instance, which is bounded.
    pub cancel: Option<&'static AtomicBool>,
    /// Pins this configuration serial: [`EnumConfig::with_threads`]
    /// clamps to 1 instead of honouring the request. Set by
    /// [`EnumConfig::budgeted`], whose exact-`#enum` reward contract a
    /// silent parallel upgrade would break (parallel budgets have
    /// at-least semantics). Callers that explicitly want a parallel
    /// budgeted run construct the config literally.
    pub deterministic: bool,
    /// Token accounting for the scheduler: a parallel run asks
    /// this budget for its `threads - 1` helper tokens (never blocking —
    /// an exhausted budget degrades the run towards serial), so
    /// query-level and intra-query parallelism compose under one cap
    /// instead of a static split. `None` (the default) grants the full
    /// request, which is what standalone callers and tests want. The
    /// `&'static` lifetime keeps the config `Copy`, like `cancel`.
    pub pool_tokens: Option<&'static crate::scheduler::TokenBudget>,
    /// Liveness counter for an external watchdog, bumped once per
    /// amortized 1024-call cadence window by every worker of the run. A
    /// supervisor that sees the value still changing knows the request is
    /// long but healthy — which lets `--stall-timeout-ms` sit far below
    /// the longest legitimate enumeration. `None` disables the tick.
    pub heartbeat: Option<&'static AtomicU64>,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            max_matches: 100_000,
            time_limit: Duration::from_secs(500),
            max_enumerations: u64::MAX,
            store_matches: false,
            engine: EnumEngine::default(),
            threads: 1,
            deadline: None,
            cancel: None,
            deterministic: false,
            pool_tokens: None,
            heartbeat: None,
        }
    }
}

impl EnumConfig {
    /// Find-all-matches configuration (paper Fig. 4 and Fig. 11 "ALL").
    pub fn find_all() -> Self {
        EnumConfig { max_matches: u64::MAX, ..Default::default() }
    }

    /// Deterministic, wall-clock-free budget used during RL training: the
    /// reward must depend only on the order, not on machine load — so the
    /// worker count is pinned to 1 (parallel budgeted runs have
    /// "at-least" semantics, not exact ones). The pin is sticky:
    /// `deterministic` makes a later [`EnumConfig::with_threads`] clamp
    /// back to 1 rather than silently trading determinism away.
    pub fn budgeted(max_enumerations: u64) -> Self {
        EnumConfig {
            max_matches: u64::MAX,
            time_limit: Duration::from_secs(u64::MAX / 4),
            max_enumerations,
            store_matches: false,
            engine: EnumEngine::default(),
            threads: 1,
            deadline: None,
            cancel: None,
            deterministic: true,
            pool_tokens: None,
            heartbeat: None,
        }
    }

    /// The same configuration pinned to `engine`.
    pub fn with_engine(self, engine: EnumEngine) -> Self {
        EnumConfig { engine, ..self }
    }

    /// The same configuration pinned to `threads` intra-query workers —
    /// unless the configuration is [`deterministic`](Self::deterministic)
    /// (a [`EnumConfig::budgeted`] training config), in which case the
    /// request is clamped to 1: parallel budgeted runs have at-least
    /// semantics, and combining a reward budget with a worker pool would
    /// silently break the exact-`#enum` determinism the budget exists
    /// for. The clamp is tested in `tests/limits.rs`.
    pub fn with_threads(self, threads: usize) -> Self {
        let threads = if self.deterministic { 1 } else { threads.max(1) };
        EnumConfig { threads, ..self }
    }

    /// The same configuration with an absolute cooperative deadline (see
    /// [`EnumConfig::deadline`]).
    pub fn with_deadline(self, deadline: Instant) -> Self {
        EnumConfig { deadline: Some(deadline), ..self }
    }

    /// The same configuration observing an external cancel flag (see
    /// [`EnumConfig::cancel`]).
    pub fn with_cancel_flag(self, cancel: &'static AtomicBool) -> Self {
        EnumConfig { cancel: Some(cancel), ..self }
    }

    /// The same configuration drawing helper tokens from `budget` (see
    /// [`EnumConfig::pool_tokens`]).
    pub fn with_pool_tokens(self, budget: &'static crate::scheduler::TokenBudget) -> Self {
        EnumConfig { pool_tokens: Some(budget), ..self }
    }

    /// The same configuration ticking `heartbeat` on the engine cadence
    /// (see [`EnumConfig::heartbeat`]).
    pub fn with_heartbeat(self, heartbeat: &'static AtomicU64) -> Self {
        EnumConfig { heartbeat: Some(heartbeat), ..self }
    }

    /// What this configuration runs as on `q` — the one statement of the
    /// [`EnumEngine::Auto`] rule, which [`enumerate`], the warm path
    /// ([`run_in_entry`][crate::run_in_entry]) and the figure harness all
    /// call: `Auto` is the CandidateSpace engine with at most the workers
    /// [`effective_threads`] endorses for [`estimate_enum_work`] (a
    /// [`deterministic`](Self::deterministic) configuration stays at 1).
    /// An explicit engine is returned unchanged — the probe oracle runs
    /// only when asked for by name — so the call is idempotent.
    pub fn resolved(self, q: &Graph) -> EnumConfig {
        if self.engine != EnumEngine::Auto {
            return self;
        }
        let threads = effective_threads(estimate_enum_work(q, &self), self.threads);
        self.with_engine(EnumEngine::CandidateSpace).with_threads(threads)
    }

    /// True when the cooperative-cancel hook asks this run to stop now:
    /// the external `cancel` flag is raised or the absolute `deadline`
    /// has passed. Checked at enumeration entry (a pre-expired deadline
    /// performs zero recursion calls) and on the amortized 1024-call
    /// cadence inside both engines — so a run answers within one cadence
    /// window per worker, without `Instant::now()` on every call.
    #[inline]
    pub fn cancel_requested(&self) -> bool {
        self.cancel.map(|f| f.load(Ordering::Relaxed)).unwrap_or(false)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// What [`EnumEngine::Auto`] resolves to for one query, in the shape the
/// benchmark ledger reads it: the engine and the enumeration-work estimate
/// behind the worker gate.
#[derive(Clone, Copy, Debug)]
pub struct AutoDecision {
    /// The resolved engine — [`EnumEngine::CandidateSpace`].
    pub engine: EnumEngine,
    /// Estimated enumeration work — see [`estimate_enum_work`]. `u64::MAX`
    /// when both caps are effectively unbounded.
    pub est_enum_work: u64,
}

impl AutoDecision {
    /// The intra-query worker count the estimate endorses for this
    /// workload, at most `requested`. See [`effective_threads`].
    pub fn effective_threads(&self, requested: usize) -> usize {
        effective_threads(self.est_enum_work, requested)
    }
}

/// Work units the enumeration estimate charges per recursion call —
/// roughly the adjacency entries one call scans (~1–2 ns each). Only the
/// parallel gate reads the estimate, so what is calibrated is this
/// constant's product with [`AUTO_PARALLEL_WORK_PER_WORKER`].
const AUTO_WORK_PER_CALL: u64 = 16;

/// Caps at or above this are treated as "find everything": the estimate
/// is unbounded and the gate grants the full worker request.
const AUTO_UNBOUNDED: u64 = u64::MAX / 4;

/// Minimum estimated enumeration work (in `AUTO_WORK_PER_CALL` units)
/// that must land on *each additional worker* before the Auto path
/// parallelizes. Calibration: one unit is roughly an adjacency entry
/// scanned (~1–2 ns), so 256Ki units is a few hundred microseconds of
/// estimated work per worker — against a helper grant that costs a
/// scoped thread spawn and join plus per-worker scratch (a scoped run
/// with one helper costs about 40 µs, with three about 85 µs, on a
/// 2-vCPU x86-64 guest). The bar clears a yeast first-1k-matches
/// query (1000 matches × 12 calls × 16 units ≈ 192k units, measured
/// serial at ~4 µs) with a ~35% margin, so tiny workloads pay zero
/// scheduling cost.
pub const AUTO_PARALLEL_WORK_PER_WORKER: u64 = 262_144;

/// Caps `requested` intra-query workers to what `est_enum_work` (in
/// `AUTO_WORK_PER_CALL` units — see [`estimate_enum_work`]) can keep
/// busy: one worker per [`AUTO_PARALLEL_WORK_PER_WORKER`] units, never
/// fewer than one. Unbounded estimates (`u64::MAX`, the find-all regime)
/// grant the full request. This is the gate that keeps tiny yeast-style
/// workloads serial however many threads the config asks for.
pub fn effective_threads(est_enum_work: u64, requested: usize) -> usize {
    let requested = requested.max(1);
    if est_enum_work == u64::MAX {
        requested
    } else {
        requested.min(((est_enum_work / AUTO_PARALLEL_WORK_PER_WORKER) as usize).max(1))
    }
}

/// The enumeration-work estimate — `O(1)`: the recursion-call ceiling
/// implied by `max_matches` / `max_enumerations`, in
/// `AUTO_WORK_PER_CALL` units. A hopeful estimate, not a ceiling: a
/// capped query with few or no embeddings still explores its dead-end
/// tree in full.
pub fn estimate_enum_work(q: &Graph, config: &EnumConfig) -> u64 {
    let call_cap = config.max_enumerations.min(config.max_matches.saturating_mul(q.num_vertices() as u64));
    if call_cap >= AUTO_UNBOUNDED {
        u64::MAX
    } else {
        call_cap.saturating_mul(AUTO_WORK_PER_CALL)
    }
}

/// [`EnumConfig::resolved`] for `config` read as [`EnumEngine::Auto`],
/// reported as an [`AutoDecision`]. The data graph and the candidates play
/// no part; the signature is the one `ledger/src/library.rs` calls.
pub fn auto_decide(q: &Graph, _g: &Graph, _cand: &Candidates, config: &EnumConfig) -> AutoDecision {
    AutoDecision {
        engine: config.with_engine(EnumEngine::Auto).resolved(q).engine,
        est_enum_work: estimate_enum_work(q, config),
    }
}

/// Outcome of an enumeration run.
#[derive(Clone, Debug)]
pub struct EnumResult {
    /// Number of matches found (capped by `max_matches`).
    pub match_count: u64,
    /// `#enum` — the number of recursive calls of the enumeration
    /// procedure (Definition II.6), the paper's order-quality metric.
    pub enumerations: u64,
    /// Wall-clock time spent enumerating.
    pub elapsed: Duration,
    /// True when the time limit expired — the paper's *unsolved* state.
    pub timed_out: bool,
    /// True when `max_enumerations` was exhausted.
    pub budget_exhausted: bool,
    /// True when the cooperative-cancel hook ([`EnumConfig::deadline`] /
    /// [`EnumConfig::cancel`]) stopped the run. Counts are valid partial
    /// results — the serving layer reports them as `deadline_exceeded`
    /// rather than discarding the work.
    pub cancelled: bool,
    /// The matches (query-vertex id → data-vertex id, indexed by query
    /// vertex), populated only when `store_matches` is set.
    pub matches: Vec<Vec<VertexId>>,
}

impl EnumResult {
    pub(crate) fn empty(elapsed: Duration) -> Self {
        EnumResult {
            match_count: 0,
            enumerations: 0,
            elapsed,
            timed_out: false,
            budget_exhausted: false,
            cancelled: false,
            matches: Vec::new(),
        }
    }
}

/// Which paths of the independent-suffix counting ([`count_suffix`]) the
/// recursion took, summed over every run whose recursion ran on the
/// calling thread — every serial run, and a stealing run's caller share.
/// Tests read it before and after a run to check that a fixture reaches
/// the path it is named for; nothing else does.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuffixPaths {
    /// Calls that booked their children by product.
    pub counted: u64,
    /// Calls that ran plain: a vertex was free at two deeper levels.
    pub clashed: u64,
    /// Children whose own vertex was free at a deeper level, booked with
    /// that level one short.
    pub short: u64,
    /// Stamp passes that stopped at a level with no free candidate.
    pub emptied: u64,
    /// Children made through `extend → recurse`: something could fire in
    /// their subtree.
    pub descended: u64,
}

impl SuffixPaths {
    fn zip(self, o: SuffixPaths, f: impl Fn(u64, u64) -> u64) -> SuffixPaths {
        SuffixPaths {
            counted: f(self.counted, o.counted),
            clashed: f(self.clashed, o.clashed),
            short: f(self.short, o.short),
            emptied: f(self.emptied, o.emptied),
            descended: f(self.descended, o.descended),
        }
    }
}

impl std::ops::Add for SuffixPaths {
    type Output = SuffixPaths;
    fn add(self, o: SuffixPaths) -> SuffixPaths {
        self.zip(o, |a, b| a + b)
    }
}

/// What a stretch of runs added: `suffix_paths() - before`.
impl std::ops::Sub for SuffixPaths {
    type Output = SuffixPaths;
    fn sub(self, o: SuffixPaths) -> SuffixPaths {
        self.zip(o, |a, b| a - b)
    }
}

thread_local! {
    static SUFFIX_PATHS: std::cell::Cell<SuffixPaths> = std::cell::Cell::new(SuffixPaths::default());
    /// The marks of the last context on this thread that counted a suffix,
    /// with its stamp generation: the next one continues both, so a run
    /// does not allocate, zero and fault in `V(G)` words afresh (a cold
    /// query's heap is trimmed back between queries). Stamps of earlier
    /// runs carry older generations, which no later pass equals.
    static MARKS: std::cell::Cell<(Vec<u32>, u32)> = Default::default();
}

/// This thread's [`SuffixPaths`] so far.
#[doc(hidden)]
pub fn suffix_paths() -> SuffixPaths {
    SUFFIX_PATHS.with(|total| total.get())
}

/// Runs Algorithm 2 with the engine `config`
/// [resolves to](EnumConfig::resolved) (building the candidate space
/// internally for [`EnumEngine::CandidateSpace`]; use
/// [`enumerate_in_space`] to amortize one build over several orders).
/// `config.threads > 1` asks the steal driver ([`crate::parallel`]) for
/// helpers; the recursion is the same either way.
///
/// `order` must be a permutation of the query vertices. Orders whose prefix
/// is disconnected are legal (the local candidate set falls back to the
/// full `C(u)` — the Cartesian-product case the paper's connectivity
/// constraint exists to avoid).
pub fn enumerate(q: &Graph, g: &Graph, cand: &Candidates, order: &[VertexId], config: EnumConfig) -> EnumResult {
    let config = config.resolved(q);
    if config.engine == EnumEngine::Probe {
        return enumerate_probe(q, g, cand, order, config);
    }
    let start = Instant::now();
    if let Some(res) = early_exit(q, order, cand.any_empty(), &config, start) {
        return res;
    }
    let cs = CandidateSpace::build(q, g, cand);
    space_from(q, &cs, order, config, start)
}

/// The checks every public entry point runs before any engine work: the
/// order must cover the query; a pre-expired deadline (or raised cancel
/// flag) does zero work — not even a space build — and hands the caller a
/// typed partial result; and, candidate sets being complete, an empty one
/// proves there is no match — as a cap of zero asks for none.
fn early_exit(
    q: &Graph,
    order: &[VertexId],
    any_empty: bool,
    config: &EnumConfig,
    start: Instant,
) -> Option<EnumResult> {
    assert_eq!(order.len(), q.num_vertices(), "order must cover all query vertices");
    if config.cancel_requested() {
        return Some(EnumResult { cancelled: true, ..EnumResult::empty(start.elapsed()) });
    }
    (any_empty || config.max_matches == 0).then(|| EnumResult::empty(start.elapsed()))
}

/// The probe-based reference engine (the seed implementation). Scans a
/// mapped backward neighbour's adjacency list and filters with candidate
/// membership + `has_edge` tests. Kept as the differential oracle for the
/// CandidateSpace engine.
pub fn enumerate_probe(q: &Graph, g: &Graph, cand: &Candidates, order: &[VertexId], config: EnumConfig) -> EnumResult {
    let start = Instant::now();
    if let Some(res) = early_exit(q, order, cand.any_empty(), &config, start) {
        return res;
    }
    let backward: Vec<Vec<VertexId>> = order
        .iter()
        .enumerate()
        .map(|(i, &u)| order[..i].iter().copied().filter(|&p| q.has_edge(p, u)).collect())
        .collect();
    probe_from(g, cand, order, &backward, config, start)
}

/// [`enumerate_probe`] with the backward-neighbour sets derived from a
/// prebuilt [`QueryAdjBits`]: nothing here touches [`Graph::has_edge`]
/// before recursion starts. Byte-identical to [`enumerate_probe`]; its one
/// caller outside tests is the benchmark ledger's probe-recursion timing.
pub fn enumerate_probe_prepared(
    q: &Graph,
    g: &Graph,
    cand: &Candidates,
    adj: &QueryAdjBits,
    order: &[VertexId],
    config: EnumConfig,
) -> EnumResult {
    assert_eq!(adj.num_query_vertices(), q.num_vertices(), "adjacency/query mismatch");
    let start = Instant::now();
    if let Some(res) = early_exit(q, order, cand.any_empty(), &config, start) {
        return res;
    }
    probe_from(g, cand, order, &adj.backward_sets(order), config, start)
}

/// Enters the shared driver with a probe engine. `backward` are the
/// per-position backward-neighbour sets of `order` (paper Definition II.4;
/// the root's is empty by construction).
pub(crate) fn probe_from(
    g: &Graph,
    cand: &Candidates,
    order: &[VertexId],
    backward: &[Vec<VertexId>],
    config: EnumConfig,
    start: Instant,
) -> EnumResult {
    let root = || cand.of(order[0]).to_vec();
    crate::parallel::drive(ProbeEngine { g, cand, backward }, g.num_vertices(), order, root, config, start)
}

/// Runs the CandidateSpace engine against a prebuilt space. The space
/// depends only on `(q, G, C)` — not on the order — so harnesses that
/// compare many orders on identical candidate sets (Fig. 5/6) build it
/// once. `config.engine` is ignored (the space *is* the engine choice);
/// `config.threads > 1` asks the steal driver for helpers.
pub fn enumerate_in_space(q: &Graph, cs: &CandidateSpace, order: &[VertexId], config: EnumConfig) -> EnumResult {
    let start = Instant::now();
    if let Some(res) = early_exit(q, order, cs.any_empty(), &config, start) {
        return res;
    }
    space_from(q, cs, order, config, start)
}

/// Enters the shared driver with a space engine. `start` is the caller's
/// phase clock, so a space build the caller paid counts against
/// `time_limit` and shows in `elapsed`.
pub(crate) fn space_from(
    q: &Graph,
    cs: &CandidateSpace,
    order: &[VertexId],
    config: EnumConfig,
    start: Instant,
) -> EnumResult {
    assert_eq!(cs.num_query_vertices(), q.num_vertices(), "space/query mismatch");
    // Backward neighbours of order[i] among order[..i] (Definition II.4),
    // as (order position j, directed edge id of order[j] -> order[i]).
    let backward: Vec<Vec<(usize, u32)>> = order
        .iter()
        .enumerate()
        .map(|(i, &u)| order[..i].iter().enumerate().filter_map(|(j, &p)| cs.edge_id(p, u).map(|e| (j, e))).collect())
        .collect();
    let engine = SpaceEngine::new(cs, &backward);
    let root = || (0..cs.cand_len(order[0]) as u32).collect();
    crate::parallel::drive(engine, cs.num_data_vertices(), order, root, config, start)
}

fn is_permutation(order: &[VertexId]) -> bool {
    let mut seen = vec![false; order.len()];
    order.iter().all(|&u| {
        let i = u as usize;
        i < seen.len() && !std::mem::replace(&mut seen[i], true)
    })
}

// ---------------------------------------------------------------------------
// The one recursion (Algorithm 2) and what an engine plugs into it
// ---------------------------------------------------------------------------

/// What genuinely differs between the two engines: how `LC(u, M)` is
/// computed and what a candidate *slot* is (space engine: a position
/// inside `C(u)`; probe engine: the data vertex itself). Everything else
/// — budget, cadence checks, match emission, extend-and-unwind, donation,
/// suffix counting — is the shared [`recurse`], monomorphized per engine.
/// `'a` is the lifetime of the precomputed data (space or candidate sets)
/// the slot lists borrow from, independent of the `&mut` the recursion
/// holds.
pub(crate) trait Engine<'a> {
    /// `LC(u, M)` for `u = order[depth]`, ascending: either a view of
    /// precomputed data or, materialized, the contents of `buf`.
    fn local_candidates(&mut self, depth: usize, u: VertexId, mapping: &[VertexId], buf: &mut Vec<u32>) -> Slots<'a>;
    /// One past the last order position whose choice `LC(order[depth], M)`
    /// reads (its backward neighbours, Definition II.4); 0 when it reads
    /// none. `position` maps a query vertex to its place in the order.
    fn reads_below(&self, depth: usize, position: &[usize]) -> usize;
    /// The data vertex `slot` of query vertex `u` stands for.
    fn vertex(&self, u: VertexId, slot: u32) -> VertexId;
    /// Records that `order[depth]` took `slot`.
    fn choose(&mut self, depth: usize, slot: u32);
    /// The slots chosen along `prefix = order[..depth]` — the frozen
    /// partial embedding of a donated [`Task`][crate::parallel::Task].
    fn freeze(&self, prefix: &[VertexId], mapping: &[VertexId]) -> Vec<u32>;
}

/// A local-candidate list as an engine hands it to the recursion.
pub(crate) enum Slots<'a> {
    /// Every slot `0..n` (the space engine's full candidate set).
    All(u32),
    /// A list borrowed from precomputed data — iterated in place.
    List(&'a [u32]),
    /// The list was written into the per-depth buffer.
    Buf,
}

/// One worker's recursion state. A serial run has exactly one, with
/// `steal: None`; a stealing run has one per participant.
pub(crate) struct Ctx<'c, E> {
    engine: E,
    order: &'c [VertexId],
    config: EnumConfig,
    start: Instant,
    /// Present in work-stealing runs only: the run's shared caps and
    /// deque set, and this worker's slot in it. When set, the recursion
    /// coordinates caps through it and donates splittable candidate lists
    /// as open-subtree [`crate::parallel::Task`]s.
    steal: Option<(&'c crate::parallel::StealShared, usize)>,
    /// `enumerations` value already pushed to the shared caps (workers
    /// sync deltas on the same 1024-call cadence as the deadline check).
    synced: u64,
    deadline_hit: bool,
    budget_hit: bool,
    cancel_hit: bool,
    enumerations: u64,
    match_count: u64,
    /// Query vertex id → mapped data vertex.
    mapping: Vec<VertexId>,
    used: Vec<bool>,
    matches: Vec<Vec<VertexId>>,
    /// Per-depth LC buffers: steady-state recursion reuses these and
    /// performs no allocation (capacity grows to the high-water mark of
    /// |LC| during the first descents).
    bufs: Vec<Vec<u32>>,
    /// First position of the independent suffix this run counts (see
    /// [`count_suffix`]); `order.len()` when it counts none — a suffix of
    /// one level, or a run in which nothing may be booked.
    suffix: usize,
    /// Per data vertex, `pass << 8 | level − depth` from the latest
    /// [`stamp_suffix`] pass that found it free at `level`: 24 bits of
    /// generation over 8 of level. Empty when `suffix` is `order.len()`.
    marks: Vec<u32>,
    /// Generation of the latest stamp pass, carried over with `marks` from
    /// the thread's previous run; passes start at 1, so a zeroed mark
    /// belongs to none.
    pass: u32,
    /// Per order position, the free-candidate count of the latest pass.
    free: Vec<u64>,
    /// What this context's suffix counting did; `into_result` adds it to
    /// the thread's [`suffix_paths`].
    paths: SuffixPaths,
}

impl<'c, 'a, E: Engine<'a>> Ctx<'c, E> {
    pub(crate) fn new(
        engine: E,
        num_data_vertices: usize,
        order: &'c [VertexId],
        config: EnumConfig,
        start: Instant,
        steal: Option<(&'c crate::parallel::StealShared, usize)>,
    ) -> Self {
        debug_assert!(is_permutation(order));
        let n = order.len();
        let suffix = if books(&config, steal.is_some()) { suffix_start(&engine, order) } else { n };
        // A suffix of one level is the last level, which `count_leaves` owns.
        let (suffix, counts) = if suffix + 1 < n { (suffix, true) } else { (n, false) };
        let (mut marks, pass) = if counts { MARKS.take() } else { Default::default() };
        if counts && marks.len() < num_data_vertices {
            marks.resize(num_data_vertices, 0);
        }
        Ctx {
            engine,
            order,
            config,
            start,
            steal,
            synced: 0,
            deadline_hit: false,
            budget_hit: false,
            cancel_hit: false,
            enumerations: 0,
            match_count: 0,
            mapping: vec![VertexId::MAX; n],
            used: vec![false; num_data_vertices],
            matches: Vec::new(),
            bufs: vec![Vec::new(); n],
            suffix,
            marks,
            pass,
            free: if counts { vec![0; n] } else { Vec::new() },
            paths: SuffixPaths::default(),
        }
    }
}

impl<E> Ctx<'_, E> {
    /// How many calls, and how many matches, can be booked from here with
    /// none of them firing: no 1024-call cadence boundary or `#enum` budget
    /// among the calls, no match cap among the matches.
    fn quiet_windows(&self) -> (u64, u64) {
        let calls = (0x3FF - (self.enumerations & 0x3FF))
            .min(self.config.max_enumerations.saturating_sub(self.enumerations + 1));
        (calls, self.config.max_matches.saturating_sub(self.match_count + 1))
    }

    /// How many leaf calls from here provably fire nothing — each is one
    /// call and one match inside the [quiet windows](Self::quiet_windows);
    /// zero where a leaf does more than count (a stored match, a shared
    /// match counter).
    fn quiet_run(&self) -> u64 {
        if !books(&self.config, self.steal.is_some()) {
            return 0;
        }
        let (calls, matches) = self.quiet_windows();
        calls.min(matches)
    }

    /// This worker's exact local counts as a result (a stealing run sums
    /// its workers' in [`crate::parallel`]).
    pub(crate) fn into_result(self) -> EnumResult {
        SUFFIX_PATHS.with(|total| total.set(total.get() + self.paths));
        if !self.marks.is_empty() {
            MARKS.set((self.marks, self.pass));
        }
        EnumResult {
            match_count: self.match_count,
            enumerations: self.enumerations,
            elapsed: self.start.elapsed(),
            timed_out: self.deadline_hit,
            budget_exhausted: self.budget_hit,
            cancelled: self.cancel_hit,
            matches: self.matches,
        }
    }
}

/// Returns true when enumeration should stop (caps reached).
pub(crate) fn recurse<'a, E: Engine<'a>>(ctx: &mut Ctx<'_, E>, depth: usize) -> bool {
    ctx.enumerations += 1;
    if ctx.enumerations >= ctx.config.max_enumerations {
        ctx.budget_hit = true;
        return true;
    }
    // Time checks are amortized: Instant::now() every call would dominate
    // the cost of shallow recursions. Parallel workers sync their local
    // call delta to the shared caps on the same cadence.
    if ctx.enumerations & 0x3FF == 0 {
        // Liveness tick first, before anything on this cadence can block
        // or die: a watchdog watching the counter change distinguishes a
        // long-but-healthy enumeration from a wedged worker.
        if let Some(hb) = ctx.config.heartbeat {
            hb.fetch_add(1, Ordering::Relaxed);
        }
        // Failpoints ride the same cadence as the cooperative checks: a
        // delay models a slow engine (deadline pressure), a panic a
        // mid-enumeration death (in serve, fenced per-request).
        if let Some(f) = rlqvo_fault::failpoint!("enum.delay") {
            f.sleep();
        }
        if rlqvo_fault::failpoint!("enum.panic").is_some() {
            panic!("failpoint enum.panic: dying mid-enumeration");
        }
        if ctx.start.elapsed() > ctx.config.time_limit {
            ctx.deadline_hit = true;
            return true;
        }
        if ctx.config.cancel_requested() {
            // One worker observing the deadline/flag stops the whole
            // parallel run: raising the shared stop makes peers exit at
            // their next cadence sync or task claim.
            ctx.cancel_hit = true;
            if let Some((shared, _)) = ctx.steal {
                shared.caps.raise_stop();
            }
            return true;
        }
        if let Some((shared, _)) = ctx.steal {
            let stop = shared.caps.sync_enumerations(ctx.enumerations - ctx.synced);
            ctx.synced = ctx.enumerations;
            if stop {
                ctx.budget_hit = shared.caps.budget_exhausted();
                return true;
            }
        }
    }
    if depth == ctx.order.len() {
        ctx.match_count += 1;
        if ctx.config.store_matches {
            ctx.matches.push(ctx.mapping.clone());
        }
        return match ctx.steal {
            Some((shared, _)) => shared.caps.note_match(),
            None => ctx.match_count >= ctx.config.max_matches,
        };
    }

    if depth >= ctx.suffix && depth + 1 < ctx.order.len() {
        if let Some(stop) = count_suffix(ctx, depth) {
            return stop;
        }
    }
    let u = ctx.order[depth];
    match ctx.engine.local_candidates(depth, u, &ctx.mapping, &mut ctx.bufs[depth]) {
        Slots::All(n) if depth + 1 == ctx.order.len() => count_leaves(ctx, 0..n),
        Slots::All(n) => {
            let keep = donate_tail(ctx, depth, n as usize, |k, l| (k as u32..l as u32).collect());
            (0..keep as u32).any(|slot| extend(ctx, depth, u, slot))
        }
        Slots::List(list) => extend_each(ctx, depth, u, list),
        Slots::Buf => {
            // Taken out of ctx for the loop and restored after it, so the
            // buffer's capacity survives for the next visit of this depth.
            let buf = std::mem::take(&mut ctx.bufs[depth]);
            let stop = extend_each(ctx, depth, u, &buf);
            ctx.bufs[depth] = buf;
            stop
        }
    }
}

/// The depth-`depth` candidate loop over `slots`: at the last depth
/// [`count_leaves`]; above it, donates splittable tails, then extends along
/// what is kept. Returns true on stop.
#[inline]
fn extend_each<'a, E: Engine<'a>>(ctx: &mut Ctx<'_, E>, depth: usize, u: VertexId, slots: &[u32]) -> bool {
    if depth + 1 == ctx.order.len() {
        return count_leaves(ctx, slots.iter().copied());
    }
    let keep = donate_tail(ctx, depth, slots.len(), |k, l| slots[k..l].to_vec());
    slots[..keep].iter().any(|&slot| extend(ctx, depth, u, slot))
}

/// The last level's candidate loop, for every [`Slots`] shape and both
/// engines. A leaf call on which nothing can fire adds one to `#enum` and
/// one to the match count, so a [quiet run](Ctx::quiet_run) of them is
/// booked by addition, one per candidate not `used`; the call on which
/// something can fire is made — [`extend`] into [`recurse`], which stays the
/// definition of a call. Never donates: a leaf costs less than a task.
fn count_leaves<'a, E: Engine<'a>>(ctx: &mut Ctx<'_, E>, mut slots: impl Iterator<Item = u32>) -> bool {
    let depth = ctx.order.len() - 1;
    let u = ctx.order[depth];
    loop {
        let (quiet, mut run) = (ctx.quiet_run(), 0);
        let event = slots.find(|&slot| {
            let due = run == quiet;
            run += u64::from(!due && !ctx.used[ctx.engine.vertex(u, slot) as usize]);
            due
        });
        ctx.enumerations += run;
        ctx.match_count += run;
        match event {
            Some(slot) if extend(ctx, depth, u, slot) => return true,
            Some(_) => {}
            None => return false,
        }
    }
}

/// Whether a run may book calls by addition at all: not when each match is
/// stored, nor when a stealing run counts matches against a shared cap.
fn books(config: &EnumConfig, stealing: bool) -> bool {
    !config.store_matches && (!stealing || config.max_matches == u64::MAX)
}

/// The first position `s` of `order`'s independent suffix: the smallest
/// such that every `LC` at or after `s` reads only positions before `s`.
/// Raised, if need be, until a level below `s` fits the 8 bits a mark
/// gives it.
fn suffix_start<'a>(engine: &impl Engine<'a>, order: &[VertexId]) -> usize {
    let n = order.len();
    let mut position = vec![0; n];
    for (i, &u) in order.iter().enumerate() {
        position[u as usize] = i;
    }
    let mut reads_below = 0;
    let mut s = n;
    while s > 0 {
        reads_below = reads_below.max(engine.reads_below(s - 1, &position));
        if reads_below > s - 1 {
            break;
        }
        s -= 1;
    }
    s.max(n.saturating_sub(256))
}

/// A call at `depth` inside the independent suffix, above the last level.
/// Every `LC` from `depth` down reads only the prefix before the suffix,
/// so each is fixed for this call's whole subtree: once [`stamp_suffix`]
/// has counted the free candidates `f_i` of every deeper level, a child's
/// subtree is `1 + f_{d+1}·(1 + f_{d+2}·(…))` calls and `Π f` matches
/// ([`subtree`]). [`book_children`] adds that to the counters while it
/// fits the quiet windows and makes the child on which something can
/// fire through `extend → recurse`, so `#enum` stays the per-call count
/// of Definition II.6. `None` when a vertex is free at two deeper levels,
/// where the products would count a mapping twice: this call then runs
/// plain and each child retries one level down.
fn count_suffix<'a, E: Engine<'a>>(ctx: &mut Ctx<'_, E>, depth: usize) -> Option<bool> {
    let Some(last) = stamp_suffix(ctx, depth) else {
        ctx.paths.clashed += 1;
        return None;
    };
    ctx.paths.counted += 1;
    let u = ctx.order[depth];
    Some(match ctx.engine.local_candidates(depth, u, &ctx.mapping, &mut ctx.bufs[depth]) {
        Slots::All(n) => book_children(ctx, depth, last, 0..n),
        Slots::List(list) => book_children(ctx, depth, last, list.iter().copied()),
        Slots::Buf => {
            let buf = std::mem::take(&mut ctx.bufs[depth]);
            let stop = book_children(ctx, depth, last, buf.iter().copied());
            ctx.bufs[depth] = buf;
            stop
        }
    })
}

/// One pass over the `LC` of every level below `depth`: counts each
/// level's free candidates into `free` and stamps each free vertex with a
/// new generation and its level. Stops at a level with no free candidate
/// — no call below it is ever made — and returns that level, else the
/// last; `None` when a vertex is free at two of the levels.
fn stamp_suffix<'a, E: Engine<'a>>(ctx: &mut Ctx<'_, E>, depth: usize) -> Option<usize> {
    ctx.pass += 1;
    if ctx.pass == 1 << 24 {
        ctx.marks.fill(0);
        ctx.pass = 1;
    }
    let n = ctx.order.len();
    for level in depth + 1..n {
        let (u, stamp) = (ctx.order[level], ctx.pass << 8 | (level - depth) as u32);
        let engine = &mut ctx.engine;
        let free = match engine.local_candidates(level, u, &ctx.mapping, &mut ctx.bufs[level]) {
            Slots::All(n) => stamp_level(&mut ctx.marks, &ctx.used, stamp, (0..n).map(|s| engine.vertex(u, s))),
            Slots::List(list) => {
                stamp_level(&mut ctx.marks, &ctx.used, stamp, list.iter().map(|&s| engine.vertex(u, s)))
            }
            Slots::Buf => {
                stamp_level(&mut ctx.marks, &ctx.used, stamp, ctx.bufs[level].iter().map(|&s| engine.vertex(u, s)))
            }
        }?;
        ctx.free[level] = free;
        if free == 0 {
            ctx.paths.emptied += 1;
            return Some(level);
        }
    }
    Some(n - 1)
}

/// Stamps the free ones among `vertices` and returns how many there are;
/// `None` on a vertex this pass already stamped at another level.
#[inline]
fn stamp_level(marks: &mut [u32], used: &[bool], stamp: u32, vertices: impl Iterator<Item = VertexId>) -> Option<u64> {
    let mut free = 0;
    for v in vertices {
        if used[v as usize] {
            continue;
        }
        let mark = &mut marks[v as usize];
        if *mark >> 8 == stamp >> 8 {
            return None;
        }
        *mark = stamp;
        free += 1;
    }
    Some(free)
}

/// Calls and matches in the subtree of a call whose level and those
/// below it have `free` candidates each, level `short` one fewer (its own
/// vertex is taken by the parent): `C = 1 + f₀·(1 + f₁·(…))` and
/// `M = Π f`. A zero level truncates both; products saturate.
fn subtree(free: &[u64], short: Option<usize>) -> (u64, u64) {
    free.iter().enumerate().rev().fold((1, 1), |(calls, matches), (i, &f)| {
        let f = f - u64::from(short == Some(i));
        (f.saturating_mul(calls).saturating_add(1), f.saturating_mul(matches))
    })
}

/// The children loop of [`count_suffix`]: `last` is the deepest level
/// the products read. A child whose vertex is stamped at a deeper level
/// books that level one short. A descent runs passes of its own over the
/// marks, so the next child re-stamps this call's first — the same lists
/// and the same `used`, so the same counts and no clash.
fn book_children<'a, E: Engine<'a>>(
    ctx: &mut Ctx<'_, E>,
    depth: usize,
    last: usize,
    slots: impl Iterator<Item = u32>,
) -> bool {
    let u = ctx.order[depth];
    let whole = subtree(&ctx.free[depth + 1..=last], None);
    // Products with one level short, for the last level that needed them.
    let mut short = (usize::MAX, whole);
    let mut pass = ctx.pass;
    for slot in slots {
        let v = ctx.engine.vertex(u, slot);
        if ctx.used[v as usize] {
            continue;
        }
        if ctx.pass != pass {
            let restamped = stamp_suffix(ctx, depth);
            debug_assert_eq!(restamped, Some(last), "a re-stamp sees the lists the first pass saw");
            pass = ctx.pass;
        }
        let mark = ctx.marks[v as usize];
        let (calls, matches) = if mark >> 8 == pass {
            ctx.paths.short += 1;
            let level = (mark & 0xFF) as usize - 1;
            if short.0 != level {
                short = (level, subtree(&ctx.free[depth + 1..=last], Some(level)));
            }
            short.1
        } else {
            whole
        };
        let (call_room, match_room) = ctx.quiet_windows();
        if calls <= call_room && matches <= match_room {
            ctx.enumerations += calls;
            ctx.match_count += matches;
        } else {
            ctx.paths.descended += 1;
            if extend(ctx, depth, u, slot) {
                return true;
            }
        }
    }
    false
}

/// Maps `u = order[depth]` to the candidate at `slot`, recurses, and unwinds.
/// Returns true when enumeration should stop.
#[inline(always)]
fn extend<'a, E: Engine<'a>>(ctx: &mut Ctx<'_, E>, depth: usize, u: VertexId, slot: u32) -> bool {
    let v = ctx.engine.vertex(u, slot);
    if ctx.used[v as usize] {
        return false;
    }
    ctx.mapping[u as usize] = v;
    ctx.used[v as usize] = true;
    ctx.engine.choose(depth, slot);
    let stop = recurse(ctx, depth + 1);
    ctx.used[v as usize] = false;
    ctx.mapping[u as usize] = VertexId::MAX;
    stop
}

/// Work-stealing donation: carves geometric tail chunks off this depth's
/// `len`-long candidate list into open-subtree [`crate::parallel::Task`]s
/// — each a frozen copy of the current prefix plus the chunk `tail(k, l)`
/// — until the local share is down to the granularity threshold or the
/// owner's deque is full. Returns how much of the list to keep locally
/// (always the *head*, so the donor plus its thieves cover exactly the
/// slots the serial loop would, each in ascending order). Outside a
/// stealing run that is all of it.
#[inline]
fn donate_tail<'a, E: Engine<'a>>(
    ctx: &Ctx<'_, E>,
    depth: usize,
    mut len: usize,
    tail: impl Fn(usize, usize) -> Vec<u32>,
) -> usize {
    let Some((shared, slot)) = ctx.steal else { return len };
    if len <= crate::parallel::STEAL_GRANULARITY || !shared.has_room(slot) {
        return len;
    }
    // The prefix is frozen lazily — only when a donation is due.
    let path = ctx.engine.freeze(&ctx.order[..depth], &ctx.mapping);
    while len > crate::parallel::STEAL_GRANULARITY && shared.has_room(slot) {
        let keep = len.div_ceil(2);
        shared.donate(slot, crate::parallel::Task { depth, path: path.clone(), slots: tail(keep, len) });
        len = keep;
    }
    len
}

/// Executes one open-subtree task on this worker's context: loads the
/// frozen prefix, runs the task's candidate chunk exactly as the donor's
/// loop would have (re-donating splittable tails of it), and unwinds the
/// prefix. Returns true when this worker should stop (caps reached).
pub(crate) fn run_task<'a, E: Engine<'a>>(ctx: &mut Ctx<'_, E>, task: crate::parallel::Task) -> bool {
    let crate::parallel::Task { depth, path, slots } = task;
    debug_assert_eq!(path.len(), depth, "frozen prefix covers order[..depth]");
    let order = ctx.order;
    for (i, &slot) in path.iter().enumerate() {
        let v = ctx.engine.vertex(order[i], slot);
        debug_assert!(!ctx.used[v as usize], "frozen prefix must be injective");
        ctx.mapping[order[i] as usize] = v;
        ctx.used[v as usize] = true;
        ctx.engine.choose(i, slot);
    }
    let stop = extend_each(ctx, depth, order[depth], &slots);
    for &u in &order[..depth] {
        let v = std::mem::replace(&mut ctx.mapping[u as usize], VertexId::MAX);
        ctx.used[v as usize] = false;
    }
    stop
}

// ---------------------------------------------------------------------------
// CandidateSpace engine
// ---------------------------------------------------------------------------

/// `LC(u, M)` from a prebuilt [`CandidateSpace`], in position space, with a
/// per-depth cache of bitmaps of the lists that outlive the calls reading
/// them (see [`ListBits`]). Every worker of a stealing run drives a clone
/// of its own, cache included; a tag names a list within the space, so a
/// stolen task's first call rebuilds what its prefix changed and can never
/// read another prefix's list.
#[derive(Clone)]
struct SpaceEngine<'a> {
    cs: &'a CandidateSpace,
    /// Per depth: (mapped order position, directed edge id) of every
    /// backward neighbour.
    backward: &'a [Vec<(usize, u32)>],
    /// Order position → chosen position inside `C(order[pos])`. This is
    /// the key that makes the engine allocation- and search-free: LC is
    /// computed in position space, so the chosen element *is* the index
    /// needed to look up the next depth's edge lists.
    chosen_pos: Vec<u32>,
    /// Scratch of `(edge id, chosen pos)` handles for three lists and more,
    /// sorted by length (`intersect_into` orders two operands by itself).
    lists: Vec<(u32, u32)>,
    /// Per depth, the bitmaps of its shallower backward lists, sized on
    /// first use.
    bits: Vec<ListBits>,
}

impl<'a> SpaceEngine<'a> {
    fn new(cs: &'a CandidateSpace, backward: &'a [Vec<(usize, u32)>]) -> Self {
        let n = backward.len();
        SpaceEngine { cs, backward, chosen_pos: vec![0; n], lists: Vec::new(), bits: vec![ListBits::default(); n] }
    }
}

/// One depth's bitmaps over the positions of `C(u)`: one per shallower
/// backward list — every list of `LC(u, M)` but the deepest's — then, when
/// there are two or more, their AND. A list is named by its `(edge id,
/// chosen position)` within the space and depends only on ancestor
/// choices, so a bitmap tagged with the name of the list it stands for now
/// is that list's, however many calls ago it was built.
#[derive(Clone, Default)]
struct ListBits {
    tags: Vec<Option<(u32, u32)>>,
    /// `tags.len()` bitmaps of `words` words each, then their AND.
    maps: Vec<u64>,
}

impl ListBits {
    /// The AND of the bitmaps of the `shallower` lists — the one bitmap
    /// when there is one — rebuilding only those whose tag no longer
    /// names their list.
    fn refresh(&mut self, cs: &CandidateSpace, shallower: &[(usize, u32)], chosen_pos: &[u32], words: usize) -> &[u64] {
        let k = shallower.len();
        if self.tags.len() != k {
            self.tags = vec![None; k];
            self.maps = vec![0; (k + usize::from(k > 1)) * words];
        }
        let mut rebuilt = false;
        for (i, (&(j, e), tag)) in shallower.iter().zip(&mut self.tags).enumerate() {
            let name = (e, chosen_pos[j]);
            if *tag != Some(name) {
                *tag = Some(name);
                rebuilt = true;
                let map = &mut self.maps[i * words..(i + 1) * words];
                map.fill(0);
                for &p in cs.edge_list(e, name.1) {
                    map[p as usize / 64] |= 1 << (p % 64);
                }
            }
        }
        let (maps, and) = self.maps.split_at_mut(k * words);
        if k == 1 {
            return maps;
        }
        if rebuilt {
            and.copy_from_slice(&maps[..words]);
            for map in maps[words..].chunks_exact(words) {
                and.iter_mut().zip(map).for_each(|(a, &m)| *a &= m);
            }
        }
        and
    }
}

impl<'a> Engine<'a> for SpaceEngine<'a> {
    /// LC(u, M) in position space. The 0- and 1-backward-edge cases (the
    /// first vertex and every tree-like extension) hand out precomputed
    /// data directly — no buffer copy at all; only genuine multi-way
    /// intersections materialize into this depth's reusable buffer.
    ///
    /// Every list but the deepest depends only on choices above the
    /// deepest backward neighbour, so it stays the same for every call
    /// below that choice: when each such list has at least one entry per
    /// bitmap word of `C(u)` (a bitmap build writes no more words than the
    /// list has entries), `LC` is the deepest list walked once against the
    /// cached bitmaps' AND, each entry written and the write cursor moved
    /// by its bit. Otherwise the lists are merged.
    #[inline]
    fn local_candidates(&mut self, depth: usize, u: VertexId, _: &[VertexId], buf: &mut Vec<u32>) -> Slots<'a> {
        let (cs, backward) = (self.cs, self.backward);
        let [ref shallower @ .., (j, e)] = backward[depth][..] else {
            // Disconnected prefix (or the first vertex): full candidate set.
            return Slots::All(cs.cand_len(u) as u32);
        };
        let deepest = cs.edge_list(e, self.chosen_pos[j]);
        if shallower.is_empty() {
            return Slots::List(deepest);
        }
        let words = cs.cand_len(u).div_ceil(64);
        if shallower.iter().all(|&(i, f)| cs.edge_list(f, self.chosen_pos[i]).len() >= words) {
            let mask = self.bits[depth].refresh(cs, shallower, &self.chosen_pos, words);
            buf.clear();
            buf.resize(deepest.len(), 0);
            let mut w = 0;
            for &p in deepest {
                buf[w] = p;
                w += ((mask[p as usize / 64] >> (p % 64)) & 1) as usize;
            }
            buf.truncate(w);
        } else if let [(i, f)] = *shallower {
            intersect_into(buf, cs.edge_list(f, self.chosen_pos[i]), deepest);
        } else {
            let lists = &mut self.lists;
            lists.clear();
            lists.extend(backward[depth].iter().map(|&(j, e)| (e, self.chosen_pos[j])));
            // Smallest lists first: the accumulator never grows past them.
            lists.sort_unstable_by_key(|&(e, pos)| cs.edge_list(e, pos).len());
            intersect_into(buf, cs.edge_list(lists[0].0, lists[0].1), cs.edge_list(lists[1].0, lists[1].1));
            for &(e, pos) in &lists[2..] {
                if buf.is_empty() {
                    break;
                }
                intersect_in_place(buf, cs.edge_list(e, pos));
            }
        }
        Slots::Buf
    }

    fn reads_below(&self, depth: usize, _: &[usize]) -> usize {
        self.backward[depth].iter().map(|&(j, _)| j + 1).max().unwrap_or(0)
    }

    #[inline]
    fn vertex(&self, u: VertexId, slot: u32) -> VertexId {
        self.cs.cand_vertex(u, slot)
    }

    #[inline]
    fn choose(&mut self, depth: usize, slot: u32) {
        self.chosen_pos[depth] = slot;
    }

    fn freeze(&self, prefix: &[VertexId], _: &[VertexId]) -> Vec<u32> {
        self.chosen_pos[..prefix.len()].to_vec()
    }
}

// ---------------------------------------------------------------------------
// Probe engine (reference oracle — the seed implementation)
// ---------------------------------------------------------------------------

/// Slots are the data vertices themselves, so there is nothing to record
/// per choice: the mapping is the whole state.
#[derive(Clone, Copy)]
struct ProbeEngine<'a> {
    g: &'a Graph,
    cand: &'a Candidates,
    /// Backward neighbours of `order[i]` among `order[..i]` (paper
    /// Definition II.4), precomputed per position.
    backward: &'a [Vec<VertexId>],
}

impl<'a> Engine<'a> for ProbeEngine<'a> {
    /// `LC(u, M)` — candidates of `u` adjacent to every already-mapped
    /// backward neighbour (Algorithm 2 line 6). Strategy: scan the
    /// adjacency list of the mapped backward neighbour with the smallest
    /// degree and keep vertices that (a) are in `C(u)` and (b) are adjacent
    /// to all remaining mapped backward neighbours.
    fn local_candidates(&mut self, depth: usize, u: VertexId, mapping: &[VertexId], buf: &mut Vec<u32>) -> Slots<'a> {
        let backward = &self.backward[depth];
        // Pick the mapped image with the smallest adjacency list as the probe.
        let Some(probe_img) = backward.iter().map(|&uq| mapping[uq as usize]).min_by_key(|&img| self.g.degree(img))
        else {
            // Disconnected prefix (or the first vertex): full candidate set.
            return Slots::List(self.cand.of(u));
        };
        buf.clear();
        for &v in self.g.neighbors(probe_img) {
            if !self.cand.contains(u, v) {
                continue;
            }
            let ok = backward.iter().all(|&uq| {
                let img = mapping[uq as usize];
                img == probe_img || self.g.has_edge(img, v)
            });
            if ok {
                buf.push(v);
            }
        }
        Slots::Buf
    }

    fn reads_below(&self, depth: usize, position: &[usize]) -> usize {
        self.backward[depth].iter().map(|&p| position[p as usize] + 1).max().unwrap_or(0)
    }

    #[inline]
    fn vertex(&self, _: VertexId, slot: u32) -> VertexId {
        slot
    }

    #[inline]
    fn choose(&mut self, _: usize, _: u32) {}

    fn freeze(&self, prefix: &[VertexId], mapping: &[VertexId]) -> Vec<u32> {
        prefix.iter().map(|&u| mapping[u as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CandidateFilter, LdfFilter};
    use rlqvo_graph::GraphBuilder;

    fn engines() -> [EnumEngine; 2] {
        [EnumEngine::Probe, EnumEngine::CandidateSpace]
    }

    /// q = triangle with labels 0-1-2; G = two disjoint triangles with the
    /// same labels.
    fn two_triangles() -> (Graph, Graph) {
        let mut qb = GraphBuilder::new(3);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(2);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        qb.add_edge(a, c);
        let q = qb.build();
        let mut gb = GraphBuilder::new(3);
        for _ in 0..2 {
            let x = gb.add_vertex(0);
            let y = gb.add_vertex(1);
            let z = gb.add_vertex(2);
            gb.add_edge(x, y);
            gb.add_edge(y, z);
            gb.add_edge(x, z);
        }
        (q, gb.build())
    }

    /// Regression: the engine bodies reject a deadline that expired
    /// between the public entry check and engine dispatch (the
    /// candidate-space build / backward-set derivation take real time).
    #[test]
    fn serial_engine_entries_reject_pre_expired_deadlines() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        let order = [0, 1, 2];
        let cfg = EnumConfig::find_all().with_threads(1).with_deadline(Instant::now());
        let cs = CandidateSpace::build(&q, &g, &cand);
        let res = space_from(&q, &cs, &order, cfg, Instant::now());
        assert!(res.cancelled, "space engine");
        assert_eq!(res.enumerations, 0, "space engine must do zero work");
        let backward = QueryAdjBits::build(&q).backward_sets(&order);
        let res = probe_from(&g, &cand, &order, &backward, cfg, Instant::now());
        assert!(res.cancelled, "probe engine");
        assert_eq!(res.enumerations, 0, "probe engine must do zero work");
    }

    #[test]
    fn finds_all_matches_in_two_triangles() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for engine in engines() {
            let mut cfg = EnumConfig::find_all().with_engine(engine);
            cfg.store_matches = true;
            let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
            assert_eq!(res.match_count, 2, "{}", engine.name());
            assert!(!res.timed_out);
            assert_eq!(res.matches.len(), 2);
            for m in &res.matches {
                for (u, &v) in m.iter().enumerate() {
                    assert_eq!(q.label(u as u32), g.label(v));
                }
            }
        }
    }

    #[test]
    fn match_count_independent_of_order() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for threads in [1, 2, 4] {
            for engine in engines() {
                let cfg = EnumConfig::find_all().with_engine(engine).with_threads(threads);
                for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]] {
                    let res = enumerate(&q, &g, &cand, &order, cfg);
                    assert_eq!(res.match_count, 2, "order {order:?} engine {} x{threads}", engine.name());
                }
            }
        }
    }

    #[test]
    fn max_matches_caps_results() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for engine in engines() {
            let cfg = EnumConfig { max_matches: 1, ..EnumConfig::find_all() }.with_engine(engine);
            let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
            assert_eq!(res.match_count, 1, "{}", engine.name());
        }
    }

    #[test]
    fn budget_exhaustion_is_flagged() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for engine in engines() {
            let res = enumerate(&q, &g, &cand, &[0, 1, 2], EnumConfig::budgeted(2).with_engine(engine));
            assert!(res.budget_exhausted, "{}", engine.name());
            assert!(res.enumerations <= 2);
        }
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let (q, g) = two_triangles();
        let cand = Candidates::new(vec![vec![], vec![1], vec![2]]);
        for engine in engines() {
            let res = enumerate(&q, &g, &cand, &[0, 1, 2], EnumConfig::find_all().with_engine(engine));
            assert_eq!(res.match_count, 0, "{}", engine.name());
            assert_eq!(res.enumerations, 0);
        }
    }

    #[test]
    fn enumerations_counts_recursive_calls() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for threads in [1, 2, 4] {
            for engine in engines() {
                let cfg = EnumConfig::find_all().with_engine(engine).with_threads(threads);
                let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
                // Root + 2 first-level (two label-0 vertices) + 2 second + 2 third.
                assert_eq!(res.enumerations, 7, "{} x{threads}", engine.name());
            }
        }
    }

    #[test]
    fn injectivity_is_enforced() {
        // q: edge with both endpoints label 0; G: edge 0-1 both label 0.
        let mut qb = GraphBuilder::new(1);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(0);
        qb.add_edge(a, b);
        let q = qb.build();
        let mut gb = GraphBuilder::new(1);
        let x = gb.add_vertex(0);
        let y = gb.add_vertex(0);
        gb.add_edge(x, y);
        let g = gb.build();
        let cand = LdfFilter.filter(&q, &g);
        for threads in [1, 2, 4] {
            for engine in engines() {
                let mut cfg = EnumConfig::find_all().with_engine(engine).with_threads(threads);
                cfg.store_matches = true;
                let res = enumerate(&q, &g, &cand, &[0, 1], cfg);
                // (0,1) and (1,0) — but never (0,0) or (1,1).
                assert_eq!(res.match_count, 2, "{} x{threads}", engine.name());
                for m in &res.matches {
                    assert_ne!(m[0], m[1]);
                }
            }
        }
    }

    #[test]
    fn disconnected_prefix_still_correct() {
        // Path 0-1-2 matched with the disconnected order [0, 2, 1].
        let mut qb = GraphBuilder::new(2);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(0);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        let q = qb.build();
        let mut gb = GraphBuilder::new(2);
        let x = gb.add_vertex(0);
        let y = gb.add_vertex(1);
        let z = gb.add_vertex(0);
        gb.add_edge(x, y);
        gb.add_edge(y, z);
        let g = gb.build();
        let cand = LdfFilter.filter(&q, &g);
        for threads in [1, 2, 4] {
            for engine in engines() {
                let cfg = EnumConfig::find_all().with_engine(engine).with_threads(threads);
                let res_conn = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
                let res_disc = enumerate(&q, &g, &cand, &[0, 2, 1], cfg);
                assert_eq!(res_conn.match_count, res_disc.match_count, "{} x{threads}", engine.name());
                assert_eq!(res_conn.match_count, 2); // the path and its reverse
            }
        }
    }

    #[test]
    fn engines_agree_on_the_match_stream() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for threads in [1, 2, 4] {
            let mut cfg = EnumConfig::find_all().with_threads(threads);
            cfg.store_matches = true;
            for order in [[0u32, 1, 2], [2, 1, 0], [1, 0, 2]] {
                let a = enumerate(&q, &g, &cand, &order, cfg.with_engine(EnumEngine::Probe));
                let b = enumerate(&q, &g, &cand, &order, cfg.with_engine(EnumEngine::CandidateSpace));
                assert_eq!(a.match_count, b.match_count, "x{threads}");
                assert_eq!(a.enumerations, b.enumerations, "identical recursion trees");
                assert_eq!(a.matches, b.matches, "identical match stream");
            }
        }
    }

    #[test]
    fn prebuilt_space_is_reusable_across_orders() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        let cs = CandidateSpace::build(&q, &g, &cand);
        for threads in [1, 2, 4] {
            for order in [[0u32, 1, 2], [2, 1, 0], [1, 2, 0]] {
                let via_space = enumerate_in_space(&q, &cs, &order, EnumConfig::find_all().with_threads(threads));
                let via_probe = enumerate(&q, &g, &cand, &order, EnumConfig::find_all().with_engine(EnumEngine::Probe));
                assert_eq!(via_space.match_count, via_probe.match_count, "x{threads}");
                assert_eq!(via_space.enumerations, via_probe.enumerations);
            }
        }
    }

    #[test]
    fn engine_parsing() {
        assert_eq!(EnumEngine::parse("probe"), Some(EnumEngine::Probe));
        assert_eq!(EnumEngine::parse("CANDSPACE"), Some(EnumEngine::CandidateSpace));
        assert_eq!(EnumEngine::parse("cs"), Some(EnumEngine::CandidateSpace));
        assert_eq!(EnumEngine::parse("auto"), Some(EnumEngine::Auto));
        assert_eq!(EnumEngine::parse("AUTO"), Some(EnumEngine::Auto));
        assert_eq!(EnumEngine::parse("nope"), None);
        assert_eq!(EnumEngine::default().name(), "candspace");
        assert_eq!(EnumConfig::default().threads, 1, "the worker count is a parameter, never ambient");
        assert_eq!(EnumEngine::Auto.name(), "auto");
    }

    /// One-label dense host: every vertex is a candidate of every query
    /// vertex, so the space build scans the whole adjacency structure.
    fn build_dominated_case() -> (Graph, Graph, Candidates) {
        let mut gb = GraphBuilder::new(1);
        let n = 80u32;
        for _ in 0..n {
            gb.add_vertex(0);
        }
        for i in 0..n {
            for j in (i + 1)..n.min(i + 10) {
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
        let cand = LdfFilter.filter(&q, &g);
        (q, g, cand)
    }

    #[test]
    fn auto_picks_candspace_when_enumeration_dominates() {
        let (q, g, cand) = build_dominated_case();
        // Find-all on a dense one-label host: the search space dwarfs the
        // build, and the estimate is unbounded.
        let cfg = EnumConfig::find_all().with_engine(EnumEngine::Auto);
        let d = auto_decide(&q, &g, &cand, &cfg);
        assert_eq!(d.engine, EnumEngine::CandidateSpace);
        assert_eq!(d.est_enum_work, u64::MAX);
        // First-match-only on the same host — the build-dominated regime
        // — resolves the same way; only the estimate differs.
        let capped = EnumConfig { max_matches: 1, ..cfg };
        let d = auto_decide(&q, &g, &cand, &capped);
        assert_eq!(d.engine, EnumEngine::CandidateSpace);
        assert_eq!(d.est_enum_work, 3 * AUTO_WORK_PER_CALL);
    }

    #[test]
    fn auto_decision_never_returns_auto_and_skips_build_on_empty() {
        let (q, g) = two_triangles();
        let cand = Candidates::new(vec![vec![], vec![1], vec![2]]);
        let cfg = EnumConfig::find_all().with_engine(EnumEngine::Auto);
        assert_eq!(auto_decide(&q, &g, &cand, &cfg).engine, EnumEngine::CandidateSpace);
        // No recursion, and `early_exit` returns ahead of the build
        // (`pipeline::tests` pins that on an entry, where it shows).
        let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
        assert_eq!((res.match_count, res.enumerations), (0, 0));
    }

    #[test]
    fn resolved_is_the_whole_auto_rule() {
        let (q, g, cand) = build_dominated_case();
        // An explicit engine comes back unchanged, worker count included.
        for engine in engines() {
            let cfg = EnumConfig { max_matches: 1, ..EnumConfig::find_all() }.with_engine(engine).with_threads(4);
            let r = cfg.resolved(&q);
            assert_eq!((r.engine, r.threads, r.max_matches), (engine, 4, 1), "{}", engine.name());
        }
        // Auto is candspace with exactly the gated worker count, on both
        // sides of the gate, and resolving twice changes nothing.
        for (cap, workers) in [(1, 1), (50, 1), (100_000, 4), (u64::MAX, 4)] {
            let cfg =
                EnumConfig { max_matches: cap, ..EnumConfig::find_all() }.with_engine(EnumEngine::Auto).with_threads(4);
            let r = cfg.resolved(&q);
            assert_eq!(r.engine, EnumEngine::CandidateSpace, "cap {cap}");
            assert_eq!(r.threads, auto_decide(&q, &g, &cand, &cfg).effective_threads(4), "cap {cap}");
            assert_eq!(r.threads, workers, "cap {cap}");
            assert_eq!((r.resolved(&q).engine, r.resolved(&q).threads), (r.engine, r.threads), "cap {cap}");
        }
        // A deterministic (training) configuration stays serial even when
        // built literally with more workers and an unbounded estimate.
        let literal = EnumConfig { threads: 4, ..EnumConfig::budgeted(u64::MAX) }.with_engine(EnumEngine::Auto);
        let r = literal.resolved(&q);
        assert_eq!((r.engine, r.threads), (EnumEngine::CandidateSpace, 1));
    }

    #[test]
    fn auto_engine_matches_both_engines() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for threads in [1, 2, 4] {
            let mut cfg = EnumConfig::find_all().with_threads(threads);
            cfg.store_matches = true;
            for order in [[0u32, 1, 2], [2, 1, 0], [1, 0, 2]] {
                let auto = enumerate(&q, &g, &cand, &order, cfg.with_engine(EnumEngine::Auto));
                for other in [EnumEngine::Probe, EnumEngine::CandidateSpace] {
                    let r = enumerate(&q, &g, &cand, &order, cfg.with_engine(other));
                    assert_eq!(auto.match_count, r.match_count, "{} x{threads}", other.name());
                    assert_eq!(auto.enumerations, r.enumerations, "{}", other.name());
                    assert_eq!(auto.matches, r.matches, "{}", other.name());
                }
            }
        }
    }

    #[test]
    fn prepared_probe_is_identical_to_plain_probe() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        let adj = QueryAdjBits::build(&q);
        assert_eq!(adj.num_query_vertices(), 3);
        // The bitmap answers exactly the query's edge relation.
        for u in q.vertices() {
            for v in q.vertices() {
                assert_eq!(adj.has_edge(u, v), q.has_edge(u, v), "({u},{v})");
            }
        }
        let mut cfg = EnumConfig::find_all().with_engine(EnumEngine::Probe);
        cfg.store_matches = true;
        for order in [[0u32, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let plain = enumerate_probe(&q, &g, &cand, &order, cfg);
            let prepared = enumerate_probe_prepared(&q, &g, &cand, &adj, &order, cfg);
            assert_eq!(plain.match_count, prepared.match_count);
            assert_eq!(plain.enumerations, prepared.enumerations);
            assert_eq!(plain.matches, prepared.matches);
        }
    }

    #[test]
    fn prepared_probe_short_circuits_empty_candidates() {
        let (q, g) = two_triangles();
        let cand = Candidates::new(vec![vec![], vec![1], vec![2]]);
        let adj = QueryAdjBits::build(&q);
        let res = enumerate_probe_prepared(&q, &g, &cand, &adj, &[0, 1, 2], EnumConfig::find_all());
        assert_eq!(res.match_count, 0);
        assert_eq!(res.enumerations, 0);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn rejects_short_order() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        enumerate(&q, &g, &cand, &[0, 1], EnumConfig::find_all());
    }

    #[test]
    fn parallel_find_all_is_byte_identical_to_serial() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for engine in engines() {
            let mut cfg = EnumConfig::find_all().with_engine(engine).with_threads(1);
            cfg.store_matches = true;
            let serial = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
            for threads in [2usize, 4] {
                let par = enumerate(&q, &g, &cand, &[0, 1, 2], cfg.with_threads(threads));
                assert_eq!(par.match_count, serial.match_count, "{} x{threads}", engine.name());
                assert_eq!(par.enumerations, serial.enumerations, "{} x{threads}", engine.name());
                assert_eq!(par.matches, serial.matches, "{} x{threads}", engine.name());
            }
        }
    }

    #[test]
    fn parallel_match_cap_reports_the_exact_count() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for engine in engines() {
            let mut cfg = EnumConfig { max_matches: 1, ..EnumConfig::find_all() }.with_engine(engine).with_threads(4);
            cfg.store_matches = true;
            let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
            assert_eq!(res.match_count, 1, "{}", engine.name());
            assert_eq!(res.matches.len(), 1, "{}", engine.name());
        }
    }

    #[test]
    fn parallel_budget_has_at_least_semantics() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for engine in engines() {
            // Serial needs 7 calls for find-all; a budget of 3 must stop a
            // 2-worker run with at least... the budget's worth of work, and
            // flag exhaustion.
            let cfg = EnumConfig { max_enumerations: 3, threads: 2, ..EnumConfig::find_all() }.with_engine(engine);
            let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
            assert!(res.budget_exhausted, "{}", engine.name());
            assert!(res.enumerations >= 1, "{}", engine.name());
        }
    }

    #[test]
    fn parallel_budget_of_one_matches_serial() {
        let (q, g) = two_triangles();
        let cand = LdfFilter.filter(&q, &g);
        for engine in engines() {
            for threads in [1usize, 2, 4] {
                let cfg = EnumConfig { max_enumerations: 1, threads, ..EnumConfig::find_all() }.with_engine(engine);
                let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
                assert_eq!(res.enumerations, 1, "{} x{threads}", engine.name());
                assert_eq!(res.match_count, 0, "{} x{threads}", engine.name());
                assert!(res.budget_exhausted, "{} x{threads}", engine.name());
            }
        }
    }

    #[test]
    fn parallel_empty_candidates_short_circuit() {
        let (q, g) = two_triangles();
        let cand = Candidates::new(vec![vec![], vec![1], vec![2]]);
        for engine in engines() {
            let cfg = EnumConfig::find_all().with_engine(engine).with_threads(4);
            let res = enumerate(&q, &g, &cand, &[0, 1, 2], cfg);
            assert_eq!(res.match_count, 0, "{}", engine.name());
            assert_eq!(res.enumerations, 0, "{}", engine.name());
        }
    }

    /// The stamp generation has 24 bits, and wrapping it clears the marks:
    /// a stamp from 2^24 passes back never reads as the current pass's.
    /// The children's marks are preset to what the first pass after the
    /// wrap stamps at the level below them; kept, they would book every
    /// child one short there.
    #[test]
    fn suffix_stamps_survive_the_generation_wrap() {
        // Star: hub (label 0), then leaves of labels 1 and 2. Host: two
        // hubs, each with three neighbours of either leaf label.
        let mut qb = GraphBuilder::new(3);
        let hub = qb.add_vertex(0);
        for label in [1, 2] {
            let leaf = qb.add_vertex(label);
            qb.add_edge(hub, leaf);
        }
        let q = qb.build();
        let mut gb = GraphBuilder::new(3);
        for _ in 0..2 {
            let centre = gb.add_vertex(0);
            for label in [1, 1, 1, 2, 2, 2] {
                let v = gb.add_vertex(label);
                gb.add_edge(centre, v);
            }
        }
        let g = gb.build();
        let cand = LdfFilter.filter(&q, &g);
        let cs = CandidateSpace::build(&q, &g, &cand);
        let order = [0, 1, 2];
        let expected = enumerate_in_space(&q, &cs, &order, EnumConfig::find_all());
        assert_eq!((expected.match_count, expected.enumerations), (18, 1 + 2 * (1 + 3 * (1 + 3))));

        let backward: Vec<Vec<(usize, u32)>> = order
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                order[..i].iter().enumerate().filter_map(|(j, &p)| cs.edge_id(p, u).map(|e| (j, e))).collect()
            })
            .collect();
        let engine = SpaceEngine::new(&cs, &backward);
        let mut ctx = Ctx::new(engine, cs.num_data_vertices(), &order, EnumConfig::find_all(), Instant::now(), None);
        assert_eq!(ctx.suffix, 1, "both leaves read only the hub");
        ctx.pass = (1 << 24) - 1;
        for v in g.vertices().filter(|&v| g.label(v) == 1) {
            ctx.marks[v as usize] = 1 << 8 | 1;
        }
        recurse(&mut ctx, 0);
        assert_eq!(ctx.pass, 2, "one pass per hub, the first of them wrapping");
        let res = ctx.into_result();
        assert_eq!((res.match_count, res.enumerations), (expected.match_count, expected.enumerations));
    }

    #[test]
    fn effective_threads_gates_tiny_workloads() {
        // yeast-first-1k shape: 1000-match cap on a 12-vertex query —
        // below the per-worker floor, so the Auto path must stay serial.
        assert_eq!(effective_threads(1000 * 12 * AUTO_WORK_PER_CALL, 4), 1);
        // Unbounded find-all grants the full request.
        assert_eq!(effective_threads(u64::MAX, 4), 4);
        // Large finite estimates scale up to the request.
        assert_eq!(effective_threads(AUTO_PARALLEL_WORK_PER_WORKER * 3, 8), 3);
        assert_eq!(effective_threads(AUTO_PARALLEL_WORK_PER_WORKER * 100, 4), 4);
        assert_eq!(effective_threads(0, 4), 1);
    }
}
