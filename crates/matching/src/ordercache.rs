//! Cross-round amortization of the *ordering* phase: a keyed, bounded
//! cache of matching orders.
//!
//! [`SpaceCache`] lets a serving loop replaying the same queries pay
//! phase 1 (filtering + `CandidateSpace` build) once. [`OrderCache`] is
//! its phase-2 sibling: deterministic ordering methods — every heuristic
//! baseline and RL-QVO's greedy inference — produce the same order every
//! time for the same `(query, data graph, candidates)` input, so a
//! repeated query can skip ordering entirely. For a learned policy that
//! is the *entire* inference cost: a hit replaces `|V(q)|` GNN forward
//! passes with one fingerprint lookup.
//!
//! Like `SpaceCache`, this is a thin instantiation of the generic
//! [`Cache`] (see [`crate::cache`] for the one-lock, exact-LRU eviction,
//! hit-verification, degradation, and poison recovery contracts). The
//! module adds only the order-specific pieces:
//!
//! * the one lookup, [`OrderCache::get_or_compute_keyed`], keys entries by
//!   `(query fingerprint, variant)`: the caller's [`QueryKey`] (whose
//!   checksum every hit is verified against) plus a *variant* string
//!   naming the ordering semantics and the candidates they ran on —
//!   [`order_variant`], the one place that composes it, since
//!   candidate-driven methods order differently on different candidate
//!   sets;
//! * capacity can bound the *resident bytes*
//!   ([`OrderCache::with_capacity_bytes`]) and/or the *entry count*
//!   ([`CacheConfig::max_entries`] through [`OrderCache::with_config`]):
//!   entry sizes scale with `|V(q)|`, so a stream of distinct large-query
//!   orders under a count-only bound would grow memory by whatever the
//!   largest queries weigh. Byte accounting charges each entry's actual
//!   heap footprint.
//!
//! **Scope contract**: an `OrderCache` is valid for one `(data graph,
//! model weights)` combination — anything that changes the order an
//! uncached call would produce requires [`OrderCache::clear`] (or a fresh
//! cache).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rlqvo_graph::{Graph, VertexId};

use crate::cache::{Cache, CacheConfig, CacheWeight};
use crate::filter::CandidateFilter;
use crate::order::OrderingMethod;
use crate::spacecache::{QueryKey, SpaceCache};

/// One cached order plus its collision guard and timing.
pub struct OrderEntry {
    order: Vec<VertexId>,
    /// Structural checksum of the query this order was computed for.
    /// Atomic only so the `cache.checksum_corrupt` failpoint can flip it
    /// in place; the cache writes it once at insert.
    checksum: AtomicU64,
    /// Wall time of the single ordering pass that created this entry.
    order_time: Duration,
}

impl CacheWeight for OrderEntry {
    fn weight(&self) -> usize {
        std::mem::size_of::<OrderEntry>() + self.order.capacity() * std::mem::size_of::<VertexId>()
    }

    fn checksum_cell(&self) -> &AtomicU64 {
        &self.checksum
    }
}

impl OrderEntry {
    /// The cached matching order.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// Wall time of the ordering pass that filled this entry.
    pub fn order_time(&self) -> Duration {
        self.order_time
    }

    /// True when `q` hashes to the checksum stored at insert.
    pub fn verify_checksum(&self, q: &Graph) -> bool {
        self.checksum.load(Ordering::Relaxed) == SpaceCache::query_checksum(q)
    }
}

/// Keyed, bounded cache of matching orders (module docs) — an
/// instantiation of [`Cache`] over [`OrderEntry`].
pub struct OrderCache {
    cache: Cache<OrderEntry>,
}

impl Default for OrderCache {
    fn default() -> Self {
        OrderCache::with_config(CacheConfig::default())
    }
}

/// Counters and residency (`hits`, `misses`, `evictions`,
/// `checksum_failures`, `contains`, `len`, `storage_bytes`, `invalidate`,
/// `clear`, …) are the generic cache's.
impl std::ops::Deref for OrderCache {
    type Target = Cache<OrderEntry>;

    fn deref(&self) -> &Self::Target {
        &self.cache
    }
}

/// The order-cache variant of `ordering` run on `filter`'s candidates —
/// the only composer of that key, so every surface that fills or reads an
/// [`OrderCache`] (CLI, server, its pre-stage, harness) agrees on it.
pub fn order_variant(ordering: &dyn OrderingMethod, filter: &dyn CandidateFilter) -> String {
    format!("{}@{}", ordering.cache_key(), filter.cache_key())
}

impl OrderCache {
    /// An unbounded cache (harness scale: the working set is the query
    /// set).
    pub fn new() -> Self {
        OrderCache::default()
    }

    /// A cache bounding the *bytes* charged for resident orders — the
    /// serving configuration, where entry sizes scale with query size and
    /// a count bound alone would leave memory proportional to whatever
    /// the largest queries weigh.
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        OrderCache::with_config(CacheConfig { max_bytes: Some(capacity_bytes), ..CacheConfig::default() })
    }

    /// Full control over bounds and eviction policy — tests instantiate
    /// the [`ScanReference`][crate::cache::EvictPolicy::ScanReference]
    /// policy through this.
    pub fn with_config(config: CacheConfig) -> Self {
        OrderCache { cache: Cache::new(config) }
    }

    /// The order for `(key.fingerprint(), variant)`, computing it on first
    /// use via `compute`. Returns the shared entry and whether this call
    /// ran the ordering pass (`true` = miss). Exactly one ordering pass
    /// happens per residency of a key, however many threads race; a hit
    /// whose stored checksum disagrees with `key` evicts the liar and
    /// recomputes (counted in `checksum_failures`). `_q` is the graph
    /// `key` was hashed from; nothing reads it now that the key carries
    /// the checksum, but the benchmark ledger pins this signature.
    pub fn get_or_compute_keyed(
        &self,
        key: &QueryKey,
        variant: &str,
        _q: &Graph,
        compute: impl FnOnce() -> Vec<VertexId>,
    ) -> (Arc<OrderEntry>, bool) {
        self.cache.get_or_insert(key, variant, |_| {
            let t = Instant::now();
            let order = compute();
            Arc::new(OrderEntry { order, checksum: AtomicU64::new(key.checksum()), order_time: t.elapsed() })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::LdfFilter;
    use crate::order::{GqlOrdering, RiOrdering};
    use rlqvo_graph::GraphBuilder;

    fn case() -> (Graph, Graph) {
        let mut qb = GraphBuilder::new(2);
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(0);
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        let q = qb.build();
        let mut gb = GraphBuilder::new(2);
        for i in 0..8u32 {
            gb.add_vertex(i % 2);
        }
        for i in 0..8u32 {
            gb.add_edge(i, (i + 1) % 8);
        }
        (q, gb.build())
    }

    fn distinct_query(i: u32) -> Graph {
        let mut qb = GraphBuilder::new(64);
        let n = 3 + i / 64;
        let mut prev = qb.add_vertex(i % 64);
        for j in 1..n {
            let v = qb.add_vertex((i + j) % 64);
            qb.add_edge(prev, v);
            prev = v;
        }
        qb.build()
    }

    /// One RI lookup of `q` under variant "RI"; returns the entry and
    /// whether the ordering pass ran.
    fn ri_lookup(cache: &OrderCache, q: &Graph, g: &Graph) -> (Arc<OrderEntry>, bool) {
        let cand = LdfFilter.filter(q, g);
        cache.get_or_compute_keyed(&QueryKey::of(q), "RI", q, || RiOrdering.order(q, g, &cand))
    }

    #[test]
    fn orders_once_and_serves_hits() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let cache = OrderCache::new();
        let key = QueryKey::of(&q);
        let mut passes = 0;
        let (e1, fresh1) = cache.get_or_compute_keyed(&key, "RI", &q, || {
            passes += 1;
            RiOrdering.order(&q, &g, &cand)
        });
        let (e2, fresh2) = cache.get_or_compute_keyed(&key, "RI", &q, || {
            passes += 1;
            RiOrdering.order(&q, &g, &cand)
        });
        assert!(fresh1 && !fresh2);
        assert_eq!(passes, 1, "the second lookup must not re-order");
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!(e1.order(), &RiOrdering.order(&q, &g, &cand)[..]);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!(e1.order_time() > Duration::ZERO);
        assert!(cache.storage_bytes() >= std::mem::size_of::<OrderEntry>(), "entries are byte-charged");
    }

    #[test]
    fn variants_do_not_collide() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let cache = OrderCache::new();
        let key = QueryKey::of(&q);
        let (ri, f1) = cache.get_or_compute_keyed(&key, "RI", &q, || RiOrdering.order(&q, &g, &cand));
        let (gql, f2) = cache.get_or_compute_keyed(&key, "GQL", &q, || GqlOrdering.order(&q, &g, &cand));
        assert!(f1 && f2, "distinct variants are distinct keys");
        assert_eq!(cache.len(), 2);
        assert_eq!(ri.order(), &RiOrdering.order(&q, &g, &cand)[..]);
        assert_eq!(gql.order(), &GqlOrdering.order(&q, &g, &cand)[..]);
        assert_eq!(order_variant(&RiOrdering, &LdfFilter), "RI@LDF", "the one composer of (method, candidates) keys");
    }

    #[test]
    fn keyed_lookup_agrees_with_fingerprinting() {
        let (q, g) = case();
        let cache = OrderCache::new();
        let key = QueryKey::of(&q);
        assert_eq!(key.fingerprint(), SpaceCache::query_fingerprint(&q));
        assert_eq!(key.checksum(), SpaceCache::query_checksum(&q));
        let (a, fresh) = ri_lookup(&cache, &q, &g);
        assert!(fresh);
        // A key hashed from a separately built, structurally identical
        // graph must land on the same entry, and that entry verify.
        let (twin, _) = case();
        let (b, fresh2) = cache.get_or_compute_keyed(&QueryKey::of(&twin), "RI", &twin, || unreachable!("must hit"));
        assert!(!fresh2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.verify_checksum(&q));
        assert!(cache.contains(&key, "RI") && !cache.contains(&key, "GQL"));
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let g = case().1;
        let cache = OrderCache::with_config(CacheConfig { max_entries: Some(8), ..CacheConfig::default() });
        for i in 0..40 {
            let (_, fresh) = ri_lookup(&cache, &distinct_query(i), &g);
            assert!(fresh, "distinct queries never alias");
            assert!(cache.len() <= 8, "iteration {i}: {} entries exceed the bound", cache.len());
        }
        assert!(cache.evictions() > 0);
        // An evicted key recomputes exactly once, then hits again.
        let q0 = distinct_query(0);
        let (_, fresh1) = ri_lookup(&cache, &q0, &g);
        let (_, fresh2) = ri_lookup(&cache, &q0, &g);
        assert!(fresh1 && !fresh2);
    }

    /// The ISSUE-7 satellite: a byte bound on the order cache must hold
    /// under a flood of *large* distinct queries — the regime where the
    /// old count-only bound grew memory by whatever the biggest orders
    /// weighed.
    #[test]
    fn byte_bound_is_honored_under_a_large_order_flood() {
        let g = case().1;
        // distinct_query(i) for i >= 192 has 6+ vertices, so each order
        // carries a real heap allocation. Room for ~12 probe-sized
        // entries.
        let probe = {
            let q = distinct_query(192);
            let cand = LdfFilter.filter(&q, &g);
            let e = Arc::new(OrderEntry {
                order: RiOrdering.order(&q, &g, &cand),
                checksum: AtomicU64::new(0),
                order_time: Duration::ZERO,
            });
            e.weight()
        };
        let bound = probe * 12;
        let cache = OrderCache::with_capacity_bytes(bound);
        for i in 192..392 {
            let (_, fresh) = ri_lookup(&cache, &distinct_query(i), &g);
            assert!(fresh, "distinct queries never alias");
            assert!(
                cache.storage_bytes() <= bound,
                "iteration {i}: {} bytes exceeds the {bound}-byte bound",
                cache.storage_bytes()
            );
        }
        assert!(cache.evictions() > 0, "a 200-order flood must evict");
        assert!(cache.len() < 200);
        // An evicted key recomputes exactly once, then hits again.
        let q0 = distinct_query(192);
        let (_, fresh1) = ri_lookup(&cache, &q0, &g);
        let (_, fresh2) = ri_lookup(&cache, &q0, &g);
        assert!(fresh1 && !fresh2);
    }

    #[test]
    fn racing_workers_order_exactly_once_per_key() {
        let (q, g) = case();
        let cache = OrderCache::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (e, _) = ri_lookup(&cache, &q, &g);
                    assert_eq!(e.order().len(), 3);
                });
            }
        });
        assert_eq!(cache.misses(), 1, "one ordering pass despite 8 racing workers");
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn invalidate_and_clear_drop_entries() {
        let (q, g) = case();
        let cand = LdfFilter.filter(&q, &g);
        let cache = OrderCache::new();
        let key = QueryKey::of(&q);
        cache.get_or_compute_keyed(&key, "RI", &q, || RiOrdering.order(&q, &g, &cand));
        cache.get_or_compute_keyed(&key, "GQL", &q, || GqlOrdering.order(&q, &g, &cand));
        assert_eq!(cache.len(), 2);
        cache.invalidate(key.fingerprint());
        assert!(cache.is_empty());
        assert_eq!(cache.storage_bytes(), 0);
        ri_lookup(&cache, &q, &g);
        cache.clear();
        assert!(cache.is_empty());
    }

    // The corruption-degrade and poison-recovery contracts are exercised
    // through the failpoint registry in `tests/faultpoints.rs` (its own
    // binary: the registry is process-global).
}
