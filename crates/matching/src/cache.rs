//! The one generic cache behind [`SpaceCache`][crate::SpaceCache] and
//! [`OrderCache`][crate::OrderCache].
//!
//! The skeleton both share — a keyed index of `OnceLock` slots, LRU
//! recency, byte and entry bounds, checksum-verified hits with
//! evict-and-recompute degradation, poison recovery, and
//! hit/miss/eviction counters — lives here once, parameterized over the
//! entry type ([`CacheWeight`]). All of a cache's state sits behind **one
//! lock**: a lookup holds it for a map probe, a checksum compare and a
//! list relink, and every compute runs outside it.
//!
//! * the residents are threaded through an intrusive LRU list (doubly
//!   linked through a resident slab): a hit re-heads its node, so the
//!   *tail* is always the least-recently-used key, and the victim
//!   ([`EvictPolicy::Sampled`], the default) is that tail — the exact
//!   global LRU, found in O(1) ([`Cache::evict_scan_steps`] counts one
//!   examined resident per victim, tested);
//! * [`EvictPolicy::ScanReference`] finds the same victim by scanning
//!   every resident's recency tick — the O(resident) reference the
//!   property tests compare the list against, victim for victim;
//! * capacity can bound **bytes** ([`CacheConfig::max_bytes`]) and/or
//!   **entry count** ([`CacheConfig::max_entries`]). An entry is complete
//!   when its compute returns, and its [`CacheWeight::weight`] is charged
//!   **once per residency**, under the lock, right then — only while the
//!   key's slot is still the one that compute filled, since the compute
//!   ran outside the lock. An insert and that charge each evict inside
//!   the critical section that made it necessary, so both bounds hold at
//!   every unlock (the key being filled is never its own victim, so a
//!   zero entry bound still holds that one key);
//! * an entry bigger than the whole byte budget is **admitted uncached**:
//!   it is served as a standalone handle, never charged (its one charge
//!   drops it from residency instead), and its key is quarantined so
//!   later lookups skip residency instead of
//!   evicting every other resident per lookup and then being evicted
//!   themselves — the thrash-to-empty failure mode
//!   ([`Cache::oversize_serves`] counts these);
//! * every lookup carries its [`QueryKey`]: the fingerprint finds the
//!   resident and the independent checksum, stored in the resident's node
//!   at insert, **verifies every hit** in the critical section that finds
//!   it, in every build profile. A mismatch (a 64-bit fingerprint
//!   collision, or a `cache.checksum_corrupt` fire) counts one checksum
//!   failure and one eviction and replaces the resident with a fresh slot
//!   this lookup computes — never a panic, never a second count;
//! * a poisoned lock recovers by dropping every resident (their keys
//!   recompute on their next lookup — the eviction contract) and the
//!   quarantine set, refunding every charged byte, and clearing the
//!   poison flag; it counts one recovery.
//!
//! The counters are relaxed atomics outside the lock, so a health probe
//! reads them without waiting on a lookup.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use rlqvo_graph::Graph;

/// Cache key: `(query id, variant)` — the query's structural fingerprint
/// (or a caller-supplied id) plus a string naming the semantics of the
/// cached computation (filter `cache_key`, ordering `cache_key@context`).
pub type CacheKey = (u64, String);

/// Both structural hashes of a query, from one walk of it — what every
/// cache lookup takes ([`SpaceCache::entry_keyed`][crate::SpaceCache::entry_keyed],
/// [`OrderCache::get_or_compute_keyed`][crate::OrderCache::get_or_compute_keyed]).
/// A caller that replays one query many times builds the `QueryKey` once,
/// so no lookup pays the `O(|V|+|E|)` walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryKey {
    fingerprint: u64,
    checksum: u64,
}

impl QueryKey {
    /// Hashes `q` once. The fingerprint is FNV-1a over the vertex count,
    /// the labels and the directed edge list: identical structures — and
    /// only those, up to 64-bit collisions — share it. The checksum mixes
    /// the same information, plus the degree sequence, through an
    /// unrelated function (golden-ratio multiply + xor-rotate): for two
    /// distinct queries to be served each other's entries, *both* hashes
    /// would have to collide.
    pub fn of(q: &Graph) -> Self {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut key = QueryKey { fingerprint: OFFSET, checksum: 0x243F_6A88_85A3_08D3 }; // pi digits
        let mut mix = |fingerprint: u64, checksum: u64| {
            for b in fingerprint.to_le_bytes() {
                key.fingerprint = (key.fingerprint ^ b as u64).wrapping_mul(PRIME);
            }
            key.checksum = (key.checksum ^ checksum).wrapping_mul(GOLDEN);
            key.checksum ^= key.checksum.rotate_right(29);
        };
        let n = q.num_vertices() as u64;
        mix(n, n);
        for u in q.vertices() {
            mix(q.label(u) as u64, ((q.label(u) as u64) << 32) | q.degree(u) as u64);
        }
        for u in q.vertices() {
            for &v in q.neighbors(u) {
                mix(((u as u64) << 32) | v as u64, ((v as u64) << 32) | u as u64);
            }
        }
        key
    }

    /// The cache id.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The collision-guard hash every hit is verified against.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// Oversize-quarantine high-water mark: the set of keys known to exceed
/// the whole byte budget is reset when it outgrows this, so a hostile
/// stream of distinct oversize queries cannot grow it without bound (a
/// reset's only cost is one re-probe per key).
const OVERSIZE_QUARANTINE_MAX: usize = 4096;

/// Intrusive-list null index.
const NIL: u32 = u32::MAX;

/// What the generic cache needs from an entry type: its byte weight,
/// charged once, when the entry is computed.
pub trait CacheWeight: Send + Sync {
    /// Bytes this entry pins.
    fn weight(&self) -> usize;
}

/// Victim-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictPolicy {
    /// Evict the LRU list's tail — O(1) work per victim (the default).
    /// The name is older than the single list; nothing is sampled.
    #[default]
    Sampled,
    /// The reference: scan every resident for the oldest recency tick —
    /// O(resident) per victim, the same victim as the list's tail. For
    /// property tests, not for serving.
    ScanReference,
}

/// Capacity configuration: either bound may be `None` (unbounded).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheConfig {
    /// Evict while the charged byte total exceeds this.
    pub max_bytes: Option<usize>,
    /// Evict while the resident entry count exceeds this.
    pub max_entries: Option<usize>,
    /// Victim selection; [`EvictPolicy::Sampled`] unless stated.
    pub policy: EvictPolicy,
}

/// Map slot: the `OnceLock` serializes per-key construction outside the
/// lock, so a cold key costs one compute pass total even when many
/// workers race on it, and a long compute never blocks unrelated keys.
type Slot<E> = OnceLock<Arc<E>>;

/// One resident: its slot, the checksum its hits are verified against,
/// byte charge, recency tick, and the intrusive LRU links threading it
/// into the recency list.
struct Node<E> {
    key: CacheKey,
    slot: Arc<Slot<E>>,
    /// The [`QueryKey::checksum`] of the lookup that inserted this node.
    checksum: u64,
    /// Bytes currently charged against the byte bound for this key.
    charged: usize,
    /// The tick of the last lookup — what the reference scan compares.
    last_used: u64,
    /// Intrusive links: `prev` is toward the head (more recent).
    prev: u32,
    next: u32,
}

/// Everything the lock guards: the key index, the resident slab the
/// recency list is threaded through (`head` most recently used, `tail`
/// least), the recency clock, the charged byte total and the oversize
/// quarantine. The resident count is `map.len()`.
struct Inner<E> {
    map: HashMap<CacheKey, u32>,
    slab: Vec<Option<Node<E>>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    tick: u64,
    bytes: usize,
    /// Keys whose entries exceeded the whole byte budget: served
    /// standalone, never inserted (bounded; see the module docs).
    oversize: HashSet<CacheKey>,
}

impl<E> Default for Inner<E> {
    fn default() -> Self {
        Inner {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            tick: 0,
            bytes: 0,
            oversize: HashSet::new(),
        }
    }
}

impl<E> Inner<E> {
    fn node(&self, i: u32) -> &Node<E> {
        self.slab[i as usize].as_ref().expect("live resident")
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<E> {
        self.slab[i as usize].as_mut().expect("live resident")
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Links `i` in as the most recently used resident and stamps it with
    /// the next tick.
    fn push_front(&mut self, i: u32) {
        self.tick += 1;
        let (old_head, tick) = (self.head, self.tick);
        {
            let n = self.node_mut(i);
            n.prev = NIL;
            n.next = old_head;
            n.last_used = tick;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.node_mut(h).prev = i,
        }
        self.head = i;
    }

    fn insert(&mut self, key: CacheKey, checksum: u64, slot: Arc<Slot<E>>) {
        let node = Node { key: key.clone(), slot, checksum, charged: 0, last_used: 0, prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                (self.slab.len() - 1) as u32
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Unlinks `i`, refunds its charge and frees its slab slot.
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        let node = self.slab[i as usize].take().expect("live resident");
        self.bytes -= node.charged;
        self.map.remove(&node.key);
        self.free.push(i);
    }

    /// The index of `key`'s resident when its map slot is exactly `slot`
    /// — the identity check that keeps a lookup whose key was evicted
    /// (and perhaps recomputed into a new resident) while it computed
    /// outside the lock from touching the new resident.
    fn resident_slot(&self, key: &CacheKey, slot: &Arc<Slot<E>>) -> Option<u32> {
        let &i = self.map.get(key)?;
        Arc::ptr_eq(&self.node(i).slot, slot).then_some(i)
    }

    fn quarantine(&mut self, key: &CacheKey) {
        if self.oversize.len() >= OVERSIZE_QUARANTINE_MAX {
            self.oversize.clear();
        }
        self.oversize.insert(key.clone());
    }
}

/// The generic bounded, checksum-verified cache (module docs).
/// `SpaceCache` and `OrderCache` are thin instantiations of this.
pub struct Cache<E> {
    inner: Mutex<Inner<E>>,
    max_bytes: Option<usize>,
    max_entries: Option<usize>,
    policy: EvictPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    checksum_failures: AtomicU64,
    poison_recoveries: AtomicU64,
    oversize_serves: AtomicU64,
    /// Residents examined during victim selection, cumulative — the
    /// counter that *proves* eviction work is O(1) under the list, not
    /// O(resident) (asserted by the eviction-storm test).
    evict_scan_steps: AtomicU64,
}

impl<E: CacheWeight> Cache<E> {
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            inner: Mutex::new(Inner::default()),
            max_bytes: config.max_bytes,
            max_entries: config.max_entries,
            policy: config.policy,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            checksum_failures: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            oversize_serves: AtomicU64::new(0),
            evict_scan_steps: AtomicU64::new(0),
        }
    }

    /// Takes the lock, recovering from poisoning instead of propagating
    /// it: a worker that panicked while holding the lock may have left
    /// the list mid-update, so recovery drops every resident (their keys
    /// simply recompute on their next lookup — the same contract as
    /// eviction) together with their charges, counts the event, and
    /// clears the poison flag so one dead worker cannot brick the cache
    /// tier for every future request.
    fn lock(&self) -> MutexGuard<'_, Inner<E>> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            *guard = Inner::default();
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            self.inner.clear_poison();
            guard
        })
    }

    /// The one charge of a residency: `bytes` for the entry `slot` just
    /// computed, then eviction down to capacity, never evicting `key`
    /// itself. It applies only while the map's slot for `key` is still
    /// `slot` — the compute ran outside the lock, so the key may have
    /// been evicted or recomputed meanwhile, and the new resident's books
    /// are not this entry's. An entry over the whole byte budget leaves
    /// residency and is quarantined instead (admit-uncached — see the
    /// module docs): the caller keeps serving its handle, other residents
    /// are untouched.
    fn charge(&self, key: &CacheKey, slot: &Arc<Slot<E>>, bytes: usize) {
        let mut inner = self.lock();
        let Some(i) = inner.resident_slot(key, slot) else { return };
        if self.max_bytes.is_some_and(|cap| bytes > cap) {
            inner.remove(i);
            inner.quarantine(key);
            self.oversize_serves.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.bytes += bytes;
        inner.node_mut(i).charged = bytes;
        self.evict_to_capacity(&mut inner, key);
    }

    /// Evicts least-recently-used residents other than `protect` until
    /// both bounds hold (or only `protect` is left). Every round removes a
    /// resident, so the loop terminates.
    fn evict_to_capacity(&self, inner: &mut Inner<E>, protect: &CacheKey) {
        while self.max_bytes.is_some_and(|c| inner.bytes > c) || self.max_entries.is_some_and(|c| inner.map.len() > c) {
            let mut examined = 0u64;
            let victim = match self.policy {
                // The tail, or its predecessor when the tail is the key
                // being served: one examined resident.
                EvictPolicy::Sampled => match inner.tail {
                    NIL => None,
                    t if inner.node(t).key == *protect => Some(inner.node(t).prev).filter(|&p| p != NIL),
                    t => Some(t),
                }
                .inspect(|_| examined = 1),
                // Every resident examined, the oldest tick wins.
                EvictPolicy::ScanReference => inner
                    .map
                    .iter()
                    .filter(|(k, _)| *k != protect)
                    .inspect(|_| examined += 1)
                    .map(|(_, &i)| i)
                    .min_by_key(|&i| inner.node(i).last_used),
            };
            self.evict_scan_steps.fetch_add(examined, Ordering::Relaxed);
            let Some(v) = victim else { return };
            inner.remove(v);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The slot for `key` under the held lock. A resident is verified
    /// here, in the critical section that found it: a matching checksum
    /// re-heads it; a mismatch counts one checksum failure and one
    /// eviction and replaces it with a fresh slot, as an absent key gets.
    fn find_or_insert(&self, inner: &mut Inner<E>, key: &CacheKey, checksum: u64) -> Arc<Slot<E>> {
        if let Some(&i) = inner.map.get(key) {
            let node = inner.node_mut(i);
            // A fire flips the node's copy before the compare, so the
            // corruption takes the path real bit-rot would: one fire, one
            // failure, one eviction.
            if rlqvo_fault::failpoint!("cache.checksum_corrupt").is_some() {
                node.checksum ^= u64::MAX;
            }
            if node.checksum == checksum {
                inner.unlink(i);
                inner.push_front(i);
                return Arc::clone(&inner.node(i).slot);
            }
            self.checksum_failures.fetch_add(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            inner.remove(i);
        }
        let slot = Arc::new(OnceLock::new());
        inner.insert(key.clone(), checksum, Arc::clone(&slot));
        self.evict_to_capacity(inner, key);
        slot
    }

    /// The entry for `(key.fingerprint(), variant)`, building it on first
    /// use. Returns the shared entry and whether this call built it
    /// (`true` = a compute pass just ran). Exactly one compute pass
    /// happens per *residency* of a key, however many threads race; an
    /// evicted key — by a bound or by a failed checksum — recomputes once
    /// on its next lookup. Oversize-quarantined keys recompute per lookup
    /// (each counted as a miss + oversize serve).
    ///
    /// The entry is complete when `build` returns: its
    /// [`weight`][CacheWeight::weight] is charged once, under the lock,
    /// and never again.
    ///
    /// Hot path: one lock (find + checksum compare + LRU re-head + `Arc`
    /// clone) and a lock-free `OnceLock` read.
    pub(crate) fn get_or_insert(
        &self,
        key: &QueryKey,
        variant: &str,
        build: impl FnOnce() -> Arc<E>,
    ) -> (Arc<E>, bool) {
        let checksum = key.checksum;
        let key: CacheKey = (key.fingerprint, variant.to_string());
        let slot = {
            let mut inner = self.lock();
            // A known-oversize key skips residency entirely: build and
            // serve standalone, leaving every resident untouched
            // (admit-uncached). The failpoint forces the same path for an
            // arbitrary key, bound or no bound.
            if (self.max_bytes.is_some() && inner.oversize.contains(&key))
                || rlqvo_fault::failpoint!("cache.oversize").is_some()
            {
                None
            } else {
                // A fire here dies holding the freshly acquired lock — the
                // worker-died-mid-operation scenario. The panic unwinds to
                // the caller; the next `lock` recovers the cache (counted
                // in `poison_recoveries`).
                if rlqvo_fault::failpoint!("cache.lock.poison").is_some() {
                    panic!("failpoint cache.lock.poison: dying while holding the cache lock");
                }
                Some(self.find_or_insert(&mut inner, &key, checksum))
            }
        };
        let Some(slot) = slot else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.oversize_serves.fetch_add(1, Ordering::Relaxed);
            return (build(), true);
        };
        let mut fresh = false;
        let entry = Arc::clone(slot.get_or_init(|| {
            fresh = true;
            build()
        }));
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.charge(&key, &slot, entry.weight());
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (entry, fresh)
    }

    /// Pure residency probe: true when `(key.fingerprint(), variant)`
    /// holds a *built* entry right now. No LRU touch, no hit/miss
    /// accounting, no compute. Only tests call it, to check which keys an
    /// eviction left resident.
    pub fn contains(&self, key: &QueryKey, variant: &str) -> bool {
        let key: CacheKey = (key.fingerprint(), variant.to_string());
        let inner = self.lock();
        inner.map.get(&key).is_some_and(|&i| inner.node(i).slot.get().is_some())
    }

    /// Lookups served from an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the compute pass.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the bounds or by failed checksums so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lookups whose resident's stored checksum disagreed with the query's
    /// — each degraded to an evict-and-recompute miss instead of
    /// panicking.
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_failures.load(Ordering::Relaxed)
    }

    /// Poisoned locks recovered (every resident dropped) so far.
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Lookups served standalone because the entry exceeds the whole
    /// byte budget (admit-uncached, see the module docs).
    pub fn oversize_serves(&self) -> u64 {
        self.oversize_serves.load(Ordering::Relaxed)
    }

    /// Cumulative residents examined during victim selection. Under
    /// [`EvictPolicy::Sampled`] this grows by one per victim — the O(1)
    /// guarantee the eviction-storm test asserts; under
    /// [`EvictPolicy::ScanReference`] it grows by the whole resident count
    /// per victim.
    pub fn evict_scan_steps(&self) -> u64 {
        self.evict_scan_steps.load(Ordering::Relaxed)
    }

    /// Number of distinct keys resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged for resident entries. With a byte bound this never
    /// exceeds it.
    pub fn storage_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Drops every variant of `query_id`. Outstanding `Arc` entries stay
    /// usable; the keys recompute on their next lookup.
    pub fn invalidate(&self, query_id: u64) {
        let mut inner = self.lock();
        let doomed: Vec<u32> = inner.map.iter().filter(|((qid, _), _)| *qid == query_id).map(|(_, &i)| i).collect();
        for i in doomed {
            inner.remove(i);
        }
        inner.oversize.retain(|(qid, _)| *qid != query_id);
    }

    /// Drops everything (the inputs the entries were computed from
    /// changed).
    pub fn clear(&self) {
        *self.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlqvo_graph::GraphBuilder;

    /// An entry that weighs what it says.
    struct Blob(usize);

    impl CacheWeight for Blob {
        fn weight(&self) -> usize {
            self.0
        }
    }

    /// Both hashes keep the mixing they have always had: the values are
    /// those of the two separate walks this one replaced.
    #[test]
    fn query_key_hashes_are_pinned() {
        let mut qb = GraphBuilder::new(2);
        let (a, b, c) = (qb.add_vertex(0), qb.add_vertex(1), qb.add_vertex(0));
        qb.add_edge(a, b);
        qb.add_edge(b, c);
        let key = QueryKey::of(&qb.build());
        assert_eq!((key.fingerprint(), key.checksum()), (0xb9cc4509a2f4d447, 0x97d2ec430d47a94e));
        let mut qb = GraphBuilder::new(8);
        let v: Vec<_> = (0..5).map(|i| qb.add_vertex(i * 3 % 8)).collect();
        for (x, y) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)] {
            qb.add_edge(v[x], v[y]);
        }
        let key = QueryKey::of(&qb.build());
        assert_eq!((key.fingerprint(), key.checksum()), (0x5aee01fc10e3a840, 0xbcb5868a65487b33));
    }

    /// Two keys that share a fingerprint and differ in checksum — a 64-bit
    /// collision — are never served each other's entry: each lookup of
    /// the other key replaces the resident, counted once.
    #[test]
    fn a_fingerprint_collision_is_caught_by_the_lookup() {
        const BYTES: usize = 100;
        let cache = Cache::<Blob>::new(CacheConfig::default());
        let first = QueryKey { fingerprint: 7, checksum: 1 };
        let second = QueryKey { fingerprint: 7, checksum: 2 };
        let (a, fresh) = cache.get_or_insert(&first, "v", || Arc::new(Blob(BYTES)));
        assert!(fresh);
        let (b, fresh) = cache.get_or_insert(&second, "v", || Arc::new(Blob(BYTES)));
        assert!(fresh, "the colliding key gets its own entry");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.checksum_failures(), cache.evictions(), cache.len()), (1, 1, 1));
        let (hit, fresh) = cache.get_or_insert(&second, "v", || unreachable!("the replacement is resident"));
        assert!(!fresh && Arc::ptr_eq(&b, &hit));
        let (_, fresh) = cache.get_or_insert(&first, "v", || Arc::new(Blob(BYTES)));
        assert!(fresh, "the first key recomputes");
        assert_eq!((cache.checksum_failures(), cache.evictions(), cache.len()), (2, 2, 1));
        assert_eq!(cache.storage_bytes(), BYTES, "one resident, charged once");
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }
}
