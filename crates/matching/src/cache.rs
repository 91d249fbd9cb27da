//! The one generic sharded cache behind [`SpaceCache`][crate::SpaceCache]
//! and [`OrderCache`][crate::OrderCache].
//!
//! The skeleton both share — a sharded index of `OnceLock` slots, FNV
//! shard selection, LRU recency, checksum-verified hits with
//! evict-and-recompute degradation, poison recovery, and
//! hit/miss/eviction counters — lives here once, parameterized over the
//! entry type ([`CacheWeight`]). Recency is kept in per-shard **intrusive
//! lists** (doubly linked through a resident slab) so that a serving loop
//! sitting at its byte bound selects each victim in O(1) amortized
//! instead of sweeping every resident across all shards under their
//! locks per cold miss:
//!
//! * every shard keeps its residents on an intrusive LRU list — a hit
//!   unlinks and re-heads its node under the one shard lock it already
//!   holds; the shard's *tail* is always its least-recently-used key;
//! * eviction ([`EvictPolicy::Sampled`], the default) samples the tails
//!   of up to [`EVICT_SAMPLE`] shards (one O(1) peek per shard, locks
//!   taken one at a time, never nested) and evicts the oldest sampled
//!   tail — Redis-style sampled LRU over per-shard exact LRU lists. The
//!   victim is always *its own shard's* coldest key; across shards the
//!   choice is an approximation every segmented LRU accepts. Work per
//!   victim is bounded by the sample size, never by the resident count
//!   ([`ShardedCache::evict_scan_steps`] counts it, tested);
//! * the full scan for the global LRU is [`EvictPolicy::ScanReference`] —
//!   the reference both policies are property-tested against: the **byte
//!   bound and refilter-exactly-once invariants are exact under both**;
//!   only the victim choice is approximate under sampling;
//! * capacity can bound **bytes** ([`CacheConfig::max_bytes`], entries
//!   self-report via [`CacheWeight::weight`] and may recharge later
//!   through [`Shared::recharge`] when lazily built parts materialize)
//!   and/or **entry count** ([`CacheConfig::max_entries`]); both bounds
//!   are enforced by the same eviction pass;
//! * an entry bigger than the whole byte budget is **admitted uncached**:
//!   it is served as a standalone handle, never inserted (or dropped from
//!   residency the moment a lazy recharge reveals the oversize), and its
//!   key is quarantined so later lookups skip residency instead of
//!   evicting every other resident per lookup and then being evicted
//!   themselves — the thrash-to-empty failure mode
//!   ([`ShardedCache::oversize_serves`] counts these);
//! * every lookup carries its [`QueryKey`], so **every hit verifies** the
//!   entry's stored structural checksum — one relaxed load and a compare,
//!   in every build profile; a mismatch degrades to an evict-and-recompute
//!   miss, counted, never a panic;
//! * a poisoned shard mutex recovers by dropping the shard's contents
//!   (its keys refilter on their next lookup — the eviction contract),
//!   refunding the charged bytes, and clearing the poison flag.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::spacecache::QueryKey;

/// Cache key: `(query id, variant)` — the query's structural fingerprint
/// (or a caller-supplied id) plus a string naming the semantics of the
/// cached computation (filter `cache_key`, ordering `cache_key@context`).
pub type CacheKey = (u64, String);

/// Number of independently locked index segments. Power of two so shard
/// selection is a mask; 16 is far past the point of diminishing returns
/// for the harness's worker counts.
pub const SHARD_COUNT: usize = 16;

/// Shard tails examined per victim under [`EvictPolicy::Sampled`] — the
/// constant that makes eviction O(1): work per victim is at most this,
/// never the resident count.
pub const EVICT_SAMPLE: usize = 5;

/// Oversize-quarantine high-water mark: the set of keys known to exceed
/// the whole byte budget is reset when it outgrows this, so a hostile
/// stream of distinct oversize queries cannot grow it without bound (a
/// reset's only cost is one re-probe per key).
const OVERSIZE_QUARANTINE_MAX: usize = 4096;

/// Intrusive-list null index.
const NIL: u32 = u32::MAX;

/// What the generic cache needs from an entry type: its current byte
/// weight (for byte-bounded accounting — may grow after insert for
/// lazily built entries, reported via [`Shared::recharge`]) and the
/// stored structural checksum verified on hits.
pub trait CacheWeight: Send + Sync {
    /// Bytes this entry currently pins.
    fn weight(&self) -> usize;
    /// The collision-guard checksum written at insert. Atomic only so
    /// the `cache.checksum_corrupt` failpoint can flip it in place on a
    /// shared entry.
    fn checksum_cell(&self) -> &AtomicU64;
}

/// Victim-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictPolicy {
    /// Sample up to [`EVICT_SAMPLE`] shard tails, evict the oldest —
    /// O(1) work per victim (the default).
    #[default]
    Sampled,
    /// The reference: scan every resident for the global LRU —
    /// O(resident) per victim. For property tests, not for serving.
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
/// shard lock, so a cold key costs one compute pass total even when many
/// workers race on it, and a long compute never blocks unrelated keys.
struct Slot<E> {
    cell: OnceLock<Arc<E>>,
}

/// One resident: its slot, byte charge, recency tick, and the intrusive
/// LRU links threading it into its shard's recency list.
struct Node<E> {
    key: CacheKey,
    slot: Arc<Slot<E>>,
    /// Bytes currently charged against the byte bound for this key.
    charged: usize,
    /// Logical timestamp of the last lookup (cache-global tick) — what
    /// cross-shard sampling compares.
    last_used: u64,
    /// Intrusive links: `prev` is toward the head (more recent).
    prev: u32,
    next: u32,
}

/// One shard's state: the key index plus the resident slab the recency
/// list is threaded through. `head` is the most recently used resident,
/// `tail` the least — the O(1) victim candidate.
struct ShardInner<E> {
    map: HashMap<CacheKey, u32>,
    slab: Vec<Option<Node<E>>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl<E> Default for ShardInner<E> {
    fn default() -> Self {
        ShardInner { map: HashMap::new(), slab: Vec::new(), free: Vec::new(), head: NIL, tail: NIL }
    }
}

impl<E> ShardInner<E> {
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

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let n = self.node_mut(i);
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.node_mut(h).prev = i,
        }
        self.head = i;
    }

    /// Hit bookkeeping: re-head the node and stamp the global tick — all
    /// O(1), under the one shard lock the lookup already holds.
    fn touch(&mut self, i: u32, tick: u64) {
        self.unlink(i);
        self.push_front(i);
        self.node_mut(i).last_used = tick;
    }

    fn insert(&mut self, key: CacheKey, slot: Arc<Slot<E>>, tick: u64) -> u32 {
        let node = Node { key: key.clone(), slot, charged: 0, last_used: tick, prev: NIL, next: NIL };
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
        i
    }

    fn remove(&mut self, i: u32) -> Node<E> {
        self.unlink(i);
        let node = self.slab[i as usize].take().expect("live resident");
        self.map.remove(&node.key);
        self.free.push(i);
        node
    }

    /// The shard's eviction candidate: its tail, or the tail's
    /// predecessor when the tail is the protected (being-served) key —
    /// at most two nodes examined, O(1).
    fn tail_skipping(&self, protect: Option<&CacheKey>) -> Option<u32> {
        let t = self.tail;
        if t == NIL {
            return None;
        }
        if protect.is_some_and(|p| *p == self.node(t).key) {
            let p = self.node(t).prev;
            return (p != NIL).then_some(p);
        }
        Some(t)
    }
}

/// The sharded index plus the bound machinery — `Arc`-shared so lazily
/// built entries can [`recharge`][Shared::recharge] their key through a
/// weak origin handle without a back-pointer to the public cache type.
pub struct Shared<E> {
    shards: Vec<Mutex<ShardInner<E>>>,
    max_bytes: Option<usize>,
    max_entries: Option<usize>,
    policy: EvictPolicy,
    /// Bytes charged across all shards. Mutated only while holding the
    /// owning key's shard lock, so it tracks the maps consistently.
    total_bytes: AtomicUsize,
    total_entries: AtomicUsize,
    /// Cache-global logical clock for recency.
    tick: AtomicU64,
    /// Round-robin start shard for eviction sampling, so successive
    /// victims spread across shards instead of draining one.
    rotor: AtomicUsize,
    /// Keys whose entries exceeded the whole byte budget: served
    /// standalone, never inserted (bounded; see the module docs).
    oversize: Mutex<HashSet<CacheKey>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    checksum_failures: AtomicU64,
    poison_recoveries: AtomicU64,
    oversize_serves: AtomicU64,
    /// Residents examined during victim selection, cumulative — the
    /// counter that *proves* eviction work is O(1)/sampled, not
    /// O(resident) (asserted by the eviction-storm test).
    evict_scan_steps: AtomicU64,
}

impl<E: CacheWeight> Shared<E> {
    fn shard_index(&self, key: &CacheKey) -> usize {
        // The fingerprint is already well mixed; fold the variant in
        // cheaply so a query's variants spread too.
        let mut h = key.0;
        for b in key.1.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        (h as usize) & (SHARD_COUNT - 1)
    }

    /// Locks a shard, recovering from poisoning instead of propagating
    /// it: a worker that panicked while holding the lock may have left
    /// the shard mid-update, so recovery drops the shard's contents
    /// (its keys simply recompute on their next lookup — the same
    /// contract as eviction), refunds the charged bytes, counts the
    /// event, and clears the poison flag so one dead worker cannot brick
    /// the cache tier for every future request.
    fn lock(&self, si: usize) -> MutexGuard<'_, ShardInner<E>> {
        match self.shards[si].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                let (count, bytes) = guard
                    .map
                    .values()
                    .filter_map(|&i| guard.slab.get(i as usize).and_then(Option::as_ref))
                    .fold((0usize, 0usize), |(c, b), n| (c + 1, b + n.charged));
                *guard = ShardInner::default();
                self.total_bytes.fetch_sub(bytes, Ordering::Relaxed);
                self.total_entries.fetch_sub(count, Ordering::Relaxed);
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                self.shards[si].clear_poison();
                guard
            }
        }
    }

    fn over_bound(&self) -> bool {
        self.max_bytes.is_some_and(|c| self.total_bytes.load(Ordering::Relaxed) > c)
            || self.max_entries.is_some_and(|c| self.total_entries.load(Ordering::Relaxed) > c)
    }

    fn is_quarantined(&self, key: &CacheKey) -> bool {
        self.max_bytes.is_some()
            && self.oversize.lock().unwrap_or_else(std::sync::PoisonError::into_inner).contains(key)
    }

    fn quarantine(&self, key: &CacheKey) {
        let mut set = self.oversize.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if set.len() >= OVERSIZE_QUARANTINE_MAX {
            set.clear();
        }
        set.insert(key.clone());
    }

    /// Sets `key`'s charge to `bytes` and evicts down to capacity, never
    /// evicting `key` itself. The charge only applies while the key's
    /// resident slot still holds exactly `entry` — a stale handle (the
    /// entry was evicted and the key recomputed into a new resident)
    /// must not overwrite the new resident's accounting. An entry whose
    /// bytes exceed the whole byte budget is dropped from residency and
    /// quarantined instead (admit-uncached — see the module docs): the
    /// caller keeps serving its handle, other residents are untouched.
    pub fn recharge(&self, key: &CacheKey, bytes: usize, entry: &E) {
        let mut resident = false;
        {
            let si = self.shard_index(key);
            let mut inner = self.lock(si);
            if let Some(&i) = inner.map.get(key) {
                let same = inner.node(i).slot.cell.get().map(|a| std::ptr::eq(Arc::as_ptr(a), entry)).unwrap_or(false);
                if same {
                    if self.max_bytes.is_some_and(|cap| bytes > cap) {
                        let node = inner.remove(i);
                        drop(inner);
                        self.total_bytes.fetch_sub(node.charged, Ordering::Relaxed);
                        self.total_entries.fetch_sub(1, Ordering::Relaxed);
                        self.oversize_serves.fetch_add(1, Ordering::Relaxed);
                        self.quarantine(key);
                        return;
                    }
                    let old = inner.node(i).charged;
                    inner.node_mut(i).charged = bytes;
                    if bytes >= old {
                        self.total_bytes.fetch_add(bytes - old, Ordering::Relaxed);
                    } else {
                        self.total_bytes.fetch_sub(old - bytes, Ordering::Relaxed);
                    }
                    resident = true;
                }
            }
        }
        if resident {
            self.evict_to_capacity(Some(key));
        }
    }

    /// Removes `key` only while its resident slot still holds exactly
    /// `entry` — the checksum-degrade path. The identity check keeps a
    /// stale verdict from evicting a concurrent recompute's fresh entry.
    fn evict_exact(&self, key: &CacheKey, entry: &E) {
        let si = self.shard_index(key);
        let mut inner = self.lock(si);
        if let Some(&i) = inner.map.get(key) {
            let same = inner.node(i).slot.cell.get().map(|a| std::ptr::eq(Arc::as_ptr(a), entry)).unwrap_or(false);
            if same {
                let node = inner.remove(i);
                drop(inner);
                self.total_bytes.fetch_sub(node.charged, Ordering::Relaxed);
                self.total_entries.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One victim-selection + removal attempt; `true` when an entry was
    /// evicted. Shard locks are taken one at a time, never nested.
    fn try_evict_one(&self, protect: Option<&CacheKey>) -> bool {
        let victim_shard = match self.policy {
            EvictPolicy::Sampled => {
                let start = self.rotor.fetch_add(1, Ordering::Relaxed);
                let mut best: Option<(usize, u64)> = None;
                let mut examined = 0u64;
                for off in 0..SHARD_COUNT {
                    let si = (start + off) & (SHARD_COUNT - 1);
                    {
                        let inner = self.lock(si);
                        if let Some(t) = inner.tail_skipping(protect) {
                            examined += 1;
                            let lu = inner.node(t).last_used;
                            if best.is_none_or(|(_, b)| lu < b) {
                                best = Some((si, lu));
                            }
                        }
                    }
                    if examined >= EVICT_SAMPLE as u64 {
                        break;
                    }
                }
                self.evict_scan_steps.fetch_add(examined, Ordering::Relaxed);
                best.map(|(si, _)| si)
            }
            EvictPolicy::ScanReference => {
                // The reference scan: every resident examined, the
                // global LRU wins. O(resident) per victim by design.
                let mut best: Option<(usize, u64)> = None;
                let mut examined = 0u64;
                for si in 0..SHARD_COUNT {
                    let inner = self.lock(si);
                    for (k, &i) in inner.map.iter() {
                        if protect == Some(k) {
                            continue;
                        }
                        examined += 1;
                        let lu = inner.node(i).last_used;
                        if best.is_none_or(|(_, b)| lu < b) {
                            best = Some((si, lu));
                        }
                    }
                }
                self.evict_scan_steps.fetch_add(examined, Ordering::Relaxed);
                best.map(|(si, _)| si)
            }
        };
        let Some(si) = victim_shard else { return false };
        // Re-take the winner's *current* tail: the small race against a
        // concurrent touch can at worst evict a just-refreshed entry —
        // an approximation every segmented LRU accepts. The victim is
        // still its shard's least-recently-used resident.
        let mut inner = self.lock(si);
        match inner.tail_skipping(protect) {
            Some(t) => {
                let node = inner.remove(t);
                drop(inner);
                self.total_bytes.fetch_sub(node.charged, Ordering::Relaxed);
                self.total_entries.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Evicts until both bounds hold (or nothing evictable remains).
    /// The charged total decreases every successful round, so the loop
    /// terminates.
    fn evict_to_capacity(&self, protect: Option<&CacheKey>) {
        while self.over_bound() {
            if !self.try_evict_one(protect) {
                return;
            }
        }
    }
}

/// The generic sharded, bounded, checksum-verified cache (module docs).
/// `SpaceCache` and `OrderCache` are thin instantiations of this.
pub struct ShardedCache<E> {
    shared: Arc<Shared<E>>,
}

impl<E: CacheWeight> ShardedCache<E> {
    pub fn new(config: CacheConfig) -> Self {
        ShardedCache {
            shared: Arc::new(Shared {
                shards: (0..SHARD_COUNT).map(|_| Mutex::new(ShardInner::default())).collect(),
                max_bytes: config.max_bytes,
                max_entries: config.max_entries,
                policy: config.policy,
                total_bytes: AtomicUsize::new(0),
                total_entries: AtomicUsize::new(0),
                tick: AtomicU64::new(0),
                rotor: AtomicUsize::new(0),
                oversize: Mutex::new(HashSet::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                checksum_failures: AtomicU64::new(0),
                poison_recoveries: AtomicU64::new(0),
                oversize_serves: AtomicU64::new(0),
                evict_scan_steps: AtomicU64::new(0),
            }),
        }
    }

    /// The `Arc`-shared core — what lazily built entries hold weakly so
    /// they can [`recharge`][Shared::recharge] their key later.
    pub(crate) fn shared(&self) -> &Arc<Shared<E>> {
        &self.shared
    }

    /// The entry for `(key.fingerprint(), variant)`, building it on first
    /// use. Returns the shared entry and whether this call built it
    /// (`true` = a compute pass just ran). Exactly one compute pass
    /// happens per *residency* of a key, however many threads race; an
    /// evicted key recomputes once on its next lookup.
    /// Oversize-quarantined keys recompute per lookup (each counted as a
    /// miss + oversize serve).
    ///
    /// `build` must store `key.checksum()` in the entry it constructs:
    /// every hit compares the two. It receives the composed cache key so
    /// lazily sized entries can keep an origin handle for recharging.
    ///
    /// Hot path: one shard lock (find + LRU re-head + `Arc` clone), a
    /// lock-free `OnceLock` read, one relaxed load and a compare.
    pub(crate) fn get_or_insert(
        &self,
        key: &QueryKey,
        variant: &str,
        build: impl FnOnce(&CacheKey) -> Arc<E>,
    ) -> (Arc<E>, bool) {
        let expect = key.checksum();
        let key: CacheKey = (key.fingerprint(), variant.to_string());
        // A known-oversize key skips residency entirely: build and serve
        // standalone, leaving every resident untouched (admit-uncached).
        // The failpoint forces the same admit-uncached path for an
        // arbitrary key, bound or no bound.
        if self.shared.is_quarantined(&key) || rlqvo_fault::failpoint!("cache.oversize").is_some() {
            self.shared.misses.fetch_add(1, Ordering::Relaxed);
            self.shared.oversize_serves.fetch_add(1, Ordering::Relaxed);
            return (build(&key), true);
        }
        // `build` is needed at most once across the retry loop: the
        // first miss consumes it and returns; a retry after a
        // checksum-degrade eviction either hits an entry a concurrent
        // recompute built (fresh checksum — verifies) or re-enters as
        // the initializer of the replacement residency.
        let mut build = Some(build);
        loop {
            let tick = self.shared.tick.fetch_add(1, Ordering::Relaxed);
            let slot = {
                let si = self.shared.shard_index(&key);
                let mut inner = self.shared.lock(si);
                // A fire here dies holding the freshly acquired shard
                // guard — the worker-died-mid-operation scenario. The
                // panic unwinds to the caller; the next `lock` of this
                // shard recovers it (counted in `poison_recoveries`).
                if rlqvo_fault::failpoint!("cache.shard.poison").is_some() {
                    panic!("failpoint cache.shard.poison: dying while holding a shard lock");
                }
                match inner.map.get(&key) {
                    Some(&i) => {
                        inner.touch(i, tick);
                        Arc::clone(&inner.node(i).slot)
                    }
                    None => {
                        let slot = Arc::new(Slot { cell: OnceLock::new() });
                        inner.insert(key.clone(), Arc::clone(&slot), tick);
                        self.shared.total_entries.fetch_add(1, Ordering::Relaxed);
                        slot
                    }
                }
            };
            let mut fresh = false;
            let entry = slot.cell.get_or_init(|| {
                fresh = true;
                (build.take().expect("one compute pass per call"))(&key)
            });
            if fresh {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                // Charge what exists now; a lazy build recharges later
                // through the entry's origin handle.
                self.shared.recharge(&key, entry.weight(), &**entry);
                return (Arc::clone(entry), true);
            }
            // A fire flips the resident's stored checksum *before* the
            // comparison below, so the corruption is observed by the same
            // machinery real bit-rot would hit: one fire = one counted
            // checksum failure = one degrade eviction.
            if rlqvo_fault::failpoint!("cache.checksum_corrupt").is_some() {
                entry.checksum_cell().fetch_xor(u64::MAX, Ordering::Relaxed);
            }
            if entry.checksum_cell().load(Ordering::Relaxed) != expect {
                // Degrade, don't panic: count it, evict exactly this
                // resident, and retry as a recompute miss.
                self.shared.checksum_failures.fetch_add(1, Ordering::Relaxed);
                self.shared.evict_exact(&key, &**entry);
                continue;
            }
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(entry), false);
        }
    }

    /// Pure residency probe: true when `(key.fingerprint(), variant)`
    /// holds a *built* entry right now. No LRU touch, no hit/miss
    /// accounting, no compute. Callers (the serving micro-batcher) use it
    /// to decide what a batched pre-compute pass still needs; the answer
    /// may be stale by the time they act on it, which a later lookup
    /// tolerates by construction.
    pub fn contains(&self, key: &QueryKey, variant: &str) -> bool {
        let key: CacheKey = (key.fingerprint(), variant.to_string());
        let si = self.shared.shard_index(&key);
        let inner = self.shared.lock(si);
        inner.map.get(&key).is_some_and(|&i| inner.node(i).slot.cell.get().is_some())
    }

    /// Lookups served from an existing entry.
    pub fn hits(&self) -> u64 {
        self.shared.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the compute pass.
    pub fn misses(&self) -> u64 {
        self.shared.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the bounds (or checksum degradation) so far.
    pub fn evictions(&self) -> u64 {
        self.shared.evictions.load(Ordering::Relaxed)
    }

    /// Verified hits whose stored checksum disagreed with the query —
    /// each degraded to an evict-and-recompute miss instead of panicking.
    pub fn checksum_failures(&self) -> u64 {
        self.shared.checksum_failures.load(Ordering::Relaxed)
    }

    /// Poisoned shards recovered (cleared and reused) so far.
    pub fn poison_recoveries(&self) -> u64 {
        self.shared.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Lookups served standalone because the entry exceeds the whole
    /// byte budget (admit-uncached, see the module docs).
    pub fn oversize_serves(&self) -> u64 {
        self.shared.oversize_serves.load(Ordering::Relaxed)
    }

    /// Cumulative residents examined during victim selection. Under
    /// [`EvictPolicy::Sampled`] this grows by at most [`EVICT_SAMPLE`]
    /// per eviction attempt — the O(1) guarantee the eviction-storm test
    /// asserts; under [`EvictPolicy::ScanReference`] it grows by the
    /// whole resident count per victim.
    pub fn evict_scan_steps(&self) -> u64 {
        self.shared.evict_scan_steps.load(Ordering::Relaxed)
    }

    /// Number of distinct keys resident.
    pub fn len(&self) -> usize {
        (0..SHARD_COUNT).map(|si| self.shared.lock(si).map.len()).sum()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged for resident entries. With a byte bound this never
    /// exceeds it (up to the documented concurrent transient between a
    /// charge and the eviction pass that follows it).
    pub fn storage_bytes(&self) -> usize {
        self.shared.total_bytes.load(Ordering::Relaxed)
    }

    /// Drops every variant of `query_id`. Outstanding `Arc` entries stay
    /// usable; the keys recompute on their next lookup.
    pub fn invalidate(&self, query_id: u64) {
        for si in 0..SHARD_COUNT {
            let mut inner = self.shared.lock(si);
            let doomed: Vec<u32> = inner.map.iter().filter(|((qid, _), _)| *qid == query_id).map(|(_, &i)| i).collect();
            let mut bytes = 0usize;
            let count = doomed.len();
            for i in doomed {
                bytes += inner.remove(i).charged;
            }
            drop(inner);
            self.shared.total_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.shared.total_entries.fetch_sub(count, Ordering::Relaxed);
        }
        let mut set = self.shared.oversize.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set.retain(|(qid, _)| *qid != query_id);
    }

    /// Drops everything (the inputs the entries were computed from
    /// changed).
    pub fn clear(&self) {
        for si in 0..SHARD_COUNT {
            let mut inner = self.shared.lock(si);
            let bytes: usize = inner.map.values().map(|&i| inner.node(i).charged).sum();
            let count = inner.map.len();
            *inner = ShardInner::default();
            drop(inner);
            self.shared.total_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.shared.total_entries.fetch_sub(count, Ordering::Relaxed);
        }
        self.shared.oversize.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }
}
