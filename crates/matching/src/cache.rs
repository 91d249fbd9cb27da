//! The one generic cache behind [`SpaceCache`][crate::SpaceCache] and
//! [`OrderCache`][crate::OrderCache].
//!
//! The skeleton both share — a keyed index of `OnceLock` slots, LRU
//! recency, byte and entry bounds, checksum-verified hits with
//! evict-and-recompute degradation, poison recovery, and
//! hit/miss/eviction counters — lives here once, parameterized over the
//! entry type ([`CacheWeight`]). All of a cache's state sits behind **one
//! lock**: a lookup holds it for a map probe and a list relink, and every
//! compute runs outside it.
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
//! * capacity can bound **bytes** ([`CacheConfig::max_bytes`], entries
//!   self-report via [`CacheWeight::weight`] and may recharge later
//!   through [`Shared::recharge`] when lazily built parts materialize)
//!   and/or **entry count** ([`CacheConfig::max_entries`]). An insert, a
//!   charge and a checksum eviction each evict inside the critical section
//!   that made it necessary, so both bounds hold at every unlock (the key
//!   being filled is never its own victim, so a zero entry bound still
//!   holds that one key);
//! * an entry bigger than the whole byte budget is **admitted uncached**:
//!   it is served as a standalone handle, never charged (or dropped from
//!   residency the moment a lazy recharge reveals the oversize), and its
//!   key is quarantined so later lookups skip residency instead of
//!   evicting every other resident per lookup and then being evicted
//!   themselves — the thrash-to-empty failure mode
//!   ([`Cache::oversize_serves`] counts these);
//! * every lookup carries its [`QueryKey`], so **every hit verifies** the
//!   entry's stored structural checksum — one relaxed load and a compare,
//!   in every build profile; a mismatch degrades to an evict-and-recompute
//!   miss, counted, never a panic;
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

use crate::spacecache::QueryKey;

/// Cache key: `(query id, variant)` — the query's structural fingerprint
/// (or a caller-supplied id) plus a string naming the semantics of the
/// cached computation (filter `cache_key`, ordering `cache_key@context`).
pub type CacheKey = (u64, String);

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

/// One resident: its slot, byte charge, recency tick, and the intrusive
/// LRU links threading it into the recency list.
struct Node<E> {
    key: CacheKey,
    slot: Arc<Slot<E>>,
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

    fn insert(&mut self, key: CacheKey, slot: Arc<Slot<E>>) {
        let node = Node { key: key.clone(), slot, charged: 0, last_used: 0, prev: NIL, next: NIL };
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

    /// The index of `key`'s resident when its slot holds exactly `entry`
    /// — the identity check that keeps a stale handle (its key since
    /// evicted and recomputed into a new resident) from touching the new
    /// resident.
    fn resident_as(&self, key: &CacheKey, entry: &E) -> Option<u32> {
        let &i = self.map.get(key)?;
        self.node(i).slot.get().is_some_and(|a| std::ptr::eq(Arc::as_ptr(a), entry)).then_some(i)
    }

    fn quarantine(&mut self, key: &CacheKey) {
        if self.oversize.len() >= OVERSIZE_QUARANTINE_MAX {
            self.oversize.clear();
        }
        self.oversize.insert(key.clone());
    }
}

/// The locked state plus the bounds and counters — `Arc`-shared so
/// lazily built entries can [`recharge`][Shared::recharge] their key
/// through a weak origin handle without a back-pointer to the public
/// cache type.
pub struct Shared<E> {
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

impl<E: CacheWeight> Shared<E> {
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

    /// Sets `key`'s charge to `bytes` and evicts down to capacity, never
    /// evicting `key` itself. The charge only applies while the key's
    /// resident slot still holds exactly `entry` — a stale handle must not
    /// overwrite the new resident's accounting. An entry whose bytes
    /// exceed the whole byte budget is dropped from residency and
    /// quarantined instead (admit-uncached — see the module docs): the
    /// caller keeps serving its handle, other residents are untouched.
    pub fn recharge(&self, key: &CacheKey, bytes: usize, entry: &E) {
        let mut inner = self.lock();
        let Some(i) = inner.resident_as(key, entry) else { return };
        if self.max_bytes.is_some_and(|cap| bytes > cap) {
            inner.remove(i);
            inner.quarantine(key);
            self.oversize_serves.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.bytes = inner.bytes - inner.node(i).charged + bytes;
        inner.node_mut(i).charged = bytes;
        self.evict_to_capacity(&mut inner, key);
    }

    /// Removes `key` only while its resident slot still holds exactly
    /// `entry` — the checksum-degrade path. The identity check keeps a
    /// stale verdict from evicting a concurrent recompute's fresh entry.
    fn evict_exact(&self, key: &CacheKey, entry: &E) {
        let mut inner = self.lock();
        if let Some(i) = inner.resident_as(key, entry) {
            inner.remove(i);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
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
}

/// The generic bounded, checksum-verified cache (module docs).
/// `SpaceCache` and `OrderCache` are thin instantiations of this.
pub struct Cache<E> {
    shared: Arc<Shared<E>>,
}

impl<E: CacheWeight> Cache<E> {
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            shared: Arc::new(Shared {
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
    /// Hot path: one lock (find + LRU re-head + `Arc` clone), a lock-free
    /// `OnceLock` read, one relaxed load and a compare.
    pub(crate) fn get_or_insert(
        &self,
        key: &QueryKey,
        variant: &str,
        build: impl FnOnce(&CacheKey) -> Arc<E>,
    ) -> (Arc<E>, bool) {
        let expect = key.checksum();
        let key: CacheKey = (key.fingerprint(), variant.to_string());
        // `build` is needed at most once across the retry loop: a miss
        // consumes it and returns; a retry after a checksum-degrade
        // eviction either hits an entry a concurrent recompute built
        // (fresh checksum — verifies) or re-enters as the initializer of
        // the replacement residency.
        let mut build = Some(build);
        loop {
            let slot = {
                let mut inner = self.shared.lock();
                // A known-oversize key skips residency entirely: build and
                // serve standalone, leaving every resident untouched
                // (admit-uncached). The failpoint forces the same path for
                // an arbitrary key, bound or no bound.
                if (self.shared.max_bytes.is_some() && inner.oversize.contains(&key))
                    || rlqvo_fault::failpoint!("cache.oversize").is_some()
                {
                    None
                } else {
                    // A fire here dies holding the freshly acquired lock —
                    // the worker-died-mid-operation scenario. The panic
                    // unwinds to the caller; the next `lock` recovers the
                    // cache (counted in `poison_recoveries`).
                    if rlqvo_fault::failpoint!("cache.lock.poison").is_some() {
                        panic!("failpoint cache.lock.poison: dying while holding the cache lock");
                    }
                    Some(match inner.map.get(&key) {
                        Some(&i) => {
                            inner.unlink(i);
                            inner.push_front(i);
                            Arc::clone(&inner.node(i).slot)
                        }
                        None => {
                            let slot = Arc::new(OnceLock::new());
                            inner.insert(key.clone(), Arc::clone(&slot));
                            self.shared.evict_to_capacity(&mut inner, &key);
                            slot
                        }
                    })
                }
            };
            let Some(slot) = slot else {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                self.shared.oversize_serves.fetch_add(1, Ordering::Relaxed);
                return ((build.take().expect("one compute pass per call"))(&key), true);
            };
            let mut fresh = false;
            let entry = slot.get_or_init(|| {
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
    /// accounting, no compute. Only tests call it, to check which keys an
    /// eviction left resident.
    pub fn contains(&self, key: &QueryKey, variant: &str) -> bool {
        let key: CacheKey = (key.fingerprint(), variant.to_string());
        let inner = self.shared.lock();
        inner.map.get(&key).is_some_and(|&i| inner.node(i).slot.get().is_some())
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

    /// Poisoned locks recovered (every resident dropped) so far.
    pub fn poison_recoveries(&self) -> u64 {
        self.shared.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Lookups served standalone because the entry exceeds the whole
    /// byte budget (admit-uncached, see the module docs).
    pub fn oversize_serves(&self) -> u64 {
        self.shared.oversize_serves.load(Ordering::Relaxed)
    }

    /// Cumulative residents examined during victim selection. Under
    /// [`EvictPolicy::Sampled`] this grows by one per victim — the O(1)
    /// guarantee the eviction-storm test asserts; under
    /// [`EvictPolicy::ScanReference`] it grows by the whole resident count
    /// per victim.
    pub fn evict_scan_steps(&self) -> u64 {
        self.shared.evict_scan_steps.load(Ordering::Relaxed)
    }

    /// Number of distinct keys resident.
    pub fn len(&self) -> usize {
        self.shared.lock().map.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged for resident entries. With a byte bound this never
    /// exceeds it.
    pub fn storage_bytes(&self) -> usize {
        self.shared.lock().bytes
    }

    /// Drops every variant of `query_id`. Outstanding `Arc` entries stay
    /// usable; the keys recompute on their next lookup.
    pub fn invalidate(&self, query_id: u64) {
        let mut inner = self.shared.lock();
        let doomed: Vec<u32> = inner.map.iter().filter(|((qid, _), _)| *qid == query_id).map(|(_, &i)| i).collect();
        for i in doomed {
            inner.remove(i);
        }
        inner.oversize.retain(|(qid, _)| *qid != query_id);
    }

    /// Drops everything (the inputs the entries were computed from
    /// changed).
    pub fn clear(&self) {
        *self.shared.lock() = Inner::default();
    }
}
