//! Bytes charged are bytes held. A counting global allocator measures what
//! one `SpaceCache` entry keeps alive, and the test holds it to what the
//! cache charges for it, `SpaceEntry::resident_bytes`.
//!
//! The allocator counts per thread, so the test harness's own threads do
//! not disturb a measurement, and in requested bytes (`Layout::size`). The
//! margin between held and charged is then exactly the `Arc`'s two
//! counts, `2 × size_of::<usize>()` bytes. The allocator's own rounding —
//! glibc's chunk header and 16-byte granule, under 24 bytes for each of an
//! entry's at most four allocations — is not visible through
//! `GlobalAlloc`, and is not charged. The allocator is process-wide, so
//! this is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_graph::{Graph, GraphBuilder};
use rlqvo_matching::{GqlFilter, QueryKey, SpaceCache, SpaceEntry};

thread_local! {
    /// Live (allocations, requested bytes) of this thread.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn book(allocs: isize, bytes: isize) {
    // `try_with`: a thread being torn down frees after its slot is gone.
    let _ = LIVE.try_with(|live| {
        let (a, b) = live.get();
        live.set((a + allocs, b + bytes));
    });
}

fn live() -> (isize, isize) {
    LIVE.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged (`alloc_zeroed`
// keeps its default, which goes through `alloc`); the counters are plain
// thread-local cells that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            book(1, layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        book(-1, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            book(0, new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `q` with vertex 0 relabeled to a label `G` does not have: its
/// candidate set is empty, so its entry holds no space.
fn with_an_alien_label(q: &Graph, g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.num_labels() + 1);
    for u in q.vertices() {
        b.add_vertex(if u == 0 { g.num_labels() } else { q.label(u) });
    }
    for u in q.vertices() {
        for &v in q.neighbors(u).iter().filter(|&&v| u < v) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// The (allocations, requested bytes) that dropping `entry`, its last
/// handle, frees: what the entry held.
fn held_by(entry: Arc<SpaceEntry>) -> (isize, isize) {
    assert_eq!(Arc::strong_count(&entry), 1, "the last handle");
    let before = live();
    drop(entry);
    let after = live();
    (before.0 - after.0, before.1 - after.1)
}

#[test]
fn a_cached_entry_holds_what_it_is_charged() {
    const ARC_COUNTS: isize = 2 * std::mem::size_of::<usize>() as isize;
    let g = Dataset::Yeast.load();
    let queries = build_query_set(&g, 8, 24, 46).queries;
    let bare: Vec<Graph> = queries.iter().map(|q| with_an_alien_label(q, &g)).collect();
    let all: Vec<&Graph> = queries.iter().chain(&bare).collect();

    let cache = SpaceCache::new();
    let mut charged = 0;
    for q in &all {
        let (entry, fresh) = cache.entry_keyed(&QueryKey::of(q), q, &g, &GqlFilter::DEFAULT);
        assert!(fresh, "distinct queries");
        charged += entry.resident_bytes();
    }
    assert_eq!(cache.len(), all.len());
    assert_eq!(cache.storage_bytes(), charged, "the cache is charged its residents' resident_bytes");

    let (mut spaces, mut without) = (0, 0);
    for (i, q) in all.iter().enumerate() {
        let key = QueryKey::of(q);
        let (entry, fresh) = cache.entry_keyed(&key, q, &g, &GqlFilter::DEFAULT);
        assert!(!fresh);
        cache.invalidate(key.fingerprint());
        let has_space = entry.space().is_some();
        assert_eq!(has_space, i < queries.len(), "query {i}: sampled queries match, relabeled ones cannot");
        let charge = entry.resident_bytes() as isize;
        let (allocs, bytes) = held_by(entry);
        let most = if has_space { 4 } else { 2 };
        assert!(allocs <= most, "query {i}: {allocs} allocations held, at most {most}");
        assert_eq!(bytes, charge + ARC_COUNTS, "query {i}: bytes held = resident_bytes + the Arc's two counts");
        spaces += has_space as usize;
        without += !has_space as usize;
    }
    assert!(cache.is_empty());
    assert_eq!((spaces, without), (queries.len(), bare.len()));
}
