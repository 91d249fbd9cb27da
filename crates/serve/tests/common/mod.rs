//! Fixtures and checks shared by the serving test binaries: two hosts
//! (one fast, one heavy), their queries, request builders, and the
//! metrics invariants every fault schedule must end on.

use std::collections::BTreeMap;

use rlqvo_graph::{io::write_graph, Graph, GraphBuilder};
use rlqvo_serve::{roundtrip, Request, Response, ServerHandle};

/// A small labeled host with plenty of matches (fast requests).
pub fn small_host() -> Graph {
    let mut b = GraphBuilder::new(3);
    for i in 0..40u32 {
        b.add_vertex(i % 3);
    }
    for i in 0..40u32 {
        for j in (i + 1)..40.min(i + 6) {
            b.add_edge(i, j);
        }
    }
    b.build()
}

pub fn small_query() -> Graph {
    let mut b = GraphBuilder::new(3);
    let a = b.add_vertex(0);
    let c = b.add_vertex(1);
    let d = b.add_vertex(2);
    b.add_edge(a, c);
    b.add_edge(c, d);
    b.build()
}

/// A one-label band (160 vertices, each adjacent to the ten after it)
/// whose 7-path query ([`heavy_query`]) costs billions of enumeration
/// calls: deadline and overload fodder, guaranteed to cross the 1024-call
/// failpoint cadence and to blow any tight deadline. Uncapped and
/// hybrid-ordered, the pair finds 4 939 505 792 matches in 5 258 239 751
/// calls, about 7 s of serial enumeration in release on a 2-vCPU x86-64
/// guest; a find-all that finishes inside a test's deadline makes that
/// test vacuous, so keep it at 2 s or more.
pub fn heavy_host() -> Graph {
    let mut b = GraphBuilder::new(1);
    for _ in 0..160 {
        b.add_vertex(0);
    }
    for i in 0..160u32 {
        for j in (i + 1)..160.min(i + 11) {
            b.add_edge(i, j);
        }
    }
    b.build()
}

/// A 7-path: see [`heavy_host`] for what it costs there.
pub fn heavy_query() -> Graph {
    let mut b = GraphBuilder::new(1);
    let vs: Vec<_> = (0..7).map(|_| b.add_vertex(0)).collect();
    for w in vs.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.build()
}

pub fn text(q: &Graph) -> String {
    let mut buf = Vec::new();
    write_graph(q, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

pub fn plain_match(query_text: String, deadline_ms: Option<u64>) -> Request {
    Request::Match { deadline_ms, max_matches: None, method: None, engine: None, inject: None, query_text }
}

/// The `metrics` reply, over a connection of its own.
pub fn metrics(handle: &ServerHandle) -> BTreeMap<String, u64> {
    let mut s = handle.connect().unwrap();
    match roundtrip(&mut s, &Request::Metrics).unwrap() {
        Response::Metrics(m) => m,
        other => panic!("metrics got {other:?}"),
    }
}

/// On any metrics snapshot: every per-cache counter is surfaced, and
/// `degraded` is exactly the sum of its per-cache parts — a drifting
/// aggregate means a counter was dropped from, or double-counted into,
/// the snapshot.
pub fn assert_degrade_conservation(m: &BTreeMap<String, u64>) {
    for cache in ["space", "order"] {
        for counter in ["hits", "misses", "evictions", "checksum_failures", "poison_recoveries"] {
            let k = format!("{cache}_{counter}");
            assert!(m.contains_key(&k), "metrics must surface {k:?}: {m:?}");
        }
    }
    let parts = m["space_checksum_failures"]
        + m["space_poison_recoveries"]
        + m["order_checksum_failures"]
        + m["order_poison_recoveries"];
    assert_eq!(m["degraded"], parts, "degraded must equal the sum of its per-cache parts");
}
