//! End-to-end fault-injection tests for the serving loop: every request
//! — well-formed, malformed, oversized, panicking, shed, or expired —
//! must produce exactly one typed reply, and the server plus its warm
//! cache tier must stay usable afterwards.

mod common;

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    assert_degrade_conservation, heavy_host, heavy_query, metrics, plain_match, small_host, small_query, text,
};
use rlqvo_serve::{read_frame, roundtrip, Frame, Request, Response, ServeConfig, Server, MAX_FRAME_BYTES};

#[test]
fn fault_mix_yields_typed_replies_and_a_live_server() {
    // The same script at 1, 2 and 4 enumeration workers per request.
    let mut counts = Vec::new();
    for threads in [1, 2, 4] {
        let mut config = ServeConfig { threads: 4, queue_depth: 4, fault_injection: true, ..ServeConfig::default() };
        config.enum_config.threads = threads;
        let handle = Server::start(config, Arc::new(small_host())).unwrap();
        let q = text(&small_query());
        let mut s = handle.connect().unwrap();

        // 1. A normal request works and warms the caches.
        let first = roundtrip(&mut s, &plain_match(q.clone(), None)).unwrap();
        let Response::Ok { matches, hit_space, hit_order, .. } = first else {
            panic!("expected ok, got {first:?}");
        };
        assert!(matches > 0);
        counts.push(matches);
        assert!(!hit_space && !hit_order, "first request is cold");

        // 2. An injected panic dies inside the engine fence: typed error,
        //    same connection keeps working.
        let boom = Request::Match {
            deadline_ms: None,
            max_matches: None,
            method: None,
            engine: None,
            inject: Some("panic".into()),
            query_text: q.clone(),
        };
        assert!(matches!(roundtrip(&mut s, &boom).unwrap(), Response::InternalError { .. }));

        // 3. Malformed requests are typed rejects, not disconnects.
        rlqvo_serve::write_frame(&mut s, b"launch the missiles").unwrap();
        let reject = match read_frame(&mut s, MAX_FRAME_BYTES).unwrap() {
            Frame::Msg(p) => Response::parse(std::str::from_utf8(&p).unwrap()).unwrap(),
            other => panic!("no reply to malformed request: {other:?}"),
        };
        assert!(matches!(reject, Response::Rejected { .. }), "{reject:?}");

        // 4. The caches survived the panic: a repeat of the first request is
        //    a warm hit on both tiers.
        let again = roundtrip(&mut s, &plain_match(q.clone(), None)).unwrap();
        let Response::Ok { matches: m2, hit_space, hit_order, .. } = again else {
            panic!("expected ok after panic, got {again:?}");
        };
        assert_eq!(m2, matches, "same query, same count, after a panic in between");
        assert!(hit_space && hit_order, "caches must stay warm across a panicking request");

        // 5. Server-side accounting saw all of it.
        let m = metrics(&handle);
        assert_eq!(m["errors"], 1);
        assert_eq!(m["served"], 2);
        assert!(m["rejected"] >= 1);
        // The cache tier is fully surfaced: per-cache hit/miss/eviction and
        // degrade counters, and the aggregate equals the sum of its parts.
        assert_degrade_conservation(&m);
        assert!(m["space_hits"] >= 1, "the warm repeat hit the space cache");
        assert!(m["order_hits"] >= 1, "the warm repeat hit the order cache");

        // 6. An oversized frame gets a typed reject and a closed connection
        //    (the payload was never read, so the stream lost sync) — and the
        //    server itself keeps serving other connections.
        let mut big = handle.connect().unwrap();
        big.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match read_frame(&mut big, MAX_FRAME_BYTES).unwrap() {
            Frame::Msg(p) => {
                let r = Response::parse(std::str::from_utf8(&p).unwrap()).unwrap();
                assert!(matches!(r, Response::Rejected { .. }), "oversized must be typed-rejected: {r:?}");
            }
            other => panic!("oversized frame got {other:?}"),
        }
        let mut rest = Vec::new();
        big.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after an oversized frame");
        assert!(matches!(roundtrip(&mut s, &Request::Ping).unwrap(), Response::Pong));

        handle.shutdown();
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "one count at every worker count: {counts:?}");
}

#[test]
fn overload_is_shed_with_typed_replies() {
    // One token, one waiting place: concurrent heavy requests must be
    // shed at admission, each with an explicit `overloaded` reply.
    // Uncapped, each request runs to its 300ms deadline, so the eight
    // overlap however their connections are accepted.
    let config = ServeConfig {
        threads: 1,
        queue_depth: 1,
        enum_config: rlqvo_matching::EnumConfig {
            max_matches: u64::MAX,
            time_limit: Duration::from_secs(600),
            ..rlqvo_matching::EnumConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(config, Arc::new(heavy_host())).unwrap();
    let q = text(&heavy_query());

    let replies: Vec<Response> = std::thread::scope(|s| {
        let handle = &handle;
        let q = &q;
        let joins: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut stream = handle.connect().unwrap();
                    roundtrip(&mut stream, &plain_match(q.clone(), Some(300))).unwrap()
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    assert_eq!(replies.len(), 8, "reply conservation");
    let shed = replies.iter().filter(|r| matches!(r, Response::Overloaded)).count();
    assert!(shed >= 1, "a full queue must shed at least one of 8 concurrent requests: {replies:?}");
    for r in &replies {
        assert!(
            matches!(r, Response::Ok { .. } | Response::DeadlineExceeded { .. } | Response::Overloaded),
            "untyped or unexpected reply: {r:?}"
        );
    }
    assert_eq!(metrics(&handle)["shed"], shed as u64);
    handle.shutdown();
}

#[test]
fn deadlines_cancel_cooperatively_through_the_server() {
    // Heavy query, short deadline, parallel enumeration config: the
    // engine must stop on its polling cadence with partial counts.
    let config = ServeConfig {
        threads: 4,
        enum_config: rlqvo_matching::EnumConfig {
            max_matches: u64::MAX,
            time_limit: Duration::from_secs(600),
            ..rlqvo_matching::EnumConfig::default()
        }
        .with_threads(4),
        ..ServeConfig::default()
    };
    let handle = Server::start(config, Arc::new(heavy_host())).unwrap();
    let mut s = handle.connect().unwrap();
    let t0 = Instant::now();
    let r = roundtrip(&mut s, &plain_match(text(&heavy_query()), Some(150))).unwrap();
    let elapsed = t0.elapsed();
    let Response::DeadlineExceeded { enums, .. } = r else {
        panic!("a 150ms deadline on a multi-second query must trip: {r:?}");
    };
    assert!(enums > 0, "cancellation is cooperative: partial work was done");
    assert!(elapsed < Duration::from_secs(30), "cancel must strike on the cadence, not at completion");
    handle.shutdown();
}

/// The server-wide enumeration `time_limit` cuts a request short just as a
/// deadline does: the reply is `deadline` with the partial counts, and the
/// server books it under `deadline_exceeded`, not `served`. A fast request
/// on the same server is still `ok`, and every reply the client saw is
/// booked exactly once.
#[test]
fn the_server_time_limit_answers_deadline_with_partial_counts() {
    let config = ServeConfig {
        threads: 1,
        enum_config: rlqvo_matching::EnumConfig {
            max_matches: u64::MAX,
            time_limit: Duration::from_millis(20),
            ..rlqvo_matching::EnumConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(config, Arc::new(heavy_host())).unwrap();
    let mut s = handle.connect().unwrap();
    let (mut oks, mut deadlines) = (0u64, 0u64);
    for (q, heavy) in [(heavy_query(), true), (one_vertex(), false), (heavy_query(), true)] {
        match roundtrip(&mut s, &plain_match(text(&q), None)).unwrap() {
            Response::DeadlineExceeded { matches, enums, .. } if heavy => {
                // A serial run checks the clock on the 1024-call cadence.
                assert!(matches > 0 && enums > 0 && enums.is_multiple_of(1024), "partial counts: {matches} {enums}");
                deadlines += 1;
            }
            Response::Ok { matches, .. } if !heavy => {
                assert!(matches > 0);
                oks += 1;
            }
            other => panic!("heavy={heavy}: {other:?}"),
        }
    }
    assert_eq!((oks, deadlines), (1, 2));
    let m = metrics(&handle);
    assert_eq!((m["served"], m["deadline_exceeded"], m["errors"]), (oks, deadlines, 0));
    handle.shutdown();
}

/// A one-vertex query: 161 calls on the heavy host, so its run ends before
/// the 1024th call, where the clock is first read.
fn one_vertex() -> rlqvo_graph::Graph {
    let mut b = rlqvo_graph::GraphBuilder::new(1);
    b.add_vertex(0);
    b.build()
}

/// `method=` resolves through the library's one roster: every roster
/// name is served (and, candidate sets being complete, finds the same
/// matches); anything else is a typed reject, not an error.
#[test]
fn method_names_resolve_through_the_roster_and_unknown_ones_are_rejected() {
    let handle = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() }, Arc::new(small_host())).unwrap();
    let mut s = handle.connect().unwrap();
    let with_method = |name: &str| Request::Match {
        deadline_ms: None,
        max_matches: None,
        method: Some(name.into()),
        engine: None,
        inject: None,
        query_text: text(&small_query()),
    };
    let mut counts = Vec::new();
    for m in &rlqvo_matching::ROSTER {
        let r = roundtrip(&mut s, &with_method(m.cli)).unwrap();
        let Response::Ok { matches, .. } = r else { panic!("{}: {r:?}", m.cli) };
        counts.push(matches);
    }
    assert!(counts[0] > 0 && counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    // (The wire form of a reason has `_` for spaces.)
    for (name, why) in [("quicksi", "unknown_method"), ("Hybrid", "unknown_method"), ("rlqvo", "no_model_loaded")] {
        let r = roundtrip(&mut s, &with_method(name)).unwrap();
        assert!(matches!(&r, Response::Rejected { reason } if reason.contains(why)), "{name}: {r:?}");
    }
    let m = metrics(&handle);
    assert_eq!((m["served"], m["rejected"], m["errors"]), (rlqvo_matching::ROSTER.len() as u64, 3, 0));
    handle.shutdown();
}

#[test]
fn no_cache_serves_cold_and_flush_resets_the_warm_path() {
    // `use_cache: false` is the degradation proof: every request walks
    // the fully cold path.
    let cold =
        Server::start(ServeConfig { threads: 1, use_cache: false, ..ServeConfig::default() }, Arc::new(small_host()))
            .unwrap();
    let q = text(&small_query());
    let mut s = cold.connect().unwrap();
    for _ in 0..2 {
        let r = roundtrip(&mut s, &plain_match(q.clone(), None)).unwrap();
        let Response::Ok { hit_space, hit_order, .. } = r else { panic!("{r:?}") };
        assert!(!hit_space && !hit_order, "no-cache server must never report a warm hit");
    }
    cold.shutdown();

    // Warm server: second request hits; a flush forces the next one cold
    // again (and the server answers it fine — graceful, not fatal).
    let warm = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() }, Arc::new(small_host())).unwrap();
    let mut s = warm.connect().unwrap();
    assert!(matches!(roundtrip(&mut s, &plain_match(q.clone(), None)).unwrap(), Response::Ok { .. }));
    let r = roundtrip(&mut s, &plain_match(q.clone(), None)).unwrap();
    assert!(matches!(r, Response::Ok { hit_space: true, hit_order: true, .. }), "{r:?}");
    assert!(matches!(roundtrip(&mut s, &Request::Flush).unwrap(), Response::Metrics(_)));
    let r = roundtrip(&mut s, &plain_match(q, None)).unwrap();
    assert!(matches!(r, Response::Ok { hit_space: false, hit_order: false, .. }), "flush must evict: {r:?}");
    warm.shutdown();
}

#[test]
fn long_but_healthy_request_survives_a_watchdog_below_its_runtime() {
    // The watchdog blind-spot regression: the request heartbeat ticks on
    // the engine's 1024-call cadence, so `stall_timeout` may sit far
    // BELOW the longest legitimate enumeration. Here the request runs
    // ~600ms against a 120ms watchdog; with pickup-only heartbeats the
    // watchdog would retire it mid-request (worker_restarts >= 1).
    // Healthy means: its own typed reply, zero restarts, and the whole
    // token budget alive (`workers_alive` counts the tokens not held by
    // retired requests).
    let config = ServeConfig {
        threads: 1,
        stall_timeout: Some(Duration::from_millis(120)),
        enum_config: rlqvo_matching::EnumConfig {
            max_matches: u64::MAX,
            time_limit: Duration::from_secs(600),
            ..rlqvo_matching::EnumConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(config, Arc::new(heavy_host())).unwrap();
    let mut s = handle.connect().unwrap();
    let t0 = Instant::now();
    let r = roundtrip(&mut s, &plain_match(text(&heavy_query()), Some(600))).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        matches!(r, Response::DeadlineExceeded { .. }),
        "the heavy query must outlive the watchdog and trip its own deadline: {r:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(400),
        "fixture too fast ({elapsed:?}) to outlast the 120ms watchdog — the regression is untested"
    );
    let m = metrics(&handle);
    assert_eq!(m["worker_restarts"], 0, "a beating request was retired as wedged");
    assert_eq!(m["workers_alive"], 1);
    handle.shutdown();
}

#[test]
fn shutdown_answers_in_flight_requests_before_exiting() {
    // Uncapped find-all on the heavy fixture runs long enough that the
    // shutdown lands mid-enumeration; the cooperative cancel switch must
    // turn it into a typed partial reply, not a dropped connection.
    let config = ServeConfig {
        threads: 1,
        queue_depth: 2,
        enum_config: rlqvo_matching::EnumConfig {
            max_matches: u64::MAX,
            time_limit: Duration::from_secs(600),
            ..rlqvo_matching::EnumConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(config, Arc::new(heavy_host())).unwrap();
    let q = text(&heavy_query());

    let reply = std::thread::scope(|s| {
        let handle = &handle;
        let worker = s.spawn(move || {
            let mut stream = handle.connect().unwrap();
            roundtrip(&mut stream, &plain_match(q, None))
        });
        std::thread::sleep(Duration::from_millis(200)); // let it start
        let mut ctrl = handle.connect().unwrap();
        assert!(matches!(roundtrip(&mut ctrl, &Request::Shutdown).unwrap(), Response::Bye));
        worker.join().unwrap()
    });
    let r = reply.expect("in-flight request must still get its reply across shutdown");
    assert!(
        matches!(r, Response::Ok { .. } | Response::DeadlineExceeded { .. }),
        "typed partial (or complete) result expected: {r:?}"
    );
    handle.wait();
}

/// A connection thread whose client hangs up parks for the next accepted
/// stream: 64 connections one after another, one `match` each, are
/// served by at most two connection threads. Each client waits for the
/// server to close its side before it reconnects, the way a thread that
/// has parked closes it.
#[test]
fn sequential_connections_reuse_their_connection_thread() {
    let handle = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() }, Arc::new(small_host())).unwrap();
    let q = text(&small_query());
    for i in 0..64 {
        let mut s = handle.connect().unwrap();
        let r = roundtrip(&mut s, &plain_match(q.clone(), None)).unwrap();
        assert!(matches!(r, Response::Ok { .. }), "connection {i}: {r:?}");
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
    }
    let m = metrics(&handle);
    assert_eq!(m["served"], 64, "{m:?}");
    assert!(m["conn_threads"] <= 2, "connection threads must be reused: {m:?}");
    handle.shutdown();
}

/// A request runs alone on the thread that read it, so a server asked
/// to gather requests into batches refuses to start.
#[test]
fn a_batch_other_than_one_is_refused_at_start() {
    for batch in [0, 2, 8] {
        let Err(e) = Server::start(ServeConfig { batch, ..ServeConfig::default() }, Arc::new(small_host())) else {
            panic!("batch {batch} must be refused");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "batch {batch}: {e}");
    }
}
