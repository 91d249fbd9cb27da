//! Chaos schedules for the serving loop, driven end to end through the
//! `rlqvo_fault` registry: arm a spec, run a workload, assert the
//! robustness invariants, disarm, repeat.
//!
//! The invariant set (every schedule):
//!
//! * **No lost replies** — every request ends in exactly one typed
//!   response (client-side ground truth).
//! * **Degrade accounting** — `degraded` equals the sum of its
//!   per-cache parts, and every per-cache counter is surfaced.
//! * **Cache bounds hold** — configured byte bounds are never exceeded,
//!   chaos or not.
//! * **Health answers** — the `health` verb replies even while every
//!   token is held or a request is wedged.
//! * **The faults fired** — a schedule that never hit its sites proved
//!   nothing, so each asserts its fire counts.
//! * **Clean shutdown** — `ServerHandle::shutdown` joins everything and
//!   returns, whatever the run did to the pool.
//!
//! Every schedule replays from its `(spec, seed)` pair (the registry's
//! decisions are a pure function of the pair and each site's
//! evaluation index):
//!
//! | schedule | spec | seed |
//! |---|---|---|
//! | 1 worker kill | `serve.worker.panic=1in5` | 11 |
//! | 2 cache chaos | `cache.lock.poison=once;cache.checksum_corrupt=1in7` | 23 |
//! | 3 slow with deadlines | `enum.delay=2ms@1in2;serve.admission.stall=5ms@1in3` | 31 |
//! | 4 wedge vs. watchdog | `serve.worker.wedge=500ms@once` | 47 |
//! | 5 concurrent mix | `cache.checksum_corrupt=1in43` | 7 |
//! | 5 concurrent mix under kills | `serve.worker.panic=1in7;cache.checksum_corrupt=1in11` | 7 |
//! | 6 stealing under kills | `serve.worker.panic=1in7;enum.morsel.stall=1ms@1in5` | 13 |
//! | 7 learned path under a wedge | `serve.worker.wedge=300ms@once` | 53 |
//!
//! One `#[test]` runs all schedules sequentially: the registry is
//! process-global, so schedules must never overlap (each holds the
//! `arm_scoped` guard for its duration). CI runs this binary by name.

mod common;

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::{
    assert_degrade_conservation, heavy_host, heavy_query, metrics, plain_match, small_host, small_query, text,
};
use rlqvo_core::{RlQvo, RlQvoConfig};
use rlqvo_graph::GraphBuilder;
use rlqvo_serve::{
    read_frame, roundtrip, Client, Frame, Request, Response, RetryPolicy, ServeConfig, Server, ServerHandle,
    MAX_FRAME_BYTES,
};

fn health(handle: &ServerHandle) -> BTreeMap<String, u64> {
    let mut s = handle.connect().unwrap();
    match roundtrip(&mut s, &Request::Health).unwrap() {
        Response::Health(m) => m,
        other => panic!("health got {other:?}"),
    }
}

/// Schedule 1 — **worker kill**: every 5th request pickup panics
/// *outside* the engine fence; the request's outer fence answers it with
/// a typed `worker lost`, counts a restart, and the connection thread
/// keeps serving. The retry client turns each typed loss into a
/// transparent retry; every call must still end `ok`.
fn schedule_worker_kill() {
    let _guard = rlqvo_fault::arm_scoped("serve.worker.panic=1in5", 11).unwrap();
    let handle =
        Server::start(ServeConfig { threads: 1, queue_depth: 8, ..ServeConfig::default() }, Arc::new(small_host()))
            .unwrap();
    let q = text(&small_query());
    let mut client = Client::new(handle.addr(), RetryPolicy::default(), 42);
    let (mut oks, mut retries) = (0u32, 0u32);
    for _ in 0..30 {
        let out = client.call(&plain_match(q.clone(), None), Duration::from_secs(30)).expect("typed outcome");
        assert!(matches!(out.response, Response::Ok { .. }), "retries must land every call: {:?}", out.response);
        oks += 1;
        retries += out.retries;
    }
    assert_eq!(oks, 30, "no lost replies");
    assert!(retries >= 1, "at least one kill must have forced a retry");
    assert!(rlqvo_fault::fired("serve.worker.panic") >= 1, "the schedule must actually kill workers");
    let m = metrics(&handle);
    assert!(m["worker_restarts"] >= 1, "every kill must count as a restart: {m:?}");
    assert!(m["workers_alive"] >= 1, "the pool must be live at the end: {m:?}");
    assert_degrade_conservation(&m);
    let h = health(&handle);
    assert!(h["worker_restarts"] >= 1 && h["workers_total"] >= 1, "health must report the restarts: {h:?}");
    handle.shutdown(); // must join cleanly despite the carnage
}

/// Schedule 2 — **cache corruption + lock poison**, on byte-bounded
/// caches: the first lookup dies holding a cache lock (typed `panic`
/// reply, lock poisoned), later verified hits find flipped checksums.
/// The caches must recover the lock, degrade the liars — all counted —
/// and never exceed their configured bounds.
fn schedule_cache_chaos() {
    const SPACE_BOUND: usize = 256 * 1024;
    const ORDER_BOUND: usize = 64 * 1024;
    let _guard = rlqvo_fault::arm_scoped("cache.lock.poison=once;cache.checksum_corrupt=1in7", 23).unwrap();
    let handle = Server::start(
        ServeConfig {
            threads: 2,
            queue_depth: 8,
            space_cache_bytes: Some(SPACE_BOUND),
            order_cache_bytes: Some(ORDER_BOUND),
            ..ServeConfig::default()
        },
        Arc::new(small_host()),
    )
    .unwrap();
    let q = text(&small_query());
    let mut s = handle.connect().unwrap();
    let (mut oks, mut errors) = (0u32, 0u32);
    for _ in 0..40 {
        match roundtrip(&mut s, &plain_match(q.clone(), None)).expect("typed reply") {
            Response::Ok { .. } => oks += 1,
            Response::InternalError { .. } => errors += 1, // the poison fire
            other => panic!("unexpected reply under cache chaos: {other:?}"),
        }
    }
    assert_eq!(oks + errors, 40, "exactly one typed reply per request");
    assert_eq!(errors, 1, "exactly the one poison fire may error");
    assert!(rlqvo_fault::fired("cache.checksum_corrupt") >= 1, "hot hits must have drawn corruption fires");
    let m = metrics(&handle);
    assert_degrade_conservation(&m);
    assert!(
        m["space_poison_recoveries"] + m["order_poison_recoveries"] >= 1,
        "the poisoned cache must have recovered: {m:?}"
    );
    let failures = m["space_checksum_failures"] + m["order_checksum_failures"];
    assert!(failures >= 1, "corrupted hits must be caught: {m:?}");
    assert!(m["space_evictions"] >= m["space_checksum_failures"], "each degrade evicts: {m:?}");
    assert!(m["order_evictions"] >= m["order_checksum_failures"], "each degrade evicts: {m:?}");
    assert!(m["space_bytes"] <= SPACE_BOUND as u64, "space bound must hold under chaos: {m:?}");
    assert!(m["order_bytes"] <= ORDER_BOUND as u64, "order bound must hold under chaos: {m:?}");
    handle.shutdown();
}

/// Schedule 3 — **slow everything, tight deadlines**: enumeration drags
/// (a sleep on every other 1024-call cadence check), admission stalls,
/// and the requests carry deadlines that cannot survive it. The correct
/// outcome is *typed partial results*, not errors, not losses.
fn schedule_slow_with_deadlines() {
    let _guard = rlqvo_fault::arm_scoped("enum.delay=2ms@1in2;serve.admission.stall=5ms@1in3", 31).unwrap();
    let handle =
        Server::start(ServeConfig { threads: 2, queue_depth: 4, ..ServeConfig::default() }, Arc::new(heavy_host()))
            .unwrap();
    let q = text(&heavy_query());
    let mut s = handle.connect().unwrap();
    let (mut deadlines, mut oks) = (0u32, 0u32);
    for _ in 0..6 {
        match roundtrip(&mut s, &plain_match(q.clone(), Some(60))).expect("typed reply") {
            Response::DeadlineExceeded { .. } => deadlines += 1,
            Response::Ok { .. } => oks += 1,
            other => panic!("unexpected reply under slowdown: {other:?}"),
        }
    }
    assert_eq!(deadlines + oks, 6, "exactly one typed reply per request");
    assert!(deadlines >= 1, "the heavy query under 60ms deadlines must report partial counts");
    assert!(rlqvo_fault::fired("enum.delay") >= 1, "the cadence delays must have fired");
    assert!(rlqvo_fault::fired("serve.admission.stall") >= 1, "the admission stalls must have fired");
    assert_degrade_conservation(&metrics(&handle));
    handle.shutdown();
}

/// Schedule 4 — **wedged request vs. watchdog**: a request goes silent
/// for 500ms at pickup on a one-token server; the 100ms watchdog retires
/// it. `health` answers *during* the wedge and shows the budget whole (a
/// request wedged at pickup holds no token), the wedged request still
/// gets its typed reply (`worker_lost`, when it wakes), and the server
/// serves the next request.
fn schedule_wedge_watchdog() {
    let _guard = rlqvo_fault::arm_scoped("serve.worker.wedge=500ms@once", 47).unwrap();
    let handle = Server::start(
        ServeConfig {
            threads: 1,
            queue_depth: 4,
            stall_timeout: Some(Duration::from_millis(100)),
            ..ServeConfig::default()
        },
        Arc::new(small_host()),
    )
    .unwrap();
    let q = text(&small_query());
    let addr = handle.addr();
    let wedged = {
        let q = q.clone();
        std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            roundtrip(&mut s, &plain_match(q, None)).expect("typed reply even from a wedged request")
        })
    };
    // Mid-wedge: health answers on its own connection thread and already
    // shows the retirement, with the one token still free.
    std::thread::sleep(Duration::from_millis(250));
    let h = health(&handle);
    assert!(h["worker_restarts"] >= 1, "the watchdog must have retired the wedged request: {h:?}");
    assert!(h["workers_alive"] >= 1, "the token budget must be whole while the wedge sleeps: {h:?}");
    // The wedged request wakes, sees itself retired, and answers.
    let reply = wedged.join().unwrap();
    assert!(
        matches!(&reply, Response::InternalError { reason } if reason == "worker_lost"),
        "the retired request must surface as a typed worker-lost reply, got {reply:?}"
    );
    let mut s = handle.connect().unwrap();
    let reply = roundtrip(&mut s, &plain_match(q, None)).unwrap();
    assert!(matches!(reply, Response::Ok { .. }), "the server must serve after a retirement: {reply:?}");
    handle.shutdown();
}

/// Clients of the concurrent mix; each keeps one request in flight.
const MIX_CLIENTS: usize = 3;
/// Requests per mix client.
const MIX_REQUESTS: usize = 40;
/// Every `PANIC_EVERY`-th request of the mix (counted across clients)
/// carries `inject=panic`.
const PANIC_EVERY: usize = 10;

/// `n` distinct four-vertex path queries over the small host's three
/// labels: the labels along query `i` are the base-3 digits of `i`.
fn path_queries(n: usize) -> Vec<String> {
    (0..n as u32)
        .map(|i| {
            let mut b = GraphBuilder::new(3);
            let vs: Vec<_> = (0..4).map(|d| b.add_vertex(i / 3u32.pow(d) % 3)).collect();
            for w in vs.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            text(&b.build())
        })
        .collect()
}

/// The concurrent mix under `(spec, seed)`: `MIX_CLIENTS` clients cycle
/// through eight distinct queries on the small host, every
/// `PANIC_EVERY`-th request is an injected panic, three oversized frames
/// arrive on sacrificial connections mid-run, and client 0 flushes both
/// caches at 70 % of its own requests. `threads` is the server's core
/// budget, `enum_threads` the workers each request may ask for.
///
/// Beyond the universal invariants it keeps the books exactly: the
/// client-side reply tally equals the server's counters reply for reply,
/// each fired pickup kill is exactly one `worker_lost` reply and one
/// restart, typed panics come only from injected requests, and every
/// cache corruption is caught and evicts.
fn concurrent_mix(spec: &str, seed: u64, threads: usize, enum_threads: usize) {
    let _guard = rlqvo_fault::arm_scoped(spec, seed).unwrap();
    // As many waiting places as clients: nothing is ever shed.
    let mut config = ServeConfig { threads, queue_depth: MIX_CLIENTS, fault_injection: true, ..ServeConfig::default() };
    config.enum_config.threads = enum_threads;
    let handle = Server::start(config, Arc::new(small_host())).unwrap();
    let pool = path_queries(8);

    let replies: Vec<Response> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..MIX_CLIENTS)
            .map(|c| {
                let (handle, pool) = (&handle, &pool);
                scope.spawn(move || {
                    let mut stream = handle.connect().unwrap();
                    let mut replies = Vec::with_capacity(MIX_REQUESTS);
                    for i in 0..MIX_REQUESTS {
                        if c == 0 && i == 7 * MIX_REQUESTS / 10 {
                            let flushed = roundtrip(&mut stream, &Request::Flush).unwrap();
                            assert!(matches!(flushed, Response::Metrics(_)), "flush got {flushed:?}");
                        }
                        let injected = (c * MIX_REQUESTS + i) % PANIC_EVERY == PANIC_EVERY - 1;
                        let req = Request::Match {
                            deadline_ms: Some(200),
                            max_matches: Some(10_000),
                            method: None,
                            engine: None,
                            inject: injected.then(|| "panic".to_string()),
                            query_text: pool[(c + i) % pool.len()].clone(),
                        };
                        let reply = roundtrip(&mut stream, &req);
                        replies.push(reply.unwrap_or_else(|e| panic!("client {c}, request {i}: lost reply: {e}")));
                    }
                    replies
                })
            })
            .collect();
        for _ in 0..3 {
            let mut sacrificial = handle.connect().unwrap();
            sacrificial.write_all(&u32::MAX.to_le_bytes()).unwrap();
            let reply = match read_frame(&mut sacrificial, MAX_FRAME_BYTES).unwrap() {
                Frame::Msg(p) => Response::parse(std::str::from_utf8(&p).unwrap()).unwrap(),
                other => panic!("oversized frame got no typed reply: {other:?}"),
            };
            assert!(matches!(reply, Response::Rejected { .. }), "oversized frame must be typed-rejected: {reply:?}");
        }
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });

    // Fire counts are taken once every client has joined and before the
    // probe below: a corruption fire and the checksum failure it causes
    // land in one lookup, so every fire counted here is in the snapshot.
    for rule in spec.split(';') {
        let site = rule.split('=').next().unwrap().trim();
        assert!(rlqvo_fault::fired(site) >= 1, "{site} never fired under {spec:?} seed {seed}");
    }
    let kills = rlqvo_fault::fired("serve.worker.panic");
    let corruptions = rlqvo_fault::fired("cache.checksum_corrupt");
    // A kill's restart is counted before its reply is written.
    let m = metrics(&handle);

    let (mut ok, mut deadline, mut panics, mut lost_workers) = (0u64, 0u64, 0u64, 0u64);
    for r in &replies {
        match r {
            Response::Ok { .. } => ok += 1,
            Response::DeadlineExceeded { .. } => deadline += 1,
            Response::InternalError { reason } if reason == "panic" => panics += 1,
            Response::InternalError { reason } if reason == "worker_lost" => lost_workers += 1,
            other => panic!("unexpected reply in the concurrent mix: {other:?}"),
        }
    }
    assert_eq!(replies.len(), MIX_CLIENTS * MIX_REQUESTS, "exactly one typed reply per request");
    assert_eq!(
        (m["served"], m["deadline_exceeded"], m["errors"], m["rejected"], m["shed"]),
        (ok, deadline, panics, 3, 0),
        "the server's books must match the clients' reply for reply (three oversize rejects): {m:?}"
    );
    // A kill costs the one request it fired on; nothing else loses one.
    assert_eq!(lost_workers, kills, "each worker kill is exactly one worker_lost reply");
    let injected = (MIX_CLIENTS * MIX_REQUESTS / PANIC_EVERY) as u64;
    assert!(panics >= 1, "at least one injected panic must surface as a typed error");
    assert!(panics <= injected, "typed errors come only from the {injected} injected panics: {panics}");
    assert_eq!(m["flushes"], 1, "the mid-run flush must have landed");
    assert_degrade_conservation(&m);
    // Concurrent hits on one corrupted entry can count its failure twice
    // before the evict lands, so failures bound fires from above; each
    // fire evicts the liar it made (the caches are unbounded and a flush
    // counts no evictions, so nothing else evicts).
    let failures = m["space_checksum_failures"] + m["order_checksum_failures"];
    assert!(failures >= corruptions, "each corruption must be caught: {failures} failures < {corruptions} fires");
    let evictions = m["space_evictions"] + m["order_evictions"];
    assert!(evictions >= corruptions, "each degrade evicts: {evictions} evictions < {corruptions} fires");
    if kills > 0 {
        assert_eq!(m["worker_restarts"], kills, "every kill must count one restart: {m:?}");
        assert!(m["workers_alive"] >= 1, "the token budget must be whole after the schedule: {m:?}");
    }

    // One more warm request is served, through the retrying client: the
    // schedule is still armed, so a kill may land on it too.
    let mut client = Client::new(handle.addr(), RetryPolicy::default(), seed);
    let probe = client.call(&plain_match(pool[0].clone(), None), Duration::from_secs(30)).unwrap();
    assert!(matches!(probe.response, Response::Ok { .. }), "server unusable after the mix: {:?}", probe.response);
    handle.shutdown();
}

/// Schedule 5 — **concurrent mix**: the cache-corruption mix on its own,
/// then again with every 7th request pickup panicking.
fn schedule_concurrent_mix() {
    concurrent_mix("cache.checksum_corrupt=1in43", 7, 2, 1);
    concurrent_mix("serve.worker.panic=1in7;cache.checksum_corrupt=1in11", 7, 2, 1);
}

/// Schedule 6 — **stealing under kills**: the concurrent mix on a
/// 4-token budget with 2 enumeration workers per request, worker kills,
/// and 1 ms stalls at the steal loop's task-claim point. The stall site
/// is evaluated only inside a stealing run, so its fires prove that
/// helpers were granted; how many tasks were stolen is the scheduler's
/// business and is not asserted.
fn schedule_stealing_under_kills() {
    concurrent_mix("serve.worker.panic=1in7;enum.morsel.stall=1ms@1in5", 13, 4, 2);
}

/// Schedule 7 — **learned path under a wedge**: `method=rlqvo` requests
/// through an untrained model with the fast-math kernels, on a one-token
/// server. The first request is wedged once at pickup, and the rest are
/// sent only once it sleeps: they run meanwhile (a request wedged at
/// pickup holds no token) and it runs when it wakes. Every reply must
/// equal an unarmed server's, one request at a time.
fn schedule_learned_path_under_a_wedge() {
    const QUERIES: usize = 8;
    let model = std::env::temp_dir().join(format!("rlqvo-chaos-model-{}.txt", std::process::id()));
    RlQvo::new(RlQvoConfig::harness()).save(&model).unwrap();
    let server = || {
        let config = ServeConfig {
            threads: 1,
            model_path: Some(model.to_string_lossy().into_owned()),
            fast_math: true,
            ..ServeConfig::default()
        };
        Server::start(config, Arc::new(small_host())).unwrap()
    };
    let learned = |query_text: &String| Request::Match {
        deadline_ms: None,
        max_matches: None,
        method: Some("rlqvo".into()),
        engine: None,
        inject: None,
        query_text: query_text.clone(),
    };
    let pool = path_queries(QUERIES);

    // The reference: one request at a time, nothing armed.
    let reference = server();
    let mut s = reference.connect().unwrap();
    let expected: Vec<Response> = pool.iter().map(|q| roundtrip(&mut s, &learned(q)).unwrap()).collect();
    reference.shutdown();

    let _guard = rlqvo_fault::arm_scoped("serve.worker.wedge=300ms@once", 53).unwrap();
    let handle = server();
    // Every client connects up front, so no accept lands in the wedge.
    let streams: Vec<TcpStream> = pool.iter().map(|_| handle.connect().unwrap()).collect();
    let replies: Vec<Response> = std::thread::scope(|scope| {
        let mut calls = streams.into_iter().zip(&pool).map(|(mut stream, q)| {
            let req = learned(q);
            move || roundtrip(&mut stream, &req).expect("typed reply")
        });
        let first = scope.spawn(calls.next().unwrap());
        while rlqvo_fault::fired("serve.worker.wedge") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rest: Vec<_> = calls.map(|call| scope.spawn(call)).collect();
        std::iter::once(first).chain(rest).map(|h| h.join().unwrap()).collect()
    });

    let counts = |r: &Response| match r {
        Response::Ok { matches, enums, .. } => (*matches, *enums),
        other => panic!("the learned path must serve: {other:?}"),
    };
    let (got, want): (Vec<_>, Vec<_>) = (replies.iter().map(counts).collect(), expected.iter().map(counts).collect());
    assert_eq!(got, want, "replies under the wedge must equal one-at-a-time replies");
    assert_eq!(rlqvo_fault::fired("serve.worker.wedge"), 1, "the wedge must have held the first request");
    let m = metrics(&handle);
    assert_eq!((m["served"], m["errors"], m["rejected"]), (QUERIES as u64, 0, 0), "{m:?}");
    assert_degrade_conservation(&m);

    // One more warm request is served, with the same answer.
    let mut s = handle.connect().unwrap();
    assert_eq!(counts(&roundtrip(&mut s, &learned(&pool[0])).unwrap()), want[0]);
    handle.shutdown();
    std::fs::remove_file(&model).ok();
}

#[test]
fn chaos_schedules_hold_the_robustness_invariants() {
    // Pickup panics fire outside the engine fence by design; silence
    // *failpoint* panics only, so genuine assertion failures still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let from_failpoint = info.payload().downcast_ref::<String>().is_some_and(|s| s.starts_with("failpoint "))
            || info.payload().downcast_ref::<&str>().is_some_and(|s| s.starts_with("failpoint "));
        if !from_failpoint {
            default_hook(info);
        }
    }));
    schedule_worker_kill();
    schedule_cache_chaos();
    schedule_slow_with_deadlines();
    schedule_wedge_watchdog();
    schedule_concurrent_mix();
    schedule_stealing_under_kills();
    schedule_learned_path_under_a_wedge();
}
