//! `serve-warm` and `serve-churn`: a closed loop of 2 clients, one
//! connection each, against an in-process [`Server`] over loopback on
//! the yeast analog. Each client sends its next request only when the
//! previous reply is parsed, so the load never exceeds 2 in flight and
//! nothing is shed. The two workloads use the same caches opposite
//! ways: `serve-warm` replays 96 queries (all hits after first touch),
//! `serve-churn` draws from 4096 with caches a sixteenth of that.

use std::io::{Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlqvo_datasets::Dataset;
use rlqvo_graph::io::read_graph;
use rlqvo_graph::Graph;
use rlqvo_matching::order::RiOrdering;
use rlqvo_matching::{
    CacheConfig, CandidateFilter, CandidateSpace, EnumEngine, EvictPolicy, OrderCache, OrderingMethod, QueryKey,
    SpaceCache,
};
use rlqvo_serve::{
    read_frame, roundtrip, write_frame, Frame, Request, Response, ServeConfig, Server, ServerHandle, MAX_FRAME_BYTES,
};

use crate::inputs::{candidates, enum_config, graph_text, screen, Query, Zipf, GQL};
use crate::schema::{Metrics, CHURN_ORDER_CACHE_BYTES, CHURN_SPACE_CACHE_BYTES, PER_LAYER};
use crate::stats::{mean, quantile, sorted, SampleLog};
use crate::trace::{Tracer, OP};
use crate::{set_up, timed, Counts, Measured, Outcome, Run};

const CLIENTS: usize = 2;
const MAX_MATCHES: u64 = 10_000;
/// Far above any request (p99 under 1 ms) so that a stall of the
/// virtual machine cannot turn into a `deadline` reply, which would be
/// a failed operation the program is not to blame for; the deadline
/// path itself still runs on every request.
const DEADLINE_MS: u64 = 2_000;
const QUERY_SIZE: usize = 8;
const ZIPF_S: f64 = 1.1;
/// Queries of `serve-warm`, ranked for the Zipf draw by their `#enum`
/// under the probe oracle, cheapest first. Ranked as sampled, the latency
/// tail was whatever cost the seed put on the three hottest ranks (53 % of
/// the requests among 24 queries, 42 % among 96): with 24 queries p95 read
/// 71–139 us over ten seeds, with 96 still 74–137; ranked by cost, 72–81.
const WARM_POOL: usize = 96;
/// Pool queries the traced run also times call by call in this process.
const AUX_QUERIES: usize = 64;

/// A started server with its inputs; stopping it is part of dropping
/// (a dropped [`ServerHandle`] alone would leave its threads running).
struct Served {
    g: Arc<Graph>,
    pool: Vec<Graph>,
    handle: Option<ServerHandle>,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

fn cache_bounds(churn: bool) -> (Option<usize>, Option<usize>) {
    if churn {
        (Some(CHURN_SPACE_CACHE_BYTES), Some(CHURN_ORDER_CACHE_BYTES))
    } else {
        (None, None)
    }
}

fn start(run: &Run, churn: bool, pool_size: usize) -> Result<Served, String> {
    let g = Arc::new(Dataset::Yeast.load_scaled(if run.smoke { 800 } else { usize::MAX }));
    let pool = candidates(&g, QUERY_SIZE, pool_size, run.seed);
    let (space_cache_bytes, order_cache_bytes) = cache_bounds(churn);
    // Every field literally: `ServeConfig::default()` sizes `threads`
    // from the host and inherits `EnumConfig::default()`'s env reads.
    let config = ServeConfig {
        threads: CLIENTS,
        queue_depth: 64,
        max_frame_bytes: 4 * 1024 * 1024,
        enum_config: enum_config(MAX_MATCHES, EnumEngine::CandidateSpace, 1),
        use_cache: true,
        fault_injection: false,
        model_path: None,
        batch: 1,
        fast_math: false,
        space_cache_bytes,
        order_cache_bytes,
        stall_timeout: None,
    };
    let handle = Server::start(config, Arc::clone(&g)).map_err(|e| format!("server start: {e}"))?;
    Ok(Served { g, pool, handle: Some(handle) })
}

struct PoolEntry {
    request: Request,
    query: Query,
}

/// Samples one client keeps per round (256 KiB per log; a round of
/// today's `serve-warm` is about 22 000 requests per client).
const LOG_CAPACITY: usize = 1 << 15;

/// What one client saw.
struct ClientLog {
    latency_us: SampleLog,
    /// Reply `micros`, the server's own service time, kept by the traced
    /// run only; a failed reply books its whole latency so the two logs
    /// stay paired.
    service_us: Option<SampleLog>,
    attempted: u64,
    failed: u64,
}

fn reply_ok(resp: &Response, q: &Query) -> Option<u64> {
    match resp {
        Response::Ok { matches, enums, micros, .. } if *matches == q.matches && *enums == q.enums[0] => Some(*micros),
        _ => None,
    }
}

/// One closed-loop client on a fresh connection until `until`. With a
/// tracer, the round trip is staged by hand — encode, socket, decode —
/// a span at each.
fn client(
    addr: SocketAddr,
    pool: &[PoolEntry],
    zipf: Option<&Zipf>,
    seed: u64,
    until: Instant,
    mut tr: Option<&mut Tracer>,
    log: &mut ClientLog,
) -> std::io::Result<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = TcpStream::connect(addr)?;
    while Instant::now() < until {
        let entry = &pool[match zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..pool.len()),
        }];
        let t = Instant::now();
        let resp = match tr.as_deref_mut() {
            None => roundtrip(&mut stream, &entry.request)?,
            Some(tr) => {
                let op = tr.open(OP);
                let frame = tr.span("serve.protocol.encode", || {
                    let mut buf = Vec::new();
                    write_frame(&mut buf, entry.request.to_text().as_bytes()).map(|()| buf)
                })?;
                let reply = tr.span("serve.server.roundtrip", || {
                    stream.write_all(&frame)?;
                    read_frame(&mut stream, MAX_FRAME_BYTES)
                })?;
                let resp = tr.span("serve.protocol.decode", || match &reply {
                    Frame::Msg(p) => std::str::from_utf8(p).map_err(|e| e.to_string()).and_then(Response::parse),
                    _ => Err("connection closed".to_string()),
                });
                tr.close(op);
                resp.map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            }
        };
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        log.latency_us.push(latency_us);
        log.attempted += 1;
        let micros = reply_ok(&resp, &entry.query);
        if micros.is_none() {
            if log.failed < 3 {
                eprintln!("ledger: failed request: {resp:?}, expected {} matches", entry.query.matches);
            }
            log.failed += 1;
        }
        if let Some(service) = &mut log.service_us {
            service.push(micros.map_or(latency_us, |us| us as f64));
        }
    }
    Ok(())
}

/// Reconnections per measured loop: fresh client and connection threads
/// for every round, each round one group, of which the quietest is
/// reported.
const ROUNDS: usize = 8;

/// Runs the closed loop for `seconds` in [`ROUNDS`] rounds of fresh
/// connections, each round one group of the one cell. A traced run also
/// returns every kept request's (latency, service time) pair.
fn drive(
    addr: SocketAddr,
    pool: &[PoolEntry],
    zipf: Option<&Zipf>,
    seed: u64,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
) -> Result<(Measured, Vec<(f64, f64)>), String> {
    let mut m = Measured::with_group_capacity(1, CLIENTS * LOG_CAPACITY);
    let mut pairs = Vec::new();
    let mut logs: Vec<ClientLog> = (0..CLIENTS)
        .map(|_| ClientLog {
            latency_us: SampleLog::new(LOG_CAPACITY),
            service_us: tr.is_some().then(|| SampleLog::new(LOG_CAPACITY)),
            attempted: 0,
            failed: 0,
        })
        .collect();
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(seconds / ROUNDS as f64);
        let mut tracers: Vec<Tracer> = (0..CLIENTS).filter(|_| tr.is_some()).map(|_| Tracer::with_epoch(t0)).collect();
        let results: Vec<std::io::Result<()>> = std::thread::scope(|s| {
            let mut slots = tracers.iter_mut();
            let joins: Vec<_> = logs
                .iter_mut()
                .enumerate()
                .map(|(c, log)| {
                    let tr = slots.next();
                    let seed = seed ^ (0xA5A5_0000 + (round * CLIENTS + c) as u64);
                    s.spawn(move || client(addr, pool, zipf, seed, until, tr, log))
                })
                .collect();
            joins.into_iter().map(|j| j.join().expect("client thread")).collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        // Before absorbing: a client that lost its connection returned
        // with its operation span still open.
        for r in results {
            r.map_err(|e| format!("client lost its connection: {e}"))?;
        }
        if let Some(tr) = tr.as_deref_mut() {
            tracers.into_iter().for_each(|t| tr.absorb(t));
        }
        let mut requests = 0;
        for log in &mut logs {
            log.latency_us.samples().iter().for_each(|&us| m.sample(0, us));
            if let Some(service) = &mut log.service_us {
                pairs.extend(log.latency_us.samples().iter().copied().zip(service.samples().iter().copied()));
                service.clear();
            }
            log.latency_us.clear();
            requests += log.attempted;
            m.attempted += log.attempted;
            m.failed += log.failed;
            (log.attempted, log.failed) = (0, 0);
        }
        m.close_group(wall_s, Some(requests));
    }
    Ok((m, pairs))
}

fn server_metrics(addr: SocketAddr) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    match roundtrip(&mut stream, &Request::Metrics) {
        Ok(Response::Metrics(m)) => Ok(m),
        other => Err(format!("metrics verb answered {other:?}")),
    }
}

/// Call-by-call timings of the layers a served request crosses, taken
/// in this process on the pool's own queries while the server idles.
fn aux_layers(g: &Graph, pool: &[PoolEntry], churn: bool, out: &mut Metrics) {
    const REPS: usize = 20;
    let sample = &pool[..pool.len().min(AUX_QUERIES)];
    let per_call = |seconds: f64, calls: usize| seconds / calls.max(1) as f64;
    let texts: Vec<String> = sample.iter().map(|e| graph_text(&e.query.graph)).collect();

    let ((), seconds) = timed(|| {
        for _ in 0..REPS {
            for text in &texts {
                std::hint::black_box(read_graph(text.as_bytes(), Some(g.num_labels())).expect("own text parses"));
            }
        }
    });
    out.set("graph.io.parse_us", per_call(seconds, REPS * texts.len()) * 1e6);

    let mut frames = Vec::new();
    let ((), seconds) = timed(|| {
        for _ in 0..REPS {
            frames.clear();
            for e in sample {
                let mut buf = Vec::new();
                write_frame(&mut buf, e.request.to_text().as_bytes()).expect("in-memory write");
                frames.push(buf);
            }
        }
    });
    out.set("serve.protocol.encode_us", per_call(seconds, REPS * sample.len()) * 1e6);
    let ((), seconds) = timed(|| {
        for _ in 0..REPS {
            for frame in &frames {
                let Ok(Frame::Msg(p)) = read_frame(&mut Cursor::new(frame), MAX_FRAME_BYTES) else {
                    panic!("own frame")
                };
                std::hint::black_box(
                    Request::parse(std::str::from_utf8(&p).expect("utf8")).expect("own request parses"),
                );
            }
        }
    });
    out.set("serve.protocol.decode_us", per_call(seconds, REPS * frames.len()) * 1e6);

    // The library stages a miss runs inside the server.
    let (mut gql, mut build, mut ri, mut cands, mut bytes) = (vec![], vec![], vec![], vec![], vec![]);
    for e in sample {
        let q = &e.query.graph;
        let (cand, gql_s) = timed(|| GQL.filter(q, g));
        gql.push(gql_s * 1e6);
        ri.push(timed(|| RiOrdering.order(q, g, &cand)).1 * 1e6);
        cands.push(cand.total() as f64);
        if !cand.any_empty() {
            let (cs, build_s) = timed(|| CandidateSpace::build(q, g, &cand));
            build.push(build_s * 1e6);
            bytes.push(cs.storage_bytes() as f64);
        }
    }
    out.set("matching.filter.gql_us", mean(&gql));
    out.set("matching.filter.candidates_per_query", mean(&cands));
    out.set("matching.candspace.build_us", mean(&build));
    out.set("matching.candspace.bytes_per_query", mean(&bytes));
    out.set("matching.order.ri_us", mean(&ri));

    // The caches under the workload's own bounds: first touch of each
    // key is a miss with its fill, every later touch a hit.
    let (space_bytes, order_bytes) = cache_bounds(churn);
    let bounded = |max_bytes| CacheConfig { max_bytes, max_entries: None, policy: EvictPolicy::Sampled };
    let space = SpaceCache::with_config(bounded(space_bytes));
    let orders = OrderCache::with_config(bounded(order_bytes));
    let keys: Vec<QueryKey> = sample.iter().map(|e| QueryKey::of(&e.query.graph)).collect();
    let variant = format!("{}@{}", RiOrdering.cache_key(), GQL.cache_key());
    let ((), seconds) = timed(|| {
        for (e, key) in sample.iter().zip(&keys) {
            std::hint::black_box(space.entry_keyed(key, &e.query.graph, g, &GQL));
        }
    });
    out.set("matching.spacecache.miss_fill_us", per_call(seconds, sample.len()) * 1e6);
    for (e, key) in sample.iter().zip(&keys) {
        let q = &e.query.graph;
        let (entry, _) = space.entry_keyed(key, q, g, &GQL);
        orders.get_or_compute_keyed(key, &variant, q, || RiOrdering.order(q, g, entry.cand()));
    }
    let ((), seconds) = timed(|| {
        for _ in 0..REPS {
            for (e, key) in sample.iter().zip(&keys) {
                std::hint::black_box(space.entry_keyed(key, &e.query.graph, g, &GQL));
            }
        }
    });
    out.set("matching.spacecache.hit_ns", per_call(seconds, REPS * sample.len()) * 1e9);
    let ((), seconds) = timed(|| {
        for _ in 0..REPS {
            for (e, key) in sample.iter().zip(&keys) {
                std::hint::black_box(orders.get_or_compute_keyed(key, &variant, &e.query.graph, Vec::new));
            }
        }
    });
    out.set("matching.ordercache.hit_ns", per_call(seconds, REPS * sample.len()) * 1e9);
}

pub fn run(run: &Run, churn: bool) -> Result<Outcome, String> {
    let pool_size = match (churn, run.smoke) {
        (false, false) => WARM_POOL,
        (true, false) => 4096,
        (false, true) => 6,
        (true, true) => 48,
    };
    let (served, setup_s) = set_up(run, || start(run, churn, pool_size));
    let mut served = served?;
    let addr = served.handle.as_ref().expect("running").addr();

    // Untimed: the library fixes each query's counts (probe oracle,
    // GQL + RI, the served cap), then every pool query goes through the
    // server once — the output check and the caches' first touch.
    let (mut queries, mut failed) =
        screen(&served.g, std::mem::take(&mut served.pool), pool_size, MAX_MATCHES, &[&RiOrdering])?;
    if !churn {
        queries.sort_by_key(|q| q.enums[0]);
    }
    let pool: Vec<PoolEntry> = queries
        .into_iter()
        .map(|query| PoolEntry {
            request: Request::Match {
                deadline_ms: Some(DEADLINE_MS),
                max_matches: Some(MAX_MATCHES),
                method: None,
                engine: None,
                inject: None,
                query_text: graph_text(&query.graph),
            },
            query,
        })
        .collect();
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    for e in &pool {
        let resp = roundtrip(&mut stream, &e.request).map_err(|e| format!("first touch: {e}"))?;
        failed += u64::from(reply_ok(&resp, &e.query).is_none());
    }
    drop(stream);

    let zipf = (!churn).then(|| Zipf::new(pool.len(), ZIPF_S));
    let budget = run.seconds / if run.trace { 2.0 } else { 1.0 };
    let (mut m, _) = drive(addr, &pool, zipf.as_ref(), run.seed, budget, None)?;
    m.attempted += 2 * pool.len() as u64;
    m.failed += failed;
    let pool_enums: u64 = pool.iter().map(|e| e.query.enums[0]).sum();
    if !run.trace {
        let counts = Counts { enum_calls_per_query: pool_enums as f64 / pool.len() as f64, enum_ratio_vs_ri: 1.0 };
        return Ok(m.end_to_end(setup_s, vec![run.workload.clone()], counts));
    }

    let before = server_metrics(addr)?;
    let mut tr = Tracer::new();
    let (traced, pairs) = drive(addr, &pool, zipf.as_ref(), run.seed ^ 0x7ACE, budget, Some(&mut tr))?;
    let after = server_metrics(addr)?;
    let delta = |k: &str| (after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)) as f64;

    let mut out = Metrics::new(&PER_LAYER);
    // Reply `micros` is the server's own service time; the rest of a
    // round trip is transport, queue wait and reply write.
    let overhead = sorted(pairs.iter().map(|(latency, service)| latency - service).collect());
    let latency = sorted(pairs.iter().map(|p| p.0).collect());
    let service = sorted(pairs.iter().map(|p| p.1).collect());
    out.set("serve.client.latency_us_p99", m.quietest(0, |g| g.p99_us));
    out.set("serve.server.service_us_p50", quantile(&service, 0.5));
    out.set("serve.server.overhead_us_p50", quantile(&overhead, 0.5));
    out.set("serve.server.overhead_us_p99", quantile(&overhead, 0.99));
    for k in ["served", "shed", "errors", "deadline_exceeded"] {
        out.set(&format!("serve.server.{k}"), delta(k));
    }
    let rate = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    out.set("matching.spacecache.hit_rate", rate(delta("space_hits"), delta("space_misses")));
    out.set("matching.spacecache.evictions", delta("space_evictions"));
    out.set("matching.spacecache.resident_bytes", after.get("space_bytes").copied().unwrap_or(0) as f64);
    out.set("matching.ordercache.hit_rate", rate(delta("order_hits"), delta("order_misses")));
    out.set("matching.ordercache.evictions", delta("order_evictions"));
    out.set("matching.enumerate.calls", pool_enums as f64);
    out.set("matching.enumerate.calls_per_query", pool_enums as f64 / pool.len() as f64);
    aux_layers(&served.g, &pool, churn, &mut out);

    // Reconciliation: what the server says it spent plus what the wire
    // and queue added must be the latency the client saw.
    let mut gate = Vec::new();
    let p50 = quantile(&latency, 0.5);
    let parts = out.get("serve.server.service_us_p50") + out.get("serve.server.overhead_us_p50");
    if (parts - p50).abs() > 0.10 * p50 {
        gate.push(format!("service + overhead p50 = {parts:.1} us is not within 10% of latency p50 {p50:.1} us"));
    }
    m.attempted += traced.attempted;
    m.failed += traced.failed;
    Ok(m.per_layer(out, &tr, &tr.summary(), &traced, run, gate))
}
