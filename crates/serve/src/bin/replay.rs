//! Chaos replay driver for `rlqvo serve`.
//!
//! Starts an in-process server over a scaled paper dataset, replays a
//! Zipfian hot/cold query mix from concurrent clients, and injects
//! faults through the [`rlqvo_fault`] failpoint registry, armed from a
//! spec string so any chaos run replays from `(--faults, --fault-seed)`
//! (plus the workload `--seed`): per-site fault decisions are pure
//! functions of `(spec, seed, eval index)`.
//!
//! The default spec reproduces the historical fault mix:
//!
//! ```text
//! replay.client.panic=1in29;replay.oversize=times(3);cache.checksum_corrupt=1in43
//! ```
//!
//! * `replay.client.panic` — the driver marks the request `inject=panic`
//!   so it dies inside the engine (the cache-fill closure, the most
//!   hostile point);
//! * `replay.oversize` — sacrificial connections declare frames beyond
//!   the server's limit, expecting the typed reject;
//! * `cache.checksum_corrupt` — a cache hit (all are verified) finds its
//!   resident checksum flipped and must degrade (evict + recompute,
//!   counted).
//!
//! A mid-run cache `flush` — client 0's, at 70% of its own requests —
//! stays unconditional: it is workload, not fault. Pass `--faults` to run
//! any other schedule (server-side sites like `serve.worker.panic`
//! included); the invariant set then
//! drops the default-mix-specific counts and keeps the universal ones:
//! zero lost replies, exactly-one typed reply per request, `degraded`
//! equal to the sum of its per-cache parts, and a live server at the
//! end. Every request must come back with a typed reply — a lost reply
//! is a driver failure, not a statistic. The report is one JSON object
//! on stdout: p50/p99/p999 latency, throughput, shed/degraded/error
//! counts, and per-failpoint fire counts.
//!
//! ```text
//! replay [--smoke] [--dataset yeast] [--vertices 3000] [--clients 4]
//!        [--requests 400] [--queries 24] [--hot 4] [--zipf 1.1]
//!        [--query-size 8] [--deadline-ms 200] [--seed 7] [--no-cache]
//!        [--batch 1] [--fast-math off] [--faults SPEC] [--fault-seed 7]
//!        [--threads N] [--enum-threads 1]
//! ```
//!
//! `--smoke` shrinks everything for CI (seconds, not minutes).
//! `--batch N` turns on the server's micro-batching stage; `--fast-math
//! on` routes every request through the learned RL-QVO ordering with the
//! fast-math kernels (an untrained model is written to a temp file — the
//! replay exercises the serving path, not ordering quality).

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlqvo_datasets::{build_query_set, Dataset};
use rlqvo_graph::{io::write_graph, Graph};
use rlqvo_serve::{roundtrip, Request, Response, ServeConfig, Server};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// The parsed value of `--name`, `default` when the flag is absent; a
/// value that does not parse exits 2 — a chaos run replays from the
/// schedule it was asked for or not at all.
fn num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad {name} {v:?}");
            std::process::exit(2);
        })
    })
}

/// Zipf(s) CDF over `n` ranks, hand-rolled (the vendored `rand` has no
/// distribution module): weight of rank `r` is `1/(r+1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn graph_text(q: &Graph) -> String {
    let mut buf = Vec::new();
    write_graph(q, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("graph text is ascii")
}

/// The historical fault mix, expressed as a failpoint spec: a panic
/// query roughly every 29th request, three oversized probes, and a
/// checksum corruption on roughly every 43rd verified cache hit
/// (spread through the run instead of the old one-shot 40% sweep —
/// same degrade path, now seeded and replayable).
const DEFAULT_FAULTS: &str = "replay.client.panic=1in29;replay.oversize=times(3);cache.checksum_corrupt=1in43";

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let no_cache = args.iter().any(|a| a == "--no-cache");

    let dataset_name = flag(&args, "--dataset").unwrap_or_else(|| "yeast".to_string());
    let dataset = Dataset::from_name(&dataset_name).unwrap_or_else(|| {
        eprintln!("unknown dataset {dataset_name:?}");
        std::process::exit(2);
    });
    let vertices: usize = num(&args, "--vertices", if smoke { 800 } else { 3000 });
    let clients: usize = num(&args, "--clients", if smoke { 2 } else { 4 });
    let requests_per_client: usize = num(&args, "--requests", if smoke { 40 } else { 400 });
    let pool_size: usize = num(&args, "--queries", if smoke { 8 } else { 24 });
    let hot: usize = num(&args, "--hot", 4).max(1);
    let zipf_s: f64 = num(&args, "--zipf", 1.1);
    let query_size: usize = num(&args, "--query-size", if smoke { 6 } else { 8 });
    let deadline_ms: u64 = num(&args, "--deadline-ms", 200);
    let seed: u64 = num(&args, "--seed", 7);
    let batch: usize = num(&args, "--batch", 1).max(1);
    // Total core-token budget (request workers + enumeration helpers).
    // The default follows the host; chaos runs that want the steal path
    // engaged under faults pass an explicit budget > 1 and
    // `--enum-threads` workers per request (the server clamps them to the
    // budget).
    let threads: usize = num(&args, "--threads", ServeConfig::default().threads).max(1);
    let enum_threads = num(&args, "--enum-threads", std::num::NonZeroUsize::MIN).get();
    let faults = flag(&args, "--faults");
    let default_mix = faults.is_none();
    let faults = faults.unwrap_or_else(|| DEFAULT_FAULTS.to_string());
    let fault_seed: u64 = num(&args, "--fault-seed", 7);
    let fast_math = match flag(&args, "--fast-math").as_deref().map(str::trim) {
        None | Some("off" | "0" | "false") => false,
        Some("on" | "1" | "true") => true,
        Some(other) => {
            eprintln!("bad --fast-math {other:?} (want on|off)");
            std::process::exit(2);
        }
    };

    eprintln!("replay: {dataset_name} n={vertices}, {clients} clients x {requests_per_client} requests, pool {pool_size} (hot {hot}), zipf s={zipf_s}, batch {batch}, math {}, {threads} tokens ({enum_threads} enum threads/request max)",
        if fast_math { "fast" } else { "bitwise" });
    eprintln!("replay: faults {faults:?} seed {fault_seed}");

    // Arm before any server thread exists so every site sees the
    // schedule from its very first eval.
    let armed_sites = rlqvo_fault::arm(&faults, fault_seed).unwrap_or_else(|e| {
        eprintln!("bad --faults spec: {e}");
        std::process::exit(2);
    });
    let fault_names: Vec<String> = if armed_sites > 0 {
        faults.split(';').filter_map(|r| r.split('=').next()).map(|n| n.trim().to_string()).collect()
    } else {
        Vec::new()
    };

    let g = Arc::new(dataset.load_scaled(vertices));
    let queries = build_query_set(&g, query_size, pool_size, seed).queries;
    let texts: Vec<String> = queries.iter().map(graph_text).collect();
    // Hot set first: Zipf rank 0..hot gets the bulk of the mass.
    let zipf = Zipf::new(texts.len(), zipf_s);

    // Fast math only matters on the learned ordering path, which needs a
    // model on disk; an untrained one is enough, since the replay grades
    // the serving path, not ordering quality.
    let model_path = fast_math.then(|| {
        let path = std::env::temp_dir().join(format!("rlqvo-replay-model-{}.txt", std::process::id()));
        rlqvo_core::RlQvo::new(rlqvo_core::RlQvoConfig::harness()).save(&path).expect("write replay model");
        path
    });
    let method = fast_math.then(|| "rlqvo".to_string());

    let mut config = ServeConfig {
        threads,
        queue_depth: clients.max(2),
        use_cache: !no_cache,
        fault_injection: true,
        model_path: model_path.as_ref().map(|p| p.to_string_lossy().into_owned()),
        batch,
        fast_math,
        ..ServeConfig::default()
    };
    config.enum_config.threads = enum_threads;
    let handle = Server::start(config, Arc::clone(&g)).expect("server start");
    let addr = handle.addr();

    let total = clients * requests_per_client;
    // The flush is anchored at 70% of client 0's *own* requests — late
    // enough that the caches are warm, early enough that the cold-refill
    // path runs mid-stream too, and certain to land: a share of the
    // global count is one client 0 can finish without ever seeing.
    let flush_at = 7 * requests_per_client / 10;
    // Outcome tally (client side, ground truth for "no lost replies").
    let ok = AtomicU64::new(0);
    let deadline = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let errored = AtomicU64::new(0);
    let injected_panics = AtomicU64::new(0);
    let lost = AtomicU64::new(0);

    let t_start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for c in 0..clients {
            let texts = &texts;
            let zipf = &zipf;
            let method = &method;
            let (ok, deadline, overloaded, rejected, errored, injected_panics, lost) =
                (&ok, &deadline, &overloaded, &rejected, &errored, &injected_panics, &lost);
            joins.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xA5A5_0000 + c as u64));
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut lat = Vec::with_capacity(requests_per_client);
                for i in 0..requests_per_client {
                    if c == 0 && i == flush_at {
                        roundtrip(&mut stream, &Request::Flush).expect("flush reply");
                    }
                    // The panic-query fault rides the registry: each
                    // outgoing request draws one `replay.client.panic`
                    // decision (server-side faults like checksum
                    // corruption fire inside the server on their own
                    // sites).
                    let inject = rlqvo_fault::failpoint!("replay.client.panic").is_some();
                    let idx = zipf.sample(&mut rng);
                    let req = Request::Match {
                        deadline_ms: Some(deadline_ms),
                        max_matches: Some(10_000),
                        method: method.clone(),
                        engine: None,
                        inject: inject.then(|| "panic".to_string()),
                        query_text: texts[idx].clone(),
                    };
                    if inject {
                        injected_panics.fetch_add(1, Ordering::Relaxed);
                    }
                    let t0 = Instant::now();
                    match roundtrip(&mut stream, &req) {
                        Ok(resp) => {
                            lat.push(t0.elapsed().as_micros() as u64);
                            match resp {
                                Response::Ok { .. } => ok.fetch_add(1, Ordering::Relaxed),
                                Response::DeadlineExceeded { .. } => deadline.fetch_add(1, Ordering::Relaxed),
                                Response::Overloaded => overloaded.fetch_add(1, Ordering::Relaxed),
                                Response::Rejected { .. } => rejected.fetch_add(1, Ordering::Relaxed),
                                Response::InternalError { .. } => errored.fetch_add(1, Ordering::Relaxed),
                                _ => lost.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        Err(e) => {
                            eprintln!("client {c}: lost reply: {e}");
                            lost.fetch_add(1, Ordering::Relaxed);
                            stream = TcpStream::connect(addr).expect("reconnect");
                        }
                    }
                }
                lat
            }));
        }

        // The oversized-query fault, on sacrificial connections so the
        // measured clients keep their streams: declare a frame beyond
        // the server's limit, expect the typed reject + close. The
        // `replay.oversize` site drives the count (`times(3)` in the
        // default mix); the hard cap keeps an `always` trigger finite.
        let mut oversized_ok = 0u32;
        for _ in 0..64 {
            if rlqvo_fault::failpoint!("replay.oversize").is_none() {
                break;
            }
            let mut s = TcpStream::connect(addr).expect("connect oversized");
            s.write_all(&(u32::MAX).to_le_bytes()).expect("oversized prefix");
            match rlqvo_serve::read_frame(&mut s, rlqvo_serve::MAX_FRAME_BYTES).expect("oversized reply") {
                rlqvo_serve::Frame::Msg(p) => {
                    let text = String::from_utf8(p).expect("utf8");
                    assert!(
                        matches!(Response::parse(&text), Ok(Response::Rejected { .. })),
                        "oversized frame must be rejected, got {text:?}"
                    );
                    oversized_ok += 1;
                }
                other => panic!("oversized frame got no typed reply: {other:?}"),
            }
        }
        if default_mix {
            assert_eq!(oversized_ok, 3, "the default mix sends exactly three typed-rejected oversized probes");
        }

        let mut all = Vec::with_capacity(total);
        for j in joins {
            all.extend(j.join().expect("client thread"));
        }
        all
    });
    let elapsed = t_start.elapsed();

    // Fire counts are captured here — after every client joined, before
    // the metrics fetch and the post-fault probe. Order matters for the
    // conservation assert: a fire and its counted checksum failure land
    // in the same lookup, so every fire captured now is visible in the
    // metrics snapshot below, while the probe's own potential fires
    // (which the snapshot would miss) stay out of the captured count.
    let fired: BTreeMap<String, u64> = fault_names.iter().map(|n| (n.clone(), rlqvo_fault::fired(n))).collect();
    let corrupt_fires_at_join = rlqvo_fault::fired("cache.checksum_corrupt");
    // If the schedule killed workers, give the supervisor a couple of
    // ticks to finish replacing the last casualty before the metrics
    // snapshot (restarts from earlier in the run landed long ago).
    if fired.get("serve.worker.panic").copied().unwrap_or(0) >= 1 {
        std::thread::sleep(Duration::from_millis(100));
    }

    // Server-side metrics before shutdown.
    let mut control = TcpStream::connect(addr).expect("connect control");
    let metrics: BTreeMap<String, u64> = match roundtrip(&mut control, &Request::Metrics).expect("metrics") {
        Response::Metrics(m) => m,
        other => panic!("metrics got {other:?}"),
    };
    // Caches must be alive and serving after the fault mix: one more
    // warm query must succeed.
    let probe = Request::Match {
        deadline_ms: Some(5_000),
        max_matches: Some(100),
        method: method.clone(),
        engine: None,
        inject: None,
        query_text: texts[0].clone(),
    };
    match roundtrip(&mut control, &probe).expect("post-fault probe") {
        Response::Ok { .. } | Response::DeadlineExceeded { .. } => {}
        other => panic!("server unusable after fault mix: {other:?}"),
    }
    handle.shutdown();
    if let Some(p) = &model_path {
        let _ = std::fs::remove_file(p);
    }

    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let report = Report {
        total,
        elapsed,
        p50: percentile(&sorted, 0.50),
        p99: percentile(&sorted, 0.99),
        p999: percentile(&sorted, 0.999),
        ok: ok.load(Ordering::Relaxed),
        deadline: deadline.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        errored: errored.load(Ordering::Relaxed),
        injected_panics: injected_panics.load(Ordering::Relaxed),
        lost: lost.load(Ordering::Relaxed),
        faults: faults.clone(),
        fault_seed,
        fired: fired.clone(),
        metrics,
    };

    // Universal invariants — they hold under *any* fault schedule.
    assert_eq!(report.lost, 0, "every request must receive a typed reply");
    let replied = report.ok + report.deadline + report.overloaded + report.rejected + report.errored;
    assert_eq!(replied as usize, total, "reply conservation: {replied} of {total}");
    assert!(report.metrics.get("flushes").copied().unwrap_or(0) >= 1, "the mid-run flush must have landed");
    // Cache-tier conservation: the metrics map must surface the full
    // per-cache counter set, and the aggregate `degraded` must be exactly
    // the sum of its per-cache parts — a drifting aggregate means a
    // counter was dropped from (or double-counted into) the snapshot.
    let metric = |k: &str| report.metrics.get(k).copied().unwrap_or_else(|| panic!("metrics reply must surface {k:?}"));
    let degrade_parts = metric("space_checksum_failures")
        + metric("space_poison_recoveries")
        + metric("order_checksum_failures")
        + metric("order_poison_recoveries");
    assert_eq!(metric("degraded"), degrade_parts, "degraded must equal the sum of its per-cache parts");
    for k in ["space_hits", "space_misses", "space_evictions", "order_hits", "order_misses", "order_evictions"] {
        metric(k);
    }
    // Micro-batching accounting: every worker dispatch records its batch
    // occupancy, so the per-size counters must cover every dispatched job.
    let occupancy: u64 = (1..=batch).map(|i| metric(&format!("batch_size_{i}"))).sum();
    assert!(occupancy >= 1, "workers must record batch occupancy");
    // Self-healing: any schedule that kills workers must show the
    // supervisor replacing them, with a live pool at the end.
    if report.fired.get("serve.worker.panic").copied().unwrap_or(0) >= 1 {
        assert!(metric("worker_restarts") >= 1, "worker kills fired but the supervisor recorded no restart");
        assert!(metric("workers_alive") >= 1, "the pool must be alive after the schedule");
    }

    // Default-mix invariants — these know exactly which faults were
    // scheduled, so they can pin the accounting down tight.
    if default_mix {
        assert!(report.injected_panics >= 1, "the default mix must inject at least one panic query");
        // Injected panics that were shed at admission or aged out in
        // queue never reach the engine, so `errored` can undershoot the
        // injection count — but it can never exceed it (nothing else in
        // the default mix produces a typed error), and one must land.
        assert!(report.errored >= 1, "at least one injected panic must surface as a typed error");
        assert!(report.errored <= report.injected_panics, "typed errors can only come from injected panics");
        if !no_cache {
            // Corruption conservation: every `cache.checksum_corrupt`
            // fire flips a resident checksum mid-verify and is counted as
            // a checksum failure by the firing lookup; concurrent hits on
            // the same corrupted entry can count it again before the
            // evict lands, so failures bound fires from above.
            let corrupt_fires = corrupt_fires_at_join;
            assert!(corrupt_fires >= 1, "the default mix must corrupt at least one verified hit");
            let failures = metric("space_checksum_failures") + metric("order_checksum_failures");
            assert!(
                failures >= corrupt_fires,
                "each corruption fire must be observed: {failures} failures < {corrupt_fires} fires"
            );
            assert!(metric("degraded") >= 1, "corruption must force at least one counted degrade");
            // Every fire evicts the entry it made a liar — once, however
            // many concurrent hits counted its failure (the caches are
            // unbounded here, so nothing else evicts).
            let evictions = metric("space_evictions") + metric("order_evictions");
            assert!(evictions >= corrupt_fires, "each degrade evicts: {evictions} evictions < {corrupt_fires} fires");
        }
    }

    eprintln!(
        "replay: {} requests in {:.2?} ({:.0} req/s) | p50 {}us p99 {}us p999 {}us | ok {} deadline {} shed {} rejected {} errors {} degraded {}",
        report.total,
        report.elapsed,
        report.total as f64 / report.elapsed.as_secs_f64(),
        report.p50,
        report.p99,
        report.p999,
        report.ok,
        report.deadline,
        report.overloaded,
        report.rejected,
        report.errored,
        report.metrics.get("degraded").copied().unwrap_or(0),
    );
    println!("{}", report.to_json());
}

struct Report {
    total: usize,
    elapsed: Duration,
    p50: u64,
    p99: u64,
    p999: u64,
    ok: u64,
    deadline: u64,
    overloaded: u64,
    rejected: u64,
    errored: u64,
    injected_panics: u64,
    lost: u64,
    faults: String,
    fault_seed: u64,
    /// Per-failpoint fire counts for the armed schedule.
    fired: BTreeMap<String, u64>,
    metrics: BTreeMap<String, u64>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"requests\": {}, ", self.total));
        s.push_str(&format!("\"elapsed_ms\": {}, ", self.elapsed.as_millis()));
        s.push_str(&format!("\"throughput_rps\": {:.1}, ", self.total as f64 / self.elapsed.as_secs_f64()));
        s.push_str(&format!("\"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, ", self.p50, self.p99, self.p999));
        s.push_str(&format!(
            "\"ok\": {}, \"deadline\": {}, \"shed\": {}, \"rejected\": {}, \"errors\": {}, ",
            self.ok, self.deadline, self.overloaded, self.rejected, self.errored
        ));
        s.push_str(&format!("\"injected_panics\": {}, \"lost\": {}, ", self.injected_panics, self.lost));
        s.push_str(&format!(
            "\"faults\": \"{}\", \"fault_seed\": {}, ",
            self.faults.replace('"', "\\\""),
            self.fault_seed
        ));
        s.push_str("\"fired\": {");
        let kv: Vec<String> = self.fired.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        s.push_str(&kv.join(", "));
        s.push_str("}, \"server\": {");
        let kv: Vec<String> = self.metrics.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        s.push_str(&kv.join(", "));
        s.push_str("}}");
        s
    }
}
