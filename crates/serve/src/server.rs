//! The fault-tolerant serving loop.
//!
//! One [`Server`] owns a warm cache tier — a [`SpaceCache`], an
//! [`OrderCache`], and (optionally) a loaded RL-QVO policy — shared by a
//! fixed pool of request workers. `threads` is the *total* core budget,
//! tracked by one [`TokenBudget`]: each request worker holds one token
//! while it runs a job, and the work-stealing enumeration inside that
//! job borrows whatever tokens are left for the helper threads it spawns
//! for that one enumeration. There is no static query-workers ×
//! enum-threads split any more: an idle server gives one request the
//! whole budget, a saturated one runs `threads` requests serially — and
//! the queue never deadlocks, because token waits are on the *outside* of
//! enumeration, never inside it.
//!
//! The robustness contract, in order of the request lifecycle:
//!
//! 1. **Admission control.** Requests land in a bounded queue
//!    (`queue_depth`). A full queue sheds the request with a typed
//!    `overloaded` reply — never a silent drop, never an unbounded
//!    backlog.
//! 2. **Deadlines.** `deadline_ms` is anchored at *arrival*, so queue
//!    wait counts against it. Workers re-check before running and the
//!    enumeration engine polls it cooperatively on its 1024-call
//!    cadence ([`EnumConfig::with_deadline`]); an expired request
//!    returns its partial counts as `deadline ...`, not an error.
//! 3. **Fault isolation.** Each request runs under `catch_unwind`. A
//!    panicking request yields a typed `error reason=panic`; the server,
//!    its workers, and the cache tier stay up. The caches themselves
//!    recover from lock poisoning (they rebuild the poisoned shard), so
//!    even a panic inside a cache fill is survivable.
//! 4. **Graceful degradation.** A cache miss falls back to on-the-fly
//!    filtering/ordering; every hit is checksum-verified, in every build
//!    profile, and a mismatch evicts the liar and recomputes (counted in
//!    the `degraded` metric). `use_cache = false` serves every request
//!    down the fully cold path — the flag that *proves* the degraded path
//!    works end to end.
//! 5. **Self-healing.** A supervisor thread watches per-worker
//!    heartbeats: a dead worker (a panic that escaped the fence, e.g.
//!    one injected at queue pickup) is joined and replaced; a wedged one
//!    (opt-in [`ServeConfig::stall_timeout`]) is retired and replaced.
//!    The heartbeat is a counter ticked at queue pickup *and* inside the
//!    engine's 1024-call cadence ([`EnumConfig`]'s `heartbeat` hook), so
//!    a long-but-healthy enumeration keeps beating and the threshold can
//!    sit far below the longest legitimate request. Replacements are
//!    counted in `worker_restarts`; the `health` verb reports liveness
//!    without touching the admission queue.
//!
//! Chaos drills exercise every layer of this contract through the
//! [`rlqvo_fault`] failpoint registry (`serve.worker.panic`,
//! `serve.worker.wedge`, `serve.admission.stall`,
//! `serve.reply.write_fail`, plus the cache and enumeration points) —
//! armed from a spec string, deterministic per `(spec, seed)`, and free
//! when disarmed.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlqvo_core::{InferMath, RlQvo, RlQvoConfig};
use rlqvo_graph::{io::read_graph, Graph, VertexId};
use rlqvo_matching::{
    order_variant, run_cached, run_pipeline, scheduler_stats, Candidates, EnumConfig, EnumEngine, Method, OrderCache,
    OrderingMethod, Pipeline, QueryKey, SpaceCache, TokenBudget,
};

use crate::protocol::{read_frame, write_frame, Frame, Request, Response};

/// Server configuration. `threads` is the total core budget, enforced
/// by one [`TokenBudget`] shared between request-level concurrency and
/// intra-query work-stealing enumeration — no static split.
pub struct ServeConfig {
    /// Total worker-thread budget. `threads` request workers are
    /// spawned, but only token holders run jobs; the rest of the budget
    /// is up for grabs as enumeration helper threads.
    pub threads: usize,
    /// Bound on queued (admitted, not yet running) requests. Beyond it,
    /// requests are shed with a typed `overloaded` reply.
    pub queue_depth: usize,
    /// Largest accepted request frame; bigger ones are rejected unread.
    pub max_frame_bytes: u32,
    /// Base per-request enumeration limits (`max_matches` here is the
    /// server-wide cap; requests may only lower it).
    pub enum_config: EnumConfig,
    /// `false` = serve every request down the fully cold path (the
    /// `--no-cache` proof that degradation works).
    pub use_cache: bool,
    /// Honor `inject=panic` request directives (chaos tests, and
    /// `rlqvo serve --fault-injection`).
    pub fault_injection: bool,
    /// Path to a trained model, enabling `method=rlqvo`.
    pub model_path: Option<String>,
    /// Micro-batch size: a worker that picks up a `match` job gathers up
    /// to `batch - 1` more from the queue (waiting at most 100 µs for
    /// stragglers) and pre-stages their RL-QVO orders in one `order_many`
    /// pass — one episode after another over one warm inference scratch.
    /// Clamped to 64. `1` (the default) disables gathering entirely.
    pub batch: usize,
    /// Serve `method=rlqvo` orders with the opt-in fast-math kernels
    /// (`InferMath::Fast`): FMA + blocked reductions, tolerance-bounded
    /// instead of bitwise, keyed separately in the order cache.
    pub fast_math: bool,
    /// Byte bound on the candidate-space cache (`None` = unbounded).
    pub space_cache_bytes: Option<usize>,
    /// Byte bound on the ordering cache (`None` = unbounded).
    pub order_cache_bytes: Option<usize>,
    /// Watchdog wedge threshold: a worker whose heartbeat counter stops
    /// advancing for longer than this is retired and replaced (counted
    /// in `worker_restarts`). The counter ticks at every queue pickup
    /// *and* every 1024 enumeration calls, so a long-but-healthy request
    /// keeps beating and this threshold may sit well below the longest
    /// enumeration the deployment allows — it only needs to exceed the
    /// longest *gap between ticks* (one cadence window, plus model
    /// inference for `method=rlqvo`). `None` (the default) restarts only
    /// *dead* workers.
    pub stall_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_depth: 64,
            max_frame_bytes: 4 * 1024 * 1024,
            enum_config: EnumConfig {
                max_matches: 100_000,
                time_limit: Duration::from_secs(300),
                ..EnumConfig::default()
            },
            use_cache: true,
            fault_injection: false,
            model_path: None,
            batch: 1,
            fast_math: false,
            space_cache_bytes: None,
            order_cache_bytes: None,
            stall_timeout: None,
        }
    }
}

/// Cap on tracked micro-batch sizes (and thus `batch_size_*` counters).
const MAX_BATCH: usize = 64;

/// Counters the `metrics` request reports. All monotonic.
#[derive(Default)]
struct Metrics {
    served: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    deadline_exceeded: AtomicU64,
    flushes: AtomicU64,
    /// Workers the supervisor replaced (dead or wedged).
    worker_restarts: AtomicU64,
}

/// State shared by the accept loop, connection threads, and workers.
pub struct ServerState {
    g: Arc<Graph>,
    space: SpaceCache,
    orders: OrderCache,
    model: Option<RlQvo>,
    metrics: Metrics,
    /// Request-facing switches, fixed at start.
    use_cache: bool,
    fault_injection: bool,
    fast_math: bool,
    base_config: EnumConfig,
    /// `batch_occupancy[n-1]` counts micro-batches that ran with exactly
    /// `n` jobs (length = configured batch size).
    batch_occupancy: Vec<AtomicU64>,
    /// Raised by `shutdown`: accept loop, idle connections, and drained
    /// workers exit; in-flight enumerations cancel cooperatively via
    /// `cancel` (each still sends its typed partial reply).
    stop: AtomicBool,
    /// Leaked per-server kill switch threaded into every request's
    /// [`EnumConfig`] (one `AtomicBool` per server instance — bounded).
    cancel: &'static AtomicBool,
    /// The core budget: one token per unit of `threads`, shared between
    /// request workers (one each while running a job) and enumeration
    /// helper grants (leaked per server instance — bounded).
    tokens: &'static TokenBudget,
    /// When the server came up — the `health` uptime anchor.
    start: Instant,
    /// Pool size the supervisor maintains.
    workers_total: u64,
    /// Gauge refreshed by the supervisor each poll: workers currently
    /// live and not retired.
    workers_alive: AtomicU64,
}

impl ServerState {
    /// The warm candidate-space tier (exposed for in-process tests).
    pub fn space(&self) -> &SpaceCache {
        &self.space
    }

    /// The warm ordering tier.
    pub fn orders(&self) -> &OrderCache {
        &self.orders
    }

    /// The host graph the server answers queries against.
    pub fn host(&self) -> &Graph {
        &self.g
    }

    fn snapshot(&self) -> BTreeMap<String, u64> {
        let degraded = self.space.checksum_failures()
            + self.space.poison_recoveries()
            + self.orders.checksum_failures()
            + self.orders.poison_recoveries();
        let mut m = BTreeMap::new();
        m.insert("served".into(), self.metrics.served.load(Ordering::Relaxed));
        m.insert("shed".into(), self.metrics.shed.load(Ordering::Relaxed));
        m.insert("rejected".into(), self.metrics.rejected.load(Ordering::Relaxed));
        m.insert("errors".into(), self.metrics.errors.load(Ordering::Relaxed));
        m.insert("deadline_exceeded".into(), self.metrics.deadline_exceeded.load(Ordering::Relaxed));
        m.insert("flushes".into(), self.metrics.flushes.load(Ordering::Relaxed));
        m.insert("worker_restarts".into(), self.metrics.worker_restarts.load(Ordering::Relaxed));
        m.insert("workers_alive".into(), self.workers_alive.load(Ordering::Relaxed));
        m.insert("degraded".into(), degraded);
        let sched = scheduler_stats();
        m.insert("steals".into(), sched.steals);
        m.insert("steal_failures".into(), sched.steal_failures);
        m.insert("queue_depth".into(), sched.queue_depth);
        m.insert("space_hits".into(), self.space.hits());
        m.insert("space_misses".into(), self.space.misses());
        m.insert("space_evictions".into(), self.space.evictions());
        m.insert("space_bytes".into(), self.space.storage_bytes() as u64);
        m.insert("space_checksum_failures".into(), self.space.checksum_failures());
        m.insert("space_poison_recoveries".into(), self.space.poison_recoveries());
        m.insert("space_oversize_serves".into(), self.space.oversize_serves());
        m.insert("order_hits".into(), self.orders.hits());
        m.insert("order_misses".into(), self.orders.misses());
        m.insert("order_evictions".into(), self.orders.evictions());
        m.insert("order_bytes".into(), self.orders.storage_bytes() as u64);
        m.insert("order_checksum_failures".into(), self.orders.checksum_failures());
        m.insert("order_poison_recoveries".into(), self.orders.poison_recoveries());
        for (i, c) in self.batch_occupancy.iter().enumerate() {
            m.insert(format!("batch_size_{}", i + 1), c.load(Ordering::Relaxed));
        }
        m
    }

    /// The `health` report: liveness only, cheap enough to answer from a
    /// connection thread while every worker is busy or wedged.
    fn health_snapshot(&self) -> BTreeMap<String, u64> {
        let degraded = self.space.checksum_failures()
            + self.space.poison_recoveries()
            + self.orders.checksum_failures()
            + self.orders.poison_recoveries();
        let mut m = BTreeMap::new();
        m.insert("uptime_ms".into(), self.start.elapsed().as_millis() as u64);
        m.insert("workers_total".into(), self.workers_total);
        m.insert("workers_alive".into(), self.workers_alive.load(Ordering::Relaxed));
        m.insert("worker_restarts".into(), self.metrics.worker_restarts.load(Ordering::Relaxed));
        m.insert("degraded".into(), degraded);
        m.insert("shed".into(), self.metrics.shed.load(Ordering::Relaxed));
        m.insert("errors".into(), self.metrics.errors.load(Ordering::Relaxed));
        m
    }

    fn observe_batch(&self, n: usize) {
        if let Some(c) = self.batch_occupancy.get(n.saturating_sub(1)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One admitted `match` request, queued for a worker.
struct Job {
    deadline: Option<Instant>,
    max_matches: Option<u64>,
    method: Option<String>,
    engine: Option<String>,
    inject: Option<String>,
    query_text: String,
    reply: SyncSender<Response>,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send a `shutdown` request and
/// [`ServerHandle::wait`]).
pub struct Server;

pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    /// The worker pool's keeper — owns every worker handle (including
    /// retired ones) and joins them all before exiting itself.
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds an ephemeral local port against `g` (the CLI loads it from
    /// `--data`; tests build it in process), spawns
    /// the accept loop and the worker pool, and returns the handle.
    pub fn start(config: ServeConfig, g: Arc<Graph>) -> std::io::Result<ServerHandle> {
        let model = match &config.model_path {
            Some(p) => Some(
                RlQvo::load(p, RlQvoConfig::harness())
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("model: {e}")))?,
            ),
            None => None,
        };
        // One worker slot per token: every slot can run a request when
        // the others are idle, and the token budget (not slot count)
        // bounds actual concurrency, so enumeration helper grants and
        // request admission trade off against each other dynamically.
        let query_workers = config.threads.max(1);
        let tokens = TokenBudget::leaked(query_workers);
        let per_request = config
            .enum_config
            .with_threads(config.enum_config.threads.clamp(1, query_workers))
            .with_pool_tokens(tokens);
        let batch = config.batch.clamp(1, MAX_BATCH);
        let state = Arc::new(ServerState {
            g,
            space: match config.space_cache_bytes {
                Some(b) => SpaceCache::with_capacity_bytes(b),
                None => SpaceCache::new(),
            },
            orders: match config.order_cache_bytes {
                Some(b) => OrderCache::with_capacity_bytes(b),
                None => OrderCache::new(),
            },
            model,
            metrics: Metrics::default(),
            use_cache: config.use_cache,
            fault_injection: config.fault_injection,
            fast_math: config.fast_math,
            base_config: per_request,
            batch_occupancy: (0..batch).map(|_| AtomicU64::new(0)).collect(),
            stop: AtomicBool::new(false),
            cancel: Box::leak(Box::new(AtomicBool::new(false))),
            tokens,
            start: Instant::now(),
            workers_total: query_workers as u64,
            workers_alive: AtomicU64::new(query_workers as u64),
        });

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));

        let slots: Vec<WorkerSlot> = (0..query_workers).map(|_| spawn_worker(&state, &job_rx, batch)).collect();
        let supervisor = {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&job_rx);
            let stall = config.stall_timeout;
            std::thread::spawn(move || supervisor_loop(&state, &rx, batch, slots, stall))
        };

        let accept = {
            let state = Arc::clone(&state);
            let max_frame = config.max_frame_bytes.min(crate::protocol::MAX_FRAME_BYTES);
            std::thread::spawn(move || accept_loop(&state, &listener, &job_tx, max_frame))
        };

        Ok(ServerHandle { addr, state, accept: Some(accept), supervisor: Some(supervisor) })
    }
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state — cache tier, metrics — for in-process callers
    /// (tests).
    pub fn shared(&self) -> &ServerState {
        &self.state
    }

    /// Connects a new client stream to this server.
    pub fn connect(&self) -> std::io::Result<TcpStream> {
        TcpStream::connect(self.addr)
    }

    /// Stops the server: raises the stop flag and the cooperative cancel
    /// switch (in-flight requests finish with typed partial replies),
    /// then joins the accept loop and the drained worker pool.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        self.state.cancel.store(true, Ordering::Relaxed);
        self.join_all();
    }

    /// Blocks until a `shutdown` request stops the server, then joins.
    pub fn wait(mut self) {
        while !self.state.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join(); // joins every worker, retired ones included
        }
    }
}

/// One supervised worker: its thread, its heartbeat counter (ticked at
/// every queue pickup, token wait, and — through [`EnumConfig`]'s
/// `heartbeat` hook — every 1024 enumeration calls), and the retirement
/// flag the watchdog raises to tell a wedged worker — if it ever wakes —
/// that a replacement took its place and it must exit without touching
/// the queue again. `last_beat`/`last_change` are the supervisor's
/// private view of the counter: the watchdog fires on *no advancement*
/// for `stall_timeout`, not on any wall-clock comparison, so the counter
/// needs no epoch and never wraps meaningfully.
struct WorkerSlot {
    handle: JoinHandle<()>,
    /// Leaked so the engine's `&'static` heartbeat hook can tick it from
    /// inside enumeration (8 bytes per spawn, bounded by restarts).
    heartbeat: &'static AtomicU64,
    retired: Arc<AtomicBool>,
    /// Counter value at the supervisor's last poll.
    last_beat: u64,
    /// When the supervisor last saw the counter move.
    last_change: Instant,
}

fn spawn_worker(state: &Arc<ServerState>, rx: &Arc<Mutex<Receiver<Job>>>, batch: usize) -> WorkerSlot {
    let heartbeat: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    let retired = Arc::new(AtomicBool::new(false));
    let handle = {
        let state = Arc::clone(state);
        let rx = Arc::clone(rx);
        let retired = Arc::clone(&retired);
        std::thread::spawn(move || worker_loop(&state, &rx, batch, heartbeat, &retired))
    };
    WorkerSlot { handle, heartbeat, retired, last_beat: 0, last_change: Instant::now() }
}

/// How often the supervisor takes the pool's pulse.
const SUPERVISE_TICK: Duration = Duration::from_millis(25);

/// The self-healing loop. Two failure modes, two detectors:
///
/// * **Dead** — the thread finished outside shutdown (a panic escaped
///   the per-request fence, e.g. the queue-pickup failpoints). Detected
///   by [`JoinHandle::is_finished`]; the corpse is joined and a fresh
///   worker takes the slot.
/// * **Wedged** — the thread is alive but its heartbeat counter has not
///   advanced for `stall_timeout` (opt-in; `None` disables). Because the
///   counter also ticks inside enumeration, a worker deep in a long
///   healthy request keeps advancing and is never confused with a
///   genuinely stuck one. The worker is *retired*,
///   not killed — Rust has no safe thread kill — and a replacement is
///   spawned beside it. A retired worker that wakes sees its flag,
///   abandons its picked-up jobs (their reply senders drop, so each
///   connection still gets a typed `worker lost` reply — exactly-one
///   holds) and exits; the supervisor keeps its corpse in `retired`
///   until shutdown, where every handle is joined.
///
/// Either way `worker_restarts` counts the replacement. At shutdown the
/// supervisor respawns nothing and joins everything, so a server that
/// came up under chaos still winds down clean.
fn supervisor_loop(
    state: &Arc<ServerState>,
    rx: &Arc<Mutex<Receiver<Job>>>,
    batch: usize,
    mut slots: Vec<WorkerSlot>,
    stall_timeout: Option<Duration>,
) {
    let mut retired: Vec<WorkerSlot> = Vec::new();
    while !state.stop.load(Ordering::Relaxed) {
        std::thread::sleep(SUPERVISE_TICK);
        for slot in &mut slots {
            let dead = slot.handle.is_finished();
            let beat = slot.heartbeat.load(Ordering::Relaxed);
            if beat != slot.last_beat {
                slot.last_beat = beat;
                slot.last_change = Instant::now();
            }
            let wedged = !dead && stall_timeout.is_some_and(|t| slot.last_change.elapsed() > t);
            if !(dead || wedged) {
                continue;
            }
            if state.stop.load(Ordering::Relaxed) {
                break; // no replacements during wind-down
            }
            slot.retired.store(true, Ordering::Relaxed);
            let old = std::mem::replace(slot, spawn_worker(state, rx, batch));
            if dead {
                let _ = old.handle.join(); // collect the panic payload
            } else {
                retired.push(old); // still running; joined at shutdown
            }
            state.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
        }
        let alive = slots.iter().filter(|s| !s.handle.is_finished()).count() as u64;
        state.workers_alive.store(alive, Ordering::Relaxed);
    }
    for slot in slots {
        let _ = slot.handle.join(); // active workers drain the queue and exit
    }
    for slot in retired {
        // A retired worker that woke up has exited; one that is *still*
        // wedged at shutdown would block the join forever, so it is
        // detached instead — it owns no queue jobs and the process is
        // going down anyway.
        if slot.handle.is_finished() {
            let _ = slot.handle.join();
        }
    }
    state.workers_alive.store(0, Ordering::Relaxed);
}

fn accept_loop(state: &Arc<ServerState>, listener: &TcpListener, job_tx: &SyncSender<Job>, max_frame: u32) {
    loop {
        if state.stop.load(Ordering::Relaxed) {
            return; // drops this job_tx; workers drain and exit
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let state = Arc::clone(state);
                let tx = job_tx.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(&state, stream, &tx, max_frame);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn is_poll_tick(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// `read_exact` that rides out the connection's 100ms poll timeout once
/// a frame has started arriving: mid-frame, a timeout means the sender
/// is slow, not idle — only `stop` abandons it.
fn read_exact_patient(state: &ServerState, stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut n = 0;
    while n < buf.len() {
        match stream.read(&mut buf[n..]) {
            Ok(0) => return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof mid-frame")),
            Ok(k) => n += k,
            Err(e) if is_poll_tick(&e) => {
                if state.stop.load(Ordering::Relaxed) {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Server-side frame read over a socket with a poll timeout: *between*
/// frames a timeout is an idle tick (checked against `stop`); *inside* a
/// frame it defers to [`read_exact_patient`].
fn read_frame_patient(state: &ServerState, stream: &mut TcpStream, max_len: u32) -> std::io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    let first = loop {
        match stream.read(&mut len_buf) {
            Ok(0) => return Ok(Frame::Eof),
            Ok(k) => break k,
            Err(e) if is_poll_tick(&e) => {
                if state.stop.load(Ordering::Relaxed) {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    };
    read_exact_patient(state, stream, &mut len_buf[first..])?;
    let len = u32::from_le_bytes(len_buf);
    if len > max_len {
        return Ok(Frame::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_patient(state, stream, &mut payload)?;
    Ok(Frame::Msg(payload))
}

/// One connection, lockstep: read a frame, answer it, repeat. Control
/// requests are answered inline; `match` requests go through admission.
fn serve_connection(
    state: &Arc<ServerState>,
    mut stream: TcpStream,
    job_tx: &SyncSender<Job>,
    max_frame: u32,
) -> std::io::Result<()> {
    // The idle read times out so the thread can notice `stop`.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    loop {
        let payload = match read_frame_patient(state, &mut stream, max_frame)? {
            Frame::Msg(p) => p,
            Frame::Eof => return Ok(()),
            Frame::Oversized(len) => {
                // The declared payload was never read, so the stream is
                // out of sync: typed reject, then close.
                state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                let r = Response::Rejected { reason: format!("oversized frame of {len} bytes") };
                let _ = write_frame(&mut stream, r.to_text().as_bytes());
                return Ok(());
            }
        };
        let arrival = Instant::now();
        let request = match std::str::from_utf8(&payload).map_err(|_| "not utf8".to_string()).and_then(Request::parse) {
            Ok(r) => r,
            Err(reason) => {
                state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                write_frame(&mut stream, Response::Rejected { reason }.to_text().as_bytes())?;
                continue;
            }
        };
        let (response, is_match) = match request {
            Request::Ping => (Response::Pong, false),
            Request::Metrics => (Response::Metrics(state.snapshot()), false),
            // Liveness must answer even when every worker is busy or
            // wedged, so it never goes near the admission queue.
            Request::Health => (Response::Health(state.health_snapshot()), false),
            Request::Flush => {
                state.space.clear();
                state.orders.clear();
                state.metrics.flushes.fetch_add(1, Ordering::Relaxed);
                (Response::Metrics(state.snapshot()), false)
            }
            Request::Shutdown => {
                state.stop.store(true, Ordering::Relaxed);
                state.cancel.store(true, Ordering::Relaxed);
                write_frame(&mut stream, Response::Bye.to_text().as_bytes())?;
                return Ok(());
            }
            Request::Match { deadline_ms, max_matches, method, engine, inject, query_text } => {
                let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
                let job = Job {
                    // Anchored at arrival: queue wait counts.
                    deadline: deadline_ms.map(|ms| arrival + Duration::from_millis(ms)),
                    max_matches,
                    method,
                    engine,
                    inject,
                    query_text,
                    reply: reply_tx,
                };
                // Chaos hook: hold the request at the admission door
                // (deadlines keep ticking — they are anchored at arrival).
                if let Some(f) = rlqvo_fault::failpoint!("serve.admission.stall") {
                    f.sleep();
                }
                let resp = match job_tx.try_send(job) {
                    Ok(()) => reply_rx.recv().unwrap_or(Response::InternalError { reason: "worker lost".into() }),
                    Err(TrySendError::Full(_)) => {
                        state.metrics.shed.fetch_add(1, Ordering::Relaxed);
                        Response::Overloaded
                    }
                    Err(TrySendError::Disconnected(_)) => Response::InternalError { reason: "shutting down".into() },
                };
                (resp, true)
            }
        };
        // Chaos hook: the reply for a `match` was computed but never
        // reaches the wire — the connection dies instead, the way a
        // mid-write network fault looks to a client. Control verbs stay
        // reliable so probes and shutdown work under this fault. This is
        // the one fault a client can't tell from success without
        // idempotent retries — exactly what [`crate::client`] provides.
        if is_match && rlqvo_fault::failpoint!("serve.reply.write_fail").is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "failpoint serve.reply.write_fail: reply dropped, connection closed",
            ));
        }
        write_frame(&mut stream, response.to_text().as_bytes())?;
    }
}

/// How long a worker that already holds one job waits for micro-batch
/// stragglers before running what it has.
const GATHER_WINDOW: Duration = Duration::from_micros(100);

/// Releases worker tokens on every exit path — including a panic that
/// escapes the per-request fence (e.g. inside [`prestage_orders`]), so a
/// respawned worker never finds the budget leaked away.
struct TokenGuard<'a>(&'a TokenBudget, usize);

impl Drop for TokenGuard<'_> {
    fn drop(&mut self) {
        self.0.release(self.1);
    }
}

fn worker_loop(
    state: &Arc<ServerState>,
    rx: &Arc<Mutex<Receiver<Job>>>,
    batch: usize,
    heartbeat: &'static AtomicU64,
    retired: &AtomicBool,
) {
    let mut jobs: Vec<Job> = Vec::with_capacity(batch);
    loop {
        if retired.load(Ordering::Relaxed) {
            return; // a replacement owns this slot; don't touch the queue
        }
        heartbeat.fetch_add(1, Ordering::Relaxed);
        jobs.clear();
        // Hold the receiver lock only for the pickup (including the
        // bounded gather window), never the work.
        {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            match guard.recv_timeout(Duration::from_millis(50)) {
                Ok(job) => {
                    jobs.push(job);
                    // Micro-batch gather: take whatever is already queued
                    // and wait at most GATHER_WINDOW for stragglers. With
                    // `batch = 1` the loop body never runs — zero added
                    // latency.
                    let window = Instant::now();
                    while jobs.len() < batch {
                        match guard.try_recv() {
                            Ok(j) => jobs.push(j),
                            Err(TryRecvError::Empty) => {
                                if window.elapsed() >= GATHER_WINDOW {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            Err(TryRecvError::Disconnected) => break,
                        }
                    }
                }
                // Only exit on an *empty* queue after stop: admitted
                // requests are never dropped, even across shutdown.
                Err(RecvTimeoutError::Timeout) => {
                    if state.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        heartbeat.fetch_add(1, Ordering::Relaxed);
        // Failpoints at the most hostile moment: jobs picked up, replies
        // owed, *outside* the per-request unwind fence. A panic here
        // drops every reply sender (each connection synthesizes a typed
        // `worker lost` reply) and kills the thread — the supervisor's
        // dead-worker path. The wedge just sleeps; with a watchdog armed
        // the slot is retired and the check below abandons the jobs the
        // same way.
        if rlqvo_fault::failpoint!("serve.worker.panic").is_some() {
            panic!("failpoint serve.worker.panic: dying with {} job(s) picked up", jobs.len());
        }
        if let Some(f) = rlqvo_fault::failpoint!("serve.worker.wedge") {
            f.sleep();
        }
        if retired.load(Ordering::Relaxed) {
            // Wedged long enough to be replaced: dropping `jobs` closes
            // the reply channels, so every owed reply is still made —
            // typed, by the connection threads.
            return;
        }
        // The core-budget gate: one token buys the right to run this
        // batch. While another request's enumeration has the budget
        // borrowed as helper threads, wait — ticking the heartbeat, so
        // the watchdog can tell a token wait from a wedge — and honor
        // retirement (dropped jobs still yield typed `worker lost`
        // replies, exactly as on the wedge path above).
        let token = loop {
            let got = state.tokens.try_acquire(1);
            if got > 0 {
                break TokenGuard(state.tokens, got);
            }
            if retired.load(Ordering::Relaxed) {
                return;
            }
            // Not checked against `stop`: admitted requests are never
            // dropped, and every token holder makes progress even during
            // shutdown (enumerations poll `cancel`), so the wait is
            // bounded.
            heartbeat.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
        };
        state.observe_batch(jobs.len());
        if jobs.len() > 1 {
            prestage_orders(state, &jobs);
        }
        for job in &jobs {
            let response = handle_match(state, job, heartbeat);
            // A vanished client is its problem; the reply was made.
            let _ = job.reply.send(response);
        }
        drop(token);
        heartbeat.fetch_add(1, Ordering::Relaxed);
    }
}

/// The micro-batch pre-stage: one pass over the gathered queries
/// ([`RlQvoOrdering::order_many`][rlqvo_core::RlQvoOrdering]) warms the
/// [`OrderCache`] for every gathered `method=rlqvo` job that would
/// otherwise run its ordering episode alone, so the per-job
/// [`handle_match`] path — unchanged — finds the order already resident.
///
/// Jobs that cannot benefit are left untouched for the per-job path to
/// handle: non-rlqvo methods, disabled cache, fault-injection directives
/// (those must fail *inside* their own request), already-expired
/// deadlines (those must report zero work), unparsable queries (typed
/// reject), and queries whose order is already cached.
fn prestage_orders(state: &ServerState, jobs: &[Job]) {
    if !state.use_cache {
        return;
    }
    let Some(model) = &state.model else { return };
    let mut ordering = model.ordering();
    if state.fast_math {
        ordering = ordering.with_math(InferMath::Fast);
    }
    // The rlqvo path always filters with Hybrid's filter (see
    // handle_match), so the variant key is fixed for the whole batch.
    let variant = order_variant(&ordering, Method::hybrid().filter);
    let now = Instant::now();
    let mut targets: Vec<(Graph, QueryKey)> = Vec::new();
    for job in jobs {
        if job.method.as_deref() != Some("rlqvo") || job.inject.is_some() {
            continue;
        }
        if job.deadline.is_some_and(|d| now >= d) {
            continue;
        }
        let Ok(q) = read_graph(job.query_text.as_bytes(), Some(state.g.num_labels())) else {
            continue;
        };
        let key = QueryKey::of(&q);
        if state.orders.contains(&key, &variant) || targets.iter().any(|(_, k)| k.fingerprint() == key.fingerprint()) {
            continue; // resident, or a duplicate within this batch
        }
        targets.push((q, key));
    }
    if targets.is_empty() {
        return;
    }
    let queries: Vec<&Graph> = targets.iter().map(|(q, _)| q).collect();
    let orders = ordering.order_many(&queries, &state.g);
    for ((q, key), order) in targets.iter().zip(orders) {
        // A concurrent worker may have filled the slot meanwhile;
        // get_or_compute then drops our copy — same order either way.
        state.orders.get_or_compute_keyed(key, &variant, q, move || order);
    }
}

/// Runs one admitted `match` request and produces its typed response.
/// Never panics out: the engine call is fenced with `catch_unwind`.
/// `heartbeat` is the owning worker's liveness counter, threaded into
/// the engine so it keeps ticking on the 1024-call cadence for the whole
/// enumeration.
fn handle_match(state: &ServerState, job: &Job, heartbeat: &'static AtomicU64) -> Response {
    // Deadline re-check at pickup: a request that aged out in the queue
    // reports zero work done, which is the truth.
    if let Some(d) = job.deadline {
        if Instant::now() >= d {
            state.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            return Response::DeadlineExceeded { matches: 0, enums: 0, micros: 0 };
        }
    }

    let reject = |reason: String| {
        state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        Response::Rejected { reason }
    };
    let q = match read_graph(job.query_text.as_bytes(), Some(state.g.num_labels())) {
        Ok(q) => q,
        Err(e) => return reject(format!("bad query graph: {e}")),
    };

    let name = job.method.as_deref().unwrap_or("hybrid");
    let learned;
    let method = match (Method::by_cli_name(name), name, &state.model) {
        (Some(m), _, _) => m,
        (None, "rlqvo", Some(model)) => {
            learned = if state.fast_math { model.ordering().with_math(InferMath::Fast) } else { model.ordering() };
            Method::learned(&learned)
        }
        (None, "rlqvo", None) => return reject("no model loaded (start with --model)".into()),
        (None, other, _) => return reject(format!("unknown method {other:?}")),
    };

    let mut config = state.base_config;
    if let Some(cap) = job.max_matches {
        // Requests may only tighten the server-wide cap.
        config.max_matches = cap.min(config.max_matches);
    }
    if let Some(e) = &job.engine {
        match EnumEngine::parse(e) {
            Some(eng) => config.engine = eng,
            None => return reject(format!("unknown engine {e:?}")),
        }
    }
    if let Some(d) = job.deadline {
        config = config.with_deadline(d);
    }
    config = config.with_cancel_flag(state.cancel).with_heartbeat(heartbeat);

    // `inject=panic` swaps in an ordering that dies when asked to order:
    // inside the order-cache fill on the warm path, the most hostile point
    // (see [`InjectedPanic`]).
    let inject_panic = state.fault_injection && job.inject.as_deref() == Some("panic");
    let injected = InjectedPanic(method.ordering);
    let ordering = if inject_panic { &injected } else { method.ordering };
    let pipeline = Pipeline { filter: method.filter, ordering, config };

    // The engine fence. `AssertUnwindSafe` is justified: the only shared
    // structures a panic can abandon mid-write are the caches, and those
    // recover from lock poisoning by design (counted, tested).
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let run = if state.use_cache {
            run_cached(&q, &state.g, &pipeline, &QueryKey::of(&q), &state.space, Some(&state.orders))
        } else {
            (run_pipeline(&q, &state.g, &pipeline), false, false)
        };
        if inject_panic {
            // The order was already cached, so nothing asked the ordering:
            // still honor the directive so injected requests fail
            // deterministically.
            panic!("injected fault (warm hit)");
        }
        run
    }));
    let micros = t0.elapsed().as_micros() as u64;

    match outcome {
        Ok((r, hit_space, hit_order)) => {
            // The request's deadline and the server's `time_limit` both
            // cut the enumeration short: either way the counts are partial.
            if r.enum_result.cancelled || r.enum_result.timed_out {
                state.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                Response::DeadlineExceeded {
                    matches: r.enum_result.match_count,
                    enums: r.enum_result.enumerations,
                    micros,
                }
            } else {
                state.metrics.served.fetch_add(1, Ordering::Relaxed);
                Response::Ok {
                    matches: r.enum_result.match_count,
                    enums: r.enum_result.enumerations,
                    micros,
                    hit_space,
                    hit_order,
                }
            }
        }
        Err(_) => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            Response::InternalError { reason: "panic".into() }
        }
    }
}

/// The `inject=panic` ordering: same cache identity as the method it
/// stands in for, but asking it for an order panics. On the warm path that
/// is mid-fill, with a cache residency open — the `OnceLock` cell stays
/// uninitialized (the next lookup retries) and no shard lock is held, so
/// nothing poisons and the panic costs exactly one request.
struct InjectedPanic<'a>(&'a dyn OrderingMethod);

impl OrderingMethod for InjectedPanic<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn order(&self, _: &Graph, _: &Graph, _: &Candidates) -> Vec<VertexId> {
        panic!("injected fault (order fill)");
    }

    fn cache_key(&self) -> String {
        self.0.cache_key()
    }
}

/// Blocking client helper: one request frame out, one response frame
/// back. Shared by the retry client, the benchmark ledger and the tests.
pub fn roundtrip<S: Read + Write>(stream: &mut S, req: &Request) -> std::io::Result<Response> {
    write_frame(stream, req.to_text().as_bytes())?;
    loop {
        match read_frame(stream, crate::protocol::MAX_FRAME_BYTES) {
            Ok(Frame::Msg(p)) => {
                let text = String::from_utf8(p)
                    .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad utf8"))?;
                return Response::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
            }
            Ok(Frame::Oversized(_)) | Ok(Frame::Eof) => {
                return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed"))
            }
            // The server applies a 100ms idle read timeout; clients using
            // blocking sockets don't set one, but tolerate it if set.
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
    }
}
