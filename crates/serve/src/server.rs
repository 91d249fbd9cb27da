//! The fault-tolerant serving loop.
//!
//! One [`Server`] owns a warm cache tier — a [`SpaceCache`], an
//! [`OrderCache`], and (optionally) a loaded RL-QVO policy — shared by its
//! connection threads. A connection thread reads a frame and answers it
//! itself: a `match` runs to completion on the thread that read it, with
//! no hand-off to a worker and no reply channel, so a request costs the
//! client's two context switches and no more. `threads` is the *total*
//! core budget, tracked by one [`TokenBudget`]: a running request holds
//! one token, and the work-stealing enumeration inside it borrows whatever
//! tokens are left for the helper threads it spawns for that one
//! enumeration. An idle server gives one request the whole budget, a
//! saturated one runs `threads` requests at once — and nothing deadlocks,
//! because token waits are on the *outside* of enumeration, never inside
//! it.
//!
//! A connection thread whose client hangs up parks for the next accepted
//! stream instead of exiting, so a server spawns as many connection
//! threads as it ever had connections open at once, not one per
//! connection (`conn_threads` in `metrics`); parked threads exit on
//! `stop`. The accept loop blocks in `accept`; stopping wakes it with one
//! connection to itself.
//!
//! The robustness contract, in order of the request lifecycle:
//!
//! 1. **Admission control.** A request that finds no free token waits
//!    for one, and at most `queue_depth` requests wait at a time: one
//!    more is shed with a typed `overloaded` reply — never a silent drop,
//!    never an unbounded backlog.
//! 2. **Deadlines.** `deadline_ms` is anchored at *arrival*, so the token
//!    wait counts against it. The deadline is re-checked once the token is
//!    held, and the enumeration engine polls it cooperatively on its
//!    1024-call cadence ([`EnumConfig::with_deadline`]); an expired request
//!    returns its partial counts as `deadline ...`, not an error.
//! 3. **Fault isolation.** Each request runs under two `catch_unwind`
//!    fences. A panic inside the engine call yields a typed
//!    `error reason=panic`; one anywhere else in the request — the
//!    `serve.worker.panic` failpoint fires at pickup, outside the engine
//!    fence — yields `error reason=worker_lost` and counts in
//!    `worker_restarts`. Either way the connection thread, the server and
//!    the cache tier stay up. The caches recover from lock poisoning (they
//!    drop every resident, which refills on its next lookup), so even a
//!    panic while a cache lock is held is survivable.
//! 4. **Graceful degradation.** A cache miss falls back to on-the-fly
//!    filtering/ordering; every hit is checksum-verified, in every build
//!    profile, and a mismatch evicts the liar and recomputes (counted in
//!    the `degraded` metric). `use_cache = false` serves every request
//!    down the fully cold path — the flag that *proves* the degraded path
//!    works end to end.
//! 5. **Self-healing.** With [`ServeConfig::stall_timeout`] set, a
//!    watchdog thread watches the heartbeat of every running request. The
//!    heartbeat is a counter ticked at pickup, through the token wait, and
//!    inside the engine's 1024-call cadence ([`EnumConfig`]'s `heartbeat`
//!    hook), so a long-but-healthy enumeration keeps beating and the
//!    threshold can sit far below the longest legitimate request. A
//!    request whose heartbeat stops advancing for longer than the timeout
//!    is *retired* — Rust has no safe thread kill — and counted in
//!    `worker_restarts`; when it wakes (after the pickup wedge, or in the
//!    token wait) it answers `error reason=worker_lost` and its thread
//!    serves on. `workers_alive` is `threads` less the tokens that retired
//!    requests still hold. The `health` verb is answered on its own
//!    connection thread, so it reports liveness whatever the running
//!    requests are doing.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlqvo_core::{InferMath, RlQvo, RlQvoConfig};
use rlqvo_graph::{io::read_graph, Graph, VertexId};
use rlqvo_matching::{
    run_cached, run_pipeline, scheduler_stats, Candidates, EnumConfig, EnumEngine, Method, OrderCache, OrderingMethod,
    Pipeline, QueryKey, SpaceCache, TokenBudget,
};

use crate::protocol::{read_frame, write_frame, Frame, Request, Response};

/// Server configuration. `threads` is the total core budget, enforced
/// by one [`TokenBudget`] shared between request-level concurrency and
/// intra-query work-stealing enumeration — no static split.
pub struct ServeConfig {
    /// Total core budget, in tokens. A running request holds one, so at
    /// most `threads` requests run at once; whatever is left is up for
    /// grabs as enumeration helper threads.
    pub threads: usize,
    /// Bound on requests waiting for a token (admitted, not yet running).
    /// Beyond it, requests are shed with a typed `overloaded` reply.
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
    /// Requests per dispatch. Each request runs alone on the connection
    /// thread that read it, so `1` is the only value served;
    /// [`Server::start`] refuses any other with `InvalidInput`.
    pub batch: usize,
    /// Serve `method=rlqvo` orders with the opt-in fast-math kernels
    /// (`InferMath::Fast`): FMA + blocked reductions, tolerance-bounded
    /// instead of bitwise, keyed separately in the order cache.
    pub fast_math: bool,
    /// Byte bound on the candidate-space cache (`None` = unbounded).
    pub space_cache_bytes: Option<usize>,
    /// Byte bound on the ordering cache (`None` = unbounded).
    pub order_cache_bytes: Option<usize>,
    /// Watchdog wedge threshold: a running request whose heartbeat
    /// counter stops advancing for longer than this is retired (counted
    /// in `worker_restarts`); one retired at the pickup wedge or in the
    /// token wait answers `worker_lost` when it wakes. The
    /// counter ticks at pickup, through the token wait, *and* every 1024
    /// enumeration calls, so a long-but-healthy request keeps beating and
    /// this threshold may sit well below the longest enumeration the
    /// deployment allows — it only needs to exceed the longest *gap
    /// between ticks* (one cadence window, plus model inference for
    /// `method=rlqvo`). `None` (the default) runs no watchdog.
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

/// Counters the `metrics` request reports. All monotonic.
#[derive(Default)]
struct Metrics {
    served: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    deadline_exceeded: AtomicU64,
    flushes: AtomicU64,
    /// Requests lost to a panic outside the engine fence or retired by
    /// the watchdog.
    worker_restarts: AtomicU64,
}

/// One connection thread's request slot, as the watchdog sees it.
/// Leaked, one per connection thread ever spawned, so the engine's
/// `&'static` heartbeat hook can point into it.
#[derive(Default)]
struct Lane {
    /// Ticked at pickup, through the token wait, and — through
    /// [`EnumConfig`]'s `heartbeat` hook — every 1024 enumeration calls.
    heartbeat: AtomicU64,
    /// Whether the running request holds a core token.
    token: AtomicBool,
    /// Changed only under this lock, so the watchdog never retires a
    /// request that ended between its look at the heartbeat and its
    /// verdict.
    state: Mutex<LaneState>,
}

#[derive(Clone, Copy, Default)]
struct LaneState {
    running: bool,
    retired: bool,
}

impl Lane {
    fn state(&self) -> MutexGuard<'_, LaneState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }

    /// A request is picked up: running, not retired, and one beat.
    fn begin(&self) {
        *self.state() = LaneState { running: true, retired: false };
        self.beat();
    }

    fn end(&self) {
        *self.state() = LaneState::default();
    }

    fn retired(&self) -> bool {
        self.state().retired
    }
}

/// State shared by the accept loop, the connection threads and the
/// watchdog.
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
    /// Most requests that may wait for a token at once.
    queue_depth: usize,
    /// Requests waiting for a token right now: the admission count.
    waiting: AtomicUsize,
    /// Raised by `shutdown`: the accept loop, idle and parked connection
    /// threads exit; in-flight enumerations cancel cooperatively via
    /// `cancel` (each still sends its typed partial reply).
    stop: AtomicBool,
    /// Leaked per-server kill switch threaded into every request's
    /// [`EnumConfig`] (one `AtomicBool` per server instance — bounded).
    cancel: &'static AtomicBool,
    /// The core budget: one token per unit of `threads`, shared between
    /// running requests (one each) and enumeration helper grants (leaked
    /// per server instance — bounded).
    tokens: &'static TokenBudget,
    /// When the server came up — the `health` uptime anchor.
    start: Instant,
    /// The token budget, as `health` reports it.
    workers_total: u64,
    /// Every connection thread's lane, in spawn order; never shrinks.
    lanes: Mutex<Vec<&'static Lane>>,
    /// The listener's address: stopping wakes the blocked `accept` with
    /// one connection to it.
    addr: SocketAddr,
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

    fn lanes(&self) -> MutexGuard<'_, Vec<&'static Lane>> {
        self.lanes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `threads` less the tokens held by requests the watchdog retired
    /// that are still running.
    fn workers_alive(&self) -> u64 {
        let lost = self.lanes().iter().filter(|l| l.token.load(Ordering::Relaxed) && l.state().retired).count();
        self.workers_total.saturating_sub(lost as u64)
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Raises `stop` and `cancel`, and wakes the accept loop.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.cancel.store(true, Ordering::Relaxed);
        // Refused once the listener is gone: a second stop is a no-op.
        let _ = TcpStream::connect(self.addr);
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
        m.insert("workers_alive".into(), self.workers_alive());
        m.insert("conn_threads".into(), self.lanes().len() as u64);
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
        m
    }

    /// The `health` report: liveness only, cheap enough to answer while
    /// every token is held or every request is wedged.
    fn health_snapshot(&self) -> BTreeMap<String, u64> {
        let degraded = self.space.checksum_failures()
            + self.space.poison_recoveries()
            + self.orders.checksum_failures()
            + self.orders.poison_recoveries();
        let mut m = BTreeMap::new();
        m.insert("uptime_ms".into(), self.start.elapsed().as_millis() as u64);
        m.insert("workers_total".into(), self.workers_total);
        m.insert("workers_alive".into(), self.workers_alive());
        m.insert("worker_restarts".into(), self.metrics.worker_restarts.load(Ordering::Relaxed));
        m.insert("degraded".into(), degraded);
        m.insert("shed".into(), self.metrics.shed.load(Ordering::Relaxed));
        m.insert("errors".into(), self.metrics.errors.load(Ordering::Relaxed));
        m
    }
}

/// One `match` request, as its connection thread runs it.
struct Job {
    deadline: Option<Instant>,
    max_matches: Option<u64>,
    method: Option<String>,
    engine: Option<String>,
    inject: Option<String>,
    query_text: String,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send a `shutdown` request and
/// [`ServerHandle::wait`]).
pub struct Server;

/// A connection thread and its lane.
type ConnThread = (JoinHandle<()>, &'static Lane);

pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    /// Returns every connection thread it spawned when it exits.
    accept: JoinHandle<Vec<ConnThread>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds an ephemeral local port against `g` (the CLI loads it from
    /// `--data`; tests build it in process), spawns the accept loop (and,
    /// with a `stall_timeout`, the watchdog), and returns the handle.
    pub fn start(config: ServeConfig, g: Arc<Graph>) -> std::io::Result<ServerHandle> {
        if config.batch != 1 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("batch {} (each request runs alone on its connection thread: want 1)", config.batch),
            ));
        }
        let model = match &config.model_path {
            Some(p) => Some(
                RlQvo::load(p, RlQvoConfig::harness())
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("model: {e}")))?,
            ),
            None => None,
        };
        let budget = config.threads.max(1);
        let tokens = TokenBudget::leaked(budget);
        let per_request =
            config.enum_config.with_threads(config.enum_config.threads.clamp(1, budget)).with_pool_tokens(tokens);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
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
            queue_depth: config.queue_depth.max(1),
            waiting: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            cancel: Box::leak(Box::new(AtomicBool::new(false))),
            tokens,
            start: Instant::now(),
            workers_total: budget as u64,
            lanes: Mutex::new(Vec::new()),
            addr,
        });

        let watchdog = config.stall_timeout.map(|stall| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || watchdog(&state, stall))
        });
        let accept = {
            let state = Arc::clone(&state);
            let max_frame = config.max_frame_bytes.min(crate::protocol::MAX_FRAME_BYTES);
            std::thread::spawn(move || accept_loop(&state, &listener, max_frame))
        };

        Ok(ServerHandle { addr, state, accept, watchdog })
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
    /// then joins the accept loop, the watchdog and the connection
    /// threads.
    pub fn shutdown(self) {
        self.state.stop();
        self.wait();
    }

    /// Blocks until a `shutdown` request stops the server, then joins
    /// every thread it started — except a connection thread whose
    /// request the watchdog retired and which still sleeps: joining it
    /// could block forever, so it is detached (it still answers its
    /// client if it wakes, and the process is going down anyway).
    pub fn wait(self) {
        let threads = self.accept.join().unwrap_or_default();
        if let Some(h) = self.watchdog {
            let _ = h.join();
        }
        for (handle, lane) in threads {
            let s = *lane.state();
            if !(s.running && s.retired) {
                let _ = handle.join();
            }
        }
    }
}

/// How often the watchdog takes the running requests' pulse.
const WATCH_TICK: Duration = Duration::from_millis(25);

/// The wedge detector: a running request whose heartbeat has not
/// advanced for `stall_timeout` is retired. Because the heartbeat also
/// ticks inside enumeration, a request deep in a long healthy run keeps
/// advancing and is never confused with a genuinely stuck one. Each
/// retirement counts once in `worker_restarts`.
fn watchdog(state: &ServerState, stall_timeout: Duration) {
    // Per lane: its heartbeat at the last poll, and when that last moved.
    let mut seen: Vec<(u64, Instant)> = Vec::new();
    while !state.stopping() {
        std::thread::sleep(WATCH_TICK);
        for (i, lane) in state.lanes().iter().enumerate() {
            let mut s = lane.state();
            let beat = lane.heartbeat.load(Ordering::Relaxed);
            match seen.get_mut(i) {
                Some(last) if last.0 == beat => {}
                Some(last) => *last = (beat, Instant::now()),
                None => seen.push((beat, Instant::now())),
            }
            if s.running && !s.retired && seen[i].1.elapsed() > stall_timeout {
                s.retired = true;
                state.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// How many times the accept loop yields, waiting for a connection
/// thread to park, before it spawns a new one.
const PARK_YIELDS: usize = 4;

/// Hands each accepted stream to a parked connection thread, or spawns
/// one when none is parked, until `stop`. Returns every connection
/// thread it spawned; leaving drops the hand-off sender, so each parked
/// thread wakes and exits.
fn accept_loop(state: &Arc<ServerState>, listener: &TcpListener, max_frame: u32) -> Vec<ConnThread> {
    let (hand_off, parked) = mpsc::channel::<TcpStream>();
    let parked = Arc::new(Mutex::new(parked));
    // Threads parked or about to park. A thread counts itself before it
    // blocks on `parked`, so a stream sent against the count always finds
    // a taker.
    let idle = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for stream in listener.incoming() {
        if state.stopping() {
            break; // the wake-up connection, or a client too late
        }
        let Ok(stream) = stream else {
            std::thread::sleep(Duration::from_millis(25)); // e.g. out of descriptors
            continue;
        };
        let take_idle = || idle.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)).is_ok();
        // A thread whose client just hung up may not have had the CPU to
        // see the close and park yet (the benchmark ledger pins its
        // process to one CPU): give it that turn before spawning a thread
        // beside it, whose allocations would land in a glibc arena of
        // their own.
        let parked_one = take_idle()
            || (!threads.is_empty()
                && (0..PARK_YIELDS).any(|_| {
                    std::thread::yield_now();
                    take_idle()
                }));
        if parked_one {
            let _ = hand_off.send(stream); // `parked` lives as long as this loop
            continue;
        }
        let lane: &'static Lane = Box::leak(Box::default());
        state.lanes().push(lane);
        let (state, parked, idle) = (Arc::clone(state), Arc::clone(&parked), Arc::clone(&idle));
        let handle = std::thread::spawn(move || {
            let mut next = Some(stream);
            while let Some(mut stream) = next {
                let _ = serve_connection(&state, lane, &mut stream, max_frame);
                // Idle before the stream closes: a client that sees the
                // close and reconnects finds this thread parked.
                idle.fetch_add(1, Ordering::Relaxed);
                drop(stream);
                next = parked.lock().unwrap_or_else(PoisonError::into_inner).recv().ok();
            }
        });
        threads.push((handle, lane));
    }
    threads
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
                if state.stopping() {
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
                if state.stopping() {
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

/// One connection, lockstep: read a frame, answer it, repeat — control
/// verbs and `match` requests alike, on this thread.
fn serve_connection(
    state: &ServerState,
    lane: &'static Lane,
    stream: &mut TcpStream,
    max_frame: u32,
) -> std::io::Result<()> {
    // The idle read times out so the thread can notice `stop`.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    loop {
        let payload = match read_frame_patient(state, stream, max_frame)? {
            Frame::Msg(p) => p,
            Frame::Eof => return Ok(()),
            Frame::Oversized(len) => {
                // The declared payload was never read, so the stream is
                // out of sync: typed reject, then close.
                state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                let r = Response::Rejected { reason: format!("oversized frame of {len} bytes") };
                let _ = write_frame(stream, r.to_text().as_bytes());
                return Ok(());
            }
        };
        if state.stopping() {
            // A client that keeps sending must not hold shutdown up.
            let r = Response::InternalError { reason: "shutting down".into() };
            return write_frame(stream, r.to_text().as_bytes());
        }
        let arrival = Instant::now();
        let request = match std::str::from_utf8(&payload).map_err(|_| "not utf8".to_string()).and_then(Request::parse) {
            Ok(r) => r,
            Err(reason) => {
                state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                write_frame(stream, Response::Rejected { reason }.to_text().as_bytes())?;
                continue;
            }
        };
        let (response, is_match) = match request {
            Request::Ping => (Response::Pong, false),
            Request::Metrics => (Response::Metrics(state.snapshot()), false),
            Request::Health => (Response::Health(state.health_snapshot()), false),
            Request::Flush => {
                state.space.clear();
                state.orders.clear();
                state.metrics.flushes.fetch_add(1, Ordering::Relaxed);
                (Response::Metrics(state.snapshot()), false)
            }
            Request::Shutdown => {
                state.stop();
                write_frame(stream, Response::Bye.to_text().as_bytes())?;
                return Ok(());
            }
            Request::Match { deadline_ms, max_matches, method, engine, inject, query_text } => {
                let job = Job {
                    // Anchored at arrival: the token wait counts.
                    deadline: deadline_ms.map(|ms| arrival + Duration::from_millis(ms)),
                    max_matches,
                    method,
                    engine,
                    inject,
                    query_text,
                };
                // Chaos hook: hold the request at the admission door
                // (deadlines keep ticking — they are anchored at arrival).
                if let Some(f) = rlqvo_fault::failpoint!("serve.admission.stall") {
                    f.sleep();
                }
                (run_request(state, lane, &job), true)
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
        write_frame(stream, response.to_text().as_bytes())?;
    }
}

fn worker_lost() -> Response {
    Response::InternalError { reason: "worker lost".into() }
}

/// Runs one `match` to its typed reply on the calling connection thread.
/// The outer fence: a panic outside the engine's own fence — the pickup
/// failpoint — costs this request a `worker_lost` reply, not the thread.
fn run_request(state: &ServerState, lane: &'static Lane, job: &Job) -> Response {
    lane.begin();
    let response = catch_unwind(AssertUnwindSafe(|| pick_up(state, lane, job))).unwrap_or_else(|_| {
        state.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
        worker_lost()
    });
    lane.end();
    response
}

fn pick_up(state: &ServerState, lane: &'static Lane, job: &Job) -> Response {
    // Failpoints at the most hostile moment: request picked up, reply
    // owed, outside the engine fence. The wedge just sleeps; with a
    // watchdog armed the request is retired meanwhile, and answers
    // `worker_lost` below (the watchdog booked the restart).
    if rlqvo_fault::failpoint!("serve.worker.panic").is_some() {
        panic!("failpoint serve.worker.panic: dying at request pickup");
    }
    if let Some(f) = rlqvo_fault::failpoint!("serve.worker.wedge") {
        f.sleep();
    }
    if lane.retired() {
        return worker_lost();
    }
    match acquire_token(state, lane) {
        Ok(_token) => handle_match(state, job, &lane.heartbeat),
        Err(refusal) => refusal,
    }
}

/// A held core token; releases it on every exit path.
struct TokenGuard<'a> {
    tokens: &'a TokenBudget,
    lane: &'a Lane,
}

impl Drop for TokenGuard<'_> {
    fn drop(&mut self) {
        self.lane.token.store(false, Ordering::Relaxed);
        self.tokens.release(1);
    }
}

/// The core-budget gate and admission: one token buys the right to run
/// the request. With none free the request waits — one of at most
/// `queue_depth`, or it is shed `overloaded` — ticking the heartbeat, so
/// the watchdog can tell a token wait from a wedge, and honoring
/// retirement.
fn acquire_token<'a>(state: &'a ServerState, lane: &'a Lane) -> Result<TokenGuard<'a>, Response> {
    let held = || {
        lane.token.store(true, Ordering::Relaxed);
        TokenGuard { tokens: state.tokens, lane }
    };
    if state.tokens.try_acquire(1) == 1 {
        return Ok(held());
    }
    if state.waiting.fetch_add(1, Ordering::Relaxed) >= state.queue_depth {
        state.waiting.fetch_sub(1, Ordering::Relaxed);
        state.metrics.shed.fetch_add(1, Ordering::Relaxed);
        return Err(Response::Overloaded);
    }
    // Not checked against `stop`: admitted requests are never dropped,
    // and every token holder makes progress even during shutdown
    // (enumerations poll `cancel`), so the wait is bounded.
    let outcome = loop {
        lane.beat();
        std::thread::sleep(Duration::from_millis(1));
        if state.tokens.try_acquire(1) == 1 {
            break Ok(held());
        }
        if lane.retired() {
            break Err(worker_lost());
        }
    };
    state.waiting.fetch_sub(1, Ordering::Relaxed);
    outcome
}

/// Runs one `match` request whose token is held and produces its typed
/// response. Never panics out: the engine call is fenced with
/// `catch_unwind`. `heartbeat` is the request's lane counter, threaded
/// into the engine so it keeps ticking on the 1024-call cadence for the
/// whole enumeration.
fn handle_match(state: &ServerState, job: &Job, heartbeat: &'static AtomicU64) -> Response {
    // Deadline re-check with the token held: a request that aged out in
    // the token wait reports zero work done, which is the truth.
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
/// uninitialized (the next lookup retries) and no cache lock is held, so
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
/// A read timeout set on `stream` is the caller's: it surfaces as the
/// read's `WouldBlock` / `TimedOut` error, and the stream may then hold
/// part of a frame, so it must not be read from again.
pub fn roundtrip<S: Read + Write>(stream: &mut S, req: &Request) -> std::io::Result<Response> {
    write_frame(stream, req.to_text().as_bytes())?;
    match read_frame(stream, crate::protocol::MAX_FRAME_BYTES)? {
        Frame::Msg(p) => {
            let text =
                String::from_utf8(p).map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad utf8"))?;
            Response::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        }
        Frame::Oversized(_) | Frame::Eof => {
            Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_FRAME_BYTES;

    /// A reply whose length prefix stalls half-way past the client's read
    /// timeout: the timeout reaches the caller, instead of the client
    /// retrying from inside the prefix and reading the rest as a new
    /// frame.
    #[test]
    fn a_client_read_timeout_reaches_the_caller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert!(matches!(read_frame(&mut s, MAX_FRAME_BYTES).unwrap(), Frame::Msg(_)));
            let mut frame = 4u32.to_le_bytes().to_vec();
            frame.extend_from_slice(b"pong");
            s.write_all(&frame[..2]).unwrap();
            std::thread::sleep(Duration::from_millis(200));
            // The client may have hung up by now.
            s.write_all(&frame[2..]).ok();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let err = roundtrip(&mut client, &Request::Ping).unwrap_err();
        assert!(matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut), "{err:?}");
        server.join().unwrap();
    }
}
