//! `rlqvo serve` — a fault-tolerant serving loop for repeated subgraph
//! queries against one warm host graph.
//!
//! The paper's deployment story (RL-QVO, ICDE 2022) is a *serving* one:
//! the learned ordering pays off when the same workload replays against
//! a long-lived process whose candidate spaces and matching orders are
//! already cached. This crate is that process, hardened:
//!
//! - **Requests on their connection threads** — each `match` runs to
//!   its reply on the thread that read it; a thread whose client hangs
//!   up parks for the next connection.
//! - **Admission control** — a bounded count of requests waiting for a
//!   core token; overflow is shed with a typed `overloaded` reply, never
//!   silently dropped.
//! - **Deadlines** — per-request, anchored at arrival (the token wait
//!   counts), enforced cooperatively inside the enumeration engine on
//!   its 1024-call cadence; partial counts come back as `deadline ...`.
//! - **Fault isolation** — every request runs under `catch_unwind`; a
//!   panic yields a typed `error` reply while the server and its cache
//!   tier stay up (the caches recover from lock poisoning themselves).
//! - **Graceful degradation** — cache misses recompute on the fly,
//!   checksum mismatches evict-and-recompute (the `degraded` metric),
//!   and `--no-cache` proves the fully cold path end to end.
//! - **Self-healing** — a panic at request pickup costs that request a
//!   typed `worker_lost` reply, not its thread; a watchdog retires wedged
//!   requests (both count in `worker_restarts`), and the `health` verb
//!   reports liveness without a token.
//! - **Deadline-budgeted retries** — [`client`] reconnects and retries
//!   *typed-retryable* failures with decorrelated-jitter backoff that
//!   never sleeps through the caller's deadline.
//!
//! [`protocol`] defines the length-prefixed wire format; [`server`] the
//! loop itself. `tests/chaos.rs` drives it through named fault
//! schedules, each arming the [`rlqvo_fault`] failpoint registry from a
//! `(spec, seed)` pair it replays from — pickup kills, wedges, cache
//! corruption and poison, slow enumeration, steal-loop stalls — while
//! the test itself injects panics and oversized frames on requests it
//! chooses.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{retryable, CallOutcome, Client, RetryPolicy, RetrySchedule};
pub use protocol::{read_frame, write_frame, Frame, Request, Response, MAX_FRAME_BYTES};
pub use server::{roundtrip, ServeConfig, Server, ServerHandle, ServerState};
