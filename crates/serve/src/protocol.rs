//! Wire protocol of `rlqvo serve`: length-prefixed text frames.
//!
//! Every message — request or response — is one *frame*: a little-endian
//! `u32` byte length followed by that many bytes of UTF-8 text. The text
//! grammar is line-oriented:
//!
//! ```text
//! request  := control | match
//! control  := "ping" | "flush" | "metrics" | "health" | "shutdown"
//! match    := "match" (" " key "=" value)* "\n" graph
//! graph    := t/v/e text format (rlqvo_graph::io)
//! ```
//!
//! `match` keys: `deadline_ms` (per-request deadline, measured from
//! arrival so queue wait counts), `max_matches`, `method` (ordering
//! method name, same roster as `rlqvo match`), `engine`
//! (`probe|candspace|auto`), and `inject` (fault-injection hook, honored
//! only when the server was started with fault injection enabled).
//!
//! Responses are a single status line:
//!
//! ```text
//! "ok"       matches= enums= micros= hit_space= hit_order=
//! "deadline" matches= enums= micros=        — partial counts, not a loss
//! "overloaded"                              — admission control shed it
//! "rejected" reason=                        — malformed/oversized input
//! "error"    reason=                        — the request panicked; the
//!                                             server and its caches live on
//! "pong" | "bye" | "metrics" k=v ... | "health" k=v ...
//! ```
//!
//! Every accepted frame gets exactly one response frame — load shedding
//! and faults are *typed replies*, never silent drops or closed sockets
//! (the one exception: an oversized frame is answered `rejected
//! reason=oversized` and the connection closed, because the declared
//! payload is never read and the stream is no longer in sync).

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};

/// Hard ceiling on a frame's declared payload length. Frames above the
/// server's configured limit (≤ this) are rejected without allocating.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Outcome of reading one frame.
#[derive(Debug)]
pub enum Frame {
    /// A complete payload.
    Msg(Vec<u8>),
    /// The declared length exceeds the limit; the payload was **not**
    /// consumed — the connection must be closed after the typed reply.
    Oversized(u32),
    /// Clean end of stream before a length prefix.
    Eof,
}

/// Writes one length-prefixed frame. Prefix and payload go out in a
/// single `write_all` so a descheduled sender can't leave the receiver
/// stuck mid-frame: once this returns, the whole frame is in the kernel
/// send buffer.
///
/// Payloads above [`MAX_FRAME_BYTES`] fail with a typed
/// `InvalidInput` error *before* any bytes go out — the write-side
/// mirror of the read side's [`Frame::Oversized`]. The guard matters
/// beyond symmetry: the prefix is a `u32`, so an unchecked ≥ 4 GiB
/// payload would silently truncate its declared length and
/// desynchronize the stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("oversized frame of {} bytes (limit {MAX_FRAME_BYTES})", payload.len()),
        ));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-prefixed frame, enforcing `max_len`. A read that
/// times out fails at once: [`read_frame_until`] that always gives up.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> std::io::Result<Frame> {
    read_frame_until(r, max_len, || true)
}

/// Reads one length-prefixed frame, enforcing `max_len`, from a reader
/// whose reads may time out (a socket with a read timeout). On such a
/// poll tick — between frames or inside one — it keeps waiting unless
/// `give_up()` returns true, and then returns the tick's error.
/// `Interrupted` reads are retried.
pub fn read_frame_until<R: Read>(r: &mut R, max_len: u32, mut give_up: impl FnMut() -> bool) -> std::io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    // EOF before any length byte is a clean close; EOF mid-prefix is an
    // error like any other truncated read.
    match read_until(r, &mut len_buf, &mut give_up)? {
        0 => return Ok(Frame::Eof),
        n => read_exact_until(r, &mut len_buf[n..], &mut give_up)?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_len {
        return Ok(Frame::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_until(r, &mut payload, &mut give_up)?;
    Ok(Frame::Msg(payload))
}

/// One `read`, retried on `Interrupted` and on poll ticks `give_up`
/// declines.
fn read_until<R: Read>(r: &mut R, buf: &mut [u8], give_up: &mut impl FnMut() -> bool) -> std::io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) && !give_up() => {}
            res => return res,
        }
    }
}

fn read_exact_until<R: Read>(r: &mut R, buf: &mut [u8], give_up: &mut impl FnMut() -> bool) -> std::io::Result<()> {
    let mut n = 0;
    while n < buf.len() {
        match read_until(r, &mut buf[n..], give_up)? {
            0 => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "eof mid-frame")),
            k => n += k,
        }
    }
    Ok(())
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Ping,
    /// Drop both caches (the data graph is about to change, or a test is
    /// forcing the fully-cold path mid-run).
    Flush,
    Metrics,
    /// Liveness probe: uptime, token-budget aliveness, restart and
    /// degrade counters. Answered on its own connection thread, without
    /// a token, so it stays responsive while every token is held or a
    /// request is wedged.
    Health,
    Shutdown,
    Match {
        /// Per-request deadline in milliseconds, measured from arrival.
        deadline_ms: Option<u64>,
        max_matches: Option<u64>,
        /// Ordering method name (defaults to the server's default).
        method: Option<String>,
        /// Enumeration engine override.
        engine: Option<String>,
        /// Fault-injection directive (`panic`), honored only when the
        /// server runs with fault injection enabled.
        inject: Option<String>,
        /// The query graph in t/v/e text.
        query_text: String,
    },
}

impl Request {
    /// Parses a request payload. Returns `Err(reason)` for unknown verbs
    /// or malformed parameters (the server answers `rejected reason=`).
    pub fn parse(text: &str) -> Result<Request, String> {
        let (head, rest) = match text.find('\n') {
            Some(i) => (&text[..i], &text[i + 1..]),
            None => (text, ""),
        };
        let mut words = head.split_whitespace();
        let verb = words.next().unwrap_or("");
        match verb {
            "ping" => Ok(Request::Ping),
            "flush" => Ok(Request::Flush),
            "metrics" => Ok(Request::Metrics),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            "match" => {
                let mut deadline_ms = None;
                let mut max_matches = None;
                let mut method = None;
                let mut engine = None;
                let mut inject = None;
                for kv in words {
                    let (k, v) = kv.split_once('=').ok_or_else(|| format!("bad parameter {kv:?}"))?;
                    match k {
                        "deadline_ms" => deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline_ms {v:?}"))?),
                        "max_matches" => max_matches = Some(v.parse().map_err(|_| format!("bad max_matches {v:?}"))?),
                        "method" => method = Some(v.to_string()),
                        "engine" => engine = Some(v.to_string()),
                        "inject" => inject = Some(v.to_string()),
                        other => return Err(format!("unknown parameter {other:?}")),
                    }
                }
                if rest.trim().is_empty() {
                    return Err("match request carries no query graph".to_string());
                }
                Ok(Request::Match { deadline_ms, max_matches, method, engine, inject, query_text: rest.to_string() })
            }
            other => Err(format!("unknown verb {other:?}")),
        }
    }

    /// Serializes a request to its wire text (inverse of [`Request::parse`]).
    pub fn to_text(&self) -> String {
        match self {
            Request::Ping => "ping".to_string(),
            Request::Flush => "flush".to_string(),
            Request::Metrics => "metrics".to_string(),
            Request::Health => "health".to_string(),
            Request::Shutdown => "shutdown".to_string(),
            Request::Match { deadline_ms, max_matches, method, engine, inject, query_text } => {
                let mut head = String::from("match");
                if let Some(d) = deadline_ms {
                    head.push_str(&format!(" deadline_ms={d}"));
                }
                if let Some(m) = max_matches {
                    head.push_str(&format!(" max_matches={m}"));
                }
                if let Some(m) = method {
                    head.push_str(&format!(" method={m}"));
                }
                if let Some(e) = engine {
                    head.push_str(&format!(" engine={e}"));
                }
                if let Some(i) = inject {
                    head.push_str(&format!(" inject={i}"));
                }
                format!("{head}\n{query_text}")
            }
        }
    }
}

/// A typed response. `Ok`/`Deadline` carry the counts the paper's
/// harness reports; `Deadline` counts are valid partial work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok {
        matches: u64,
        enums: u64,
        micros: u64,
        hit_space: bool,
        hit_order: bool,
    },
    /// The request's deadline or the server's enumeration time limit
    /// fired; counts are the partial progress.
    DeadlineExceeded {
        matches: u64,
        enums: u64,
        micros: u64,
    },
    /// Admission control shed the request before any work.
    Overloaded,
    /// The input never became a request (parse failure, oversized frame).
    Rejected {
        reason: String,
    },
    /// The request died inside the engine; the server survived it.
    InternalError {
        reason: String,
    },
    Pong,
    Bye,
    Metrics(BTreeMap<String, u64>),
    /// Liveness report: `uptime_ms`, `workers_alive`, `workers_total`,
    /// `worker_restarts`, `degraded`, plus whatever gauges the server
    /// adds. Distinct from [`Response::Metrics`] so probes can assert on
    /// the verb itself.
    Health(BTreeMap<String, u64>),
}

impl Response {
    pub fn to_text(&self) -> String {
        match self {
            Response::Ok { matches, enums, micros, hit_space, hit_order } => format!(
                "ok matches={matches} enums={enums} micros={micros} hit_space={} hit_order={}",
                *hit_space as u8, *hit_order as u8
            ),
            Response::DeadlineExceeded { matches, enums, micros } => {
                format!("deadline matches={matches} enums={enums} micros={micros}")
            }
            Response::Overloaded => "overloaded".to_string(),
            Response::Rejected { reason } => format!("rejected reason={}", reason.replace(' ', "_")),
            Response::InternalError { reason } => format!("error reason={}", reason.replace(' ', "_")),
            Response::Pong => "pong".to_string(),
            Response::Bye => "bye".to_string(),
            Response::Metrics(kv) => {
                let mut s = String::from("metrics");
                for (k, v) in kv {
                    s.push_str(&format!(" {k}={v}"));
                }
                s
            }
            Response::Health(kv) => {
                let mut s = String::from("health");
                for (k, v) in kv {
                    s.push_str(&format!(" {k}={v}"));
                }
                s
            }
        }
    }

    pub fn parse(text: &str) -> Result<Response, String> {
        let mut words = text.split_whitespace();
        let verb = words.next().unwrap_or("");
        let kv: BTreeMap<&str, &str> = words.filter_map(|w| w.split_once('=')).collect();
        let num = |k: &str| -> Result<u64, String> {
            kv.get(k).ok_or_else(|| format!("missing {k}"))?.parse().map_err(|_| format!("bad {k}"))
        };
        match verb {
            "ok" => Ok(Response::Ok {
                matches: num("matches")?,
                enums: num("enums")?,
                micros: num("micros")?,
                hit_space: num("hit_space")? != 0,
                hit_order: num("hit_order")? != 0,
            }),
            "deadline" => Ok(Response::DeadlineExceeded {
                matches: num("matches")?,
                enums: num("enums")?,
                micros: num("micros")?,
            }),
            "overloaded" => Ok(Response::Overloaded),
            "rejected" => Ok(Response::Rejected { reason: kv.get("reason").unwrap_or(&"unspecified").to_string() }),
            "error" => Ok(Response::InternalError { reason: kv.get("reason").unwrap_or(&"unspecified").to_string() }),
            "pong" => Ok(Response::Pong),
            "bye" => Ok(Response::Bye),
            "metrics" | "health" => {
                let map = kv
                    .into_iter()
                    .map(|(k, v)| v.parse().map(|n| (k.to_string(), n)).map_err(|_| format!("bad metric {k}")))
                    .collect::<Result<BTreeMap<_, _>, _>>()?;
                Ok(if verb == "metrics" { Response::Metrics(map) } else { Response::Health(map) })
            }
            other => Err(format!("unknown response verb {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Msg(m) if m == b"hello"));
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Msg(m) if m.is_empty()));
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Eof));
    }

    /// A reader that fails each listed read with the given kind and
    /// otherwise hands out one byte of `data` per read.
    struct Stutter {
        data: Vec<u8>,
        at: usize,
        fails: Vec<Option<ErrorKind>>,
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if let Some(kind) = self.fails.pop().flatten() {
                return Err(kind.into());
            }
            let Some(&b) = self.data.get(self.at) else { return Ok(0) };
            buf[0] = b;
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn poll_ticks_wait_until_given_up_and_interrupts_retry() {
        let mut data = Vec::new();
        write_frame(&mut data, b"hi").unwrap();
        // Popped from the back: an interrupt, a read, then a tick mid-frame.
        let stutter = || Stutter {
            data: data.clone(),
            at: 0,
            fails: vec![Some(ErrorKind::WouldBlock), None, Some(ErrorKind::Interrupted)],
        };
        let err = read_frame(&mut stutter(), 1024).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock, "the plain read gives up at the first tick");
        let mut asked = 0;
        let frame = read_frame_until(&mut stutter(), 1024, || {
            asked += 1;
            false
        });
        assert!(matches!(frame.unwrap(), Frame::Msg(m) if m == b"hi"), "the patient read rides the tick out");
        assert_eq!(asked, 1, "only the tick asks to give up; the interrupt is retried");
    }

    #[test]
    fn oversized_frames_are_flagged_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB declared, no payload
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Oversized(len) if len == u32::MAX));
    }

    #[test]
    fn write_frame_rejects_oversized_payloads_before_writing() {
        // Exactly at the limit: accepted, full frame emitted.
        let payload = vec![0u8; MAX_FRAME_BYTES as usize];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), 4 + payload.len());
        assert_eq!(buf[..4], (MAX_FRAME_BYTES).to_le_bytes());
        // One byte past: typed error, zero bytes written — the stream
        // stays in sync for whatever the caller sends next.
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &vec![0u8; MAX_FRAME_BYTES as usize + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("oversized frame"), "{err}");
        assert!(buf.is_empty(), "no bytes may reach the stream");
    }

    #[test]
    fn truncated_payload_is_an_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"half");
        assert!(read_frame(&mut Cursor::new(buf), 1024).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Ping,
            Request::Flush,
            Request::Metrics,
            Request::Health,
            Request::Shutdown,
            Request::Match {
                deadline_ms: Some(50),
                max_matches: Some(1000),
                method: Some("hybrid".into()),
                engine: Some("auto".into()),
                inject: Some("panic".into()),
                query_text: "t 1 0\nv 0 0 0\n".into(),
            },
            Request::Match {
                deadline_ms: None,
                max_matches: None,
                method: None,
                engine: None,
                inject: None,
                query_text: "t 1 0\nv 0 0 0\n".into(),
            },
        ];
        for req in cases {
            assert_eq!(Request::parse(&req.to_text()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::parse("launch").is_err());
        assert!(Request::parse("match deadline_ms=abc\nt 1 0\nv 0 0 0\n").is_err());
        assert!(Request::parse("match frobnicate=1\nt 1 0\nv 0 0 0\n").is_err());
        assert!(Request::parse("match deadline_ms=5").is_err(), "match without a graph");
    }

    #[test]
    fn responses_round_trip() {
        let mut metrics = BTreeMap::new();
        metrics.insert("served".to_string(), 17u64);
        metrics.insert("shed".to_string(), 3u64);
        let mut health = BTreeMap::new();
        health.insert("uptime_ms".to_string(), 1234u64);
        health.insert("workers_alive".to_string(), 4u64);
        health.insert("worker_restarts".to_string(), 1u64);
        let cases = [
            Response::Ok { matches: 12, enums: 3400, micros: 77, hit_space: true, hit_order: false },
            Response::DeadlineExceeded { matches: 2, enums: 2048, micros: 5120 },
            Response::Overloaded,
            Response::Rejected { reason: "oversized".into() },
            Response::InternalError { reason: "panic".into() },
            Response::Pong,
            Response::Bye,
            Response::Metrics(metrics),
            Response::Health(health),
        ];
        for resp in cases {
            assert_eq!(Response::parse(&resp.to_text()).unwrap(), resp, "{resp:?}");
        }
    }
}
