//! Deterministic cross-crate failpoints.
//!
//! Production code marks its hostile moments with a named site:
//!
//! ```ignore
//! if let Some(f) = rlqvo_fault::failpoint!("enum.delay") {
//!     f.sleep();
//! }
//! ```
//!
//! Disarmed (the default, and the only state production ever runs in),
//! a site costs **one relaxed atomic load** — benchmarked in
//! `crates/bench` next to the kernels it guards. Armed from a spec
//! string, every site becomes a scheduled fault:
//!
//! ```text
//! RLQVO_FAULTS="serve.worker.panic=1in29;cache.lock.poison=after(200);enum.delay=25us@p0.01"
//! ```
//!
//! One entry per site: `name=rule`, where `rule` is an optional duration
//! payload (`25us`, `3ms`, `1s`) joined by `@` to a trigger:
//!
//! | trigger     | fires on                                            |
//! |-------------|-----------------------------------------------------|
//! | `always`/`on` | every evaluation                                  |
//! | `once`      | the first evaluation only                           |
//! | `times(N)`  | the first `N` evaluations                           |
//! | `1inN`      | every `N`th evaluation (the `N`th, `2N`th, …)       |
//! | `after(N)`  | every evaluation past the first `N`                 |
//! | `pX`        | probability `X` per evaluation, seeded (see below)  |
//!
//! **Determinism is the contract.** A point's decision for its `i`th
//! evaluation is a pure function of `(spec, seed, i)`: counting triggers
//! read only `i`, and `pX` hashes `(seed, point name, i)` through
//! SplitMix64 — no shared RNG, no lock, no cross-point interference. Two
//! runs armed with the same `(spec, seed)` fire each point on the
//! identical evaluation indices, however threads interleave; a chaos run
//! replays from the pair alone.
//!
//! What a fired site *does* is the site's business: the registry returns
//! a [`Fault`] carrying the optional duration payload, and the call site
//! sleeps, panics, corrupts, or fails I/O with it. Sites and semantics
//! in this workspace are catalogued in the README "Resilience" section.
//!
//! [`arm`] replaces the whole schedule; [`disarm_all`] clears it. Tests
//! use [`arm_scoped`], whose guard serializes fault-armed tests within a
//! process (the registry is process-global) and disarms on drop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Duration;

/// Count of armed points. Nonzero means [`eval`] must consult the
/// registry; zero is the production state and the whole fast path.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static RwLock<HashMap<String, Arc<Point>>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Arc<Point>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// True when any failpoint is armed. One relaxed load — the only cost a
/// disarmed site pays (see the `fault/disarmed-site` bench kernel).
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
}

/// The failpoint site marker. Expands to a branch on [`armed`] (one
/// relaxed atomic load when disarmed) and evaluates the named point only
/// when some schedule is armed. Yields `Option<Fault>`: `Some` when this
/// evaluation fires.
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        if $crate::armed() {
            $crate::eval($name)
        } else {
            None
        }
    };
}

/// What an armed, fired evaluation hands back to its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The rule's duration payload (`25us@p0.01` → 25 µs), if any.
    pub delay: Option<Duration>,
}

impl Fault {
    /// Sleeps for the duration payload; no-op for payload-less rules.
    pub fn sleep(&self) {
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
    }
}

/// When a point's `i`th evaluation fires (0-based `i`). Every variant is
/// a pure function of `i` (plus the seed for `Prob`), which is what makes
/// schedules replayable per point regardless of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    Always,
    Once,
    Times(u64),
    /// `1inN`: fires when `(i + 1) % N == 0`.
    Every(u64),
    /// `after(N)`: fires when `i >= N`.
    After(u64),
    /// `pX`: fires when `hash(seed, name, i)` maps below `X`.
    Prob(f64),
}

struct Point {
    trigger: Trigger,
    delay: Option<Duration>,
    seed: u64,
    name_hash: u64,
    evals: AtomicU64,
    fires: AtomicU64,
}

impl Point {
    fn decide(&self, i: u64) -> bool {
        match self.trigger {
            Trigger::Always => true,
            Trigger::Once => i == 0,
            Trigger::Times(n) => i < n,
            Trigger::Every(n) => (i + 1).is_multiple_of(n),
            Trigger::After(n) => i >= n,
            Trigger::Prob(p) => unit_interval(splitmix64(self.seed ^ self.name_hash ^ i)) < p,
        }
    }
}

/// SplitMix64: the per-evaluation decision hash for `pX` triggers.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)` using the top 53 bits.
fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Evaluates the named point against the armed schedule. Called through
/// [`failpoint!`] (which short-circuits when nothing is armed); direct
/// calls always pay the registry read. Unarmed names never fire.
pub fn eval(name: &str) -> Option<Fault> {
    let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
    let point = reg.get(name)?;
    let i = point.evals.fetch_add(1, Ordering::Relaxed);
    if point.decide(i) {
        point.fires.fetch_add(1, Ordering::Relaxed);
        Some(Fault { delay: point.delay })
    } else {
        None
    }
}

/// Times the named point has been evaluated since arming (0 if unarmed).
pub fn evals(name: &str) -> u64 {
    let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
    reg.get(name).map_or(0, |p| p.evals.load(Ordering::Relaxed))
}

/// Times the named point has fired since arming (0 if unarmed). Chaos
/// drivers cross-check observed degrade/restart counters against this.
pub fn fired(name: &str) -> u64 {
    let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
    reg.get(name).map_or(0, |p| p.fires.load(Ordering::Relaxed))
}

/// Arms `spec` with `seed`, replacing any previous schedule (and
/// resetting every per-point counter). Returns the number of points
/// armed. An empty/whitespace spec disarms everything.
pub fn arm(spec: &str, seed: u64) -> Result<usize, String> {
    let mut points = HashMap::new();
    for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        let (name, rule) = entry.split_once('=').ok_or_else(|| format!("failpoint entry {entry:?} has no '='"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("failpoint entry {entry:?} has an empty name"));
        }
        let (delay, trigger) = parse_rule(rule.trim())?;
        let point =
            Point { trigger, delay, seed, name_hash: fnv1a(name), evals: AtomicU64::new(0), fires: AtomicU64::new(0) };
        if points.insert(name.to_string(), Arc::new(point)).is_some() {
            return Err(format!("failpoint {name:?} armed twice in one spec"));
        }
    }
    let n = points.len();
    let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
    *reg = points;
    ARMED.store(n, Ordering::Relaxed);
    Ok(n)
}

/// Arms from `RLQVO_FAULTS` (spec) and `RLQVO_FAULT_SEED` (seed,
/// default 0). No-op returning 0 when the spec variable is unset/empty.
pub fn arm_from_env() -> Result<usize, String> {
    match std::env::var("RLQVO_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            let seed = std::env::var("RLQVO_FAULT_SEED")
                .ok()
                .map(|s| s.trim().parse().map_err(|_| format!("bad RLQVO_FAULT_SEED {s:?}")))
                .transpose()?
                .unwrap_or(0);
            arm(&spec, seed)
        }
        _ => Ok(0),
    }
}

/// Clears the schedule; every site reverts to the one-load fast path.
pub fn disarm_all() {
    let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
    reg.clear();
    ARMED.store(0, Ordering::Relaxed);
}

/// `rule := [duration "@"] trigger | duration` — a bare duration means
/// `always` (e.g. `enum.delay=25us`).
fn parse_rule(rule: &str) -> Result<(Option<Duration>, Trigger), String> {
    if let Some((payload, trigger)) = rule.split_once('@') {
        return Ok((Some(parse_duration(payload.trim())?), parse_trigger(trigger.trim())?));
    }
    if rule.starts_with(|c: char| c.is_ascii_digit()) && !rule.contains("in") {
        return Ok((Some(parse_duration(rule)?), Trigger::Always));
    }
    Ok((None, parse_trigger(rule)?))
}

fn parse_trigger(t: &str) -> Result<Trigger, String> {
    if t == "always" || t == "on" {
        return Ok(Trigger::Always);
    }
    if t == "once" {
        return Ok(Trigger::Once);
    }
    if let Some(n) = t.strip_prefix("times(").and_then(|r| r.strip_suffix(')')) {
        let n: u64 = n.trim().parse().map_err(|_| format!("bad times(N) in {t:?}"))?;
        return Ok(Trigger::Times(n));
    }
    if let Some(n) = t.strip_prefix("after(").and_then(|r| r.strip_suffix(')')) {
        let n: u64 = n.trim().parse().map_err(|_| format!("bad after(N) in {t:?}"))?;
        return Ok(Trigger::After(n));
    }
    if let Some((one, n)) = t.split_once("in") {
        if one.trim() == "1" {
            let n: u64 = n.trim().parse().map_err(|_| format!("bad 1inN in {t:?}"))?;
            if n == 0 {
                return Err("1in0 never fires; use a finite period".to_string());
            }
            return Ok(Trigger::Every(n));
        }
    }
    if let Some(p) = t.strip_prefix('p') {
        let p: f64 = p.trim().parse().map_err(|_| format!("bad probability in {t:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} outside [0, 1]"));
        }
        return Ok(Trigger::Prob(p));
    }
    Err(format!("unknown trigger {t:?} (want always|once|times(N)|1inN|after(N)|pX)"))
}

fn parse_duration(d: &str) -> Result<Duration, String> {
    let split = d.find(|c: char| !c.is_ascii_digit()).ok_or_else(|| format!("duration {d:?} has no unit"))?;
    let (num, unit) = d.split_at(split);
    let n: u64 = num.parse().map_err(|_| format!("bad duration value in {d:?}"))?;
    match unit {
        "ns" => Ok(Duration::from_nanos(n)),
        "us" => Ok(Duration::from_micros(n)),
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        other => Err(format!("unknown duration unit {other:?} (want ns|us|ms|s)")),
    }
}

/// Serializes fault-armed tests in one process and disarms on drop. The
/// registry is process-global, so two concurrently armed tests would see
/// each other's schedules; every test arming a schedule must go through
/// this.
pub struct ArmedGuard {
    _lock: MutexGuard<'static, ()>,
}

/// [`arm`] + a process-wide exclusivity lock for tests. The schedule
/// stays armed until the returned guard drops.
pub fn arm_scoped(spec: &str, seed: u64) -> Result<ArmedGuard, String> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    let lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    arm(spec, seed)?;
    Ok(ArmedGuard { _lock: lock })
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records which of the first `n` evaluations of `name` fire.
    fn decision_bitmap(name: &str, n: usize) -> Vec<bool> {
        (0..n).map(|_| eval(name).is_some()).collect()
    }

    #[test]
    fn disarmed_sites_yield_nothing() {
        let _guard = arm_scoped("", 0).unwrap();
        assert!(!armed());
        assert_eq!(failpoint!("anything.at.all"), None);
        assert_eq!(fired("anything.at.all"), 0);
    }

    #[test]
    fn counting_triggers_fire_on_their_documented_indices() {
        let _guard = arm_scoped("a=once;b=times(3);c=1in4;d=after(5);e=always", 9).unwrap();
        assert!(armed());
        assert_eq!(decision_bitmap("a", 4), [true, false, false, false]);
        assert_eq!(decision_bitmap("b", 5), [true, true, true, false, false]);
        assert_eq!(decision_bitmap("c", 9), [false, false, false, true, false, false, false, true, false]);
        assert_eq!(decision_bitmap("d", 8), [false, false, false, false, false, true, true, true]);
        assert!(decision_bitmap("e", 3).iter().all(|&f| f));
        assert_eq!((evals("c"), fired("c")), (9, 2));
    }

    #[test]
    fn probability_triggers_replay_bit_identically_from_spec_and_seed() {
        let first = {
            let _guard = arm_scoped("x=p0.3;y=p0.3", 0xDECAF).unwrap();
            (decision_bitmap("x", 200), decision_bitmap("y", 200))
        };
        let again = {
            let _guard = arm_scoped("x=p0.3;y=p0.3", 0xDECAF).unwrap();
            (decision_bitmap("x", 200), decision_bitmap("y", 200))
        };
        assert_eq!(first, again, "same (spec, seed) must replay the identical fire sequence");
        // Distinct names under one seed decide independently; a different
        // seed reschedules.
        assert_ne!(first.0, first.1, "per-point decisions must not be correlated by name");
        let reseeded = {
            let _guard = arm_scoped("x=p0.3", 0xFEED).unwrap();
            decision_bitmap("x", 200)
        };
        assert_ne!(first.0, reseeded, "a different seed must produce a different schedule");
        // And the rate is actually near p (not degenerate).
        let hits = first.0.iter().filter(|&&f| f).count();
        assert!((30..=90).contains(&hits), "p0.3 over 200 draws fired {hits} times");
    }

    #[test]
    fn duration_payloads_parse_and_ride_along() {
        let _guard = arm_scoped("slow=25us@always;stall=3ms@once;bare=1s", 0).unwrap();
        assert_eq!(eval("slow").unwrap().delay, Some(Duration::from_micros(25)));
        assert_eq!(eval("stall").unwrap().delay, Some(Duration::from_millis(3)));
        assert_eq!(eval("bare").unwrap().delay, Some(Duration::from_secs(1)));
        assert_eq!(eval("stall"), None, "once fired, once done");
    }

    #[test]
    fn malformed_specs_are_rejected_with_reasons() {
        let _guard = arm_scoped("", 0).unwrap();
        for bad in [
            "noequals",
            "=once",
            "x=1in0",
            "x=p1.5",
            "x=definitely_not_a_trigger",
            "x=25parsecs@always",
            "x=once;x=always",
        ] {
            assert!(arm(bad, 0).is_err(), "{bad:?} must be rejected");
        }
        // A rejected spec must not leave a partial schedule armed.
        assert!(!armed());
    }

    #[test]
    fn rearming_resets_counters_and_guard_disarms() {
        {
            let _guard = arm_scoped("x=always", 0).unwrap();
            eval("x");
            eval("x");
            assert_eq!(evals("x"), 2);
            arm("x=always", 0).unwrap();
            assert_eq!(evals("x"), 0, "re-arming resets per-point counters");
        }
        assert!(!armed(), "guard drop must disarm");
    }
}
