//! Scale knobs. The paper's experiment sizes (400-query sets, 10^5-match
//! caps, 500 s limits, 100 epochs) are impractical for a figure harness
//! that must regenerate everything in minutes, so every binary reads the
//! knobs below, defaults to a scaled configuration, and *prints what it
//! used* next to the paper's setting. This is the harness's edge: the
//! matching library itself reads no environment. A variable that is set
//! but does not parse stops the binary ([`env_or`]) — a figure run never
//! silently measures another configuration than the one asked for.

use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Duration;

use rlqvo_matching::EnumEngine;

/// Harness scale configuration (environment-variable driven).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Queries per query set (paper: 200–400). Split 50/50 train/eval.
    pub queries_per_set: usize,
    /// RL-QVO training epochs (paper: 100).
    pub train_epochs: usize,
    /// Incremental fine-tuning epochs (paper: 10).
    pub incremental_epochs: usize,
    /// Per-query time limit (paper: 500 s). Exceeding it = *unsolved*.
    pub time_limit: Duration,
    /// Match cap (paper: 10^5 "first matches" protocol).
    pub max_matches: u64,
    /// Worker threads for query-parallel evaluation — the harness's
    /// *total* thread budget: intra-query enumeration workers compose
    /// under it (query workers × enum threads ≤ this).
    pub threads: usize,
    /// Intra-query enumeration workers per query at most
    /// (`RLQVO_ENUM_THREADS`, default 1 = serial) — the one place the
    /// worker count comes from the environment. Helpers draw on the
    /// `threads` token budget, so the two levels of parallelism never
    /// oversubscribe.
    pub enum_threads: usize,
    /// Reuse filtered candidates + built spaces across rounds of a sweep
    /// through a `SpaceCache` (`RLQVO_SPACE_CACHE=off` to disable and
    /// re-filter per round, e.g. to time the unamortized baseline).
    pub space_cache: bool,
}

/// What scale variable `name` says: `default` when it is unset, its
/// parsed value when it is set, and `bad NAME "value"` when it is set to
/// something that does not parse.
fn parse_var<T: FromStr>(name: &str, value: Option<&str>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v.trim().parse().map_err(|_| format!("bad {name} {v:?}")),
    }
}

/// `parse_var` on the process environment — the one way a harness
/// binary reads a variable. A malformed value is reported and the process
/// exits with status 1, as the CLI does for a malformed flag.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    let value = std::env::var(name).ok();
    parse_var(name, value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// `RLQVO_SPACE_CACHE`'s value: an `on|off` switch (`1|true` and
/// `0|false` mean the same), so it goes through [`env_or`] like the
/// numbers.
struct Switch(bool);

impl FromStr for Switch {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "on" | "1" | "true" => Ok(Switch(true)),
            "off" | "0" | "false" => Ok(Switch(false)),
            _ => Err(()),
        }
    }
}

/// `RLQVO_ENGINE`'s value, likewise.
struct EngineVar(EnumEngine);

impl FromStr for EngineVar {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        EnumEngine::parse(s).map(EngineVar).ok_or(())
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            queries_per_set: env_or("RLQVO_QUERIES", 32),
            train_epochs: env_or("RLQVO_EPOCHS", 40),
            incremental_epochs: env_or("RLQVO_INCR_EPOCHS", 5),
            time_limit: Duration::from_millis(env_or("RLQVO_TIME_LIMIT_MS", 1_000)),
            max_matches: env_or("RLQVO_MAX_MATCHES", 100_000),
            threads: env_or("RLQVO_THREADS", num_threads_default()),
            enum_threads: env_or("RLQVO_ENUM_THREADS", NonZeroUsize::MIN).get(),
            space_cache: env_or("RLQVO_SPACE_CACHE", Switch(true)).0,
        }
    }
}

fn num_threads_default() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

impl Scale {
    /// The enumeration configuration used for evaluation runs.
    pub fn enum_config(&self) -> rlqvo_matching::EnumConfig {
        rlqvo_matching::EnumConfig {
            max_matches: self.max_matches,
            time_limit: self.time_limit,
            max_enumerations: u64::MAX,
            store_matches: false,
            // `RLQVO_ENGINE=probe|candspace|auto` flips the enumeration
            // engine for every figure binary without recompiling.
            engine: env_or("RLQVO_ENGINE", EngineVar(EnumEngine::default())).0,
            threads: self.enum_threads,
            ..rlqvo_matching::EnumConfig::default()
        }
    }

    /// Banner printed at the top of every experiment binary.
    pub fn banner(&self, experiment: &str, paper_setting: &str) {
        println!("== {experiment} ==");
        println!("paper setting : {paper_setting}");
        println!(
            "harness scale : {} queries/set (50% train), {} epochs, {:?} limit, {} match cap, {} tokens ({} enum threads/query max), space cache {}, engine {}",
            self.queries_per_set,
            self.train_epochs,
            self.time_limit,
            self.max_matches,
            self.threads,
            self.enum_threads,
            if self.space_cache { "on" } else { "off" },
            // Read here too so a malformed RLQVO_ENGINE stops the binary
            // at its first line, not after the models are trained.
            self.enum_config().engine.name()
        );
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = Scale::default();
        assert!(s.queries_per_set >= 2);
        assert!(s.train_epochs >= 1);
        assert!(s.threads >= 1);
        assert!(s.enum_config().max_matches > 0);
    }

    #[test]
    fn a_malformed_variable_is_an_error_naming_it() {
        assert_eq!(parse_var("RLQVO_QUERIES", None, 32usize), Ok(32));
        assert_eq!(parse_var("RLQVO_QUERIES", Some("4"), 32usize), Ok(4));
        assert_eq!(parse_var("RLQVO_QUERIES", Some(" 4 "), 32usize), Ok(4));
        assert_eq!(parse_var("RLQVO_QUERIES", Some("abc"), 32usize), Err("bad RLQVO_QUERIES \"abc\"".to_string()));
        assert_eq!(parse_var("RLQVO_QUERIES", Some("-1"), 32usize), Err("bad RLQVO_QUERIES \"-1\"".to_string()));
        assert_eq!(parse_var("RLQVO_QUERIES", Some(""), 32usize), Err("bad RLQVO_QUERIES \"\"".to_string()));
        assert_eq!(parse_var("RLQVO_LR", Some("3e-4"), 0.1f32), Ok(3e-4));
        let engine = |v| parse_var("RLQVO_ENGINE", v, EngineVar(EnumEngine::default())).map(|e| e.0);
        assert_eq!(engine(None), Ok(EnumEngine::CandidateSpace));
        assert_eq!(engine(Some("probe")), Ok(EnumEngine::Probe));
        assert_eq!(engine(Some("AUTO")), Ok(EnumEngine::Auto));
        assert_eq!(engine(Some("prob")), Err("bad RLQVO_ENGINE \"prob\"".to_string()));
        let workers = |v| parse_var("RLQVO_ENUM_THREADS", v, NonZeroUsize::MIN).map(NonZeroUsize::get);
        assert_eq!(workers(None), Ok(1));
        assert_eq!(workers(Some("2")), Ok(2));
        assert_eq!(workers(Some("0")), Err("bad RLQVO_ENUM_THREADS \"0\"".to_string()));
        assert_eq!(workers(Some("abc")), Err("bad RLQVO_ENUM_THREADS \"abc\"".to_string()));
        let cache = |v| parse_var("RLQVO_SPACE_CACHE", v, Switch(true)).map(|s| s.0);
        assert_eq!(cache(None), Ok(true));
        for on in ["on", "1", "true", "ON"] {
            assert_eq!(cache(Some(on)), Ok(true), "{on}");
        }
        for off in ["off", "0", "false", " Off "] {
            assert_eq!(cache(Some(off)), Ok(false), "{off}");
        }
        for bad in ["of", "no", ""] {
            assert_eq!(cache(Some(bad)), Err(format!("bad RLQVO_SPACE_CACHE {bad:?}")), "{bad:?}");
        }
    }
}
