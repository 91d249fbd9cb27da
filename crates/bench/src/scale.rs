//! Scale knobs. The paper's experiment sizes (400-query sets, 10^5-match
//! caps, 500 s limits, 100 epochs) are impractical for a figure harness
//! that must regenerate everything in minutes, so every binary reads the
//! knobs below, defaults to a scaled configuration, and *prints what it
//! used* next to the paper's setting. This is the harness's edge: the
//! matching library itself reads no environment beyond
//! `RLQVO_ENUM_THREADS`.

use std::time::Duration;

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
    /// Intra-query enumeration workers per query (`RLQVO_ENUM_THREADS`,
    /// default 1 = serial). Values above 1 split each query's root
    /// candidate set across a worker pool; the harness divides `threads`
    /// by this so the two levels of parallelism never oversubscribe.
    pub enum_threads: usize,
    /// Reuse filtered candidates + built spaces across rounds of a sweep
    /// through a `SpaceCache` (`RLQVO_SPACE_CACHE=0|off|false` to disable
    /// and re-filter per round, e.g. to time the unamortized baseline).
    pub space_cache: bool,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            queries_per_set: env_usize("RLQVO_QUERIES", 32),
            train_epochs: env_usize("RLQVO_EPOCHS", 40),
            incremental_epochs: env_usize("RLQVO_INCR_EPOCHS", 5),
            time_limit: Duration::from_millis(env_u64("RLQVO_TIME_LIMIT_MS", 1_000)),
            max_matches: env_u64("RLQVO_MAX_MATCHES", 100_000),
            threads: env_usize("RLQVO_THREADS", num_threads_default()),
            enum_threads: rlqvo_matching::default_threads(),
            space_cache: !std::env::var("RLQVO_SPACE_CACHE")
                .is_ok_and(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "off" | "false")),
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
            engine: std::env::var("RLQVO_ENGINE")
                .ok()
                .and_then(|v| rlqvo_matching::EnumEngine::parse(&v))
                .unwrap_or_default(),
            threads: self.enum_threads,
            ..rlqvo_matching::EnumConfig::default()
        }
    }

    /// Banner printed at the top of every experiment binary.
    pub fn banner(&self, experiment: &str, paper_setting: &str) {
        println!("== {experiment} ==");
        println!("paper setting : {paper_setting}");
        println!(
            "harness scale : {} queries/set (50% train), {} epochs, {:?} limit, {} match cap, {} tokens ({} enum threads/query max), space cache {}",
            self.queries_per_set,
            self.train_epochs,
            self.time_limit,
            self.max_matches,
            self.threads,
            self.enum_threads,
            if self.space_cache { "on" } else { "off" }
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
}
