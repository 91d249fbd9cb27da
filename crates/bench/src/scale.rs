//! Scale flags. The paper's experiment sizes (400-query sets, 10^5-match
//! caps, 500 s limits, 100 epochs) are impractical for a figure harness
//! that must regenerate everything in minutes, so every binary takes the
//! flags below ([`Scale::from_args`]), defaults to a scaled configuration,
//! and *prints what it used* next to the paper's setting. Flags are named
//! and checked as `rlqvo`'s are: a value that does not parse is
//! `bad --flag "x"` and a flag no binary takes is `unknown flag "--x"`,
//! both before any dataset loads — a figure run never silently measures
//! another configuration than the one asked for.

use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Duration;

/// Harness scale configuration.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Queries per query set (paper: 200–400). Split 50/50 train/eval.
    /// `--queries`.
    pub queries_per_set: usize,
    /// RL-QVO training epochs (paper: 100). `--epochs`.
    pub train_epochs: usize,
    /// Per-query time limit (paper: 500 s). Exceeding it = *unsolved*.
    /// `--time-limit-ms`.
    pub time_limit: Duration,
    /// Match cap (paper: 10^5 "first matches" protocol). `--max-matches`.
    pub max_matches: u64,
    /// Worker threads for query-parallel evaluation — the harness's
    /// *total* thread budget: intra-query enumeration workers compose
    /// under it (query workers × enum threads ≤ this). `--threads`.
    pub threads: usize,
    /// Intra-query enumeration workers per query at most (default 1 =
    /// serial). Helpers draw on the `threads` token budget, so the two
    /// levels of parallelism never oversubscribe. `--enum-threads`.
    pub enum_threads: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            queries_per_set: 32,
            train_epochs: 40,
            time_limit: Duration::from_millis(1_000),
            max_matches: 100_000,
            threads: std::thread::available_parallelism().map_or(4, NonZeroUsize::get).min(16),
            enum_threads: 1,
        }
    }
}

/// The parsed value of flag `name`, or `bad NAME "value"`.
fn parse<T: FromStr>(name: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("bad {name} (no value)"))?;
    value.parse().map_err(|_| format!("bad {name} {value:?}"))
}

impl Scale {
    /// The scale `args` (the arguments after the program name) ask for:
    /// the defaults, overridden flag by flag. Every flag takes a value.
    pub fn from_args(args: &[String]) -> Result<Scale, String> {
        let mut scale = Scale::default();
        let mut rest = args.iter();
        while let Some(name) = rest.next() {
            let value = rest.next();
            match name.as_str() {
                "--queries" => scale.queries_per_set = parse(name, value)?,
                "--epochs" => scale.train_epochs = parse(name, value)?,
                "--time-limit-ms" => scale.time_limit = Duration::from_millis(parse(name, value)?),
                "--max-matches" => scale.max_matches = parse(name, value)?,
                "--threads" => scale.threads = parse::<NonZeroUsize>(name, value)?.get(),
                "--enum-threads" => scale.enum_threads = parse::<NonZeroUsize>(name, value)?.get(),
                _ => return Err(format!("unknown flag {name:?}")),
            }
        }
        Ok(scale)
    }

    /// [`Scale::from_args`] on the process's arguments — the first line of
    /// every harness binary. A malformed or unknown flag is reported as
    /// `error: …` and the process exits with status 1, as `rlqvo` does.
    pub fn from_cli() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::from_args(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    }

    /// The enumeration configuration used for evaluation runs.
    pub fn enum_config(&self) -> rlqvo_matching::EnumConfig {
        rlqvo_matching::EnumConfig {
            max_matches: self.max_matches,
            time_limit: self.time_limit,
            threads: self.enum_threads,
            ..rlqvo_matching::EnumConfig::default()
        }
    }

    /// Banner printed at the top of every experiment binary.
    pub fn banner(&self, experiment: &str, paper_setting: &str) {
        println!("== {experiment} ==");
        println!("paper setting : {paper_setting}");
        println!(
            "harness scale : {} queries/set (50% train), {} epochs, {:?} limit, {} match cap, {} tokens ({} enum threads/query max)",
            self.queries_per_set,
            self.train_epochs,
            self.time_limit,
            self.max_matches,
            self.threads,
            self.enum_threads,
        );
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale(args: &[&str]) -> Result<Scale, String> {
        Scale::from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_are_sane() {
        let s = Scale::default();
        assert!(s.queries_per_set >= 2);
        assert!(s.train_epochs >= 1);
        assert!(s.threads >= 1);
        assert!(s.enum_config().max_matches > 0);
    }

    #[test]
    fn absent_flags_keep_their_defaults() {
        let (d, s) = (Scale::default(), scale(&[]).unwrap());
        assert_eq!(format!("{d:?}"), format!("{s:?}"));
        let s = scale(&["--queries", "4", "--enum-threads", "2"]).unwrap();
        assert_eq!((s.queries_per_set, s.enum_threads), (4, 2));
        assert_eq!((s.train_epochs, s.time_limit, s.max_matches, s.threads), (40, d.time_limit, 100_000, d.threads));
    }

    #[test]
    fn every_flag_sets_its_field() {
        let s = scale(&[
            "--queries",
            "4",
            "--epochs",
            "1",
            "--time-limit-ms",
            "200",
            "--max-matches",
            "7",
            "--threads",
            "2",
            "--enum-threads",
            "3",
        ])
        .unwrap();
        assert_eq!((s.queries_per_set, s.train_epochs, s.max_matches), (4, 1, 7));
        assert_eq!((s.time_limit, s.threads, s.enum_threads), (Duration::from_millis(200), 2, 3));
        let c = s.enum_config();
        assert_eq!((c.max_matches, c.time_limit, c.threads), (7, Duration::from_millis(200), 3));
    }

    #[test]
    fn a_malformed_flag_is_an_error_naming_it() {
        assert_eq!(scale(&["--queries", "abc"]).unwrap_err(), "bad --queries \"abc\"");
        assert_eq!(scale(&["--queries", "-1"]).unwrap_err(), "bad --queries \"-1\"");
        assert_eq!(scale(&["--enum-threads", "0"]).unwrap_err(), "bad --enum-threads \"0\"");
        assert_eq!(scale(&["--threads", "0"]).unwrap_err(), "bad --threads \"0\"");
        assert_eq!(scale(&["--max-matches", "1e5"]).unwrap_err(), "bad --max-matches \"1e5\"");
        assert_eq!(scale(&["--epochs"]).unwrap_err(), "bad --epochs (no value)");
    }

    #[test]
    fn an_unknown_flag_is_an_error_naming_it() {
        assert_eq!(scale(&["--engine", "probe"]).unwrap_err(), "unknown flag \"--engine\"");
        assert_eq!(scale(&["dblp"]).unwrap_err(), "unknown flag \"dblp\"");
        assert_eq!(scale(&["--queries", "4", "--space-cache", "off"]).unwrap_err(), "unknown flag \"--space-cache\"");
    }
}
