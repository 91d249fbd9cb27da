//! The `rlqvo` binary's argument handling, one test per subcommand: a
//! malformed value is `error: bad --flag "x"` and exit 1 — never a silent
//! default — `--method` resolves through the library's one roster, and
//! `serve` refuses a flag it does not take as `error: unknown flag`.
//! One positive run: `train` prints its learning curve and saves a model
//! that `match --method rlqvo` loads.

use std::path::PathBuf;
use std::process::{Command, Output};

use rlqvo_suite::matching::ROSTER;

/// A triangle query and a host of three chained labeled triangles, in a
/// directory of the test's own.
fn fixtures(test: &str) -> (PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("rlqvo-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (g, q) = (dir.join("G.graph"), dir.join("q.graph"));
    std::fs::write(&q, "t 3 3\nv 0 0 2\nv 1 1 2\nv 2 2 2\ne 0 1\ne 1 2\ne 0 2\n").unwrap();
    let mut host = String::from("t 9 11\n");
    for v in 0..9 {
        host.push_str(&format!("v {v} {} 0\n", v % 3));
    }
    for t in 0..3 {
        let b = 3 * t;
        host.push_str(&format!("e {} {}\ne {} {}\ne {} {}\n", b, b + 1, b + 1, b + 2, b, b + 2));
    }
    host.push_str("e 2 3\ne 5 6\n");
    std::fs::write(&g, host).unwrap();
    (dir, g.to_string_lossy().into_owned(), q.to_string_lossy().into_owned())
}

fn rlqvo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlqvo")).args(args).output().expect("run rlqvo")
}

/// `base` plus each `(flag, value)` in turn must exit 1 naming the flag
/// and the value.
fn assert_each_is_rejected(base: &[&str], bad: &[(&str, &str)]) {
    for (flag, value) in bad {
        let out = rlqvo(&[base, &[flag, value]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("error: bad {flag} {value:?}")), "{flag} {value}: {stderr}");
    }
}

#[test]
fn match_rejects_malformed_values_and_resolves_methods_through_the_roster() {
    let (dir, g, q) = fixtures("match");
    let base = ["match", "--data", &g, "--query", &q];
    assert_each_is_rejected(
        &base,
        &[
            ("--max-matches", "1e5"),
            ("--time-limit-ms", "soon"),
            ("--repeat", "twice"),
            ("--repeat", "0"),
            ("--enum-threads", "0"),
            ("--space-cache", "maybe"),
            ("--order-cache", "1"),
        ],
    );

    // A well-formed value is honoured, cold and through the warm path.
    for extra in [&["--max-matches", "2"][..], &["--max-matches", "2", "--repeat", "3"]] {
        let out = rlqvo(&[&base, extra].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success() && stdout.contains("matches     : 2\n"), "{stdout}");
    }

    // Every roster name is a method, with the pair the roster says, and
    // the same answer at every worker count.
    for threads in ["1", "2", "4"] {
        for m in &ROSTER {
            let out = rlqvo(&[&base, &["--method", m.cli, "--enum-threads", threads][..]].concat());
            let stdout = String::from_utf8_lossy(&out.stdout);
            let banner =
                format!("method      : {} ({} filter + {} ordering)", m.cli, m.filter.name(), m.ordering.name());
            assert!(out.status.success() && stdout.contains(&banner), "{} x{threads}: {stdout}", m.cli);
            assert!(stdout.contains(&format!("enum threads: {threads}\n")), "{} x{threads}: {stdout}", m.cli);
            assert!(stdout.contains("matches     : 3\n"), "{} x{threads}: {stdout}", m.cli);
        }
    }
    // The worker count is the flag's alone: the harness's variable in the
    // child's environment changes nothing.
    let out = Command::new(env!("CARGO_BIN_EXE_rlqvo")).args(base).env("RLQVO_ENUM_THREADS", "4").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && stdout.contains("enum threads: 1\n"), "{stdout}");
    let out = rlqvo(&[&base, &["--method", "quicksi"][..]].concat());
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: unknown method \"quicksi\""));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_rejects_malformed_values() {
    let (dir, g, _) = fixtures("serve");
    // Every value is parsed before the server binds, so each run exits.
    assert_each_is_rejected(
        &["serve", "--data", &g],
        &[
            ("--queue-depth", "deep"),
            ("--threads", "-1"),
            ("--threads", "0"),
            ("--enum-threads", "0"),
            ("--enum-threads", "x"),
            ("--max-matches", "1e5"),
            ("--time-limit-ms", "1s"),
            ("--fast-math", "maybe"),
            // Without `--model` no request can take the learned path.
            ("--fast-math", "on"),
            ("--space-cache-bytes", "1MB"),
            ("--stall-timeout-ms", "x"),
        ],
    );
    // Requests run one at a time on the thread that read them: there is
    // no batch to size.
    let out = rlqvo(&["serve", "--data", &g, "--batch", "8"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: unknown flag \"--batch\""));
    std::fs::remove_dir_all(dir).ok();
}

/// `train` prints its learning curve, one line per epoch before the
/// summary, and the model it saves loads and orders a query.
#[test]
fn train_prints_one_line_per_epoch_and_saves_a_usable_model() {
    let (dir, g, q) = fixtures("train-ok");
    let model = dir.join("m.model").to_string_lossy().into_owned();
    let out = rlqvo(&["train", "--data", &g, "--size", "3", "--queries", "4", "--epochs", "2", "--out", &model]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    let epochs: Vec<&str> = lines.iter().copied().filter(|l| l.starts_with("epoch")).collect();
    assert_eq!(epochs.len(), 2, "{stdout}");
    for (i, line) in epochs.iter().enumerate() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[1], (i + 1).to_string(), "{line}");
        for (k, key) in ["mean_return", "mean_enum_advantage", "mean_entropy"].iter().enumerate() {
            assert_eq!(fields[2 + 2 * k], *key, "{line}");
            assert!(fields[3 + 2 * k].parse::<f32>().is_ok_and(f32::is_finite), "{line}");
        }
        // Where the epoch's time went: seconds in rollouts, in the update.
        for (k, key) in ["rollout_s", "update_s"].iter().enumerate() {
            assert_eq!(fields[8 + 2 * k], *key, "{line}");
            assert!(fields[9 + 2 * k].parse::<f64>().is_ok_and(|s| s.is_finite() && s >= 0.0), "{line}");
        }
        // The largest update tape: one window of steps, a positive count.
        assert_eq!(fields[12], "tape_nodes", "{line}");
        assert!(fields[13].parse::<usize>().is_ok_and(|n| n > 0), "{line}");
        assert_eq!(fields.len(), 14, "{line}");
    }
    let summary = lines.iter().position(|l| l.starts_with("trained ")).expect("summary line");
    assert_eq!(lines[..summary].iter().filter(|l| l.starts_with("epoch")).count(), 2, "{stdout}");

    let out = rlqvo(&["match", "--data", &g, "--query", &q, "--method", "rlqvo", "--model", &model]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let order = stdout.lines().find_map(|l| l.strip_prefix("order       : ")).expect("order line");
    let mut order: Vec<u32> = order.trim_matches(['[', ']']).split(", ").map(|v| v.parse().unwrap()).collect();
    order.sort_unstable();
    assert_eq!(order, [0, 1, 2], "the order is a permutation of the query's vertices");
    assert!(stdout.contains("matches     : 3"), "{stdout}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn train_rejects_malformed_values() {
    let (dir, g, _) = fixtures("train");
    let out_path = dir.join("m.model").to_string_lossy().into_owned();
    let base = ["train", "--data", &g, "--out", &out_path];
    assert_each_is_rejected(
        &base,
        &[
            ("--size", "big"),
            // A query has 1..=9 vertices on the 9-vertex host…
            ("--size", "0"),
            ("--size", "50"),
            ("--queries", "4.5"),
            // …and the 50/50 split must leave a training query.
            ("--queries", "0"),
            ("--queries", "1"),
            ("--epochs", "1e2"),
            // Zero epochs would save an untrained model.
            ("--epochs", "0"),
        ],
    );
    // A size the host has but no connected subgraph of: found only while
    // sampling, and an error all the same.
    let islands = dir.join("islands.graph");
    std::fs::write(&islands, "t 4 2\nv 0 0 1\nv 1 1 1\nv 2 0 1\nv 3 1 1\ne 0 1\ne 2 3\n").unwrap();
    let out = rlqvo(&["train", "--data", &islands.to_string_lossy(), "--out", &out_path, "--size", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: ") && !stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("m.model").exists(), "a rejected run trains nothing");
    std::fs::remove_dir_all(dir).ok();
}
