//! Runs `ledger --smoke` (every workload, tiny, untraced and traced) and
//! checks the schema both ways against `BENCHMARK.json` itself: every
//! workload and metric the file names is emitted with its unit, and
//! nothing is emitted that the file does not name.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// `"name": "<n>", "unit": "<u>"` pairs of one array of `BENCHMARK.json`.
fn named_units(doc: &str, array: &str) -> BTreeMap<String, String> {
    let start = doc.find(&format!("\"{array}\": [")).unwrap_or_else(|| panic!("{array} missing"));
    let body = &doc[start..start + doc[start..].find(']').expect("array closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item.split('"').next().expect("name");
            let unit = item.split("\"unit\": \"").nth(1).and_then(|u| u.split('"').next()).unwrap_or("");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// `"<name>": {"value": .., "unit": "<u>"}` pairs of one result line.
fn emitted_units(line: &str) -> BTreeMap<String, String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    metrics
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').next().expect("name");
            let unit = w[1].split("\"unit\": \"").nth(1).and_then(|u| u.split('"').next()).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn smoke_emits_exactly_what_benchmark_json_names() {
    let doc =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads: BTreeSet<String> = named_units(&doc, "workloads").into_keys().collect();
    let end_to_end = named_units(&doc, "end_to_end");
    let per_layer = named_units(&doc, "per_layer");
    assert_eq!(workloads.len(), 5);
    assert!(end_to_end.contains_key("setup_s"));

    let t = std::time::Instant::now();
    let mut smoke = Command::new(env!("CARGO_BIN_EXE_ledger"));
    for (k, _) in std::env::vars_os().filter(|(k, _)| k.to_string_lossy().starts_with("RLQVO_")) {
        smoke.env_remove(k);
    }
    let out = smoke.arg("--smoke").output().expect("ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke failed:\n{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    // Debug builds under a loaded test runner are slow; release is ~3 s.
    assert!(t.elapsed().as_secs() < 120, "smoke took {:?}", t.elapsed());

    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with("{\"correct\": ")).collect();
    assert_eq!(results.len(), 2 * workloads.len(), "one untraced and one traced result per workload");
    for pair in results.chunks(2) {
        for (line, schema) in pair.iter().zip([&end_to_end, &per_layer]) {
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            assert!(line.contains("\"failed\": 0, "), "{line}");
            assert_eq!(&emitted_units(line), schema, "emitted names and units differ from BENCHMARK.json");
        }
    }
    assert!(stdout.lines().last().expect("summary").contains("\"failed_runs\": 0"));
}

#[test]
fn refuses_to_start_under_ambient_rlqvo_variables() {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", "findall-heavy", "--tiny", "--seconds", "0.1"])
        .env("RLQVO_ENUM_THREADS", "2")
        .output()
        .expect("ledger runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("RLQVO_ENUM_THREADS"));
}
