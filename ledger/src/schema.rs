//! The benchmark's fixed schema: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is this
//! module rendered (by the ignored test `write_benchmark_json`); a test
//! pins the two together, and [`Metrics::set`] refuses a name the schema
//! lacks, so nothing can be emitted that `BENCHMARK.json` does not name.

use std::collections::BTreeMap;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// Byte bounds of the serve caches on `serve-churn`: the resident size
/// of about 256 yeast-Q8 entries (measured unbounded: ~5.9 KiB of
/// candidate state and 144 B of order per entry), a sixteenth of the
/// 4096-query pool. Frozen here so the working-set ratio stays put.
pub const CHURN_SPACE_CACHE_BYTES: usize = 1_500_000;
pub const CHURN_ORDER_CACHE_BYTES: usize = 36_864;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "oneshot-cold",
        why: "cold filter+order+enumerate per query on four paper query sets: what rlqvo match costs; caches do nothing",
    },
    Workload {
        name: "learned-order",
        why: "same cold pipeline with the trained RL-QVO ordering: the only workload where policy inference and training count",
    },
    Workload {
        name: "findall-heavy",
        why: "find-all in prebuilt spaces on three adversarial hosts at 1 and 2 threads: enumeration and stealing only; latency is the serial cells",
    },
    Workload {
        name: "serve-warm",
        why: "closed loop, 2 clients, Zipf over 96 queries, cheapest hottest: every request is decode, two cache hits, small enumeration, reply",
    },
    Workload {
        name: "serve-churn",
        why: "closed loop, 2 clients, 4096 uniform queries, caches a sixteenth of that: miss, fill and evict on most requests",
    },
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports all of them. An
/// operation is one query (library workloads), one enumeration
/// (`findall-heavy`) or one request (serve workloads); latencies are
/// taken per cell and combined by geometric mean, a summary: `--sets`
/// holds each cell to the bound as well (see README).
/// `enum_ratio_vs_ri` is Σ `#enum` under the measured ordering ÷ Σ `#enum`
/// under GQL + RI on the same queries: the paper's claim on
/// `learned-order` (0.77–0.83 over ten seeds, quartile spread 3.6 %),
/// exactly 1 wherever the measured ordering is RI.
pub const END_TO_END: [Metric; 6] = [
    e2e("latency_us_p50", "us", Lower, 0.25),
    e2e("latency_us_p95", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("enum_ratio_vs_ri", "ratio", Lower, 0.15),
];

/// Measured in the traced run, from outside, at the layer boundaries.
/// A layer a workload does not run reads 0 there.
pub const PER_LAYER: [Metric; 54] = [
    layer("graph.io.parse_us", "us", Lower),
    layer("serve.protocol.encode_us", "us", Lower),
    layer("serve.protocol.decode_us", "us", Lower),
    layer("serve.client.latency_us_p99", "us", Lower),
    layer("serve.server.service_us_p50", "us", Lower),
    layer("serve.server.overhead_us_p50", "us", Lower),
    layer("serve.server.overhead_us_p99", "us", Lower),
    layer("serve.server.served", "count", Higher),
    layer("serve.server.shed", "count", Lower),
    layer("serve.server.errors", "count", Lower),
    layer("serve.server.deadline_exceeded", "count", Lower),
    layer("matching.spacecache.hit_ns", "ns", Lower),
    layer("matching.spacecache.miss_fill_us", "us", Lower),
    layer("matching.spacecache.hit_rate", "ratio", Higher),
    layer("matching.spacecache.evictions", "count", Lower),
    layer("matching.spacecache.resident_bytes", "bytes", Lower),
    layer("matching.ordercache.hit_ns", "ns", Lower),
    layer("matching.ordercache.hit_rate", "ratio", Higher),
    layer("matching.ordercache.evictions", "count", Lower),
    layer("matching.filter.ldf_us", "us", Lower),
    layer("matching.filter.nlf_us", "us", Lower),
    layer("matching.filter.gql_us", "us", Lower),
    layer("matching.filter.candidates_per_query", "count", Lower),
    layer("matching.filter.busy_frac", "ratio", Lower),
    layer("matching.candspace.build_us", "us", Lower),
    layer("matching.candspace.bytes_per_query", "bytes", Lower),
    layer("matching.candspace.busy_frac", "ratio", Lower),
    layer("matching.order.ri_us", "us", Lower),
    layer("core.ordering.infer_us", "us", Lower),
    layer("core.ordering.infer_fast_us", "us", Lower),
    layer("core.ordering.infer_b8_us_per_query", "us", Lower),
    layer("core.ordering.busy_frac", "ratio", Lower),
    layer("core.trainer.train_s", "s", Lower),
    layer("core.trainer.enum_advantage", "ln", Higher),
    layer("matching.enumerate.space_ns_per_call", "ns", Lower),
    layer("matching.enumerate.probe_ns_per_call", "ns", Lower),
    layer("matching.enumerate.calls", "count", Lower),
    layer("matching.enumerate.calls_per_query", "count", Lower),
    layer("matching.enumerate.busy_frac", "ratio", Lower),
    layer("matching.enumerate.auto_probe_share", "ratio", Lower),
    layer("matching.enumerate.auto_wrong_engine_share", "ratio", Lower),
    layer("matching.enumerate.dense_band_ms_t1", "ms", Lower),
    layer("matching.enumerate.skewed_hub_ms_t1", "ms", Lower),
    layer("matching.enumerate.single_root_ms_t1", "ms", Lower),
    layer("matching.parallel.dense_band_ms_t2", "ms", Lower),
    layer("matching.parallel.skewed_hub_ms_t2", "ms", Lower),
    layer("matching.parallel.single_root_ms_t2", "ms", Lower),
    layer("matching.parallel.peak_workers", "count", Higher),
    layer("matching.scheduler.steals", "count", Higher),
    layer("matching.scheduler.steal_failures", "count", Lower),
    layer("ledger.unattributed_frac", "ratio", Lower),
    layer("ledger.trace_overhead_frac", "ratio", Lower),
    layer("ledger.spans", "count", Higher),
    layer("ledger.samples_per_cell", "count", Higher),
];

/// The metric values of one run, keyed by schema name.
pub struct Metrics {
    schema: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `schema`, reading 0 until set.
    pub fn new(schema: &'static [Metric]) -> Self {
        Metrics { schema, values: schema.iter().map(|m| (m.name, 0.0)).collect() }
    }

    /// Panics on a name the schema does not carry: a typo must not
    /// become a metric `BENCHMARK.json` has never heard of.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.values.get_mut(name).unwrap_or_else(|| panic!("metric {name:?} is not in the schema"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `"name": {"value": v, "unit": "u"}` pairs in schema order.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .schema
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, self.values[m.name], m.unit))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn better_name(b: Better) -> &'static str {
        match b {
            Lower => "lower",
            Higher => "higher",
        }
    }

    /// The exact text of `BENCHMARK.json`.
    fn benchmark_json() -> String {
        let workloads: Vec<String> =
            WORKLOADS.iter().map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)).collect();
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better_name(m.better),
                    m.bound
                )
            })
            .collect();
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better_name(m.better)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n  \"paths\": [\"ledger\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            e2e.join(",\n"),
            layers.join(",\n")
        )
    }

    const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

    /// The contract's limits on names, units and `why` lines.
    #[test]
    fn schema_respects_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty() && u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s carries the largest bound");
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` is this schema, byte for byte: every metric and
    /// workload it names is one the ledger emits, and the other way.
    #[test]
    fn benchmark_json_on_disk_is_the_rendered_schema() {
        let on_disk = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with: cargo test -- --ignored write_benchmark_json");
    }

    /// Not a check: rewrites `BENCHMARK.json` after a schema change.
    #[test]
    #[ignore = "writes BENCHMARK.json"]
    fn write_benchmark_json() {
        std::fs::write(BENCHMARK_JSON, benchmark_json()).expect("BENCHMARK.json is writable");
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn unknown_metric_names_are_refused() {
        Metrics::new(&END_TO_END).set("latency_ms_p50", 1.0);
    }
}
