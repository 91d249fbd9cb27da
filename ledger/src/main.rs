//! `ledger` — the repo's benchmark: five named workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run,
//! outputs checked against the probe oracle. See `README.md`.
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//! ledger --smoke                      every workload, tiny, both modes
//! ledger --sets                       the acceptance check of the bounds
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it carries the host fingerprint and the per-cell detail.

mod findall;
mod inputs;
mod library;
mod schema;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Instant;

use schema::{Better, Metric, Metrics, END_TO_END, RUN_SECONDS, WORKLOADS};
use stats::{cell_names, cell_value, geomean, median, metric_value, plain_value, quantile, quartiles};
use trace::{Summary, Tracer, OP};

/// One invocation's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny pools and graphs: exercises every code path in well under a
    /// second per workload. Its numbers mean nothing.
    pub smoke: bool,
}

/// Runs `f`, returning its result and the seconds it took (the result
/// is dropped by the caller, outside the timing).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// An untraced run builds its inputs at least this many times and for
/// at least [`SETUP_SPAN_S`], and reports the median build as `setup_s`:
/// this box alternates, by the second, between phases a memory-bound
/// set-up of milliseconds feels as ±50 %, and one build sees one phase.
const MIN_SETUPS: usize = 3;
const SETUP_SPAN_S: f64 = 1.0;

/// Builds the run's inputs, before anything is measured, and returns
/// them with `setup_s`. Each repeat drops the previous build first, so
/// `VmHWM` never holds two. A traced run (which does not report
/// `setup_s`) builds once; a `--tiny` run skips the time span.
pub fn set_up<T>(run: &Run, mut build: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let span = if run.smoke { 0.0 } else { SETUP_SPAN_S };
    let mut times = Vec::new();
    loop {
        let (built, seconds) = timed(&mut build);
        times.push(seconds);
        if run.trace || (times.len() >= MIN_SETUPS && t0.elapsed().as_secs_f64() >= span) {
            return (built, median(&times));
        }
        drop(built);
    }
}

/// What one closed group kept of one cell's samples (microseconds per
/// operation).
pub struct Group {
    pub samples: usize,
    pub sum_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

/// The measured operations of a run, in *groups*: one pass over the
/// queries, one block of enumerations, one round of requests. Every
/// group does the same work, so what differs between them is the
/// machine's (a neighbour on the host, where a space landed in memory),
/// not the program's. Every statistic is therefore taken per group and
/// reported from the *quietest* group: the lowest latency, the highest
/// rate. (The median over the groups follows the machine as soon as
/// half of them are disturbed: over ten runs of `findall-heavy` it spread
/// p50 / p95 / rate by 14 / 39 / 23 %, the quietest group by 1 / 3 / 1 %.)
pub struct Measured {
    /// Per cell, the samples of the open group.
    open: Vec<Vec<f64>>,
    /// Per cell, the closed groups.
    groups: Vec<Vec<Group>>,
    /// Operations per second of each closed group.
    rates: Vec<f64>,
    /// How many leading cells feed `latency_us_p50` / `latency_us_p95`:
    /// all, unless a workload has cells too unsteady to carry a bound.
    pub bounded: usize,
    pub attempted: u64,
    pub failed: u64,
    ops: u64,
    wall_s: f64,
    /// `VmHWM` when the last group closed: what the ledger allocates
    /// afterwards to fold its numbers is not the program's.
    peak_rss_mb: f64,
}

/// The exact counts of one seed's inputs, from the probe oracle. They
/// repeat bit for bit at the same `--seed`, which `--sets` checks.
#[derive(Clone, Copy)]
pub struct Counts {
    /// Mean `#enum` of an operation under the measured ordering. On the
    /// context line, not a metric: over ten seeds it ranges 35–970 on
    /// `serve-warm` (24 queries), which no bound can hold.
    pub enum_calls_per_query: f64,
    /// Σ `#enum` under the measured ordering ÷ Σ `#enum` under GQL + RI.
    pub enum_ratio_vs_ri: f64,
}

/// What a run reports.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// JSON members for the context line (per-cell detail).
    detail: String,
    /// Reconciliation failures; any makes the run incorrect.
    gate: Vec<String>,
}

impl Measured {
    pub fn new(cells: usize) -> Self {
        Measured::with_group_capacity(cells, 0)
    }

    /// With room for `samples` per cell and group already resident, so
    /// that a faster program, which logs more samples per group, is not
    /// charged a larger `peak_rss_mb`.
    pub fn with_group_capacity(cells: usize, samples: usize) -> Self {
        let touched = || {
            // NaN, not 0: zeroed pages would stay untouched until written.
            let mut v = vec![f64::NAN; samples];
            v.clear();
            v
        };
        Measured {
            open: (0..cells).map(|_| touched()).collect(),
            groups: (0..cells).map(|_| Vec::new()).collect(),
            rates: Vec::new(),
            bounded: cells,
            attempted: 0,
            failed: 0,
            ops: 0,
            wall_s: 0.0,
            peak_rss_mb: 0.0,
        }
    }

    /// Logs one measured operation of `cell` in the open group.
    pub fn sample(&mut self, cell: usize, latency_us: f64) {
        self.open[cell].push(latency_us);
    }

    /// Books one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Closes the open group, which took `wall_s` and did `ops`
    /// operations (its samples, unless a thinned-out log kept fewer).
    pub fn close_group(&mut self, wall_s: f64, ops: Option<u64>) {
        self.peak_rss_mb = peak_rss_mb();
        let ops = ops.unwrap_or_else(|| self.open.iter().map(|s| s.len() as u64).sum());
        for (open, groups) in self.open.iter_mut().zip(&mut self.groups) {
            open.sort_by(f64::total_cmp);
            groups.push(Group {
                samples: open.len(),
                sum_us: open.iter().sum(),
                p50_us: quantile(open, 0.5),
                p95_us: quantile(open, 0.95),
                p99_us: quantile(open, 0.99),
            });
            open.clear();
        }
        self.rates.push(ops as f64 / wall_s);
        self.ops += ops;
        self.wall_s += wall_s;
    }

    pub fn groups_closed(&self) -> usize {
        self.rates.len()
    }

    pub fn groups(&self, cell: usize) -> &[Group] {
        &self.groups[cell]
    }

    /// The lowest over `cell`'s groups of one of their latency statistics.
    pub fn quietest(&self, cell: usize, stat: impl Fn(&Group) -> f64) -> f64 {
        self.groups[cell].iter().map(stat).min_by(f64::total_cmp).unwrap_or(0.0)
    }

    /// Operations per second of the fastest group.
    fn ops_per_s(&self) -> f64 {
        self.rates.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0)
    }

    /// A statistic of every bounded cell, combined by geometric mean.
    fn latency_us(&self, stat: impl Fn(&Group) -> f64 + Copy) -> f64 {
        geomean(&(0..self.bounded).map(|c| self.quietest(c, stat)).collect::<Vec<_>>())
    }

    fn detail(&self, names: &[String], counts: Counts) -> String {
        let cells: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let p50s: Vec<f64> = self.groups[c].iter().map(|g| g.p50_us).collect();
                let (q1, q3) = quartiles(&p50s);
                let key = if c < self.bounded { "cell" } else { "unbounded_cell" };
                format!(
                    "{{\"{key}\": \"{name}\", \"samples\": {}, \"p50_us\": {}, \"q1_us\": {q1}, \"q3_us\": {q3}, \"p95_us\": {}}}",
                    self.groups[c].iter().map(|g| g.samples).sum::<usize>(),
                    self.quietest(c, |g| g.p50_us),
                    self.quietest(c, |g| g.p95_us)
                )
            })
            .collect();
        format!(
            "\"groups\": {}, \"measured_s\": {}, \"enum_calls_per_query\": {}, \"cells\": [{}]",
            self.groups_closed(),
            self.wall_s,
            counts.enum_calls_per_query,
            cells.join(", ")
        )
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(self, setup_s: f64, cell_names: Vec<String>, counts: Counts) -> Outcome {
        let mut metrics = Metrics::new(&END_TO_END);
        metrics.set("latency_us_p50", self.latency_us(|g| g.p50_us));
        metrics.set("latency_us_p95", self.latency_us(|g| g.p95_us));
        metrics.set("ops_per_s", self.ops_per_s());
        metrics.set("peak_rss_mb", self.peak_rss_mb);
        metrics.set("setup_s", setup_s);
        metrics.set("enum_ratio_vs_ri", counts.enum_ratio_vs_ri);
        let detail = self.detail(&cell_names, counts);
        Outcome { attempted: self.attempted, failed: self.failed, metrics, detail, gate: Vec::new() }
    }

    /// Closes a traced run: `self` holds the untraced half, `traced` the
    /// traced one. Adds the ledger's own metrics, applies the gates every
    /// workload shares, writes the trace file.
    pub fn per_layer(
        self,
        mut out: Metrics,
        tr: &Tracer,
        summary: &Summary,
        traced: &Measured,
        run: &Run,
        mut gate: Vec<String>,
    ) -> Outcome {
        let per_op = |m: &Measured| m.wall_s / m.ops.max(1) as f64;
        // The layer spans must account for the traced wall, or a stage is
        // running unmeasured.
        let unattributed = summary.busy_frac(OP);
        if unattributed > 0.05 {
            gate.push(format!("unattributed share {unattributed:.4} of the traced wall exceeds 0.05"));
        }
        out.set("ledger.unattributed_frac", unattributed);
        out.set("ledger.trace_overhead_frac", per_op(traced) / per_op(&self) - 1.0);
        out.set("ledger.spans", tr.spans().len() as f64);
        out.set("ledger.samples_per_cell", (traced.ops / traced.groups.len().max(1) as u64) as f64);
        if !tr.well_formed() {
            gate.push("a span has no enclosing parent and is not a root".to_string());
        }
        let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), std::path::PathBuf::from);
        let path = dir.join("ledger").join(format!("trace-{}.json", run.workload));
        if let Err(e) = tr.write_json(&path, &run.workload, run.seed) {
            gate.push(format!("trace file {}: {e}", path.display()));
        }
        let detail = format!("\"trace_file\": \"{}\", \"spans\": {}", path.display(), tr.spans().len());
        Outcome { attempted: self.attempted, failed: self.failed, metrics: out, detail, gate }
    }
}

/// Pins the calling thread, and with it every thread started afterwards,
/// to the first CPU it may run on, and returns that CPU. The four
/// workloads with one stream of work at a time call it before anything
/// else: left to the scheduler, a request's hops between client,
/// connection and worker threads cross the guest's two CPUs or not by
/// chance, which moved `serve-warm` between 15 000 and 33 000 requests
/// per second from one round to the next; on one CPU it reads 40 000,
/// within 4 %. `findall-heavy` measures 2-thread cells and stays unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long, which is what both calls are told;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros();
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0).then_some(word * 64 + bit as usize)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The process's high-water resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn tool_version(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().replace('"', "'"))
}

/// nproc, CPU model and SIMD flags, rustc, commit: what a number needs
/// beside it to be compared with another.
fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or_else(String::new, |(_, v)| v.trim().replace('"', "'"))
    };
    let flags = field("flags");
    let simd: Vec<&str> =
        ["avx2", "fma", "avx512f"].into_iter().filter(|f| flags.split(' ').any(|x| x == *f)).collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let commit = if std::path::Path::new(".git").exists() {
        tool_version("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"simd\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{commit}\"}}",
        field("model name"),
        simd.join(" "),
        tool_version("rustc", &["--version"])
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

fn run_workload(run: &Run) -> ExitCode {
    let pinned_cpu = if run.workload == "findall-heavy" { None } else { pin_to_one_cpu() };
    let outcome = match run.workload.as_str() {
        "oneshot-cold" => library::run(run, false),
        "learned-order" => library::run(run, true),
        "findall-heavy" => findall::run(run),
        "serve-warm" => serve::run(run, false),
        "serve-churn" => serve::run(run, true),
        other => Err(WORKLOADS
            .iter()
            .fold(format!("unknown workload {other:?}; known:"), |msg, w| format!("{msg}\n  {}: {}", w.name, w.why))),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    for g in &outcome.gate {
        eprintln!("ledger: reconciliation gate: {g}");
    }
    let correct = outcome.failed == 0 && outcome.gate.is_empty();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"pinned_cpu\": {}, \"host\": {}, {}}}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        pinned_cpu.map_or("null".to_string(), |c| c.to_string()),
        host_fingerprint(),
        outcome.detail
    );
    println!("{}", result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// Runs this binary again as a child (process-global scheduler counters,
/// the worker gauge and `VmHWM` then belong to one workload) and returns
/// its context line and its result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Lines, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().map(str::to_string);
    let (last, context) = (lines.next().unwrap_or_default(), lines.next().unwrap_or_default());
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {}: {}{last}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok((context, last))
}

/// Every workload at 2 passes of tiny pools, untraced and traced.
fn smoke(seed: u64) -> ExitCode {
    let mut failed_runs = 0;
    for w in workload_names() {
        for trace in [false, true] {
            match child(w, seed, 0.2, trace, true) {
                Ok((_, line)) => println!("{line}"),
                Err(e) => {
                    eprintln!("ledger: smoke: {e}");
                    failed_runs += 1;
                }
            }
        }
    }
    println!("{{\"smoke\": true, \"runs\": {}, \"failed_runs\": {failed_runs}}}", 2 * WORKLOADS.len());
    if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs per set of the acceptance check.
const RUNS_PER_SET: usize = 10;

/// How far [`compare`] holds a quantity to its bound.
#[derive(Clone, Copy, PartialEq)]
enum Hold {
    /// The second median against the first, and each set's spread: an
    /// end-to-end metric, by the driver's rule.
    MedianAndSpread,
    /// The second median only: `setup_s` by the driver's rule, and a
    /// cell, whose spread over seeds is the queries' and not the clock's
    /// (a cell's p95 is the tenth slowest of 192 sampled queries).
    Median,
    /// Printed, never a breach: a cell too unsteady to carry a bound.
    Nothing,
}

/// One row of the acceptance check: both sets' medians and quartile
/// spreads of one quantity, the second median against the first, and
/// the bound. Returns whether the row is a breach.
fn compare(workload: &str, m: &Metric, name: &str, hold: Hold, values: &[Vec<f64>; 2]) -> bool {
    let medians = values.each_ref().map(|v| median(v));
    let spreads = [0, 1].map(|s| {
        let (q1, q3) = quartiles(&values[s]);
        (q3 - q1) / medians[s]
    });
    let worse = match m.better {
        Better::Lower => (medians[1] - medians[0]) / medians[0],
        Better::Higher => (medians[0] - medians[1]) / medians[0],
    };
    let spread_breach = hold == Hold::MedianAndSpread && spreads.iter().any(|&s| s > m.bound);
    let breach = hold != Hold::Nothing && (spread_breach || worse > m.bound || !worse.is_finite());
    println!(
        "{{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"unit\": \"{}\", \"medians\": {medians:?}, \"iqr_over_median\": {spreads:?}, \"second_worse_than_first\": {worse}, \"bound\": {}, \"bounded\": {}, \"breach\": {breach}}}",
        m.unit,
        m.bound,
        hold != Hold::Nothing
    );
    breach
}

/// What one child run printed: its context line and its result line.
type Lines = (String, String);
/// Reads one number out of a run's lines.
type Reader<'a> = &'a dyn Fn(&Lines) -> Option<f64>;

/// The acceptance check of the bounds: the whole benchmark twice back to
/// back, each set [`RUNS_PER_SET`] untraced runs per workload on the
/// same ten seeds. Every end-to-end metric is compared by [`compare`],
/// and so is every cell's own p50 and p95 under the bounds of
/// `latency_us_p50` / `latency_us_p95` (those two combine the cells by
/// geometric mean, which one cell alone moves only by its root). The
/// exact counts must repeat bit for bit at equal seeds.
fn sets(base_seed: u64, seconds: f64) -> ExitCode {
    let mut breaches = 0;
    let latency = |name: &str| END_TO_END.iter().find(|m| m.name == name).expect("a latency metric");
    for w in workload_names() {
        let mut lines: [Vec<Lines>; 2] = [Vec::new(), Vec::new()];
        for set in &mut lines {
            for r in 0..RUNS_PER_SET {
                match child(w, base_seed + r as u64, seconds, false, false) {
                    Ok(pair) => set.push(pair),
                    Err(e) => {
                        eprintln!("ledger: sets: {e}");
                        breaches += 1;
                    }
                }
            }
        }
        let column = |read: Reader| {
            lines.each_ref().map(|set| set.iter().map(|l| read(l).unwrap_or(f64::NAN)).collect::<Vec<f64>>())
        };
        for m in &END_TO_END {
            let hold = if m.name == "setup_s" { Hold::Median } else { Hold::MedianAndSpread };
            let values = column(&|(_, result)| metric_value(result, m.name));
            breaches += u32::from(compare(w, m, m.name, hold, &values));
        }
        let first_context = lines[0].first().map_or("", |(context, _)| context);
        for (tag, hold) in [("cell", Hold::Median), ("unbounded_cell", Hold::Nothing)] {
            for cell in cell_names(first_context, tag) {
                for (key, m) in [("p50_us", latency("latency_us_p50")), ("p95_us", latency("latency_us_p95"))] {
                    let values = column(&|(context, _)| cell_value(context, tag, &cell, key));
                    breaches += u32::from(compare(w, m, &format!("{cell}.{key}"), hold, &values));
                }
            }
        }
        let counts: [(&str, Reader); 2] = [
            ("enum_calls_per_query", &|(context, _)| plain_value(context, "enum_calls_per_query")),
            ("enum_ratio_vs_ri", &|(_, result)| metric_value(result, "enum_ratio_vs_ri")),
        ];
        for (key, read) in counts {
            let [first, second] = column(read);
            let repeats =
                first.len() == second.len() && first.iter().zip(&second).all(|(a, b)| a.to_bits() == b.to_bits());
            breaches += u32::from(!repeats);
            println!(
                "{{\"workload\": \"{w}\", \"count\": \"{key}\", \"per_seed\": {first:?}, \"repeats_exactly\": {repeats}}}"
            );
        }
    }
    println!("{{\"sets\": 2, \"runs_per_set\": {RUNS_PER_SET}, \"breaches\": {breaches}}}");
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

enum Mode {
    Workload,
    Smoke,
    Sets,
}

fn main() -> ExitCode {
    // Ambient-state hygiene: `EnumConfig::default()`, the caches' verify
    // switch and the figure harness all read `RLQVO_*`; with any of them
    // set, two ledgers are not measuring the same program.
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("RLQVO_")) {
        eprintln!("ledger: refusing to start while {} is set (unset every RLQVO_* variable)", k.to_string_lossy());
        return ExitCode::from(2);
    }

    let parse = || -> Result<ExitCode, String> {
        let mut run =
            Run { workload: String::new(), seed: 1, seconds: f64::from(RUN_SECONDS), trace: false, smoke: false };
        let mut mode = Mode::Workload;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => run.workload = value()?,
                "--seed" => run.seed = value()?.parse().map_err(|_| "bad --seed (want a whole number)")?,
                "--seconds" => run.seconds = value()?.parse().map_err(|_| "bad --seconds (want a number)")?,
                "--trace" => {
                    run.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
                    }
                }
                "--tiny" => run.smoke = true,
                "--smoke" => mode = Mode::Smoke,
                "--sets" => mode = Mode::Sets,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(run.seconds > 0.0 && run.seconds <= 60.0) {
            return Err(format!("--seconds {} is outside (0, 60]", run.seconds));
        }
        match mode {
            Mode::Smoke => Ok(smoke(run.seed)),
            Mode::Sets => Ok(sets(run.seed, run.seconds)),
            Mode::Workload if run.workload.is_empty() => {
                Err("one of --workload NAME, --smoke, --sets is required".to_string())
            }
            Mode::Workload => Ok(run_workload(&run)),
        }
    };
    parse().unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 0.8127);
        let line = result_line(true, 1000, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.8127));
        for e in END_TO_END.iter().chain(&schema::PER_LAYER) {
            assert_eq!(metric_value(&line, e.name).is_some(), END_TO_END.iter().any(|x| x.name == e.name));
        }
    }

    #[test]
    fn latency_is_the_quietest_group_combined_by_geometric_mean() {
        let mut m = Measured::new(3);
        m.bounded = 2;
        // Three groups; two of them fell into slow seconds of the machine.
        for (fast, dear, unbounded, wall_s) in [(9.0, 900.0, 7.0, 9.0), (1.0, 100.0, 7.0, 1.0), (9.0, 900.0, 7.0, 9.0)]
        {
            m.sample(0, fast);
            m.sample(1, dear);
            m.sample(2, unbounded);
            m.close_group(wall_s, None);
        }
        assert!((m.latency_us(|g| g.p50_us) - 10.0).abs() < 1e-9);
        assert_eq!((m.groups_closed(), m.ops, m.groups(2).len()), (3, 9, 3));
        assert_eq!(m.ops_per_s(), 3.0);
    }
}
