//! `rlqvo` — command-line subgraph matching.
//!
//! ```text
//! rlqvo match  --data G.graph --query q.graph [--method hybrid|rlqvo|...]
//!              [--model m.model] [--max-matches N] [--time-limit-ms T]
//!              [--engine candspace|probe|auto] [--enum-threads N]
//!              [--repeat N] [--space-cache on|off] [--order-cache on|off]
//! rlqvo train  --data G.graph --size K --queries N --epochs E --out m.model
//! rlqvo stats  --data G.graph
//! rlqvo serve  --data G.graph [--threads N] [--enum-threads N] ...
//! ```
//!
//! Graphs use the `t/v/e` text format of the in-memory study
//! (`rlqvo_graph::io`). `match` prints per-phase timings, `#enum` and the
//! match count — the numbers the paper reports. `--repeat N` replays the
//! query N rounds through the same warm path a served request takes
//! (`rlqvo_matching::run_cached`): with the space cache on (the default),
//! rounds 2+ reuse the round-1 filtered candidates and built
//! `CandidateSpace`; with the order cache on too (the default), they also
//! reuse the round-1 matching order, so repeated queries pay phases 1 and
//! 2 once and enumeration only afterwards. `--engine` names phase 3's
//! implementation: `candspace` (the default), `auto` (candspace, with
//! `--enum-threads` capped at what the estimated enumeration work can keep
//! busy) or `probe` (the differential oracle: same matches, same `#enum`,
//! never run unless named). `train` prints the learning curve, one line
//! per epoch (`mean_return`, `mean_enum_advantage`, `mean_entropy`, the
//! seconds spent in rollouts and in the PPO update, `rollout_s` and
//! `update_s`, and `tape_nodes`, the nodes on the largest tape an update
//! pass recorded),
//! before its summary. Every option is a flag; a malformed value is an
//! error, never a silent default.

use std::io::BufReader;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Duration;

use rlqvo_suite::core::{RlQvo, RlQvoConfig};
use rlqvo_suite::datasets::{try_build_query_set, SplitQuerySet};
use rlqvo_suite::graph::{io::read_graph, Graph, GraphStats};
use rlqvo_suite::matching::{
    run_cached, run_pipeline, EnumConfig, EnumEngine, Method, OrderCache, Pipeline, QueryKey, SpaceCache,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("match") => cmd_match(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!("usage: rlqvo <match|train|stats|serve> [--flag value]...");
            eprintln!(
                "  match --data G --query q [--method hybrid] [--model m] [--max-matches N] [--time-limit-ms T] [--engine candspace|probe|auto] [--enum-threads N] [--repeat N] [--space-cache on|off] [--order-cache on|off]"
            );
            eprintln!(
                "    --engine: candspace (default) | auto (candspace, workers capped by estimated work) | probe (the differential oracle)"
            );
            eprintln!("  train --data G [--size 8] [--queries 32] [--epochs 40] --out m.model");
            eprintln!("  stats --data G");
            eprintln!(
                "  serve --data G [--threads N] [--enum-threads N] [--queue-depth 64] [--model m] [--max-matches N] [--time-limit-ms T] [--no-cache] [--fault-injection] [--batch N] [--fast-math on|off] [--space-cache-bytes B] [--order-cache-bytes B] [--stall-timeout-ms T] [--faults SPEC] [--fault-seed N]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// The parsed value of `--name`, `None` when the flag is absent, and
/// `bad --name "x"` when the value does not parse — on every subcommand.
fn parsed<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name).map(|v| v.parse().map_err(|_| format!("bad {name} {v:?}"))).transpose()
}

/// An `on|off` flag, `default` when absent.
fn switch(args: &[String], name: &str, default: bool) -> Result<bool, String> {
    match flag(args, name).as_deref() {
        None => Ok(default),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(format!("bad {name} {other:?} (want on|off)")),
    }
}

fn load(path: &str, universe: Option<u32>) -> Result<Graph, Box<dyn std::error::Error>> {
    let file = std::fs::File::open(path)?;
    Ok(read_graph(BufReader::new(file), universe)?)
}

fn cmd_stats(args: &[String]) -> CliResult {
    let data = flag(args, "--data").ok_or("--data is required")?;
    let g = load(&data, None)?;
    println!("{}", GraphStats::of(&g));
    Ok(())
}

fn cmd_match(args: &[String]) -> CliResult {
    let data = flag(args, "--data").ok_or("--data is required")?;
    let query = flag(args, "--query").ok_or("--query is required")?;
    let method = flag(args, "--method").unwrap_or_else(|| "hybrid".to_string());
    let g = load(&data, None)?;
    let q = load(&query, Some(g.num_labels()))?;

    let engine = match flag(args, "--engine") {
        None => EnumEngine::default(),
        Some(v) => EnumEngine::parse(&v).ok_or_else(|| format!("unknown engine {v:?} (probe|candspace|auto)"))?,
    };
    let config = EnumConfig {
        max_matches: parsed(args, "--max-matches")?.unwrap_or(100_000),
        time_limit: Duration::from_millis(parsed(args, "--time-limit-ms")?.unwrap_or(500_000)),
        engine,
        threads: parsed(args, "--enum-threads")?.map_or(1, NonZeroUsize::get),
        ..EnumConfig::default()
    };

    // The learned model must outlive the borrowed ordering.
    let model;
    let learned;
    let method = match Method::by_cli_name(&method) {
        Some(m) => m,
        None if method == "rlqvo" => {
            let path = flag(args, "--model").ok_or("--method rlqvo needs --model")?;
            model = RlQvo::load(&path, RlQvoConfig::harness())?;
            learned = model.ordering();
            Method::learned(&learned)
        }
        None => return Err(format!("unknown method {method:?}").into()),
    };
    let pipeline = Pipeline { filter: method.filter, ordering: method.ordering, config };

    let repeat = parsed(args, "--repeat")?.map_or(1, NonZeroUsize::get);
    let use_cache = switch(args, "--space-cache", true)?;
    // The ordering cache rides on the space cache (it serves orders
    // computed against the cached candidates); `--order-cache off`
    // recomputes the order every round. Parsed unconditionally so a bad
    // value errors even with the space cache off.
    let use_order_cache = switch(args, "--order-cache", true)? && use_cache;

    println!("method      : {} ({} filter + {} ordering)", method.cli, method.filter.name(), method.ordering.name());
    println!("engine      : {}", config.engine.name());
    println!("enum threads: {}", config.threads);
    println!("space cache : {}", if use_cache { "on" } else { "off" });
    println!("order cache : {}", if use_order_cache { "on" } else { "off" });

    // `--repeat` replays the query; with the caches on, round 1 filters,
    // orders and (lazily) builds, rounds 2+ reuse the entry and the
    // cached order and pay phase 3 only — the serving-loop shape. The
    // query is fingerprinted exactly once (`QueryKey`), not per round.
    let cache = SpaceCache::new();
    let order_cache = OrderCache::new();
    let query_key = QueryKey::of(&q);
    let mut last = None;
    for round in 1..=repeat {
        let r = if use_cache {
            run_cached(&q, &g, &pipeline, &query_key, &cache, use_order_cache.then_some(&order_cache)).0
        } else {
            run_pipeline(&q, &g, &pipeline)
        };
        if repeat > 1 {
            println!(
                "round {:<5} : filter {:?} + order {:?} + enum {:?} = {:?}",
                round,
                r.filter_time,
                r.order_time,
                r.enum_time,
                r.total_time()
            );
        }
        last = Some(r);
    }
    let r = last.expect("at least one round ran");
    println!("order       : {:?}", r.order);
    println!(
        "matches     : {}{}",
        r.enum_result.match_count,
        if r.unsolved() { "  [UNSOLVED: time limit]" } else { "" }
    );
    println!("#enum       : {}", r.enum_result.enumerations);
    println!(
        "time        : filter {:?} + order {:?} + enum {:?} = {:?}",
        r.filter_time,
        r.order_time,
        r.enum_time,
        r.total_time()
    );
    Ok(())
}

/// Long-lived serving loop over one warm host graph: bounded admission
/// queue (`overloaded` beyond `--queue-depth`), per-request deadlines
/// enforced cooperatively inside the engine, `catch_unwind` fault
/// isolation, and cache degradation (see `crates/serve`). Binds an
/// ephemeral local port and prints it; a `shutdown` request stops it.
fn cmd_serve(args: &[String]) -> CliResult {
    let data = flag(args, "--data").ok_or("--data is required")?;
    let g = std::sync::Arc::new(load(&data, None)?);
    let mut config = rlqvo_suite::serve::ServeConfig {
        queue_depth: parsed(args, "--queue-depth")?.unwrap_or(64),
        use_cache: !args.iter().any(|a| a == "--no-cache"),
        fault_injection: args.iter().any(|a| a == "--fault-injection"),
        model_path: flag(args, "--model"),
        ..rlqvo_suite::serve::ServeConfig::default()
    };
    if let Some(t) = parsed::<NonZeroUsize>(args, "--threads")? {
        config.threads = t.get();
    }
    // Workers per request, drawn from the `--threads` token budget
    // (`Server::start` clamps the request to it).
    if let Some(t) = parsed::<NonZeroUsize>(args, "--enum-threads")? {
        config.enum_config.threads = t.get();
    }
    if let Some(m) = parsed(args, "--max-matches")? {
        config.enum_config.max_matches = m;
    }
    if let Some(t) = parsed(args, "--time-limit-ms")? {
        config.enum_config.time_limit = Duration::from_millis(t);
    }
    // Inference knobs: `--batch` sets the micro-batch gather size (the
    // server tracks at most 64), `--fast-math` opts the RL-QVO ordering
    // path into the fast-math kernels — which only `--model` enables.
    if let Some(b) = parsed::<usize>(args, "--batch")? {
        if !(1..=64).contains(&b) {
            return Err(format!("bad --batch \"{b}\" (want 1..=64)").into());
        }
        config.batch = b;
    }
    config.fast_math = switch(args, "--fast-math", config.fast_math)?;
    if config.fast_math && config.model_path.is_none() {
        return Err("bad --fast-math \"on\" (needs --model)".into());
    }
    // Resilience knobs: bounded cache tiers, the wedged-worker watchdog,
    // and the failpoint registry (`--faults`/`RLQVO_FAULTS`).
    config.space_cache_bytes = parsed(args, "--space-cache-bytes")?;
    config.order_cache_bytes = parsed(args, "--order-cache-bytes")?;
    config.stall_timeout = parsed(args, "--stall-timeout-ms")?.map(Duration::from_millis);
    let faults = flag(args, "--faults");
    if let Some(spec) = &faults {
        let seed = parsed(args, "--fault-seed")?.unwrap_or(0);
        rlqvo_suite::fault::arm(spec, seed).map_err(|e| format!("bad --faults spec: {e}"))?;
    } else {
        // No flag: honour RLQVO_FAULTS / RLQVO_FAULT_SEED if set.
        rlqvo_suite::fault::arm_from_env().map_err(|e| format!("bad RLQVO_FAULTS spec: {e}"))?;
    }
    let caching = if config.use_cache { "on" } else { "off (cold path)" };
    let batching = config.batch;
    let math = if config.fast_math { "fast" } else { "bitwise" };
    let handle = rlqvo_suite::serve::Server::start(config, g)?;
    println!("listening on {}", handle.addr());
    println!("caches      : {caching}");
    println!("batch       : {batching}");
    println!("math        : {math}");
    if rlqvo_suite::fault::armed() {
        println!("faults      : armed ({})", faults.as_deref().unwrap_or("from env"));
    }
    println!("send `shutdown` to stop");
    handle.wait();
    Ok(())
}

fn cmd_train(args: &[String]) -> CliResult {
    let data = flag(args, "--data").ok_or("--data is required")?;
    let out = flag(args, "--out").ok_or("--out is required")?;
    let size: usize = parsed(args, "--size")?.unwrap_or(8);
    let count: usize = parsed(args, "--queries")?.unwrap_or(32);
    let epochs = parsed(args, "--epochs")?.map_or(40, NonZeroUsize::get);

    let g = load(&data, None)?;
    if size == 0 || size > g.num_vertices() {
        return Err(format!("bad --size \"{size}\" (want 1..={}, the host's vertex count)", g.num_vertices()).into());
    }
    // The 50/50 split must leave a training query.
    if count < 2 {
        return Err(format!("bad --queries \"{count}\" (want at least 2: half of them train)").into());
    }
    let set = try_build_query_set(&g, size, count, 0xC11).map_err(|e| format!("cannot sample --size {size}: {e}"))?;
    let split = SplitQuerySet::from(set);
    let mut config = RlQvoConfig::harness();
    config.epochs = epochs;
    let mut model = RlQvo::new(config);
    let report = model.train(&split.train, &g);
    for (i, e) in report.epochs.iter().enumerate() {
        println!(
            "epoch {:>3}  mean_return {:+.4}  mean_enum_advantage {:+.4}  mean_entropy {:.4}  rollout_s {:.3}  update_s {:.3}  tape_nodes {}",
            i + 1,
            e.mean_return,
            e.mean_enum_advantage,
            e.mean_entropy,
            e.rollout_s,
            e.update_s,
            e.max_tape_nodes
        );
    }
    println!(
        "trained {} epochs on {} queries in {:?}; final advantage over Hybrid {:+.3}",
        epochs,
        split.train.len(),
        report.elapsed,
        report.final_enum_advantage()
    );
    model.save(&out)?;
    println!("saved {out}");
    Ok(())
}
