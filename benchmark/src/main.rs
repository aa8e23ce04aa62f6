//! The repository benchmark.  See README.md for the workloads, the metrics
//! and how they should move each other.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --all           [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --smoke                      every workload, windows / 20
//! benchmark --self-test                  a corrupted result must fail the run
//! benchmark --compare A.json B.json      two --out files, metric by metric
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  The process
//! exits non-zero when any output was wrong.

#![forbid(unsafe_code)]

mod compare;
mod flowpool;
mod metrics;
mod parity;
mod probes;
mod run;
mod spans;
mod workloads;

use run::{run_workload, RunConfig, RunResult};
use serde::json::JsonWriter;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{WorkloadDef, WORKLOADS};

/// Default `--seed` (the rulesets' fixed seed is the same date).
const DEFAULT_SEED: u64 = workloads::RULESET_SEED;
/// Default `--seconds`, and `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    selected: Vec<&'static WorkloadDef>,
    config: RunConfig,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload NAME | --all | --smoke | --self-test | --compare A.json B.json\n\
         \x20      [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        selected: Vec::new(),
        config: RunConfig {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            corrupt: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let def = workloads::find(name)
                    .ok_or_else(|| format!("no workload {name:?}\n{}", usage()))?;
                parsed.selected = vec![def];
            }
            "--all" => parsed.selected = WORKLOADS.iter().collect(),
            "--smoke" => {
                parsed.selected = WORKLOADS.iter().collect();
                parsed.config.seconds = DEFAULT_SECONDS / 20.0;
            }
            "--self-test" => {
                parsed.selected = vec![&WORKLOADS[0]];
                parsed.config.seconds = DEFAULT_SECONDS / 20.0;
                parsed.config.corrupt = true;
            }
            "--seed" => {
                parsed.config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.config.seconds = seconds;
            }
            "--trace" => {
                parsed.config.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if parsed.selected.is_empty() {
        return Err(usage());
    }
    Ok(parsed)
}

fn write_metrics(w: &mut JsonWriter, result: &RunResult, with_spread: bool) {
    w.key("metrics");
    w.begin_object();
    for (def, m) in &result.metrics {
        w.key(def.name);
        w.begin_object();
        w.key("value");
        w.float(m.value);
        w.key("unit");
        w.string(def.unit);
        if with_spread {
            w.key("iqr");
            w.float(m.iqr);
            w.key("n");
            w.unsigned(m.n as u128);
        }
        w.end_object();
    }
    w.end_object();
}

fn write_verdict(w: &mut JsonWriter, result: &RunResult) {
    w.key("correct");
    w.boolean(result.correct());
    w.key("attempted");
    w.unsigned(result.attempted.into());
    w.key("failed");
    w.unsigned(result.failed.into());
}

/// The result line the driver reads.
fn result_line(result: &RunResult) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_verdict(&mut w, result);
    write_metrics(&mut w, result, false);
    w.end_object();
    w.finish()
}

/// The `--out` document: every run with spread and sample count, for
/// `--compare`.
fn out_document(args: &Args, results: &[RunResult]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("pclass-benchmark/v1");
    w.key("seed");
    w.unsigned(args.config.seed.into());
    w.key("seconds");
    w.float(args.config.seconds);
    w.key("trace");
    w.unsigned(args.config.traced.into());
    w.key("nproc");
    w.unsigned(nproc() as u128);
    w.key("workloads");
    w.begin_object();
    for result in results {
        w.key(result.workload);
        w.begin_object();
        write_verdict(&mut w, result);
        w.key("wall_s");
        w.float(result.wall_s);
        write_metrics(&mut w, result, true);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// This package's directory: where `cargo run` says the manifest is, else
/// where it was when the binary was built (a copied checkout keeps its
/// outputs inside itself as long as it is run through cargo).
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_table(result: &RunResult, config: &RunConfig) {
    println!(
        "== {}  seed {}  seconds {}  trace {}  nproc {}  wall {:.1} s",
        result.workload,
        config.seed,
        config.seconds,
        u8::from(config.traced),
        nproc(),
        result.wall_s
    );
    for (def, m) in &result.metrics {
        println!(
            "{:<40} {:>16.4} {:<9} iqr {:<12.4} n {:<8} {} is better",
            def.name,
            m.value,
            def.unit,
            m.iqr,
            m.n,
            def.better.as_str()
        );
    }
    if config.traced {
        println!("where the run's time went (self = span - children), by span name:");
        for (name, count, total_s, self_s) in result.self_times.iter().take(12) {
            println!("  {name:<32} self {self_s:>8.3} s  total {total_s:>8.3} s  n {count}");
        }
        println!(
            "child spans cover {:.1} % of the pass spans' time ({:.1} % of the worst one)",
            result.pass_cover.0 * 100.0,
            result.pass_cover.1 * 100.0
        );
    }
    println!(
        "verified {} outputs, {} wrong",
        result.attempted, result.failed
    );
}

fn write_trace(result: &RunResult) -> Result<(), String> {
    let Some(json) = &result.trace_json else {
        return Ok(());
    };
    let dir = package_dir().join("out");
    let path = dir.join(format!("{}.trace.json", result.workload));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err(usage()),
        };
    }
    let args = parse(&args)?;
    parity::check()?;
    if args.config.corrupt {
        eprintln!("self-test: one decision is corrupted on purpose; this run must fail");
    }
    let mut results = Vec::new();
    for def in &args.selected {
        println!("-- {}: {}", def.name, def.why);
        let result = run_workload(def, &args.config);
        print_table(&result, &args.config);
        write_trace(&result)?;
        // The driver reads the last line of a --workload run.
        println!("{}", result_line(&result));
        results.push(result);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, out_document(&args, &results))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(results.iter().all(RunResult::correct))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
