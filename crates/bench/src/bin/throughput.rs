//! Serving-throughput harness: the scenario matrix, batched and
//! multi-core, with an optional regression gate against a committed
//! baseline and optional live-update ("churn") and multi-tenant
//! ("tenants") workload axes.
//!
//! ```text
//! cargo run --release -p pclass-bench --bin throughput
//! cargo run --release -p pclass-bench --bin throughput -- --quick
//! cargo run --release -p pclass-bench --bin throughput -- --out perf.json
//! cargo run --release -p pclass-bench --bin throughput -- --quick --churn --tenants \
//!     --check BENCH_throughput_quick.json --tolerance 0.5 \
//!     --report-md throughput_report.md
//! cargo run --release -p pclass-bench --bin throughput -- --quick --lane-width 1
//! ```
//!
//! `--lane-width {1,4,8,16}` selects the flat-arena walk variant for the
//! whole run (1 = scalar fallback, default 8 = the vectorised lane walk,
//! see `pclass_algos::flat`); the other classifiers ignore it.
//!
//! The sweep is driven by `pclass_bench::scenario` — one declarative
//! matrix of ruleset (style × size, acl up to 64 k rules, fw/ipc to 10 k)
//! × trace profile (`uniform` / `zipf`) × churn profile (quiescent, 1 %
//! bursts, 10 % deep churn, delete-heavy drain, sustained progress-paced
//! stream) × worker count × hot-cache toggle.  Quick mode runs exactly
//! the `quick`-tagged subset of the same matrix, so the per-PR CI gate
//! and the weekly full sweep can never drift apart.  Every quiescent cell
//! serves the whole classifier roster (hardware models are excluded with
//! explicit skip records at ≥32 k rules) and is verified
//! packet-for-packet against linear search; every churn cell hard-fails
//! unless the post-churn structure classifies packet-for-packet like a
//! from-scratch rebuild of the surviving ruleset.
//!
//! Cells with `cache: true` serve through the popularity-adaptive
//! hot-flow cache (`pclass_algos::hotcache`, sized to the trace's flow
//! working set) behind
//! `EngineConfig::hot_cache`; they are verified packet-for-packet on the
//! cold *and* on a warm pass (cache-hit path), carry a `+cache` profile
//! suffix so the gate compares them against their own baseline, and
//! record a `cache` summary (geometry, hits, misses, evictions, hit
//! rate).  The zipf+cache cell's acceptance bar is beating the uncached
//! zipf cell on the same ruleset; the uniform+cache cell is the control
//! that the cache does not tax low-locality traffic.
//!
//! `--tenants` additionally runs the multi-tenant axis
//! (`pclass_bench::scenario::tenant_scenarios`): 1/4/16 tenants with
//! uniform or skewed ruleset sizes, each tenant declared by a
//! `TenantSpec` (scheduling weight, cache share) seeded from the serving
//! roster's per-classifier `spec` hook, each a `LiveClassifier` behind
//! one `TenantRouter`, served as one weighted-fair interleaved tagged
//! trace on the scenario's worker count.  Every tenant cell is verified
//! packet-for-packet *per tenant* against linear-search ground truth and
//! records, next to the router's aggregate Mpps, the throughput of serving
//! the same rulesets solo-sequentially (one tenant at a time, same
//! workers) — the `router_vs_solo` ratio is the cost of sharing the
//! worker pool — plus per-tenant batch-latency percentiles, SLO-relative
//! shares, memory accounting, and rate-based plus weighted Jain fairness
//! indices.  The policy cells gate the tenant API's behaviour on every
//! PR: the `+weighted` cell declares a weight-4 big tenant among fifteen
//! weight-1 neighbours, offers load in weight proportion, and hard-fails
//! unless every tenant's SLO-relative throughput lands within ±10 % and
//! the weighted Jain index reaches 0.95; the `+admission` cell evicts
//! and readmits the smallest tenant mid-trace (a progress-paced
//! controller racing the serving loop) and hard-fails unless the churn
//! phase sustains ≥ 0.8× the static phase with every surviving tenant
//! still packet-for-packet correct and the readmitted tenant verified
//! against linear search; the `+churn-sustained` cell streams
//! progress-paced single-rule updates into tenant 0's `live(t)` handle
//! for the whole measured window.  The churn+cache isolation cell
//! additionally churns tenant 0's ruleset *mid-measurement* (a scripted
//! burst stream racing the serving passes) behind per-tenant hot caches,
//! then hard-fails unless tenant 0 classifies packet-for-packet like
//! linear search over its post-churn rules while every neighbour still
//! matches its original ground truth — churn isolation and
//! generation-based cache invalidation, measured on every PR.
//!
//! Results land in `BENCH_throughput.json` (schema `pclass-throughput/v7`,
//! documented in `docs/SCHEMA.md` and the README's "Scenario matrix"
//! section): every run, churn, and tenant record carries its `profile`
//! tag, and the header records the measuring host (logical CPU count,
//! rustc version) so `--check` can flag cross-host comparisons.  Each
//! `builds` record carries the memory footprint of one classifier build;
//! the flat-arena variants additionally record their arena layout
//! statistics; cached cells carry `cache` hit/miss/eviction summaries.
//! Tenant cells additionally record their declared `weights`, a
//! router-wide `memory` record (budget, bytes in use, cache slots
//! granted) with per-tenant memory reports in each slice, and — on the
//! admission cell — an `admission` record (evict/readmit cycles, the
//! router's lifetime admission counters, the churn-vs-static throughput
//! ratio, and the packets that arrived under a retired handle).  The
//! 5-part cell key is unchanged from v5 — policy cells are new *cells*,
//! distinguished by profile tag, not a new key part.
//!
//! Every quiescent cell is measured as the best of seven aggregates of
//! back-to-back engine runs, after one warmup pass (cold arena, page
//! faults) that also calibrates how many trace passes one aggregate needs
//! to cover a minimum wall-clock window (~25 ms): at quick-mode packet
//! counts a fast classifier finishes a single pass in tens of
//! microseconds, where one scheduler burst on a shared CI runner is
//! indistinguishable from a real regression.  Stretching the measured
//! window (and taking the best of seven) keeps the gate stable without
//! inflating the sweep — construction of the large arenas, not
//! measurement, dominates its wall clock.
//!
//! With `--check <baseline.json>` the harness re-runs the sweep and then
//! compares every `(classifier, ruleset, tenants, workers, profile)` cell
//! present in both the fresh run and the baseline — quiescent, churn,
//! *and* tenant cells, always like-for-like (a churn, Zipf, or tenant
//! cell never compares against a quiescent single-tenant one).  Because
//! absolute Mpps depends on the host, the comparison is *calibrated*: the
//! median of the per-cell new/baseline ratios, capped at 1, is taken as
//! the machine-speed factor, and a cell regresses when it falls more than
//! `--tolerance` (default 0.5) below its calibrated expectation;
//! multi-worker cells get a tolerance a quarter of the way to 1, churn
//! and tenant cells half of the way (see `pclass_bench::check`).
//! `--report-md <path>` additionally writes the per-cell verdicts as a
//! markdown table — CI appends it to `$GITHUB_STEP_SUMMARY`.
//!
//! Exit status: 1 if any classifier disagrees with linear search, any
//! churn cell fails its post-churn verification, or any tenant cell fails
//! its per-tenant verification, its weighted-fairness check, or its
//! admission-throughput floor; 2 if the regression check fails; 3 if the
//! baseline cannot be read or shares no cells with the fresh run.

use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
use pclass_algos::hypercuts::{HyperCutsClassifier, HyperCutsConfig};
use pclass_algos::update::{classify_live_linear, UpdatableClassifier};
use pclass_algos::{FlatSettings, FlatTreeClassifier, HotCacheConfig, LaneWidth};
use pclass_bench::check::{self, HostInfo, RunCell};
use pclass_bench::churn::{self, ChurnProfile};
use pclass_bench::scenario::{self, Scenario};
use pclass_bench::{default_tenant_spec, roster_entries, serving_roster_lanes, WORKLOAD_SEED};
use pclass_classbench::SeedStyle;
use pclass_engine::{Engine, EngineConfig, TenantId, TenantRun, ThroughputReport, WorkerReport};
use pclass_types::{ArenaStats, CacheStats, FairnessSummary, MemoryReport, RuleSet, Trace};
use serde::json;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hot-flow cache accounting of one cached cell (schema v6): the
/// configured geometry plus cumulative hit/miss/eviction counters over
/// the cell's measured window.  `None` on uncached cells.
#[derive(Debug, Clone, Serialize)]
struct CacheSummary {
    capacity: usize,
    assoc: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    hit_rate: f64,
}

impl CacheSummary {
    fn new(geometry: HotCacheConfig, stats: CacheStats) -> CacheSummary {
        CacheSummary {
            capacity: geometry.capacity,
            assoc: geometry.assoc,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            hit_rate: stats.hit_rate(),
        }
    }
}

/// One engine run in the JSON record.
#[derive(Debug, Clone, Serialize)]
struct RunRecord {
    classifier: String,
    ruleset: String,
    rules: usize,
    packets: usize,
    workers: usize,
    batch: usize,
    profile: String,
    wall_ns: u64,
    mpps: f64,
    per_worker: Vec<WorkerReport>,
    cache: Option<CacheSummary>,
}

/// A classifier that could not be built for a ruleset (with the reason), so
/// gaps in the trajectory are explicit rather than silent.
#[derive(Debug, Clone, Serialize)]
struct SkipRecord {
    classifier: String,
    ruleset: String,
    reason: String,
}

/// Memory footprint of one classifier build (one record per successful
/// (classifier, ruleset) build; `arena` is present for the flat variants).
#[derive(Debug, Clone, Serialize)]
struct BuildRecord {
    classifier: String,
    ruleset: String,
    rules: usize,
    memory_bytes: usize,
    arena: Option<ArenaStats>,
}

/// One live-update cell: an updatable classifier serving under a churn
/// profile's update stream through the epoch-swap cell.
#[derive(Debug, Clone, Serialize)]
struct ChurnRecord {
    classifier: String,
    ruleset: String,
    rules: usize,
    workers: usize,
    profile: String,
    updates: u64,
    bursts: u64,
    packets_served: u64,
    serve_wall_ns: u64,
    mpps_under_churn: f64,
    update_p50_ns: u64,
    update_p95_ns: u64,
    update_p99_ns: u64,
    inserts: u64,
    deletes: u64,
    reflattens: u64,
    overflow_rules: u64,
    verified: bool,
}

/// One tenant's slice of a multi-tenant cell (schema v7): its handle
/// (`t<slot>@e<epoch>`), declared scheduling weight, ruleset, traffic
/// share, busy-time throughput, SLO-relative share (1.0 = exactly the
/// weighted fair share), batch-latency percentiles, and memory
/// accounting (classifier bytes, cache-slice bytes, per-tenant budget).
#[derive(Debug, Clone, Serialize)]
struct TenantSliceRecord {
    tenant: String,
    ruleset: String,
    rules: usize,
    weight: u32,
    pkts: u64,
    mpps: f64,
    slo_rel: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    memory: MemoryReport,
    cache: Option<CacheSummary>,
}

/// Router-wide memory accounting of one tenant cell (schema v7): the
/// configured budget (if any), the bytes currently charged against it
/// (classifiers plus cache slices, including evicted tenants' slices
/// kept allocated for recycling), and the hot-cache slots granted across
/// the live roster.
#[derive(Debug, Clone, Serialize)]
struct MemoryRecord {
    budget_bytes: Option<usize>,
    in_use_bytes: usize,
    cache_slots: usize,
}

/// The admission cell's churn-phase summary (schema v7): evict/readmit
/// cycles performed mid-trace (totalled across the measured phases), the
/// router's lifetime admission counters (construction admissions
/// included), the static reference throughput the churn phases are gated
/// against (the best of [`TENANT_AGGREGATES`] like-for-like
/// progress-paced windows with no roster operations, measured just
/// before them), the best churn phase's ratio against it, and that
/// phase's packets that arrived under a retired handle while their
/// tenant was away (decided `NoMatch`, never served by the slot's next
/// occupant).
#[derive(Debug, Clone, Serialize)]
struct AdmissionRecord {
    cycles: u64,
    admitted: u64,
    evicted: u64,
    static_mpps: f64,
    vs_static: f64,
    unroutable: u64,
}

/// One multi-tenant cell: N per-tenant classifiers behind one
/// `TenantRouter` serving an interleaved tagged trace.  `ruleset` is the
/// mix name (e.g. `acl1_10000+15x500`), `solo_mpps` the throughput of
/// serving the same rulesets one tenant at a time on the same worker
/// count, and `router_vs_solo` their ratio.  `weights` are the declared
/// per-tenant scheduling weights in slot order; `admission` is present
/// only on the admission cell, whose headline `mpps` is the churn-phase
/// figure.
#[derive(Debug, Clone, Serialize)]
struct TenantCellRecord {
    classifier: String,
    ruleset: String,
    rules: usize,
    tenants: usize,
    workers: usize,
    batch: usize,
    profile: String,
    packets: u64,
    wall_ns: u64,
    mpps: f64,
    solo_mpps: f64,
    router_vs_solo: f64,
    weights: Vec<u32>,
    fairness: FairnessSummary,
    per_tenant: Vec<TenantSliceRecord>,
    memory: MemoryRecord,
    cache: Option<CacheSummary>,
    admission: Option<AdmissionRecord>,
    verified: bool,
}

/// Top-level schema of `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize)]
struct BenchFile {
    schema: String,
    seed: u64,
    quick: bool,
    host: HostInfo,
    worker_counts: Vec<usize>,
    runs: Vec<RunRecord>,
    skipped: Vec<SkipRecord>,
    builds: Vec<BuildRecord>,
    churn: Vec<ChurnRecord>,
    tenants: Vec<TenantCellRecord>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let churn_mode = args.iter().any(|a| a == "--churn");
    let tenant_mode = args.iter().any(|a| a == "--tenants");
    // A value-taking flag with its value missing must be a hard error: a
    // silently ignored `--check` would leave the regression gate off while
    // CI stays green.
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| {
                    eprintln!("{flag} requires a value");
                    std::process::exit(3);
                })
        })
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let check_path = flag_value("--check");
    let report_md_path = flag_value("--report-md");
    let tolerance: f64 = flag_value("--tolerance")
        .map(|t| {
            let parsed: f64 = t.parse().unwrap_or(f64::NAN);
            // Outside [0, 1) the gate degenerates: >= 1 can never flag a
            // cell (silently off), < 0 flags nearly all of them.
            if !(0.0..1.0).contains(&parsed) {
                eprintln!("--tolerance must be a fraction in [0, 1), got {t}");
                std::process::exit(3);
            }
            parsed
        })
        .unwrap_or(0.5);
    // Lane width for the flat-arena vector walk: `--lane-width 1` serves
    // the scalar fallback, 4/8/16 the explicit-lane walk (default 8).
    // A global run setting, not a cell axis — it is not recorded in the
    // JSON, so baselines used with `--check` should stick to the default.
    let lane_width = flag_value("--lane-width")
        .map(|w| {
            let parsed: usize = w.parse().unwrap_or_else(|_| {
                eprintln!("--lane-width must be one of 1, 4, 8, 16, got {w}");
                std::process::exit(3);
            });
            if ![1usize, 4, 8, 16].contains(&parsed) {
                eprintln!("--lane-width must be one of 1, 4, 8, 16, got {w}");
                std::process::exit(3);
            }
            LaneWidth::from_width(parsed)
        })
        .unwrap_or_default();

    // Read the baseline *before* the sweep so `--check` and `--out` may
    // point at the same file (the CI perf-smoke job does exactly that).
    let baseline = check_path.as_deref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(3);
        });
        json::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(3);
        })
    });

    let packets = if quick { 4_000 } else { 20_000 };
    let worker_counts = scenario::worker_ladder(quick);
    let cells = scenario::scenarios(quick);

    let mut runs = Vec::new();
    let mut skipped = Vec::new();
    let mut builds = Vec::new();
    let mut churn_records = Vec::new();
    let mut mismatches = 0usize;
    let mut churn_failures = 0usize;
    let mut tenant_failures = 0usize;

    // Group the matrix by ruleset (first-appearance order), so each
    // ruleset and its classifier roster are built exactly once however
    // many trace/churn cells share them.
    let mut groups: Vec<(SeedStyle, usize)> = Vec::new();
    for s in &cells {
        if !groups.contains(&(s.style, s.rules)) {
            groups.push((s.style, s.rules));
        }
    }

    for (style, rules) in groups {
        let group: Vec<&Scenario> = cells
            .iter()
            .filter(|s| s.style == style && s.rules == rules)
            .collect();
        let ruleset = group[0].ruleset();
        println!(
            "== {} ({} rules, {} packets) ==",
            ruleset.name(),
            ruleset.len(),
            packets
        );

        let roster = serving_roster_lanes(&ruleset, group[0].scope(), lane_width);
        for skip in roster.skipped {
            eprintln!(
                "skip {} on {}: {}",
                skip.classifier,
                ruleset.name(),
                skip.reason
            );
            skipped.push(SkipRecord {
                classifier: skip.classifier.to_string(),
                ruleset: ruleset.name().to_string(),
                reason: skip.reason,
            });
        }
        for build in roster.builds {
            builds.push(BuildRecord {
                classifier: build.classifier.to_string(),
                ruleset: ruleset.name().to_string(),
                rules: ruleset.len(),
                memory_bytes: build.memory_bytes,
                arena: build.arena,
            });
        }

        // Trace generation is deterministic, so cells sharing a trace
        // profile share one generated trace; cells that will not run
        // (churn cells without --churn) generate nothing.
        let mut traces: Vec<(scenario::TraceProfile, Trace)> = Vec::new();
        for cell in group {
            let profile = cell.profile_tag();
            if cell.churn.is_some() && !churn_mode {
                continue; // churn cells only run under --churn
            }
            let trace = match traces.iter().position(|(p, _)| *p == cell.trace) {
                Some(i) => &traces[i].1,
                None => {
                    traces.push((cell.trace, cell.trace.trace(&ruleset, packets)));
                    &traces.last().expect("just pushed").1
                }
            };
            match cell.churn {
                None => {
                    println!("-- trace profile: {} --", profile);
                    println!(
                        "{:<14} {:>7} | {:>10} {:>10}",
                        "classifier", "workers", "wall [ms]", "Mpps"
                    );
                    let truth = trace.ground_truth(&ruleset);
                    for (name, classifier) in &roster.classifiers {
                        for &workers in worker_counts {
                            // Size the cache to the trace's flow working
                            // set (ClassBench bursts mean ~trace/2 distinct
                            // flows): the harness measures repeated passes,
                            // so the steady state it reports is a cache
                            // that *holds* the offered flows — CLOCK
                            // pressure is covered by the tenant cells,
                            // whose per-tenant slices are budgeted.
                            let geometry = HotCacheConfig::new(
                                trace.len().next_power_of_two(),
                                HotCacheConfig::DEFAULT_ASSOC,
                            );
                            let mut config = EngineConfig::new().workers(workers);
                            if cell.cache {
                                config = config.hot_cache(geometry);
                            }
                            let engine = config.engine(Arc::clone(classifier));
                            // The warmup pass (cold arena, page faults)
                            // also carries the packet-for-packet gate —
                            // the engine is deterministic, so one check
                            // covers every subsequent pass of this cell.
                            // Cached cells verify a *second* pass too: the
                            // warm pass answers from the cache, a path the
                            // cold pass never takes.
                            let warmup = engine.classify_trace(trace);
                            let warm_ok =
                                !cell.cache || engine.classify_trace(trace).results == truth;
                            if warmup.results != truth || !warm_ok {
                                mismatches += 1;
                                eprintln!(
                                    "MISMATCH: {} with {} workers disagrees with linear \
                                     search on {} ({})",
                                    name,
                                    workers,
                                    ruleset.name(),
                                    profile
                                );
                                continue;
                            }
                            let measured = measure_cell(&engine, trace, &warmup.report);
                            println!(
                                "{:<14} {:>7} | {:>10.2} {:>10.3}",
                                name,
                                workers,
                                measured.wall_ns as f64 / 1e6,
                                measured.mpps
                            );
                            runs.push(RunRecord {
                                classifier: name.to_string(),
                                ruleset: ruleset.name().to_string(),
                                rules: ruleset.len(),
                                packets: measured.pkts as usize,
                                workers,
                                batch: engine.batch_size(),
                                profile: profile.clone(),
                                wall_ns: measured.wall_ns,
                                mpps: measured.mpps,
                                per_worker: measured.per_worker,
                                cache: engine
                                    .cache_stats()
                                    .map(|stats| CacheSummary::new(geometry, stats)),
                            });
                        }
                    }
                }
                Some(churn_profile) => {
                    let (records, failures) =
                        churn_sweep(&ruleset, trace, churn_profile, &profile, lane_width);
                    churn_records.extend(records);
                    churn_failures += failures;
                }
            }
        }
    }

    let tenant_records = if tenant_mode {
        let (records, failures) = tenant_sweep(quick, packets, lane_width);
        tenant_failures += failures;
        records
    } else {
        Vec::new()
    };

    let file = BenchFile {
        schema: "pclass-throughput/v7".to_string(),
        seed: WORKLOAD_SEED,
        quick,
        host: HostInfo::current(),
        worker_counts: worker_counts.to_vec(),
        runs,
        skipped,
        builds,
        churn: churn_records,
        tenants: tenant_records,
    };
    std::fs::write(&out_path, json::to_file_string(&file))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "\nwrote {} ({} runs, {} churn cells, {} tenant cells)",
        out_path,
        file.runs.len(),
        file.churn.len(),
        file.tenants.len()
    );

    if mismatches > 0 {
        eprintln!("{mismatches} engine run(s) disagreed with linear search");
        std::process::exit(1);
    }
    if churn_failures > 0 {
        eprintln!("{churn_failures} churn cell(s) failed post-churn verification");
        std::process::exit(1);
    }
    if tenant_failures > 0 {
        eprintln!("{tenant_failures} tenant cell(s) failed per-tenant verification");
        std::process::exit(1);
    }

    match (baseline, check_path) {
        (Some(baseline), Some(path)) => {
            if !check_against_baseline(
                &baseline,
                &path,
                &file,
                tolerance,
                report_md_path.as_deref(),
            ) {
                std::process::exit(2);
            }
        }
        _ => {
            if let Some(md_path) = report_md_path {
                let md = "### Throughput sweep\n\nNo regression check was run \
                          (no `--check <baseline>` given); the sweep completed \
                          and verified packet-for-packet.\n";
                std::fs::write(&md_path, md)
                    .unwrap_or_else(|e| panic!("cannot write {md_path}: {e}"));
            }
        }
    }
}

/// One quiescent cell's throughput measurement (a best-of-two aggregate).
struct CellMeasurement {
    pkts: u64,
    wall_ns: u64,
    mpps: f64,
    per_worker: Vec<WorkerReport>,
}

/// Minimum wall-clock window one measured aggregate should cover.  Below
/// this, a single scheduler burst on a shared CI runner dominates the
/// measurement and the regression gate turns flaky (a 50+ Mpps classifier
/// finishes a 4,000-packet quick trace in ~70 µs).  25 ms × [`AGGREGATES`]
/// per cell is still noise against the build time that dominates the
/// sweep (the 64 k-rule arenas take tens of seconds to construct), and on
/// shared hosts — where a noisy neighbour can steal half the cycles for
/// milliseconds at a time — the best of seven long windows is what makes
/// regenerated baselines reproducible run to run.
const TARGET_CELL_WALL_NS: u64 = 25_000_000;

/// Measured aggregates per cell; the best (highest-Mpps) one is recorded.
const AGGREGATES: usize = 7;

/// Upper bound on trace passes per aggregate, so a mis-calibrated warmup
/// cannot make one cell arbitrarily slow to measure.  It only binds when
/// a pass is under ~49 µs (the fastest quick-mode cells, ~80+ Mpps);
/// everything else reaches [`TARGET_CELL_WALL_NS`] with fewer passes.
const MAX_CELL_PASSES: u64 = 512;

/// Measures one (classifier, workers) cell: the warmup run calibrates how
/// many back-to-back trace passes one aggregate needs to cover
/// [`TARGET_CELL_WALL_NS`], then the best (highest-Mpps) of [`AGGREGATES`] such
/// aggregates is returned — throughput over the summed window, with the
/// per-worker breakdown of the aggregate's fastest pass.
fn measure_cell(
    engine: &Engine,
    trace: &pclass_types::Trace,
    warmup: &ThroughputReport,
) -> CellMeasurement {
    let passes = (TARGET_CELL_WALL_NS / warmup.wall_ns.max(1)).clamp(1, MAX_CELL_PASSES);
    let mut best: Option<CellMeasurement> = None;
    for _ in 0..AGGREGATES {
        let mut pkts = 0u64;
        let mut wall_ns = 0u64;
        let mut fastest_pass: Option<ThroughputReport> = None;
        for _ in 0..passes {
            let run = engine.classify_trace(trace);
            pkts += run.report.pkts;
            wall_ns += run.report.wall_ns;
            if fastest_pass
                .as_ref()
                .is_none_or(|f| run.report.mpps > f.mpps)
            {
                fastest_pass = Some(run.report);
            }
        }
        let mpps = if wall_ns == 0 {
            0.0
        } else {
            pkts as f64 * 1e3 / wall_ns as f64
        };
        if best.as_ref().is_none_or(|b| mpps > b.mpps) {
            best = Some(CellMeasurement {
                pkts,
                wall_ns,
                mpps,
                per_worker: fastest_pass.map(|f| f.per_worker).unwrap_or_default(),
            });
        }
    }
    best.expect("at least one aggregate measured")
}

/// Runs one churn profile over every updatable classifier for one ruleset;
/// returns the records and the number of verification failures.
fn churn_sweep(
    ruleset: &RuleSet,
    trace: &Trace,
    profile: ChurnProfile,
    profile_tag: &str,
    lane_width: LaneWidth,
) -> (Vec<ChurnRecord>, usize) {
    let updates = profile.stream(ruleset);
    let config = profile.config();
    println!(
        "-- churn profile: {} ({} updates in bursts of {}, {} serving workers, {:?}) --",
        profile_tag,
        updates.len(),
        config.burst_ops,
        config.workers,
        config.pacing
    );
    println!(
        "{:<14} | {:>10} {:>12} {:>12} {:>12}  verified",
        "classifier", "Mpps", "p50 [us]", "p99 [us]", "reflattens"
    );
    let mut records = Vec::new();
    let mut failures = 0usize;

    let mut cell = |name: &str, m: Result<churn::ChurnMeasurement, String>| match m {
        Ok(m) => {
            if !m.verified {
                failures += 1;
                eprintln!(
                    "CHURN MISMATCH: {} on {} ({}) disagrees with a fresh rebuild after churn",
                    name,
                    ruleset.name(),
                    profile_tag
                );
            }
            println!(
                "{:<14} | {:>10.3} {:>12.1} {:>12.1} {:>12}  {}",
                name,
                m.mpps_under_churn,
                m.update_p50_ns as f64 / 1e3,
                m.update_p99_ns as f64 / 1e3,
                m.update_stats.reflattens,
                if m.verified { "yes" } else { "NO" }
            );
            records.push(ChurnRecord {
                classifier: name.to_string(),
                ruleset: ruleset.name().to_string(),
                rules: ruleset.len(),
                workers: config.workers,
                profile: profile_tag.to_string(),
                updates: m.updates,
                bursts: m.bursts,
                packets_served: m.packets_served,
                serve_wall_ns: m.serve_wall_ns,
                mpps_under_churn: m.mpps_under_churn,
                update_p50_ns: m.update_p50_ns,
                update_p95_ns: m.update_p95_ns,
                update_p99_ns: m.update_p99_ns,
                inserts: m.update_stats.inserts,
                deletes: m.update_stats.deletes,
                reflattens: m.update_stats.reflattens,
                overflow_rules: m.update_stats.overflow_rules,
                verified: m.verified,
            });
        }
        Err(e) => {
            failures += 1;
            eprintln!(
                "CHURN ERROR: {} on {} ({}): {}",
                name,
                ruleset.name(),
                profile_tag,
                e
            );
        }
    };

    let settings = FlatSettings {
        lanes: lane_width,
        ..FlatSettings::default()
    };
    let hicuts = |rs: &RuleSet| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults());
    let hypercuts =
        |rs: &RuleSet| HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults());
    cell(
        "hicuts",
        churn::run_churn(hicuts(ruleset), hicuts, trace, &updates, &config),
    );
    cell(
        "hicuts-flat",
        churn::run_churn(
            hicuts(ruleset).flatten().with_settings(settings),
            |rs| hicuts(rs).flatten().with_settings(settings),
            trace,
            &updates,
            &config,
        ),
    );
    cell(
        "hypercuts",
        churn::run_churn(hypercuts(ruleset), hypercuts, trace, &updates, &config),
    );
    cell(
        "hypercuts-flat",
        churn::run_churn(
            hypercuts(ruleset).flatten().with_settings(settings),
            |rs| hypercuts(rs).flatten().with_settings(settings),
            trace,
            &updates,
            &config,
        ),
    );
    (records, failures)
}

/// Measured aggregates per tenant cell; fewer than the quiescent
/// [`AGGREGATES`] because every cell measures the router *and* the
/// solo-sequential baseline over the same number of trace passes.
const TENANT_AGGREGATES: usize = 3;

/// Evict/readmit cycles the admission cell's controller performs against
/// the last (smallest) tenant, per churn phase, while the serving loop
/// races it ([`TENANT_AGGREGATES`] phases are measured, best kept).
const ADMISSION_CYCLES: usize = 3;

/// The admission cell's acceptance floor: the best churn phase (tenants
/// coming and going mid-trace) must sustain at least this fraction of the
/// best like-for-like static window's throughput.
const ADMISSION_VS_STATIC_FLOOR: f64 = 0.8;

/// Weighted-fairness hard check: every served tenant's SLO-relative
/// throughput must land within this tolerance of 1.0 …
const SLO_REL_TOLERANCE: f64 = 0.10;

/// … and the weighted Jain index must reach this floor.
const WEIGHTED_JAIN_FLOOR: f64 = 0.95;

/// What one tenant cell's measurement phase produced: the accumulated
/// packet/wall totals behind the headline Mpps, and the run whose
/// per-tenant reports and fairness indices the record carries (the best
/// static pass, or the post-churn verification run on the admission and
/// sustained cells).
struct TenantCellMeasure {
    pkts: u64,
    wall_ns: u64,
    mpps: f64,
    run: TenantRun,
}

/// Runs every tenant scenario over the flat-arena serving roster: one
/// `FlatTreeClassifier` per tenant behind a shared
/// [`pclass_engine::TenantRouter`], declared through
/// [`pclass_engine::TenantSpec`]s seeded by the serving roster's
/// per-classifier `spec` hook (see [`roster_entries`]), verified
/// packet-for-packet *per tenant* against linear-search ground truth on
/// the warmup pass, then measured as the best of [`TENANT_AGGREGATES`]
/// calibrated wall-clock windows.  Each cell also serves the same
/// rulesets solo-sequentially (one tenant at a time, same worker count)
/// so the record carries the `router_vs_solo` ratio — how much aggregate
/// throughput the shared worker pool costs relative to giving every
/// tenant the machine to itself.  The policy cells layer on top:
///
/// * `+weighted` declares the mix's non-uniform scheduling weights and
///   offers load in weight proportion; the cell hard-fails unless every
///   served tenant's SLO-relative throughput lands within
///   [`SLO_REL_TOLERANCE`] of 1.0 and the weighted Jain index reaches
///   [`WEIGHTED_JAIN_FLOOR`].
/// * `+admission` measures churn phases after the static one: per phase,
///   a controller evicts and readmits the last tenant
///   [`ADMISSION_CYCLES`] times, paced by the router's progress counter,
///   while a serving thread keeps passing over the tagged trace
///   (replacement classifiers are pre-built off the measured windows, so
///   the gated figure is the control plane's cost, not construction's).
///   Both sides of the gate are best-of-[`TENANT_AGGREGATES`], measured
///   as interleaved A/B pairs (static window, then churn phase) so both
///   sides sample the same host-noise spells: the best churn phase
///   against the best like-for-like static window.  The
///   recorded `mpps` is the best churn phase; the cell hard-fails unless
///   it sustains [`ADMISSION_VS_STATIC_FLOOR`] of the static reference,
///   every surviving tenant stays bit-identical to its ground truth, and
///   the readmitted tenant verifies against linear search over its live
///   rules.
/// * `+churn-sustained` applies a progress-paced single-update stream to
///   tenant 0 through `live(t)` for the whole measured window (the
///   tenant analogue of [`ChurnProfile::Sustained`]), then verifies
///   tenant 0 against linear search over its post-churn rules and every
///   neighbour against its untouched ground truth.
fn tenant_sweep(
    quick: bool,
    packets: usize,
    lane_width: LaneWidth,
) -> (Vec<TenantCellRecord>, usize) {
    let mut records = Vec::new();
    let mut failures = 0usize;
    let settings = FlatSettings {
        lanes: lane_width,
        ..FlatSettings::default()
    };
    type FlatBuild<'a> = &'a dyn Fn(&RuleSet) -> FlatTreeClassifier;
    let build_hicuts_flat = move |rs: &RuleSet| {
        HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults())
            .flatten()
            .with_settings(settings)
    };
    let build_hypercuts_flat = move |rs: &RuleSet| {
        HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults())
            .flatten()
            .with_settings(settings)
    };
    let roster: [(&str, FlatBuild); 2] = [
        ("hicuts-flat", &build_hicuts_flat),
        ("hypercuts-flat", &build_hypercuts_flat),
    ];

    for s in scenario::tenant_scenarios(quick) {
        let workloads = s.workloads(packets);
        let weights = s.weights();
        let mix = s.mix.mix_name();
        let profile = s.profile_tag();
        let total_rules: usize = workloads.iter().map(|w| w.ruleset.len()).sum();
        println!(
            "== tenants: {} ({} tenants, {} rules total, {} workers, {}) ==",
            mix,
            workloads.len(),
            total_rules,
            s.workers,
            profile
        );
        let truths: Vec<_> = workloads
            .iter()
            .map(|w| w.trace.ground_truth(&w.ruleset))
            .collect();
        let traces: Vec<Trace> = workloads.iter().map(|w| w.trace.clone()).collect();
        let offered: usize = traces.iter().map(|t| t.len()).sum();
        println!(
            "{:<14} {:>7} | {:>10} {:>10} {:>8} {:>7}",
            "classifier", "workers", "Mpps", "solo", "vs solo", "jain"
        );
        for (name, build) in roster {
            // The roster is declared spec-first: the serving roster's
            // per-classifier `spec` hook seeds each tenant's `TenantSpec`
            // and the cell layers its scheduling weight on top (the
            // cache share defaults to the weight, so weighted cells also
            // slice the cache budget in weight proportion).
            let spec_of = roster_entries()
                .into_iter()
                .find(|e| e.name == name)
                .map(|e| e.spec)
                .unwrap_or(default_tenant_spec);
            // Router-wide entry budget scaled to the offered load, sliced
            // across the roster by cache share (see `TenantRouter`).
            let geometry =
                HotCacheConfig::new(offered.next_power_of_two(), HotCacheConfig::DEFAULT_ASSOC);
            // The progress counter (packets served, bumped per sub-batch)
            // paces the admission and sustained-churn controllers against
            // actual serving progress; attaching it to every cell costs
            // one relaxed fetch_add per sub-batch.
            let progress = Arc::new(AtomicU64::new(0));
            let mut config = EngineConfig::new()
                .workers(s.workers)
                .progress(Arc::clone(&progress));
            if s.cache {
                config = config.hot_cache(geometry);
            }
            let router =
                config.tenant_router(workloads.iter().zip(&weights).map(|(w, &weight)| {
                    (spec_of(w.name.clone()).weight(weight), build(&w.ruleset))
                }));
            let ids = router.tenant_ids();
            let parts: Vec<(TenantId, &Trace)> =
                ids.iter().map(|&id| (id, &traces[id.slot()])).collect();
            // The router interleaves by roster weight, so weighted cells
            // drain their weight-proportional traces together and every
            // tenant's offered share equals its weight share.
            let tagged = router.interleave(format!("{mix}_tagged"), &parts);
            // The warmup pass carries the per-tenant packet-for-packet
            // gate — the router is deterministic, so one projection per
            // tenant covers every subsequent pass of this cell.  Cached
            // cells verify a *second* (warm) pass too: it answers from
            // the per-tenant caches, a path the cold pass never takes.
            let warmup = router.classify_tagged(&tagged);
            let mut verified = ids
                .iter()
                .all(|&id| tagged.tenant_results(id, &warmup.results) == truths[id.slot()]);
            if verified && s.cache {
                let warm = router.classify_tagged(&tagged);
                verified = ids
                    .iter()
                    .all(|&id| tagged.tenant_results(id, &warm.results) == truths[id.slot()]);
            }
            if !verified {
                failures += 1;
                eprintln!(
                    "TENANT MISMATCH: {} on {} with {} workers disagrees with linear \
                     search for at least one tenant",
                    name, mix, s.workers
                );
                continue;
            }
            let passes =
                (TARGET_CELL_WALL_NS / warmup.report.wall_ns.max(1)).clamp(1, MAX_CELL_PASSES);

            // Solo-sequential baseline, measured quiescent *before* any
            // churn phase mutates tenant rulesets: best of
            // [`TENANT_AGGREGATES`] aggregates of `passes` sweeps, one
            // tenant at a time on the same worker pool.
            let mut best_solo = 0.0f64;
            for _ in 0..TENANT_AGGREGATES {
                let mut solo_pkts = 0u64;
                let mut solo_wall_ns = 0u64;
                for _ in 0..passes {
                    for &id in &ids {
                        let run = router.classify_solo(id, &traces[id.slot()]);
                        solo_pkts += run.report.pkts;
                        solo_wall_ns += run.report.wall_ns;
                    }
                }
                if solo_wall_ns > 0 {
                    best_solo = best_solo.max(solo_pkts as f64 * 1e3 / solo_wall_ns as f64);
                }
            }

            // Best (highest-Mpps) of [`TENANT_AGGREGATES`] aggregates of
            // `passes` router passes — the static cells' measurement, and
            // the admission cell's static phase.
            let measure_router_best = || {
                let mut best: Option<(u64, u64, f64, TenantRun)> = None;
                for _ in 0..TENANT_AGGREGATES {
                    let mut pkts = 0u64;
                    let mut wall_ns = 0u64;
                    let mut fastest: Option<TenantRun> = None;
                    for _ in 0..passes {
                        let run = router.classify_tagged(&tagged);
                        pkts += run.report.pkts;
                        wall_ns += run.report.wall_ns;
                        if fastest
                            .as_ref()
                            .is_none_or(|f| run.report.mpps > f.report.mpps)
                        {
                            fastest = Some(run);
                        }
                    }
                    let mpps = if wall_ns == 0 {
                        0.0
                    } else {
                        pkts as f64 * 1e3 / wall_ns as f64
                    };
                    if best.as_ref().is_none_or(|b| mpps > b.2) {
                        best = Some((pkts, wall_ns, mpps, fastest.expect("at least one pass")));
                    }
                }
                best.expect("at least one aggregate measured")
            };

            // A serve-until-stopped loop for the phases where a
            // controller mutates the roster or a ruleset mid-measurement:
            // accumulates packets, wall time and unroutable counts per
            // pass, and checks the stop flag at pass boundaries (so at
            // most one drain pass lands after the paced window closes).
            let serve_until = |stop: &AtomicBool| {
                let mut pkts = 0u64;
                let mut wall_ns = 0u64;
                let mut unroutable = 0u64;
                loop {
                    let run = router.classify_tagged(&tagged);
                    pkts += run.report.pkts;
                    wall_ns += run.report.wall_ns;
                    unroutable += run.unroutable;
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                (pkts, wall_ns, unroutable)
            };

            let mut admission_record: Option<AdmissionRecord> = None;
            let measure = if s.sustained {
                // A progress-paced stream of single-rule updates lands on
                // tenant 0 through `live(t)` while the serving loop keeps
                // passing over the tagged trace — sustained churn under
                // multi-tenant load.  Burst k of n lands once k/n of the
                // window's packets has actually been served, however fast
                // the host is.
                let updates = ChurnProfile::Sustained.stream(&workloads[0].ruleset);
                let bursts: Vec<_> = updates.chunks(1).collect();
                let live0 = router.live(ids[0]);
                let window = passes.max(4) * tagged.len() as u64;
                let stop = AtomicBool::new(false);
                let (t_pkts, t_wall, _) = std::thread::scope(|scope| {
                    let server = scope.spawn(|| serve_until(&stop));
                    let base = progress.load(Ordering::Relaxed);
                    'stream: for (k, burst) in bursts.iter().enumerate() {
                        let threshold = base + window * k as u64 / bursts.len() as u64;
                        while progress.load(Ordering::Relaxed) < threshold {
                            // The serving loop only exits once `stop` is
                            // set, so an early finish is a panic — abort
                            // the stream and let the join surface it.
                            if server.is_finished() {
                                break 'stream;
                            }
                            std::thread::sleep(std::time::Duration::from_micros(20));
                        }
                        live0
                            .apply_batch(burst)
                            .expect("scripted sustained burst applies");
                    }
                    // Let the serving side finish the paced window, so
                    // the figure is dominated by passes that actually
                    // overlapped the stream.
                    while progress.load(Ordering::Relaxed) < base + window && !server.is_finished()
                    {
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    }
                    stop.store(true, Ordering::Release);
                    server.join().expect("tenant serving loop panicked")
                });
                // Quiescent again: tenant 0 must serve exactly what
                // linear search over its post-churn rules decides, every
                // neighbour its untouched ground truth — churn isolation
                // under sustained load, verified packet for packet.
                let final_run = router.classify_tagged(&tagged);
                let final_rules = router.live(ids[0]).snapshot().live_rules();
                let t0_ok = tagged
                    .tenant_headers(ids[0])
                    .iter()
                    .zip(tagged.tenant_results(ids[0], &final_run.results))
                    .all(|(header, got)| got == classify_live_linear(&final_rules, header));
                let others_ok = ids[1..]
                    .iter()
                    .all(|&id| tagged.tenant_results(id, &final_run.results) == truths[id.slot()]);
                if !(t0_ok && others_ok) {
                    verified = false;
                    failures += 1;
                    eprintln!(
                        "TENANT SUSTAINED-CHURN MISMATCH: {name} on {mix} — the paced \
                         stream leaked into the serving path (t0 ok: {t0_ok}, neighbours \
                         ok: {others_ok})"
                    );
                }
                let t_mpps = if t_wall == 0 {
                    0.0
                } else {
                    t_pkts as f64 * 1e3 / t_wall as f64
                };
                TenantCellMeasure {
                    pkts: t_pkts,
                    wall_ns: t_wall,
                    mpps: t_mpps,
                    run: final_run,
                }
            } else {
                // Static measurement — with the scripted tenant-0 burst
                // stream racing the aggregates on the churn isolation
                // cell: every burst publishes a new snapshot generation
                // (which also retires tenant 0's cached entries), and the
                // stream is finite and deterministic, so the post-churn
                // ruleset is exact regardless of timing.
                let (b_pkts, b_wall, b_mpps, fastest) = std::thread::scope(|scope| {
                    let updater = s.churn.then(|| {
                        let live0 = router.live(ids[0]);
                        let stream = ChurnProfile::Burst1.stream(&workloads[0].ruleset);
                        scope.spawn(move || {
                            for burst in stream.chunks(4) {
                                live0
                                    .apply_batch(burst)
                                    .expect("scripted tenant-0 burst applies");
                                std::thread::yield_now();
                            }
                        })
                    });
                    let best = measure_router_best();
                    if let Some(handle) = updater {
                        handle.join().expect("tenant churn updater panicked");
                    }
                    best
                });
                if s.churn {
                    // Quiescent again: tenant 0 must now serve exactly
                    // what linear search over its post-churn rules
                    // decides, while every neighbour still matches its
                    // untouched ground truth — churn isolation, verified
                    // packet for packet.
                    let final_run = router.classify_tagged(&tagged);
                    let final_rules = router.live(ids[0]).snapshot().live_rules();
                    let t0_ok = tagged
                        .tenant_headers(ids[0])
                        .iter()
                        .zip(tagged.tenant_results(ids[0], &final_run.results))
                        .all(|(header, got)| got == classify_live_linear(&final_rules, header));
                    let others_ok = ids[1..].iter().all(|&id| {
                        tagged.tenant_results(id, &final_run.results) == truths[id.slot()]
                    });
                    if !(t0_ok && others_ok) {
                        verified = false;
                        failures += 1;
                        eprintln!(
                            "TENANT CHURN MISMATCH: {name} on {mix} — churn on tenant 0 \
                             leaked into the serving path (t0 ok: {t0_ok}, neighbours ok: \
                             {others_ok})"
                        );
                    }
                }
                if s.admission {
                    // Churn phase: evict and readmit the last (smallest)
                    // tenant while the serving loop keeps passing over
                    // the tagged trace, the operations spread over the
                    // window at progress-paced thresholds.  The
                    // readmitted tenant comes back under a fresh epoch,
                    // so the old handle's packets are decided `NoMatch`
                    // (counted `unroutable`) rather than served by the
                    // slot's next occupant — the documented eviction
                    // semantics, measured under load.
                    let window = passes.max(2) * tagged.len() as u64;
                    // The vs-static gate measures [`TENANT_AGGREGATES`]
                    // *interleaved A/B pairs* — a static progress-paced
                    // window through the same serving loop, then a churn
                    // phase, alternating — and takes the best of each
                    // side.  Interleaving makes both sides sample the
                    // same host-noise spells (the methodology the lane
                    // walk's A/B comparison established): measuring all
                    // static windows first would let one contended spell
                    // land entirely on the churn half and read as a
                    // phantom admission cost.
                    let paced_window = |stop: &AtomicBool| {
                        std::thread::scope(|scope| {
                            let server = scope.spawn(|| serve_until(stop));
                            let base = progress.load(Ordering::Relaxed);
                            while progress.load(Ordering::Relaxed) < base + window
                                && !server.is_finished()
                            {
                                std::thread::sleep(std::time::Duration::from_micros(20));
                            }
                            stop.store(true, Ordering::Release);
                            server.join().expect("tenant serving loop panicked")
                        })
                    };
                    // Replacement classifiers are pre-built outside the
                    // measured windows: the gated figure is the cost of
                    // the admission/eviction control plane racing the data
                    // plane, not of classifier construction (which a real
                    // control plane would also do off the serving path).
                    let victim_slot = ids.last().expect("at least one tenant").slot();
                    let mut replacements: Vec<FlatTreeClassifier> = (0..TENANT_AGGREGATES
                        * ADMISSION_CYCLES)
                        .map(|_| build(&workloads[victim_slot].ruleset))
                        .collect();
                    // Each churn phase performs [`ADMISSION_CYCLES`]
                    // evict/readmit cycles; the readmitted handle carries
                    // across phases, so `current` after the last phase is
                    // the tenant the quiescent verification below judges.
                    let mut current = *ids.last().expect("at least one tenant");
                    let mut total_cycles = 0u64;
                    let mut static_ref_mpps = 0.0f64;
                    let mut best_phase: Option<(u64, u64, u64, f64)> = None;
                    for _ in 0..TENANT_AGGREGATES {
                        let (s_pkts, s_wall, _) = paced_window(&AtomicBool::new(false));
                        if s_wall > 0 {
                            static_ref_mpps =
                                static_ref_mpps.max(s_pkts as f64 * 1e3 / s_wall as f64);
                        }
                        let stop = AtomicBool::new(false);
                        let (c_pkts, c_wall, c_unroutable) = std::thread::scope(|scope| {
                            let server = scope.spawn(|| serve_until(&stop));
                            let base = progress.load(Ordering::Relaxed);
                            let ops = (ADMISSION_CYCLES * 2) as u64;
                            'ops: for k in 0..ops {
                                let threshold = base + window * (k + 1) / (ops + 1);
                                while progress.load(Ordering::Relaxed) < threshold {
                                    if server.is_finished() {
                                        break 'ops;
                                    }
                                    std::thread::sleep(std::time::Duration::from_micros(20));
                                }
                                if k % 2 == 0 {
                                    router
                                        .evict(current)
                                        .expect("admission cell evicts a live tenant");
                                } else {
                                    let slot = current.slot();
                                    let spec =
                                        spec_of(workloads[slot].name.clone()).weight(weights[slot]);
                                    current = router
                                        .admit(
                                            spec,
                                            replacements
                                                .pop()
                                                .expect("one pre-built classifier per cycle"),
                                        )
                                        .expect("admission cell readmits within budget");
                                    total_cycles += 1;
                                }
                            }
                            while progress.load(Ordering::Relaxed) < base + window
                                && !server.is_finished()
                            {
                                std::thread::sleep(std::time::Duration::from_micros(20));
                            }
                            stop.store(true, Ordering::Release);
                            server.join().expect("tenant serving loop panicked")
                        });
                        let c_mpps = if c_wall == 0 {
                            0.0
                        } else {
                            c_pkts as f64 * 1e3 / c_wall as f64
                        };
                        if best_phase.is_none_or(|(_, _, _, m)| c_mpps > m) {
                            best_phase = Some((c_pkts, c_wall, c_unroutable, c_mpps));
                        }
                    }
                    let (c_pkts, c_wall, c_unroutable, c_mpps) =
                        best_phase.expect("at least one churn phase measured");
                    let (cycles, readmitted) = (total_cycles, current);
                    // Quiescent verification on a fresh interleave over
                    // the *current* handles: survivors must be
                    // bit-identical to their ground truth, the readmitted
                    // tenant verified against linear search over its
                    // freshly built rules.
                    let final_ids = router.tenant_ids();
                    let final_parts: Vec<(TenantId, &Trace)> = final_ids
                        .iter()
                        .map(|&id| (id, &traces[id.slot()]))
                        .collect();
                    let final_tagged =
                        router.interleave(format!("{mix}_tagged_final"), &final_parts);
                    let final_run = router.classify_tagged(&final_tagged);
                    let survivors_ok =
                        final_ids.iter().filter(|&&id| id != readmitted).all(|&id| {
                            final_tagged.tenant_results(id, &final_run.results) == truths[id.slot()]
                        });
                    let readmitted_rules = router.live(readmitted).snapshot().live_rules();
                    let readmitted_ok = final_tagged
                        .tenant_headers(readmitted)
                        .iter()
                        .zip(final_tagged.tenant_results(readmitted, &final_run.results))
                        .all(|(header, got)| {
                            got == classify_live_linear(&readmitted_rules, header)
                        });
                    let vs_static = if static_ref_mpps == 0.0 {
                        0.0
                    } else {
                        c_mpps / static_ref_mpps
                    };
                    if !(survivors_ok
                        && readmitted_ok
                        && cycles >= 1
                        && vs_static >= ADMISSION_VS_STATIC_FLOOR)
                    {
                        verified = false;
                        failures += 1;
                        eprintln!(
                            "TENANT ADMISSION FAILURE: {name} on {mix} — survivors ok: \
                             {survivors_ok}, readmitted ok: {readmitted_ok}, {cycles} \
                             cycles, vs static x{vs_static:.2} (floor \
                             {ADMISSION_VS_STATIC_FLOOR})"
                        );
                    }
                    let (admitted, evicted) = router.admission_counts();
                    admission_record = Some(AdmissionRecord {
                        cycles,
                        admitted,
                        evicted,
                        static_mpps: static_ref_mpps,
                        vs_static,
                        unroutable: c_unroutable,
                    });
                    TenantCellMeasure {
                        pkts: c_pkts,
                        wall_ns: c_wall,
                        mpps: c_mpps,
                        run: final_run,
                    }
                } else {
                    TenantCellMeasure {
                        pkts: b_pkts,
                        wall_ns: b_wall,
                        mpps: b_mpps,
                        run: fastest,
                    }
                }
            };

            // The weighted-fairness acceptance bar, hard-checked on the
            // run the record carries (a complete pass over the
            // weight-proportional trace, so SLO-relative shares are
            // exact, not sampling noise).
            if s.weighted && verified {
                let slo_ok = measure
                    .run
                    .tenants
                    .iter()
                    .filter(|t| t.pkts > 0)
                    .all(|t| (t.slo_rel - 1.0).abs() <= SLO_REL_TOLERANCE);
                let weighted_jain = measure.run.fairness.weighted_jain;
                if !slo_ok || weighted_jain < WEIGHTED_JAIN_FLOOR {
                    verified = false;
                    failures += 1;
                    eprintln!(
                        "TENANT FAIRNESS MISS: {name} on {mix} — SLO-relative shares \
                         within ±{:.0}%: {slo_ok}, weighted Jain {weighted_jain:.3} \
                         (floor {WEIGHTED_JAIN_FLOOR})",
                        SLO_REL_TOLERANCE * 100.0
                    );
                }
            }

            let router_vs_solo = if best_solo == 0.0 {
                0.0
            } else {
                measure.mpps / best_solo
            };
            println!(
                "{:<14} {:>7} | {:>10.3} {:>10.3} {:>8.2} {:>7.3}",
                name,
                s.workers,
                measure.mpps,
                best_solo,
                router_vs_solo,
                measure.run.fairness.jain_index
            );
            if let Some(adm) = &admission_record {
                println!(
                    "   admission: {} evict/readmit cycles ({} admitted, {} evicted), \
                     static {:.3} Mpps, vs static x{:.2}, {} unroutable",
                    adm.cycles,
                    adm.admitted,
                    adm.evicted,
                    adm.static_mpps,
                    adm.vs_static,
                    adm.unroutable
                );
            }
            let total_shares: usize = weights.iter().map(|&w| w as usize).sum();
            let per_tenant: Vec<TenantSliceRecord> = measure
                .run
                .tenants
                .iter()
                .map(|t| TenantSliceRecord {
                    tenant: t.tenant.to_string(),
                    ruleset: t.name.clone(),
                    rules: workloads[t.tenant.slot()].ruleset.len(),
                    weight: t.weight,
                    pkts: t.pkts,
                    mpps: t.mpps,
                    slo_rel: t.slo_rel,
                    p50_ns: t.batch_latency.p50_ns,
                    p95_ns: t.batch_latency.p95_ns,
                    p99_ns: t.batch_latency.p99_ns,
                    memory: router.memory_report(t.tenant),
                    cache: t.cache.map(|stats| {
                        // The slice's *configured* share of the
                        // router-wide entry budget (the cache itself
                        // rounds its set count to a power of two).
                        let slice = HotCacheConfig::new(
                            geometry.capacity * t.weight as usize / total_shares.max(1),
                            geometry.assoc,
                        );
                        CacheSummary::new(slice, stats)
                    }),
                })
                .collect();
            // Cell-level cache accounting is cumulative over the whole
            // cell (warmup + every measured pass), merged across the live
            // roster against the router-wide geometry budget.
            let cache = s.cache.then(|| {
                let mut total = CacheStats::default();
                for &id in &router.tenant_ids() {
                    if let Some(stats) = router.cache_stats(id) {
                        total.merge(&stats);
                    }
                }
                CacheSummary::new(geometry, total)
            });
            let memory = MemoryRecord {
                budget_bytes: router.memory_budget(),
                in_use_bytes: router.memory_in_use(),
                cache_slots: router.cache_slot_total(),
            };
            records.push(TenantCellRecord {
                classifier: name.to_string(),
                ruleset: mix.clone(),
                rules: total_rules,
                tenants: workloads.len(),
                workers: s.workers,
                batch: router.batch_size(),
                profile: profile.clone(),
                packets: measure.pkts,
                wall_ns: measure.wall_ns,
                mpps: measure.mpps,
                solo_mpps: best_solo,
                router_vs_solo,
                weights: weights.clone(),
                fairness: measure.run.fairness,
                per_tenant,
                memory,
                cache,
                admission: admission_record,
                verified,
            });
        }
    }
    (records, failures)
}

/// Runs the [`check`] comparison over every quiescent, churn, *and*
/// tenant cell, prints the per-cell report and (optionally) writes it as
/// markdown;
/// returns `false` when the gate fails (see `pclass_bench::check` for the
/// model — the decision logic is unit-tested there).
fn check_against_baseline(
    baseline: &json::Value,
    path: &str,
    file: &BenchFile,
    tolerance: f64,
    report_md_path: Option<&str>,
) -> bool {
    let base = check::baseline_cells(baseline);
    let base_host = check::baseline_host(baseline);
    let mut fresh: Vec<RunCell> = file
        .runs
        .iter()
        .map(|run| RunCell {
            classifier: run.classifier.clone(),
            ruleset: run.ruleset.clone(),
            tenants: 0,
            workers: run.workers as u64,
            profile: run.profile.clone(),
            mpps: run.mpps,
        })
        .collect();
    fresh.extend(file.churn.iter().map(|cell| RunCell {
        classifier: cell.classifier.clone(),
        ruleset: cell.ruleset.clone(),
        tenants: 0,
        workers: cell.workers as u64,
        profile: cell.profile.clone(),
        mpps: cell.mpps_under_churn,
    }));
    fresh.extend(file.tenants.iter().map(|cell| RunCell {
        classifier: cell.classifier.clone(),
        ruleset: cell.ruleset.clone(),
        tenants: cell.tenants as u64,
        workers: cell.workers as u64,
        profile: cell.profile.clone(),
        mpps: cell.mpps,
    }));
    let report = match check::compare(&base, &fresh, tolerance) {
        Ok(report) => report,
        Err(check::CheckError::NoComparableCells) => {
            eprintln!(
                "--check: no comparable (classifier, ruleset, tenants, workers, profile) \
                 cells in {path}"
            );
            std::process::exit(3);
        }
    };

    let host_note = check::host_mismatch(base_host.as_ref(), &file.host);
    if let Some(note) = &host_note {
        eprintln!("--check: {note}");
    }
    if let Some(md_path) = report_md_path {
        let md = check::markdown_report(&report, path, tolerance, host_note.as_deref());
        std::fs::write(md_path, md).unwrap_or_else(|e| panic!("cannot write {md_path}: {e}"));
        println!("wrote {md_path}");
    }
    println!(
        "\ncheck vs {path}: {} cells, median ratio x{:.3}, calibration x{:.3}, tolerance {:.0}%",
        report.cells.len(),
        report.median_ratio,
        report.calibration,
        tolerance * 100.0
    );
    println!(
        "{:<16} {:<10} {:<22} {:>7} | {:>9} {:>9} {:>7}  status",
        "classifier", "ruleset", "profile", "workers", "base", "new", "rel"
    );
    for verdict in &report.cells {
        println!(
            "{:<16} {:<10} {:<22} {:>7} | {:>9.3} {:>9.3} {:>7.2}  {}",
            verdict.cell.classifier,
            verdict.cell.ruleset,
            verdict.cell.profile,
            verdict.cell.workers,
            verdict.base_mpps,
            verdict.cell.mpps,
            verdict.rel,
            if verdict.regressed {
                "REGRESSION"
            } else {
                "ok"
            }
        );
    }
    if !report.missing_classifiers.is_empty() {
        eprintln!(
            "--check: baseline classifier(s) missing from the fresh sweep: {}",
            report.missing_classifiers.join(", ")
        );
    }
    if !report.missing_cells.is_empty() {
        eprintln!(
            "--check: {} baseline cell(s) have no partner in the fresh sweep — \
             the measured envelope shrank:",
            report.missing_cells.len()
        );
        for cell in &report.missing_cells {
            eprintln!(
                "  {} {} {} x{}",
                cell.classifier, cell.ruleset, cell.profile, cell.workers
            );
        }
    }
    if report.passed() {
        println!("regression check passed");
        true
    } else {
        if report.regressions() > 0 {
            eprintln!(
                "{} cell(s) regressed below the calibrated baseline",
                report.regressions()
            );
        }
        false
    }
}
