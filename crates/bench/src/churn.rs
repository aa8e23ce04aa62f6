//! The live-update ("churn") workloads of the update-equivalence tests.
//!
//! [`run_churn`] drives one updatable classifier serving a trace through
//! the `pclass-engine` epoch-swap cell *while* a deterministic stream of
//! insert/delete bursts lands on the writer copy: the serving workers keep
//! draining batches on the previous snapshot as each burst publishes the
//! next generation.  It records
//!
//! * serving throughput over the churn window (packets served / wall),
//! * per-burst update latency percentiles (p50/p95/p99 of
//!   [`LiveClassifier::apply_batch`] wall time),
//! * the structure's own update counters ([`UpdateStats`]: in-place
//!   inserts vs overflow spills, amortized re-flattens), and
//! * a **correctness verdict**: after the stream drains, the final
//!   snapshot must classify the whole trace packet-for-packet like a
//!   from-scratch rebuild of the surviving ruleset (and like linear search
//!   over it) — the verdict the tests assert.
//!
//! What lands and how is described by a [`ChurnProfile`]:
//!
//! * **burst1** — the original 1 % delete+insert stream in bursts of 4,
//!   spread over ~2 trace passes;
//! * **deep10** — the same shape at 10 % of the ruleset, so slack
//!   exhaustion, overflow side-tables and amortized re-flattens are
//!   actually exercised;
//! * **delete-heavy** — a net *drain*: 10 % of the rules deleted with only
//!   one fresh insert per five deletes, the decommissioning pattern that
//!   leaves reusable slack behind;
//! * **sustained** — a stream paced against *served packets* through the
//!   [`pclass_engine::EngineConfig::progress`] hook, one update at a time
//!   stretched continuously across the whole serving window
//!   (machine-speed independent), modelling the steady low-rate update
//!   feed of a long-lived deployment rather than a one-off burst.
//!
//! Everything is derived from [`crate::WORKLOAD_SEED`], so the stream is
//! identical run to run and host to host.

use pclass_algos::update::{
    classify_live_linear, map_result, renumbered_ruleset, RuleUpdate, UpdatableClassifier,
};
use pclass_classbench::ClassBenchGenerator;
use pclass_engine::{EngineConfig, LiveClassifier};
use pclass_types::{LatencyPercentiles, Rule, RuleId, RuleSet, Trace, UpdateStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the update stream is paced over the serving window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Bursts sleep wall-clock time between publishes: the whole stream is
    /// spread over roughly `passes` warmup-calibrated trace passes, each
    /// gap capped at `cap_ns` so a slow host cannot stall the cell.
    Bursty {
        /// Trace passes the stream is spread over.
        passes: f64,
        /// Upper bound on one inter-burst sleep, in nanoseconds.
        cap_ns: u64,
    },
    /// Bursts are paced against *served packets* through the
    /// [`EngineConfig::progress`] hook: burst `k` of `n` lands once
    /// `k/n` of `passes` trace passes' worth of packets has been served,
    /// so the stream stretches continuously across the whole serving
    /// window regardless of machine speed.
    Sustained {
        /// Trace passes the stream is stretched across.
        passes: f64,
    },
}

/// How a churn cell is driven.  The update stream itself is built
/// separately (see [`ChurnProfile::stream`] / [`churn_updates`]) and passed
/// to [`run_churn`], so the config only shapes *how* the stream lands, not
/// what is in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Serving worker shards while the stream lands.
    pub workers: usize,
    /// Updates per published burst.
    pub burst_ops: usize,
    /// Engine sub-batch size (smaller batches pick up generations sooner).
    pub batch: usize,
    /// How bursts are spaced over the serving window.
    pub pacing: Pacing,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            workers: 2,
            burst_ops: 4,
            batch: 256,
            pacing: Pacing::Bursty {
                passes: 2.0,
                cap_ns: 5_000_000,
            },
        }
    }
}

/// A named, fully deterministic update workload (stream shape + pacing).
/// See the module docs for what each profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnProfile {
    /// 1 % delete+insert pairs in bursts of 4 (the original PR-4 workload).
    Burst1,
    /// 10 % delete+insert pairs — deep churn that forces slack exhaustion
    /// and amortized re-flattens on the arenas.
    Deep10,
    /// A net drain: 10 % deletes with one fresh insert per five deletes.
    DeleteHeavy,
    /// 2 % of the ruleset landing one update at a time, paced continuously
    /// across the whole serving window against served packets.
    Sustained,
}

impl ChurnProfile {
    /// Every churn profile.
    pub const ALL: [ChurnProfile; 4] = [
        ChurnProfile::Burst1,
        ChurnProfile::Deep10,
        ChurnProfile::DeleteHeavy,
        ChurnProfile::Sustained,
    ];

    /// Short name of the profile, for test and log messages.
    pub fn tag(self) -> &'static str {
        match self {
            ChurnProfile::Burst1 => "burst1",
            ChurnProfile::Deep10 => "deep10",
            ChurnProfile::DeleteHeavy => "delete-heavy",
            ChurnProfile::Sustained => "sustained",
        }
    }

    /// Builds the profile's deterministic update stream for a ruleset.
    pub fn stream(self, ruleset: &RuleSet) -> Vec<RuleUpdate> {
        match self {
            ChurnProfile::Burst1 => churn_updates(ruleset, 0.01),
            ChurnProfile::Deep10 => churn_updates(ruleset, 0.10),
            ChurnProfile::DeleteHeavy => delete_heavy_updates(ruleset, 0.10, 5),
            ChurnProfile::Sustained => churn_updates(ruleset, 0.02),
        }
    }

    /// The cell configuration the profile is measured under.
    pub fn config(self) -> ChurnConfig {
        match self {
            ChurnProfile::Burst1 | ChurnProfile::Deep10 => ChurnConfig::default(),
            // Decommissioning lands in larger administrative sweeps.
            ChurnProfile::DeleteHeavy => ChurnConfig {
                burst_ops: 8,
                ..ChurnConfig::default()
            },
            // One update at a time, stretched across four trace passes of
            // actual serving progress.
            ChurnProfile::Sustained => ChurnConfig {
                burst_ops: 1,
                pacing: Pacing::Sustained { passes: 4.0 },
                ..ChurnConfig::default()
            },
        }
    }
}

/// Everything measured over one churn cell.
#[derive(Debug, Clone)]
pub struct ChurnMeasurement {
    /// Packets classified while the update stream was landing (clipped to
    /// the serving passes that completed inside the churn window, so the
    /// quiescent drain after the last burst is not counted).
    pub packets_served: u64,
    /// Wall-clock nanoseconds of the measured serving window.
    pub serve_wall_ns: u64,
    /// Millions of packets per second sustained under churn.
    pub mpps_under_churn: f64,
    /// Total updates applied (inserts + deletes).
    pub updates: u64,
    /// Number of published bursts (= generations).
    pub bursts: u64,
    /// Median per-burst apply latency (nanoseconds).
    pub update_p50_ns: u64,
    /// 95th-percentile per-burst apply latency.
    pub update_p95_ns: u64,
    /// 99th-percentile per-burst apply latency.
    pub update_p99_ns: u64,
    /// The structure's own update counters after the stream drained.
    pub update_stats: UpdateStats,
    /// Post-churn packet-for-packet agreement with a from-scratch rebuild
    /// of the surviving ruleset *and* with linear search over it.
    pub verified: bool,
}

/// Builds the deterministic update stream for a ruleset: `fraction`
/// of the rules is deleted (ids spread evenly across the priority range)
/// and the same number of fresh rules is inserted at new ids past the
/// current maximum, interleaved delete/insert so the live count stays
/// within one rule of the original throughout.
pub fn churn_updates(ruleset: &RuleSet, fraction: f64) -> Vec<RuleUpdate> {
    let len = ruleset.len();
    if len == 0 {
        return Vec::new();
    }
    // At least 2 pairs so every cell exercises both op kinds, but never
    // more deletes than there are rules (the spread formula would emit
    // duplicate delete ids otherwise).
    let ops = ((len as f64 * fraction).round() as usize).clamp(2.min(len), len);
    let style = pclass_classbench::SeedStyle::Acl;
    let fresh = ClassBenchGenerator::new(style, crate::WORKLOAD_SEED ^ 0xC0DE).generate(ops);
    let mut updates = Vec::with_capacity(ops * 2);
    for k in 0..ops {
        let delete_id = (k * len / ops) as RuleId;
        updates.push(RuleUpdate::Delete(delete_id));
        let insert_id = (len + k) as RuleId;
        updates.push(RuleUpdate::Insert(Rule::new(
            insert_id,
            fresh.rules()[k].ranges,
        )));
    }
    updates
}

/// Builds the deterministic *delete-heavy* stream: `fraction` of the rules
/// is deleted (ids spread evenly across the priority range) but only one
/// fresh rule is inserted per `reinsert_every` deletes, so the live set
/// drains — the decommissioning pattern that leaves reusable slack in the
/// flat arenas instead of claiming it back.
pub fn delete_heavy_updates(
    ruleset: &RuleSet,
    fraction: f64,
    reinsert_every: usize,
) -> Vec<RuleUpdate> {
    let len = ruleset.len();
    if len == 0 {
        return Vec::new();
    }
    let deletes = ((len as f64 * fraction).round() as usize).clamp(1, len);
    let reinsert_every = reinsert_every.max(1);
    let reinserts = deletes / reinsert_every;
    let style = pclass_classbench::SeedStyle::Acl;
    let fresh =
        ClassBenchGenerator::new(style, crate::WORKLOAD_SEED ^ 0xD7A1).generate(reinserts.max(1));
    let mut updates = Vec::with_capacity(deletes + reinserts);
    let mut inserted = 0usize;
    for k in 0..deletes {
        updates.push(RuleUpdate::Delete((k * len / deletes) as RuleId));
        if (k + 1) % reinsert_every == 0 && inserted < reinserts {
            updates.push(RuleUpdate::Insert(Rule::new(
                (len + inserted) as RuleId,
                fresh.rules()[inserted].ranges,
            )));
            inserted += 1;
        }
    }
    updates
}

/// Runs one churn cell: serve `trace` continuously on `config.workers`
/// shards while `updates` land in bursts, then verify the final snapshot
/// against `rebuild` applied to the surviving ruleset.
///
/// Returns an error string when an update is rejected (the stream is
/// constructed to be valid, so a rejection is a harness or structure bug).
pub fn run_churn<C>(
    classifier: C,
    rebuild: impl Fn(&RuleSet) -> C,
    trace: &Trace,
    updates: &[RuleUpdate],
    config: &ChurnConfig,
) -> Result<ChurnMeasurement, String>
where
    C: UpdatableClassifier + Clone + Send + Sync,
{
    let live = Arc::new(LiveClassifier::new(classifier));
    // The progress counter is the sustained-pacing hook: workers bump it
    // per sub-batch, and a `Pacing::Sustained` updater waits on it instead
    // of sleeping wall-clock time.  Attaching it is harmless under
    // wall-clock pacing (one relaxed fetch_add per sub-batch).
    let progress = Arc::new(AtomicU64::new(0));
    let engine = EngineConfig::new()
        .workers(config.workers)
        .batch_size(config.batch)
        .progress(Arc::clone(&progress))
        .live_engine(Arc::clone(&live));

    // One quiescent pass warms the structure and calibrates wall-clock
    // pacing, so "throughput under churn" actually overlaps serving with
    // updates instead of front-loading the stream.
    let warmup = engine.classify_trace(trace);
    let bursts: Vec<&[RuleUpdate]> = updates.chunks(config.burst_ops.max(1)).collect();
    let pace_ns = match config.pacing {
        Pacing::Bursty { passes, cap_ns } => ((passes * warmup.report.wall_ns as f64) as u64
            / bursts.len().max(1) as u64)
            .min(cap_ns),
        Pacing::Sustained { .. } => 0,
    };
    // Sustained pacing: burst k of n lands once k/n of `passes` trace
    // passes' worth of packets has been served *after* the warmup.
    let progress_base = progress.load(Ordering::Relaxed);
    let burst_threshold = |k: usize| -> u64 {
        match config.pacing {
            Pacing::Bursty { .. } => 0,
            Pacing::Sustained { passes } => {
                let window = passes * trace.len() as f64;
                progress_base + (window * k as f64 / bursts.len().max(1) as f64) as u64
            }
        }
    };

    let stop = AtomicBool::new(false);
    let mut latencies: Vec<u64> = Vec::with_capacity(bursts.len());
    let mut apply_error: Option<String> = None;
    let started = Instant::now();
    let (checkpoints, churn_end_ns) = std::thread::scope(|scope| {
        let engine_ref = &engine;
        let stop_ref = &stop;
        let started_ref = &started;
        let server = scope.spawn(move || {
            // Checkpoint (cumulative packets, elapsed) after every pass, so
            // the caller can clip the measurement to the churn window: the
            // pass that drains *after* the last burst would otherwise bias
            // "throughput under churn" toward the quiescent rate.
            let mut checkpoints: Vec<(u64, u64)> = Vec::new();
            let mut pkts = 0u64;
            loop {
                pkts += engine_ref.classify_trace(trace).report.pkts;
                checkpoints.push((pkts, started_ref.elapsed().as_nanos() as u64));
                if stop_ref.load(Ordering::Acquire) {
                    break;
                }
            }
            checkpoints
        });
        let mut server_died = false;
        'stream: for (k, burst) in bursts.iter().enumerate() {
            // Sustained: wait for the serving side to reach this burst's
            // progress threshold.  The serving loop keeps passing over the
            // trace until the stream ends, so progress always advances and
            // the wait terminates — unless the serving thread *dies* (a
            // panic inside classify_trace), which must abort the stream so
            // the join below surfaces the panic instead of this loop
            // spinning until the CI job timeout.
            let threshold = burst_threshold(k);
            while progress.load(Ordering::Relaxed) < threshold {
                if server.is_finished() {
                    server_died = true;
                    break 'stream;
                }
                std::thread::sleep(std::time::Duration::from_micros(20));
            }
            let t = Instant::now();
            if let Err(e) = live.apply_batch(burst) {
                apply_error = Some(e.to_string());
                break;
            }
            latencies.push(t.elapsed().as_nanos() as u64);
            if pace_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(pace_ns));
            }
        }
        let churn_end_ns = started.elapsed().as_nanos() as u64;
        stop.store(true, Ordering::Release);
        // A server that finished before `stop` was set can only have
        // panicked; join propagates that panic as the cell's diagnostic.
        let checkpoints = server.join().expect("churn serving worker panicked");
        debug_assert!(!server_died, "join must have panicked first");
        (checkpoints, churn_end_ns)
    });
    if let Some(e) = apply_error {
        return Err(format!("update rejected mid-stream: {e}"));
    }
    // Clip to the last pass that completed within the churn window (fall
    // back to the first pass when the stream was shorter than one pass).
    let (packets_served, serve_wall_ns) = checkpoints
        .iter()
        .rev()
        .find(|&&(_, elapsed)| elapsed <= churn_end_ns)
        .or_else(|| checkpoints.first())
        .copied()
        .ok_or_else(|| "serving loop recorded no passes".to_string())?;

    // Post-churn verification on the final snapshot: one batched pass,
    // compared packet-for-packet against (a) a from-scratch rebuild of the
    // surviving ruleset and (b) linear search over it.
    let snapshot = live.snapshot();
    let final_live = snapshot.live_rules();
    let spec = snapshot.spec();
    let (rebuilt_set, id_map) = renumbered_ruleset("post-churn", spec, &final_live);
    let rebuilt = rebuild(&rebuilt_set);
    let mut served = Vec::with_capacity(trace.len());
    let headers: Vec<pclass_types::PacketHeader> = trace.headers().copied().collect();
    snapshot.classify_batch(&headers, &mut served);
    let mut rebuilt_results = Vec::with_capacity(trace.len());
    rebuilt.classify_batch(&headers, &mut rebuilt_results);
    let verified = headers.iter().enumerate().all(|(i, pkt)| {
        let updated = served[i];
        updated == map_result(rebuilt_results[i], &id_map)
            && updated == classify_live_linear(&final_live, pkt)
    });

    let update_latency = LatencyPercentiles::from_samples(&mut latencies);
    Ok(ChurnMeasurement {
        packets_served,
        serve_wall_ns,
        mpps_under_churn: if serve_wall_ns == 0 {
            0.0
        } else {
            packets_served as f64 * 1e3 / serve_wall_ns as f64
        },
        updates: updates.len() as u64,
        bursts: bursts.len() as u64,
        update_p50_ns: update_latency.p50_ns,
        update_p95_ns: update_latency.p95_ns,
        update_p99_ns: update_latency.p99_ns,
        update_stats: live.with_writer(|w| w.update_stats()),
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl_ruleset;
    use pclass_algos::{HiCutsClassifier, HiCutsConfig};

    #[test]
    fn churn_stream_is_deterministic_and_balanced() {
        let rs = acl_ruleset(200);
        let a = churn_updates(&rs, 0.01);
        let b = churn_updates(&rs, 0.01);
        assert_eq!(a, b);
        let deletes = a
            .iter()
            .filter(|u| matches!(u, RuleUpdate::Delete(_)))
            .count();
        let inserts = a.len() - deletes;
        assert_eq!(deletes, inserts);
        assert_eq!(deletes, 2); // 1% of 200
                                // Fresh ids never collide with the base ruleset.
        for u in &a {
            if let RuleUpdate::Insert(rule) = u {
                assert!(rule.id >= rs.len() as u32);
            }
        }
    }

    #[test]
    fn churn_stream_never_deletes_the_same_id_twice_on_tiny_rulesets() {
        let one = acl_ruleset(2_191).truncated(1, "one");
        let updates = churn_updates(&one, 0.01);
        assert_eq!(updates.len(), 2, "one delete+insert pair on a 1-rule set");
        assert!(matches!(updates[0], RuleUpdate::Delete(0)));
        let empty = RuleSet::new("empty", *one.spec(), vec![]).expect("empty ruleset");
        assert!(churn_updates(&empty, 0.5).is_empty());
    }

    #[test]
    fn delete_heavy_stream_drains_the_live_set() {
        let rs = acl_ruleset(200);
        let a = delete_heavy_updates(&rs, 0.10, 5);
        assert_eq!(a, delete_heavy_updates(&rs, 0.10, 5), "deterministic");
        let deletes = a
            .iter()
            .filter(|u| matches!(u, RuleUpdate::Delete(_)))
            .count();
        let inserts = a.len() - deletes;
        assert_eq!(deletes, 20, "10% of 200");
        assert_eq!(inserts, 4, "one reinsert per five deletes");
        // Delete ids are distinct and inside the base id range; insert ids
        // are fresh.
        let mut seen = std::collections::HashSet::new();
        for u in &a {
            match u {
                RuleUpdate::Delete(id) => {
                    assert!(seen.insert(*id), "duplicate delete {id}");
                    assert!(*id < rs.len() as u32);
                }
                RuleUpdate::Insert(rule) => assert!(rule.id >= rs.len() as u32),
            }
        }
        // Tiny and empty rulesets stay valid.
        let one = acl_ruleset(2_191).truncated(1, "one");
        let tiny = delete_heavy_updates(&one, 0.10, 5);
        assert_eq!(tiny.len(), 1, "a single delete, no reinsert");
        let empty = RuleSet::new("empty", *one.spec(), vec![]).expect("empty ruleset");
        assert!(delete_heavy_updates(&empty, 0.5, 5).is_empty());
    }

    #[test]
    fn profiles_build_distinct_streams_and_configs() {
        let rs = acl_ruleset(500);
        for profile in ChurnProfile::ALL {
            let stream = profile.stream(&rs);
            assert!(!stream.is_empty(), "{}", profile.tag());
            assert_eq!(
                stream,
                profile.stream(&rs),
                "{} deterministic",
                profile.tag()
            );
        }
        assert!(
            ChurnProfile::Deep10.stream(&rs).len() > 5 * ChurnProfile::Burst1.stream(&rs).len(),
            "deep churn must be an order of magnitude more updates"
        );
        let drain = ChurnProfile::DeleteHeavy.stream(&rs);
        let deletes = drain
            .iter()
            .filter(|u| matches!(u, RuleUpdate::Delete(_)))
            .count();
        assert!(deletes > (drain.len() - deletes) * 2, "net drain");
        assert_eq!(
            ChurnProfile::Sustained.config().pacing,
            Pacing::Sustained { passes: 4.0 }
        );
        assert_eq!(ChurnProfile::Sustained.config().burst_ops, 1);
        // Tags are distinct.
        let tags: std::collections::HashSet<_> =
            ChurnProfile::ALL.iter().map(|p| p.tag()).collect();
        assert_eq!(tags.len(), ChurnProfile::ALL.len());
    }

    #[test]
    fn sustained_churn_cell_paces_against_progress_and_verifies() {
        let rs = acl_ruleset(150);
        let trace = crate::trace_for(&rs, 500);
        let updates = ChurnProfile::Sustained.stream(&rs);
        let config = ChurnConfig {
            workers: 2,
            batch: 32,
            ..ChurnProfile::Sustained.config()
        };
        let build =
            |rs: &RuleSet| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()).flatten();
        let m = run_churn(build(&rs), build, &trace, &updates, &config).unwrap();
        assert!(m.verified, "post-sustained-churn mismatch");
        assert_eq!(m.bursts, updates.len() as u64, "one update per burst");
        // The stream is stretched across the window: serving must have
        // covered several passes' worth of packets while it landed.
        assert!(
            m.packets_served >= 2 * trace.len() as u64,
            "served only {} packets over a 4-pass sustained window",
            m.packets_served
        );
    }

    #[test]
    fn churn_cell_runs_and_verifies_on_a_small_workload() {
        let rs = acl_ruleset(150);
        let trace = crate::trace_for(&rs, 600);
        let updates = churn_updates(&rs, 0.05);
        let config = ChurnConfig {
            workers: 2,
            burst_ops: 3,
            batch: 64,
            ..ChurnConfig::default()
        };
        let build =
            |rs: &RuleSet| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()).flatten();
        let m = run_churn(build(&rs), build, &trace, &updates, &config).unwrap();
        assert!(m.verified, "post-churn mismatch");
        assert_eq!(m.updates, updates.len() as u64);
        assert!(m.bursts >= 1);
        assert!(m.packets_served >= trace.len() as u64);
        assert!(m.update_p50_ns > 0);
        assert!(m.update_p99_ns >= m.update_p50_ns);
        let stats = m.update_stats;
        assert_eq!(stats.inserts, 8); // ceil-ish of 5% of 150 = 8 pairs
        assert_eq!(stats.deletes, 8);
    }
}
