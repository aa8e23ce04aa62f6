//! Property-based equivalence of the serving engine: for every classifier
//! in the workspace, `pclass_engine::Engine` must produce exactly the
//! per-packet sequential decisions, for any worker count and any trace
//! length — including the chunk-boundary edge cases (empty trace, trace
//! smaller than the worker count, trace length not divisible by workers).
//! A second property pins that every serving front end goes through the
//! same shard split.
//!
//! The classifier roster comes from `pclass_bench::serving_roster`, the
//! single source of truth, so a classifier added to the workspace is
//! automatically covered here.

use packet_classifier::prelude::*;
use pclass_algos::{CachedClassifier, HotCacheConfig};
use pclass_bench::serving_roster;
use proptest::prelude::*;
use std::sync::Arc;

/// All serveable classifiers for one ruleset; small rulesets must never
/// produce build skips.
fn classifiers(rs: &RuleSet) -> Vec<SharedClassifier> {
    let roster = serving_roster(rs);
    assert!(
        roster.skipped.is_empty(),
        "unexpected build skips on a small ruleset: {:?}",
        roster.skipped
    );
    roster.classifiers.into_iter().map(|(_, c)| c).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn engine_matches_sequential_classification(
        seed in 0u64..1_000_000,
        rules in 1usize..120,
        packets in 0usize..300,
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xBEEF).generate(packets);
        for classifier in classifiers(&rs) {
            // Sequential per-packet reference over the same classifier.
            let sequential: Vec<MatchResult> =
                trace.headers().map(|h| classifier.classify(h)).collect();
            for workers in [1usize, 2, 4] {
                let engine = EngineConfig::new().workers(workers).engine(Arc::clone(&classifier));
                let run = engine.classify_trace(&trace);
                prop_assert_eq!(
                    &run.results,
                    &sequential,
                    "{} with {} workers on {} packets",
                    engine.name(),
                    workers,
                    packets
                );
                prop_assert_eq!(run.report.pkts, packets as u64);
                prop_assert_eq!(run.report.per_worker.len(), workers);
            }
        }
    }

    #[test]
    fn every_front_end_serves_the_same_shard_split(
        seed in 0u64..1_000_000,
        rules in 1usize..120,
        packets in 0usize..300,
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xBEEF).generate(packets);
        let truth = trace.ground_truth(&rs);
        let linear = LinearClassifier::new(rs);
        for workers in [1usize, 2, 4, 7] {
            for batch in [1usize, 3, 512] {
                let config = EngineConfig::new().workers(workers).batch_size(batch);
                assert_front_ends_agree(&config, &config, &linear, linear.clone(), &trace, &truth);
                // Cached: the engine takes its caches from the config, the
                // live cell and the router's tenant bring their own.
                let geometry = HotCacheConfig::new(64, 4);
                let cell = CachedClassifier::new(linear.clone(), geometry);
                let cached = config.clone().hot_cache(geometry);
                assert_front_ends_agree(&cached, &config, &linear, cell, &trace, &truth);
            }
        }
    }
}

/// `Engine`, a quiescent `LiveEngine`, a one-tenant `TenantRouter` and its
/// `classify_solo` are views over one sharded loop: built over one
/// geometry (`engines` may add a hot cache to `config`, `cell` its own to
/// `linear`) they make the same decisions over the same per-worker split —
/// `Trace::shards` — on a cold pass and on a warm one over whatever the
/// first pass cached.  The live engine serves `cell`, the router a clone.
fn assert_front_ends_agree<C: Classifier + Clone + Send + Sync>(
    engines: &EngineConfig,
    config: &EngineConfig,
    linear: &LinearClassifier,
    cell: C,
    trace: &Trace,
    truth: &[MatchResult],
) {
    let engine = engines.engine(Arc::new(linear.clone()));
    let live = config.live_engine(Arc::new(LiveClassifier::new(cell.clone())));
    let router = config.tenant_router([(TenantSpec::new("t0"), cell)]);
    let id = router.tenant_ids()[0];
    let tagged = TaggedTrace::interleave("solo", &[(id, trace)]);
    let shards = trace.shards(config.worker_count());
    let shards: Vec<usize> = shards.iter().map(|s| s.len()).collect();
    for pass in ["cold", "warm"] {
        let check = |front_end: &str, run: EngineRun| {
            let at = format!("{front_end} from {engines:?}, {pass} pass");
            let worker_pkts = run.report.per_worker.iter().map(|w| w.pkts as usize);
            assert_eq!(run.results, truth, "{at}");
            assert_eq!(run.report.pkts, trace.len() as u64, "{at}");
            assert_eq!(worker_pkts.collect::<Vec<_>>(), shards, "{at}");
        };
        check("engine", engine.classify_trace(trace));
        check("live engine", live.classify_trace(trace));
        let TenantRun {
            results, report, ..
        } = router.classify_tagged(&tagged);
        check("router", EngineRun { results, report });
        check("solo", router.classify_solo(id, trace));
    }
}

#[test]
fn engine_handles_empty_trace_for_every_classifier() {
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 77).generate(40);
    let empty = Trace::from_headers("empty", vec![]);
    for classifier in classifiers(&rs) {
        for workers in [1usize, 2, 4] {
            let run = EngineConfig::new()
                .workers(workers)
                .engine(Arc::clone(&classifier))
                .classify_trace(&empty);
            assert!(run.results.is_empty());
            assert_eq!(run.report.pkts, 0);
        }
    }
}

#[test]
fn engine_handles_trace_smaller_than_worker_count() {
    let rs = ClassBenchGenerator::new(SeedStyle::Ipc, 78).generate(60);
    let trace = TraceGenerator::new(&rs, 79).generate(3);
    let truth = trace.ground_truth(&rs);
    for classifier in classifiers(&rs) {
        let run = EngineConfig::new()
            .workers(4)
            .engine(Arc::clone(&classifier))
            .classify_trace(&trace);
        assert_eq!(run.results, truth);
        // Exactly one result per packet even though one shard is idle.
        let served: u64 = run.report.per_worker.iter().map(|w| w.pkts).sum();
        assert_eq!(served, 3);
    }
}
