//! Property-based coverage of the two workload shapes `pclass-bench` adds
//! on top of the ClassBench defaults (see `pclass_bench::zipf_trace_for`
//! and `pclass_bench::churn`):
//!
//! * **Zipf-skewed traces** are seed-deterministic and *header-valid* —
//!   every directed packet actually matches the rule it was sampled from,
//!   across random rulesets, seed styles, sizes and exponents — so a
//!   skewed workload can never quietly serve malformed traffic;
//! * **sustained churn** — a `LiveEngine` keeps serving *correctly* while
//!   an update stream is published under it one generation at a time:
//!   every pass is checked mid-stream against the generations it can have
//!   seen, and the drained engine ends packet-for-packet equal to a
//!   from-scratch rebuild of the surviving ruleset (and linear search over
//!   it), mirroring `tests/update_equivalence.rs` for the concurrent
//!   epoch-swap path.

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_algos::update::{
    classify_live_linear, map_result, renumbered_ruleset, RuleUpdate, UpdatableClassifier,
};
use pclass_algos::{CachedClassifier, HotCacheConfig};
use pclass_bench::churn::{churn_updates, ChurnProfile};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The sustained update stream of a ruleset — 2 % of it replaced, landed
/// one update per published generation — with the oracle for every
/// generation along the way.
struct SustainedStream {
    updates: Vec<RuleUpdate>,
    /// `truth[g][i]`: linear search for packet `i` over the rules live at
    /// generation `g` (after `g` updates), which are tracked on a plain
    /// sorted list, independent of any classifier.
    truth: Vec<Vec<MatchResult>>,
    /// The rules live once the whole stream has landed.
    survivors: Vec<Rule>,
}

impl SustainedStream {
    fn new(rs: &RuleSet, trace: &Trace) -> SustainedStream {
        let updates = churn_updates(rs, 0.02);
        let decide = |rules: &[Rule]| -> Vec<MatchResult> {
            trace
                .headers()
                .map(|pkt| classify_live_linear(rules, pkt))
                .collect()
        };
        let mut rules = rs.rules().to_vec();
        let mut truth = vec![decide(&rules)];
        for update in &updates {
            match update {
                RuleUpdate::Delete(id) => rules.retain(|r| r.id != *id),
                RuleUpdate::Insert(rule) => {
                    let at = rules.partition_point(|r| r.id < rule.id);
                    rules.insert(at, *rule);
                }
            }
            truth.push(decide(&rules));
        }
        SustainedStream {
            updates,
            truth,
            survivors: rules,
        }
    }
}

/// Serves `trace` in a loop on a 2-worker, batch-32 `LiveEngine` over
/// `build(rs)` while a writer thread lands the stream one update per
/// `apply_batch`, a third of a warm-up pass apart, so generations are
/// published *inside* serving passes.
///
/// Every pass is checked as it completes: each served result must be what
/// linear search decides over **some** generation between the one current
/// before the call and the one current after it (a sub-batch is served by
/// exactly one snapshot, and a pass can straddle several publishes).  Once
/// the stream has drained, the engine must agree packet for packet with
/// linear search over the survivors and with a from-scratch rebuild of
/// them.
///
/// Whether a publish lands inside a pass is up to the scheduler, so the
/// whole run repeats on a fresh engine — a bounded number of times — until
/// at least one pass has seen the generation move; none doing so fails the
/// test instead of passing it on luck.
fn assert_serves_correctly_while_the_stream_lands<C>(
    rs: &RuleSet,
    build: impl Fn(&RuleSet) -> C,
    trace: &Trace,
    stream: &SustainedStream,
) where
    C: UpdatableClassifier + Clone + Send + Sync,
{
    let base = build(rs);
    let config = EngineConfig::new().workers(2).batch_size(32);
    let (mut passes, mut straddling) = (0usize, 0usize);
    for _attempt in 0..8 {
        let live = Arc::new(LiveClassifier::new(base.clone()));
        let engine = config.live_engine(Arc::clone(&live));
        let warmup = engine.classify_trace(trace);
        assert_eq!(warmup.results, stream.truth[0], "quiescent warm-up pass");
        let gap = Duration::from_nanos(warmup.report.wall_ns / 3);

        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for update in &stream.updates {
                    std::thread::sleep(gap);
                    live.apply_batch(std::slice::from_ref(update))
                        .expect("the stream applies cleanly");
                }
            });
            // A writer that dies leaves the loop too, and the join below
            // surfaces its panic.
            while !writer.is_finished() {
                let before = live.generation() as usize;
                let run = engine.classify_trace(trace);
                let after = live.generation() as usize;
                for (i, got) in run.results.iter().enumerate() {
                    assert!(
                        stream.truth[before..=after].iter().any(|t| t[i] == *got),
                        "packet {i} served {got:?}, which no generation in \
                         {before}..={after} decides"
                    );
                }
                passes += 1;
                straddling += usize::from(after > before);
            }
            writer.join().expect("writer thread panicked");
        });

        // Drained: one generation per update, and the engine (through its
        // cache, when it has one) serves exactly the survivors.
        assert_eq!(live.generation() as usize, stream.updates.len());
        assert_eq!(live.snapshot().live_rules(), stream.survivors);
        let served = engine.classify_trace(trace).results;
        assert_eq!(served, stream.truth[stream.updates.len()]);
        let (rebuilt_set, id_map) = renumbered_ruleset("post-churn", *rs.spec(), &stream.survivors);
        let rebuilt = build(&rebuilt_set);
        for (pkt, got) in trace.headers().zip(&served) {
            assert_eq!(*got, map_result(rebuilt.classify(pkt), &id_map));
        }

        if straddling > 0 {
            break;
        }
    }
    println!("{straddling} of {passes} passes had a generation published inside them");
    assert!(
        straddling > 0,
        "none of {passes} serving passes saw the generation move: the \
         stream never landed under a walking reader"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn zipf_traces_are_seed_deterministic_and_header_valid(
        seed in 0u64..1_000_000,
        rules in 1usize..400,
        packets in 1usize..400,
        exponent_tenths in 5u32..25,
        style_pick in 0u8..3,
    ) {
        let style = [SeedStyle::Acl, SeedStyle::Fw, SeedStyle::Ipc][style_pick as usize];
        let rs = ClassBenchGenerator::new(style, seed).generate(rules);
        let exponent = f64::from(exponent_tenths) / 10.0;
        let make = || {
            TraceGenerator::new(&rs, seed ^ 0xBEEF)
                .zipf(exponent)
                .generate(packets)
        };
        // Seed-determinism: the same seed reproduces the trace bit for bit.
        let trace = make();
        prop_assert_eq!(&trace, &make());
        prop_assert_eq!(trace.len(), packets);
        // Header validity: every generated packet matches at least the rule
        // it was sampled from (background packets carry no intended rule).
        for entry in trace.entries() {
            if let Some(rid) = entry.intended_rule {
                let rule = rs.rule(rid).expect("intended rule exists");
                prop_assert!(
                    rule.matches(&entry.header),
                    "Zipf packet {} escaped its source rule {} ({:?} {} rules, α={})",
                    entry.header, rid, style, rules, exponent
                );
            }
        }
        // A different seed produces a different trace (on any workload big
        // enough that a collision would be a bug, not chance).
        if rules > 2 && packets > 16 {
            let other = TraceGenerator::new(&rs, seed ^ 0xBEEF ^ 1)
                .zipf(exponent)
                .generate(packets);
            prop_assert!(trace != other, "different seeds produced identical traces");
        }
    }

    #[test]
    fn sustained_churn_ends_packet_for_packet_equal_to_a_rebuild(
        seed in 0u64..1_000_000,
        rules in 4usize..150,
        packets in 16usize..300,
        binth in 2usize..24,
        cached in proptest::arbitrary::any::<bool>(),
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xFADE).generate(packets);
        let stream = SustainedStream::new(&rs, &trace);
        let hc = HiCutsConfig { binth, spfac: 4.0 };
        let flat = |rs: &RuleSet| HiCutsClassifier::build(rs, &hc);
        if cached {
            let build = |rs: &RuleSet| CachedClassifier::new(flat(rs), HotCacheConfig::new(256, 4));
            assert_serves_correctly_while_the_stream_lands(&rs, build, &trace, &stream);
        } else {
            assert_serves_correctly_while_the_stream_lands(&rs, flat, &trace, &stream);
        }
    }
}

/// The sustained stream pinned as a deterministic test: acl1 at 2 k rules,
/// 2 % replaced one update per generation under a serving `LiveEngine` over
/// the flat arena, cache off and behind a hot cache small enough to keep
/// evicting (a cell over a `CachedClassifier`).
#[test]
fn sustained_cell_on_acl1_2000_verifies_and_spans_the_window() {
    let rs = pclass_bench::acl_ruleset(2_000);
    let trace = pclass_bench::trace_for(&rs, 2_000);
    let stream = SustainedStream::new(&rs, &trace);
    assert_eq!(stream.updates.len(), 80, "2% of 2000, delete+insert pairs");

    let hc = HiCutsConfig::paper_defaults();
    let flat = |rs: &RuleSet| HiCutsClassifier::build(rs, &hc);
    assert_serves_correctly_while_the_stream_lands(&rs, flat, &trace, &stream);
    let cached = |rs: &RuleSet| CachedClassifier::new(flat(rs), HotCacheConfig::new(256, 4));
    assert_serves_correctly_while_the_stream_lands(&rs, cached, &trace, &stream);
}

/// Zipf traffic serves correctly end to end: every classifier of the
/// roster agrees with linear-search ground truth on a Zipf-skewed trace.
#[test]
fn zipf_cell_serves_every_classifier_packet_for_packet() {
    let rs = pclass_bench::acl_ruleset(300);
    let trace = pclass_bench::zipf_trace_for(&rs, 1_200);
    let truth = trace.ground_truth(&rs);
    let roster = pclass_bench::serving_roster(&rs);
    assert!(roster.skipped.is_empty(), "{:?}", roster.skipped);
    for (name, classifier) in roster.classifiers {
        for workers in [1usize, 4] {
            let engine = EngineConfig::new()
                .workers(workers)
                .engine(std::sync::Arc::clone(&classifier));
            let run = engine.classify_trace(&trace);
            assert_eq!(run.results, truth, "{name} x{workers} on zipf trace");
        }
    }
}

/// The deep-churn and delete-heavy profiles mirror `update_equivalence`:
/// applying the profile streams directly (no serving loop) leaves every
/// updatable classifier packet-for-packet equal to a rebuild of the
/// survivors.
#[test]
fn deep_and_delete_heavy_streams_match_rebuild_on_every_updatable() {
    let rs = pclass_bench::acl_ruleset(400);
    let trace = pclass_bench::trace_for(&rs, 800);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    for profile in [ChurnProfile::Deep10, ChurnProfile::DeleteHeavy] {
        let updates = profile.stream(&rs);
        fn check<C: UpdatableClassifier>(
            rs: &RuleSet,
            updates: &[RuleUpdate],
            headers: &[PacketHeader],
            build: impl Fn(&RuleSet) -> C,
            tag: &str,
        ) {
            let mut c = build(rs);
            for u in updates {
                c.apply(u).expect("profile stream applies");
            }
            let live = c.live_rules();
            let (rebuilt_set, id_map) =
                renumbered_ruleset("rebuilt", UpdatableClassifier::spec(&c), &live);
            let fresh = build(&rebuilt_set);
            for pkt in headers {
                let got = c.classify(pkt);
                assert_eq!(got, classify_live_linear(&live, pkt), "{tag} vs linear");
                assert_eq!(
                    got,
                    map_result(fresh.classify(pkt), &id_map),
                    "{tag} vs rebuild"
                );
            }
        }
        let tag = profile.tag();
        check(
            &rs,
            &updates,
            &headers,
            |rs| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()),
            tag,
        );
        check(
            &rs,
            &updates,
            &headers,
            |rs| HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults()),
            tag,
        );
    }
    // Delete-heavy genuinely drains: fewer live rules than the base set.
    let mut c = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    for u in ChurnProfile::DeleteHeavy.stream(&rs) {
        c.apply(&u).expect("drain applies");
    }
    assert!(
        c.live_rules().len() < rs.len(),
        "delete-heavy must shrink the live set ({} vs {})",
        c.live_rules().len(),
        rs.len()
    );
}
