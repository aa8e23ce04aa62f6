//! Property-based coverage of the two workload shapes `pclass-bench` adds
//! on top of the ClassBench defaults (see `pclass_bench::TraceProfile` and
//! `pclass_bench::churn`):
//!
//! * **Zipf-skewed traces** are seed-deterministic and *header-valid* —
//!   every directed packet actually matches the rule it was sampled from,
//!   across random rulesets, seed styles, sizes and exponents — so a
//!   skewed workload can never quietly serve malformed traffic;
//! * **sustained-stream churn** ends packet-for-packet equal to a
//!   from-scratch rebuild of the surviving ruleset (and linear search over
//!   it), mirroring `tests/update_equivalence.rs` for the progress-paced
//!   continuous update path through `EngineConfig::progress`.

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_bench::churn::{self, ChurnConfig, ChurnProfile, Pacing};
use pclass_bench::TraceProfile;
use proptest::prelude::*;

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
        passes_tenths in 10u32..60,
        flat in proptest::arbitrary::any::<bool>(),
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xFADE).generate(packets);
        let updates = ChurnProfile::Sustained.stream(&rs);
        let config = ChurnConfig {
            workers: 2,
            batch: 32,
            burst_ops: 1,
            pacing: Pacing::Sustained {
                passes: f64::from(passes_tenths) / 10.0,
            },
        };
        let hc = HiCutsConfig { binth, spfac: 4.0 };
        // `run_churn` serves the trace continuously while the stream lands
        // one update at a time, paced against served packets, then compares
        // the final snapshot packet-for-packet against BOTH linear search
        // over the survivors AND a from-scratch rebuild (mapped through the
        // id map) — `verified` is that verdict.
        let m = if flat {
            let build = |rs: &RuleSet| HiCutsClassifier::build(rs, &hc).flatten();
            churn::run_churn(build(&rs), build, &trace, &updates, &config)
        } else {
            let build = |rs: &RuleSet| HiCutsClassifier::build(rs, &hc);
            churn::run_churn(build(&rs), build, &trace, &updates, &config)
        }
        .expect("sustained stream applies cleanly");
        prop_assert!(m.verified, "post-sustained-churn snapshot diverged from rebuild");
        prop_assert_eq!(m.updates, updates.len() as u64);
        prop_assert_eq!(m.bursts, updates.len() as u64, "sustained = one update per burst");
    }
}

/// The sustained profile pinned as a deterministic test: acl1 at 2 k
/// rules, 2 % stream, one update per burst paced over four passes verifies
/// on the flat arena and covers several serving passes while the stream
/// lands.
#[test]
fn sustained_cell_on_acl1_2000_verifies_and_spans_the_window() {
    let rs = pclass_bench::acl_ruleset(2_000);
    let trace = TraceProfile::Uniform.trace(&rs, 2_000);
    let updates = ChurnProfile::Sustained.stream(&rs);
    assert_eq!(updates.len(), 80, "2% of 2000, delete+insert pairs");
    let config = ChurnProfile::Sustained.config();
    assert_eq!(config.pacing, Pacing::Sustained { passes: 4.0 });

    let build =
        |rs: &RuleSet| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()).flatten();
    let m = churn::run_churn(build(&rs), build, &trace, &updates, &config)
        .expect("sustained stream applies");
    assert!(m.verified, "post-churn mismatch");
    assert_eq!(m.bursts, 80);
    assert!(
        m.packets_served >= 2 * trace.len() as u64,
        "a sustained stream must span multiple serving passes, served {}",
        m.packets_served
    );
}

/// Zipf traffic serves correctly end to end: every classifier of the
/// roster agrees with linear-search ground truth on a Zipf-skewed trace.
#[test]
fn zipf_cell_serves_every_classifier_packet_for_packet() {
    let rs = pclass_bench::acl_ruleset(300);
    let trace = TraceProfile::Zipf.trace(&rs, 1_200);
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
    use pclass_algos::update::{
        classify_live_linear, map_result, renumbered_ruleset, UpdatableClassifier,
    };
    let rs = pclass_bench::acl_ruleset(400);
    let trace = pclass_bench::trace_for(&rs, 800);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    for profile in [ChurnProfile::Deep10, ChurnProfile::DeleteHeavy] {
        let updates = profile.stream(&rs);
        fn check<C: UpdatableClassifier>(
            rs: &RuleSet,
            updates: &[pclass_algos::update::RuleUpdate],
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
            |rs| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()).flatten(),
            tag,
        );
        check(
            &rs,
            &updates,
            &headers,
            |rs| HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults()),
            tag,
        );
        check(
            &rs,
            &updates,
            &headers,
            |rs| HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults()).flatten(),
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
