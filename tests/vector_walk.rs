//! Property-based equivalence of the vectorised lane walk: at every
//! [`LaneWidth`] the batched flat-arena walk must classify packet-for-packet
//! like the scalar per-packet walk ([`LaneWidth::Scalar`] — the differential
//! oracle) — across random rulesets and builder configurations, batch sizes
//! that leave odd sub-lane tails, and post-churn arenas whose overflow
//! side-tables are live (dirty threshold = infinity, so spilled inserts are
//! never re-flattened away and the vector walk has to merge them itself).

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_algos::update::UpdatableClassifier;
use proptest::prelude::*;

/// Batch sizes the walk is exercised at: sub-lane (1, 3), straddling the
/// widest lane (7, 13, 21 leave odd tails at x4/x8/x16), and the full
/// trace in one batch.
const BATCHES: [usize; 6] = [1, 3, 7, 13, 21, usize::MAX];

/// The core property: every lane width agrees with the scalar walk over
/// `headers`, per batch size, including the empty batch.
fn assert_lanes_match_scalar(name: &str, flat: &FlatTree, headers: &[PacketHeader]) {
    let scalar: Vec<MatchResult> = headers.iter().map(|h| flat.classify(h, None)).collect();
    for lanes in LaneWidth::ALL {
        let mut empty = Vec::new();
        flat.classify_batch_lanes(&[], &mut empty, lanes);
        prop_assert!(empty.is_empty(), "{} {:?} empty batch", name, lanes);
        for batch in BATCHES {
            let batch = batch.min(headers.len().max(1));
            let mut out = Vec::new();
            for chunk in headers.chunks(batch) {
                flat.classify_batch_lanes(chunk, &mut out, lanes);
            }
            prop_assert_eq!(
                &out,
                &scalar,
                "{} {:?} batch {} disagrees with scalar walk",
                name,
                lanes,
                batch
            );
        }
    }
}

/// Deterministic update script (same derivation as `update_equivalence`):
/// `(is_insert, pick)` pairs resolved against the evolving live set.
fn script_from_seed(mut seed: u64, len: usize) -> Vec<(bool, u8)> {
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let word = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ops.push((word & 1 == 0, (word >> 8) as u8));
    }
    ops
}

/// Applies the script to a flat classifier: deletes pick a live id,
/// inserts pick from fresh rules and previously deleted ones.
fn apply_script(classifier: &mut FlatTreeClassifier, script: &[(bool, u8)], fresh_pool: &[Rule]) {
    let mut available: Vec<Rule> = fresh_pool.to_vec();
    for &(is_insert, pick) in script {
        if is_insert {
            if available.is_empty() {
                continue;
            }
            let rule = available.remove(pick as usize % available.len());
            classifier.insert(rule).expect("scripted insert is valid");
        } else {
            let live = classifier.live_rules();
            if live.is_empty() {
                continue;
            }
            let victim = live[pick as usize % live.len()];
            classifier
                .delete(victim.id)
                .expect("scripted delete is valid");
            available.push(victim);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn every_lane_width_matches_the_scalar_walk(
        seed in 0u64..1_000_000,
        rules in 1usize..140,
        packets in 0usize..260,
        binth in 1usize..24,
        spfac_tenths in 10u32..80,
        compaction in proptest::arbitrary::any::<bool>(),
        push_common in proptest::arbitrary::any::<bool>(),
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0x1A7E).generate(packets);
        let headers: Vec<PacketHeader> = trace.headers().copied().collect();
        let spfac = f64::from(spfac_tenths) / 10.0;
        let hicuts = HiCutsClassifier::build(&rs, &HiCutsConfig { binth, spfac });
        let hypercuts = HyperCutsClassifier::build(
            &rs,
            &HyperCutsConfig {
                binth,
                spfac,
                region_compaction: compaction,
                push_common_rules: push_common,
            },
        );
        assert_lanes_match_scalar("hicuts-flat", hicuts.flatten().flat_tree(), &headers);
        assert_lanes_match_scalar("hypercuts-flat", hypercuts.flatten().flat_tree(), &headers);
    }

    /// Post-churn arenas: random insert/delete scripts with the dirty
    /// threshold at infinity, so overflow side-tables stay live and the
    /// lane walk must consult them exactly like the scalar walk does.
    #[test]
    fn lane_walk_matches_scalar_on_post_churn_arenas_with_live_overflow(
        seed in 0u64..1_000_000,
        rules in 1usize..110,
        packets in 1usize..200,
        binth in 1usize..24,
        ops_seed in proptest::arbitrary::any::<u64>(),
        ops_len in 1usize..28,
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xC0DE).generate(packets);
        let headers: Vec<PacketHeader> = trace.headers().copied().collect();
        let script = script_from_seed(ops_seed, ops_len);
        // Fresh insert candidates at ids just past the base ruleset.
        let fresh_pool: Vec<Rule> = ClassBenchGenerator::new(SeedStyle::Acl, seed ^ 0xF00)
            .generate(14)
            .rules()
            .iter()
            .map(|r| Rule::new(rs.len() as u32 + r.id, r.ranges))
            .collect();
        let spfac = 2.0;
        for (name, build) in [
            (
                "hicuts-flat",
                Box::new(|| HiCutsClassifier::build(&rs, &HiCutsConfig { binth, spfac }).flatten())
                    as Box<dyn Fn() -> FlatTreeClassifier>,
            ),
            (
                "hypercuts-flat",
                Box::new(|| {
                    HyperCutsClassifier::build(
                        &rs,
                        &HyperCutsConfig {
                            binth,
                            spfac,
                            region_compaction: true,
                            push_common_rules: true,
                        },
                    )
                    .flatten()
                }),
            ),
        ] {
            // Infinity: dirtying inserts spill to overflow side-tables and
            // are never compacted back into the slab.
            let mut c = build().with_settings(FlatSettings {
                dirty_threshold: f64::INFINITY,
            });
            apply_script(&mut c, &script, &fresh_pool);
            // The scalar oracle itself is checked against linear search
            // over the live set, so the chain is closed end to end.
            let live = c.live_rules();
            for h in &headers {
                let want = pclass_algos::update::classify_live_linear(&live, h);
                prop_assert_eq!(
                    c.flat_tree().classify(h, None),
                    want,
                    "{} scalar walk vs live linear",
                    name
                );
            }
            assert_lanes_match_scalar(name, c.flat_tree(), &headers);
        }
    }
}

/// Deterministic pin: a churn heavy enough to leave overflow entries live
/// (threshold = infinity) on the acl1 2 k workload, checked at every lane
/// width.
#[test]
fn acl1_2000_churn_with_live_overflow_is_lane_exact() {
    let rs = pclass_bench::acl_ruleset(2_000);
    let trace = pclass_bench::trace_for(&rs, 2_000);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let updates = pclass_bench::churn::churn_updates(&rs, 0.10);

    let mut c = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults())
        .flatten()
        .with_settings(FlatSettings {
            dirty_threshold: f64::INFINITY,
        });
    for u in &updates {
        c.apply(u).expect("churn update applies");
    }
    assert!(
        c.update_stats().overflow_rules > 0,
        "churn at infinite dirty threshold must leave overflow entries live"
    );

    let scalar: Vec<MatchResult> = headers
        .iter()
        .map(|h| c.flat_tree().classify(h, None))
        .collect();
    for lanes in LaneWidth::ALL {
        let mut out = Vec::new();
        for chunk in headers.chunks(512) {
            c.flat_tree().classify_batch_lanes(chunk, &mut out, lanes);
        }
        assert_eq!(out, scalar, "{lanes:?} disagrees with scalar post-churn");
    }
}
