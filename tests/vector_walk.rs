//! Property-based equivalence of the vectorised lane walk: at every
//! [`LaneWidth`] — [`LaneWidth::Scalar`] is a lane of one — the batched
//! flat-arena walk must classify packet-for-packet like per-packet
//! [`FlatTree::classify`] (the differential oracle, itself checked against
//! linear search over the live rules) — across random rulesets and builder
//! configurations, batch sizes that leave odd sub-lane tails, and
//! post-churn arenas driven without a re-flatten, so full spans have moved
//! to the slab end and left dead slots behind.  The width
//! [`FlatTree::classify_batch`] picks for itself is swept too, on arenas
//! either side of its 1 MiB switch.

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_algos::update::RuleUpdate;
use proptest::prelude::*;

/// Batch sizes the walk is exercised at: sub-lane (1, 3), straddling the
/// widest lane (7, 13, 21 leave odd tails at x4/x16), and the full
/// trace in one batch.
const BATCHES: [usize; 6] = [1, 3, 7, 13, 21, usize::MAX];

/// The core property: every lane width — and the one `classify_batch`
/// picks (`None`) — agrees with per-packet `classify` over `headers`, per
/// batch size, including the empty batch.
fn assert_lanes_match_scalar(name: &str, flat: &FlatTree, headers: &[PacketHeader]) {
    let scalar: Vec<MatchResult> = headers.iter().map(|h| flat.classify(h, None)).collect();
    let serve = |chunk: &[PacketHeader], out: &mut Vec<MatchResult>, lanes| match lanes {
        Some(lanes) => flat.classify_batch_lanes(chunk, out, lanes),
        None => flat.classify_batch(chunk, out),
    };
    for lanes in LaneWidth::ALL.map(Some).into_iter().chain([None]) {
        let mut empty = Vec::new();
        serve(&[], &mut empty, lanes);
        prop_assert!(empty.is_empty(), "{} {:?} empty batch", name, lanes);
        for batch in BATCHES {
            let batch = batch.min(headers.len().max(1));
            let mut out = Vec::new();
            for chunk in headers.chunks(batch) {
                serve(chunk, &mut out, lanes);
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

/// Applies the script to the bare arena (which never re-flattens on its
/// own): deletes pick a live id, inserts pick from fresh rules and
/// previously deleted ones.  Then tops the churn up with wildcard inserts
/// at ids from `next_id` until a non-empty span has had to move, so the
/// arena handed to the lane sweep is dirty whatever the script did.
fn apply_script(flat: &mut FlatTree, script: &[(bool, u8)], fresh_pool: &[Rule], next_id: u32) {
    let mut available: Vec<Rule> = fresh_pool.to_vec();
    for &(is_insert, pick) in script {
        if is_insert {
            if available.is_empty() {
                continue;
            }
            let rule = available.remove(pick as usize % available.len());
            flat.insert(&rule).expect("scripted insert is valid");
        } else {
            let live = flat.live_rules();
            if live.is_empty() {
                continue;
            }
            let victim = live[pick as usize % live.len()];
            flat.delete(victim.id).expect("scripted delete is valid");
            available.push(victim);
        }
    }
    let spec = *flat.spec();
    let mut id = next_id;
    while flat.dirty_ratio() == 0.0 {
        flat.insert(&Rule::wildcard(id, &spec))
            .expect("top-up insert is valid");
        id += 1;
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

    /// Post-churn arenas: random insert/delete scripts with no re-flatten,
    /// so the lane walk reads moved spans (and steps over the dead slots
    /// they left) exactly like the scalar walk does.
    #[test]
    fn lane_walk_matches_scalar_on_post_churn_arenas_with_moved_spans(
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
            let mut flat = build().flat_tree().clone();
            let next_id = (rs.len() + fresh_pool.len()) as u32;
            apply_script(&mut flat, &script, &fresh_pool, next_id);
            prop_assert!(flat.dirty_ratio() > 0.0, "{} arena is not dirty", name);
            // The scalar oracle itself is checked against linear search
            // over the live set, so the chain is closed end to end.
            let live = flat.live_rules();
            for h in &headers {
                let want = pclass_algos::update::classify_live_linear(&live, h);
                prop_assert_eq!(
                    flat.classify(h, None),
                    want,
                    "{} scalar walk vs live linear",
                    name
                );
            }
            assert_lanes_match_scalar(name, &flat, &headers);
        }
    }
}

/// Deterministic pin: churn heavy enough to move full spans, driven into
/// the bare arena with no re-flatten, on an arena either side of
/// `classify_batch`'s lane-width switch — the acl1 2 k workload
/// (cache-resident, served at x16) and a 10 k ruleset (past 1 MiB, served
/// at x4 with read-ahead touches) — checked at every lane width and at
/// `classify_batch`'s own pick.
#[test]
fn churned_acl_arenas_with_moved_spans_are_lane_exact() {
    let small = pclass_bench::acl_ruleset(2_000);
    let large = ClassBenchGenerator::new(SeedStyle::Acl, 10_000).generate(10_000);
    for (rs, fraction, past_1_mib) in [(&small, 0.10, false), (&large, 0.02, true)] {
        let trace = pclass_bench::trace_for(rs, 2_000);
        let headers: Vec<PacketHeader> = trace.headers().copied().collect();
        let c = HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()).flatten();
        let mut flat = c.flat_tree().clone();
        for u in pclass_bench::churn::churn_updates(rs, fraction) {
            match u {
                RuleUpdate::Insert(rule) => flat.insert(&rule),
                RuleUpdate::Delete(id) => flat.delete(id),
            }
            .expect("churn update applies");
        }
        assert!(
            flat.dirty_ratio() > 0.0,
            "churn without a re-flatten must leave dead slots behind"
        );
        assert_eq!(flat.arena_stats().total_bytes > 1 << 20, past_1_mib);
        assert_lanes_match_scalar(rs.name(), &flat, &headers);
    }
}
