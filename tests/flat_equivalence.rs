//! Property-based equivalence of the flat-arena decision trees: for HiCuts
//! and HyperCuts, the flattened [`FlatTreeClassifier`] must classify every
//! packet exactly like the pointer tree it was built from — per packet and
//! through `classify_batch` at any batch size (including 0, 1 and odd
//! sizes that leave a partial tail) — and count the same [`LookupStats`]
//! for it, field for field, across random rulesets and builder
//! configurations (`binth`, `spfac`, the HyperCuts heuristics).

use packet_classifier::prelude::*;
use pclass_algos::counters::LookupStats;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use proptest::prelude::*;

/// Builds both tree classifiers and their flat variants for one ruleset.
fn tree_pairs(
    rs: &RuleSet,
    binth: usize,
    spfac: f64,
    compaction: bool,
    push_common: bool,
) -> Vec<(Box<dyn Classifier>, FlatTreeClassifier)> {
    let hicuts = HiCutsClassifier::build(rs, &HiCutsConfig { binth, spfac });
    let hypercuts = HyperCutsClassifier::build(
        rs,
        &HyperCutsConfig {
            binth,
            spfac,
            region_compaction: compaction,
            push_common_rules: push_common,
        },
    );
    let hicuts_flat = hicuts.flatten();
    let hypercuts_flat = hypercuts.flatten();
    vec![
        (Box::new(hicuts) as Box<dyn Classifier>, hicuts_flat),
        (Box::new(hypercuts), hypercuts_flat),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn flat_tree_is_packet_for_packet_identical(
        seed in 0u64..1_000_000,
        rules in 1usize..140,
        packets in 0usize..260,
        binth in 1usize..24,
        spfac_tenths in 10u32..80,
        compaction in proptest::arbitrary::any::<bool>(),
        push_common in proptest::arbitrary::any::<bool>(),
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xF1A7).generate(packets);
        let headers: Vec<PacketHeader> = trace.headers().copied().collect();
        let spfac = f64::from(spfac_tenths) / 10.0;
        for (tree, flat) in tree_pairs(&rs, binth, spfac, compaction, push_common) {
            // Per-packet equivalence against the pointer tree.
            let expected: Vec<MatchResult> =
                headers.iter().map(|h| tree.classify(h)).collect();
            let per_packet: Vec<MatchResult> =
                headers.iter().map(|h| flat.classify(h)).collect();
            prop_assert_eq!(&per_packet, &expected, "{} per-packet", flat.name());

            // The work each lookup counts is the pointer tree's, field for
            // field: what the SA-1100 pricing of the `sim_*` metrics reads.
            for h in &headers {
                let (mut want, mut got) = (LookupStats::new(), LookupStats::new());
                tree.classify_with_stats(h, &mut want);
                flat.classify_with_stats(h, &mut got);
                prop_assert_eq!(got, want, "{} stats on {:?}", flat.name(), h);
            }

            // Batched equivalence at 0 / 1 / odd / full batch sizes.
            for batch in [0usize, 1, 3, 7, headers.len().max(1)] {
                let mut out = Vec::new();
                if batch == 0 {
                    flat.classify_batch(&[], &mut out);
                    prop_assert!(out.is_empty());
                    continue;
                }
                for chunk in headers.chunks(batch) {
                    flat.classify_batch(chunk, &mut out);
                }
                prop_assert_eq!(&out, &expected, "{} batch {}", flat.name(), batch);
            }
        }
    }
}

#[test]
fn flat_tree_matches_linear_search_on_mixed_styles() {
    for (style, seed) in [
        (SeedStyle::Acl, 11u64),
        (SeedStyle::Fw, 12),
        (SeedStyle::Ipc, 13),
    ] {
        let rs = ClassBenchGenerator::new(style, seed).generate(120);
        let trace = TraceGenerator::new(&rs, seed ^ 0xCAFE).generate(400);
        let truth = trace.ground_truth(&rs);
        for (_, flat) in tree_pairs(&rs, 16, 4.0, true, true) {
            let headers: Vec<PacketHeader> = trace.headers().copied().collect();
            let mut out = Vec::new();
            flat.classify_batch(&headers, &mut out);
            assert_eq!(out, truth, "{} vs linear on {style:?}", flat.name());
        }
    }
}

#[test]
fn flat_tree_survives_degenerate_rulesets() {
    // A single rule and a ruleset that collapses to one leaf.
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 5).generate(1);
    for (tree, flat) in tree_pairs(&rs, 16, 4.0, true, true) {
        let pkt = PacketHeader::five_tuple(0x0A000001, 0xC0A80101, 1234, 80, 6);
        assert_eq!(flat.classify(&pkt), tree.classify(&pkt));
        assert!(flat.flat_tree().node_count() >= 1);
        assert!(flat.arena_stats().total_bytes > 0);
    }
}
