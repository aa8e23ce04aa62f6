//! Equivalence of the flat-arena decision trees with linear search.
//!
//! * On narrow header spaces — five fields of 2 bits (1,024 headers) and of
//!   3 bits (32,768 headers) — *every* header is classified: by both flat
//!   builders at every [`LaneWidth`], behind a [`CachedClassifier`] of
//!   capacity 0, 1 and 64, and by RFC, on seeded rulesets above and below
//!   `binth` and on degenerate ones (empty, all-wildcard, duplicated and
//!   shadowed rules, one-point rules at 0 and at the maximum).  One update
//!   script — inserts, deletes, an id gap, across a re-flatten — is checked
//!   on every header after every step.  This is exhaustive over the header
//!   space, which a sampled trace is not: a cut bound off by one, or an
//!   RFC chunk boundary left out, fails here on its own.
//! * The repository benchmark's `acl64k_uniform` cell — 64,000 acl rules,
//!   131,072 uniform packets — is served by `hicuts-flat` and every
//!   decision held to linear search.
//! * On ClassBench rulesets, random builder configurations (`binth`,
//!   `spfac`, the HyperCuts heuristics) and batch sizes (including 0, 1
//!   and odd sizes that leave a partial tail), every decision — per
//!   packet, on the stats path and batched — is linear search's.

use packet_classifier::prelude::*;
use pclass_algos::counters::LookupStats;
use pclass_algos::dtree::{CutTreeClassifier, RosterPolicy};
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_algos::update::{classify_live_linear, UpdatableClassifier};
use pclass_algos::{CachedClassifier, HotCacheConfig};
use pclass_types::{Dimension, DimensionSpec, FieldRange, Rule, RuleId, FIELD_COUNT};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every header of a five-field space `width` bits per field.
fn every_header(width: u8) -> Vec<PacketHeader> {
    let bits = u32::from(width);
    let mask = (1u32 << bits) - 1;
    (0..1u32 << (bits * FIELD_COUNT as u32))
        .map(|i| {
            PacketHeader::from_fields(std::array::from_fn(|d| {
                (i >> (bits * (FIELD_COUNT - 1 - d) as u32)) & mask
            }))
        })
        .collect()
}

/// `n` seeded rules over `spec`: each field a wildcard three times in ten,
/// otherwise a random range.
fn random_ruleset(spec: DimensionSpec, n: usize, seed: u64) -> RuleSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let rules = (0..n)
        .map(|id| {
            let ranges = Dimension::ALL.map(|d| {
                let max = spec.max_value(d);
                if rng.gen_bool(0.3) {
                    return FieldRange::new(0, max);
                }
                let (a, b) = (rng.gen_range(0..=max), rng.gen_range(0..=max));
                FieldRange::new(a.min(b), a.max(b))
            });
            Rule::new(id as RuleId, ranges)
        })
        .collect();
    RuleSet::new(format!("random_{n}_{seed}"), spec, rules).unwrap()
}

/// The degenerate rulesets over `spec`: empty; all wildcards; duplicated
/// and fully shadowed rules; one-point rules at 0 and at the maximum.
fn degenerate_rulesets(spec: DimensionSpec) -> Vec<RuleSet> {
    let max = Dimension::ALL.map(|d| spec.max_value(d));
    let ruleset = |name: &str, ranges: Vec<[FieldRange; FIELD_COUNT]>| {
        let rules = ranges
            .into_iter()
            .enumerate()
            .map(|(id, ranges)| Rule::new(id as RuleId, ranges))
            .collect();
        RuleSet::new(name, spec, rules).unwrap()
    };
    let wildcard = max.map(|m| FieldRange::new(0, m));
    // Each random rule twice, then a wildcard that shadows everything
    // after it, then more random rules nothing can reach.
    let seeded = random_ruleset(spec, 24, 0xD0D0);
    let mut shadowed = Vec::new();
    for rule in &seeded.rules()[..12] {
        shadowed.extend([rule.ranges, rule.ranges]);
    }
    shadowed.push(wildcard);
    shadowed.extend(seeded.rules()[12..].iter().map(|rule| rule.ranges));
    // Rules that match one header: all fields 0, all fields at the
    // maximum, and every mix of the two; then the same behind one rule
    // that covers both corners.
    let point = |i: usize| {
        std::array::from_fn(|d| FieldRange::exact(if i >> d & 1 == 0 { 0 } else { max[d] }))
    };
    let mut points: Vec<_> = (0..1usize << FIELD_COUNT).map(point).collect();
    points.push(wildcard);
    points.extend((0..1usize << FIELD_COUNT).rev().map(point));
    vec![
        ruleset("empty", Vec::new()),
        ruleset("all_wildcard", vec![wildcard; 24]),
        ruleset("duplicated_and_shadowed", shadowed),
        ruleset("one_point_corners", points),
    ]
}

/// `count` seeded rulesets over a `width`-bit space, `first` the seed of
/// the first: of 40–150 rules when `large` (above the paper's `binth` of
/// 16, so the trees cut), of 1–14 otherwise (RFC's chunk boundaries are
/// tested hardest where few rules share a chunk).
fn seeded_rulesets(width: u8, large: bool, first: u64, count: u64) -> Vec<RuleSet> {
    let spec = DimensionSpec::new([width; FIELD_COUNT]);
    (first..first + count)
        .map(|seed| {
            let n = if large {
                40 + (seed as usize * 37) % 111
            } else {
                1 + seed as usize % 14
            };
            random_ruleset(spec, n, seed)
        })
        .collect()
}

/// Both flat builders for `rs`: the paper's parameters, or `binth = 3`
/// (the Table 1 configurations, HyperCuts' heuristics on) where the paper's
/// `binth` would leave a lone leaf.
fn flat_builders(rs: &RuleSet) -> (HiCutsClassifier, HyperCutsClassifier) {
    let (mut hicuts, mut hypercuts) = (
        HiCutsConfig::paper_defaults(),
        HyperCutsConfig::paper_defaults(),
    );
    if rs.len() <= hicuts.binth {
        hicuts = HiCutsConfig::figure1();
        hypercuts.binth = 3;
    }
    (
        HiCutsClassifier::build(rs, &hicuts),
        HyperCutsClassifier::build(rs, &hypercuts),
    )
}

/// `classifier` over every header, batched in chunks of 97, `passes`
/// times (a cache serves warm after the first), against `truth`.
fn assert_batches(
    classifier: &dyn Classifier,
    headers: &[PacketHeader],
    truth: &[MatchResult],
    passes: usize,
) {
    for pass in 0..passes {
        let mut out = Vec::new();
        for chunk in headers.chunks(97) {
            classifier.classify_batch(chunk, &mut out);
        }
        assert!(out == truth, "{} batched, pass {pass}", classifier.name());
    }
}

/// `classifier` over every header one packet at a time, against `truth`.
fn assert_per_packet(classifier: &dyn Classifier, headers: &[PacketHeader], truth: &[MatchResult]) {
    for (pkt, want) in headers.iter().zip(truth) {
        assert_eq!(
            classifier.classify(pkt),
            *want,
            "{} on {pkt:?}",
            classifier.name()
        );
    }
}

/// `flat` on `headers` against `truth`: per packet, at every lane width,
/// and behind a pass-through, a one-entry cache that every header evicts
/// and one that serves hits on its second pass.  Returns whether the tree
/// has an internal node.
fn check_arena<C: RosterPolicy + Send + Sync>(
    flat: &CutTreeClassifier<C>,
    headers: &[PacketHeader],
    truth: &[MatchResult],
    context: &str,
) -> bool {
    assert_per_packet(flat, headers, truth);
    for lanes in LaneWidth::ALL {
        let mut out = Vec::new();
        flat.flat_tree()
            .classify_batch_lanes(headers, &mut out, lanes);
        assert!(out == truth, "{context}: {} {lanes:?}", flat.name());
    }
    for (capacity, passes) in [(0, 1), (1, 1), (64, 2)] {
        let cached = CachedClassifier::new(flat.clone(), HotCacheConfig::new(capacity, 4));
        assert_batches(&cached, headers, truth, passes);
    }
    flat.flat_tree().node(0).is_some()
}

/// Every header of a `width`-bit space, on every ruleset of `sets`, by
/// every classifier that takes a narrow spec; at least half of the
/// rulesets must build internal nodes under each flat builder.
fn check_every_header(width: u8, sets: &[RuleSet]) {
    let headers = every_header(width);
    let mut cut = [0usize; 2];
    for rs in sets {
        let context = format!("{} at {width} bits", rs.name());
        let truth: Vec<MatchResult> = headers.iter().map(|h| rs.classify_linear(h)).collect();
        let (hicuts, hypercuts) = flat_builders(rs);
        cut[0] += usize::from(check_arena(&hicuts, &headers, &truth, &context));
        cut[1] += usize::from(check_arena(&hypercuts, &headers, &truth, &context));
        match RfcClassifier::build(rs) {
            Ok(rfc) => {
                assert_per_packet(&rfc, &headers, &truth);
                assert_batches(&rfc, &headers, &truth, 1);
            }
            Err(e) => panic!("{context}: RFC does not build: {e}"),
        }
    }
    for (b, name) in ["hicuts-flat", "hypercuts-flat"].iter().enumerate() {
        assert!(
            2 * cut[b] >= sets.len(),
            "{name}: {} of {} rulesets built internal nodes at {width} bits",
            cut[b],
            sets.len()
        );
    }
}

#[test]
fn every_2_bit_header_is_classified_exactly() {
    let mut sets = seeded_rulesets(2, true, 0x2B16, 24);
    sets.extend(seeded_rulesets(2, false, 0x2511, 12));
    sets.extend(degenerate_rulesets(DimensionSpec::new([2; FIELD_COUNT])));
    check_every_header(2, &sets);
}

#[test]
fn every_3_bit_header_is_classified_exactly_on_large_rulesets() {
    check_every_header(3, &seeded_rulesets(3, true, 0x3B16, 3));
}

#[test]
fn every_3_bit_header_is_classified_exactly_on_small_and_degenerate_rulesets() {
    let mut sets = seeded_rulesets(3, false, 0x3511, 2);
    sets.extend(degenerate_rulesets(DimensionSpec::new([3; FIELD_COUNT])));
    check_every_header(3, &sets);
}

#[test]
fn an_update_script_across_a_reflatten_is_exact_on_every_header() {
    let headers = every_header(2);
    let spec = DimensionSpec::new([2; FIELD_COUNT]);
    let full = random_ruleset(spec, 80, 0x0DA7E);
    let half = full.truncated(40, "first_half");
    let (hicuts, hypercuts) = flat_builders(&half);
    assert_script_exact(hicuts, &headers, &full);
    assert_script_exact(hypercuts, &headers, &full);
}

/// `flat`, built over the first half of `full` and behind a hot cache,
/// classifies every header as linear search over its live rules after
/// each step of one script: the second half appended, one rule past an id
/// gap, every even id deleted — across at least one re-flatten.
fn assert_script_exact<C: RosterPolicy + Send + Sync>(
    flat: CutTreeClassifier<C>,
    headers: &[PacketHeader],
    full: &RuleSet,
) {
    let name = flat.name();
    let mut cached = CachedClassifier::new(flat, HotCacheConfig::new(64, 4));
    let check = |cached: &CachedClassifier<CutTreeClassifier<C>>, step: &str| {
        let live = cached.live_rules();
        let truth: Vec<MatchResult> = headers
            .iter()
            .map(|h| classify_live_linear(&live, h))
            .collect();
        let mut out = Vec::new();
        for chunk in headers.chunks(97) {
            cached.classify_batch(chunk, &mut out);
        }
        assert!(out == truth, "{name} after {step}");
    };
    // The second half appended, then one rule past an id gap.
    for rule in &full.rules()[40..] {
        cached.insert(*rule).unwrap();
        check(&cached, &format!("insert {}", rule.id));
    }
    let past_gap = Rule::new(100, full.rules()[7].ranges);
    cached.insert(past_gap).unwrap();
    check(&cached, "insert 100");
    for id in (0..80).step_by(2) {
        cached.delete(id).unwrap();
        check(&cached, &format!("delete {id}"));
    }
    let stats = cached.update_stats();
    assert!(stats.reflattens >= 1, "{name}: no re-flatten: {stats:?}");
}

/// The benchmark's `acl64k_uniform` inputs (ruleset and trace seed
/// 20080414, one packet per burst), served whole by `hicuts-flat` and
/// checked packet for packet against linear search on two threads.  Past
/// its first 16,384 packets the benchmark takes the arena's own walk as
/// truth; this is the independent check of the rest.
#[test]
fn acl64k_serves_a_whole_uniform_trace_as_linear_search_does() {
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 20080414).generate(64_000);
    let trace = TraceGenerator::new(&rs, 20080414)
        .max_burst(1)
        .generate(131_072);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let flat = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let mut served = Vec::new();
    flat.classify_batch(&headers, &mut served);
    let (rs, headers, served) = (&rs, &headers, &served);
    let half = headers.len() / 2;
    let wrong: Vec<usize> = std::thread::scope(|scope| {
        let check = |range: std::ops::Range<usize>| {
            scope.spawn(move || {
                range
                    .filter(|&i| rs.classify_linear(&headers[i]) != served[i])
                    .collect::<Vec<usize>>()
            })
        };
        let halves = [check(0..half), check(half..headers.len())];
        halves.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(
        wrong.is_empty(),
        "{} wrong decisions, first at packet {:?}",
        wrong.len(),
        wrong.first()
    );
}

/// Both software builders' flat arenas for one ruleset and configuration.
fn flat_pairs(
    rs: &RuleSet,
    binth: usize,
    spfac: f64,
    compaction: bool,
    push_common: bool,
) -> (HiCutsClassifier, HyperCutsClassifier) {
    let hypercuts = HyperCutsConfig {
        binth,
        spfac,
        region_compaction: compaction,
        push_common_rules: push_common,
    };
    (
        HiCutsClassifier::build(rs, &HiCutsConfig { binth, spfac }),
        HyperCutsClassifier::build(rs, &hypercuts),
    )
}

/// `flat` decides every header as `expected` says: per packet, on the
/// stats path that prices the `sim_*` metrics, and batched at 0 / 1 / odd
/// / full batch sizes.
fn assert_packet_for_packet(
    flat: &dyn Classifier,
    headers: &[PacketHeader],
    expected: &[MatchResult],
) {
    for (h, want) in headers.iter().zip(expected) {
        prop_assert_eq!(flat.classify(h), *want, "{} per-packet", flat.name());
        let mut stats = LookupStats::new();
        prop_assert_eq!(flat.classify_with_stats(h, &mut stats), *want);
        prop_assert!(stats.memory_accesses >= 1);
    }
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
        let expected: Vec<MatchResult> = headers.iter().map(|h| rs.classify_linear(h)).collect();
        let spfac = f64::from(spfac_tenths) / 10.0;
        let (hicuts, hypercuts) = flat_pairs(&rs, binth, spfac, compaction, push_common);
        assert_packet_for_packet(&hicuts, &headers, &expected);
        assert_packet_for_packet(&hypercuts, &headers, &expected);
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
        let (hicuts, hypercuts) = flat_pairs(&rs, 16, 4.0, true, true);
        for flat in [&hicuts as &dyn Classifier, &hypercuts] {
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
    let (hicuts, hypercuts) = flat_pairs(&rs, 16, 4.0, true, true);
    for (flat, arena) in [
        (&hicuts as &dyn Classifier, hicuts.flat_tree()),
        (&hypercuts, hypercuts.flat_tree()),
    ] {
        let pkt = PacketHeader::five_tuple(0x0A000001, 0xC0A80101, 1234, 80, 6);
        assert_eq!(flat.classify(&pkt), rs.classify_linear(&pkt));
        assert!(arena.node_count() >= 1);
        assert!(arena.arena_stats().total_bytes > 0);
    }
}
