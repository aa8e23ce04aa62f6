//! The accelerator's memory image against the decision tree it was encoded
//! from, and both against linear search.
//!
//! The modified HiCuts/HyperCuts builders emit a flat arena (the kind the
//! software classifiers walk) and the encoder serialises it, so there are
//! two independent readings of one structure: the arena's own walk and the
//! simulator's walk of the decoded words.  Comparing all three tells a
//! cut-policy fault (tree ≠ linear search) from an encoder or mirror fault
//! (image ≠ tree) instead of showing both as one red accelerator test.

use pclass_bench::styled_ruleset;
use pclass_classbench::{SeedStyle, TraceGenerator};
use pclass_core::builder::{build_tree, BuildConfig, CutAlgorithm, SpeedMode};
use pclass_core::hw::Accelerator;
use pclass_core::program::HardwareProgram;
use pclass_types::{PacketHeader, RuleSet, FIELD_COUNT};

/// Per style, a size whose trees are several levels deep (so nodes cut
/// dimensions their ancestors already cut) and still fit the 12-bit address
/// space under both algorithms and both leaf packings.
const WORKLOADS: [(SeedStyle, usize); 3] = [
    (SeedStyle::Acl, 2_000),
    (SeedStyle::Fw, 600),
    (SeedStyle::Ipc, 1_000),
];
const PACKETS: usize = 2_000;

/// Headers on and just outside the corners of every rule — where a cut
/// boundary, a mask/shift digit or a comparator bound is off by one if it
/// is off at all — plus the two corners of the header space.
fn boundary_headers(rs: &RuleSet) -> Vec<PacketHeader> {
    let mut headers = vec![
        PacketHeader::from_fields([0; FIELD_COUNT]),
        PacketHeader::from_fields(rs.full_region().map(|r| r.hi)),
    ];
    for rule in rs.rules() {
        let lo = rule.ranges.map(|r| r.lo);
        let hi = rule.ranges.map(|r| r.hi);
        headers.push(PacketHeader::from_fields(lo));
        headers.push(PacketHeader::from_fields(hi));
        for d in 0..FIELD_COUNT {
            let max = rs.full_region()[d].hi;
            let mut below = lo;
            below[d] = lo[d].saturating_sub(1);
            let mut above = hi;
            above[d] = hi[d].saturating_add(1).min(max);
            headers.push(PacketHeader::from_fields(below));
            headers.push(PacketHeader::from_fields(above));
        }
    }
    headers
}

#[test]
fn image_tree_and_linear_search_agree() {
    for (style, rules) in WORKLOADS {
        let rs = styled_ruleset(style, rules);
        let mut headers = boundary_headers(&rs);
        let trace = TraceGenerator::new(&rs, 0x1A6E)
            .random_fraction(0.25)
            .generate(PACKETS);
        headers.extend(trace.headers());
        let want: Vec<_> = headers.iter().map(|pkt| rs.classify_linear(pkt)).collect();
        for algorithm in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let mut config = BuildConfig::paper_defaults(algorithm);
            let (tree, _) = build_tree(&rs, &config).expect("builds");
            for (pkt, want) in headers.iter().zip(&want) {
                let got = tree.classify(pkt, None);
                assert_eq!(got, *want, "tree, {style:?} {algorithm:?}: {pkt:?}");
            }
            for speed in [SpeedMode::MemoryEfficient, SpeedMode::Throughput] {
                config.speed = speed;
                let program =
                    HardwareProgram::build_with_capacity(&rs, &config, 4096).expect("fits");
                let engine = Accelerator::new(&program);
                for (pkt, want) in headers.iter().zip(&want) {
                    let got = engine.classify_packet(pkt).0;
                    assert_eq!(
                        got, *want,
                        "image, {style:?} {algorithm:?} speed {speed:?}: {pkt:?}"
                    );
                }
            }
        }
    }
}
