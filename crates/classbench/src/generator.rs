//! The ruleset generator.

use crate::ports;
use crate::prefix_pool::PrefixPool;
use crate::style::SeedStyle;
use pclass_types::{Dimension, DimensionSpec, FieldRange, Rule, RuleSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Deterministic ClassBench-style ruleset generator.
///
/// ```
/// use pclass_classbench::{ClassBenchGenerator, SeedStyle};
///
/// let rs = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(500);
/// assert_eq!(rs.len(), 500);
/// // Same seed, same ruleset.
/// let again = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(500);
/// assert_eq!(rs, again);
/// ```
#[derive(Debug, Clone)]
pub struct ClassBenchGenerator {
    style: SeedStyle,
    seed: u64,
}

impl ClassBenchGenerator {
    /// Creates a generator for a built-in seed style.
    pub fn new(style: SeedStyle, seed: u64) -> ClassBenchGenerator {
        ClassBenchGenerator { style, seed }
    }

    /// The style this generator mimics.
    pub fn style(&self) -> SeedStyle {
        self.style
    }

    /// Generates a ruleset with exactly `count` rules, named
    /// `<style>_<count>` to match the paper's naming (`acl1_5000` etc.).
    pub fn generate(&self, count: usize) -> RuleSet {
        let name = format!("{}_{}", self.style.name(), count);
        self.generate_named(count, name)
    }

    /// Generates a ruleset with an explicit name.
    pub fn generate_named(&self, count: usize, name: impl Into<String>) -> RuleSet {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let p = self.style.parameters();

        let pool_size = ((count as f64 * p.prefix_pool_fraction).ceil() as usize).max(4);
        let src_pool = PrefixPool::generate(&mut rng, pool_size, p.src_prefix_len_range);
        let dst_pool = PrefixPool::generate(&mut rng, pool_size, p.dst_prefix_len_range);

        let mut rules = Vec::with_capacity(count);
        let mut seen: HashSet<[FieldRange; 5]> = HashSet::with_capacity(count * 2);
        // Rejection loop: keep sampling until we have `count` distinct rules.
        // The bound prevents an infinite loop for tiny parameter corners.
        let mut attempts = 0usize;
        let max_attempts = count * 50 + 1_000;
        while rules.len() < count && attempts < max_attempts {
            attempts += 1;
            let ranges = self.sample_rule_ranges(&mut rng, &src_pool, &dst_pool);
            if seen.insert(ranges) {
                rules.push(Rule::new(rules.len() as u32, ranges));
            }
        }
        // If uniqueness ran out (extremely unlikely), pad with duplicates of
        // slightly perturbed rules so the requested size is always honoured.
        while rules.len() < count {
            let mut ranges = self.sample_rule_ranges(&mut rng, &src_pool, &dst_pool);
            let lo = rng.gen_range(0u32..60_000);
            ranges[Dimension::SrcPort.index()] = FieldRange::new(lo, lo);
            rules.push(Rule::new(rules.len() as u32, ranges));
        }

        RuleSet::new(name, DimensionSpec::FIVE_TUPLE, rules).expect("generated rules are valid")
    }

    /// Samples the five ranges of one rule.
    fn sample_rule_ranges(
        &self,
        rng: &mut StdRng,
        src_pool: &PrefixPool,
        dst_pool: &PrefixPool,
    ) -> [FieldRange; 5] {
        let p = self.style.parameters();

        let src_ip = if rng.gen_bool(p.src_wildcard_prob) {
            FieldRange::full(32)
        } else if rng.gen_bool(p.arbitrary_range_prob) {
            one_off_prefix(rng).to_range()
        } else {
            src_pool.pick(rng).to_range()
        };

        let dst_ip = if rng.gen_bool(p.dst_wildcard_prob) {
            FieldRange::full(32)
        } else if rng.gen_bool(p.arbitrary_range_prob) {
            one_off_prefix(rng).to_range()
        } else {
            dst_pool.pick(rng).to_range()
        };

        let src_port = if rng.gen_bool(p.src_port_any_prob) {
            FieldRange::full(16)
        } else {
            // Split the remainder between the ephemeral range, exact
            // well-known ports and arbitrary ranges; the arbitrary ranges
            // keep rules distinct even when both addresses are wildcards
            // (common in FW-style sets).
            match rng.gen_range(0u8..10) {
                0..=3 => ports::EPHEMERAL,
                4..=6 => FieldRange::exact(u32::from(ports::sample_well_known_port(rng))),
                _ => ports::sample_arbitrary_port_range(rng),
            }
        };

        let dst_port = {
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < p.dst_port_exact_prob {
                FieldRange::exact(u32::from(ports::sample_well_known_port(rng)))
            } else if roll < p.dst_port_exact_prob + p.dst_port_any_prob {
                FieldRange::full(16)
            } else if rng.gen_bool(0.6) {
                ports::EPHEMERAL
            } else {
                ports::sample_arbitrary_port_range(rng)
            }
        };

        let proto = if rng.gen_bool(p.proto_any_prob) {
            FieldRange::full(8)
        } else {
            FieldRange::exact(u32::from(ports::sample_protocol(rng)))
        };

        let mut ranges = [src_ip, dst_ip, src_port, dst_port, proto];
        // Real filter sets almost never contain rules that are wildcarded in
        // *both* addresses *and* the destination port: a firewall rule with
        // "any → any" addresses always names the service it permits or
        // blocks.  Enforcing that here keeps the synthetic sets inside the
        // structural envelope the decision-tree algorithms (and the paper's
        // fw1 results) assume — a handful of near-universal rules is fine,
        // thousands of them are not.
        let src_wild = ranges[0] == FieldRange::full(32);
        let dst_wild = ranges[1] == FieldRange::full(32);
        if src_wild && dst_wild && ranges[3] == FieldRange::full(16) {
            ranges[3] = FieldRange::exact(u32::from(ports::sample_well_known_port(rng)));
        }
        if src_wild && dst_wild && ranges[4] == FieldRange::full(8) {
            ranges[4] = FieldRange::exact(u32::from(ports::sample_protocol(rng)));
        }
        ranges
    }
}

/// A one-off prefix drawn outside the shared pools — the occasional "odd"
/// subnet real filter sets contain.  ClassBench seeds express every address
/// match as a prefix, so the generator does too; arbitrary (non-prefix)
/// ranges only appear in the port dimensions, which is also where the TCAM
/// range-expansion penalty comes from.
fn one_off_prefix<R: Rng + ?Sized>(rng: &mut R) -> pclass_types::Prefix {
    let len = rng.gen_range(12u8..=28);
    pclass_types::Prefix::ipv4(rng.gen(), len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_types::Dimension;

    #[test]
    fn generates_requested_count_and_is_deterministic() {
        for style in SeedStyle::ALL {
            let a = ClassBenchGenerator::new(style, 7).generate(300);
            let b = ClassBenchGenerator::new(style, 7).generate(300);
            assert_eq!(a.len(), 300);
            assert_eq!(a, b, "style {style} not deterministic");
            let c = ClassBenchGenerator::new(style, 8).generate(300);
            assert_ne!(a, c, "different seeds should differ");
        }
    }

    #[test]
    fn ruleset_names_follow_paper_convention() {
        let rs = ClassBenchGenerator::new(SeedStyle::Fw, 1).generate(1_200);
        assert_eq!(rs.name(), "fw1_1200");
    }

    #[test]
    fn rules_are_distinct() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 3).generate(1_000);
        let mut set = std::collections::HashSet::new();
        for r in rs.rules() {
            set.insert(r.ranges);
        }
        assert_eq!(set.len(), rs.len());
    }

    #[test]
    fn fw_style_has_more_double_wildcards_than_acl() {
        let acl = ClassBenchGenerator::new(SeedStyle::Acl, 5)
            .generate(2_000)
            .stats();
        let fw = ClassBenchGenerator::new(SeedStyle::Fw, 5)
            .generate(2_000)
            .stats();
        assert!(
            fw.double_wildcard_fraction > 3.0 * acl.double_wildcard_fraction
                && fw.double_wildcard_fraction > 0.01,
            "fw {} vs acl {}",
            fw.double_wildcard_fraction,
            acl.double_wildcard_fraction
        );
        // FW sets wildcard the destination address far more often than ACL
        // sets, which is what drives their larger decision trees.
        assert!(fw.wildcards[1] > 4 * acl.wildcards[1]);
    }

    #[test]
    fn acl_destinations_are_specific() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 5).generate(2_000);
        let stats = rs.stats();
        // Dst IP wildcards should be rare in ACL style (< 10 %).
        assert!(stats.wildcards[Dimension::DstIp.index()] < rs.len() / 10);
        // Destination ports mostly exact: mean relative width well under 0.5.
        assert!(stats.mean_relative_width[Dimension::DstPort.index()] < 0.5);
    }

    #[test]
    fn generated_rules_fit_the_five_tuple_geometry() {
        let rs = ClassBenchGenerator::new(SeedStyle::Ipc, 17).generate(500);
        let spec = *rs.spec();
        for r in rs.rules() {
            for d in Dimension::ALL {
                assert!(r.range(d).hi <= spec.max_value(d));
            }
        }
    }
}
