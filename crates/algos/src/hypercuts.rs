//! The original HyperCuts algorithm (Singh, Baboescu, Varghese & Wang,
//! SIGCOMM 2003).
//!
//! HyperCuts generalises HiCuts by cutting *several* dimensions of a node at
//! once.  Candidate dimensions are those whose number of distinct range
//! specifications is at least the mean over all five dimensions; the number
//! of children is bounded by the space measure of Eq. 2 of the paper:
//!
//! ```text
//! children(node)  <=  spfac * sqrt(rules(node))
//! ```
//!
//! Among the allowed cut combinations the builder picks the one that leaves
//! the smallest maximum number of rules in any child (the interpretation the
//! paper adopts, since the original publication leaves the choice open).
//!
//! Two storage heuristics of the original algorithm are implemented and on by
//! default — they are exactly the ones the paper removes in its
//! hardware-oriented variant:
//!
//! * **region compaction** — a node's cuts are applied to the bounding box of
//!   its rules instead of its full covered region;
//! * **pushing common rule subsets upwards** — rules present in every child
//!   are stored once at the parent and searched while traversing.

use crate::dtree::{
    max_child_occupancy, CutPolicy, CutSpec, CutTreeClassifier, RosterPolicy, TreeBuilder,
};
use pclass_types::{distinct_range_counts, Dimension, FieldRange, RuleId, FIELD_COUNT};

/// Configuration of the original HyperCuts builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperCutsConfig {
    /// Maximum number of rules a leaf may hold.
    pub binth: usize,
    /// Space factor of Eq. 2 (the paper's evaluation uses `spfac = 4`).
    pub spfac: f64,
    /// Apply the region-compaction heuristic.
    pub region_compaction: bool,
    /// Apply the push-common-rule-subsets-upwards heuristic.
    pub push_common_rules: bool,
}

impl HyperCutsConfig {
    /// The parameters used throughout the paper's evaluation tables, with
    /// both original heuristics enabled (this is the "Software HyperCuts"
    /// column of Tables 2, 3, 6 and 7).
    pub fn paper_defaults() -> HyperCutsConfig {
        HyperCutsConfig {
            binth: 16,
            spfac: 4.0,
            region_compaction: true,
            push_common_rules: true,
        }
    }

    /// The parameters of the worked example of Figure 3
    /// (Table 1 ruleset, `binth = 3`).
    pub fn figure3() -> HyperCutsConfig {
        HyperCutsConfig {
            binth: 3,
            spfac: 2.0,
            region_compaction: false,
            push_common_rules: false,
        }
    }
}

impl Default for HyperCutsConfig {
    fn default() -> Self {
        HyperCutsConfig::paper_defaults()
    }
}

/// A packet classifier backed by an original-HyperCuts decision tree.
pub type HyperCutsClassifier = CutTreeClassifier<HyperCutsConfig>;

impl RosterPolicy for HyperCutsConfig {
    const NAME: &'static str = "hypercuts-flat";

    fn spfac(&self) -> f64 {
        self.spfac
    }
}

impl CutPolicy for HyperCutsConfig {
    const HEADER_STORES: u64 = 6;
    const LEAF_RULE_STORES: u64 = 1;

    fn binth(&self) -> usize {
        self.binth
    }

    fn plan(
        &self,
        kit: &mut TreeBuilder<'_>,
        region: &[FieldRange; FIELD_COUNT],
        rules: &[RuleId],
    ) -> Option<(CutSpec, [FieldRange; FIELD_COUNT])> {
        // Region compaction: cut the bounding box of the rules, not the full
        // covered region.
        let cut_region = if self.region_compaction {
            compact_region(kit, region, rules)
        } else {
            *region
        };

        // Candidate dimensions: distinct range count >= mean (Eq. in §2.2).
        let candidates = candidate_dimensions(kit, rules, &cut_region);
        if candidates.is_empty() {
            return None;
        }

        // Greedy combination search under the Eq. 2 child budget.
        let budget = (self.spfac * (rules.len() as f64).sqrt()).floor().max(2.0) as u64;
        let cuts = choose_cuts(kit, rules, &cut_region, &candidates, budget);
        if cuts.child_count() <= 1 {
            return None;
        }
        if occupancy(kit, rules, &cut_region, &cuts) >= rules.len() {
            return None;
        }
        Some((cuts, cut_region))
    }

    /// Pushes the rules common to *all* children of the node (the heuristic
    /// of the original paper applies to every child, empty ones included)
    /// up into the node's stored list: the rules whose child-index box is
    /// the whole child grid.
    fn hoist(&self) -> bool {
        self.push_common_rules
    }
}

/// Bounding box of the rules, clipped to the node's region.
fn compact_region(
    kit: &mut TreeBuilder<'_>,
    region: &[FieldRange; FIELD_COUNT],
    rules: &[RuleId],
) -> [FieldRange; FIELD_COUNT] {
    let mut out = *region;
    for d in Dimension::ALL {
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for &id in rules {
            let r = kit.rules[id as usize].range(d);
            lo = lo.min(r.lo.max(region[d.index()].lo));
            hi = hi.max(r.hi.min(region[d.index()].hi));
        }
        if lo <= hi {
            out[d.index()] = FieldRange::new(lo, hi);
        }
    }
    kit.stats.ops.loads += rules.len() as u64 * FIELD_COUNT as u64;
    kit.stats.ops.alu += rules.len() as u64 * FIELD_COUNT as u64 * 2;
    out
}

/// Dimensions whose number of distinct range specifications among the
/// node's rules is at least the mean over all dimensions, restricted to
/// dimensions that can still be cut.
fn candidate_dimensions(
    kit: &mut TreeBuilder<'_>,
    rules: &[RuleId],
    region: &[FieldRange; FIELD_COUNT],
) -> Vec<Dimension> {
    let counts = distinct_range_counts(kit.rules, rules);
    kit.stats.ops.loads += rules.len() as u64 * FIELD_COUNT as u64;
    kit.stats.ops.alu += rules.len() as u64 * FIELD_COUNT as u64;
    let mean = counts.iter().sum::<usize>() as f64 / FIELD_COUNT as f64;
    Dimension::ALL
        .iter()
        .copied()
        .filter(|d| counts[d.index()] as f64 >= mean && region[d.index()].len() >= 2)
        .collect()
}

/// Greedy combination search: repeatedly double the cut count of the
/// candidate dimension that most reduces the worst child occupancy, while
/// the total child count stays within `budget`.
fn choose_cuts(
    kit: &mut TreeBuilder<'_>,
    rules: &[RuleId],
    region: &[FieldRange; FIELD_COUNT],
    candidates: &[Dimension],
    budget: u64,
) -> CutSpec {
    let mut cuts = CutSpec::unit();
    let mut current_max = rules.len();
    loop {
        let mut best: Option<(Dimension, usize)> = None;
        for &d in candidates {
            let parts = cuts.parts[d.index()];
            let doubled = u64::from(parts) * 2;
            if doubled > region[d.index()].len() {
                continue;
            }
            if cuts.child_count() / u64::from(parts) * doubled > budget {
                continue;
            }
            let mut trial = cuts.clone();
            trial.parts[d.index()] = parts * 2;
            let max_child = occupancy(kit, rules, region, &trial);
            if best.is_none_or(|(_, m)| max_child < m) {
                best = Some((d, max_child));
            }
        }
        match best {
            Some((d, max_child)) if max_child < current_max || cuts.child_count() == 1 => {
                cuts.parts[d.index()] *= 2;
                current_max = max_child;
            }
            _ => break,
        }
    }
    cuts
}

/// [`max_child_occupancy`] of `cuts` over `region`, charged as one pass over
/// the rules (2^dims grid corners each) plus one over the grid.
fn occupancy(
    kit: &mut TreeBuilder<'_>,
    rules: &[RuleId],
    region: &[FieldRange; FIELD_COUNT],
    cuts: &CutSpec,
) -> usize {
    let n = rules.len() as u64;
    let dims = cuts.parts.iter().filter(|&&p| p > 1).count() as u64;
    let cells = cuts.child_count();
    kit.stats.cut_evaluations += n;
    kit.stats.ops.loads += n * 4 + cells;
    kit.stats.ops.alu += n * (8 + (1u64 << dims)) + cells * 2;
    kit.stats.ops.branches += n * 2;
    // Two divisions per rule per cut dimension (first and last child index),
    // as in the original HiCuts' `distribution`.
    kit.stats.ops.divs += n * dims * 2;
    max_child_occupancy(kit, rules, region, &cuts.parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::LookupStats;
    use crate::Classifier;
    use pclass_types::{toy, MatchResult, PacketHeader};

    fn toy_classifier(config: HyperCutsConfig) -> HyperCutsClassifier {
        HyperCutsClassifier::build(&toy::table1_ruleset(), &config)
    }

    fn assert_agrees_with_linear(hc: &HyperCutsClassifier) {
        let rs = toy::table1_ruleset();
        for f0 in (0..=255u32).step_by(5) {
            for f4 in (0..=255u32).step_by(7) {
                for (f1, f2, f3) in [(15, 40, 180), (80, 0, 255), (100, 200, 195), (60, 60, 0)] {
                    let pkt = PacketHeader::from_fields([f0, f1, f2, f3, f4]);
                    assert_eq!(hc.classify(&pkt), rs.classify_linear(&pkt), "pkt {pkt:?}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_linear_search_figure3_config() {
        assert_agrees_with_linear(&toy_classifier(HyperCutsConfig::figure3()));
    }

    #[test]
    fn agrees_with_linear_search_with_all_heuristics() {
        let mut config = HyperCutsConfig::paper_defaults();
        config.binth = 3;
        assert_agrees_with_linear(&toy_classifier(config));
    }

    #[test]
    fn agrees_with_linear_search_compaction_only() {
        let config = HyperCutsConfig {
            binth: 3,
            spfac: 2.0,
            region_compaction: true,
            push_common_rules: false,
        };
        assert_agrees_with_linear(&toy_classifier(config));
    }

    #[test]
    fn agrees_with_linear_search_push_common_only() {
        let config = HyperCutsConfig {
            binth: 2,
            spfac: 3.0,
            region_compaction: false,
            push_common_rules: true,
        };
        assert_agrees_with_linear(&toy_classifier(config));
    }

    #[test]
    fn figure3_tree_is_shallow_and_multi_dimensional() {
        // Figure 3: the root is split in 4 by cutting Field 0 and Field 4
        // simultaneously and no child exceeds binth = 3.
        let hc = toy_classifier(HyperCutsConfig::figure3());
        let stats = hc.stats();
        assert!(stats.max_depth <= 2, "deeper than the figure: {stats:?}");
        assert!(stats.max_leaf_rules <= 3);
        // The root must cut more than one dimension at once (that is the
        // defining feature of HyperCuts on this example).
        let dump = hc.dump();
        let first_line = dump.lines().next().unwrap();
        assert!(
            first_line.matches(" x").count() >= 2,
            "root does not cut multiple dimensions: {first_line}"
        );
    }

    #[test]
    fn hypercuts_tree_is_flatter_than_hicuts() {
        use crate::hicuts::{HiCutsClassifier, HiCutsConfig};
        let rs = toy::table1_ruleset();
        let hyper = HyperCutsClassifier::build(&rs, &HyperCutsConfig::figure3());
        let hi = HiCutsClassifier::build(&rs, &HiCutsConfig::figure1());
        assert!(hyper.stats().max_depth <= hi.stats().max_depth);
    }

    #[test]
    fn push_common_rules_reduces_stored_refs() {
        let rs = toy::table1_ruleset();
        let with = HyperCutsClassifier::build(
            &rs,
            &HyperCutsConfig {
                binth: 1,
                spfac: 4.0,
                region_compaction: false,
                push_common_rules: true,
            },
        );
        let without = HyperCutsClassifier::build(
            &rs,
            &HyperCutsConfig {
                binth: 1,
                spfac: 4.0,
                region_compaction: false,
                push_common_rules: false,
            },
        );
        assert!(with.stats().stored_rule_refs <= without.stats().stored_rule_refs);
    }

    #[test]
    fn build_and_lookup_stats_populated() {
        let hc = toy_classifier(HyperCutsConfig::figure3());
        assert!(hc.build_stats().cut_evaluations > 0);
        assert!(hc.build_stats().internal_nodes >= 1);
        let mut stats = LookupStats::new();
        let pkt = PacketHeader::from_fields([145, 100, 10, 10, 200]);
        assert_eq!(
            hc.classify_with_stats(&pkt, &mut stats),
            MatchResult::Matched(5)
        );
        assert!(stats.memory_accesses >= 2);
        assert_eq!(hc.name(), "hypercuts-flat");
        assert!(hc.memory_bytes() > 0);
        assert!(hc.worst_case_memory_accesses().is_some());
        assert!(hc.config().binth == 3);
    }

    #[test]
    fn empty_and_single_rule_sets() {
        let spec = *toy::table1_ruleset().spec();
        let empty = pclass_types::RuleSet::new("empty", spec, vec![]).unwrap();
        let hc = HyperCutsClassifier::build(&empty, &HyperCutsConfig::paper_defaults());
        assert_eq!(
            hc.classify(&PacketHeader::from_fields([1, 2, 3, 4, 5])),
            MatchResult::NoMatch
        );

        let one = toy::table1_ruleset().truncated(1, "one");
        let hc = HyperCutsClassifier::build(&one, &HyperCutsConfig::paper_defaults());
        let stats = hc.stats();
        assert_eq!(stats.internal_nodes, 0);
        assert_eq!(stats.leaf_nodes, 1);
    }
}
