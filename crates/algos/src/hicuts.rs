//! The original HiCuts algorithm (Gupta & McKeown, IEEE Micro 2000).
//!
//! HiCuts builds a decision tree by recursively cutting one dimension of the
//! covered region into `np` equal-width children.  `np` starts at 2 and
//! doubles while the space-measure condition of Eq. 1 of the paper holds:
//!
//! ```text
//! spfac * rules(node)  >=  sum(rules(child) for child) + np
//! ```
//!
//! The dimension to cut is the one whose cut leaves the smallest *maximum*
//! number of rules in any child.  Recursion stops when a node holds at most
//! `binth` rules.
//!
//! This is the *software* baseline the paper measures on the StrongARM
//! SA-1100; the hardware-oriented modified variant (cuts start at 32 and are
//! capped at 256) lives in `pclass-core`.

use crate::dtree::{
    cut_histogram, CutPolicy, CutSpec, CutTreeClassifier, RosterPolicy, TreeBuilder,
};
use pclass_types::{Dimension, FieldRange, RuleId, FIELD_COUNT};

/// Upper bound on the number of cuts a software node may perform; prevents
/// pathological memory explosion on adversarial inputs.
const MAX_CUTS: u32 = 1 << 16;

/// Configuration of the original HiCuts builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiCutsConfig {
    /// Maximum number of rules a leaf may hold.
    pub binth: usize,
    /// Space factor of Eq. 1 (the paper's evaluation uses `spfac = 4`).
    pub spfac: f64,
}

impl HiCutsConfig {
    /// The parameters used throughout the paper's evaluation tables.
    pub fn paper_defaults() -> HiCutsConfig {
        HiCutsConfig {
            binth: 16,
            spfac: 4.0,
        }
    }

    /// The parameters of the worked example of Figures 1 and 2
    /// (Table 1 ruleset, `binth = 3`).
    pub fn figure1() -> HiCutsConfig {
        HiCutsConfig {
            binth: 3,
            spfac: 2.0,
        }
    }
}

impl Default for HiCutsConfig {
    fn default() -> Self {
        HiCutsConfig::paper_defaults()
    }
}

/// A packet classifier backed by an original-HiCuts decision tree.
pub type HiCutsClassifier = CutTreeClassifier<HiCutsConfig>;

impl RosterPolicy for HiCutsConfig {
    const NAME: &'static str = "hicuts";
    const FLAT_NAME: &'static str = "hicuts-flat";

    fn spfac(&self) -> f64 {
        self.spfac
    }
}

impl CutPolicy for HiCutsConfig {
    const HEADER_STORES: u64 = 4;
    const LEAF_RULE_STORES: u64 = 1;

    fn binth(&self) -> usize {
        self.binth
    }

    /// Evaluates each cuttable dimension — `np` by the doubling rule of
    /// Eq. 1 — and cuts the one with the smallest worst child occupancy.
    fn plan(
        &self,
        kit: &mut TreeBuilder<'_>,
        region: &[FieldRange; FIELD_COUNT],
        rules: &[RuleId],
    ) -> Option<(CutSpec, [FieldRange; FIELD_COUNT])> {
        let mut best: Option<(Dimension, u32, usize)> = None; // (dim, np, max_child_rules)
        for d in Dimension::ALL {
            let r = region[d.index()];
            if r.len() < 2 {
                continue;
            }
            let np = self.choose_np(kit, rules, r, d);
            let (max_child, _total) = distribution(kit, rules, r, d, np);
            if best.is_none_or(|(_, _, best_max)| max_child < best_max) {
                best = Some((d, np, max_child));
            }
        }
        // No dimension is left to cut, or cutting made no progress — every
        // child would hold the same rules as the parent: stop here (oversized
        // leaf) rather than recurse forever.
        let (dim, np, max_child) = best?;
        if max_child >= rules.len() {
            return None;
        }
        Some((CutSpec::single(dim, np), *region))
    }
}

impl HiCutsConfig {
    /// Chooses the number of cuts along `dim` by the Eq. 1 doubling rule.
    fn choose_np(
        &self,
        kit: &mut TreeBuilder<'_>,
        rules: &[RuleId],
        r: FieldRange,
        dim: Dimension,
    ) -> u32 {
        let n = rules.len() as f64;
        let budget = self.spfac * n;
        let max_np = u64::from(MAX_CUTS).min(r.len()) as u32;
        let mut np = 2u32.min(max_np);
        loop {
            let candidate = np.saturating_mul(2);
            if candidate > max_np {
                break;
            }
            let (_, total) = distribution(kit, rules, r, dim, candidate);
            if total as f64 + f64::from(candidate) <= budget {
                np = candidate;
            } else {
                break;
            }
        }
        np
    }
}

/// [`cut_histogram`] for `np` cuts of `r` along `dim`, charged as one pass
/// over the rules plus one over the histogram, a handful of ALU ops each.
fn distribution(
    kit: &mut TreeBuilder<'_>,
    rules: &[RuleId],
    r: FieldRange,
    dim: Dimension,
    np: u32,
) -> (usize, u64) {
    let n = rules.len() as u64;
    kit.stats.cut_evaluations += n;
    kit.stats.ops.loads += n * 2 + u64::from(np);
    kit.stats.ops.alu += n * 6 + u64::from(np) * 2;
    kit.stats.ops.branches += n * 2;
    // Software cuts have arbitrary widths, so locating a rule's first and
    // last child is two divisions; the hardware-oriented builder's
    // power-of-two cuts make the same step a shift and pay none.
    kit.stats.ops.divs += n * 2;
    cut_histogram(kit.rules, rules, r, dim, np)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::LookupStats;
    use crate::Classifier;
    use pclass_types::{toy, MatchResult, PacketHeader};

    fn toy_classifier(binth: usize, spfac: f64) -> HiCutsClassifier {
        let rs = toy::table1_ruleset();
        HiCutsClassifier::build(&rs, &HiCutsConfig { binth, spfac })
    }

    #[test]
    fn agrees_with_linear_search_on_toy_ruleset() {
        let rs = toy::table1_ruleset();
        let hc = toy_classifier(3, 2.0);
        for f0 in (0..=255u32).step_by(3) {
            for f4 in (0..=255u32).step_by(5) {
                let pkt = PacketHeader::from_fields([f0, 80, 40, 180, f4]);
                assert_eq!(hc.classify(&pkt), rs.classify_linear(&pkt), "pkt {pkt:?}");
                let pkt = PacketHeader::from_fields([f0, 60, 0, 255, f4]);
                assert_eq!(hc.classify(&pkt), rs.classify_linear(&pkt), "pkt {pkt:?}");
            }
        }
    }

    #[test]
    fn figure1_tree_shape() {
        // Figure 1 of the paper: with binth = 3 the root of the Table 1 tree
        // is cut along Field 0 and the tree stays very shallow.
        let hc = toy_classifier(3, 2.0);
        let stats = hc.tree().stats();
        assert!(stats.max_depth <= 3, "tree too deep: {stats:?}");
        assert!(stats.max_leaf_rules <= 3, "leaf exceeds binth: {stats:?}");
        let dump = hc.tree().dump();
        assert!(
            dump.starts_with("node cut[src_ip"),
            "root cut is not field 0: {dump}"
        );
    }

    #[test]
    fn respects_binth_when_cutting_helps() {
        let hc = toy_classifier(3, 4.0);
        assert!(hc.tree().stats().max_leaf_rules <= 3);
        let hc = toy_classifier(1, 8.0);
        // With binth = 1 some leaves may legitimately hold more than one rule
        // when rules overlap exactly; the tree must still classify correctly.
        let rs = toy::table1_ruleset();
        for f0 in (0..=255u32).step_by(11) {
            let pkt = PacketHeader::from_fields([f0, 15, 40, 180, 130]);
            assert_eq!(hc.classify(&pkt), rs.classify_linear(&pkt));
        }
    }

    #[test]
    fn build_stats_are_populated() {
        let hc = toy_classifier(3, 2.0);
        let bs = hc.build_stats();
        assert!(bs.internal_nodes >= 1);
        assert!(bs.leaf_nodes >= 2);
        assert!(bs.cut_evaluations > 0);
        assert!(bs.ops.total_ops() > 0);
        assert!(bs.max_depth >= 1);
    }

    #[test]
    fn lookup_stats_reflect_tree_walk() {
        let hc = toy_classifier(3, 2.0);
        let mut stats = LookupStats::new();
        let pkt = PacketHeader::from_fields([145, 100, 10, 10, 200]);
        assert_eq!(
            hc.classify_with_stats(&pkt, &mut stats),
            MatchResult::Matched(5)
        );
        assert!(stats.nodes_visited >= 1);
        assert!(stats.memory_accesses >= 2);
    }

    #[test]
    fn memory_and_worst_case_reported() {
        let hc = toy_classifier(3, 2.0);
        assert!(hc.memory_bytes() > 0);
        assert!(hc.worst_case_memory_accesses().unwrap() >= 2);
        assert_eq!(hc.name(), "hicuts");
        assert_eq!(hc.config().binth, 3);
    }

    #[test]
    fn single_rule_ruleset_is_one_leaf() {
        let rs = toy::table1_ruleset().truncated(1, "one");
        let hc = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
        let stats = hc.tree().stats();
        assert_eq!(stats.internal_nodes, 0);
        assert_eq!(stats.leaf_nodes, 1);
        let pkt = PacketHeader::from_fields([130, 15, 40, 180, 130]);
        assert_eq!(hc.classify(&pkt), rs.classify_linear(&pkt));
    }

    #[test]
    fn empty_ruleset_never_matches() {
        let rs =
            pclass_types::RuleSet::new("empty", *toy::table1_ruleset().spec(), vec![]).unwrap();
        let hc = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
        let pkt = PacketHeader::from_fields([1, 2, 3, 4, 5]);
        assert_eq!(hc.classify(&pkt), MatchResult::NoMatch);
    }

    #[test]
    #[should_panic]
    fn zero_binth_rejected() {
        let rs = toy::table1_ruleset();
        HiCutsClassifier::build(
            &rs,
            &HiCutsConfig {
                binth: 0,
                spfac: 4.0,
            },
        );
    }
}
