//! Rulesets: ordered rule collections with first-match semantics.

use crate::dimension::{Dimension, DimensionSpec, FIELD_COUNT};
use crate::packet::PacketHeader;
use crate::range::FieldRange;
use crate::rule::{Rule, RuleId};
use crate::stats::RuleSetStats;
use serde::Serialize;

/// Result of classifying a packet against a ruleset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MatchResult {
    /// The packet matched the rule with this id (the highest-priority match).
    Matched(RuleId),
    /// No rule matched; the packet takes the default action.
    NoMatch,
}

/// Errors produced when constructing rulesets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleSetError {
    /// A rule's range exceeds the width of its dimension.
    RangeExceedsWidth {
        /// Offending rule id.
        rule: RuleId,
        /// Offending dimension.
        dimension: Dimension,
    },
    /// Rule ids must equal their position so that id order == priority order.
    NonSequentialIds {
        /// Position in the rule vector.
        index: usize,
        /// Id found at that position.
        found: RuleId,
    },
}

impl std::fmt::Display for RuleSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleSetError::RangeExceedsWidth { rule, dimension } => {
                write!(
                    f,
                    "rule {rule} has a range wider than dimension {dimension}"
                )
            }
            RuleSetError::NonSequentialIds { index, found } => {
                write!(
                    f,
                    "rule at position {index} has id {found}; ids must be sequential"
                )
            }
        }
    }
}

impl std::error::Error for RuleSetError {}

/// An ordered collection of rules over a common geometry.
///
/// Priority is positional: rule 0 beats rule 1 and so on, which is the
/// convention used by ClassBench filter files and by Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RuleSet {
    name: String,
    spec: DimensionSpec,
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Creates a ruleset after validating that every rule fits the geometry
    /// and that ids are sequential (id == position).
    pub fn new(
        name: impl Into<String>,
        spec: DimensionSpec,
        rules: Vec<Rule>,
    ) -> Result<RuleSet, RuleSetError> {
        for (i, rule) in rules.iter().enumerate() {
            if rule.id != i as RuleId {
                return Err(RuleSetError::NonSequentialIds {
                    index: i,
                    found: rule.id,
                });
            }
            for d in Dimension::ALL {
                if rule.range(d).hi > spec.max_value(d) {
                    return Err(RuleSetError::RangeExceedsWidth {
                        rule: rule.id,
                        dimension: d,
                    });
                }
            }
        }
        Ok(RuleSet {
            name: name.into(),
            spec,
            rules,
        })
    }

    /// Creates a ruleset, renumbering the rules so ids follow their position.
    pub fn from_rules_renumbered(
        name: impl Into<String>,
        spec: DimensionSpec,
        mut rules: Vec<Rule>,
    ) -> Result<RuleSet, RuleSetError> {
        for (i, r) in rules.iter_mut().enumerate() {
            r.id = i as RuleId;
        }
        RuleSet::new(name, spec, rules)
    }

    /// Human-readable name of the ruleset (e.g. `acl1_2191`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The geometry this ruleset is defined over.
    pub fn spec(&self) -> &DimensionSpec {
        &self.spec
    }

    /// The rules in priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if the ruleset has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rule by id (ids are positions).
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(id as usize)
    }

    /// Reference linear-search classification: scans rules in priority order
    /// and returns the first match.  Every other classifier in the workspace
    /// is checked against this function.
    pub fn classify_linear(&self, pkt: &PacketHeader) -> MatchResult {
        for rule in &self.rules {
            if rule.matches(pkt) {
                return MatchResult::Matched(rule.id);
            }
        }
        MatchResult::NoMatch
    }

    /// The full covered region of the geometry (one wildcard range per
    /// dimension) — the root region of any decision tree over this ruleset.
    pub fn full_region(&self) -> [FieldRange; FIELD_COUNT] {
        let mut region = [FieldRange::exact(0); FIELD_COUNT];
        for d in Dimension::ALL {
            region[d.index()] = FieldRange::full(self.spec.width(d));
        }
        region
    }

    /// Takes the first `n` rules as a new ruleset (used to build the paper's
    /// 60/150/500/1000/1600/2191-rule subsets from one generated set).
    pub fn truncated(&self, n: usize, name: impl Into<String>) -> RuleSet {
        let rules: Vec<Rule> = self.rules.iter().take(n).cloned().collect();
        RuleSet::from_rules_renumbered(name, self.spec, rules)
            .expect("truncating a valid ruleset keeps it valid")
    }

    /// Structural statistics of the ruleset (wildcards, distinct ranges and
    /// mean relative width per dimension).  The generator tests read them
    /// to check that each seed style has the shape it claims.
    pub fn stats(&self) -> RuleSetStats {
        RuleSetStats::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleBuilder;

    fn small_set() -> RuleSet {
        let rules = vec![
            RuleBuilder::new(0)
                .src_prefix(0x0A00_0000, 8)
                .dst_port(80)
                .protocol(6)
                .build(),
            RuleBuilder::new(1)
                .src_prefix(0x0A00_0000, 8)
                .protocol(6)
                .build(),
            RuleBuilder::new(2).build(),
        ];
        RuleSet::new("small", DimensionSpec::FIVE_TUPLE, rules).unwrap()
    }

    #[test]
    fn first_match_wins() {
        let rs = small_set();
        let http = PacketHeader::five_tuple(0x0A01_0101, 0x01020304, 1234, 80, 6);
        assert_eq!(rs.classify_linear(&http), MatchResult::Matched(0));
        let ssh = PacketHeader::five_tuple(0x0A01_0101, 0x01020304, 1234, 22, 6);
        assert_eq!(rs.classify_linear(&ssh), MatchResult::Matched(1));
        let udp = PacketHeader::five_tuple(0x0B01_0101, 0x01020304, 1234, 53, 17);
        assert_eq!(rs.classify_linear(&udp), MatchResult::Matched(2));
        // Rules 1 and 2 match the HTTP packet too; rule 0 shadows them.
        assert!(rs.rules().iter().all(|r| r.matches(&http)));
    }

    #[test]
    fn no_match_without_default_rule() {
        let rules = vec![RuleBuilder::new(0).protocol(6).build()];
        let rs = RuleSet::new("tcp_only", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        let udp = PacketHeader::five_tuple(1, 2, 3, 4, 17);
        assert_eq!(rs.classify_linear(&udp), MatchResult::NoMatch);
    }

    #[test]
    fn rejects_non_sequential_ids() {
        let rules = vec![RuleBuilder::new(5).build()];
        let err = RuleSet::new("bad", DimensionSpec::FIVE_TUPLE, rules).unwrap_err();
        assert!(matches!(
            err,
            RuleSetError::NonSequentialIds { index: 0, found: 5 }
        ));
    }

    #[test]
    fn rejects_out_of_width_ranges() {
        let mut rule = Rule::wildcard(0, &DimensionSpec::TOY);
        rule.ranges[0] = FieldRange::new(0, 300); // exceeds 8 bits
        let err = RuleSet::new("bad", DimensionSpec::TOY, vec![rule]).unwrap_err();
        assert!(matches!(err, RuleSetError::RangeExceedsWidth { .. }));
    }

    #[test]
    fn truncated_keeps_prefix_of_rules() {
        let rs = small_set();
        let t = rs.truncated(2, "small_2");
        assert_eq!(t.len(), 2);
        assert_eq!(t.rules()[0].ranges, rs.rules()[0].ranges);
        assert_eq!(t.name(), "small_2");
    }

    #[test]
    fn full_region_matches_spec() {
        let rs = small_set();
        let region = rs.full_region();
        assert_eq!(region[0], FieldRange::full(32));
        assert_eq!(region[2], FieldRange::full(16));
        assert_eq!(region[4], FieldRange::full(8));
    }
}
