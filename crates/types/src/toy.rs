//! The toy ruleset of Table 1 in the paper.
//!
//! The paper illustrates HiCuts and HyperCuts with a 10-rule, 5-field
//! ruleset whose fields are all 8 bits wide (values 0–255).  The decision
//! trees of Figures 1 and 3 and the cut diagram of Figure 2 are built from
//! this set; the unit tests of `pclass-algos` reproduce those figures from
//! the data returned here.

use crate::dimension::DimensionSpec;
use crate::range::FieldRange;
use crate::rule::Rule;
use crate::ruleset::RuleSet;

/// Raw `(lo, hi)` bounds of Table 1, row by row (R0 … R9), field by field
/// (Field0 … Field4).
pub const TABLE1: [[(u32, u32); 5]; 10] = [
    [(128, 240), (15, 15), (40, 40), (180, 180), (120, 140)],
    [(90, 100), (0, 80), (0, 200), (190, 200), (130, 132)],
    [(130, 255), (60, 140), (0, 60), (180, 180), (133, 135)],
    [(90, 92), (200, 200), (40, 40), (180, 180), (136, 138)],
    [(130, 255), (60, 140), (40, 40), (190, 200), (60, 63)],
    [(140, 150), (60, 140), (0, 255), (0, 255), (140, 255)],
    [(160, 165), (80, 80), (0, 255), (0, 255), (0, 80)],
    [(48, 50), (0, 80), (40, 40), (0, 255), (0, 10)],
    [(26, 36), (50, 50), (40, 40), (180, 180), (30, 40)],
    [(40, 40), (40, 70), (40, 40), (0, 255), (0, 60)],
];

/// Builds the Table 1 ruleset in the toy (five 8-bit fields) geometry.
pub fn table1_ruleset() -> RuleSet {
    let rules: Vec<Rule> = TABLE1
        .iter()
        .enumerate()
        .map(|(id, fields)| {
            let ranges = [
                FieldRange::new(fields[0].0, fields[0].1),
                FieldRange::new(fields[1].0, fields[1].1),
                FieldRange::new(fields[2].0, fields[2].1),
                FieldRange::new(fields[3].0, fields[3].1),
                FieldRange::new(fields[4].0, fields[4].1),
            ];
            Rule::new(id as u32, ranges)
        })
        .collect();
    RuleSet::new("table1", DimensionSpec::TOY, rules).expect("Table 1 data is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketHeader;
    use crate::ruleset::MatchResult;

    #[test]
    fn table1_has_ten_rules_over_toy_geometry() {
        let rs = table1_ruleset();
        assert_eq!(rs.len(), 10);
        assert_eq!(*rs.spec(), DimensionSpec::TOY);
        assert_eq!(rs.name(), "table1");
    }

    #[test]
    fn table1_row_values_match_the_paper() {
        let rs = table1_ruleset();
        // Spot-check R0 and R9 against the printed table.
        let r0 = rs.rule(0).unwrap();
        assert_eq!(r0.ranges[0], FieldRange::new(128, 240));
        assert_eq!(r0.ranges[4], FieldRange::new(120, 140));
        let r9 = rs.rule(9).unwrap();
        assert_eq!(r9.ranges[0], FieldRange::exact(40));
        assert_eq!(r9.ranges[1], FieldRange::new(40, 70));
    }

    #[test]
    fn table1_classification_examples() {
        let rs = table1_ruleset();
        // A point inside R5 only: field0=145, others inside R5's wildcards.
        let p = PacketHeader::from_fields([145, 100, 10, 10, 200]);
        assert_eq!(rs.classify_linear(&p), MatchResult::Matched(5));
        // A point inside R2 and R4 overlap region -> R2 wins on priority.
        let p = PacketHeader::from_fields([200, 100, 50, 180, 134]);
        assert_eq!(rs.classify_linear(&p), MatchResult::Matched(2));
        // A point matching nothing.
        let p = PacketHeader::from_fields([0, 0, 0, 0, 255]);
        assert_eq!(rs.classify_linear(&p), MatchResult::NoMatch);
    }
}
