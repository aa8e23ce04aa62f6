//! Rulesets: ordered rule collections with first-match semantics and text I/O.

use crate::dimension::{Dimension, DimensionSpec, FIELD_COUNT};
use crate::packet::PacketHeader;
use crate::prefix::Prefix;
use crate::range::FieldRange;
use crate::rule::{Rule, RuleId};
use crate::stats::RuleSetStats;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Result of classifying a packet against a ruleset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchResult {
    /// The packet matched the rule with this id (the highest-priority match).
    Matched(RuleId),
    /// No rule matched; the packet takes the default action.
    NoMatch,
}

impl MatchResult {
    /// The matched rule id, if any.
    pub fn rule_id(self) -> Option<RuleId> {
        match self {
            MatchResult::Matched(id) => Some(id),
            MatchResult::NoMatch => None,
        }
    }
}

/// Errors produced when constructing or parsing rulesets.
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
    /// A line of the ClassBench-style text format could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
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
            RuleSetError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for RuleSetError {}

/// An ordered collection of rules over a common geometry.
///
/// Priority is positional: rule 0 beats rule 1 and so on, which is the
/// convention used by ClassBench filter files and by Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

    /// All rules matching the packet, in priority order (used by tests to
    /// check shadowing behaviour).
    pub fn matching_rules(&self, pkt: &PacketHeader) -> Vec<RuleId> {
        self.rules
            .iter()
            .filter(|r| r.matches(pkt))
            .map(|r| r.id)
            .collect()
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

    /// Serialises the ruleset into the ClassBench-like text format
    /// understood by [`RuleSet::parse_classbench`]:
    ///
    /// ```text
    /// @10.0.0.0/8  192.168.1.0/24  1024 : 65535  80 : 80  0x06/0xFF
    /// ```
    ///
    /// IP fields that are not expressible as prefixes are written as
    /// `lo-hi` ranges, which the parser also accepts.
    pub fn to_classbench_text(&self) -> String {
        let mut out = String::new();
        for rule in &self.rules {
            let ip_field = |r: FieldRange| -> String {
                match Prefix::from_range(r, 32) {
                    Some(p) => p.to_string(),
                    None => format!("{}-{}", r.lo, r.hi),
                }
            };
            let proto = rule.range(Dimension::Protocol);
            let proto_str = if proto == FieldRange::full(8) {
                "0x00/0x00".to_string()
            } else if proto.is_exact() {
                format!("{:#04x}/0xFF", proto.lo)
            } else {
                format!("{}-{}", proto.lo, proto.hi)
            };
            writeln!(
                out,
                "@{}\t{}\t{} : {}\t{} : {}\t{}",
                ip_field(rule.range(Dimension::SrcIp)),
                ip_field(rule.range(Dimension::DstIp)),
                rule.range(Dimension::SrcPort).lo,
                rule.range(Dimension::SrcPort).hi,
                rule.range(Dimension::DstPort).lo,
                rule.range(Dimension::DstPort).hi,
                proto_str
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// Parses the ClassBench-like text format produced by
    /// [`RuleSet::to_classbench_text`].
    pub fn parse_classbench(name: impl Into<String>, text: &str) -> Result<RuleSet, RuleSetError> {
        let mut rules = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let line_idx = lineno + 1;
            let parse_err = |message: String| RuleSetError::Parse {
                line: line_idx,
                message,
            };
            let body = line.strip_prefix('@').unwrap_or(line);
            let cols: Vec<&str> = body.split_whitespace().collect();
            if cols.len() < 8 {
                return Err(parse_err(format!(
                    "expected at least 8 columns, found {}",
                    cols.len()
                )));
            }
            let src = parse_ip_field(cols[0]).map_err(&parse_err)?;
            let dst = parse_ip_field(cols[1]).map_err(&parse_err)?;
            // Port columns are "lo : hi" → three tokens each.
            if cols[3] != ":" || cols[6] != ":" {
                return Err(parse_err("expected 'lo : hi' port syntax".to_string()));
            }
            let sp_lo: u32 = cols[2]
                .parse()
                .map_err(|_| parse_err(format!("bad port {}", cols[2])))?;
            let sp_hi: u32 = cols[4]
                .parse()
                .map_err(|_| parse_err(format!("bad port {}", cols[4])))?;
            let dp_lo: u32 = cols[5]
                .parse()
                .map_err(|_| parse_err(format!("bad port {}", cols[5])))?;
            let dp_hi: u32 = cols[7]
                .parse()
                .map_err(|_| parse_err(format!("bad port {}", cols[7])))?;
            if sp_lo > sp_hi || dp_lo > dp_hi || sp_hi > 65535 || dp_hi > 65535 {
                return Err(parse_err(
                    "port range out of order or out of bounds".to_string(),
                ));
            }
            let proto = if cols.len() > 8 {
                parse_protocol_field(cols[8]).map_err(parse_err)?
            } else {
                FieldRange::full(8)
            };
            let id = rules.len() as RuleId;
            rules.push(Rule::new(
                id,
                [
                    src,
                    dst,
                    FieldRange::new(sp_lo, sp_hi),
                    FieldRange::new(dp_lo, dp_hi),
                    proto,
                ],
            ));
        }
        RuleSet::new(name, DimensionSpec::FIVE_TUPLE, rules)
    }
}

/// Parses `a.b.c.d/len`, a bare `a.b.c.d` (treated as /32) or `lo-hi`.
fn parse_ip_field(s: &str) -> Result<FieldRange, String> {
    if let Some((lo, hi)) = s.split_once('-') {
        let lo: u32 = parse_ip_or_int(lo)?;
        let hi: u32 = parse_ip_or_int(hi)?;
        if lo > hi {
            return Err(format!("inverted IP range {s}"));
        }
        return Ok(FieldRange::new(lo, hi));
    }
    let (addr_str, len_str) = match s.split_once('/') {
        Some((a, l)) => (a, l),
        None => (s, "32"),
    };
    let addr = parse_ip_or_int(addr_str)?;
    let len: u8 = len_str
        .parse()
        .map_err(|_| format!("bad prefix length {len_str}"))?;
    if len > 32 {
        return Err(format!("prefix length {len} exceeds 32"));
    }
    Ok(Prefix::ipv4(addr, len).to_range())
}

/// Parses dotted-quad or plain decimal/hex integers.
fn parse_ip_or_int(s: &str) -> Result<u32, String> {
    if s.contains('.') {
        let octets: Vec<&str> = s.split('.').collect();
        if octets.len() != 4 {
            return Err(format!("bad IPv4 address {s}"));
        }
        let mut v: u32 = 0;
        for o in octets {
            let b: u32 = o.parse().map_err(|_| format!("bad IPv4 octet {o}"))?;
            if b > 255 {
                return Err(format!("IPv4 octet {b} out of range"));
            }
            v = (v << 8) | b;
        }
        Ok(v)
    } else if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad hex value {s}"))
    } else {
        s.parse().map_err(|_| format!("bad integer {s}"))
    }
}

/// Parses `0xNN/0xFF` (exact), `0x00/0x00` (wildcard) or `lo-hi`.
fn parse_protocol_field(s: &str) -> Result<FieldRange, String> {
    if let Some((val, mask)) = s.split_once('/') {
        let v = parse_ip_or_int(val)?;
        let m = parse_ip_or_int(mask)?;
        if v > 255 || m > 255 {
            return Err(format!("protocol field {s} out of range"));
        }
        if m == 0 {
            Ok(FieldRange::full(8))
        } else if m == 0xFF {
            Ok(FieldRange::exact(v))
        } else {
            Err(format!(
                "unsupported protocol mask {s} (must be 0x00 or 0xFF)"
            ))
        }
    } else if let Some((lo, hi)) = s.split_once('-') {
        let lo = parse_ip_or_int(lo)?;
        let hi = parse_ip_or_int(hi)?;
        if lo > hi || hi > 255 {
            return Err(format!("bad protocol range {s}"));
        }
        Ok(FieldRange::new(lo, hi))
    } else {
        let v = parse_ip_or_int(s)?;
        if v > 255 {
            return Err(format!("protocol {v} out of range"));
        }
        Ok(FieldRange::exact(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleBuilder;
    use crate::toy;

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
        assert_eq!(rs.matching_rules(&http), vec![0, 1, 2]);
    }

    #[test]
    fn no_match_without_default_rule() {
        let rules = vec![RuleBuilder::new(0).protocol(6).build()];
        let rs = RuleSet::new("tcp_only", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        let udp = PacketHeader::five_tuple(1, 2, 3, 4, 17);
        assert_eq!(rs.classify_linear(&udp), MatchResult::NoMatch);
        assert_eq!(rs.classify_linear(&udp).rule_id(), None);
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
    fn classbench_text_roundtrip() {
        let rs = small_set();
        let text = rs.to_classbench_text();
        let parsed = RuleSet::parse_classbench("small", &text).unwrap();
        assert_eq!(parsed.len(), rs.len());
        for (a, b) in parsed.rules().iter().zip(rs.rules()) {
            assert_eq!(a.ranges, b.ranges);
        }
    }

    #[test]
    fn classbench_text_roundtrip_toy_ruleset_as_ranges() {
        // The toy ruleset has non-prefix IP ranges; they serialise as lo-hi.
        let toy = toy::table1_ruleset();
        // Re-express it in the 5-tuple geometry for text I/O purposes.
        let rules: Vec<Rule> = toy.rules().to_vec();
        let rs = RuleSet::new("toy5", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        let text = rs.to_classbench_text();
        let parsed = RuleSet::parse_classbench("toy5", &text).unwrap();
        for (a, b) in parsed.rules().iter().zip(rs.rules()) {
            assert_eq!(a.ranges, b.ranges);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(RuleSet::parse_classbench("x", "@10.0.0.0/8").is_err());
        assert!(
            RuleSet::parse_classbench("x", "@10.0.0.0/8 1.2.3.4 0 : 5 0 : bad 0x06/0xFF").is_err()
        );
        assert!(
            RuleSet::parse_classbench("x", "@10.0.0.0/40 1.2.3.4 0 : 5 0 : 9 0x06/0xFF").is_err()
        );
        // Comments and blank lines are fine.
        let ok = RuleSet::parse_classbench(
            "x",
            "# comment\n\n@10.0.0.0/8\t1.2.3.4\t0 : 5\t0 : 9\t0x06/0xFF\n",
        );
        assert_eq!(ok.unwrap().len(), 1);
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
