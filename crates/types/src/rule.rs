//! Classification rules — hyper-rectangles with an identity and priority.

use crate::dimension::{Dimension, DimensionSpec, FIELD_COUNT};
use crate::packet::PacketHeader;
use crate::prefix::Prefix;
use crate::range::FieldRange;
use serde::Serialize;

/// Identifier of a rule inside a ruleset.
///
/// The id doubles as the priority: lower ids are matched first, mirroring the
/// ordering of ClassBench filter files and Table 1 of the paper (R0 … R9).
pub type RuleId = u32;

/// A classification rule: one inclusive range per dimension plus an id.
///
/// Rules are pure data; matching semantics live here, priority resolution in
/// [`crate::ruleset::RuleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Rule {
    /// Identifier / priority of the rule within its ruleset.
    pub id: RuleId,
    /// Matching range for every dimension, in field order.
    pub ranges: [FieldRange; FIELD_COUNT],
}

impl Rule {
    /// Creates a rule from explicit per-dimension ranges.
    pub fn new(id: RuleId, ranges: [FieldRange; FIELD_COUNT]) -> Rule {
        Rule { id, ranges }
    }

    /// Creates a rule that matches everything (all dimensions wildcarded) for
    /// the given geometry.
    pub fn wildcard(id: RuleId, spec: &DimensionSpec) -> Rule {
        let mut ranges = [FieldRange::exact(0); FIELD_COUNT];
        for d in Dimension::ALL {
            ranges[d.index()] = FieldRange::full(spec.width(d));
        }
        Rule { id, ranges }
    }

    /// Range of the rule in dimension `dim`.
    #[inline]
    pub fn range(&self, dim: Dimension) -> FieldRange {
        self.ranges[dim.index()]
    }

    /// `true` if the packet lies inside the rule on every dimension.
    #[inline]
    pub fn matches(&self, pkt: &PacketHeader) -> bool {
        // Manually unrolled over the fixed field count: this is the innermost
        // loop of the linear-search baseline and of every leaf-node search.
        self.ranges[0].contains(pkt.fields[0])
            && self.ranges[1].contains(pkt.fields[1])
            && self.ranges[2].contains(pkt.fields[2])
            && self.ranges[3].contains(pkt.fields[3])
            && self.ranges[4].contains(pkt.fields[4])
    }

    /// `true` if the rule's hyper-rectangle intersects the given region
    /// (one range per dimension).  This is the overlap test the decision-tree
    /// builders use when deciding which rules belong to a child node.
    #[inline]
    pub fn intersects_region(&self, region: &[FieldRange; FIELD_COUNT]) -> bool {
        self.ranges
            .iter()
            .zip(region.iter())
            .all(|(r, reg)| r.overlaps(reg))
    }

    /// `true` if the rule is a full wildcard in dimension `dim` for the given
    /// geometry.
    pub fn is_wildcard_in(&self, dim: Dimension, spec: &DimensionSpec) -> bool {
        self.range(dim) == FieldRange::full(spec.width(dim))
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "R{}: src {} dst {} sport {} dport {} proto {}",
            self.id, self.ranges[0], self.ranges[1], self.ranges[2], self.ranges[3], self.ranges[4]
        )
    }
}

/// Convenience builder for 5-tuple rules in the real geometry.
///
/// ```
/// use pclass_types::{RuleBuilder, PacketHeader};
///
/// let rule = RuleBuilder::new(0)
///     .src_prefix(0x0A00_0000, 8)        // 10.0.0.0/8
///     .dst_prefix(0xC0A8_0100, 24)       // 192.168.1.0/24
///     .src_port_range(1024, 65535)
///     .dst_port(80)
///     .protocol(6)
///     .build();
///
/// let pkt = PacketHeader::five_tuple(0x0A01_0203, 0xC0A8_0105, 40000, 80, 6);
/// assert!(rule.matches(&pkt));
/// ```
#[derive(Debug, Clone)]
pub struct RuleBuilder {
    id: RuleId,
    ranges: [FieldRange; FIELD_COUNT],
}

impl RuleBuilder {
    /// Starts a builder for rule `id`; every dimension defaults to wildcard
    /// in the 5-tuple geometry.
    pub fn new(id: RuleId) -> RuleBuilder {
        let spec = DimensionSpec::FIVE_TUPLE;
        RuleBuilder {
            id,
            ranges: [
                FieldRange::full(spec.bits[0]),
                FieldRange::full(spec.bits[1]),
                FieldRange::full(spec.bits[2]),
                FieldRange::full(spec.bits[3]),
                FieldRange::full(spec.bits[4]),
            ],
        }
    }

    /// Sets the source IP prefix.
    pub fn src_prefix(mut self, addr: u32, length: u8) -> Self {
        self.ranges[0] = Prefix::ipv4(addr, length).to_range();
        self
    }

    /// Sets the destination IP prefix.
    pub fn dst_prefix(mut self, addr: u32, length: u8) -> Self {
        self.ranges[1] = Prefix::ipv4(addr, length).to_range();
        self
    }

    /// Sets an arbitrary source IP range.
    pub fn src_ip_range(mut self, lo: u32, hi: u32) -> Self {
        self.ranges[0] = FieldRange::new(lo, hi);
        self
    }

    /// Sets an arbitrary destination IP range.
    pub fn dst_ip_range(mut self, lo: u32, hi: u32) -> Self {
        self.ranges[1] = FieldRange::new(lo, hi);
        self
    }

    /// Sets the source port range.
    pub fn src_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.ranges[2] = FieldRange::new(u32::from(lo), u32::from(hi));
        self
    }

    /// Sets an exact source port.
    pub fn src_port(self, port: u16) -> Self {
        self.src_port_range(port, port)
    }

    /// Sets the destination port range.
    pub fn dst_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.ranges[3] = FieldRange::new(u32::from(lo), u32::from(hi));
        self
    }

    /// Sets an exact destination port.
    pub fn dst_port(self, port: u16) -> Self {
        self.dst_port_range(port, port)
    }

    /// Sets an exact protocol number.
    pub fn protocol(mut self, proto: u8) -> Self {
        self.ranges[4] = FieldRange::exact(u32::from(proto));
        self
    }

    /// Leaves the protocol as a wildcard (the default).
    pub fn any_protocol(mut self) -> Self {
        self.ranges[4] = FieldRange::full(8);
        self
    }

    /// Finishes the rule.
    pub fn build(self) -> Rule {
        Rule::new(self.id, self.ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_rule() -> Rule {
        RuleBuilder::new(3)
            .src_prefix(0x0A00_0000, 8)
            .dst_prefix(0xC0A8_0100, 24)
            .src_port_range(1024, 65535)
            .dst_port(80)
            .protocol(6)
            .build()
    }

    #[test]
    fn builder_defaults_to_wildcards() {
        let r = RuleBuilder::new(0).build();
        assert_eq!(r, Rule::wildcard(0, &DimensionSpec::FIVE_TUPLE));
        assert!(Dimension::ALL
            .iter()
            .all(|&d| r.is_wildcard_in(d, &DimensionSpec::FIVE_TUPLE)));
    }

    #[test]
    fn match_requires_every_dimension() {
        let r = sample_rule();
        let hit = PacketHeader::five_tuple(0x0A01_0203, 0xC0A8_0105, 40000, 80, 6);
        assert!(r.matches(&hit));
        // Wrong protocol.
        assert!(!r.matches(&PacketHeader::five_tuple(
            0x0A01_0203,
            0xC0A8_0105,
            40000,
            80,
            17
        )));
        // Source port below range.
        assert!(!r.matches(&PacketHeader::five_tuple(
            0x0A01_0203,
            0xC0A8_0105,
            80,
            80,
            6
        )));
        // Destination outside the /24.
        assert!(!r.matches(&PacketHeader::five_tuple(
            0x0A01_0203,
            0xC0A8_0205,
            40000,
            80,
            6
        )));
    }

    #[test]
    fn intersects_region() {
        let r = sample_rule();
        let mut region = [
            FieldRange::full(32),
            FieldRange::full(32),
            FieldRange::full(16),
            FieldRange::full(16),
            FieldRange::full(8),
        ];
        assert!(r.intersects_region(&region));
        region[3] = FieldRange::new(81, 90);
        assert!(!r.intersects_region(&region));
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = sample_rule().to_string();
        assert!(s.contains("R3"));
        assert!(s.contains("proto 6"));
    }

    proptest! {
        #[test]
        fn prop_match_iff_inside_all_ranges(
            lo in proptest::array::uniform5(0u32..200),
            w in proptest::array::uniform5(0u32..55),
            pkt in proptest::array::uniform5(0u32..255),
        ) {
            let ranges = [
                FieldRange::new(lo[0], lo[0] + w[0]),
                FieldRange::new(lo[1], lo[1] + w[1]),
                FieldRange::new(lo[2], lo[2] + w[2]),
                FieldRange::new(lo[3], lo[3] + w[3]),
                FieldRange::new(lo[4], lo[4] + w[4]),
            ];
            let rule = Rule::new(0, ranges);
            let header = PacketHeader::from_fields(pkt);
            let expected = ranges.iter().zip(pkt.iter()).all(|(r, &v)| r.contains(v));
            prop_assert_eq!(rule.matches(&header), expected);
        }

        #[test]
        fn prop_wildcard_matches_everything(pkt in proptest::array::uniform5(any::<u32>())) {
            let rule = Rule::wildcard(0, &DimensionSpec::FIVE_TUPLE);
            let mut header = PacketHeader::from_fields(pkt);
            // Clamp ports/protocol into their widths so the packet is valid.
            header.fields[2] &= 0xFFFF;
            header.fields[3] &= 0xFFFF;
            header.fields[4] &= 0xFF;
            prop_assert!(rule.matches(&header));
        }
    }
}
