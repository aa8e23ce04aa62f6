//! Functional TCAM packet classifier baseline.
//!
//! The paper positions its accelerator against the prevailing hardware
//! solution, Ternary Content Addressable Memory: a TCAM compares a 144-bit
//! search key against every stored entry in parallel and returns the first
//! (highest-priority) match in O(1) clock cycles, at the cost of high power
//! and poor storage efficiency for rules containing ranges (each port range
//! has to be expanded into multiple prefixes, and real-world databases reach
//! only 16–53 % storage efficiency, §1 of the paper).
//!
//! This crate provides:
//!
//! * [`TcamClassifier`] — a functional model: rules are expanded into
//!   ternary entries (value/mask pairs per field), lookups scan the entries
//!   in priority order (modelling the parallel match + priority encoder) and
//!   report a single-cycle match, so its decisions can be validated against
//!   linear search and its entry count drives the storage-efficiency and
//!   power comparisons.
//! * [`TcamStats`] — entry counts, expansion factor and storage efficiency.
//!
//! Datasheet power/throughput figures of the Cypress parts the paper quotes
//! live in `pclass-energy::tcam_datasheet`.

//!
//! # Example
//!
//! Program the toy ruleset into the TCAM model and validate a lookup
//! against linear search:
//!
//! ```
//! use pclass_tcam::TcamClassifier;
//! use pclass_types::{DimensionSpec, PacketHeader, RuleBuilder, RuleSet};
//!
//! // "Allow TCP 10.0.0.0/8 to any web port, then drop that subnet."
//! let rules = vec![
//!     RuleBuilder::new(0)
//!         .src_prefix(0x0A00_0000, 8)
//!         .dst_port_range(80, 88)
//!         .protocol(6)
//!         .build(),
//!     RuleBuilder::new(1).src_prefix(0x0A00_0000, 8).build(),
//! ];
//! let rs = RuleSet::new("web", DimensionSpec::FIVE_TUPLE, rules).unwrap();
//! let tcam = TcamClassifier::program(&rs).unwrap();
//!
//! let pkt = PacketHeader::five_tuple(0x0A01_0203, 0, 4000, 84, 6);
//! assert_eq!(tcam.classify(&pkt), rs.classify_linear(&pkt));
//!
//! // The 80–88 port range is not prefix-aligned, so it expands into
//! // several ternary entries — the storage-efficiency cost the paper
//! // holds against TCAMs.
//! assert!(tcam.stats().entries > rs.len());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pclass_types::{
    Dimension, FieldRange, MatchResult, PacketHeader, Prefix, Rule, RuleId, RuleSet, FIELD_COUNT,
};

/// One ternary entry: a (value, care-mask) pair per field.  A packet matches
/// the entry when `(packet_field & mask) == value` for every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamEntry {
    /// Field values (bits outside the mask are stored as 0).
    pub value: [u32; FIELD_COUNT],
    /// Care masks (1 bits are compared, 0 bits are "don't care").
    pub mask: [u32; FIELD_COUNT],
    /// The rule this entry belongs to.
    pub rule: RuleId,
}

impl TcamEntry {
    /// `true` if the packet matches this entry.
    #[inline]
    pub fn matches(&self, pkt: &PacketHeader) -> bool {
        for d in 0..FIELD_COUNT {
            if pkt.fields[d] & self.mask[d] != self.value[d] {
                return false;
            }
        }
        true
    }
}

/// Storage statistics of a programmed TCAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcamStats {
    /// Rules in the original ruleset.
    pub rules: usize,
    /// Ternary entries after range-to-prefix expansion.
    pub entries: usize,
    /// Average entries per rule.
    pub expansion_factor: f64,
    /// Storage efficiency (`rules / entries`) — the paper quotes 16–53 %
    /// with an average of 34 % for real databases.
    pub storage_efficiency: f64,
    /// Bits of TCAM storage used, at the standard 144-bit slot width.
    pub storage_bits: usize,
}

/// Width of one TCAM slot in bits (the 144-bit quad-word the Ayama parts and
/// the paper use for a 5-tuple key).
pub const TCAM_SLOT_BITS: usize = 144;

/// Errors raised while programming the TCAM model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcamError {
    /// A rule's IP field is neither a prefix nor expressible as one, so it
    /// cannot be converted to ternary form.
    UnsupportedIpRange {
        /// The offending rule.
        rule: RuleId,
        /// The offending dimension.
        dimension: Dimension,
    },
}

impl std::fmt::Display for TcamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcamError::UnsupportedIpRange { rule, dimension } => {
                write!(
                    f,
                    "rule {rule}: {dimension} range cannot be expressed as a prefix set"
                )
            }
        }
    }
}

impl std::error::Error for TcamError {}

/// The functional TCAM model.
#[derive(Debug, Clone)]
pub struct TcamClassifier {
    entries: Vec<TcamEntry>,
    rules: usize,
}

impl TcamClassifier {
    /// Programs the TCAM with a ruleset, expanding every range field into
    /// prefixes.  Entries retain ruleset priority order (entries of rule *k*
    /// come before entries of rule *k + 1*), which is how a real TCAM's
    /// priority encoder resolves multiple matches.
    pub fn program(ruleset: &RuleSet) -> Result<TcamClassifier, TcamError> {
        let mut entries = Vec::new();
        for rule in ruleset.rules() {
            for entry in expand_rule(rule, ruleset)? {
                entries.push(entry);
            }
        }
        Ok(TcamClassifier {
            entries,
            rules: ruleset.len(),
        })
    }

    /// The programmed entries.
    pub fn entries(&self) -> &[TcamEntry] {
        &self.entries
    }

    /// Classifies a packet: all entries are compared in parallel in hardware;
    /// the model scans in priority order and returns the first match, which
    /// is the same answer the priority encoder gives.
    pub fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        for entry in &self.entries {
            if entry.matches(pkt) {
                return MatchResult::Matched(entry.rule);
            }
        }
        MatchResult::NoMatch
    }

    /// Storage statistics.
    pub fn stats(&self) -> TcamStats {
        let entries = self.entries.len();
        let rules = self.rules;
        TcamStats {
            rules,
            entries,
            expansion_factor: if rules == 0 {
                0.0
            } else {
                entries as f64 / rules as f64
            },
            storage_efficiency: if entries == 0 {
                0.0
            } else {
                rules as f64 / entries as f64
            },
            storage_bits: entries * TCAM_SLOT_BITS,
        }
    }
}

impl pclass_algos::Classifier for TcamClassifier {
    fn name(&self) -> &'static str {
        "tcam"
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        TcamClassifier::classify(self, pkt)
    }

    fn classify_with_stats(
        &self,
        pkt: &PacketHeader,
        stats: &mut pclass_algos::LookupStats,
    ) -> MatchResult {
        // A real TCAM compares every entry against the key in one clock and
        // priority-encodes the result: one memory access for the lookup, all
        // entries compared in parallel.  The comparator work is charged to
        // the ALU column so energy models see the match fabric's activity.
        stats.memory_accesses += 1;
        stats.rules_compared += self.entries.len() as u64;
        stats.ops.loads += 1;
        stats.ops.alu += self.entries.len() as u64;
        TcamClassifier::classify(self, pkt)
    }

    fn memory_bytes(&self) -> usize {
        self.stats().storage_bits.div_ceil(8)
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        // The parallel match makes every lookup a single access.
        Some(1)
    }
}

/// Expands one rule into ternary entries: the cross product of the prefix
/// expansions of its two port ranges (IP fields are prefixes already;
/// protocol is exact or wildcard).
fn expand_rule(rule: &Rule, ruleset: &RuleSet) -> Result<Vec<TcamEntry>, TcamError> {
    let ip = |dim: Dimension| -> Result<(u32, u32), TcamError> {
        let range = rule.range(dim);
        let width = ruleset.spec().width(dim);
        match Prefix::from_range(range, width) {
            Some(p) => {
                let mask = mask_of(p.length, width);
                Ok((p.value & mask, mask))
            }
            None => Err(TcamError::UnsupportedIpRange {
                rule: rule.id,
                dimension: dim,
            }),
        }
    };
    let (src_v, src_m) = ip(Dimension::SrcIp)?;
    let (dst_v, dst_m) = ip(Dimension::DstIp)?;

    let ternary = |dim: Dimension| range_to_ternary(rule.range(dim), ruleset.spec().width(dim));
    let sports = ternary(Dimension::SrcPort);
    let dports = ternary(Dimension::DstPort);
    let protos = ternary(Dimension::Protocol);

    let mut out = Vec::with_capacity(sports.len() * dports.len() * protos.len());
    for &(sp_v, sp_m) in &sports {
        for &(dp_v, dp_m) in &dports {
            for &(pr_v, pr_m) in &protos {
                out.push(TcamEntry {
                    value: [src_v, dst_v, sp_v, dp_v, pr_v],
                    mask: [src_m, dst_m, sp_m, dp_m, pr_m],
                    rule: rule.id,
                });
            }
        }
    }
    Ok(out)
}

/// Care mask of a prefix of `length` bits over a `width`-bit field.
fn mask_of(length: u8, width: u8) -> u32 {
    if length == 0 {
        0
    } else {
        let full = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        if length >= width {
            full
        } else {
            full & !((1u32 << (width - length)) - 1)
        }
    }
}

/// Expands a full range into `(value, mask)` ternary pairs: the port and
/// protocol fields of every programmed rule.
pub fn range_to_ternary(range: FieldRange, width: u8) -> Vec<(u32, u32)> {
    Prefix::expand_range(range, width)
        .into_iter()
        .map(|p| (p.value & mask_of(p.length, width), mask_of(p.length, width)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_types::{DimensionSpec, RuleBuilder};

    fn sample_set() -> RuleSet {
        let rules = vec![
            RuleBuilder::new(0)
                .src_prefix(0x0A00_0000, 8)
                .dst_prefix(0xC0A8_0100, 24)
                .dst_port(80)
                .protocol(6)
                .build(),
            RuleBuilder::new(1)
                .src_port_range(1024, 65535) // expands to 6 prefixes
                .protocol(17)
                .build(),
            RuleBuilder::new(2).build(),
        ];
        RuleSet::new("tcam_test", DimensionSpec::FIVE_TUPLE, rules).unwrap()
    }

    #[test]
    fn classification_matches_linear_search() {
        let rs = sample_set();
        let tcam = TcamClassifier::program(&rs).unwrap();
        let packets = [
            PacketHeader::five_tuple(0x0A01_0101, 0xC0A8_0105, 4000, 80, 6),
            PacketHeader::five_tuple(0x0A01_0101, 0xC0A8_0105, 4000, 81, 6),
            PacketHeader::five_tuple(0x0B01_0101, 0x01020304, 2048, 53, 17),
            PacketHeader::five_tuple(0x0B01_0101, 0x01020304, 80, 53, 17),
            PacketHeader::five_tuple(0, 0, 0, 0, 0),
        ];
        for pkt in packets {
            assert_eq!(
                tcam.classify(&pkt),
                rs.classify_linear(&pkt),
                "packet {pkt}"
            );
        }
    }

    #[test]
    fn range_expansion_counts() {
        let rs = sample_set();
        let tcam = TcamClassifier::program(&rs).unwrap();
        let stats = tcam.stats();
        assert_eq!(stats.rules, 3);
        // Rule 0: 1 entry; rule 1: 6 (ephemeral range) entries; rule 2: 1.
        assert_eq!(stats.entries, 8);
        assert!((stats.expansion_factor - 8.0 / 3.0).abs() < 1e-9);
        assert!((stats.storage_efficiency - 3.0 / 8.0).abs() < 1e-9);
        assert_eq!(stats.storage_bits, 8 * TCAM_SLOT_BITS);
    }

    #[test]
    fn ephemeral_range_expands_to_six_prefixes() {
        let pairs = range_to_ternary(FieldRange::new(1024, 65535), 16);
        assert_eq!(pairs.len(), 6);
        // The pairs exactly cover [1024, 65535].
        for v in [0u32, 1023, 1024, 2048, 65535] {
            let covered = pairs.iter().any(|&(val, mask)| v & mask == val);
            assert_eq!(covered, v >= 1024, "value {v}");
        }
    }

    #[test]
    fn storage_efficiency_degrades_with_arbitrary_ranges() {
        let rules = vec![
            RuleBuilder::new(0).dst_port_range(123, 7777).build(),
            RuleBuilder::new(1)
                .src_port_range(5, 60_000)
                .dst_port_range(3, 60_001)
                .build(),
        ];
        let rs = RuleSet::new("ranges", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        let tcam = TcamClassifier::program(&rs).unwrap();
        let stats = tcam.stats();
        assert!(
            stats.storage_efficiency < 0.05,
            "efficiency {}",
            stats.storage_efficiency
        );
        // Correctness is preserved regardless of the expansion.
        for (sp, dp) in [(5u16, 3u16), (100, 123), (60_000, 7_777), (60_001, 60_002)] {
            let pkt = PacketHeader::five_tuple(1, 2, sp, dp, 6);
            assert_eq!(tcam.classify(&pkt), rs.classify_linear(&pkt));
        }
    }

    #[test]
    fn non_prefix_ip_is_rejected() {
        let rules = vec![RuleBuilder::new(0).src_ip_range(3, 9).build()];
        let rs = RuleSet::new("bad", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        let err = TcamClassifier::program(&rs).unwrap_err();
        assert!(matches!(
            err,
            TcamError::UnsupportedIpRange {
                rule: 0,
                dimension: Dimension::SrcIp
            }
        ));
    }

    #[test]
    fn empty_ruleset() {
        let rs = RuleSet::new("empty", DimensionSpec::FIVE_TUPLE, vec![]).unwrap();
        let tcam = TcamClassifier::program(&rs).unwrap();
        assert_eq!(
            tcam.classify(&PacketHeader::five_tuple(1, 2, 3, 4, 5)),
            MatchResult::NoMatch
        );
        let stats = tcam.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.storage_efficiency, 0.0);
    }

    #[test]
    fn classifier_trait_impl_matches_inherent_lookup() {
        use pclass_algos::Classifier;
        let rs = sample_set();
        let tcam = TcamClassifier::program(&rs).unwrap();
        assert_eq!(Classifier::name(&tcam), "tcam");
        assert_eq!(tcam.worst_case_memory_accesses(), Some(1));
        assert_eq!(tcam.memory_bytes(), tcam.stats().storage_bits.div_ceil(8));
        let pkts: Vec<PacketHeader> = (0u32..40)
            .map(|i| PacketHeader::five_tuple(0x0A01_0101 ^ i, 0xC0A8_0105, 4000, 80, 6))
            .collect();
        let mut batched = Vec::new();
        tcam.classify_batch(&pkts, &mut batched);
        for (pkt, got) in pkts.iter().zip(&batched) {
            assert_eq!(*got, TcamClassifier::classify(&tcam, pkt));
        }
        let mut stats = pclass_algos::LookupStats::new();
        tcam.classify_with_stats(&pkts[0], &mut stats);
        assert_eq!(stats.memory_accesses, 1);
        assert_eq!(stats.rules_compared, tcam.entries().len() as u64);
    }

    #[test]
    fn priority_resolution_prefers_lower_rule_id() {
        let rules = vec![
            RuleBuilder::new(0).protocol(6).build(),
            RuleBuilder::new(1).build(),
        ];
        let rs = RuleSet::new("prio", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        let tcam = TcamClassifier::program(&rs).unwrap();
        let tcp = PacketHeader::five_tuple(1, 2, 3, 4, 6);
        assert_eq!(tcam.classify(&tcp), MatchResult::Matched(0));
        let udp = PacketHeader::five_tuple(1, 2, 3, 4, 17);
        assert_eq!(tcam.classify(&udp), MatchResult::Matched(1));
    }
}
