//! Packet-header dimensions and per-dimension bit widths.

use serde::Serialize;

/// Number of header fields (dimensions) used for classification.
pub const FIELD_COUNT: usize = 5;

/// One of the five classification dimensions.
///
/// The ordering matches the field order used throughout the paper and the
/// ClassBench filter format: source address, destination address, source
/// port, destination port, protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[repr(usize)]
pub enum Dimension {
    /// Source IPv4 address (32 bits).
    SrcIp = 0,
    /// Destination IPv4 address (32 bits).
    DstIp = 1,
    /// Transport-layer source port (16 bits).
    SrcPort = 2,
    /// Transport-layer destination port (16 bits).
    DstPort = 3,
    /// IP protocol number (8 bits).
    Protocol = 4,
}

impl Dimension {
    /// All dimensions in field order.
    pub const ALL: [Dimension; FIELD_COUNT] = [
        Dimension::SrcIp,
        Dimension::DstIp,
        Dimension::SrcPort,
        Dimension::DstPort,
        Dimension::Protocol,
    ];

    /// Index of this dimension in field order (0..5).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short human-readable name used by dump/debug output.
    pub const fn name(self) -> &'static str {
        match self {
            Dimension::SrcIp => "src_ip",
            Dimension::DstIp => "dst_ip",
            Dimension::SrcPort => "src_port",
            Dimension::DstPort => "dst_port",
            Dimension::Protocol => "protocol",
        }
    }
}

impl std::fmt::Display for Dimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-dimension bit widths of the classification space.
///
/// The standard 5-tuple geometry is [`DimensionSpec::FIVE_TUPLE`]
/// (32/32/16/16/8 bits).  The toy ruleset of Table 1 in the paper uses five
/// 8-bit fields ([`DimensionSpec::TOY`]).  All algorithms take the widths
/// from the ruleset rather than hard-coding them so that both geometries (and
/// any test geometry) are exercised by the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct DimensionSpec {
    /// Bit width of each dimension in field order.
    pub bits: [u8; FIELD_COUNT],
}

impl DimensionSpec {
    /// The real IPv4 5-tuple geometry: 32, 32, 16, 16 and 8 bits.
    pub const FIVE_TUPLE: DimensionSpec = DimensionSpec {
        bits: [32, 32, 16, 16, 8],
    };

    /// The toy geometry of Table 1 in the paper: five 8-bit fields.
    pub const TOY: DimensionSpec = DimensionSpec {
        bits: [8, 8, 8, 8, 8],
    };

    /// Creates a spec from explicit per-dimension bit widths.
    ///
    /// # Panics
    /// Panics if any width is 0 or greater than 32.
    pub fn new(bits: [u8; FIELD_COUNT]) -> DimensionSpec {
        for (i, &b) in bits.iter().enumerate() {
            assert!(
                (1..=32).contains(&b),
                "dimension {i} width must be in 1..=32, got {b}"
            );
        }
        DimensionSpec { bits }
    }

    /// Bit width of dimension `dim`.
    #[inline]
    pub const fn width(&self, dim: Dimension) -> u8 {
        self.bits[dim as usize]
    }

    /// Maximum representable value of dimension `dim`
    /// (i.e. `2^width - 1`).
    #[inline]
    pub fn max_value(&self, dim: Dimension) -> u32 {
        let w = self.width(dim) as u32;
        if w >= 32 {
            u32::MAX
        } else {
            (1u32 << w) - 1
        }
    }

    /// The 8 most significant bits of a value in dimension `dim`.
    ///
    /// The hardware accelerator's cut-selection logic operates on the 8 MSBs
    /// of every dimension (Section 3 of the paper); narrower dimensions are
    /// left-aligned so the protocol field uses all of its 8 bits.
    #[inline]
    pub fn msb8(&self, dim: Dimension, value: u32) -> u8 {
        let w = self.width(dim) as u32;
        if w <= 8 {
            (value << (8 - w)) as u8
        } else {
            (value >> (w - 8)) as u8
        }
    }
}

impl Default for DimensionSpec {
    fn default() -> Self {
        DimensionSpec::FIVE_TUPLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_roundtrip() {
        for (i, d) in Dimension::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn dimension_names_unique() {
        let mut names: Vec<&str> = Dimension::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIELD_COUNT);
    }

    #[test]
    fn five_tuple_widths() {
        let s = DimensionSpec::FIVE_TUPLE;
        assert_eq!(s.width(Dimension::SrcIp), 32);
        assert_eq!(s.width(Dimension::DstIp), 32);
        assert_eq!(s.width(Dimension::SrcPort), 16);
        assert_eq!(s.width(Dimension::DstPort), 16);
        assert_eq!(s.width(Dimension::Protocol), 8);
    }

    #[test]
    fn toy_widths() {
        let s = DimensionSpec::TOY;
        assert_eq!(s.bits, [8; FIELD_COUNT]);
        for d in Dimension::ALL {
            assert_eq!(s.max_value(d), 255);
        }
    }

    #[test]
    fn max_values() {
        let s = DimensionSpec::FIVE_TUPLE;
        assert_eq!(s.max_value(Dimension::SrcIp), u32::MAX);
        assert_eq!(s.max_value(Dimension::SrcPort), 65535);
        assert_eq!(s.max_value(Dimension::Protocol), 255);
    }

    #[test]
    fn msb8_wide_dimension() {
        let s = DimensionSpec::FIVE_TUPLE;
        assert_eq!(s.msb8(Dimension::SrcIp, 0xAB00_0000), 0xAB);
        assert_eq!(s.msb8(Dimension::SrcPort, 0xAB00), 0xAB);
    }

    #[test]
    fn msb8_narrow_dimension_is_left_aligned() {
        let s = DimensionSpec::FIVE_TUPLE;
        assert_eq!(s.msb8(Dimension::Protocol, 0x11), 0x11);
        let toy = DimensionSpec::new([4, 8, 8, 8, 8]);
        // 4-bit dimension: value 0xF maps to the top nibble.
        assert_eq!(toy.msb8(Dimension::SrcIp, 0xF), 0xF0);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        DimensionSpec::new([0, 32, 16, 16, 8]);
    }

    #[test]
    #[should_panic]
    fn oversized_width_rejected() {
        DimensionSpec::new([33, 32, 16, 16, 8]);
    }
}
