//! IPv4-style prefixes and prefix/range conversions.

use crate::range::FieldRange;
use serde::Serialize;

/// A value/length prefix over a field of up to 32 bits, e.g. `192.168.0.0/16`.
///
/// Prefixes are how ClassBench-style rulesets express IP address matches and
/// how the hardware rule encoding of the paper stores them (32-bit address
/// plus a mask length, compressed to 3 bits for lengths 0–27 by folding the
/// encoded length into the low address bits — see `pclass-core::encode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Prefix {
    /// Prefix value, aligned to the most significant bits of the field.
    pub value: u32,
    /// Number of significant leading bits (0..=width).
    pub length: u8,
    /// Total bit width of the field the prefix applies to (usually 32).
    pub width: u8,
}

impl Prefix {
    /// Creates a prefix over a `width`-bit field.
    ///
    /// The value is masked so that bits below the prefix length are cleared.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than 32, or if `length > width`.
    pub fn new(value: u32, length: u8, width: u8) -> Prefix {
        assert!((1..=32).contains(&width), "prefix width must be 1..=32");
        assert!(
            length <= width,
            "prefix length {length} exceeds width {width}"
        );
        Prefix {
            value: value & Self::mask(length, width),
            length,
            width,
        }
    }

    /// Creates a 32-bit IPv4 prefix.
    pub fn ipv4(value: u32, length: u8) -> Prefix {
        Prefix::new(value, length, 32)
    }

    /// Network mask for a prefix of `length` bits over a `width`-bit field.
    fn mask(length: u8, width: u8) -> u32 {
        if length == 0 {
            0
        } else {
            let ones = if length >= 32 {
                u32::MAX
            } else {
                ((1u32 << length) - 1) << (32 - length)
            };
            // Right-align to the actual field width.
            ones >> (32 - width)
        }
    }

    /// `true` if `v` falls inside the prefix.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let m = Self::mask(self.length, self.width);
        (v & m) == self.value
    }

    /// The contiguous value range covered by this prefix.
    pub fn to_range(&self) -> FieldRange {
        let m = Self::mask(self.length, self.width);
        let span = if self.width >= 32 {
            u32::MAX
        } else {
            (1u32 << self.width) - 1
        };
        FieldRange::new(self.value, self.value | (span & !m))
    }

    /// Converts a range back into a prefix if (and only if) the range is
    /// exactly expressible as one prefix over a `width`-bit field.
    pub fn from_range(range: FieldRange, width: u8) -> Option<Prefix> {
        let len = range.len();
        if !len.is_power_of_two() {
            return None;
        }
        let bits_free = len.trailing_zeros() as u8;
        if bits_free > width {
            return None;
        }
        let length = width - bits_free;
        let p = Prefix::new(range.lo, length, width);
        if p.to_range() == range {
            Some(p)
        } else {
            None
        }
    }

    /// Decomposes an arbitrary range into the minimal list of prefixes that
    /// exactly covers it.
    ///
    /// This is the classic range-to-prefix expansion TCAMs must perform for
    /// port ranges; a `[lo, hi]` range over a `width`-bit field expands into
    /// at most `2*width - 2` prefixes.  `pclass-tcam` uses this to reproduce
    /// the paper's storage-efficiency argument (16–53 % for real rulesets).
    pub fn expand_range(range: FieldRange, width: u8) -> Vec<Prefix> {
        let mut out = Vec::new();
        let field_max: u64 = if width >= 32 {
            u64::from(u32::MAX)
        } else {
            (1u64 << width) - 1
        };
        assert!(
            u64::from(range.hi) <= field_max,
            "range exceeds field width"
        );
        let mut lo = u64::from(range.lo);
        let hi = u64::from(range.hi);
        while lo <= hi {
            // Largest aligned block starting at `lo` that fits within [lo, hi].
            let max_align = if lo == 0 {
                width as u32
            } else {
                lo.trailing_zeros().min(width as u32)
            };
            let mut block_bits = max_align;
            while block_bits > 0 && lo + (1u64 << block_bits) - 1 > hi {
                block_bits -= 1;
            }
            let length = width - block_bits as u8;
            out.push(Prefix::new(lo as u32, length, width));
            lo += 1u64 << block_bits;
            if lo == 0 {
                break; // wrapped past the top of a 32-bit field
            }
        }
        out
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.width == 32 {
            let v = self.value;
            write!(
                f,
                "{}.{}.{}.{}/{}",
                (v >> 24) & 0xFF,
                (v >> 16) & 0xFF,
                (v >> 8) & 0xFF,
                v & 0xFF,
                self.length
            )
        } else {
            write!(f, "{:#x}/{} (w{})", self.value, self.length, self.width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wildcard_covers_everything() {
        let p = Prefix::ipv4(0, 0);
        assert_eq!(p.to_range(), FieldRange::full(32));
        assert!(p.contains(0));
        assert!(p.contains(u32::MAX));
    }

    #[test]
    fn host_prefix_is_exact() {
        let p = Prefix::ipv4(0xC0A8_0001, 32);
        assert_eq!(p.to_range(), FieldRange::exact(0xC0A8_0001));
        assert!(p.contains(0xC0A8_0001));
        assert!(!p.contains(0xC0A8_0002));
    }

    #[test]
    fn slash16_range() {
        let p = Prefix::ipv4(0xC0A8_0000, 16);
        assert_eq!(p.to_range(), FieldRange::new(0xC0A8_0000, 0xC0A8_FFFF));
        assert!(p.contains(0xC0A8_1234));
        assert!(!p.contains(0xC0A9_0000));
    }

    #[test]
    fn value_is_masked_on_construction() {
        let p = Prefix::ipv4(0xC0A8_1234, 16);
        assert_eq!(p.value, 0xC0A8_0000);
    }

    #[test]
    fn narrow_width_prefix() {
        // 16-bit field, /8 prefix on value 0xAB00.
        let p = Prefix::new(0xAB00, 8, 16);
        assert_eq!(p.to_range(), FieldRange::new(0xAB00, 0xABFF));
        assert!(p.contains(0xAB7F));
        assert!(!p.contains(0xAC00));
    }

    #[test]
    fn from_range_roundtrip() {
        let p = Prefix::ipv4(0x0A00_0000, 8);
        assert_eq!(Prefix::from_range(p.to_range(), 32), Some(p));
        // A non-power-of-two range is not a prefix.
        assert_eq!(Prefix::from_range(FieldRange::new(0, 2), 32), None);
        // A power-of-two but misaligned range is not a prefix.
        assert_eq!(Prefix::from_range(FieldRange::new(1, 2), 32), None);
    }

    #[test]
    fn expand_classic_port_range() {
        // The canonical example: [1, 13] over 4 bits needs several prefixes.
        let prefixes = Prefix::expand_range(FieldRange::new(1, 13), 4);
        // Cover check.
        for v in 0..16u32 {
            let covered = prefixes.iter().any(|p| p.contains(v));
            assert_eq!(covered, (1..=13).contains(&v), "value {v}");
        }
        // Known minimal decomposition size for [1,13]/4 is 5.
        assert_eq!(prefixes.len(), 5);
    }

    #[test]
    fn expand_full_range_is_single_wildcard() {
        let prefixes = Prefix::expand_range(FieldRange::full(16), 16);
        assert_eq!(prefixes.len(), 1);
        assert_eq!(prefixes[0].length, 0);
    }

    #[test]
    fn expand_exact_value() {
        let prefixes = Prefix::expand_range(FieldRange::exact(80), 16);
        assert_eq!(prefixes.len(), 1);
        assert_eq!(prefixes[0].length, 16);
        assert_eq!(prefixes[0].value, 80);
    }

    #[test]
    fn expand_full_u32_range() {
        let prefixes = Prefix::expand_range(FieldRange::full(32), 32);
        assert_eq!(prefixes.len(), 1);
        assert_eq!(prefixes[0].length, 0);
    }

    proptest! {
        #[test]
        fn prop_prefix_range_consistency(value in any::<u32>(), length in 0u8..=32) {
            let p = Prefix::ipv4(value, length);
            let r = p.to_range();
            prop_assert_eq!(r.len(), 1u64 << (32 - length));
            prop_assert!(p.contains(r.lo));
            prop_assert!(p.contains(r.hi));
            prop_assert_eq!(Prefix::from_range(r, 32), Some(p));
        }

        #[test]
        fn prop_expand_covers_exactly(lo in 0u32..60_000, w in 0u32..6_000) {
            let range = FieldRange::new(lo, (lo + w).min(65_535));
            let prefixes = Prefix::expand_range(range, 16);
            // Expansion bound from the literature: at most 2*width - 2.
            prop_assert!(prefixes.len() <= 30);
            // Prefixes are disjoint and exactly cover the range.
            let total: u64 = prefixes.iter().map(|p| p.to_range().len()).sum();
            prop_assert_eq!(total, range.len());
            for p in &prefixes {
                prop_assert!(range.covers(&p.to_range()));
            }
            for (i, a) in prefixes.iter().enumerate() {
                for b in prefixes.iter().skip(i + 1) {
                    prop_assert!(!a.to_range().overlaps(&b.to_range()));
                }
            }
        }
    }
}
