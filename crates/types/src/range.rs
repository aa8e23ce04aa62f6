//! Inclusive integer ranges over a single classification dimension.

use serde::Serialize;

/// An inclusive range `[lo, hi]` of header-field values in one dimension.
///
/// This is the geometric primitive of the decision-tree algorithms: every
/// rule is a product of five `FieldRange`s, and every cut partitions one
/// dimension of a node's covered region into equal-width sub-ranges.
///
/// Invariant: `lo <= hi` (enforced by [`FieldRange::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct FieldRange {
    /// Smallest value contained in the range.
    pub lo: u32,
    /// Largest value contained in the range.
    pub hi: u32,
}

impl FieldRange {
    /// Creates a range.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn new(lo: u32, hi: u32) -> FieldRange {
        assert!(lo <= hi, "invalid range: lo={lo} > hi={hi}");
        FieldRange { lo, hi }
    }

    /// The single-value range `[v, v]`.
    #[inline]
    pub const fn exact(v: u32) -> FieldRange {
        FieldRange { lo: v, hi: v }
    }

    /// The full range `[0, max]` of a dimension with the given bit width.
    #[inline]
    pub fn full(bits: u8) -> FieldRange {
        let hi = if bits >= 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        FieldRange { lo: 0, hi }
    }

    /// Number of values contained in the range (as `u64` because the full
    /// 32-bit range has 2^32 values).
    #[inline]
    pub fn len(&self) -> u64 {
        u64::from(self.hi) - u64::from(self.lo) + 1
    }

    /// A range is never empty (the invariant guarantees at least one value),
    /// so this always returns `false`; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if the range covers exactly one value.
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// `true` if `v` lies inside the range.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `true` if the two ranges share at least one value.
    #[inline]
    pub fn overlaps(&self, other: &FieldRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// `true` if `other` lies entirely inside `self`.
    #[inline]
    pub fn covers(&self, other: &FieldRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Intersection of two ranges, or `None` if they do not overlap.
    #[inline]
    pub fn intersect(&self, other: &FieldRange) -> Option<FieldRange> {
        if self.overlaps(other) {
            Some(FieldRange {
                lo: self.lo.max(other.lo),
                hi: self.hi.min(other.hi),
            })
        } else {
            None
        }
    }

    /// Splits the range into `parts` equal-width sub-ranges, the way a
    /// HiCuts/HyperCuts cut partitions a node's covered region.
    ///
    /// When the range length is not a multiple of `parts` the remainder is
    /// spread over the leading sub-ranges so that widths differ by at most
    /// one; when `parts` exceeds the number of values, the trailing
    /// sub-ranges are collapsed onto the last value (matching the behaviour
    /// of cutting an already-exact region: the extra children are empty of
    /// new space and end up merged/eliminated by the builder).
    pub fn split(&self, parts: u32) -> Vec<FieldRange> {
        assert!(parts > 0, "cannot split a range into 0 parts");
        let total = self.len();
        let parts64 = u64::from(parts);
        let mut out = Vec::with_capacity(parts as usize);
        if parts64 >= total {
            // One value per child until values run out, then repeat the last
            // value so that callers always receive exactly `parts` children.
            for i in 0..parts64 {
                let v = if i < total {
                    self.lo + i as u32
                } else {
                    self.hi
                };
                out.push(FieldRange::exact(v));
            }
            return out;
        }
        let base = total / parts64;
        let rem = total % parts64;
        let mut cursor = u64::from(self.lo);
        for i in 0..parts64 {
            let width = base + if i < rem { 1 } else { 0 };
            let lo = cursor as u32;
            let hi = (cursor + width - 1) as u32;
            out.push(FieldRange { lo, hi });
            cursor += width;
        }
        debug_assert_eq!(cursor, u64::from(self.hi) + 1);
        out
    }

    /// Index of the sub-range (out of `parts`, as produced by [`split`])
    /// that contains the value `v`.
    ///
    /// This is the software mirror of the hardware accelerator's child
    /// selection: given a node cut into `parts` children along one dimension,
    /// it returns which child a packet value falls into.
    ///
    /// # Panics
    /// Panics if `v` is not contained in the range.
    ///
    /// [`split`]: FieldRange::split
    pub fn index_of(&self, parts: u32, v: u32) -> u32 {
        assert!(self.contains(v), "value {v} outside range {self}");
        let total = self.len();
        let parts64 = u64::from(parts);
        let offset = u64::from(v) - u64::from(self.lo);
        if parts64 >= total {
            // One value per child; extra children collapse onto the last
            // value, so the first child holding `v` is simply the offset.
            return offset as u32;
        }
        let base = total / parts64;
        let rem = total % parts64;
        // The first `rem` children have width base+1, the rest width base.
        let wide_span = rem * (base + 1);
        let idx = if offset < wide_span {
            offset / (base + 1)
        } else {
            rem + (offset - wide_span) / base
        };
        idx as u32
    }

    /// The `i`-th of `parts` equal-width sub-ranges without materialising the
    /// whole split.  Follows the same width distribution as [`split`].
    ///
    /// [`split`]: FieldRange::split
    pub fn split_child(&self, parts: u32, i: u32) -> FieldRange {
        assert!(i < parts, "child index {i} out of range for {parts} parts");
        let total = self.len();
        let parts64 = u64::from(parts);
        let i64 = u64::from(i);
        if parts64 >= total {
            let v = if i64 < total { self.lo + i } else { self.hi };
            return FieldRange::exact(v);
        }
        let base = total / parts64;
        let rem = total % parts64;
        let start = i64 * base + i64.min(rem);
        let width = base + if i64 < rem { 1 } else { 0 };
        FieldRange {
            lo: (u64::from(self.lo) + start) as u32,
            hi: (u64::from(self.lo) + start + width - 1) as u32,
        }
    }
}

impl std::fmt::Display for FieldRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}-{}", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_properties() {
        let r = FieldRange::new(10, 20);
        assert_eq!(r.len(), 11);
        assert!(r.contains(10));
        assert!(r.contains(20));
        assert!(!r.contains(9));
        assert!(!r.contains(21));
        assert!(!r.is_exact());
        assert!(FieldRange::exact(7).is_exact());
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic]
    fn inverted_range_rejected() {
        FieldRange::new(5, 4);
    }

    #[test]
    fn full_range_widths() {
        assert_eq!(FieldRange::full(8), FieldRange::new(0, 255));
        assert_eq!(FieldRange::full(16), FieldRange::new(0, 65535));
        assert_eq!(FieldRange::full(32), FieldRange::new(0, u32::MAX));
        assert_eq!(FieldRange::full(32).len(), 1u64 << 32);
    }

    #[test]
    fn overlap_and_intersection() {
        let a = FieldRange::new(0, 100);
        let b = FieldRange::new(50, 150);
        let c = FieldRange::new(101, 200);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersect(&b), Some(FieldRange::new(50, 100)));
        assert_eq!(a.intersect(&c), None);
        assert!(a.covers(&FieldRange::new(10, 20)));
        assert!(!a.covers(&b));
    }

    #[test]
    fn split_even() {
        let r = FieldRange::new(0, 255);
        let parts = r.split(4);
        assert_eq!(
            parts,
            vec![
                FieldRange::new(0, 63),
                FieldRange::new(64, 127),
                FieldRange::new(128, 191),
                FieldRange::new(192, 255)
            ]
        );
    }

    #[test]
    fn split_uneven_distributes_remainder() {
        let r = FieldRange::new(0, 9);
        let parts = r.split(3);
        assert_eq!(
            parts,
            vec![
                FieldRange::new(0, 3),
                FieldRange::new(4, 6),
                FieldRange::new(7, 9)
            ]
        );
    }

    #[test]
    fn split_more_parts_than_values() {
        let r = FieldRange::new(5, 6);
        let parts = r.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], FieldRange::exact(5));
        assert_eq!(parts[1], FieldRange::exact(6));
        assert_eq!(parts[2], FieldRange::exact(6));
        assert_eq!(parts[3], FieldRange::exact(6));
    }

    #[test]
    fn split_full_u32_range() {
        let r = FieldRange::full(32);
        let parts = r.split(2);
        assert_eq!(parts[0], FieldRange::new(0, 0x7FFF_FFFF));
        assert_eq!(parts[1], FieldRange::new(0x8000_0000, u32::MAX));
    }

    #[test]
    fn display_formats() {
        assert_eq!(FieldRange::new(3, 9).to_string(), "3-9");
        assert_eq!(FieldRange::exact(42).to_string(), "42");
    }

    proptest! {
        #[test]
        fn prop_split_partitions(lo in 0u32..10_000, width in 0u32..10_000, parts in 1u32..64) {
            let r = FieldRange::new(lo, lo + width);
            let children = r.split(parts);
            prop_assert_eq!(children.len(), parts as usize);
            // Children must cover the parent exactly (when parts <= len) and
            // be ordered and non-overlapping except for collapsed tails.
            if u64::from(parts) <= r.len() {
                prop_assert_eq!(children[0].lo, r.lo);
                prop_assert_eq!(children.last().unwrap().hi, r.hi);
                let total: u64 = children.iter().map(|c| c.len()).sum();
                prop_assert_eq!(total, r.len());
                for w in children.windows(2) {
                    prop_assert_eq!(u64::from(w[0].hi) + 1, u64::from(w[1].lo));
                }
            }
            // Every child is contained in the parent regardless.
            for c in &children {
                prop_assert!(r.covers(c));
            }
        }

        #[test]
        fn prop_split_child_matches_split(lo in 0u32..5_000, width in 0u32..5_000, parts in 1u32..40) {
            let r = FieldRange::new(lo, lo + width);
            let children = r.split(parts);
            for (i, c) in children.iter().enumerate() {
                prop_assert_eq!(*c, r.split_child(parts, i as u32));
            }
        }

        #[test]
        fn prop_index_of_agrees_with_split(lo in 0u32..5_000, width in 0u32..5_000, parts in 1u32..40) {
            let r = FieldRange::new(lo, lo + width);
            let children = r.split(parts);
            // For every value in a sample of the range, the reported child
            // must actually contain the value.
            let step = (r.len() / 50).max(1);
            let mut v = u64::from(r.lo);
            while v <= u64::from(r.hi) {
                let idx = r.index_of(parts, v as u32);
                prop_assert!(children[idx as usize].contains(v as u32),
                             "value {} mapped to child {} = {}", v, idx, children[idx as usize]);
                // And it must be the FIRST child containing the value.
                if idx > 0 {
                    prop_assert!(!children[(idx - 1) as usize].contains(v as u32));
                }
                v += step;
            }
            // Boundary values always checked.
            prop_assert!(children[r.index_of(parts, r.lo) as usize].contains(r.lo));
            prop_assert!(children[r.index_of(parts, r.hi) as usize].contains(r.hi));
        }

        #[test]
        fn prop_intersection_commutative(a_lo in 0u32..1000, a_w in 0u32..1000,
                                         b_lo in 0u32..1000, b_w in 0u32..1000) {
            let a = FieldRange::new(a_lo, a_lo + a_w);
            let b = FieldRange::new(b_lo, b_lo + b_w);
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
            if let Some(i) = a.intersect(&b) {
                prop_assert!(a.covers(&i));
                prop_assert!(b.covers(&i));
            }
        }
    }
}
