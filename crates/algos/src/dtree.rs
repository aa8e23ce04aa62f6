//! The cut-tree builder shared by the software HiCuts and HyperCuts
//! classifiers and the hardware-oriented variants in `pclass-core`.
//!
//! Both algorithms produce the same kind of structure — a tree whose internal
//! nodes cut the covered region into equal-width children along one or more
//! dimensions and whose leaves hold at most `binth` rules — so the builder,
//! the memory model and the statistics are implemented once.  The builder
//! emits straight into the flat arena ([`crate::flat::FlatTree`]), which is
//! the one representation every tree takes: the software classifiers walk
//! it, and the hardware encoder serialises it.  The algorithms differ only
//! in how they choose the dimensions and the number of cuts; those
//! policies live in [`crate::hicuts`] and [`crate::hypercuts`].
//!
//! Everything a cut-tree *builder* needs besides its selection policy is
//! here, written once for the original algorithms and for the
//! hardware-oriented variants in `pclass-core`:
//!
//! * [`cut_histogram`] (the Eq. 1 / Eq. 3 doubling rule of the HiCuts
//!   builders) and [`max_child_occupancy`] (any multi-dimensional cut) —
//!   the cut evaluations.  They count nothing: each builder charges its own
//!   [`BuildStats`] where it calls them, so what an algorithm pays for an
//!   evaluation is stated next to its policy.
//! * [`TreeBuilder`], the node-emission core — leaves, the shared empty
//!   leaf, and the distribute → merge identical children → recurse → patch
//!   step — driven by a [`CutPolicy`].  Four policies exist:
//!   [`crate::hicuts::HiCutsConfig`], [`crate::hypercuts::HyperCutsConfig`]
//!   and, in `pclass-core`, the paper's modified HiCuts and HyperCuts.
//! * [`CutTreeClassifier`] — the one classifier type both
//!   [`crate::hicuts::HiCutsClassifier`] and
//!   [`crate::hypercuts::HyperCutsClassifier`] are: built, served, updated
//!   and reported as one value over one arena.
//!
//! A node costs O(rules + rule references + children) to emit, not
//! O(rules × children).  Every child index — in the cut evaluations and in
//! the distribution — is the walk's own division-free `FlatCut` (see
//! [`crate::flat`]), built once per cut dimension and count.  The
//! distribution is one pass: each rule lands in every child of its
//! child-index box, counted first and then written at offsets into one
//! buffer per node, and identical children are merged through a hash map
//! keyed on their lists.  [`BuildStats`] stay the paper's SA-1100 cost model
//! of the algorithm — a five-field overlap test per child per rule, a
//! division per child-index lookup of the original algorithms — charged in
//! closed form, not a count of the work this host does.

use crate::counters::{BuildStats, LookupStats};
use crate::flat::{FlatCut, FlatTree};
use crate::Classifier;
use pclass_types::{
    ArenaStats, Dimension, FieldRange, MatchResult, PacketHeader, Rule, RuleId, RuleSet,
    FIELD_COUNT,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A cut specification at an internal node: how many equal-width children
/// each dimension is divided into (1 = not cut).  The child array is indexed
/// in mixed radix with the *first* cut dimension as the most significant
/// digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutSpec {
    /// Number of partitions per dimension (all ≥ 1; product = child count).
    pub parts: [u32; FIELD_COUNT],
}

impl CutSpec {
    /// A cut specification that does not cut anything.
    pub fn unit() -> CutSpec {
        CutSpec {
            parts: [1; FIELD_COUNT],
        }
    }

    /// Cut a single dimension into `n` parts (the HiCuts case).
    pub fn single(dim: Dimension, n: u32) -> CutSpec {
        let mut parts = [1u32; FIELD_COUNT];
        parts[dim.index()] = n;
        CutSpec { parts }
    }

    /// Total number of children this cut produces.
    pub fn child_count(&self) -> u64 {
        self.parts.iter().map(|&p| u64::from(p)).product()
    }

    /// Dimensions that are actually cut (parts > 1).
    pub fn cut_dimensions(&self) -> Vec<Dimension> {
        Dimension::ALL
            .iter()
            .copied()
            .filter(|d| self.parts[d.index()] > 1)
            .collect()
    }

    /// Region of the `i`-th child (mixed-radix decomposition of `i`).
    pub fn child_region(
        &self,
        region: &[FieldRange; FIELD_COUNT],
        mut i: u64,
    ) -> [FieldRange; FIELD_COUNT] {
        let mut out = *region;
        // Decompose from the least significant digit (last cut dimension).
        for d in Dimension::ALL.iter().rev() {
            let parts = self.parts[d.index()];
            if parts <= 1 {
                continue;
            }
            let digit = (i % u64::from(parts)) as u32;
            i /= u64::from(parts);
            out[d.index()] = region[d.index()].split_child(parts, digit);
        }
        out
    }
}

/// Memory model used to account the size of *software* search structures
/// (the "Software" columns of Table 2).
///
/// The constants approximate a C implementation on a 32-bit network
/// processor:
///
/// * an internal node stores its cut description and a child-pointer array —
///   [`MemoryModel::INTERNAL_HEADER_BYTES`] plus
///   [`MemoryModel::CHILD_POINTER_BYTES`] per child slot;
/// * a leaf stores a rule count plus one pointer per rule —
///   [`MemoryModel::LEAF_HEADER_BYTES`] plus
///   [`MemoryModel::RULE_POINTER_BYTES`] per stored rule reference;
/// * the ruleset itself is stored once at
///   [`MemoryModel::RULE_BYTES`] per rule (five 32-bit lo/hi pairs packed to
///   18 bytes the way the paper's 144-bit software rule images are).
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel;

impl MemoryModel {
    /// Bytes per internal node excluding the child pointer array.
    pub const INTERNAL_HEADER_BYTES: usize = 16;
    /// Bytes per child pointer slot.
    pub const CHILD_POINTER_BYTES: usize = 4;
    /// Bytes per leaf node excluding the rule pointer array.
    pub const LEAF_HEADER_BYTES: usize = 8;
    /// Bytes per rule pointer stored in a leaf (or in an internal node's
    /// pushed-up rule list).
    pub const RULE_POINTER_BYTES: usize = 4;
    /// Bytes per rule of the stored ruleset.
    pub const RULE_BYTES: usize = 18;
}

/// Aggregate statistics of a built tree (see [`CutTreeClassifier::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of internal nodes.
    pub internal_nodes: usize,
    /// Number of leaf nodes (after merging, i.e. distinct leaves).
    pub leaf_nodes: usize,
    /// Total rule references stored in leaves and pushed-up lists.
    pub stored_rule_refs: usize,
    /// Maximum depth (root = 0).
    pub max_depth: u32,
    /// Maximum number of rules in any leaf.
    pub max_leaf_rules: usize,
    /// Worst-case memory accesses of a lookup: internal nodes on the longest
    /// path (including the root) plus one access per rule of the largest leaf
    /// on that path plus any pushed-up rules checked along the way.
    pub worst_case_accesses: u64,
}

/// The Eq. 1 / Eq. 3 doubling rule along `dim`, and the histogram of the
/// cut it chooses.  Shared by every HiCuts builder, original and modified.
///
/// Starting from `parts` equal cuts of `r`, the cut count doubles while the
/// doubled count stays within `max_parts` and the doubled cut's child rule
/// references plus its child count stay within `budget` (the space measure
/// `spfac · rules`).  Returns the chosen count, the number of doublings
/// evaluated (the last one may be the one refused), and the maximum number
/// of `candidates` any child of the chosen cut would hold.
///
/// This is the inner loop of every HiCuts build, so it stays a lean 1-D pass
/// of its own instead of a special case of [`max_child_occupancy`].  The
/// candidates' ranges along `dim`, clipped to `r`, are gathered once, and a
/// range spanning all of `r` is only counted.  Each evaluated doubling is
/// then a totals-only pass over the rest — Σ(b − a + 1) over each range's
/// first and last child `a` and `b`, with no per-child state, stopped as
/// soon as the budget is exceeded — and only the chosen count pays for a
/// difference array, in the builder's reused scratch: O(candidates) per
/// evaluation plus O(candidates + parts) once.  Child indices come from the
/// walk's own division-free `FlatCut`, built once per count.  It counts
/// nothing: each builder charges its evaluations in closed form where it
/// calls it.
pub fn cut_histogram(
    kit: &mut TreeBuilder<'_>,
    candidates: &[RuleId],
    r: FieldRange,
    dim: Dimension,
    parts: u32,
    max_parts: u32,
    budget: f64,
) -> (u32, u32, usize) {
    let d = dim.index();
    let rules = kit.rules;
    let spans = &mut kit.spans;
    spans.clear();
    // A rule spanning all of `r` lies in every child of every count: it is
    // counted, not gathered.
    let mut whole = 0u64;
    for &id in candidates {
        let range = rules[id as usize].ranges[d];
        let lo = range.lo.max(r.lo);
        let hi = range.hi.min(r.hi);
        if (lo, hi) == (r.lo, r.hi) {
            whole += 1;
        } else if lo <= hi {
            spans.push((lo, hi));
        }
        // Otherwise the rule misses this slice of the dimension: no child.
    }

    let mut parts = parts;
    let mut evaluated = 0;
    while let Some(doubled) = parts.checked_mul(2).filter(|&p| p <= max_parts) {
        evaluated += 1;
        let cut = FlatCut::new(d, doubled, r);
        let refused = |total: u64| total as f64 + f64::from(doubled) > budget;
        // The total only grows, so a partial total over the budget already
        // refuses the doubling.
        let mut total = whole * u64::from(doubled);
        for block in spans.chunks(256) {
            if refused(total) {
                break;
            }
            total += block
                .iter()
                .map(|&(lo, hi)| u64::from(cut.sub_index(hi) - cut.sub_index(lo) + 1))
                .sum::<u64>();
        }
        if refused(total) {
            break;
        }
        parts = doubled;
    }

    let cut = FlatCut::new(d, parts, r);
    let diff = &mut kit.scratch;
    diff.clear();
    diff.resize(parts as usize + 1, 0);
    for &(lo, hi) in spans.iter() {
        diff[cut.sub_index(lo) as usize] += 1;
        diff[cut.sub_index(hi) as usize + 1] -= 1;
    }
    let mut max = 0i64;
    let mut acc = 0i64;
    for v in &diff[..parts as usize] {
        acc += v;
        max = max.max(acc);
    }
    let max = max as u64 + whole;
    (parts, evaluated, max as usize)
}

/// Maximum number of `candidates` any child would hold when `region` is cut
/// into `parts[d]` equal parts along every dimension `d` (1 = not cut).
/// Shared by every tree builder.
///
/// Uses a multi-dimensional difference array (inclusion–exclusion over the
/// corners of each rule's child-index box) followed by a prefix sum, so the
/// cost is O(candidates · 2^dims + children · dims), with the grid in the
/// builder's reused scratch and child indices from the walk's division-free
/// `FlatCut`, built once per cut dimension.  It counts nothing.
pub fn max_child_occupancy(
    kit: &mut TreeBuilder<'_>,
    candidates: &[RuleId],
    region: &[FieldRange; FIELD_COUNT],
    parts: &[u32; FIELD_COUNT],
) -> usize {
    let Some(grid) = ChildGrid::new(region, parts) else {
        return candidates.len();
    };
    let n = grid.dims;
    let cells = grid.cells();
    let counts = &mut kit.scratch;
    counts.clear();
    counts.resize(cells, 0);

    for &id in candidates {
        let rule = &kit.rules[id as usize];
        // Child-index box of the rule in each cut dimension.
        let mut lo_idx = [0u32; FIELD_COUNT];
        let mut hi_idx = [0u32; FIELD_COUNT];
        if !grid.child_box(rule, &mut lo_idx, &mut hi_idx) {
            continue; // outside the region: in no child
        }
        // Inclusion–exclusion: add (-1)^popcount at each corner of the box.
        // A corner one past the high edge of the grid is skipped: cells
        // beyond the grid are never read.
        'corners: for corner in 0..1usize << n {
            let mut index = 0usize;
            for k in 0..n {
                let coord = if corner & (1 << k) == 0 {
                    lo_idx[k] as usize
                } else {
                    hi_idx[k] as usize + 1
                };
                if coord >= grid.cuts[k].parts as usize {
                    continue 'corners;
                }
                index += coord * grid.strides[k];
            }
            counts[index] += if corner.count_ones() % 2 == 0 { 1 } else { -1 };
        }
    }

    // Multi-dimensional prefix sum, one axis at a time: within each block
    // of the axis's `parts` rows, every row but the first adds the one
    // before it.
    for k in 0..n {
        let stride = grid.strides[k];
        let block = stride * grid.cuts[k].parts as usize;
        for start in (0..cells).step_by(block) {
            for cell in start + stride..start + block {
                counts[cell] += counts[cell - stride];
            }
        }
    }
    counts.iter().copied().max().unwrap_or(0).max(0) as usize
}

/// The child grid of a cut: the cut dimensions, most significant first,
/// their walk geometry, and the row-major strides of the child index.
struct ChildGrid {
    /// Number of cut dimensions (the leading entries below are live).
    dims: usize,
    cuts: [FlatCut; FIELD_COUNT],
    strides: [usize; FIELD_COUNT],
}

impl ChildGrid {
    /// The grid of `parts` over `region`, or `None` when nothing is cut.
    fn new(region: &[FieldRange; FIELD_COUNT], parts: &[u32; FIELD_COUNT]) -> Option<ChildGrid> {
        let mut cuts = [FlatCut::default(); FIELD_COUNT];
        let mut dims = 0;
        for (d, &p) in parts.iter().enumerate() {
            if p > 1 {
                cuts[dims] = FlatCut::new(d, p, region[d]);
                dims += 1;
            }
        }
        if dims == 0 {
            return None;
        }
        let mut strides = [1usize; FIELD_COUNT];
        for k in (0..dims - 1).rev() {
            strides[k] = strides[k + 1] * cuts[k + 1].parts as usize;
        }
        Some(ChildGrid {
            dims,
            cuts,
            strides,
        })
    }

    /// Number of children.
    fn cells(&self) -> usize {
        self.strides[0] * self.cuts[0].parts as usize
    }

    /// Writes the first and last child index of `rule` along each cut
    /// dimension; `false` when the rule misses the region in one of them.
    fn child_box(
        &self,
        rule: &Rule,
        lo_idx: &mut [u32; FIELD_COUNT],
        hi_idx: &mut [u32; FIELD_COUNT],
    ) -> bool {
        for (k, cut) in self.cuts[..self.dims].iter().enumerate() {
            let range = rule.ranges[cut.dim as usize];
            let lo = range.lo.max(cut.lo);
            let hi = range.hi.min(cut.hi);
            if lo > hi {
                return false;
            }
            lo_idx[k] = cut.sub_index(lo);
            hi_idx[k] = cut.sub_index(hi);
        }
        true
    }

    /// Calls `f` with the child index of every cell of the box
    /// `lo_idx..=hi_idx`, ascending.
    #[inline]
    fn for_each_cell(
        &self,
        lo_idx: &[u32; FIELD_COUNT],
        hi_idx: &[u32; FIELD_COUNT],
        mut f: impl FnMut(usize),
    ) {
        let last = self.dims - 1;
        let mut digit = *lo_idx;
        let mut base: usize = (0..last)
            .map(|k| lo_idx[k] as usize * self.strides[k])
            .sum();
        loop {
            // The last cut dimension has stride 1.
            for c in lo_idx[last]..=hi_idx[last] {
                f(base + c as usize);
            }
            // Advance the odometer over the more significant digits.
            let mut k = last;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                if digit[k] < hi_idx[k] {
                    digit[k] += 1;
                    base += self.strides[k];
                    break;
                }
                base -= (digit[k] - lo_idx[k]) as usize * self.strides[k];
                digit[k] = lo_idx[k];
            }
        }
    }
}

/// A node's rules distributed over its children: child `i` holds
/// `ids[offsets[i]..offsets[i + 1]]`, in ascending id order.
struct ChildLists {
    ids: Vec<RuleId>,
    offsets: Vec<u32>,
}

impl ChildLists {
    fn get(&self, i: usize) -> &[RuleId] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A multiply–rotate hash over a child's rule list, eight bytes a step: the
/// key of the identical-child merge.  A hit compares the lists in full, so
/// a collision costs a comparison, never a wrong merge; a ruleset crafted to
/// collide costs at most the comparison against every list merged so far,
/// which is what the merge cost before it was hashed.
#[derive(Default)]
struct ListHasher(u64);

impl ListHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ListHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub use build::{CutPolicy, RosterPolicy, TreeBuilder};

/// The node-emission core of every HiCuts/HyperCuts builder.
///
/// [`CutPolicy`] and [`TreeBuilder`] are `pub` because the paper's
/// hardware-oriented algorithms are policies too, and `pclass-core` — which
/// owns the 8-MSB cut rule and the word capacity they answer to — implements
/// the trait from outside this crate.
mod build {
    use super::*;

    /// Safety limit on tree depth; real trees stay far below this.
    const MAX_DEPTH: u32 = 64;

    /// How one algorithm chooses its cuts — everything a builder
    /// configuration adds to the shared [`TreeBuilder`].
    pub trait CutPolicy: Copy {
        /// Stores charged for writing one internal node's header.
        const HEADER_STORES: u64;
        /// Stores charged per rule written into a leaf: 1 for a software
        /// rule pointer, 5 for the accelerator's 160-bit rule image.
        const LEAF_RULE_STORES: u64;

        /// Maximum number of rules a leaf may hold.
        fn binth(&self) -> usize;

        /// Chooses the cuts of a node holding more than `binth` rules and
        /// the (possibly compacted) region they apply to, charging the
        /// evaluation to `kit.stats`; `None` leaves the node an oversized
        /// leaf (nothing left to cut, or cutting separates nothing).
        fn plan(
            &self,
            kit: &mut TreeBuilder<'_>,
            region: &[FieldRange; FIELD_COUNT],
            rules: &[RuleId],
        ) -> Option<(CutSpec, [FieldRange; FIELD_COUNT])>;

        /// Whether the rules every child would hold move up into the node's
        /// own stored list before recursion, at one store and one stored
        /// rule reference each.  Only HyperCuts' push-common heuristic does.
        fn hoist(&self) -> bool {
            false
        }

        /// Whether sibling children holding the identical over-`binth`
        /// `list` may share one subtree.  Never, unless the policy can show
        /// that the subtree cut for the first child's region routes packets
        /// of the other children's regions identically.
        fn shares_subtree(
            &self,
            _kit: &TreeBuilder<'_>,
            _cuts: &CutSpec,
            _cut_region: &[FieldRange; FIELD_COUNT],
            _list: &[RuleId],
        ) -> bool {
            false
        }
    }

    /// What [`CutTreeClassifier`] needs of a policy beyond its cuts.
    pub trait RosterPolicy: CutPolicy {
        /// Name of the built classifier ([`Classifier::name`]), the name
        /// the serving roster lists it under.
        const NAME: &'static str;

        /// Space factor of the algorithm's space measure.
        fn spfac(&self) -> f64;
    }

    /// Builder state shared by every cut policy.
    pub struct TreeBuilder<'a> {
        /// The ruleset's rules, indexed by id.
        pub rules: &'a [Rule],
        /// Work charged so far.
        pub stats: BuildStats,
        arena: FlatTree,
        empty_leaf: Option<u32>,
        leaf_rule_stores: u64,
        /// Reused scratch of [`cut_histogram`]: the clipped rule ranges.
        pub(super) spans: Vec<(u32, u32)>,
        /// Reused scratch of [`cut_histogram`]'s difference array and
        /// [`max_child_occupancy`]'s grid.
        pub(super) scratch: Vec<i64>,
        /// Reused scratch of the distribution: each kept rule's id and
        /// child-index box.
        boxes: Vec<u32>,
    }

    impl<'a> TreeBuilder<'a> {
        /// Builds the tree of `ruleset` under `policy` into an arena in
        /// build order (records and leaves numbered as the builder makes
        /// them, the root first), with no slack and no spare capacity.
        pub fn build<P: CutPolicy>(ruleset: &'a RuleSet, policy: &P) -> (FlatTree, BuildStats) {
            let mut kit = TreeBuilder::new(ruleset, P::LEAF_RULE_STORES);
            let all_rules: Vec<RuleId> = (0..ruleset.len() as RuleId).collect();
            kit.build_node(policy, ruleset.full_region(), &all_rules, 0);
            kit.arena.seal();
            (kit.arena, kit.stats)
        }

        /// A builder over `ruleset` with nothing built or charged yet.
        pub(super) fn new(ruleset: &'a RuleSet, leaf_rule_stores: u64) -> TreeBuilder<'a> {
            TreeBuilder {
                rules: ruleset.rules(),
                stats: BuildStats::new(),
                arena: FlatTree::for_build(ruleset),
                empty_leaf: None,
                leaf_rule_stores,
                spans: Vec::new(),
                scratch: Vec::new(),
                boxes: Vec::new(),
            }
        }

        /// Builds the node covering `region` at `depth`, and returns its
        /// slot in the arena.
        fn build_node<P: CutPolicy>(
            &mut self,
            policy: &P,
            region: [FieldRange; FIELD_COUNT],
            rules: &[RuleId],
            depth: u32,
        ) -> u32 {
            self.stats.max_depth = self.stats.max_depth.max(depth);
            if rules.len() <= policy.binth() || depth >= MAX_DEPTH {
                return self.make_leaf(rules);
            }
            let Some((cuts, cut_region)) = policy.plan(self, &region, rules) else {
                return self.make_leaf(rules);
            };

            // Reserve the record before the children so the root keeps
            // record 0.
            let slot = self.arena.reserve_internal();
            self.stats.internal_nodes += 1;
            self.stats.ops.stores += P::HEADER_STORES;

            let (lists, stored_rules) = self.distribute(rules, &cuts, &cut_region, policy.hoist());

            // Merge children that hold identical rule sets — HiCuts' standard
            // storage optimisation, which HyperCuts and the paper keep — and
            // share one empty leaf.  Children that become leaves always
            // share: a leaf search does not depend on the child's covered
            // region.  Sharing an internal subtree between two different
            // regions would route packets from the second region through
            // cuts computed for the first, so that is the policy's call.  A
            // list is merged into the first child that held it.
            let child_count = lists.offsets.len() - 1;
            let mut children: Vec<u32> = Vec::with_capacity(child_count);
            let mut merged: HashMap<&[RuleId], u32, BuildHasherDefault<ListHasher>> =
                HashMap::default();
            for i in 0..child_count {
                let list = lists.get(i);
                if list.is_empty() {
                    children.push(self.empty_leaf());
                    continue;
                }
                if let Some(&existing) = merged.get(list) {
                    children.push(existing);
                    continue;
                }
                let shareable = list.len() <= policy.binth()
                    || policy.shares_subtree(self, &cuts, &cut_region, list);
                let child_region = cuts.child_region(&cut_region, i as u64);
                let child = self.build_node(policy, child_region, list, depth + 1);
                if shareable {
                    merged.insert(list, child);
                }
                children.push(child);
            }

            self.arena
                .patch_internal(slot, &cuts, &cut_region, &children, &stored_rules);
            slot
        }

        fn make_leaf(&mut self, rules: &[RuleId]) -> u32 {
            self.stats.leaf_nodes += 1;
            self.stats.stored_rule_refs += rules.len() as u64;
            self.stats.ops.stores += 2 + rules.len() as u64 * self.leaf_rule_stores;
            self.arena.push_leaf(rules, 0)
        }

        fn empty_leaf(&mut self) -> u32 {
            if let Some(slot) = self.empty_leaf {
                return slot;
            }
            let slot = self.make_leaf(&[]);
            self.empty_leaf = Some(slot);
            slot
        }

        /// Distributes `rules` over the children of `cuts` applied to
        /// `cut_region` in one pass, and returns the child lists and the
        /// rules hoisted into the node (ascending).
        ///
        /// Each rule that meets the cut region lands in every child of its
        /// child-index box, in ascending id order; with `hoist`, a rule whose
        /// box is the whole grid — one every child would hold — goes to the
        /// node instead.  The boxes are counted first, then the ids are
        /// written at their children's offsets into one buffer.  Where a
        /// cut has at least as many parts as its range has values, the
        /// children past the range's length collapse onto its top value, so
        /// a rule holding the top lies in every one of them.
        ///
        /// Charged as the paper's builder performs it, child by child: one
        /// five-field overlap test per child per rule and a store per kept
        /// reference, hoisted ones included, then a store per hoisted rule.
        pub(super) fn distribute(
            &mut self,
            rules: &[RuleId],
            cuts: &CutSpec,
            cut_region: &[FieldRange; FIELD_COUNT],
            hoist: bool,
        ) -> (ChildLists, Vec<RuleId>) {
            let grid = ChildGrid::new(cut_region, &cuts.parts)
                .expect("an internal node cuts at least one dimension");
            let n = grid.dims;
            let child_count = grid.cells();
            let hoist = hoist && child_count > 1;
            let mut offsets = vec![0u32; child_count + 1];
            let mut stored = Vec::new();
            let mut refs: u64 = 0;
            self.boxes.clear();
            for &id in rules {
                // A rule that misses the cut region is in no child.
                let rule = &self.rules[id as usize];
                let mut lo_idx = [0u32; FIELD_COUNT];
                let mut hi_idx = [0u32; FIELD_COUNT];
                if !rule.intersects_region(cut_region)
                    || !grid.child_box(rule, &mut lo_idx, &mut hi_idx)
                {
                    continue;
                }
                let mut cells = 1u64;
                let mut whole = true;
                for (k, cut) in grid.cuts[..n].iter().enumerate() {
                    // Holding the top value, the rule lies in the children
                    // collapsed onto it as well.
                    if rule.ranges[cut.dim as usize].hi >= cut.hi {
                        hi_idx[k] = cut.parts - 1;
                    }
                    cells *= u64::from(hi_idx[k] - lo_idx[k] + 1);
                    whole &= lo_idx[k] == 0 && hi_idx[k] == cut.parts - 1;
                }
                refs += cells;
                if hoist && whole {
                    stored.push(id);
                    continue;
                }
                self.boxes.push(id);
                self.boxes.extend_from_slice(&lo_idx[..n]);
                self.boxes.extend_from_slice(&hi_idx[..n]);
                grid.for_each_cell(&lo_idx, &hi_idx, |c| offsets[c] += 1);
            }

            // Counts to start offsets; each then advances past its child's
            // ids as they are written, ending where the next child starts.
            let mut start = 0u32;
            for offset in offsets.iter_mut() {
                let count = *offset;
                *offset = start;
                start += count;
            }
            let mut ids = vec![0 as RuleId; start as usize];
            for record in self.boxes.chunks_exact(1 + 2 * n) {
                let mut lo_idx = [0u32; FIELD_COUNT];
                let mut hi_idx = [0u32; FIELD_COUNT];
                lo_idx[..n].copy_from_slice(&record[1..1 + n]);
                hi_idx[..n].copy_from_slice(&record[1 + n..]);
                grid.for_each_cell(&lo_idx, &hi_idx, |c| {
                    ids[offsets[c] as usize] = record[0];
                    offsets[c] += 1;
                });
            }
            offsets.copy_within(0..child_count, 1);
            offsets[0] = 0;

            let (candidates, children) = (rules.len() as u64, child_count as u64);
            let tests = candidates * children;
            self.stats.ops.loads += tests * FIELD_COUNT as u64;
            self.stats.ops.alu += tests * FIELD_COUNT as u64 * 2;
            self.stats.ops.branches += tests;
            self.stats.ops.stores += refs + stored.len() as u64;
            self.stats.stored_rule_refs += stored.len() as u64;
            (ChildLists { ids, offsets }, stored)
        }
    }
}

/// A packet classifier over a tree built under one of the original
/// algorithms' cut policies — the one type behind
/// [`crate::hicuts::HiCutsClassifier`] (`C` =
/// [`HiCutsConfig`](crate::hicuts::HiCutsConfig)) and
/// [`crate::hypercuts::HyperCutsClassifier`] (`C` =
/// [`HyperCutsConfig`](crate::hypercuts::HyperCutsConfig)).
///
/// It holds the arena [`TreeBuilder::build`] emits, as emitted, beside the
/// policy that cut it and the [`BuildStats`] of the build (Table 3), and
/// it is built, served, updated and reported as that one value.  It walks
/// the arena a lane of packets at a time ([`FlatTree::classify_batch`]),
/// patches it in place on a rule update ([`crate::update`]), and counts
/// it two ways: [`Classifier::memory_bytes`] is the arena's real bytes,
/// [`CutTreeClassifier::model_bytes`] the software [`MemoryModel`]'s
/// (Table 2).
#[derive(Debug, Clone)]
pub struct CutTreeClassifier<C> {
    flat: FlatTree,
    config: C,
    build_stats: BuildStats,
}

impl<C: RosterPolicy> CutTreeClassifier<C> {
    /// Builds the decision tree for a ruleset.
    pub fn build(ruleset: &RuleSet, config: &C) -> CutTreeClassifier<C> {
        assert!(config.binth() >= 1, "binth must be at least 1");
        assert!(config.spfac() > 0.0, "spfac must be positive");
        let (flat, build_stats) = TreeBuilder::build(ruleset, config);
        CutTreeClassifier {
            flat,
            config: *config,
            build_stats,
        }
    }

    /// Aggregate statistics of the built tree (node counts, depth,
    /// worst-case accesses).
    pub fn stats(&self) -> TreeStats {
        self.flat.tree_stats()
    }

    /// The built tree as an indented text dump (Figures 1 and 3 of the
    /// paper on the Table 1 ruleset).
    pub fn dump(&self) -> String {
        self.flat.dump()
    }

    /// The builder configuration.
    pub fn config(&self) -> &C {
        &self.config
    }

    /// Work performed while building the tree (drives Table 3's software
    /// build-energy figures).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Bytes of the tree and its rules under the software [`MemoryModel`]
    /// (Table 2's software column), not the arena's own.
    pub fn model_bytes(&self) -> usize {
        self.flat.model_bytes()
    }

    /// The arena the classifier serves.
    pub fn flat_tree(&self) -> &FlatTree {
        &self.flat
    }

    /// The arena, to drive through [`FlatTree`]'s own update calls, which
    /// never re-flatten on their own.
    pub fn flat_tree_mut(&mut self) -> &mut FlatTree {
        &mut self.flat
    }

    /// Arena footprint statistics.
    pub fn arena_stats(&self) -> ArenaStats {
        self.flat.arena_stats()
    }

    /// A copy of the classifier.  The repository benchmark times this as
    /// its set-up's one copy of the arena; it goes when the benchmark
    /// serves the tree it builds (ROADMAP item 1).
    pub fn flatten(&self) -> Self {
        self.clone()
    }
}

impl<C: RosterPolicy> Classifier for CutTreeClassifier<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        self.flat.classify(pkt, None)
    }

    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        self.flat.classify_batch(pkts, out);
    }

    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
        self.flat.classify(pkt, Some(stats))
    }

    fn memory_bytes(&self) -> usize {
        self.flat.total_bytes()
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        Some(self.flat.worst_case_accesses())
    }

    fn arena_stats(&self) -> Option<ArenaStats> {
        Some(self.flat.arena_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_types::{toy, DimensionSpec};

    /// The ids of `candidates` whose rules intersect `region`, ascending:
    /// the definition of a child's rule list, and the oracle of the
    /// builder's one-pass distribution.
    fn rules_intersecting(
        rules: &[Rule],
        candidates: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
    ) -> Vec<RuleId> {
        candidates
            .iter()
            .copied()
            .filter(|&id| rules[id as usize].intersects_region(region))
            .collect()
    }

    /// A one-node tree over `rs`, emitted as the builder emits one: the
    /// root cuts `region` by `cuts`, and its `i`-th child is a leaf holding
    /// `leaf_rules(i)`.
    fn one_node_tree(
        rs: &RuleSet,
        cuts: &CutSpec,
        region: [FieldRange; FIELD_COUNT],
        leaf_rules: impl Fn(u64) -> Vec<RuleId>,
    ) -> FlatTree {
        let mut flat = FlatTree::for_build(rs);
        let root = flat.reserve_internal();
        let children: Vec<u32> = (0..cuts.child_count())
            .map(|i| flat.push_leaf(&leaf_rules(i), 0))
            .collect();
        flat.patch_internal(root, cuts, &region, &children, &[]);
        flat
    }

    /// Hand-builds a tiny tree over the Table 1 ruleset:
    /// root cuts field 0 into 4, children are leaves.
    fn tiny_tree() -> FlatTree {
        let rs = toy::table1_ruleset();
        let region = rs.full_region();
        let cuts = CutSpec::single(Dimension::SrcIp, 4);
        let rules: Vec<RuleId> = (0..rs.len() as u32).collect();
        one_node_tree(&rs, &cuts, region, |i| {
            rules_intersecting(rs.rules(), &rules, &cuts.child_region(&region, i))
        })
    }

    /// `n` wildcard rules over the toy geometry, for trees whose `i`-th
    /// leaf holds rule `i` alone: a packet's decision names its leaf.
    fn wildcards(n: u32) -> RuleSet {
        let spec = DimensionSpec::TOY;
        let rules = (0..n).map(|i| Rule::wildcard(i, &spec)).collect();
        RuleSet::new("wildcards", spec, rules).unwrap()
    }

    /// SplitMix64: the random inputs of the distribution oracle.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value of a field whose largest value is `max`.
        fn value(&mut self, max: u32) -> u32 {
            self.below(u64::from(max) + 1) as u32
        }

        /// A rule's range: a wildcard, an exact value or a random span.
        fn range(&mut self, max: u32) -> FieldRange {
            match self.below(4) {
                0 => FieldRange::new(0, max),
                1 => FieldRange::exact(self.value(max)),
                _ => {
                    let (a, b) = (self.value(max), self.value(max));
                    FieldRange::new(a.min(b), a.max(b))
                }
            }
        }

        /// A node's region: a random span, or in one case of two a
        /// handful of values, where a cut may have more parts than the
        /// range has values.
        fn region(&mut self, max: u32) -> FieldRange {
            if self.below(2) == 0 {
                return self.range(max);
            }
            let lo = self.value(max);
            let hi = lo.saturating_add(self.below(6) as u32).min(max);
            FieldRange::new(lo, hi)
        }
    }

    #[test]
    fn one_pass_distribution_matches_rules_intersecting_child_by_child() {
        let mut rng = SplitMix(0x0000_5eed_0f0a_c1e5);
        let (mut collapsed, mut missed, mut hoisted) = (0, 0, 0);
        for case in 0..400 {
            let spec = if case % 2 == 0 {
                DimensionSpec::TOY
            } else {
                DimensionSpec::FIVE_TUPLE
            };
            let n = 1 + rng.below(40) as u32;
            let rules = (0..n)
                .map(|id| Rule::new(id, Dimension::ALL.map(|d| rng.range(spec.max_value(d)))))
                .collect();
            let rs = RuleSet::new("random", spec, rules).unwrap();
            // A region not every rule meets, as compaction or a parent's
            // cut leaves it, cut along one to three dimensions into up to
            // twice as many parts as a narrow range has values.
            let region = Dimension::ALL.map(|d| rng.region(spec.max_value(d)));
            let mut cuts = CutSpec::unit();
            for _ in 0..1 + rng.below(3) {
                let d = rng.below(FIELD_COUNT as u64) as usize;
                let most = region[d].len().saturating_mul(2).min(16);
                cuts.parts[d] = 2 + rng.below(most - 1) as u32;
            }
            let candidates: Vec<RuleId> = (0..n).filter(|_| rng.below(4) != 0).collect();
            let oracle: Vec<Vec<RuleId>> = (0..cuts.child_count())
                .map(|i| {
                    rules_intersecting(rs.rules(), &candidates, &cuts.child_region(&region, i))
                })
                .collect();
            missed += candidates
                .iter()
                .filter(|&&id| !rs.rules()[id as usize].intersects_region(&region))
                .count();
            collapsed += Dimension::ALL
                .iter()
                .filter(|d| u64::from(cuts.parts[d.index()]) > region[d.index()].len())
                .count();
            let refs: usize = oracle.iter().map(Vec::len).sum();
            for hoist in [false, true] {
                let common: Vec<RuleId> = candidates
                    .iter()
                    .copied()
                    .filter(|id| hoist && oracle.iter().all(|list| list.contains(id)))
                    .collect();
                hoisted += common.len();
                let mut kit = TreeBuilder::new(&rs, 1);
                let (lists, stored) = kit.distribute(&candidates, &cuts, &region, hoist);
                assert_eq!(stored, common, "case {case}: hoisted rules");
                assert_eq!(lists.offsets.len() as u64, cuts.child_count() + 1);
                for (i, want) in oracle.iter().enumerate() {
                    let want: Vec<RuleId> = want
                        .iter()
                        .copied()
                        .filter(|id| !common.contains(id))
                        .collect();
                    assert_eq!(
                        lists.get(i),
                        &want[..],
                        "case {case}: child {i} of {cuts:?}"
                    );
                }
                // The charge is the child-by-child distribution's.
                let tests = (candidates.len() as u64) * cuts.child_count();
                let ops = kit.stats.ops;
                assert_eq!(ops.loads, tests * FIELD_COUNT as u64);
                assert_eq!(ops.alu, tests * FIELD_COUNT as u64 * 2);
                assert_eq!(ops.branches, tests);
                assert_eq!(ops.stores, (refs + common.len()) as u64);
                assert_eq!(kit.stats.stored_rule_refs, common.len() as u64);
            }
        }
        // Every trap was exercised.
        assert!(
            collapsed > 50 && missed > 100 && hoisted > 20,
            "{collapsed} {missed} {hoisted}"
        );
    }

    #[test]
    fn cutspec_child_count_and_dims() {
        let c = CutSpec::single(Dimension::DstIp, 8);
        assert_eq!(c.child_count(), 8);
        assert_eq!(c.cut_dimensions(), vec![Dimension::DstIp]);
        let mut multi = CutSpec::unit();
        multi.parts[0] = 2;
        multi.parts[4] = 2;
        assert_eq!(multi.child_count(), 4);
        assert_eq!(
            multi.cut_dimensions(),
            vec![Dimension::SrcIp, Dimension::Protocol]
        );
        assert_eq!(CutSpec::unit().child_count(), 1);
    }

    #[test]
    fn child_regions_partition_parent() {
        let rs = toy::table1_ruleset();
        let region = rs.full_region();
        let mut cuts = CutSpec::unit();
        cuts.parts[0] = 2;
        cuts.parts[4] = 2;
        let mut covered: u64 = 0;
        for i in 0..4u64 {
            let child = cuts.child_region(&region, i);
            covered += child[0].len() * child[4].len();
            // Uncut dimensions keep the full region.
            assert_eq!(child[1], region[1]);
        }
        assert_eq!(covered, region[0].len() * region[4].len());
    }

    #[test]
    fn child_index_matches_region() {
        let rs = wildcards(8);
        let region = rs.full_region();
        let mut cuts = CutSpec::unit();
        cuts.parts[0] = 4;
        cuts.parts[4] = 2;
        let tree = one_node_tree(&rs, &cuts, region, |i| vec![i as RuleId]);
        for f0 in [0u32, 63, 64, 200, 255] {
            for f4 in [0u32, 127, 128, 255] {
                let pkt = PacketHeader::from_fields([f0, 0, 0, 0, f4]);
                let MatchResult::Matched(idx) = tree.classify(&pkt, None) else {
                    panic!("{pkt:?} reached no leaf");
                };
                let child = cuts.child_region(&region, u64::from(idx));
                assert!(child[0].contains(f0) && child[4].contains(f4));
            }
        }
    }

    #[test]
    fn child_index_outside_compacted_region_is_none() {
        let rs = wildcards(2);
        let cuts = CutSpec::single(Dimension::SrcIp, 2);
        let mut region = rs.full_region();
        region[0] = FieldRange::new(100, 200);
        let tree = one_node_tree(&rs, &cuts, region, |i| vec![i as RuleId]);
        // Outside the compacted region the walk stops at the root, which
        // stores nothing: no leaf is reached.
        let pkt = PacketHeader::from_fields([50, 0, 0, 0, 0]);
        assert_eq!(tree.classify(&pkt, None), MatchResult::NoMatch);
        let pkt = PacketHeader::from_fields([150, 0, 0, 0, 0]);
        assert_eq!(tree.classify(&pkt, None), MatchResult::Matched(0));
    }

    #[test]
    fn tiny_tree_agrees_with_linear_search() {
        let rs = toy::table1_ruleset();
        let tree = tiny_tree();
        // Exhaustive-ish sweep over a grid of the toy space.
        for f0 in (0..256).step_by(7) {
            for f4 in (0..256).step_by(13) {
                let pkt = PacketHeader::from_fields([f0, 80, 40, 180, f4]);
                assert_eq!(
                    tree.classify(&pkt, None),
                    rs.classify_linear(&pkt),
                    "packet {pkt:?}"
                );
            }
        }
    }

    #[test]
    fn stats_and_memory_are_sane() {
        let tree = tiny_tree();
        let stats = tree.tree_stats();
        assert_eq!(stats.internal_nodes, 1);
        assert_eq!(stats.leaf_nodes, 4);
        assert_eq!(stats.max_depth, 1);
        assert!(stats.max_leaf_rules >= 3);
        assert!(stats.worst_case_accesses >= 2);
        let bytes = tree.model_bytes();
        // 10 rules * 18 + 1 internal (16 + 4*4) + leaves.
        assert!(bytes > 10 * MemoryModel::RULE_BYTES);
        assert!(bytes < 1_000);
    }

    #[test]
    fn lookup_stats_are_recorded() {
        let tree = tiny_tree();
        let pkt = PacketHeader::from_fields([145, 100, 10, 10, 200]);
        let mut stats = LookupStats::new();
        let result = tree.classify(&pkt, Some(&mut stats));
        assert_eq!(result, MatchResult::Matched(5));
        assert!(stats.nodes_visited >= 1);
        assert!(stats.rules_compared >= 1);
        assert!(stats.memory_accesses >= 2);
        assert!(stats.ops.loads > 0);
    }

    #[test]
    fn dump_mentions_cut_dimension_and_leaves() {
        let tree = tiny_tree();
        let dump = tree.dump();
        assert!(dump.contains("src_ip x4"));
        assert!(dump.contains("leaf ["));
    }
}
