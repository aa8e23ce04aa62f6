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
//! * [`rules_intersecting`], [`cut_histogram`] and [`max_child_occupancy`] —
//!   the pure rule-distribution functions.  They count nothing: each builder
//!   charges its own [`BuildStats`] where it calls them, so what an
//!   algorithm pays for an evaluation is stated next to its policy.
//! * [`TreeBuilder`], the node-emission core — leaves, the shared empty
//!   leaf, and the distribute → merge identical children → recurse → patch
//!   step — driven by a [`CutPolicy`].  Four policies exist:
//!   [`crate::hicuts::HiCutsConfig`], [`crate::hypercuts::HyperCutsConfig`]
//!   and, in `pclass-core`, the paper's modified HiCuts and HyperCuts.
//! * [`CutTreeClassifier`] — the classifier shell both
//!   [`crate::hicuts::HiCutsClassifier`] and
//!   [`crate::hypercuts::HyperCutsClassifier`] are.

use crate::counters::{BuildStats, LookupStats};
use crate::flat::{FlatTree, FlatTreeClassifier};
use crate::Classifier;
use pclass_types::{
    Dimension, FieldRange, MatchResult, PacketHeader, Rule, RuleId, RuleSet, FIELD_COUNT,
};

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

/// Returns the ids of `candidates` whose rules intersect `region`
/// (in ascending id order).  Shared by every tree builder.
pub fn rules_intersecting(
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

/// For `parts` equal cuts of `r` along `dim`, returns the maximum number of
/// `candidates` any child would hold and the total number of child rule
/// references.  Shared by every tree builder.
///
/// Uses a difference array, so the cost is O(candidates + parts).  This is
/// the inner loop of every HiCuts build (original and modified): it stays a
/// lean 1-D pass of its own instead of a special case of
/// [`max_child_occupancy`].
pub fn cut_histogram(
    rules: &[Rule],
    candidates: &[RuleId],
    r: FieldRange,
    dim: Dimension,
    parts: u32,
) -> (usize, u64) {
    let mut diff = vec![0i64; parts as usize + 1];
    let mut total: u64 = 0;
    for &id in candidates {
        let rr = rules[id as usize].range(dim);
        let lo = rr.lo.max(r.lo);
        let hi = rr.hi.min(r.hi);
        if lo > hi {
            continue; // rule does not overlap this dimension slice
        }
        let a = r.index_of(parts, lo);
        let b = r.index_of(parts, hi);
        diff[a as usize] += 1;
        diff[b as usize + 1] -= 1;
        total += u64::from(b - a + 1);
    }
    let mut max = 0i64;
    let mut acc = 0i64;
    for v in &diff[..parts as usize] {
        acc += v;
        max = max.max(acc);
    }
    (max as usize, total)
}

/// Maximum number of `candidates` any child would hold when `region` is cut
/// into `parts[d]` equal parts along every dimension `d` (1 = not cut).
/// Shared by every tree builder.
///
/// Uses a multi-dimensional difference array (inclusion–exclusion over the
/// corners of each rule's child-index box) followed by a prefix sum, so the
/// cost is O(candidates · 2^dims + children · dims) with one allocation —
/// the grid — per call.
pub fn max_child_occupancy(
    rules: &[Rule],
    candidates: &[RuleId],
    region: &[FieldRange; FIELD_COUNT],
    parts: &[u32; FIELD_COUNT],
) -> usize {
    // The cut dimensions, most significant first (row-major grid).
    let mut dims = [0usize; FIELD_COUNT];
    let mut n = 0;
    for (d, &p) in parts.iter().enumerate() {
        if p > 1 {
            dims[n] = d;
            n += 1;
        }
    }
    if n == 0 {
        return candidates.len();
    }
    let dims = &dims[..n];
    let mut strides = [1usize; FIELD_COUNT];
    for k in (0..n - 1).rev() {
        strides[k] = strides[k + 1] * parts[dims[k + 1]] as usize;
    }
    let total = strides[0] * parts[dims[0]] as usize;
    let mut grid = vec![0i64; total];

    'rules: for &id in candidates {
        let rule = &rules[id as usize];
        // Child-index box of the rule in each cut dimension.
        let mut lo_idx = [0u32; FIELD_COUNT];
        let mut hi_idx = [0u32; FIELD_COUNT];
        for (k, &d) in dims.iter().enumerate() {
            let lo = rule.ranges[d].lo.max(region[d].lo);
            let hi = rule.ranges[d].hi.min(region[d].hi);
            if lo > hi {
                continue 'rules; // outside the region: in no child
            }
            lo_idx[k] = region[d].index_of(parts[d], lo);
            hi_idx[k] = region[d].index_of(parts[d], hi);
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
                if coord >= parts[dims[k]] as usize {
                    continue 'corners;
                }
                index += coord * strides[k];
            }
            grid[index] += if corner.count_ones() % 2 == 0 { 1 } else { -1 };
        }
    }

    // Multi-dimensional prefix sum, one axis at a time.
    for k in 0..n {
        let extent = parts[dims[k]] as usize;
        for cell in 0..total {
            if (cell / strides[k]) % extent != 0 {
                grid[cell] += grid[cell - strides[k]];
            }
        }
    }
    grid.into_iter().max().unwrap_or(0).max(0) as usize
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

        /// Moves rules out of the distributed child lists into the node's
        /// own stored list before recursion.  Only HyperCuts' push-common
        /// heuristic does.
        fn hoist(
            &self,
            _kit: &mut TreeBuilder<'_>,
            _child_rules: &mut [Vec<RuleId>],
        ) -> Vec<RuleId> {
            Vec::new()
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
        /// Name of the built classifier ([`Classifier::name`]).
        const NAME: &'static str;
        /// Roster name of its flat-arena form.
        const FLAT_NAME: &'static str;

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
    }

    impl<'a> TreeBuilder<'a> {
        /// Builds the tree of `ruleset` under `policy` into an arena in
        /// build order: records and leaves are numbered as the builder makes
        /// them, the root first, and no rule span has slack.
        pub fn build<P: CutPolicy>(ruleset: &'a RuleSet, policy: &P) -> (FlatTree, BuildStats) {
            let mut kit = TreeBuilder {
                rules: ruleset.rules(),
                stats: BuildStats::new(),
                arena: FlatTree::for_build(ruleset),
                empty_leaf: None,
                leaf_rule_stores: P::LEAF_RULE_STORES,
            };
            let all_rules: Vec<RuleId> = (0..ruleset.len() as RuleId).collect();
            kit.build_node(policy, ruleset.full_region(), all_rules, 0);
            (kit.arena, kit.stats)
        }

        /// Builds the node covering `region` at `depth`, and returns its
        /// slot in the arena.
        fn build_node<P: CutPolicy>(
            &mut self,
            policy: &P,
            region: [FieldRange; FIELD_COUNT],
            rules: Vec<RuleId>,
            depth: u32,
        ) -> u32 {
            self.stats.max_depth = self.stats.max_depth.max(depth);
            if rules.len() <= policy.binth() || depth >= MAX_DEPTH {
                return self.make_leaf(&rules);
            }
            let Some((cuts, cut_region)) = policy.plan(self, &region, &rules) else {
                return self.make_leaf(&rules);
            };

            // Reserve the record before the children so the root keeps
            // record 0.
            let slot = self.arena.reserve_internal();
            self.stats.internal_nodes += 1;
            self.stats.ops.stores += P::HEADER_STORES;

            let child_count = cuts.child_count();
            let mut child_rules: Vec<Vec<RuleId>> = (0..child_count)
                .map(|i| self.distribute(&rules, &cuts.child_region(&cut_region, i)))
                .collect();
            let stored_rules = policy.hoist(self, &mut child_rules);

            // Merge children that hold identical rule sets — HiCuts' standard
            // storage optimisation, which HyperCuts and the paper keep — and
            // share one empty leaf.  Children that become leaves always
            // share: a leaf search does not depend on the child's covered
            // region.  Sharing an internal subtree between two different
            // regions would route packets from the second region through
            // cuts computed for the first, so that is the policy's call.
            let mut children: Vec<u32> = Vec::with_capacity(child_count as usize);
            let mut merged: Vec<(Vec<RuleId>, u32)> = Vec::new();
            for (i, list) in child_rules.into_iter().enumerate() {
                if list.is_empty() {
                    children.push(self.empty_leaf());
                    continue;
                }
                let child_region = cuts.child_region(&cut_region, i as u64);
                let shareable = list.len() <= policy.binth()
                    || policy.shares_subtree(self, &cuts, &cut_region, &list);
                if !shareable {
                    children.push(self.build_node(policy, child_region, list, depth + 1));
                } else if let Some((_, existing)) = merged.iter().find(|(r, _)| *r == list) {
                    children.push(*existing);
                } else {
                    let child_id = self.build_node(policy, child_region, list.clone(), depth + 1);
                    merged.push((list, child_id));
                    children.push(child_id);
                }
            }

            self.arena
                .patch_internal(slot, &cuts, &cut_region, &children, &stored_rules);
            slot
        }

        fn make_leaf(&mut self, rules: &[RuleId]) -> u32 {
            self.stats.leaf_nodes += 1;
            self.stats.stored_rule_refs += rules.len() as u64;
            self.stats.ops.stores += 2 + rules.len() as u64 * self.leaf_rule_stores;
            self.arena.push_leaf(rules)
        }

        fn empty_leaf(&mut self) -> u32 {
            if let Some(slot) = self.empty_leaf {
                return slot;
            }
            let slot = self.make_leaf(&[]);
            self.empty_leaf = Some(slot);
            slot
        }

        /// The rules of one child: [`rules_intersecting`], charged one
        /// five-field overlap test per candidate and a store per kept id.
        fn distribute(
            &mut self,
            rules: &[RuleId],
            region: &[FieldRange; FIELD_COUNT],
        ) -> Vec<RuleId> {
            let out = rules_intersecting(self.rules, rules, region);
            self.stats.ops.loads += rules.len() as u64 * FIELD_COUNT as u64;
            self.stats.ops.alu += rules.len() as u64 * FIELD_COUNT as u64 * 2;
            self.stats.ops.branches += rules.len() as u64;
            self.stats.ops.stores += out.len() as u64;
            out
        }
    }
}

/// A packet classifier over a tree built under one of the original
/// algorithms' cut policies — the one shell behind
/// [`crate::hicuts::HiCutsClassifier`] (`C` =
/// [`HiCutsConfig`](crate::hicuts::HiCutsConfig)) and
/// [`crate::hypercuts::HyperCutsClassifier`] (`C` =
/// [`HyperCutsConfig`](crate::hypercuts::HyperCutsConfig)).
///
/// It holds the built arena laid out breadth first — byte for byte what
/// [`CutTreeClassifier::flatten`] serves — and walks it; what sets it apart
/// is the software [`MemoryModel`] it reports its size under (Table 2) and
/// the [`BuildStats`] of its build (Table 3).
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
        let (mut flat, build_stats) = TreeBuilder::build(ruleset, config);
        flat.layout(|_| 0);
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

    /// A serving classifier over a copy of the arena (roster name
    /// `hicuts-flat` / `hypercuts-flat`): the same walk, measured by its
    /// actual bytes, and open to rule updates.
    pub fn flatten(&self) -> FlatTreeClassifier {
        FlatTreeClassifier::new(C::FLAT_NAME, self.flat.clone())
    }
}

impl<C: RosterPolicy> Classifier for CutTreeClassifier<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        self.flat.classify(pkt, None)
    }

    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
        self.flat.classify(pkt, Some(stats))
    }

    fn memory_bytes(&self) -> usize {
        self.flat.model_bytes()
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        Some(self.flat.worst_case_accesses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_types::{toy, DimensionSpec};

    /// A one-node tree over `rs` as a built classifier lays it out: the
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
            .map(|i| flat.push_leaf(&leaf_rules(i)))
            .collect();
        flat.patch_internal(root, cuts, &region, &children, &[]);
        flat.layout(|_| 0);
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
