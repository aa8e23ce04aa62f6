//! The hardware-oriented *modified* HiCuts and HyperCuts (Section 3 of the
//! paper): the original algorithms with a different cut rule, so a
//! [`CutPolicy`] over the one [`TreeBuilder`] every builder in the workspace
//! shares — this module holds the policy and its charges, no node type and
//! no recursion of its own.
//!
//! Differences from the original policies implemented in `pclass-algos`:
//!
//! * The number of cuts at an internal node starts at **32** and is capped at
//!   **256** (Eq. 3 for HiCuts, Eq. 4 for HyperCuts).  Starting high removes
//!   most of the doubling iterations — that is where the build-energy saving
//!   of Table 3 comes from — and the 256 cap lets a whole internal node fit
//!   in one 4800-bit memory word.
//! * HyperCuts loses its *region compaction* and *push common rule subsets
//!   upwards* heuristics (they would need per-node division hardware and a
//!   rule search during traversal, respectively).
//! * Cut boundaries are restricted to what the accelerator's child-selection
//!   datapath can express: every dimension is cut into a power-of-two number
//!   of equal parts aligned on the 8 most-significant bits of the field, and
//!   a dimension can consume at most 8 bits of cutting along any root-to-leaf
//!   path.  A node whose rules cannot be separated within those limits
//!   becomes an (oversized) leaf.
//! * Leaves store the actual rules (not pointers); a leaf may span several
//!   memory words when it holds more than 30 rules.
//!
//! [`build_tree`] returns the flat arena [`TreeBuilder`] emits — the same
//! kind the software classifiers walk — in build order, which
//! [`crate::program::HardwareProgram`] serialises into memory words.

use pclass_algos::counters::BuildStats;
use pclass_algos::dtree::{cut_histogram, max_child_occupancy, CutPolicy, CutSpec, TreeBuilder};
use pclass_algos::flat::{FlatTree, NodeView};
use pclass_types::{
    distinct_range_counts, Dimension, DimensionSpec, FieldRange, RuleId, RuleSet, FIELD_COUNT,
};

/// Which modified algorithm drives the cut decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutAlgorithm {
    /// Modified HiCuts: one dimension per node, 32–256 cuts (Eq. 3).
    HiCuts,
    /// Modified HyperCuts: multiple dimensions per node, 32–2^(4+spfac)
    /// total cuts (Eq. 4).
    HyperCuts,
}

impl CutAlgorithm {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CutAlgorithm::HiCuts => "hicuts-hw",
            CutAlgorithm::HyperCuts => "hypercuts-hw",
        }
    }
}

/// The *speed* parameter of Section 3: how leaves are packed into words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeedMode {
    /// `speed = 0`: leaves are stored contiguously (most memory-efficient;
    /// a lookup may need an extra word access, Eq. 5).
    MemoryEfficient,
    /// `speed = 1`: a leaf only starts mid-word if it fits entirely in the
    /// remaining slots (fewer accesses, Eq. 7; slightly more memory).
    Throughput,
}

impl SpeedMode {
    /// The numeric value the paper uses for this mode.
    pub fn as_u8(self) -> u8 {
        match self {
            SpeedMode::MemoryEfficient => 0,
            SpeedMode::Throughput => 1,
        }
    }
}

/// Configuration of the modified builders.
///
/// Only the algorithm and the leaf packing are chosen per build; the paper
/// fixes everything else for its evaluation, so this module holds those as
/// constants: `spfac = 4`, cuts from 32 to 256 per node (one memory word),
/// and `binth` = 30 rules — one full memory word — because a leaf of up to
/// 30 rules is searched by the comparator array in a single clock cycle,
/// so there is no latency benefit in splitting below that and every
/// avoided internal node saves a whole 600-byte word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildConfig {
    /// Which algorithm chooses the cuts.
    pub algorithm: CutAlgorithm,
    /// Leaf packing mode.
    pub speed: SpeedMode,
}

impl BuildConfig {
    /// The configuration used for the paper's evaluation tables: `speed = 1`.
    pub fn paper_defaults(algorithm: CutAlgorithm) -> BuildConfig {
        BuildConfig {
            algorithm,
            speed: SpeedMode::Throughput,
        }
    }
}

/// Space factor: Eq. 3 uses it as a multiplier, Eq. 4 as the exponent
/// offset (`np <= 2^(4+spfac)`).
const SPFAC: u32 = 4;
/// Number of cuts every internal node starts with.
const START_CUTS: u32 = 32;
/// [`START_CUTS`] as bits of cutting.
const START_BITS: u8 = START_CUTS.trailing_zeros() as u8;
/// [`crate::MAX_CUTS`] as bits of cutting.
const MAX_BITS: u8 = crate::MAX_CUTS.trailing_zeros() as u8;

/// Errors raised while building a hardware search structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested word capacity is not one the accelerator can address.
    InvalidConfig(String),
    /// The ruleset does not use the 32/32/16/16/8-bit 5-tuple geometry the
    /// hardware rule format encodes.
    UnsupportedGeometry,
    /// A rule could not be encoded (non-prefix IP range or odd protocol).
    Encode(crate::encode::EncodeError),
    /// The structure needs more memory words than the accelerator addresses.
    CapacityExceeded {
        /// A lower bound on the words required: the builder stops cutting
        /// once the internal nodes alone fill the capacity, so this is the
        /// size of the truncated structure (always above `capacity`), not
        /// of the full one.
        required: usize,
        /// Words available.
        capacity: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidConfig(msg) => write!(f, "invalid build configuration: {msg}"),
            BuildError::UnsupportedGeometry => {
                write!(
                    f,
                    "hardware programs require the 5-tuple (32/32/16/16/8) geometry"
                )
            }
            BuildError::Encode(e) => write!(f, "rule encoding failed: {e}"),
            BuildError::CapacityExceeded { required, capacity } => {
                write!(
                    f,
                    "search structure needs more than the accelerator's {capacity} words \
                     (at least {required})"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<crate::encode::EncodeError> for BuildError {
    fn from(e: crate::encode::EncodeError) -> Self {
        BuildError::Encode(e)
    }
}

/// Builds the modified-algorithm decision tree for a ruleset, with no bound
/// on its size (the Table 4 harness plans layouts the accelerator could not
/// load).
///
/// The tree is the arena [`TreeBuilder`] emits under the configured policy,
/// in build order.  Its [`BuildStats`] count what the memory image holds,
/// which differs in two things: the root is always an internal node (the
/// encoder wraps a lone leaf in one), and the kit's shared
/// empty leaf — a null child entry in the image, not a node — is not
/// counted or charged.
pub fn build_tree(
    ruleset: &RuleSet,
    config: &BuildConfig,
) -> Result<(FlatTree, BuildStats), BuildError> {
    build_tree_within(ruleset, config, usize::MAX)
}

/// [`build_tree`] for an accelerator of `word_capacity` words: once the
/// internal nodes alone fill it, no further cut is planned, and the
/// truncated tree fails the capacity check of the encoder.
pub(crate) fn build_tree_within(
    ruleset: &RuleSet,
    config: &BuildConfig,
    word_capacity: usize,
) -> Result<(FlatTree, BuildStats), BuildError> {
    if *ruleset.spec() != DimensionSpec::FIVE_TUPLE {
        return Err(BuildError::UnsupportedGeometry);
    }
    let policy = HwPolicy {
        algorithm: config.algorithm,
        word_capacity,
    };
    let (tree, mut stats) = TreeBuilder::build(ruleset, &policy);
    if tree.node(0).is_none() {
        // A lone leaf: the image wraps it in one internal node.
        stats.internal_nodes += 1;
    } else if leaves(&tree).any(|leaf| leaf.rules.is_empty()) {
        // Below an internal root, only the shared empty leaf is empty.
        stats.leaf_nodes -= 1;
        stats.ops.stores -= 2;
    }
    Ok((tree, stats))
}

/// The leaf bit of [`FlatTree::node`]'s slots: leaf `i` is slot `i | LEAF`,
/// internal record `i` is slot `i`.
pub(crate) const LEAF: u32 = 1 << 31;

/// The tree's leaves, in leaf-table order (build order, for a tree
/// [`build_tree`] returns).
pub(crate) fn leaves(tree: &FlatTree) -> impl Iterator<Item = NodeView<'_>> {
    (0..).map_while(move |l| tree.node(LEAF | l))
}

/// Internal node `i` of the image, in word order: the tree's record `i`
/// (the root is record 0, the rest follow in build order).  The
/// accelerator preloads the root into register A, so it must be an
/// internal node: when the whole tree is one leaf, the image's one
/// internal node is a trivial [`START_CUTS`]-way cut of the source address
/// whose children all name that leaf.
pub(crate) fn internal_node(tree: &FlatTree, i: u32) -> Option<NodeView<'_>> {
    static WRAPPED: [u32; START_CUTS as usize] = [LEAF; START_CUTS as usize];
    match tree.node(i) {
        None if i == 0 => {
            let mut cuts = [None; FIELD_COUNT];
            let src = Dimension::SrcIp;
            let whole = FieldRange::new(0, DimensionSpec::FIVE_TUPLE.max_value(src));
            cuts[src.index()] = Some((START_CUTS, whole));
            Some(NodeView {
                cuts,
                children: &WRAPPED,
                rules: &[],
            })
        }
        view => view,
    }
}

/// Bits of the 8 MSBs of dimension `d` already cut away on the path to a
/// node covering `range` of it.  Cuts are power-of-two aligned, so the
/// range's size says how many.
pub(crate) fn consumed(d: Dimension, range: FieldRange) -> u8 {
    DimensionSpec::FIVE_TUPLE.width(d) - range.len().trailing_zeros() as u8
}

/// [`consumed`] for every dimension of a node covering `region`.
fn consumed_bits(region: &[FieldRange; FIELD_COUNT]) -> [u8; FIELD_COUNT] {
    Dimension::ALL.map(|d| consumed(d, region[d.index()]))
}

/// The modified algorithms as a cut policy of the shared [`TreeBuilder`].
#[derive(Clone, Copy)]
struct HwPolicy {
    algorithm: CutAlgorithm,
    /// Words of the accelerator the tree must fit; every internal node
    /// takes one.
    word_capacity: usize,
}

impl CutPolicy for HwPolicy {
    const HEADER_STORES: u64 = 8;
    const LEAF_RULE_STORES: u64 = 5; // 160-bit rule images

    fn binth(&self) -> usize {
        crate::RULES_PER_WORD
    }

    fn plan(
        &self,
        kit: &mut TreeBuilder<'_>,
        region: &[FieldRange; FIELD_COUNT],
        rules: &[RuleId],
    ) -> Option<(CutSpec, [FieldRange; FIELD_COUNT])> {
        // Every internal node is one word: once they fill the capacity no
        // further cut can lead to a loadable image, so stop cutting and let
        // the encoder report the overflow.
        if kit.stats.internal_nodes as usize >= self.word_capacity {
            return None;
        }
        // Remaining cutting budget per dimension: the hardware selects
        // children from the 8 MSBs only.
        let avail = consumed_bits(region).map(|c| 8u8.saturating_sub(c));
        if avail.iter().all(|&a| a == 0) {
            return None;
        }
        let cut_bits = match self.algorithm {
            CutAlgorithm::HiCuts => self.choose_hicuts(kit, rules, region, &avail),
            CutAlgorithm::HyperCuts => self.choose_hypercuts(kit, rules, region, &avail),
        };
        if cut_bits.iter().all(|&b| b == 0) {
            return None;
        }

        // Check the cut actually separates something; otherwise fall back
        // to a leaf to guarantee termination.  The 90 % progress guard keeps
        // wildcard-heavy rulesets (fw1-style) from building huge chains of
        // nodes that each peel off only a couple of rules while replicating
        // the rest into hundreds of children: past that point an oversized
        // multi-word leaf is both smaller and faster than further cutting.
        let max_child = occupancy(kit, rules, region, &cut_bits);
        if max_child >= rules.len() || max_child * 10 >= rules.len() * 9 {
            return None;
        }
        Some((cut_parts(&cut_bits), *region))
    }

    /// Children holding identical rule sets are shared (the storage
    /// optimisation both algorithms keep in the paper).  For a list that
    /// will be cut further that is only safe when the shared subtree behaves
    /// identically for packets from either child region: when every rule of
    /// the list spans the *entire* node region along every cut dimension
    /// (the common case: wildcard / ephemeral-range rules that straddle all
    /// children), so any further cutting distributes them identically no
    /// matter which child the packet came from.
    fn shares_subtree(
        &self,
        kit: &TreeBuilder<'_>,
        cuts: &CutSpec,
        cut_region: &[FieldRange; FIELD_COUNT],
        list: &[RuleId],
    ) -> bool {
        let cut_dims = cuts.cut_dimensions();
        list.iter().all(|&id| {
            cut_dims.iter().all(|d| {
                kit.rules[id as usize]
                    .range(*d)
                    .covers(&cut_region[d.index()])
            })
        })
    }
}

impl HwPolicy {
    /// Modified HiCuts: pick one dimension, cuts from [`START_CUTS`]
    /// doubling under Eq. 3 up to [`crate::MAX_CUTS`], choose the dimension
    /// that minimises the worst child occupancy.
    fn choose_hicuts(
        &self,
        kit: &mut TreeBuilder<'_>,
        rules: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
        avail: &[u8; FIELD_COUNT],
    ) -> [u8; FIELD_COUNT] {
        let budget = f64::from(SPFAC) * rules.len() as f64;
        let mut best: Option<(Dimension, u8, usize)> = None; // (dim, bits, max_child)
        for d in Dimension::ALL {
            let max_bits = avail[d.index()].min(MAX_BITS);
            if max_bits == 0 {
                continue;
            }
            // Doubling loop of Eq. 3: keep doubling while the space measure
            // stays within spfac * N and np < 129 (i.e. bits < 8).
            let start_bits = START_BITS.min(max_bits);
            let (parts, evaluated, max_child) = cut_histogram(
                kit,
                rules,
                region[d.index()],
                d,
                1 << start_bits,
                1 << max_bits,
                budget,
            );
            let bits = parts.trailing_zeros() as u8;
            for candidate in start_bits + 1..=start_bits + evaluated as u8 {
                charge_histogram(kit, rules.len(), candidate);
            }
            charge_histogram(kit, rules.len(), bits);
            if best.is_none_or(|(_, _, m)| max_child < m) {
                best = Some((d, bits, max_child));
            }
        }
        let mut cut_bits = [0u8; FIELD_COUNT];
        if let Some((d, bits, _)) = best {
            cut_bits[d.index()] = bits;
        }
        cut_bits
    }

    /// Modified HyperCuts: candidate dimensions by the distinct-range rule,
    /// combinations bounded by Eq. 4 (`32 <= np <= 2^(4+spfac)`), greedy
    /// doubling choosing the combination with the smallest worst child.
    fn choose_hypercuts(
        &self,
        kit: &mut TreeBuilder<'_>,
        rules: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
        avail: &[u8; FIELD_COUNT],
    ) -> [u8; FIELD_COUNT] {
        // Distinct range specifications per dimension among this node's rules.
        let distinct = distinct_range_counts(kit.rules, rules);
        kit.stats.ops.loads += rules.len() as u64 * FIELD_COUNT as u64;
        kit.stats.ops.alu += rules.len() as u64 * FIELD_COUNT as u64;
        let mean = distinct.iter().sum::<usize>() as f64 / FIELD_COUNT as f64;
        let candidates: Vec<Dimension> = Dimension::ALL
            .iter()
            .copied()
            .filter(|d| distinct[d.index()] as f64 >= mean && avail[d.index()] > 0)
            .collect();
        if candidates.is_empty() {
            return [0u8; FIELD_COUNT];
        }

        let cap_bits = (4 + SPFAC as u8).min(MAX_BITS);

        // Fraction of the node's rules that span the whole region along each
        // candidate dimension.  Cutting such a dimension replicates those
        // rules into every child, so a dimension dominated by spanning rules
        // is only cut when nothing better is available (this is the
        // replication control that keeps wildcard-heavy fw1-style sets from
        // exploding, and it never changes the result for acl-style sets
        // where the spanning fraction is small).
        let spanning_fraction: Vec<(Dimension, f64)> = candidates
            .iter()
            .map(|&d| {
                let spanning = rules
                    .iter()
                    .filter(|&&id| {
                        kit.rules[id as usize].ranges[d.index()].covers(&region[d.index()])
                    })
                    .count();
                (d, spanning as f64 / rules.len().max(1) as f64)
            })
            .collect();
        let penalty = |d: Dimension| -> usize {
            let frac = spanning_fraction
                .iter()
                .find(|(dim, _)| *dim == d)
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            if frac > 0.5 {
                rules.len()
            } else {
                0
            }
        };

        let mut cut_bits = [0u8; FIELD_COUNT];
        let mut total_bits = 0u8;
        let mut current_max = rules.len();
        // Greedy doubling: add one bit at a time to the candidate dimension
        // that most reduces the worst child occupancy, until the cap.
        while total_bits < cap_bits {
            let mut best: Option<(Dimension, usize, usize)> = None; // (dim, scored, real max)
            for &d in &candidates {
                if cut_bits[d.index()] >= avail[d.index()] {
                    continue;
                }
                let mut trial = cut_bits;
                trial[d.index()] += 1;
                let max_child = occupancy(kit, rules, region, &trial);
                let scored = max_child + penalty(d);
                if best.is_none_or(|(_, s, _)| scored < s) {
                    best = Some((d, scored, max_child));
                }
            }
            match best {
                // Below the 32-cut floor we keep adding bits even without
                // improvement (the modified algorithm always performs at
                // least START_CUTS cuts when it cuts at all), as long as the
                // chosen dimension is not replication-dominated.
                Some((d, scored, max_child))
                    if (max_child < current_max || total_bits < START_BITS)
                        && scored < rules.len() * 2 =>
                {
                    cut_bits[d.index()] += 1;
                    total_bits += 1;
                    current_max = max_child;
                }
                _ => break,
            }
        }
        // If even the floor produced no separation `plan` will turn the
        // node into a leaf (max_child check); return what we have.
        cut_bits
    }
}

/// One [`cut_histogram`] pass of `n` rules over `2^bits` cuts.  The cuts
/// are power-of-two aligned, so locating a rule's first and last child is a
/// shift: unlike the original HiCuts, no divisions are charged.
fn charge_histogram(kit: &mut TreeBuilder<'_>, n: usize, bits: u8) {
    let parts = 1u64 << bits;
    let n = n as u64;
    kit.stats.cut_evaluations += n;
    kit.stats.ops.loads += n * 2 + parts;
    kit.stats.ops.alu += n * 6 + parts * 2;
    kit.stats.ops.branches += n * 2;
}

/// [`max_child_occupancy`] of a multi-dimensional cut.
///
/// Inherited drift, kept so Table 3 does not move: this charge was copied
/// from the software HyperCuts', so it pays that builder's two divisions per
/// rule per cut dimension (even for the one-dimensional progress check of
/// modified HiCuts) but not its two branches per rule.
fn occupancy(
    kit: &mut TreeBuilder<'_>,
    rules: &[RuleId],
    region: &[FieldRange; FIELD_COUNT],
    cut_bits: &[u8; FIELD_COUNT],
) -> usize {
    let cuts = cut_parts(cut_bits);
    let n = rules.len() as u64;
    let dims = cut_bits.iter().filter(|&&b| b > 0).count() as u64;
    let cells = cuts.child_count();
    kit.stats.cut_evaluations += n;
    kit.stats.ops.loads += n * 4 + cells;
    kit.stats.ops.alu += n * (8 + (1u64 << dims)) + cells * 2;
    kit.stats.ops.divs += n * dims * 2;
    max_child_occupancy(kit, rules, region, &cuts.parts)
}

/// The cut specification `cut_bits` describes (`2^bits` parts per dimension).
fn cut_parts(cut_bits: &[u8; FIELD_COUNT]) -> CutSpec {
    CutSpec {
        parts: cut_bits.map(|b| 1u32 << b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::HardwareProgram;
    use pclass_classbench::{ClassBenchGenerator, SeedStyle};

    fn acl(n: usize) -> RuleSet {
        ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(n)
    }

    fn tree_of(rs: &RuleSet, algorithm: CutAlgorithm) -> (FlatTree, BuildStats) {
        build_tree(rs, &BuildConfig::paper_defaults(algorithm)).unwrap()
    }

    /// The image's internal nodes, in word order.
    fn internal_nodes(tree: &FlatTree) -> Vec<NodeView<'_>> {
        (0..).map_while(|i| internal_node(tree, i)).collect()
    }

    /// Bits cut per dimension by an internal node (power-of-two parts).
    fn cut_bits(node: &NodeView) -> [u8; FIELD_COUNT] {
        node.cuts.map(|cut| {
            cut.map_or(0, |(parts, _)| {
                assert!(parts.is_power_of_two());
                parts.trailing_zeros() as u8
            })
        })
    }

    #[test]
    fn rejects_toy_geometry() {
        let toy = pclass_types::toy::table1_ruleset();
        let err = build_tree(&toy, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts)).unwrap_err();
        assert_eq!(err, BuildError::UnsupportedGeometry);
    }

    #[test]
    fn root_is_always_internal() {
        // Even a tiny ruleset (fewer rules than binth) gets an internal
        // root: 32 child entries, all of them its one leaf, one level down.
        let rs = acl(5);
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let (tree, build) = tree_of(&rs, algo);
            let [root] = internal_nodes(&tree)[..] else {
                panic!("{algo:?}: not one internal node");
            };
            assert_eq!(root.children.len(), 32);
            assert!(root.children.iter().all(|&c| c == root.children[0]));
            let layout = HardwareProgram::plan_layout(&tree, SpeedMode::Throughput);
            assert_eq!(layout.tree_depth, 1);
            assert_eq!((build.internal_nodes, build.leaf_nodes), (1, 1));
        }
    }

    #[test]
    fn internal_nodes_respect_the_cut_cap() {
        let rs = acl(800);
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let (tree, _) = tree_of(&rs, algo);
            for node in internal_nodes(&tree) {
                let cut_bits = cut_bits(&node);
                let total: u32 = cut_bits.iter().map(|&b| u32::from(b)).sum();
                assert!(total <= 8, "more than 256 cuts: {cut_bits:?}");
                assert_eq!(node.children.len(), 1usize << total);
            }
        }
    }

    #[test]
    fn cut_depth_never_exceeds_eight_bits_per_dimension() {
        let rs = acl(800);
        let (tree, _) = tree_of(&rs, CutAlgorithm::HyperCuts);
        for node in internal_nodes(&tree) {
            let cut_bits = cut_bits(&node);
            for d in Dimension::ALL {
                if let Some((_, range)) = node.cuts[d.index()] {
                    let total = consumed(d, range) + cut_bits[d.index()];
                    assert!(total <= 8, "dimension {d:?} over-cut");
                }
            }
        }
    }

    #[test]
    fn leaves_cover_every_rule_at_least_once() {
        let rs = acl(500);
        let (tree, _) = tree_of(&rs, CutAlgorithm::HiCuts);
        let mut seen = vec![false; rs.len()];
        for leaf in leaves(&tree) {
            for &r in leaf.rules {
                seen[r as usize] = true;
            }
            // Leaf rule lists are sorted by priority.
            assert!(leaf.rules.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(
            seen.iter().all(|&s| s),
            "some rule is unreachable in the tree"
        );
    }

    #[test]
    fn hicuts_cuts_single_dimension_per_node() {
        let rs = acl(400);
        let (tree, _) = tree_of(&rs, CutAlgorithm::HiCuts);
        for node in internal_nodes(&tree) {
            let cut_dims = cut_bits(&node).iter().filter(|&&b| b > 0).count();
            assert_eq!(
                cut_dims, 1,
                "modified HiCuts must cut exactly one dimension"
            );
        }
    }

    #[test]
    fn hypercuts_uses_multiple_dimensions_somewhere() {
        let rs = acl(1000);
        let (tree, _) = tree_of(&rs, CutAlgorithm::HyperCuts);
        let multi = internal_nodes(&tree)
            .iter()
            .any(|node| cut_bits(node).iter().filter(|&&b| b > 0).count() > 1);
        assert!(multi, "expected at least one multi-dimensional cut");
    }

    #[test]
    fn build_stats_smaller_than_original_software_build() {
        // The headline of Table 3: the modified algorithm does less work
        // building the structure than the original (cuts start at 32).
        use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
        let rs = acl(800);
        let (_, hw) = tree_of(&rs, CutAlgorithm::HiCuts);
        let sw = HiCutsClassifier::build(
            &rs,
            &HiCutsConfig {
                binth: 16,
                spfac: 4.0,
            },
        );
        assert!(
            hw.cut_evaluations < sw.build_stats().cut_evaluations,
            "modified build should evaluate fewer cuts: hw {} vs sw {}",
            hw.cut_evaluations,
            sw.build_stats().cut_evaluations
        );
    }

    #[test]
    fn child_region_roundtrip() {
        let rs = acl(10);
        let region = rs.full_region();
        let cuts = cut_parts(&[2, 0, 0, 0, 1]);
        // All 8 children partition the region volume.
        let mut volume = 0u128;
        for i in 0..8u64 {
            let child = cuts.child_region(&region, i);
            volume += u128::from(child[0].len()) * u128::from(child[4].len());
            assert_eq!(child[1], region[1]);
            // What a child's size says was cut away above it.
            assert_eq!(consumed_bits(&child), [2, 0, 0, 0, 1]);
        }
        assert_eq!(
            volume,
            u128::from(region[0].len()) * u128::from(region[4].len())
        );
    }

    #[test]
    fn tree_metrics_are_consistent() {
        // The kit's shared empty leaf is a node of the tree but a null child
        // entry of the image: the build counters leave it out.
        let rs = acl(300);
        let (tree, build) = tree_of(&rs, CutAlgorithm::HyperCuts);
        let internal = internal_nodes(&tree);
        let leaves: Vec<NodeView> = leaves(&tree).collect();
        let empty_leaves = leaves.iter().filter(|leaf| leaf.rules.is_empty()).count();
        assert!(empty_leaves <= 1);
        let refs: usize = internal.iter().chain(&leaves).map(|n| n.rules.len()).sum();
        assert!(refs >= rs.len());
        assert!(leaves.iter().any(|leaf| !leaf.rules.is_empty()));
        assert_eq!(build.internal_nodes as usize, internal.len());
        assert_eq!(build.leaf_nodes as usize, leaves.len() - empty_leaves);
        assert_eq!(build.stored_rule_refs as usize, refs);
        let layout = HardwareProgram::plan_layout(&tree, SpeedMode::Throughput);
        assert!(layout.tree_depth >= 1);
        assert_eq!(build.max_depth, layout.tree_depth);
    }
}
