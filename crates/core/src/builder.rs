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
//! [`build_tree`] returns a [`DecisionTree`] — the same kind the software
//! classifiers walk — that [`crate::program::HardwareProgram`] serialises
//! into memory words.

use pclass_algos::counters::BuildStats;
use pclass_algos::dtree::{
    cut_histogram, max_child_occupancy, CutPolicy, CutSpec, DecisionTree, Node, NodeId, NodeKind,
    TreeBuilder,
};
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildConfig {
    /// Which algorithm chooses the cuts.
    pub algorithm: CutAlgorithm,
    /// Maximum number of rules a leaf should hold (leaves may exceed this
    /// when the 8-bit cutting budget cannot separate the rules).
    pub binth: usize,
    /// Space factor: Eq. 3 uses it as a multiplier, Eq. 4 as the exponent
    /// offset (`np <= 2^(4+spfac)`), so the paper restricts it to 1–4.
    pub spfac: u32,
    /// Leaf packing mode.
    pub speed: SpeedMode,
    /// Number of cuts every internal node starts with.
    pub start_cuts: u32,
    /// Cap on the number of cuts of one node.
    pub max_cuts: u32,
}

impl BuildConfig {
    /// The configuration used for the paper's evaluation tables:
    /// `spfac = 4`, `speed = 1`, cuts from 32 to 256.
    ///
    /// `binth` is set to 30 — one full memory word — because a leaf of up to
    /// 30 rules is searched by the comparator array in a single clock cycle,
    /// so there is no latency benefit in splitting below that and every
    /// avoided internal node saves a whole 600-byte word.
    pub fn paper_defaults(algorithm: CutAlgorithm) -> BuildConfig {
        BuildConfig {
            algorithm,
            binth: crate::RULES_PER_WORD,
            spfac: 4,
            speed: SpeedMode::Throughput,
            start_cuts: 32,
            max_cuts: crate::MAX_CUTS,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.binth == 0 {
            return Err(BuildError::InvalidConfig("binth must be at least 1".into()));
        }
        if !(1..=4).contains(&self.spfac) {
            return Err(BuildError::InvalidConfig("spfac must be 1..=4".into()));
        }
        if !self.start_cuts.is_power_of_two() || !self.max_cuts.is_power_of_two() {
            return Err(BuildError::InvalidConfig(
                "cut counts must be powers of two".into(),
            ));
        }
        if self.start_cuts < 2 || self.start_cuts > self.max_cuts {
            return Err(BuildError::InvalidConfig(
                "start_cuts must be between 2 and max_cuts".into(),
            ));
        }
        if self.max_cuts > crate::MAX_CUTS {
            return Err(BuildError::InvalidConfig(format!(
                "max_cuts may not exceed {} (one memory word per node)",
                crate::MAX_CUTS
            )));
        }
        Ok(())
    }
}

/// Errors raised while building a hardware search structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The configuration is inconsistent.
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
/// The tree is what [`TreeBuilder`] emits under the configured policy, with
/// the two things the memory image defines differently put right: the root
/// is always an internal node, and the kit's shared empty leaf — a null
/// child entry in the image, not a node — is not counted or charged.
pub fn build_tree(
    ruleset: &RuleSet,
    config: &BuildConfig,
) -> Result<(DecisionTree, BuildStats), BuildError> {
    build_tree_within(ruleset, config, usize::MAX)
}

/// [`build_tree`] for an accelerator of `word_capacity` words: once the
/// internal nodes alone fill it, no further cut is planned, and the
/// truncated tree fails the capacity check of the encoder.
pub(crate) fn build_tree_within(
    ruleset: &RuleSet,
    config: &BuildConfig,
    word_capacity: usize,
) -> Result<(DecisionTree, BuildStats), BuildError> {
    config.validate()?;
    if *ruleset.spec() != DimensionSpec::FIVE_TUPLE {
        return Err(BuildError::UnsupportedGeometry);
    }
    let policy = HwPolicy {
        config: *config,
        word_capacity,
    };
    let (mut tree, mut stats) = TreeBuilder::build(ruleset, &policy);

    let root = tree.root() as usize;
    let shared_empty_leaf = tree.nodes().iter().enumerate().any(|(i, node)| {
        i != root && matches!(&node.kind, NodeKind::Leaf { rules } if rules.is_empty())
    });
    if shared_empty_leaf {
        stats.leaf_nodes -= 1;
        stats.ops.stores -= 2;
    }

    // The accelerator preloads the root into register A, so it must be an
    // internal node: wrap a lone leaf in a trivial `start_cuts`-way node
    // whose children all point at it.
    if tree.nodes()[root].is_leaf() {
        let mut nodes = tree.nodes().to_vec();
        let region = nodes[root].region;
        nodes[root].depth = 1;
        let wrapper = nodes.len() as NodeId;
        nodes.push(Node {
            region,
            depth: 0,
            kind: NodeKind::Internal {
                cuts: CutSpec::single(Dimension::SrcIp, config.start_cuts),
                children: vec![root as NodeId; config.start_cuts as usize],
                stored_rules: Vec::new(),
                cut_region: region,
            },
        });
        stats.internal_nodes += 1;
        tree = DecisionTree::new(ruleset, nodes, wrapper);
    }
    Ok((tree, stats))
}

/// Bits of the 8 MSBs of each dimension already cut away on the path to a
/// node covering `region` of the 5-tuple space.  Cuts are power-of-two
/// aligned, so the region's size says how many.
pub(crate) fn consumed_bits(region: &[FieldRange; FIELD_COUNT]) -> [u8; FIELD_COUNT] {
    Dimension::ALL.map(|d| {
        DimensionSpec::FIVE_TUPLE.width(d) - region[d.index()].len().trailing_zeros() as u8
    })
}

/// The modified algorithms as a cut policy of the shared [`TreeBuilder`].
#[derive(Clone, Copy)]
struct HwPolicy {
    config: BuildConfig,
    /// Words of the accelerator the tree must fit; every internal node
    /// takes one.
    word_capacity: usize,
}

impl CutPolicy for HwPolicy {
    const HEADER_STORES: u64 = 8;
    const LEAF_RULE_STORES: u64 = 5; // 160-bit rule images

    fn binth(&self) -> usize {
        self.config.binth
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
        let cut_bits = match self.config.algorithm {
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
    /// Modified HiCuts: pick one dimension, cuts from `start_cuts` doubling
    /// under Eq. 3 up to `max_cuts`, choose the dimension that minimises the
    /// worst child occupancy.
    fn choose_hicuts(
        &self,
        kit: &mut TreeBuilder<'_>,
        rules: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
        avail: &[u8; FIELD_COUNT],
    ) -> [u8; FIELD_COUNT] {
        let n = rules.len() as f64;
        let budget = f64::from(self.config.spfac) * n;
        let mut best: Option<(Dimension, u8, usize)> = None; // (dim, bits, max_child)
        for d in Dimension::ALL {
            let max_bits = avail[d.index()].min(self.config.max_cuts.trailing_zeros() as u8);
            if max_bits == 0 {
                continue;
            }
            let start_bits = (self.config.start_cuts.trailing_zeros() as u8).min(max_bits);
            // Doubling loop of Eq. 3: keep doubling while the space measure
            // stays within spfac * N and np < 129 (i.e. bits < 8).
            let mut bits = start_bits;
            loop {
                if bits >= max_bits {
                    break;
                }
                let candidate = bits + 1;
                let np = 1u64 << candidate;
                let (_, total) = histogram(kit, rules, region, d, candidate);
                if total as f64 + np as f64 <= budget && np <= u64::from(self.config.max_cuts) {
                    bits = candidate;
                } else {
                    break;
                }
            }
            let (max_child, _) = histogram(kit, rules, region, d, bits);
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

        let cap_bits = (4 + self.config.spfac).min(self.config.max_cuts.trailing_zeros()) as u8;
        let floor_bits = (self.config.start_cuts.trailing_zeros() as u8).min(cap_bits);

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
                // least start_cuts cuts when it cuts at all), as long as the
                // chosen dimension is not replication-dominated.
                Some((d, scored, max_child))
                    if (max_child < current_max || total_bits < floor_bits)
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

/// [`cut_histogram`] for `2^bits` cuts of `region[d]`.  The cuts are
/// power-of-two aligned, so locating a rule's first and last child is a
/// shift: unlike the original HiCuts, no divisions are charged.
fn histogram(
    kit: &mut TreeBuilder<'_>,
    rules: &[RuleId],
    region: &[FieldRange; FIELD_COUNT],
    d: Dimension,
    bits: u8,
) -> (usize, u64) {
    let parts = 1u32 << bits;
    let n = rules.len() as u64;
    kit.stats.cut_evaluations += n;
    kit.stats.ops.loads += n * 2 + u64::from(parts);
    kit.stats.ops.alu += n * 6 + u64::from(parts) * 2;
    kit.stats.ops.branches += n * 2;
    cut_histogram(kit.rules, rules, region[d.index()], d, parts)
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
    max_child_occupancy(kit.rules, rules, region, &cuts.parts)
}

/// The cut specification `cut_bits` describes (`2^bits` parts per dimension).
fn cut_parts(cut_bits: &[u8; FIELD_COUNT]) -> CutSpec {
    CutSpec {
        parts: cut_bits.map(|b| 1u32 << b),
    }
}

/// The inverse of [`cut_parts`]: bits cut per dimension by one of this
/// module's (power-of-two) cut specifications.
pub(crate) fn cut_bits(cuts: &CutSpec) -> [u8; FIELD_COUNT] {
    cuts.parts.map(|p| p.trailing_zeros() as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_classbench::{ClassBenchGenerator, SeedStyle};

    fn acl(n: usize) -> RuleSet {
        ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(n)
    }

    fn tree_of(rs: &RuleSet, algorithm: CutAlgorithm) -> (DecisionTree, BuildStats) {
        build_tree(rs, &BuildConfig::paper_defaults(algorithm)).unwrap()
    }

    /// `(node, cut bits per dimension, children)` of every internal node.
    fn internal_nodes(tree: &DecisionTree) -> Vec<(&Node, [u8; FIELD_COUNT], &[NodeId])> {
        tree.nodes()
            .iter()
            .filter_map(|node| match &node.kind {
                NodeKind::Internal { cuts, children, .. } => {
                    assert!(cuts.parts.iter().all(|p| p.is_power_of_two()));
                    Some((node, cut_bits(cuts), children.as_slice()))
                }
                NodeKind::Leaf { .. } => None,
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        assert!(cfg.validate().is_ok());
        cfg.spfac = 5;
        assert!(cfg.validate().is_err());
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        cfg.start_cuts = 48;
        assert!(cfg.validate().is_err());
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        cfg.max_cuts = 512;
        assert!(cfg.validate().is_err());
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        cfg.binth = 0;
        assert!(cfg.validate().is_err());
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
            let root = &tree.nodes()[tree.root() as usize];
            let NodeKind::Internal { children, .. } = &root.kind else {
                panic!("{algo:?}: leaf root");
            };
            assert_eq!(children.len(), 32);
            assert!(children.iter().all(|&c| c == children[0]));
            assert_eq!(tree.nodes()[children[0] as usize].depth, 1);
            assert_eq!((build.internal_nodes, build.leaf_nodes), (1, 1));
        }
    }

    #[test]
    fn internal_nodes_respect_the_cut_cap() {
        let rs = acl(800);
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let (tree, _) = tree_of(&rs, algo);
            for (_, cut_bits, children) in internal_nodes(&tree) {
                let total: u32 = cut_bits.iter().map(|&b| u32::from(b)).sum();
                assert!(total <= 8, "more than 256 cuts: {cut_bits:?}");
                assert_eq!(children.len(), 1usize << total);
            }
        }
    }

    #[test]
    fn cut_depth_never_exceeds_eight_bits_per_dimension() {
        let rs = acl(800);
        let (tree, _) = tree_of(&rs, CutAlgorithm::HyperCuts);
        for (node, cut_bits, _) in internal_nodes(&tree) {
            let consumed = consumed_bits(&node.region);
            for d in 0..FIELD_COUNT {
                assert!(consumed[d] + cut_bits[d] <= 8, "dimension {d} over-cut");
            }
        }
    }

    #[test]
    fn leaves_cover_every_rule_at_least_once() {
        let rs = acl(500);
        let (tree, _) = tree_of(&rs, CutAlgorithm::HiCuts);
        let mut seen = vec![false; rs.len()];
        for node in tree.nodes() {
            if let NodeKind::Leaf { rules } = &node.kind {
                for &r in rules {
                    seen[r as usize] = true;
                }
                // Leaf rule lists are sorted by priority.
                assert!(rules.windows(2).all(|w| w[0] < w[1]));
            }
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
        for (_, cut_bits, _) in internal_nodes(&tree) {
            let cut_dims = cut_bits.iter().filter(|&&b| b > 0).count();
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
            .any(|(_, cut_bits, _)| cut_bits.iter().filter(|&&b| b > 0).count() > 1);
        assert!(multi, "expected at least one multi-dimensional cut");
    }

    #[test]
    fn smaller_binth_means_more_leaves() {
        let rs = acl(600);
        let mut small = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        small.binth = 4;
        let mut large = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        large.binth = 30;
        let t_small = build_tree(&rs, &small).unwrap().0.stats();
        let t_large = build_tree(&rs, &large).unwrap().0.stats();
        assert!(t_small.leaf_nodes >= t_large.leaf_nodes);
        assert!(t_large.max_leaf_rules <= 30 || t_small.max_leaf_rules <= t_large.max_leaf_rules);
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
        let stats = tree.stats();
        let empty_leaves = tree
            .nodes()
            .iter()
            .filter(|n| matches!(&n.kind, NodeKind::Leaf { rules } if rules.is_empty()))
            .count();
        assert!(empty_leaves <= 1);
        assert_eq!(stats.internal_nodes + stats.leaf_nodes, tree.nodes().len());
        assert!(stats.max_depth >= 1);
        assert!(stats.stored_rule_refs >= rs.len());
        assert!(stats.max_leaf_rules > 0);
        assert_eq!(build.internal_nodes as usize, stats.internal_nodes);
        assert_eq!(build.leaf_nodes as usize, stats.leaf_nodes - empty_leaves);
        assert_eq!(build.stored_rule_refs as usize, stats.stored_rule_refs);
        assert_eq!(build.max_depth, stats.max_depth);
    }
}
