//! The hardware-oriented *modified* HiCuts and HyperCuts builders
//! (Section 3 of the paper).
//!
//! Differences from the original algorithms implemented in `pclass-algos`:
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
//! The builder produces a [`HwTree`], an intermediate form that
//! [`crate::program::HardwareProgram`] serialises into memory words.

use pclass_algos::counters::BuildStats;
use pclass_algos::dtree::{cut_histogram, max_child_occupancy, rules_intersecting, CutSpec};
use pclass_types::{Dimension, DimensionSpec, FieldRange, Rule, RuleId, RuleSet, FIELD_COUNT};
use std::collections::HashSet;

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
        /// Words required.
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
                    "search structure needs {required} words but the accelerator has {capacity}"
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

/// A node of the intermediate hardware tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwNode {
    /// An internal node cutting `cut_bits[d]` bits of each dimension.
    Internal {
        /// Number of bits cut per dimension (`parts = 2^bits`); the sum over
        /// dimensions is between 5 (32 cuts) and 8 (256 cuts) for default
        /// configurations.
        cut_bits: [u8; FIELD_COUNT],
        /// Bits already consumed per dimension on the path from the root
        /// (used to position the hardware masks).
        consumed: [u8; FIELD_COUNT],
        /// Child node indices in mixed-radix order; `None` marks an empty
        /// child (no rules).
        children: Vec<Option<usize>>,
    },
    /// A leaf holding the ids of its rules in priority order.
    Leaf {
        /// Rules stored in the leaf.
        rules: Vec<RuleId>,
    },
}

/// The intermediate decision tree produced by the modified builders.
#[derive(Debug, Clone)]
pub struct HwTree {
    /// All nodes; index 0 is the root, which is always an internal node.
    pub nodes: Vec<HwNode>,
    /// The rules the tree was built over (after any priority-preserving
    /// renumbering; identical to the ruleset's rules for 5-tuple sets).
    pub rules: Vec<Rule>,
    /// Geometry of the ruleset.
    pub spec: DimensionSpec,
    /// Build statistics (shared accounting with the software builders).
    pub build_stats: BuildStats,
}

impl HwTree {
    /// Builds the modified-algorithm tree for a ruleset.
    pub fn build(ruleset: &RuleSet, config: &BuildConfig) -> Result<HwTree, BuildError> {
        config.validate()?;
        if *ruleset.spec() != DimensionSpec::FIVE_TUPLE {
            return Err(BuildError::UnsupportedGeometry);
        }
        let mut builder = TreeBuilder {
            rules: ruleset.rules(),
            config: *config,
            nodes: Vec::new(),
            stats: BuildStats::new(),
        };
        let all: Vec<RuleId> = (0..ruleset.len() as RuleId).collect();
        let region = ruleset.full_region();
        let root = builder.build_node(region, [0u8; FIELD_COUNT], all, 0);
        // The accelerator expects the root to be an internal node (it is
        // preloaded into register A); wrap a lone leaf in a trivial 32-cut
        // internal node whose children all point at it.
        let root = builder.ensure_internal_root(root);
        let mut nodes = builder.nodes;
        if root != 0 {
            nodes.swap(0, root);
            // Fix any child references to the swapped positions.
            let fix = |idx: &mut usize| {
                if *idx == 0 {
                    *idx = root;
                } else if *idx == root {
                    *idx = 0;
                }
            };
            for node in &mut nodes {
                if let HwNode::Internal { children, .. } = node {
                    for child in children.iter_mut().flatten() {
                        fix(child);
                    }
                }
            }
        }
        Ok(HwTree {
            nodes,
            rules: ruleset.rules().to_vec(),
            spec: *ruleset.spec(),
            build_stats: builder.stats,
        })
    }

    /// Number of internal nodes.
    pub fn internal_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, HwNode::Internal { .. }))
            .count()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, HwNode::Leaf { .. }))
            .count()
    }

    /// Maximum number of rules stored in any leaf.
    pub fn max_leaf_rules(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                HwNode::Leaf { rules } => Some(rules.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Total rule references stored across all leaves (measures replication).
    pub fn stored_rule_refs(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                HwNode::Leaf { rules } => Some(rules.len()),
                _ => None,
            })
            .sum()
    }

    /// Depth of the deepest leaf (root = depth 0), computed structurally.
    pub fn max_depth(&self) -> u32 {
        fn depth(nodes: &[HwNode], idx: usize) -> u32 {
            match &nodes[idx] {
                HwNode::Leaf { .. } => 0,
                HwNode::Internal { children, .. } => {
                    1 + children
                        .iter()
                        .flatten()
                        .map(|&c| depth(nodes, c))
                        .max()
                        .unwrap_or(0)
                }
            }
        }
        depth(&self.nodes, 0)
    }
}

struct TreeBuilder<'a> {
    rules: &'a [Rule],
    config: BuildConfig,
    nodes: Vec<HwNode>,
    stats: BuildStats,
}

impl<'a> TreeBuilder<'a> {
    fn build_node(
        &mut self,
        region: [FieldRange; FIELD_COUNT],
        consumed: [u8; FIELD_COUNT],
        rules: Vec<RuleId>,
        depth: u32,
    ) -> usize {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if rules.len() <= self.config.binth {
            return self.make_leaf(rules);
        }
        // Remaining cutting budget per dimension: the hardware selects
        // children from the 8 MSBs only.
        let avail: Vec<u8> = Dimension::ALL
            .iter()
            .map(|&d| 8u8.saturating_sub(consumed[d.index()]))
            .collect();
        if avail.iter().all(|&a| a == 0) {
            return self.make_leaf(rules);
        }

        let cut_bits = match self.config.algorithm {
            CutAlgorithm::HiCuts => self.choose_hicuts(&rules, &region, &avail),
            CutAlgorithm::HyperCuts => self.choose_hypercuts(&rules, &region, &avail),
        };
        let total_bits: u32 = cut_bits.iter().map(|&b| u32::from(b)).sum();
        if total_bits == 0 {
            return self.make_leaf(rules);
        }

        // Distribute rules to children and check the cut actually separates
        // something; otherwise fall back to a leaf to guarantee termination.
        // The 90 % progress guard keeps wildcard-heavy rulesets (fw1-style)
        // from building huge chains of nodes that each peel off only a
        // couple of rules while replicating the rest into hundreds of
        // children: past that point an oversized multi-word leaf is both
        // smaller and faster than further cutting.
        let child_count = 1usize << total_bits;
        let max_child = self.occupancy(&rules, &region, &cut_bits);
        if max_child >= rules.len() || max_child * 10 >= rules.len() * 9 {
            return self.make_leaf(rules);
        }

        let node_idx = self.nodes.len();
        self.nodes.push(HwNode::Leaf { rules: vec![] }); // placeholder
        self.stats.internal_nodes += 1;
        self.stats.ops.stores += 8;

        let mut new_consumed = consumed;
        for d in 0..FIELD_COUNT {
            new_consumed[d] += cut_bits[d];
        }

        // Children holding identical rule sets are shared (the storage
        // optimisation both algorithms keep in the paper).  Sharing is only
        // safe when the shared subtree behaves identically for packets from
        // either child region, which holds in two cases:
        //
        // * the child will be a leaf (leaf search ignores the region), or
        // * every rule of the set spans the *entire* node region along every
        //   cut dimension (the common case: wildcard / ephemeral-range rules
        //   that straddle all children), so any further cutting distributes
        //   them identically no matter which child the packet came from.
        let cut_dims: Vec<usize> = (0..FIELD_COUNT).filter(|&d| cut_bits[d] > 0).collect();
        let mut children: Vec<Option<usize>> = Vec::with_capacity(child_count);
        let mut merged: Vec<(Vec<RuleId>, usize)> = Vec::new();
        for i in 0..child_count as u64 {
            let child_region = child_region(&region, &cut_bits, i);
            // Charged like the software builders' distribution step: one
            // five-field overlap test per candidate, a store per kept id.
            let child_rules = rules_intersecting(self.rules, &rules, &child_region);
            self.stats.ops.loads += rules.len() as u64 * FIELD_COUNT as u64;
            self.stats.ops.alu += rules.len() as u64 * FIELD_COUNT as u64 * 2;
            self.stats.ops.branches += rules.len() as u64;
            self.stats.ops.stores += child_rules.len() as u64;
            if child_rules.is_empty() {
                children.push(None);
                continue;
            }
            let mergeable = child_rules.len() <= self.config.binth
                || child_rules.iter().all(|&id| {
                    cut_dims
                        .iter()
                        .all(|&d| self.rules[id as usize].ranges[d].covers(&region[d]))
                });
            if mergeable {
                if let Some((_, existing)) = merged.iter().find(|(r, _)| *r == child_rules) {
                    children.push(Some(*existing));
                    continue;
                }
            }
            let child_idx =
                self.build_node(child_region, new_consumed, child_rules.clone(), depth + 1);
            if mergeable {
                merged.push((child_rules, child_idx));
            }
            children.push(Some(child_idx));
        }

        self.nodes[node_idx] = HwNode::Internal {
            cut_bits,
            consumed,
            children,
        };
        node_idx
    }

    fn make_leaf(&mut self, rules: Vec<RuleId>) -> usize {
        self.stats.leaf_nodes += 1;
        self.stats.stored_rule_refs += rules.len() as u64;
        self.stats.ops.stores += 2 + rules.len() as u64 * 5; // 160-bit rule images
        let idx = self.nodes.len();
        self.nodes.push(HwNode::Leaf { rules });
        idx
    }

    /// Wraps a leaf root in a trivial internal node so the accelerator's
    /// register-A pipeline always has an internal root to preload.
    fn ensure_internal_root(&mut self, root: usize) -> usize {
        if matches!(self.nodes[root], HwNode::Internal { .. }) {
            return root;
        }
        let bits = self.config.start_cuts.trailing_zeros() as u8;
        let children = vec![Some(root); 1usize << bits];
        let mut cut_bits = [0u8; FIELD_COUNT];
        cut_bits[Dimension::SrcIp.index()] = bits;
        self.stats.internal_nodes += 1;
        let idx = self.nodes.len();
        self.nodes.push(HwNode::Internal {
            cut_bits,
            consumed: [0u8; FIELD_COUNT],
            children,
        });
        idx
    }

    /// Modified HiCuts: pick one dimension, cuts from `start_cuts` doubling
    /// under Eq. 3 up to `max_cuts`, choose the dimension that minimises the
    /// worst child occupancy.
    fn choose_hicuts(
        &mut self,
        rules: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
        avail: &[u8],
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
                let (_, total) = self.histogram(rules, region, d, candidate);
                if total as f64 + np as f64 <= budget && np <= u64::from(self.config.max_cuts) {
                    bits = candidate;
                } else {
                    break;
                }
            }
            let (max_child, _) = self.histogram(rules, region, d, bits);
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
        &mut self,
        rules: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
        avail: &[u8],
    ) -> [u8; FIELD_COUNT] {
        // Distinct range specifications per dimension among this node's rules.
        let mut distinct = [0usize; FIELD_COUNT];
        for d in Dimension::ALL {
            let mut set: HashSet<FieldRange> = HashSet::with_capacity(rules.len());
            for &id in rules {
                set.insert(self.rules[id as usize].range(d));
            }
            distinct[d.index()] = set.len();
        }
        self.stats.ops.loads += rules.len() as u64 * FIELD_COUNT as u64;
        self.stats.ops.alu += rules.len() as u64 * FIELD_COUNT as u64;
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
                        self.rules[id as usize].ranges[d.index()].covers(&region[d.index()])
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
                let max_child = self.occupancy(rules, region, &trial);
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
        // If even the floor produced no separation the caller will turn the
        // node into a leaf (max_child check); return what we have.
        cut_bits
    }

    /// [`cut_histogram`] for `2^bits` cuts of `region[d]`.  The cuts are
    /// power-of-two aligned, so locating a rule's first and last child is a
    /// shift: unlike the original HiCuts, no divisions are charged.
    fn histogram(
        &mut self,
        rules: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
        d: Dimension,
        bits: u8,
    ) -> (usize, u64) {
        let parts = 1u32 << bits;
        let n = rules.len() as u64;
        self.stats.cut_evaluations += n;
        self.stats.ops.loads += n * 2 + u64::from(parts);
        self.stats.ops.alu += n * 6 + u64::from(parts) * 2;
        self.stats.ops.branches += n * 2;
        cut_histogram(self.rules, rules, region[d.index()], d, parts)
    }

    /// [`max_child_occupancy`] of a multi-dimensional cut.
    ///
    /// Inherited drift, kept so Table 3 does not move: this charge was
    /// copied from the software HyperCuts', so it pays that builder's two
    /// divisions per rule per cut dimension (even for the one-dimensional
    /// progress check of modified HiCuts) but not its two branches per rule.
    fn occupancy(
        &mut self,
        rules: &[RuleId],
        region: &[FieldRange; FIELD_COUNT],
        cut_bits: &[u8; FIELD_COUNT],
    ) -> usize {
        let cuts = cut_parts(cut_bits);
        let n = rules.len() as u64;
        let dims = cut_bits.iter().filter(|&&b| b > 0).count() as u64;
        let cells = cuts.child_count();
        self.stats.cut_evaluations += n;
        self.stats.ops.loads += n * 4 + cells;
        self.stats.ops.alu += n * (8 + (1u64 << dims)) + cells * 2;
        self.stats.ops.divs += n * dims * 2;
        max_child_occupancy(self.rules, rules, region, &cuts.parts)
    }
}

/// The cut specification `cut_bits` describes (`2^bits` parts per dimension).
fn cut_parts(cut_bits: &[u8; FIELD_COUNT]) -> CutSpec {
    CutSpec {
        parts: cut_bits.map(|b| 1u32 << b),
    }
}

/// Region of the `i`-th child of a node with cut bit-counts `cut_bits`,
/// decomposing `i` in mixed radix with dimension 0 as the most significant
/// digit (the same convention [`crate::encode::NodeHeader`] realises in
/// mask/shift form).
pub fn child_region(
    region: &[FieldRange; FIELD_COUNT],
    cut_bits: &[u8; FIELD_COUNT],
    i: u64,
) -> [FieldRange; FIELD_COUNT] {
    cut_parts(cut_bits).child_region(region, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_classbench::{ClassBenchGenerator, SeedStyle};

    fn acl(n: usize) -> RuleSet {
        ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(n)
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
        let err =
            HwTree::build(&toy, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts)).unwrap_err();
        assert_eq!(err, BuildError::UnsupportedGeometry);
    }

    #[test]
    fn root_is_always_internal() {
        // Even a tiny ruleset (fewer rules than binth) gets an internal root.
        let rs = acl(5);
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let tree = HwTree::build(&rs, &BuildConfig::paper_defaults(algo)).unwrap();
            assert!(matches!(tree.nodes[0], HwNode::Internal { .. }), "{algo:?}");
        }
    }

    #[test]
    fn internal_nodes_respect_the_cut_cap() {
        let rs = acl(800);
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let tree = HwTree::build(&rs, &BuildConfig::paper_defaults(algo)).unwrap();
            for node in &tree.nodes {
                if let HwNode::Internal {
                    cut_bits, children, ..
                } = node
                {
                    let total: u32 = cut_bits.iter().map(|&b| u32::from(b)).sum();
                    assert!(total <= 8, "more than 256 cuts: {cut_bits:?}");
                    assert_eq!(children.len(), 1usize << total);
                }
            }
        }
    }

    #[test]
    fn cut_depth_never_exceeds_eight_bits_per_dimension() {
        let rs = acl(800);
        let tree =
            HwTree::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts)).unwrap();
        for node in &tree.nodes {
            if let HwNode::Internal {
                cut_bits, consumed, ..
            } = node
            {
                for d in 0..FIELD_COUNT {
                    assert!(consumed[d] + cut_bits[d] <= 8, "dimension {d} over-cut");
                }
            }
        }
    }

    #[test]
    fn leaves_cover_every_rule_at_least_once() {
        let rs = acl(500);
        let tree = HwTree::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts)).unwrap();
        let mut seen = vec![false; rs.len()];
        for node in &tree.nodes {
            if let HwNode::Leaf { rules } = node {
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
        let tree = HwTree::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts)).unwrap();
        for node in &tree.nodes {
            if let HwNode::Internal { cut_bits, .. } = node {
                let cut_dims = cut_bits.iter().filter(|&&b| b > 0).count();
                assert_eq!(
                    cut_dims, 1,
                    "modified HiCuts must cut exactly one dimension"
                );
            }
        }
    }

    #[test]
    fn hypercuts_uses_multiple_dimensions_somewhere() {
        let rs = acl(1000);
        let tree =
            HwTree::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts)).unwrap();
        let multi = tree.nodes.iter().any(|n| match n {
            HwNode::Internal { cut_bits, .. } => cut_bits.iter().filter(|&&b| b > 0).count() > 1,
            _ => false,
        });
        assert!(multi, "expected at least one multi-dimensional cut");
    }

    #[test]
    fn smaller_binth_means_more_leaves() {
        let rs = acl(600);
        let mut small = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        small.binth = 4;
        let mut large = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        large.binth = 30;
        let t_small = HwTree::build(&rs, &small).unwrap();
        let t_large = HwTree::build(&rs, &large).unwrap();
        assert!(t_small.leaf_count() >= t_large.leaf_count());
        assert!(
            t_large.max_leaf_rules() <= 30 || t_small.max_leaf_rules() <= t_large.max_leaf_rules()
        );
    }

    #[test]
    fn build_stats_smaller_than_original_software_build() {
        // The headline of Table 3: the modified algorithm does less work
        // building the structure than the original (cuts start at 32).
        use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
        let rs = acl(800);
        let hw = HwTree::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts)).unwrap();
        let sw = HiCutsClassifier::build(
            &rs,
            &HiCutsConfig {
                binth: 16,
                spfac: 4.0,
            },
        );
        assert!(
            hw.build_stats.cut_evaluations < sw.build_stats().cut_evaluations,
            "modified build should evaluate fewer cuts: hw {} vs sw {}",
            hw.build_stats.cut_evaluations,
            sw.build_stats().cut_evaluations
        );
    }

    #[test]
    fn child_region_roundtrip() {
        let rs = acl(10);
        let region = rs.full_region();
        let mut cut_bits = [0u8; FIELD_COUNT];
        cut_bits[0] = 2;
        cut_bits[4] = 1;
        // All 8 children partition the region volume.
        let mut volume = 0u128;
        for i in 0..8u64 {
            let child = child_region(&region, &cut_bits, i);
            volume += u128::from(child[0].len()) * u128::from(child[4].len());
            assert_eq!(child[1], region[1]);
        }
        assert_eq!(
            volume,
            u128::from(region[0].len()) * u128::from(region[4].len())
        );
    }

    #[test]
    fn tree_metrics_are_consistent() {
        let rs = acl(300);
        let tree =
            HwTree::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts)).unwrap();
        assert_eq!(tree.internal_count() + tree.leaf_count(), tree.nodes.len());
        assert!(tree.max_depth() >= 1);
        assert!(tree.stored_rule_refs() >= rs.len());
        assert!(tree.max_leaf_rules() > 0);
        assert_eq!(
            tree.build_stats.internal_nodes as usize,
            tree.internal_count()
        );
        assert_eq!(tree.build_stats.leaf_nodes as usize, tree.leaf_count());
    }
}
