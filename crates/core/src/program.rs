//! Serialisation of the modified algorithms' tree — the build-order arena
//! [`crate::builder::build_tree`] returns, read through
//! [`FlatTree::node`] — into 4800-bit memory words: the image that would be
//! written into the accelerator's block RAMs.
//!
//! The layout follows Section 3 of the paper:
//!
//! * every internal node occupies one whole memory word (masks/shifts plus
//!   up to 256 child entries of 18 bits each);
//! * all internal nodes are stored first, in the arena's record order (the
//!   root first), followed by the leaves in its leaf order, so leaves can
//!   be packed densely — both orders are the builder's, which is why the
//!   encoder reads the arena as built and never lays it out;
//! * leaf rules are 160 bits each, 30 per word; with `speed = 0` leaves are
//!   packed back to back (a leaf may start at any slot and spill into the
//!   next word), with `speed = 1` a leaf only starts mid-word when it fits
//!   entirely in the remaining slots of that word (Eq. 6), trading a little
//!   memory for one fewer access per lookup (Eq. 7 vs Eq. 5);
//! * word 0 holds the root node; the accelerator preloads it into register A
//!   at reset, which is why the root's memory access does not appear in the
//!   per-packet cycle counts.
//!
//! Building a program is the model's *configuration time*: the words are
//! emitted and then, the way a device is loaded once before traffic flows,
//! read back and decoded once into the private mirror (`mirror.rs`) that
//! [`crate::hw::Accelerator`] walks per packet.  The mirror is built from
//! the emitted bits alone, and a malformed image fails there, at load.
//! [`HardwareProgram::memory_bytes`] and [`ProgramStats::memory_bytes`]
//! count device memory only (`words × 600` bytes); the mirror is host
//! memory of the simulator beside it, about 1,460 bytes per word plus 4 per
//! selectable child entry (≈0.7 MiB for a 503-word image).

use crate::bits::{zero_word, Word};
use crate::builder::{
    build_tree_within, consumed, internal_node, leaves, BuildConfig, BuildError, SpeedMode, LEAF,
};
use crate::encode::{write_internal, write_rule, ChildEntry, NodeHeader};
use crate::mirror::Mirror;
use crate::{DEFAULT_WORD_CAPACITY, RULES_PER_WORD, WORD_BYTES};
use pclass_algos::counters::BuildStats;
use pclass_algos::flat::FlatTree;
use pclass_types::{Dimension, DimensionSpec, FieldRange, Rule, RuleSet, FIELD_COUNT};

/// Placement of one leaf in the packed rule area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeafPlacement {
    word: usize,
    pos: usize,
    rules: usize,
}

/// Summary statistics of a built program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramStats {
    /// Memory words used by internal nodes.
    pub internal_words: usize,
    /// Memory words used (fully or partially) by leaf rules.
    pub leaf_words: usize,
    /// Total memory words used.
    pub total_words: usize,
    /// Bytes of accelerator memory used (`total_words * 600`; device SRAM,
    /// not the simulator's host memory).
    pub memory_bytes: usize,
    /// Total rule images stored in leaves (counts replication).
    pub stored_rules: usize,
    /// Worst-case clock cycles to classify a packet (Table 4 / Table 8
    /// semantics: root traversal + internal node loads + leaf word loads).
    pub worst_case_cycles: u32,
    /// Depth of the deepest leaf (root = 0).
    pub tree_depth: u32,
}

/// The search structure serialised into accelerator memory words.
#[derive(Debug, Clone)]
pub struct HardwareProgram {
    words: Vec<Word>,
    /// `words`, decoded once (see the module docs).
    mirror: Mirror,
    config: BuildConfig,
    stats: ProgramStats,
    build_stats: BuildStats,
    rules: Vec<Rule>,
    spec: DimensionSpec,
    word_capacity: usize,
}

impl HardwareProgram {
    /// Builds the modified decision tree for `ruleset` and serialises it,
    /// using the paper's default capacity of 1024 words (614,400 bytes).
    pub fn build(ruleset: &RuleSet, config: &BuildConfig) -> Result<HardwareProgram, BuildError> {
        HardwareProgram::build_with_capacity(ruleset, config, DEFAULT_WORD_CAPACITY)
    }

    /// Builds with an explicit word capacity.  Capacities above 4096 are not
    /// addressable by the 12-bit child-entry address field and are rejected.
    pub fn build_with_capacity(
        ruleset: &RuleSet,
        config: &BuildConfig,
        word_capacity: usize,
    ) -> Result<HardwareProgram, BuildError> {
        if word_capacity == 0 || word_capacity > 4096 {
            return Err(BuildError::InvalidConfig(
                "word capacity must be between 1 and 4096".into(),
            ));
        }
        let (tree, build_stats) = build_tree_within(ruleset, config, word_capacity)?;
        Self::encode(ruleset, &tree, build_stats, config, word_capacity)
    }

    /// Plans the word layout of a tree without emitting the image: how many
    /// words internal nodes and leaves need, the resulting memory footprint
    /// and the static worst-case cycle count.
    ///
    /// The Table 4 harness uses this for rulesets whose structure exceeds
    /// what the 12-bit word address space can hold (the paper makes the same
    /// observation for the largest fw1 sets): the layout can still be
    /// *planned* and its size reported even though such a structure could
    /// not be loaded into the accelerator unmodified.
    pub fn plan_layout(tree: &FlatTree, speed: SpeedMode) -> ProgramStats {
        place(tree, speed).1
    }

    /// Serialises the tree built for `ruleset` and decodes the emitted
    /// image.
    fn encode(
        ruleset: &RuleSet,
        tree: &FlatTree,
        build_stats: BuildStats,
        config: &BuildConfig,
        word_capacity: usize,
    ) -> Result<HardwareProgram, BuildError> {
        let (leaf_placement, layout) = place(tree, config.speed);
        let internal_words = layout.internal_words;
        let total_words = layout.total_words;
        let leaf_words = layout.leaf_words;
        if total_words > word_capacity {
            return Err(BuildError::CapacityExceeded {
                required: total_words,
                capacity: word_capacity,
            });
        }

        // --- Emit the words ------------------------------------------------
        let mut words = vec![zero_word(); total_words];
        let internal = (0..).map_while(|i| internal_node(tree, i));
        for (word, node) in words.iter_mut().zip(internal) {
            let entries: Vec<ChildEntry> = node
                .children
                .iter()
                .map(|&child| {
                    if child & LEAF == 0 {
                        return ChildEntry::Internal {
                            word: child as usize,
                        };
                    }
                    match leaf_placement[(child & !LEAF) as usize] {
                        Some(p) => ChildEntry::Leaf {
                            word: p.word,
                            pos: p.pos,
                        },
                        None => ChildEntry::Null, // the empty leaf
                    }
                })
                .collect();
            write_internal(word, &node_header(&node.cuts), &entries)?;
        }
        let mut stored_rules = 0usize;
        for (leaf, placement) in leaves(tree).zip(&leaf_placement) {
            let Some(placement) = placement else {
                continue;
            };
            let mut w = placement.word;
            let mut p = placement.pos;
            for (i, &rule_id) in leaf.rules.iter().enumerate() {
                let end = i + 1 == leaf.rules.len();
                write_rule(&mut words[w], p, &ruleset.rules()[rule_id as usize], end)?;
                stored_rules += 1;
                p += 1;
                if p == RULES_PER_WORD {
                    p = 0;
                    w += 1;
                }
            }
        }

        let stats = ProgramStats {
            internal_words,
            leaf_words,
            total_words,
            memory_bytes: total_words * WORD_BYTES,
            stored_rules,
            worst_case_cycles: layout.worst_case_cycles,
            tree_depth: layout.tree_depth,
        };
        Ok(HardwareProgram {
            mirror: Mirror::decode(&words),
            words,
            config: *config,
            stats,
            build_stats,
            rules: ruleset.rules().to_vec(),
            spec: *ruleset.spec(),
            word_capacity,
        })
    }

    /// This program with its image replaced by `words` and decoded afresh:
    /// how tests load hand-built or deliberately corrupted images.
    #[cfg(test)]
    pub(crate) fn reimaged(&self, words: Vec<Word>) -> HardwareProgram {
        HardwareProgram {
            mirror: Mirror::decode(&words),
            words,
            ..self.clone()
        }
    }

    /// The decoded image the accelerator model walks.
    pub(crate) fn mirror(&self) -> &Mirror {
        &self.mirror
    }

    /// The memory word at `addr`.
    pub fn word(&self, addr: usize) -> &Word {
        &self.words[addr]
    }

    /// Number of memory words in the image.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The word capacity the program was built against.
    pub fn word_capacity(&self) -> usize {
        self.word_capacity
    }

    /// The root node word (preloaded into register A at reset).
    pub fn root_word(&self) -> &Word {
        &self.words[0]
    }

    /// Bytes of accelerator memory used (device SRAM; the host-side decoded
    /// mirror is not counted).
    pub fn memory_bytes(&self) -> usize {
        self.stats.memory_bytes
    }

    /// Worst-case clock cycles per classification.
    pub fn worst_case_cycles(&self) -> u32 {
        self.stats.worst_case_cycles
    }

    /// Program statistics.
    pub fn stats(&self) -> &ProgramStats {
        &self.stats
    }

    /// Build statistics of the modified algorithm (for Table 3).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The build configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// The rules the program classifies against.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Geometry of the ruleset.
    pub fn spec(&self) -> &DimensionSpec {
        &self.spec
    }
}

/// Packs the leaves after the internal nodes — internal node `i` of
/// [`internal_node`]'s word order takes word `i` — returning each leaf's
/// placement, in leaf order, and the resulting layout statistics (shared
/// by [`HardwareProgram::encode`] and [`HardwareProgram::plan_layout`]).
fn place(tree: &FlatTree, speed: SpeedMode) -> (Vec<Option<LeafPlacement>>, ProgramStats) {
    let internal_words = (0..).map_while(|i| internal_node(tree, i)).count();
    let mut leaf_placement = Vec::new();
    let mut word = internal_words;
    let mut pos = 0usize;
    let mut stored_rules = 0usize;
    for leaf in leaves(tree) {
        let rules = leaf.rules.len();
        if rules == 0 {
            leaf_placement.push(None); // empty leaves become null child entries
            continue;
        }
        if speed == SpeedMode::Throughput && pos > 0 && rules + pos > RULES_PER_WORD {
            // Eq. 6: with speed = 1 a leaf may only start mid-word if it fits
            // entirely in the remaining slots of that word.
            word += 1;
            pos = 0;
        }
        leaf_placement.push(Some(LeafPlacement { word, pos, rules }));
        stored_rules += rules;
        let consumed = pos + rules;
        word += consumed / RULES_PER_WORD;
        pos = consumed % RULES_PER_WORD;
    }
    let total_words = if pos == 0 { word } else { word + 1 };
    let mut memo = vec![None; internal_words];
    let (worst_case_cycles, tree_depth) = worst_case(tree, &leaf_placement, 0, &mut memo);
    let stats = ProgramStats {
        internal_words,
        leaf_words: total_words - internal_words,
        total_words,
        memory_bytes: total_words * WORD_BYTES,
        stored_rules,
        worst_case_cycles,
        tree_depth,
    };
    (leaf_placement, stats)
}

/// Builds the hardware mask/shift header for a node cutting `cuts` (a power
/// of two of parts per cut dimension); the range each dimension is cut
/// over says how many of its bits were cut away above the node.
///
/// Dimension `d` contributes the bits `[8 - consumed_d - cut_bits_d,
/// 8 - consumed_d)` of its 8 MSBs; the shift aligns that contribution to its
/// mixed-radix position (dimension 0 is the most significant digit).
fn node_header(cuts: &[Option<(u32, FieldRange)>; FIELD_COUNT]) -> NodeHeader {
    let cut_bits = cuts.map(|cut| cut.map_or(0, |(parts, _)| parts.trailing_zeros() as u8));
    let mut header = NodeHeader::identity();
    // Bits contributed by later dimensions (lower-order digits).
    let mut low_bits_after = [0u8; FIELD_COUNT];
    let mut acc = 0u8;
    for d in (0..FIELD_COUNT).rev() {
        low_bits_after[d] = acc;
        acc += cut_bits[d];
    }
    for d in Dimension::ALL {
        let Some((_, range)) = cuts[d.index()] else {
            continue;
        };
        let bits = cut_bits[d.index()];
        let top = 8 - consumed(d, range); // exclusive upper bit position within the MSB byte
        let mask = (((1u16 << bits) - 1) << (top - bits)) as u8;
        header.masks[d.index()] = mask;
        // (value & mask) >> (top - bits) gives the digit; it must then be
        // shifted left by the number of lower-order bits.
        header.shifts[d.index()] =
            i16::from(top - bits) as i8 - i16::from(low_bits_after[d.index()]) as i8;
    }
    header
}

/// The static worst case below the node `slot` names, and its depth: the
/// root traversal (1 cycle, from register A) plus one cycle per further
/// internal node plus the leaf words the largest leaf on the path touches
/// (Eqs. 5/7 with the match in the last rule); the depth is the deepest
/// leaf's, root = 0.  Each internal node is folded once (`memo`).
fn worst_case(
    tree: &FlatTree,
    placement: &[Option<LeafPlacement>],
    slot: u32,
    memo: &mut [Option<(u32, u32)>],
) -> (u32, u32) {
    if slot & LEAF != 0 {
        // The empty leaf has nothing to load.
        let words = placement[(slot & !LEAF) as usize].map_or(0, |p| {
            (p.pos + p.rules).div_ceil(RULES_PER_WORD) - p.pos / RULES_PER_WORD
        });
        return (words as u32, 0);
    }
    if let Some(folded) = memo[slot as usize] {
        return folded;
    }
    let node = internal_node(tree, slot).expect("a child slot names a record");
    let (mut cycles, mut depth) = (0, 0);
    for &child in node.children {
        let (c, d) = worst_case(tree, placement, child, memo);
        cycles = cycles.max(c);
        depth = depth.max(d);
    }
    let folded = (1 + cycles, 1 + depth);
    memo[slot as usize] = Some(folded);
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CutAlgorithm;
    use crate::encode::{read_child, read_header, read_rule};
    use pclass_algos::dtree::CutSpec;
    use pclass_classbench::{ClassBenchGenerator, SeedStyle};

    fn acl(n: usize) -> RuleSet {
        ClassBenchGenerator::new(SeedStyle::Acl, 7).generate(n)
    }

    #[test]
    fn build_produces_nonempty_image() {
        let rs = acl(300);
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let program = HardwareProgram::build(&rs, &BuildConfig::paper_defaults(algo)).unwrap();
            let stats = program.stats();
            assert!(stats.internal_words >= 1);
            assert!(stats.leaf_words >= 1);
            assert_eq!(stats.total_words, program.word_count());
            assert_eq!(stats.memory_bytes, stats.total_words * WORD_BYTES);
            assert!(stats.stored_rules >= rs.len());
            assert!(stats.worst_case_cycles >= 2);
            assert_eq!(program.word_capacity(), DEFAULT_WORD_CAPACITY);
            assert_eq!(program.rules().len(), rs.len());
            assert_eq!(*program.spec(), DimensionSpec::FIVE_TUPLE);
        }
    }

    #[test]
    fn word_zero_is_the_root_internal_node() {
        let rs = acl(200);
        let program =
            HardwareProgram::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts))
                .unwrap();
        // The root header must select among at least 32 children: at least
        // one mask is non-zero.
        let header = read_header(program.root_word());
        assert!(header.masks.iter().any(|&m| m != 0));
        // Child entries of the root must point within the image.
        for i in 0..32 {
            match read_child(program.root_word(), i) {
                ChildEntry::Internal { word } => assert!(word < program.word_count()),
                ChildEntry::Leaf { word, pos } => {
                    assert!(word < program.word_count());
                    assert!(pos < RULES_PER_WORD);
                }
                ChildEntry::Null => {}
            }
        }
    }

    #[test]
    fn stored_rules_decode_back_to_real_rules() {
        let rs = acl(150);
        let program =
            HardwareProgram::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts))
                .unwrap();
        let stats = program.stats();
        let mut decoded_rules = 0usize;
        let mut end_markers = 0usize;
        for w in stats.internal_words..stats.total_words {
            for pos in 0..RULES_PER_WORD {
                // Skip slots whose raw 160 bits are all zero (never written).
                let base = pos * crate::RULE_BITS;
                let raw_empty = crate::bits::get_bits(program.word(w), base, 64) == 0
                    && crate::bits::get_bits(program.word(w), base + 64, 64) == 0
                    && crate::bits::get_bits(program.word(w), base + 128, 32) == 0;
                if raw_empty {
                    continue;
                }
                let r = read_rule(program.word(w), pos);
                let original = &program.rules()[r.id as usize];
                assert_eq!(r.ranges, original.ranges, "rule {} image mismatch", r.id);
                decoded_rules += 1;
                if r.end_of_leaf {
                    end_markers += 1;
                }
            }
        }
        assert_eq!(decoded_rules, stats.stored_rules);
        assert!(end_markers >= 1);
    }

    #[test]
    fn speed_modes_trade_memory_for_cycles() {
        let rs = acl(2000);
        let mut mem_cfg = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        mem_cfg.speed = SpeedMode::MemoryEfficient;
        let mut fast_cfg = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        fast_cfg.speed = SpeedMode::Throughput;
        let memory = HardwareProgram::build(&rs, &mem_cfg).unwrap();
        let fast = HardwareProgram::build(&rs, &fast_cfg).unwrap();
        assert!(
            memory.memory_bytes() <= fast.memory_bytes(),
            "speed=0 should never use more memory ({} vs {})",
            memory.memory_bytes(),
            fast.memory_bytes()
        );
        assert!(
            fast.worst_case_cycles() <= memory.worst_case_cycles(),
            "speed=1 should never need more cycles ({} vs {})",
            fast.worst_case_cycles(),
            memory.worst_case_cycles()
        );
    }

    #[test]
    fn capacity_is_enforced() {
        let rs = acl(2000);
        let config = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        let err = HardwareProgram::build_with_capacity(&rs, &config, 4).unwrap_err();
        assert!(matches!(
            err,
            BuildError::CapacityExceeded { capacity: 4, .. }
        ));
        // The 12-bit child-entry address field addresses 4096 words: the
        // word-capacity check is the one `InvalidConfig` still guards.
        for capacity in [0, 4097] {
            assert!(matches!(
                HardwareProgram::build_with_capacity(&rs, &config, capacity),
                Err(BuildError::InvalidConfig(_))
            ));
        }
        assert!(HardwareProgram::build_with_capacity(&rs, &config, 4096).is_ok());
    }

    #[test]
    fn a_fitting_build_is_the_unbounded_build() {
        // The capacity only ever stops a build that could not fit: a build
        // that fits is the unbounded tree, laid out.
        let rs = acl(600);
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            let config = BuildConfig::paper_defaults(algo);
            let (tree, build_stats) = crate::builder::build_tree(&rs, &config).unwrap();
            let layout = HardwareProgram::plan_layout(&tree, config.speed);
            // Exactly enough words, and the paper's default capacity.
            for capacity in [layout.total_words, DEFAULT_WORD_CAPACITY] {
                let program = HardwareProgram::build_with_capacity(&rs, &config, capacity).unwrap();
                assert_eq!(*program.stats(), layout, "{algo:?} at {capacity}");
                assert_eq!(
                    *program.build_stats(),
                    build_stats,
                    "{algo:?} at {capacity}"
                );
            }
            let err = HardwareProgram::build_with_capacity(&rs, &config, layout.total_words - 1)
                .unwrap_err();
            assert!(
                matches!(err, BuildError::CapacityExceeded { capacity, .. }
                    if capacity == layout.total_words - 1),
                "{err}"
            );
        }
    }

    #[test]
    fn node_header_mixed_radix_matches_child_region() {
        use pclass_types::PacketHeader;
        // 2 bits on src ip, 1 bit on protocol, nothing consumed yet.
        let cuts = CutSpec {
            parts: [4, 1, 1, 1, 2],
        };
        let rs = acl(1);
        let region = rs.full_region();
        let header = node_header(&[Some((4, region[0])), None, None, None, Some((2, region[4]))]);
        let spec = DimensionSpec::FIVE_TUPLE;
        for src in [0u32, 0x3FFF_FFFF, 0x4000_0000, 0x8000_0000, 0xFFFF_FFFF] {
            for proto in [0u32, 127, 128, 255] {
                let pkt = PacketHeader::from_fields([src, 0, 0, 0, proto]);
                let idx = header.child_index(&pkt.msb8(&spec));
                let child = cuts.child_region(&region, u64::from(idx));
                assert!(child[0].contains(src), "src {src:#x} idx {idx}");
                assert!(child[4].contains(proto), "proto {proto} idx {idx}");
            }
        }
    }

    #[test]
    fn node_header_respects_consumed_bits() {
        use pclass_types::PacketHeader;
        // A node one level down: 2 bits of src already consumed (a quarter
        // of the address space), cut 3 more.
        let quarter = FieldRange::new(0, u32::MAX >> 2);
        let header = node_header(&[Some((8, quarter)), None, None, None, None]);
        let spec = DimensionSpec::FIVE_TUPLE;
        // Bits 5..3 (counting from bit 7) of the MSB byte select the child.
        let pkt = PacketHeader::from_fields([0b0011_1000 << 24, 0, 0, 0, 0]);
        assert_eq!(header.child_index(&pkt.msb8(&spec)), 0b111);
        let pkt = PacketHeader::from_fields([0b0001_1100 << 24, 0, 0, 0, 0]);
        assert_eq!(header.child_index(&pkt.msb8(&spec)), 0b011);
        let pkt = PacketHeader::from_fields([0b1100_0000 << 24, 0, 0, 0, 0]);
        assert_eq!(header.child_index(&pkt.msb8(&spec)), 0);
    }
}
