//! Cache-compact flat arena representation of a decision tree, with a
//! batched level-synchronous traversal.
//!
//! The pointer trees built by [`crate::hicuts`] and [`crate::hypercuts`]
//! classify one packet at a time by chasing
//! [`NodeId`](crate::dtree::NodeId) indirections through an
//! enum-of-`Vec`s [`DecisionTree`]: every step loads a large [`Node`] (a
//! 40-byte region, a depth, and a `NodeKind` whose `Vec` payloads live in
//! separate heap allocations), so a traversal is a chain of dependent cache
//! misses — exactly the memory-latency wall the HiCuts and HyperCuts papers
//! identify as the cost of decision-tree classification.
//!
//! [`FlatTree`] re-packs a built tree into a handful of dense arrays:
//!
//! * one **64-byte, cache-line-aligned record per internal node**
//!   (`NodeRec`): the stored-rule span, the child-base index, the cut
//!   count *and the node's first cut record inline* — everything one walk
//!   step needs before branching, in exactly one potential cache miss;
//! * one dense **leaf table** of 8-byte rule-slab spans, one per leaf — a
//!   leaf is nothing but its rule list, so it needs no record, and eight
//!   leaves share a cache line;
//! * one shared **cut slab** of `(dimension, parts, lo, hi, magics)`
//!   records for cuts past each node's first (HyperCuts' extra
//!   dimensions; empty for HiCuts trees), in dimension order so the
//!   mixed-radix child index of
//!   [`CutSpec::child_index`](crate::dtree::CutSpec::child_index) is reproduced exactly;
//! * one shared **child slab** holding every child pointer array
//!   back-to-back, addressed by `(child_base + index)`; a child slot is a
//!   tagged `u32` — an internal-record index, or, with the high bit set, a
//!   leaf-table index — so a walk knows it has reached a leaf before
//!   loading anything;
//! * one shared **rule slab** with all leaf rule lists and pushed-up rule
//!   lists packed end to end as 4-byte rule **ids**, addressed by
//!   `(offset, len)`;
//! * one **rule table** indexed by id holding each rule's image (the five
//!   range pairs) exactly **once**, one cache line per rule — the paper's
//!   software memory model (a leaf holds references, a rule is stored
//!   once; [`crate::dtree::MemoryModel`]).  A scan reads the id off the
//!   slab, drops it there if it cannot beat the best match so far, and
//!   only otherwise loads the rule's line.
//!
//! Nodes are renumbered in breadth-first discovery order by the one layout
//! pass that both [`FlatTree::from_tree`] and [`FlatTree::reflatten`] run
//! (internal records and leaf spans each in their own table), so the
//! entries of one tree level are contiguous in memory.
//! [`FlatTree::classify_batch`] exploits that: it advances a whole batch of
//! packets one level at a time (a per-batch worklist), so the node records
//! of the hot top levels are touched by every packet while they are still
//! in cache — the tree analogue of RFC's phase-major batched loop.
//!
//! The flat traversal is decision-for-decision identical to
//! [`DecisionTree::classify`]; the property tests in
//! `tests/flat_equivalence.rs` enforce this packet-for-packet across random
//! rulesets, builder configurations and batch sizes.
//!
//! # Vectorised lane walk
//!
//! [`FlatTree::classify_batch`] does not merely iterate the worklist packet
//! by packet: it advances the level-synchronous worklist in **lanes** of
//! [`LaneWidth`] packets (hand-unrolled fixed-size arrays — no nightly
//! `std::simd`).  Each lane step first gathers one word of each of the `N`
//! slots — an internal node's record or a leaf's span, told apart by the
//! slot's tag — so the `N` loads are fetched as overlapped, independent
//! cache misses — memory-level
//! parallelism where the packet-at-a-time walk would serialise behind one
//! miss at a time — and then finishes each lane over the now-hot lines:
//!
//! * the per-cut `index_of` partition arithmetic runs over parameters
//!   precomputed at flatten time; the one division the lookup formula
//!   needs is replaced by a Granlund–Montgomery/Lemire multiply-shift
//!   *magic* (`FlatCut::new` stores `ceil(2^64 / divisor)`; a 64-bit
//!   high-multiply then divides exactly for every 32-bit offset), so the
//!   hot loop contains no division at all — and the first cut record is
//!   read straight off the node's record line, never from the cut slab;
//! * leaf and stored-rule scans compare the rule images **branch
//!   free** in blocks of `SCAN_BLOCK`: all five range pairs of a block
//!   are tested with non-short-circuiting compares into a bitmask and the
//!   first match is taken from the mask, preserving the scalar early-exit
//!   semantics (ids are ascending, so the first match is the best one);
//! * on advancing a packet, the walk issues a **portable read-ahead
//!   touch** (the crate forbids `unsafe`, so a `std::hint::black_box`
//!   read stands in for `_mm_prefetch`) of one word of the child's record
//!   line, or of its 8-byte span when the child is a leaf — a full level
//!   of work ahead of its use, so the next level's gather finds the line
//!   in cache.  A packet whose slot names a leaf retires at that gather
//!   without any record load.  Touches are only issued for arenas
//!   larger than `PREFETCH_MIN_BYTES`; a cache-resident arena gains
//!   nothing from them.
//!
//! There is one batch walk: [`LaneWidth::Scalar`] is a lane of one, and so
//! is each step of a worklist tail shorter than a lane.  The per-packet
//! walk is [`FlatTree::classify`] (the stats path, with the scalar
//! early-exit scan), and it is the differential-test oracle:
//! `tests/vector_walk.rs` property-tests every lane width against it
//! packet-for-packet across rulesets, odd tail sizes and post-churn arenas
//! whose spans have moved, and checks it in turn against linear search
//! over the live rules.
//!
//! A second measured negative result, for the record: building with
//! `-C target-cpu=native` (AVX2/AVX-512 codegen on the reference host)
//! benchmarks *slower* than the portable x86-64 baseline on every arena
//! size — the walk's throughput is bounded by cache misses and branch
//! resolution, not by the width of its compare instructions, and the
//! wider vectors cost frequency.  The workspace therefore ships no
//! target-feature configuration; the vectorisation that pays here is the
//! memory-level kind, not the ALU kind.
//!
//! # Incremental updates
//!
//! The arena is the one structure that takes rule updates — the pointer
//! tree is an immutable build product — and it is *patchable in place*
//! ([`FlatTree::insert`] / [`FlatTree::delete`]): an update descends only
//! the subtrees the rule's ranges intersect (un-sharing merged leaves on
//! the way down — reference counts cover leaves and internal records
//! alike, so the builders' shared empty leaf is cloned, never written
//! through) and edits the leaf's span of rule ids inside the slab;
//! the rule's image is written to (or retired from) its one line of the
//! rule table, which is also the arena's record of which ids are live.  A
//! delete shrinks the span, leaving a free slot of *slack* behind; an
//! insert first fills span slack and only when the span is full **moves the
//! span** to the slab end with fresh slack, so a node's rules always have
//! exactly one home and a lookup never looks anywhere else.  The slots a
//! moved span leaves behind are dead weight in the slab; their share of it
//! — the [`FlatTree::dirty_ratio`] — is what degrades the cache-compact
//! layout, so once it crosses `REFLATTEN_DIRTY_RATIO`
//! [`FlatTreeClassifier`] triggers an amortized [`FlatTree::reflatten`]:
//! one sequential compaction pass that rebuilds the slabs from the live
//! node graph (no tree rebuild), drops the dead slots and re-provisions
//! every span with fresh slack.

use crate::counters::LookupStats;
use crate::dtree::{CutTreeClassifier, DecisionTree, Node, NodeKind, RosterPolicy};
use crate::update::UpdateError;
use crate::Classifier;
use pclass_types::{
    ArenaStats, DimensionSpec, FieldRange, MatchResult, PacketHeader, Rule, RuleId, UpdateStats,
    FIELD_COUNT,
};

/// Sentinel for "no match found yet" in the batched traversal, and the
/// filler of rule-slab slots no span covers (slack, vacated and dead
/// slots).  No rule id can take this value: build-time ids equal ruleset
/// positions, and [`FlatTree::insert`] rejects ids at or above the
/// sparse-id limit, which is always below this sentinel.
const NO_MATCH: u32 = u32::MAX;

/// Number of packets one vectorised worklist lane advances together (the
/// `N` of the hand-unrolled `u32xN` arrays in the lane walk).
///
/// [`LaneWidth::Scalar`] is a lane of one: the same lane walk, one packet
/// per step (the walk's tails shorter than a lane take that step too).
/// The property tests hold every width to per-packet
/// [`FlatTree::classify`].
///
/// [`FlatTree::classify_batch`] picks the width itself, from the arena
/// size, by what the benchmark's `algos.flat.lanes_{x4,x16}.ns_per_pkt`
/// probes measure (traced runs on a 2-vCPU Xeon guest with a 2 MiB L2 per
/// core): [`LaneWidth::X16`] wins while the arena is cache-resident
/// (39.7–70.7 vs 43.5–72.3 ns per packet over three runs on the 0.21 MiB
/// arena of 2,000 rules, ahead in each).  Past `PREFETCH_MIN_BYTES` the
/// two are within each other's run-to-run spread — medians 98.1 (x4) vs
/// 102.0 ns over six runs on the 1.54 MiB arena of 10,000 rules, 344–524
/// vs 382–493 ns over three runs on the 74 MiB arena of 64,000 (quartiles
/// 22–144 ns apart) — and [`LaneWidth::X4`] serves there: it is never
/// resolvably the slower one, and it was the faster one by a fifth (420
/// vs 506 ns) when the same 64,000 rules were served from a 403 MiB image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWidth {
    /// Lanes of 1 packet.
    Scalar,
    /// Lanes of 4 packets — serves arenas past `PREFETCH_MIN_BYTES`.
    X4,
    /// Lanes of 16 packets — serves cache-resident arenas.
    X16,
}

impl LaneWidth {
    /// Every lane width, scalar first (test sweeps iterate this).
    pub const ALL: [LaneWidth; 3] = [LaneWidth::Scalar, LaneWidth::X4, LaneWidth::X16];
}

/// Rules per branch-free scan block: the five range pairs of a whole block
/// are compared without short-circuiting into one bitmask, and only then
/// is the first match selected — data-dependent branches happen once per
/// block instead of once per rule.
const SCAN_BLOCK: usize = 4;

/// Arena size below which read-ahead touches are skipped: a
/// cache-resident arena cannot miss, so the touches would be pure
/// instruction overhead.  Set to a typical per-core L2 size.
const PREFETCH_MIN_BYTES: usize = 1 << 20;

/// A `(offset, len)` span into one of the shared slabs.  Aligned to its
/// 8 bytes, so a leaf-table entry never straddles a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(8))]
struct Span {
    off: u32,
    len: u32,
}

impl Span {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// The high bit of a child slot (and of [`FlatTree`]'s root slot): set, the
/// rest of the slot indexes the leaf table; clear, the slot indexes the
/// internal records.
const LEAF_TAG: u32 = 1 << 31;

/// Most entries the internal-record table or the leaf table may hold.
/// Every index then stays below [`LEAF_TAG`], and no slot equals
/// `u32::MAX`, the layout pass's "not placed yet" marker.
const MAX_TABLE_LEN: usize = (LEAF_TAG - 1) as usize;

/// A child slot, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Index into [`FlatTree`]'s internal records.
    Internal(usize),
    /// Index into [`FlatTree`]'s leaf table.
    Leaf(usize),
}

impl Slot {
    #[inline]
    fn of(slot: u32) -> Slot {
        if slot & LEAF_TAG == 0 {
            Slot::Internal(slot as usize)
        } else {
            Slot::Leaf((slot & !LEAF_TAG) as usize)
        }
    }

    fn is_leaf(self) -> bool {
        matches!(self, Slot::Leaf(_))
    }
}

/// The slot naming entry `i` of the leaf table (`leaf`) or of the internal
/// records; panics once `i` reaches [`MAX_TABLE_LEN`].
fn encode_slot(i: usize, leaf: bool) -> u32 {
    assert!(
        i < MAX_TABLE_LEN,
        "flat arena table index {i} reaches the leaf tag bit"
    );
    if leaf {
        i as u32 | LEAF_TAG
    } else {
        i as u32
    }
}

/// One cut dimension of an internal node: `parts` equal-width partitions of
/// the (possibly compacted) region `[lo, hi]` along dimension `dim`.
///
/// Records of one node are stored consecutively in dimension order, so
/// folding them most-significant-first reproduces the mixed-radix child
/// index of the pointer tree.
///
/// The partition parameters of [`FieldRange::index_of`] (`base` child
/// width, `rem` leading children one wider, `wide_span = rem * (base+1)`)
/// depend only on the region and `parts`, so they are precomputed at
/// flatten time.  The one division the lookup formula still needs is
/// replaced by a multiply-shift *magic*: for a 32-bit divisor `d`,
/// `m = ceil(2^64 / d)` makes `(offset * m) >> 64` an **exact** quotient
/// for every 32-bit `offset` (Granlund–Montgomery; the 32/64-bit bound is
/// Lemire & Kaser's), so the per-packet child selection is two multiplies
/// — no division at all, the same division-removal idea the paper applies
/// in its hardware-oriented cut algorithms, taken one step further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlatCut {
    dim: u32,
    parts: u32,
    lo: u32,
    hi: u32,
    /// Number of leading children of width `base + 1`.
    rem: u32,
    /// `rem * (base + 1)`: offsets below this fall in a wide child.
    wide_span: u32,
    /// `ceil(2^64 / (base + 1))`: magic divisor for the wide children —
    /// or 0 when `parts >= region_len`, where the child index is just the
    /// offset (no divisor exists; doubles as the *direct* flag).
    m_wide: u64,
    /// `ceil(2^64 / base)`, or 0 when `base == 1` (divide-by-one needs no
    /// multiply; `ceil(2^64/1)` would not fit in 64 bits).
    m_base: u64,
}

/// `ceil(2^64 / d)` for `2 <= d < 2^32`: the multiply-shift magic making
/// `mul_hi64(n, magic(d)) == n / d` exact for every `n < 2^32`.
fn division_magic(d: u64) -> u64 {
    debug_assert!(d >= 2);
    (u64::MAX / d) + 1
}

/// High 64 bits of the 128-bit product — one `mul` instruction on 64-bit
/// targets.
#[inline]
fn mul_hi64(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) >> 64) as u64
}

impl FlatCut {
    /// Builds a cut record for `parts` partitions of `[lo, hi]` along
    /// dimension index `dim`.
    fn new(dim: usize, parts: u32, region: FieldRange) -> FlatCut {
        let total = region.len();
        let direct = u64::from(parts) >= total;
        let (base, rem) = if direct {
            (0, 0)
        } else {
            (total / u64::from(parts), total % u64::from(parts))
        };
        // rem * (base + 1) < total <= 2^32, so the narrowing casts are exact
        // (parts >= 2 for any real cut keeps base below 2^31).
        FlatCut {
            dim: dim as u32,
            parts,
            lo: region.lo,
            hi: region.hi,
            rem: rem as u32,
            wide_span: (rem * (base + 1)) as u32,
            // base == 0 only when direct; m_wide == 0 encodes direct.
            m_wide: if direct { 0 } else { division_magic(base + 1) },
            m_base: if direct || base == 1 {
                0
            } else {
                division_magic(base)
            },
        }
    }

    /// Index of the child containing `v`, mirroring
    /// [`FieldRange::index_of`] over the precomputed parameters — division
    /// free (see the struct docs).  The caller has already checked
    /// `lo <= v <= hi`.
    #[inline]
    fn sub_index(&self, v: u32) -> u32 {
        let offset = u64::from(v - self.lo);
        if self.m_wide == 0 {
            offset as u32
        } else if offset < u64::from(self.wide_span) {
            mul_hi64(offset, self.m_wide) as u32
        } else {
            let narrow = offset - u64::from(self.wide_span);
            // m_base == 0 encodes base == 1: dividing by one is identity.
            let q = if self.m_base == 0 {
                narrow
            } else {
                mul_hi64(narrow, self.m_base)
            };
            self.rem + q as u32
        }
    }
}

/// The hot per-internal-node record: **exactly one cache line**, 64-byte
/// aligned, holding everything a walk step needs before it knows which way
/// to go — the stored-rule span, the child base, the cut count *and the
/// first cut record inline*.
///
/// An earlier arena kept these as parallel struct-of-arrays vectors (cut
/// span, child base, rule span) plus the shared cut slab;
/// on arenas past cache size that made one internal-node visit four to
/// five potential cache misses.  Folding them into a single aligned line
/// makes a visit cost one miss for the record (first cut included — every
/// HiCuts node and the first dimension of every HyperCuts node pay no
/// cut-slab access at all) plus one for the child pointer.  Only cut
/// records past the first (HyperCuts' extra dimensions) live in the
/// shared `cuts` slab, at `rest_off`.
///
/// Leaves have no record: a leaf is its rule span alone, an 8-byte entry
/// of the leaf table that a tagged child slot names directly.  A record
/// per leaf would wrap that span in 56 bytes of padding, and at 64,000 acl
/// rules three nodes in four are leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
struct NodeRec {
    /// Span into `rule_slab` of the pushed-up stored rules (empty unless
    /// the builder hoisted rules here).
    rules: Span,
    /// Base index into `children`.
    child_base: u32,
    /// Number of cut records (at least 1).
    cut_count: u32,
    /// Offset into `cuts` of cut records `1..cut_count` (the first is
    /// inline in `cut0`).
    rest_off: u32,
    /// The node's first cut record, inline.
    cut0: FlatCut,
}

/// A rule image in the id-indexed rule table: the five `[lo, hi]` range
/// pairs on **one cache line**.  The table stores every rule once; the
/// rule slab's spans refer to it by id.
///
/// The alternative — a 44-byte image (id + ranges) copied into every span
/// that references the rule, so that a scan is one sequential read — was
/// measured, and the copies cost more than the indirection saves: at
/// 64,000 acl rules they are 7.6 M images for 64,000 rules (320 MiB of a
/// 403 MiB arena, against 116 MiB with ids) and the 10,000-rule arena with
/// ids fits L2 and walks a quarter faster; what the indirection costs is
/// one more dependent load where nothing misses — 2–4 % on the arenas that
/// are cache-resident either way.  The entry is padded to a line because
/// an un-aligned 40- or 44-byte one straddles two lines half the time and
/// measures another ≈ 3 % slower on those workloads.
///
/// The match test is evaluated branch-free over all five dimensions
/// (non-lazy `&`), which trades a handful of always-executed compares for
/// the data-dependent branch mispredictions of the short-circuiting
/// [`Rule::matches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
struct PackedRule {
    lo: [u32; FIELD_COUNT],
    hi: [u32; FIELD_COUNT],
}

impl PackedRule {
    /// The table entry of an id that is not live: `lo > hi` in the first
    /// dimension, which no packet satisfies and no rule can hold
    /// ([`FieldRange`] keeps `lo <= hi`).
    const DEAD: PackedRule = PackedRule {
        lo: [1, 0, 0, 0, 0],
        hi: [0; FIELD_COUNT],
    };

    fn new(rule: &Rule) -> PackedRule {
        PackedRule {
            lo: std::array::from_fn(|d| rule.ranges[d].lo),
            hi: std::array::from_fn(|d| rule.ranges[d].hi),
        }
    }

    /// Whether the entry holds a rule (see [`PackedRule::DEAD`]).
    fn is_live(&self) -> bool {
        self.lo[0] <= self.hi[0]
    }

    /// The rule's ranges, reassembled from the packed image.
    fn ranges(&self) -> [FieldRange; FIELD_COUNT] {
        std::array::from_fn(|d| FieldRange::new(self.lo[d], self.hi[d]))
    }

    #[inline]
    fn matches(&self, fields: &[u32; FIELD_COUNT]) -> bool {
        let mut ok = true;
        for ((&lo, &hi), &v) in self.lo.iter().zip(&self.hi).zip(fields) {
            ok &= (lo <= v) & (v <= hi);
        }
        ok
    }
}

/// A decision tree flattened into contiguous arrays (see the module docs
/// for the layout).  Built from a [`DecisionTree`] with
/// [`FlatTree::from_tree`]; the root is the first entry of its table —
/// internal record 0, or leaf 0 when the whole tree is one leaf.  The
/// arena is self-contained: classification touches only these dense
/// arrays.
#[derive(Debug, Clone)]
pub struct FlatTree {
    /// The geometry the tree classifies over (needed to validate inserted
    /// rules and to rebuild a ruleset from the live set).
    spec: DimensionSpec,
    /// The root's slot (see [`LEAF_TAG`]).
    root: u32,
    /// One cache-line record per internal node (see [`NodeRec`]).
    nodes: Vec<NodeRec>,
    /// Per-internal-node capacity of the rule span: slots `len..cap` are
    /// free slack an insert may claim in place.  Always `cap >= len`.  Kept
    /// out of [`NodeRec`]: only the write path reads it.
    node_rule_cap: Vec<u32>,
    /// One rule span per leaf.
    leaves: Vec<Span>,
    /// Per-leaf span capacity, as `node_rule_cap` is per internal node.
    leaf_rule_cap: Vec<u32>,
    /// Shared slab of cut records past each node's first (HyperCuts'
    /// extra dimensions; empty for pure HiCuts trees).
    cuts: Vec<FlatCut>,
    /// Shared child-slot slab (tagged, see [`LEAF_TAG`]).
    children: Vec<u32>,
    /// Shared slab of rule ids: every node's rule list, in ascending id
    /// order, plus its slack ([`NO_MATCH`] in every slot past a span's
    /// `len`).
    rule_slab: Vec<RuleId>,
    /// The rule images, indexed by id — each rule stored once, and the
    /// record of which ids are live ([`PackedRule::DEAD`] marks a hole).
    /// The last entry is always live, so `rule_table.len()` is the end of
    /// the occupied id range.
    rule_table: Vec<PackedRule>,
    /// Slab slots no span covers any more: what full spans left behind
    /// when an insert moved them to the slab end.  Zero until the first
    /// such move and again after every [`FlatTree::reflatten`].
    dead_slots: usize,
    /// How many slots (child slots, plus 1 for the root) name each
    /// internal record and each leaf — built lazily by the first update and
    /// maintained by un-sharing clones.  An insert clones what is named
    /// more than once before writing to it, above all the builders' one
    /// shared empty leaf.
    refs: Option<PerSlot>,
    /// Update-activity counters since the build.
    update_stats: UpdateStats,
}

/// One `u32` per internal record and per leaf, addressed by slot: the
/// write path's reference counts, and a re-flatten's old-to-new slot map.
#[derive(Debug, Clone)]
struct PerSlot {
    internal: Vec<u32>,
    leaves: Vec<u32>,
}

impl PerSlot {
    fn new(flat: &FlatTree, fill: u32) -> PerSlot {
        PerSlot {
            internal: vec![fill; flat.nodes.len()],
            leaves: vec![fill; flat.leaves.len()],
        }
    }

    fn of(&mut self, slot: u32) -> &mut u32 {
        match Slot::of(slot) {
            Slot::Internal(n) => &mut self.internal[n],
            Slot::Leaf(l) => &mut self.leaves[l],
        }
    }
}

/// Breadth-first renumbering step of the layout pass
/// (`FlatTree::layout`): a node met for the first time (`*new` still
/// `u32::MAX`) gets the next index of its table — `counts` is
/// `[internal, leaf]` — and `true` is returned so the caller queues it.
fn place(new: &mut u32, leaf: bool, counts: &mut [usize; 2]) -> bool {
    if *new != u32::MAX {
        return false;
    }
    let count = &mut counts[usize::from(leaf)];
    *new = encode_slot(*count, leaf);
    *count += 1;
    true
}

impl FlatTree {
    /// Flattens a built pointer tree into the arena layout.
    ///
    /// The tree is first transcribed as it is — every node in node-id
    /// order, children as tagged slots, cuts as `FlatCut`s — and then
    /// laid out by the same breadth-first pass [`FlatTree::reflatten`]
    /// runs, with no span slack: internal nodes are renumbered into the
    /// record table and leaves into the leaf table in discovery order, so
    /// shared nodes (merged leaves, the builders' shared empty leaf) keep a
    /// single entry, unreachable ones drop, and the entries of one level
    /// stay contiguous.
    pub fn from_tree(tree: &DecisionTree) -> FlatTree {
        let nodes: &[Node] = tree.nodes();
        let mut counts = [0usize; 2];
        let slots: Vec<u32> = nodes
            .iter()
            .map(|node| {
                let leaf = matches!(node.kind, NodeKind::Leaf { .. });
                let count = &mut counts[usize::from(leaf)];
                *count += 1;
                encode_slot(*count - 1, leaf)
            })
            .collect();
        let mut flat = FlatTree {
            spec: *tree.spec(),
            root: slots[tree.root() as usize],
            nodes: Vec::new(),
            // The span capacities are the layout pass's to write.
            node_rule_cap: Vec::new(),
            leaves: Vec::new(),
            leaf_rule_cap: Vec::new(),
            cuts: Vec::new(),
            children: Vec::new(),
            rule_slab: Vec::new(),
            dead_slots: 0,
            // Build-time ids equal ruleset positions: every entry is live.
            rule_table: tree.rules().iter().map(PackedRule::new).collect(),
            refs: None,
            update_stats: UpdateStats::default(),
        };
        for node in nodes {
            match &node.kind {
                NodeKind::Leaf { rules: ids } => {
                    let span = push_slab(&mut flat.rule_slab, ids);
                    flat.leaves.push(span);
                }
                NodeKind::Internal {
                    cuts,
                    children,
                    stored_rules,
                    cut_region,
                } => {
                    let mut recs = cuts.cut_dimensions().into_iter().map(|d| {
                        let i = d.index();
                        FlatCut::new(i, cuts.parts[i], cut_region[i])
                    });
                    let cut0 = recs
                        .next()
                        .expect("an internal node cuts at least one dimension");
                    let rest_off = flat.cuts.len() as u32;
                    flat.cuts.extend(recs);
                    let child_base = flat.children.len() as u32;
                    flat.children
                        .extend(children.iter().map(|&child| slots[child as usize]));
                    flat.nodes.push(NodeRec {
                        rules: push_slab(&mut flat.rule_slab, stored_rules),
                        child_base,
                        cut_count: 1 + flat.cuts.len() as u32 - rest_off,
                        rest_off,
                        cut0,
                    });
                }
            }
        }
        flat.layout(|_| 0);
        flat
    }

    /// Number of nodes in the arena: internal records plus leaves.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.leaves.len()
    }

    /// The rule span of the node a slot names: a leaf's rules, or an
    /// internal node's stored rules.
    #[inline]
    fn span(&self, slot: u32) -> Span {
        match Slot::of(slot) {
            Slot::Internal(n) => self.nodes[n].rules,
            Slot::Leaf(l) => self.leaves[l],
        }
    }

    /// The rule span of the node a slot names and its capacity, for the
    /// write path.
    fn span_mut(&mut self, slot: u32) -> (&mut Span, &mut u32) {
        match Slot::of(slot) {
            Slot::Internal(n) => (&mut self.nodes[n].rules, &mut self.node_rule_cap[n]),
            Slot::Leaf(l) => (&mut self.leaves[l], &mut self.leaf_rule_cap[l]),
        }
    }

    /// One word of what a step at `slot` loads first — the record's cut
    /// count, or the leaf span's length: the lane walk's gather and its
    /// read-ahead touch.
    #[inline]
    fn first_word(&self, slot: u32) -> u32 {
        match Slot::of(slot) {
            Slot::Internal(n) => self.nodes[n].cut_count,
            Slot::Leaf(l) => self.leaves[l].len,
        }
    }

    /// The `k`-th cut record of a node record: the first is inline, the
    /// rest come from the shared slab.
    #[inline]
    fn cut_at<'a>(&'a self, rec: &'a NodeRec, k: u32) -> &'a FlatCut {
        if k == 0 {
            &rec.cut0
        } else {
            &self.cuts[(rec.rest_off + k - 1) as usize]
        }
    }

    /// In-memory bytes of the tree structure: the internal records (one
    /// line each, first cut inline), the leaf spans (8 bytes each), the
    /// write-path span capacity of both, the cut slab and the child slab.
    #[inline]
    fn structure_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * (size_of::<NodeRec>() + size_of::<u32>())
            + self.leaves.len() * (size_of::<Span>() + size_of::<u32>())
            + self.cuts.len() * size_of::<FlatCut>()
            + self.children.len() * size_of::<u32>()
    }

    /// In-memory bytes of the whole arena: the structure, the id slab and
    /// the rule table.  The one place the arena's size is computed — a
    /// handful of multiplies, because [`FlatTree::prefetch_hint`] asks once
    /// per served batch.
    #[inline]
    fn total_bytes(&self) -> usize {
        use std::mem::size_of;
        self.structure_bytes()
            + self.rule_slab.len() * size_of::<RuleId>()
            + self.rule_table.len() * size_of::<PackedRule>()
    }

    /// Sizes and actual in-memory footprint of the arena arrays (the
    /// "Arena" rows of the README's memory table): internal records, leaf
    /// spans, slabs and the rule table — everything a lookup can touch,
    /// which is also every copy of a rule the arena holds (see
    /// [`ArenaStats`]'s docs).
    pub fn arena_stats(&self) -> ArenaStats {
        ArenaStats {
            nodes: self.node_count(),
            // Slab records plus the inline first cut of every internal node.
            cut_records: self.cuts.len() + self.nodes.len(),
            child_slots: self.children.len(),
            rule_refs: self.rule_slab.len(),
            arena_bytes: self.structure_bytes(),
            total_bytes: self.total_bytes(),
        }
    }

    /// Worst-case memory accesses of a lookup in the arena *as it is now*:
    /// along the most expensive root-to-leaf path, one access per node plus
    /// one per rule the node stores — the bound [`DecisionTree::stats`]
    /// computes for the pointer tree.
    fn worst_case_accesses(&self) -> u64 {
        // Per internal node, the worst cost from it down; 0 = not computed
        // yet (a real cost is at least 1), so a shared node is visited once.
        let mut memo = vec![0u64; self.nodes.len()];
        self.worst_case_from(self.root, &mut memo)
    }

    fn worst_case_from(&self, slot: u32, memo: &mut [u64]) -> u64 {
        let node = match Slot::of(slot) {
            Slot::Leaf(l) => return 1 + u64::from(self.leaves[l].len),
            Slot::Internal(n) => n,
        };
        if memo[node] == 0 {
            let rec = self.nodes[node];
            let base = rec.child_base as usize;
            let mut below = 0;
            for i in base..base + self.child_count(node) {
                below = below.max(self.worst_case_from(self.children[i], memo));
            }
            memo[node] = 1 + u64::from(rec.rules.len) + below;
        }
        memo[node]
    }

    /// Mixed-radix child index of `pkt` under an internal node's cut
    /// records (first inline, rest from the slab), or `None` when the
    /// packet lies outside the (compacted) cut region — the flat mirror of
    /// [`CutSpec::child_index`](crate::dtree::CutSpec::child_index).
    #[inline]
    fn child_index(&self, rec: &NodeRec, pkt: &PacketHeader) -> Option<u64> {
        let mut idx: u64 = 0;
        for k in 0..rec.cut_count {
            let cut = self.cut_at(rec, k);
            let v = pkt.fields[cut.dim as usize];
            if v < cut.lo || v > cut.hi {
                return None;
            }
            idx = idx * u64::from(cut.parts) + u64::from(cut.sub_index(v));
        }
        Some(idx)
    }

    /// Linear scan of a rule-slab span, updating the best (lowest id) match
    /// in `best` (`NO_MATCH` = none yet) and returning the number of rules
    /// compared (for operation accounting).  Mirrors the early-exit logic of
    /// the pointer tree's scan: slab lists are in ascending id order, so the
    /// first hit wins within a list and ids at or above the current best
    /// cannot improve it — those are dropped on the slab word, before the
    /// rule's table line is touched.
    #[inline]
    fn scan_slab(&self, span: Span, pkt: &PacketHeader, best: &mut u32) -> u64 {
        let mut compared = 0u64;
        for &id in &self.rule_slab[span.range()] {
            compared += 1;
            if id >= *best {
                break;
            }
            if self.rule_table[id as usize].matches(&pkt.fields) {
                *best = id;
                break;
            }
        }
        compared
    }

    /// Whether the arena outgrows [`PREFETCH_MIN_BYTES`]: past it the lane
    /// walk issues read-ahead touches (a cache-resident arena cannot miss)
    /// and [`FlatTree::classify_batch`] narrows its lanes.
    #[inline]
    fn prefetch_hint(&self) -> bool {
        self.total_bytes() > PREFETCH_MIN_BYTES
    }

    /// Classifies one packet by walking the arena, optionally recording the
    /// performed work into `stats` with the same accounting as
    /// [`DecisionTree::classify`].
    pub fn classify(&self, pkt: &PacketHeader, mut stats: Option<&mut LookupStats>) -> MatchResult {
        let mut best = NO_MATCH;
        let mut slot = self.root;
        loop {
            if let Some(s) = stats.as_deref_mut() {
                s.count_node();
            }
            // What the node stores — a leaf's rules, an internal node's
            // pushed-up rules — is scanned either way.
            let compared = self.scan_slab(self.span(slot), pkt, &mut best);
            if let Some(s) = stats.as_deref_mut() {
                s.count_scan(compared);
            }
            let Slot::Internal(node) = Slot::of(slot) else {
                break;
            };
            let rec = self.nodes[node];
            if let Some(s) = stats.as_deref_mut() {
                s.nodes_visited += 1;
            }
            match self.child_index(&rec, pkt) {
                Some(idx) => {
                    if let Some(s) = stats.as_deref_mut() {
                        s.count_child_select(u64::from(rec.cut_count));
                    }
                    slot = self.children[rec.child_base as usize + idx as usize];
                }
                None => break,
            }
        }
        decode(best)
    }

    /// Classifies a batch of packets level-synchronously, appending one
    /// result per packet to `out` in input order, at the [`LaneWidth`] the
    /// probes measure fastest for the arena's size (see its docs).
    ///
    /// All packets advance through tree level *k* before any packet touches
    /// level *k + 1*; combined with the breadth-first record order this
    /// keeps the hot node records of the shallow levels in cache across the
    /// whole batch.  Results are exactly what per-packet
    /// [`FlatTree::classify`] calls would produce; see the module docs for
    /// the vectorised lane walk this dispatches to.
    pub fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        let lanes = if self.prefetch_hint() {
            LaneWidth::X4
        } else {
            LaneWidth::X16
        };
        self.classify_batch_lanes(pkts, out, lanes);
    }

    /// [`FlatTree::classify_batch`] with an explicit lane width; every
    /// width, [`LaneWidth::Scalar`] included, runs the same lane walk.
    /// Results are identical for every width, and to per-packet
    /// [`FlatTree::classify`].
    pub fn classify_batch_lanes(
        &self,
        pkts: &[PacketHeader],
        out: &mut Vec<MatchResult>,
        lanes: LaneWidth,
    ) {
        let n = pkts.len();
        let base = out.len();
        out.resize(base + n, MatchResult::NoMatch);
        if n == 0 {
            return;
        }
        let out = &mut out[base..];
        match lanes {
            LaneWidth::Scalar => self.walk_lanes::<1>(pkts, out),
            LaneWidth::X4 => self.walk_lanes::<4>(pkts, out),
            LaneWidth::X16 => self.walk_lanes::<16>(pkts, out),
        }
    }

    /// The vectorised walk: the worklist of every level is served in lanes
    /// of `L` packets (see the module docs).  Full lanes go through
    /// [`FlatTree::step_lane`], and the sub-lane tail of each level through
    /// its lane of one — as does all of [`LaneWidth::Scalar`].
    ///
    /// The worklist is served in trace order.  (Re-sorting each level by
    /// node id was tried for locality and measured *slower* on the large
    /// DRAM-bound arenas: the sort's own passes over the worklist cost
    /// more than the extra row-buffer hits saved.)
    fn walk_lanes<const L: usize>(&self, pkts: &[PacketHeader], out: &mut [MatchResult]) {
        let n = pkts.len();
        let mut node = vec![self.root; n];
        let mut best = vec![NO_MATCH; n];
        let mut cur: Vec<u32> = (0..n as u32).collect();
        let mut next: Vec<u32> = Vec::with_capacity(n);
        let prefetch = self.prefetch_hint();
        while !cur.is_empty() {
            let mut lanes = cur.chunks_exact(L);
            for lane in &mut lanes {
                self.step_lane::<L>(pkts, lane, &mut node, &mut best, out, &mut next, prefetch);
            }
            for p in lanes.remainder().chunks(1) {
                self.step_lane::<1>(pkts, p, &mut node, &mut best, out, &mut next, prefetch);
            }
            std::mem::swap(&mut cur, &mut next);
            next.clear();
        }
    }

    /// One level step of a full lane of `L` packets, in three
    /// lane-parallel stages: gather what the `L` slots name — a one-line
    /// internal record or an 8-byte leaf span (`L` independent loads, so
    /// their cache misses overlap — the lane walk's memory-level
    /// parallelism), run the per-cut partition arithmetic across lanes
    /// (fixed-size arrays, the division-free magics of [`FlatCut`]), then
    /// scan/advance each lane — touching the next level's record or span as
    /// soon as the child is known, a full level of work ahead of its use.
    #[allow(clippy::too_many_arguments)] // hot-path state is deliberately SoA
    #[inline]
    fn step_lane<const L: usize>(
        &self,
        pkts: &[PacketHeader],
        lane: &[u32],
        node: &mut [u32],
        best: &mut [u32],
        out: &mut [MatchResult],
        next: &mut Vec<u32>,
        prefetch: bool,
    ) {
        // Stage 1: gather one word of what each lane's slot names (a record
        // is one aligned line and a span never straddles one, so this
        // issues exactly one potential miss per lane — the misses overlap,
        // and the line is hot for the later stages).
        let mut slot = [0u32; L];
        for i in 0..L {
            slot[i] = node[lane[i] as usize];
        }
        let mut word = [0u32; L];
        for i in 0..L {
            word[i] = self.first_word(slot[i]);
        }
        std::hint::black_box(word);

        // Stage 2: cut arithmetic, block scans and advancement per lane,
        // reading the now-hot lines.  A leaf retires the packet on its
        // span alone.  The first cut comes straight off the record line,
        // so HiCuts nodes (and the first HyperCuts dimension) never touch
        // the cut slab.
        for i in 0..L {
            let pi = lane[i] as usize;
            let fields = &pkts[pi].fields;
            let rec = match Slot::of(slot[i]) {
                Slot::Leaf(l) => {
                    let ids = &self.rule_slab[self.leaves[l].range()];
                    scan_rules_blocks(ids, &self.rule_table, fields, &mut best[pi]);
                    out[pi] = decode(best[pi]);
                    continue;
                }
                Slot::Internal(n) => self.nodes[n],
            };
            if rec.rules.len > 0 {
                let ids = &self.rule_slab[rec.rules.range()];
                scan_rules_blocks(ids, &self.rule_table, fields, &mut best[pi]);
            }
            match self.child_index(&rec, &pkts[pi]) {
                Some(idx) => {
                    let child = self.children[rec.child_base as usize + idx as usize];
                    node[pi] = child;
                    if prefetch {
                        // Read-ahead: one word of the child's record line
                        // or leaf span, pulled a full level of work ahead
                        // of its use so the next gather finds it in cache.
                        std::hint::black_box(self.first_word(child));
                    }
                    next.push(lane[i]);
                }
                None => out[pi] = decode(best[pi]),
            }
        }
    }

    /// The geometry the arena classifies over.
    pub fn spec(&self) -> &DimensionSpec {
        &self.spec
    }

    /// The live rules in ascending id (= priority) order, reassembled from
    /// the rule table.
    pub fn live_rules(&self) -> Vec<Rule> {
        self.rule_table
            .iter()
            .enumerate()
            .filter(|(_, img)| img.is_live())
            .map(|(id, img)| Rule::new(id as RuleId, img.ranges()))
            .collect()
    }

    /// Number of live rules.
    pub fn live_rule_count(&self) -> usize {
        self.rule_table.iter().filter(|img| img.is_live()).count()
    }

    /// Update-activity counters since the build.
    pub fn update_stats(&self) -> UpdateStats {
        self.update_stats
    }

    /// Fraction of the rule slab that is dead — slots a full span left
    /// behind when an insert moved it to the slab end — the measure of how
    /// far the arena has drifted from its cache-compact layout.  0 when
    /// untouched and after every [`FlatTree::reflatten`].
    pub fn dirty_ratio(&self) -> f64 {
        if self.rule_slab.is_empty() {
            0.0
        } else {
            self.dead_slots as f64 / self.rule_slab.len() as f64
        }
    }

    /// Inserts a rule at the (currently unused) priority slot `rule.id` by
    /// patching the arena in place — no rebuild, no re-flatten.
    ///
    /// Placement is what a fresh build would do — the rule lands in every
    /// span a matching packet can reach: only subtrees the rule's ranges
    /// intersect are visited; shared nodes (merged identical leaves, the
    /// builders' shared empty leaf) are un-shared by cloning before
    /// mutation (the clone's span gets fresh slack at the slab end), so
    /// sharers whose regions the rule does not cover keep their contents;
    /// a rule reaching beyond a node's compacted cut region in a cut
    /// dimension is parked in that node's stored span, which every packet
    /// reaching the node scans (packets outside the region stop there);
    /// and the rule's id lands in each target span in ascending id order
    /// — a full span first moves to the slab end, where it gets fresh
    /// slack.  The image is written once, to the rule's line of the table
    /// (which grows by one not-live line per id skipped when the insert
    /// reaches past the occupied range).
    pub fn insert(&mut self, rule: &Rule) -> Result<(), UpdateError> {
        // The shared checks also keep every live id strictly below the
        // NO_MATCH lookup sentinel.
        let slot = rule.id as usize;
        let slot_is_live = self.rule_table.get(slot).is_some_and(PackedRule::is_live);
        crate::update::validate_insert(rule, &self.spec, slot_is_live, self.rule_table.len())?;
        self.ensure_refs();
        if slot >= self.rule_table.len() {
            self.rule_table.resize(slot + 1, PackedRule::DEAD);
        }
        self.rule_table[slot] = PackedRule::new(rule);
        self.insert_at(self.root, rule.ranges, rule.id);
        self.update_stats.inserts += 1;
        Ok(())
    }

    /// Deletes the live rule `id`, removing it from every span the
    /// insert/build placement could have put it in and retiring its table
    /// line.
    pub fn delete(&mut self, id: RuleId) -> Result<(), UpdateError> {
        let Some(img) = self.rule_table.get(id as usize).filter(|img| img.is_live()) else {
            return Err(UpdateError::UnknownRuleId(id));
        };
        let ranges = img.ranges();
        self.delete_at(self.root, &ranges, id);
        self.rule_table[id as usize] = PackedRule::DEAD;
        // Keep the table's last line live: its length is the end of the
        // occupied id range the next insert is validated against.
        while self.rule_table.last().is_some_and(|img| !img.is_live()) {
            self.rule_table.pop();
        }
        self.update_stats.deletes += 1;
        Ok(())
    }

    /// Builds the reference counts of records and leaves on the first
    /// update.
    fn ensure_refs(&mut self) {
        if self.refs.is_some() {
            return;
        }
        let mut refs = PerSlot::new(self, 0);
        *refs.of(self.root) += 1;
        for &c in &self.children {
            *refs.of(c) += 1;
        }
        self.refs = Some(refs);
    }

    /// Number of children of an internal node (the product of its cut
    /// record partition counts; not stored, the child slab span is
    /// implicit).
    fn child_count(&self, node: usize) -> usize {
        let rec = self.nodes[node];
        (0..rec.cut_count)
            .map(|k| self.cut_at(&rec, k).parts as usize)
            .product()
    }

    /// Clones the node `slot` names so one child slot can diverge from its
    /// sharers, and returns the clone's slot.  A leaf's span is copied to
    /// the slab end with fresh slack.  An internal record also copies its
    /// child slots to the slab end; its cut records (inline first cut,
    /// shared slab rest) are immutable and carried over verbatim by the
    /// record copy.
    fn clone_node(&mut self, slot: u32) -> u32 {
        let (span, cap) = self.copy_span(self.span(slot));
        let refs = self.refs.as_mut().expect("refs built before cloning");
        *refs.of(slot) -= 1;
        match Slot::of(slot) {
            Slot::Leaf(_) => {
                let clone = encode_slot(self.leaves.len(), true);
                refs.leaves.push(1);
                self.leaves.push(span);
                self.leaf_rule_cap.push(cap);
                clone
            }
            Slot::Internal(n) => {
                let clone = encode_slot(self.nodes.len(), false);
                refs.internal.push(1);
                let mut rec = self.nodes[n];
                let base = rec.child_base as usize;
                let count = self.child_count(n);
                rec.child_base = self.children.len() as u32;
                for j in 0..count {
                    let g = self.children[base + j];
                    self.children.push(g);
                    *self.refs.as_mut().expect("refs built").of(g) += 1;
                }
                rec.rules = span;
                self.nodes.push(rec);
                self.node_rule_cap.push(cap);
                clone
            }
        }
    }

    /// Copies a rule span to the slab end with fresh slack; returns the
    /// copy and its capacity.  The source slots are untouched: whether they
    /// stay live (un-sharing: the original node keeps them) or turn dead (a
    /// full span moving) is the caller's bookkeeping.
    fn copy_span(&mut self, span: Span) -> (Span, u32) {
        let cap = span.len + span_slack(span.len);
        let off = self.rule_slab.len() as u32;
        self.rule_slab.extend_from_within(span.range());
        self.rule_slab
            .extend(std::iter::repeat_n(NO_MATCH, (cap - span.len) as usize));
        (Span { off, len: span.len }, cap)
    }

    /// Adds a rule id to the span of the node `slot` names, in ascending id
    /// order.  A full span first moves to the slab end, leaving its old
    /// slots dead until the next re-flatten.
    fn add_rule(&mut self, slot: u32, id: RuleId) {
        let mut span = self.span(slot);
        let Err(pos) = self.rule_slab[span.range()].binary_search(&id) else {
            return; // already present (defensive; descent visits once)
        };
        if span.len == *self.span_mut(slot).1 {
            self.dead_slots += span.len as usize;
            let (moved, cap) = self.copy_span(span);
            span = moved;
            *self.span_mut(slot).1 = cap;
        }
        let (start, len) = (span.off as usize, span.len as usize);
        self.rule_slab
            .copy_within(start + pos..start + len, start + pos + 1);
        self.rule_slab[start + pos] = id;
        span.len += 1;
        *self.span_mut(slot).0 = span;
    }

    /// Removes a rule id from the span of the node `slot` names; returns
    /// whether it was present.  The vacated slot becomes slack.
    fn remove_rule(&mut self, slot: u32, id: RuleId) -> bool {
        let span = self.span(slot);
        let (start, len) = (span.off as usize, span.len as usize);
        let Ok(pos) = self.rule_slab[span.range()].binary_search(&id) else {
            return false;
        };
        self.rule_slab
            .copy_within(start + pos + 1..start + len, start + pos);
        self.rule_slab[start + len - 1] = NO_MATCH;
        self.span_mut(slot).0.len -= 1;
        true
    }

    /// Whether `clip` escapes the node's (possibly compacted) cut region
    /// in any cut dimension — if so, packets outside the region stop at
    /// this node and the rule must be searched here.
    fn escapes_cut_region(&self, node: usize, clip: &[FieldRange; FIELD_COUNT]) -> bool {
        let rec = self.nodes[node];
        (0..rec.cut_count).any(|k| {
            let cut = self.cut_at(&rec, k);
            let r = clip[cut.dim as usize];
            r.lo < cut.lo || r.hi > cut.hi
        })
    }

    /// Recursive insert descent (see [`FlatTree::insert`]).
    fn insert_at(&mut self, slot: u32, clip: [FieldRange; FIELD_COUNT], id: RuleId) {
        let node = match Slot::of(slot) {
            Slot::Internal(n) if !self.escapes_cut_region(n, &clip) => n,
            _ => {
                self.add_rule(slot, id);
                return;
            }
        };
        self.for_each_intersecting_child(node, clip, &mut |flat, i, child_clip| {
            let mut child = flat.children[i];
            if *flat.refs.as_mut().expect("refs built").of(child) > 1 {
                child = flat.clone_node(child);
                flat.children[i] = child;
            }
            flat.insert_at(child, child_clip, id);
        });
    }

    /// Recursive delete descent: a hit in an internal node's stored span
    /// prunes the subtree below it.
    fn delete_at(&mut self, slot: u32, ranges: &[FieldRange; FIELD_COUNT], id: RuleId) {
        let node = match Slot::of(slot) {
            Slot::Internal(n) if !self.escapes_cut_region(n, ranges) => n,
            _ => {
                self.remove_rule(slot, id);
                return;
            }
        };
        if self.remove_rule(slot, id) {
            return;
        }
        self.for_each_intersecting_child(node, *ranges, &mut |flat, i, child_clip| {
            flat.delete_at(flat.children[i], &child_clip, id);
        });
    }

    /// Enumerates the mixed-radix child indices whose sub-regions
    /// intersect `clip` (caller has verified `clip` does not escape the
    /// cut region), invoking `visit(self, child_slab_index, clipped_ranges)`
    /// for each.
    fn for_each_intersecting_child(
        &mut self,
        node: usize,
        clip: [FieldRange; FIELD_COUNT],
        visit: &mut impl FnMut(&mut FlatTree, usize, [FieldRange; FIELD_COUNT]),
    ) {
        let rec = self.nodes[node];
        self.enumerate_children(&rec, 0, 0, clip, visit);
    }

    fn enumerate_children(
        &mut self,
        rec: &NodeRec,
        k: u32,
        idx: u64,
        clip: [FieldRange; FIELD_COUNT],
        visit: &mut impl FnMut(&mut FlatTree, usize, [FieldRange; FIELD_COUNT]),
    ) {
        if k == rec.cut_count {
            visit(self, rec.child_base as usize + idx as usize, clip);
            return;
        }
        let cut = *self.cut_at(rec, k);
        let region = FieldRange::new(cut.lo, cut.hi);
        let r = clip[cut.dim as usize];
        let (a, b) = (cut.sub_index(r.lo), cut.sub_index(r.hi));
        for i in a..=b {
            let child_range = region.split_child(cut.parts, i);
            let Some(clipped) = r.intersect(&child_range) else {
                continue;
            };
            let mut child_clip = clip;
            child_clip[cut.dim as usize] = clipped;
            self.enumerate_children(
                rec,
                k + 1,
                idx * u64::from(cut.parts) + u64::from(i),
                child_clip,
                visit,
            );
        }
    }

    /// Rebuilds the slabs compactly from the live node graph — one
    /// sequential pass, no tree rebuild.  Only live spans are carried over
    /// (the dead slots moved spans left behind are dropped), every span is
    /// re-provisioned with fresh slack for future in-place inserts, and
    /// records and leaves no slot names any more are dropped.
    /// Classification results are unchanged.
    pub fn reflatten(&mut self) {
        self.layout(span_slack);
        self.update_stats.reflattens += 1;
    }

    /// The arena's one layout pass, shared by [`FlatTree::from_tree`] (no
    /// slack) and [`FlatTree::reflatten`] (`span_slack`): lays the records
    /// and leaves the root reaches out again breadth-first, renumbering
    /// each table in discovery order, with every span followed by
    /// `slack(len)` free slots.
    fn layout(&mut self, slack: fn(u32) -> u32) {
        // Pass 1: discover the reachable records and leaves, and count what
        // they carry over, so every table and slab is allocated once, at
        // its final size.
        let mut map = PerSlot::new(self, u32::MAX);
        let mut order: Vec<u32> = Vec::with_capacity(self.node_count());
        let mut counts = [0usize; 2];
        let mut discover = |slot: u32, order: &mut Vec<u32>| {
            if place(map.of(slot), Slot::of(slot).is_leaf(), &mut counts) {
                order.push(slot);
            }
        };
        discover(self.root, &mut order);
        let (mut cut_slots, mut child_slots, mut rule_slots) = (0usize, 0usize, 0usize);
        let mut head = 0usize;
        while head < order.len() {
            let old = order[head];
            head += 1;
            let len = self.span(old).len;
            rule_slots += (len + slack(len)) as usize;
            if let Slot::Internal(n) = Slot::of(old) {
                let rec = self.nodes[n];
                cut_slots += (rec.cut_count - 1) as usize;
                let base = rec.child_base as usize;
                let count = self.child_count(n);
                child_slots += count;
                for &child in &self.children[base..base + count] {
                    discover(child, &mut order);
                }
            }
        }
        // The old slabs too: an offset into them at u32::MAX has wrapped.
        // The new cut and child slabs are subsets of the old ones; only the
        // rule slab can grow (by its slack).
        let slabs = [
            rule_slots,
            self.rule_slab.len(),
            self.children.len(),
            self.cuts.len(),
        ];
        assert!(
            slabs.iter().all(|&len| len < u32::MAX as usize),
            "flat arena slab exceeds u32 addressing"
        );

        let [internal, leaves] = counts;
        let mut new = FlatTree {
            spec: self.spec,
            root: *map.of(self.root),
            nodes: Vec::with_capacity(internal),
            node_rule_cap: Vec::with_capacity(internal),
            leaves: Vec::with_capacity(leaves),
            leaf_rule_cap: Vec::with_capacity(leaves),
            cuts: Vec::with_capacity(cut_slots),
            children: Vec::with_capacity(child_slots),
            rule_slab: Vec::with_capacity(rule_slots),
            dead_slots: 0,
            // Ids do not move: the table is carried over, not copied.
            rule_table: std::mem::take(&mut self.rule_table),
            refs: None,
            update_stats: self.update_stats,
        };

        // Pass 2: emit the entries in discovery order.
        for &old in &order {
            let old_span = self.span(old);
            let len = old_span.len;
            let cap = len + slack(len);
            let span = push_slab(&mut new.rule_slab, &self.rule_slab[old_span.range()]);
            new.rule_slab
                .extend(std::iter::repeat_n(NO_MATCH, (cap - len) as usize));
            let Slot::Internal(n) = Slot::of(old) else {
                new.leaves.push(span);
                new.leaf_rule_cap.push(cap);
                continue;
            };

            // Carry the slab cut records over compactly (the inline first
            // cut travels in the record copy).
            let mut rec = self.nodes[n];
            let rest = rec.rest_off as usize;
            rec.rest_off = new.cuts.len() as u32;
            new.cuts
                .extend_from_slice(&self.cuts[rest..rest + (rec.cut_count - 1) as usize]);

            let base = rec.child_base as usize;
            let count = self.child_count(n);
            rec.child_base = new.children.len() as u32;
            new.children.extend(
                self.children[base..base + count]
                    .iter()
                    .map(|&child| *map.of(child)),
            );
            rec.rules = span;
            new.nodes.push(rec);
            new.node_rule_cap.push(cap);
        }
        *self = new;
    }
}

/// Slack slots appended to a re-provisioned rule span so the next few
/// inserts into the node patch in place instead of moving the span.
fn span_slack(len: u32) -> u32 {
    (len / 4).max(2)
}

/// Branch-free block scan of an ascending-id rule list, updating `best`
/// (`NO_MATCH` = none yet) exactly like the scalar early-exit scan: within
/// each [`SCAN_BLOCK`]-id block every rule's image is compared without
/// short-circuiting (a bitmask of matches), then the first set bit — the
/// lowest matching id, because lists are id-sorted — resolves the block.
/// Blocks whose first id cannot improve `best` end the scan on the slab
/// word, before any of their table lines is touched, preserving the scalar
/// semantics rule for rule.
#[inline]
fn scan_rules_blocks(
    ids: &[RuleId],
    table: &[PackedRule],
    fields: &[u32; FIELD_COUNT],
    best: &mut u32,
) {
    for block in ids.chunks(SCAN_BLOCK) {
        if block[0] >= *best {
            return;
        }
        let mut mask = 0u32;
        for (j, &id) in block.iter().enumerate() {
            mask |= u32::from(table[id as usize].matches(fields)) << j;
        }
        if mask != 0 {
            let id = block[mask.trailing_zeros() as usize];
            if id < *best {
                *best = id;
            }
            return;
        }
    }
}

#[inline]
fn decode(best: u32) -> MatchResult {
    if best == NO_MATCH {
        MatchResult::NoMatch
    } else {
        MatchResult::Matched(best)
    }
}

/// Appends `ids` to `slab` and returns the span covering them.
fn push_slab(slab: &mut Vec<RuleId>, ids: &[RuleId]) -> Span {
    let off = slab.len() as u32;
    slab.extend_from_slice(ids);
    Span {
        off,
        len: ids.len() as u32,
    }
}

/// A [`Classifier`] serving a [`FlatTree`] arena.
///
/// Obtained from a built pointer-tree classifier via
/// [`CutTreeClassifier::flatten`]; the serving roster registers these as
/// `hicuts-flat` / `hypercuts-flat`, so the engine and the equivalence
/// tests pick the flat variants up with no extra glue.
#[derive(Debug, Clone)]
pub struct FlatTreeClassifier {
    name: &'static str,
    flat: FlatTree,
}

/// [`FlatTree::dirty_ratio`] past which [`FlatTreeClassifier`] re-flattens
/// after an update: dead slots never make up more than a twentieth of the
/// slab, and the compaction stays rare (`algos.update.reflattens` reads 1
/// at the end of the benchmark's traced `churn10k` run).
const REFLATTEN_DIRTY_RATIO: f64 = 0.05;

impl FlatTreeClassifier {
    /// Wraps a flattened tree under a roster name.
    pub fn new(name: &'static str, flat: FlatTree) -> FlatTreeClassifier {
        FlatTreeClassifier { name, flat }
    }

    /// The underlying arena.
    pub fn flat_tree(&self) -> &FlatTree {
        &self.flat
    }

    /// Arena footprint statistics.
    pub fn arena_stats(&self) -> ArenaStats {
        self.flat.arena_stats()
    }

    fn maybe_reflatten(&mut self) {
        if self.flat.dirty_ratio() > REFLATTEN_DIRTY_RATIO {
            self.flat.reflatten();
        }
    }
}

impl crate::update::UpdatableClassifier for FlatTreeClassifier {
    fn insert(&mut self, rule: Rule) -> Result<(), UpdateError> {
        self.flat.insert(&rule)?;
        self.maybe_reflatten();
        Ok(())
    }

    fn delete(&mut self, rule_id: RuleId) -> Result<(), UpdateError> {
        self.flat.delete(rule_id)?;
        self.maybe_reflatten();
        Ok(())
    }

    fn live_rules(&self) -> Vec<Rule> {
        self.flat.live_rules()
    }

    fn spec(&self) -> DimensionSpec {
        *self.flat.spec()
    }

    fn update_stats(&self) -> UpdateStats {
        self.flat.update_stats()
    }
}

impl Classifier for FlatTreeClassifier {
    fn name(&self) -> &'static str {
        self.name
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
        // The arena is measured by its actual in-memory bytes (that is the
        // point of the layout), not by the idealised 32-bit software model
        // the pointer trees report under.
        self.flat.total_bytes()
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        Some(self.flat.worst_case_accesses())
    }

    fn arena_stats(&self) -> Option<ArenaStats> {
        Some(self.flat.arena_stats())
    }
}

impl<C: RosterPolicy> CutTreeClassifier<C> {
    /// Flattens the built tree into a cache-compact arena classifier
    /// (roster name `hicuts-flat` / `hypercuts-flat`).
    pub fn flatten(&self) -> FlatTreeClassifier {
        FlatTreeClassifier::new(C::FLAT_NAME, FlatTree::from_tree(self.tree()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hicuts::{HiCutsClassifier, HiCutsConfig};
    use crate::hypercuts::{HyperCutsClassifier, HyperCutsConfig};
    use pclass_types::toy;

    fn toy_flat() -> (HiCutsClassifier, FlatTreeClassifier) {
        let rs = toy::table1_ruleset();
        let hc = HiCutsClassifier::build(&rs, &HiCutsConfig::figure1());
        let flat = hc.flatten();
        (hc, flat)
    }

    #[test]
    fn division_magic_sub_index_matches_index_of_exactly() {
        // The magic multiply must reproduce FieldRange::index_of for every
        // (region, parts) shape the builders produce, including the d == 1
        // narrow-child case (m_base == 0), power-of-two divisors, and the
        // full 32-bit region.
        let regions = [
            FieldRange::new(0, u32::MAX),
            FieldRange::new(0, 255),
            FieldRange::new(3, 7),
            FieldRange::new(10, 14), // total 5, parts 4 -> base 1
            FieldRange::new(1_000, 1_000_000),
            FieldRange::new(u32::MAX - 65_536, u32::MAX),
        ];
        let mut checked = 0u64;
        for region in regions {
            for parts in [2u32, 3, 4, 7, 8, 16, 64, 256, 65_536] {
                let cut = FlatCut::new(0, parts, region);
                let total = region.len();
                let step = (total / 257).max(1);
                let mut v = u64::from(region.lo);
                while v <= u64::from(region.hi) {
                    let vv = v as u32;
                    assert_eq!(
                        cut.sub_index(vv),
                        region.index_of(parts, vv),
                        "region {region:?} parts {parts} v {vv}"
                    );
                    checked += 1;
                    v += step;
                }
                // The region ends are where off-by-ones would live.
                for vv in [region.lo, region.hi] {
                    assert_eq!(cut.sub_index(vv), region.index_of(parts, vv));
                }
            }
        }
        assert!(checked > 1_000);
    }

    #[test]
    fn lane_widths_agree_with_scalar_walk() {
        let (_, flat) = toy_flat();
        let pkts: Vec<PacketHeader> = (0..131u32)
            .map(|i| {
                PacketHeader::from_fields([(i * 37) % 256, 80, 40, (i * 11) % 256, (i * 53) % 256])
            })
            .collect();
        let mut scalar = Vec::new();
        flat.flat_tree()
            .classify_batch_lanes(&pkts, &mut scalar, LaneWidth::Scalar);
        for lanes in LaneWidth::ALL {
            let mut out = Vec::new();
            flat.flat_tree()
                .classify_batch_lanes(&pkts, &mut out, lanes);
            assert_eq!(out, scalar, "{lanes:?}");
        }
    }

    #[test]
    fn flat_agrees_with_pointer_tree_per_packet() {
        let (hc, flat) = toy_flat();
        for f0 in (0..=255u32).step_by(3) {
            for f4 in (0..=255u32).step_by(5) {
                let pkt = PacketHeader::from_fields([f0, 80, 40, 180, f4]);
                assert_eq!(flat.classify(&pkt), hc.classify(&pkt), "pkt {pkt:?}");
            }
        }
    }

    #[test]
    fn flat_batch_matches_per_packet_all_batch_sizes() {
        let rs = toy::table1_ruleset();
        let hc = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
        let flat = hc.flatten();
        let pkts: Vec<PacketHeader> = (0..97u32)
            .map(|i| {
                PacketHeader::from_fields([(i * 37) % 256, 80, 40, (i * 11) % 256, (i * 53) % 256])
            })
            .collect();
        let per_packet: Vec<MatchResult> = pkts.iter().map(|p| flat.classify(p)).collect();
        for take in [0usize, 1, 2, 7, 96, 97] {
            let mut out = Vec::new();
            flat.classify_batch(&pkts[..take], &mut out);
            assert_eq!(out, per_packet[..take], "batch size {take}");
        }
    }

    #[test]
    fn batch_appends_after_existing_results() {
        let (_, flat) = toy_flat();
        let pkt = PacketHeader::from_fields([145, 100, 10, 10, 200]);
        let mut out = vec![MatchResult::NoMatch];
        flat.classify_batch(&[pkt], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], flat.classify(&pkt));
    }

    #[test]
    fn root_is_record_zero_and_shared_leaves_are_deduplicated() {
        let (hc, flat) = toy_flat();
        let tree_nodes = hc.tree().nodes().len();
        // BFS renumbering visits each node at most once, so the arena can
        // only shrink relative to the node vector (unreachable nodes drop).
        assert!(flat.flat_tree().node_count() <= tree_nodes);
        assert!(flat.flat_tree().node_count() >= 2);
        assert_eq!(flat.flat_tree().root, 0, "the root is internal record 0");
    }

    #[test]
    fn arena_stats_are_consistent() {
        let (hc, flat) = toy_flat();
        let stats = flat.arena_stats();
        assert_eq!(stats.nodes, flat.flat_tree().node_count());
        assert_eq!(
            stats.nodes,
            flat.flat_tree().nodes.len() + flat.flat_tree().leaves.len()
        );
        assert!(stats.cut_records >= 1);
        assert!(stats.child_slots >= 2);
        assert!(stats.arena_bytes > 0);
        assert!(stats.total_bytes > stats.arena_bytes);
        assert_eq!(flat.memory_bytes(), stats.total_bytes);
        assert_eq!(
            flat.worst_case_memory_accesses(),
            Some(hc.tree().stats().worst_case_accesses)
        );
        assert_eq!(flat.name(), "hicuts-flat");
    }

    #[test]
    fn lookup_stats_match_pointer_tree_accounting() {
        let (hc, flat) = toy_flat();
        let pkt = PacketHeader::from_fields([145, 100, 10, 10, 200]);
        let mut a = LookupStats::new();
        let mut b = LookupStats::new();
        assert_eq!(
            hc.classify_with_stats(&pkt, &mut a),
            flat.classify_with_stats(&pkt, &mut b)
        );
        assert_eq!(a.nodes_visited, b.nodes_visited);
        assert_eq!(a.rules_compared, b.rules_compared);
        assert_eq!(a.memory_accesses, b.memory_accesses);
        assert_eq!(a.ops, b.ops);
    }

    /// Sweeps a packet grid comparing the arena against linear search over
    /// its live rules (per packet, and batched at every lane width).
    fn assert_matches_live_linear(flat: &FlatTree) {
        let live = flat.live_rules();
        let mut pkts = Vec::new();
        for f0 in (0..256).step_by(5) {
            for f4 in (0..256).step_by(9) {
                pkts.push(PacketHeader::from_fields([f0, 80, 40, 180, f4]));
            }
        }
        let expected: Vec<MatchResult> = pkts
            .iter()
            .map(|p| crate::update::classify_live_linear(&live, p))
            .collect();
        for (pkt, want) in pkts.iter().zip(&expected) {
            assert_eq!(flat.classify(pkt, None), *want, "packet {pkt:?}");
        }
        let mut out = Vec::new();
        for chunk in pkts.chunks(7) {
            flat.classify_batch(chunk, &mut out);
        }
        assert_eq!(out, expected, "batched");
        for lanes in LaneWidth::ALL {
            out.clear();
            flat.classify_batch_lanes(&pkts, &mut out, lanes);
            assert_eq!(out, expected, "{lanes:?}");
        }
    }

    /// Asserts that the root and every child slot decode to an in-range
    /// internal record or leaf, and returns which of them the root reaches
    /// (1 = reached).
    fn assert_slots_in_range(flat: &FlatTree) -> PerSlot {
        assert_eq!(flat.nodes.len(), flat.node_rule_cap.len());
        assert_eq!(flat.leaves.len(), flat.leaf_rule_cap.len());
        let in_range = |slot: u32| match Slot::of(slot) {
            Slot::Internal(n) => n < flat.nodes.len(),
            Slot::Leaf(l) => l < flat.leaves.len(),
        };
        assert!(in_range(flat.root), "root {:#x}", flat.root);
        for (i, &slot) in flat.children.iter().enumerate() {
            assert!(in_range(slot), "child slot {i} holds {slot:#x}");
        }
        let mut seen = PerSlot::new(flat, 0);
        let mut stack = vec![flat.root];
        while let Some(slot) = stack.pop() {
            let mark = seen.of(slot);
            if *mark == 0 {
                *mark = 1;
                if let Slot::Internal(n) = Slot::of(slot) {
                    let base = flat.nodes[n].child_base as usize;
                    stack.extend(&flat.children[base..base + flat.child_count(n)]);
                }
            }
        }
        seen
    }

    #[test]
    fn every_slot_decodes_in_range_and_reflatten_keeps_only_reachable_entries() {
        use pclass_classbench::{ClassBenchGenerator, SeedStyle};
        let (_, toy) = toy_flat();
        let mut toy = toy.flat_tree().clone();
        let spec = *toy.spec();
        for id in [20u32, 21] {
            toy.insert(&Rule::wildcard(id, &spec)).unwrap();
        }
        // A churned 2 k acl arena: every tenth rule replaced by a fresh
        // one, so shared leaves are un-shared and full spans move.
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 20080414).generate(2_000);
        let fresh = ClassBenchGenerator::new(SeedStyle::Acl, 7).generate(200);
        let mut acl = FlatTree::from_tree(
            HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults()).tree(),
        );
        let pristine_leaves = acl.leaves.len();
        for (i, rule) in fresh.rules().iter().enumerate() {
            acl.delete(i as u32 * 10).unwrap();
            acl.insert(&Rule::new(2_000 + i as u32, rule.ranges))
                .unwrap();
        }
        assert!(acl.leaves.len() > pristine_leaves, "no leaf was un-shared");
        for (what, mut flat) in [("toy", toy), ("acl 2k", acl)] {
            assert!(flat.dirty_ratio() > 0.0, "{what}: no span moved");
            assert_slots_in_range(&flat);
            flat.reflatten();
            let seen = assert_slots_in_range(&flat);
            assert!(seen.internal.iter().all(|&s| s == 1), "{what}: record");
            assert!(seen.leaves.iter().all(|&s| s == 1), "{what}: leaf");
        }
    }

    #[test]
    fn a_lone_leaf_root_takes_updates_and_reflattens() {
        let rs = toy::table1_ruleset();
        let spec = *rs.spec();
        // binth at the ruleset's size: the whole tree is one leaf.
        let hc = HiCutsClassifier::build(
            &rs,
            &HiCutsConfig {
                binth: rs.len(),
                spfac: 2.0,
            },
        );
        let mut flat = FlatTree::from_tree(hc.tree());
        assert_eq!(flat.root, LEAF_TAG);
        assert_eq!((flat.nodes.len(), flat.leaves.len()), (0, 1));
        assert_eq!(flat.worst_case_accesses(), 1 + rs.len() as u64);
        assert_matches_live_linear(&flat);
        // Narrow rules into the root until its span leaves its first home.
        let first = flat.leaves[0];
        let mut id = 20u32;
        while flat.leaves[0].off == first.off {
            let mut rule = Rule::wildcard(id, &spec);
            rule.ranges[0] = FieldRange::new(id * 5, id * 5 + 30);
            flat.insert(&rule).unwrap();
            id += 1;
        }
        assert!(flat.dirty_ratio() > 0.0);
        assert_eq!(
            (flat.root, flat.nodes.len(), flat.leaves.len()),
            (LEAF_TAG, 0, 1)
        );
        assert_matches_live_linear(&flat);
        for id in [0u32, 7, 20] {
            flat.delete(id).unwrap();
        }
        assert_matches_live_linear(&flat);
        flat.reflatten();
        assert_eq!(
            (flat.root, flat.nodes.len(), flat.leaves.len()),
            (LEAF_TAG, 0, 1)
        );
        assert_eq!(flat.dirty_ratio(), 0.0);
        assert_eq!(flat.live_rule_count(), rs.len() + (id - 20) as usize - 3);
        assert_matches_live_linear(&flat);
    }

    #[test]
    fn delete_then_reinsert_round_trips_with_slack_reuse() {
        let rs = toy::table1_ruleset();
        let (_, flatc) = toy_flat();
        let mut flat = flatc.flat_tree().clone();
        assert_eq!(flat.live_rule_count(), 10);
        assert_eq!(flat.dirty_ratio(), 0.0);
        flat.delete(5).unwrap();
        assert_eq!(flat.live_rule_count(), 9);
        assert_matches_live_linear(&flat);
        assert_eq!(flat.delete(5), Err(UpdateError::UnknownRuleId(5)));
        // Re-inserting fills the slack the delete left behind: no span moves.
        flat.insert(&rs.rules()[5]).unwrap();
        assert_eq!(flat.dirty_ratio(), 0.0);
        assert_matches_live_linear(&flat);
        assert_eq!(
            flat.insert(&rs.rules()[5]),
            Err(UpdateError::DuplicateRuleId(5))
        );
        let stats = flat.update_stats();
        assert_eq!((stats.inserts, stats.deletes, stats.reflattens), (1, 1, 0));
    }

    #[test]
    fn full_spans_move_to_the_slab_end_and_reflatten_compacts() {
        let (_, flatc) = toy_flat();
        let mut flat = flatc.flat_tree().clone();
        let spec = *flat.spec();
        let pristine = flat.arena_stats().rule_refs;
        // Fresh ids land in full spans (the pristine arena has zero slack):
        // the spans must move, leaving dead slots behind, and still serve.
        for id in [20u32, 21, 22] {
            flat.insert(&Rule::wildcard(id, &spec)).unwrap();
        }
        assert!(flat.dirty_ratio() > 0.0);
        assert!(flat.arena_stats().rule_refs > pristine);
        assert_matches_live_linear(&flat);
        let before = flat.update_stats();
        flat.reflatten();
        let after = flat.update_stats();
        assert_eq!(after.reflattens, before.reflattens + 1);
        assert_eq!(flat.dirty_ratio(), 0.0);
        assert_eq!(flat.live_rule_count(), 13);
        assert_matches_live_linear(&flat);
        // Post-reflatten spans carry slack: the next insert is in place.
        let compact = flat.arena_stats().rule_refs;
        flat.delete(20).unwrap();
        flat.insert(&Rule::wildcard(20, &spec)).unwrap();
        assert_eq!(flat.dirty_ratio(), 0.0);
        assert_eq!(flat.arena_stats().rule_refs, compact);
        assert_matches_live_linear(&flat);
    }

    #[test]
    fn a_reused_id_carries_nothing_of_the_rule_it_replaced() {
        let (_, flatc) = toy_flat();
        let mut flat = flatc.flat_tree().clone();
        let spec = *flat.spec();
        // Two rules that share nothing in dimension 0, and a grid of
        // packets in each one's region.
        let boxed = |lo, hi| {
            let mut r = Rule::wildcard(3, &spec);
            r.ranges[0] = FieldRange::new(lo, hi);
            r
        };
        let (old, new) = (boxed(200, 230), boxed(10, 40));
        let grid = |lo: u32, hi: u32| -> Vec<PacketHeader> {
            (lo..=hi)
                .flat_map(|f0| {
                    (0..256)
                        .step_by(51)
                        .map(move |f4| PacketHeader::from_fields([f0, 80, 40, 180, f4]))
                })
                .collect()
        };
        let (old_region, new_region) = (grid(200, 230), grid(10, 40));
        let hits = |flat: &FlatTree, pkts: &[PacketHeader], lanes| {
            let mut out = Vec::new();
            flat.classify_batch_lanes(pkts, &mut out, lanes);
            out.iter()
                .filter(|&&r| r == MatchResult::Matched(3))
                .count()
        };

        flat.delete(3).unwrap();
        flat.insert(&old).unwrap();
        assert!(hits(&flat, &old_region, LaneWidth::Scalar) > 0);
        flat.delete(3).unwrap();
        // The delete took the id out of every span a lookup reads — the
        // internal records' stored spans and every leaf's — and retired its
        // table line, so the line is free to hold another rule.
        for (node, rec) in flat.nodes.iter().enumerate() {
            let ids = &flat.rule_slab[rec.rules.range()];
            assert!(!ids.contains(&3), "node {node} still lists the deleted id");
        }
        for (leaf, span) in flat.leaves.iter().enumerate() {
            let ids = &flat.rule_slab[span.range()];
            assert!(!ids.contains(&3), "leaf {leaf} still lists the deleted id");
        }
        assert!(!flat.rule_table[3].is_live());
        flat.insert(&new).unwrap();
        for reflattened in [false, true] {
            if reflattened {
                flat.reflatten();
            }
            for lanes in LaneWidth::ALL {
                assert_eq!(
                    hits(&flat, &old_region, lanes),
                    0,
                    "{lanes:?}, reflattened: {reflattened}"
                );
                assert!(hits(&flat, &new_region, lanes) > 0, "{lanes:?}");
            }
            assert_matches_live_linear(&flat);
        }
    }

    #[test]
    fn flatten_and_reflatten_allocate_each_slab_at_its_final_size() {
        fn assert_exact(flat: &FlatTree, what: &str) {
            assert_eq!(flat.nodes.capacity(), flat.nodes.len(), "{what}: nodes");
            assert_eq!(
                flat.node_rule_cap.capacity(),
                flat.node_rule_cap.len(),
                "{what}: span capacities"
            );
            assert_eq!(flat.leaves.capacity(), flat.leaves.len(), "{what}: leaves");
            assert_eq!(
                flat.leaf_rule_cap.capacity(),
                flat.leaf_rule_cap.len(),
                "{what}: leaf span capacities"
            );
            assert_eq!(flat.cuts.capacity(), flat.cuts.len(), "{what}: cuts");
            assert_eq!(
                flat.children.capacity(),
                flat.children.len(),
                "{what}: children"
            );
            assert_eq!(
                flat.rule_slab.capacity(),
                flat.rule_slab.len(),
                "{what}: rule slab"
            );
        }
        let rs = toy::table1_ruleset();
        let spec = *rs.spec();
        let hicuts = HiCutsClassifier::build(&rs, &HiCutsConfig::figure1());
        let hypercuts = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
        for tree in [hicuts.tree(), hypercuts.tree()] {
            let mut flat = FlatTree::from_tree(tree);
            assert_exact(&flat, "from_tree");
            // Un-sharing clones, moved spans and dead slots: the re-flatten
            // must size for what is reachable now, slack included.
            for id in [20u32, 21, 22] {
                flat.insert(&Rule::wildcard(id, &spec)).unwrap();
            }
            flat.delete(4).unwrap();
            flat.reflatten();
            assert_exact(&flat, "reflatten");
            assert_matches_live_linear(&flat);
        }
    }

    #[test]
    fn a_build_and_a_pristine_reflatten_lay_out_the_same_tree() {
        use pclass_classbench::{ClassBenchGenerator, SeedStyle};
        let toy = toy::table1_ruleset();
        // The benchmark's acl 2 k ruleset (`pclass_bench::acl_ruleset`).
        let acl = ClassBenchGenerator::new(SeedStyle::Acl, 20080414)
            .generate(2_191)
            .truncated(2_000, "acl1_2000");
        let trees = [
            HiCutsClassifier::build(&toy, &HiCutsConfig::figure1())
                .tree()
                .clone(),
            HyperCutsClassifier::build(&toy, &HyperCutsConfig::paper_defaults())
                .tree()
                .clone(),
            HiCutsClassifier::build(&acl, &HiCutsConfig::paper_defaults())
                .tree()
                .clone(),
            HyperCutsClassifier::build(&acl, &HyperCutsConfig::paper_defaults())
                .tree()
                .clone(),
        ];
        for (t, tree) in trees.iter().enumerate() {
            let built = FlatTree::from_tree(tree);
            let mut re = built.clone();
            re.reflatten();
            assert_eq!(built.update_stats().reflattens, 0, "tree {t}");
            assert_eq!(re.update_stats().reflattens, 1, "tree {t}");
            assert_eq!(built.root, re.root, "tree {t}");
            assert_eq!(built.children, re.children, "tree {t}");
            assert_eq!(built.cuts, re.cuts, "tree {t}");
            assert_eq!(
                (built.nodes.len(), built.leaves.len()),
                (re.nodes.len(), re.leaves.len()),
                "tree {t}"
            );
            let ids = |flat: &FlatTree, span: Span| flat.rule_slab[span.range()].to_vec();
            for (a, b) in built.nodes.iter().zip(&re.nodes) {
                let moved = NodeRec {
                    rules: Span {
                        off: a.rules.off,
                        ..b.rules
                    },
                    ..*b
                };
                assert_eq!(*a, moved, "tree {t}");
                assert_eq!(ids(&built, a.rules), ids(&re, b.rules), "tree {t}");
            }
            for (&a, &b) in built.leaves.iter().zip(&re.leaves) {
                assert_eq!(a.len, b.len, "tree {t}");
                assert_eq!(ids(&built, a), ids(&re, b), "tree {t}");
            }
        }
    }

    #[test]
    fn classifier_triggers_amortized_reflatten_past_threshold() {
        use crate::update::UpdatableClassifier;
        let (_, mut c) = toy_flat();
        let spec = UpdatableClassifier::spec(&c);
        for id in [30u32, 31] {
            c.insert(Rule::wildcard(id, &spec)).unwrap();
        }
        let stats = c.update_stats();
        assert!(stats.reflattens >= 1, "{stats:?}");
        assert!(c.flat_tree().dirty_ratio() <= REFLATTEN_DIRTY_RATIO);
        assert_eq!(c.live_rules().len(), 12);
        // And the bare arena never compacts on its own: dead slots stay.
        let (_, flatc) = toy_flat();
        let mut flat = flatc.flat_tree().clone();
        flat.insert(&Rule::wildcard(30, &spec)).unwrap();
        assert_eq!(flat.update_stats().reflattens, 0);
        assert!(flat.dirty_ratio() > REFLATTEN_DIRTY_RATIO);
    }

    #[test]
    fn updates_unshare_merged_leaves() {
        let (_, flatc) = toy_flat();
        let mut flat = flatc.flat_tree().clone();
        let spec = *flat.spec();
        // A narrow rule: any leaf shared with an untouched region must be
        // cloned, not mutated in place.
        let mut rule = Rule::wildcard(12, &spec);
        rule.ranges[0] = FieldRange::new(3, 7);
        rule.ranges[4] = FieldRange::new(200, 210);
        flat.insert(&rule).unwrap();
        assert_matches_live_linear(&flat);
        flat.delete(12).unwrap();
        assert_matches_live_linear(&flat);
        for id in [0u32, 3, 9] {
            flat.delete(id).unwrap();
        }
        assert_matches_live_linear(&flat);
        flat.reflatten();
        assert_matches_live_linear(&flat);
    }

    #[test]
    fn insert_rejects_ids_far_beyond_the_occupied_range() {
        let (_, flatc) = toy_flat();
        let mut flat = flatc.flat_tree().clone();
        let spec = *flat.spec();
        // Within the gap: an append at the lowest priority, which decides
        // every packet nothing else matches.
        let unmatched = PacketHeader::from_fields([255, 255, 255, 255, 255]);
        assert_eq!(flat.classify(&unmatched, None), MatchResult::NoMatch);
        flat.insert(&Rule::wildcard(1_000, &spec)).unwrap();
        assert_eq!(flat.classify(&unmatched, None), MatchResult::Matched(1_000));
        let accepted = (flat.live_rules(), flat.arena_stats());
        // The NO_MATCH sentinel (u32::MAX) must never become a live id —
        // it would be silently unmatchable.
        let err = flat.insert(&Rule::wildcard(u32::MAX, &spec)).unwrap_err();
        assert!(matches!(err, UpdateError::RuleIdTooSparse { .. }));
        let err = flat.insert(&Rule::wildcard(2_000_000, &spec)).unwrap_err();
        assert!(
            matches!(
                err,
                UpdateError::RuleIdTooSparse {
                    rule: 2_000_000,
                    ..
                }
            ),
            "{err:?}"
        );
        // The other geometry check: a range wider than the toy 8-bit
        // dimension.
        let mut wide = Rule::wildcard(20, &spec);
        wide.ranges[0] = FieldRange::new(0, 300);
        assert!(matches!(
            flat.insert(&wide),
            Err(UpdateError::RangeExceedsWidth { rule: 20, .. })
        ));
        // A rejected insert leaves the structure as it was.
        assert_eq!((flat.live_rules(), flat.arena_stats()), accepted);
        assert_eq!(flat.live_rule_count(), 11);
        assert_matches_live_linear(&flat);
    }

    #[test]
    fn insert_escaping_a_compacted_cut_region_is_still_found() {
        use crate::hypercuts::HyperCutsConfig;
        // A ruleset clustered in a small box, so region compaction shrinks
        // the root cut region well below the full space.
        let spec = *toy::table1_ruleset().spec();
        let rules: Vec<Rule> = (0..8u32)
            .map(|i| {
                let mut r = Rule::wildcard(i, &spec);
                r.ranges[0] = FieldRange::new(10 + i, 30 + i);
                r.ranges[4] = FieldRange::new(40, 60);
                r
            })
            .collect();
        let rs = pclass_types::RuleSet::new("boxed", spec, rules).unwrap();
        let hc = HyperCutsClassifier::build(
            &rs,
            &HyperCutsConfig {
                binth: 2,
                spfac: 4.0,
                region_compaction: true,
                push_common_rules: true,
            },
        );
        let mut flat = FlatTree::from_tree(hc.tree());
        // A wildcard rule reaches far outside the compacted box: packets
        // out there must still match it after the insert.
        flat.insert(&Rule::wildcard(9, &spec)).unwrap();
        let outside = PacketHeader::from_fields([200, 200, 200, 200, 200]);
        assert_eq!(flat.classify(&outside, None), MatchResult::Matched(9));
        assert_matches_live_linear(&flat);
        flat.delete(9).unwrap();
        assert_eq!(flat.classify(&outside, None), MatchResult::NoMatch);
        assert_matches_live_linear(&flat);
    }

    #[test]
    fn empty_ruleset_flattens_to_single_leaf() {
        let spec = *toy::table1_ruleset().spec();
        let empty = pclass_types::RuleSet::new("empty", spec, vec![]).unwrap();
        let hc = HiCutsClassifier::build(&empty, &HiCutsConfig::paper_defaults());
        let flat = hc.flatten();
        assert_eq!(flat.flat_tree().node_count(), 1);
        assert_eq!(flat.flat_tree().root, LEAF_TAG, "the root is leaf 0");
        let pkt = PacketHeader::from_fields([1, 2, 3, 4, 5]);
        assert_eq!(flat.classify(&pkt), MatchResult::NoMatch);
        let mut out = Vec::new();
        flat.classify_batch(&[pkt, pkt], &mut out);
        assert_eq!(out, vec![MatchResult::NoMatch; 2]);
    }
}
