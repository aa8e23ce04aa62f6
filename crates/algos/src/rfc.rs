//! Recursive Flow Classification (Gupta & McKeown, SIGCOMM 1999).
//!
//! RFC is the fastest pure-software algorithm in the paper's comparison
//! (§5.2 quotes the ASIC accelerator as "up to 546 times" faster than RFC on
//! the SA-1100, versus 4,269 times faster than HiCuts).  It trades memory for
//! a fixed, small number of table lookups per packet:
//!
//! 1. **Phase 0** splits the 104-bit header into seven chunks (two 16-bit
//!    halves of each address, the two ports and the protocol) and maps each
//!    chunk value to an *equivalence-class id* through a direct-indexed
//!    table.
//! 2. **Later phases** combine pairs of class ids through cross-product
//!    tables until a single id remains; that id directly yields the
//!    highest-priority matching rule.
//!
//! Each step has one implementation.  One table builder makes the seven
//! phase-0 tables: rule endpoints cut a chunk's values into runs, one key
//! per run, keys numbered in first-seen order.  One cross product makes the
//! six later tables from every pair of classes, each entry a join of the
//! pair's keys: a class id in phases 1 and 2, the first common rule in the
//! last.  One phase-major tile walk does every lookup: `classify_batch`
//! runs it 64 packets at a time and per-packet `classify` is a tile of one.
//!
//! Splitting a 32-bit address into two independent 16-bit chunks is only
//! exact when the high and low halves constrain a rule independently.  That
//! is true for prefixes but not for arbitrary address ranges that span
//! several high-half values, so the high chunk is keyed, per rule, by a
//! `HiState` (outside / interior / low-edge / high-edge / single-column)
//! that phase 1 resolves exactly against the low half.  It is the minimal
//! exact key for an arbitrary range: any two of the five states admit
//! different low halves for some range, while a finer key (say, a pair of
//! `Ordering`s against the endpoints) would split values no low half tells
//! apart, such as below and above the range, and so make more classes and
//! larger tables.  The result is exact for every ruleset the workspace
//! generators produce, verified against linear search by the tests.

use crate::counters::LookupStats;
use crate::Classifier;
use pclass_types::{Dimension, FieldRange, MatchResult, PacketHeader, Rule, RuleSet};
use std::collections::HashMap;
use std::hash::Hash;

/// Ceiling on the entries of any one cross-product table: 64 Mi entries,
/// about 256 MB of `u32` ids.  RFC memory grows quickly with rule count, so
/// the preprocessor aborts with [`RfcError::MemoryLimit`] instead of
/// exhausting the host.
const MAX_TABLE_ENTRIES: usize = 64 << 20;

/// Errors from RFC preprocessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RfcError {
    /// A cross-product table would exceed the ceiling of 64 Mi entries.
    MemoryLimit {
        /// Number of entries the offending table would need.
        required: usize,
    },
}

impl std::fmt::Display for RfcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RfcError::MemoryLimit { required } => {
                write!(
                    f,
                    "RFC cross-product table needs {required} entries, over the \
                     {MAX_TABLE_ENTRIES}-entry (64 Mi) ceiling"
                )
            }
        }
    }
}

impl std::error::Error for RfcError {}

/// Relationship between one high-half chunk value and one rule's address
/// range, used to combine the two 16-bit halves of an address exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HiState {
    /// The rule cannot match any address with this high half.
    Outside,
    /// Every address with this high half is inside the rule's range.
    Interior,
    /// The high half equals the range's low endpoint: the low half must be
    /// `>= lo & 0xFFFF`.
    LowEdge,
    /// The high half equals the range's high endpoint: the low half must be
    /// `<= hi & 0xFFFF`.
    HighEdge,
    /// The range lies entirely within this single high-half column: the low
    /// half must be within `[lo & 0xFFFF, hi & 0xFFFF]`.
    SingleColumn,
}

impl HiState {
    /// The state of high half `h` against `range`.
    fn of(h: u32, range: FieldRange) -> HiState {
        let (lo, hi) = (range.lo >> 16, range.hi >> 16);
        if h < lo || h > hi {
            HiState::Outside
        } else if lo == hi {
            HiState::SingleColumn
        } else if h == lo {
            HiState::LowEdge
        } else if h == hi {
            HiState::HighEdge
        } else {
            HiState::Interior
        }
    }

    /// Whether a low half whose flags are `(>= lo & 0xFFFF, <= hi & 0xFFFF)`
    /// completes an address inside the range.
    fn admits(self, (ge_lo, le_hi): (bool, bool)) -> bool {
        match self {
            HiState::Outside => false,
            HiState::Interior => true,
            HiState::LowEdge => ge_lo,
            HiState::HighEdge => le_hi,
            HiState::SingleColumn => ge_lo && le_hi,
        }
    }
}

/// A dense rule bitmap.
type Bitmap = Vec<u64>;

/// The rules `i < n` for which `hit(i)` holds.  Phase 1 builds one per
/// table entry: a plain loop sets only the true bits (a `filter` iterator
/// built acl 2,000 ~25 % slower on x86-64).
fn bitmap(n: usize, hit: impl Fn(usize) -> bool) -> Bitmap {
    let mut bm = vec![0u64; n.div_ceil(64)];
    for i in 0..n {
        if hit(i) {
            bm[i / 64] |= 1 << (i % 64);
        }
    }
    bm
}

fn bitmap_and(a: &Bitmap, b: &Bitmap) -> Bitmap {
    a.iter().zip(b).map(|(x, y)| x & y).collect()
}

/// The first rule set in both bitmaps as its index + 1, or 0 for none.
fn first_common(a: &Bitmap, b: &Bitmap) -> u32 {
    for (w, (x, y)) in a.iter().zip(b).enumerate() {
        if x & y != 0 {
            return w as u32 * 64 + (x & y).trailing_zeros() + 1;
        }
    }
    0
}

/// Numbers distinct keys 0, 1, 2, … in first-seen order, and records each
/// key once, in id order, for the next phase's cross product.
struct Classes<K> {
    ids: HashMap<K, u32>,
    keys: Vec<K>,
}

impl<K: Hash + Eq + Clone> Classes<K> {
    fn new() -> Self {
        Classes {
            ids: HashMap::new(),
            keys: Vec::new(),
        }
    }

    fn id(&mut self, key: K) -> u32 {
        let next = self.keys.len() as u32;
        *self.ids.entry(key).or_insert_with_key(|key| {
            self.keys.push(key.clone());
            next
        })
    }

    /// The table of `entries` over these classes, and its keys in id order.
    fn into_table(self, entries: Vec<u32>) -> (PhaseTable, Vec<K>) {
        let classes = self.keys.len();
        (PhaseTable { entries, classes }, self.keys)
    }
}

/// A direct-indexed phase table mapping a chunk value (or a pair of class
/// ids) to a class id.
#[derive(Debug, Clone)]
struct PhaseTable {
    entries: Vec<u32>,
    classes: usize,
}

impl PhaseTable {
    /// The entry of a cross-product table for class `a` of its left operand
    /// and class `b` of its right operand, the table `right`.
    fn pair(&self, a: u32, b: u32, right: &PhaseTable) -> u32 {
        self.entries[a as usize * right.classes + b as usize]
    }
}

/// The one phase-0 builder: the table over chunk values `0..size`.  A rule
/// whose range spans `(lo, hi)` in chunk values can change a value's key
/// only at `lo`, `lo + 1`, `hi` and `hi + 1`, so those cuts split the values
/// into runs; `key` is computed once per run and every value in the run
/// gets the run's class id.
fn chunk_table<K: Hash + Eq + Clone>(
    size: u32,
    spans: Vec<(u32, u32)>,
    key: impl Fn(u32) -> K,
) -> (PhaseTable, Vec<K>) {
    let mut cuts = vec![0, size];
    for (lo, hi) in spans {
        cuts.extend([lo, lo + 1, hi, hi + 1]);
    }
    cuts.retain(|&c| c <= size);
    cuts.sort_unstable();
    cuts.dedup();
    let mut classes = Classes::new();
    let mut entries = Vec::with_capacity(size as usize);
    for run in cuts.windows(2) {
        let id = classes.id(key(run[0]));
        entries.resize(run[1] as usize, id);
    }
    classes.into_table(entries)
}

/// The one cross product: `join` of every (a, b) pair, a-major, which is
/// the layout [`PhaseTable::pair`] reads.  Refuses before allocating a table
/// over `limit` entries.
fn cross<A, B>(
    a: &[A],
    b: &[B],
    limit: usize,
    mut join: impl FnMut(&A, &B) -> u32,
) -> Result<Vec<u32>, RfcError> {
    let required = a.len() * b.len();
    if required > limit {
        return Err(RfcError::MemoryLimit { required });
    }
    let mut entries = Vec::with_capacity(required);
    for x in a {
        entries.extend(b.iter().map(|y| join(x, y)));
    }
    Ok(entries)
}

/// A phase-1 or phase-2 table: the cross product of two phases' classes,
/// with each pair's joined key numbered as a class of its own.
fn combine<A, B, K: Hash + Eq + Clone>(
    a: &[A],
    b: &[B],
    limit: usize,
    join: impl Fn(&A, &B) -> K,
) -> Result<(PhaseTable, Vec<K>), RfcError> {
    let mut classes = Classes::new();
    let entries = cross(a, b, limit, |x, y| classes.id(join(x, y)))?;
    Ok(classes.into_table(entries))
}

/// Each rule's `state` for its range in field `dim`.
fn per_rule<S>(rules: &[Rule], dim: Dimension, state: impl Fn(FieldRange) -> S) -> Vec<S> {
    rules.iter().map(|r| state(r.range(dim))).collect()
}

/// The result an entry of the final table names: rule id + 1, 0 = no match.
fn matched(id: u32) -> MatchResult {
    id.checked_sub(1)
        .map_or(MatchResult::NoMatch, MatchResult::Matched)
}

/// The RFC classifier.
#[derive(Debug, Clone)]
pub struct RfcClassifier {
    // Phase 0.
    src_hi: PhaseTable,
    src_lo: PhaseTable,
    dst_hi: PhaseTable,
    dst_lo: PhaseTable,
    src_port: PhaseTable,
    dst_port: PhaseTable,
    proto: PhaseTable,
    // Phase 1.
    src_addr: PhaseTable, // (src_hi, src_lo)
    dst_addr: PhaseTable, // (dst_hi, dst_lo)
    ports: PhaseTable,    // (src_port, dst_port)
    // Phase 2.
    addrs: PhaseTable,       // (src_addr, dst_addr)
    ports_proto: PhaseTable, // (ports, proto)
    // Phase 3: the final table stores the matched rule id + 1 (0 = no match).
    final_table: PhaseTable,
}

impl RfcClassifier {
    /// Preprocesses a ruleset into RFC tables.
    pub fn build(ruleset: &RuleSet) -> Result<RfcClassifier, RfcError> {
        RfcClassifier::build_within(ruleset, MAX_TABLE_ENTRIES)
    }

    /// [`RfcClassifier::build`] with no cross-product table over `limit`
    /// entries.
    fn build_within(ruleset: &RuleSet, limit: usize) -> Result<RfcClassifier, RfcError> {
        let (n, rules) = (ruleset.len(), ruleset.rules());
        let spans = |dim, part: fn(u32) -> u32| per_rule(rules, dim, |r| (part(r.lo), part(r.hi)));

        // Phases 0 and 1 of an address.  The high half is keyed by each
        // rule's `HiState`, the low half by whether it clears each rule's
        // low-half endpoints, and an address matches a rule when its high
        // half's state admits its low half's flags.
        let address = |dim: Dimension| {
            let (hi, hi_keys) = chunk_table(1 << 16, spans(dim, |v| v >> 16), |h| {
                per_rule(rules, dim, |r| HiState::of(h, r))
            });
            let (lo, lo_keys) = chunk_table(1 << 16, spans(dim, |v| v & 0xFFFF), |l| {
                per_rule(rules, dim, |r| (l >= r.lo & 0xFFFF, l <= r.hi & 0xFFFF))
            });
            let join = |h: &Vec<HiState>, l: &Vec<(bool, bool)>| bitmap(n, |i| h[i].admits(l[i]));
            combine(&hi_keys, &lo_keys, limit, join).map(|(addr, keys)| (hi, lo, addr, keys))
        };
        // Ports and protocol are keyed by the rules whose range holds them.
        let whole = |dim: Dimension, bits: u32| {
            chunk_table(1 << bits, spans(dim, |v| v), |v| {
                bitmap(n, |i| rules[i].range(dim).contains(v))
            })
        };
        let (src_hi, src_lo, src_addr, src_addr_keys) = address(Dimension::SrcIp)?;
        let (dst_hi, dst_lo, dst_addr, dst_addr_keys) = address(Dimension::DstIp)?;
        let (src_port, src_port_keys) = whole(Dimension::SrcPort, 16);
        let (dst_port, dst_port_keys) = whole(Dimension::DstPort, 16);
        let (proto, proto_keys) = whole(Dimension::Protocol, 8);
        let (ports, ports_keys) = combine(&src_port_keys, &dst_port_keys, limit, bitmap_and)?;
        // Phase 2.
        let (addrs, addrs_keys) = combine(&src_addr_keys, &dst_addr_keys, limit, bitmap_and)?;
        let (ports_proto, ports_proto_keys) = combine(&ports_keys, &proto_keys, limit, bitmap_and)?;
        // Phase 3: the first rule both sides match.
        let final_table = PhaseTable {
            entries: cross(&addrs_keys, &ports_proto_keys, limit, first_common)?,
            classes: 0,
        };

        Ok(RfcClassifier {
            src_hi,
            src_lo,
            dst_hi,
            dst_lo,
            src_port,
            dst_port,
            proto,
            src_addr,
            dst_addr,
            ports,
            addrs,
            ports_proto,
            final_table,
        })
    }

    /// Total number of table entries across all phases (each entry is one
    /// 32-bit word in this implementation).
    pub fn table_entries(&self) -> usize {
        [
            &self.src_hi,
            &self.src_lo,
            &self.dst_hi,
            &self.dst_lo,
            &self.src_port,
            &self.dst_port,
            &self.proto,
            &self.src_addr,
            &self.dst_addr,
            &self.ports,
            &self.addrs,
            &self.ports_proto,
            &self.final_table,
        ]
        .iter()
        .map(|t| t.entries.len())
        .sum()
    }

    /// The one lookup: a phase-major walk over a tile of at most `W`
    /// packets, writing each one's rule id + 1 (0 = no match) to
    /// `ids[..tile.len()]`.  Each phase reads its tables for the whole tile
    /// before the next phase starts, so with large rulesets one table's
    /// working set is reused across the tile instead of being evicted 13
    /// tables later.
    #[inline(always)]
    fn walk<const W: usize>(&self, tile: &[PacketHeader], ids: &mut [u32; W]) {
        let (mut sa, mut da, mut pp) = ([0u32; W], [0u32; W], [0u32; W]);
        // Phases 0 and 1, one address or port pair at a time.
        for (i, p) in tile.iter().enumerate() {
            let hi = self.src_hi.entries[(p.src_ip() >> 16) as usize];
            let lo = self.src_lo.entries[(p.src_ip() & 0xFFFF) as usize];
            sa[i] = self.src_addr.pair(hi, lo, &self.src_lo);
        }
        for (i, p) in tile.iter().enumerate() {
            let hi = self.dst_hi.entries[(p.dst_ip() >> 16) as usize];
            let lo = self.dst_lo.entries[(p.dst_ip() & 0xFFFF) as usize];
            da[i] = self.dst_addr.pair(hi, lo, &self.dst_lo);
        }
        for (i, p) in tile.iter().enumerate() {
            let sp = self.src_port.entries[usize::from(p.src_port())];
            let dp = self.dst_port.entries[usize::from(p.dst_port())];
            pp[i] = self.ports.pair(sp, dp, &self.dst_port);
        }
        // Phase 2: addresses (into `ids`), then ports x protocol.
        for i in 0..tile.len() {
            ids[i] = self.addrs.pair(sa[i], da[i], &self.dst_addr);
        }
        for (i, p) in tile.iter().enumerate() {
            let g = self.proto.entries[usize::from(p.protocol())];
            pp[i] = self.ports_proto.pair(pp[i], g, &self.proto);
        }
        // Phase 3: the final table.
        for i in 0..tile.len() {
            ids[i] = self.final_table.pair(ids[i], pp[i], &self.ports_proto);
        }
    }
}

impl Classifier for RfcClassifier {
    fn name(&self) -> &'static str {
        "rfc"
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        let mut id = [0];
        self.walk(std::slice::from_ref(pkt), &mut id);
        matched(id[0])
    }

    /// The phase-major walk, one tile at a time.
    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        /// Tile width: large enough to amortise table reuse, small enough
        /// that the per-tile id arrays live comfortably in L1.
        const TILE: usize = 64;

        out.reserve(pkts.len());
        let mut ids = [0; TILE];
        for tile in pkts.chunks(TILE) {
            self.walk(tile, &mut ids);
            out.extend(ids[..tile.len()].iter().map(|&id| matched(id)));
        }
    }

    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
        // 13 table reads: 7 phase-0, 3 phase-1, 2 phase-2, 1 final.
        stats.memory_accesses += 13;
        stats.ops.loads += 13;
        stats.ops.alu += 20; // index arithmetic
        stats.ops.muls += 6;
        self.classify(pkt)
    }

    fn memory_bytes(&self) -> usize {
        // Every table entry is stored as a 16-bit class id in a production
        // implementation (class counts stay far below 65536); count 2 bytes
        // per entry the way the paper's companion study does.
        self.table_entries() * 2
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        Some(13)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_types::{FieldRange, Rule, RuleBuilder};

    fn five_tuple_set() -> RuleSet {
        let rules = vec![
            RuleBuilder::new(0)
                .src_prefix(0x0A00_0000, 8)
                .dst_prefix(0xC0A8_0100, 24)
                .dst_port(80)
                .protocol(6)
                .build(),
            RuleBuilder::new(1)
                .src_prefix(0x0A01_0000, 16)
                .dst_port_range(1024, 65535)
                .protocol(6)
                .build(),
            RuleBuilder::new(2)
                .dst_prefix(0xC0A8_0000, 16)
                .protocol(17)
                .build(),
            // A rule whose source address is an arbitrary range spanning
            // several high-half columns — the case the HiState machinery
            // exists for.
            Rule::new(
                3,
                [
                    FieldRange::new(0x0A01_FFF0, 0x0A03_0010),
                    FieldRange::full(32),
                    FieldRange::full(16),
                    FieldRange::full(16),
                    FieldRange::exact(6),
                ],
            ),
            RuleBuilder::new(4).build(), // default rule
        ];
        RuleSet::new("rfc_test", pclass_types::DimensionSpec::FIVE_TUPLE, rules).unwrap()
    }

    #[test]
    fn agrees_with_linear_search_on_crafted_packets() {
        let rs = five_tuple_set();
        let rfc = RfcClassifier::build(&rs).unwrap();
        let packets = [
            PacketHeader::five_tuple(0x0A01_0203, 0xC0A8_0105, 40000, 80, 6),
            PacketHeader::five_tuple(0x0A01_0203, 0xC0A8_0105, 40000, 8080, 6),
            PacketHeader::five_tuple(0x0B01_0203, 0xC0A8_0105, 40000, 53, 17),
            PacketHeader::five_tuple(0x0A02_0000, 0x01020304, 1, 1, 6), // inside rule 3's range
            PacketHeader::five_tuple(0x0A03_0011, 0x01020304, 1, 1, 6), // just outside rule 3
            PacketHeader::five_tuple(0x0A01_FFEF, 0x01020304, 1, 1, 6), // just below rule 3
            PacketHeader::five_tuple(0x0A01_FFF0, 0x01020304, 1, 1, 6), // exactly rule 3's lower bound
            PacketHeader::five_tuple(0xFFFF_FFFF, 0xFFFF_FFFF, 65535, 65535, 255),
            PacketHeader::five_tuple(0, 0, 0, 0, 0),
        ];
        for pkt in packets {
            assert_eq!(rfc.classify(&pkt), rs.classify_linear(&pkt), "packet {pkt}");
        }
    }

    #[test]
    fn boundary_sweep_around_arbitrary_range() {
        let rs = five_tuple_set();
        let rfc = RfcClassifier::build(&rs).unwrap();
        // Sweep addresses around the awkward range of rule 3 in steps that
        // cross the 16-bit column boundaries.
        let mut addr: u64 = 0x0A01_FF00;
        while addr <= 0x0A03_0100 {
            let pkt = PacketHeader::five_tuple(addr as u32, 0x0102_0304, 7, 7, 6);
            assert_eq!(
                rfc.classify(&pkt),
                rs.classify_linear(&pkt),
                "addr {addr:#x}"
            );
            addr += 0x33;
        }
    }

    #[test]
    fn priority_is_respected() {
        let rs = five_tuple_set();
        let rfc = RfcClassifier::build(&rs).unwrap();
        // Matches rules 0, 1 (ports) and 4 — rule 0 must win.
        let pkt = PacketHeader::five_tuple(0x0A01_0203, 0xC0A8_0105, 40000, 80, 6);
        assert_eq!(rfc.classify(&pkt), MatchResult::Matched(0));
    }

    #[test]
    fn stats_and_metadata() {
        let rs = five_tuple_set();
        let rfc = RfcClassifier::build(&rs).unwrap();
        assert_eq!(rfc.name(), "rfc");
        assert_eq!(rfc.worst_case_memory_accesses(), Some(13));
        assert!(rfc.memory_bytes() > 7 * (1 << 16)); // at least the phase-0 tables
        let mut stats = LookupStats::new();
        let pkt = PacketHeader::five_tuple(0, 0, 0, 0, 0);
        rfc.classify_with_stats(&pkt, &mut stats);
        assert_eq!(stats.memory_accesses, 13);
    }

    /// Batch and per-packet lookup run the same walk, so each is checked
    /// against linear search instead of the other.
    #[test]
    fn batched_and_per_packet_lookup_match_linear_search() {
        let rs = five_tuple_set();
        let rfc = RfcClassifier::build(&rs).unwrap();
        // Up to more packets than one tile, including tile-boundary stragglers.
        let pkts: Vec<PacketHeader> = (0u32..150)
            .map(|i| {
                PacketHeader::five_tuple(
                    0x0A01_FF00u32.wrapping_add(i * 0x1234),
                    0xC0A8_0100 ^ (i * 7),
                    (i * 131) as u16,
                    (i * 37) as u16,
                    if i % 3 == 0 { 6 } else { 17 },
                )
            })
            .collect();
        let linear: Vec<MatchResult> = pkts.iter().map(|p| rs.classify_linear(p)).collect();
        for (p, want) in pkts.iter().zip(&linear) {
            assert_eq!(rfc.classify(p), *want, "packet {p}");
        }
        // Every batch is appended after the results already in `out`.
        let mut out = Vec::new();
        let mut want = Vec::new();
        for n in [0, 1, 63, 64, 65, 150] {
            rfc.classify_batch(&pkts[..n], &mut out);
            want.extend_from_slice(&linear[..n]);
            assert_eq!(out, want, "batch of {n}");
        }
    }

    /// FNV-1a over every table's class count and entries, phase by phase.
    fn table_fingerprint(rfc: &RfcClassifier) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for t in [
            &rfc.src_hi,
            &rfc.src_lo,
            &rfc.dst_hi,
            &rfc.dst_lo,
            &rfc.src_port,
            &rfc.dst_port,
            &rfc.proto,
            &rfc.src_addr,
            &rfc.dst_addr,
            &rfc.ports,
            &rfc.addrs,
            &rfc.ports_proto,
            &rfc.final_table,
        ] {
            eat(t.classes as u64);
            eat(t.entries.len() as u64);
            t.entries.iter().for_each(|&e| eat(u64::from(e)));
        }
        hash
    }

    /// Every RFC table, entry for entry, on one ClassBench set of each
    /// style: a change to how the tables are built must leave them
    /// bit-identical (class ids numbered in first-seen order included).
    #[test]
    fn tables_are_pinned_on_classbench_sets() {
        use pclass_classbench::{ClassBenchGenerator, SeedStyle};
        let pins = [
            (SeedStyle::Acl, 489_807, 0xd93e_82d6_57d8_8256),
            (SeedStyle::Fw, 2_501_156, 0x308e_df3f_0fef_0d9b),
            (SeedStyle::Ipc, 670_928, 0x0305_4641_967c_f48b),
        ];
        for (style, entries, fingerprint) in pins {
            let rs = ClassBenchGenerator::new(style, 20080414).generate(300);
            let rfc = RfcClassifier::build(&rs).unwrap();
            assert_eq!(
                (rfc.table_entries(), table_fingerprint(&rfc)),
                (entries, fingerprint),
                "{style:?}"
            );
        }
    }

    #[test]
    fn memory_limit_is_enforced() {
        let rs = five_tuple_set();
        match RfcClassifier::build_within(&rs, 10) {
            Err(err @ RfcError::MemoryLimit { required }) => {
                assert!(required > 10);
                assert!(err.to_string().ends_with("67108864-entry (64 Mi) ceiling"));
            }
            other => panic!("expected memory-limit error, got {other:?}"),
        }
    }

    #[test]
    fn empty_ruleset_never_matches() {
        let rs = RuleSet::new("empty", pclass_types::DimensionSpec::FIVE_TUPLE, vec![]).unwrap();
        let rfc = RfcClassifier::build(&rs).unwrap();
        assert_eq!(
            rfc.classify(&PacketHeader::five_tuple(1, 2, 3, 4, 5)),
            MatchResult::NoMatch
        );
    }
}
