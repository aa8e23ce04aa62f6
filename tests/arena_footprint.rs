//! Pins of the flat arena's shape and size on the benchmark's own rulesets
//! (`ClassBenchGenerator(Acl, 20080414)`, `hicuts-flat`, paper defaults) —
//! what `struct_mib` and `sim_worst_accesses` read on `acl2k_uniform`,
//! `churn10k` and `acl64k_uniform`.
//!
//! The structure columns (`nodes`, `cut_records`, `child_slots`,
//! `rule_refs`) and the worst-case access bound are the builder's and the
//! walk's: a change to how the arena *stores* rules must leave them where
//! they are and may move only the byte columns.
//!
//! The byte columns, spelled out: HiCuts keeps one cut record per internal
//! node, so `cut_records` internal nodes cost a 64-byte record plus a
//! 4-byte span capacity (68 B) each; the other `nodes − cut_records` are
//! leaves at an 8-byte span plus a 4-byte capacity (12 B); each child slot
//! is 4 B.  That is `arena_bytes`.  `total_bytes` adds 4 B per rule id in
//! the slab and one 64-byte table line per rule.
//!
//! The lookup columns are what the `sim_*` metrics price: the
//! [`LookupStats`] of the per-packet stats walk summed over a fixed trace,
//! and the most memory accesses one packet of it took.  A change to how the
//! arena *walks* must leave them bit-identical.
//!
//! The content pins hold what a build emits to the byte: an FNV-1a hash
//! over the tree's dump, the `Debug` of its `BuildStats`, `TreeStats` and
//! `ArenaStats`, and the `Debug` of the served arena (`FlatTree`) — every
//! node record, cut record with its division magics, child slot, rule id
//! and rule image, and nothing of the classifier type that wraps it.  A change to how trees are *built* that claims nothing
//! moved must leave them unedited.
//!
//! The shape pins hold the same builds blind to how the arena numbers its
//! nodes: an FNV-1a hash over the served arena walked in pre-order through
//! `FlatTree::node` (first visit only, children in slot order), with every
//! child slot written as its node's first-visit ordinal, then the live
//! rules, `ArenaStats`, dump, `BuildStats` and `TreeStats`.  A change that
//! only renumbers the served nodes moves the content pins and leaves these.
//!
//! The acl 64 k and fw 10 k HiCuts builds are the heaviest the suite makes,
//! so each is built once per run and shared by the tests that read it.

use packet_classifier::prelude::*;
use pclass_algos::counters::{LookupStats, OpCounters};
use pclass_algos::dtree::{CutTreeClassifier, RosterPolicy};
use pclass_algos::flat::FlatTree;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_types::ArenaStats;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

fn benchmark_ruleset(rules: usize) -> RuleSet {
    ClassBenchGenerator::new(SeedStyle::Acl, 20080414).generate(rules)
}

/// FNV-1a fed through `fmt::Write`, so a dump or an arena's `Debug` is
/// hashed as it is formatted and never held whole.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The content pin of a build (see the module docs).
fn content_pin<C: RosterPolicy>(tree: &CutTreeClassifier<C>) -> u64 {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(
        hash,
        "{}{:?}{:?}{:?}{:?}",
        tree.dump(),
        tree.build_stats(),
        tree.stats(),
        tree.arena_stats(),
        tree.flat_tree()
    )
    .expect("hashing cannot fail");
    hash.0
}

/// Gives each node `slot` reaches its first-visit ordinal in pre-order,
/// children in slot order, and lists the nodes in that order.
fn preorder(arena: &FlatTree, slot: u32, ordinal: &mut HashMap<u32, usize>, order: &mut Vec<u32>) {
    if ordinal.contains_key(&slot) {
        return;
    }
    ordinal.insert(slot, order.len());
    order.push(slot);
    let node = arena.node(slot).expect("every slot names a node");
    for &child in node.children {
        preorder(arena, child, ordinal, order);
    }
}

/// The shape pin of a build (see the module docs).
fn shape_pin<C: RosterPolicy>(tree: &CutTreeClassifier<C>) -> u64 {
    let arena = tree.flat_tree();
    // The root is internal record 0, or leaf 0 when there is none.
    let root = if arena.node(0).is_some() { 0 } else { 1 << 31 };
    let (mut ordinal, mut order) = (HashMap::new(), Vec::new());
    preorder(arena, root, &mut ordinal, &mut order);
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    for &slot in &order {
        let node = arena.node(slot).expect("every slot names a node");
        let children: Vec<usize> = node.children.iter().map(|c| ordinal[c]).collect();
        write!(hash, "{:?}{children:?}{:?};", node.cuts, node.rules).expect("hashing cannot fail");
    }
    write!(
        hash,
        "{:?}{:?}{}{:?}{:?}",
        arena.live_rules(),
        tree.arena_stats(),
        tree.dump(),
        tree.build_stats(),
        tree.stats()
    )
    .expect("hashing cannot fail");
    hash.0
}

fn benchmark_arena(rules: usize) -> HiCutsClassifier {
    HiCutsClassifier::build(&benchmark_ruleset(rules), &HiCutsConfig::paper_defaults())
}

/// The arena `acl64k_uniform` serves, built once.
fn acl64k_arena() -> &'static HiCutsClassifier {
    static ARENA: OnceLock<HiCutsClassifier> = OnceLock::new();
    ARENA.get_or_init(|| benchmark_arena(64_000))
}

/// The fw 10,000-rule HiCuts build, built once.
fn fw10k_arena() -> &'static HiCutsClassifier {
    static ARENA: OnceLock<HiCutsClassifier> = OnceLock::new();
    ARENA.get_or_init(|| {
        let rs = ClassBenchGenerator::new(SeedStyle::Fw, 20080414).generate(10_000);
        HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults())
    })
}

/// The summed [`LookupStats`] of 4,096 packets aimed at the arena's
/// ruleset, and the most memory accesses one of them took.
fn trace_stats(arena: &HiCutsClassifier, rules: usize) -> (LookupStats, u64) {
    let trace = TraceGenerator::new(&benchmark_ruleset(rules), 31).generate(4_096);
    let mut total = LookupStats::new();
    let mut worst = 0;
    for entry in trace.entries() {
        let mut stats = LookupStats::new();
        arena.classify_with_stats(&entry.header, &mut stats);
        worst = worst.max(stats.memory_accesses);
        total.merge(&stats);
    }
    (total, worst)
}

/// The lookup columns of [`trace_stats`] that the pins compare.
fn lookup_columns(stats: &LookupStats) -> (u64, u64, u64, OpCounters) {
    (
        stats.memory_accesses,
        stats.rules_compared,
        stats.nodes_visited,
        stats.ops,
    )
}

#[test]
fn benchmark_arenas_are_pinned_at_2k_and_10k() {
    let arena = benchmark_arena(2_000);
    assert_eq!(
        arena.arena_stats(),
        ArenaStats {
            nodes: 2_353,
            cut_records: 132,
            child_slots: 3_116,
            rule_refs: 11_750,
            // 132 x 68 B + 2,221 leaves x 12 B + 3,116 slots x 4 B.
            arena_bytes: 48_092,
            // + 11,750 ids x 4 B + 2,000 table lines x 64 B.
            total_bytes: 223_092,
        }
    );
    assert_eq!(arena.memory_bytes(), arena.arena_stats().total_bytes);
    assert_eq!(arena.worst_case_memory_accesses(), Some(19));
    let (total, worst) = trace_stats(&arena, 2_000);
    assert_eq!(
        lookup_columns(&total),
        (
            // 8,240 internal + 4,096 leaf visits + 14,024 rules compared.
            26_360,
            14_024,
            8_240,
            OpCounters {
                loads: 103_032,
                stores: 0,
                alu: 214_304,
                branches: 82_456,
                muls: 8_240,
                divs: 0,
            }
        )
    );
    assert_eq!(worst, 18);

    let arena = benchmark_arena(10_000);
    assert_eq!(
        arena.arena_stats(),
        ArenaStats {
            nodes: 15_274,
            cut_records: 2_010,
            child_slots: 33_100,
            rule_refs: 135_933,
            // 2,010 x 68 B + 13,264 leaves x 12 B + 33,100 slots x 4 B.
            arena_bytes: 428_248,
            // + 135,933 ids x 4 B + 10,000 table lines x 64 B.
            total_bytes: 1_611_980,
        }
    );
    assert_eq!(arena.memory_bytes(), arena.arena_stats().total_bytes);
    assert_eq!(arena.worst_case_memory_accesses(), Some(22));
    let (total, worst) = trace_stats(&arena, 10_000);
    assert_eq!(
        lookup_columns(&total),
        (
            // 10,695 internal + 4,096 leaf visits + 20,948 rules compared.
            35_739,
            20_948,
            10_695,
            OpCounters {
                loads: 145_017,
                stores: 0,
                alu: 300_729,
                branches: 119_531,
                muls: 10_695,
                divs: 0,
            }
        )
    );
    assert_eq!(worst, 22);
}

/// The cell the arena's layout is judged on (`struct_mib` on
/// `acl64k_uniform`).
#[test]
fn acl64k_arena_fits_76_mib() {
    let arena = acl64k_arena();
    let stats = arena.arena_stats();
    assert_eq!(stats.nodes, 1_054_556);
    assert_eq!(stats.cut_records, 269_372);
    assert_eq!(stats.child_slots, 3_818_052);
    assert_eq!(stats.rule_refs, 7_637_540);
    assert_eq!(arena.worst_case_memory_accesses(), Some(28));
    // 269,372 x 68 B + 785,184 leaves x 12 B + 3,818,052 slots x 4 B.
    assert_eq!(stats.arena_bytes, 43_011_712);
    // + 7,637,540 ids x 4 B + 64,000 table lines x 64 B = 74.06 MiB.
    assert_eq!(stats.total_bytes, 77_657_872);
    assert_eq!(arena.memory_bytes(), stats.total_bytes);
    assert!(
        arena.memory_bytes() <= 76 << 20,
        "{} B is more than 76 MiB",
        arena.memory_bytes()
    );
}

#[test]
fn benchmark_builds_are_content_pinned_at_2k_and_10k() {
    let mut got = Vec::new();
    for rules in [2_000, 10_000] {
        let rs = benchmark_ruleset(rules);
        let hicuts = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
        got.push((rules, "hicuts", content_pin(&hicuts)));
        let hypercuts = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
        got.push((rules, "hypercuts", content_pin(&hypercuts)));
    }
    let want = vec![
        (2_000, "hicuts", 0xbda1_8654_19c2_70b7),
        (2_000, "hypercuts", 0x35e6_e977_6a0e_2d2a),
        (10_000, "hicuts", 0xde4f_6cab_d9f0_c959),
        (10_000, "hypercuts", 0xc85f_7f11_b3a9_8d51),
    ];
    assert_eq!(got, want);
}

/// The content pin of the arena `acl64k_uniform` serves, beside
/// [`acl64k_arena_fits_76_mib`].
#[test]
fn acl64k_hicuts_build_is_content_pinned() {
    assert_eq!(content_pin(acl64k_arena()), 0x37fb_e0d7_370a_da8a);
}

/// The content pin of the most replicated build the suite makes: fw
/// 10,000 under HiCuts, millions of nodes.
#[test]
fn fw10k_hicuts_build_is_content_pinned() {
    assert_eq!(content_pin(fw10k_arena()), 0xd886_3d8c_17fa_7efc);
}

#[test]
fn benchmark_builds_are_shape_pinned_at_2k_and_10k() {
    let mut got = Vec::new();
    for rules in [2_000, 10_000] {
        let rs = benchmark_ruleset(rules);
        let hicuts = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
        got.push((rules, "hicuts", shape_pin(&hicuts)));
        let hypercuts = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
        got.push((rules, "hypercuts", shape_pin(&hypercuts)));
    }
    let want = vec![
        (2_000, "hicuts", 0xad96_dbe4_e3a2_32ae),
        (2_000, "hypercuts", 0x586c_6533_6686_6a8e),
        (10_000, "hicuts", 0x99cb_0b50_a2c4_d973),
        (10_000, "hypercuts", 0xc7f7_477e_521b_f625),
    ];
    assert_eq!(got, want);
}

/// The shape pin of the arena `acl64k_uniform` serves.
#[test]
fn acl64k_hicuts_build_is_shape_pinned() {
    assert_eq!(shape_pin(acl64k_arena()), 0xfa23_6911_a975_7cce);
}

/// The shape pin of the fw 10,000-rule HiCuts build.
#[test]
fn fw10k_hicuts_build_is_shape_pinned() {
    assert_eq!(shape_pin(fw10k_arena()), 0xe089_c50b_19cd_60f5);
}
