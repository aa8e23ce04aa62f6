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

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_types::ArenaStats;

fn benchmark_arena(rules: usize) -> FlatTreeClassifier {
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 20080414).generate(rules);
    HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults()).flatten()
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
}

/// The cell the arena's layout is judged on (`struct_mib` on
/// `acl64k_uniform`).  Release only — the build takes minutes unoptimised;
/// CI runs it by name after `cargo build --release`.
#[test]
#[ignore = "64,000-rule build: run in release, `-- --ignored acl64k`"]
fn acl64k_arena_fits_76_mib() {
    let arena = benchmark_arena(64_000);
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
