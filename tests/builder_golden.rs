//! Golden pins of everything the four tree builders and the two software
//! walks *count* on `acl_ruleset(1000)`: the full [`BuildStats`] of the
//! software HiCuts/HyperCuts builders and of the hardware-oriented modified
//! ones — four cut policies over one `TreeBuilder` — the pointer-tree and
//! arena shapes, and the summed
//! [`LookupStats`] of a 2,000-packet trace.
//!
//! These numbers feed Table 2 (memory), Table 3 (build energy) and Table 8
//! (worst-case accesses) of `reproduce` and the benchmark's `struct_mib` and
//! `sim_*` metrics, which until now were guarded only by relative
//! assertions (`modified_builders_use_less_build_energy_than_originals`).
//! A refactor of the builders or the lookup accounting must leave every
//! literal here untouched; a deliberate accounting change updates them in
//! the same commit, and says so.

use pclass_algos::counters::{BuildStats, LookupStats, OpCounters};
use pclass_algos::dtree::TreeStats;
use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
use pclass_algos::hypercuts::{HyperCutsClassifier, HyperCutsConfig};
use pclass_algos::Classifier;
use pclass_bench::{acl_ruleset, trace_for};
use pclass_core::builder::{build_tree, BuildConfig, CutAlgorithm, SpeedMode};
use pclass_core::program::{HardwareProgram, ProgramStats};
use pclass_types::{ArenaStats, Trace};

/// Sums the lookup work of a whole trace.
fn summed_lookup_stats(classifier: &impl Classifier, trace: &Trace) -> LookupStats {
    let mut total = LookupStats::new();
    for pkt in trace.headers() {
        classifier.classify_with_stats(pkt, &mut total);
    }
    total
}

/// Pointer tree and arena must do — and count — exactly the same work.
fn assert_lookup_stats(
    tree: &impl Classifier,
    flat: &impl Classifier,
    trace: &Trace,
    want: LookupStats,
) {
    assert_eq!(summed_lookup_stats(tree, trace), want, "{}", tree.name());
    assert_eq!(summed_lookup_stats(flat, trace), want, "{}", flat.name());
}

#[test]
fn software_hicuts_counts_are_pinned() {
    let rs = acl_ruleset(1000);
    let hc = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    assert_eq!(
        *hc.build_stats(),
        BuildStats {
            ops: OpCounters {
                loads: 1033928,
                stores: 16634,
                alu: 2224574,
                branches: 325238,
                muls: 0,
                divs: 156718,
            },
            internal_nodes: 95,
            leaf_nodes: 1088,
            stored_rule_refs: 5136,
            max_depth: 2,
            cut_evaluations: 78359,
        }
    );
    assert_eq!(hc.memory_bytes(), 55328);
    assert_eq!(
        hc.tree().stats(),
        TreeStats {
            internal_nodes: 95,
            leaf_nodes: 1088,
            stored_rule_refs: 5136,
            max_depth: 2,
            max_leaf_rules: 16,
            worst_case_accesses: 18,
        }
    );
    let flat = hc.flatten();
    assert_eq!(
        flat.arena_stats(),
        ArenaStats {
            nodes: 1183,
            cut_records: 95,
            child_slots: 1640,
            rule_refs: 5136,
            // 95 internal x (64 B record + 4 B capacity) + 1,088 leaves x
            // (8 B span + 4 B capacity) + 1,640 child slots x 4 B.
            arena_bytes: 26076,
            // + 5,136 ids x 4 B + 1,000 table lines x 64 B.
            total_bytes: 110620,
        }
    );
    assert_lookup_stats(
        &hc,
        &flat,
        &trace_for(&rs, 2_000),
        LookupStats {
            ops: OpCounters {
                loads: 43454,
                stores: 0,
                alu: 90816,
                branches: 33638,
                muls: 3908,
                divs: 0,
            },
            nodes_visited: 3908,
            rules_compared: 5546,
            memory_accesses: 11454,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
        },
    );
}

#[test]
fn software_hypercuts_counts_are_pinned() {
    let rs = acl_ruleset(1000);
    let hc = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
    assert_eq!(
        *hc.build_stats(),
        BuildStats {
            ops: OpCounters {
                loads: 535822,
                stores: 7382,
                alu: 1143645,
                branches: 132650,
                muls: 0,
                divs: 81186,
            },
            internal_nodes: 43,
            leaf_nodes: 529,
            stored_rule_refs: 2189,
            max_depth: 2,
            cut_evaluations: 25497,
        }
    );
    assert_eq!(hc.memory_bytes(), 34476);
    assert_eq!(
        hc.tree().stats(),
        TreeStats {
            internal_nodes: 43,
            leaf_nodes: 529,
            stored_rule_refs: 2189,
            max_depth: 2,
            max_leaf_rules: 16,
            worst_case_accesses: 20,
        }
    );
    let flat = hc.flatten();
    assert_eq!(
        flat.arena_stats(),
        ArenaStats {
            nodes: 572,
            cut_records: 78,
            child_slots: 700,
            rule_refs: 2189,
            // 43 internal x 68 B + 529 leaves x 12 B + 35 slab cut records
            // x 40 B (78 cut records, 43 of them inline) + 700 child slots
            // x 4 B.
            arena_bytes: 13472,
            // + 2,189 ids x 4 B + 1,000 table lines x 64 B.
            total_bytes: 86228,
        }
    );
    assert_lookup_stats(
        &hc,
        &flat,
        &trace_for(&rs, 2_000),
        LookupStats {
            ops: OpCounters {
                loads: 71304,
                stores: 0,
                alu: 156342,
                branches: 61978,
                muls: 7020,
                divs: 0,
            },
            nodes_visited: 3663,
            rules_compared: 11263,
            memory_accesses: 16926,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
        },
    );
}

/// Builds the modified-algorithm tree at the paper's defaults and returns
/// its build counters with the memory layout they lead to.
fn hardware_build(algorithm: CutAlgorithm) -> (BuildStats, ProgramStats) {
    let rs = acl_ruleset(1000);
    let (tree, build) = build_tree(&rs, &BuildConfig::paper_defaults(algorithm)).unwrap();
    let layout = HardwareProgram::plan_layout(&tree, SpeedMode::Throughput);
    (build, layout)
}

#[test]
fn hardware_hicuts_counts_are_pinned() {
    let (build, layout) = hardware_build(CutAlgorithm::HiCuts);
    assert_eq!(
        build,
        BuildStats {
            ops: OpCounters {
                loads: 773062,
                stores: 22761,
                alu: 1583192,
                branches: 179148,
                muls: 0,
                divs: 3072,
            },
            internal_nodes: 14,
            leaf_nodes: 346,
            stored_rule_refs: 3418,
            max_depth: 2,
            cut_evaluations: 18534,
        }
    );
    assert_eq!(
        layout,
        ProgramStats {
            internal_words: 14,
            leaf_words: 141,
            total_words: 155,
            memory_bytes: 93000,
            stored_rules: 3418,
            worst_case_cycles: 3,
            tree_depth: 2,
        }
    );
}

#[test]
fn hardware_hypercuts_counts_are_pinned() {
    let (build, layout) = hardware_build(CutAlgorithm::HyperCuts);
    assert_eq!(
        build,
        BuildStats {
            ops: OpCounters {
                loads: 1354276,
                stores: 13903,
                alu: 2759552,
                branches: 256000,
                muls: 0,
                divs: 56000,
            },
            internal_nodes: 1,
            leaf_nodes: 227,
            stored_rule_refs: 2223,
            max_depth: 1,
            cut_evaluations: 17000,
        }
    );
    assert_eq!(
        layout,
        ProgramStats {
            internal_words: 1,
            leaf_words: 91,
            total_words: 92,
            memory_bytes: 55200,
            stored_rules: 2223,
            worst_case_cycles: 2,
            tree_depth: 1,
        }
    );
}
