#!/usr/bin/env bash
# Structural guards: the tests that pin what the product computes are part of
# the suite, and retired names and paths do not come back.  CI runs this after
# `cargo test`; run it from anywhere in the repository the same way:
#
#     .github/structure-guards.sh
#
# `cargo test -q` prints dots, not names.  The three tests that hold the
# accelerator simulator still (its pinned counts, the decoded-image walk
# against the bit-level reference, and the image against the tree it was
# encoded from) and the one that pins the benchmark's 2 k / 10 k arenas (their
# shape, their size and the LookupStats the sim_* metrics price) must be part
# of the suite: list them by name, red if any is gone.  So must the two that
# hold the arena's tagged child slots to their tables (every slot decodes in
# range, and a lone-leaf root takes updates and re-flattens).
#
# `set -e` ignores a `!`-inverted status, so every negated grep ends in
# `|| exit 1`.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

cargo test --locked -q --workspace -- --list > "$RUNNER_TEMP/tests.list"
# One test path: `cargo test` runs every test (the test profile optimises
# the heavy pins into its time budget), so no test is `#[ignore]`d and no CI
# step selects ignored tests.
! grep -rn '#\[ignore' crates src tests shims examples || exit 1
! grep -nE -- '--(include-)?ignored' .github/workflows/ci.yml || exit 1
grep -F "simulated_counts_are_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "prop_mirror_walk_equals_the_bit_level_walk: test" "$RUNNER_TEMP/tests.list"
grep -F "image_tree_and_linear_search_agree: test" "$RUNNER_TEMP/tests.list"
grep -F "benchmark_arenas_are_pinned_at_2k_and_10k: test" "$RUNNER_TEMP/tests.list"
grep -F "acl64k_arena_fits_76_mib: test" "$RUNNER_TEMP/tests.list"
# What a build emits, to the byte: dump, BuildStats, TreeStats, ArenaStats
# and the served arena, hashed.
grep -F "benchmark_builds_are_content_pinned_at_2k_and_10k: test" "$RUNNER_TEMP/tests.list"
grep -F "acl64k_hicuts_build_is_content_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "fw10k_hicuts_build_is_content_pinned: test" "$RUNNER_TEMP/tests.list"
# The same builds blind to node numbering: a pre-order walk of the served
# arena through FlatTree::node, child slots as first-visit ordinals, plus
# live rules, ArenaStats, dump, BuildStats and TreeStats, hashed.
grep -F "benchmark_builds_are_shape_pinned_at_2k_and_10k: test" "$RUNNER_TEMP/tests.list"
grep -F "acl64k_hicuts_build_is_shape_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "fw10k_hicuts_build_is_shape_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "every_slot_decodes_in_range_and_reflatten_keeps_only_reachable_entries: test" "$RUNNER_TEMP/tests.list"
grep -F "a_lone_leaf_root_takes_updates_and_reflattens: test" "$RUNNER_TEMP/tests.list"
# An update reaches only the children its rule intersects: after a churn no
# reachable span holds a dead id.
grep -F "churned_arenas_reach_only_live_ids: test" "$RUNNER_TEMP/tests.list"
# One node order: the software classifiers serve the arena the builder
# emits, and reflatten re-emits it in the builder's own pre-order, so a
# pristine re-flatten is the build byte for byte, slack aside.  No
# breadth-first layout pass comes back, and the software build lays
# nothing out.
grep -F "a_build_and_a_pristine_reflatten_lay_out_the_same_tree: test" "$RUNNER_TEMP/tests.list"
! grep -nE 'fn (place|layout)\b' crates/algos/src/flat.rs || exit 1
! sed '/#\[cfg(test)\]/q' crates/algos/src/dtree.rs | grep -nE '(\.layout|reflatten)\(' || exit 1
# The lane width and read-ahead the arena size calls for are pinned on the
# benchmark's acl 2 k and 10 k arenas, one each side of PREFETCH_MIN_BYTES.
grep -F "the_benchmark_arenas_take_the_lane_width_their_size_calls_for: test" "$RUNNER_TEMP/tests.list"
# What the cut-tree builders produce is pinned: every accelerator image
# reproduce and the simulator tests build, the Table 4 layouts, and the
# software trees' counts, lookups and Figure 1/3 dumps.
grep -F "hardware_images_are_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "table4_layouts_are_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "table4_fw1_5000_hypercuts_layout_is_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "software_trees_are_pinned: test" "$RUNNER_TEMP/tests.list"
grep -F "figure_dumps_are_pinned: test" "$RUNNER_TEMP/tests.list"
# One walk in the flat arena: LaneWidth::Scalar and per-packet
# classify (the stats path) are lanes of one through step_lane.
# Its oracle is linear search: every lane width, and every header of
# narrow header spaces (both flat builders at every lane width, behind
# hot caches, RFC, and an update script across a re-flatten); the
# benchmark's whole acl 64 k trace; the stats path's counts are pinned
# packet for packet (tests/build_pins.rs).
grep -F "every_lane_width_matches_linear_search: test" "$RUNNER_TEMP/tests.list"
grep -F "flat_tree_is_packet_for_packet_identical: test" "$RUNNER_TEMP/tests.list"
grep -F "every_2_bit_header_is_classified_exactly: test" "$RUNNER_TEMP/tests.list"
grep -F "every_3_bit_header_is_classified_exactly_on_large_rulesets: test" "$RUNNER_TEMP/tests.list"
grep -F "every_3_bit_header_is_classified_exactly_on_small_and_degenerate_rulesets: test" "$RUNNER_TEMP/tests.list"
grep -F "an_update_script_across_a_reflatten_is_exact_on_every_header: test" "$RUNNER_TEMP/tests.list"
grep -F "acl64k_serves_a_whole_uniform_trace_as_linear_search_does: test" "$RUNNER_TEMP/tests.list"
grep -F "flat_agrees_with_linear_search_per_packet: test" "$RUNNER_TEMP/tests.list"
grep -F "lookup_stats_follow_the_per_node_accounting: test" "$RUNNER_TEMP/tests.list"
# One tree representation: every builder emits into the flat arena,
# which the software classifiers walk and the encoder serialises; the
# pointer tree, its node kinds and its transcription do not come back.
! grep -rnE '\b(DecisionTree|NodeKind|from_tree)\b' crates src examples tests || exit 1
! grep -nE "fn (walk_scalar|step_packet|scan_slab)\b" crates/algos/src/flat.rs || exit 1
test "$(grep -cE 'fn step_lane\b' crates/algos/src/flat.rs)" -eq 1
# One classifier per software arena: the built HiCuts/HyperCuts tree
# (dtree::CutTreeClassifier) serves, updates and reports itself.  No second
# roster name, no serving wrapper in flat.rs, FlatTreeClassifier only as the
# alias the benchmark names, and no product code (above each file's first
# #[cfg(test)]) copies a built tree through flatten(); an iterator's
# flatten() is not a copy.
! grep -rn 'FLAT_NAME' crates || exit 1
! grep -nE 'struct FlatTreeClassifier|impl\b.*\bClassifier for\b' crates/algos/src/flat.rs || exit 1
! grep -rn 'FlatTreeClassifier' crates src examples tests --include=*.rs \
  | grep -vE 'pub type FlatTreeClassifier = HiCutsClassifier;|pub use pclass_algos::FlatTreeClassifier;' || exit 1
for f in crates/*/src/*.rs crates/*/src/bin/*.rs src/lib.rs examples/*.rs; do
  ! sed '/#\[cfg(test)\]/q' "$f" | grep -nE '\.flatten\(' | grep -v 'iter()\.flatten()' || exit 1
done
# One recursive tree builder, for software and hardware alike.
test "$(grep -rn 'fn build_node' crates --include=*.rs | wc -l)" -eq 1
# It builds each node in one pass, with the walk's own child index: above
# its tests, dtree.rs names neither the dividing FieldRange::index_of nor
# the per-child filter that is now the distribution's oracle.
grep -F "one_pass_distribution_matches_rules_intersecting_child_by_child: test" "$RUNNER_TEMP/tests.list"
! sed '/#\[cfg(test)\]/q' crates/algos/src/dtree.rs | grep -nE '\b(index_of|rules_intersecting)\b' || exit 1
# RFC is built and served by one path each: one phase-0 table
# builder, one cross product and one tile walk (per-packet
# classify is a tile of one).  Its 13 tables are pinned bit for
# bit on acl, fw and ipc sets of 300 rules.
grep -F "tables_are_pinned_on_classbench_sets: test" "$RUNNER_TEMP/tests.list"
! grep -nE '\b(lookup_ids|addr_hi|addr_lo|whole_chunk|combine_addr|combine_bitmaps|Classer)\b' crates/algos/src/rfc.rs || exit 1
# One cache integration, pclass_algos::CachedClassifier: an Engine
# worker, a cached live cell and a cached tenant are each built
# over one, and the engine crate names no cache of its own (-w
# lets HotCacheConfig pass; doc comments count).
grep -F "cached_router_serves_identically_and_isolates_churn: test" "$RUNNER_TEMP/tests.list"
grep -F "cached_live_engine_matches_truth_and_warm_passes_hit: test" "$RUNNER_TEMP/tests.list"
! grep -rnw "HotCache\|serve_batch\|snapshot_tagged\|free_caches\|cache_share" crates/engine/src || exit 1
# The cache judges itself: it steps aside while probing does not
# pay and re-engages when it does, with no knob — HotCacheConfig
# keeps exactly its two fields.
grep -F "a_cache_that_never_hits_steps_aside_after_warm_up: test" "$RUNNER_TEMP/tests.list"
grep -F "a_cache_that_saves_slow_walks_never_steps_aside: test" "$RUNNER_TEMP/tests.list"
grep -F "hotter_traffic_re_engages_a_bypassed_cache: test" "$RUNNER_TEMP/tests.list"
grep -F "a_new_generation_refills_before_it_is_judged: test" "$RUNNER_TEMP/tests.list"
grep -F "the_verdict_is_the_median_not_the_upper_middle: test" "$RUNNER_TEMP/tests.list"
grep -F "serve_batch_counts_its_evictions: test" "$RUNNER_TEMP/tests.list"
grep -F "a_cached_live_engine_crosses_a_bypass_flip_between_publishes: test" "$RUNNER_TEMP/tests.list"
test "$(sed -n '/^pub struct HotCacheConfig {/,/^}/p' crates/algos/src/hotcache.rs | grep -c '^    pub ')" -eq 2
# Constants, not knobs: the paper fixes binth, spfac and the cut
# range, so BuildConfig keeps only the algorithm and the leaf
# packing, and no setter of the RFC ceiling, the generator styles,
# the power skew or the energy tariffs comes back.
test "$(sed -n '/^pub struct BuildConfig {/,/^}/p' crates/core/src/builder.rs | grep -c '^    pub ')" -eq 2
! grep -rnE '\b(RfcConfig|build_with|with_parameters|with_costs|with_device|CycleCosts)\b|fn (skew|validate)\b' crates/algos/src crates/core/src crates/classbench/src crates/energy/src || exit 1
# Public API that only tests called is gone: the ClassBench text format,
# `Protocol`, the dead helpers of pclass-types/-algos/-energy, and the no-op
# `Deserialize` marker (trait, derive macro and every derive site).
! grep -rnE '\b(parse_classbench|to_classbench_text|matching_rules|covered_by|wildcard_count|live_rule_count|total_ops|raw_energy_j)\b|enum Protocol\b|Deserialize' crates src || exit 1
! grep -n 'proc_macro_derive(Deserialize)' shims/serde_derive/src/lib.rs || exit 1
echo "structure guards: ok"
