//! Property-based equivalence of rebuild-free incremental updates: after
//! *any* random insert/delete sequence, an updatable classifier (the
//! HiCuts and HyperCuts flat arenas) must classify every packet exactly
//! like
//!
//! * linear search over the surviving rules, and
//! * a **from-scratch rebuild** of the surviving ruleset (renumbered, with
//!   decisions mapped back through the id map),
//!
//! per packet and through `classify_batch` at batch sizes 0 / 1 / odd /
//! full — across random rulesets, builder configurations (`binth`,
//! `spfac`, the HyperCuts heuristics) and flat-arena compaction policies
//! (a re-flatten after every update, the classifier's own amortized one,
//! or none at all, so dead slots pile up for the whole script).
//!
//! Every churned arena is also walked from its root: no span a lookup can
//! reach may hold the id of a rule that is no longer live.

use packet_classifier::prelude::*;
use pclass_algos::dtree::{CutTreeClassifier, RosterPolicy};
use pclass_algos::flat::FlatTree;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_algos::update::{
    classify_live_linear, id_limit, map_result, renumbered_ruleset, RuleUpdate,
    UpdatableClassifier, UpdateError,
};
use pclass_algos::LookupStats;
use proptest::prelude::*;
use std::collections::HashSet;

/// Expands a seed into a deterministic update stream over `base` (the
/// proptest shim has no collection strategies, so the script is derived,
/// not drawn): deletes pick a live id, inserts pick from the pool of fresh
/// rules and previously deleted ones, so any script is valid by
/// construction.  The live set is tracked here, not read back from a
/// classifier, so every structure is driven by the same stream.
fn scripted_updates(
    mut seed: u64,
    len: usize,
    base: &[Rule],
    fresh_pool: &[Rule],
) -> Vec<RuleUpdate> {
    let mut live: Vec<Rule> = base.to_vec();
    let mut available: Vec<Rule> = fresh_pool.to_vec();
    let mut updates = Vec::with_capacity(len);
    for _ in 0..len {
        // xorshift64* keeps the script spread across both op kinds.
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let word = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let pick = usize::from((word >> 8) as u8);
        if word & 1 == 0 {
            if available.is_empty() {
                continue;
            }
            let rule = available.remove(pick % available.len());
            let at = live.partition_point(|r| r.id < rule.id);
            live.insert(at, rule);
            updates.push(RuleUpdate::Insert(rule));
        } else {
            if live.is_empty() {
                continue;
            }
            let victim = live.remove(pick % live.len());
            available.push(victim); // deleted ids may be re-inserted later
            updates.push(RuleUpdate::Delete(victim.id));
        }
    }
    updates
}

/// Applies an update stream through the classifier's own update path (for
/// a flat arena: with its amortized re-flatten).
fn apply_all<C: UpdatableClassifier>(classifier: &mut C, updates: &[RuleUpdate]) {
    for u in updates {
        classifier.apply(u).expect("scripted update is valid");
    }
}

/// Applies an update stream to the bare arena — which never compacts on
/// its own — re-flattening after every update or not at all.
fn drive_arena<C: RosterPolicy>(
    mut classifier: CutTreeClassifier<C>,
    updates: &[RuleUpdate],
    reflatten_every_update: bool,
) -> CutTreeClassifier<C> {
    let flat = classifier.flat_tree_mut();
    for u in updates {
        match u {
            RuleUpdate::Insert(rule) => flat.insert(rule),
            RuleUpdate::Delete(id) => flat.delete(*id),
        }
        .expect("scripted update is valid");
        if reflatten_every_update {
            flat.reflatten();
        }
    }
    classifier
}

/// `classifier` after `updates` under one compaction policy of the flat
/// arenas: re-flatten after every update (0), the classifier's amortized
/// default (1), or never (2).  Its reachable spans hold live ids only.
fn churned_arena<C: RosterPolicy>(
    mut classifier: CutTreeClassifier<C>,
    updates: &[RuleUpdate],
    policy: u8,
) -> CutTreeClassifier<C> {
    let classifier = match policy {
        0 => drive_arena(classifier, updates, true),
        1 => {
            apply_all(&mut classifier, updates);
            classifier
        }
        _ => drive_arena(classifier, updates, false),
    };
    let dead = dead_ids(classifier.flat_tree());
    assert_eq!(dead, 0, "{}: {dead} dead ids reachable", classifier.name());
    classifier
}

/// How many ids the spans reachable from the arena's root hold that
/// `live_rules()` does not list; each node, reached through
/// [`FlatTree::node`], is counted once.
fn dead_ids(arena: &FlatTree) -> usize {
    let live: HashSet<RuleId> = arena.live_rules().iter().map(|r| r.id).collect();
    // The root is internal record 0, or leaf 0 when there is none.
    let root = if arena.node(0).is_some() { 0 } else { 1 << 31 };
    let (mut seen, mut stack) = (HashSet::from([root]), vec![root]);
    let mut dead = 0;
    while let Some(slot) = stack.pop() {
        let node = arena.node(slot).expect("every slot names a node");
        dead += node.rules.iter().filter(|id| !live.contains(id)).count();
        stack.extend(node.children.iter().filter(|&&child| seen.insert(child)));
    }
    dead
}

/// The core property: post-script decisions equal linear search over the
/// live set and a from-scratch rebuild of it, per packet and batched.
fn assert_equivalent<C: UpdatableClassifier>(
    classifier: &C,
    rebuild: impl Fn(&RuleSet) -> C,
    headers: &[PacketHeader],
) {
    let live = classifier.live_rules();
    let expected: Vec<MatchResult> = headers
        .iter()
        .map(|h| classify_live_linear(&live, h))
        .collect();

    // Per-packet against linear search over the live rules.
    for (pkt, want) in headers.iter().zip(&expected) {
        prop_assert_eq!(
            classifier.classify(pkt),
            *want,
            "{} per-packet vs live linear",
            classifier.name()
        );
    }

    // Batched at 0 / 1 / odd / full batch sizes.
    for batch in [0usize, 1, 3, 7, headers.len().max(1)] {
        let mut out = Vec::new();
        if batch == 0 {
            classifier.classify_batch(&[], &mut out);
            prop_assert!(out.is_empty());
            continue;
        }
        for chunk in headers.chunks(batch) {
            classifier.classify_batch(chunk, &mut out);
        }
        prop_assert_eq!(&out, &expected, "{} batch {}", classifier.name(), batch);
    }

    // Against a from-scratch rebuild of the surviving ruleset.
    let (rebuilt_set, id_map) =
        renumbered_ruleset("rebuilt", UpdatableClassifier::spec(classifier), &live);
    let fresh = rebuild(&rebuilt_set);
    for (pkt, want) in headers.iter().zip(&expected) {
        prop_assert_eq!(
            map_result(fresh.classify(pkt), &id_map),
            *want,
            "{} vs from-scratch rebuild",
            classifier.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn any_update_sequence_matches_a_from_scratch_rebuild(
        seed in 0u64..1_000_000,
        rules in 1usize..110,
        packets in 1usize..200,
        binth in 1usize..24,
        spfac_tenths in 10u32..80,
        compaction in proptest::arbitrary::any::<bool>(),
        push_common in proptest::arbitrary::any::<bool>(),
        threshold_pick in 0u8..3,
        ops_seed in proptest::arbitrary::any::<u64>(),
        ops_len in 0usize..28,
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xD00D).generate(packets);
        let headers: Vec<PacketHeader> = trace.headers().copied().collect();
        // Fresh insert candidates at ids past the base ruleset.
        let fresh_pool: Vec<Rule> = ClassBenchGenerator::new(SeedStyle::Acl, seed ^ 0xF00)
            .generate(14)
            .rules()
            .iter()
            .map(|r| Rule::new(rs.len() as u32 + r.id, r.ranges))
            .collect();
        let updates = scripted_updates(ops_seed, ops_len, rs.rules(), &fresh_pool);
        let spfac = f64::from(spfac_tenths) / 10.0;
        let hc_config = HiCutsConfig { binth, spfac };
        let hyc_config = HyperCutsConfig {
            binth,
            spfac,
            region_compaction: compaction,
            push_common_rules: push_common,
        };
        // HiCuts flat arena.
        let build_hcf = |rs: &RuleSet| HiCutsClassifier::build(rs, &hc_config);
        let c = churned_arena(build_hcf(&rs), &updates, threshold_pick);
        assert_equivalent(&c, build_hcf, &headers);

        // HyperCuts flat arena (region compaction + push-common vary).
        let build_hycf = |rs: &RuleSet| HyperCutsClassifier::build(rs, &hyc_config);
        let c = churned_arena(build_hycf(&rs), &updates, threshold_pick);
        assert_equivalent(&c, build_hycf, &headers);
    }
}

/// The acceptance scenario pinned as a deterministic test: a 1% churn on
/// the acl1 2 k-rule workload patches the flat arenas in place (no
/// rebuild) and post-churn classification matches a from-scratch rebuild.
#[test]
fn one_percent_churn_on_acl1_2000_matches_rebuild() {
    let rs = pclass_bench::acl_ruleset(2_000);
    let trace = pclass_bench::trace_for(&rs, 2_000);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let updates = pclass_bench::churn::churn_updates(&rs, 0.01);
    assert_eq!(updates.len(), 40, "1% of 2000, delete+insert pairs");

    let build = |rs: &RuleSet| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults());
    let mut c = build(&rs);
    for u in &updates {
        c.apply(u).expect("churn update applies");
    }
    let stats = c.update_stats();
    assert_eq!((stats.inserts, stats.deletes), (20, 20));

    let live = c.live_rules();
    assert_eq!(live.len(), 2_000);
    let (rebuilt_set, id_map) = renumbered_ruleset("rebuilt", UpdatableClassifier::spec(&c), &live);
    let fresh = build(&rebuilt_set);
    let mut updated_out = Vec::new();
    c.classify_batch(&headers, &mut updated_out);
    let mut fresh_out = Vec::new();
    fresh.classify_batch(&headers, &mut fresh_out);
    for (i, pkt) in headers.iter().enumerate() {
        assert_eq!(
            updated_out[i],
            map_result(fresh_out[i], &id_map),
            "packet {pkt:?}"
        );
        assert_eq!(updated_out[i], classify_live_linear(&live, pkt));
    }
}

/// Deleting every third rule and re-inserting every sixth leaves no dead id
/// in a reachable span, with the classifier's amortized re-flatten and
/// with none, on acl, fw and ipc 2 k and acl 10 k, under both builders.  A
/// delete that misses a span its rule was put in leaves the id behind.  (A
/// re-flatten after every update is the property test's: here it would cost
/// seconds.)
#[test]
fn churned_arenas_reach_only_live_ids() {
    for (style, size) in [
        (SeedStyle::Acl, 2_000),
        (SeedStyle::Fw, 2_000),
        (SeedStyle::Ipc, 2_000),
        (SeedStyle::Acl, 10_000),
    ] {
        let rs = pclass_bench::styled_ruleset(style, size);
        let mut updates: Vec<RuleUpdate> = rs
            .rules()
            .iter()
            .step_by(3)
            .map(|r| RuleUpdate::Delete(r.id))
            .collect();
        updates.extend(rs.rules().iter().step_by(6).map(|r| RuleUpdate::Insert(*r)));
        for policy in [1, 2] {
            let hicuts = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
            churned_arena(hicuts, &updates, policy);
            let hypercuts = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
            churned_arena(hypercuts, &updates, policy);
        }
    }
}

/// A replace stream plateaus: replacing every rule in place, cycle after
/// cycle, must not grow the arena past what the first cycle left — full
/// spans move once, then have slack — and the amortized re-flatten keeps
/// the dead share of the slab under its trigger.
#[test]
fn replace_stream_on_acl_2000_plateaus() {
    let rs = pclass_bench::acl_ruleset(2_000);
    let replacements = ClassBenchGenerator::new(SeedStyle::Acl, 0x2ED).generate(rs.len());
    let trace = pclass_bench::trace_for(&rs, 2_000);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();

    let mut c = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let pristine = c.arena_stats().total_bytes;
    let mut first_cycle = 0;
    for cycle in 1..=8 {
        for rule in replacements.rules() {
            c.delete(rule.id).expect("the id is live");
            c.insert(*rule).expect("the id was just freed");
        }
        let live = c.live_rules();
        assert_eq!(live, replacements.rules(), "cycle {cycle}");
        let mut out = Vec::new();
        c.classify_batch(&headers, &mut out);
        for (pkt, got) in headers.iter().zip(&out) {
            assert_eq!(
                *got,
                classify_live_linear(&live, pkt),
                "cycle {cycle}: {pkt:?}"
            );
        }
        let bytes = c.arena_stats().total_bytes;
        if cycle == 1 {
            first_cycle = bytes;
        }
        assert!(
            bytes <= first_cycle,
            "cycle {cycle}: {bytes} B > {first_cycle} B"
        );
        assert!(
            bytes <= 2 * pristine,
            "cycle {cycle}: {bytes} B vs pristine {pristine} B"
        );
        // The classifier's private re-flatten trigger.
        assert!(c.flat_tree().dirty_ratio() <= 0.05, "cycle {cycle}");
    }
    assert!(c.update_stats().reflattens >= 1);
}

/// The two snapshots a `LiveClassifier` alternates between never diverge:
/// a replace stream published in bursts of 1–7 — one of them empty, one
/// with a rejected update in the middle (prefix published, suffix dropped)
/// — leaves the live cell exactly where the same absorbed updates leave a
/// plain classifier, on a 10 k-rule arena and for long enough that both
/// twins re-flatten, so replays that cross a re-flatten are covered.
#[test]
fn live_twins_track_a_direct_classifier_across_reflattens_at_10k() {
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 10_000).generate(10_000);
    // 5,000 replaces re-flatten this arena three times.
    let replacements = ClassBenchGenerator::new(SeedStyle::Acl, 0x2ED).generate(5_000);
    let trace = pclass_bench::trace_for(&rs, 2_048);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let stream: Vec<RuleUpdate> = replacements
        .rules()
        .iter()
        .flat_map(|r| [RuleUpdate::Delete(r.id), RuleUpdate::Insert(*r)])
        .collect();

    let mut direct = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let live = LiveClassifier::new(direct.clone());
    let (mut at, mut burst_no) = (0, 0usize);
    while at < stream.len() {
        // Sizes cycle 1..=7 against an even stream, so bursts split
        // replaces: a delete can be published a generation before its
        // insert.
        let size = (burst_no % 7 + 1).min(stream.len() - at);
        let burst = &stream[at..at + size];
        let generation = live.generation();
        let absorbed = match burst_no {
            40 => {
                assert_eq!(live.apply_batch(&[]), Ok(generation));
                0
            }
            41 => {
                let mut poisoned = burst.to_vec();
                poisoned.insert(size / 2, RuleUpdate::Delete(u32::MAX));
                assert_eq!(
                    live.apply_batch(&poisoned),
                    Err(UpdateError::UnknownRuleId(u32::MAX))
                );
                size / 2
            }
            _ => {
                assert_eq!(live.apply_batch(burst), Ok(generation + 1));
                size
            }
        };
        assert_eq!(live.generation(), generation + u64::from(absorbed > 0));
        apply_all(&mut direct, &stream[at..at + absorbed]);
        at += absorbed;
        burst_no += 1;

        assert_eq!(
            live.with_writer(|c| c.update_stats()),
            direct.update_stats(),
            "burst {burst_no}"
        );
        if burst_no % 250 == 0 || at == stream.len() {
            let rules = direct.live_rules();
            let snapshot = live.snapshot();
            assert_eq!(snapshot.live_rules(), rules, "burst {burst_no}");
            let mut out = Vec::new();
            snapshot.classify_batch(&headers, &mut out);
            for (pkt, got) in headers.iter().zip(&out) {
                assert_eq!(*got, classify_live_linear(&rules, pkt), "burst {burst_no}");
            }
        }
    }
    let reflattens = direct.update_stats().reflattens;
    assert!(reflattens >= 2, "only {reflattens} re-flattens");
}

/// The boundary of what an update stream may contain is defined once
/// (`update::validate_insert`), so both flat arenas must give every
/// boundary update the same verdict — and keep deciding like linear search
/// over the live rules after each accepted one.
#[test]
fn boundary_updates_get_one_verdict_from_both_arenas() {
    use RuleUpdate::{Delete, Insert};
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 7).generate(40);
    let spec = *rs.spec();
    let n = rs.len() as u32;
    let trace = TraceGenerator::new(&rs, 7 ^ 0xD00D).generate(96);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();

    let hc = HiCutsClassifier::build(
        &rs,
        &HiCutsConfig {
            binth: 4,
            spfac: 4.0,
        },
    );
    let hyc = HyperCutsClassifier::build(
        &rs,
        &HyperCutsConfig {
            binth: 4,
            ..HyperCutsConfig::paper_defaults()
        },
    );
    let (mut hc, mut hyc) = (hc, hyc);
    let mut structures: [&mut dyn UpdatableClassifier; 2] = [&mut hc, &mut hyc];

    let limit = id_limit(rs.len());
    let mut too_wide = Rule::wildcard(n + 1, &spec);
    too_wide.ranges[Dimension::SrcPort.index()] = FieldRange::new(0, 70_000);
    let mut table: Vec<(&str, RuleUpdate, Result<(), UpdateError>)> = vec![
        (
            "duplicate id",
            Insert(rs.rules()[0]),
            Err(UpdateError::DuplicateRuleId(0)),
        ),
        (
            "first id past the sparse-id limit",
            Insert(Rule::wildcard(limit, &spec)),
            Err(UpdateError::RuleIdTooSparse { rule: limit, limit }),
        ),
        (
            "last id within the sparse-id limit",
            Insert(Rule::wildcard(limit - 1, &spec)),
            Ok(()),
        ),
        (
            "range wider than the dimension",
            Insert(too_wide),
            Err(UpdateError::RangeExceedsWidth {
                rule: n + 1,
                dimension: Dimension::SrcPort,
            }),
        ),
        (
            "/0 all-wildcard rule",
            Insert(Rule::wildcard(n, &spec)),
            Ok(()),
        ),
    ];
    for id in (0..=n).chain([limit - 1]) {
        table.push(("delete to empty", Delete(id), Ok(())));
    }
    table.push((
        "delete from an empty structure",
        Delete(0),
        Err(UpdateError::UnknownRuleId(0)),
    ));
    for rule in rs.rules() {
        table.push(("refill", Insert(*rule), Ok(())));
    }

    for (step, (what, update, want)) in table.iter().enumerate() {
        for c in &mut structures {
            assert_eq!(
                c.apply(update),
                *want,
                "step {step} ({what}) on {}",
                c.name()
            );
            if want.is_err() {
                continue;
            }
            let live = c.live_rules();
            for pkt in &headers {
                assert_eq!(
                    c.classify(pkt),
                    classify_live_linear(&live, pkt),
                    "step {step} ({what}) on {}: {pkt:?}",
                    c.name()
                );
            }
        }
    }
    for c in &structures {
        assert_eq!(c.live_rules(), rs.rules(), "{} after the refill", c.name());
    }
}

/// The rule table holds one line per id up to the highest live one, so an
/// insert at the far end of the sparse-id gap is charged for every line it
/// skips — and a delete gives all of them back, along with the occupied
/// range the next insert is validated against.
#[test]
fn a_sparse_insert_is_charged_for_its_gap_and_a_delete_refunds_it() {
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 7).generate(40);
    let spec = *rs.spec();
    let far = id_limit(rs.len()) - 1;
    // Warm the arena so the measured insert changes nothing but the table:
    // a first pass un-shares every node the rule reaches, the re-flatten
    // leaves every span slack for it.
    let mut c = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let arena = c.flat_tree_mut();
    arena.insert(&Rule::wildcard(far, &spec)).unwrap();
    arena.delete(far).unwrap();
    arena.reflatten();

    let too_sparse = |c: &mut HiCutsClassifier| match c.insert(Rule::wildcard(u32::MAX - 1, &spec))
    {
        Err(UpdateError::RuleIdTooSparse { limit, .. }) => limit,
        other => panic!("expected RuleIdTooSparse, got {other:?}"),
    };
    let before = (c.memory_bytes(), c.arena_stats(), c.live_rules());
    assert_eq!(too_sparse(&mut c), far + 1);

    c.insert(Rule::wildcard(far, &spec))
        .expect("last id within the gap");
    let lines_added = far as usize + 1 - rs.len();
    assert_eq!(lines_added, 65_536);
    assert_eq!(c.memory_bytes(), before.0 + lines_added * 64);
    assert_eq!(c.arena_stats().rule_refs, before.1.rule_refs);
    assert_eq!(c.arena_stats().arena_bytes, before.1.arena_bytes);
    assert_eq!(too_sparse(&mut c), id_limit(far as usize + 1));

    c.delete(far).expect("the id is live");
    assert_eq!((c.memory_bytes(), c.arena_stats(), c.live_rules()), before);
    assert_eq!(too_sparse(&mut c), far + 1);
}

/// Liveness is read off the rule table: after a mixed stream that leaves
/// holes all over the id range — including a trailing run of deletes, which
/// shrinks the table — the live set and its count are the model's.
#[test]
fn live_rules_follow_a_model_set_with_holes_in_the_id_range() {
    use std::collections::BTreeMap;
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 11).generate(60);
    // Fresh ids past the base set, two apart: holes even when all are in.
    let fresh_pool: Vec<Rule> = ClassBenchGenerator::new(SeedStyle::Acl, 11 ^ 0xF00)
        .generate(30)
        .rules()
        .iter()
        .map(|r| Rule::new(rs.len() as u32 + 5 + 2 * r.id, r.ranges))
        .collect();
    let updates = scripted_updates(0x5EED, 400, rs.rules(), &fresh_pool);

    let mut model: BTreeMap<RuleId, Rule> = rs.rules().iter().map(|r| (r.id, *r)).collect();
    let mut c = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let check = |c: &HiCutsClassifier, model: &BTreeMap<RuleId, Rule>, step: usize| {
        let want: Vec<Rule> = model.values().copied().collect();
        assert_eq!(c.live_rules(), want, "step {step}");
    };
    let occupied_end = |model: &BTreeMap<RuleId, Rule>| {
        model
            .keys()
            .next_back()
            .map_or(0, |&last| last as usize + 1)
    };
    let mut saw_holes = false;
    for (step, u) in updates.into_iter().enumerate() {
        c.apply(&u).expect("scripted update is valid");
        match u {
            RuleUpdate::Insert(rule) => model.insert(rule.id, rule),
            RuleUpdate::Delete(id) => model.remove(&id),
        };
        check(&c, &model, step);
        saw_holes |= model.len() + 10 < occupied_end(&model);
    }
    assert!(saw_holes, "the script never left holes in the id range");
    // Empty the top of the range: each delete of the highest live id
    // retires the run of holes below it too.
    for id in (40..rs.len() as u32 + 70).rev() {
        if model.remove(&id).is_some() {
            c.delete(id).expect("the model says it is live");
            check(&c, &model, id as usize);
        }
    }
    let occupied_end = occupied_end(&model);
    assert!(0 < occupied_end && occupied_end <= 40);
    assert_eq!(
        c.insert(Rule::wildcard(u32::MAX - 1, rs.spec())),
        Err(UpdateError::RuleIdTooSparse {
            rule: u32::MAX - 1,
            limit: id_limit(occupied_end),
        })
    );
}

/// The advertised static bound (Table 8's software column) must hold for
/// the structure as it is *now*: the flat classifier used to report the
/// bound of the tree it was flattened from, which inserts can exceed.
#[test]
fn flat_worst_case_bound_holds_after_updates() {
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(300);
    let trace = TraceGenerator::new(&rs, 42 ^ 0xD00D).generate(2_000);
    let hc = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let hyc = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
    // Before any update the served copy and the built tree agree on the
    // bound.
    let mut flat = hc.clone();
    assert_eq!(
        flat.worst_case_memory_accesses(),
        hc.worst_case_memory_accesses()
    );
    assert_eq!(
        hyc.clone().worst_case_memory_accesses(),
        hyc.worst_case_memory_accesses()
    );

    for k in 0..40 {
        flat.insert(Rule::wildcard(300 + k, rs.spec())).unwrap();
    }
    let observed = trace
        .headers()
        .map(|pkt| {
            let mut stats = LookupStats::new();
            flat.classify_with_stats(pkt, &mut stats);
            stats.memory_accesses
        })
        .max()
        .unwrap();
    let bound = flat.worst_case_memory_accesses().unwrap();
    assert!(
        observed <= bound,
        "a lookup made {observed} accesses, the advertised worst case is {bound}"
    );
}
