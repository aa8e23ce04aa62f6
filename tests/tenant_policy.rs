//! Lifecycle and policy properties of the tenant API: runtime
//! admission/eviction behind [`TenantRouter::admit`] / `evict`, the
//! generation-tagged handle semantics, and cache-slice recycling across
//! eviction generations.
//!
//! Six behaviours are pinned down:
//!
//! * **Evict + admit mid-trace** — evicting one tenant and admitting a
//!   replacement leaves every surviving tenant's decisions bit-identical
//!   to its solo run, while the readmitted tenant serves exactly what
//!   linear search over its freshly admitted rules decides.
//! * **Retired handles are unroutable** — traffic tagged with an evicted
//!   handle is decided `NoMatch` (and counted), even after the slot has
//!   been reoccupied under a fresh epoch: a stale handle can never read
//!   the next occupant's rules.
//! * **No stale cache hits across generations** — a recycled hot-cache
//!   slice serves the new occupant's decisions for the *same* flow keys
//!   the previous occupant warmed it with; entries filled under an
//!   earlier epoch are unreachable.
//! * **An oversized pooled slice does not starve a grant** — a freed
//!   slice too large for the next tenant's share is released to pay for a
//!   fresh, smaller one instead of idling in the pool while the newcomer
//!   runs uncached.
//! * **An idle pooled slice does not refuse a tenant** — under a
//!   router-wide memory budget a freed slice is released, not left to
//!   idle, when its bytes are what stands between a newcomer and
//!   admission.
//! * **Weighted fairness at 16 tenants** — one weight-4 tenant beside
//!   fifteen weight-1 tenants, offered load in weight proportion: every
//!   tenant's SLO-relative share lands within ±10 % of 1.0 and the
//!   weighted Jain index reaches 0.95, on flat arenas of mixed size.

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::update::classify_live_linear;
use pclass_algos::HotCacheConfig;
use proptest::prelude::*;

/// Distinct per-tenant workloads (ruleset seeds differ per tenant, so
/// cross-tenant leakage cannot hide behind equal rulesets).
fn tenant_workloads(seed: u64, tenants: usize, packets: usize) -> Vec<(RuleSet, Trace)> {
    (0..tenants)
        .map(|t| {
            let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed ^ (0x7E57 + t as u64))
                .generate(40 + 20 * t);
            let trace =
                TraceGenerator::new(&rs, seed ^ (0xBEEF + t as u64)).generate(packets.max(1));
            (rs, trace)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A mid-trace evict + admit cycle: survivors stay bit-identical to
    /// their solo runs, the retired handle's traffic is unroutable both
    /// while the slot is empty and after it is reoccupied, and the
    /// readmitted tenant verifies against linear search over its freshly
    /// admitted rules.
    #[test]
    fn evict_admit_cycle_preserves_survivors_and_verifies_the_readmission(
        seed in 0u64..1_000_000,
        tenants in 2usize..5,
        packets in 1usize..100,
        workers in 1usize..4,
        fresh_rules in 10usize..60,
    ) {
        let workloads = tenant_workloads(seed, tenants, packets);
        let router = EngineConfig::new()
            .workers(workers)
            .batch_size(32)
            .tenant_router(workloads.iter().enumerate().map(|(t, (rs, _))| {
                (TenantSpec::new(format!("t{t}")), LinearClassifier::new(rs.clone()))
            }));
        let ids = router.tenant_ids();
        let victim = *ids.last().expect("at least two tenants");
        let victim_pkts = workloads.last().expect("at least two tenants").1.len() as u64;

        let parts: Vec<(TenantId, &Trace)> = ids
            .iter()
            .zip(&workloads)
            .map(|(&id, (_, trace))| (id, trace))
            .collect();
        let tagged = TaggedTrace::interleave("mixed", &parts);
        let before = router.classify_tagged(&tagged);
        prop_assert_eq!(before.unroutable, 0);

        // Slot empty: the victim's traffic is unroutable, survivors serve on.
        router.evict(victim).expect("evicting a live tenant");
        let during = router.classify_tagged(&tagged);
        prop_assert_eq!(during.unroutable, victim_pkts);
        prop_assert!(tagged
            .tenant_results(victim, &during.results)
            .iter()
            .all(|&r| r == MatchResult::NoMatch));

        // Slot reoccupied under a fresh epoch: the retired handle stays
        // unroutable — it can never read the new occupant's rules.
        let fresh_rs = ClassBenchGenerator::new(SeedStyle::Acl, seed ^ 0xD00D)
            .generate(fresh_rules);
        let readmitted = router
            .admit(
                TenantSpec::new("readmitted"),
                LinearClassifier::new(fresh_rs.clone()),
            )
            .expect("readmission within budget");
        prop_assert_eq!(readmitted.slot(), victim.slot());
        prop_assert!(readmitted != victim);
        prop_assert_eq!(router.admission_counts(), (tenants as u64 + 1, 1));

        let after = router.classify_tagged(&tagged);
        prop_assert_eq!(after.unroutable, victim_pkts);
        prop_assert!(tagged
            .tenant_results(victim, &after.results)
            .iter()
            .all(|&r| r == MatchResult::NoMatch));

        // Survivors: bit-identical through the whole cycle, and equal to
        // their solo runs.
        for (&id, (_, trace)) in ids[..tenants - 1].iter().zip(&workloads) {
            let original = tagged.tenant_results(id, &before.results);
            prop_assert_eq!(&tagged.tenant_results(id, &during.results), &original);
            prop_assert_eq!(&tagged.tenant_results(id, &after.results), &original);
            prop_assert_eq!(&router.classify_solo(id, trace).results, &original);
        }

        // The readmitted tenant serves exactly linear search over its
        // freshly admitted rules — through the router and solo.
        let fresh_trace =
            TraceGenerator::new(&fresh_rs, seed ^ 0xF00D).generate(packets.max(1));
        let fresh_tagged = TaggedTrace::interleave("fresh", &[(readmitted, &fresh_trace)]);
        let via_router = router.classify_tagged(&fresh_tagged);
        prop_assert_eq!(via_router.unroutable, 0);
        let solo = router.classify_solo(readmitted, &fresh_trace);
        for ((header, &routed), &soloed) in fresh_trace
            .headers()
            .zip(&via_router.results)
            .zip(&solo.results)
        {
            let expected = classify_live_linear(fresh_rs.rules(), header);
            prop_assert_eq!(routed, expected);
            prop_assert_eq!(soloed, expected);
        }
    }
}

/// The stale-cache-hit negative test: occupant A warms its hot-cache
/// slice, is evicted, and occupant B — admitted into the same slot,
/// recycling the same slice — serves the *same flow keys*.  Every
/// decision must come from B's rules; a single entry surviving A's epoch
/// would surface as A's rule id here.
#[test]
fn recycled_cache_slices_cannot_serve_stale_hits_across_generations() {
    let rs_a = ClassBenchGenerator::new(SeedStyle::Acl, 20080414).generate(80);
    let rs_keep = ClassBenchGenerator::new(SeedStyle::Ipc, 20080415).generate(50);
    // Same trace (same flow keys) served to both occupants of the slot;
    // a different ruleset style, so A's and B's decisions disagree on
    // many of those flows.
    let trace = TraceGenerator::new(&rs_a, 7).generate(400);
    let rs_b = ClassBenchGenerator::new(SeedStyle::Fw, 20080416).generate(60);

    let router = EngineConfig::new()
        .workers(2)
        .hot_cache(HotCacheConfig::new(1024, 4))
        .tenant_router([
            (TenantSpec::new("a"), LinearClassifier::new(rs_a.clone())),
            (
                TenantSpec::new("keep"),
                LinearClassifier::new(rs_keep.clone()),
            ),
        ]);
    let ids = router.tenant_ids();

    // Warm A's slice: a cold pass fills it, the warm pass hits it.
    let tagged_a = TaggedTrace::interleave("a", &[(ids[0], &trace)]);
    let cold = router.classify_tagged(&tagged_a);
    assert_eq!(cold.results, trace.ground_truth(&rs_a));
    let warm = router.classify_tagged(&tagged_a);
    assert_eq!(warm.results, trace.ground_truth(&rs_a));
    let warmed = router.cache_stats(ids[0]).expect("cached router");
    assert!(
        warmed.hits > 0,
        "warm pass must actually exercise the cache"
    );

    // Evict A, admit B into the recycled slice, offer the same flows.
    router.evict(ids[0]).expect("evicting occupant A");
    let b = router
        .admit(TenantSpec::new("b"), LinearClassifier::new(rs_b.clone()))
        .expect("admission within budget");
    assert_eq!(b.slot(), ids[0].slot(), "B reoccupies A's slot");

    let tagged_b = TaggedTrace::interleave("b", &[(b, &trace)]);
    let truth_b = trace.ground_truth(&rs_b);
    // Both the cold pass (fills under B's generation tag) and the warm
    // pass (answers from the cache) must decide from B's rules only.
    assert_eq!(
        router.classify_tagged(&tagged_b).results,
        truth_b,
        "a recycled slice served an entry filled under the previous occupant"
    );
    assert_eq!(
        router.classify_tagged(&tagged_b).results,
        truth_b,
        "a warm recycled slice served a stale hit"
    );

    // The bystander keeps serving its own rules through the whole cycle.
    let keep_trace = TraceGenerator::new(&rs_keep, 9).generate(200);
    assert_eq!(
        router.classify_solo(ids[1], &keep_trace).results,
        keep_trace.ground_truth(&rs_keep)
    );
}

/// A pooled slice too large to recycle must not starve the grant it could
/// have paid for: shares 2/1/1 over 4,096 entries, the share-2 tenant
/// leaves, and a share-1 newcomer (desired 1,365 of the then 3 shares)
/// cannot reuse the 2,048-slot slice — which used to leave it nothing,
/// because the idle slice still counted against the entry budget.
#[test]
fn oversized_pooled_slice_is_released_to_pay_for_a_fresh_grant() {
    let workloads = tenant_workloads(11, 4, 10);
    let shares = [2u32, 1, 1];
    let router = EngineConfig::new()
        .hot_cache(HotCacheConfig::new(4096, 4))
        .tenant_router(shares.iter().zip(&workloads).map(|(&share, (rs, _))| {
            (
                TenantSpec::new(format!("share{share}")).cache_share(share),
                LinearClassifier::new(rs.clone()),
            )
        }));
    let ids = router.tenant_ids();
    assert_eq!(router.cache_slot_total(), 4096);
    let evicted = router.memory_report(ids[0]);
    let full = router.memory_in_use();

    router.evict(ids[0]).expect("live tenant evicts");
    assert_eq!(
        router.memory_in_use(),
        full - evicted.classifier_bytes,
        "the freed slice idles in the pool, still charged"
    );
    let (rs_new, trace_new) = &workloads[3];
    let newcomer = router
        .admit(
            TenantSpec::new("newcomer"),
            LinearClassifier::new(rs_new.clone()),
        )
        .expect("admission fits");

    let report = router.memory_report(newcomer);
    assert!(
        report.cache_bytes > 0,
        "the newcomer was degraded to pass-through beside an idle 2,048-slot slice"
    );
    assert!(report.cache_bytes < evicted.cache_bytes);
    assert!(router.cache_slot_total() <= 4096);
    // The oversized slice is gone from the books, not just from the pool.
    assert_eq!(
        router.memory_in_use(),
        full - evicted.total_bytes + report.total_bytes
    );
    let tagged = TaggedTrace::interleave("newcomer", &[(newcomer, trace_new)]);
    assert_eq!(
        router.classify_tagged(&tagged).results,
        trace_new.ground_truth(rs_new)
    );
}

/// The router-wide memory budget charges pooled slices, but a router must
/// not refuse a tenant over bytes it could free itself: two cached tenants
/// fill the budget exactly, one leaves, and a `cache_share(0)` newcomer —
/// which wants no slice, so the cache grant neither recycles nor releases
/// the idle one — is larger than the evicted classifier by less than that
/// slice.  It used to be refused with `RouterOverBudget`.
#[test]
fn idle_pooled_slice_is_released_to_fit_a_tenant_in_the_memory_budget() {
    let workloads = tenant_workloads(12, 3, 10);
    let cached_pair = |config: EngineConfig| {
        config
            .hot_cache(HotCacheConfig::new(4096, 4))
            .tenant_router(workloads[..2].iter().enumerate().map(|(t, (rs, _))| {
                (
                    TenantSpec::new(format!("t{t}")),
                    LinearClassifier::new(rs.clone()),
                )
            }))
    };
    let footprint = cached_pair(EngineConfig::new()).memory_in_use();
    let router = cached_pair(EngineConfig::new().memory_budget(footprint));
    let ids = router.tenant_ids();
    assert_eq!(router.memory_in_use(), footprint);
    assert_eq!(router.cache_slot_total(), 4096, "2,048 slots each");
    let evicted = router.memory_report(ids[0]);
    router.evict(ids[0]).expect("live tenant evicts");

    let (rs_new, trace_new) = &workloads[2];
    let classifier = LinearClassifier::new(rs_new.clone());
    let bytes = classifier.memory_bytes();
    assert!(evicted.classifier_bytes < bytes && bytes < evicted.total_bytes);
    let newcomer = router
        .admit(TenantSpec::new("uncached").cache_share(0), classifier)
        .expect("dropping the idle slice fits the tenant");

    let report = router.memory_report(newcomer);
    assert_eq!(
        router.memory_in_use(),
        footprint - evicted.total_bytes + report.total_bytes
    );
    assert!(Some(router.memory_in_use()) <= router.memory_budget());
    assert_eq!(router.cache_slot_total(), 2048, "exactly the idle slice");
    let tagged = TaggedTrace::interleave("uncached", &[(newcomer, trace_new)]);
    assert_eq!(
        router.classify_tagged(&tagged).results,
        trace_new.ground_truth(rs_new)
    );
}

/// The weighted-fairness acceptance bar: 16 tenants — one larger weight-4
/// tenant sharing the pool with fifteen small weight-1 tenants — each
/// offering `weight x 128` packets, merged by the router's own weighted
/// interleave so offered share equals weight share.  Every tenant must be
/// decided by its own rules, nothing may be unroutable, every SLO-relative
/// share must land within ±10 % of 1.0 and the weighted Jain index must
/// reach 0.95, at one worker and at two.
#[test]
fn sixteen_weighted_tenants_meet_their_slo_relative_shares() {
    const SEED: u64 = 20080414;
    let workloads: Vec<(u32, RuleSet, Trace)> = (0..16u64)
        .map(|t| {
            let (weight, rules) = if t == 0 { (4, 400) } else { (1, 60) };
            let rs =
                ClassBenchGenerator::new(SeedStyle::Acl, SEED ^ (0x7E57_0000 + t)).generate(rules);
            let trace =
                TraceGenerator::new(&rs, SEED ^ (0xBEEF_0000 + t)).generate(128 * weight as usize);
            (weight, rs, trace)
        })
        .collect();
    for workers in [1usize, 2] {
        let router =
            EngineConfig::new()
                .workers(workers)
                .tenant_router(workloads.iter().enumerate().map(|(t, (weight, rs, _))| {
                    (
                        TenantSpec::new(format!("t{t}")).weight(*weight),
                        HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()).flatten(),
                    )
                }));
        let ids = router.tenant_ids();
        let parts: Vec<(TenantId, &Trace)> = ids
            .iter()
            .zip(&workloads)
            .map(|(&id, (_, _, trace))| (id, trace))
            .collect();
        let tagged = router.interleave("skew16", &parts);
        let run = router.classify_tagged(&tagged);
        assert_eq!(run.unroutable, 0, "x{workers}");
        for (&id, (_, rs, trace)) in ids.iter().zip(&workloads) {
            assert_eq!(
                tagged.tenant_results(id, &run.results),
                trace.ground_truth(rs),
                "tenant {} x{workers}",
                id.slot()
            );
        }
        assert_eq!(run.tenants.len(), 16);
        for report in &run.tenants {
            assert!(
                (report.slo_rel - 1.0).abs() <= 0.10,
                "tenant {} x{workers}: slo_rel {}",
                report.name,
                report.slo_rel
            );
        }
        assert!(
            run.fairness.weighted_jain >= 0.95,
            "x{workers}: weighted Jain {}",
            run.fairness.weighted_jain
        );
    }
}
