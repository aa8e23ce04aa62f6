//! Lifecycle and policy properties of the tenant API: runtime
//! admission/eviction behind [`TenantRouter::admit`] / `evict`, the
//! generation-tagged handle semantics, and what a tenant admitted behind
//! its own hot-flow cache (`CachedClassifier`) is charged and freed.
//!
//! Five behaviours are pinned down:
//!
//! * **Evict + admit mid-trace** — evicting one tenant and admitting a
//!   replacement leaves every surviving tenant's decisions bit-identical
//!   to its solo run, while the readmitted tenant serves exactly what
//!   linear search over its freshly admitted rules decides.
//! * **Retired handles are unroutable** — traffic tagged with an evicted
//!   handle is decided `NoMatch` (and counted), even after the slot has
//!   been reoccupied under a fresh epoch: a stale handle can never read
//!   the next occupant's rules.
//! * **A cached tenant's cache comes and goes with it** — through 200
//!   admit/evict cycles raced by a serving thread, every readmission of
//!   the same ruleset starts cold, `memory_in_use()` returns to its
//!   pre-admission value after every eviction and never passes the
//!   router-wide budget.
//! * **The cache is charged like the classifier it fronts** — a
//!   router-wide byte budget refuses exactly the tenant whose cache
//!   pushes the roster over it.
//! * **Weighted fairness at 16 tenants** — one weight-4 tenant beside
//!   fifteen weight-1 tenants, offered load in weight proportion: every
//!   tenant's SLO-relative share lands within ±10 % of 1.0 and the
//!   weighted Jain index reaches 0.95, on flat arenas of mixed size.

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::update::classify_live_linear;
use pclass_algos::{CachedClassifier, HotCacheConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// The admit/evict storm over a cached tenant, raced by a serving thread:
/// the router owns no cache, so every readmission of the *same* ruleset
/// starts cold — its first pass misses every flow at least once, on
/// counters that start at zero — eviction returns `memory_in_use()` to its pre-admission value at
/// once, and no step takes the roster past the router-wide budget.
#[test]
fn cached_tenant_storm_starts_cold_and_frees_what_admission_charged() {
    let workloads = tenant_workloads(13, 2, 64);
    let geometry = HotCacheConfig::new(256, 4);
    let cached =
        |t: usize| CachedClassifier::new(LinearClassifier::new(workloads[t].0.clone()), geometry);
    // Room for exactly the bystander and one occupant of the churned slot.
    let budget = cached(0).memory_bytes() + cached(1).memory_bytes();
    let router = EngineConfig::new()
        .workers(2)
        .batch_size(16)
        .memory_budget(budget)
        .tenant_router([(TenantSpec::new("keep"), cached(0))]);
    let keep = router.tenant_ids()[0];
    let idle = router.memory_in_use();
    assert_eq!(idle, cached(0).memory_bytes());

    let (rs_keep, trace_keep) = &workloads[0];
    let (rs_churn, trace_churn) = &workloads[1];
    let tagged_keep = TaggedTrace::interleave("keep", &[(keep, trace_keep)]);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The bystander is served, and decided by its own rules, throughout.
        scope.spawn(|| {
            let truth = trace_keep.ground_truth(rs_keep);
            while !stop.load(Ordering::Relaxed) {
                assert_eq!(router.classify_tagged(&tagged_keep).results, truth);
            }
        });
        // The control thread must stop the server even when it fails.
        let stop = StopOnDrop(&stop);
        let truth = trace_churn.ground_truth(rs_churn);
        let flows: HashSet<PacketHeader> = trace_churn.headers().copied().collect();
        for cycle in 0..200 {
            let id = router
                .admit(TenantSpec::new("churned"), cached(1))
                .expect("the budget has room for one occupant");
            assert_eq!(router.memory_in_use(), budget, "cycle {cycle}");
            assert!(Some(router.memory_in_use()) <= router.memory_budget());
            let refused = router.admit(TenantSpec::new("extra"), cached(1));
            assert!(matches!(
                refused,
                Err(AdmissionError::RouterOverBudget { .. })
            ));

            let tagged = TaggedTrace::interleave("churned", &[(id, trace_churn)]);
            assert_eq!(
                router.classify_tagged(&tagged).results,
                truth,
                "cycle {cycle}"
            );
            let cold = router.live(id).snapshot().cache().stats();
            assert_eq!(cold.hits + cold.misses, trace_churn.len() as u64);
            assert!(
                cold.misses >= flows.len() as u64,
                "cycle {cycle} did not start cold: {cold:?}"
            );

            router.evict(id).expect("live tenant evicts");
            assert_eq!(router.memory_in_use(), idle, "cycle {cycle}");
        }
        drop(stop);
    });
    assert_eq!(router.admission_counts(), (201, 200));
}

/// Raises the flag when dropped — on the normal path and on unwind.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A tenant's cache is part of its classifier's bytes, so the router-wide
/// budget refuses exactly the tenant whose cache pushes the roster over
/// it: one byte short of two cached tenants, the second is refused behind
/// its cache and admitted behind a zero-entry (pass-through) one.
#[test]
fn router_budget_refuses_the_tenant_whose_cache_overflows_it() {
    let (rs, trace) = &tenant_workloads(14, 1, 100)[0];
    let behind = |entries: usize| {
        CachedClassifier::new(
            LinearClassifier::new(rs.clone()),
            HotCacheConfig::new(entries, 4),
        )
    };
    let (cached, uncached) = (behind(1024).memory_bytes(), behind(0).memory_bytes());
    assert_eq!(uncached, LinearClassifier::new(rs.clone()).memory_bytes());
    assert!(uncached < cached);
    let budget = 2 * cached - 1;
    let router = EngineConfig::new()
        .memory_budget(budget)
        .tenant_router([(TenantSpec::new("t0"), behind(1024))]);
    assert_eq!(
        router.admit(TenantSpec::new("t1"), behind(1024)),
        Err(AdmissionError::RouterOverBudget {
            name: "t1".to_string(),
            needs: cached,
            in_use: cached,
            budget,
        })
    );
    let id = router
        .admit(TenantSpec::new("t1"), behind(0))
        .expect("without its cache the tenant fits");
    assert_eq!(router.memory_report(id).classifier_bytes, uncached);
    assert_eq!(router.memory_in_use(), cached + uncached);
    let tagged = TaggedTrace::interleave("t1", &[(id, trace)]);
    assert_eq!(
        router.classify_tagged(&tagged).results,
        trace.ground_truth(rs)
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
                        HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()),
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
