//! Property-based equivalence of the multi-tenant serving front end: a
//! `TenantRouter` must be a *transparent* multiplexer over N independent
//! `LiveClassifier`s.
//!
//! Two properties pin that down:
//!
//! * **Degenerate case** — a router with exactly one tenant is
//!   packet-for-packet identical to a `LiveEngine` over the same live
//!   cell, for any worker count and batch size (the router shares the
//!   engine's shard/batch geometry, so even the work split matches).
//! * **Isolation** — under interleaved cross-tenant traffic, the results
//!   projected back out for one tenant equal that tenant's solo run (and
//!   linear-search ground truth): tenants can never observe each other's
//!   rules, whatever the interleaving or worker count.
//!
//! A deterministic churn test closes the loop with the epoch-swap layer:
//! applying updates to one tenant's live cell changes that tenant's
//! decisions (to match a fresh rebuild of its surviving ruleset) while
//! every other tenant's decisions stay bit-identical.
//!
//! Tenants are declared through [`TenantSpec`]s and addressed by the
//! opaque [`TenantId`] handles construction returns (see
//! `tests/tenant_policy.rs` for the runtime admission/eviction
//! lifecycle).

use packet_classifier::prelude::*;
use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Distinct per-tenant workloads: ruleset seeds (and therefore rulesets)
/// differ per tenant, so cross-tenant leakage cannot hide behind equal
/// rulesets.
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N = 1: the router serves exactly like a `LiveEngine` built from the
    /// same config — same results, same packet counts, same shard split.
    #[test]
    fn single_tenant_router_is_a_live_engine(
        seed in 0u64..1_000_000,
        rules in 1usize..120,
        packets in 0usize..300,
        workers in 1usize..5,
    ) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xBEEF).generate(packets);
        let config = EngineConfig::new().workers(workers).batch_size(64);

        let live = Arc::new(LiveClassifier::new(LinearClassifier::new(rs.clone())));
        let engine_run = config.live_engine(Arc::clone(&live)).classify_trace(&trace);

        let router =
            config.tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs))]);
        let ids = router.tenant_ids();
        let tagged = TaggedTrace::interleave("solo", &[(ids[0], &trace)]);
        let run = router.classify_tagged(&tagged);

        prop_assert_eq!(&run.results, &engine_run.results);
        prop_assert_eq!(run.report.pkts, engine_run.report.pkts);
        prop_assert_eq!(run.report.per_worker.len(), workers);
    }

    /// Interleaved cross-tenant traffic: each tenant's projected results
    /// equal its solo run and linear-search ground truth.
    #[test]
    fn interleaved_tenants_match_their_solo_runs(
        seed in 0u64..1_000_000,
        tenants in 1usize..5,
        packets in 1usize..120,
        workers in 1usize..4,
    ) {
        let workloads = tenant_workloads(seed, tenants, packets);
        let router = EngineConfig::new()
            .workers(workers)
            .batch_size(32)
            .tenant_router(workloads.iter().enumerate().map(|(t, (rs, _))| {
                (TenantSpec::new(format!("t{t}")), LinearClassifier::new(rs.clone()))
            }));
        let ids = router.tenant_ids();

        let parts: Vec<(TenantId, &Trace)> = ids
            .iter()
            .zip(&workloads)
            .map(|(&id, (_, trace))| (id, trace))
            .collect();
        let tagged = TaggedTrace::interleave("mixed", &parts);
        let run = router.classify_tagged(&tagged);
        prop_assert_eq!(run.results.len(), tagged.len());

        for (&id, (t, (rs, trace))) in ids.iter().zip(workloads.iter().enumerate()) {
            let projected = tagged.tenant_results(id, &run.results);
            let solo = router.classify_solo(id, trace);
            prop_assert_eq!(&projected, &solo.results, "tenant {} vs its solo run", t);
            prop_assert_eq!(projected, trace.ground_truth(rs), "tenant {} vs ground truth", t);
        }
    }
}

/// Churn isolation end to end: updates applied through one tenant's live
/// cell re-route that tenant onto its surviving ruleset while every other
/// tenant's decisions stay bit-identical.
#[test]
fn churn_on_one_tenant_is_invisible_to_the_others() {
    let workloads = tenant_workloads(20080414, 3, 200);
    let hicuts = |rs: &RuleSet| HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults());
    let router = EngineConfig::new().workers(2).tenant_router(
        workloads
            .iter()
            .enumerate()
            .map(|(t, (rs, _))| (TenantSpec::new(format!("t{t}")), hicuts(rs))),
    );
    let ids = router.tenant_ids();
    let traces: Vec<Trace> = workloads.iter().map(|(_, tr)| tr.clone()).collect();
    let parts: Vec<(TenantId, &Trace)> = ids.iter().copied().zip(traces.iter()).collect();
    let tagged = TaggedTrace::interleave("mixed", &parts);
    let before = router.classify_tagged(&tagged);

    // Delete the first quarter of tenant 1's rules through its live cell.
    let (rs1, _) = &workloads[1];
    let victims: Vec<RuleId> = rs1
        .rules()
        .iter()
        .take(rs1.len() / 4)
        .map(|r| r.id)
        .collect();
    let updates: Vec<pclass_algos::update::RuleUpdate> = victims
        .iter()
        .map(|&id| pclass_algos::update::RuleUpdate::Delete(id))
        .collect();
    router
        .live(ids[1])
        .apply_batch(&updates)
        .expect("churn batch applies");

    let after = router.classify_tagged(&tagged);
    for t in [0usize, 2] {
        assert_eq!(
            tagged.tenant_results(ids[t], &before.results),
            tagged.tenant_results(ids[t], &after.results),
            "tenant {t} observed another tenant's churn"
        );
    }
    let survivors: Vec<Rule> = rs1
        .rules()
        .iter()
        .filter(|r| !victims.contains(&r.id))
        .cloned()
        .collect();
    let expected: Vec<MatchResult> = traces[1]
        .headers()
        .map(|h| pclass_algos::update::classify_live_linear(&survivors, h))
        .collect();
    assert_eq!(
        tagged.tenant_results(ids[1], &after.results),
        expected,
        "churned tenant must serve its surviving ruleset"
    );
}
