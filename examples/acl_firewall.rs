//! Firewall/ACL policy scenario.
//!
//! Builds a hand-written enterprise-style policy (the kind of ruleset the
//! paper's introduction motivates: block unwanted traffic, prioritise VoIP,
//! bill by usage class), loads it into the hardware accelerator model and
//! classifies a mixed traffic trace, reporting per-rule hit counts — i.e.
//! the accelerator used as the policy-enforcement stage of a firewall line
//! card.  The same policy is also pushed through the TCAM baseline to show
//! the storage-efficiency gap caused by port ranges, and served by the
//! software engine while a policy push replaces one of its rules live.
//!
//! Run with:
//! ```text
//! cargo run --release --example acl_firewall
//! ```

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::update::RuleUpdate;
use pclass_tcam::TcamClassifier;
use pclass_types::DimensionSpec;
use std::sync::Arc;

/// Builds a small but realistic enterprise policy.
fn build_policy() -> RuleSet {
    let mut rules = Vec::new();
    let mut id = 0u32;
    let mut push = |r: Rule| {
        rules.push(r);
    };

    // 1. Protect the management network: only SSH from the admin subnet.
    push(
        RuleBuilder::new(id)
            .src_prefix(0x0A0A_0100, 24)
            .dst_prefix(0x0A00_FF00, 24)
            .dst_port(22)
            .protocol(6)
            .build(),
    );
    id += 1;
    // 2. Drop everything else aimed at the management network (deny rule —
    //    the action table is outside the classifier; the id is what counts).
    push(RuleBuilder::new(id).dst_prefix(0x0A00_FF00, 24).build());
    id += 1;
    // 3. VoIP gets its own class: SIP and RTP towards the PBX.
    push(
        RuleBuilder::new(id)
            .dst_prefix(0x0A01_2000, 24)
            .dst_port(5060)
            .protocol(17)
            .build(),
    );
    id += 1;
    push(
        RuleBuilder::new(id)
            .dst_prefix(0x0A01_2000, 24)
            .dst_port_range(16_384, 32_767)
            .protocol(17)
            .build(),
    );
    id += 1;
    // 4. Web servers in the DMZ.
    push(
        RuleBuilder::new(id)
            .dst_prefix(0x0A02_0000, 16)
            .dst_port(80)
            .protocol(6)
            .build(),
    );
    id += 1;
    push(
        RuleBuilder::new(id)
            .dst_prefix(0x0A02_0000, 16)
            .dst_port(443)
            .protocol(6)
            .build(),
    );
    id += 1;
    // 5. DNS to the resolvers.
    push(
        RuleBuilder::new(id)
            .dst_prefix(0x0A03_0053, 32)
            .dst_port(53)
            .protocol(17)
            .build(),
    );
    id += 1;
    // 6. Outbound mail only from the relay.
    push(
        RuleBuilder::new(id)
            .src_prefix(0x0A04_0019, 32)
            .dst_port(25)
            .protocol(6)
            .build(),
    );
    id += 1;
    // 7. Block known-bad ephemeral range from the guest WLAN.
    push(
        RuleBuilder::new(id)
            .src_prefix(0x0A05_0000, 16)
            .dst_port_range(6_881, 6_999)
            .protocol(6)
            .build(),
    );
    id += 1;
    // 8. Guest WLAN may browse the web.
    push(
        RuleBuilder::new(id)
            .src_prefix(0x0A05_0000, 16)
            .dst_port(80)
            .protocol(6)
            .build(),
    );
    id += 1;
    push(
        RuleBuilder::new(id)
            .src_prefix(0x0A05_0000, 16)
            .dst_port(443)
            .protocol(6)
            .build(),
    );
    id += 1;
    // 9. Default rule: everything else (billing class "best effort").
    push(RuleBuilder::new(id).build());

    RuleSet::new("enterprise_policy", DimensionSpec::FIVE_TUPLE, rules).expect("valid policy")
}

/// Packets decided for each rule id.
fn hits_per_rule(results: &[MatchResult], rules: usize) -> Vec<u64> {
    let mut hits = vec![0u64; rules];
    for result in results {
        if let MatchResult::Matched(id) = result {
            hits[*id as usize] += 1;
        }
    }
    hits
}

fn main() {
    let policy = build_policy();
    println!("== Enterprise policy ({} rules) ==", policy.len());
    for rule in policy.rules() {
        println!("  {rule}");
    }

    // Traffic mix aimed at the policy plus background noise.
    let trace = TraceGenerator::new(&policy, 2024)
        .random_fraction(0.25)
        .generate(50_000);

    let config = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
    let program = HardwareProgram::build(&policy, &config).expect("policy fits easily");
    let engine = Accelerator::new(&program);
    let report = engine.classify_trace(&trace);

    // Per-rule hit accounting, validated against linear search.
    for (entry, result) in trace.entries().iter().zip(report.results.iter()) {
        assert_eq!(*result, policy.classify_linear(&entry.header));
    }
    let hits = hits_per_rule(&report.results, policy.len());
    let misses = trace.len() as u64 - hits.iter().sum::<u64>();

    println!("\n== Classification results ({} packets) ==", trace.len());
    for (id, count) in hits.iter().enumerate() {
        println!("  rule R{id:<2}  {count:>7} packets");
    }
    println!("  no match  {misses:>7} packets");
    println!(
        "\n  search structure : {} bytes in {} words",
        program.memory_bytes(),
        program.word_count()
    );
    println!("  worst-case cycles: {}", program.worst_case_cycles());
    println!("  avg cycles/packet: {:.3}", report.avg_cycles_per_packet());

    // TCAM baseline: the port ranges above force range-to-prefix expansion.
    let tcam = TcamClassifier::program(&policy).expect("policy is prefix-expressible");
    let stats = tcam.stats();
    println!("\n== TCAM baseline ==");
    println!(
        "  entries            : {} (for {} rules)",
        stats.entries, stats.rules
    );
    println!(
        "  storage efficiency : {:.1} %",
        stats.storage_efficiency * 100.0
    );
    println!("  storage used       : {} bits", stats.storage_bits);
    for entry in trace.entries().iter().take(5_000) {
        assert_eq!(
            tcam.classify(&entry.header),
            policy.classify_linear(&entry.header)
        );
    }
    println!("  (TCAM decisions verified against linear search on 5,000 packets)");

    // A live policy push: the same policy as a flat arena behind the
    // software engine's epoch-swap cell.  Between two passes the guest WLAN
    // loses plain HTTP — rule 9 is replaced in place by 8443/tcp — through
    // one `apply_batch`, which patches the arena (no rebuild) and publishes
    // it as the next generation; a pass in flight would drain on the old
    // one.
    let flat = HiCutsClassifier::build(&policy, &HiCutsConfig::paper_defaults()).flatten();
    let live = Arc::new(LiveClassifier::new(flat));
    let serving = EngineConfig::new()
        .workers(2)
        .live_engine(Arc::clone(&live));
    let before = hits_per_rule(&serving.classify_trace(&trace).results, policy.len());
    let guest_alt_https = RuleBuilder::new(9)
        .src_prefix(0x0A05_0000, 16)
        .dst_port(8443)
        .protocol(6)
        .build();
    let generation = live
        .apply_batch(&[RuleUpdate::Delete(9), RuleUpdate::Insert(guest_alt_https)])
        .expect("rule 9 is live, and its slot is free once deleted");
    let after = hits_per_rule(&serving.classify_trace(&trace).results, policy.len());
    println!("\n== Live policy push (generation {generation}) ==");
    for (id, (was, now)) in before.iter().zip(&after).enumerate() {
        if was != now {
            let delta = *now as i64 - *was as i64;
            println!("  rule R{id:<2}  {was:>7} -> {now:>7} packets ({delta:+})");
        }
    }
}
