//! Property-based equivalence for the hot-flow cache (see
//! `pclass_algos::hotcache`): a [`CachedClassifier`] must be
//! *observationally identical* to its uncached inner classifier —
//! packet for packet, on the single-packet and the batched path, cold
//! and warm, across random rulesets, degenerate cache geometries
//! (capacity 0 and 1 included) and scripted churn streams.  The cache
//! is allowed to change *how fast* an answer arrives, never *which*
//! answer arrives.

use packet_classifier::prelude::*;
use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
use pclass_algos::update::{classify_live_linear, UpdatableClassifier};
use pclass_algos::{CachedClassifier, Classifier, HotCacheConfig};
use pclass_bench::churn::{churn_updates, ChurnProfile};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn cached_classifier_is_packet_for_packet_equal_to_uncached(
        seed in 0u64..1_000_000,
        rules in 4usize..200,
        packets in 16usize..400,
        capacity_pick in 0usize..5,
        assoc in 1usize..6,
        zipf in any::<bool>(),
    ) {
        // Degenerate geometries first: capacity 0 (pure pass-through) and
        // capacity 1 (every fill is a conflict) are where a cache bug
        // would hide.
        let capacity = [0usize, 1, 7, 64, 1024][capacity_pick];
        let style = [SeedStyle::Acl, SeedStyle::Fw, SeedStyle::Ipc][(seed % 3) as usize];
        let rs = ClassBenchGenerator::new(style, seed).generate(rules);
        let gen = TraceGenerator::new(&rs, seed ^ 0xCAFE);
        let trace = if zipf {
            gen.zipf(1.0).generate(packets)
        } else {
            gen.generate(packets)
        };
        let headers: Vec<_> = trace.headers().copied().collect();

        let inner = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults()).flatten();
        let plain = inner.clone();
        let cached = CachedClassifier::new(inner, HotCacheConfig::new(capacity, assoc));
        prop_assert_eq!(cached.name(), plain.name(), "cache is transparent");

        // Cold pass, then a warm pass that serves from the cache.
        for pass in 0..2 {
            let mut want = Vec::new();
            plain.classify_batch(&headers, &mut want);
            let mut got = Vec::new();
            cached.classify_batch(&headers, &mut got);
            prop_assert_eq!(&got, &want, "batched path diverged on pass {}", pass);
        }
        // The single-packet path consults the same (now warm) cache.
        for header in headers.iter().take(32) {
            prop_assert_eq!(cached.classify(header), plain.classify(header));
        }
    }

    #[test]
    fn cached_classifier_stays_equal_under_scripted_churn(
        seed in 0u64..1_000_000,
        rules in 8usize..150,
        packets in 16usize..300,
        capacity_pick in 0usize..4,
        profile_pick in 0usize..4,
    ) {
        let capacity = [0usize, 1, 32, 512][capacity_pick];
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let headers: Vec<_> = TraceGenerator::new(&rs, seed ^ 0xD00D)
            .generate(packets)
            .headers()
            .copied()
            .collect();

        let inner = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults()).flatten();
        let mut plain = inner.clone();
        let mut cached = CachedClassifier::new(inner, HotCacheConfig::new(capacity, 4));

        // Warm the cache on the pre-churn ruleset so stale entries exist
        // to be invalidated.
        let mut want = Vec::new();
        plain.classify_batch(&headers, &mut want);
        let mut got = Vec::new();
        cached.classify_batch(&headers, &mut got);
        prop_assert_eq!(&got, &want, "pre-churn");

        // Apply the same scripted stream to both copies, re-verifying
        // packet for packet after every burst — a stale cache hit
        // surviving a mutation shows up here immediately.
        let updates = match profile_pick {
            // The 2 % stream the live-serving test lands one at a time.
            3 => churn_updates(&rs, 0.02),
            pick => ChurnProfile::ALL[pick].stream(&rs),
        };
        for (burst_no, burst) in updates.chunks(5).enumerate() {
            for update in burst {
                let a = plain.apply(update);
                let b = cached.apply(update);
                prop_assert_eq!(&a, &b, "update outcomes diverged");
            }
            let mut want = Vec::new();
            plain.classify_batch(&headers, &mut want);
            let mut got = Vec::new();
            cached.classify_batch(&headers, &mut got);
            prop_assert_eq!(&got, &want, "burst {} diverged", burst_no);
        }

        // Final state also agrees with linear search over the surviving
        // rules — the cached wrapper did not drift from ground truth.
        let live = cached.live_rules();
        prop_assert_eq!(live.len(), plain.live_rules().len());
        for header in headers.iter().take(64) {
            prop_assert_eq!(cached.classify(header), classify_live_linear(&live, header));
        }
    }
}
