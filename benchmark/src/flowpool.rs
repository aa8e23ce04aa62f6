//! Flow-pool traces: Zipf-popular traffic over a fixed pool of distinct
//! flows.
//!
//! `TraceGenerator::zipf` skews *rule* popularity; every packet is still a
//! fresh sample from inside its rule, so the number of distinct flows grows
//! with the trace.  The committed `throughput` harness works around that by
//! replaying a 4,000-packet trace, which fits whole inside the 4,096-entry
//! hot cache and makes every cached cell read ~60 Mpps.  A flow cache is
//! governed by the working set, so this generator fixes it: `flows`
//! distinct headers, drawn with the product's own `TraceGenerator`
//! (`max_burst(1)`), then `packets` draws from them under a Zipf law whose
//! rank-to-flow assignment is shuffled by the seed.

use packet_classifier::prelude::{PacketHeader, RuleSet, Trace, TraceGenerator};
use std::collections::HashSet;

/// splitmix64: the benchmark's own generator, so the package depends on
/// nothing but the facade crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Exactly `flows` distinct headers aimed at `rules`, in a seed-shuffled
/// order (index = popularity rank).
pub fn flow_pool(rules: &RuleSet, flows: usize, seed: u64) -> Vec<PacketHeader> {
    let mut seen = HashSet::with_capacity(flows);
    let mut pool = Vec::with_capacity(flows);
    // Narrow rules repeat headers, so draw in rounds until the pool is full.
    for round in 0.. {
        assert!(
            round < 64,
            "ruleset yields fewer than {flows} distinct flows"
        );
        let draw = TraceGenerator::new(rules, seed.wrapping_add(round))
            .max_burst(1)
            .generate(flows);
        for header in draw.headers() {
            if pool.len() < flows && seen.insert(header.fields) {
                pool.push(*header);
            }
        }
        if pool.len() == flows {
            break;
        }
    }
    Rng::new(seed ^ 0x51_F0_0D).shuffle(&mut pool);
    pool
}

/// `packets` draws from `pool` where rank `k` (0-based index) is drawn with
/// probability proportional to `1 / (k + 1)^exponent`.
pub fn zipf_trace(pool: &[PacketHeader], packets: usize, exponent: f64, seed: u64) -> Trace {
    let mut acc = 0.0;
    let cdf: Vec<f64> = (0..pool.len())
        .map(|rank| {
            acc += 1.0 / ((rank + 1) as f64).powf(exponent);
            acc
        })
        .collect();
    let total = *cdf.last().expect("a flow pool is never empty");
    let mut rng = Rng::new(seed);
    let headers = (0..packets)
        .map(|_| {
            let u = rng.unit() * total;
            pool[cdf.partition_point(|&w| w <= u).min(pool.len() - 1)]
        })
        .collect();
    Trace::from_headers(format!("zipf_{}flows", pool.len()), headers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet_classifier::prelude::{ClassBenchGenerator, SeedStyle};

    fn rules() -> RuleSet {
        ClassBenchGenerator::new(SeedStyle::Acl, 11).generate(300)
    }

    #[test]
    fn the_pool_has_exactly_n_distinct_five_tuples() {
        let rules = rules();
        for flows in [1usize, 64, 1_024] {
            let pool = flow_pool(&rules, flows, 5);
            let distinct: HashSet<_> = pool.iter().map(|h| h.fields).collect();
            assert_eq!(pool.len(), flows);
            assert_eq!(distinct.len(), flows);
        }
    }

    #[test]
    fn the_same_seed_reproduces_the_trace_bit_for_bit_and_another_does_not() {
        let rules = rules();
        let make = |seed| zipf_trace(&flow_pool(&rules, 256, seed), 4_096, 1.0, seed);
        assert_eq!(make(9), make(9));
        assert_ne!(make(9), make(10));
        // Same pool, different draw seed: the packet order changes too.
        let pool = flow_pool(&rules, 256, 9);
        assert_ne!(
            zipf_trace(&pool, 4_096, 1.0, 1),
            zipf_trace(&pool, 4_096, 1.0, 2)
        );
    }

    #[test]
    fn the_trace_draws_only_from_the_pool_and_skews_to_low_ranks() {
        let rules = rules();
        let pool = flow_pool(&rules, 128, 3);
        let trace = zipf_trace(&pool, 20_000, 1.0, 3);
        let in_pool: HashSet<_> = pool.iter().map(|h| h.fields).collect();
        assert!(trace.headers().all(|h| in_pool.contains(&h.fields)));
        let hottest = trace.headers().filter(|h| **h == pool[0]).count();
        let coldest = trace.headers().filter(|h| **h == pool[127]).count();
        // Zipf(1.0) over 128 ranks gives rank 0 about 18 % of the draws.
        assert!(hottest > 2_500 && hottest > 20 * coldest.max(1));
    }
}
