//! ClassBench-style packet trace generation.
//!
//! Three properties of a trace are set per generator: the fraction of
//! background packets, the longest burst, and whether rule popularity
//! follows a Zipf law.  The default power skew's exponent is a constant,
//! 1.5: every trace that does not ask for Zipf is drawn with it.

use pclass_types::{Dimension, FieldRange, PacketHeader, Rule, RuleSet, Trace, TraceEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pareto-style skew exponent of the default rule popularity: a directed
/// packet picks rule `floor(u^POWER_SKEW * n)` for `u` uniform in [0, 1), so
/// larger means more skewed towards the high-priority rules.
const POWER_SKEW: f64 = 1.5;

/// Generates packet traces aimed at a ruleset, the way the ClassBench
/// `trace_generator` does: each packet is sampled from inside some rule's
/// hyper-rectangle, rule popularity is heavily skewed, and packets arrive in
/// short bursts of identical headers (flow locality).
///
/// A configurable fraction of packets is sampled uniformly from the whole
/// header space instead, so traces also contain packets that match no rule
/// (or only the default rule), exercising the classifiers' miss path.
///
/// Two rule-popularity models are available: the default Pareto-style power
/// skew (mild, spread across the whole priority range) and — via
/// [`TraceGenerator::zipf`] — a true Zipf distribution over rule ranks, which
/// concentrates traffic on a small set of *hot* rules the way production
/// classifiers see it (a few services receive most of the flows).  Both are
/// driven by the explicit seed, so either profile is bit-for-bit
/// reproducible.
#[derive(Debug, Clone)]
pub struct TraceGenerator<'a> {
    ruleset: &'a RuleSet,
    seed: u64,
    /// Fraction of packets drawn uniformly from the whole header space.
    random_fraction: f64,
    /// Maximum burst length (identical consecutive headers).
    max_burst: usize,
    /// When set, rule popularity follows a Zipf law with this exponent
    /// (rank `k` drawn with probability proportional to `1 / k^exponent`)
    /// instead of the power skew.
    zipf_exponent: Option<f64>,
}

impl<'a> TraceGenerator<'a> {
    /// Creates a trace generator with ClassBench-like defaults
    /// (10 % background traffic, bursts of up to 4 packets, strong skew).
    pub fn new(ruleset: &'a RuleSet, seed: u64) -> TraceGenerator<'a> {
        TraceGenerator {
            ruleset,
            seed,
            random_fraction: 0.10,
            max_burst: 4,
            zipf_exponent: None,
        }
    }

    /// Sets the fraction of uniformly random (background) packets.
    pub fn random_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
        self.random_fraction = f;
        self
    }

    /// Sets the maximum burst length.
    pub fn max_burst(mut self, b: usize) -> Self {
        assert!(b >= 1, "burst length must be at least 1");
        self.max_burst = b;
        self
    }

    /// Switches rule popularity to a Zipf law with the given exponent:
    /// rank `k` (1-based, in priority order — rule 0 is the hottest) is
    /// drawn with probability proportional to `1 / k^exponent`.  At
    /// exponent 1.0 on a 2 000-rule set, roughly 40 % of the directed
    /// packets repeatedly hit the hottest 1 % of the rules, modelling the
    /// few hot services a production classifier actually serves.
    pub fn zipf(mut self, exponent: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "Zipf exponent must be finite and positive"
        );
        self.zipf_exponent = Some(exponent);
        self
    }

    /// Generates a trace of exactly `count` packets named after the ruleset.
    pub fn generate(&self, count: usize) -> Trace {
        let name = format!("{}_trace", self.ruleset.name());
        self.generate_named(count, name)
    }

    /// Generates a trace of exactly `count` packets with an explicit name.
    pub fn generate_named(&self, count: usize, name: impl Into<String>) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let spec = *self.ruleset.spec();
        let n_rules = self.ruleset.len();
        // Cumulative Zipf weights over rule ranks, built once per trace
        // (O(n)); each directed packet then costs one binary search.
        let zipf_cdf: Option<Vec<f64>> = self.zipf_exponent.map(|alpha| {
            let mut acc = 0.0;
            (0..n_rules)
                .map(|rank| {
                    acc += 1.0 / ((rank + 1) as f64).powf(alpha);
                    acc
                })
                .collect()
        });
        let mut entries = Vec::with_capacity(count);

        while entries.len() < count {
            let burst = rng.gen_range(1..=self.max_burst).min(count - entries.len());
            let entry = if n_rules == 0 || rng.gen_bool(self.random_fraction) {
                // Background packet: uniform over the whole header space.
                let mut fields = [0u32; 5];
                for d in Dimension::ALL {
                    let max = spec.max_value(d);
                    fields[d.index()] = if max == u32::MAX {
                        rng.gen()
                    } else {
                        rng.gen_range(0..=max)
                    };
                }
                TraceEntry {
                    header: PacketHeader::from_fields(fields),
                    intended_rule: None,
                }
            } else {
                // Rule-directed packet: true Zipf over ranks when the
                // profile asks for it, the Pareto-like power skew otherwise.
                let idx = if let Some(cdf) = &zipf_cdf {
                    let total = *cdf.last().expect("non-empty ruleset");
                    let u: f64 = rng.gen_range(0.0..total);
                    cdf.partition_point(|&w| w <= u)
                } else {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    (u.powf(POWER_SKEW) * n_rules as f64) as usize
                };
                let rule = &self.ruleset.rules()[idx.min(n_rules - 1)];
                TraceEntry {
                    header: sample_point_in_rule(&mut rng, rule),
                    intended_rule: Some(rule.id),
                }
            };
            for _ in 0..burst {
                entries.push(entry);
            }
        }
        Trace::new(name, entries)
    }
}

/// Samples a header lying inside a rule's hyper-rectangle.  ClassBench
/// favours the corners of each range (they expose off-by-one bugs in
/// classifiers); interior points are also produced.
fn sample_point_in_rule<R: Rng + ?Sized>(rng: &mut R, rule: &Rule) -> PacketHeader {
    let mut fields = [0u32; 5];
    for d in Dimension::ALL {
        let r = rule.range(d);
        fields[d.index()] = sample_point_in_range(rng, r);
    }
    PacketHeader::from_fields(fields)
}

fn sample_point_in_range<R: Rng + ?Sized>(rng: &mut R, r: FieldRange) -> u32 {
    if r.is_exact() {
        return r.lo;
    }
    match rng.gen_range(0u8..4) {
        0 => r.lo,
        1 => r.hi,
        _ => {
            // Interior point, uniform.
            let span = r.len();
            let offset = rng.gen_range(0..span);
            (u64::from(r.lo) + offset) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ClassBenchGenerator;
    use crate::style::SeedStyle;
    use pclass_types::MatchResult;

    #[test]
    fn trace_is_deterministic_and_sized() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 1).generate(200);
        let a = TraceGenerator::new(&rs, 9).generate(1_000);
        let b = TraceGenerator::new(&rs, 9).generate(1_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1_000);
        assert_eq!(a.name(), "acl1_200_trace");
    }

    #[test]
    fn directed_packets_hit_their_rule_region() {
        let rs = ClassBenchGenerator::new(SeedStyle::Ipc, 2).generate(300);
        let trace = TraceGenerator::new(&rs, 3).generate(2_000);
        for entry in trace.entries() {
            if let Some(rid) = entry.intended_rule {
                let rule = rs.rule(rid).unwrap();
                assert!(
                    rule.matches(&entry.header),
                    "directed packet {} escaped rule {rid}",
                    entry.header
                );
            }
        }
    }

    #[test]
    fn hit_rate_is_high_for_directed_traces() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 4).generate(500);
        let trace = TraceGenerator::new(&rs, 5)
            .random_fraction(0.0)
            .generate(2_000);
        assert!((trace.hit_rate(&rs) - 1.0).abs() < 1e-9);
        // With pure background traffic the hit rate drops substantially.
        let bg = TraceGenerator::new(&rs, 5)
            .random_fraction(1.0)
            .generate(2_000);
        assert!(bg.hit_rate(&rs) < 0.9);
    }

    #[test]
    fn first_match_may_differ_from_intended_rule_due_to_shadowing() {
        // Not an assertion of inequality (it depends on overlap) but the
        // ground truth must never return NoMatch for a directed packet.
        let rs = ClassBenchGenerator::new(SeedStyle::Fw, 6).generate(400);
        let trace = TraceGenerator::new(&rs, 7)
            .random_fraction(0.0)
            .generate(1_000);
        for (entry, truth) in trace.entries().iter().zip(trace.ground_truth(&rs)) {
            if let Some(rid) = entry.intended_rule {
                match truth {
                    MatchResult::Matched(m) => {
                        assert!(m <= rid, "match {m} has lower priority than intended {rid}")
                    }
                    MatchResult::NoMatch => panic!("directed packet missed every rule"),
                }
            }
        }
    }

    #[test]
    fn bursts_do_not_overshoot_requested_count() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 1).generate(50);
        for count in [1usize, 3, 7, 101] {
            let t = TraceGenerator::new(&rs, 2).max_burst(5).generate(count);
            assert_eq!(t.len(), count);
        }
    }

    #[test]
    fn empty_ruleset_yields_background_only_trace() {
        let rs =
            pclass_types::RuleSet::new("empty", pclass_types::DimensionSpec::FIVE_TUPLE, vec![])
                .unwrap();
        let t = TraceGenerator::new(&rs, 1).generate(100);
        assert_eq!(t.len(), 100);
        assert!(t.entries().iter().all(|e| e.intended_rule.is_none()));
    }

    #[test]
    #[should_panic]
    fn invalid_random_fraction_panics() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 1).generate(10);
        let _ = TraceGenerator::new(&rs, 1).random_fraction(1.5);
    }

    #[test]
    fn zipf_trace_is_deterministic_and_header_valid() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 11).generate(400);
        let a = TraceGenerator::new(&rs, 12).zipf(1.0).generate(1_500);
        let b = TraceGenerator::new(&rs, 12).zipf(1.0).generate(1_500);
        assert_eq!(a, b, "same seed must reproduce the Zipf trace");
        let c = TraceGenerator::new(&rs, 13).zipf(1.0).generate(1_500);
        assert_ne!(a, c, "different seeds must differ");
        for entry in a.entries() {
            if let Some(rid) = entry.intended_rule {
                assert!(
                    rs.rule(rid).unwrap().matches(&entry.header),
                    "Zipf-directed packet escaped rule {rid}"
                );
            }
        }
    }

    #[test]
    fn zipf_concentrates_traffic_on_hot_rules() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 21).generate(1_000);
        let count_hot = |trace: &pclass_types::Trace| {
            trace
                .entries()
                .iter()
                .filter(|e| matches!(e.intended_rule, Some(rid) if rid < 10))
                .count()
        };
        let zipf = TraceGenerator::new(&rs, 22)
            .random_fraction(0.0)
            .zipf(1.0)
            .generate(4_000);
        let default = TraceGenerator::new(&rs, 22)
            .random_fraction(0.0)
            .generate(4_000);
        let (hot_zipf, hot_default) = (count_hot(&zipf), count_hot(&default));
        // At exponent 1.0 the hottest 1% of a 1 000-rule set draws about a
        // third of the directed packets — far beyond the power-skew default.
        assert!(
            hot_zipf > 4_000 / 5,
            "top-1% rules drew only {hot_zipf}/4000 Zipf packets"
        );
        assert!(
            hot_zipf > 3 * hot_default.max(1),
            "Zipf ({hot_zipf}) not hotter than the default skew ({hot_default})"
        );
    }

    #[test]
    #[should_panic]
    fn non_positive_zipf_exponent_panics() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 1).generate(10);
        let _ = TraceGenerator::new(&rs, 1).zipf(0.0);
    }
}
