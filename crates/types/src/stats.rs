//! Structural statistics over rulesets.
//!
//! The decision-tree heuristics (HyperCuts' dimension choice), the synthetic
//! generators and the experiment reports all need the same handful of
//! structural measurements; they are centralised here.

use crate::dimension::{Dimension, FIELD_COUNT};
use crate::range::FieldRange;
use crate::rule::{Rule, RuleId};
use crate::ruleset::RuleSet;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Footprint of a flattened (arena) search structure.
///
/// Produced by `pclass_algos::flat::FlatTree::arena_stats`; it lives here,
/// next to [`RuleSetStats`], so every crate that serializes measurements
/// shares one definition.  Unlike the idealised 32-bit software memory model the
/// pointer trees report under, these byte counts are the *actual* in-memory
/// sizes of the arena arrays.
///
/// The counts cover everything a lookup can touch — internal-node records,
/// leaf spans, slabs and the rule table — which is also every copy of a
/// rule the arena holds: a node's span lists rule ids, and each rule's
/// image is stored
/// once, in the table line of its id (the table doubles as the record of
/// which ids are live, so the write path keeps no second copy).  Only the
/// lazily built per-node reference counts (4 bytes per node, built by the
/// first update) are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Number of nodes: internal-node records plus leaf spans.
    pub nodes: usize,
    /// Number of cut-dimension records: the first cut of every internal
    /// node (inline in its record) plus the records in the shared cut slab.
    pub cut_records: usize,
    /// Number of child-pointer slots in the shared child slab.
    pub child_slots: usize,
    /// Number of rule-id slots in the shared rule slab — live references,
    /// span slack, and the dead slots moved spans left behind until the
    /// next re-flatten.
    pub rule_refs: usize,
    /// Bytes of the tree structure (internal-node records + leaf spans,
    /// each with its span capacity, + cut slab + child slab), excluding
    /// the rule slab and the rule table.
    pub arena_bytes: usize,
    /// Structure bytes plus the id slab (4 bytes a slot) plus the rule
    /// table (one 64-byte line per id up to the highest live one) —
    /// everything a lookup can touch (the arena is self-contained).
    pub total_bytes: usize,
}

/// Running counters of an updatable search structure's incremental-update
/// activity.
///
/// Tracked by the rebuild-free `insert`/`delete` paths of
/// `pclass_algos::flat::FlatTree`, the one structure that takes rule
/// updates; it lives here, next to [`ArenaStats`], so every crate that serializes
/// measurements shares one definition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Rules inserted since the structure was built.
    pub inserts: u64,
    /// Rules deleted since the structure was built.
    pub deletes: u64,
    /// Amortized re-flatten compactions triggered when the dead share of
    /// the rule slab crossed the arena's trigger.
    pub reflattens: u64,
    /// Always 0: the flat arena no longer has an overflow side-table (a
    /// full span moves to the slab end instead).  The field is retained
    /// only because the frozen `algos.update.overflow_rules` benchmark
    /// probe reads it; it goes when that probe does.
    pub overflow_rules: u64,
}

/// p50/p95/p99 percentiles over a set of wall-time samples (nanoseconds).
///
/// The multi-tenant router records per-tenant batch-service latencies in
/// it.  It lives here, next to [`UpdateStats`], so every crate that
/// serializes measurements shares one definition — and one rank formula.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    /// Median (50th-percentile) sample, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile sample, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile sample, nanoseconds.
    pub p99_ns: u64,
}

impl LatencyPercentiles {
    /// Computes the percentiles of a sample set (sorted in place; an empty
    /// set yields all-zero percentiles).  The rank formula is
    /// `sorted[(len * p / 100).min(len - 1)]`.
    pub fn from_samples(samples: &mut [u64]) -> LatencyPercentiles {
        samples.sort_unstable();
        let pct = |p: usize| -> u64 {
            if samples.is_empty() {
                0
            } else {
                samples[(samples.len() * p / 100).min(samples.len() - 1)]
            }
        };
        LatencyPercentiles {
            p50_ns: pct(50),
            p95_ns: pct(95),
            p99_ns: pct(99),
        }
    }
}

/// Running hit/miss/eviction counters of an exact-match hot-flow cache.
///
/// Produced by `pclass_algos::hotcache::HotCache::stats`; it lives here,
/// next to [`ArenaStats`] and [`UpdateStats`], so every crate that
/// serializes measurements shares one definition.  Counters are
/// cumulative over the cache's lifetime; [`CacheStats::delta_since`] turns
/// two snapshots into a per-run figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to the backing classifier (including every
    /// probe of a zero-capacity cache).
    pub misses: u64,
    /// Fills that displaced a live (current-generation) entry.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of probes answered from the cache (0.0 when nothing was
    /// probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter growth since an earlier snapshot of the same cache.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Adds another cache's counters into this one (used to aggregate the
    /// per-shard caches of a multi-worker engine).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Per-tenant memory accounting of a multi-tenant roster entry: the
/// bytes admission charged for the tenant's classifier and the budget the
/// tenant was admitted under.
///
/// Produced by `pclass_engine::TenantRouter` at admission time; it lives
/// here, next to [`ArenaStats`], so every crate that serializes
/// measurements shares one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Bytes of the tenant's classifier as admitted ([`crate::RuleSet`] +
    /// search structure, via `Classifier::memory_bytes`) — what admission
    /// charges against the budgets.  A tenant admitted behind a
    /// `pclass_algos::CachedClassifier` has its hot-flow cache counted
    /// here: the cache is part of the classifier.
    pub classifier_bytes: usize,
    /// The per-tenant budget the spec declared, if any
    /// (`TenantSpec::memory_budget`).
    pub budget_bytes: Option<usize>,
    /// Arena layout statistics when the classifier is a flat decision-tree
    /// arena (`Classifier::arena_stats`), `None` for pointer trees and
    /// other structures.
    pub arena: Option<ArenaStats>,
}

/// Cross-tenant fairness summary of one multi-tenant serving run,
/// computed over the per-tenant service rates (Mpps of busy time) and,
/// for the weighted index, over the weight-normalised service shares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FairnessSummary {
    /// Jain's fairness index `(Σx)² / (n·Σx²)` over the per-tenant rates:
    /// 1.0 when every tenant is served at the same rate, approaching `1/n`
    /// when one tenant monopolises the worker pool.
    pub jain_index: f64,
    /// Jain's index over the per-tenant *SLO-relative* throughputs
    /// (served share ÷ weight share, `TenantReport::slo_rel` in
    /// `pclass-engine`): 1.0 when every tenant receives exactly its
    /// weighted fair share of the served packets, regardless of how
    /// expensive its individual packets are.  Equal to [`jain_index`
    /// over the rates](FairnessSummary::over_rates) until
    /// [`FairnessSummary::weighted_over`] installs the share-based index.
    pub weighted_jain: f64,
    /// The slowest tenant's rate.
    pub min_mpps: f64,
    /// The fastest tenant's rate.
    pub max_mpps: f64,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; empty or all-zero sets are
/// perfectly fair by convention.
fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sq)
    }
}

impl FairnessSummary {
    /// Summarises a set of per-tenant rates.  An empty set (no tenant
    /// served a packet) is perfectly fair by convention.  The weighted
    /// index starts out equal to the rate-based index; callers with
    /// per-tenant weights refine it through
    /// [`FairnessSummary::weighted_over`].
    pub fn over_rates(rates: &[f64]) -> FairnessSummary {
        let jain_index = jain(rates);
        FairnessSummary {
            jain_index,
            weighted_jain: jain_index,
            min_mpps: if rates.is_empty() {
                0.0
            } else {
                rates.iter().copied().fold(f64::INFINITY, f64::min)
            },
            max_mpps: rates.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Installs the weighted fairness index: Jain's index over the
    /// per-tenant SLO-relative throughputs (each tenant's served share
    /// divided by its weight share).  All-equal inputs — every tenant at
    /// exactly its weighted fair share — yield 1.0.
    pub fn weighted_over(mut self, slo_rels: &[f64]) -> FairnessSummary {
        self.weighted_jain = jain(slo_rels);
        self
    }
}

/// Summary statistics of a ruleset's structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSetStats {
    /// Number of rules.
    pub rules: usize,
    /// Number of distinct range specifications per dimension
    /// (the quantity HyperCuts compares against its mean when choosing which
    /// dimensions to cut).
    pub distinct_ranges: [usize; FIELD_COUNT],
    /// Number of rules that are full wildcards per dimension.
    pub wildcards: [usize; FIELD_COUNT],
    /// Fraction of rules whose source *and* destination address are
    /// wildcards (the paper attributes fw1's larger memory footprint to
    /// these).
    pub double_wildcard_fraction: f64,
    /// Mean number of wildcarded dimensions per rule.
    pub mean_wildcard_dims: f64,
    /// Average relative width (range length / dimension size) per dimension.
    pub mean_relative_width: [f64; FIELD_COUNT],
}

impl RuleSetStats {
    /// Computes statistics for a ruleset.
    pub fn compute(rs: &RuleSet) -> RuleSetStats {
        let spec = rs.spec();
        let n = rs.len();
        let mut wildcards = [0usize; FIELD_COUNT];
        let mut rel_width = [0f64; FIELD_COUNT];
        let mut double_wild = 0usize;
        let mut total_wild_dims = 0usize;

        for rule in rs.rules() {
            let mut wild_dims = 0usize;
            for d in Dimension::ALL {
                let i = d.index();
                let r = rule.range(d);
                let full = FieldRange::full(spec.width(d));
                if r == full {
                    wildcards[i] += 1;
                    wild_dims += 1;
                }
                rel_width[i] += r.len() as f64 / full.len() as f64;
            }
            total_wild_dims += wild_dims;
            if rule.is_wildcard_in(Dimension::SrcIp, spec)
                && rule.is_wildcard_in(Dimension::DstIp, spec)
            {
                double_wild += 1;
            }
        }

        let denom = n.max(1) as f64;
        let mut mean_relative_width = [0f64; FIELD_COUNT];
        for i in 0..FIELD_COUNT {
            mean_relative_width[i] = rel_width[i] / denom;
        }
        let all: Vec<RuleId> = (0..n as RuleId).collect();
        RuleSetStats {
            rules: n,
            distinct_ranges: distinct_range_counts(rs.rules(), &all),
            wildcards,
            double_wildcard_fraction: double_wild as f64 / denom,
            mean_wildcard_dims: total_wild_dims as f64 / denom,
            mean_relative_width,
        }
    }
}

/// Number of distinct range specifications per dimension among the rules
/// `ids` names — the quantity every HyperCuts variant compares against its
/// mean over the dimensions when it picks the ones to cut.
pub fn distinct_range_counts(rules: &[Rule], ids: &[RuleId]) -> [usize; FIELD_COUNT] {
    let mut counts = [0usize; FIELD_COUNT];
    for d in Dimension::ALL {
        let mut distinct: HashSet<FieldRange> = HashSet::with_capacity(ids.len());
        for &id in ids {
            distinct.insert(rules[id as usize].range(d));
        }
        counts[d.index()] = distinct.len();
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionSpec;
    use crate::rule::RuleBuilder;
    use crate::toy;

    #[test]
    fn toy_ruleset_stats() {
        let rs = toy::table1_ruleset();
        let stats = rs.stats();
        assert_eq!(stats.rules, 10);
        // Field 0 of Table 1 has 9 distinct ranges (130-255 appears twice).
        assert_eq!(stats.distinct_ranges[0], 9);
        // Field 2 (40-40 appears many times, plus 0-200, 0-60, 0-255) has 4.
        assert_eq!(stats.distinct_ranges[2], 4);
        // Two rules are wildcards (0-255) in field 2.
        assert_eq!(stats.wildcards[2], 2);
    }

    #[test]
    fn hypercuts_candidates_follow_mean() {
        let rs = toy::table1_ruleset();
        let all: Vec<RuleId> = (0..rs.len() as RuleId).collect();
        let counts = distinct_range_counts(rs.rules(), &all);
        assert_eq!(counts, rs.stats().distinct_ranges);
        // Field 0 (9 distinct) and field 4 (10 distinct) dominate the mean.
        let mean = counts.iter().sum::<usize>() as f64 / FIELD_COUNT as f64;
        assert!(counts[Dimension::SrcIp.index()] as f64 >= mean);
        assert!(counts[Dimension::Protocol.index()] as f64 >= mean);
        assert!((counts[Dimension::SrcPort.index()] as f64) < mean);
        // A subset is counted on its own: two rules, at most two ranges.
        assert!(distinct_range_counts(rs.rules(), &all[..2])
            .iter()
            .all(|&c| (1..=2).contains(&c)));
    }

    #[test]
    fn wildcard_fractions() {
        let rules = vec![
            RuleBuilder::new(0).build(),
            RuleBuilder::new(1).src_prefix(0x0A000000, 8).build(),
        ];
        let rs = RuleSet::new("w", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        let stats = rs.stats();
        assert_eq!(stats.wildcards[0], 1);
        assert_eq!(stats.wildcards[1], 2);
        assert!((stats.double_wildcard_fraction - 0.5).abs() < 1e-9);
        assert!(stats.mean_wildcard_dims > 4.0);
    }

    #[test]
    fn latency_percentiles_use_the_churn_rank_formula() {
        let mut empty: Vec<u64> = vec![];
        assert_eq!(
            LatencyPercentiles::from_samples(&mut empty),
            LatencyPercentiles::default()
        );
        // Unsorted input is sorted in place; ranks match the historical
        // inline formula `sorted[(len * p / 100).min(len - 1)]`.
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        let p = LatencyPercentiles::from_samples(&mut samples);
        assert_eq!((p.p50_ns, p.p95_ns, p.p99_ns), (51, 96, 100));
        let mut one = vec![7u64];
        let p = LatencyPercentiles::from_samples(&mut one);
        assert_eq!((p.p50_ns, p.p95_ns, p.p99_ns), (7, 7, 7));
    }

    #[test]
    fn cache_stats_rate_delta_and_merge() {
        let zero = CacheStats::default();
        assert_eq!(zero.hit_rate(), 0.0, "no probes is a 0.0 rate, not NaN");
        let mut a = CacheStats {
            hits: 30,
            misses: 10,
            evictions: 2,
        };
        assert!((a.hit_rate() - 0.75).abs() < 1e-12);
        let earlier = CacheStats {
            hits: 10,
            misses: 4,
            evictions: 2,
        };
        let d = a.delta_since(&earlier);
        assert_eq!((d.hits, d.misses, d.evictions), (20, 6, 0));
        a.merge(&earlier);
        assert_eq!((a.hits, a.misses, a.evictions), (40, 14, 4));
    }

    #[test]
    fn fairness_summary_tracks_jain_index_and_extremes() {
        let even = FairnessSummary::over_rates(&[2.0, 2.0, 2.0, 2.0]);
        assert!((even.jain_index - 1.0).abs() < 1e-12);
        assert_eq!((even.min_mpps, even.max_mpps), (2.0, 2.0));
        // One tenant monopolising n tenants drives the index toward 1/n.
        let skew = FairnessSummary::over_rates(&[4.0, 0.0, 0.0, 0.0]);
        assert!((skew.jain_index - 0.25).abs() < 1e-12);
        assert_eq!((skew.min_mpps, skew.max_mpps), (0.0, 4.0));
        let none = FairnessSummary::over_rates(&[]);
        assert_eq!(none.jain_index, 1.0);
        assert_eq!((none.min_mpps, none.max_mpps), (0.0, 0.0));
        let idle = FairnessSummary::over_rates(&[0.0, 0.0]);
        assert_eq!(idle.jain_index, 1.0, "all-idle is fair by convention");
    }

    #[test]
    fn weighted_jain_tracks_slo_relative_shares_not_rates() {
        // A big tenant serving expensive packets has a low busy-time rate,
        // so the rate index drops — but if every tenant received exactly
        // its weighted fair share of the packets, the weighted index over
        // the SLO-relative throughputs (all 1.0) stays perfect.
        let summary = FairnessSummary::over_rates(&[0.5, 4.0, 4.0]).weighted_over(&[1.0, 1.0, 1.0]);
        assert!(summary.jain_index < 1.0);
        assert!((summary.weighted_jain - 1.0).abs() < 1e-12);
        // One tenant at twice its fair share, one at half: Jain over
        // (2, 0.5) = 6.25/8.5.
        let skew = FairnessSummary::over_rates(&[1.0, 1.0]).weighted_over(&[2.0, 0.5]);
        assert!((skew.weighted_jain - 6.25 / 8.5).abs() < 1e-12);
        // Until weights are installed, the weighted index mirrors the
        // rate index.
        let plain = FairnessSummary::over_rates(&[1.0, 3.0]);
        assert_eq!(plain.weighted_jain, plain.jain_index);
    }

    #[test]
    fn memory_report_totals_are_consistent() {
        let report = MemoryReport {
            classifier_bytes: 1_024,
            budget_bytes: Some(2_048),
            arena: None,
        };
        assert!(report.classifier_bytes <= report.budget_bytes.unwrap());
    }

    #[test]
    fn empty_ruleset_stats_do_not_divide_by_zero() {
        let rs = RuleSet::new("empty", DimensionSpec::FIVE_TUPLE, vec![]).unwrap();
        let stats = rs.stats();
        assert_eq!(stats.rules, 0);
        assert_eq!(stats.double_wildcard_fraction, 0.0);
        assert_eq!(stats.mean_wildcard_dims, 0.0);
    }
}
