//! Shared workload construction and measurement helpers for the
//! paper-reproduction harness (the `reproduce` binary) and for the
//! workspace's integration tests.
//!
//! Every table and figure of the paper's evaluation section is regenerated
//! from these building blocks: each is a subcommand of the `reproduce`
//! binary (listed in the README's "Reproducing the paper" section).
//! Serving performance is *not* measured here: the repository benchmark
//! (`BENCHMARK.json` and the stand-alone `benchmark/` package) is the one
//! place that defines it.  What the tests share with the harness:
//!
//! * [`serving_roster`] — the single source of truth for which classifiers
//!   serve a ruleset, with explicit skip records for builds that cannot.
//! * [`trace_for`] / [`zipf_trace_for`] — the deterministic uniform and
//!   Zipf-skewed traces.
//! * [`churn`] — deterministic live-update streams (burst, deep,
//!   delete-heavy).
//!
//! # Example
//!
//! Build the serving roster for a small ACL set — the same roster the
//! engine equivalence tests and the examples share:
//!
//! ```
//! use pclass_bench::{acl_ruleset, serving_roster};
//!
//! let rs = acl_ruleset(150);
//! let roster = serving_roster(&rs);
//! let names: Vec<&str> = roster.classifiers.iter().map(|(n, _)| *n).collect();
//! assert_eq!(names[..3], ["linear", "hicuts", "hicuts-flat"]);
//! // Classifiers that cannot be built are explicit skips, never silent gaps.
//! assert_eq!(roster.classifiers.len() + roster.skipped.len(), 9);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;

use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
use pclass_algos::hypercuts::{HyperCutsClassifier, HyperCutsConfig};
use pclass_algos::{Classifier, LinearClassifier, LookupStats, OpCounters, RfcClassifier};
use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
use pclass_core::builder::{build_tree, BuildConfig, BuildError, CutAlgorithm, SpeedMode};
use pclass_core::hw::{Accelerator, AcceleratorClassifier, ClassificationReport};
use pclass_core::program::{HardwareProgram, ProgramStats};
use pclass_energy::sa1100::Sa1100Model;
use pclass_engine::SharedClassifier;
use pclass_tcam::TcamClassifier;
use pclass_types::{RuleSet, Trace};
use std::sync::Arc;

/// Deterministic seed used for every generated workload so tables are
/// reproducible run to run.
pub const WORKLOAD_SEED: u64 = 20080414; // IPDPS 2008 week

/// The ruleset sizes of the acl1 column used by Tables 2, 3, 6, 7 and 8.
pub const ACL_TABLE_SIZES: [usize; 6] = pclass_classbench::PAPER_ACL_SIZES;

/// Builds the ACL-style ruleset of a given size used by the acl1-based
/// tables (generated once at the largest size and truncated, the way the
/// paper's acl1 subsets nest).
pub fn acl_ruleset(size: usize) -> RuleSet {
    let full = ClassBenchGenerator::new(SeedStyle::Acl, WORKLOAD_SEED).generate(2_191.max(size));
    full.truncated(size, format!("acl1_{size}"))
}

/// Builds a ruleset of the given style and size (used by Table 4).
pub fn styled_ruleset(style: SeedStyle, size: usize) -> RuleSet {
    ClassBenchGenerator::new(style, WORKLOAD_SEED).generate(size)
}

/// Builds the packet trace used with a ruleset.
pub fn trace_for(ruleset: &RuleSet, packets: usize) -> Trace {
    TraceGenerator::new(ruleset, WORKLOAD_SEED ^ 0xF00D).generate(packets)
}

/// Builds the Zipf-skewed trace used with a ruleset: seeded Zipf
/// popularity over rule ranks at exponent 1 (rank `k` drawn with
/// probability ∝ `1/k` — on a 2 000-rule set the hottest 1 % of the rules
/// draws roughly 40 % of the directed packets), the heavily skewed traffic
/// a production classifier sees, repeatedly hitting the same hot rules
/// (and therefore the same tree paths).
pub fn zipf_trace_for(ruleset: &RuleSet, packets: usize) -> Trace {
    TraceGenerator::new(ruleset, WORKLOAD_SEED ^ 0x51FF)
        .zipf(1.0)
        .generate_named(packets, format!("{}_zipf_trace", ruleset.name()))
}

/// Result of measuring one software classifier over a trace.
#[derive(Debug, Clone)]
pub struct SoftwareMeasurement {
    /// Algorithm name.
    pub name: &'static str,
    /// Memory occupied by its search structure plus the ruleset (bytes).
    pub memory_bytes: usize,
    /// Average operation mix per packet.
    pub avg_ops: OpCounters,
    /// Energy per packet on the SA-1100 model (normalised, joules).
    pub energy_per_packet_j: f64,
    /// Packets per second on the SA-1100 model.
    pub packets_per_second: f64,
    /// Worst-case memory accesses of a lookup.
    pub worst_case_accesses: u64,
}

/// Measures a software classifier over a trace with the SA-1100 model.
pub fn measure_software(classifier: &dyn Classifier, trace: &Trace) -> SoftwareMeasurement {
    let model = Sa1100Model::new();
    let mut total = LookupStats::new();
    for entry in trace.entries() {
        classifier.classify_with_stats(&entry.header, &mut total);
    }
    let n = trace.len().max(1) as u64;
    let avg_ops = OpCounters {
        loads: total.ops.loads / n,
        stores: total.ops.stores / n,
        alu: total.ops.alu / n,
        branches: total.ops.branches / n,
        muls: total.ops.muls / n,
        divs: total.ops.divs / n,
    };
    SoftwareMeasurement {
        name: classifier.name(),
        memory_bytes: classifier.memory_bytes(),
        avg_ops,
        energy_per_packet_j: model.normalized_energy_j(&avg_ops),
        packets_per_second: model.packets_per_second(&avg_ops),
        worst_case_accesses: classifier.worst_case_memory_accesses().unwrap_or(0),
    }
}

/// Result of measuring the hardware accelerator over a trace.
#[derive(Debug, Clone)]
pub struct HardwareMeasurement {
    /// Cut algorithm used to build the structure.
    pub algorithm: CutAlgorithm,
    /// Layout statistics of the program.
    pub stats: ProgramStats,
    /// Trace replay report.
    pub report: ClassificationReport,
}

/// The paper-default hardware program over the full 12-bit address space.
fn hardware_program(
    ruleset: &RuleSet,
    algorithm: CutAlgorithm,
) -> Result<HardwareProgram, BuildError> {
    HardwareProgram::build_with_capacity(ruleset, &BuildConfig::paper_defaults(algorithm), 4096)
}

/// Builds the hardware program (12-bit address space) and replays the trace.
pub fn measure_hardware(
    ruleset: &RuleSet,
    trace: &Trace,
    algorithm: CutAlgorithm,
) -> Option<HardwareMeasurement> {
    let program = hardware_program(ruleset, algorithm).ok()?;
    let report = Accelerator::new(&program).classify_trace(trace);
    Some(HardwareMeasurement {
        algorithm,
        stats: *program.stats(),
        report,
    })
}

/// Plans the hardware layout even when it exceeds the addressable capacity
/// (used by Table 4 for the largest fw1-style sets).
pub fn plan_hardware(
    ruleset: &RuleSet,
    algorithm: CutAlgorithm,
) -> Option<(ProgramStats, pclass_algos::BuildStats)> {
    let config = BuildConfig::paper_defaults(algorithm);
    let (tree, build) = build_tree(ruleset, &config).ok()?;
    Some((
        HardwareProgram::plan_layout(&tree, SpeedMode::Throughput),
        build,
    ))
}

/// A classifier that could not be built for a ruleset, with the reason —
/// RFC can exceed its memory budget and the accelerator its address space
/// on the largest sets.
#[derive(Debug, Clone)]
pub struct RosterSkip {
    /// Classifier name as it would have appeared in the roster.
    pub classifier: &'static str,
    /// Human-readable build-failure reason.
    pub reason: String,
}

/// The full serving roster for one ruleset: every classifier in the
/// workspace that can serve it, plus explicit skips for the ones that
/// cannot.
pub struct ClassifierRoster {
    /// `(name, classifier)` pairs, in the fixed roster order: linear,
    /// hicuts, hicuts-flat, hypercuts, hypercuts-flat, rfc, tcam,
    /// hw-hicuts, hw-hypercuts.  Each name matches [`Classifier::name`].
    pub classifiers: Vec<(&'static str, SharedClassifier)>,
    /// Classifiers whose build failed on this ruleset.
    pub skipped: Vec<RosterSkip>,
}

fn shared<C: Classifier + Send + Sync + 'static>(
    built: Result<C, impl std::fmt::Display>,
) -> Result<SharedClassifier, String> {
    built
        .map(|c| Arc::new(c) as SharedClassifier)
        .map_err(|e| e.to_string())
}

/// Builds every classifier in the workspace for a ruleset, behind shared
/// handles the `pclass-engine` serving layer can fan out across workers.
///
/// This is the single source of truth for the serving roster — the engine
/// equivalence tests and the `serving_throughput` example use it.  A build
/// failure becomes an explicit [`RosterSkip`], never a silent gap.
pub fn serving_roster(ruleset: &RuleSet) -> ClassifierRoster {
    // Each flat arena is a deep re-packing of its pointer tree, so the tree
    // is built once and shared by the pointer entry and its flat sibling.
    let hicuts = Arc::new(software_hicuts(ruleset));
    let hypercuts = Arc::new(software_hypercuts(ruleset));
    let hw =
        |algorithm| shared(hardware_program(ruleset, algorithm).map(AcceleratorClassifier::new));
    let entries: [(&'static str, Result<SharedClassifier, String>); 9] = [
        (
            "linear",
            Ok(Arc::new(LinearClassifier::new(ruleset.clone()))),
        ),
        ("hicuts", Ok(Arc::clone(&hicuts) as SharedClassifier)),
        ("hicuts-flat", Ok(Arc::new(hicuts.flatten()))),
        ("hypercuts", Ok(Arc::clone(&hypercuts) as SharedClassifier)),
        ("hypercuts-flat", Ok(Arc::new(hypercuts.flatten()))),
        ("rfc", shared(RfcClassifier::build(ruleset))),
        ("tcam", shared(TcamClassifier::program(ruleset))),
        ("hw-hicuts", hw(CutAlgorithm::HiCuts)),
        ("hw-hypercuts", hw(CutAlgorithm::HyperCuts)),
    ];
    let mut roster = ClassifierRoster {
        classifiers: Vec::new(),
        skipped: Vec::new(),
    };
    for (name, built) in entries {
        match built {
            Ok(classifier) => roster.classifiers.push((name, classifier)),
            Err(reason) => roster.skipped.push(RosterSkip {
                classifier: name,
                reason,
            }),
        }
    }
    roster
}

/// Builds the original (software) HiCuts classifier with paper parameters.
pub fn software_hicuts(ruleset: &RuleSet) -> HiCutsClassifier {
    HiCutsClassifier::build(ruleset, &HiCutsConfig::paper_defaults())
}

/// Builds the original (software) HyperCuts classifier with paper parameters.
pub fn software_hypercuts(ruleset: &RuleSet) -> HyperCutsClassifier {
    HyperCutsClassifier::build(ruleset, &HyperCutsConfig::paper_defaults())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acl_rulesets_nest() {
        let small = acl_ruleset(60);
        let large = acl_ruleset(150);
        assert_eq!(small.len(), 60);
        assert_eq!(large.len(), 150);
        for (a, b) in small.rules().iter().zip(large.rules()) {
            assert_eq!(a.ranges, b.ranges);
        }
    }

    #[test]
    fn serving_roster_covers_every_classifier_on_small_sets() {
        let rs = acl_ruleset(150);
        let roster = serving_roster(&rs);
        let names: Vec<&str> = roster.classifiers.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "linear",
                "hicuts",
                "hicuts-flat",
                "hypercuts",
                "hypercuts-flat",
                "rfc",
                "tcam",
                "hw-hicuts",
                "hw-hypercuts"
            ]
        );
        assert!(roster.skipped.is_empty(), "{:?}", roster.skipped);
        for (name, classifier) in &roster.classifiers {
            assert_eq!(*name, classifier.name());
        }
    }

    #[test]
    fn zipf_trace_profile_is_deterministic_and_distinct_from_uniform() {
        let rs = acl_ruleset(300);
        let a = zipf_trace_for(&rs, 800);
        assert_eq!(a, zipf_trace_for(&rs, 800));
        assert_eq!(a.name(), "acl1_300_zipf_trace");
        assert_ne!(a, trace_for(&rs, 800));
    }

    #[test]
    fn measurement_helpers_produce_sane_numbers() {
        let rs = acl_ruleset(150);
        let trace = trace_for(&rs, 500);
        let sw = measure_software(&software_hicuts(&rs), &trace);
        assert!(sw.energy_per_packet_j > 0.0);
        assert!(sw.packets_per_second > 1_000.0);
        let hw = measure_hardware(&rs, &trace, CutAlgorithm::HyperCuts).expect("fits");
        assert!(hw.stats.memory_bytes > 0);
        assert_eq!(hw.report.packets(), 500);
        let planned = plan_hardware(&rs, CutAlgorithm::HyperCuts).expect("plans");
        assert_eq!(planned.0.total_words, hw.stats.total_words);
    }
}
