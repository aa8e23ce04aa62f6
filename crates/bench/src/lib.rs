//! Shared workload construction and measurement helpers for the benchmark
//! harness (`reproduce` and `throughput` binaries and the criterion
//! benches).
//!
//! Every table and figure of the paper's evaluation section is regenerated
//! from these building blocks; see `EXPERIMENTS.md` at the workspace root
//! for the experiment-by-experiment mapping and the recorded outputs.  On
//! top of the paper reproduction the crate carries the serving-throughput
//! measurement stack:
//!
//! * [`serving_roster`] / [`serving_roster_lanes`] — the single source of
//!   truth for which classifiers serve a ruleset (and at which flat-arena
//!   [`LaneWidth`]), with explicit skip records for builds that cannot;
//!   the registration list itself is the typed [`roster_entries`] table.
//! * [`scenario`] — the declarative scenario matrix: ruleset style × size
//!   × trace profile × churn profile × worker count, with `quick` tags so
//!   CI and the weekly full sweep can never drift apart.
//! * [`churn`] — deterministic live-update streams (burst, deep,
//!   delete-heavy, sustained) and the serve-under-churn measurement loop.
//! * [`check`] — the calibrated throughput-regression gate behind
//!   `throughput --check` (see `docs/SCHEMA.md` for the file format and
//!   the exact pass/fail rules).

//!
//! # Example
//!
//! Build the software serving roster for a small ACL set — the same
//! roster the `throughput` binary, the engine equivalence tests and the
//! examples all share:
//!
//! ```
//! use pclass_algos::LaneWidth;
//! use pclass_bench::{acl_ruleset, serving_roster_lanes, RosterScope};
//!
//! let rs = acl_ruleset(150);
//! let roster = serving_roster_lanes(&rs, RosterScope::Software, LaneWidth::X8);
//! let names: Vec<&str> = roster.classifiers.iter().map(|(n, _)| *n).collect();
//! assert_eq!(
//!     names,
//!     ["linear", "hicuts", "hicuts-flat", "hypercuts", "hypercuts-flat"]
//! );
//! // Out-of-scope classifiers are explicit skips, never silent gaps.
//! assert!(roster.skipped.iter().any(|s| s.classifier == "rfc"));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod churn;
pub mod scenario;

use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
use pclass_algos::hypercuts::{HyperCutsClassifier, HyperCutsConfig};
use pclass_algos::{
    Classifier, FlatSettings, LaneWidth, LinearClassifier, LookupStats, OpCounters, RfcClassifier,
};
use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
use pclass_core::builder::HwTree;
use pclass_core::builder::{BuildConfig, CutAlgorithm, SpeedMode};
use pclass_core::hw::{Accelerator, AcceleratorClassifier, ClassificationReport};
use pclass_core::program::{HardwareProgram, ProgramStats};
use pclass_energy::sa1100::Sa1100Model;
use pclass_engine::{SharedClassifier, TenantSpec};
use pclass_tcam::TcamClassifier;
use pclass_types::{ArenaStats, RuleSet, Trace};
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

/// Builds the hardware program (12-bit address space) and replays the trace.
pub fn measure_hardware(
    ruleset: &RuleSet,
    trace: &Trace,
    algorithm: CutAlgorithm,
) -> Option<HardwareMeasurement> {
    let config = BuildConfig::paper_defaults(algorithm);
    let program = HardwareProgram::build_with_capacity(ruleset, &config, 4096).ok()?;
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
    let tree = HwTree::build(ruleset, &config).ok()?;
    let build = tree.build_stats;
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

/// Footprint of one successful classifier build in the roster.
#[derive(Debug, Clone)]
pub struct RosterBuild {
    /// Classifier name (matches the roster entry).
    pub classifier: &'static str,
    /// Bytes reported by [`Classifier::memory_bytes`] (the software memory
    /// model for the pointer structures, actual in-memory bytes for the
    /// flat arenas).
    pub memory_bytes: usize,
    /// Arena layout statistics for the flat decision-tree variants.
    pub arena: Option<ArenaStats>,
}

/// The full serving roster for one ruleset: every classifier in the
/// workspace that can serve it, plus explicit skips for the ones that
/// cannot.
pub struct ClassifierRoster {
    /// `(name, classifier)` pairs, in the fixed roster order: linear,
    /// hicuts, hicuts-flat, hypercuts, hypercuts-flat, rfc, tcam,
    /// hw-hicuts, hw-hypercuts.
    pub classifiers: Vec<(&'static str, SharedClassifier)>,
    /// Classifiers whose build failed on this ruleset.
    pub skipped: Vec<RosterSkip>,
    /// Per-build memory footprint of every successful entry, in roster
    /// order (recorded in `BENCH_throughput.json`'s `builds` array).
    pub builds: Vec<RosterBuild>,
}

/// Which classifiers a scenario cell builds and serves.
///
/// The hardware accelerator model (4096-word address space), the
/// functional TCAM (range expansion, linear match) and RFC (cross-product
/// phase tables) are infeasible far below the top of the extended ruleset
/// ladder — and, worse, discovering that is itself expensive: the
/// accelerator builds its full decision tree before the layout fails, and
/// RFC's memory-budget estimate only bounds the *final* table, so at 32 k
/// rules the check passes while the cross-producting runs for tens of
/// minutes.  The scenario matrix therefore excludes them *a priori* on the
/// ≥32 k-rule cells, recorded as explicit skips so the gap in the
/// trajectory stays visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RosterScope {
    /// Every classifier in the workspace (build failures become skips).
    Full,
    /// Scalable software classifiers only: linear, the pointer trees and
    /// the flat arenas; RFC, TCAM and the accelerator models are recorded
    /// as explicit skips.
    Software,
}

/// Shared state threaded through every [`RosterEntry`] build hook.
///
/// Memoizes the HiCuts/HyperCuts pointer trees so the pointer entry and
/// its flat-arena sibling share one build (the arena is flattened *from*
/// the pointer tree; rebuilding the tree per entry would double the most
/// expensive part of roster construction on the 64 k cells), and carries
/// the flat-arena [`LaneWidth`] requested by the caller.
pub struct RosterCtx<'a> {
    ruleset: &'a RuleSet,
    lanes: LaneWidth,
    hicuts: Option<Arc<HiCutsClassifier>>,
    hypercuts: Option<Arc<HyperCutsClassifier>>,
}

impl<'a> RosterCtx<'a> {
    fn new(ruleset: &'a RuleSet, lanes: LaneWidth) -> RosterCtx<'a> {
        RosterCtx {
            ruleset,
            lanes,
            hicuts: None,
            hypercuts: None,
        }
    }

    /// The ruleset the roster is being built for.
    pub fn ruleset(&self) -> &RuleSet {
        self.ruleset
    }

    /// Flat-arena settings with the caller's lane width (the other knobs
    /// stay at their defaults).
    pub fn flat_settings(&self) -> FlatSettings {
        FlatSettings {
            lanes: self.lanes,
            ..FlatSettings::default()
        }
    }

    /// The HiCuts pointer tree, built on first use and shared afterwards.
    pub fn hicuts(&mut self) -> Arc<HiCutsClassifier> {
        Arc::clone(self.hicuts.get_or_insert_with(|| {
            Arc::new(HiCutsClassifier::build(
                self.ruleset,
                &HiCutsConfig::paper_defaults(),
            ))
        }))
    }

    /// The HyperCuts pointer tree, built on first use and shared afterwards.
    pub fn hypercuts(&mut self) -> Arc<HyperCutsClassifier> {
        Arc::clone(self.hypercuts.get_or_insert_with(|| {
            Arc::new(HyperCutsClassifier::build(
                self.ruleset,
                &HyperCutsConfig::paper_defaults(),
            ))
        }))
    }
}

/// What one build hook returns: the classifier behind a shared handle,
/// plus arena layout statistics for the flat decision-tree variants.
pub type RosterBuildResult = Result<(SharedClassifier, Option<ArenaStats>), String>;

/// One registered classifier in the serving roster.
///
/// The roster used to be assembled by a single function with name-matched
/// special cases (which classifiers the `Software` scope skips, which
/// entries carry arena stats); each entry now declares its own scope and
/// skip reason, so adding a classifier to the workspace means adding one
/// entry to [`roster_entries`] — no string matching anywhere.
pub struct RosterEntry {
    /// Roster name; matches [`Classifier::name`], so run and skip records
    /// in `BENCH_throughput.json` always correlate.
    pub name: &'static str,
    /// The narrowest [`RosterScope`] that includes this entry:
    /// [`RosterScope::Software`] entries serve in every scope,
    /// [`RosterScope::Full`] entries only when the full roster is asked
    /// for.
    pub scope: RosterScope,
    /// Builds the classifier; a build failure (`Err`) becomes an explicit
    /// [`RosterSkip`], never a silent gap.
    pub build: fn(&mut RosterCtx) -> RosterBuildResult,
    /// For [`RosterScope::Full`] entries: the reason recorded when a
    /// narrower scope excludes the entry *a priori* (without attempting
    /// the build).  `None` for entries that serve in every scope.
    pub scope_skip: Option<fn(&RuleSet) -> String>,
    /// Starts the [`TenantSpec`] used when this classifier serves a
    /// tenant of a `TenantRouter` cell — the tenant matrix and the
    /// serving roster share one declaration style, so a classifier with
    /// special tenant policy (a tighter memory budget, a different cache
    /// share) declares it here instead of inside the harness.
    pub spec: fn(String) -> TenantSpec,
}

/// The default [`RosterEntry::spec`] hook: a plain spec with the builder
/// defaults (weight 1, no memory budget, cache share = weight).
pub fn default_tenant_spec(name: String) -> TenantSpec {
    TenantSpec::new(name)
}

fn build_linear(ctx: &mut RosterCtx) -> RosterBuildResult {
    Ok((Arc::new(LinearClassifier::new(ctx.ruleset().clone())), None))
}

fn build_hicuts(ctx: &mut RosterCtx) -> RosterBuildResult {
    Ok((ctx.hicuts(), None))
}

fn build_hicuts_flat(ctx: &mut RosterCtx) -> RosterBuildResult {
    // The flat variant shares nothing with its pointer tree at serve
    // time: the arena is a deep re-packing, so both layouts can be
    // measured side by side.
    let flat = ctx.hicuts().flatten().with_settings(ctx.flat_settings());
    let arena = flat.arena_stats();
    Ok((Arc::new(flat), Some(arena)))
}

fn build_hypercuts(ctx: &mut RosterCtx) -> RosterBuildResult {
    Ok((ctx.hypercuts(), None))
}

fn build_hypercuts_flat(ctx: &mut RosterCtx) -> RosterBuildResult {
    let flat = ctx.hypercuts().flatten().with_settings(ctx.flat_settings());
    let arena = flat.arena_stats();
    Ok((Arc::new(flat), Some(arena)))
}

fn build_rfc(ctx: &mut RosterCtx) -> RosterBuildResult {
    RfcClassifier::build(ctx.ruleset())
        .map(|rfc| (Arc::new(rfc) as SharedClassifier, None))
        .map_err(|e| e.to_string())
}

fn build_tcam(ctx: &mut RosterCtx) -> RosterBuildResult {
    TcamClassifier::program(ctx.ruleset())
        .map(|tcam| (Arc::new(tcam) as SharedClassifier, None))
        .map_err(|e| e.to_string())
}

fn build_hw(ctx: &mut RosterCtx, algorithm: CutAlgorithm) -> RosterBuildResult {
    let config = BuildConfig::paper_defaults(algorithm);
    HardwareProgram::build_with_capacity(ctx.ruleset(), &config, 4096)
        .map(|program| {
            (
                Arc::new(AcceleratorClassifier::new(program)) as SharedClassifier,
                None,
            )
        })
        .map_err(|e| e.to_string())
}

fn build_hw_hicuts(ctx: &mut RosterCtx) -> RosterBuildResult {
    build_hw(ctx, CutAlgorithm::HiCuts)
}

fn build_hw_hypercuts(ctx: &mut RosterCtx) -> RosterBuildResult {
    build_hw(ctx, CutAlgorithm::HyperCuts)
}

// RFC's memory-budget estimate only bounds the *final* table; at 32 k
// rules the estimate passes but the phase cross-producting itself runs
// for tens of minutes, so past the 10 k wall RFC is excluded a priori
// like the hardware models rather than discovered-by-stall.
fn rfc_scope_skip(ruleset: &RuleSet) -> String {
    format!(
        "excluded by the scenario matrix at {} rules (phase-table \
         cross-producting is unbounded in time past the 10k wall \
         even when the final table fits the memory budget)",
        ruleset.len()
    )
}

fn hardware_scope_skip(ruleset: &RuleSet) -> String {
    format!(
        "excluded by the scenario matrix at {} rules (hardware model \
         address space and TCAM range expansion are infeasible at \
         this size)",
        ruleset.len()
    )
}

/// The registration list behind [`serving_roster`]: every classifier in
/// the workspace, in the fixed roster order.  Adding a classifier to the
/// workspace means adding exactly one entry here.
pub fn roster_entries() -> [RosterEntry; 9] {
    [
        RosterEntry {
            name: "linear",
            scope: RosterScope::Software,
            build: build_linear,
            scope_skip: None,
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "hicuts",
            scope: RosterScope::Software,
            build: build_hicuts,
            scope_skip: None,
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "hicuts-flat",
            scope: RosterScope::Software,
            build: build_hicuts_flat,
            scope_skip: None,
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "hypercuts",
            scope: RosterScope::Software,
            build: build_hypercuts,
            scope_skip: None,
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "hypercuts-flat",
            scope: RosterScope::Software,
            build: build_hypercuts_flat,
            scope_skip: None,
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "rfc",
            scope: RosterScope::Full,
            build: build_rfc,
            scope_skip: Some(rfc_scope_skip),
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "tcam",
            scope: RosterScope::Full,
            build: build_tcam,
            scope_skip: Some(hardware_scope_skip),
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "hw-hicuts",
            scope: RosterScope::Full,
            build: build_hw_hicuts,
            scope_skip: Some(hardware_scope_skip),
            spec: default_tenant_spec,
        },
        RosterEntry {
            name: "hw-hypercuts",
            scope: RosterScope::Full,
            build: build_hw_hypercuts,
            scope_skip: Some(hardware_scope_skip),
            spec: default_tenant_spec,
        },
    ]
}

/// Builds every classifier in the workspace for a ruleset, behind shared
/// handles the `pclass-engine` serving layer can fan out across workers.
///
/// This is the single source of truth for the serving roster — the
/// `throughput` binary, the engine equivalence tests and the
/// `serving_throughput` example all use it; the registration list itself
/// is [`roster_entries`].
pub fn serving_roster(ruleset: &RuleSet) -> ClassifierRoster {
    serving_roster_scoped(ruleset, RosterScope::Full)
}

/// [`serving_roster`] restricted to a [`RosterScope`] — the scenario matrix
/// uses [`RosterScope::Software`] for its ≥32 k-rule cells.
pub fn serving_roster_scoped(ruleset: &RuleSet, scope: RosterScope) -> ClassifierRoster {
    serving_roster_lanes(ruleset, scope, LaneWidth::default())
}

/// [`serving_roster_scoped`] with an explicit [`LaneWidth`] for the flat
/// arena walk.  The `throughput` binary's `--lane-width` flag routes here,
/// so the batched vector walk and the scalar fallback
/// ([`LaneWidth::Scalar`]) can be A/B-measured through the same engine
/// path; every other classifier in the roster ignores the setting.
pub fn serving_roster_lanes(
    ruleset: &RuleSet,
    scope: RosterScope,
    lanes: LaneWidth,
) -> ClassifierRoster {
    let mut ctx = RosterCtx::new(ruleset, lanes);
    let mut classifiers: Vec<(&'static str, SharedClassifier)> = Vec::new();
    let mut skipped = Vec::new();
    let mut builds = Vec::new();
    for entry in roster_entries() {
        if scope == RosterScope::Software && entry.scope == RosterScope::Full {
            let skip = entry
                .scope_skip
                .expect("Full-scope roster entries must declare a scope-skip reason");
            skipped.push(RosterSkip {
                classifier: entry.name,
                reason: skip(ruleset),
            });
            continue;
        }
        match (entry.build)(&mut ctx) {
            Ok((classifier, arena)) => {
                builds.push(RosterBuild {
                    classifier: entry.name,
                    memory_bytes: classifier.memory_bytes(),
                    arena,
                });
                classifiers.push((entry.name, classifier));
            }
            Err(reason) => skipped.push(RosterSkip {
                classifier: entry.name,
                reason,
            }),
        }
    }
    ClassifierRoster {
        classifiers,
        skipped,
        builds,
    }
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
        // Roster names match what the classifiers report about themselves,
        // so run records and skip records in BENCH_throughput.json always
        // correlate.
        for (name, classifier) in &roster.classifiers {
            assert_eq!(*name, classifier.name());
        }
        // One build record per entry, arena stats only on the flat variants.
        assert_eq!(roster.builds.len(), roster.classifiers.len());
        for build in &roster.builds {
            assert!(build.memory_bytes > 0, "{}", build.classifier);
            assert_eq!(
                build.arena.is_some(),
                build.classifier.ends_with("-flat"),
                "{}",
                build.classifier
            );
        }
    }

    #[test]
    fn software_scope_excludes_hardware_models_with_explicit_skips() {
        let rs = acl_ruleset(150);
        let roster = serving_roster_scoped(&rs, RosterScope::Software);
        let names: Vec<&str> = roster.classifiers.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "linear",
                "hicuts",
                "hicuts-flat",
                "hypercuts",
                "hypercuts-flat"
            ]
        );
        let skipped: Vec<&str> = roster.skipped.iter().map(|s| s.classifier).collect();
        assert_eq!(skipped, ["rfc", "tcam", "hw-hicuts", "hw-hypercuts"]);
        for skip in &roster.skipped {
            assert!(
                skip.reason.contains("scenario matrix"),
                "skip reason must say why: {}",
                skip.reason
            );
        }
        assert_eq!(roster.builds.len(), roster.classifiers.len());
    }

    #[test]
    fn roster_entries_declare_consistent_scopes_and_unique_names() {
        let entries = roster_entries();
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "duplicate roster entry name");
        for entry in &entries {
            // Entries outside the Software scope must explain their
            // exclusion; always-on entries must not carry a stale reason.
            assert_eq!(
                entry.scope_skip.is_some(),
                entry.scope == RosterScope::Full,
                "{}: scope_skip must be present iff scope is Full",
                entry.name
            );
            if let Some(skip) = entry.scope_skip {
                assert!(
                    skip(&acl_ruleset(60)).contains("scenario matrix"),
                    "{}: skip reason must say why",
                    entry.name
                );
            }
        }
    }

    #[test]
    fn roster_entries_start_tenant_specs_named_after_the_tenant() {
        for entry in roster_entries() {
            let spec = (entry.spec)(format!("{}_t0", entry.name));
            assert_eq!(spec.name(), format!("{}_t0", entry.name));
            // Every current entry uses the builder defaults; an entry
            // that tightens its policy changes this hook, not the
            // harness.
            assert_eq!(spec.weight_value(), 1);
            assert_eq!(spec.cache_share_value(), 1);
            assert!(spec.memory_budget_bytes().is_none());
        }
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
