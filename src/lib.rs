//! # packet-classifier
//!
//! A full Rust reproduction of *"Energy Efficient Packet Classification
//! Hardware Accelerator"* (Kennedy, Wang & Liu, IEEE IPPS/IPDPS 2008).
//!
//! This facade crate re-exports the workspace crates so applications can use
//! a single dependency:
//!
//! * [`types`] — rules, rulesets, packets, traces ([`pclass_types`]).
//! * [`classbench`] — ClassBench-style synthetic ruleset/trace generation
//!   ([`pclass_classbench`]).
//! * [`algos`] — software baselines: linear search, original HiCuts,
//!   original HyperCuts, RFC ([`pclass_algos`]).
//! * [`core`] — the paper's contribution: hardware-oriented modified
//!   HiCuts/HyperCuts, the 4800-bit memory-word image and the cycle-accurate
//!   accelerator model ([`pclass_core`]).
//! * [`energy`] — SA-1100, ASIC, FPGA and TCAM/SRAM energy & power models
//!   ([`pclass_energy`]).
//! * [`tcam`] — functional TCAM baseline ([`pclass_tcam`]).
//! * [`engine`] — batched, multi-core serving layer over every classifier
//!   ([`pclass_engine`]).
//!
//! ## Quickstart
//!
//! ```
//! use packet_classifier::prelude::*;
//!
//! // Generate an ACL-style ruleset and a matching packet trace.
//! let ruleset = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(500);
//! let trace = TraceGenerator::new(&ruleset, 7).generate(1_000);
//!
//! // Build the hardware search structure with the modified HyperCuts
//! // algorithm and run the cycle-accurate accelerator model over the trace.
//! let config = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
//! let program = HardwareProgram::build(&ruleset, &config).unwrap();
//! let engine = Accelerator::new(&program);
//! let report = engine.classify_trace(&trace);
//!
//! // Every decision agrees with the reference linear search.
//! for (entry, result) in trace.entries().iter().zip(report.results.iter()) {
//!     assert_eq!(*result, ruleset.classify_linear(&entry.header));
//! }
//! assert!(report.cycles >= trace.len() as u64);
//! ```

#![forbid(unsafe_code)]

pub use pclass_algos as algos;
pub use pclass_classbench as classbench;
pub use pclass_core as core;
pub use pclass_energy as energy;
pub use pclass_engine as engine;
pub use pclass_tcam as tcam;
pub use pclass_types as types;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use pclass_algos::flat::{FlatTree, LaneWidth};
    pub use pclass_algos::hicuts::HiCutsClassifier;
    pub use pclass_algos::hypercuts::HyperCutsClassifier;
    pub use pclass_algos::linear::LinearClassifier;
    pub use pclass_algos::rfc::RfcClassifier;
    pub use pclass_algos::Classifier;
    pub use pclass_algos::FlatTreeClassifier;
    pub use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
    pub use pclass_core::builder::{BuildConfig, CutAlgorithm, SpeedMode};
    pub use pclass_core::hw::{Accelerator, AcceleratorClassifier, ClassificationReport};
    pub use pclass_core::program::HardwareProgram;
    pub use pclass_energy::device::{DeviceModel, TechnologyNode};
    pub use pclass_energy::sa1100::Sa1100Model;
    pub use pclass_engine::{
        AdmissionError, Engine, EngineConfig, EngineRun, LiveClassifier, LiveEngine,
        SharedClassifier, TaggedPacket, TaggedTrace, TenantId, TenantReport, TenantRouter,
        TenantRun, TenantSpec, ThroughputReport, UnknownTenant, WorkerReport,
    };
    pub use pclass_tcam::TcamClassifier;
    pub use pclass_types::{
        Dimension, DimensionSpec, FairnessSummary, FieldRange, LatencyPercentiles, MatchResult,
        MemoryReport, PacketHeader, Prefix, Rule, RuleBuilder, RuleId, RuleSet, Trace,
    };
}
