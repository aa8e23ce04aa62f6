//! The paper's primary contribution: hardware-oriented modified
//! HiCuts/HyperCuts and a cycle-accurate model of the energy-efficient
//! packet-classification hardware accelerator (Kennedy, Wang & Liu, 2008).
//!
//! The crate is organised the way the hardware flow is:
//!
//! 1. [`builder`] — the *modified* HiCuts and HyperCuts (Section 3 of the
//!    paper) as cut policies over `pclass_algos::dtree::TreeBuilder`: cuts
//!    start at 32 and are capped at 256, the region-compaction and
//!    push-common-rules heuristics are removed, and cut boundaries are
//!    restricted to what the accelerator's 8-bit mask/shift child-selection
//!    logic can express.  [`builder::build_tree`] returns the flat arena
//!    the builder emits — the kind the software classifiers walk — in
//!    build order.
//! 2. [`encode`] — bit-exact encodings of the 160-bit leaf rule format and
//!    the internal-node format used inside a 4800-bit memory word.
//! 3. [`program`] — [`program::HardwareProgram`]: that tree, read
//!    through `FlatTree::node`, serialised into 4800-bit memory words
//!    (internal nodes first, then
//!    leaves, packed according to the *speed* parameter), i.e. exactly what
//!    would be written into the FPGA block RAMs / ASIC SRAM at configuration
//!    time.  Building a program also *loads* it: the emitted words are read
//!    back and decoded once into a private host-side mirror, and an image
//!    that does not hang together fails there.
//! 4. [`hw`] — [`hw::Accelerator`]: a cycle-accurate software model of the
//!    datapath of Figures 4 and 5 (registers A/B/C, one 4800-bit word fetch
//!    per cycle, 30 parallel rule comparators, root-node traversal of the
//!    next packet overlapped with the leaf search of the current one).  Per
//!    packet it walks the decoded mirror, never the bits, which keeps its
//!    host cost near that of a software tree walk.
//! 5. Deployment — [`hw::Accelerator::classify_trace_banked`] replays a
//!    trace over a lock-step bank of engines (the "multiple memory blocks
//!    in parallel" deployment the introduction describes), and
//!    [`hw::AcceleratorClassifier`] puts the same accelerator behind the
//!    generic software `Classifier` trait, which is how the `pclass-engine`
//!    serving layer drives it multi-core.
//!
//! Every classification decision produced by the accelerator model is
//! checked against linear search in the test suite; cycle counts follow the
//! formulas of Eqs. 5 and 7 of the paper.

//!
//! # Example
//!
//! Compile a ruleset into the accelerator's memory image and replay a
//! trace through the cycle-accurate model:
//!
//! ```
//! use pclass_core::builder::{BuildConfig, CutAlgorithm};
//! use pclass_core::hw::Accelerator;
//! use pclass_core::program::HardwareProgram;
//! use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
//!
//! let rs = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(120);
//! let trace = TraceGenerator::new(&rs, 7).generate(200);
//!
//! let config = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
//! let program = HardwareProgram::build(&rs, &config).unwrap();
//! let report = Accelerator::new(&program).classify_trace(&trace);
//!
//! assert_eq!(report.results, trace.ground_truth(&rs));
//! assert!(report.cycles >= trace.len() as u64);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod builder;
pub mod encode;
pub mod hw;
mod mirror;
pub mod program;

pub use builder::{BuildConfig, BuildError, CutAlgorithm, SpeedMode};
pub use hw::{Accelerator, AcceleratorClassifier, ClassificationReport};
pub use program::{HardwareProgram, ProgramStats};

/// Width of one hardware memory word in bits (Section 3 of the paper).
pub const WORD_BITS: usize = 4800;

/// Width of one hardware memory word in bytes.
pub const WORD_BYTES: usize = WORD_BITS / 8;

/// Number of 64-bit limbs backing one memory word.
pub const WORD_LIMBS: usize = WORD_BITS / 64;

/// Number of 160-bit rules that fit in one memory word.
pub const RULES_PER_WORD: usize = 30;

/// Bits used to encode one rule in a leaf.
pub const RULE_BITS: usize = 160;

/// Maximum number of cuts an internal node may perform (the paper's cap).
pub const MAX_CUTS: u32 = 256;

/// Default number of memory words the accelerator addresses (the paper's
/// FPGA configuration: 1024 words x 4800 bits = 614,400 bytes).
pub const DEFAULT_WORD_CAPACITY: usize = 1024;
