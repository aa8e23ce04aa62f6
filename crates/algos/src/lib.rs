//! Software packet-classification baselines.
//!
//! The paper compares its hardware accelerator against software algorithms
//! running on the processing engine of a programmable network processor
//! (a StrongARM SA-1100 in the companion study, reference \[12\] of the
//! paper).  This crate implements
//! those baselines, fully instrumented so that the energy models in
//! `pclass-energy` can translate their work into joules:
//!
//! * [`linear::LinearClassifier`] — priority-ordered linear search, the
//!   correctness reference.
//! * [`hicuts::HiCutsClassifier`] — the *original* HiCuts algorithm
//!   (Gupta & McKeown), cuts starting at 2 and doubling under the spfac
//!   space constraint (Eq. 1 of the paper).
//! * [`hypercuts::HyperCutsClassifier`] — the *original* HyperCuts algorithm
//!   (Singh et al.), multi-dimensional cuts with the region-compaction and
//!   push-common-rule-subsets-upwards heuristics the paper later removes.
//! * [`rfc::RfcClassifier`] — Recursive Flow Classification, the fastest
//!   software algorithm in the paper's comparison (§5.2 quotes a ×546
//!   speed-up of the ASIC over RFC).
//!
//! Both cut-tree classifiers are one type,
//! [`dtree::CutTreeClassifier`], over the cache-compact flat arena
//! ([`flat::FlatTree`]) their builder emits: the built tree serves that
//! arena with a batched level-synchronous traversal, takes rule updates on
//! it in place, and reports it, as `hicuts-flat` / `hypercuts-flat`.
//!
//! The *modified*, hardware-oriented HiCuts/HyperCuts variants live in
//! `pclass-core`; they share the [`counters`] instrumentation defined here so
//! that build-energy comparisons (Table 3) use identical accounting.

//!
//! # Example
//!
//! Build a HiCuts tree and check its batched lane walk against linear
//! search:
//!
//! ```
//! use pclass_algos::Classifier;
//! use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
//! use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
//!
//! let rs = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(120);
//! let trace = TraceGenerator::new(&rs, 7).generate(256);
//!
//! let tree = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
//!
//! let headers: Vec<_> = trace.headers().copied().collect();
//! let mut out = Vec::new();
//! tree.classify_batch(&headers, &mut out);
//! for (header, got) in headers.iter().zip(&out) {
//!     assert_eq!(*got, rs.classify_linear(header));
//! }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod dtree;
pub mod flat;
pub mod hicuts;
pub mod hotcache;
pub mod hypercuts;
pub mod linear;
pub mod rfc;
pub mod update;

pub use counters::{BuildStats, LookupStats, OpCounters};
pub use flat::{FlatTree, LaneWidth};
pub use hicuts::{HiCutsClassifier, HiCutsConfig};
pub use hotcache::{CachedClassifier, HotCache, HotCacheConfig};
pub use hypercuts::{HyperCutsClassifier, HyperCutsConfig};
pub use linear::LinearClassifier;
pub use rfc::{RfcClassifier, RfcError};
pub use update::{RuleUpdate, UpdatableClassifier, UpdateError};

use pclass_types::{MatchResult, PacketHeader};

/// The name the repository benchmark serves the HiCuts arena under: the
/// built [`HiCutsClassifier`] itself.  It stays only while the benchmark
/// names it, and goes with ROADMAP item 1.
pub type FlatTreeClassifier = HiCutsClassifier;

/// Common interface of every software classifier in the workspace.
///
/// All implementations return exactly the same decision as
/// [`pclass_types::RuleSet::classify_linear`]; the integration tests enforce
/// this equivalence on generated rulesets and traces.
pub trait Classifier {
    /// Short algorithm name used in reports (e.g. `"hicuts"`).
    fn name(&self) -> &'static str;

    /// Classifies one packet.
    fn classify(&self, pkt: &PacketHeader) -> MatchResult;

    /// Classifies a batch of packets, appending one result per packet to
    /// `out` in input order.
    ///
    /// The default implementation is a per-packet loop; implementations with
    /// exploitable data locality should override it with a cache-friendly
    /// batched loop (RFC runs each phase table over the whole batch so the
    /// table stays hot — see `rfc`; the flat decision-tree arenas advance
    /// the whole batch through the tree level by level — see `flat`).  The
    /// serving layer in `pclass-engine`
    /// feeds every classifier through this method, so an override speeds up
    /// batched serving without touching any call site.
    ///
    /// Implementations must be pure batching: the results must be exactly
    /// what per-packet [`Classifier::classify`] calls would produce.
    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        out.reserve(pkts.len());
        for pkt in pkts {
            out.push(self.classify(pkt));
        }
    }

    /// Classifies one packet and records the work performed (memory accesses,
    /// comparisons, ALU operations) into `stats`.
    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult;

    /// Bytes of memory occupied by the search structure *and* the stored
    /// ruleset.  A cut tree counts its arena's real bytes (its
    /// [`dtree::MemoryModel`] bytes, Table 2's, are
    /// [`dtree::CutTreeClassifier::model_bytes`]); linear search and RFC
    /// count theirs under the same software model.
    fn memory_bytes(&self) -> usize;

    /// Worst-case number of memory accesses a single classification can
    /// perform (the software column of Table 8), when the structure makes a
    /// static bound available.
    fn worst_case_memory_accesses(&self) -> Option<u64> {
        None
    }

    /// Arena layout statistics when the structure is a flat arena
    /// ([`dtree::CutTreeClassifier`] overrides this); `None` for the other
    /// structures.  The multi-tenant serving layer
    /// folds this into its per-tenant memory reports.
    fn arena_stats(&self) -> Option<pclass_types::ArenaStats> {
        None
    }
}

/// Shared handles classify like what they point at — including unsized
/// targets, so an `Arc<dyn Classifier + Send + Sync>` is itself a
/// [`Classifier`] and composes with wrappers such as
/// [`hotcache::CachedClassifier`].  Every method delegates, so a batched
/// override behind the handle keeps its locality win.
impl<T: Classifier + ?Sized> Classifier for std::sync::Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        (**self).classify(pkt)
    }

    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        (**self).classify_batch(pkts, out)
    }

    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
        (**self).classify_with_stats(pkt, stats)
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        (**self).worst_case_memory_accesses()
    }

    fn arena_stats(&self) -> Option<pclass_types::ArenaStats> {
        (**self).arena_stats()
    }
}
