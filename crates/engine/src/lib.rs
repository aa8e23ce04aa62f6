//! Batched, multi-core serving layer over every classifier.
//!
//! The paper's parallel deployment — several search engines sharing one
//! read-only structure, each consuming a shard of the traffic — is not
//! specific to the hardware model: any [`Classifier`] can serve a sharded
//! trace the same way.  This crate writes that deployment down once, as
//! one sharded serving loop every front end is a view over; the simplest
//! view is an [`Engine`] that
//!
//! * shares one classifier handle between its worker shards
//!   (`Arc<dyn Classifier + Send + Sync>`),
//! * splits a [`Trace`] into the deterministic balanced chunks of
//!   [`pclass_types::shard_slices`] over `std::thread::scope` workers,
//! * drives each shard through [`Classifier::classify_batch`] in
//!   cache-friendly sub-batches (so classifiers with a batched override —
//!   RFC's phase-major loop, the flat decision-tree arenas'
//!   level-synchronous walk — get their locality win per shard), and
//! * merges the per-worker outputs back in trace order, together with a
//!   machine-readable [`ThroughputReport`].
//!
//! The report serializes to JSON through the workspace serde shim.
//!
//! Determinism: results are *always* packet-for-packet identical to a
//! sequential per-packet run of the same classifier — sharding only changes
//! wall-clock time, never decisions.  The integration tests enforce this
//! for every classifier in the workspace.
//!
//! Every serving front end — the fixed [`Engine`], the epoch-swap
//! [`LiveEngine`], and the multi-tenant [`tenant::TenantRouter`] — is
//! built through one [`EngineConfig`] builder (the older per-type
//! constructors are gone).  The loop itself knows no cache: an exact-match
//! hot-flow cache is a [`pclass_algos::CachedClassifier`] in front of the
//! classifier.  [`EngineConfig::hot_cache`] gives each worker shard of an
//! [`Engine`] its own; a live cell or a router tenant is cached by
//! composition instead, as a `CachedClassifier` its twins share.
//!
//! # Example
//!
//! Serve a trace over two workers and check the merged results are
//! packet-for-packet what a sequential linear search produces:
//!
//! ```
//! use pclass_engine::{EngineConfig, SharedClassifier};
//! use pclass_algos::LinearClassifier;
//! use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
//! use std::sync::Arc;
//!
//! let rs = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(100);
//! let trace = TraceGenerator::new(&rs, 7).generate(512);
//!
//! let shared: SharedClassifier = Arc::new(LinearClassifier::new(rs.clone()));
//! let engine = EngineConfig::new().workers(2).batch_size(128).engine(shared);
//! let run = engine.classify_trace(&trace);
//!
//! assert_eq!(run.results, trace.ground_truth(&rs));
//! assert_eq!(run.report.per_worker.len(), 2);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod live;
mod pool;
pub mod tenant;

pub use config::EngineConfig;
pub use live::{LiveClassifier, LiveEngine};
pub use tenant::{
    AdmissionError, TaggedPacket, TaggedTrace, TenantId, TenantReport, TenantRouter, TenantRun,
    TenantSpec, UnknownTenant,
};

use pclass_algos::{CachedClassifier, Classifier};
use pclass_types::{CacheStats, MatchResult, Trace};
use serde::Serialize;
use std::sync::Arc;

/// A classifier handle the engine can share across worker threads.
pub type SharedClassifier = Arc<dyn Classifier + Send + Sync>;

/// Default number of packets handed to [`Classifier::classify_batch`] at a
/// time.  Large enough to amortise per-batch overhead and let batched
/// implementations (RFC's phase-major loop) reuse their tables, small
/// enough that the copied header block stays in L1.
pub const DEFAULT_BATCH_SIZE: usize = 512;

/// Throughput of one worker over its shard.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkerReport {
    /// Worker index (shard index in trace order).
    pub worker: usize,
    /// Packets this worker classified.
    pub pkts: u64,
    /// Wall-clock nanoseconds the worker spent classifying.
    pub wall_ns: u64,
    /// Millions of packets per second sustained by this worker.
    pub mpps: f64,
}

/// Merged throughput measurement of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThroughputReport {
    /// Total packets classified.
    pub pkts: u64,
    /// Wall-clock nanoseconds for the whole run (slowest worker plus
    /// fork/join overhead).
    pub wall_ns: u64,
    /// Millions of packets per second over the whole run.
    pub mpps: f64,
    /// Per-worker breakdown, one entry per shard.
    pub per_worker: Vec<WorkerReport>,
}

/// Output of [`Engine::classify_trace`]: the merged decisions in trace
/// order plus the throughput measurement.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// One result per trace packet, in arrival order.
    pub results: Vec<MatchResult>,
    /// The throughput measurement of this run.
    pub report: ThroughputReport,
}

pub(crate) fn mpps(pkts: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    // pkts / (wall_ns / 1e9) / 1e6
    pkts as f64 * 1e3 / wall_ns as f64
}

/// A bank of worker shards serving one classifier.
///
/// ```
/// use pclass_algos::LinearClassifier;
/// use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
/// use pclass_engine::EngineConfig;
/// use std::sync::Arc;
///
/// let rs = ClassBenchGenerator::new(SeedStyle::Acl, 1).generate(200);
/// let trace = TraceGenerator::new(&rs, 2).generate(1_000);
/// let engine = EngineConfig::new()
///     .workers(4)
///     .engine(Arc::new(LinearClassifier::new(rs.clone())));
/// let run = engine.classify_trace(&trace);
/// assert_eq!(run.results, trace.ground_truth(&rs));
/// assert_eq!(run.report.pkts, 1_000);
/// ```
pub struct Engine {
    classifier: SharedClassifier,
    /// Under [`EngineConfig::hot_cache`], one private cache in front of
    /// `classifier` per worker (no cross-worker contention); else empty.
    cached: Vec<CachedClassifier<SharedClassifier>>,
    pool: pool::WorkerPool,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers())
            .field("batch", &self.batch_size())
            .field("classifier", &self.name())
            .finish()
    }
}

impl Engine {
    /// The canonical constructor, used by [`EngineConfig::engine`]: every
    /// worker shard shares the one classifier handle.
    pub(crate) fn from_config(config: &EngineConfig, classifier: SharedClassifier) -> Engine {
        let cached = match config.hot_cache_config() {
            Some(geometry) => (0..config.worker_count())
                .map(|_| CachedClassifier::new(Arc::clone(&classifier), geometry))
                .collect(),
            None => Vec::new(),
        };
        Engine {
            classifier,
            cached,
            pool: pool::WorkerPool::from_config(config),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.pool.workers
    }

    /// Current sub-batch size.
    pub fn batch_size(&self) -> usize {
        self.pool.batch
    }

    /// Aggregated hit/miss/eviction counters of the per-shard hot-flow
    /// caches, or `None` when the engine was built without
    /// [`EngineConfig::hot_cache`].  Counters are cumulative across every
    /// [`Engine::classify_trace`] call.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let mut caches = self.cached.iter().map(|worker| worker.cache().stats());
        let mut total = caches.next()?;
        caches.for_each(|stats| total.merge(&stats));
        Some(total)
    }

    /// Name reported by the classifier being served.
    pub fn name(&self) -> &'static str {
        self.classifier.name()
    }

    /// Classifies a whole trace, sharding it across the workers.
    ///
    /// Results are merged in trace order and are identical to what a
    /// sequential per-packet loop over the same classifier would produce.
    pub fn classify_trace(&self, trace: &Trace) -> EngineRun {
        if self.cached.is_empty() {
            self.pool.serve_trace(trace, |_| &self.classifier)
        } else {
            self.pool.serve_trace(trace, |worker| &self.cached[worker])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_algos::{
        HiCutsClassifier, HiCutsConfig, HyperCutsClassifier, HyperCutsConfig, LinearClassifier,
        RfcClassifier,
    };
    use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
    use pclass_core::builder::{BuildConfig, CutAlgorithm};
    use pclass_core::AcceleratorClassifier;
    use pclass_tcam::TcamClassifier;

    fn workload(rules: usize, packets: usize) -> (pclass_types::RuleSet, Trace) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 31).generate(rules);
        let trace = TraceGenerator::new(&rs, 32).generate(packets);
        (rs, trace)
    }

    // Local minimal roster: the canonical `pclass_bench::serving_roster`
    // lives downstream of this crate (pclass-bench depends on pclass-engine),
    // so the unit tests keep their own copy; workspace-level coverage in
    // `tests/engine_equivalence.rs` uses the canonical one.
    fn all_classifiers(rs: &pclass_types::RuleSet) -> Vec<SharedClassifier> {
        let hicuts = HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults());
        let hypercuts = HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults());
        vec![
            Arc::new(LinearClassifier::new(rs.clone())),
            Arc::new(hicuts.flatten()),
            Arc::new(hicuts),
            Arc::new(hypercuts.flatten()),
            Arc::new(hypercuts),
            Arc::new(RfcClassifier::build(rs).expect("RFC fits")),
            Arc::new(TcamClassifier::program(rs).expect("TCAM programs")),
            Arc::new(
                AcceleratorClassifier::build(
                    rs,
                    &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts),
                )
                .expect("program fits"),
            ),
        ]
    }

    #[test]
    fn every_classifier_serves_identically_at_every_worker_count() {
        let (rs, trace) = workload(250, 1_200);
        let truth = trace.ground_truth(&rs);
        for classifier in all_classifiers(&rs) {
            for workers in [1usize, 2, 4, 7] {
                let engine = EngineConfig::new()
                    .workers(workers)
                    .engine(Arc::clone(&classifier));
                assert_eq!(engine.workers(), workers);
                let run = engine.classify_trace(&trace);
                assert_eq!(run.results, truth, "{} x{workers}", engine.name());
                assert_eq!(run.report.pkts, trace.len() as u64);
                assert_eq!(run.report.per_worker.len(), workers);
                let shard_sum: u64 = run.report.per_worker.iter().map(|w| w.pkts).sum();
                assert_eq!(shard_sum, trace.len() as u64);
            }
        }
    }

    #[test]
    fn empty_trace_and_tiny_traces_are_served() {
        let (rs, _) = workload(50, 1);
        let classifier: SharedClassifier = Arc::new(LinearClassifier::new(rs.clone()));
        let engine = EngineConfig::new()
            .workers(4)
            .engine(Arc::clone(&classifier));

        let empty = Trace::from_headers("empty", vec![]);
        let run = engine.classify_trace(&empty);
        assert!(run.results.is_empty());
        assert_eq!(run.report.pkts, 0);
        assert_eq!(run.report.per_worker.len(), 4);
        assert!(run.report.per_worker.iter().all(|w| w.pkts == 0));

        // Fewer packets than workers: trailing shards idle, order preserved.
        let tiny = TraceGenerator::new(&rs, 5).generate(3);
        let run = engine.classify_trace(&tiny);
        assert_eq!(run.results, tiny.ground_truth(&rs));
        assert_eq!(run.report.pkts, 3);
    }

    #[test]
    fn sub_batch_size_does_not_change_results() {
        let (rs, trace) = workload(120, 700);
        let truth = trace.ground_truth(&rs);
        let classifier: SharedClassifier = Arc::new(RfcClassifier::build(&rs).unwrap());
        for batch in [1usize, 3, 64, 512, 10_000] {
            let engine = EngineConfig::new()
                .workers(3)
                .batch_size(batch)
                .engine(Arc::clone(&classifier));
            assert_eq!(engine.batch_size(), batch.max(1));
            assert_eq!(
                engine.classify_trace(&trace).results,
                truth,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let (rs, trace) = workload(40, 60);
        let engine = EngineConfig::new()
            .workers(0)
            .engine(Arc::new(LinearClassifier::new(rs.clone())));
        assert_eq!(engine.workers(), 1);
        assert_eq!(
            engine.classify_trace(&trace).results,
            trace.ground_truth(&rs)
        );
    }

    #[test]
    fn cached_shards_serve_every_classifier_identically() {
        // The hot cache is a transparent layer: with it in front, every
        // classifier still produces the ground truth at every worker count,
        // on a cold and on a warm cache.
        let (rs, trace) = workload(150, 800);
        let truth = trace.ground_truth(&rs);
        for classifier in all_classifiers(&rs) {
            for workers in [1usize, 3] {
                let engine = EngineConfig::new()
                    .workers(workers)
                    .batch_size(128)
                    .hot_cache(pclass_algos::HotCacheConfig::new(256, 4))
                    .engine(Arc::clone(&classifier));
                assert_eq!(engine.name(), classifier.name(), "name passes through");
                for pass in 0..2 {
                    let run = engine.classify_trace(&trace);
                    assert_eq!(
                        run.results,
                        truth,
                        "{} x{workers} pass {pass}",
                        engine.name()
                    );
                }
                let stats = engine.cache_stats().expect("cache configured");
                assert!(stats.hits > 0, "{}: warm pass must hit", engine.name());
                assert_eq!(stats.hits + stats.misses, 2 * trace.len() as u64);
                // One private cache per worker.
                assert_eq!(engine.cached.len(), workers);
                for (i, a) in engine.cached.iter().enumerate() {
                    for b in &engine.cached[..i] {
                        assert!(!Arc::ptr_eq(a.cache(), b.cache()));
                    }
                }
            }
        }
    }

    #[test]
    fn throughput_report_serializes_to_json() {
        let report = ThroughputReport {
            pkts: 2,
            wall_ns: 1_000,
            mpps: 2.0,
            per_worker: vec![WorkerReport {
                worker: 0,
                pkts: 2,
                wall_ns: 900,
                mpps: 2.2,
            }],
        };
        assert_eq!(
            serde::json::to_string(&report),
            r#"{"pkts":2,"wall_ns":1000,"mpps":2.0,"per_worker":[{"worker":0,"pkts":2,"wall_ns":900,"mpps":2.2}]}"#
        );
    }
}
