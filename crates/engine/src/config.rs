//! The builder-style construction API of the serving layer: one
//! [`EngineConfig`] that every front end is built from, and the only way
//! to build one —
//!
//! * [`EngineConfig::engine`] — a fixed [`Engine`] over one shared
//!   classifier;
//! * [`EngineConfig::live_engine`] — a [`LiveEngine`] over an epoch-swap
//!   [`LiveClassifier`];
//! * [`EngineConfig::tenant_router`] — a [`TenantRouter`] over a roster of
//!   per-tenant live classifiers.
//!
//! Knob semantics — all three front ends run the same sharded loop, so
//! the first two mean the same thing on each:
//!
//! * **workers** and **batch size** set the loop's geometry;
//! * the **hot cache** ([`EngineConfig::hot_cache`]) puts an exact-match
//!   flow cache in front of the classifier, probed once per sub-batch:
//!   one private [`pclass_algos::CachedClassifier`] per worker shard of an
//!   [`Engine`].  A [`LiveEngine`] and a [`TenantRouter`] own no cache and
//!   refuse a config that carries one — a live cell or a tenant that
//!   wants a cache wraps its classifier in a `CachedClassifier`;
//! * the **memory budget** ([`EngineConfig::memory_budget`]) bounds the
//!   [`TenantRouter`] roster's total classifier bytes — admission checks
//!   against it; the single-classifier front ends have no roster and do
//!   not consume it.
//!
//! Every setter **rejects a double-set with a panic**: two subsystems
//! configuring the same knob on one config is a wiring bug that last-wins
//! semantics would hide.
//!
//! # Example
//!
//! ```
//! use pclass_algos::LinearClassifier;
//! use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
//! use pclass_engine::EngineConfig;
//! use std::sync::Arc;
//!
//! let rs = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(100);
//! let trace = TraceGenerator::new(&rs, 7).generate(512);
//!
//! let engine = EngineConfig::new()
//!     .workers(2)
//!     .batch_size(128)
//!     .engine(Arc::new(LinearClassifier::new(rs.clone())));
//! let run = engine.classify_trace(&trace);
//! assert_eq!(run.results, trace.ground_truth(&rs));
//! ```

use crate::live::{LiveClassifier, LiveEngine};
use crate::tenant::{TenantRouter, TenantSpec};
use crate::{Engine, SharedClassifier, DEFAULT_BATCH_SIZE};
use pclass_algos::{Classifier, HotCacheConfig};
use std::sync::Arc;

/// The shared builder every serving front end is constructed through.
/// See the [module docs](self) for which front end consumes which knob.
///
/// Unset knobs resolve to their defaults at read time; every setter
/// panics on a double-set (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    workers: Option<usize>,
    batch: Option<usize>,
    hot_cache: Option<HotCacheConfig>,
    memory_budget: Option<usize>,
}

impl EngineConfig {
    /// The default configuration: 1 worker, [`DEFAULT_BATCH_SIZE`], no hot
    /// cache, no memory budget.
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// Sets the number of worker shards (clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the worker count was already set.
    pub fn workers(mut self, workers: usize) -> EngineConfig {
        assert!(
            self.workers.is_none(),
            "EngineConfig::workers set twice — the worker count is already \
             configured; a second value would silently override the first \
             subsystem's choice"
        );
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the sub-batch size (clamped to at least 1).  Smaller batches
    /// let live front ends pick up published generations sooner.
    ///
    /// # Panics
    ///
    /// Panics if the batch size was already set.
    pub fn batch_size(mut self, batch: usize) -> EngineConfig {
        assert!(
            self.batch.is_none(),
            "EngineConfig::batch_size set twice — the sub-batch size is \
             already configured; a second value would silently override the \
             first subsystem's choice"
        );
        self.batch = Some(batch.max(1));
        self
    }

    /// Puts an exact-match hot-flow cache in front of the classifier:
    /// each [`Engine`] worker shard serves it through its own private
    /// [`pclass_algos::CachedClassifier`] with this geometry.
    /// [`EngineConfig::live_engine`] and [`EngineConfig::tenant_router`]
    /// refuse a config that carries one.
    ///
    /// # Panics
    ///
    /// Panics if a hot-cache geometry was already set.
    pub fn hot_cache(mut self, cache: HotCacheConfig) -> EngineConfig {
        assert!(
            self.hot_cache.is_none(),
            "EngineConfig::hot_cache set twice — a cache geometry is \
             already configured; a second value would silently override the \
             first subsystem's choice"
        );
        self.hot_cache = Some(cache);
        self
    }

    /// Sets the router-wide memory budget in bytes, consumed by
    /// [`TenantRouter`] admission: a tenant whose classifier (its
    /// [`Classifier::memory_bytes`], a cache in front of it included)
    /// would push the roster's total past the budget is rejected with
    /// [`crate::AdmissionError::RouterOverBudget`].  The single-tenant
    /// front ends do not consume it.
    ///
    /// # Panics
    ///
    /// Panics if the budget was already set.
    pub fn memory_budget(mut self, bytes: usize) -> EngineConfig {
        assert!(
            self.memory_budget.is_none(),
            "EngineConfig::memory_budget set twice — a memory budget is \
             already configured; a second value would silently override the \
             first subsystem's choice"
        );
        self.memory_budget = Some(bytes);
        self
    }

    /// Number of worker shards.
    pub fn worker_count(&self) -> usize {
        self.workers.unwrap_or(1)
    }

    /// Sub-batch size.
    pub fn batch(&self) -> usize {
        self.batch.unwrap_or(DEFAULT_BATCH_SIZE)
    }

    /// The hot-flow cache geometry, if one is configured.
    pub fn hot_cache_config(&self) -> Option<HotCacheConfig> {
        self.hot_cache
    }

    /// The router-wide memory budget in bytes, if one is configured.
    pub fn memory_budget_bytes(&self) -> Option<usize> {
        self.memory_budget
    }

    /// Builds a fixed [`Engine`] whose worker shards all share one
    /// classifier — the common deployment, mirroring the paper's engines
    /// sharing one read-only memory image.
    pub fn engine(&self, classifier: SharedClassifier) -> Engine {
        Engine::from_config(self, classifier)
    }

    /// Builds a [`LiveEngine`] serving an epoch-swap [`LiveClassifier`],
    /// re-snapshotting per sub-batch.
    ///
    /// # Panics
    ///
    /// Panics if this config carries a [hot cache](EngineConfig::hot_cache):
    /// the live engine owns no cache, so a live cell that wants one wraps
    /// its classifier in a [`pclass_algos::CachedClassifier`] (see
    /// [`LiveEngine::classify_trace`]).
    pub fn live_engine<C: Classifier + Clone + Send + Sync>(
        &self,
        live: Arc<LiveClassifier<C>>,
    ) -> LiveEngine<C> {
        assert!(
            self.hot_cache.is_none(),
            "EngineConfig::hot_cache is one private cache per Engine worker and \
             a LiveEngine owns none — build a cached live cell as \
             LiveClassifier::new(CachedClassifier::new(classifier, HotCacheConfig::new(..)))"
        );
        LiveEngine::from_config(self, live)
    }

    /// Builds a [`TenantRouter`] over `(spec, classifier)` pairs — every
    /// tenant is declared through a [`TenantSpec`] (name, scheduling
    /// weight, memory budget), admitted in iteration order (handles come
    /// back from [`TenantRouter::tenant_ids`] in the same order), each
    /// classifier is wrapped in its own [`LiveClassifier`] (per-tenant
    /// churn isolation), and tagged traffic is served on this config's
    /// shared worker pool; inherits the router-wide
    /// [`EngineConfig::memory_budget`].
    ///
    /// # Panics
    ///
    /// Panics if the roster is empty or any declared tenant fails
    /// admission (runtime [`TenantRouter::admit`] returns the error
    /// instead), and if this config carries a
    /// [hot cache](EngineConfig::hot_cache): the router owns no cache, so
    /// a tenant that wants one is admitted behind it, as
    /// `CachedClassifier::new(classifier, HotCacheConfig::new(entries, assoc))`
    /// ([`pclass_algos::CachedClassifier`]).
    pub fn tenant_router<C: Classifier + Clone + Send + Sync>(
        &self,
        tenants: impl IntoIterator<Item = (TenantSpec, C)>,
    ) -> TenantRouter<C> {
        assert!(
            self.hot_cache.is_none(),
            "EngineConfig::hot_cache is one private cache per Engine worker and \
             a TenantRouter owns none — admit a tenant that wants a cache as \
             CachedClassifier::new(classifier, HotCacheConfig::new(..))"
        );
        TenantRouter::from_config(self, tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_algos::LinearClassifier;
    use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};

    fn workload(rules: usize, packets: usize) -> (pclass_types::RuleSet, pclass_types::Trace) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 91).generate(rules);
        let trace = TraceGenerator::new(&rs, 92).generate(packets);
        (rs, trace)
    }

    #[test]
    fn defaults_match_the_historical_constructors() {
        let config = EngineConfig::new();
        assert_eq!(config.worker_count(), 1);
        assert_eq!(config.batch(), DEFAULT_BATCH_SIZE);
        assert!(config.hot_cache_config().is_none());
        assert!(config.memory_budget_bytes().is_none());
        assert_eq!(EngineConfig::default().batch(), config.batch());
    }

    #[test]
    fn workers_and_batch_clamp_to_one() {
        let config = EngineConfig::new().workers(0).batch_size(0);
        assert_eq!(config.worker_count(), 1);
        assert_eq!(config.batch(), 1);
    }

    #[test]
    fn one_config_builds_every_front_end() {
        let (rs, trace) = workload(80, 400);
        let truth = trace.ground_truth(&rs);
        let config = EngineConfig::new().workers(3).batch_size(64);

        let engine = config.engine(Arc::new(LinearClassifier::new(rs.clone())));
        assert_eq!(engine.workers(), 3);
        assert_eq!(engine.batch_size(), 64);
        assert_eq!(engine.classify_trace(&trace).results, truth);

        let live = Arc::new(LiveClassifier::new(LinearClassifier::new(rs.clone())));
        let live_engine = config.live_engine(Arc::clone(&live));
        assert_eq!(live_engine.workers(), 3);
        assert_eq!(live_engine.classify_trace(&trace).results, truth);

        let router =
            config.tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs.clone()))]);
        assert_eq!(router.workers(), 3);
        assert_eq!(router.batch_size(), 64);
        assert_eq!(router.tenant_count(), 1);
    }

    #[test]
    #[should_panic(expected = "workers set twice")]
    fn double_set_workers_is_rejected() {
        let _ = EngineConfig::new().workers(2).workers(4);
    }

    #[test]
    #[should_panic(expected = "batch_size set twice")]
    fn double_set_batch_size_is_rejected() {
        let _ = EngineConfig::new().batch_size(64).batch_size(64);
    }

    #[test]
    #[should_panic(expected = "hot_cache set twice")]
    fn double_set_hot_cache_is_rejected() {
        let _ = EngineConfig::new()
            .hot_cache(HotCacheConfig::default())
            .hot_cache(HotCacheConfig::new(64, 2));
    }

    #[test]
    #[should_panic(expected = "memory_budget set twice")]
    fn double_set_memory_budget_is_rejected() {
        let _ = EngineConfig::new()
            .memory_budget(1 << 20)
            .memory_budget(1 << 21);
    }

    #[test]
    fn memory_budget_rides_the_config_into_the_router() {
        let (rs, _) = workload(40, 0);
        let config = EngineConfig::new().memory_budget(64 << 20);
        assert_eq!(config.memory_budget_bytes(), Some(64 << 20));
        let router =
            config.tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs.clone()))]);
        assert_eq!(router.memory_budget(), Some(64 << 20));
        assert!(router.memory_in_use() > 0);
    }

    #[test]
    #[should_panic(expected = "admit a tenant that wants a cache as CachedClassifier::new")]
    fn a_cached_config_builds_no_tenant_router() {
        let (rs, _) = workload(40, 0);
        let _ = EngineConfig::new()
            .hot_cache(HotCacheConfig::new(256, 4))
            .tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs))]);
    }

    #[test]
    #[should_panic(
        expected = "LiveClassifier::new(CachedClassifier::new(classifier, HotCacheConfig::new(..)))"
    )]
    fn a_cached_config_builds_no_live_engine() {
        let (rs, _) = workload(40, 0);
        let _ = EngineConfig::new()
            .hot_cache(HotCacheConfig::new(256, 4))
            .live_engine(Arc::new(LiveClassifier::new(LinearClassifier::new(rs))));
    }

    #[test]
    fn hot_cache_rides_the_config() {
        let config = EngineConfig::new().hot_cache(HotCacheConfig::new(256, 2));
        assert_eq!(config.hot_cache_config(), Some(HotCacheConfig::new(256, 2)));
        // The geometry survives a clone (configs are reused across cells).
        assert_eq!(
            config.clone().hot_cache_config(),
            Some(HotCacheConfig::new(256, 2))
        );
    }

    #[test]
    fn cached_engine_serves_identically_and_reports_cache_stats() {
        let (rs, trace) = workload(120, 600);
        let truth = trace.ground_truth(&rs);
        let engine = EngineConfig::new()
            .workers(2)
            .batch_size(64)
            .hot_cache(HotCacheConfig::new(512, 4))
            .engine(Arc::new(LinearClassifier::new(rs.clone())));
        // First pass fills, second pass hits; decisions never change.
        assert_eq!(engine.classify_trace(&trace).results, truth);
        assert_eq!(engine.classify_trace(&trace).results, truth);
        let stats = engine.cache_stats().expect("cache configured");
        assert!(stats.hits > 0, "second pass must hit");
        assert_eq!(stats.hits + stats.misses, 2 * trace.len() as u64);
        // An uncached engine reports no cache stats.
        let plain = EngineConfig::new().engine(Arc::new(LinearClassifier::new(rs.clone())));
        assert!(plain.cache_stats().is_none());
    }
}
