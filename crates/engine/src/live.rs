//! Epoch-based serving of a classifier under live rule updates.
//!
//! The paper's deployment shares one *read-only* memory image between its
//! search engines; real rulesets churn while traffic keeps flowing.
//! [`LiveClassifier`] squares the two with an epoch (snapshot) swap built
//! from `std` primitives only:
//!
//! * the **read path** is an `Arc` snapshot behind an `RwLock` taken for
//!   nanoseconds per batch — workers clone the `Arc` at the start of a
//!   sub-batch and classify the whole batch on that immutable snapshot,
//!   draining in flight while newer generations are published;
//! * the **write path** is a left-right pair (`Mutex`): beside the
//!   published snapshot it keeps the snapshot the last publish *retired*,
//!   and the updates the published one has absorbed since.  Once the
//!   retired twin's readers have drained, `Arc` uniqueness proves nobody
//!   can see it, so [`LiveClassifier::apply_batch`] replays those updates
//!   onto it, patches the new burst in through [`UpdatableClassifier`]'s
//!   rebuild-free `insert`/`delete`, and swaps the twins, bumping a
//!   generation counter.  A publish therefore costs what changed — twice,
//!   once per twin — and not what exists: nothing is copied, allocated or
//!   freed.
//!
//! Serving therefore never blocks on an update (readers hold the lock only
//! to clone the `Arc`, writers only to swap a pointer), an update never
//! waits for serving (a retired twin a reader still holds is replaced by a
//! copy of the published one, the only whole-structure clone left), updates
//! never touch a structure a reader can see, and every served batch is
//! classified by exactly one consistent generation.  [`LiveEngine`] is the
//! multi-worker serving loop over a [`LiveClassifier`]: the trace is
//! sharded like [`crate::Engine`], but each worker re-snapshots per
//! sub-batch, so a ruleset change lands mid-trace without stopping the
//! stream.
//!
//! Two costs come with the pair.  Each twin absorbs every update, so work
//! the update path amortizes (a flat arena's re-flatten) runs once per
//! twin, on two consecutive bursts.  And a caller that holds a
//! [`LiveClassifier::snapshot`] across two publishes pins the retired twin
//! when the second one wants it, which costs that publish a clone.

use crate::pool::WorkerPool;
use crate::{EngineConfig, EngineRun};
use pclass_algos::update::{RuleUpdate, UpdatableClassifier, UpdateError};
use pclass_algos::Classifier;
use pclass_types::Trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A classifier served through swappable immutable snapshots, updated by
/// patching the snapshot the previous publish retired.  See the module
/// docs.
pub struct LiveClassifier<C> {
    snapshot: RwLock<Arc<C>>,
    writer: Mutex<WriteSide<C>>,
    generation: AtomicU64,
}

/// The off-line half of the left-right pair.
struct WriteSide<C> {
    /// The snapshot the last publish retired (`None` before the first
    /// one).  Readers that took it earlier may still hold it; nobody can
    /// take it any more.
    spare: Option<Arc<C>>,
    /// The updates the published snapshot has absorbed and `spare` has
    /// not.
    lag: Vec<RuleUpdate>,
}

impl<C: Classifier + Clone> LiveClassifier<C> {
    /// Wraps a classifier: generation 0 serves its initial state.  The
    /// cell holds that one copy until the first update.
    pub fn new(classifier: C) -> LiveClassifier<C> {
        LiveClassifier {
            snapshot: RwLock::new(Arc::new(classifier)),
            writer: Mutex::new(WriteSide {
                spare: None,
                lag: Vec::new(),
            }),
            generation: AtomicU64::new(0),
        }
    }

    /// The current immutable snapshot.  Cheap (one `Arc` clone under a
    /// read lock); hold it for at most a batch: the next publish but one
    /// patches this snapshot in place if every handle to it is gone, and
    /// pays a whole-structure clone if one is not.
    pub fn snapshot(&self) -> Arc<C> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// Number of published update generations (0 = never updated).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

impl<C: UpdatableClassifier + Clone> LiveClassifier<C> {
    /// Applies a burst of updates to the retired twin and publishes it as
    /// the next snapshot generation, retiring the one it displaces.
    ///
    /// The burst is applied atomically with respect to readers: no served
    /// batch ever observes a prefix of it.  On error the failed update and
    /// everything after it are dropped but earlier updates of the burst
    /// are still published (the twin has already absorbed them).
    ///
    /// The cost is the burst plus a replay of the previous one, and no
    /// whole-structure clone — except on the first publish, which has no
    /// retired twin yet, and on one that finds a reader still holding the
    /// retired twin: those copy the published snapshot instead, so an
    /// update never waits for a reader.
    ///
    /// A burst that absorbs nothing publishes nothing: the snapshot and
    /// the generation stay as they were (no invalidation of
    /// generation-tagged cache entries), and the call returns the error,
    /// or `Ok` of the current generation.  An empty burst is free.  One
    /// whose first update is rejected learns that by trying it on the
    /// twin, so it pays the copy if it is the call that has to make one —
    /// and keeps the copy, so the bursts after it, rejected or not, do
    /// not.
    pub fn apply_batch(&self, updates: &[RuleUpdate]) -> Result<u64, UpdateError> {
        if updates.is_empty() {
            return Ok(self.generation());
        }
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let WriteSide { spare, lag } = &mut *writer;
        // Sole ownership of the retired `Arc` is the proof that its last
        // reader has finished.  A twin that is still held is dropped right
        // here, not waited for — and not under the snapshot lock below.
        let drained = spare
            .take()
            .and_then(|mut twin| Arc::get_mut(&mut twin).is_some().then_some(twin));
        let mut next = drained.unwrap_or_else(|| {
            lag.clear();
            Arc::new((*self.snapshot()).clone())
        });
        let twin = Arc::get_mut(&mut next).expect("no other handle to the twin exists");
        for update in lag.drain(..) {
            // The twins have absorbed the same updates up to this one,
            // acceptance depends on nothing else, and the published twin
            // accepted it.
            twin.apply(&update)
                .expect("the other twin absorbed this update");
        }
        let mut absorbed = 0usize;
        let result = updates
            .iter()
            .try_for_each(|u| twin.apply(u).map(|()| absorbed += 1));
        if absorbed == 0 {
            // Level with the published snapshot: the next burst starts
            // from here.
            *spare = Some(next);
            return result.map(|()| self.generation());
        }
        let (retired, generation) = {
            // The critical section is a pointer swap, a load and a store.
            // The displaced snapshot is moved out, never dropped here:
            // freeing an arena (a multi-MiB `munmap`) would park every
            // reader on this lock.  The generation advances inside the
            // section, so a snapshot is never newer than a `generation()`
            // read after it — the bracket `tests/scenario_matrix.rs`'s
            // straddle oracle reads around a pass; writers are already
            // serialised by the writer mutex, so a load+store is race-free.
            let mut snapshot = self.snapshot.write().expect("snapshot lock poisoned");
            let retired = std::mem::replace(&mut *snapshot, next);
            let generation = self.generation.load(Ordering::Relaxed) + 1;
            self.generation.store(generation, Ordering::Release);
            (retired, generation)
        };
        *spare = Some(retired);
        lag.extend_from_slice(&updates[..absorbed]);
        result.map(|()| generation)
    }

    /// Runs a closure against the newest state — the published snapshot —
    /// with the write side locked, so no publish lands while it runs (used
    /// to inspect update statistics mid-stream).
    pub fn with_writer<T>(&self, f: impl FnOnce(&C) -> T) -> T {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        f(&self.snapshot())
    }
}

/// A bank of worker shards serving a [`LiveClassifier`], re-snapshotting
/// at every sub-batch boundary so published updates land mid-trace.
///
/// Results are packet-for-packet what the per-batch snapshots decide — for
/// a quiescent classifier (no updates in flight) that is exactly what
/// [`crate::Engine`] over the same classifier produces.
pub struct LiveEngine<C> {
    live: Arc<LiveClassifier<C>>,
    pool: WorkerPool,
}

impl<C: Classifier + Clone + Send + Sync> LiveEngine<C> {
    /// The canonical constructor, used by [`EngineConfig::live_engine`];
    /// inherits the config's workers and batch size.
    pub(crate) fn from_config(
        config: &EngineConfig,
        live: Arc<LiveClassifier<C>>,
    ) -> LiveEngine<C> {
        LiveEngine {
            live,
            pool: WorkerPool::from_config(config),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.pool.workers
    }

    /// The shared live classifier.
    pub fn live(&self) -> &LiveClassifier<C> {
        &self.live
    }

    /// Classifies a whole trace, sharding it across the workers; each
    /// sub-batch is served by the snapshot current at its start.  A cell
    /// built over a [`pclass_algos::CachedClassifier`] is served through
    /// its one cache: every update moves the updated twin to a fresh
    /// generation of it, so a sub-batch only ever consumes entries filled
    /// from the exact ruleset it classifies against.
    pub fn classify_trace(&self, trace: &Trace) -> EngineRun {
        // Re-snapshot per sub-batch: a generation published mid-shard
        // serves the remaining batches, while this batch drains on the
        // snapshot it started with.
        self.pool.serve_trace(trace, |_| self.live.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_algos::update::classify_live_linear;
    use pclass_algos::{HiCutsClassifier, HiCutsConfig, LookupStats};
    use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
    use pclass_types::{DimensionSpec, MatchResult, PacketHeader, Rule, RuleId, UpdateStats};
    use std::sync::atomic::AtomicUsize;

    fn workload(rules: usize, packets: usize) -> (pclass_types::RuleSet, Trace) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 77).generate(rules);
        let trace = TraceGenerator::new(&rs, 78).generate(packets);
        (rs, trace)
    }

    fn flat_for(rs: &pclass_types::RuleSet) -> HiCutsClassifier {
        HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults())
    }

    #[test]
    fn quiescent_live_engine_matches_ground_truth_at_every_worker_count() {
        let (rs, trace) = workload(200, 900);
        let truth = trace.ground_truth(&rs);
        let live = Arc::new(LiveClassifier::new(flat_for(&rs)));
        for workers in [1usize, 2, 4] {
            let engine = EngineConfig::new()
                .workers(workers)
                .live_engine(Arc::clone(&live));
            let run = engine.classify_trace(&trace);
            assert_eq!(run.results, truth, "x{workers}");
            assert_eq!(run.report.pkts, trace.len() as u64);
            assert_eq!(run.report.per_worker.len(), workers);
        }
        assert_eq!(live.generation(), 0);
    }

    #[test]
    fn apply_batch_publishes_a_new_generation_readers_pick_up() {
        let (rs, trace) = workload(120, 400);
        let live = LiveClassifier::new(flat_for(&rs));
        let old = live.snapshot();
        let spec = *rs.spec();
        let updates = vec![
            RuleUpdate::Delete(3),
            RuleUpdate::Insert(Rule::wildcard(rs.len() as u32 + 5, &spec)),
        ];
        assert_eq!(live.apply_batch(&updates).unwrap(), 1);
        assert_eq!(live.generation(), 1);
        // The pre-update snapshot still serves the old ruleset (drain).
        let pkt = trace.entries()[0].header;
        assert_eq!(old.classify(&pkt), rs.classify_linear(&pkt));
        // A fresh snapshot serves the updated ruleset.
        let snap = live.snapshot();
        let expected = classify_live_linear(&snap.live_rules(), &pkt);
        assert_eq!(snap.classify(&pkt), expected);
        let stats = live.with_writer(|w| w.update_stats());
        assert_eq!((stats.inserts, stats.deletes), (1, 1));
    }

    #[test]
    fn failed_update_keeps_earlier_burst_entries_and_still_publishes() {
        let (rs, _) = workload(60, 1);
        let live = LiveClassifier::new(flat_for(&rs));
        let updates = vec![
            RuleUpdate::Delete(1),
            RuleUpdate::Delete(1), // second delete of the same id fails
            RuleUpdate::Delete(2), // dropped: after the failure
        ];
        assert_eq!(
            live.apply_batch(&updates),
            Err(UpdateError::UnknownRuleId(1))
        );
        assert_eq!(live.generation(), 1);
        let snap = live.snapshot();
        let ids: Vec<u32> = snap.live_rules().iter().map(|r| r.id).collect();
        assert!(!ids.contains(&1), "first delete applied");
        assert!(ids.contains(&2), "post-failure delete dropped");
    }

    #[test]
    fn a_burst_that_absorbs_nothing_publishes_nothing() {
        let (rs, _) = workload(60, 1);
        let live = LiveClassifier::new(flat_for(&rs));
        let before = live.snapshot();
        assert_eq!(
            live.apply_batch(&[RuleUpdate::Delete(9_999)]),
            Err(UpdateError::UnknownRuleId(9_999))
        );
        assert_eq!(live.apply_batch(&[]), Ok(0));
        assert_eq!(live.generation(), 0);
        assert!(
            Arc::ptr_eq(&before, &live.snapshot()),
            "a no-op burst must not clone and swap the snapshot"
        );
        // A real update still publishes, and a no-op after it reports the
        // generation that update reached.
        assert_eq!(live.apply_batch(&[RuleUpdate::Delete(1)]), Ok(1));
        assert_eq!(live.apply_batch(&[]), Ok(1));
    }

    /// A flat classifier whose `Clone` counts itself, so a test can see
    /// which publishes copy the structure.
    struct Counted(HiCutsClassifier, Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.1.fetch_add(1, Ordering::Relaxed);
            Counted(self.0.clone(), Arc::clone(&self.1))
        }
    }

    impl Classifier for Counted {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn classify(&self, pkt: &PacketHeader) -> MatchResult {
            self.0.classify(pkt)
        }

        fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
            self.0.classify_with_stats(pkt, stats)
        }

        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }
    }

    impl UpdatableClassifier for Counted {
        fn insert(&mut self, rule: Rule) -> Result<(), UpdateError> {
            self.0.insert(rule)
        }

        fn delete(&mut self, rule_id: RuleId) -> Result<(), UpdateError> {
            self.0.delete(rule_id)
        }

        fn live_rules(&self) -> Vec<Rule> {
            self.0.live_rules()
        }

        fn spec(&self) -> DimensionSpec {
            self.0.spec()
        }

        fn update_stats(&self) -> UpdateStats {
            self.0.update_stats()
        }
    }

    /// A counted live cell over `rs`, its clone counter, and an endless
    /// stream of bursts that each replace one rule of `rs` in place.
    fn counted(
        rs: &pclass_types::RuleSet,
    ) -> (
        LiveClassifier<Counted>,
        Arc<AtomicUsize>,
        impl Iterator<Item = [RuleUpdate; 2]>,
    ) {
        let clones = Arc::new(AtomicUsize::new(0));
        let live = LiveClassifier::new(Counted(flat_for(rs), Arc::clone(&clones)));
        let fresh = ClassBenchGenerator::new(SeedStyle::Acl, 79).generate(rs.len());
        let replaces = (0..rs.len()).cycle().map(move |at| {
            let id = at as RuleId;
            let rule = Rule::new(id, fresh.rules()[at].ranges);
            [RuleUpdate::Delete(id), RuleUpdate::Insert(rule)]
        });
        (live, clones, replaces)
    }

    #[test]
    fn a_publish_patches_the_retired_twin_and_clones_only_past_a_held_snapshot() {
        let (rs, trace) = workload(150, 300);
        let (live, clones, mut replaces) = counted(&rs);
        let mut publish = || {
            live.apply_batch(&replaces.next().unwrap())
                .expect("replace")
        };
        let count = || clones.load(Ordering::Relaxed);
        assert_eq!(count(), 0, "an idle cell holds the one copy it was given");
        publish();
        assert_eq!(count(), 1, "the first publish makes the second twin");
        for _ in 0..100 {
            publish();
        }
        assert_eq!(count(), 1, "a drained twin is patched, not copied");

        // A handle held across two publishes pins the twin the second one
        // wants: that publish copies instead of waiting, and the handle
        // keeps serving the generation it was taken at.
        let pin = live.snapshot();
        let pinned_rules = pin.live_rules();
        publish();
        assert_eq!(count(), 1, "the first publish past a handle retires it");
        publish();
        assert_eq!(count(), 2, "the second finds it held and copies");
        assert_eq!(live.generation(), 103);
        assert_eq!(pin.live_rules(), pinned_rules);
        assert_ne!(live.snapshot().live_rules(), pinned_rules);
        for entry in trace.entries() {
            let expected = classify_live_linear(&pinned_rules, &entry.header);
            assert_eq!(pin.classify(&entry.header), expected);
        }
        drop(pin);
        for _ in 0..100 {
            publish();
        }
        assert_eq!(count(), 2);
        let snap = live.snapshot();
        let final_rules = snap.live_rules();
        for entry in trace.entries() {
            let expected = classify_live_linear(&final_rules, &entry.header);
            assert_eq!(snap.classify(&entry.header), expected);
        }
    }

    #[test]
    fn bursts_that_absorb_nothing_cost_one_clone_between_them() {
        let (rs, _) = workload(60, 1);
        let (live, clones, mut replaces) = counted(&rs);
        let count = || clones.load(Ordering::Relaxed);
        assert_eq!(live.apply_batch(&[]), Ok(0));
        assert_eq!(count(), 0, "an empty burst touches nothing");
        // Finding out that an update is rejected takes a twin to try it
        // on; the twin is kept.
        for _ in 0..100 {
            assert_eq!(
                live.apply_batch(&[RuleUpdate::Delete(9_999)]),
                Err(UpdateError::UnknownRuleId(9_999))
            );
        }
        assert_eq!(count(), 1);
        assert_eq!(live.generation(), 0);
        // ... level with the published snapshot, so the next real bursts
        // are patched into it.
        let mut direct = flat_for(&rs);
        for generation in 1..=3 {
            let burst = replaces.next().unwrap();
            burst.iter().for_each(|u| direct.apply(u).expect("replace"));
            assert_eq!(live.apply_batch(&burst), Ok(generation));
            assert_eq!(live.apply_batch(&[]), Ok(generation));
            assert_eq!(live.snapshot().live_rules(), direct.live_rules());
        }
        assert_eq!(count(), 1);
    }

    #[test]
    fn cached_live_engine_matches_truth_and_warm_passes_hit() {
        // A cached live cell is a cell over a `CachedClassifier`, served
        // from an uncached config: one cache, shared by the twins and the
        // workers.
        let (rs, trace) = workload(150, 900);
        let truth = trace.ground_truth(&rs);
        let geometry = pclass_algos::HotCacheConfig::new(512, 4);
        for workers in [1usize, 2] {
            let cached = pclass_algos::CachedClassifier::new(flat_for(&rs), geometry);
            let live = Arc::new(LiveClassifier::new(cached));
            let engine = EngineConfig::new()
                .workers(workers)
                .batch_size(64)
                .live_engine(Arc::clone(&live));
            for pass in 0..2 {
                let run = engine.classify_trace(&trace);
                assert_eq!(run.results, truth, "x{workers} pass {pass}");
            }
            let stats = live.snapshot().cache().stats();
            assert!(stats.hits > 0, "x{workers}: warm pass must hit");
            assert_eq!(stats.hits + stats.misses, 2 * trace.len() as u64);
            // An update moves the updated twin to a fresh generation of the
            // same cache: every later pass matches the *new* truth packet
            // for packet even though old entries are physically present.
            for round in 0..3u32 {
                let retired = live.snapshot();
                live.apply_batch(&[RuleUpdate::Delete(round)])
                    .expect("delete");
                let snap = live.snapshot();
                assert!(Arc::ptr_eq(retired.cache(), snap.cache()), "one cache");
                assert_ne!(retired.generation(), snap.generation());
                drop(retired);
                let final_live = snap.live_rules();
                for pass in 0..2 {
                    let run = engine.classify_trace(&trace);
                    for (entry, got) in trace.entries().iter().zip(&run.results) {
                        let expected = classify_live_linear(&final_live, &entry.header);
                        assert_eq!(*got, expected, "x{workers} round {round} pass {pass}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_cached_live_engine_crosses_a_bypass_flip_between_publishes() {
        // Never-repeating traffic through a small shared cache: once warm,
        // its books say probing does not pay and it steps aside in the
        // first pass; publishes then land while it is bypassed, each one
        // restarting the warm-up so the cache steps aside again, and every
        // decision stays linear search over the published rules.
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 77).generate(150);
        let trace = TraceGenerator::new(&rs, 78)
            .random_fraction(1.0)
            .max_burst(1)
            .generate(1_200);
        let geometry = pclass_algos::HotCacheConfig::new(64, 4);
        let cached = pclass_algos::CachedClassifier::new(flat_for(&rs), geometry);
        let live = Arc::new(LiveClassifier::new(cached));
        let engine = EngineConfig::new()
            .workers(2)
            .batch_size(32)
            .live_engine(Arc::clone(&live));
        for round in 0..4u32 {
            let rules = live.snapshot().live_rules();
            let before = live.snapshot().cache().stats();
            let run = engine.classify_trace(&trace);
            for (entry, got) in trace.entries().iter().zip(&run.results) {
                let expected = classify_live_linear(&rules, &entry.header);
                assert_eq!(*got, expected, "round {round}");
            }
            let stats = live.snapshot().cache().stats();
            let delta = stats.delta_since(&before);
            assert!(delta.bypassed > 0, "round {round}: {delta:?}");
            assert!(stats.bypassed <= stats.misses);
            live.apply_batch(&[RuleUpdate::Delete(round)])
                .expect("delete");
        }
        let stats = live.snapshot().cache().stats();
        assert_eq!(stats.hits + stats.misses, 4 * trace.len() as u64);
    }

    #[test]
    fn a_snapshot_is_bracketed_by_the_generations_read_around_it() {
        // Hammer apply_batch while a reader brackets each snapshot by two
        // generation reads: the snapshot is never older than the first nor
        // newer than the second.  The writer inserts one wildcard rule per
        // generation, so generation g has exactly base + g live rules.
        let (rs, _) = workload(40, 1);
        let spec = *rs.spec();
        let base = rs.len() as u64;
        let live = Arc::new(LiveClassifier::new(flat_for(&rs)));
        std::thread::scope(|scope| {
            let live_ref = &live;
            let writer = scope.spawn(move || {
                for round in 0..200u32 {
                    live_ref
                        .apply_batch(&[RuleUpdate::Insert(Rule::wildcard(10_000 + round, &spec))])
                        .expect("insert");
                }
            });
            for _ in 0..2_000 {
                let g0 = live.generation();
                let snap = live.snapshot();
                let g1 = live.generation();
                let rules = snap.live_rules().len() as u64;
                assert!(
                    base + g0 <= rules && rules <= base + g1,
                    "snapshot of {rules} rules outside generations {g0}..={g1}"
                );
            }
            writer.join().expect("writer panicked");
        });
        assert_eq!(live.generation(), 200);
    }

    #[test]
    fn serving_under_concurrent_churn_stays_consistent_per_generation() {
        let (rs, trace) = workload(250, 3_000);
        let spec = *rs.spec();
        let live = Arc::new(LiveClassifier::new(flat_for(&rs)));
        let engine = EngineConfig::new()
            .workers(2)
            .batch_size(64)
            .live_engine(Arc::clone(&live));
        std::thread::scope(|scope| {
            let live_ref = &live;
            let updater = scope.spawn(move || {
                // Delete/insert churn racing the serving loop below.
                for round in 0..20u32 {
                    let id = round % (rs.len() as u32);
                    live_ref
                        .apply_batch(&[RuleUpdate::Delete(id)])
                        .expect("delete");
                    live_ref
                        .apply_batch(&[RuleUpdate::Insert(Rule::wildcard(10_000 + round, &spec))])
                        .expect("insert");
                    std::thread::yield_now();
                }
            });
            // Serving never blocks or panics while updates land.
            for _ in 0..3 {
                let run = engine.classify_trace(&trace);
                assert_eq!(run.results.len(), trace.len());
            }
            updater.join().expect("updater panicked");
        });
        assert_eq!(live.generation(), 40);
        // Quiescent again: the final snapshot agrees with linear search
        // over the final live ruleset, packet for packet.
        let snap = live.snapshot();
        let final_live = snap.live_rules();
        let run = engine.classify_trace(&trace);
        for (entry, got) in trace.entries().iter().zip(&run.results) {
            assert_eq!(*got, classify_live_linear(&final_live, &entry.header));
        }
    }
}
