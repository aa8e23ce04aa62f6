//! The one sharded serving loop, and the worker pool the front ends put on
//! top of it.

use crate::{mpps, EngineConfig, EngineRun, ThroughputReport, WorkerReport};
use pclass_algos::Classifier;
use pclass_types::{shard_slices, MatchResult, Trace};
use std::ops::Deref;
use std::time::Instant;

/// The paper's deployment — several engines, one shared read-only
/// structure, one shard of the traffic each — written once.  Splits `items`
/// into the deterministic balanced shards of [`shard_slices`], gives every
/// worker a private state from `new_worker(worker)`, drives it through
/// `serve_sub(state, sub_batch, results)` over `batch`-sized sub-batches
/// (each call appends one result per item), and merges the outputs back in
/// arrival order with per-worker timing.  The states come back in worker
/// order for the caller to fold.
///
/// A panicking worker resumes its own panic on the caller, so a
/// classifier's message reaches the caller unchanged at any worker count.
pub(crate) fn run_sharded<P: Sync, W: Send>(
    items: &[P],
    workers: usize,
    batch: usize,
    new_worker: impl Fn(usize) -> W + Sync,
    serve_sub: impl Fn(&mut W, &[P], &mut Vec<MatchResult>) + Sync,
) -> (Vec<MatchResult>, ThroughputReport, Vec<W>) {
    let started = Instant::now();
    let serve_shard = |worker: usize, slice: &[P]| {
        let worker_started = Instant::now();
        let mut state = new_worker(worker);
        let mut results = Vec::with_capacity(slice.len());
        for sub in slice.chunks(batch) {
            serve_sub(&mut state, sub, &mut results);
        }
        debug_assert_eq!(results.len(), slice.len());
        (results, worker_started.elapsed().as_nanos() as u64, state)
    };

    let shards = shard_slices(items, workers);
    let partials: Vec<_> = if workers == 1 {
        // Single shard: serve inline on the caller thread.  Spawning a
        // scoped thread costs tens of microseconds — pure overhead that
        // would be charged to every measurement of a fast classifier.
        vec![serve_shard(0, shards[0])]
    } else {
        std::thread::scope(|scope| {
            let serve = &serve_shard;
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(i, slice)| (!slice.is_empty()).then(|| scope.spawn(move || serve(i, slice))))
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(i, handle)| match handle {
                    Some(handle) => handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    // An idle shard is not worth a thread.
                    None => (Vec::new(), 0, new_worker(i)),
                })
                .collect()
        })
    };

    let mut results = Vec::with_capacity(items.len());
    let mut per_worker = Vec::with_capacity(workers);
    let mut states = Vec::with_capacity(workers);
    for (worker, (shard_results, wall_ns, state)) in partials.into_iter().enumerate() {
        let pkts = shard_results.len() as u64;
        per_worker.push(WorkerReport {
            worker,
            pkts,
            wall_ns,
            mpps: mpps(pkts, wall_ns),
        });
        results.extend(shard_results);
        states.push(state);
    }
    debug_assert_eq!(results.len(), items.len());

    let wall_ns = started.elapsed().as_nanos() as u64;
    let pkts = results.len() as u64;
    let report = ThroughputReport {
        pkts,
        wall_ns,
        mpps: mpps(pkts, wall_ns),
        per_worker,
    };
    (results, report, states)
}

/// What every front end shares: the loop's geometry.
pub(crate) struct WorkerPool {
    pub(crate) workers: usize,
    pub(crate) batch: usize,
}

impl WorkerPool {
    pub(crate) fn from_config(config: &EngineConfig) -> WorkerPool {
        WorkerPool {
            workers: config.worker_count(),
            batch: config.batch(),
        }
    }

    /// Serves a trace: every sub-batch is copied into its worker's header
    /// scratch block (the dense slice [`Classifier::classify_batch`]
    /// wants) and classified in one call by whatever handle
    /// `current(worker)` returns at that moment.
    pub(crate) fn serve_trace<H: Deref<Target: Classifier>>(
        &self,
        trace: &Trace,
        current: impl Fn(usize) -> H + Sync,
    ) -> EngineRun {
        let (results, report, _) = run_sharded(
            trace.entries(),
            self.workers,
            self.batch,
            |worker| (worker, Vec::new()),
            |(worker, headers), sub, results| {
                headers.clear();
                headers.extend(sub.iter().map(|e| e.header));
                current(*worker).classify_batch(headers, results);
            },
        );
        EngineRun { results, report }
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, LiveClassifier, TaggedTrace, TenantSpec};
    use pclass_algos::{Classifier, LookupStats};
    use pclass_types::{MatchResult, PacketHeader, Trace};
    use std::sync::Arc;

    /// Matches nothing and panics on the marker header.
    #[derive(Clone)]
    struct Tripwire;

    const MARKER: PacketHeader = PacketHeader::from_fields([0xDEAD; 5]);

    impl Classifier for Tripwire {
        fn name(&self) -> &'static str {
            "tripwire"
        }
        fn classify(&self, pkt: &PacketHeader) -> MatchResult {
            assert!(*pkt != MARKER, "tripwire hit the marker header");
            MatchResult::NoMatch
        }
        fn classify_with_stats(&self, pkt: &PacketHeader, _: &mut LookupStats) -> MatchResult {
            self.classify(pkt)
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    /// Two workers, the marker in the second worker's shard: the panic has
    /// to cross the join to reach the caller.
    fn marked() -> (EngineConfig, Trace) {
        let mut headers = vec![PacketHeader::from_fields([1; 5]); 64];
        headers[50] = MARKER;
        let config = EngineConfig::new().workers(2).batch_size(8);
        (config, Trace::from_headers("marked", headers))
    }

    #[test]
    #[should_panic(expected = "tripwire hit the marker header")]
    fn engine_resumes_the_classifiers_own_panic() {
        let (config, trace) = marked();
        config.engine(Arc::new(Tripwire)).classify_trace(&trace);
    }

    #[test]
    #[should_panic(expected = "tripwire hit the marker header")]
    fn live_engine_resumes_the_classifiers_own_panic() {
        let (config, trace) = marked();
        config
            .live_engine(Arc::new(LiveClassifier::new(Tripwire)))
            .classify_trace(&trace);
    }

    #[test]
    #[should_panic(expected = "tripwire hit the marker header")]
    fn tenant_router_resumes_the_classifiers_own_panic() {
        let (config, trace) = marked();
        let router = config.tenant_router([(TenantSpec::new("t0"), Tripwire)]);
        let tagged = TaggedTrace::interleave("marked", &[(router.tenant_ids()[0], &trace)]);
        router.classify_tagged(&tagged);
    }
}
