//! Multi-tenant serving: many isolated rulesets on one shared worker pool,
//! governed by a declarative per-tenant policy layer.
//!
//! The serving stack so far is one process = one ruleset, but the
//! deployment shape the paper's low-power classification setting targets —
//! per-customer ACLs, per-VPC firewalls — serves many *isolated* tenants
//! on shared cores.  [`TenantRouter`] is that front end:
//!
//! * every tenant is declared through a [`TenantSpec`] (name, scheduling
//!   **weight**, per-tenant **memory budget**), the only construction
//!   path — there is no positional roster API;
//! * the roster itself is **epoch-swapped**: [`TenantRouter::admit`] and
//!   [`TenantRouter::evict`] publish a new roster snapshot the same way a
//!   [`LiveClassifier`] publishes a new generation, so serving workers
//!   never block on lifecycle changes — they pick the new roster up at the
//!   next sub-batch boundary;
//! * each tenant holds its own [`LiveClassifier`], so **churn is isolated
//!   per tenant**: one tenant's [`LiveClassifier::apply_batch`] touches
//!   only its own pair of snapshots (one until its first update) and
//!   never blocks another tenant's readers;
//! * tagged traffic ([`TaggedTrace`]) is served on a **shared worker
//!   pool** with cross-tenant batching: each worker takes a sub-batch of
//!   the interleaved stream, groups it by tenant, serves the groups in
//!   **descending weight order**, and classifies each group against one
//!   snapshot per (tenant, sub-batch);
//! * every run returns **per-tenant accounting** ([`TenantReport`]:
//!   packets, busy-time mpps, SLO-relative throughput, p50/p95/p99
//!   batch-latency percentiles) plus a [`FairnessSummary`] carrying both
//!   the rate-based and the **weighted** Jain index.
//!
//! # Handles and stale-hit safety
//!
//! A [`TenantId`] is an opaque handle `(slot, admission epoch)` minted by
//! `admit`/construction.  Eviction retires the epoch: packets tagged with
//! a retired handle are counted as *unroutable*
//! ([`TenantRun::unroutable`]) and decided [`MatchResult::NoMatch`],
//! never silently served by the slot's next occupant.
//!
//! # Memory budgeting
//!
//! Admission charges each tenant's classifier bytes
//! ([`Classifier::memory_bytes`]) into a [`MemoryReport`].  A spec-level
//! budget ([`TenantSpec::memory_budget`]) bounds one tenant; a
//! router-wide budget ([`crate::EngineConfig::memory_budget`]) bounds the
//! roster — [`TenantRouter::admit`] rejects (it does not panic) when
//! either would be exceeded, and [`TenantRouter::evict`] frees exactly
//! what `admit` charged.
//!
//! Construction goes through [`crate::EngineConfig::tenant_router`], the
//! same builder the single-tenant engines use.
//!
//! Determinism: results are packet-for-packet what each tenant's own
//! classifier decides — a router with one tenant produces exactly the
//! output of a [`crate::LiveEngine`] over that classifier, and under
//! interleaved cross-tenant traffic each tenant's result subsequence
//! equals its solo run.  The workspace property tests enforce both, plus
//! that a mid-trace evict/admit cycle leaves surviving tenants
//! bit-identical.
//!
//! # Caching a tenant
//!
//! The router owns no cache: a tenant that wants a hot-flow cache is
//! admitted behind one, as a [`pclass_algos::CachedClassifier`].
//!
//! ```
//! use pclass_algos::{CachedClassifier, LinearClassifier};
//! use pclass_classbench::{ClassBenchGenerator, SeedStyle};
//! use pclass_engine::{EngineConfig, TenantSpec};
//!
//! let rules = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(100);
//! // Any geometry; the default is 1,024 entries, 4-way.
//! let cached = CachedClassifier::new(LinearClassifier::new(rules), Default::default());
//! let router = EngineConfig::new().tenant_router([(TenantSpec::new("t0"), cached)]);
//! assert!(router.memory_in_use() > 1024 * 4); // the cache is charged
//! ```
//!
//! The cache is then part of the tenant's classifier: private to it,
//! charged against both budgets through `memory_bytes()`, moved to a fresh
//! generation by every update through [`TenantRouter::live`] (a stale hit
//! is structurally impossible), and dropped at eviction — a readmitted
//! tenant starts cold.

use crate::live::LiveClassifier;
use crate::pool::WorkerPool;
use crate::{EngineConfig, EngineRun, ThroughputReport};
use pclass_algos::Classifier;
use pclass_types::{
    FairnessSummary, LatencyPercentiles, MatchResult, MemoryReport, PacketHeader, Trace,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// An opaque handle to one tenant of a [`TenantRouter`]: the roster slot
/// plus the admission epoch that minted it.  Handles are returned by
/// [`TenantRouter::admit`] (and [`TenantRouter::tenant_ids`] after
/// construction); eviction retires the epoch, so a handle can never
/// alias the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId {
    slot: u32,
    epoch: u32,
}

impl TenantId {
    /// Fabricates a handle from raw parts — useful in tests; a fabricated
    /// handle routes nowhere unless it matches a live `(slot, epoch)`
    /// pair (epochs start at 1, so `epoch: 0` never resolves).
    pub fn new(slot: u32, epoch: u32) -> TenantId {
        TenantId { slot, epoch }
    }

    /// The roster slot this handle addresses.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The admission epoch that minted this handle (1-based; each
    /// successful `admit` — including construction — takes the next one).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}@e{}", self.slot, self.epoch)
    }
}

/// Declares one tenant: the only way to put a tenant on a
/// [`TenantRouter`] roster (construction takes `(TenantSpec, classifier)`
/// pairs, [`TenantRouter::admit`] takes one of each at runtime).
///
/// A take-self builder in the [`EngineConfig`] style: unset knobs resolve
/// to their defaults at read time, and every setter **panics on a
/// double-set** — two subsystems configuring the same knob on one spec is
/// a wiring bug that last-wins semantics would hide.
///
/// Defaults: weight 1, no per-tenant memory budget.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    weight: Option<u32>,
    memory_budget: Option<usize>,
}

impl TenantSpec {
    /// Starts a spec for a named tenant.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight: None,
            memory_budget: None,
        }
    }

    /// Sets the tenant's scheduling weight (clamped to at least 1): the
    /// weighted-fair interleave offers this tenant `weight / Σ weights`
    /// of the stream, and sub-batch service visits heavier tenants first.
    ///
    /// # Panics
    ///
    /// Panics if the weight was already set.
    pub fn weight(mut self, weight: u32) -> TenantSpec {
        assert!(
            self.weight.is_none(),
            "TenantSpec::weight set twice — the scheduling weight is already \
             configured; a second value would silently override the first \
             subsystem's choice"
        );
        self.weight = Some(weight.max(1));
        self
    }

    /// Sets the tenant's memory budget in bytes: admission fails with
    /// [`AdmissionError::TenantOverBudget`] when the classifier's
    /// [`Classifier::memory_bytes`] exceed it.
    ///
    /// # Panics
    ///
    /// Panics if the budget was already set.
    pub fn memory_budget(mut self, bytes: usize) -> TenantSpec {
        assert!(
            self.memory_budget.is_none(),
            "TenantSpec::memory_budget set twice — a memory budget is already \
             configured; a second value would silently override the first \
             subsystem's choice"
        );
        self.memory_budget = Some(bytes);
        self
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scheduling weight this spec resolves to (default 1).
    pub fn weight_value(&self) -> u32 {
        self.weight.unwrap_or(1)
    }

    /// The per-tenant memory budget, if one was declared.
    pub fn memory_budget_bytes(&self) -> Option<usize> {
        self.memory_budget
    }
}

/// Why [`TenantRouter::admit`] (or roster construction, which panics with
/// the same message) refused a tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's classifier exceeds its own
    /// [`TenantSpec::memory_budget`].
    TenantOverBudget {
        /// The refused tenant's name.
        name: String,
        /// Bytes the tenant's classifier needs.
        needs: usize,
        /// The spec's budget.
        budget: usize,
    },
    /// Admitting the tenant would push the roster past the router-wide
    /// [`crate::EngineConfig::memory_budget`].
    RouterOverBudget {
        /// The refused tenant's name.
        name: String,
        /// Bytes the tenant's classifier needs.
        needs: usize,
        /// Bytes already in use by the live tenants.
        in_use: usize,
        /// The router-wide budget.
        budget: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TenantOverBudget {
                name,
                needs,
                budget,
            } => write!(
                f,
                "tenant {name} needs {needs} bytes, over its {budget}-byte budget"
            ),
            AdmissionError::RouterOverBudget {
                name,
                needs,
                in_use,
                budget,
            } => write!(
                f,
                "tenant {name} needs {needs} bytes, but {in_use} of the \
                 router's {budget}-byte budget are in use"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The handle passed to [`TenantRouter::evict`] does not resolve to a
/// live tenant (never admitted, or already evicted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownTenant(pub TenantId);

impl std::fmt::Display for UnknownTenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown or evicted tenant {}", self.0)
    }
}

impl std::error::Error for UnknownTenant {}

/// One packet of tagged traffic: the header plus the tenant whose ruleset
/// must classify it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedPacket {
    /// The tenant this packet belongs to.
    pub tenant: TenantId,
    /// The packet header.
    pub header: PacketHeader,
}

/// A trace of tagged packets — the multi-tenant counterpart of
/// [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedTrace {
    name: String,
    entries: Vec<TaggedPacket>,
}

impl TaggedTrace {
    /// Builds a tagged trace from explicit entries.
    pub fn new(name: impl Into<String>, entries: Vec<TaggedPacket>) -> TaggedTrace {
        TaggedTrace {
            name: name.into(),
            entries,
        }
    }

    /// Deterministically interleaves one trace per tenant handle into a
    /// single proportional-fair tagged stream: at every step the next
    /// packet comes from the tenant whose emitted share *of its own
    /// trace* is furthest behind, ties going to the earliest part — so
    /// every prefix carries each tenant in proportion to its offered
    /// load, and all traces finish together.  Per-tenant packet order is
    /// preserved: [`TaggedTrace::tenant_headers`] reproduces each input
    /// trace exactly.
    pub fn interleave(name: impl Into<String>, parts: &[(TenantId, &Trace)]) -> TaggedTrace {
        let shares: Vec<u128> = parts.iter().map(|(_, t)| t.len() as u128).collect();
        TaggedTrace::interleave_by(name, parts, &shares)
    }

    /// Weighted-fair interleave: the next packet comes from the tenant
    /// whose emitted *weight-normalised* count is furthest behind, so
    /// every prefix offers each tenant `weight / Σ weights` of the stream
    /// while its trace lasts (classic weighted round-robin; exhausted
    /// tenants drop out and the rest continue in weight ratio).
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match `parts` or contains a zero.
    pub fn interleave_weighted(
        name: impl Into<String>,
        parts: &[(TenantId, &Trace)],
        weights: &[u32],
    ) -> TaggedTrace {
        assert_eq!(
            parts.len(),
            weights.len(),
            "one weight per interleaved trace"
        );
        assert!(
            weights.iter().all(|&w| w > 0),
            "interleave weights must be positive"
        );
        let shares: Vec<u128> = weights.iter().map(|&w| w as u128).collect();
        TaggedTrace::interleave_by(name, parts, &shares)
    }

    /// The shared deficit scheduler behind both interleaves: pick the
    /// part minimising `(emitted + 1) / share`, ties to the earliest part.
    /// The parts with packets left wait in a heap keyed by their next
    /// [`Turn`], so a packet costs O(log parts) rather than a scan of all.
    fn interleave_by(
        name: impl Into<String>,
        parts: &[(TenantId, &Trace)],
        shares: &[u128],
    ) -> TaggedTrace {
        let total: usize = parts.iter().map(|(_, t)| t.len()).sum();
        let mut entries = Vec::with_capacity(total);
        let mut turns: BinaryHeap<Turn> = (0..parts.len())
            .filter(|&part| !parts[part].1.is_empty())
            .map(|part| Turn(1, shares[part], part))
            .collect();
        while let Some(Turn(nth, share, part)) = turns.pop() {
            let (tenant, trace) = parts[part];
            let header = trace.entries()[nth as usize - 1].header;
            entries.push(TaggedPacket { tenant, header });
            if (nth as usize) < trace.len() {
                turns.push(Turn(nth + 1, share, part));
            }
        }
        TaggedTrace {
            name: name.into(),
            entries,
        }
    }

    /// The trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tagged packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tagged packets in arrival order.
    pub fn entries(&self) -> &[TaggedPacket] {
        &self.entries
    }

    /// Number of distinct tenant handles the trace addresses.
    pub fn tenant_count(&self) -> usize {
        let mut seen: Vec<TenantId> = Vec::new();
        for p in &self.entries {
            if !seen.contains(&p.tenant) {
                seen.push(p.tenant);
            }
        }
        seen.len()
    }

    /// The headers of one tenant's packets, in arrival order.
    pub fn tenant_headers(&self, tenant: TenantId) -> Vec<PacketHeader> {
        self.entries
            .iter()
            .filter(|p| p.tenant == tenant)
            .map(|p| p.header)
            .collect()
    }

    /// Projects a full-trace result vector (as returned by
    /// [`TenantRouter::classify_tagged`]) down to one tenant's results, in
    /// that tenant's arrival order — the subsequence to compare against a
    /// solo run over [`TaggedTrace::tenant_headers`].
    ///
    /// # Panics
    ///
    /// Panics if `results` is not exactly one result per trace packet.
    pub fn tenant_results(&self, tenant: TenantId, results: &[MatchResult]) -> Vec<MatchResult> {
        assert_eq!(
            results.len(),
            self.entries.len(),
            "results must cover the whole tagged trace"
        );
        self.entries
            .iter()
            .zip(results)
            .filter(|(p, _)| p.tenant == tenant)
            .map(|(_, r)| *r)
            .collect()
    }
}

/// One part's next turn in [`TaggedTrace::interleave_by`], as `(nth,
/// share, part)`: the part's `nth` packet (1-based) is due at virtual time
/// `nth / share`.  The greatest turn — what [`BinaryHeap::pop`] returns —
/// is the one due first (times compared by cross-multiplication to stay
/// exact), equal times going to the earliest part.
#[derive(PartialEq, Eq)]
struct Turn(u128, u128, usize);

impl Ord for Turn {
    fn cmp(&self, other: &Turn) -> Ordering {
        let (Turn(nth, share, part), Turn(other_nth, other_share, other_part)) = (self, other);
        (other_nth * share)
            .cmp(&(nth * other_share))
            .then(other_part.cmp(part))
    }
}

impl PartialOrd for Turn {
    fn partial_cmp(&self, other: &Turn) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-tenant accounting of one [`TenantRouter::classify_tagged`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The tenant's handle.
    pub tenant: TenantId,
    /// The tenant's roster name.
    pub name: String,
    /// The tenant's scheduling weight.
    pub weight: u32,
    /// Packets classified for this tenant.
    pub pkts: u64,
    /// Nanoseconds workers spent inside this tenant's classifier (summed
    /// over tenant groups; excludes grouping/scatter overhead).
    pub busy_ns: u64,
    /// Millions of packets per second over the tenant's busy time — the
    /// tenant's service rate while it was actually being served.
    pub mpps: f64,
    /// SLO-relative throughput: the tenant's share of the run's served
    /// packets divided by its share of the served tenants' weights.  1.0
    /// means the tenant received exactly its weighted fair share; 0.0
    /// when it received no traffic.
    pub slo_rel: f64,
    /// Latency percentiles over this tenant's per-sub-batch classify
    /// calls (one sample per tenant group actually served).
    pub batch_latency: LatencyPercentiles,
}

/// Output of [`TenantRouter::classify_tagged`]: merged decisions in trace
/// order, the shared-pool throughput report, and per-tenant accounting.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// One result per tagged packet, in arrival order.
    pub results: Vec<MatchResult>,
    /// Whole-run throughput over the shared worker pool.
    pub report: ThroughputReport,
    /// Per-tenant accounting, in slot order (every tenant live at the end
    /// of the run, plus any tenant that was served and then evicted
    /// mid-run).
    pub tenants: Vec<TenantReport>,
    /// Jain fairness (rate-based and weighted) over the tenants that
    /// received traffic.
    pub fairness: FairnessSummary,
    /// Packets whose handle resolved to no live tenant (evicted mid-run,
    /// or fabricated): decided [`MatchResult::NoMatch`], never served by
    /// a slot's next occupant.
    pub unroutable: u64,
}

struct TenantEntry<C> {
    id: TenantId,
    name: String,
    weight: u32,
    live: Arc<LiveClassifier<C>>,
    memory: MemoryReport,
}

/// One published roster snapshot; readers hold it by `Arc` exactly like a
/// [`LiveClassifier`] snapshot.
struct Roster<C> {
    slots: Vec<Option<Arc<TenantEntry<C>>>>,
}

impl<C> Roster<C> {
    fn get(&self, id: TenantId) -> Option<&Arc<TenantEntry<C>>> {
        self.slots
            .get(id.slot as usize)
            .and_then(|s| s.as_ref())
            .filter(|e| e.id == id)
    }

    fn live_entries(&self) -> impl Iterator<Item = &Arc<TenantEntry<C>>> {
        self.slots.iter().flatten()
    }

    /// Occupied slots in service order: descending weight, ties to the
    /// lower slot — heavier tenants are served first within a sub-batch.
    fn service_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.slots.len())
            .filter(|&s| self.slots[s].is_some())
            .collect();
        order.sort_by_key(|&s| {
            let weight = self.slots[s].as_ref().expect("filtered occupied").weight;
            (std::cmp::Reverse(weight), s)
        });
        order
    }
}

/// Lifecycle state serialised behind one lock: admit/evict are rare
/// control-plane operations, so a plain mutex (never touched by the
/// serving path) is the right tool.
struct AdmissionState {
    next_epoch: u32,
    admitted: u64,
    evicted: u64,
}

#[derive(Default)]
struct TenantAccum {
    pkts: u64,
    busy_ns: u64,
    latencies: Vec<u64>,
}

/// Accumulators by tenant; the entry rides along because a tenant evicted
/// mid-run is on no roster by the end.
type TenantAccums<C> = Vec<(Arc<TenantEntry<C>>, TenantAccum)>;

/// `entry`'s accumulator, appended on first use.  A linear scan: a roster
/// is tens of tenants, and this runs once per tenant group on the serving
/// path, where a map's allocations would show.
fn accum_for<'a, C>(
    accums: &'a mut TenantAccums<C>,
    entry: &Arc<TenantEntry<C>>,
) -> &'a mut TenantAccum {
    let at = accums.iter().position(|(e, _)| e.id == entry.id);
    let at = at.unwrap_or_else(|| {
        accums.push((Arc::clone(entry), TenantAccum::default()));
        accums.len() - 1
    });
    &mut accums[at].1
}

/// One worker's state across its shard of a [`TenantRouter::classify_tagged`]
/// run: the roster it last saw (with the service order and per-slot group
/// buffers derived from it), scratch blocks, and what it has accumulated.
struct TenantWorker<C> {
    roster: Arc<Roster<C>>,
    order: Vec<usize>,
    groups: Vec<Vec<usize>>,
    headers: Vec<PacketHeader>,
    group_results: Vec<MatchResult>,
    accums: TenantAccums<C>,
}

impl<C: Classifier + Clone> TenantWorker<C> {
    fn new(roster: Arc<Roster<C>>) -> TenantWorker<C> {
        TenantWorker {
            order: roster.service_order(),
            groups: vec![Vec::new(); roster.slots.len()],
            roster,
            headers: Vec::new(),
            group_results: Vec::new(),
            accums: Vec::new(),
        }
    }

    /// The router's own step of the shared loop: group one sub-batch by
    /// tenant under the `current` roster, serve the groups in service
    /// order, and scatter each group's results back to arrival positions.
    fn serve_sub(
        &mut self,
        current: Arc<Roster<C>>,
        sub: &[TaggedPacket],
        results: &mut Vec<MatchResult>,
    ) {
        if !Arc::ptr_eq(&current, &self.roster) {
            self.order = current.service_order();
            self.groups.resize_with(current.slots.len(), Vec::new);
            self.roster = current;
        }
        for group in &mut self.groups {
            group.clear();
        }
        // Placeholder slots first: an unroutable packet joins no group and
        // keeps the NoMatch.
        let base = results.len();
        results.resize(base + sub.len(), MatchResult::NoMatch);
        for (i, pkt) in sub.iter().enumerate() {
            if self.roster.get(pkt.tenant).is_some() {
                self.groups[pkt.tenant.slot as usize].push(i);
            }
        }
        for &slot in &self.order {
            let group = &self.groups[slot];
            if group.is_empty() {
                continue;
            }
            let entry = self.roster.slots[slot]
                .as_ref()
                .expect("service order is occupied");
            self.headers.clear();
            self.headers.extend(group.iter().map(|&i| sub[i].header));
            // One snapshot per (tenant, sub-batch): the whole group drains
            // on a single consistent generation.
            let snapshot = entry.live.snapshot();
            let group_started = Instant::now();
            self.group_results.clear();
            snapshot.classify_batch(&self.headers, &mut self.group_results);
            let busy_ns = group_started.elapsed().as_nanos() as u64;
            debug_assert_eq!(self.group_results.len(), group.len());
            for (&i, &result) in group.iter().zip(&self.group_results) {
                results[base + i] = result;
            }
            let accum = accum_for(&mut self.accums, entry);
            accum.pkts += group.len() as u64;
            accum.busy_ns += busy_ns;
            accum.latencies.push(busy_ns);
        }
    }
}

/// A multi-tenant serving front end: [`TenantId`] → [`LiveClassifier`],
/// served on a shared worker pool with cross-tenant batching, weighted
/// fair scheduling, per-tenant memory budgets and runtime
/// admission/eviction.  See the [module docs](self); construct through
/// [`crate::EngineConfig::tenant_router`] from `(TenantSpec, classifier)`
/// pairs.
pub struct TenantRouter<C> {
    roster: RwLock<Arc<Roster<C>>>,
    admission: Mutex<AdmissionState>,
    pool: WorkerPool,
    memory_budget: Option<usize>,
}

impl<C: Classifier + Clone + Send + Sync> TenantRouter<C> {
    pub(crate) fn from_config(
        config: &EngineConfig,
        tenants: impl IntoIterator<Item = (TenantSpec, C)>,
    ) -> TenantRouter<C> {
        let router = TenantRouter {
            roster: RwLock::new(Arc::new(Roster { slots: Vec::new() })),
            admission: Mutex::new(AdmissionState {
                next_epoch: 1,
                admitted: 0,
                evicted: 0,
            }),
            pool: WorkerPool::from_config(config),
            memory_budget: config.memory_budget_bytes(),
        };
        for (spec, classifier) in tenants {
            let name = spec.name().to_string();
            router.admit(spec, classifier).unwrap_or_else(|e| {
                panic!("TenantRouter construction rejected tenant {name}: {e}")
            });
        }
        assert!(
            router.tenant_count() > 0,
            "TenantRouter needs at least one tenant"
        );
        router
    }

    fn roster_snapshot(&self) -> Arc<Roster<C>> {
        Arc::clone(&self.roster.read().expect("roster lock poisoned"))
    }

    fn entry(&self, tenant: TenantId) -> Arc<TenantEntry<C>> {
        self.roster_snapshot()
            .get(tenant)
            .cloned()
            .unwrap_or_else(|| panic!("unknown or evicted tenant {tenant}"))
    }

    /// Admits a tenant at runtime: checks the classifier's bytes against
    /// the spec's and the router's memory budgets, wraps it in a fresh
    /// [`LiveClassifier`] and publishes a new roster snapshot — serving
    /// workers pick it up at their next sub-batch boundary, without ever
    /// blocking on the admission.
    ///
    /// Returns the new tenant's handle; its slot reuses the lowest
    /// evicted slot, its epoch is globally fresh.
    pub fn admit(&self, spec: TenantSpec, classifier: C) -> Result<TenantId, AdmissionError> {
        let mut admission = self.admission.lock().expect("admission lock poisoned");
        let roster = self.roster_snapshot();
        let memory = MemoryReport {
            classifier_bytes: classifier.memory_bytes(),
            budget_bytes: spec.memory_budget_bytes(),
            arena: classifier.arena_stats(),
        };
        let needs = memory.classifier_bytes;
        if let Some(budget) = memory.budget_bytes.filter(|&budget| needs > budget) {
            return Err(AdmissionError::TenantOverBudget {
                name: spec.name().to_string(),
                needs,
                budget,
            });
        }
        if let Some(budget) = self.memory_budget {
            let in_use = self.memory_in_use();
            if in_use + needs > budget {
                return Err(AdmissionError::RouterOverBudget {
                    name: spec.name().to_string(),
                    needs,
                    in_use,
                    budget,
                });
            }
        }

        let slot = roster
            .slots
            .iter()
            .position(|s| s.is_none())
            .unwrap_or(roster.slots.len());
        let id = TenantId {
            slot: slot as u32,
            epoch: admission.next_epoch,
        };
        admission.next_epoch += 1;
        admission.admitted += 1;
        let entry = Arc::new(TenantEntry {
            id,
            name: spec.name().to_string(),
            weight: spec.weight_value(),
            live: Arc::new(LiveClassifier::new(classifier)),
            memory,
        });
        let mut slots = roster.slots.clone();
        if slot == slots.len() {
            slots.push(Some(entry));
        } else {
            slots[slot] = Some(entry);
        }
        *self.roster.write().expect("roster lock poisoned") = Arc::new(Roster { slots });
        Ok(id)
    }

    /// Evicts a tenant: publishes a roster snapshot without it (serving
    /// workers drop it at their next sub-batch boundary; in-flight groups
    /// drain on their held snapshot) and retires its handle — packets
    /// still tagged with it become [unroutable](TenantRun::unroutable).
    /// Its bytes leave [`TenantRouter::memory_in_use`] at once.
    pub fn evict(&self, tenant: TenantId) -> Result<(), UnknownTenant> {
        let mut admission = self.admission.lock().expect("admission lock poisoned");
        let roster = self.roster_snapshot();
        if roster.get(tenant).is_none() {
            return Err(UnknownTenant(tenant));
        }
        let mut slots = roster.slots.clone();
        slots[tenant.slot as usize] = None;
        admission.evicted += 1;
        *self.roster.write().expect("roster lock poisoned") = Arc::new(Roster { slots });
        Ok(())
    }

    /// Number of live tenants on the roster.
    pub fn tenant_count(&self) -> usize {
        self.roster_snapshot().live_entries().count()
    }

    /// The live tenants' handles, in slot order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.roster_snapshot()
            .live_entries()
            .map(|e| e.id)
            .collect()
    }

    /// Number of worker shards in the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.workers
    }

    /// Sub-batch size of the shared pool.
    pub fn batch_size(&self) -> usize {
        self.pool.batch
    }

    /// Total admissions and evictions over the router's lifetime
    /// (construction admits every initial tenant).
    pub fn admission_counts(&self) -> (u64, u64) {
        let admission = self.admission.lock().expect("admission lock poisoned");
        (admission.admitted, admission.evicted)
    }

    /// The roster name of one tenant.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not resolve to a live tenant.
    pub fn name(&self, tenant: TenantId) -> String {
        self.entry(tenant).name.clone()
    }

    /// One tenant's scheduling weight.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not resolve to a live tenant.
    pub fn weight(&self, tenant: TenantId) -> u32 {
        self.entry(tenant).weight
    }

    /// One tenant's memory accounting, as charged at admission time: the
    /// classifier bytes are the serving copy's.  A tenant that has been
    /// updated since holds a second copy of its classifier (the retired
    /// twin [`LiveClassifier::apply_batch`] patches), which is not
    /// charged.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not resolve to a live tenant.
    pub fn memory_report(&self, tenant: TenantId) -> MemoryReport {
        self.entry(tenant).memory
    }

    /// Bytes currently charged against the router-wide memory budget:
    /// the sum of the live tenants' [`MemoryReport::classifier_bytes`].
    pub fn memory_in_use(&self) -> usize {
        let roster = self.roster_snapshot();
        let charged = roster.live_entries().map(|e| e.memory.classifier_bytes);
        charged.sum()
    }

    /// The router-wide memory budget admission checks against, if one was
    /// configured ([`crate::EngineConfig::memory_budget`]).
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// One tenant's live classifier — the handle for that tenant's churn
    /// ([`LiveClassifier::apply_batch`]) and for solo-baseline serving.
    /// Updates through it publish a new snapshot for this tenant only;
    /// other tenants' readers are untouched (separate locks per tenant).
    ///
    /// # Panics
    ///
    /// Panics if the handle does not resolve to a live tenant.
    pub fn live(&self, tenant: TenantId) -> Arc<LiveClassifier<C>> {
        Arc::clone(&self.entry(tenant).live)
    }

    /// Interleaves per-tenant traffic with this router's scheduling
    /// weights ([`TaggedTrace::interleave_weighted`] over the roster's
    /// declared weights) — the stream shape the router's weighted fair
    /// service is measured under.
    ///
    /// # Panics
    ///
    /// Panics if a handle does not resolve to a live tenant.
    pub fn interleave(
        &self,
        name: impl Into<String>,
        traffic: &[(TenantId, &Trace)],
    ) -> TaggedTrace {
        let weights: Vec<u32> = traffic
            .iter()
            .map(|(id, _)| self.entry(*id).weight)
            .collect();
        TaggedTrace::interleave_weighted(name, traffic, &weights)
    }

    /// Classifies a tagged trace on the shared worker pool.
    ///
    /// The trace is split into the same deterministic balanced shards as
    /// the single-tenant engines; each worker walks its shard in
    /// `batch`-sized sub-batches, re-reads the published roster at every
    /// sub-batch boundary (so admissions and evictions land mid-run
    /// without blocking serving), groups the sub-batch by tenant, serves
    /// the groups in descending weight order, and classifies every
    /// non-empty group against one fresh snapshot of that tenant — so a
    /// generation published mid-run lands at the next (tenant, sub-batch)
    /// boundary, exactly like [`crate::LiveEngine`].
    ///
    /// Packets whose handle resolves to no live tenant are decided
    /// [`MatchResult::NoMatch`] and counted in
    /// [`TenantRun::unroutable`] — a slot's next occupant never serves a
    /// retired handle's traffic.
    ///
    /// Results come back in trace order; [`TaggedTrace::tenant_results`]
    /// projects them per tenant.
    pub fn classify_tagged(&self, trace: &TaggedTrace) -> TenantRun {
        let (results, report, served) = crate::pool::run_sharded(
            trace.entries(),
            self.pool.workers,
            self.pool.batch,
            |_| TenantWorker::new(self.roster_snapshot()),
            |worker, sub, results| {
                // Pick up lifecycle changes at the sub-batch boundary —
                // the roster analogue of the per-group classifier snapshot.
                worker.serve_sub(self.roster_snapshot(), sub, results);
            },
        );

        // Report every tenant live at the end of the run (idle ones with
        // zeros) plus any tenant that was served and then evicted mid-run.
        let mut merged: TenantAccums<C> = self
            .roster_snapshot()
            .live_entries()
            .map(|e| (Arc::clone(e), TenantAccum::default()))
            .collect();
        for worker in served {
            for (entry, from) in worker.accums {
                let into = accum_for(&mut merged, &entry);
                into.pkts += from.pkts;
                into.busy_ns += from.busy_ns;
                into.latencies.extend(from.latencies);
            }
        }
        merged.sort_by_key(|(entry, _)| entry.id);

        let served_pkts: u64 = merged.iter().map(|(_, a)| a.pkts).sum();
        // Every routable packet was counted into its tenant's group.
        let unroutable = report.pkts - served_pkts;
        let served_weight: u64 = merged
            .iter()
            .filter(|(_, accum)| accum.pkts > 0)
            .map(|(e, _)| e.weight as u64)
            .sum();
        let tenants: Vec<TenantReport> = merged
            .into_iter()
            .map(|(entry, mut accum)| {
                let slo_rel = if accum.pkts == 0 || served_pkts == 0 || served_weight == 0 {
                    0.0
                } else {
                    let pkt_share = accum.pkts as f64 / served_pkts as f64;
                    let weight_share = entry.weight as f64 / served_weight as f64;
                    pkt_share / weight_share
                };
                TenantReport {
                    tenant: entry.id,
                    name: entry.name.clone(),
                    weight: entry.weight,
                    pkts: accum.pkts,
                    busy_ns: accum.busy_ns,
                    mpps: crate::mpps(accum.pkts, accum.busy_ns),
                    slo_rel,
                    batch_latency: LatencyPercentiles::from_samples(&mut accum.latencies),
                }
            })
            .collect();
        let served: Vec<&TenantReport> = tenants.iter().filter(|t| t.pkts > 0).collect();
        let rates: Vec<f64> = served.iter().map(|t| t.mpps).collect();
        let slo_rels: Vec<f64> = served.iter().map(|t| t.slo_rel).collect();
        let fairness = FairnessSummary::over_rates(&rates).weighted_over(&slo_rels);

        TenantRun {
            results,
            report,
            tenants,
            fairness,
            unroutable,
        }
    }

    /// Serves one tenant's headers solo through the shared-pool geometry
    /// (same workers/batch), as a plain [`Trace`] — the baseline the
    /// repository benchmark compares cross-tenant batching against.
    /// Takes the tenant's [`TenantId`] handle (from
    /// `admit`/construction), so solo baselines and router runs are
    /// guaranteed like-for-like on the same live classifier: the run is
    /// what a [`crate::LiveEngine`] over the tenant's live cell serves.
    /// Serves the classifier as admitted: a tenant cached per the [module
    /// docs](self) probes, and warms, its cache here too.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not resolve to a live tenant.
    pub fn classify_solo(&self, tenant: TenantId, trace: &Trace) -> EngineRun {
        let live = self.live(tenant);
        self.pool.serve_trace(trace, |_| live.snapshot())
    }
}

impl<C> std::fmt::Debug for TenantRouter<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let roster = self.roster.read().expect("roster lock poisoned");
        f.debug_struct("TenantRouter")
            .field("tenants", &roster.live_entries().count())
            .field("workers", &self.pool.workers)
            .field("batch", &self.pool.batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
    use pclass_algos::update::{classify_live_linear, RuleUpdate};
    use pclass_algos::{CachedClassifier, FlatTreeClassifier, LinearClassifier};
    use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
    use pclass_types::{CacheStats, Rule, RuleSet};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn workload(seed: u64, rules: usize, packets: usize) -> (RuleSet, Trace) {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, seed).generate(rules);
        let trace = TraceGenerator::new(&rs, seed ^ 0xBEEF).generate(packets);
        (rs, trace)
    }

    /// Distinct per-tenant workloads so cross-tenant leakage cannot hide
    /// behind equal rulesets.
    fn workloads(tenants: usize, packets: usize) -> Vec<(RuleSet, Trace)> {
        (0..tenants)
            .map(|t| workload(400 + 37 * t as u64, 40 + 20 * t, packets))
            .collect()
    }

    fn flatten(rs: &RuleSet) -> FlatTreeClassifier {
        HiCutsClassifier::build(rs, &HiCutsConfig::paper_defaults()).flatten()
    }

    /// How a tenant is cached: behind a private cache of its own, here of
    /// the default geometry (1,024 entries, 4-way).
    fn cached<C>(classifier: C) -> CachedClassifier<C> {
        CachedClassifier::new(classifier, Default::default())
    }

    /// Cumulative counters of a cached tenant's cache.
    fn cache_stats<C: Classifier + Clone + Send + Sync>(
        router: &TenantRouter<CachedClassifier<C>>,
        id: TenantId,
    ) -> CacheStats {
        router.live(id).snapshot().cache().stats()
    }

    /// The scan `interleave_by`'s heap replaced, kept as its reference:
    /// every packet rescans all parts for the one furthest behind.
    fn interleave_by_scan(parts: &[(TenantId, &Trace)], shares: &[u128]) -> Vec<TaggedPacket> {
        let total: usize = parts.iter().map(|(_, t)| t.len()).sum();
        let mut next = vec![0usize; parts.len()];
        let mut entries = Vec::with_capacity(total);
        for _ in 0..total {
            let mut best: Option<usize> = None;
            for (t, (_, trace)) in parts.iter().enumerate() {
                if next[t] >= trace.len() {
                    continue;
                }
                best = Some(match best {
                    None => t,
                    Some(b) => {
                        // t is further behind than b iff
                        // (next[t]+1)/shares[t] < (next[b]+1)/shares[b].
                        let t_share = (next[t] as u128 + 1) * shares[b];
                        let b_share = (next[b] as u128 + 1) * shares[t];
                        if t_share < b_share {
                            t
                        } else {
                            b
                        }
                    }
                });
            }
            let t = best.expect("fewer emitted packets than counted total");
            entries.push(TaggedPacket {
                tenant: parts[t].0,
                header: parts[t].1.entries()[next[t]].header,
            });
            next[t] += 1;
        }
        entries
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The heap emits exactly the scan's sequence — same parts, same
        /// tie-breaks — for both interleaves, empty parts included.
        #[test]
        fn heap_interleave_emits_the_scans_sequence(
            seed in 0u64..1_000_000,
            count in 1usize..25,
        ) {
            // Lengths 0–400 (one part in eight empty), weights 1–9.
            let mut rng = StdRng::seed_from_u64(seed);
            let traces: Vec<Trace> = (0..count as u32)
                .map(|part| {
                    let len = if rng.gen_range(0..8) == 0 { 0 } else { rng.gen_range(0..=400u32) };
                    // Every header names its part and position.
                    let headers = (0..len).map(|i| PacketHeader::from_fields([part, i, 0, 0, 0]));
                    Trace::from_headers(format!("p{part}"), headers.collect())
                })
                .collect();
            let weights: Vec<u32> = (0..count).map(|_| rng.gen_range(1..=9)).collect();
            let parts: Vec<(TenantId, &Trace)> = traces
                .iter()
                .enumerate()
                .map(|(part, trace)| (TenantId::new(part as u32, 1), trace))
                .collect();

            let lengths: Vec<u128> = traces.iter().map(|t| t.len() as u128).collect();
            let fair = TaggedTrace::interleave("fair", &parts);
            prop_assert_eq!(fair.entries(), &interleave_by_scan(&parts, &lengths)[..]);

            let shares: Vec<u128> = weights.iter().map(|&w| w as u128).collect();
            let weighted = TaggedTrace::interleave_weighted("wrr", &parts, &weights);
            prop_assert_eq!(weighted.entries(), &interleave_by_scan(&parts, &shares)[..]);
        }
    }

    #[test]
    fn spec_defaults_follow_the_weight() {
        let spec = TenantSpec::new("t");
        assert_eq!(spec.name(), "t");
        assert_eq!(spec.weight_value(), 1);
        assert!(spec.memory_budget_bytes().is_none());
        // Weight 0 clamps to 1.
        assert_eq!(TenantSpec::new("t").weight(0).weight_value(), 1);
        assert_eq!(TenantSpec::new("t").weight(4).weight_value(), 4);
        assert_eq!(
            TenantSpec::new("t")
                .memory_budget(4096)
                .memory_budget_bytes(),
            Some(4096)
        );
    }

    #[test]
    #[should_panic(expected = "weight set twice")]
    fn spec_double_set_weight_is_rejected() {
        let _ = TenantSpec::new("t").weight(2).weight(3);
    }

    #[test]
    #[should_panic(expected = "memory_budget set twice")]
    fn spec_double_set_memory_budget_is_rejected() {
        let _ = TenantSpec::new("t").memory_budget(1).memory_budget(2);
    }

    #[test]
    fn interleave_is_proportional_and_order_preserving() {
        let (rs_a, trace_a) = workload(11, 30, 100);
        let (rs_b, trace_b) = workload(12, 50, 300);
        let (a, b) = (TenantId::new(0, 1), TenantId::new(1, 2));
        let tagged = TaggedTrace::interleave("mix", &[(a, &trace_a), (b, &trace_b)]);
        assert_eq!(tagged.len(), 400);
        assert_eq!(tagged.tenant_count(), 2);
        // Per-tenant order is preserved exactly.
        assert_eq!(
            tagged.tenant_headers(a),
            trace_a.headers().copied().collect::<Vec<_>>()
        );
        assert_eq!(
            tagged.tenant_headers(b),
            trace_b.headers().copied().collect::<Vec<_>>()
        );
        // Every prefix carries the tenants near their offered 1:3 ratio.
        let mut seen_a = 0usize;
        for (i, pkt) in tagged.entries().iter().enumerate() {
            if pkt.tenant == a {
                seen_a += 1;
            }
            let expected = (i + 1) as f64 / 4.0;
            assert!(
                (seen_a as f64 - expected).abs() <= 1.0,
                "prefix {} carries {} packets of the 1/4-share tenant",
                i + 1,
                seen_a
            );
        }
        let _ = (rs_a, rs_b);
    }

    #[test]
    fn weighted_interleave_offers_weight_shares() {
        // Equal offered ratio to the weights (300:100 at weights 3:1), so
        // both traces drain together and every prefix tracks 3/4 : 1/4.
        let (_, trace_a) = workload(13, 30, 300);
        let (_, trace_b) = workload(14, 30, 100);
        let (a, b) = (TenantId::new(0, 1), TenantId::new(1, 2));
        let tagged =
            TaggedTrace::interleave_weighted("wrr", &[(a, &trace_a), (b, &trace_b)], &[3, 1]);
        let mut seen_a = 0usize;
        for (i, pkt) in tagged.entries().iter().enumerate() {
            if pkt.tenant == a {
                seen_a += 1;
            }
            let expected = 3.0 * (i + 1) as f64 / 4.0;
            assert!(
                (seen_a as f64 - expected).abs() <= 1.0 + f64::EPSILON,
                "prefix {} carries {} packets of the weight-3 tenant",
                i + 1,
                seen_a
            );
        }
        // A lighter tenant keeps flowing after the heavy one drains.
        let (_, short) = workload(15, 30, 8);
        let wrr = TaggedTrace::interleave_weighted("drain", &[(a, &short), (b, &trace_b)], &[7, 1]);
        assert_eq!(wrr.len(), 108);
        assert_eq!(wrr.tenant_headers(b).len(), 100);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_interleave_weight_is_rejected() {
        let (_, trace) = workload(16, 20, 10);
        let _ = TaggedTrace::interleave_weighted("bad", &[(TenantId::new(0, 1), &trace)], &[0]);
    }

    #[test]
    fn single_tenant_router_matches_live_engine_packet_for_packet() {
        let (rs, trace) = workload(21, 80, 500);
        let config = EngineConfig::new().workers(2).batch_size(64);
        let live = Arc::new(LiveClassifier::new(LinearClassifier::new(rs.clone())));
        let engine_run = config.live_engine(Arc::clone(&live)).classify_trace(&trace);

        let router = config.tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs))]);
        let ids = router.tenant_ids();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].slot(), 0);
        assert_eq!(ids[0].epoch(), 1);
        let tagged = TaggedTrace::interleave("solo", &[(ids[0], &trace)]);
        let run = router.classify_tagged(&tagged);
        assert_eq!(run.results, engine_run.results);
        assert_eq!(run.report.pkts, engine_run.report.pkts);
        assert_eq!(run.unroutable, 0);
    }

    #[test]
    fn interleaved_tenants_each_get_their_own_solo_results() {
        let workloads = workloads(3, 150);
        let router = EngineConfig::new().workers(2).batch_size(32).tenant_router(
            workloads.iter().enumerate().map(|(t, (rs, _))| {
                (
                    TenantSpec::new(format!("t{t}")),
                    LinearClassifier::new(rs.clone()),
                )
            }),
        );
        let ids = router.tenant_ids();
        let parts: Vec<(TenantId, &Trace)> = ids
            .iter()
            .zip(&workloads)
            .map(|(&id, (_, trace))| (id, trace))
            .collect();
        let tagged = TaggedTrace::interleave("mixed", &parts);
        let run = router.classify_tagged(&tagged);
        assert_eq!(run.results.len(), tagged.len());
        assert_eq!(run.unroutable, 0);
        for (&id, (rs, trace)) in ids.iter().zip(&workloads) {
            let projected = tagged.tenant_results(id, &run.results);
            assert_eq!(projected, router.classify_solo(id, trace).results);
            assert_eq!(projected, trace.ground_truth(rs));
        }
        assert!(run.fairness.weighted_jain > 0.0 && run.fairness.weighted_jain <= 1.0);
    }

    #[test]
    fn weighted_service_meets_slo_relative_shares() {
        let (rs_a, trace_a) = workload(31, 60, 300);
        let (rs_b, trace_b) = workload(32, 40, 100);
        let router = EngineConfig::new()
            .workers(2)
            .batch_size(16)
            .tenant_router([
                (
                    TenantSpec::new("heavy").weight(3),
                    LinearClassifier::new(rs_a),
                ),
                (
                    TenantSpec::new("light").weight(1),
                    LinearClassifier::new(rs_b),
                ),
            ]);
        let ids = router.tenant_ids();
        assert_eq!(router.weight(ids[0]), 3);
        assert_eq!(router.weight(ids[1]), 1);
        // The router interleaves by its own declared weights.
        let tagged = router.interleave("wrr", &[(ids[0], &trace_a), (ids[1], &trace_b)]);
        let run = router.classify_tagged(&tagged);
        // Offered load matches the weights exactly, so every tenant's
        // SLO-relative throughput is exactly its fair share.
        for report in &run.tenants {
            assert!(
                (report.slo_rel - 1.0).abs() < 1e-9,
                "tenant {} slo_rel {}",
                report.name,
                report.slo_rel
            );
        }
        assert!((run.fairness.weighted_jain - 1.0).abs() < 1e-9);
        assert_eq!(run.tenants[0].weight, 3);
        assert_eq!(run.tenants[0].pkts, 300);
        assert_eq!(run.tenants[1].pkts, 100);
    }

    #[test]
    fn accounting_covers_only_tenants_with_traffic() {
        let workloads = workloads(2, 120);
        let router =
            EngineConfig::new().tenant_router(workloads.iter().enumerate().map(|(t, (rs, _))| {
                (
                    TenantSpec::new(format!("t{t}")),
                    LinearClassifier::new(rs.clone()),
                )
            }));
        let ids = router.tenant_ids();
        let tagged = TaggedTrace::interleave("only-t0", &[(ids[0], &workloads[0].1)]);
        let run = router.classify_tagged(&tagged);
        // Both tenants are reported, but only the served one has counts;
        // an idle tenant has no SLO-relative share, and fairness covers
        // the served set only.
        assert_eq!(run.tenants.len(), 2);
        assert_eq!(run.tenants[0].pkts, 120);
        assert!((run.tenants[0].slo_rel - 1.0).abs() < 1e-9);
        assert_eq!(run.tenants[1].pkts, 0);
        assert_eq!(run.tenants[1].slo_rel, 0.0);
        assert_eq!(run.fairness.min_mpps, run.fairness.max_mpps);
        assert!((run.fairness.weighted_jain - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tagged_trace_is_served() {
        let (rs, _) = workload(41, 30, 0);
        let router =
            EngineConfig::new().tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs))]);
        let run = router.classify_tagged(&TaggedTrace::new("empty", Vec::new()));
        assert!(run.results.is_empty());
        assert_eq!(run.unroutable, 0);
        assert_eq!(run.tenants.len(), 1);
        assert_eq!(run.tenants[0].pkts, 0);
    }

    #[test]
    fn retired_or_fabricated_handles_are_unroutable() {
        let (rs, trace) = workload(51, 50, 200);
        let truth = trace.ground_truth(&rs);
        let router = EngineConfig::new()
            .workers(2)
            .batch_size(32)
            .tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs))]);
        let id = router.tenant_ids()[0];
        let ghost = TenantId::new(5, 99);
        // Alternate live and fabricated tags through one trace.
        let entries: Vec<TaggedPacket> = trace
            .headers()
            .enumerate()
            .map(|(i, h)| TaggedPacket {
                tenant: if i % 2 == 0 { id } else { ghost },
                header: *h,
            })
            .collect();
        let tagged = TaggedTrace::new("mixed", entries);
        let run = router.classify_tagged(&tagged);
        assert_eq!(run.unroutable, 100);
        for (i, (result, expected)) in run.results.iter().zip(&truth).enumerate() {
            if i % 2 == 0 {
                assert_eq!(result, expected);
            } else {
                assert_eq!(*result, MatchResult::NoMatch);
            }
        }
        // After eviction the tenant's own handle is retired too: nothing
        // is served, nothing panics — the traffic is just unroutable.
        router.evict(id).expect("live tenant evicts");
        let run = router.classify_tagged(&tagged);
        assert_eq!(run.unroutable, tagged.len() as u64);
        assert!(run.results.iter().all(|r| *r == MatchResult::NoMatch));
    }

    #[test]
    fn admit_and_evict_cycle_reuses_slots_with_fresh_epochs() {
        let workloads = workloads(2, 100);
        let router =
            EngineConfig::new().tenant_router(workloads.iter().enumerate().map(|(t, (rs, _))| {
                (
                    TenantSpec::new(format!("t{t}")),
                    LinearClassifier::new(rs.clone()),
                )
            }));
        let ids = router.tenant_ids();
        assert_eq!(router.admission_counts(), (2, 0));
        router.evict(ids[0]).expect("live tenant evicts");
        assert_eq!(router.tenant_count(), 1);
        assert_eq!(router.evict(ids[0]), Err(UnknownTenant(ids[0])));

        let (rs2, trace2) = workload(777, 30, 100);
        let id2 = router
            .admit(
                TenantSpec::new("t2").weight(2),
                LinearClassifier::new(rs2.clone()),
            )
            .expect("admission fits");
        // The freed slot is reused, the epoch is globally fresh — the old
        // handle can never alias the new tenant.
        assert_eq!(id2.slot(), ids[0].slot());
        assert!(id2.epoch() > ids[1].epoch());
        assert_ne!(id2, ids[0]);
        assert_eq!(router.admission_counts(), (3, 1));
        assert_eq!(router.name(id2), "t2");
        assert_eq!(router.weight(id2), 2);
        let tagged = TaggedTrace::interleave("solo", &[(id2, &trace2)]);
        let run = router.classify_tagged(&tagged);
        assert_eq!(run.results, trace2.ground_truth(&rs2));
    }

    #[test]
    fn cached_router_serves_identically_and_isolates_churn() {
        let workloads = workloads(2, 300);
        for workers in [1usize, 2] {
            // An uncached config: each tenant brings its own cache.
            let router =
                EngineConfig::new()
                    .workers(workers)
                    .batch_size(32)
                    .tenant_router(workloads.iter().enumerate().map(|(t, (rs, _))| {
                        (TenantSpec::new(format!("t{t}")), cached(flatten(rs)))
                    }));
            let ids = router.tenant_ids();
            let parts: Vec<(TenantId, &Trace)> = ids
                .iter()
                .zip(&workloads)
                .map(|(&id, (_, trace))| (id, trace))
                .collect();
            let tagged = TaggedTrace::interleave("mixed", &parts);
            // A cold pass, then a warm one — which misses nothing when no
            // second worker can race (and so drop) a fill.
            for pass in ["cold", "warm"] {
                let before: Vec<CacheStats> =
                    ids.iter().map(|&id| cache_stats(&router, id)).collect();
                let run = router.classify_tagged(&tagged);
                for ((&id, (rs, trace)), before) in ids.iter().zip(&workloads).zip(&before) {
                    assert_eq!(
                        tagged.tenant_results(id, &run.results),
                        trace.ground_truth(rs),
                        "{pass} pass x{workers}"
                    );
                    let delta = cache_stats(&router, id).delta_since(before);
                    assert_eq!(delta.hits + delta.misses, trace.len() as u64);
                    if pass == "cold" {
                        assert!(delta.misses > 0, "x{workers}: {delta:?}");
                    } else {
                        assert!(delta.hits > 0, "x{workers}: {delta:?}");
                        assert!(delta.misses == 0 || workers > 1, "x{workers}: {delta:?}");
                    }
                }
            }
            // Churn tenant 0: every update moves it to a fresh cache
            // generation; tenant 1 keeps serving (and hitting) untouched.
            let victims: Vec<Rule> = workloads[0].0.rules().to_vec();
            let updates: Vec<RuleUpdate> = victims
                .iter()
                .take(victims.len() / 2)
                .map(|r| RuleUpdate::Delete(r.id))
                .collect();
            router
                .live(ids[0])
                .apply_batch(&updates)
                .expect("churn batch applies");
            let before = cache_stats(&router, ids[1]);
            let run = router.classify_tagged(&tagged);
            let survivors: Vec<Rule> = victims.iter().skip(victims.len() / 2).cloned().collect();
            let expected: Vec<MatchResult> = workloads[0]
                .1
                .headers()
                .map(|h| classify_live_linear(&survivors, h))
                .collect();
            assert_eq!(tagged.tenant_results(ids[0], &run.results), expected);
            assert_eq!(
                tagged.tenant_results(ids[1], &run.results),
                workloads[1].1.ground_truth(&workloads[1].0)
            );
            let untouched = cache_stats(&router, ids[1]).delta_since(&before);
            assert!(
                untouched.hits > 0 && (untouched.misses == 0 || workers > 1),
                "the untouched tenant keeps hitting its warm cache"
            );

            // The books: every tenant is charged its classifier, cache
            // included, and an evicted tenant's bytes leave at once.
            let charged: Vec<usize> = ids
                .iter()
                .map(|&id| router.live(id).snapshot().memory_bytes())
                .collect();
            assert_eq!(router.memory_in_use(), charged.iter().sum::<usize>());
            router.evict(ids[0]).expect("live tenant evicts");
            assert_eq!(router.memory_in_use(), charged[1]);
        }
    }

    #[test]
    fn cached_tenant_report_carries_the_inner_arena_and_charges_the_cache() {
        let (rs, _) = workload(62, 80, 0);
        let tenant = cached(flatten(&rs));
        let arena = tenant.inner().arena_stats();
        let bytes = tenant.inner().memory_bytes() + tenant.cache().memory_bytes();
        assert!(tenant.cache().memory_bytes() > 0);
        let router = EngineConfig::new().tenant_router([(TenantSpec::new("t0"), tenant)]);
        let report = router.memory_report(router.tenant_ids()[0]);
        assert_eq!(report.arena, Some(arena));
        assert_eq!(report.classifier_bytes, bytes);
        assert_eq!(router.memory_in_use(), bytes);
    }

    #[test]
    fn per_tenant_memory_budget_rejects_oversized_tenants() {
        let (rs, _) = workload(71, 50, 0);
        let classifier = LinearClassifier::new(rs.clone());
        let bytes = classifier.memory_bytes();
        let router =
            EngineConfig::new().tenant_router([(TenantSpec::new("t0"), classifier.clone())]);
        let err = router
            .admit(
                TenantSpec::new("tiny").memory_budget(bytes - 1),
                classifier.clone(),
            )
            .expect_err("budget below the classifier size must reject");
        assert_eq!(
            err,
            AdmissionError::TenantOverBudget {
                name: "tiny".to_string(),
                needs: bytes,
                budget: bytes - 1,
            }
        );
        assert!(err.to_string().contains("over its"));
        assert_eq!(
            router.tenant_count(),
            1,
            "a rejected tenant is not admitted"
        );
        // A sufficient budget admits and is recorded in the report.
        let id = router
            .admit(TenantSpec::new("fits").memory_budget(bytes), classifier)
            .expect("budget at the classifier size admits");
        let report = router.memory_report(id);
        assert_eq!(report.classifier_bytes, bytes);
        assert_eq!(report.budget_bytes, Some(bytes));
    }

    #[test]
    fn router_wide_memory_budget_bounds_the_roster() {
        let (rs, _) = workload(72, 50, 0);
        let classifier = LinearClassifier::new(rs);
        let bytes = classifier.memory_bytes();
        // Room for one tenant and a half: the first admission fits, the
        // second must be refused with the roster's usage in the error.
        let router = EngineConfig::new()
            .memory_budget(bytes + bytes / 2)
            .tenant_router([(TenantSpec::new("t0"), classifier.clone())]);
        assert_eq!(router.memory_in_use(), bytes);
        let err = router
            .admit(TenantSpec::new("t1"), classifier)
            .expect_err("the roster budget is exhausted");
        assert_eq!(
            err,
            AdmissionError::RouterOverBudget {
                name: "t1".to_string(),
                needs: bytes,
                in_use: bytes,
                budget: bytes + bytes / 2,
            }
        );
        assert!(err.to_string().contains("router"));
        assert_eq!(router.tenant_count(), 1);
    }

    #[test]
    #[should_panic(expected = "rejected tenant")]
    fn construction_panics_on_over_budget_declarations() {
        let (rs, _) = workload(73, 40, 0);
        let _ = EngineConfig::new().tenant_router([(
            TenantSpec::new("t0").memory_budget(1),
            LinearClassifier::new(rs),
        )]);
    }

    #[test]
    fn classify_solo_matches_ground_truth() {
        let workloads = workloads(2, 200);
        let router = EngineConfig::new().workers(3).batch_size(16).tenant_router(
            workloads.iter().enumerate().map(|(t, (rs, _))| {
                (
                    TenantSpec::new(format!("t{t}")),
                    LinearClassifier::new(rs.clone()),
                )
            }),
        );
        for (&id, (rs, trace)) in router.tenant_ids().iter().zip(&workloads) {
            let run = router.classify_solo(id, trace);
            assert_eq!(run.results, trace.ground_truth(rs));
            assert_eq!(run.report.per_worker.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "unknown or evicted tenant")]
    fn solo_serving_a_retired_handle_panics() {
        let (rs, trace) = workload(81, 30, 50);
        let router =
            EngineConfig::new().tenant_router([(TenantSpec::new("t0"), LinearClassifier::new(rs))]);
        let id = router.tenant_ids()[0];
        router.evict(id).expect("live tenant evicts");
        let _ = router.classify_solo(id, &trace);
    }
}
