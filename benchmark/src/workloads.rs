//! The seven workloads: what each is, how its inputs are made from the
//! seed, and how the product is set up to serve it.
//!
//! Rulesets are part of a workload's definition (fixed generator seeds): a
//! ruleset is the device's configuration, and tree shape — hence arena size
//! and speed — moves by tens of percent from one generated ruleset to the
//! next, which would drown every bound.  `--seed` draws what arrives at the
//! device: traces, flow pools, and the update stream.

use crate::flowpool::{flow_pool, zipf_trace, Rng};
use crate::spans::Tracer;
use packet_classifier::algos::hicuts::HiCutsConfig;
use packet_classifier::algos::{Classifier, HotCache, HotCacheConfig, LookupStats};
use packet_classifier::prelude::*;
use packet_classifier::types::{MatchResult, Rule, RuleId};
use std::sync::Arc;

/// Engine sub-batch size, and the packet count of one burst call.
pub const BATCH: usize = 512;
/// Hot-cache geometry of the `flows*_cached` workloads (and of the cache
/// probes on every other workload).
pub const HOT_CACHE: HotCacheConfig = HotCacheConfig {
    capacity: 4_096,
    assoc: 4,
};
/// Generator seed of every ruleset (the date of the paper's conference).
pub const RULESET_SEED: u64 = 20_080_414;
/// Word capacity of the accelerator memory image.
pub const HW_WORDS: usize = 4_096;
/// Open-loop interval between two replace bursts of `churn10k`.
pub const CHURN_INTERVAL_NS: u64 = 4_000_000;

pub type Flat = FlatTreeClassifier;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fixed `Engine` over hicuts-flat, uniform trace.
    Uniform { rules: usize, packets: usize },
    /// Fixed `Engine` with the hot cache in front, Zipf(1.0) over a pool of
    /// `flows` distinct flows.
    Cached { flows: usize },
    /// `LiveEngine` serving while an open-loop stream of replace bursts
    /// lands.
    Churn,
    /// `TenantRouter` over 16 tenants with skewed sizes and weights.
    Tenants,
    /// The paper's accelerator model and energy model.
    Hw,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; README.md has the long form.
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "acl2k_uniform",
        why: "paper-scale ruleset, cache-resident arena: flat walk, per-sub-batch header copy and per-call fork/join share the time; cache, live and tenant layers bypassed",
        kind: Kind::Uniform {
            rules: 2_000,
            packets: 262_144,
        },
    },
    WorkloadDef {
        name: "acl64k_uniform",
        why: "64,000 rules, arena far larger than L2: the walk is memory-bound and build+flatten dominate set-up; a gather/prefetch gain shows here, a header-copy gain does not",
        kind: Kind::Uniform {
            rules: 64_000,
            packets: 131_072,
        },
    },
    WorkloadDef {
        name: "flows1k_cached",
        why: "Zipf over 1,024 flows behind a 4,096-entry hot cache (hit rate ~1): the probe fast path and the serving-loop floor do all the work",
        kind: Kind::Cached { flows: 1_024 },
    },
    WorkloadDef {
        name: "flows64k_cached",
        why: "same cache, 65,536 flows (16x its size): miss, walk, fill and CLOCK eviction carry the cost; a hit-path gain that taxes misses shows as a loss",
        kind: Kind::Cached { flows: 65_536 },
    },
    WorkloadDef {
        name: "churn10k",
        why: "10,000 rules served by a LiveEngine while open-loop replace bursts land every 4 ms: patch, whole-structure clone and epoch publish beside a walking reader",
        kind: Kind::Churn,
    },
    WorkloadDef {
        name: "tenants16_skew",
        why: "16 tenants (1x10,000 + 15x500 rules, weights 4,1..1) through TenantRouter::classify_tagged: the router's own group/scatter/merge copy of the shard loop",
        kind: Kind::Tenants,
    },
    WorkloadDef {
        name: "hw_acl2k",
        why: "the paper's own units: modified-HiCuts memory image on the cycle-accurate accelerator and the ASIC energy model; simulated counts are deterministic",
        kind: Kind::Hw,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One tenant of `tenants16_skew`.
pub struct Tenant {
    pub id: TenantId,
    pub rules: RuleSet,
    pub flat: Arc<Flat>,
    pub trace: Trace,
}

/// The serving front end of a workload, at 1 and at 2 workers.
// One value per run: the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Front {
    Fixed {
        w1: Engine,
        w2: Engine,
    },
    Live {
        live: Arc<LiveClassifier<Flat>>,
        w1: LiveEngine<Flat>,
        w2: LiveEngine<Flat>,
        /// The update stream: burst `k` deletes `bursts[k].0` and inserts
        /// `bursts[k].1` (a fresh rule under the same id).
        bursts: Vec<(RuleId, Rule)>,
    },
    Tenants {
        w1: TenantRouter<Flat>,
        w2: TenantRouter<Flat>,
        tenants: Vec<Tenant>,
        tagged: TaggedTrace,
    },
    Hw {
        program: Arc<HardwareProgram>,
        /// The accelerator model behind a 2-worker `Engine`.
        w2: Engine,
    },
}

/// Seconds each set-up stage took (one span each in a traced run).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub ruleset_gen_s: f64,
    pub trace_gen_s: f64,
    pub hicuts_build_s: f64,
    pub flatten_s: f64,
    pub core_build_s: f64,
}

/// Everything a run serves and probes: the workload's primary ruleset, its
/// pointer tree and flat arena, its primary trace, and the front end.
pub struct Built {
    pub rules: RuleSet,
    pub tree: HiCutsClassifier,
    pub flat: Arc<Flat>,
    pub trace: Trace,
    pub front: Front,
    pub times: SetupTimes,
    pub input_hash: u64,
}

fn acl(rules: usize, salt: u64) -> RuleSet {
    ClassBenchGenerator::new(SeedStyle::Acl, RULESET_SEED + salt).generate(rules)
}

fn uniform_trace(rules: &RuleSet, packets: usize, seed: u64) -> Trace {
    TraceGenerator::new(rules, seed)
        .max_burst(1)
        .generate(packets)
}

/// The traffic a workload of this kind sends at `rules` under `seed` (one
/// tenant's share for [`Kind::Tenants`]).
fn traffic(kind: Kind, rules: &RuleSet, seed: u64) -> Trace {
    match kind {
        Kind::Uniform { packets, .. } => uniform_trace(rules, packets, seed),
        Kind::Cached { flows } => zipf_trace(&flow_pool(rules, flows, seed), 1 << 20, 1.0, seed),
        Kind::Churn => uniform_trace(rules, 262_144, seed),
        Kind::Tenants => uniform_trace(rules, 16_384, seed),
        Kind::Hw => uniform_trace(rules, 65_536, seed),
    }
}

/// The paper-scale inputs the baseline and accelerator probes use on a
/// workload whose own ruleset is larger: `acl2k_uniform`'s ruleset cut to
/// `rules`, and `packets` of uniform traffic for it.
pub fn paper_scale(rules: usize, packets: usize, seed: u64) -> (RuleSet, Trace) {
    let rules = acl(rules, 0);
    let trace = uniform_trace(&rules, packets, seed);
    (rules, trace)
}

/// The set-up stages, each one span and one entry of [`SetupTimes`].
struct Stages<'t> {
    t: &'t mut Tracer,
    times: SetupTimes,
}

impl Stages<'_> {
    fn rules(&mut self, make: impl FnOnce() -> RuleSet) -> RuleSet {
        let (rules, secs) = self.t.span("classbench.generate", |_| make());
        self.times.ruleset_gen_s += secs;
        rules
    }

    fn trace<T>(&mut self, make: impl FnOnce() -> T) -> T {
        let (trace, secs) = self.t.span("classbench.trace", |_| make());
        self.times.trace_gen_s += secs;
        trace
    }

    fn flat(&mut self, rules: &RuleSet) -> (HiCutsClassifier, Arc<Flat>) {
        let (tree, secs) = self.t.span("algos.build", |_| {
            HiCutsClassifier::build(rules, &HiCutsConfig::paper_defaults())
        });
        self.times.hicuts_build_s += secs;
        let (flat, secs) = self.t.span("algos.flatten", |_| tree.flatten());
        self.times.flatten_s += secs;
        (tree, Arc::new(flat))
    }

    fn program(&mut self, rules: &RuleSet) -> Arc<HardwareProgram> {
        let (program, secs) = self
            .t
            .span("core.build", |_| build_program(rules, CutAlgorithm::HiCuts));
        self.times.core_build_s += secs;
        Arc::new(program)
    }
}

/// A live classifier over a fresh copy of `flat`, and the 1- and 2-worker
/// engines that serve its snapshots.
pub fn live_front(
    flat: &Flat,
) -> (
    Arc<LiveClassifier<Flat>>,
    LiveEngine<Flat>,
    LiveEngine<Flat>,
) {
    let live = Arc::new(LiveClassifier::new(flat.clone()));
    let config = EngineConfig::new().batch_size(BATCH);
    let w1 = config.live_engine(Arc::clone(&live));
    let w2 = config.workers(2).live_engine(Arc::clone(&live));
    (live, w1, w2)
}

/// A fixed `Engine` front end at 1 and 2 workers over the hicuts-flat arena
/// of `count` acl rules, behind a hot cache if one is given.
fn fixed_front(
    st: &mut Stages,
    kind: Kind,
    count: usize,
    hot_cache: Option<HotCacheConfig>,
    seed: u64,
    wrap: &dyn Fn(Arc<Flat>, &Trace) -> SharedClassifier,
) -> (RuleSet, HiCutsClassifier, Arc<Flat>, Trace, Front) {
    let rules = st.rules(|| acl(count, 0));
    let trace = st.trace(|| traffic(kind, &rules, seed));
    let (tree, flat) = st.flat(&rules);
    let mut config = EngineConfig::new().batch_size(BATCH);
    if let Some(cache) = hot_cache {
        config = config.hot_cache(cache);
    }
    let shared = wrap(Arc::clone(&flat), &trace);
    let w1 = config.engine(Arc::clone(&shared));
    let w2 = config.workers(2).engine(shared);
    (rules, tree, flat, trace, Front::Fixed { w1, w2 })
}

/// Generates the workload's inputs from `seed` and sets the product up to
/// serve them.  This is what `setup_s` times; the oracle is not part of it.
///
/// `wrap` lets `--self-test` put a fault-injecting classifier between the
/// engine and the arena; every other run passes the identity.
pub fn set_up(
    def: &WorkloadDef,
    seed: u64,
    t: &mut Tracer,
    wrap: &dyn Fn(Arc<Flat>, &Trace) -> SharedClassifier,
) -> Built {
    let mut st = Stages {
        t,
        times: SetupTimes::default(),
    };
    let (rules, tree, flat, trace, front) = match def.kind {
        Kind::Uniform { rules, .. } => fixed_front(&mut st, def.kind, rules, None, seed, wrap),
        Kind::Cached { .. } => fixed_front(&mut st, def.kind, 2_000, Some(HOT_CACHE), seed, wrap),
        Kind::Churn => {
            let rules = st.rules(|| acl(10_000, 0));
            let trace = st.trace(|| traffic(def.kind, &rules, seed));
            // The update stream: rule ids in a seed-shuffled order, each
            // replaced by a rule of a ruleset generated from the seed.
            let fresh = st.rules(|| {
                ClassBenchGenerator::new(SeedStyle::Acl, seed ^ 0xC0_FFEE).generate(8_192)
            });
            let mut ids: Vec<RuleId> = (0..rules.len() as RuleId).collect();
            Rng::new(seed).shuffle(&mut ids);
            let bursts = ids
                .into_iter()
                .zip(fresh.rules().iter().cycle())
                .map(|(id, rule)| (id, Rule::new(id, rule.ranges)))
                .collect();
            let (tree, flat) = st.flat(&rules);
            let (live, w1, w2) = live_front(&flat);
            let front = Front::Live {
                live,
                w1,
                w2,
                bursts,
            };
            (rules, tree, flat, trace, front)
        }
        Kind::Tenants => {
            let mut trees = Vec::new();
            let mut tenants = Vec::new();
            for tenant in 0..16u64 {
                let size = if tenant == 0 { 10_000 } else { 500 };
                let rules = st.rules(|| acl(size, tenant));
                let trace = st.trace(|| traffic(def.kind, &rules, seed + tenant));
                let (tree, flat) = st.flat(&rules);
                trees.push(tree);
                tenants.push((rules, flat, trace));
            }
            let router = |workers: usize| {
                EngineConfig::new()
                    .batch_size(BATCH)
                    .workers(workers)
                    .tenant_router(tenants.iter().enumerate().map(|(i, (_, flat, _))| {
                        let weight = if i == 0 { 4 } else { 1 };
                        let spec = TenantSpec::new(format!("t{i}")).weight(weight);
                        (spec, (**flat).clone())
                    }))
            };
            let (w1, w2) = (router(1), router(2));
            let ids = w1.tenant_ids();
            assert_eq!(ids, w2.tenant_ids(), "both routers mint the same handles");
            let tagged = st.trace(|| {
                let traffic: Vec<(TenantId, &Trace)> = ids
                    .iter()
                    .zip(&tenants)
                    .map(|(id, tn)| (*id, &tn.2))
                    .collect();
                w1.interleave("tenants16", &traffic)
            });
            let tenants: Vec<Tenant> = tenants
                .into_iter()
                .zip(ids)
                .map(|((rules, flat, trace), id)| Tenant {
                    id,
                    rules,
                    flat,
                    trace,
                })
                .collect();
            // The layer probes run on the large tenant.
            let primary = &tenants[0];
            let (rules, flat, trace) = (
                primary.rules.clone(),
                Arc::clone(&primary.flat),
                primary.trace.clone(),
            );
            let front = Front::Tenants {
                w1,
                w2,
                tenants,
                tagged,
            };
            (rules, trees.swap_remove(0), flat, trace, front)
        }
        Kind::Hw => {
            let rules = st.rules(|| acl(2_000, 0));
            let trace = st.trace(|| traffic(def.kind, &rules, seed));
            let program = st.program(&rules);
            let accelerator = AcceleratorClassifier::new((*program).clone());
            let w2 = EngineConfig::new()
                .batch_size(BATCH)
                .workers(2)
                .engine(Arc::new(accelerator));
            // The software arena of the same ruleset, for the layer probes.
            let (tree, flat) = st.flat(&rules);
            (rules, tree, flat, trace, Front::Hw { program, w2 })
        }
    };

    let mut hash = Fnv::new();
    hash.rules(&rules);
    hash.trace(&trace);
    match &front {
        Front::Live { bursts, .. } => bursts.iter().for_each(|(_, rule)| hash.rule(rule)),
        Front::Tenants {
            tenants, tagged, ..
        } => {
            tenants.iter().for_each(|tn| hash.rules(&tn.rules));
            tagged.entries().iter().for_each(|p| {
                hash.word(p.tenant.slot() as u32);
                hash.header(&p.header);
            });
        }
        Front::Fixed { .. } | Front::Hw { .. } => {}
    }
    Built {
        rules,
        tree,
        flat,
        trace,
        front,
        times: st.times,
        input_hash: hash.0,
    }
}

/// The accelerator memory image of a ruleset (paper defaults, 4,096 words).
pub fn build_program(rules: &RuleSet, algorithm: CutAlgorithm) -> HardwareProgram {
    HardwareProgram::build_with_capacity(rules, &BuildConfig::paper_defaults(algorithm), HW_WORDS)
        .unwrap_or_else(|e| panic!("{} does not fit the accelerator: {e}", rules.name()))
}

impl Built {
    /// `struct_mib`: bytes of what the front end serves from.
    pub fn struct_bytes(&self) -> usize {
        match &self.front {
            Front::Fixed { w1, .. } => {
                let cache = match w1.cache_stats() {
                    Some(_) => HotCache::new(HOT_CACHE).memory_bytes(),
                    None => 0,
                };
                self.flat.memory_bytes() + cache
            }
            Front::Live { .. } => self.flat.memory_bytes(),
            Front::Tenants { w1, .. } => w1.memory_in_use(),
            Front::Hw { program, .. } => program.memory_bytes(),
        }
    }
}

/// The simulated cost of classifying on the modelled device.
#[derive(Debug, Clone, Copy)]
pub struct Simulated {
    pub cycles_per_pkt: f64,
    pub accesses_per_pkt: f64,
    pub worst_accesses: f64,
    pub nj_per_pkt: f64,
}

/// Packets the software `sim_*` metrics are counted over.
pub const SIM_PACKETS: usize = 16_384;

/// Counts an arena's work on `packets` and prices it on the paper's
/// software platform, the SA-1100 model.
fn simulate_software<'a>(packets: impl Iterator<Item = (&'a Flat, &'a PacketHeader)>) -> Simulated {
    let model = Sa1100Model::new();
    let mut total = LookupStats::new();
    let (mut worst, mut n) = (0u64, 0.0);
    for (flat, header) in packets {
        let mut stats = LookupStats::new();
        flat.classify_with_stats(header, &mut stats);
        worst = worst.max(stats.memory_accesses);
        total.merge(&stats);
        n += 1.0;
    }
    Simulated {
        cycles_per_pkt: model.cycles(&total.ops) / n,
        accesses_per_pkt: total.memory_accesses as f64 / n,
        worst_accesses: worst as f64,
        nj_per_pkt: model.lookup_energy_j(&total) * 1e9 / n,
    }
}

impl Built {
    /// The `sim_*` metrics: what classifying costs on the paper's devices —
    /// the accelerator for `hw_acl2k`, the SA-1100 running the serving
    /// arena's lookups everywhere else (a hot cache in front is not
    /// modelled).
    ///
    /// They are counted over the workload's **reference traffic** — its
    /// traffic under the reference seed, not under `--seed` — so that they
    /// are exact: the same under every seed, and bit-identical between any
    /// two runs of the same code.
    pub fn simulated(&self, kind: Kind) -> Simulated {
        let reference = |rules: &RuleSet, salt: u64| traffic(kind, rules, RULESET_SEED + salt);
        match &self.front {
            Front::Hw { program, .. } => simulate_hardware(
                &Accelerator::new(program).classify_trace(&reference(&self.rules, 0)),
            ),
            Front::Tenants { tenants, .. } => {
                let traces: Vec<Trace> = tenants
                    .iter()
                    .zip(0..)
                    .map(|(tn, slot)| reference(&tn.rules, slot))
                    .collect();
                let share = SIM_PACKETS / tenants.len();
                simulate_software(
                    tenants.iter().zip(&traces).flat_map(|(tn, trace)| {
                        trace.headers().take(share).map(|h| (&*tn.flat, h))
                    }),
                )
            }
            _ => {
                let trace = reference(&self.rules, 0);
                simulate_software(trace.headers().take(SIM_PACKETS).map(|h| (&*self.flat, h)))
            }
        }
    }
}

/// The accelerator's own cycle, access and energy figures of one replay.
pub fn simulate_hardware(report: &ClassificationReport) -> Simulated {
    let n = report.packets() as f64;
    Simulated {
        cycles_per_pkt: report.avg_cycles_per_packet(),
        accesses_per_pkt: report
            .per_packet
            .iter()
            .map(|p| u64::from(p.memory_accesses()))
            .sum::<u64>() as f64
            / n,
        worst_accesses: f64::from(report.observed_worst_accesses()),
        nj_per_pkt: packet_classifier::energy::AcceleratorEnergyModel::asic()
            .energy_per_packet_j(report)
            * 1e9,
    }
}

/// A classifier that decides `NoMatch` and touches nothing: behind an
/// `Engine` it measures the serving loop alone.
pub struct NullClassifier;

impl Classifier for NullClassifier {
    fn name(&self) -> &'static str {
        "null"
    }

    fn classify(&self, _: &PacketHeader) -> MatchResult {
        MatchResult::NoMatch
    }

    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        out.resize(out.len() + pkts.len(), MatchResult::NoMatch);
    }

    fn classify_with_stats(&self, _: &PacketHeader, _: &mut LookupStats) -> MatchResult {
        MatchResult::NoMatch
    }

    fn memory_bytes(&self) -> usize {
        0
    }
}

/// `--self-test`: decides like the classifier behind it except for one
/// header, whose decision it corrupts.  The correctness gate must see it.
pub struct CorruptingClassifier {
    pub inner: Arc<Flat>,
    pub victim: PacketHeader,
}

impl CorruptingClassifier {
    fn corrupt(result: MatchResult) -> MatchResult {
        match result {
            MatchResult::Matched(_) => MatchResult::NoMatch,
            MatchResult::NoMatch => MatchResult::Matched(0),
        }
    }
}

impl Classifier for CorruptingClassifier {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        let result = self.inner.classify(pkt);
        if *pkt == self.victim {
            Self::corrupt(result)
        } else {
            result
        }
    }

    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        let base = out.len();
        self.inner.classify_batch(pkts, out);
        for (pkt, result) in pkts.iter().zip(&mut out[base..]) {
            if *pkt == self.victim {
                *result = Self::corrupt(*result);
            }
        }
    }

    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
        self.inner.classify_with_stats(pkt, stats)
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// FNV-1a over the generated inputs, so two runs can prove they measured
/// the same rulesets and traces.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, word: u32) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn header(&mut self, header: &PacketHeader) {
        header.fields.iter().for_each(|f| self.word(*f));
    }

    fn rule(&mut self, rule: &Rule) {
        self.word(rule.id);
        for range in &rule.ranges {
            self.word(range.lo);
            self.word(range.hi);
        }
    }

    fn rules(&mut self, rules: &RuleSet) {
        rules.rules().iter().for_each(|r| self.rule(r));
    }

    fn trace(&mut self, trace: &Trace) {
        trace.headers().for_each(|h| self.header(h));
    }
}
