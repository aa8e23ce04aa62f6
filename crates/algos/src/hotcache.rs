//! Popularity-adaptive exact-match hot-flow cache.
//!
//! Skewed (Zipf) traffic already runs faster than uniform traffic purely
//! from hardware cache residency; nothing in the stack *adapts* to the
//! skew.  This module adds the classic software analogue of the source
//! paper's TCAM fast path: a small bounded exact-match cache keyed on the
//! 5-tuple, sitting in front of any [`Classifier`], that answers repeat
//! flows without walking the search structure at all.
//!
//! Two layers:
//!
//! * [`HotCache`] — the raw set-associative cache.  Probes and fills work
//!   through `&self` (per-entry seqlock over plain atomics, no `unsafe`),
//!   so one cache can be shared by concurrent readers and writers; every
//!   entry carries a **generation tag** and a probe only hits when the
//!   entry's tag equals the probe's, which is how invalidation works
//!   without ever touching the entries.
//! * [`CachedClassifier`] — fronts any [`Classifier`] with a [`HotCache`].
//!   Batch lookups probe the whole sub-batch first and fall the misses
//!   through to the inner [`Classifier::classify_batch`] as **one dense
//!   batch**, so a vectorised lane walk behind the cache still sees full
//!   lanes.  When the inner classifier is an [`UpdatableClassifier`], every
//!   successful `insert`/`delete` moves the wrapper to a fresh generation
//!   allocated by the cache, so a stale hit is structurally impossible —
//!   entries filled against the old ruleset no longer match any probe.
//!   It is the stack's only cache integration: an `Engine` worker, a live
//!   cell or a router tenant that wants a cache is built over one.
//!
//! Eviction is CLOCK (second chance): a hit sets the entry's reference bit,
//! a fill sweeps the set's clock hand, clearing reference bits until it
//! finds an unreferenced victim — stale-generation entries are reclaimed
//! first.  Hit/miss/eviction counters feed
//! [`pclass_types::CacheStats`] and the `cache_*` fields of
//! [`LookupStats`].

use crate::counters::LookupStats;
use crate::update::{UpdatableClassifier, UpdateError};
use crate::Classifier;
use pclass_types::{
    CacheStats, DimensionSpec, MatchResult, PacketHeader, Rule, RuleId, UpdateStats,
};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Geometry of a [`HotCache`]: total entry budget and set associativity.
///
/// The cache rounds the set count down to a power of two, so the actual
/// entry count ([`HotCache::slot_count`]) never exceeds `capacity`.  A
/// `capacity` of 0 disables caching entirely (every lookup falls through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotCacheConfig {
    /// Maximum number of cached flows (upper bound; rounded down to
    /// `sets × assoc` with a power-of-two set count).
    pub capacity: usize,
    /// Entries per set (clamped to `1..=capacity`).
    pub assoc: usize,
}

impl HotCacheConfig {
    /// Default entry budget: small enough that hot flows must *earn* their
    /// slot under CLOCK, large enough to hold the hot set of a Zipf trace.
    pub const DEFAULT_CAPACITY: usize = 1024;
    /// Default associativity.
    pub const DEFAULT_ASSOC: usize = 4;

    /// A config with an explicit capacity and associativity.
    pub fn new(capacity: usize, assoc: usize) -> HotCacheConfig {
        HotCacheConfig { capacity, assoc }
    }
}

impl Default for HotCacheConfig {
    fn default() -> HotCacheConfig {
        HotCacheConfig {
            capacity: Self::DEFAULT_CAPACITY,
            assoc: Self::DEFAULT_ASSOC,
        }
    }
}

/// Generation tag of a slot that has never been filled.  Real tags are
/// allocated from a counter starting at 0, so this value never matches.
const EMPTY_GENERATION: u64 = u64::MAX;

/// Encoding of [`MatchResult`] in one word: rule ids are strictly below
/// `u32::MAX` (the update model reserves it), so the maximum encodes
/// `NoMatch`.
const NO_MATCH: u32 = u32::MAX;

fn encode(result: MatchResult) -> u32 {
    match result {
        MatchResult::Matched(id) => {
            debug_assert_ne!(id, NO_MATCH, "u32::MAX is the no-match sentinel");
            id
        }
        MatchResult::NoMatch => NO_MATCH,
    }
}

fn decode(word: u32) -> MatchResult {
    if word == NO_MATCH {
        MatchResult::NoMatch
    } else {
        MatchResult::Matched(word)
    }
}

/// One cache entry.  `version` is a per-entry seqlock: even = stable, odd =
/// a fill in progress.  Readers accept an entry only if the version is even
/// and unchanged across their field loads; writers acquire the slot with a
/// compare-exchange to odd, store the fields, and release with `+2`.  All
/// field loads are `Acquire` and all field stores are `Release`, so a field
/// value can never be observed ahead of the version transition that
/// published it — a torn (half-written) entry is always rejected by the
/// version re-check.
struct Slot {
    version: AtomicU64,
    generation: AtomicU64,
    key: [AtomicU32; 5],
    result: AtomicU32,
    referenced: AtomicU32,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            generation: AtomicU64::new(EMPTY_GENERATION),
            key: [const { AtomicU32::new(0) }; 5],
            result: AtomicU32::new(NO_MATCH),
            referenced: AtomicU32::new(0),
        }
    }
}

/// Mixes the five header words into a well-distributed 64-bit hash
/// (SplitMix64-style finalisation per word).
fn hash_fields(fields: &[u32; 5]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &f in fields {
        h ^= u64::from(f);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h ^ (h >> 31)
}

/// A bounded set-associative exact-match flow cache with per-entry
/// generation tags and CLOCK eviction.  See the [module docs](self).
///
/// All operations take `&self`; the cache is safe to share across threads.
/// Fills are best-effort: a fill that races another writer on the same slot
/// is simply dropped (the flow will be re-filled on its next miss), which
/// keeps the read path lock-free.
pub struct HotCache {
    config: HotCacheConfig,
    /// Entries, `sets × assoc`, set-major.  Empty when `capacity == 0`.
    slots: Vec<Slot>,
    /// Power-of-two set count (0 when the cache is disabled).
    sets: usize,
    /// Effective associativity after clamping (0 when the cache is disabled).
    assoc: usize,
    /// Per-set CLOCK hands.
    hands: Vec<AtomicUsize>,
    /// Allocator for generation tags (see [`HotCache::allocate_generation`]).
    generations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for HotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotCache")
            .field("config", &self.config)
            .field("sets", &self.sets)
            .field("assoc", &self.assoc)
            .field("stats", &self.stats())
            .finish()
    }
}

impl HotCache {
    /// Builds a cache with the given geometry.  The set count is the
    /// largest power of two such that `sets × assoc <= capacity`, so the
    /// entry budget is a hard bound.
    pub fn new(config: HotCacheConfig) -> HotCache {
        let (sets, assoc) = if config.capacity == 0 {
            (0, 0)
        } else {
            let assoc = config.assoc.clamp(1, config.capacity);
            let max_sets = (config.capacity / assoc).max(1);
            // Largest power of two <= max_sets.
            let sets = 1usize << (usize::BITS - 1 - max_sets.leading_zeros());
            (sets, assoc)
        };
        let slot_count = sets * assoc;
        HotCache {
            config,
            slots: (0..slot_count).map(|_| Slot::empty()).collect(),
            sets,
            assoc,
            hands: (0..sets).map(|_| AtomicUsize::new(0)).collect(),
            generations: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> HotCacheConfig {
        self.config
    }

    /// Actual number of entry slots (`<= config.capacity`).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Allocates a generation tag never handed out by this cache before.
    /// Distinct tags never hit each other's entries, so every classifier
    /// lineage (and every post-update state) gets its own namespace inside
    /// one shared cache.
    fn allocate_generation(&self) -> u64 {
        let tag = self.generations.fetch_add(1, Ordering::Relaxed);
        debug_assert_ne!(tag, EMPTY_GENERATION);
        tag
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Bytes occupied by the cache arrays.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
            + self.hands.len() * std::mem::size_of::<AtomicUsize>()
    }

    fn set_base(&self, pkt: &PacketHeader) -> usize {
        // High bits of the mix index the set (low bits are the weakest).
        ((hash_fields(&pkt.fields) >> 7) as usize & (self.sets - 1)) * self.assoc
    }

    /// Looks the flow up under a generation tag.  `None` is a miss (and is
    /// counted as one).
    pub fn probe(&self, pkt: &PacketHeader, tag: u64) -> Option<MatchResult> {
        if self.slots.is_empty() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.probe_slots(pkt, tag) {
            Some(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The uncounted probe loop ([`HotCache::serve_batch`] batches the
    /// counter updates — one atomic add per sub-batch instead of one
    /// contended read-modify-write per packet on the hot path).
    fn probe_slots(&self, pkt: &PacketHeader, tag: u64) -> Option<MatchResult> {
        let base = self.set_base(pkt);
        for slot in &self.slots[base..base + self.assoc] {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                continue; // fill in progress
            }
            let generation = slot.generation.load(Ordering::Acquire);
            let mut key = [0u32; 5];
            for (k, word) in key.iter_mut().zip(&slot.key) {
                *k = word.load(Ordering::Acquire);
            }
            let result = slot.result.load(Ordering::Acquire);
            if slot.version.load(Ordering::Acquire) != v1 {
                continue; // raced a fill: the fields above may be torn
            }
            if generation != tag || key != pkt.fields {
                continue;
            }
            if slot.referenced.load(Ordering::Relaxed) == 0 {
                slot.referenced.store(1, Ordering::Relaxed);
            }
            return Some(decode(result));
        }
        None
    }

    /// Caches a flow's decision under a generation tag.  Returns `true` if
    /// a live entry (same tag, different flow) was evicted to make room.
    pub fn fill(&self, pkt: &PacketHeader, tag: u64, result: MatchResult) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let base = self.set_base(pkt);
        let set = &self.slots[base..base + self.assoc];

        // Duplicate suppression and victim choice in one sweep: an entry
        // already holding this flow is refreshed in place, and any
        // stale-generation entry is reclaimed before a live one.
        let mut victim = None;
        for (way, slot) in set.iter().enumerate() {
            let generation = slot.generation.load(Ordering::Acquire);
            if generation == tag {
                let mut key = [0u32; 5];
                for (k, word) in key.iter_mut().zip(&slot.key) {
                    *k = word.load(Ordering::Acquire);
                }
                if key == pkt.fields {
                    victim = Some(way);
                    break;
                }
            } else if victim.is_none() {
                victim = Some(way);
            }
        }
        // No empty/stale way: CLOCK second-chance sweep over the set.  The
        // hand and the reference bits are advisory (eviction *choice* is a
        // heuristic; entry *contents* are what the seqlock protects), so
        // plain load/store racing another fill is benign — and much cheaper
        // than a locked read-modify-write per swept way.
        let way = victim.unwrap_or_else(|| {
            let hand = &self.hands[base / self.assoc];
            let mut h = hand.load(Ordering::Relaxed);
            let mut chosen = None;
            for _ in 0..2 * self.assoc {
                let way = h % self.assoc;
                h = h.wrapping_add(1);
                if set[way].referenced.load(Ordering::Relaxed) == 0 {
                    chosen = Some(way);
                    break;
                }
                set[way].referenced.store(0, Ordering::Relaxed);
            }
            hand.store(h, Ordering::Relaxed);
            chosen.unwrap_or(h % self.assoc)
        });

        let slot = &set[way];
        let v = slot.version.load(Ordering::Acquire);
        if v & 1 == 1 {
            return false; // another fill owns the slot; drop ours
        }
        if slot
            .version
            .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let old_generation = slot.generation.load(Ordering::Acquire);
        let mut old_key = [0u32; 5];
        for (k, word) in old_key.iter_mut().zip(&slot.key) {
            *k = word.load(Ordering::Acquire);
        }
        let evicted = old_generation == tag && old_key != pkt.fields;
        slot.generation.store(tag, Ordering::Release);
        for (word, &k) in slot.key.iter().zip(&pkt.fields) {
            word.store(k, Ordering::Release);
        }
        slot.result.store(encode(result), Ordering::Release);
        slot.referenced.store(1, Ordering::Relaxed);
        slot.version.store(v + 2, Ordering::Release);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }

    /// Batch-aware serve: probes every packet under `tag`, falls the misses
    /// through to `fallback` as **one dense batch** (so a vectorised walk
    /// behind the cache still sees full lanes), scatters the fallback
    /// results into place, and fills the cache with them.
    ///
    /// Consecutive identical headers — the flow bursts ClassBench traces
    /// carry — are served **once**: a burst's repeats reuse the first
    /// packet's disposition (its cached result, or its slot in the miss
    /// batch) without re-probing, and count as hits when the first packet
    /// hit.  Probing the whole sub-batch before filling would otherwise
    /// make every packet of a cold burst miss individually, hiding exactly
    /// the locality a flow cache exists to exploit.
    ///
    /// Appends exactly `pkts.len()` results to `out` in input order, like
    /// [`Classifier::classify_batch`]; `fallback` must do the same for the
    /// miss batch it is handed.
    pub fn serve_batch<F>(
        &self,
        tag: u64,
        pkts: &[PacketHeader],
        out: &mut Vec<MatchResult>,
        fallback: F,
    ) where
        F: FnOnce(&[PacketHeader], &mut Vec<MatchResult>),
    {
        if self.slots.is_empty() {
            // Disabled cache: pure pass-through (every packet is a miss).
            self.misses.fetch_add(pkts.len() as u64, Ordering::Relaxed);
            fallback(pkts, out);
            return;
        }
        let base = out.len();
        out.resize(base + pkts.len(), MatchResult::NoMatch);
        let mut hits = 0u64;
        // (position, index into `miss_pkts`) — burst repeats of a missed
        // flow share one miss-batch slot instead of walking twice.
        let mut miss_at: Vec<(usize, usize)> = Vec::new();
        let mut miss_pkts: Vec<PacketHeader> = Vec::new();
        for (i, pkt) in pkts.iter().enumerate() {
            if i > 0 && *pkt == pkts[i - 1] {
                match miss_at.last().copied() {
                    Some((at, m)) if at == i - 1 => miss_at.push((i, m)),
                    _ => {
                        out[base + i] = out[base + i - 1];
                        hits += 1;
                    }
                }
                continue;
            }
            match self.probe_slots(pkt, tag) {
                Some(result) => {
                    out[base + i] = result;
                    hits += 1;
                }
                None => {
                    miss_at.push((i, miss_pkts.len()));
                    miss_pkts.push(*pkt);
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(miss_at.len() as u64, Ordering::Relaxed);
        if miss_pkts.is_empty() {
            return;
        }
        let mut fallthrough = Vec::with_capacity(miss_pkts.len());
        fallback(&miss_pkts, &mut fallthrough);
        debug_assert_eq!(fallthrough.len(), miss_pkts.len(), "impure fallback");
        let mut filled = usize::MAX;
        for &(i, m) in &miss_at {
            let result = fallthrough[m];
            out[base + i] = result;
            if m != filled {
                self.fill(&pkts[i], tag, result);
                filled = m;
            }
        }
    }
}

/// Fronts any [`Classifier`] with a fresh [`HotCache`] of its own.  See
/// the [module docs](self).
///
/// Cloning shares the cache (`Arc`) and keeps the generation tag: a clone
/// serves the same ruleset, so warm entries stay valid for it.  The moment
/// either copy mutates (via [`UpdatableClassifier`]), it moves alone to a
/// freshly allocated generation, so divergent clones can never serve each
/// other's entries.  That is exactly the lifecycle of
/// `pclass_engine::LiveClassifier`'s snapshot twins (one serves while the
/// other absorbs updates), which this wrapper composes with unchanged: a
/// cell over one has one cache, shared by both twins and their workers.
#[derive(Debug, Clone)]
pub struct CachedClassifier<C> {
    inner: C,
    cache: Arc<HotCache>,
    generation: u64,
}

impl<C> CachedClassifier<C> {
    /// Wraps a classifier behind a fresh cache with this geometry.
    pub fn new(inner: C, config: HotCacheConfig) -> CachedClassifier<C> {
        let cache = HotCache::new(config);
        CachedClassifier {
            inner,
            generation: cache.allocate_generation(),
            cache: Arc::new(cache),
        }
    }

    /// The backing classifier.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The cache in front of it.
    pub fn cache(&self) -> &Arc<HotCache> {
        &self.cache
    }

    /// The generation tag this wrapper currently probes and fills under.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl<C: Classifier> Classifier for CachedClassifier<C> {
    fn name(&self) -> &'static str {
        // The cache is a transparent accelerator, not an algorithm: reports
        // keep attributing decisions to the backing structure.
        self.inner.name()
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        if let Some(result) = self.cache.probe(pkt, self.generation) {
            return result;
        }
        let result = self.inner.classify(pkt);
        self.cache.fill(pkt, self.generation, result);
        result
    }

    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        self.cache
            .serve_batch(self.generation, pkts, out, |miss, fell| {
                self.inner.classify_batch(miss, fell)
            });
    }

    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
        // The probe touches the set's `assoc` entries (0 without slots).
        let probe_loads = self.cache.assoc as u64;
        stats.ops.loads += probe_loads;
        stats.memory_accesses += probe_loads;
        if let Some(result) = self.cache.probe(pkt, self.generation) {
            stats.cache_hits += 1;
            return result;
        }
        stats.cache_misses += 1;
        let result = self.inner.classify_with_stats(pkt, stats);
        if probe_loads > 0 {
            stats.ops.stores += 8; // one slot rewrite
            stats.cache_evictions += u64::from(self.cache.fill(pkt, self.generation, result));
        }
        result
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.cache.memory_bytes()
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        // A miss probes the whole set, then pays the inner worst case.
        self.inner
            .worst_case_memory_accesses()
            .map(|inner| inner + self.cache.assoc as u64)
    }

    fn arena_stats(&self) -> Option<pclass_types::ArenaStats> {
        // The arena is the inner structure's; the cache adds no arena.
        self.inner.arena_stats()
    }
}

impl<C: UpdatableClassifier> UpdatableClassifier for CachedClassifier<C> {
    fn insert(&mut self, rule: Rule) -> Result<(), UpdateError> {
        self.inner.insert(rule)?;
        self.generation = self.cache.allocate_generation();
        Ok(())
    }

    fn delete(&mut self, rule_id: RuleId) -> Result<(), UpdateError> {
        self.inner.delete(rule_id)?;
        self.generation = self.cache.allocate_generation();
        Ok(())
    }

    fn live_rules(&self) -> Vec<Rule> {
        self.inner.live_rules()
    }

    fn spec(&self) -> DimensionSpec {
        self.inner.spec()
    }

    fn update_stats(&self) -> UpdateStats {
        self.inner.update_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearClassifier;
    use pclass_types::{DimensionSpec, RuleBuilder, RuleSet};

    fn pkt(a: u32, b: u32, c: u32, d: u32, e: u32) -> PacketHeader {
        PacketHeader::from_fields([a, b, c, d, e])
    }

    fn small_ruleset() -> RuleSet {
        let rules = vec![
            RuleBuilder::new(0).dst_port(80).build(),
            RuleBuilder::new(1).dst_port(443).build(),
            RuleBuilder::new(2).build(), // wildcard catch-all
        ];
        RuleSet::new("hot", DimensionSpec::FIVE_TUPLE, rules).unwrap()
    }

    fn updatable(rs: &RuleSet) -> crate::flat::FlatTreeClassifier {
        crate::hicuts::HiCutsClassifier::build(rs, &crate::hicuts::HiCutsConfig::paper_defaults())
            .flatten()
    }

    #[test]
    fn geometry_respects_the_entry_budget() {
        for (capacity, assoc) in [(0, 4), (1, 4), (3, 4), (7, 2), (1024, 4), (1000, 4), (5, 1)] {
            let cache = HotCache::new(HotCacheConfig::new(capacity, assoc));
            assert!(
                cache.slot_count() <= capacity,
                "capacity {capacity} assoc {assoc} built {} slots",
                cache.slot_count()
            );
            if capacity > 0 {
                assert!(cache.slot_count() >= 1);
                assert!(cache.sets.is_power_of_two());
            }
        }
        assert_eq!(HotCache::new(HotCacheConfig::new(0, 4)).slot_count(), 0);
        assert_eq!(
            HotCache::new(HotCacheConfig::new(1024, 4)).slot_count(),
            1024
        );
    }

    #[test]
    fn probe_fill_roundtrip_and_counters() {
        let cache = HotCache::new(HotCacheConfig::new(64, 4));
        let tag = cache.allocate_generation();
        let p = pkt(1, 2, 3, 4, 5);
        assert_eq!(cache.probe(&p, tag), None);
        cache.fill(&p, tag, MatchResult::Matched(7));
        assert_eq!(cache.probe(&p, tag), Some(MatchResult::Matched(7)));
        // NoMatch decisions are cacheable too.
        let q = pkt(9, 9, 9, 9, 9);
        cache.fill(&q, tag, MatchResult::NoMatch);
        assert_eq!(cache.probe(&q, tag), Some(MatchResult::NoMatch));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn generation_tags_partition_the_cache() {
        let cache = HotCache::new(HotCacheConfig::new(64, 4));
        let old = cache.allocate_generation();
        let new = cache.allocate_generation();
        let p = pkt(1, 2, 3, 4, 5);
        cache.fill(&p, old, MatchResult::Matched(1));
        assert_eq!(cache.probe(&p, new), None, "other tags never hit");
        assert_eq!(cache.probe(&p, old), Some(MatchResult::Matched(1)));
    }

    #[test]
    fn zero_capacity_cache_is_pure_passthrough() {
        let cache = HotCache::new(HotCacheConfig::new(0, 4));
        let tag = cache.allocate_generation();
        let p = pkt(1, 2, 3, 4, 5);
        assert!(!cache.fill(&p, tag, MatchResult::Matched(1)));
        assert_eq!(cache.probe(&p, tag), None);
        let mut out = Vec::new();
        cache.serve_batch(tag, &[p], &mut out, |pkts, fell| {
            fell.extend(pkts.iter().map(|_| MatchResult::Matched(42)));
        });
        assert_eq!(out, vec![MatchResult::Matched(42)]);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clock_eviction_prefers_unreferenced_entries() {
        // One set of 2: fill two flows, touch one, insert a third — the
        // untouched flow is the victim.
        let cache = HotCache::new(HotCacheConfig::new(2, 2));
        assert_eq!(cache.slot_count(), 2);
        let tag = cache.allocate_generation();
        let (a, b, c) = (pkt(1, 0, 0, 0, 0), pkt(2, 0, 0, 0, 0), pkt(3, 0, 0, 0, 0));
        cache.fill(&a, tag, MatchResult::Matched(1));
        cache.fill(&b, tag, MatchResult::Matched(2));
        // Sweep once so both reference bits are cleared, then re-reference a.
        let evicted = cache.fill(&c, tag, MatchResult::Matched(3));
        assert!(evicted, "a full set must evict a live entry");
        assert_eq!(cache.stats().evictions, 1);
        let survivors = [&a, &b, &c]
            .iter()
            .filter(|p| cache.probe(p, tag).is_some())
            .count();
        assert_eq!(survivors, 2, "exactly one of the three was displaced");
    }

    #[test]
    fn serve_batch_scatters_hits_and_dense_misses_in_order() {
        let cache = HotCache::new(HotCacheConfig::new(64, 4));
        let tag = cache.allocate_generation();
        let warm = pkt(1, 1, 1, 1, 1);
        cache.fill(&warm, tag, MatchResult::Matched(10));
        let cold_a = pkt(2, 2, 2, 2, 2);
        let cold_b = pkt(3, 3, 3, 3, 3);
        let batch = [cold_a, warm, cold_b, warm];
        let mut out = vec![MatchResult::Matched(99)]; // pre-existing entry
        cache.serve_batch(tag, &batch, &mut out, |miss, fell| {
            // Only the two cold flows fall through, dense and in order.
            assert_eq!(miss, &[cold_a, cold_b]);
            fell.push(MatchResult::Matched(20));
            fell.push(MatchResult::NoMatch);
        });
        assert_eq!(
            out,
            vec![
                MatchResult::Matched(99),
                MatchResult::Matched(20),
                MatchResult::Matched(10),
                MatchResult::NoMatch,
                MatchResult::Matched(10),
            ]
        );
        // The fallthrough results were filled: everything now hits.
        let mut again = Vec::new();
        cache.serve_batch(tag, &batch, &mut again, |_, _| {
            panic!("second pass must be all hits")
        });
        assert_eq!(again, out[1..]);
    }

    #[test]
    fn cached_classifier_matches_inner_and_counts_stats() {
        let rs = small_ruleset();
        let trace: Vec<PacketHeader> = (0..200)
            .map(|i| pkt(i % 7, i % 5, i % 3, if i % 2 == 0 { 80 } else { 443 }, 6))
            .collect();
        let plain = LinearClassifier::new(rs.clone());
        let cached = CachedClassifier::new(
            LinearClassifier::new(rs.clone()),
            HotCacheConfig::new(64, 4),
        );
        assert_eq!(cached.name(), plain.name());
        for p in &trace {
            assert_eq!(cached.classify(p), plain.classify(p));
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        cached.classify_batch(&trace, &mut a);
        plain.classify_batch(&trace, &mut b);
        assert_eq!(a, b);
        let stats = cached.cache().stats();
        assert!(stats.hits > 0, "repeated flows must hit");
        assert!(cached.memory_bytes() > plain.memory_bytes());
        let mut lookup = LookupStats::new();
        cached.classify_with_stats(&trace[0], &mut lookup);
        assert_eq!(lookup.cache_hits + lookup.cache_misses, 1);
        // The layout report passes through: the cache adds no arena.
        assert_eq!(cached.arena_stats(), None);
        let flat = CachedClassifier::new(updatable(&rs), HotCacheConfig::new(64, 4));
        let arena = flat.inner().arena_stats();
        assert_eq!(Classifier::arena_stats(&flat), Some(arena));
    }

    #[test]
    fn zero_capacity_wrapper_charges_only_the_inner_lookup() {
        // No slots: no set to probe and no entry to fill, so the per-lookup
        // work is the inner classifier's plus one counted miss.
        use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 5).generate(50);
        let trace = TraceGenerator::new(&rs, 6).generate(200);
        let inner = LinearClassifier::new(rs.clone());
        let cached = CachedClassifier::new(inner.clone(), HotCacheConfig::new(0, 4));
        for pkt in trace.headers() {
            let (mut want, mut got) = (LookupStats::new(), LookupStats::new());
            let result = inner.classify_with_stats(pkt, &mut want);
            assert_eq!(cached.classify_with_stats(pkt, &mut got), result);
            want.cache_misses = 1;
            assert_eq!(got, want, "{pkt}");
        }
        assert_eq!(
            cached.worst_case_memory_accesses(),
            inner.worst_case_memory_accesses()
        );
    }

    #[test]
    fn update_moves_the_wrapper_to_a_fresh_generation() {
        let rs = small_ruleset();
        let mut cached = CachedClassifier::new(updatable(&rs), HotCacheConfig::new(64, 4));
        let p = pkt(0, 0, 0, 443, 6);
        assert_eq!(cached.classify(&p), MatchResult::Matched(1));
        let before = cached.generation();
        // Delete the matched rule: the cached decision must not survive.
        cached.delete(1).unwrap();
        assert_ne!(cached.generation(), before);
        assert_eq!(cached.classify(&p), MatchResult::Matched(2));
        // A failed update does not move the generation.
        let after = cached.generation();
        assert!(cached.delete(1).is_err());
        assert_eq!(cached.generation(), after);
        assert_eq!(cached.update_stats().deletes, 1);
        assert_eq!(cached.live_rules().len(), 2);
    }

    #[test]
    fn clones_share_warm_entries_until_one_diverges() {
        let rs = small_ruleset();
        let cached = CachedClassifier::new(updatable(&rs), HotCacheConfig::new(64, 4));
        let p = pkt(0, 0, 0, 80, 6);
        cached.classify(&p);
        let mut clone = cached.clone();
        assert_eq!(clone.generation(), cached.generation());
        let hits_before = cached.cache().stats().hits;
        assert_eq!(clone.classify(&p), MatchResult::Matched(0));
        assert!(
            cached.cache().stats().hits > hits_before,
            "a clone serves the shared warm entry"
        );
        // Divergence: the mutated clone leaves the shared generation and
        // serves its own ruleset; the original keeps its warm entries.
        clone.delete(0).unwrap();
        assert_ne!(clone.generation(), cached.generation());
        assert_eq!(clone.classify(&p), MatchResult::Matched(2));
        assert_eq!(cached.classify(&p), MatchResult::Matched(0));
    }

    #[test]
    fn concurrent_probes_and_fills_never_return_torn_results() {
        // Hammer one tiny cache from several threads with flows whose
        // result word encodes their key; any torn read would surface as a
        // mismatched (key, result) pair.
        let cache = Arc::new(HotCache::new(HotCacheConfig::new(8, 2)));
        let tag = cache.allocate_generation();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for round in 0..20_000u32 {
                        let k = (round.wrapping_mul(7).wrapping_add(t)) % 64;
                        let p = pkt(k, k ^ 1, k ^ 2, k ^ 3, k ^ 4);
                        match cache.probe(&p, tag) {
                            Some(MatchResult::Matched(id)) => {
                                assert_eq!(id, k, "torn entry: key {k} result {id}")
                            }
                            Some(MatchResult::NoMatch) => panic!("never filled NoMatch"),
                            None => {
                                cache.fill(&p, tag, MatchResult::Matched(k));
                            }
                        }
                    }
                });
            }
        });
        // Misses are certain (every first probe misses); a hit is only
        // *likely* under that much eviction pressure, so pin one
        // deterministically now that the hammering threads are done.
        assert!(cache.stats().misses > 0);
        let p = pkt(1_000, 1, 2, 3, 4);
        cache.fill(&p, tag, MatchResult::Matched(1_000));
        assert_eq!(cache.probe(&p, tag), Some(MatchResult::Matched(1_000)));
        assert!(cache.stats().hits > 0);
    }
}
