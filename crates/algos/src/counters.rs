//! Operation counters shared by all classifiers and tree builders.
//!
//! The paper derives its software energy figures by running the algorithms
//! through Sim-Panalyzer on a StrongARM SA-1100.  We replace the
//! micro-architectural simulator with an *operation-level* model: every
//! classifier and builder in the workspace counts the loads, stores, ALU
//! operations, branches and (for build) divisions it performs, and
//! `pclass-energy::sa1100` converts those counts into cycles and joules.
//! Because the original and the modified algorithms are instrumented with the
//! same counters, the relative build-energy and lookup-energy comparisons of
//! Tables 3, 6 and 7 are preserved even though the absolute constants differ
//! from the authors' testbed.

use std::ops::{Add, AddAssign};

/// Raw operation counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounters {
    /// Word-sized memory reads (dominant cost on the SA-1100: most of the
    /// classification working set misses the tiny data cache).
    pub loads: u64,
    /// Word-sized memory writes.
    pub stores: u64,
    /// Arithmetic / logic operations (add, sub, and, or, shift, compare).
    pub alu: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Integer multiplications.
    pub muls: u64,
    /// Integer or floating-point divisions (the expensive operation the
    /// paper's modifications remove from the lookup path).
    pub divs: u64,
}

impl OpCounters {
    /// A zeroed counter set.
    pub const fn zero() -> OpCounters {
        OpCounters {
            loads: 0,
            stores: 0,
            alu: 0,
            branches: 0,
            muls: 0,
            divs: 0,
        }
    }

    /// Total number of counted operations of any kind.
    pub fn total_ops(&self) -> u64 {
        self.loads + self.stores + self.alu + self.branches + self.muls + self.divs
    }

    /// Total number of memory accesses (loads + stores).
    pub fn memory_accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

impl Add for OpCounters {
    type Output = OpCounters;
    fn add(self, rhs: OpCounters) -> OpCounters {
        OpCounters {
            loads: self.loads + rhs.loads,
            stores: self.stores + rhs.stores,
            alu: self.alu + rhs.alu,
            branches: self.branches + rhs.branches,
            muls: self.muls + rhs.muls,
            divs: self.divs + rhs.divs,
        }
    }
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, rhs: OpCounters) {
        *self = *self + rhs;
    }
}

/// Work performed by a single packet classification.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LookupStats {
    /// Operation counts of the lookup.
    pub ops: OpCounters,
    /// Decision-tree nodes visited (internal nodes; 0 for non-tree
    /// classifiers).
    pub nodes_visited: u64,
    /// Rules compared one-by-one in leaf linear searches (or the full scan
    /// for the linear classifier).
    pub rules_compared: u64,
    /// Structure memory words/entries read — the "memory accesses" of
    /// Tables 4 and 8.
    pub memory_accesses: u64,
    /// Lookups answered by a hot-flow cache in front of the classifier
    /// (always 0 for uncached classifiers).
    pub cache_hits: u64,
    /// Lookups that probed a hot-flow cache and fell through to the backing
    /// classifier (always 0 for uncached classifiers).
    pub cache_misses: u64,
    /// Cache fills that displaced a live entry (always 0 for uncached
    /// classifiers).
    pub cache_evictions: u64,
}

impl LookupStats {
    /// A zeroed stats record.
    pub fn new() -> LookupStats {
        LookupStats::default()
    }

    /// Charges one tree-node visit: a structure memory access that loads
    /// the node header and its cut description and decodes them.
    ///
    /// Together with [`LookupStats::count_child_select`] and
    /// [`LookupStats::count_scan`] this is the SA-1100 cost model of a
    /// decision-tree lookup; the pointer tree and the flat arena both charge
    /// through these three methods, so they account a walk identically.
    pub fn count_node(&mut self) {
        self.memory_accesses += 1;
        self.ops.loads += 2;
        self.ops.alu += 4;
        self.ops.branches += 1;
    }

    /// Charges the child selection of an internal node cutting `dims`
    /// dimensions: one multiply, add and compare of index arithmetic per
    /// cut dimension, plus the child-pointer load.
    pub fn count_child_select(&mut self, dims: u64) {
        self.ops.alu += 3 * dims;
        self.ops.muls += dims;
        self.ops.loads += 1;
    }

    /// Charges a linear scan that compared `compared` rules: each is one
    /// structure memory access loading five packed range pairs, tested with
    /// two compares and a branch per pair.
    pub fn count_scan(&mut self, compared: u64) {
        self.rules_compared += compared;
        self.memory_accesses += compared;
        self.ops.loads += 5 * compared;
        self.ops.alu += 10 * compared;
        self.ops.branches += 5 * compared;
    }

    /// Merges another lookup's work into this one (used to accumulate a
    /// whole trace).
    pub fn merge(&mut self, other: &LookupStats) {
        self.ops += other.ops;
        self.nodes_visited += other.nodes_visited;
        self.rules_compared += other.rules_compared;
        self.memory_accesses += other.memory_accesses;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
    }
}

/// Work performed while building a search structure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BuildStats {
    /// Operation counts of the build.
    pub ops: OpCounters,
    /// Internal nodes created.
    pub internal_nodes: u64,
    /// Leaf nodes created.
    pub leaf_nodes: u64,
    /// Total rule references stored in leaves (measures rule replication).
    pub stored_rule_refs: u64,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: u32,
    /// Number of candidate cut evaluations performed (the dominant cost of
    /// HiCuts/HyperCuts preprocessing; the paper's modifications reduce it by
    /// starting at 32 cuts instead of 2 and capping at 256).
    pub cut_evaluations: u64,
}

impl BuildStats {
    /// A zeroed stats record.
    pub fn new() -> BuildStats {
        BuildStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_fieldwise() {
        let a = OpCounters {
            loads: 1,
            stores: 2,
            alu: 3,
            branches: 4,
            muls: 5,
            divs: 6,
        };
        let b = OpCounters {
            loads: 10,
            stores: 20,
            alu: 30,
            branches: 40,
            muls: 50,
            divs: 60,
        };
        let c = a + b;
        assert_eq!(c.loads, 11);
        assert_eq!(c.divs, 66);
        assert_eq!(c.total_ops(), 11 + 22 + 33 + 44 + 55 + 66);
        assert_eq!(c.memory_accesses(), 11 + 22);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn lookup_stats_merge() {
        let mut a = LookupStats::new();
        a.nodes_visited = 3;
        a.memory_accesses = 4;
        let mut b = LookupStats::new();
        b.nodes_visited = 2;
        b.rules_compared = 7;
        a.merge(&b);
        assert_eq!(a.nodes_visited, 5);
        assert_eq!(a.rules_compared, 7);
        assert_eq!(a.memory_accesses, 4);
    }

    #[test]
    fn lookup_stats_merge_cache_counters() {
        let mut a = LookupStats::new();
        a.cache_hits = 5;
        a.cache_misses = 2;
        let mut b = LookupStats::new();
        b.cache_hits = 1;
        b.cache_evictions = 3;
        a.merge(&b);
        assert_eq!((a.cache_hits, a.cache_misses, a.cache_evictions), (6, 2, 3));
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(OpCounters::zero(), OpCounters::default());
        assert_eq!(OpCounters::zero().total_ops(), 0);
        assert_eq!(BuildStats::new(), BuildStats::default());
    }
}
