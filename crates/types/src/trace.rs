//! Packet traces — sequences of headers replayed against a classifier.

use crate::packet::PacketHeader;
use crate::rule::RuleId;
use crate::ruleset::{MatchResult, RuleSet};
use serde::{Deserialize, Serialize};

/// One packet of a trace, optionally annotated with the rule the trace
/// generator aimed the packet at (ground truth for tests; classifiers are
/// still checked against linear search because a packet aimed at rule *k*
/// may be captured by a higher-priority overlapping rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// The packet header.
    pub header: PacketHeader,
    /// Rule the generator sampled the header from, if any.
    pub intended_rule: Option<RuleId>,
}

impl TraceEntry {
    /// A trace entry with no ground-truth annotation.
    pub fn bare(header: PacketHeader) -> TraceEntry {
        TraceEntry {
            header,
            intended_rule: None,
        }
    }
}

/// A packet trace: the workload replayed against every classifier in the
/// throughput and energy experiments (Tables 6 and 7 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates a named trace from entries.
    pub fn new(name: impl Into<String>, entries: Vec<TraceEntry>) -> Trace {
        Trace {
            name: name.into(),
            entries,
        }
    }

    /// Creates a trace from bare headers.
    pub fn from_headers(name: impl Into<String>, headers: Vec<PacketHeader>) -> Trace {
        Trace {
            name: name.into(),
            entries: headers.into_iter().map(TraceEntry::bare).collect(),
        }
    }

    /// Name of the trace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace entries in arrival order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Just the packet headers in arrival order.
    pub fn headers(&self) -> impl Iterator<Item = &PacketHeader> {
        self.entries.iter().map(|e| &e.header)
    }

    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the trace contains no packets.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Classifies the whole trace with the reference linear search and
    /// returns the per-packet results (used as ground truth in tests).
    pub fn ground_truth(&self, rs: &RuleSet) -> Vec<MatchResult> {
        self.entries
            .iter()
            .map(|e| rs.classify_linear(&e.header))
            .collect()
    }

    /// Splits the trace into `shards` contiguous, near-equal slices for
    /// parallel replay (see [`shard_slices`]).
    pub fn shards(&self, shards: usize) -> Vec<&[TraceEntry]> {
        shard_slices(&self.entries, shards)
    }

    /// Fraction of packets that match some rule under linear search.
    pub fn hit_rate(&self, rs: &RuleSet) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let hits = self
            .entries
            .iter()
            .filter(|e| rs.classify_linear(&e.header) != MatchResult::NoMatch)
            .count();
        hits as f64 / self.entries.len() as f64
    }
}

/// Splits a slice into exactly `shards` contiguous chunks whose lengths
/// differ by at most one (trailing chunks are empty when there are fewer
/// items than shards).
///
/// This is the work-distribution policy shared by every parallel frontend
/// in the workspace — the accelerator model's banked replay in `pclass-core`
/// and the serving loop of `pclass-engine` — so that sharded replay
/// is deterministic and results can be merged back in trace order by simple
/// concatenation.
pub fn shard_slices<T>(items: &[T], shards: usize) -> Vec<&[T]> {
    let shards = shards.max(1);
    let base = items.len() / shards;
    let extra = items.len() % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(&items[start..start + len]);
        start += len;
    }
    debug_assert_eq!(start, items.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn trace_basics() {
        let rs = toy::table1_ruleset();
        let headers = vec![
            PacketHeader::from_fields([145, 100, 10, 10, 200]),
            PacketHeader::from_fields([0, 0, 0, 0, 255]),
        ];
        let trace = Trace::from_headers("t", headers);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.name(), "t");
        let truth = trace.ground_truth(&rs);
        assert_eq!(truth[0], MatchResult::Matched(5));
        assert_eq!(truth[1], MatchResult::NoMatch);
        assert!((trace.hit_rate(&rs) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_hit_rate_is_zero() {
        let rs = toy::table1_ruleset();
        let trace = Trace::from_headers("empty", vec![]);
        assert_eq!(trace.hit_rate(&rs), 0.0);
    }

    #[test]
    fn shard_slices_is_balanced_and_order_preserving() {
        let items: Vec<u32> = (0..10).collect();
        for shards in 1..=12 {
            let chunks = shard_slices(&items, shards);
            assert_eq!(chunks.len(), shards);
            // Concatenation reproduces the input in order.
            let merged: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(merged, items);
            // Sizes differ by at most one and are non-increasing.
            let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
            assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
            assert!(sizes[0] - sizes[sizes.len() - 1] <= 1);
        }
    }

    #[test]
    fn shard_slices_handles_degenerate_inputs() {
        let empty: [u8; 0] = [];
        assert_eq!(shard_slices(&empty, 4), vec![&[] as &[u8]; 4]);
        // Zero shards is clamped to one.
        let one = [7u8];
        assert_eq!(shard_slices(&one, 0), vec![&one[..]]);
        // Fewer items than shards: trailing shards are empty.
        let chunks = shard_slices(&one, 3);
        assert_eq!(chunks[0], &one[..]);
        assert!(chunks[1].is_empty() && chunks[2].is_empty());
    }

    #[test]
    fn trace_shards_cover_the_trace() {
        let headers: Vec<PacketHeader> =
            (0..7).map(|i| PacketHeader::from_fields([i; 5])).collect();
        let trace = Trace::from_headers("t", headers);
        let shards = trace.shards(3);
        assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), trace.len());
        assert_eq!(shards[0][0].header, trace.entries()[0].header);
    }

    #[test]
    fn traces_serialize_to_json() {
        // Regression coverage for the serde shim's derive: nested structs,
        // arrays, options and enums all render.
        let trace = Trace::new(
            "t",
            vec![TraceEntry {
                header: PacketHeader::five_tuple(1, 2, 3, 4, 5),
                intended_rule: Some(9),
            }],
        );
        assert_eq!(
            serde::json::to_string(&trace),
            r#"{"name":"t","entries":[{"header":{"fields":[1,2,3,4,5]},"intended_rule":9}]}"#
        );
        assert_eq!(
            serde::json::to_string(&MatchResult::Matched(7)),
            r#"{"Matched":7}"#
        );
        assert_eq!(
            serde::json::to_string(&MatchResult::NoMatch),
            r#""NoMatch""#
        );
    }
}
