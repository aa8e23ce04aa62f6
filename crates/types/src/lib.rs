//! Core types for 5-field packet classification.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: dimensions, ranges, prefixes, rules, rulesets, packet headers
//! and packet traces.
//!
//! The representation follows the geometric view used by the decision-tree
//! algorithms reproduced in this workspace (HiCuts, HyperCuts and the
//! hardware-oriented variants of Kennedy et al., 2008): every rule is an
//! axis-aligned hyper-rectangle in the 5-dimensional space spanned by
//!
//! * source IP address (32 bits),
//! * destination IP address (32 bits),
//! * source port (16 bits),
//! * destination port (16 bits),
//! * transport protocol (8 bits),
//!
//! and a packet header is a point in that space.  A rule matches a packet if
//! the point lies inside the rectangle on every dimension.  Rule priority is
//! positional: the matching rule with the lowest index in the ruleset wins
//! (first-match semantics), which is the convention used by ClassBench and by
//! the paper.
//!
//! The toy 10-rule ruleset of Table 1 in the paper (five 8-bit fields) is
//! available through [`toy::table1_ruleset`]; the per-dimension bit widths are
//! carried by [`DimensionSpec`] so that both the toy geometry and the real
//! 104-bit 5-tuple geometry are handled by the same code.

//!
//! # Example
//!
//! Build the paper's Table 1 toy ruleset and classify a packet with the
//! first-match linear reference:
//!
//! ```
//! use pclass_types::{toy, MatchResult, PacketHeader};
//!
//! let rs = toy::table1_ruleset();
//! assert_eq!(rs.len(), 10);
//!
//! // A point inside rule R7's hyper-rectangle (and no higher-priority
//! // rule's): src 49, fields in dimension order.
//! let pkt = PacketHeader::from_fields([49, 40, 40, 100, 5]);
//! assert_eq!(rs.classify_linear(&pkt), MatchResult::Matched(7));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dimension;
pub mod packet;
pub mod prefix;
pub mod range;
pub mod rule;
pub mod ruleset;
pub mod stats;
pub mod toy;
pub mod trace;

pub use dimension::{Dimension, DimensionSpec, FIELD_COUNT};
pub use packet::PacketHeader;
pub use prefix::Prefix;
pub use range::FieldRange;
pub use rule::{Protocol, Rule, RuleBuilder, RuleId};
pub use ruleset::{MatchResult, RuleSet, RuleSetError};
pub use stats::{
    distinct_range_counts, ArenaStats, CacheStats, FairnessSummary, LatencyPercentiles,
    MemoryReport, RuleSetStats, UpdateStats,
};
pub use trace::{shard_slices, Trace, TraceEntry};
