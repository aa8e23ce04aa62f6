//! ClassBench-style synthetic ruleset and packet-trace generation.
//!
//! The paper evaluates its hardware accelerator on rulesets produced by the
//! ClassBench tool from three seed filter sets — `acl1` (access control
//! list), `fw1` (firewall) and `ipc1` (IP chain) — at sizes from 60 up to
//! roughly 25,000 rules, plus the accompanying packet traces.  Those exact
//! seed files and traces are not redistributable, so this crate implements
//! deterministic generators that reproduce the *structural* properties the
//! evaluation depends on:
//!
//! * **ACL style** — mostly specific destination prefixes, exact destination
//!   ports for well-known services, exact protocols; few wildcards.  These
//!   sets produce shallow, well-balanced decision trees (Table 4: acl1 needs
//!   only 2–5 clock cycles even at 25 k rules).
//! * **FW style** — many address wildcards and port wildcards, which cause
//!   heavy rule replication in decision-tree algorithms.  These sets blow up
//!   memory first (Table 4: fw1 at 23 k rules needs 3.3–8.3 MB) and need the
//!   deepest trees.
//! * **IPC style** — a mixture of the two.
//!
//! The trace generator follows ClassBench's approach: headers are sampled
//! from the rules themselves (corner and interior points) with a skewed
//! (Pareto-like) rule-popularity distribution and short repeated bursts, so
//! traces exhibit the locality a real line card sees.
//!
//! Everything is seeded explicitly and fully deterministic, so every table
//! the `reproduce` binary prints can be regenerated bit-for-bit.

//!
//! # Example
//!
//! Generate an ACL-style ruleset and a matching trace; generation is
//! seeded, so the same calls always produce the same workload:
//!
//! ```
//! use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
//!
//! let rs = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(100);
//! let trace = TraceGenerator::new(&rs, 7).generate(256);
//! assert_eq!((rs.len(), trace.len()), (100, 256));
//!
//! // Headers are sampled from the rules, so most packets hit.
//! assert!(trace.hit_rate(&rs) > 0.5);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod ports;
pub mod prefix_pool;
pub mod style;
pub mod trace_gen;

pub use generator::ClassBenchGenerator;
pub use style::{SeedStyle, StyleParameters};
pub use trace_gen::TraceGenerator;

/// The ruleset sizes used by Tables 2, 3, 6, 7 and 8 of the paper
/// (the acl1 subsets downloaded from the Washington University evaluation
/// page).
pub const PAPER_ACL_SIZES: [usize; 6] = [60, 150, 500, 1000, 1600, 2191];

/// The ruleset sizes used by Table 4 of the paper for each ClassBench seed
/// style (the largest size differs slightly per style; `table4_sizes` returns
/// the exact list).
pub const PAPER_TABLE4_BASE_SIZES: [usize; 7] = [300, 1_200, 2_500, 5_000, 10_000, 15_000, 20_000];

/// The exact ruleset-size column of Table 4 for a given seed style,
/// including the style-specific largest set (24,920 / 23,087 / 24,274).
pub fn table4_sizes(style: SeedStyle) -> Vec<usize> {
    let mut sizes: Vec<usize> = PAPER_TABLE4_BASE_SIZES.to_vec();
    sizes.push(match style {
        SeedStyle::Acl => 24_920,
        SeedStyle::Fw => 23_087,
        SeedStyle::Ipc => 24_274,
    });
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_sizes_match_paper_columns() {
        assert_eq!(table4_sizes(SeedStyle::Acl).last(), Some(&24_920));
        assert_eq!(table4_sizes(SeedStyle::Fw).last(), Some(&23_087));
        assert_eq!(table4_sizes(SeedStyle::Ipc).last(), Some(&24_274));
        assert_eq!(table4_sizes(SeedStyle::Acl).len(), 8);
    }

    #[test]
    fn sweep_ladder_tops_generate_exact_distinct_counts() {
        // Generation must be exact well past the paper's largest set: 64 k
        // acl rules (the repository benchmark's largest workload) and 10 k
        // fw/ipc rules produce the requested number of distinct rules (the
        // generator's rejection loop must not run dry).
        let acl = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(64_000);
        assert_eq!(acl.len(), 64_000);
        let distinct: std::collections::HashSet<_> = acl.rules().iter().map(|r| r.ranges).collect();
        assert_eq!(distinct.len(), 64_000, "64k acl rules must be distinct");
        for style in [SeedStyle::Fw, SeedStyle::Ipc] {
            assert_eq!(
                ClassBenchGenerator::new(style, 42).generate(10_000).len(),
                10_000
            );
        }
    }
}
