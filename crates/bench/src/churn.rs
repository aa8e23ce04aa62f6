//! The live-update ("churn") streams of the update-equivalence tests.
//!
//! A churn stream is a deterministic sequence of [`RuleUpdate`]s over a
//! ruleset — which rules leave and which fresh ones arrive.  The tests
//! apply one either directly to an updatable classifier or through the
//! `pclass-engine` epoch-swap cell while a `LiveEngine` keeps serving
//! (`tests/scenario_matrix.rs`), then compare the survivors packet for
//! packet against linear search and a from-scratch rebuild.
//!
//! The named shapes are the [`ChurnProfile`]s:
//!
//! * **burst1** — the original 1 % delete+insert stream;
//! * **deep10** — the same shape at 10 % of the ruleset, so slack
//!   exhaustion, span moves and amortized re-flattens are actually
//!   exercised;
//! * **delete-heavy** — a net *drain*: 10 % of the rules deleted with only
//!   one fresh insert per five deletes, the decommissioning pattern that
//!   leaves reusable slack behind.
//!
//! Everything is derived from [`crate::WORKLOAD_SEED`], so a stream is
//! identical run to run and host to host.

use pclass_algos::update::RuleUpdate;
use pclass_classbench::ClassBenchGenerator;
use pclass_types::{Rule, RuleId, RuleSet};

/// A named, fully deterministic update stream.  See the module docs for
/// what each profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnProfile {
    /// 1 % delete+insert pairs (the original PR-4 workload).
    Burst1,
    /// 10 % delete+insert pairs — deep churn that forces slack exhaustion
    /// and amortized re-flattens on the arenas.
    Deep10,
    /// A net drain: 10 % deletes with one fresh insert per five deletes.
    DeleteHeavy,
}

impl ChurnProfile {
    /// Every churn profile.
    pub const ALL: [ChurnProfile; 3] = [
        ChurnProfile::Burst1,
        ChurnProfile::Deep10,
        ChurnProfile::DeleteHeavy,
    ];

    /// Short name of the profile, for test and log messages.
    pub fn tag(self) -> &'static str {
        match self {
            ChurnProfile::Burst1 => "burst1",
            ChurnProfile::Deep10 => "deep10",
            ChurnProfile::DeleteHeavy => "delete-heavy",
        }
    }

    /// Builds the profile's deterministic update stream for a ruleset.
    pub fn stream(self, ruleset: &RuleSet) -> Vec<RuleUpdate> {
        match self {
            ChurnProfile::Burst1 => churn_updates(ruleset, 0.01),
            ChurnProfile::Deep10 => churn_updates(ruleset, 0.10),
            ChurnProfile::DeleteHeavy => delete_heavy_updates(ruleset, 0.10, 5),
        }
    }
}

/// Builds the deterministic update stream for a ruleset: `fraction`
/// of the rules is deleted (ids spread evenly across the priority range)
/// and the same number of fresh rules is inserted at new ids past the
/// current maximum, interleaved delete/insert so the live count stays
/// within one rule of the original throughout.
pub fn churn_updates(ruleset: &RuleSet, fraction: f64) -> Vec<RuleUpdate> {
    let len = ruleset.len();
    if len == 0 {
        return Vec::new();
    }
    // At least 2 pairs so every cell exercises both op kinds, but never
    // more deletes than there are rules (the spread formula would emit
    // duplicate delete ids otherwise).
    let ops = ((len as f64 * fraction).round() as usize).clamp(2.min(len), len);
    let style = pclass_classbench::SeedStyle::Acl;
    let fresh = ClassBenchGenerator::new(style, crate::WORKLOAD_SEED ^ 0xC0DE).generate(ops);
    let mut updates = Vec::with_capacity(ops * 2);
    for k in 0..ops {
        let delete_id = (k * len / ops) as RuleId;
        updates.push(RuleUpdate::Delete(delete_id));
        let insert_id = (len + k) as RuleId;
        updates.push(RuleUpdate::Insert(Rule::new(
            insert_id,
            fresh.rules()[k].ranges,
        )));
    }
    updates
}

/// Builds the deterministic *delete-heavy* stream: `fraction` of the rules
/// is deleted (ids spread evenly across the priority range) but only one
/// fresh rule is inserted per `reinsert_every` deletes, so the live set
/// drains — the decommissioning pattern that leaves reusable slack in the
/// flat arenas instead of claiming it back.
pub fn delete_heavy_updates(
    ruleset: &RuleSet,
    fraction: f64,
    reinsert_every: usize,
) -> Vec<RuleUpdate> {
    let len = ruleset.len();
    if len == 0 {
        return Vec::new();
    }
    let deletes = ((len as f64 * fraction).round() as usize).clamp(1, len);
    let reinsert_every = reinsert_every.max(1);
    let reinserts = deletes / reinsert_every;
    let style = pclass_classbench::SeedStyle::Acl;
    let fresh =
        ClassBenchGenerator::new(style, crate::WORKLOAD_SEED ^ 0xD7A1).generate(reinserts.max(1));
    let mut updates = Vec::with_capacity(deletes + reinserts);
    let mut inserted = 0usize;
    for k in 0..deletes {
        updates.push(RuleUpdate::Delete((k * len / deletes) as RuleId));
        if (k + 1) % reinsert_every == 0 && inserted < reinserts {
            updates.push(RuleUpdate::Insert(Rule::new(
                (len + inserted) as RuleId,
                fresh.rules()[inserted].ranges,
            )));
            inserted += 1;
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl_ruleset;

    #[test]
    fn churn_stream_is_deterministic_and_balanced() {
        let rs = acl_ruleset(200);
        let a = churn_updates(&rs, 0.01);
        let b = churn_updates(&rs, 0.01);
        assert_eq!(a, b);
        let deletes = a
            .iter()
            .filter(|u| matches!(u, RuleUpdate::Delete(_)))
            .count();
        let inserts = a.len() - deletes;
        assert_eq!(deletes, inserts);
        assert_eq!(deletes, 2); // 1% of 200
                                // Fresh ids never collide with the base ruleset.
        for u in &a {
            if let RuleUpdate::Insert(rule) = u {
                assert!(rule.id >= rs.len() as u32);
            }
        }
    }

    #[test]
    fn churn_stream_never_deletes_the_same_id_twice_on_tiny_rulesets() {
        let one = acl_ruleset(2_191).truncated(1, "one");
        let updates = churn_updates(&one, 0.01);
        assert_eq!(updates.len(), 2, "one delete+insert pair on a 1-rule set");
        assert!(matches!(updates[0], RuleUpdate::Delete(0)));
        let empty = RuleSet::new("empty", *one.spec(), vec![]).expect("empty ruleset");
        assert!(churn_updates(&empty, 0.5).is_empty());
    }

    #[test]
    fn delete_heavy_stream_drains_the_live_set() {
        let rs = acl_ruleset(200);
        let a = delete_heavy_updates(&rs, 0.10, 5);
        assert_eq!(a, delete_heavy_updates(&rs, 0.10, 5), "deterministic");
        let deletes = a
            .iter()
            .filter(|u| matches!(u, RuleUpdate::Delete(_)))
            .count();
        let inserts = a.len() - deletes;
        assert_eq!(deletes, 20, "10% of 200");
        assert_eq!(inserts, 4, "one reinsert per five deletes");
        // Delete ids are distinct and inside the base id range; insert ids
        // are fresh.
        let mut seen = std::collections::HashSet::new();
        for u in &a {
            match u {
                RuleUpdate::Delete(id) => {
                    assert!(seen.insert(*id), "duplicate delete {id}");
                    assert!(*id < rs.len() as u32);
                }
                RuleUpdate::Insert(rule) => assert!(rule.id >= rs.len() as u32),
            }
        }
        // Tiny and empty rulesets stay valid.
        let one = acl_ruleset(2_191).truncated(1, "one");
        let tiny = delete_heavy_updates(&one, 0.10, 5);
        assert_eq!(tiny.len(), 1, "a single delete, no reinsert");
        let empty = RuleSet::new("empty", *one.spec(), vec![]).expect("empty ruleset");
        assert!(delete_heavy_updates(&empty, 0.5, 5).is_empty());
    }

    #[test]
    fn profiles_build_distinct_streams_and_configs() {
        let rs = acl_ruleset(500);
        for profile in ChurnProfile::ALL {
            let stream = profile.stream(&rs);
            assert!(!stream.is_empty(), "{}", profile.tag());
            assert_eq!(
                stream,
                profile.stream(&rs),
                "{} deterministic",
                profile.tag()
            );
        }
        assert!(
            ChurnProfile::Deep10.stream(&rs).len() > 5 * ChurnProfile::Burst1.stream(&rs).len(),
            "deep churn must be an order of magnitude more updates"
        );
        let drain = ChurnProfile::DeleteHeavy.stream(&rs);
        let deletes = drain
            .iter()
            .filter(|u| matches!(u, RuleUpdate::Delete(_)))
            .count();
        assert!(deletes > (drain.len() - deletes) * 2, "net drain");
        // Tags are distinct.
        let tags: std::collections::HashSet<_> =
            ChurnProfile::ALL.iter().map(|p| p.tag()).collect();
        assert_eq!(tags.len(), ChurnProfile::ALL.len());
    }
}
