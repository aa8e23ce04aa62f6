//! Rebuild-free incremental rule updates.
//!
//! The paper's classifiers are built once and served forever, but real
//! rulesets churn — firewall pushes, ACL edits — while traffic keeps
//! flowing.  This module defines the update interface, and one structure
//! owns rule updates behind it: the flat arena.
//!
//! * [`crate::flat::FlatTree`] inserts and deletes rules by descending
//!   only the subtrees the rule's ranges intersect, un-sharing merged
//!   leaves on the way down.  It patches its leaf rule spans in place via
//!   per-node free-slot slack, moving a full span to the slab end (with
//!   fresh slack) and re-flattening (amortized) once the dead slots moved
//!   spans leave behind make up too much of the slab.
//! * The built HiCuts and HyperCuts classifiers
//!   ([`crate::dtree::CutTreeClassifier`]) serve that arena and take
//!   updates on it as built, with no copy.
//!
//! Every insert passes [`validate_insert`] before anything is touched, so
//! what an update stream may contain is defined in one place.
//!
//! Rule identity and priority stay fused (lower id wins), so an update
//! stream works over a *sparse* id space: deleting rule 57 frees the id,
//! inserting a different rule as 57 is a "replace", inserting beyond the
//! current maximum id is an "append at lowest priority".  A from-scratch
//! rebuild of the surviving rules — the reference the property tests
//! compare against — renumbers them via [`renumbered_ruleset`] and maps
//! decisions back through the returned id map.

use crate::dtree::{CutTreeClassifier, RosterPolicy};
use crate::flat::FlatTree;
use crate::Classifier;
use pclass_types::{Dimension, DimensionSpec, MatchResult, Rule, RuleId, RuleSet, UpdateStats};

/// One element of an update stream applied to an [`UpdatableClassifier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleUpdate {
    /// Insert a rule whose id (= priority slot) is currently unused.
    Insert(Rule),
    /// Delete the live rule with this id.
    Delete(RuleId),
}

/// Why an incremental update was rejected.  The structure is unchanged
/// after an error — updates are atomic per rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// `insert` was given an id that is currently live.
    DuplicateRuleId(RuleId),
    /// `delete` was given an id that is not currently live.
    UnknownRuleId(RuleId),
    /// `insert` was given a rule with a range wider than the structure's
    /// dimension geometry.
    RangeExceedsWidth {
        /// Offending rule id.
        rule: RuleId,
        /// Offending dimension.
        dimension: Dimension,
    },
    /// `insert` was given an id too far beyond the structure's current id
    /// range.  The sparse-id model allows gaps, but a bounded one
    /// ([`MAX_ID_GAP`] past the occupied range) — the arena's rule table
    /// holds a line for every id up to the highest live one, holes
    /// included — and `u32::MAX` is never insertable: it is reserved as
    /// the lookup no-match sentinel.
    RuleIdTooSparse {
        /// Offending rule id.
        rule: RuleId,
        /// First id the structure would have rejected (ids below it are
        /// insertable).
        limit: RuleId,
    },
}

/// How far past the currently occupied id range an `insert` may reach
/// (see [`UpdateError::RuleIdTooSparse`]).  The flat arena stores rule
/// images in a table indexed by id, one 64-byte line per id up to the
/// highest live one, so one insert can grow it (and the `memory_bytes` it
/// reports) by at most this many lines — 4 MiB — however sparse the
/// stream; deleting the highest live id gives the lines back.
pub const MAX_ID_GAP: u32 = 65_536;

/// The first uninsertable id given the end of the occupied id range
/// (`occupied_end` = highest occupied slot + 1): ids must stay within
/// [`MAX_ID_GAP`] of the range and strictly below the `u32::MAX` lookup
/// sentinel.
pub fn id_limit(occupied_end: usize) -> RuleId {
    (occupied_end as u64 + u64::from(MAX_ID_GAP)).min(u64::from(u32::MAX) - 1) as RuleId
}

/// The checks an updatable structure runs before an `insert` touches it, so
/// every one accepts exactly the same update streams: the slot must not be live,
/// the id must lie below [`id_limit`] of the structure's occupied range
/// (`occupied_end` = highest live id + 1), and every range must fit the
/// geometry.
pub fn validate_insert(
    rule: &Rule,
    spec: &DimensionSpec,
    slot_is_live: bool,
    occupied_end: usize,
) -> Result<(), UpdateError> {
    if slot_is_live {
        return Err(UpdateError::DuplicateRuleId(rule.id));
    }
    let limit = id_limit(occupied_end);
    if rule.id >= limit {
        return Err(UpdateError::RuleIdTooSparse {
            rule: rule.id,
            limit,
        });
    }
    for dimension in Dimension::ALL {
        if rule.range(dimension).hi > spec.max_value(dimension) {
            return Err(UpdateError::RangeExceedsWidth {
                rule: rule.id,
                dimension,
            });
        }
    }
    Ok(())
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::DuplicateRuleId(id) => {
                write!(f, "rule id {id} is already live")
            }
            UpdateError::UnknownRuleId(id) => {
                write!(f, "rule id {id} is not live")
            }
            UpdateError::RangeExceedsWidth { rule, dimension } => {
                write!(
                    f,
                    "rule {rule} has a range wider than dimension {dimension}"
                )
            }
            UpdateError::RuleIdTooSparse { rule, limit } => {
                write!(
                    f,
                    "rule id {rule} is too far beyond the occupied id range (limit {limit})"
                )
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// A [`Classifier`] whose rule set can be patched in place, without a full
/// rebuild, while keeping decisions exactly first-match-by-id.
///
/// Implemented by the built cut-tree classifiers
/// ([`crate::dtree::CutTreeClassifier`], so [`crate::HiCutsClassifier`]
/// and [`crate::HyperCutsClassifier`]) and by
/// [`crate::hotcache::CachedClassifier`] over an updatable inner
/// classifier; the epoch-swap serving cell in `pclass-engine` drives this
/// trait on the snapshot its readers have drained from while they keep
/// serving the published one.  A built tree takes an update in place:
///
/// ```
/// use pclass_algos::{
///     Classifier, HiCutsClassifier, HiCutsConfig, HyperCutsClassifier, UpdatableClassifier,
/// };
/// use pclass_types::{toy, MatchResult, PacketHeader};
///
/// fn updatable<C: UpdatableClassifier>() {}
/// updatable::<HiCutsClassifier>();
/// updatable::<HyperCutsClassifier>();
///
/// let mut tree = HiCutsClassifier::build(&toy::table1_ruleset(), &HiCutsConfig::figure1());
/// let pkt = PacketHeader::from_fields([145, 100, 10, 10, 200]);
/// assert_eq!(tree.classify(&pkt), MatchResult::Matched(5));
/// tree.delete(5).unwrap();
/// assert_eq!(tree.live_rules().len(), 9);
/// assert_ne!(tree.classify(&pkt), MatchResult::Matched(5));
/// assert_eq!(tree.update_stats().deletes, 1);
/// ```
pub trait UpdatableClassifier: Classifier {
    /// Inserts a rule at the priority slot given by `rule.id`, which must
    /// not be live.
    fn insert(&mut self, rule: Rule) -> Result<(), UpdateError>;

    /// Deletes the live rule with this id.
    fn delete(&mut self, rule_id: RuleId) -> Result<(), UpdateError>;

    /// The live rules, in ascending id (= priority) order.
    fn live_rules(&self) -> Vec<Rule>;

    /// The dimension geometry the structure classifies over.
    fn spec(&self) -> DimensionSpec;

    /// Counters of the update activity since the structure was built.
    fn update_stats(&self) -> UpdateStats;

    /// Applies one update-stream element.
    fn apply(&mut self, update: &RuleUpdate) -> Result<(), UpdateError> {
        match update {
            RuleUpdate::Insert(rule) => self.insert(*rule),
            RuleUpdate::Delete(id) => self.delete(*id),
        }
    }
}

/// [`FlatTree::dirty_ratio`](crate::flat::FlatTree::dirty_ratio) past which
/// a cut tree re-flattens after an update: dead slots never make up more
/// than a twentieth of the slab, and the compaction stays rare
/// (`algos.update.reflattens` reads 1 at the end of the benchmark's traced
/// `churn10k` run).
pub(crate) const REFLATTEN_DIRTY_RATIO: f64 = 0.05;

/// A built tree takes updates on its own arena, and re-flattens it once
/// the dead slots moved spans leave behind make up more than a twentieth
/// of the rule slab.
impl<C: RosterPolicy> UpdatableClassifier for CutTreeClassifier<C> {
    fn insert(&mut self, rule: Rule) -> Result<(), UpdateError> {
        let flat = self.flat_tree_mut();
        flat.insert(&rule)?;
        compact_if_dirty(flat);
        Ok(())
    }

    fn delete(&mut self, rule_id: RuleId) -> Result<(), UpdateError> {
        let flat = self.flat_tree_mut();
        flat.delete(rule_id)?;
        compact_if_dirty(flat);
        Ok(())
    }

    fn live_rules(&self) -> Vec<Rule> {
        self.flat_tree().live_rules()
    }

    fn spec(&self) -> DimensionSpec {
        *self.flat_tree().spec()
    }

    fn update_stats(&self) -> UpdateStats {
        self.flat_tree().update_stats()
    }
}

fn compact_if_dirty(flat: &mut FlatTree) {
    if flat.dirty_ratio() > REFLATTEN_DIRTY_RATIO {
        flat.reflatten();
    }
}

/// Renumbers a live-rule list (ascending sparse ids) into a dense
/// [`RuleSet`] a fresh builder can consume, plus the map from the new
/// (dense) ids back to the original ids.
///
/// Renumbering preserves relative order, so a from-scratch rebuild over
/// the returned set makes exactly the decisions of the updated structure
/// once its [`MatchResult`]s are mapped through [`map_result`].
pub fn renumbered_ruleset(
    name: impl Into<String>,
    spec: DimensionSpec,
    live: &[Rule],
) -> (RuleSet, Vec<RuleId>) {
    let id_map: Vec<RuleId> = live.iter().map(|r| r.id).collect();
    debug_assert!(id_map.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
    let rules: Vec<Rule> = live
        .iter()
        .enumerate()
        .map(|(i, r)| Rule::new(i as RuleId, r.ranges))
        .collect();
    let ruleset = RuleSet::new(name, spec, rules).expect("renumbered rules are dense and valid");
    (ruleset, id_map)
}

/// Maps a decision made over a [`renumbered_ruleset`] back into the
/// original sparse id space.
pub fn map_result(result: MatchResult, id_map: &[RuleId]) -> MatchResult {
    match result {
        MatchResult::Matched(dense) => MatchResult::Matched(id_map[dense as usize]),
        MatchResult::NoMatch => MatchResult::NoMatch,
    }
}

/// Reference first-match decision over a live-rule list (ascending id
/// order) — the linear-search ground truth for updated structures.
pub fn classify_live_linear(live: &[Rule], pkt: &pclass_types::PacketHeader) -> MatchResult {
    for rule in live {
        if rule.matches(pkt) {
            return MatchResult::Matched(rule.id);
        }
    }
    MatchResult::NoMatch
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_types::{PacketHeader, RuleBuilder};

    fn rule(id: RuleId, port: u16) -> Rule {
        RuleBuilder::new(id).dst_port(port).build()
    }

    #[test]
    fn renumbering_maps_sparse_ids_back() {
        let live = vec![rule(2, 80), rule(5, 443), rule(9, 22)];
        let (rs, map) = renumbered_ruleset("x", DimensionSpec::FIVE_TUPLE, &live);
        assert_eq!(rs.len(), 3);
        assert_eq!(map, vec![2, 5, 9]);
        let pkt = PacketHeader::five_tuple(1, 2, 3, 443, 6);
        let dense = rs.classify_linear(&pkt);
        assert_eq!(dense, MatchResult::Matched(1));
        assert_eq!(map_result(dense, &map), MatchResult::Matched(5));
        assert_eq!(map_result(MatchResult::NoMatch, &map), MatchResult::NoMatch);
        assert_eq!(classify_live_linear(&live, &pkt), MatchResult::Matched(5));
    }

    #[test]
    fn update_error_messages_name_the_id() {
        assert!(UpdateError::DuplicateRuleId(7).to_string().contains('7'));
        assert!(UpdateError::UnknownRuleId(9).to_string().contains('9'));
        let e = UpdateError::RangeExceedsWidth {
            rule: 3,
            dimension: Dimension::SrcPort,
        };
        assert!(e.to_string().contains("wider"));
    }
}
