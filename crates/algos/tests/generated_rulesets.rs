//! Cross-validation of every software classifier against linear search on
//! generated ClassBench-style rulesets and traces.

use pclass_algos::{
    Classifier, HiCutsClassifier, HiCutsConfig, HyperCutsClassifier, HyperCutsConfig,
    LinearClassifier, RfcClassifier,
};
use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
use pclass_types::{MatchResult, RuleSet, Trace};

fn check_against_linear(name: &str, classifier: &dyn Classifier, rs: &RuleSet, trace: &Trace) {
    for entry in trace.entries() {
        let expected = rs.classify_linear(&entry.header);
        let got = classifier.classify(&entry.header);
        assert_eq!(
            got, expected,
            "{name} disagreed with linear search on {}",
            entry.header
        );
    }
}

fn ruleset_and_trace(style: SeedStyle, rules: usize, packets: usize) -> (RuleSet, Trace) {
    let rs = ClassBenchGenerator::new(style, 1234).generate(rules);
    let trace = TraceGenerator::new(&rs, 99).generate(packets);
    (rs, trace)
}

#[test]
fn hicuts_matches_linear_on_all_styles() {
    for style in SeedStyle::ALL {
        let (rs, trace) = ruleset_and_trace(style, 300, 800);
        let hc = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
        check_against_linear("hicuts", &hc, &rs, &trace);
    }
}

#[test]
fn hypercuts_matches_linear_on_all_styles() {
    for style in SeedStyle::ALL {
        let (rs, trace) = ruleset_and_trace(style, 300, 800);
        let hc = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
        check_against_linear("hypercuts", &hc, &rs, &trace);
    }
}

#[test]
fn hypercuts_without_heuristics_matches_linear() {
    let (rs, trace) = ruleset_and_trace(SeedStyle::Ipc, 250, 600);
    let config = HyperCutsConfig {
        binth: 8,
        spfac: 4.0,
        region_compaction: false,
        push_common_rules: false,
    };
    let hc = HyperCutsClassifier::build(&rs, &config);
    check_against_linear("hypercuts-noheur", &hc, &rs, &trace);
}

#[test]
fn rfc_matches_linear_on_all_styles() {
    for style in SeedStyle::ALL {
        let (rs, trace) = ruleset_and_trace(style, 200, 600);
        let rfc = RfcClassifier::build(&rs).expect("RFC build within memory limit");
        check_against_linear("rfc", &rfc, &rs, &trace);
    }
}

#[test]
fn all_classifiers_agree_with_each_other() {
    let (rs, trace) = ruleset_and_trace(SeedStyle::Acl, 400, 1000);
    let lin = LinearClassifier::new(rs.clone());
    let hi = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let hyper = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
    let rfc = RfcClassifier::build(&rs).unwrap();
    for entry in trace.entries() {
        let expected = lin.classify(&entry.header);
        assert_eq!(hi.classify(&entry.header), expected);
        assert_eq!(hyper.classify(&entry.header), expected);
        assert_eq!(rfc.classify(&entry.header), expected);
    }
}

#[test]
fn decision_trees_respect_memory_and_depth_trends() {
    // FW-style sets replicate rules more than ACL-style sets of the same
    // size — the structural fact behind Table 4's fw1 rows.
    let acl = ClassBenchGenerator::new(SeedStyle::Acl, 7).generate(500);
    let fw = ClassBenchGenerator::new(SeedStyle::Fw, 7).generate(500);
    let acl_tree = HiCutsClassifier::build(&acl, &HiCutsConfig::paper_defaults());
    let fw_tree = HiCutsClassifier::build(&fw, &HiCutsConfig::paper_defaults());
    let acl_refs = acl_tree.stats().stored_rule_refs;
    let fw_refs = fw_tree.stats().stored_rule_refs;
    assert!(
        fw_refs > acl_refs,
        "expected fw replication ({fw_refs}) to exceed acl ({acl_refs})"
    );
}

#[test]
fn worst_case_accesses_nonzero_and_bounded_by_ruleset() {
    let (rs, _) = ruleset_and_trace(SeedStyle::Acl, 300, 1);
    let hi = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let wc = hi.worst_case_memory_accesses().unwrap();
    assert!(wc >= 2);
    assert!(wc < 10_000);
}

#[test]
fn classify_with_stats_returns_same_results() {
    let (rs, trace) = ruleset_and_trace(SeedStyle::Ipc, 200, 300);
    let hyper = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
    for entry in trace.entries() {
        let mut stats = pclass_algos::LookupStats::new();
        let a = hyper.classify(&entry.header);
        let b = hyper.classify_with_stats(&entry.header, &mut stats);
        assert_eq!(a, b);
        if a != MatchResult::NoMatch {
            assert!(stats.rules_compared >= 1);
        }
    }
}
