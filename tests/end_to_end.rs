//! End-to-end integration tests across all crates: generators → software
//! baselines → hardware program → cycle-accurate accelerator → energy
//! models, all validated against the reference linear search.

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_energy::AcceleratorEnergyModel;
use pclass_tcam::TcamClassifier;

fn workload(style: SeedStyle, rules: usize, packets: usize, seed: u64) -> (RuleSet, Trace) {
    let rs = ClassBenchGenerator::new(style, seed).generate(rules);
    let trace = TraceGenerator::new(&rs, seed ^ 0xABCD).generate(packets);
    (rs, trace)
}

#[test]
fn every_engine_agrees_on_every_style() {
    for (i, style) in SeedStyle::ALL.into_iter().enumerate() {
        let (rs, trace) = workload(style, 350, 800, 100 + i as u64);

        let linear = LinearClassifier::new(rs.clone());
        let hicuts = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
        let hypercuts = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
        let rfc = RfcClassifier::build(&rs).expect("RFC fits its memory budget");
        let tcam = TcamClassifier::program(&rs).expect("rules are prefix-expressible");
        let hw_hicuts = HardwareProgram::build_with_capacity(
            &rs,
            &BuildConfig::paper_defaults(CutAlgorithm::HiCuts),
            4096,
        )
        .unwrap();
        let hw_hypercuts = HardwareProgram::build_with_capacity(
            &rs,
            &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts),
            4096,
        )
        .unwrap();
        let engine_hi = Accelerator::new(&hw_hicuts);
        let engine_hyper = Accelerator::new(&hw_hypercuts);

        for entry in trace.entries() {
            let expected = rs.classify_linear(&entry.header);
            assert_eq!(linear.classify(&entry.header), expected);
            assert_eq!(hicuts.classify(&entry.header), expected, "{style} hicuts");
            assert_eq!(
                hypercuts.classify(&entry.header),
                expected,
                "{style} hypercuts"
            );
            assert_eq!(rfc.classify(&entry.header), expected, "{style} rfc");
            assert_eq!(tcam.classify(&entry.header), expected, "{style} tcam");
            assert_eq!(
                engine_hi.classify_packet(&entry.header).0,
                expected,
                "{style} hw hicuts"
            );
            assert_eq!(
                engine_hyper.classify_packet(&entry.header).0,
                expected,
                "{style} hw hypercuts"
            );
        }
    }
}

#[test]
fn facade_prelude_covers_the_whole_pipeline() {
    // The doc-example flow, in test form.
    let ruleset = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(500);
    let trace = TraceGenerator::new(&ruleset, 7).generate(1_000);
    let config = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
    let program = HardwareProgram::build(&ruleset, &config).unwrap();
    let engine = Accelerator::new(&program);
    let report = engine.classify_trace(&trace);
    assert_eq!(report.packets(), 1_000);
    for (entry, result) in trace.entries().iter().zip(report.results.iter()) {
        assert_eq!(*result, ruleset.classify_linear(&entry.header));
    }
    assert!(report.cycles >= trace.len() as u64);

    // Energy models accept the report directly.
    let asic = AcceleratorEnergyModel::asic();
    assert!(asic.energy_per_packet_j(&report) > 0.0);
    assert!(asic.packets_per_second(&report) > 1e6);
}

#[test]
fn hardware_beats_software_on_throughput_and_energy() {
    // The qualitative headline of the paper (§5.2/§5.3): the accelerator is
    // orders of magnitude faster and more energy-efficient than software on
    // the SA-1100.
    let (rs, trace) = workload(SeedStyle::Acl, 1_000, 4_000, 55);

    // Software HiCuts on the SA-1100 model.
    let sw = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let sa1100 = Sa1100Model::new();
    let mut total = pclass_algos::LookupStats::new();
    for entry in trace.entries() {
        sw.classify_with_stats(&entry.header, &mut total);
    }
    let avg = pclass_algos::OpCounters {
        loads: total.ops.loads / trace.len() as u64,
        stores: total.ops.stores / trace.len() as u64,
        alu: total.ops.alu / trace.len() as u64,
        branches: total.ops.branches / trace.len() as u64,
        muls: total.ops.muls / trace.len() as u64,
        divs: total.ops.divs / trace.len() as u64,
    };
    let sw_pps = sa1100.packets_per_second(&avg);
    let sw_energy = sa1100.normalized_energy_j(&avg);

    // Hardware accelerator (ASIC target).
    let program =
        HardwareProgram::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts)).unwrap();
    let report = Accelerator::new(&program).classify_trace(&trace);
    let asic = AcceleratorEnergyModel::asic();
    let hw_pps = asic.packets_per_second(&report);
    let hw_energy = asic.energy_per_packet_j(&report);

    assert!(
        hw_pps > 100.0 * sw_pps,
        "expected >100x throughput gain, got sw {sw_pps:.0} vs hw {hw_pps:.0}"
    );
    assert!(
        sw_energy > 100.0 * hw_energy,
        "expected >100x energy saving, got sw {sw_energy:.3e} vs hw {hw_energy:.3e}"
    );
    // And the ASIC sustains more than OC-192 on this ruleset.
    assert!(asic.guaranteed_packets_per_second(program.worst_case_cycles()) > 31.25e6);
}

#[test]
fn modified_builders_use_less_build_energy_than_originals() {
    // Table 3's qualitative claim, checked through the shared energy model.
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, 77).generate(1_500);
    let sa1100 = Sa1100Model::new();

    let sw = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
    let hw =
        HardwareProgram::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts)).unwrap();
    let sw_energy = sa1100.build_energy_j(sw.build_stats());
    let hw_energy = sa1100.build_energy_j(hw.build_stats());
    assert!(
        sw_energy > hw_energy,
        "modified HiCuts should build cheaper: sw {sw_energy:.3e} vs modified {hw_energy:.3e}"
    );
}

#[test]
fn speed_parameter_trades_memory_for_cycles_end_to_end() {
    let (rs, trace) = workload(SeedStyle::Acl, 3_000, 2_000, 9);
    let mut mem_cfg = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
    mem_cfg.speed = SpeedMode::MemoryEfficient;
    let fast_cfg = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);

    let memory = HardwareProgram::build_with_capacity(&rs, &mem_cfg, 4096).unwrap();
    let fast = HardwareProgram::build_with_capacity(&rs, &fast_cfg, 4096).unwrap();

    assert!(memory.memory_bytes() <= fast.memory_bytes());
    assert!(fast.worst_case_cycles() <= memory.worst_case_cycles());

    // Both programs classify identically.
    let rep_mem = Accelerator::new(&memory).classify_trace(&trace);
    let rep_fast = Accelerator::new(&fast).classify_trace(&trace);
    assert_eq!(rep_mem.results, rep_fast.results);
    // And the fast program never needs more cycles for any packet.
    assert!(rep_fast.cycles <= rep_mem.cycles);
}

#[test]
fn tcam_storage_efficiency_sits_in_the_papers_band() {
    // §1 quotes 16–53 % storage efficiency for real databases; the
    // port-range-bearing styles should land in (or below) that band while a
    // purely exact-match set would be near 100 %.
    let mut efficiencies = Vec::new();
    for style in SeedStyle::ALL {
        let rs = ClassBenchGenerator::new(style, 31).generate(1_000);
        let tcam = TcamClassifier::program(&rs).unwrap();
        efficiencies.push(tcam.stats().storage_efficiency);
    }
    for eff in &efficiencies {
        assert!(
            *eff > 0.05 && *eff < 0.95,
            "efficiency {eff} out of plausible range"
        );
    }
    // At least one style should be well below 60 % (heavy range usage).
    assert!(efficiencies.iter().any(|&e| e < 0.6));
}

#[test]
fn worst_case_cycles_scale_like_table4() {
    // Table 4: ACL-style sets stay at a handful of cycles even as the
    // ruleset grows by an order of magnitude, and FW-style sets need far
    // more memory than ACL sets.
    let acl_small = HardwareProgram::build_with_capacity(
        &ClassBenchGenerator::new(SeedStyle::Acl, 3).generate(300),
        &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts),
        4096,
    )
    .unwrap();
    let acl_large = HardwareProgram::build_with_capacity(
        &ClassBenchGenerator::new(SeedStyle::Acl, 3).generate(5_000),
        &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts),
        4096,
    )
    .unwrap();
    assert!(acl_small.worst_case_cycles() <= 4);
    assert!(acl_large.worst_case_cycles() <= 8);
    assert!(acl_large.memory_bytes() > acl_small.memory_bytes());

    // fw1 ≫ acl1: a fifth of the rules already needs more words (3,796 vs
    // 2,280), and doubling them again overflows the 4096-word budget
    // (44,771 words).  At 5,000 rules the full structure would be 3.8
    // million words; the builder stops cutting once the internal nodes
    // alone fill the budget, so the verdict takes a second, not minutes.
    let fw = |rules| {
        HardwareProgram::build_with_capacity(
            &ClassBenchGenerator::new(SeedStyle::Fw, 3).generate(rules),
            &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts),
            4096,
        )
    };
    let fw_fits = fw(1_000).unwrap();
    assert!(fw_fits.word_count() > acl_large.word_count());
    for rules in [2_000, 5_000] {
        let fw_overflows = fw(rules).unwrap_err();
        assert!(
            matches!(
                fw_overflows,
                pclass_core::builder::BuildError::CapacityExceeded { capacity: 4096, .. }
            ),
            "{fw_overflows}"
        );
    }
}
