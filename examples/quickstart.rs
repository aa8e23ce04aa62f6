//! Quickstart: build the hardware search structure for a synthetic ACL
//! ruleset, run the cycle-accurate accelerator model over a packet trace and
//! compare it with the software baselines.
//!
//! It also reproduces the paper's worked example (Table 1 / Figures 1–3):
//! the HiCuts and HyperCuts decision trees for the 10-rule toy ruleset.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use packet_classifier::prelude::*;
use pclass_algos::hicuts::HiCutsConfig;
use pclass_algos::hypercuts::HyperCutsConfig;
use pclass_energy::AcceleratorEnergyModel;
use pclass_types::toy;

fn main() {
    // ------------------------------------------------------------------
    // 1. The paper's worked example: Table 1 ruleset, binth = 3.
    // ------------------------------------------------------------------
    let table1 = toy::table1_ruleset();
    println!("== Table 1 ruleset ({} rules) ==", table1.len());
    for rule in table1.rules() {
        println!("  {rule}");
    }

    let hicuts = HiCutsClassifier::build(&table1, &HiCutsConfig::figure1());
    println!("\n== Figure 1: HiCuts decision tree (binth 3) ==");
    print!("{}", hicuts.dump());

    let hypercuts = HyperCutsClassifier::build(&table1, &HyperCutsConfig::figure3());
    println!("== Figure 3: HyperCuts decision tree (binth 3) ==");
    print!("{}", hypercuts.dump());

    // ------------------------------------------------------------------
    // 2. A realistic ACL ruleset through the hardware accelerator.
    // ------------------------------------------------------------------
    let ruleset = ClassBenchGenerator::new(SeedStyle::Acl, 42).generate(2_000);
    let trace = TraceGenerator::new(&ruleset, 7).generate(20_000);
    println!(
        "\n== Hardware accelerator on {} ({} rules, {} packets) ==",
        ruleset.name(),
        ruleset.len(),
        trace.len()
    );

    for algorithm in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
        let config = BuildConfig::paper_defaults(algorithm);
        let program =
            HardwareProgram::build(&ruleset, &config).expect("structure fits in 1024 words");
        let engine = Accelerator::new(&program);
        let report = engine.classify_trace(&trace);

        // Verify every decision against the reference linear search.
        let mut mismatches = 0usize;
        for (entry, result) in trace.entries().iter().zip(report.results.iter()) {
            if *result != ruleset.classify_linear(&entry.header) {
                mismatches += 1;
            }
        }

        let asic = AcceleratorEnergyModel::asic();
        let fpga = AcceleratorEnergyModel::fpga();
        println!("\n  algorithm          : {}", algorithm.name());
        println!(
            "  memory             : {} bytes ({} words)",
            program.memory_bytes(),
            program.word_count()
        );
        println!("  worst-case cycles  : {}", program.worst_case_cycles());
        println!(
            "  avg cycles/packet  : {:.3}",
            report.avg_cycles_per_packet()
        );
        println!(
            "  ASIC throughput    : {:.1} Mpps",
            asic.packets_per_second(&report) / 1e6
        );
        println!(
            "  FPGA throughput    : {:.1} Mpps",
            fpga.packets_per_second(&report) / 1e6
        );
        println!(
            "  ASIC energy/packet : {:.3e} J",
            asic.energy_per_packet_j(&report)
        );
        println!(
            "  FPGA energy/packet : {:.3e} J",
            fpga.energy_per_packet_j(&report)
        );
        println!("  mismatches vs linear search: {mismatches}");
        assert_eq!(
            mismatches, 0,
            "the accelerator must agree with linear search"
        );
    }

    // ------------------------------------------------------------------
    // 3. Software baselines on the same workload (for perspective).
    // ------------------------------------------------------------------
    println!("\n== Software baselines (StrongARM SA-1100 model) ==");
    let sa1100 = Sa1100Model::new();
    let linear = LinearClassifier::new(ruleset.clone());
    let hicuts = HiCutsClassifier::build(&ruleset, &HiCutsConfig::paper_defaults());
    let hypercuts = HyperCutsClassifier::build(&ruleset, &HyperCutsConfig::paper_defaults());
    // Memory under the software model of Table 2: the cut trees' own
    // `memory_bytes` is their arena's real size.
    let classifiers: [(&dyn Classifier, usize); 3] = [
        (&linear, linear.memory_bytes()),
        (&hicuts, hicuts.model_bytes()),
        (&hypercuts, hypercuts.model_bytes()),
    ];
    for (classifier, memory) in classifiers {
        let mut total = pclass_algos::LookupStats::new();
        let sample: Vec<_> = trace.entries().iter().take(2_000).collect();
        for entry in &sample {
            classifier.classify_with_stats(&entry.header, &mut total);
        }
        let mut avg = pclass_algos::OpCounters::zero();
        // Average operation mix per packet.
        avg.loads = total.ops.loads / sample.len() as u64;
        avg.stores = total.ops.stores / sample.len() as u64;
        avg.alu = total.ops.alu / sample.len() as u64;
        avg.branches = total.ops.branches / sample.len() as u64;
        avg.muls = total.ops.muls / sample.len() as u64;
        avg.divs = total.ops.divs / sample.len() as u64;
        println!(
            "  {:14}  memory {:>9} bytes   {:>9.0} packets/s   {:.3e} J/packet",
            classifier.name(),
            memory,
            sa1100.packets_per_second(&avg),
            sa1100.normalized_energy_j(&avg),
        );
    }
}
