//! Line-rate router scenario.
//!
//! The introduction of the paper frames the problem in terms of OC-192 and
//! OC-768 line rates: 31.25 and 125 million minimum-sized packets per second
//! respectively.  This example builds the hardware search structure for the
//! three ClassBench seed styles at several ruleset sizes, asks the
//! cycle-accurate model for its guaranteed (worst-case) and observed
//! (trace-average) throughput on both the ASIC and the FPGA targets, and
//! reports which line rates each configuration can sustain — including the
//! multi-engine deployment of `Accelerator::classify_trace_banked`.
//!
//! Run with:
//! ```text
//! cargo run --release --example line_rate_router
//! ```

use packet_classifier::prelude::*;
use pclass_energy::AcceleratorEnergyModel;

/// OC-192 worst-case packet rate (40-byte packets back to back).
const OC192_PPS: f64 = 31.25e6;
/// OC-768 worst-case packet rate.
const OC768_PPS: f64 = 125e6;

fn line_rate_label(pps: f64) -> &'static str {
    if pps >= OC768_PPS {
        "OC-768"
    } else if pps >= OC192_PPS {
        "OC-192"
    } else if pps >= 2.5e6 {
        "OC-48"
    } else {
        "< OC-48"
    }
}

fn main() {
    let asic = AcceleratorEnergyModel::asic();
    let fpga = AcceleratorEnergyModel::fpga();

    println!(
        "{:<12} {:>6} {:>9} {:>7} {:>12} {:>10} {:>12} {:>10}",
        "ruleset",
        "rules",
        "mem [B]",
        "cycles",
        "ASIC [Mpps]",
        "ASIC rate",
        "FPGA [Mpps]",
        "FPGA rate"
    );

    for style in [SeedStyle::Acl, SeedStyle::Ipc, SeedStyle::Fw] {
        for &size in &[500usize, 2_000, 10_000] {
            let ruleset = ClassBenchGenerator::new(style, 11).generate(size);
            let trace = TraceGenerator::new(&ruleset, 13).generate(30_000);
            let config = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
            // FW-style sets can exceed the 1024-word FPGA budget; use the
            // full 12-bit address space the architecture supports.
            let program =
                match pclass_core::HardwareProgram::build_with_capacity(&ruleset, &config, 4096) {
                    Ok(p) => p,
                    Err(e) => {
                        println!("{:<12} {:>6} build failed: {e}", ruleset.name(), size);
                        continue;
                    }
                };
            let engine = Accelerator::new(&program);
            let report = engine.classify_trace(&trace);

            let asic_pps = asic.packets_per_second(&report);
            let fpga_pps = fpga.packets_per_second(&report);
            println!(
                "{:<12} {:>6} {:>9} {:>7} {:>12.1} {:>10} {:>12.1} {:>10}",
                ruleset.name(),
                size,
                program.memory_bytes(),
                program.worst_case_cycles(),
                asic_pps / 1e6,
                line_rate_label(asic.guaranteed_packets_per_second(program.worst_case_cycles())),
                fpga_pps / 1e6,
                line_rate_label(fpga.guaranteed_packets_per_second(program.worst_case_cycles())),
            );
        }
    }

    // ------------------------------------------------------------------
    // Multi-engine scaling: shard one heavy trace over several engines.
    // ------------------------------------------------------------------
    println!("\n== Multi-engine scaling (ACL, 5,000 rules, 200k packets) ==");
    let ruleset = ClassBenchGenerator::new(SeedStyle::Acl, 3).generate(5_000);
    let trace = TraceGenerator::new(&ruleset, 4).generate(200_000);
    let config = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
    let program = pclass_core::HardwareProgram::build_with_capacity(&ruleset, &config, 4096)
        .expect("ACL structure fits");
    let accelerator = Accelerator::new(&program);
    for engines in [1usize, 2, 4, 8] {
        let report = accelerator.classify_trace_banked(&trace, engines);
        let pps = report.packets_per_second(226e6);
        println!(
            "  {engines} engine(s): {:>8.1} Mpps aggregate at 226 MHz ({} cycles on the critical engine)",
            pps / 1e6,
            report.cycles
        );
    }
}
