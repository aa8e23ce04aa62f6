//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p pclass-bench --bin reproduce -- all
//! cargo run --release -p pclass-bench --bin reproduce -- table4 --quick
//! ```
//!
//! Subcommands: `figures`, `table2`, `table3`, `table4`, `table5`, `table6`,
//! `table7`, `table8`, `speedups`, `power`, `tcam`, `speed_tradeoff`, `all`.
//! The `--quick` flag scales the largest rulesets down so the whole suite
//! finishes in a couple of minutes; drop it for the paper's full sizes.  An
//! unknown subcommand or flag prints the usage list and exits with status 2.

use pclass_algos::Classifier;
use pclass_bench::*;
use pclass_classbench::{table4_sizes, SeedStyle};
use pclass_core::builder::{BuildConfig, CutAlgorithm, SpeedMode};
use pclass_core::hw::Accelerator;
use pclass_core::program::HardwareProgram;
use pclass_energy::{AcceleratorEnergyModel, DeviceModel, Sa1100Model, SramPart, TcamPart};
use pclass_tcam::TcamClassifier;
use pclass_types::toy;

const TRACE_PACKETS: usize = 20_000;

/// A subcommand: its name and what it runs, given `--quick`.
type Command = (&'static str, fn(bool));

/// Every subcommand in `all` order; `--quick` only changes `table4`.
const COMMANDS: [Command; 12] = [
    ("figures", |_| figures()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("table4", table4),
    ("table5", |_| table5()),
    ("table6", |_| table6()),
    ("table7", |_| table7()),
    ("table8", |_| table8()),
    ("speedups", |_| speedups()),
    ("power", |_| power()),
    ("tcam", |_| tcam()),
    ("speed_tradeoff", |_| speed_tradeoff()),
];

fn usage_and_exit(problem: &str) -> ! {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    eprintln!("reproduce: {problem}");
    eprintln!("usage: reproduce [all|{}] [--quick]", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut command = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            flag if flag.starts_with("--") => usage_and_exit(&format!("unknown flag {flag}")),
            _ if command.is_some() => usage_and_exit(&format!("unexpected argument {arg}")),
            _ => command = Some(arg),
        }
    }
    let command = command.unwrap_or_else(|| "all".to_string());
    let selected: Vec<&Command> = COMMANDS
        .iter()
        .filter(|(name, _)| command == "all" || command == *name)
        .collect();
    if selected.is_empty() {
        usage_and_exit(&format!("unknown subcommand {command}"));
    }
    for (_, run) in selected {
        run(quick);
    }
}

/// Figures 1–3: the worked example on the Table 1 ruleset.
fn figures() {
    println!("== Figures 1-3: decision trees for the Table 1 ruleset (binth 3) ==");
    let rs = toy::table1_ruleset();
    let hicuts = pclass_algos::HiCutsClassifier::build(&rs, &pclass_algos::HiCutsConfig::figure1());
    println!("-- Figure 1 (HiCuts) --\n{}", hicuts.dump());
    let hyper =
        pclass_algos::HyperCutsClassifier::build(&rs, &pclass_algos::HyperCutsConfig::figure3());
    println!("-- Figure 3 (HyperCuts) --\n{}", hyper.dump());
}

/// Table 2: memory for the search structure + ruleset, software vs hardware.
fn table2() {
    println!(
        "\n== Table 2: memory for the search structure and ruleset (bytes), spfac=4, speed=1 =="
    );
    println!(
        "{:>6} | {:>12} {:>12} | {:>12} {:>12}",
        "rules", "sw HiCuts", "sw HyperCuts", "hw HiCuts", "hw HyperCuts"
    );
    for &size in &ACL_TABLE_SIZES {
        let rs = acl_ruleset(size);
        let sw_hi = software_hicuts(&rs).model_bytes();
        let sw_hy = software_hypercuts(&rs).model_bytes();
        let hw_hi = plan_hardware(&rs, CutAlgorithm::HiCuts)
            .map(|(s, _)| s.memory_bytes)
            .unwrap_or(0);
        let hw_hy = plan_hardware(&rs, CutAlgorithm::HyperCuts)
            .map(|(s, _)| s.memory_bytes)
            .unwrap_or(0);
        println!("{size:>6} | {sw_hi:>12} {sw_hy:>12} | {hw_hi:>12} {hw_hy:>12}");
    }
}

/// Table 3: energy used to build the search structure (SA-1100 model).
fn table3() {
    println!("\n== Table 3: energy to build the search structure (J), spfac=4, speed=1 ==");
    println!(
        "{:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>8}",
        "rules", "sw HiCuts", "sw HyperCuts", "hw HiCuts", "hw HyperCuts", "ratio"
    );
    let model = Sa1100Model::new();
    for &size in &ACL_TABLE_SIZES {
        let rs = acl_ruleset(size);
        let sw_hi = model.build_energy_j(software_hicuts(&rs).build_stats());
        let sw_hy = model.build_energy_j(software_hypercuts(&rs).build_stats());
        let hw_hi = plan_hardware(&rs, CutAlgorithm::HiCuts)
            .map(|(_, b)| model.build_energy_j(&b))
            .unwrap_or(0.0);
        let hw_hy = plan_hardware(&rs, CutAlgorithm::HyperCuts)
            .map(|(_, b)| model.build_energy_j(&b))
            .unwrap_or(0.0);
        println!(
            "{size:>6} | {sw_hi:>12.3e} {sw_hy:>12.3e} | {hw_hi:>12.3e} {hw_hy:>12.3e} | {:>7.2}x",
            sw_hi / hw_hi.max(1e-12)
        );
    }
}

/// Table 4: memory and worst-case cycles for acl1/fw1/ipc1 ClassBench sets.
fn table4(quick: bool) {
    println!("\n== Table 4: memory (bytes) and worst-case clock cycles, spfac=4, speed=1 ==");
    for style in SeedStyle::ALL {
        println!("-- {} --", style.name());
        println!(
            "{:>7} | {:>12} {:>7} | {:>12} {:>7}",
            "rules", "HiCuts mem", "cycles", "HyperC mem", "cycles"
        );
        let sizes: Vec<usize> = table4_sizes(style)
            .into_iter()
            .filter(|&s| !quick || s <= 5_000)
            .collect();
        for size in sizes {
            let rs = styled_ruleset(style, size);
            let hi = plan_hardware(&rs, CutAlgorithm::HiCuts);
            let hy = plan_hardware(&rs, CutAlgorithm::HyperCuts);
            let fmt = |p: &Option<(
                pclass_core::program::ProgramStats,
                pclass_algos::BuildStats,
            )>| match p {
                Some((s, _)) => (s.memory_bytes.to_string(), s.worst_case_cycles.to_string()),
                None => ("n/a".to_string(), "n/a".to_string()),
            };
            let (hi_mem, hi_cyc) = fmt(&hi);
            let (hy_mem, hy_cyc) = fmt(&hy);
            println!("{size:>7} | {hi_mem:>12} {hi_cyc:>7} | {hy_mem:>12} {hy_cyc:>7}");
        }
    }
}

/// Table 5: device comparison.
fn table5() {
    println!("\n== Table 5: device comparison ==");
    println!(
        "{:<24} {:>9} {:>8} {:>10} {:>12} {:>14}",
        "device", "process", "voltage", "freq [MHz]", "power [mW]", "power* [mW]"
    );
    for device in [
        DeviceModel::fpga_virtex5(),
        DeviceModel::asic_65nm(),
        DeviceModel::strongarm_sa1100(),
    ] {
        println!(
            "{:<24} {:>7}nm {:>7}V {:>10.0} {:>12.2} {:>14.2}",
            device.name,
            device.node.process_nm,
            device.node.voltage_v,
            device.frequency_hz / 1e6,
            device.power_w * 1e3,
            device.normalized_power_w() * 1e3
        );
    }
    let asic = DeviceModel::asic_65nm();
    let fpga = DeviceModel::fpga_virtex5();
    println!(
        "  ASIC area: {} NAND2-equivalent gates",
        asic.area_gates.unwrap()
    );
    if let (Some((slices, sf)), Some((brams, bf))) = (fpga.slices, fpga.block_rams) {
        println!(
            "  FPGA area: {slices} slices ({:.0} %), {brams} block RAMs ({:.0} %)",
            sf * 100.0,
            bf * 100.0
        );
    }
}

/// Tables 6 and 7 share the same measurements; compute once.
fn measure_acl_row(
    size: usize,
) -> (
    SoftwareMeasurement,
    SoftwareMeasurement,
    Option<HardwareMeasurement>,
    Option<HardwareMeasurement>,
) {
    let rs = acl_ruleset(size);
    let trace = trace_for(&rs, TRACE_PACKETS);
    let sw_hi = measure_software(&software_hicuts(&rs), &trace);
    let sw_hy = measure_software(&software_hypercuts(&rs), &trace);
    let hw_hi = measure_hardware(&rs, &trace, CutAlgorithm::HiCuts);
    let hw_hy = measure_hardware(&rs, &trace, CutAlgorithm::HyperCuts);
    (sw_hi, sw_hy, hw_hi, hw_hy)
}

/// Table 6: average normalised energy per classified packet.
fn table6() {
    println!("\n== Table 6: average normalised energy per packet (J), spfac=4, speed=1 ==");
    println!(
        "{:>6} | {:>11} {:>11} | {:>11} {:>11} | {:>11} {:>11}",
        "rules", "sw HiCuts", "sw HyperC", "ASIC HiC", "ASIC HypC", "FPGA HiC", "FPGA HypC"
    );
    let asic = AcceleratorEnergyModel::asic();
    let fpga = AcceleratorEnergyModel::fpga();
    for &size in &ACL_TABLE_SIZES {
        let (sw_hi, sw_hy, hw_hi, hw_hy) = measure_acl_row(size);
        let e = |m: &Option<HardwareMeasurement>, model: &AcceleratorEnergyModel| {
            m.as_ref()
                .map(|h| model.energy_per_packet_j(&h.report))
                .unwrap_or(f64::NAN)
        };
        println!(
            "{size:>6} | {:>11.3e} {:>11.3e} | {:>11.3e} {:>11.3e} | {:>11.3e} {:>11.3e}",
            sw_hi.energy_per_packet_j,
            sw_hy.energy_per_packet_j,
            e(&hw_hi, &asic),
            e(&hw_hy, &asic),
            e(&hw_hi, &fpga),
            e(&hw_hy, &fpga),
        );
    }
}

/// Table 7: packets classified per second.
fn table7() {
    println!("\n== Table 7: packets classified in one second, spfac=4, speed=1 ==");
    println!(
        "{:>6} | {:>11} {:>11} | {:>13} {:>13} | {:>12} {:>12}",
        "rules",
        "sw HiCuts",
        "sw HyperC",
        "ASIC HiCuts",
        "ASIC HyperC",
        "FPGA HiCuts",
        "FPGA HyperC"
    );
    let asic = AcceleratorEnergyModel::asic();
    let fpga = AcceleratorEnergyModel::fpga();
    for &size in &ACL_TABLE_SIZES {
        let (sw_hi, sw_hy, hw_hi, hw_hy) = measure_acl_row(size);
        let pps = |m: &Option<HardwareMeasurement>, model: &AcceleratorEnergyModel| {
            m.as_ref()
                .map(|h| model.packets_per_second(&h.report))
                .unwrap_or(f64::NAN)
        };
        println!(
            "{size:>6} | {:>11.0} {:>11.0} | {:>13.0} {:>13.0} | {:>12.0} {:>12.0}",
            sw_hi.packets_per_second,
            sw_hy.packets_per_second,
            pps(&hw_hi, &asic),
            pps(&hw_hy, &asic),
            pps(&hw_hi, &fpga),
            pps(&hw_hy, &fpga),
        );
    }
}

/// Table 8: worst-case memory accesses per lookup.
fn table8() {
    println!("\n== Table 8: worst-case memory accesses, spfac=4, speed=1 ==");
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10}",
        "rules", "sw HiCuts", "sw HyperC", "hw HiCuts", "hw HyperC"
    );
    for &size in &ACL_TABLE_SIZES {
        let rs = acl_ruleset(size);
        let sw_hi = software_hicuts(&rs)
            .worst_case_memory_accesses()
            .unwrap_or(0);
        let sw_hy = software_hypercuts(&rs)
            .worst_case_memory_accesses()
            .unwrap_or(0);
        let hw = |algo| {
            plan_hardware(&rs, algo)
                .map(|(s, _)| s.worst_case_cycles)
                .unwrap_or(0)
        };
        println!(
            "{size:>6} | {sw_hi:>10} {sw_hy:>10} | {:>10} {:>10}",
            hw(CutAlgorithm::HiCuts),
            hw(CutAlgorithm::HyperCuts)
        );
    }
}

/// §5.2 headline speed-ups: ASIC accelerator vs RFC and vs software HiCuts.
fn speedups() {
    println!("\n== §5.2 speed-ups on the largest acl1 set ==");
    let size = *ACL_TABLE_SIZES.last().unwrap();
    let rs = acl_ruleset(size);
    let trace = trace_for(&rs, TRACE_PACKETS);
    let asic = AcceleratorEnergyModel::asic();

    let hw = measure_hardware(&rs, &trace, CutAlgorithm::HyperCuts).expect("acl set fits");
    let hw_pps = asic.packets_per_second(&hw.report);

    let sw_hicuts = measure_software(&software_hicuts(&rs), &trace);
    println!("  ASIC accelerator : {:>13.0} packets/s", hw_pps);
    println!(
        "  software HiCuts  : {:>13.0} packets/s  ({:.0}x slower)",
        sw_hicuts.packets_per_second,
        hw_pps / sw_hicuts.packets_per_second
    );

    match pclass_algos::RfcClassifier::build(&rs) {
        Ok(rfc) => {
            let m = measure_software(&rfc, &trace);
            println!(
                "  software RFC     : {:>13.0} packets/s  ({:.0}x slower)",
                m.packets_per_second,
                hw_pps / m.packets_per_second
            );
        }
        Err(e) => println!("  software RFC     : preprocessing exceeded its memory budget ({e})"),
    }

    let sa1100 = Sa1100Model::new();
    let sw_energy = sa1100.normalized_energy_j(&sw_hicuts.avg_ops);
    let hw_energy = asic.energy_per_packet_j(&hw.report);
    println!(
        "  energy per packet: software HiCuts {:.3e} J vs ASIC {:.3e} J  ({:.0}x saving)",
        sw_energy,
        hw_energy,
        sw_energy / hw_energy
    );
}

/// §5.3 power comparison against TCAM and SRAM parts.
fn power() {
    println!("\n== §5.3 power comparison ==");
    let asic = DeviceModel::asic_65nm();
    let fpga = DeviceModel::fpga_virtex5();
    let ayama_77 = TcamPart::ayama_10128_at_77mhz();
    let ayama_133 = TcamPart::ayama_10512_at_133mhz();
    println!(
        "  FPGA accelerator, 614,400 B @ 77 MHz : {:>8.2} W",
        fpga.power_w
    );
    println!(
        "  {}            : {:>8.2} W",
        ayama_77.name, ayama_77.power_w
    );
    println!(
        "  ASIC accelerator @ 133 MHz           : {:>8.2} mW",
        asic.power_at_frequency_w(133e6) * 1e3
    );
    println!(
        "  ASIC accelerator @ 226 MHz           : {:>8.2} mW",
        asic.power_w * 1e3
    );
    println!(
        "  {}           : {:>8.2} W",
        ayama_133.name, ayama_133.power_w
    );
    println!(
        "  {} (SRAM) @ 133 MHz   : {:>8.0} mW",
        SramPart::cy7c1381d().name,
        SramPart::cy7c1381d().power_w * 1e3
    );
    println!(
        "  {} (SRAM) @ 250 MHz: {:>8.0} mW",
        SramPart::cy7c1370dv25().name,
        SramPart::cy7c1370dv25().power_w * 1e3
    );
}

/// TCAM storage-efficiency comparison (§1 / §5.3).
fn tcam() {
    println!("\n== TCAM storage efficiency (range-to-prefix expansion) ==");
    println!(
        "{:<10} {:>7} {:>9} {:>12} {:>12}",
        "ruleset", "rules", "entries", "expansion", "efficiency"
    );
    for style in SeedStyle::ALL {
        let rs = styled_ruleset(style, 1_000);
        match TcamClassifier::program(&rs) {
            Ok(t) => {
                let s = t.stats();
                println!(
                    "{:<10} {:>7} {:>9} {:>11.2}x {:>11.1}%",
                    rs.name(),
                    s.rules,
                    s.entries,
                    s.expansion_factor,
                    s.storage_efficiency * 100.0
                );
            }
            Err(e) => println!("{:<10} programming failed: {e}", rs.name()),
        }
    }
}

/// The speed-parameter trade-off (Eq. 5 vs Eq. 7).
fn speed_tradeoff() {
    println!("\n== speed parameter trade-off (Eq. 5 vs Eq. 7) ==");
    println!(
        "{:>6} | {:>12} {:>7} | {:>12} {:>7}",
        "rules", "speed=0 mem", "cycles", "speed=1 mem", "cycles"
    );
    for &size in &[500usize, 1_000, 2_191, 5_000] {
        let rs = acl_ruleset(size);
        let mut row = Vec::new();
        for speed in [SpeedMode::MemoryEfficient, SpeedMode::Throughput] {
            let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
            cfg.speed = speed;
            match HardwareProgram::build_with_capacity(&rs, &cfg, 4096) {
                Ok(p) => row.push((p.memory_bytes(), p.worst_case_cycles())),
                Err(_) => row.push((0, 0)),
            }
        }
        println!(
            "{size:>6} | {:>12} {:>7} | {:>12} {:>7}",
            row[0].0, row[0].1, row[1].0, row[1].1
        );
    }
    // Observed average cycles on a trace, to show the throughput effect.
    let rs = acl_ruleset(2_191);
    let trace = trace_for(&rs, TRACE_PACKETS);
    for speed in [SpeedMode::MemoryEfficient, SpeedMode::Throughput] {
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
        cfg.speed = speed;
        let program = HardwareProgram::build_with_capacity(&rs, &cfg, 4096).unwrap();
        let report = Accelerator::new(&program).classify_trace(&trace);
        println!(
            "  speed={} observed average cycles/packet on acl1_2191: {:.3}",
            cfg.speed.as_u8(),
            report.avg_cycles_per_packet()
        );
    }
}
