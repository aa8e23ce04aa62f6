//! Golden pins of everything the cycle-accurate accelerator model *counts*
//! when it replays a trace: total clock cycles, total memory-word fetches,
//! the summed comparator work, the worst per-packet access count, and an
//! FNV-1a hash over every decision and every per-packet measurement.
//!
//! `tests/builder_golden.rs` pins what the builders count and
//! `crates/bench/tests/golden/` what `reproduce` prints; this file pins the
//! simulator itself, for both cut algorithms, both leaf packings (Eq. 5 and
//! Eq. 7) and all three ClassBench styles.  The literals were generated
//! from the per-packet bit-decoding walk and must survive any change to how
//! the host executes the model: a simulator speed-up that moves one of them
//! has changed the modelled device.

use pclass_bench::styled_ruleset;
use pclass_classbench::{SeedStyle, TraceGenerator};
use pclass_core::builder::{BuildConfig, CutAlgorithm, SpeedMode};
use pclass_core::hw::{Accelerator, ClassificationReport};
use pclass_core::program::HardwareProgram;
use pclass_types::MatchResult;

const RULES: usize = 300;
const PACKETS: usize = 5_000;
const TRACE_SEED: u64 = 0xACCE1;

/// What one replay is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    memory_accesses: u64,
    rules_examined: u64,
    worst_accesses: u32,
    hash: u64,
}

/// FNV-1a over the decisions and the per-packet measurements, in trace
/// order (`NoMatch` hashes as `u32::MAX`, which no 16-bit rule number is).
fn fnv1a(report: &ClassificationReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (result, pc) in report.results.iter().zip(&report.per_packet) {
        eat(match result {
            MatchResult::Matched(id) => *id,
            MatchResult::NoMatch => u32::MAX,
        });
        eat(pc.internal_fetches);
        eat(pc.leaf_fetches);
        eat(pc.rules_examined);
    }
    hash
}

fn replay(style: SeedStyle, algorithm: CutAlgorithm, speed: SpeedMode) -> Pin {
    let rs = styled_ruleset(style, RULES);
    // A quarter background traffic, so unmatched packets are part of what is
    // pinned; at this size the acl/HyperCuts root also has null children
    // (416 packets cost no fetch at all, which is where `cycles` and
    // `memory_accesses` part ways).
    let trace = TraceGenerator::new(&rs, TRACE_SEED)
        .random_fraction(0.25)
        .generate(PACKETS);
    let mut config = BuildConfig::paper_defaults(algorithm);
    config.speed = speed;
    // FW-style sets outgrow the 1024-word FPGA part; use the full 12-bit
    // address space everywhere.
    let program = HardwareProgram::build_with_capacity(&rs, &config, 4096).expect("fits");
    let report = Accelerator::new(&program).classify_trace(&trace);
    assert_eq!(report.results, trace.ground_truth(&rs));
    assert!(report.results.contains(&MatchResult::NoMatch));
    Pin {
        cycles: report.cycles,
        memory_accesses: report.memory_accesses,
        rules_examined: report
            .per_packet
            .iter()
            .map(|pc| u64::from(pc.rules_examined))
            .sum(),
        worst_accesses: report.observed_worst_accesses(),
        hash: fnv1a(&report),
    }
}

#[test]
fn simulated_counts_are_pinned() {
    use CutAlgorithm::{HiCuts, HyperCuts};
    use SeedStyle::{Acl, Fw, Ipc};
    use SpeedMode::{MemoryEfficient, Throughput};
    let pin = |cycles, memory_accesses, rules_examined, worst_accesses, hash| Pin {
        cycles,
        memory_accesses,
        rules_examined,
        worst_accesses,
        hash,
    };
    let golden = [
        (
            Acl,
            HiCuts,
            MemoryEfficient,
            pin(6138, 6138, 26481, 4, 0x81f069e1b637d12d),
        ),
        (
            Acl,
            HiCuts,
            Throughput,
            pin(5743, 5743, 26481, 3, 0x4450abc79a324916),
        ),
        (
            Acl,
            HyperCuts,
            MemoryEfficient,
            pin(5260, 4844, 14964, 3, 0x36df82712095e426),
        ),
        (
            Acl,
            HyperCuts,
            Throughput,
            pin(5001, 4585, 14964, 2, 0xa178981bde24219d),
        ),
        (
            Fw,
            HiCuts,
            MemoryEfficient,
            pin(10885, 10885, 29078, 4, 0x61670d8d5f3151f2),
        ),
        (
            Fw,
            HiCuts,
            Throughput,
            pin(10001, 10001, 29078, 3, 0x18712dd40f2623c2),
        ),
        (
            Fw,
            HyperCuts,
            MemoryEfficient,
            pin(6064, 6064, 36734, 3, 0xbd8603eb6a725117),
        ),
        (
            Fw,
            HyperCuts,
            Throughput,
            pin(5001, 5001, 36734, 2, 0x0c9c3cfc9e8dd144),
        ),
        (
            Ipc,
            HiCuts,
            MemoryEfficient,
            pin(9791, 9791, 44128, 4, 0x38634b6764359653),
        ),
        (
            Ipc,
            HiCuts,
            Throughput,
            pin(8799, 8799, 44128, 3, 0x2326e38be63476d3),
        ),
        (
            Ipc,
            HyperCuts,
            MemoryEfficient,
            pin(6020, 6020, 36929, 3, 0x433fcc5c458cc567),
        ),
        (
            Ipc,
            HyperCuts,
            Throughput,
            pin(5001, 5001, 36929, 2, 0xd2b30f75165cf0dc),
        ),
    ];
    for (style, algorithm, speed, want) in golden {
        assert_eq!(
            replay(style, algorithm, speed),
            want,
            "{style}/{algorithm:?}/{speed:?}"
        );
    }
}
