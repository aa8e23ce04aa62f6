//! Cycle-accurate software model of the hardware accelerator datapath
//! (Figures 4 and 5 of the paper).
//!
//! The model mirrors the RTL's externally visible behaviour:
//!
//! * **Register A** holds the root node (preloaded from word 0 at reset, one
//!   cycle charged once per configuration).
//! * **Register B** holds the packet currently being steered through the
//!   tree; **register C** holds the packet whose leaf is being searched.
//! * Every clock cycle the accelerator can fetch exactly one 4800-bit memory
//!   word: either the next internal node on the packet's path or the next
//!   word of a leaf.
//! * A fetched leaf word is compared against register C by 30 parallel
//!   comparator blocks in the same cycle; the lowest-position match wins
//!   (leaf rules are stored in priority order).
//! * While a leaf is being searched for packet *n*, the root-node child
//!   selection for packet *n + 1* happens combinationally out of register A,
//!   so the root never costs a memory cycle — this is the one-cycle overlap
//!   the paper describes, and it is why a ruleset whose worst case is 2
//!   cycles classifies one packet per cycle.
//!
//! Per-packet visible cycles therefore equal the number of memory words
//! fetched for that packet (internal nodes after the root + leaf words until
//! the match), with a minimum of one cycle per packet, which reproduces
//! Eqs. 5 and 7.

use crate::encode::{read_child, read_header, read_rule, ChildEntry};
use crate::program::HardwareProgram;
use crate::RULES_PER_WORD;
use pclass_types::{MatchResult, PacketHeader, Trace, FIELD_COUNT};

/// Per-packet measurement produced by the accelerator model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCycles {
    /// Internal-node words fetched (excluding the root, which lives in
    /// register A).
    pub internal_fetches: u32,
    /// Leaf words fetched.
    pub leaf_fetches: u32,
    /// Rules examined by the comparator array (for diagnostics; the hardware
    /// examines a whole word of 30 in parallel regardless).
    pub rules_examined: u32,
}

impl PacketCycles {
    /// Memory accesses used by this packet (Table 8 semantics counts the
    /// root traversal as well).
    pub fn memory_accesses(&self) -> u32 {
        1 + self.internal_fetches + self.leaf_fetches
    }

    /// Visible (pipelined) cycles: one per fetched word, minimum one.
    pub fn visible_cycles(&self) -> u32 {
        (self.internal_fetches + self.leaf_fetches).max(1)
    }
}

/// Result of replaying a trace through the accelerator.
#[derive(Debug, Clone)]
pub struct ClassificationReport {
    /// Classification decision per packet, in trace order.
    pub results: Vec<MatchResult>,
    /// Per-packet cycle measurements.
    pub per_packet: Vec<PacketCycles>,
    /// Total clock cycles, including the single root-load cycle at reset.
    pub cycles: u64,
    /// Total memory-word fetches performed.
    pub memory_accesses: u64,
}

impl ClassificationReport {
    /// Number of packets classified.
    pub fn packets(&self) -> usize {
        self.results.len()
    }

    /// Average visible cycles per packet.
    pub fn avg_cycles_per_packet(&self) -> f64 {
        if self.per_packet.is_empty() {
            return 0.0;
        }
        self.per_packet
            .iter()
            .map(|p| u64::from(p.visible_cycles()))
            .sum::<u64>() as f64
            / self.per_packet.len() as f64
    }

    /// Worst per-packet memory accesses observed in this trace.
    pub fn observed_worst_accesses(&self) -> u32 {
        self.per_packet
            .iter()
            .map(|p| p.memory_accesses())
            .max()
            .unwrap_or(0)
    }

    /// Packets classified per second at a given clock frequency.
    pub fn packets_per_second(&self, frequency_hz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.packets() as f64 * frequency_hz / self.cycles as f64
    }
}

/// The accelerator model.  It borrows the program (the memory image) and
/// keeps only the tiny register state of the real datapath, so many engines
/// can share one program across threads.
#[derive(Debug, Clone)]
pub struct Accelerator<'p> {
    program: &'p HardwareProgram,
    /// Register A: the decoded root header plus the root child entries are
    /// read directly from word 0 on demand; holding the reference mirrors
    /// the preload without copying 4800 bits around.
    root_loaded: bool,
}

impl<'p> Accelerator<'p> {
    /// Creates an engine over a program (the equivalent of asserting the
    /// Reset pin: the root word is transferred to register A).
    pub fn new(program: &'p HardwareProgram) -> Accelerator<'p> {
        Accelerator {
            program,
            root_loaded: true,
        }
    }

    /// The program this engine executes.
    pub fn program(&self) -> &HardwareProgram {
        self.program
    }

    /// Classifies a single packet and reports the cycles it used.
    pub fn classify_packet(&self, pkt: &PacketHeader) -> (MatchResult, PacketCycles) {
        debug_assert!(self.root_loaded);
        let spec = self.program.spec();
        let msb8: [u8; FIELD_COUNT] = pkt.msb8(spec);
        let mut cycles = PacketCycles {
            internal_fetches: 0,
            leaf_fetches: 0,
            rules_examined: 0,
        };

        // Root child selection out of register A (no memory access).
        let mut word_idx;
        let mut node_word = self.program.root_word();
        loop {
            let header = read_header(node_word);
            let index = header.child_index(&msb8) as usize;
            match read_child(node_word, index) {
                ChildEntry::Null => return (MatchResult::NoMatch, cycles),
                ChildEntry::Internal { word } => {
                    // Fetch the child node word on the next rising edge.
                    cycles.internal_fetches += 1;
                    word_idx = word;
                    node_word = self.program.word(word_idx);
                }
                ChildEntry::Leaf { word, pos } => {
                    // Packet moves from register B to register C; the leaf
                    // search starts at (word, pos).
                    return (self.search_leaf(pkt, word, pos, &mut cycles), cycles);
                }
            }
        }
    }

    /// Searches a leaf starting at rule slot `pos` of `word`, walking
    /// subsequent words until the end-of-leaf marker, and returns the
    /// highest-priority match.
    fn search_leaf(
        &self,
        pkt: &PacketHeader,
        mut word: usize,
        mut pos: usize,
        cycles: &mut PacketCycles,
    ) -> MatchResult {
        loop {
            // One cycle to fetch this leaf word; the 30 comparators evaluate
            // it combinationally.
            cycles.leaf_fetches += 1;
            let w = self.program.word(word);
            while pos < RULES_PER_WORD {
                let rule = read_rule(w, pos);
                cycles.rules_examined += 1;
                if rule.matches(pkt) {
                    return MatchResult::Matched(rule.id);
                }
                if rule.end_of_leaf {
                    return MatchResult::NoMatch;
                }
                pos += 1;
            }
            // Leaf continues in the next word (speed = 0 packing or an
            // oversized leaf).
            word += 1;
            pos = 0;
            if word >= self.program.word_count() {
                // Defensive: a well-formed program always terminates a leaf
                // with an end marker before running off the image.
                return MatchResult::NoMatch;
            }
        }
    }

    /// Replays a whole trace, reproducing the pipelined cycle accounting.
    pub fn classify_trace(&self, trace: &Trace) -> ClassificationReport {
        self.classify_trace_banked(trace, 1)
    }

    /// Replays a trace over a bank of `engines` engines (at least 1) sharing
    /// this program — the "multiple memory blocks in parallel" deployment of
    /// the paper's introduction.  Engine *i* replays shard *i* of
    /// [`Trace::shards`]; results and per-packet measurements stay in trace
    /// order.  The bank runs in lock-step off one clock, so `cycles` is the
    /// slowest engine's count, while `memory_accesses` sums over the engines
    /// because each has its own memory port.
    ///
    /// The replay is sequential — host threads add nothing to a cycle model.
    /// To *serve* the model on several cores, put an
    /// [`AcceleratorClassifier`] behind `pclass-engine`.
    pub fn classify_trace_banked(&self, trace: &Trace, engines: usize) -> ClassificationReport {
        let mut bank = ClassificationReport {
            results: Vec::with_capacity(trace.len()),
            per_packet: Vec::with_capacity(trace.len()),
            cycles: 0,
            memory_accesses: 0,
        };
        for (engine, shard) in trace.shards(engines).into_iter().enumerate() {
            // Engine 0 is reset even for an empty trace; further engines
            // with nothing to replay are never instantiated.
            if engine > 0 && shard.is_empty() {
                continue;
            }
            // One cycle at reset to move the root node from memory to
            // register A.
            let mut cycles: u64 = 1;
            let mut memory_accesses: u64 = 1;
            for entry in shard {
                let (result, pc) = self.classify_packet(&entry.header);
                cycles += u64::from(pc.visible_cycles());
                memory_accesses += u64::from(pc.internal_fetches + pc.leaf_fetches);
                bank.results.push(result);
                bank.per_packet.push(pc);
            }
            bank.cycles = bank.cycles.max(cycles);
            bank.memory_accesses += memory_accesses;
        }
        bank
    }
}

/// The accelerator wrapped as a software [`Classifier`](pclass_algos::Classifier),
/// so the hardware
/// model plugs into every generic harness in the workspace (the serving
/// engine in `pclass-engine`, the throughput benchmark, the equivalence
/// tests).
///
/// Unlike [`Accelerator`], which borrows a program, this adapter *owns* its
/// [`HardwareProgram`] — the trait's `&self` methods leave no room for an
/// external lifetime, and ownership is what lets a serving layer hold the
/// classifier behind `Arc<dyn Classifier>` across worker threads.
#[derive(Debug, Clone)]
pub struct AcceleratorClassifier {
    program: HardwareProgram,
}

impl AcceleratorClassifier {
    /// Wraps an already-built program.
    pub fn new(program: HardwareProgram) -> AcceleratorClassifier {
        AcceleratorClassifier { program }
    }

    /// Builds the program for a ruleset and wraps it.
    pub fn build(
        ruleset: &pclass_types::RuleSet,
        config: &crate::builder::BuildConfig,
    ) -> Result<AcceleratorClassifier, crate::builder::BuildError> {
        HardwareProgram::build(ruleset, config).map(AcceleratorClassifier::new)
    }

    /// The wrapped program.
    pub fn program(&self) -> &HardwareProgram {
        &self.program
    }

    /// Unwraps the program again.
    pub fn into_program(self) -> HardwareProgram {
        self.program
    }
}

impl pclass_algos::Classifier for AcceleratorClassifier {
    fn name(&self) -> &'static str {
        match self.program.config().algorithm {
            crate::builder::CutAlgorithm::HiCuts => "hw-hicuts",
            crate::builder::CutAlgorithm::HyperCuts => "hw-hypercuts",
        }
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        Accelerator::new(&self.program).classify_packet(pkt).0
    }

    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        // One engine for the whole batch (one root preload instead of one
        // per packet).
        let engine = Accelerator::new(&self.program);
        out.reserve(pkts.len());
        for pkt in pkts {
            out.push(engine.classify_packet(pkt).0);
        }
    }

    fn classify_with_stats(
        &self,
        pkt: &PacketHeader,
        stats: &mut pclass_algos::LookupStats,
    ) -> MatchResult {
        let (result, pc) = Accelerator::new(&self.program).classify_packet(pkt);
        // Each fetched 4800-bit word is one memory access; the comparator
        // array examines a whole word per cycle, modelled as one load plus
        // the per-rule compare work in the ALU column.
        stats.memory_accesses += u64::from(pc.memory_accesses());
        stats.nodes_visited += u64::from(pc.internal_fetches);
        stats.rules_compared += u64::from(pc.rules_examined);
        stats.ops.loads += u64::from(pc.memory_accesses());
        stats.ops.alu += u64::from(pc.rules_examined);
        result
    }

    fn memory_bytes(&self) -> usize {
        self.program.memory_bytes()
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        Some(u64::from(self.program.worst_case_cycles()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildConfig, CutAlgorithm, SpeedMode};
    use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
    use pclass_types::RuleSet;

    fn setup(
        style: SeedStyle,
        rules: usize,
        packets: usize,
        algo: CutAlgorithm,
    ) -> (RuleSet, Trace, HardwareProgram) {
        let rs = ClassBenchGenerator::new(style, 21).generate(rules);
        let trace = TraceGenerator::new(&rs, 22).generate(packets);
        // The full 12-bit address space is used so the wildcard-heavy FW
        // style fits; ACL-style sets comfortably fit the paper's 1024 words.
        let program =
            HardwareProgram::build_with_capacity(&rs, &BuildConfig::paper_defaults(algo), 4096)
                .unwrap();
        (rs, trace, program)
    }

    #[test]
    fn classifier_adapter_matches_raw_accelerator() {
        use pclass_algos::Classifier as _;
        let (rs, trace, program) = setup(SeedStyle::Acl, 300, 800, CutAlgorithm::HyperCuts);
        let raw = Accelerator::new(&program).classify_trace(&trace);
        let adapter = AcceleratorClassifier::new(program.clone());
        assert_eq!(adapter.name(), "hw-hypercuts");
        assert_eq!(adapter.memory_bytes(), program.memory_bytes());
        assert_eq!(
            adapter.worst_case_memory_accesses(),
            Some(u64::from(program.worst_case_cycles()))
        );
        let headers: Vec<PacketHeader> = trace.headers().copied().collect();
        let mut batched = Vec::new();
        adapter.classify_batch(&headers, &mut batched);
        assert_eq!(batched, raw.results);
        let mut stats = pclass_algos::LookupStats::new();
        let first = adapter.classify_with_stats(&headers[0], &mut stats);
        assert_eq!(first, raw.results[0]);
        assert!(stats.memory_accesses >= 1);
        let _ = rs;
    }

    #[test]
    fn accelerator_agrees_with_linear_search() {
        for algo in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            for style in SeedStyle::ALL {
                let (rs, trace, program) = setup(style, 400, 1500, algo);
                let engine = Accelerator::new(&program);
                let report = engine.classify_trace(&trace);
                for (entry, result) in trace.entries().iter().zip(report.results.iter()) {
                    assert_eq!(
                        *result,
                        rs.classify_linear(&entry.header),
                        "{algo:?}/{style} disagreed on {}",
                        entry.header
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_counts_respect_the_static_worst_case() {
        let (_, trace, program) = setup(SeedStyle::Acl, 1000, 3000, CutAlgorithm::HyperCuts);
        let engine = Accelerator::new(&program);
        let report = engine.classify_trace(&trace);
        let worst = program.worst_case_cycles();
        assert!(
            report.observed_worst_accesses() <= worst,
            "observed {} accesses exceeds static worst case {}",
            report.observed_worst_accesses(),
            worst
        );
        // Pipelined throughput: visible cycles per packet is at most the
        // worst case minus the hidden root cycle.
        for pc in &report.per_packet {
            assert!(pc.visible_cycles() <= worst.saturating_sub(1).max(1));
            assert!(pc.visible_cycles() >= 1);
        }
    }

    #[test]
    fn total_cycles_account_for_reset_and_packets() {
        let (_, trace, program) = setup(SeedStyle::Acl, 100, 500, CutAlgorithm::HiCuts);
        let engine = Accelerator::new(&program);
        let report = engine.classify_trace(&trace);
        assert_eq!(report.packets(), 500);
        let sum: u64 = report
            .per_packet
            .iter()
            .map(|p| u64::from(p.visible_cycles()))
            .sum();
        assert_eq!(report.cycles, sum + 1);
        assert!(report.avg_cycles_per_packet() >= 1.0);
        assert!(report.packets_per_second(226e6) > 0.0);
    }

    #[test]
    fn small_ruleset_classifies_one_packet_per_cycle() {
        // With a shallow tree (root + single-word leaves) the worst case is
        // 2 cycles and the pipelined engine sustains 1 packet per cycle —
        // the 226 Mpps / 77 Mpps headline rows of Table 7.
        let (_, trace, program) = setup(SeedStyle::Acl, 60, 2000, CutAlgorithm::HiCuts);
        assert_eq!(
            program.worst_case_cycles(),
            2,
            "60-rule ACL tree should be root + leaves"
        );
        let engine = Accelerator::new(&program);
        let report = engine.classify_trace(&trace);
        assert!((report.avg_cycles_per_packet() - 1.0).abs() < 1e-9);
        let pps = report.packets_per_second(226e6);
        assert!(pps > 225e6, "expected ~226 Mpps, got {pps}");
    }

    #[test]
    fn speed_zero_never_misclassifies() {
        let rs = ClassBenchGenerator::new(SeedStyle::Fw, 33).generate(600);
        let trace = TraceGenerator::new(&rs, 34).generate(1500);
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
        cfg.speed = SpeedMode::MemoryEfficient;
        // FW-style sets need more memory than the 1024-word FPGA part (the
        // paper makes the same observation for the larger fw1 sets), so this
        // test uses the full 12-bit address space.
        let program = HardwareProgram::build_with_capacity(&rs, &cfg, 4096).unwrap();
        let engine = Accelerator::new(&program);
        let report = engine.classify_trace(&trace);
        for (entry, result) in trace.entries().iter().zip(report.results.iter()) {
            assert_eq!(*result, rs.classify_linear(&entry.header));
        }
    }

    #[test]
    fn unmatched_packets_are_reported_as_no_match() {
        let rs = ClassBenchGenerator::new(SeedStyle::Acl, 11).generate(50);
        let program =
            HardwareProgram::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts))
                .unwrap();
        let engine = Accelerator::new(&program);
        // Pure background traffic: many packets match nothing.
        let trace = TraceGenerator::new(&rs, 12)
            .random_fraction(1.0)
            .generate(1000);
        let report = engine.classify_trace(&trace);
        let mut seen_no_match = false;
        for (entry, result) in trace.entries().iter().zip(report.results.iter()) {
            assert_eq!(*result, rs.classify_linear(&entry.header));
            if *result == MatchResult::NoMatch {
                seen_no_match = true;
            }
        }
        assert!(
            seen_no_match,
            "expected at least one unmatched background packet"
        );
    }

    #[test]
    fn per_packet_accessors_are_consistent() {
        let pc = PacketCycles {
            internal_fetches: 2,
            leaf_fetches: 1,
            rules_examined: 12,
        };
        assert_eq!(pc.memory_accesses(), 4);
        assert_eq!(pc.visible_cycles(), 3);
        let pc = PacketCycles {
            internal_fetches: 0,
            leaf_fetches: 0,
            rules_examined: 0,
        };
        assert_eq!(pc.visible_cycles(), 1);
    }

    #[test]
    fn banked_results_match_single_engine() {
        let (_, trace, program) = setup(SeedStyle::Ipc, 400, 2000, CutAlgorithm::HyperCuts);
        let engine = Accelerator::new(&program);
        let single = engine.classify_trace(&trace);
        for engines in [1u64, 2, 4, 7] {
            let report = engine.classify_trace_banked(&trace, engines as usize);
            assert_eq!(report.results, single.results, "engines = {engines}");
            assert_eq!(report.per_packet, single.per_packet, "engines = {engines}");
            // Each further engine's port pays its own root preload.
            assert_eq!(report.memory_accesses, single.memory_accesses + engines - 1);
        }
    }

    #[test]
    fn banked_cycles_scale_down_with_engines() {
        let (_, trace, program) = setup(SeedStyle::Acl, 800, 4000, CutAlgorithm::HiCuts);
        let engine = Accelerator::new(&program);
        let one = engine.classify_trace_banked(&trace, 1).cycles;
        let four = engine.classify_trace_banked(&trace, 4).cycles;
        // Four engines finish in roughly a quarter of the cycles (chunks are
        // equal-sized and per-packet work is similar).
        assert!(
            four * 3 < one * 2,
            "expected a large speedup: {four} vs {one}"
        );
    }

    #[test]
    fn zero_engines_is_clamped_and_empty_trace_handled() {
        let (_, trace, program) = setup(SeedStyle::Acl, 50, 3, CutAlgorithm::HiCuts);
        let engine = Accelerator::new(&program);
        let one = engine.classify_trace(&trace).cycles;
        assert_eq!(engine.classify_trace_banked(&trace, 0).cycles, one);
        // More engines than packets: the idle ones cost nothing.
        assert_eq!(engine.classify_trace_banked(&trace, 7).packets(), 3);
        let empty = Trace::from_headers("empty", vec![]);
        let report = engine.classify_trace_banked(&empty, 4);
        assert_eq!((report.packets(), report.cycles), (0, 1));
    }
}
