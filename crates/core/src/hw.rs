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
//!
//! ## Where the bits are decoded
//!
//! The device never decodes a word at run time: a fetched word drives the
//! comparators and the child-select logic by wiring.  The model keeps that
//! division of labour.  The 4800-bit image is decoded once, when the
//! [`HardwareProgram`] is built — configuration time, the device's own load
//! — into the program's private mirror, and [`Accelerator::classify_packet`]
//! walks that mirror and nothing else: which word a packet fetches next,
//! which of a word's 30 slots match and every count in [`PacketCycles`] are
//! exactly what reading the bit fields per packet gives (a differential
//! test in this module holds the two walks equal packet for packet), at a
//! host cost within a small factor of the software flat-arena walk over the
//! same tree instead of six to ten times it.

use crate::encode::ChildEntry;
use crate::program::HardwareProgram;
use crate::RULES_PER_WORD;
use pclass_types::{MatchResult, PacketHeader, Trace};

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
/// holds no state of its own — register A is word 0 of the program, read in
/// place — so many engines can share one program across threads.
#[derive(Debug, Clone)]
pub struct Accelerator<'p> {
    program: &'p HardwareProgram,
}

impl<'p> Accelerator<'p> {
    /// Creates an engine over a program (the equivalent of asserting the
    /// Reset pin: the root word is transferred to register A).
    pub fn new(program: &'p HardwareProgram) -> Accelerator<'p> {
        Accelerator { program }
    }

    /// The program this engine executes.
    pub fn program(&self) -> &HardwareProgram {
        self.program
    }

    /// Classifies a single packet and reports the cycles it used.
    pub fn classify_packet(&self, pkt: &PacketHeader) -> (MatchResult, PacketCycles) {
        let image = self.program.mirror();
        let msb8 = pkt.msb8(self.program.spec());

        // Steer the packet down the tree.  The root's child selection comes
        // out of register A (no memory access); every further internal node
        // is one word fetched on the next rising edge.
        let mut word = 0;
        let mut internal_fetches = 0;
        let first = loop {
            match image.child(word, &msb8) {
                ChildEntry::Null => {
                    let cycles = PacketCycles {
                        internal_fetches,
                        leaf_fetches: 0,
                        rules_examined: 0,
                    };
                    return (MatchResult::NoMatch, cycles);
                }
                ChildEntry::Internal { word: next } => {
                    internal_fetches += 1;
                    word = next;
                }
                ChildEntry::Leaf { word, pos } => break word * RULES_PER_WORD + pos,
            }
        };

        // The packet moves from register B to register C and its leaf is
        // searched from slot `first`: one cycle per leaf word, whose 30
        // comparators fire at once, so the lowest matching slot wins.  A
        // leaf that continues in the next word (speed = 0 packing or an
        // oversized leaf) is the next slot index; the image was checked at
        // load to end every leaf with a marker.
        let slots = image.slots();
        let mut last = first;
        let result = loop {
            let slot = slots[last]
                .as_ref()
                .expect("load decoded every leaf up to its marker");
            if slot.matches(pkt) {
                break MatchResult::Matched(slot.id);
            }
            if slot.end_of_leaf {
                break MatchResult::NoMatch;
            }
            last += 1;
        };
        let cycles = PacketCycles {
            internal_fetches,
            leaf_fetches: (last / RULES_PER_WORD - first / RULES_PER_WORD + 1) as u32,
            rules_examined: (last - first + 1) as u32,
        };
        (result, cycles)
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
/// engine in `pclass-engine`, the equivalence tests, the repository
/// benchmark).
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
    use crate::bits::zero_word;
    use crate::builder::{BuildConfig, CutAlgorithm, SpeedMode};
    use crate::encode::{
        read_child, read_header, read_rule, write_internal, write_rule, NodeHeader,
    };
    use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
    use pclass_types::{DimensionSpec, Rule, RuleBuilder, RuleSet};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The walk this module shipped while it still decoded the image per
    /// packet: every header, child entry and rule is re-read from the
    /// 4800-bit words.  Kept as the reference the mirror walk is held to.
    fn classify_bit_level(
        program: &HardwareProgram,
        pkt: &PacketHeader,
    ) -> (MatchResult, PacketCycles) {
        let msb8 = pkt.msb8(program.spec());
        let mut cycles = PacketCycles {
            internal_fetches: 0,
            leaf_fetches: 0,
            rules_examined: 0,
        };
        let mut node_word = program.root_word();
        let (mut word, mut pos) = loop {
            let index = read_header(node_word).child_index(&msb8) as usize;
            match read_child(node_word, index) {
                ChildEntry::Null => return (MatchResult::NoMatch, cycles),
                ChildEntry::Internal { word } => {
                    cycles.internal_fetches += 1;
                    node_word = program.word(word);
                }
                ChildEntry::Leaf { word, pos } => break (word, pos),
            }
        };
        loop {
            cycles.leaf_fetches += 1;
            let w = program.word(word);
            while pos < RULES_PER_WORD {
                let rule = read_rule(w, pos);
                cycles.rules_examined += 1;
                if rule.matches(pkt) {
                    return (MatchResult::Matched(rule.id), cycles);
                }
                if rule.end_of_leaf {
                    return (MatchResult::NoMatch, cycles);
                }
                pos += 1;
            }
            word += 1;
            pos = 0;
        }
    }

    fn assert_walks_agree<'a>(
        program: &HardwareProgram,
        packets: impl IntoIterator<Item = &'a PacketHeader>,
    ) {
        let engine = Accelerator::new(program);
        for pkt in packets {
            assert_eq!(
                engine.classify_packet(pkt),
                classify_bit_level(program, pkt),
                "on {pkt}"
            );
        }
    }

    /// The generator of `tests/property_based.rs`: a random but
    /// hardware-encodable ruleset (prefix IP fields of every length, range
    /// ports, exact-or-any protocol).
    fn random_ruleset(seed: u64, rules: usize) -> RuleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(rules);
        for id in 0..rules {
            let mut b = RuleBuilder::new(id as u32);
            if rng.gen_bool(0.8) {
                b = b.src_prefix(rng.gen(), rng.gen_range(0..=32));
            }
            if rng.gen_bool(0.8) {
                b = b.dst_prefix(rng.gen(), rng.gen_range(0..=32));
            }
            if rng.gen_bool(0.5) {
                let lo = rng.gen_range(0u16..60_000);
                b = b.src_port_range(lo, lo.saturating_add(rng.gen_range(0..5_000)));
            }
            if rng.gen_bool(0.7) {
                let lo = rng.gen_range(0u16..60_000);
                b = b.dst_port_range(lo, lo.saturating_add(rng.gen_range(0..5_000)));
            }
            if rng.gen_bool(0.7) {
                b = b.protocol(if rng.gen_bool(0.7) { 6 } else { 17 });
            }
            out.push(b.build());
        }
        RuleSet::new(format!("prop_{seed}"), DimensionSpec::FIVE_TUPLE, out).unwrap()
    }

    /// Its packet generator: rule corners and midpoints plus pure noise.
    fn random_packets(seed: u64, rs: &RuleSet, count: usize) -> Vec<PacketHeader> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5555);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            if rng.gen_bool(0.7) {
                let rule = &rs.rules()[rng.gen_range(0..rs.len())];
                let mut fields = [0u32; 5];
                for (f, r) in fields.iter_mut().zip(rule.ranges) {
                    *f = match rng.gen_range(0u8..3) {
                        0 => r.lo,
                        1 => r.hi,
                        _ => r.lo + ((r.len() / 2) as u32).min(r.hi - r.lo),
                    };
                }
                out.push(PacketHeader::from_fields(fields));
            } else {
                out.push(PacketHeader::five_tuple(
                    rng.gen(),
                    rng.gen(),
                    rng.gen(),
                    rng.gen(),
                    rng.gen(),
                ));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_mirror_walk_equals_the_bit_level_walk(
            seed in 0u64..10_000,
            rules in 1usize..100,
        ) {
            let rs = random_ruleset(seed, rules);
            let directed = random_packets(seed, &rs, 80);
            let background = TraceGenerator::new(&rs, seed)
                .random_fraction(1.0)
                .generate(80);
            for algorithm in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
                for speed in [SpeedMode::MemoryEfficient, SpeedMode::Throughput] {
                    let mut config = BuildConfig::paper_defaults(algorithm);
                    config.speed = speed;
                    let program =
                        HardwareProgram::build_with_capacity(&rs, &config, 4096).unwrap();
                    let engine = Accelerator::new(&program);
                    for pkt in directed.iter().chain(background.headers()) {
                        let got = engine.classify_packet(pkt);
                        prop_assert_eq!(
                            got,
                            classify_bit_level(&program, pkt),
                            "{:?}/{:?} on {}", algorithm, speed, pkt
                        );
                        prop_assert_eq!(
                            got.0,
                            rs.classify_linear(pkt),
                            "{:?}/{:?} on {}", algorithm, speed, pkt
                        );
                    }
                }
            }
        }
    }

    /// Rule `id` matches exactly the packets whose destination port is `id`.
    fn port_rules(ids: std::ops::Range<u16>) -> Vec<Rule> {
        ids.map(|id| RuleBuilder::new(u32::from(id)).dst_port(id).build())
            .collect()
    }

    fn to_port(src_ip: u32, dst_port: u16) -> PacketHeader {
        PacketHeader::five_tuple(src_ip, 0, 0, dst_port, 0)
    }

    /// A hand-assembled image: word 0 cuts the source address's top bit in
    /// two, and each `(word, pos, rules)` leaf is written where it says —
    /// packings the builders' generated leaves (at most `binth` rules)
    /// rarely or never produce.
    fn hand_built(
        children: [ChildEntry; 2],
        leaves: &[(usize, usize, &[Rule])],
        words: usize,
    ) -> HardwareProgram {
        let mut image = vec![zero_word(); words];
        let header = NodeHeader {
            masks: [0x80, 0, 0, 0, 0],
            shifts: [7, 0, 0, 0, 0],
        };
        write_internal(&mut image[0], &header, &children).unwrap();
        for &(word, pos, rules) in leaves {
            for (i, rule) in rules.iter().enumerate() {
                let at = word * RULES_PER_WORD + pos + i;
                let end = i + 1 == rules.len();
                write_rule(
                    &mut image[at / RULES_PER_WORD],
                    at % RULES_PER_WORD,
                    rule,
                    end,
                )
                .unwrap();
            }
        }
        one_rule_program().reimaged(image)
    }

    /// The smallest image the builders emit: one wildcard rule.
    fn one_rule_program() -> HardwareProgram {
        let rules = vec![RuleBuilder::new(0).build()];
        let rs = RuleSet::new("one", DimensionSpec::FIVE_TUPLE, rules).unwrap();
        HardwareProgram::build(&rs, &BuildConfig::paper_defaults(CutAlgorithm::HiCuts)).unwrap()
    }

    fn cycles(internal_fetches: u32, leaf_fetches: u32, rules_examined: u32) -> PacketCycles {
        PacketCycles {
            internal_fetches,
            leaf_fetches,
            rules_examined,
        }
    }

    #[test]
    fn leaf_from_slot_29_spills_across_two_more_words() {
        // 34 rules from slot 29 of word 1: one there, thirty in word 2,
        // three in word 3 (speed = 0 packing of an oversized leaf).  The
        // root's other child is null.
        let rules = port_rules(0..34);
        let program = hand_built(
            [ChildEntry::Leaf { word: 1, pos: 29 }, ChildEntry::Null],
            &[(1, 29, &rules)],
            4,
        );
        let engine = Accelerator::new(&program);
        for k in 0..34u16 {
            // Rule k sits in slot 59 + k of the image, the search starts
            // in word 1, and every word up to the match costs one fetch.
            let fetches = (59 + u32::from(k)) / 30;
            assert_eq!(
                engine.classify_packet(&to_port(0, k)),
                (
                    MatchResult::Matched(u32::from(k)),
                    cycles(0, fetches, u32::from(k) + 1)
                ),
                "rule {k}"
            );
        }
        assert_eq!(
            engine.classify_packet(&to_port(0, 999)),
            (MatchResult::NoMatch, cycles(0, 3, 34))
        );
        // The null child at the root: no match without a single fetch.
        assert_eq!(
            engine.classify_packet(&to_port(0x8000_0000, 5)),
            (MatchResult::NoMatch, cycles(0, 0, 0))
        );
        let packets: Vec<PacketHeader> = (0..40)
            .flat_map(|k| [to_port(0, k), to_port(0xFFFF_FFFF, k)])
            .collect();
        assert_walks_agree(&program, &packets);
    }

    #[test]
    fn leaf_ending_on_slot_29_does_not_touch_the_next_word() {
        let rules = port_rules(0..5);
        let program = hand_built(
            [
                ChildEntry::Leaf { word: 1, pos: 27 },
                ChildEntry::Leaf { word: 2, pos: 0 },
            ],
            &[(1, 27, &rules[..3]), (2, 0, &rules[3..])],
            3,
        );
        let engine = Accelerator::new(&program);
        assert_eq!(
            engine.classify_packet(&to_port(0, 2)),
            (MatchResult::Matched(2), cycles(0, 1, 3))
        );
        // Rule 4 lives in the other leaf: the miss stops at the marker in
        // slot 29 instead of running on into word 2.
        assert_eq!(
            engine.classify_packet(&to_port(0, 4)),
            (MatchResult::NoMatch, cycles(0, 1, 3))
        );
        assert_eq!(
            engine.classify_packet(&to_port(0x8000_0000, 4)),
            (MatchResult::Matched(4), cycles(0, 1, 2))
        );
        let packets: Vec<PacketHeader> = (0..8)
            .flat_map(|k| [to_port(0, k), to_port(0x8000_0000, k)])
            .collect();
        assert_walks_agree(&program, &packets);
    }

    #[test]
    fn one_rule_image_matches_everything_in_one_fetch() {
        let program = one_rule_program();
        let rs = RuleSet::new("one", DimensionSpec::FIVE_TUPLE, program.rules().to_vec()).unwrap();
        let packets = random_packets(7, &rs, 50);
        let engine = Accelerator::new(&program);
        for pkt in &packets {
            assert_eq!(
                engine.classify_packet(pkt),
                (MatchResult::Matched(0), cycles(0, 1, 1))
            );
        }
        assert_walks_agree(&program, &packets);
    }

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
