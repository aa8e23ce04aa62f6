//! Pins of what the cut-tree builders produce, for software and hardware
//! alike.  Taken from the pointer-tree builder and held unedited since, so
//! a change to how a tree is built, stored or serialised that moves any
//! product output fails here first:
//!
//! * every accelerator memory image that `reproduce -- all --quick`,
//!   `tests/accelerator_golden.rs` and `tests/image_vs_tree.rs` build — its
//!   word count and an FNV-1a hash over every word;
//! * `HardwareProgram::plan_layout`'s [`ProgramStats`] on the Table 4 sets
//!   that `reproduce -- table4 --quick` plans, its largest row (fw 5,000
//!   under HyperCuts) in a test of its own;
//! * for software HiCuts and HyperCuts on the Table 1 toy set and on
//!   ClassBench acl/fw/ipc 300: an FNV-1a hash over the per-packet
//!   (decision, [`LookupStats`]) pairs of a fixed trace, `model_bytes()`,
//!   the tree statistics, `worst_case_memory_accesses()` and
//!   `build_stats()`; and the Figure 1 and Figure 3 dumps.

use pclass_algos::counters::LookupStats;
use pclass_algos::dtree::{CutTreeClassifier, RosterPolicy};
use pclass_algos::hicuts::{HiCutsClassifier, HiCutsConfig};
use pclass_algos::hypercuts::{HyperCutsClassifier, HyperCutsConfig};
use pclass_algos::Classifier;
use pclass_bench::{acl_ruleset, plan_hardware, styled_ruleset};
use pclass_classbench::{table4_sizes, SeedStyle, TraceGenerator, PAPER_ACL_SIZES};
use pclass_core::builder::{BuildConfig, CutAlgorithm, SpeedMode};
use pclass_core::program::{HardwareProgram, ProgramStats};
use pclass_types::{toy, MatchResult, PacketHeader, RuleSet};

/// FNV-1a over a stream of 64-bit values, little-endian bytes.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for value in values {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `(words, FNV-1a over every limb of every word)` of an image, or the
/// build error's text.
type ImagePin = Result<(usize, u64), String>;

/// The [`ImagePin`] of the image built for `rs` at capacity 4,096.
fn image(rs: &RuleSet, algorithm: CutAlgorithm, speed: SpeedMode) -> ImagePin {
    let mut config = BuildConfig::paper_defaults(algorithm);
    config.speed = speed;
    let program =
        HardwareProgram::build_with_capacity(rs, &config, 4096).map_err(|e| e.to_string())?;
    let limbs = (0..program.word_count()).flat_map(|w| program.word(w).iter().copied());
    Ok((program.word_count(), fnv1a(limbs)))
}

#[test]
fn hardware_images_are_pinned() {
    use CutAlgorithm::{HiCuts, HyperCuts};
    use SpeedMode::{MemoryEfficient, Throughput};
    let both = [MemoryEfficient, Throughput];
    // (label, ruleset, algorithm, speeds) of every distinct image.
    let mut builds: Vec<(String, RuleSet, CutAlgorithm, &[SpeedMode])> = Vec::new();
    for style in SeedStyle::ALL {
        // tests/accelerator_golden.rs
        for algorithm in [HiCuts, HyperCuts] {
            builds.push((
                format!("{style}_300"),
                styled_ruleset(style, 300),
                algorithm,
                &both,
            ));
        }
    }
    for (style, size) in [
        (SeedStyle::Acl, 2_000),
        (SeedStyle::Fw, 600),
        (SeedStyle::Ipc, 1_000),
    ] {
        // tests/image_vs_tree.rs
        for algorithm in [HiCuts, HyperCuts] {
            builds.push((
                format!("{style}_{size}"),
                styled_ruleset(style, size),
                algorithm,
                &both,
            ));
        }
    }
    // reproduce: tables 6 and 7, the speed-ups and the serving roster
    // (speed 1), and the speed trade-off (HyperCuts at both speeds on acl1
    // 500, 1,000, 2,191 and 5,000).
    for size in PAPER_ACL_SIZES {
        builds.push((
            format!("acl1_{size}"),
            acl_ruleset(size),
            HiCuts,
            &[Throughput],
        ));
        builds.push((format!("acl1_{size}"), acl_ruleset(size), HyperCuts, &both));
    }
    builds.push(("acl1_5000".into(), acl_ruleset(5_000), HyperCuts, &both));
    let mut got = Vec::new();
    for (label, rs, algorithm, speeds) in &builds {
        for &speed in *speeds {
            let name = format!("{label} {algorithm:?} speed={}", speed.as_u8());
            got.push((name, image(rs, *algorithm, speed)));
        }
    }
    let want: Vec<(String, ImagePin)> = [
        ("acl1_300 HiCuts speed=0", 21, 0x50e34f4b2afcdf9b),
        ("acl1_300 HiCuts speed=1", 23, 0xdbbf8def654ce146),
        ("acl1_300 HyperCuts speed=0", 21, 0x773aa4be10e2046c),
        ("acl1_300 HyperCuts speed=1", 23, 0x8e9a49ce6f8eb955),
        ("fw1_300 HiCuts speed=0", 186, 0xcd1486e9eefb57f1),
        ("fw1_300 HiCuts speed=1", 222, 0xf1cdea7706976565),
        ("fw1_300 HyperCuts speed=0", 90, 0x9deee961ad3e909c),
        ("fw1_300 HyperCuts speed=1", 113, 0x974c2e4aff3d9ccc),
        ("ipc1_300 HiCuts speed=0", 97, 0x00e4a97a3c4b13c1),
        ("ipc1_300 HiCuts speed=1", 114, 0x03e63b0413288dcc),
        ("ipc1_300 HyperCuts speed=0", 64, 0xa950da480e308b29),
        ("ipc1_300 HyperCuts speed=1", 85, 0x0de00346875498e3),
        ("acl1_2000 HiCuts speed=0", 463, 0x400b7c9c21f2d483),
        ("acl1_2000 HiCuts speed=1", 503, 0xc2c7307d8646ad0e),
        ("acl1_2000 HyperCuts speed=0", 228, 0x12dd7638383d7a12),
        ("acl1_2000 HyperCuts speed=1", 277, 0x8fe80f82b7ec0310),
        ("fw1_600 HiCuts speed=0", 464, 0x68279f9a12bbdf51),
        ("fw1_600 HiCuts speed=1", 609, 0x3052b953696acc21),
        ("fw1_600 HyperCuts speed=0", 460, 0x069e8325005db247),
        ("fw1_600 HyperCuts speed=1", 601, 0x90d00bddc30a294d),
        ("ipc1_1000 HiCuts speed=0", 993, 0x988ee0b99d35bf97),
        ("ipc1_1000 HiCuts speed=1", 1367, 0x30751cafc0463539),
        ("ipc1_1000 HyperCuts speed=0", 765, 0x852e4e4c93a79866),
        ("ipc1_1000 HyperCuts speed=1", 940, 0x8e98ff8b6a4d69f5),
        ("acl1_60 HiCuts speed=1", 3, 0xab56c1c166863eaf),
        ("acl1_60 HyperCuts speed=0", 5, 0xb0ee10db13e0a401),
        ("acl1_60 HyperCuts speed=1", 5, 0xb1f51d5fd3673c20),
        ("acl1_150 HiCuts speed=1", 9, 0x5e0c07eef726dfba),
        ("acl1_150 HyperCuts speed=0", 11, 0x558f1da6412b5dcb),
        ("acl1_150 HyperCuts speed=1", 12, 0xb3c69b53748300c1),
        ("acl1_500 HiCuts speed=1", 47, 0x40b3327318cd6277),
        ("acl1_500 HyperCuts speed=0", 31, 0x9f56fbab7a514d4d),
        ("acl1_500 HyperCuts speed=1", 34, 0x9ac3624ad9e7d022),
        ("acl1_1000 HiCuts speed=1", 155, 0xce038e590dc75ceb),
        ("acl1_1000 HyperCuts speed=0", 76, 0x72b4072291a3a026),
        ("acl1_1000 HyperCuts speed=1", 92, 0xb2d9fa83507490bc),
        ("acl1_1600 HiCuts speed=1", 367, 0xf709c81f4bf5a9f2),
        ("acl1_1600 HyperCuts speed=0", 119, 0x9e6e4e0581e12bd8),
        ("acl1_1600 HyperCuts speed=1", 161, 0xd035806dfbe90a9c),
        ("acl1_2191 HiCuts speed=1", 546, 0x24b51ca7f3d196ea),
        ("acl1_2191 HyperCuts speed=0", 303, 0x33f49823658ca55f),
        ("acl1_2191 HyperCuts speed=1", 356, 0x58240d2d36cb0d91),
        ("acl1_5000 HyperCuts speed=0", 2014, 0x7f904237af1fd55b),
        ("acl1_5000 HyperCuts speed=1", 2261, 0x9c44b35c68ccad63),
    ]
    .into_iter()
    .map(|(name, words, hash)| (name.to_string(), Ok((words, hash))))
    .collect();
    assert_eq!(got, want);
}

/// Every `(style, size)` that `reproduce -- table4 --quick` plans.
fn table4_quick_sets() -> Vec<(SeedStyle, usize)> {
    SeedStyle::ALL
        .into_iter()
        .flat_map(|style| {
            table4_sizes(style)
                .into_iter()
                .filter(|&size| size <= 5_000)
                .map(move |size| (style, size))
        })
        .collect()
}

/// The Table 4 row that plans by far the largest tree, pinned by a test of
/// its own so that it and the other rows run on separate test threads.
const LARGEST_TABLE4_ROW: (SeedStyle, usize, CutAlgorithm) =
    (SeedStyle::Fw, 5_000, CutAlgorithm::HyperCuts);

/// The labelled layout `reproduce -- table4` plans for one row.
fn table4_layout(
    style: SeedStyle,
    size: usize,
    algorithm: CutAlgorithm,
) -> (String, Option<ProgramStats>) {
    let rs = styled_ruleset(style, size);
    let layout = plan_hardware(&rs, algorithm).map(|(stats, _)| stats);
    (format!("{style}_{size} {algorithm:?}"), layout)
}

/// Pinned Table 4 rows: internal, leaf and total words, bytes, stored
/// rules, worst-case cycles and tree depth.
fn table4_want(rows: &[(&str, [usize; 7])]) -> Vec<(String, Option<ProgramStats>)> {
    rows.iter()
        .map(
            |&(name, [internal, leaf, total, bytes, stored, cycles, depth])| {
                let stats = ProgramStats {
                    internal_words: internal,
                    leaf_words: leaf,
                    total_words: total,
                    memory_bytes: bytes,
                    stored_rules: stored,
                    worst_case_cycles: cycles as u32,
                    tree_depth: depth as u32,
                };
                (name.to_string(), Some(stats))
            },
        )
        .collect()
}

#[test]
fn table4_layouts_are_pinned() {
    let mut got = Vec::new();
    for (style, size) in table4_quick_sets() {
        for algorithm in [CutAlgorithm::HiCuts, CutAlgorithm::HyperCuts] {
            if (style, size, algorithm) != LARGEST_TABLE4_ROW {
                got.push(table4_layout(style, size, algorithm));
            }
        }
    }
    let want = table4_want(&[
        ("acl1_300 HiCuts", [3, 20, 23, 13800, 514, 3, 2]),
        ("acl1_300 HyperCuts", [1, 22, 23, 13800, 598, 2, 1]),
        ("acl1_1200 HiCuts", [26, 198, 224, 134400, 4957, 3, 2]),
        ("acl1_1200 HyperCuts", [75, 416, 491, 294600, 11035, 3, 2]),
        ("acl1_2500 HiCuts", [113, 533, 646, 387600, 14320, 3, 2]),
        ("acl1_2500 HyperCuts", [50, 440, 490, 294000, 10997, 3, 2]),
        ("acl1_5000 HiCuts", [122, 1272, 1394, 836400, 31987, 3, 2]),
        (
            "acl1_5000 HyperCuts",
            [202, 2059, 2261, 1356600, 54352, 3, 2],
        ),
        ("fw1_300 HiCuts", [25, 197, 222, 133200, 4810, 3, 2]),
        ("fw1_300 HyperCuts", [1, 112, 113, 67800, 2646, 2, 1]),
        (
            "fw1_1200 HiCuts",
            [2276, 9886, 12162, 7297200, 221753, 7, 6],
        ),
        (
            "fw1_1200 HyperCuts",
            [1924, 20227, 22151, 13290600, 438963, 5, 4],
        ),
        (
            "fw1_2500 HiCuts",
            [13991, 49570, 63561, 38136600, 1210536, 9, 8],
        ),
        (
            "fw1_2500 HyperCuts",
            [25475, 232204, 257679, 154607400, 5470355, 6, 5],
        ),
        (
            "fw1_5000 HiCuts",
            [201383, 798289, 999672, 599803200, 19223208, 10, 9],
        ),
        ("ipc1_300 HiCuts", [16, 98, 114, 68400, 2422, 3, 2]),
        ("ipc1_300 HyperCuts", [1, 84, 85, 51000, 1871, 2, 1]),
        ("ipc1_1200 HiCuts", [146, 1022, 1168, 700800, 22541, 6, 5]),
        (
            "ipc1_1200 HyperCuts",
            [198, 1333, 1531, 918600, 30477, 6, 4],
        ),
        ("ipc1_2500 HiCuts", [1661, 4218, 5879, 3527400, 95503, 7, 6]),
        (
            "ipc1_2500 HyperCuts",
            [1518, 14821, 16339, 9803400, 339480, 6, 5],
        ),
        (
            "ipc1_5000 HiCuts",
            [11615, 27653, 39268, 23560800, 685875, 9, 8],
        ),
        (
            "ipc1_5000 HyperCuts",
            [22580, 126847, 149427, 89656200, 2953002, 7, 5],
        ),
    ]);
    assert_eq!(got, want);
}

#[test]
fn table4_fw1_5000_hypercuts_layout_is_pinned() {
    let (style, size, algorithm) = LARGEST_TABLE4_ROW;
    assert!(table4_quick_sets().contains(&(style, size)));
    let want = table4_want(&[(
        "fw1_5000 HyperCuts",
        [713472, 4034474, 4747946, 2848767600, 95447190, 8, 6],
    )]);
    assert_eq!(vec![table4_layout(style, size, algorithm)], want);
}

/// What one software tree is pinned to, in this order: `model_bytes`,
/// `worst_case_memory_accesses`; the tree's internal nodes, leaves, stored
/// rule references, max depth, max leaf rules and worst-case accesses; the
/// build's loads, stores, ALU ops, branches, multiplies, divides, internal
/// nodes, leaves, stored rule references, max depth and cut evaluations;
/// and the FNV-1a hash over every packet's decision and [`LookupStats`].
type SoftwarePin = [u64; 20];

fn software_pin<C: RosterPolicy>(
    c: &CutTreeClassifier<C>,
    headers: &[PacketHeader],
) -> SoftwarePin {
    let mut per_packet = Vec::new();
    for pkt in headers {
        let mut stats = LookupStats::new();
        let decision = match c.classify_with_stats(pkt, &mut stats) {
            MatchResult::Matched(id) => u64::from(id),
            MatchResult::NoMatch => u64::MAX,
        };
        let ops = stats.ops;
        per_packet.extend([
            decision,
            stats.memory_accesses,
            stats.rules_compared,
            stats.nodes_visited,
            ops.loads,
            ops.stores,
            ops.alu,
            ops.branches,
            ops.muls,
            ops.divs,
        ]);
    }
    let tree = c.stats();
    let build = c.build_stats();
    [
        c.model_bytes() as u64,
        c.worst_case_memory_accesses().expect("a tree has a bound"),
        tree.internal_nodes as u64,
        tree.leaf_nodes as u64,
        tree.stored_rule_refs as u64,
        u64::from(tree.max_depth),
        tree.max_leaf_rules as u64,
        tree.worst_case_accesses,
        build.ops.loads,
        build.ops.stores,
        build.ops.alu,
        build.ops.branches,
        build.ops.muls,
        build.ops.divs,
        build.internal_nodes,
        build.leaf_nodes,
        build.stored_rule_refs,
        u64::from(build.max_depth),
        build.cut_evaluations,
        fnv1a(per_packet),
    ]
}

/// A grid over the toy space's 8-bit fields.
fn toy_headers() -> Vec<PacketHeader> {
    let mut headers = Vec::new();
    for f0 in (0..=255u32).step_by(3) {
        for f4 in (0..=255u32).step_by(5) {
            for (f1, f2, f3) in [(15, 40, 180), (80, 0, 255), (100, 200, 195), (60, 60, 0)] {
                headers.push(PacketHeader::from_fields([f0, f1, f2, f3, f4]));
            }
        }
    }
    headers
}

#[test]
fn software_trees_are_pinned() {
    let toy = toy::table1_ruleset();
    let toy_headers = toy_headers();
    let mut with_heuristics = HyperCutsConfig::paper_defaults();
    with_heuristics.binth = 3;
    let mut got: Vec<(String, SoftwarePin)> = vec![
        (
            "toy hicuts figure1".into(),
            software_pin(
                &HiCutsClassifier::build(&toy, &HiCutsConfig::figure1()),
                &toy_headers,
            ),
        ),
        (
            "toy hypercuts figure3".into(),
            software_pin(
                &HyperCutsClassifier::build(&toy, &HyperCutsConfig::figure3()),
                &toy_headers,
            ),
        ),
        (
            "toy hypercuts binth 3".into(),
            software_pin(
                &HyperCutsClassifier::build(&toy, &with_heuristics),
                &toy_headers,
            ),
        ),
    ];
    for style in SeedStyle::ALL {
        let rs = styled_ruleset(style, 300);
        let trace = TraceGenerator::new(&rs, 0xB11D)
            .random_fraction(0.25)
            .generate(2_000);
        let headers: Vec<PacketHeader> = trace.headers().copied().collect();
        let hicuts = HiCutsClassifier::build(&rs, &HiCutsConfig::paper_defaults());
        let hypercuts = HyperCutsClassifier::build(&rs, &HyperCutsConfig::paper_defaults());
        got.push((
            format!("{style}_300 hicuts"),
            software_pin(&hicuts, &headers),
        ));
        got.push((
            format!("{style}_300 hypercuts"),
            software_pin(&hypercuts, &headers),
        ));
    }
    let want: Vec<(String, SoftwarePin)> = [
        (
            "toy hicuts figure1",
            [
                332,
                6,
                2,
                5,
                14,
                2,
                3,
                6,
                670,
                51,
                1680,
                390,
                0,
                340,
                2,
                5,
                14,
                2,
                170,
                0xe87ff35a3d4cc346,
            ],
        ),
        (
            "toy hypercuts figure3",
            [
                288,
                5,
                1,
                4,
                11,
                1,
                3,
                5,
                552,
                36,
                1254,
                180,
                0,
                200,
                1,
                4,
                11,
                1,
                70,
                0xbdf9a0d9ef87c882,
            ],
        ),
        (
            "toy hypercuts binth 3",
            [
                360,
                7,
                3,
                6,
                13,
                2,
                3,
                7,
                1170,
                67,
                2754,
                368,
                0,
                484,
                3,
                6,
                13,
                2,
                156,
                0x935a60ef853fc4be,
            ],
        ),
        (
            "acl1_300 hicuts",
            [
                9508,
                17,
                6,
                102,
                527,
                2,
                15,
                17,
                237640,
                1740,
                498510,
                65454,
                0,
                23230,
                6,
                102,
                527,
                2,
                11615,
                0x5f635bced1e255d1,
            ],
        ),
        (
            "acl1_300 hypercuts",
            [
                10320,
                18,
                14,
                135,
                694,
                2,
                16,
                18,
                143318,
                2080,
                304819,
                35128,
                0,
                20732,
                14,
                135,
                694,
                2,
                6537,
                0x11eec9aa0fff8496,
            ],
        ),
        (
            "fw1_300 hicuts",
            [
                31760,
                23,
                107,
                415,
                4204,
                6,
                16,
                23,
                290568,
                13603,
                686654,
                139374,
                0,
                105518,
                107,
                415,
                4204,
                6,
                52759,
                0x89e4e2fa534afe7c,
            ],
        ),
        (
            "fw1_300 hypercuts",
            [
                17272,
                25,
                32,
                305,
                1810,
                2,
                16,
                25,
                195368,
                6136,
                431450,
                50918,
                0,
                42520,
                32,
                305,
                1810,
                2,
                11987,
                0x085b5d39c53394b4,
            ],
        ),
        (
            "ipc1_300 hicuts",
            [
                24524,
                22,
                55,
                412,
                3001,
                5,
                16,
                22,
                240148,
                9435,
                555120,
                105568,
                0,
                74824,
                55,
                412,
                3001,
                5,
                37412,
                0x53576ae64b229d83,
            ],
        ),
        (
            "ipc1_300 hypercuts",
            [
                13248,
                30,
                21,
                191,
                1206,
                2,
                18,
                30,
                167872,
                4124,
                361051,
                42396,
                0,
                28828,
                21,
                191,
                1206,
                2,
                8988,
                0x27c3f4c8bf1b71c7,
            ],
        ),
    ]
    .into_iter()
    .map(|(name, pin)| (name.to_string(), pin))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn figure_dumps_are_pinned() {
    let toy = toy::table1_ruleset();
    let figure1 = HiCutsClassifier::build(&toy, &HiCutsConfig::figure1()).dump();
    let figure3 = HyperCutsClassifier::build(&toy, &HyperCutsConfig::figure3()).dump();
    assert_eq!(
        figure1,
        "node cut[src_ip x4]\n  leaf [R7 R8 R9]\n  leaf [R1 R3]\n  node cut[protocol x2]\n    \
         leaf [R0 R4 R6]\n    leaf [R0 R2 R5]\n  leaf [R0 R2 R4]\n"
    );
    assert_eq!(
        figure3,
        "node cut[src_ip x2, protocol x2]\n  leaf [R7 R8 R9]\n  leaf [R1 R3]\n  \
         leaf [R0 R4 R6]\n  leaf [R0 R2 R5]\n"
    );
    // With both HyperCuts heuristics on, nodes store pushed-up rules.
    let mut with_heuristics = HyperCutsConfig::paper_defaults();
    with_heuristics.binth = 3;
    let stored = HyperCutsClassifier::build(&toy, &with_heuristics).dump();
    assert_eq!(
        stored,
        "node cut[src_ip x2, protocol x2] stored=[0]\n  node cut[src_ip x2]\n    \
         leaf [R7 R8 R9]\n    leaf [R4]\n  node cut[src_ip x2]\n    leaf [R1 R3]\n    \
         leaf [R2 R5]\n  leaf [R4 R6]\n  leaf [R2 R5]\n"
    );
}
