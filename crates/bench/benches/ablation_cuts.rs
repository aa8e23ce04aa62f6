//! Ablation bench: the paper's key algorithmic change is starting at 32 cuts
//! and capping at 256.  This bench sweeps the starting cut count and the cap
//! and measures build time (the memory/cycles side of the ablation is
//! reported by `reproduce speed_tradeoff`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pclass_bench::acl_ruleset;
use pclass_core::builder::{BuildConfig, CutAlgorithm, HwTree};
use std::time::Duration;

fn bench_cut_ablation(c: &mut Criterion) {
    let rs = acl_ruleset(1_000);
    let mut group = c.benchmark_group("ablation_cuts");

    // Starting cut count: the paper argues 32 beats 2 for build effort.
    for &start in &[2u32, 8, 32] {
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HiCuts);
        cfg.start_cuts = start;
        group.bench_with_input(BenchmarkId::new("start_cuts", start), &cfg, |b, cfg| {
            b.iter(|| HwTree::build(&rs, cfg).unwrap().build_stats.cut_evaluations)
        });
    }

    // Cut cap: 256 keeps a node inside one memory word; smaller caps build
    // faster but deepen the tree.
    for &cap in &[64u32, 128, 256] {
        let mut cfg = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
        cfg.max_cuts = cap;
        cfg.start_cuts = cfg.start_cuts.min(cap);
        group.bench_with_input(BenchmarkId::new("max_cuts", cap), &cfg, |b, cfg| {
            b.iter(|| HwTree::build(&rs, cfg).unwrap().build_stats.cut_evaluations)
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = bench_cut_ablation
}
criterion_main!(benches);
