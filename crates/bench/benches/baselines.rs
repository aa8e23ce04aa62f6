//! Criterion bench: baseline comparisons outside the decision-tree family —
//! RFC preprocessing, TCAM programming and the accelerator model's banked
//! multi-engine replay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pclass_bench::{acl_ruleset, styled_ruleset, trace_for};
use pclass_classbench::SeedStyle;
use pclass_core::builder::{BuildConfig, CutAlgorithm};
use pclass_core::hw::Accelerator;
use pclass_core::program::HardwareProgram;
use pclass_tcam::TcamClassifier;
use std::time::Duration;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");

    // RFC preprocessing cost grows quickly with rule count.
    for &size in &[150usize, 500] {
        let rs = acl_ruleset(size);
        group.bench_with_input(BenchmarkId::new("rfc_preprocess", size), &rs, |b, rs| {
            b.iter(|| {
                pclass_algos::RfcClassifier::build(rs)
                    .map(|r| r.table_entries())
                    .unwrap_or(0)
            })
        });
    }

    // TCAM programming (range expansion) per seed style.
    for style in SeedStyle::ALL {
        let rs = styled_ruleset(style, 1_000);
        group.bench_with_input(
            BenchmarkId::new("tcam_program", style.name()),
            &rs,
            |b, rs| {
                b.iter(|| {
                    TcamClassifier::program(rs)
                        .map(|t| t.entries().len())
                        .unwrap_or(0)
                })
            },
        );
    }

    // Multi-engine scaling of the accelerator model.
    let rs = acl_ruleset(2_191);
    let trace = trace_for(&rs, 20_000);
    let program = HardwareProgram::build_with_capacity(
        &rs,
        &BuildConfig::paper_defaults(CutAlgorithm::HyperCuts),
        4096,
    )
    .unwrap();
    group.throughput(Throughput::Elements(trace.len() as u64));
    let accelerator = Accelerator::new(&program);
    for &engines in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel_engines", engines),
            &trace,
            |b, trace| b.iter(|| accelerator.classify_trace_banked(trace, engines).cycles),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = bench_baselines
}
criterion_main!(benches);
