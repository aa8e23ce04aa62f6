//! The benchmark's names: workloads, end-to-end metrics (with the bound by
//! which each may worsen), per-layer metrics — and the statistics every
//! timing is reported with.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a unit test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.  `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the serving stack (or a reader of the paper) sees.  Every
/// workload reports every one of them; README.md says what each means on
/// each workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("mpps", "Mpkt/s", Higher, 0.25),
    e2e("burst_us_p50", "us", Lower, 0.25),
    e2e("struct_mib", "MiB", Lower, 0.02),
    e2e("sim_cycles_per_pkt", "cycles", Lower, 0.02),
    e2e("sim_accesses_per_pkt", "accesses", Lower, 0.02),
    e2e("sim_worst_accesses", "accesses", Lower, 0.02),
    e2e("sim_nj_per_pkt", "nJ", Lower, 0.02),
];

/// One module each, timed from outside on the workload's own inputs.  Every
/// time is measured on every workload; a count or ratio of a layer the
/// workload does not contain reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("classbench.ruleset_gen_s", "s", Lower),
    layer("classbench.trace_gen_ns_per_pkt", "ns", Lower),
    layer("types.ground_truth_ns_per_pkt", "ns", Lower),
    layer("algos.hicuts.build_s", "s", Lower),
    layer("algos.hypercuts.build_s", "s", Lower),
    layer("algos.flat.flatten_s", "s", Lower),
    layer("algos.flat.arena_mib", "MiB", Lower),
    layer("algos.flat.nodes", "count", Lower),
    layer("algos.flat.hicuts.ns_per_pkt", "ns", Lower),
    layer("algos.flat.hypercuts.ns_per_pkt", "ns", Lower),
    layer("algos.flat.lanes_scalar.ns_per_pkt", "ns", Lower),
    layer("algos.flat.lanes_x4.ns_per_pkt", "ns", Lower),
    layer("algos.flat.lanes_x16.ns_per_pkt", "ns", Lower),
    layer("algos.hicuts.ns_per_pkt", "ns", Lower),
    layer("algos.hypercuts.ns_per_pkt", "ns", Lower),
    layer("algos.rfc.ns_per_pkt", "ns", Lower),
    layer("algos.linear.ns_per_pkt", "ns", Lower),
    layer("tcam.ns_per_pkt", "ns", Lower),
    layer("algos.flat.accesses_per_pkt", "accesses", Lower),
    layer("algos.flat.nodes_per_pkt", "count", Lower),
    layer("algos.flat.rules_compared_per_pkt", "count", Lower),
    layer("engine.null_ns_per_pkt", "ns", Lower),
    layer("engine.overhead_ns_per_pkt", "ns", Lower),
    layer("engine.worker_imbalance_x", "x", Lower),
    layer("engine.mpps_w2", "Mpkt/s", Higher),
    layer("engine.scale_w2_x", "x", Higher),
    layer("engine.fork_join_us", "us", Lower),
    layer("engine.burst_us_p90", "us", Lower),
    layer("engine.burst_us_p99", "us", Lower),
    layer("engine.burst_w2_us_p50", "us", Lower),
    layer("engine.burst_w2_us_p90", "us", Lower),
    layer("algos.hotcache.hit_rate", "ratio", Higher),
    layer("algos.hotcache.evictions_per_kpkt", "count", Lower),
    layer("algos.hotcache.probe_hit_ns", "ns", Lower),
    layer("algos.hotcache.miss_fill_ns", "ns", Lower),
    layer("algos.hotcache.serve_batch_ns_per_pkt", "ns", Lower),
    layer("algos.hotcache.uncached_mpps", "Mpkt/s", Higher),
    layer("algos.hotcache.gain_x", "x", Higher),
    layer("algos.update.apply_us", "us", Lower),
    layer("engine.live.clone_us", "us", Lower),
    layer("engine.live.snapshot_ns", "ns", Lower),
    layer("engine.live.quiescent_mpps", "Mpkt/s", Higher),
    layer("engine.live.churn_vs_quiescent_x", "x", Higher),
    layer("algos.update.reflattens", "count", Lower),
    layer("algos.update.overflow_rules", "count", Lower),
    layer("engine.live.generations", "count", Higher),
    layer("bench.churn.late_p99_x", "x", Lower),
    layer("engine.tenant.solo_sum_mpps", "Mpkt/s", Higher),
    layer("engine.tenant.router_vs_solo_x", "x", Higher),
    layer("engine.tenant.wjain", "ratio", Higher),
    layer("engine.tenant.slo_rel_min", "ratio", Higher),
    layer("engine.tenant.batch_us_p99_max", "us", Lower),
    layer("engine.tenant.busy_frac", "ratio", Higher),
    layer("engine.tenant.interleave_ns_per_pkt", "ns", Lower),
    layer("engine.tenant.admit_us", "us", Lower),
    layer("engine.tenant.evict_us", "us", Lower),
    layer("core.builder.build_s", "s", Lower),
    layer("core.hw.hicuts.host_ns_per_pkt", "ns", Lower),
    layer("core.hw.hypercuts.host_ns_per_pkt", "ns", Lower),
    layer("core.hw.hypercuts.cycles_per_pkt", "cycles", Lower),
    layer("core.hw.hypercuts.accesses_per_pkt", "accesses", Lower),
    layer("core.hw.engine_ns_per_pkt", "ns", Lower),
    layer("core.hw.words", "count", Lower),
    layer("energy.fpga_nj_per_pkt", "nJ", Lower),
    layer("energy.sa1100_nj_per_pkt", "nJ", Lower),
    layer("energy.asic_vs_sa1100_x", "x", Higher),
    layer("energy.tcam_nj_per_search", "nJ", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.input_hash", "hash", Lower),
];

/// One measured value with its spread and the number of samples behind it
/// (spread 0 for exact counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn iqr(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.75) - quantile(sorted, 0.25)
}

impl Measured {
    /// A count or a value computed from counts: no spread.
    pub fn exact(value: f64) -> Measured {
        Measured {
            value,
            iqr: 0.0,
            n: 1,
        }
    }

    /// Median and inter-quartile range of `samples`.
    pub fn median(samples: &[f64]) -> Measured {
        Measured::of(samples, 0.5)
    }

    /// The `q`-quantile of `samples` (0.9 = 90th percentile) and their
    /// inter-quartile range.  A percentile is only as good as the samples
    /// beyond it: callers check [`beyond`] first.
    pub fn of(samples: &[f64], q: f64) -> Measured {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        let sorted = sorted(samples);
        Measured {
            value: quantile(&sorted, q),
            iqr: iqr(&sorted),
            n: samples.len(),
        }
    }

    /// The median of the **quietest slice** of the window.
    ///
    /// The end-to-end timings are taken on a shared host whose interference
    /// only ever slows a call down, for seconds at a time, so the median of
    /// a window measures the neighbours.  The window is cut into short
    /// slices of consecutive calls (three whole-trace passes; a tenth of a
    /// second of bursts, which covers every burst of the trace several
    /// times), each slice gives its median, and the best one is reported.
    /// Over ten 12-second windows on the reference host in a noisy hour the
    /// median of all passes spread 18 % from run to run, the quietest
    /// slice's 3 % (README.md has the table).  The spread reported beside
    /// it is the inter-quartile range of the slice medians over the quieter
    /// half of the slices.
    pub fn quietest(slices: &[Vec<f64>], better: Better) -> Measured {
        let mut medians: Vec<f64> = slices
            .iter()
            .filter(|slice| !slice.is_empty())
            .map(|slice| quantile(&sorted(slice), 0.5))
            .collect();
        assert!(!medians.is_empty(), "a timing needs at least one slice");
        medians.sort_by(f64::total_cmp);
        if better == Better::Higher {
            medians.reverse();
        }
        let mut quiet_half = medians[..medians.len().div_ceil(2)].to_vec();
        quiet_half.sort_by(f64::total_cmp);
        Measured {
            value: medians[0],
            iqr: iqr(&quiet_half),
            n: slices.iter().map(Vec::len).sum(),
        }
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples strictly beyond the `q`-quantile position: a reported
/// percentile needs at least ten.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * (n - 1) as f64).ceil() as usize).min(n - 1) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(beyond(100, 0.9), 9);
        assert_eq!(beyond(4000, 0.99), 39);
        assert_eq!(beyond(1, 0.5), 0);
    }

    #[test]
    fn measured_reports_statistic_spread_and_count() {
        let samples: Vec<f64> = (0..9).map(f64::from).collect();
        let m = Measured::median(&samples);
        assert_eq!((m.value, m.iqr, m.n), (4.0, 4.0, 9));
        assert_eq!(Measured::of(&samples, 0.9).value, 7.2);
        assert_eq!(Measured::exact(3.0).iqr, 0.0);
    }

    #[test]
    fn the_quietest_slice_is_reported() {
        // Three slices of a window: one disturbed, two quiet.  One fast
        // call alone (the 25) does not make a slice quiet.
        let mpps = vec![
            vec![14.0, 25.0, 13.0],
            vec![19.0, 20.0, 21.0],
            vec![18.0, 19.0, 19.5],
        ];
        let m = Measured::quietest(&mpps, Better::Higher);
        assert_eq!((m.value, m.n), (20.0, 9));
        // Quieter half = the slices with medians 20 and 19.
        assert_eq!(m.iqr, 0.5);
        let us = vec![vec![120.0, 130.0, 125.0], vec![90.0, 100.0, 95.0], vec![]];
        assert_eq!(Measured::quietest(&us, Better::Lower).value, 95.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(name.len() <= 64 && ok(name, "_.-"), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16 && ok(m.unit, "_/%.-"),
                "bad unit {}",
                m.unit
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// file says.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        let want = |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names("workloads"), workloads);
        for (def, got) in END_TO_END.iter().chain(PER_LAYER).zip(
            doc.get("end_to_end")
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .chain(doc.get("per_layer").and_then(|v| v.as_array()).unwrap()),
        ) {
            assert_eq!(got.get("unit").and_then(|u| u.as_str()), Some(def.unit));
            assert_eq!(
                got.get("better").and_then(|u| u.as_str()),
                Some(def.better.as_str())
            );
            assert_eq!(got.get("bound").and_then(|b| b.as_f64()), def.bound);
        }
    }
}
