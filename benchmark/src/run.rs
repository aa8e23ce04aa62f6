//! One run of one workload: set-up, oracle, the timed serving phases with
//! every output verified, and — in a traced run — the layer probes.

use crate::metrics::{Better, Measured, MetricDef, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::Tracer;
use crate::workloads::{
    live_front, set_up, Built, CorruptingClassifier, Front, Kind, WorkloadDef, BATCH,
    CHURN_INTERVAL_NS,
};
use packet_classifier::algos::update::{classify_live_linear, RuleUpdate, UpdatableClassifier};
use packet_classifier::algos::Classifier;
use packet_classifier::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds one slice of a phase lasts at least; the phases take turns, one
/// slice each, so every metric samples the whole window.
const SLICE_S: f64 = 0.1;
/// Seconds one churn window of `churn10k` lasts, about (500 replace bursts).
const CHURN_WINDOW_S: f64 = 2.0;
/// Packets a partial check against linear search covers: the prefix of the
/// 64,000-rule trace, and the snapshot every churn window but the last ends
/// with.
const CHECKED_PREFIX: usize = 16_384;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Seconds the serving phases measure for, in total.
    pub seconds: f64,
    pub traced: bool,
    /// `--self-test`: serve through a classifier that corrupts one result.
    pub corrupt: bool,
}

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (plain run) or every per-layer metric
    /// (traced run), in table order.
    pub metrics: Vec<(&'static MetricDef, Measured)>,
    /// The spans of a traced run, and the share of the `pass` spans' time
    /// their children cover (over all of them, and in the worst one).
    pub trace_json: Option<String>,
    pub pass_cover: (f64, f64),
    /// Per span name: count, total seconds, self seconds; largest self
    /// time first.
    pub self_times: Vec<(&'static str, usize, f64, f64)>,
    pub wall_s: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The correctness gate: every product output is compared with the oracle.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn results(&mut self, got: &[MatchResult], want: &[MatchResult]) {
        self.attempted += want.len() as u64;
        if got.len() != want.len() {
            self.failed += want.len() as u64;
        } else if got != want {
            self.failed += got.iter().zip(want).filter(|(g, w)| g != w).count() as u64;
        }
    }

    /// Operations that can be refused (updates, routed packets).
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// What one serving call classifies: the whole trace or one 512-packet
/// burst of it, tagged for the tenant router.
pub enum Traffic {
    Plain(Trace),
    Tagged(TaggedTrace),
}

impl Traffic {
    pub fn len(&self) -> usize {
        match self {
            Traffic::Plain(trace) => trace.len(),
            Traffic::Tagged(tagged) => tagged.len(),
        }
    }
}

/// The workload's whole traffic.
pub fn whole(built: &Built) -> Traffic {
    match &built.front {
        Front::Tenants { tagged, .. } => Traffic::Tagged(tagged.clone()),
        _ => Traffic::Plain(built.trace.clone()),
    }
}

/// The traffic cut into consecutive bursts of `size` packets.
pub fn bursts(whole: &Traffic, size: usize) -> Vec<Traffic> {
    match whole {
        Traffic::Tagged(tagged) => tagged
            .entries()
            .chunks_exact(size)
            .map(|chunk| Traffic::Tagged(TaggedTrace::new("burst", chunk.to_vec())))
            .collect(),
        Traffic::Plain(trace) => trace
            .entries()
            .chunks_exact(size)
            .map(|chunk| Traffic::Plain(Trace::new("burst", chunk.to_vec())))
            .collect(),
    }
}

/// One serving call through the workload's front end at `workers`, inside
/// a `pass` span.  Returns the decisions and the seconds the call took.
pub fn serve(
    built: &Built,
    traffic: &Traffic,
    workers: usize,
    t: &mut Tracer,
    gate: &mut Gate,
) -> (Vec<MatchResult>, f64) {
    t.span("pass", |t| {
        let served = match (&built.front, traffic) {
            (Front::Fixed { w1, w2 }, Traffic::Plain(trace)) => {
                let engine = if workers == 1 { w1 } else { w2 };
                let (run, secs) = t.span("engine.classify_trace", |_| engine.classify_trace(trace));
                (run.results, secs)
            }
            (Front::Live { w1, w2, .. }, Traffic::Plain(trace)) => {
                let engine = if workers == 1 { w1 } else { w2 };
                let (run, secs) = t.span("engine.classify_trace", |_| engine.classify_trace(trace));
                (run.results, secs)
            }
            (Front::Tenants { w1, w2, .. }, Traffic::Tagged(tagged)) => {
                let router = if workers == 1 { w1 } else { w2 };
                let (run, secs) =
                    t.span("engine.classify_tagged", |_| router.classify_tagged(tagged));
                gate.operations(tagged.len() as u64, run.unroutable);
                (run.results, secs)
            }
            (Front::Hw { program, .. }, Traffic::Plain(trace)) if workers == 1 => {
                let (report, secs) = t.span("hw.classify_trace", |_| {
                    Accelerator::new(program).classify_trace(trace)
                });
                (report.results, secs)
            }
            (Front::Hw { w2, .. }, Traffic::Plain(trace)) => {
                let (run, secs) = t.span("engine.classify_trace", |_| w2.classify_trace(trace));
                (run.results, secs)
            }
            (Front::Tenants { .. }, Traffic::Plain(_)) | (_, Traffic::Tagged(_)) => {
                unreachable!("tenant traffic, and only tenant traffic, is tagged")
            }
        };
        t.count("packets", traffic.len() as u64);
        served
    })
    .0
}

/// Classifies `headers` with `decide` on two threads (the oracle is the
/// benchmark's own work, so it may use both processors).
fn oracle(
    headers: &[PacketHeader],
    decide: impl Fn(&PacketHeader) -> MatchResult + Sync,
) -> Vec<MatchResult> {
    // Each distinct header is decided once: a flow-pool trace repeats a few
    // thousand headers a million times.
    let mut index_of = HashMap::new();
    let mut distinct = Vec::new();
    let indices: Vec<usize> = headers
        .iter()
        .map(|h| {
            *index_of.entry(h.fields).or_insert_with(|| {
                distinct.push(*h);
                distinct.len() - 1
            })
        })
        .collect();
    let (left, right) = distinct.split_at(distinct.len() / 2);
    let half = |part: &[PacketHeader]| part.iter().map(&decide).collect::<Vec<_>>();
    let decided = std::thread::scope(|scope| {
        let right = scope.spawn(|| half(right));
        let mut decided = half(left);
        decided.extend(right.join().expect("oracle thread panicked"));
        decided
    });
    indices.into_iter().map(|i| decided[i]).collect()
}

pub fn headers_of(trace: &Trace) -> Vec<PacketHeader> {
    trace.headers().copied().collect()
}

/// Ground truth of the workload's whole traffic, in serving order: linear
/// search over the ruleset.  At 64,000 rules linear search covers the first
/// 16,384 packets and the pointer-tree HiCuts, checked against it there,
/// covers the rest.
fn ground_truth(built: &Built, gate: &mut Gate) -> Vec<MatchResult> {
    if let Front::Tenants {
        tenants, tagged, ..
    } = &built.front
    {
        let per_tenant: Vec<Vec<MatchResult>> = tenants
            .iter()
            .map(|tn| oracle(&headers_of(&tn.trace), |h| tn.rules.classify_linear(h)))
            .collect();
        let mut next = vec![0usize; tenants.len()];
        return tagged
            .entries()
            .iter()
            .map(|p| {
                let slot = p.tenant.slot();
                next[slot] += 1;
                per_tenant[slot][next[slot] - 1]
            })
            .collect();
    }
    let headers = headers_of(&built.trace);
    if built.rules.len() <= 10_000 {
        return oracle(&headers, |h| built.rules.classify_linear(h));
    }
    let by_tree = oracle(&headers, |h| built.tree.classify(h));
    let prefix = headers.len().min(CHECKED_PREFIX);
    let linear = oracle(&headers[..prefix], |h| built.rules.classify_linear(h));
    gate.results(&by_tree[..prefix], &linear);
    by_tree
}

/// One kind of serving call, repeated in slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Whole-trace passes at this many workers; samples are Mpkt/s.
    Whole(usize),
    /// 512-packet burst calls at this many workers; samples are µs.
    Burst(usize),
}

/// The samples of one phase, grouped by the slice they were taken in.
pub type Slices = Vec<Vec<f64>>;

/// Runs the phases in turn, one slice each per round, until `window`
/// seconds have passed; every result is verified.  In a traced run the odd
/// rounds run with recording off, so the two kinds of slice can be compared
/// (`bench.trace_overhead_frac`).
pub fn rounds(
    built: &Built,
    traffic: &Traffic,
    truth: &[MatchResult],
    phases: &[Phase],
    window: f64,
    t: &mut Tracer,
    gate: &mut Gate,
) -> Vec<Slices> {
    let mut out: Vec<Slices> = vec![Vec::new(); phases.len()];
    let burst_set = bursts(traffic, BATCH);
    let recording = t.enabled();
    let started = Instant::now();
    let mut next_burst = 0usize;
    let mut round = 0usize;
    while round < 2 || started.elapsed().as_secs_f64() < window {
        t.set_enabled(recording && round.is_multiple_of(2));
        for (phase, slices) in phases.iter().zip(&mut out) {
            let mut samples = Vec::new();
            let slice_started = Instant::now();
            // A slice: three whole-trace passes (alike, so three make a
            // median), or a tenth of a second of bursts (which differ, so
            // the slice goes round all of them several times).
            let burst_slice = matches!(phase, Phase::Burst(_));
            while samples.len() < 3
                || (burst_slice && slice_started.elapsed().as_secs_f64() < SLICE_S)
            {
                match *phase {
                    Phase::Whole(workers) => {
                        let (results, secs) = serve(built, traffic, workers, t, gate);
                        gate.results(&results, truth);
                        samples.push(traffic.len() as f64 / secs * 1e-6);
                    }
                    Phase::Burst(workers) => {
                        let index = next_burst % burst_set.len();
                        next_burst += 1;
                        let (results, secs) = serve(built, &burst_set[index], workers, t, gate);
                        gate.results(&results, &truth[index * BATCH..(index + 1) * BATCH]);
                        samples.push(secs * 1e6);
                    }
                }
            }
            slices.push(samples);
        }
        round += 1;
    }
    t.set_enabled(recording);
    out
}

/// `1 - traced / untraced` throughput of the alternating rounds of a traced
/// run: the median over pairs of neighbouring rounds, which the host
/// disturbs alike.
pub fn trace_overhead(slices: &Slices) -> f64 {
    let ratios: Vec<f64> = slices
        .chunks_exact(2)
        .map(|pair| Measured::median(&pair[0]).value / Measured::median(&pair[1]).value)
        .collect();
    1.0 - Measured::median(&ratios).value
}

/// `churn10k`: the run's seconds are cut into windows of about
/// [`CHURN_WINDOW_S`].  Every window starts from a fresh copy of the built
/// arena and replays the same update stream: the arena grows as rules are
/// replaced, so a burst costs more the later it lands, and only alike
/// windows give the quietest slice more than one stretch to be found in.
/// Each window's final snapshot is checked against linear search over its
/// live rules — on the first [`CHECKED_PREFIX`] packets here, the last
/// window's on the whole trace by the caller.
fn churn(built: &mut Built, seconds: f64, t: &mut Tracer, gate: &mut Gate) -> Served {
    let windows = ((seconds / CHURN_WINDOW_S).round() as usize).max(1);
    let mut out = Served::default();
    for index in 0..windows {
        if index > 0 {
            post_churn_truth(built, CHECKED_PREFIX, gate);
            let fresh = live_front(&built.flat);
            let Front::Live { live, w1, w2, .. } = &mut built.front else {
                unreachable!("churn runs on the live front end");
            };
            (*live, *w1, *w2) = fresh;
        }
        churn_window(built, seconds / windows as f64, &mut out, t, gate);
    }
    out
}

/// One churn window: a serving thread classifies the trace continuously on
/// the 1-worker `LiveEngine` while this thread applies an open-loop stream
/// of replace bursts, one due every [`CHURN_INTERVAL_NS`].  Samples are
/// grouped into slices by the time they were taken.
fn churn_window(built: &Built, window: f64, out: &mut Served, t: &mut Tracer, gate: &mut Gate) {
    let Front::Live {
        live, w1, bursts, ..
    } = &built.front
    else {
        unreachable!("churn runs on the live front end");
    };
    // Slices as in `rounds`: a tenth of a second of replace bursts, three
    // consecutive serving passes.
    let slice_count = (window / SLICE_S).ceil() as usize;
    let first_slice = out.burst_us.len();
    out.burst_us.resize(first_slice + slice_count, Vec::new());
    let slice_of =
        |at: f64| first_slice + ((at / window * slice_count as f64) as usize).min(slice_count - 1);
    let issued_before = out.late_us.len();
    let stop = AtomicBool::new(false);
    let trace = &built.trace;
    t.span("churn", |t| {
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut served = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let from = Instant::now();
                    let run = w1.classify_trace(trace);
                    served.push((from, Instant::now(), run.results.len()));
                }
                served
            });
            let started = Instant::now();
            for (k, (id, rule)) in bursts.iter().cycle().enumerate() {
                let offset = Duration::from_nanos(k as u64 * CHURN_INTERVAL_NS);
                if offset.as_secs_f64() >= window {
                    break;
                }
                let due = started + offset;
                wait_until(due);
                out.late_us.push(due.elapsed().as_secs_f64() * 1e6);
                let burst = [RuleUpdate::Delete(*id), RuleUpdate::Insert(*rule)];
                let ((applied, _), _) = t.span("pass", |t| {
                    t.span("live.apply_batch", |_| live.apply_batch(&burst))
                });
                // Timed from when the burst was due, so a stall is charged
                // to every burst it delays.
                out.burst_us[slice_of(offset.as_secs_f64())]
                    .push(due.elapsed().as_secs_f64() * 1e6);
                gate.operations(1, u64::from(applied.is_err()));
            }
            stop.store(true, Ordering::Relaxed);
            let served = server.join().expect("serving thread panicked");
            t.span("serve", |t| {
                let mut mpps = Vec::new();
                for (from, to, packets) in served {
                    t.record("engine.classify_trace", from, to);
                    mpps.push(packets as f64 / to.duration_since(from).as_secs_f64() * 1e-6);
                }
                let groups = out.mpps.len();
                out.mpps.extend(mpps.chunks_exact(3).map(<[f64]>::to_vec));
                if out.mpps.len() == groups {
                    out.mpps.push(mpps);
                }
            });
        });
        t.count("updates", (out.late_us.len() - issued_before) as u64);
        t.count("generations", live.generation());
    });
    out.generations += live.generation();
}

/// Sleeps to within 200 µs of `due`, then spins.
fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Ground truth after a churn window: linear search over the live rules;
/// the published snapshot must agree with it on the first `packets` packets
/// of the trace.
fn post_churn_truth(built: &Built, packets: usize, gate: &mut Gate) -> Vec<MatchResult> {
    let Front::Live { live, .. } = &built.front else {
        unreachable!("churn runs on the live front end");
    };
    let rules = live.with_writer(|writer| writer.live_rules());
    let mut headers = headers_of(&built.trace);
    headers.truncate(packets);
    let truth = oracle(&headers, |h| classify_live_linear(&rules, h));
    let mut snapshot = Vec::new();
    live.snapshot().classify_batch(&headers, &mut snapshot);
    gate.results(&snapshot, &truth);
    truth
}

/// What the serving phases of one run measured.
#[derive(Default)]
pub struct Served {
    /// Whole-trace passes at 1 worker, Mpkt/s; on `churn10k`, served while
    /// the update stream landed.
    pub mpps: Slices,
    /// 512-packet calls at 1 worker, µs; on `churn10k`, replace bursts:
    /// publish completion minus due time.
    pub burst_us: Slices,
    /// Churn only: issue time minus due time of each replace burst, µs,
    /// and the generations published over all windows.
    pub late_us: Vec<f64>,
    pub generations: u64,
}

fn serving_phases(
    def: &WorkloadDef,
    built: &mut Built,
    traffic: &Traffic,
    config: &RunConfig,
    t: &mut Tracer,
    gate: &mut Gate,
) -> (Served, Vec<MatchResult>) {
    // A traced run spends a third of its seconds here and the rest on the
    // probes.
    let seconds = if config.traced {
        config.seconds / 3.0
    } else {
        config.seconds
    };
    if def.kind == Kind::Churn {
        let served = churn(built, seconds, t, gate);
        let (truth, _) = t.span("types.ground_truth", |_| {
            post_churn_truth(built, built.trace.len(), gate)
        });
        return (served, truth);
    }
    let (truth, _) = t.span("types.ground_truth", |_| ground_truth(built, gate));
    let phases = [Phase::Whole(1), Phase::Burst(1)];
    let mut measured = rounds(built, traffic, &truth, &phases, seconds, t, gate);
    let burst_us = measured.remove(1);
    let served = Served {
        mpps: measured.remove(0),
        burst_us,
        ..Served::default()
    };
    (served, truth)
}

/// Sets the workload up several times and keeps the last: `setup_s` is the
/// median, so one page-fault storm does not decide it.  A set-up is
/// repeated three times if that fits the run's seconds, a cheap one up to
/// fifteen times within a twelfth of them (a second at most).
/// A traced run sets up twice, unless that alone would take a quarter of
/// its seconds, and takes the per-layer metrics from the stage spans of the
/// last: the repetitions also grow the heap, and a publish that clones the
/// arena into fresh pages costs three times one that reuses freed ones
/// (2.2 ms against 0.75 ms on `churn10k`).
fn set_up_repeatedly(def: &WorkloadDef, config: &RunConfig, t: &mut Tracer) -> (Built, Vec<f64>) {
    let corrupt = config.corrupt;
    let wrap = move |flat: Arc<FlatTreeClassifier>, trace: &Trace| -> SharedClassifier {
        if corrupt {
            let victim = trace.entries()[trace.len() / 2].header;
            Arc::new(CorruptingClassifier {
                inner: flat,
                victim,
            })
        } else {
            flat
        }
    };
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut built = None;
    loop {
        drop(built.take());
        let (b, secs) = t.span("setup", |t| set_up(def, config.seed, t, &wrap));
        setup_s.push(secs);
        built = Some(b);
        // Another repetition must fit: three within the run's seconds,
        // more within a twelfth of them.
        let fits = |limit: f64| started.elapsed().as_secs_f64() + secs <= limit;
        let more = if config.traced {
            setup_s.len() < 2 && fits(config.seconds / 4.0)
        } else {
            (setup_s.len() < 3 && fits(config.seconds))
                || (setup_s.len() < 15 && fits((config.seconds / 12.0).min(1.0)))
        };
        if !more {
            return (built.expect("set up at least once"), setup_s);
        }
    }
}

/// Runs one workload once.
pub fn run_workload(def: &'static WorkloadDef, config: &RunConfig) -> RunResult {
    let started = Instant::now();
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("warning: fewer than 2 processors: the 2-worker metrics are oversubscribed");
    }
    let mut tracer = Tracer::new(config.traced);
    let mut gate = Gate::default();

    let (metrics, _) = tracer.span("run", |t| {
        let (mut built, setup_s) = set_up_repeatedly(def, config, t);
        let traffic = whole(&built);
        let (served, truth) = serving_phases(def, &mut built, &traffic, config, t, &mut gate);
        if !config.traced {
            let sim = built.simulated(def.kind);
            let value = |name: &str| -> Measured {
                match name {
                    "setup_s" => Measured::median(&setup_s),
                    "mpps" => Measured::quietest(&served.mpps, Better::Higher),
                    "burst_us_p50" => Measured::quietest(&served.burst_us, Better::Lower),
                    "struct_mib" => Measured::exact(built.struct_bytes() as f64 / (1 << 20) as f64),
                    "sim_cycles_per_pkt" => Measured::exact(sim.cycles_per_pkt),
                    "sim_accesses_per_pkt" => Measured::exact(sim.accesses_per_pkt),
                    "sim_worst_accesses" => Measured::exact(sim.worst_accesses),
                    "sim_nj_per_pkt" => Measured::exact(sim.nj_per_pkt),
                    other => unreachable!("no end-to-end metric {other}"),
                }
            };
            return END_TO_END.iter().map(|m| (m, value(m.name))).collect();
        }
        let layers = probes::measure(&built, &traffic, &truth, &served, config, t, &mut gate);
        PER_LAYER
            .iter()
            .map(|m| {
                let measured = layers
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("probe for {} missing", m.name))
                    .1;
                (m, measured)
            })
            .collect::<Vec<_>>()
    });

    RunResult {
        workload: def.name,
        attempted: gate.attempted.max(1),
        failed: gate.failed,
        metrics,
        trace_json: config.traced.then(|| tracer.to_json(def.name)),
        pass_cover: tracer.child_cover("pass"),
        self_times: tracer.self_times(),
        wall_s: started.elapsed().as_secs_f64(),
    }
}
