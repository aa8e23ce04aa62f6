//! The per-layer metrics of a traced run: each product module timed from
//! outside, on one thread, on the workload's own inputs, inside a span of
//! its own.
//!
//! Every workload runs every probe.  The paper-scale baselines and the
//! accelerator probes need a ruleset that fits their tables, so on a larger
//! workload they run on the paper-scale ruleset (`acl2k_uniform`'s) and a
//! trace of it; counts of a layer the workload does not contain (update
//! counters off `churn10k`) read 0.

use crate::metrics::{beyond, quantile, Better, Measured};
use crate::run::{
    bursts, headers_of, rounds, serve, trace_overhead, Gate, Phase, RunConfig, Served, Slices,
    Traffic,
};
use crate::spans::Tracer;
use crate::workloads::{
    build_program, paper_scale, simulate_hardware, Built, Flat, Front, NullClassifier, BATCH,
    CHURN_INTERVAL_NS, HOT_CACHE,
};
use packet_classifier::algos::hypercuts::HyperCutsConfig;
use packet_classifier::algos::update::UpdatableClassifier;
use packet_classifier::algos::{CachedClassifier, Classifier, HotCache, LookupStats};
use packet_classifier::energy::{AcceleratorEnergyModel, TcamPart};
use packet_classifier::prelude::*;
use packet_classifier::types::Rule;
use std::sync::Arc;
use std::time::Instant;

/// Rules the paper-scale probes run on.
const PAPER_RULES: usize = 2_000;
/// Packets the oracle probe decides per sample.
const ORACLE_PACKETS: usize = 2_048;
/// Packets the exact per-packet counts are taken over.
const COUNTED_PACKETS: usize = 16_384;

type Layers = Vec<(&'static str, Measured)>;

/// Calls `op` for `budget` seconds, at least three times; `op` returns the
/// value of one sample.
fn sample(budget: f64, mut op: impl FnMut() -> f64) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget {
        samples.push(op());
    }
    samples
}

fn secs<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = op();
    (out, started.elapsed().as_secs_f64())
}

/// Nanoseconds per packet of `classify` over the 512-header batches of
/// `headers`, one sample per batch.
fn batch_ns(
    budget: f64,
    headers: &[PacketHeader],
    classify: impl Fn(&[PacketHeader], &mut Vec<MatchResult>),
) -> Measured {
    let mut chunks = headers.chunks_exact(BATCH).cycle();
    let mut out = Vec::with_capacity(BATCH);
    Measured::median(&sample(budget, || {
        let chunk = chunks.next().expect("at least one full batch");
        out.clear();
        let ((), s) = secs(|| classify(std::hint::black_box(chunk), &mut out));
        std::hint::black_box(&out);
        s * 1e9 / BATCH as f64
    }))
}

/// Nanoseconds per packet of whole-trace passes through a 1-worker engine.
fn engine_ns(budget: f64, engine: &Engine, trace: &Trace) -> Measured {
    Measured::median(&sample(budget, || {
        let (run, s) = secs(|| engine.classify_trace(trace));
        std::hint::black_box(run.results.len());
        s * 1e9 / trace.len() as f64
    }))
}

fn ratio(a: Measured, b: Measured) -> Measured {
    Measured {
        value: a.value / b.value,
        iqr: 0.0,
        n: a.n.min(b.n),
    }
}

/// What the probes of one traced run share.
struct Probes<'a> {
    built: &'a Built,
    traffic: &'a Traffic,
    truth: &'a [MatchResult],
    served: &'a Served,
    seed: u64,
    /// Seconds each probe loop samples for.
    budget: f64,
    /// The workload's primary trace, as `classify_batch` takes it.
    headers: Vec<PacketHeader>,
    /// What the paper-scale probes run on: the workload's own ruleset and
    /// the head of its trace when they fit, else the paper-scale ruleset
    /// and a trace of it drawn from the seed.
    paper_rules: RuleSet,
    paper_trace: Trace,
    /// 1 worker, sub-batch 512: what every engine probe is built from.
    config_w1: EngineConfig,
    layers: Layers,
}

/// What the engine probes hand to the later ones.
struct EngineProbe {
    /// ns/pkt of the workload's arena behind a plain 1-worker `Engine`.
    through_engine: Measured,
    /// The `mpps` of this run's serving phases.
    served_mpps: Measured,
    /// Whole-trace passes at 2 workers, by slice.
    w2_mpps: Slices,
}

pub fn measure(
    built: &Built,
    traffic: &Traffic,
    truth: &[MatchResult],
    served: &Served,
    config: &RunConfig,
    t: &mut Tracer,
    gate: &mut Gate,
) -> Layers {
    let head = |trace: &Trace| {
        let kept = trace.len().min(COUNTED_PACKETS);
        Trace::new("paper_scale", trace.entries()[..kept].to_vec())
    };
    let (paper_rules, paper_trace) = if built.rules.len() > PAPER_RULES {
        paper_scale(PAPER_RULES, COUNTED_PACKETS, config.seed)
    } else {
        (built.rules.clone(), head(&built.trace))
    };
    let mut p = Probes {
        built,
        traffic,
        truth,
        served,
        seed: config.seed,
        // Every probe loop gets the same share of the run's seconds.
        budget: config.seconds / 48.0,
        headers: headers_of(&built.trace),
        paper_rules,
        paper_trace,
        config_w1: EngineConfig::new().batch_size(BATCH),
        layers: Vec::new(),
    };
    // One span per module, so the trace says which layer's probes the time
    // of a traced run went to.
    t.span("probe.classbench", |t| p.generation(t));
    let direct = t.span("probe.algos.flat", |t| p.flat(t)).0;
    t.span("probe.algos.baselines", |t| p.baselines(t));
    let engine = t.span("probe.engine", |t| p.engine(t, gate, direct)).0;
    t.span("probe.algos.hotcache", |t| {
        p.hotcache(t, engine.through_engine)
    });
    t.span("probe.engine.live", |t| p.live(t, engine.served_mpps));
    t.span("probe.engine.tenant", |t| p.tenant(t));
    t.span("probe.core", |t| p.hw(t));
    p.put(
        "bench.trace_overhead_frac",
        // Even rounds of the serving phases ran recorded, odd ones not; on
        // `churn10k`, whose churn window has no rounds, the 2-worker rounds
        // stand in.
        Measured::exact(trace_overhead(if served.late_us.is_empty() {
            &served.mpps
        } else {
            &engine.w2_mpps
        })),
    );
    // 48 bits, so the hash survives a trip through a JSON number.
    p.put(
        "bench.input_hash",
        Measured::exact((built.input_hash >> 16) as f64),
    );
    p.layers
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, m: Measured) {
        self.layers.push((name, m));
    }

    /// classbench, types: generation (from the set-up's own stage spans)
    /// and the oracle.
    fn generation(&mut self, t: &mut Tracer) {
        let (built, budget) = (self.built, self.budget);
        self.put(
            "classbench.ruleset_gen_s",
            Measured::exact(built.times.ruleset_gen_s),
        );
        self.put(
            "classbench.trace_gen_ns_per_pkt",
            Measured::exact(built.times.trace_gen_s * 1e9 / self.traffic.len() as f64),
        );
        let (m, _) = t.span("types.ground_truth", |_| {
            let part = Trace::new("oracle", built.trace.entries()[..ORACLE_PACKETS].to_vec());
            Measured::median(&sample(budget, || {
                let (truth, s) = secs(|| part.ground_truth(&built.rules));
                std::hint::black_box(truth);
                s * 1e9 / part.len() as f64
            }))
        });
        self.put("types.ground_truth_ns_per_pkt", m);
    }

    /// algos: the builders and the arena.  Returns ns/pkt of the serving
    /// arena's direct `classify_batch`.
    fn flat(&mut self, t: &mut Tracer) -> Measured {
        let (built, budget) = (self.built, self.budget);
        let flat = &built.flat;
        self.put(
            "algos.hicuts.build_s",
            Measured::exact(built.times.hicuts_build_s),
        );
        self.put(
            "algos.flat.flatten_s",
            Measured::exact(built.times.flatten_s),
        );
        let arena = flat.flat_tree().arena_stats();
        self.put(
            "algos.flat.arena_mib",
            Measured::exact(arena.total_bytes as f64 / (1 << 20) as f64),
        );
        self.put("algos.flat.nodes", Measured::exact(arena.nodes as f64));
        let direct = t
            .span("algos.flat.hicuts", |_| {
                batch_ns(budget, &self.headers, |h, out| flat.classify_batch(h, out))
            })
            .0;
        self.put("algos.flat.hicuts.ns_per_pkt", direct);
        {
            let (hyper, s) = t.span("algos.build", |_| {
                HyperCutsClassifier::build(&built.rules, &HyperCutsConfig::paper_defaults())
            });
            self.put("algos.hypercuts.build_s", Measured::exact(s));
            let hyper_flat = t.span("algos.flatten", |_| hyper.flatten()).0;
            let m = t
                .span("algos.flat.hypercuts", |_| {
                    batch_ns(budget, &self.headers, |h, out| {
                        hyper_flat.classify_batch(h, out)
                    })
                })
                .0;
            self.put("algos.flat.hypercuts.ns_per_pkt", m);
        }
        for (name, lanes) in [
            ("algos.flat.lanes_scalar.ns_per_pkt", LaneWidth::Scalar),
            ("algos.flat.lanes_x4.ns_per_pkt", LaneWidth::X4),
            ("algos.flat.lanes_x16.ns_per_pkt", LaneWidth::X16),
        ] {
            let m = t
                .span("algos.flat.lanes", |_| {
                    batch_ns(budget, &self.headers, |h, out| {
                        flat.flat_tree().classify_batch_lanes(h, out, lanes)
                    })
                })
                .0;
            self.put(name, m);
        }
        let mut stats = LookupStats::new();
        let counted = self.headers.len().min(COUNTED_PACKETS);
        for header in &self.headers[..counted] {
            flat.classify_with_stats(header, &mut stats);
        }
        let per_pkt = |count: u64| Measured::exact(count as f64 / counted as f64);
        self.put(
            "algos.flat.accesses_per_pkt",
            per_pkt(stats.memory_accesses),
        );
        self.put("algos.flat.nodes_per_pkt", per_pkt(stats.nodes_visited));
        self.put(
            "algos.flat.rules_compared_per_pkt",
            per_pkt(stats.rules_compared),
        );
        direct
    }

    /// The paper's software baselines and the TCAM, at paper scale.
    fn baselines(&mut self, t: &mut Tracer) {
        let rules = &self.paper_rules;
        let headers = headers_of(&self.paper_trace);
        let tree = t
            .span("algos.hicuts.build", |_| {
                HiCutsClassifier::build(rules, &Default::default())
            })
            .0;
        let hyper = t
            .span("algos.hypercuts.build", |_| {
                HyperCutsClassifier::build(rules, &HyperCutsConfig::paper_defaults())
            })
            .0;
        let rfc = t
            .span("algos.rfc.build", |_| RfcClassifier::build(rules))
            .0
            .expect("RFC fits 2,000 acl rules");
        let linear = LinearClassifier::new(rules.clone());
        let tcam = t
            .span("tcam.program", |_| TcamClassifier::program(rules))
            .0
            .expect("TCAM holds 2,000 acl rules");
        let baselines: [(&'static str, &dyn Classifier); 5] = [
            ("algos.hicuts.ns_per_pkt", &tree),
            ("algos.hypercuts.ns_per_pkt", &hyper),
            ("algos.rfc.ns_per_pkt", &rfc),
            ("algos.linear.ns_per_pkt", &linear),
            ("tcam.ns_per_pkt", &tcam),
        ];
        for (name, classifier) in baselines {
            let m = t
                .span("algos.baseline", |_| {
                    batch_ns(self.budget, &headers, |h, out| {
                        classifier.classify_batch(h, out)
                    })
                })
                .0;
            self.layers.push((name, m));
        }
    }

    /// engine: the serving loop at 1 worker, then the 2-worker front end.
    fn engine(&mut self, t: &mut Tracer, gate: &mut Gate, direct: Measured) -> EngineProbe {
        let (built, budget) = (self.built, self.budget);
        let flat = &built.flat;
        let null = self.config_w1.engine(Arc::new(NullClassifier));
        let m = t
            .span("engine.null", |_| engine_ns(budget, &null, &built.trace))
            .0;
        self.put("engine.null_ns_per_pkt", m);
        let plain = self.config_w1.engine(Arc::clone(flat) as SharedClassifier);
        let through_engine = t
            .span("engine.classify_trace", |_| {
                engine_ns(budget, &plain, &built.trace)
            })
            .0;
        self.put(
            "engine.overhead_ns_per_pkt",
            Measured {
                value: through_engine.value - direct.value,
                iqr: through_engine.iqr + direct.iqr,
                n: through_engine.n,
            },
        );
        let plain_w2 = self
            .config_w1
            .clone()
            .workers(2)
            .engine(Arc::clone(flat) as SharedClassifier);
        let m = t
            .span("engine.classify_trace", |_| {
                Measured::median(&sample(budget, || {
                    let walls: Vec<u64> = plain_w2
                        .classify_trace(&built.trace)
                        .report
                        .per_worker
                        .iter()
                        .map(|w| w.wall_ns)
                        .collect();
                    let slowest = *walls.iter().max().expect("two workers");
                    let fastest = *walls.iter().min().expect("two workers");
                    slowest as f64 / fastest.max(1) as f64
                }))
            })
            .0;
        self.put("engine.worker_imbalance_x", m);
        // The 2-worker front end: thread spawn per call and scheduler
        // placement make these bimodal on a 2-vCPU host, so they are layer
        // metrics.
        let mut two_workers = rounds(
            built,
            self.traffic,
            self.truth,
            &[Phase::Whole(2), Phase::Burst(2)],
            4.0 * budget,
            t,
            gate,
        );
        let w2_burst_us = two_workers.remove(1);
        let w2_mpps = two_workers.remove(0);
        let served_mpps = Measured::quietest(&self.served.mpps, Better::Higher);
        let mpps_w2 = Measured::quietest(&w2_mpps, Better::Higher);
        self.put("engine.mpps_w2", mpps_w2);
        self.put("engine.scale_w2_x", ratio(mpps_w2, served_mpps));
        self.put(
            "engine.burst_w2_us_p50",
            Measured::quietest(&w2_burst_us, Better::Lower),
        );
        self.put(
            "engine.burst_w2_us_p90",
            Measured::of(&w2_burst_us.concat(), 0.9),
        );
        let tiny = bursts(self.traffic, 2);
        let fork_join = Measured::median(&sample(budget, || {
            serve(built, &tiny[0], 2, t, gate).1 * 1e6
        }));
        self.put("engine.fork_join_us", fork_join);
        // The tails of the end-to-end bursts, over the whole window and not
        // its quietest stretch: interference is what a tail is made of.  A
        // percentile needs ten samples beyond it.
        let calls = self.served.burst_us.concat();
        if beyond(calls.len(), 0.99) < 10 {
            eprintln!("warning: engine.burst_us_p99 has fewer than ten samples beyond it");
        }
        self.put("engine.burst_us_p90", Measured::of(&calls, 0.9));
        self.put("engine.burst_us_p99", Measured::of(&calls, 0.99));
        EngineProbe {
            through_engine,
            served_mpps,
            w2_mpps,
        }
    }

    /// algos.hotcache: the counters of one pass, the cache's own
    /// operations, and the cached engine against the uncached one.
    fn hotcache(&mut self, t: &mut Tracer, through_engine: Measured) {
        let (built, budget) = (self.built, self.budget);
        let flat = &built.flat;
        let cached = self
            .config_w1
            .clone()
            .hot_cache(HOT_CACHE)
            .engine(Arc::clone(flat) as SharedClassifier);
        // Counters of exactly one pass that follows exactly one warm-up
        // pass on a fresh cache.
        let delta = t
            .span("algos.hotcache.pass", |t| {
                cached.classify_trace(&built.trace);
                let before = cached.cache_stats().expect("cache configured");
                cached.classify_trace(&built.trace);
                let delta = cached
                    .cache_stats()
                    .expect("cache configured")
                    .delta_since(&before);
                t.count("hits", delta.hits);
                t.count("misses", delta.misses);
                t.count("evictions", delta.evictions);
                delta
            })
            .0;
        self.put("algos.hotcache.hit_rate", Measured::exact(delta.hit_rate()));
        self.put(
            "algos.hotcache.evictions_per_kpkt",
            Measured::exact(delta.evictions as f64 * 1e3 / built.trace.len() as f64),
        );
        let to_mpps = |ns: Measured| Measured {
            value: 1e3 / ns.value,
            iqr: 1e3 / ns.value * (ns.iqr / ns.value),
            n: ns.n,
        };
        let cached_mpps = to_mpps(
            t.span("engine.classify_trace", |_| {
                engine_ns(budget, &cached, &built.trace)
            })
            .0,
        );
        let uncached_mpps = to_mpps(through_engine);
        self.put("algos.hotcache.uncached_mpps", uncached_mpps);
        self.put("algos.hotcache.gain_x", ratio(cached_mpps, uncached_mpps));

        let mut distinct = self.headers.clone();
        distinct.sort_unstable_by_key(|h| h.fields);
        distinct.dedup();
        let resident = &distinct[..distinct.len().min(HOT_CACHE.capacity / 2)];
        let cache = HotCache::new(HOT_CACHE);
        for header in resident {
            cache.fill(header, 0, MatchResult::NoMatch);
        }
        let m = t
            .span("algos.hotcache.probe", |_| {
                Measured::median(&sample(budget, || {
                    let (hits, s) =
                        secs(|| resident.iter().filter_map(|h| cache.probe(h, 0)).count());
                    std::hint::black_box(hits);
                    s * 1e9 / resident.len() as f64
                }))
            })
            .0;
        self.put("algos.hotcache.probe_hit_ns", m);
        // Never-seen keys: the workload's headers with a running number
        // folded into the source address, so every probe misses and, once
        // the cache is full, every fill evicts.
        let mut salt = 0u32;
        let m = t
            .span("algos.hotcache.miss_fill", |_| {
                Measured::median(&sample(budget, || {
                    let ((), s) = secs(|| {
                        for header in &self.headers[..BATCH] {
                            salt = salt.wrapping_add(1);
                            let mut key = *header;
                            key.fields[0] ^= salt.wrapping_mul(0x9E37_79B9);
                            if cache.probe(&key, 1).is_none() {
                                cache.fill(&key, 1, MatchResult::NoMatch);
                            }
                        }
                    });
                    s * 1e9 / BATCH as f64
                }))
            })
            .0;
        self.put("algos.hotcache.miss_fill_ns", m);
        let wrapped = CachedClassifier::new(Arc::clone(flat), HOT_CACHE);
        let m = t
            .span("algos.hotcache.serve_batch", |_| {
                batch_ns(budget, &self.headers, |h, out| {
                    wrapped.classify_batch(h, out)
                })
            })
            .0;
        self.put("algos.hotcache.serve_batch_ns_per_pkt", m);
    }

    /// algos.update, engine.live: a replace burst taken apart — patch,
    /// clone, snapshot — and the live engine with no writer.
    fn live(&mut self, t: &mut Tracer, served_mpps: Measured) {
        let (built, budget) = (self.built, self.budget);
        let flat = &built.flat;
        let fresh: Vec<Rule> = ClassBenchGenerator::new(SeedStyle::Acl, self.seed ^ 0xC0_FFEE)
            .generate(512)
            .rules()
            .to_vec();
        let (mut private, first_clone) = t.span("engine.live.clone", |_| (**flat).clone());
        let mut next = 0usize;
        let m = t
            .span("algos.update.apply", |_| {
                Measured::median(&sample(budget, || {
                    let id = (next % built.rules.len()) as u32;
                    let rule = Rule::new(id, fresh[next % fresh.len()].ranges);
                    next += 1;
                    let (applied, s) =
                        secs(|| private.delete(id).and_then(|()| private.insert(rule)));
                    applied.expect("replacing a live rule under its own id");
                    s * 1e6
                }))
            })
            .0;
        self.put("algos.update.apply_us", m);
        drop(private);
        // The two clones the probes need anyway are samples too: a clone of
        // the 64,000-rule arena takes a second.
        let (for_live, second_clone) = t.span("engine.live.clone", |_| (**flat).clone());
        let m = t
            .span("engine.live.clone", |_| {
                let mut clones = vec![first_clone * 1e6, second_clone * 1e6];
                let started = Instant::now();
                while clones.len() < 3 || started.elapsed().as_secs_f64() < budget {
                    let (copy, s) = secs(|| (**flat).clone());
                    drop(copy);
                    clones.push(s * 1e6);
                }
                Measured::median(&clones)
            })
            .0;
        self.put("engine.live.clone_us", m);
        // On `churn10k` the writer is idle by now: the quiescent engine is
        // the same `LiveEngine` the churn was served by.
        let fresh_live;
        let (live, engine): (&LiveClassifier<Flat>, &LiveEngine<Flat>) = match &built.front {
            Front::Live { live, w1, .. } => (live, w1),
            _ => {
                let live = Arc::new(LiveClassifier::new(for_live));
                fresh_live = (Arc::clone(&live), self.config_w1.live_engine(live));
                (&fresh_live.0, &fresh_live.1)
            }
        };
        let m = Measured::median(&sample(budget, || {
            let ((), s) = secs(|| {
                for _ in 0..1_000 {
                    std::hint::black_box(live.snapshot());
                }
            });
            s * 1e9 / 1e3
        }));
        self.put("engine.live.snapshot_ns", m);
        let quiescent = t
            .span("engine.classify_trace", |_| {
                // Same statistic as `mpps`, which it is compared with.
                let passes = sample(2.0 * budget, || {
                    let (run, s) = secs(|| engine.classify_trace(&built.trace));
                    run.results.len() as f64 / s * 1e-6
                });
                Measured::quietest(&[passes], Better::Higher)
            })
            .0;
        self.put("engine.live.quiescent_mpps", quiescent);
        // What only a churned structure has.
        let (churn_x, update_stats, late_x) = match &built.front {
            Front::Live { live, .. } => {
                let mut late = self.served.late_us.clone();
                late.sort_by(f64::total_cmp);
                (
                    ratio(served_mpps, quiescent),
                    live.with_writer(|w| w.update_stats()),
                    quantile(&late, 0.99) * 1e3 / CHURN_INTERVAL_NS as f64,
                )
            }
            _ => (Measured::exact(0.0), Default::default(), 0.0),
        };
        self.put("engine.live.churn_vs_quiescent_x", churn_x);
        self.put(
            "algos.update.reflattens",
            Measured::exact(update_stats.reflattens as f64),
        );
        self.put(
            "algos.update.overflow_rules",
            Measured::exact(update_stats.overflow_rules as f64),
        );
        self.put(
            "engine.live.generations",
            Measured::exact(self.served.generations as f64),
        );
        self.put("bench.churn.late_p99_x", Measured::exact(late_x));
    }

    /// engine.tenant: the router against the sum of its tenants served
    /// alone, its fairness accounting, and admission.
    fn tenant(&mut self, t: &mut Tracer) {
        let (built, budget) = (self.built, self.budget);
        // Off `tenants16_skew` the router serves the workload's arena as
        // its only tenant.
        let single;
        let (router, tagged, parts): (&TenantRouter<Flat>, TaggedTrace, Vec<(TenantId, &Trace)>) =
            match &built.front {
                Front::Tenants {
                    w1,
                    tenants,
                    tagged,
                    ..
                } => (
                    w1,
                    tagged.clone(),
                    tenants.iter().map(|tn| (tn.id, &tn.trace)).collect(),
                ),
                _ => {
                    single = self
                        .config_w1
                        .tenant_router([(TenantSpec::new("only"), (*built.flat).clone())]);
                    let parts = vec![(single.tenant_ids()[0], &built.trace)];
                    (&single, single.interleave("single", &parts), parts)
                }
            };
        let mut last = None;
        let routed = t
            .span("engine.classify_tagged", |_| {
                Measured::median(&sample(budget, || {
                    let (run, s) = secs(|| router.classify_tagged(&tagged));
                    let mpps = run.results.len() as f64 / s * 1e-6;
                    last = Some(run);
                    mpps
                }))
            })
            .0;
        let run = last.expect("at least one routed pass");
        let solo = t
            .span("engine.classify_solo", |_| {
                Measured::median(&sample(budget, || {
                    let ((), s) = secs(|| {
                        for (id, trace) in &parts {
                            std::hint::black_box(router.classify_solo(*id, trace).results.len());
                        }
                    });
                    tagged.len() as f64 / s * 1e-6
                }))
            })
            .0;
        self.put("engine.tenant.solo_sum_mpps", solo);
        self.put("engine.tenant.router_vs_solo_x", ratio(routed, solo));
        self.put(
            "engine.tenant.wjain",
            Measured::exact(run.fairness.weighted_jain),
        );
        let slo_min = run
            .tenants
            .iter()
            .map(|r| r.slo_rel)
            .fold(f64::MAX, f64::min);
        self.put("engine.tenant.slo_rel_min", Measured::exact(slo_min));
        let p99_max = run
            .tenants
            .iter()
            .map(|r| r.batch_latency.p99_ns)
            .max()
            .unwrap_or(0);
        self.put(
            "engine.tenant.batch_us_p99_max",
            Measured::exact(p99_max as f64 * 1e-3),
        );
        let busy: u64 = run.tenants.iter().map(|r| r.busy_ns).sum();
        self.put(
            "engine.tenant.busy_frac",
            Measured::exact(busy as f64 / run.report.wall_ns.max(1) as f64),
        );
        let m = t
            .span("engine.tenant.interleave", |_| {
                Measured::median(&sample(budget, || {
                    let (mixed, s) = secs(|| router.interleave("probe", &parts));
                    s * 1e9 / mixed.len() as f64
                }))
            })
            .0;
        self.put("engine.tenant.interleave_ns_per_pkt", m);
        // One pre-built 500-rule tenant admitted and evicted.
        let guest_rules = ClassBenchGenerator::new(SeedStyle::Acl, 500).generate(500);
        let guest = HiCutsClassifier::build(&guest_rules, &Default::default()).flatten();
        let (mut admit_us, mut evict_us) = (Vec::new(), Vec::new());
        t.span("engine.tenant.admit_evict", |_| {
            for round in 0..9 {
                let classifier = guest.clone();
                let (id, s) =
                    secs(|| router.admit(TenantSpec::new(format!("guest{round}")), classifier));
                let id = id.expect("no budget is configured, admission cannot be refused");
                admit_us.push(s * 1e6);
                let (evicted, s) = secs(|| router.evict(id));
                evicted.expect("the guest was just admitted");
                evict_us.push(s * 1e6);
            }
        });
        self.put("engine.tenant.admit_us", Measured::median(&admit_us));
        self.put("engine.tenant.evict_us", Measured::median(&evict_us));
    }

    /// core, energy: the accelerator and the energy models at paper scale.
    fn hw(&mut self, t: &mut Tracer) {
        let budget = self.budget;
        let (rules, part) = (&self.paper_rules, &self.paper_trace);
        let (program, build_s) =
            t.span("core.build", |_| build_program(rules, CutAlgorithm::HiCuts));
        let hyper = t
            .span("core.build", |_| {
                build_program(rules, CutAlgorithm::HyperCuts)
            })
            .0;
        let mut reports = Vec::new();
        let mut host_ns = Vec::new();
        for program in [&program, &hyper] {
            let accelerator = Accelerator::new(program);
            let mut last = None;
            let m = t
                .span("hw.classify_trace", |_| {
                    Measured::median(&sample(budget, || {
                        let (report, s) = secs(|| accelerator.classify_trace(part));
                        last = Some(report);
                        s * 1e9 / part.len() as f64
                    }))
                })
                .0;
            host_ns.push(m);
            reports.push(last.expect("at least one replay"));
        }
        let behind_engine = self
            .config_w1
            .engine(Arc::new(AcceleratorClassifier::new(program.clone())));
        let engine_host_ns = t
            .span("engine.classify_trace", |_| {
                engine_ns(budget, &behind_engine, part)
            })
            .0;
        // The software HiCuts operation mix of the same packets, priced on
        // the SA-1100 model.
        let software = HiCutsClassifier::build(rules, &Default::default());
        let mut stats = LookupStats::new();
        for entry in part.entries() {
            software.classify_with_stats(&entry.header, &mut stats);
        }
        let sa1100_nj = Sa1100Model::new().lookup_energy_j(&stats) * 1e9 / part.len() as f64;
        let asic_nj = simulate_hardware(&reports[0]).nj_per_pkt;
        let sim_hyper = simulate_hardware(&reports[1]);
        let fpga_nj = AcceleratorEnergyModel::fpga().energy_per_packet_j(&reports[0]) * 1e9;
        let tcam_nj = TcamPart::ayama_10128_at_77mhz().energy_per_search_j() * 1e9;

        self.put("core.builder.build_s", Measured::exact(build_s));
        self.put("core.hw.hicuts.host_ns_per_pkt", host_ns[0]);
        self.put("core.hw.hypercuts.host_ns_per_pkt", host_ns[1]);
        self.put(
            "core.hw.hypercuts.cycles_per_pkt",
            Measured::exact(sim_hyper.cycles_per_pkt),
        );
        self.put(
            "core.hw.hypercuts.accesses_per_pkt",
            Measured::exact(sim_hyper.accesses_per_pkt),
        );
        self.put("core.hw.engine_ns_per_pkt", engine_host_ns);
        self.put(
            "core.hw.words",
            Measured::exact(program.word_count() as f64),
        );
        self.put("energy.fpga_nj_per_pkt", Measured::exact(fpga_nj));
        self.put("energy.sa1100_nj_per_pkt", Measured::exact(sa1100_nj));
        self.put(
            "energy.asic_vs_sa1100_x",
            Measured::exact(sa1100_nj / asic_nj),
        );
        self.put("energy.tcam_nj_per_search", Measured::exact(tcam_nj));
    }
}
