//! The `serve` workload: one warm, registry-hosted `Engine` with two
//! query workers, and one closed-loop client that sends one
//! single-query request and waits for its reply before sending the next.
//!
//! One client, not two: every single-query request locks worker 0, so a
//! second client's latency is decided by how soon the host wakes its
//! idle vCPU when the lock is released. On a shared host that switches
//! for minutes at a time between prompt hand-overs, hand-overs on the
//! scheduler tick (median latency 20 ms) and one client starving the
//! other for up to a second (median 8 ms, throughput 30% higher), which
//! no calibration of the program's speed corrects.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpumem::baselines::{MemFinder, Mummer};
use gpumem::core::{Engine, Registry, RunOptions, RunRequest, Trace};
use gpumem::seq::{Mem, PackedSeq};
use gpumem::sim::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calibrate::HostSpeed;
use crate::layers::{self, EngineLayer, IndexLayer};
use crate::report::{num, text};
use crate::stats::{self, interquartile_mean, mean, median, percentile, secs};
use crate::workloads::serve_inputs;
use crate::{verdict, Checker, Counters, Metric, Outcome, Settings};

/// Length of one round of the timed window. Each round opens with a
/// fresh engine set-up, and its requests are scaled by the calibrations
/// flanking it, so a round must be short beside the host's speed
/// switches.
const ROUND: Duration = Duration::from_secs(1);
/// Query workers of the engine.
const WORKERS: usize = 2;
/// Registry byte budget: far above one reference's resident indexes, so
/// the reference stays resident and nothing churns.
const REGISTRY_BUDGET: u64 = 256 << 20;

/// One completed request, as the client saw it. The client compares the
/// reply with the oracle at once and keeps only what the report needs.
struct Sample {
    input: usize,
    latency: Duration,
    verdict: Result<Counters, String>,
    /// `index_wall + match_wall` the engine recorded for the request.
    engine_wall: Duration,
    modeled_s: f64,
    pool_peak_bytes: u64,
}

/// What the engines of all rounds counted, summed.
#[derive(Default)]
struct EngineTotals {
    /// Requests of each round's busiest worker.
    busiest_queries: u64,
    queries: u64,
    build_wait_s: f64,
    registry_hits: u64,
    registry_misses: u64,
    registry_evictions: u64,
}

pub fn run(settings: &Settings) -> Outcome {
    let inputs = serve_inputs(settings.seed, settings.tiny);
    let (queries, config) = (&inputs.queries, &inputs.config);
    let reference = Arc::new(inputs.reference);
    let oracle_finder = Mummer::build(&reference);
    let oracles: Vec<_> = queries
        .iter()
        .map(|q| oracle_finder.find_mems(q, config.min_len))
        .collect();
    drop(oracle_finder);
    let mut checker = Checker::new(queries.len(), settings.corrupt);
    let mut problems = Vec::new();

    // The timed window is cut into rounds. Each round sets up afresh
    // (`EngineBuilder::build` plus `Engine::warm` in a fresh registry)
    // and then runs the closed loop on the new engine until the round's
    // share of the window is used. Set-up and closed loop are each
    // flanked by calibrations, and every latency is also kept scaled to
    // the reference host (`calibrate`). The client is this thread, so
    // the calibrations run where its requests do. It walks a seeded
    // shuffle of the pool across rounds, so every query is served within
    // the first pass.
    let order = shuffled(queries.len(), settings.seed + 1_000);
    let rounds = (settings.seconds.as_secs_f64() / ROUND.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    let mut cursor = 0usize;
    let mut speed = HostSpeed::new();
    let (mut setup, mut setup_scaled) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    let mut samples: Vec<Sample> = Vec::new();
    let mut latency_scaled_ms = Vec::new();
    let mut serving_s = 0.0;
    let mut totals = EngineTotals::default();
    let mut device_peak_bytes = 0u64;
    let mut served = None;
    let window = Instant::now();
    for round in 1..=rounds {
        drop(served.take());
        let registry = Arc::new(Registry::with_budget(
            DeviceSpec::tesla_k20c(),
            REGISTRY_BUDGET,
        ));
        let ((engine, report), wall, factor) = speed.measure(|| {
            let engine = Engine::builder(Arc::clone(&reference))
                .config(config.clone())
                .registry(Arc::clone(&registry))
                .name("pair")
                .threads(WORKERS)
                .build()
                .expect("the serve configuration is valid");
            let report = engine.warm();
            (engine, report)
        });
        setup.push(wall);
        setup_scaled.push(wall.as_secs_f64() * factor);
        device_peak_bytes = device_peak_bytes.max(report.stats.pool_peak_bytes);
        let (engine, _) = served.insert((engine, report));
        let deadline = window + settings.seconds.mul_f64(round as f64 / rounds as f64);
        let seen = samples.len();
        let ((), wall, factor) = speed.measure(|| {
            while samples.len() == seen || Instant::now() < deadline {
                let input = order[cursor % order.len()];
                cursor += 1;
                samples.push(request(engine, queries, &oracles, input, settings));
            }
        });
        serving_s += wall.as_secs_f64();
        latency_scaled_ms.extend(
            samples[seen..]
                .iter()
                .map(|s| s.latency.as_secs_f64() * 1e3 * factor),
        );
        let metrics = engine.metrics();
        totals.busiest_queries += metrics.workers.iter().map(|w| w.queries).max().unwrap_or(0);
        totals.queries += metrics.workers.iter().map(|w| w.queries).sum::<u64>();
        totals.build_wait_s += metrics.index_cache.build_wait_s;
        totals.registry_hits += metrics.registry.hits;
        totals.registry_misses += metrics.registry.misses;
        totals.registry_evictions += metrics.registry.evictions;
    }
    let (engine, warm_report) = served.expect("at least one round");
    let rss_bytes = stats::peak_rss_bytes();
    if totals.registry_evictions > 0 {
        problems.push(format!(
            "the registry evicted {} times under a budget meant to hold the reference",
            totals.registry_evictions
        ));
    }

    let mut latency_ms = Vec::with_capacity(samples.len());
    let mut overhead_ms = Vec::with_capacity(samples.len());
    let mut modeled = vec![None; queries.len()];
    for sample in samples {
        let ms = sample.latency.as_secs_f64() * 1e3;
        latency_ms.push(ms);
        if checker.record(sample.input, sample.verdict) {
            overhead_ms.push(ms - sample.engine_wall.as_secs_f64() * 1e3);
            modeled[sample.input] = Some(sample.modeled_s);
            device_peak_bytes = device_peak_bytes.max(sample.pool_peak_bytes);
        }
    }
    // Mean per request over the distinct queries served: deterministic
    // for a seed however many requests the client completed.
    let modeled: Vec<f64> = modeled.into_iter().flatten().collect();

    let mut outcome = Outcome {
        end_to_end: vec![
            Metric::new("setup_s", interquartile_mean(&setup_scaled), "s"),
            Metric::new(
                "scaled_wall_s",
                interquartile_mean(&latency_scaled_ms) / 1e3,
                "s",
            ),
            Metric::new("modeled_s", mean(&modeled), "s"),
            Metric::new("peak_rss_mb", rss_bytes as f64 / 1e6, "MB"),
            Metric::new("device_peak_mb", device_peak_bytes as f64 / 1e6, "MB"),
        ],
        context: vec![
            ("ref_len", num(reference.len() as f64)),
            ("query_pool", num(queries.len() as f64)),
            (
                "query_len",
                num(queries.first().map_or(0, PackedSeq::len) as f64),
            ),
            ("min_len", num(f64::from(config.min_len))),
            ("seed_len", num(config.seed_len as f64)),
            ("oracle", text("gpumem_baselines::Mummer")),
            ("operation", text("Engine::execute")),
            ("clients", num(1.0)),
            ("workers", num(WORKERS as f64)),
            ("setups", num(setup.len() as f64)),
            ("setup_wall_p50_s", num(median(&secs(&setup)))),
            ("calibration_p50_s", num(median(&speed.calibrations))),
            ("requests", num(latency_ms.len() as f64)),
            // With one closed-loop client this is the reciprocal of the
            // mean latency, not a figure of its own, so it is recorded
            // here only.
            ("qps", num(latency_ms.len() as f64 / serving_s)),
            (
                "latency_quantiles_ms",
                format!(
                    "{{{}}}",
                    [50.0, 90.0, 95.0, 99.0, 99.9, 100.0]
                        .map(|p| format!("\"p{p}\": {}", num(percentile(&latency_ms, p))))
                        .join(", ")
                ),
            ),
        ],
        ..Outcome::default()
    };

    if settings.trace {
        let engine_layer = EngineLayer {
            overhead_ms_p50: median(&overhead_ms),
            worker_max_share: totals.busiest_queries as f64 / totals.queries.max(1) as f64,
            build_wait_s: totals.build_wait_s,
            registry_hits: totals.registry_hits,
            registry_misses: totals.registry_misses,
            registry_resident_bytes: engine.metrics().registry.resident_bytes,
        };
        let index = IndexLayer {
            build_wall_s: warm_report.wall.as_secs_f64(),
            stats: warm_report.stats.clone(),
            rows_built: warm_report.rows,
            resident_bytes: engine.session().resident_bytes(),
        };

        // One untraced and one traced pass over the pool, one request at
        // a time; the traced pass supplies the spans.
        let traced = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        let mut pass_s = [0.0; 2];
        let mut traces: Vec<Trace> = Vec::with_capacity(queries.len());
        let mut results = Vec::with_capacity(queries.len());
        for (pass, options) in [RunOptions::default(), traced].into_iter().enumerate() {
            for (input, query) in queries.iter().enumerate() {
                let t = Instant::now();
                let out = engine
                    .execute(&RunRequest::query(query).options(options.clone()))
                    .pop()
                    .expect("one query yields one output");
                pass_s[pass] += t.elapsed().as_secs_f64();
                checker.check(input, out.as_ref().map(|o| &o.result), &oracles[input]);
                if let Ok(out) = out {
                    if let Some(trace) = out.trace {
                        traces.push(trace);
                        results.push(out.result.stats);
                    }
                }
            }
        }
        outcome.per_layer = layers::metrics(
            &traces,
            &results,
            engine.spec().warp_size,
            &index,
            &engine_layer,
            pass_s[1] / pass_s[0] - 1.0,
            &mut problems,
        );
    }

    outcome.attempted = checker.attempted;
    outcome.failed = checker.failed;
    outcome.problems = checker.problems;
    outcome.problems.append(&mut problems);
    outcome
}

/// Send query `input` as one request and compare the reply with its
/// oracle.
fn request(
    engine: &Engine,
    queries: &[PackedSeq],
    oracles: &[Vec<Mem>],
    input: usize,
    settings: &Settings,
) -> Sample {
    let start = Instant::now();
    let out = engine
        .execute(&RunRequest::query(&queries[input]))
        .pop()
        .expect("one query yields one output");
    let latency = start.elapsed();
    let result = out.as_ref().map(|o| &o.result);
    let stats = result.ok().map(|r| &r.stats);
    Sample {
        input,
        latency,
        verdict: verdict(result, &oracles[input], settings.corrupt),
        engine_wall: stats.map_or(Duration::ZERO, |s| s.index_wall + s.match_wall),
        modeled_s: stats.map_or(0.0, |s| s.index.modeled_secs() + s.matching.modeled_secs()),
        pool_peak_bytes: stats.map_or(0, |s| {
            s.index.pool_peak_bytes.max(s.matching.pool_peak_bytes)
        }),
    }
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}
