//! The one-shot workloads (`pair`, `long_l`, `repeats`): one reference
//! against one query through `Gpumem::run`, the time to solution.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gpumem::baselines::{MemFinder, Mummer};
use gpumem::core::{Gpumem, RefSession};
use gpumem::sim::DeviceSpec;

use crate::calibrate::HostSpeed;
use crate::layers::{self, EngineLayer, IndexLayer};
use crate::report::{num, text};
use crate::stats::{self, interquartile_mean, median, secs};
use crate::workloads::{pair_inputs, Workload, QUICK_SEED};
use crate::{Checker, Metric, Outcome, Settings};

/// Rounds the timed window is cut into. Each starts with a fresh
/// set-up, so set-ups and timed runs see the same mix of host speeds.
const ROUNDS: usize = 16;
/// Untraced and traced run pairs per `--trace 1` invocation.
const TRACED_RUNS: usize = 3;
/// Index-only builds per `--trace 1` invocation.
const INDEX_BUILDS: usize = 3;

/// The committed `quick` baseline (`BENCH_pipeline.json`, `current`):
/// `pair` at `QUICK_SEED` is the same workload and must model the same.
const QUICK_MODELED_INDEX_S: &str = "0.001314";
const QUICK_MODELED_MATCH_S: &str = "0.007166";
const QUICK_LAUNCHES: u64 = 1275;
const QUICK_MEMS: usize = 41_040;

pub fn run(workload: Workload, settings: &Settings) -> Outcome {
    let inputs = pair_inputs(workload, settings.seed, settings.tiny);
    let (reference, query, config) = (&inputs.reference, &inputs.query, &inputs.config);
    let oracle = Mummer::build(reference).find_mems(query, config.min_len);
    let mut checker = Checker::new(1, settings.corrupt);
    let mut problems = Vec::new();

    // The timed window is cut into rounds. Each round sets up afresh
    // (construction plus the first, untimed run) and then times runs on
    // the new instance until the round's share of the window is used.
    // Every set-up and run is flanked by calibrations and also kept
    // scaled to the reference host (`calibrate`).
    let mut speed = HostSpeed::new();
    let (mut setup, mut setup_scaled) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    let (mut walls, mut walls_scaled) = (Vec::new(), Vec::new());
    let mut modeled_s = 0.0;
    let mut device_peak_bytes = 0u64;
    let mut gpumem = None;
    let window = Instant::now();
    for round in 1..=ROUNDS {
        let ((instance, first), wall, factor) = speed.measure(|| {
            let instance = Gpumem::new(config.clone());
            let first = instance.run(reference, query);
            (instance, first)
        });
        setup.push(wall);
        setup_scaled.push(wall.as_secs_f64() * factor);
        let instance = gpumem.insert(instance);
        checker.check(0, first.as_ref(), &oracle);
        if let (Ok(first), 1, Workload::Pair, false, QUICK_SEED) =
            (&first, round, workload, settings.tiny, settings.seed)
        {
            cross_check_quick(first, &mut problems);
        }
        let deadline = window + settings.seconds.mul_f64(round as f64 / ROUNDS as f64);
        loop {
            let (result, wall, factor) =
                speed.measure(|| instance.run(black_box(reference), black_box(query)));
            walls.push(wall);
            walls_scaled.push(wall.as_secs_f64() * factor);
            if let Ok(result) = &result {
                let s = &result.stats;
                modeled_s = s.index.modeled_secs() + s.matching.modeled_secs();
                device_peak_bytes = device_peak_bytes
                    .max(s.index.pool_peak_bytes)
                    .max(s.matching.pool_peak_bytes);
            }
            checker.check(0, result.as_ref(), &oracle);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let gpumem = gpumem.expect("at least one round");
    let rss_bytes = stats::peak_rss_bytes();
    let wall = secs(&walls);

    let mut outcome = Outcome {
        end_to_end: vec![
            Metric::new("setup_s", interquartile_mean(&setup_scaled), "s"),
            Metric::new("scaled_wall_s", interquartile_mean(&walls_scaled), "s"),
            Metric::new("modeled_s", modeled_s, "s"),
            Metric::new("peak_rss_mb", rss_bytes as f64 / 1e6, "MB"),
            Metric::new("device_peak_mb", device_peak_bytes as f64 / 1e6, "MB"),
        ],
        context: vec![
            ("ref_len", num(reference.len() as f64)),
            ("query_len", num(query.len() as f64)),
            ("min_len", num(f64::from(config.min_len))),
            ("seed_len", num(config.seed_len as f64)),
            ("oracle", text("gpumem_baselines::Mummer")),
            ("oracle_mems", num(oracle.len() as f64)),
            ("operation", text("Gpumem::run")),
            ("setups", num(setup.len() as f64)),
            ("setup_wall_p50_s", num(median(&secs(&setup)))),
            ("timed_runs", num(wall.len() as f64)),
            ("wall_p50_s", num(median(&wall))),
            ("calibration_p50_s", num(median(&speed.calibrations))),
            (
                "wall_samples_s",
                format!(
                    "[{}]",
                    wall.iter().map(|&w| num(w)).collect::<Vec<_>>().join(", ")
                ),
            ),
        ],
        ..Outcome::default()
    };

    if settings.trace {
        // Traced re-runs, after the timed region so recording cannot
        // perturb it; the last one supplies the spans. Each follows an
        // untraced run of its own for the overhead: the host's speed
        // drifts over seconds, and adjacent runs share it.
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let mut last = None;
        for _ in 0..TRACED_RUNS {
            let start = Instant::now();
            let plain = gpumem.run(reference, query);
            untraced_s += start.elapsed().as_secs_f64();
            checker.check(0, plain.as_ref(), &oracle);
            let start = Instant::now();
            let traced = gpumem.run_traced(reference, query);
            traced_s += start.elapsed().as_secs_f64();
            checker.check(0, traced.as_ref().map(|(r, _)| r), &oracle);
            last = traced.ok();
        }
        let index = index_layer(&gpumem, reference, &mut problems);
        if let Some((result, trace)) = last {
            let overhead = traced_s / untraced_s - 1.0;
            outcome.per_layer = layers::metrics(
                &[trace],
                &[result.stats],
                gpumem.device().spec().warp_size,
                &index,
                &EngineLayer::default(),
                overhead,
                &mut problems,
            );
        }
    }

    outcome.attempted = checker.attempted;
    outcome.failed = checker.failed;
    outcome.problems = checker.problems;
    outcome.problems.append(&mut problems);
    outcome
}

/// The index layer alone: `Gpumem::build_index_only` for build time and
/// modeled cost, and a warmed `RefSession` for the bytes the row
/// indexes occupy when held resident.
fn index_layer(
    gpumem: &Gpumem,
    reference: &gpumem::seq::PackedSeq,
    problems: &mut Vec<String>,
) -> IndexLayer {
    let mut walls: Vec<Duration> = Vec::with_capacity(INDEX_BUILDS);
    let mut report = None;
    for _ in 0..INDEX_BUILDS {
        let start = Instant::now();
        let built = gpumem.build_index_only(black_box(reference));
        walls.push(start.elapsed());
        report = Some(built);
    }
    let report = report.expect("at least one index build");
    let resident_bytes = match RefSession::new(
        reference.clone().into(),
        gpumem.config().clone(),
        &DeviceSpec::tesla_k20c(),
    ) {
        Ok(session) => {
            session.warm(gpumem.device());
            session.resident_bytes()
        }
        Err(err) => {
            problems.push(format!("resident index session: {err}"));
            0
        }
    };
    IndexLayer {
        build_wall_s: median(&secs(&walls)),
        stats: report.stats,
        rows_built: report.rows,
        resident_bytes,
    }
}

/// `pair` at the `quick` seed must reproduce the committed baseline's
/// modeled figures, launch count and MEM count exactly.
fn cross_check_quick(result: &gpumem::core::GpumemResult, problems: &mut Vec<String>) {
    let s = &result.stats;
    let got = (
        format!("{:.6}", s.index.modeled_secs()),
        format!("{:.6}", s.matching.modeled_secs()),
        s.index.launches + s.matching.launches,
        result.mems.len(),
    );
    let want = (
        QUICK_MODELED_INDEX_S.to_string(),
        QUICK_MODELED_MATCH_S.to_string(),
        QUICK_LAUNCHES,
        QUICK_MEMS,
    );
    if got != want {
        problems.push(format!(
            "pair at seed {QUICK_SEED} (modeled index s, modeled match s, launches, MEMs) = \
             {got:?}, the committed quick baseline has {want:?}"
        ));
    }
}
