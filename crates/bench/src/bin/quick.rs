//! Quick end-to-end pipeline benchmark — the tracked perf baseline.
//!
//! Runs four scenarios on seeded datasets, identical on every machine
//! and every run, and writes one report, `results/BENCH_pipeline.json`
//! (gitignored), with one object each:
//!
//! * `current` — GPUMEM on the smoke pair, the fastest of [`ITERS`]
//!   runs on one `Gpumem` (steady-state buffer reuse). A traced rerun
//!   writes `results/BENCH_pipeline_trace.json` (Chrome Trace Event
//!   format, openable in Perfetto) and splits `modeled_match_s` by
//!   in-kernel phase;
//! * `batch` — [`BATCH_QUERIES`] short queries as cold one-shot runs
//!   versus one request to a fresh `Engine`;
//! * `seedmode_l{25,100,300}` — `SeedMode::RefOnly` against copMEM-style
//!   `SeedMode::DualSampled`; `modeled_ratio` is ref over dual;
//! * `registry` — zipf-skewed traffic under a byte budget.
//!
//! Modeled device time is asserted identical across runs and under
//! tracing: the simulator is deterministic, and host-side work must
//! never move it. Each figure is rounded to the precision the report has
//! always written. Under `GPUMEM_BLESS=1` the report also rewrites the
//! tracked baseline `BENCH_pipeline.json`.
//!
//! With `GPUMEM_BENCH_CHECK=1` the run is the CI bench-smoke gate: it
//! fails unless the tracked baseline exists, parses and agrees with the
//! fresh report. Every field but the host-timed ones ([`HOST_TIMED`])
//! must equal the baseline exactly; the [`BANDED`] ones fail when they
//! regress by more than [`MAX_REGRESS`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{Device, DeviceSpec};
use gpumem_core::{
    Engine, Gpumem, GpumemConfig, GpumemStats, Registry, RunRequest, SeedMode, Trace,
};
use gpumem_index::max_coprime_steps;
use gpumem_seq::{FastaRecord, GenomeModel, MutationModel, PackedSeq, SeqSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;
use serde::Serialize;

/// The smoke pair: a mammalian-model reference and a mutated copy, big
/// enough for a multi-row, multi-column tiling.
const REF_LEN: usize = 120_000;
const MIN_LEN: u32 = 25;
const SEED_LEN: usize = 8;
const THREADS_PER_BLOCK: usize = 64;
const BLOCKS_PER_TILE: usize = 4;
const DATA_SEED: u64 = 2024;

/// Timed runs of the pipeline and batch scenarios; each reports its fastest.
const ITERS: usize = 3;

/// Batch scenario: short queries, so per-query index rebuilds dominate
/// the cold path and the engine has something to amortize.
const BATCH_QUERIES: usize = 16;
const BATCH_QUERY_LEN: usize = 2_000;

/// Seed-mode ablation on a lightly mutated pair (so length-300 MEMs
/// occur). The dual win is the shrinking query-probe count: it grows
/// with `L`.
const SEEDMODE_LS: [u32; 3] = [25, 100, 300];
const SEEDMODE_REF_LEN: usize = 40_000;

/// Registry scenario: K references under a budget that holds about half
/// of them, touched with zipf-skewed traffic (rank-1/i weights).
const REGISTRY_REFS: usize = 6;
const REGISTRY_REF_LEN: usize = 12_000;
const REGISTRY_TOUCHES: usize = 60;

/// Name endings of the fields the host times (every `*wall_s`, the
/// rates) or that depend on its worker count (`pool_allocs`): they vary
/// from run to run, so the check compares none of them exactly. Every
/// other field comes from the deterministic simulator or the datasets.
const HOST_TIMED: &[&str] = &[
    "wall_s",
    "qps_cold",
    "qps_batch",
    "speedup_qps",
    "pool_allocs",
];

/// Host-timed fields the check bands: `(path, higher is better)`.
const BANDED: &[(&str, bool)] = &[
    ("current.wall_s", false),
    ("current.match_wall_s", false),
    ("batch.qps_batch", true),
];

/// How far a [`BANDED`] field may regress against the baseline.
const MAX_REGRESS: f64 = 0.20;

#[derive(Serialize)]
struct Report {
    schema: u32,
    dataset: Dataset,
    current: Pipeline,
    batch: Batch,
    seedmode_l25: SeedModeAblation,
    seedmode_l100: SeedModeAblation,
    seedmode_l300: SeedModeAblation,
    registry: RegistryChurn,
}

#[derive(Serialize)]
struct Dataset {
    ref_len: usize,
    query_len: usize,
    min_len: u32,
    seed_len: usize,
    threads_per_block: usize,
    blocks_per_tile: usize,
    tiles: String,
    data_seed: u64,
    iters: usize,
}

#[derive(Serialize)]
struct Pipeline {
    wall_s: f64,
    index_wall_s: f64,
    match_wall_s: f64,
    modeled_index_s: f64,
    modeled_match_s: f64,
    modeled_generate_s: f64,
    modeled_extend_s: f64,
    modeled_combine_s: f64,
    warp_efficiency: f64,
    divergence_rate: f64,
    block_occupancy: f64,
    pool_allocs: u64,
    launches: u64,
    mems: usize,
}

#[derive(Serialize)]
struct Batch {
    queries: usize,
    query_len: usize,
    cold_wall_s: f64,
    batch_wall_s: f64,
    qps_cold: f64,
    qps_batch: f64,
    speedup_qps: f64,
    index_launches_cold: u64,
    index_launches_batch: u64,
    mems: usize,
}

#[derive(Serialize)]
struct SeedModeAblation {
    l: u32,
    k1: usize,
    k2: usize,
    ref_wall_s: f64,
    dual_wall_s: f64,
    ref_modeled_match_s: f64,
    dual_modeled_match_s: f64,
    modeled_ratio: f64,
    mems: usize,
}

#[derive(Serialize)]
struct RegistryChurn {
    references: usize,
    touches: usize,
    budget_bytes: u64,
    per_ref_bytes: u64,
    hit_rate: f64,
    evictions: u64,
    peak_resident_bytes: u64,
    resident_bytes: u64,
    wall_s: f64,
}

/// `x` rounded to `places` decimals, exactly as `{:.places$}` writes it.
fn fixed(x: f64, places: usize) -> f64 {
    format!("{x:.places$}").parse().expect("parses")
}

/// Run `f`, returning its wall time in seconds and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// `codes` under random substitutions and indels drawn from `seed`.
fn mutated(codes: &[u8], sub_rate: f64, indel_rate: f64, seed: u64) -> PackedSeq {
    let model = MutationModel {
        sub_rate,
        indel_rate,
    };
    PackedSeq::from_codes(&model.apply(codes, &mut StdRng::seed_from_u64(seed)))
}

fn config(min_len: u32, mode: SeedMode) -> GpumemConfig {
    GpumemConfig::builder(min_len)
        .seed_len(SEED_LEN)
        .threads_per_block(THREADS_PER_BLOCK)
        .blocks_per_tile(BLOCKS_PER_TILE)
        .seed_mode(mode)
        .build()
        .expect("valid quick config")
}

fn engine(reference: &PackedSeq, config: &GpumemConfig) -> Engine {
    Engine::builder(reference.clone())
        .config(config.clone())
        .spec(DeviceSpec::tesla_k20c())
        .build()
        .expect("quick workload fits")
}

/// The pipeline scenario: the fastest of [`ITERS`] runs, then one
/// traced rerun whose phases split the modeled match time. Returns the
/// figures, the run's statistics and the trace.
fn measure_pipeline(
    gpumem: &Gpumem,
    reference: &PackedSeq,
    query: &PackedSeq,
) -> (Pipeline, GpumemStats, Trace) {
    let runs: Vec<_> = (0..ITERS)
        .map(|_| timed(|| gpumem.run(reference, query).expect("quick workload fits")))
        .collect();
    let cycles = |s: &GpumemStats| (s.index.device_cycles, s.matching.device_cycles);
    let first = &runs[0].1;
    assert!(
        runs.iter()
            .all(|(_, run)| cycles(&run.stats) == cycles(&first.stats) && run.mems == first.mems),
        "modeled cycles or output moved between runs"
    );
    let (wall_s, best) = runs
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one run");
    let (s, mems) = (best.stats, best.mems.len());

    // One traced run, after the timed ones so the recorder can't perturb them.
    let (traced, trace) = gpumem
        .run_traced(reference, query)
        .expect("quick workload fits");
    assert_eq!(cycles(&traced.stats), cycles(&s), "tracing moved cycles");

    // Attribute the modeled match time to phases by their share of the
    // matching kernels' warp cycles: `generate` is the candidate stream
    // (seed lookups, load balancing and triplet generation), `extend`
    // the per-base expansion, `combine` the tree combine.
    let phases = trace.phase_totals();
    let share = |name: &str| {
        phases.iter().find(|p| p.name == name).map_or(0.0, |p| {
            p.warp_cycles as f64 / s.matching.warp_cycles as f64
        })
    };
    let modeled = s.matching.modeled_secs();
    let pipeline = Pipeline {
        wall_s: fixed(wall_s, 4),
        index_wall_s: fixed(s.index_wall.as_secs_f64(), 4),
        match_wall_s: fixed(s.match_wall.as_secs_f64(), 4),
        modeled_index_s: fixed(s.index.modeled_secs(), 6),
        modeled_match_s: fixed(modeled, 6),
        modeled_generate_s: fixed(
            modeled * (share("seed_lookup") + share("balance") + share("generate")),
            6,
        ),
        modeled_extend_s: fixed(modeled * share("expand"), 6),
        modeled_combine_s: fixed(modeled * share("combine"), 6),
        warp_efficiency: fixed(s.matching.warp_efficiency(32), 4),
        divergence_rate: fixed(s.matching.divergence_rate(), 6),
        block_occupancy: fixed(s.matching.block_occupancy(), 4),
        pool_allocs: s.index.pool_allocs + s.matching.pool_allocs,
        launches: s.index.launches + s.matching.launches,
        mems,
    };
    (pipeline, s, trace)
}

/// Mutated windows of the reference — every query shares long exact
/// stretches with it, as a resequencing workload would.
fn batch_queries(reference: &PackedSeq) -> SeqSet {
    let codes = reference.to_codes();
    let records: Vec<FastaRecord> = (0..BATCH_QUERIES)
        .map(|i| {
            let offset = (i * 7919) % (codes.len() - BATCH_QUERY_LEN);
            let window = &codes[offset..offset + BATCH_QUERY_LEN];
            FastaRecord {
                header: format!("q{i}"),
                seq: mutated(window, 0.02, 0.002, DATA_SEED + 7 + i as u64),
            }
        })
        .collect();
    SeqSet::from_records(&records)
}

fn measure_batch(reference: &PackedSeq, queries: &SeqSet, config: &GpumemConfig) -> Batch {
    // Cold path: independent one-shot runs, every one rebuilding the
    // full per-row index (what serving looked like before the engine).
    let gpumem = Gpumem::new(config.clone());
    let (cold_wall_s, cold) = timed(|| {
        (0..queries.records.len())
            .map(|i| gpumem.run(reference, &queries.record_seq(i)))
            .collect::<Result<Vec<_>, _>>()
            .expect("quick workload fits")
    });

    // Served path: a fresh engine per measurement, so the one cold
    // index build is honestly included in the batch wall-clock.
    let (batch_wall_s, batch) = timed(|| {
        engine(reference, config)
            .execute(&RunRequest::batch(queries))
            .into_iter()
            .map(|out| out.map(|served| served.result))
            .collect::<Result<Vec<_>, _>>()
            .expect("quick workload fits")
    });

    for (a, b) in cold.iter().zip(&batch) {
        assert_eq!(a.mems, b.mems, "batch output must equal sequential runs");
    }
    let n = BATCH_QUERIES as f64;
    Batch {
        queries: BATCH_QUERIES,
        query_len: BATCH_QUERY_LEN,
        cold_wall_s: fixed(cold_wall_s, 4),
        batch_wall_s: fixed(batch_wall_s, 4),
        qps_cold: fixed(n / cold_wall_s, 2),
        qps_batch: fixed(n / batch_wall_s, 2),
        speedup_qps: fixed(cold_wall_s / batch_wall_s, 2),
        index_launches_cold: cold.iter().map(|r| r.stats.index.launches).sum(),
        index_launches_batch: batch.iter().map(|r| r.stats.index.launches).sum(),
        mems: batch.iter().map(|r| r.mems.len()).sum(),
    }
}

fn measure_seedmode(l: u32, reference: &PackedSeq, query: &PackedSeq) -> SeedModeAblation {
    let (k1, k2) = max_coprime_steps(l, SEED_LEN).expect("valid ablation steps");
    let run = |mode: SeedMode| {
        let gpumem = Gpumem::new(config(l, mode));
        timed(|| gpumem.run(reference, query).expect("ablation fits"))
    };
    let (ref_wall_s, ref_result) = run(SeedMode::RefOnly);
    let (dual_wall_s, dual_result) = run(SeedMode::DualSampled { k1, k2 });
    assert_eq!(
        ref_result.mems, dual_result.mems,
        "seed modes must produce identical MEM sets (L = {l})"
    );
    let ref_modeled = ref_result.stats.matching.modeled_secs();
    let dual_modeled = dual_result.stats.matching.modeled_secs();
    SeedModeAblation {
        l,
        k1,
        k2,
        ref_wall_s: fixed(ref_wall_s, 4),
        dual_wall_s: fixed(dual_wall_s, 4),
        ref_modeled_match_s: fixed(ref_modeled, 6),
        dual_modeled_match_s: fixed(dual_modeled, 6),
        modeled_ratio: fixed(ref_modeled / dual_modeled, 2),
        mems: ref_result.mems.len(),
    }
}

fn measure_registry(config: &GpumemConfig) -> RegistryChurn {
    let references: Vec<Arc<PackedSeq>> = (0..REGISTRY_REFS)
        .map(|i| {
            Arc::new(GenomeModel::mammalian().generate(REGISTRY_REF_LEN, DATA_SEED + 20 + i as u64))
        })
        .collect();
    // Size the budget off the real per-reference footprint: warm one
    // reference in an unbounded registry and read its resident bytes.
    let probe = Registry::new(DeviceSpec::tesla_k20c());
    let device = Device::new(probe.spec().clone());
    let handle = probe
        .add("probe", Arc::clone(&references[0]), config.clone())
        .expect("registry scenario fits");
    probe
        .session(handle)
        .expect("probe handle resolves")
        .warm(&device);
    let per_ref_bytes = probe.resident_bytes();
    // Room for ~3 of the 6 references: every cold touch of the tail
    // evicts someone under zipf traffic.
    let budget_bytes = per_ref_bytes * 3 + per_ref_bytes / 2;

    let registry = Registry::with_budget(DeviceSpec::tesla_k20c(), budget_bytes);
    let handles: Vec<_> = references
        .iter()
        .enumerate()
        .map(|(i, reference)| {
            registry
                .add(&format!("ref{i}"), Arc::clone(reference), config.clone())
                .expect("registry scenario fits")
        })
        .collect();

    // Zipf-skewed touch sequence: rank r drawn with weight 1/(r+1),
    // deterministic via the seeded generator.
    let weights: Vec<f64> = (0..REGISTRY_REFS).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(DATA_SEED + 30);
    let (wall_s, ()) = timed(|| {
        for _ in 0..REGISTRY_TOUCHES {
            let mut pick = rng.gen_range(0.0..total);
            let mut rank = 0;
            while rank + 1 < REGISTRY_REFS && pick >= weights[rank] {
                pick -= weights[rank];
                rank += 1;
            }
            let handle = handles[rank];
            let session = registry.session(handle).expect("handle stays resolvable");
            // A "query" against this reference: make its rows resident
            // (a warm session is a no-op, a cold one rebuilds), then let
            // the touch charge the build to the budget.
            session.warm(&device);
            registry.touch(handle);
            assert!(
                registry.resident_bytes() <= budget_bytes,
                "resident bytes exceed the budget after enforcement"
            );
        }
    });
    let stats = registry.stats();
    assert!(stats.evictions > 0, "zipf traffic under budget must churn");
    RegistryChurn {
        references: REGISTRY_REFS,
        touches: REGISTRY_TOUCHES,
        budget_bytes,
        per_ref_bytes,
        hit_rate: fixed(stats.hits as f64 / (stats.hits + stats.misses) as f64, 4),
        evictions: stats.evictions,
        peak_resident_bytes: stats.peak_resident_bytes,
        resident_bytes: stats.resident_bytes,
        wall_s: fixed(wall_s, 4),
    }
}

/// Every leaf of `value`, by dotted path under `path`.
fn leaves(value: &Value, path: &str, out: &mut BTreeMap<String, Value>) {
    let Some(members) = value.as_object() else {
        out.insert(path.to_string(), value.clone());
        return;
    };
    for (key, member) in members {
        let child = match path {
            "" => key.clone(),
            _ => format!("{path}.{key}"),
        };
        leaves(member, &child, out);
    }
}

/// Compare a fresh report with the tracked baseline's text (`None` when
/// unreadable): the number of equal fields, or every failure.
fn check(fresh: &Value, committed: Option<&str>) -> Result<usize, Vec<String>> {
    let committed = committed.ok_or_else(|| vec!["no committed baseline to check".to_string()])?;
    let committed = serde::json::parse(committed)
        .map_err(|e| vec![format!("the committed baseline does not parse: {e}")])?;
    let (mut now, mut then) = (BTreeMap::new(), BTreeMap::new());
    leaves(fresh, "", &mut now);
    leaves(&committed, "", &mut then);
    let mut failures: Vec<String> = then
        .keys()
        .filter(|path| !now.contains_key(*path))
        .map(|path| format!("{path} is missing from the fresh report"))
        .collect();
    let mut equal = 0;
    for (path, fresh) in &now {
        let Some(committed) = then.get(path) else {
            failures.push(format!("{path} is missing from the committed baseline"));
            continue;
        };
        if let Some(&(_, higher_is_better)) = BANDED.iter().find(|(banded, _)| banded == path) {
            let (Some(now), Some(then)) = (fresh.as_f64(), committed.as_f64()) else {
                failures.push(format!("{path} is not a number on both sides"));
                continue;
            };
            let regressed = if higher_is_better {
                now < then * (1.0 - MAX_REGRESS)
            } else {
                now > then * (1.0 + MAX_REGRESS)
            };
            if regressed {
                failures.push(format!(
                    "{path} {now} regressed more than {:.0}% against committed {then}",
                    MAX_REGRESS * 100.0
                ));
            }
        } else if HOST_TIMED.iter().any(|timed| path.ends_with(timed)) {
            continue;
        } else if fresh == committed {
            equal += 1;
        } else {
            failures.push(format!(
                "{path} is {fresh:?} but the committed baseline has {committed:?}; \
                 modeled figures must not move without a re-bless"
            ));
        }
    }
    if failures.is_empty() {
        Ok(equal)
    } else {
        Err(failures)
    }
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = root.join("BENCH_pipeline.json");
    let results = root.join("results");
    let committed = std::fs::read_to_string(&baseline).ok();

    let reference = GenomeModel::mammalian().generate(REF_LEN, DATA_SEED);
    let query = mutated(&reference.to_codes(), 0.03, 0.003, DATA_SEED + 1);
    let config = config(MIN_LEN, SeedMode::RefOnly);
    let (current, stats, trace) =
        measure_pipeline(&Gpumem::new(config.clone()), &reference, &query);

    let queries = batch_queries(&reference);
    let batches: Vec<Batch> = (0..ITERS)
        .map(|_| measure_batch(&reference, &queries, &config))
        .collect();
    assert!(
        batches.iter().all(|b| b.mems == batches[0].mems),
        "batch output changed between runs"
    );
    let batch = batches
        .into_iter()
        .min_by(|a, b| a.batch_wall_s.total_cmp(&b.batch_wall_s))
        .expect("at least one run");

    // Seed-mode ablation: one run per (L, mode) — modeled time is
    // deterministic, and modeled_ratio is what the gate tracks.
    let abl_ref = GenomeModel::mammalian().generate(SEEDMODE_REF_LEN, DATA_SEED + 2);
    let abl_query = mutated(&abl_ref.to_codes(), 0.001, 0.0001, DATA_SEED + 3);
    let [seedmode_l25, seedmode_l100, seedmode_l300] =
        SEEDMODE_LS.map(|l| measure_seedmode(l, &abl_ref, &abl_query));

    let report = Report {
        schema: 1,
        dataset: Dataset {
            ref_len: reference.len(),
            query_len: query.len(),
            min_len: MIN_LEN,
            seed_len: SEED_LEN,
            threads_per_block: THREADS_PER_BLOCK,
            blocks_per_tile: BLOCKS_PER_TILE,
            tiles: format!("{}x{}", stats.rows, stats.cols),
            data_seed: DATA_SEED,
            iters: ITERS,
        },
        current,
        batch,
        seedmode_l25,
        seedmode_l100,
        seedmode_l300,
        registry: measure_registry(&config),
    };
    let json = serde::json::to_string_pretty(&report) + "\n";

    std::fs::create_dir_all(&results).expect("create the report directory");
    let trace_json = trace.to_chrome_json();
    std::fs::write(results.join("BENCH_pipeline_trace.json"), trace_json).expect("write the trace");
    std::fs::write(results.join("BENCH_pipeline.json"), &json).expect("write the report");
    if std::env::var("GPUMEM_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&baseline, &json).expect("bless the tracked baseline");
    }
    print!("{json}");

    if std::env::var("GPUMEM_BENCH_CHECK").is_ok_and(|v| v == "1") {
        let fresh = serde::json::parse(&json).expect("the report parses");
        match check(&fresh, committed.as_deref()) {
            Ok(equal) => eprintln!(
                "bench check passed: {equal} fields equal the committed baseline, {} banded \
                 fields within {:.0}%",
                BANDED.len(),
                MAX_REGRESS * 100.0
            ),
            Err(failures) => {
                for failure in failures {
                    eprintln!("FAIL: {failure}");
                }
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../../BENCH_pipeline.json");

    /// The report's modeled and count fields (modeled times and ratios,
    /// device counters, launch, MEM, index-launch and registry counts).
    const MODELED: [&str; 37] = [
        "current.modeled_index_s",
        "current.modeled_match_s",
        "current.modeled_generate_s",
        "current.modeled_extend_s",
        "current.modeled_combine_s",
        "current.warp_efficiency",
        "current.divergence_rate",
        "current.block_occupancy",
        "current.launches",
        "current.mems",
        "batch.index_launches_cold",
        "batch.index_launches_batch",
        "batch.mems",
        "seedmode_l25.k1",
        "seedmode_l25.k2",
        "seedmode_l25.ref_modeled_match_s",
        "seedmode_l25.dual_modeled_match_s",
        "seedmode_l25.modeled_ratio",
        "seedmode_l25.mems",
        "seedmode_l100.k1",
        "seedmode_l100.k2",
        "seedmode_l100.ref_modeled_match_s",
        "seedmode_l100.dual_modeled_match_s",
        "seedmode_l100.modeled_ratio",
        "seedmode_l100.mems",
        "seedmode_l300.k1",
        "seedmode_l300.k2",
        "seedmode_l300.ref_modeled_match_s",
        "seedmode_l300.dual_modeled_match_s",
        "seedmode_l300.modeled_ratio",
        "seedmode_l300.mems",
        "registry.budget_bytes",
        "registry.per_ref_bytes",
        "registry.hit_rate",
        "registry.evictions",
        "registry.peak_resident_bytes",
        "registry.resident_bytes",
    ];

    fn baseline() -> Value {
        serde::json::parse(BASELINE).expect("the tracked baseline parses")
    }

    fn number(doc: &Value, path: &str) -> f64 {
        path.split('.')
            .try_fold(doc, |node, key| node.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{path} is a number"))
    }

    /// The tracked baseline with `path` set to `value`, or removed.
    fn edited(path: &str, value: Option<Value>) -> Value {
        let mut doc = baseline();
        let mut node = &mut doc;
        let mut keys = path.split('.').peekable();
        while let Some(key) = keys.next() {
            let Value::Object(members) = node else {
                panic!("{path} runs through a non-object");
            };
            let at = members
                .iter()
                .position(|(k, _)| k == key)
                .expect("path exists");
            if keys.peek().is_some() {
                node = &mut members[at].1;
                continue;
            }
            match value {
                Some(value) => members[at].1 = value,
                None => {
                    members.remove(at);
                }
            }
            break;
        }
        doc
    }

    fn scaled(path: &str, factor: f64) -> Value {
        edited(
            path,
            Some(Value::Number(number(&baseline(), path) * factor)),
        )
    }

    fn failures(fresh: &Value, committed: &str) -> Vec<String> {
        check(fresh, Some(committed)).expect_err("the check fails")
    }

    #[test]
    fn the_tracked_baseline_agrees_with_itself() {
        // The 37 modeled fields, the schema, the 9 dataset fields and the
        // scenarios' 7 fixed sizes.
        assert_eq!(check(&baseline(), Some(BASELINE)), Ok(54));
    }

    #[test]
    fn every_modeled_field_fails_when_it_moves() {
        for path in MODELED {
            let moved = edited(path, Some(Value::Number(number(&baseline(), path) + 1e-6)));
            let failures = failures(&moved, BASELINE);
            assert_eq!(failures.len(), 1, "{path}: {failures:?}");
            assert!(
                failures[0].starts_with(&format!("{path} is ")),
                "{failures:?}"
            );
        }
    }

    #[test]
    fn dataset_and_size_fields_are_exact_too() {
        let tiles = edited("dataset.tiles", Some(Value::String("26x27".into())));
        assert!(failures(&tiles, BASELINE)[0].starts_with("dataset.tiles is "));
        for path in [
            "schema",
            "dataset.ref_len",
            "dataset.iters",
            "registry.touches",
        ] {
            let failures = failures(&scaled(path, 2.0), BASELINE);
            assert!(
                failures[0].starts_with(&format!("{path} is ")),
                "{failures:?}"
            );
        }
    }

    #[test]
    fn a_field_missing_from_either_side_fails() {
        assert_eq!(
            failures(&edited("registry.touches", None), BASELINE),
            ["registry.touches is missing from the fresh report"]
        );
        let committed = BASELINE.replacen("    \"touches\": 60,\n", "", 1);
        assert_ne!(committed, BASELINE);
        assert_eq!(
            failures(&baseline(), &committed),
            ["registry.touches is missing from the committed baseline"]
        );
    }

    #[test]
    fn walls_and_qps_past_their_band_fail() {
        for (path, factor) in [
            ("current.wall_s", 1.25),
            ("current.match_wall_s", 1.25),
            ("batch.qps_batch", 0.75),
        ] {
            let failures = failures(&scaled(path, factor), BASELINE);
            assert_eq!(failures.len(), 1, "{path}: {failures:?}");
            assert!(
                failures[0].contains("regressed more than 20%"),
                "{failures:?}"
            );
        }
    }

    #[test]
    fn in_band_and_unbanded_host_timed_fields_pass() {
        for (path, factor) in [
            ("current.wall_s", 1.15),
            ("current.wall_s", 0.2),
            ("current.match_wall_s", 1.15),
            ("batch.qps_batch", 0.85),
            ("batch.qps_batch", 3.0),
            ("current.index_wall_s", 10.0),
            ("batch.cold_wall_s", 10.0),
            ("batch.speedup_qps", 0.1),
            ("seedmode_l25.ref_wall_s", 10.0),
            ("registry.wall_s", 10.0),
        ] {
            assert_eq!(
                check(&scaled(path, factor), Some(BASELINE)),
                Ok(54),
                "{path}"
            );
        }
        let allocs = edited("current.pool_allocs", Some(Value::Number(7.0)));
        assert_eq!(check(&allocs, Some(BASELINE)), Ok(54));
    }

    #[test]
    fn a_missing_or_unparseable_baseline_fails() {
        assert_eq!(
            check(&baseline(), None),
            Err(vec!["no committed baseline to check".to_string()])
        );
        for broken in ["", &BASELINE[..BASELINE.len() / 2]] {
            let failures = failures(&baseline(), broken);
            assert!(failures[0].starts_with("the committed baseline does not parse"));
        }
    }
}
