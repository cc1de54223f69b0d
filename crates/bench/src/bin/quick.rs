//! Quick end-to-end pipeline benchmark — the tracked perf baseline.
//!
//! Runs GPUMEM on a fixed smoke dataset (seeded generator, so the
//! workload is identical on every machine and every run) and writes
//! `results/BENCH_pipeline.json` (gitignored; `GPUMEM_BENCH_OUT`
//! overrides the path):
//!
//! * `before` — the first numbers ever recorded, copied from the
//!   tracked baseline `BENCH_pipeline.json` at the repo root (the
//!   pre-optimization baseline of the hot-path PR);
//! * `current` — this run;
//! * `speedup_wall` — `before.wall_s / current.wall_s`.
//!
//! The tracked baseline is rewritten only under `GPUMEM_BLESS=1`, the
//! golden-file convention of the telemetry tests.
//!
//! Wall-clock is the min over `GPUMEM_QUICK_ITERS` (default 3)
//! end-to-end runs on one `Gpumem` instance, so steady-state buffer
//! reuse is what gets measured. Modeled device time is asserted
//! identical across iterations — the simulator is deterministic, and
//! host-side optimizations must never change it.
//!
//! A second `batch` scenario measures the serving engine: one
//! reference × [`BATCH_QUERIES`] short queries, cold (16 independent
//! `Gpumem::run` calls, each rebuilding every row index) versus a fresh
//! `Engine::run_batch` (one session, each row index built once). The
//! `batch` object records queries/sec for both paths plus the
//! index-launch counts that explain the amortization.
//!
//! After the timed iterations, one traced rerun of the pipeline
//! scenario writes `BENCH_pipeline_trace.json` (Chrome Trace Event
//! format, openable in Perfetto) next to the benchmark JSON, asserts
//! that tracing did not move modeled device time, and splits
//! `current.modeled_match_s` into `modeled_generate_s` /
//! `modeled_extend_s` / `modeled_combine_s` by each in-kernel phase's
//! share of warp cycles — so candidate-stream reductions are
//! attributable to the stage they shrink.
//!
//! A `seedmode` ablation then compares `SeedMode::RefOnly` against
//! copMEM-style `SeedMode::DualSampled` (auto co-prime steps) at
//! L ∈ {25, 100, 300} on a lightly mutated 40 kb pair, asserting both
//! modes produce identical MEM sets and recording
//! `seedmode_l{25,100,300}` objects whose `modeled_ratio` is the
//! ref/dual modeled-match-time quotient.
//!
//! With `GPUMEM_BENCH_CHECK=1`, compares the fresh report with the
//! tracked baseline — the CI bench-smoke gate. The simulator is
//! deterministic, so every modeled and count field (`EXACT_FIELDS`:
//! modeled times, ratios and device counters, launches, MEM and index
//! launch counts, registry counts) must equal the baseline exactly at
//! the precision the report writes. Only the host-timed `current.wall_s`,
//! `current.match_wall_s` and `batch.qps_batch` get a band: they fail
//! when they regress by more than `GPUMEM_BENCH_MAX_REGRESS` (default
//! 0.20). Any failure exits non-zero.
//!
//! Every run also appends one compact JSON line of headline numbers
//! (`wall_s`, `match_wall_s`, `qps_batch`, the two modeled ratios,
//! `mems`, a unix `ts`, and the `git_sha`, `rustc` and `nproc` that tell
//! machines and builds apart) to `results/bench_history.jsonl`
//! (override with `GPUMEM_BENCH_HISTORY`). The accumulated trajectory
//! is what `gpumem-cli bench-info --check` gates against.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{Device, DeviceSpec};
use gpumem_core::{
    Engine, Gpumem, GpumemConfig, GpumemStats, Registry, RunOptions, RunRequest, SeedMode,
};
use gpumem_index::max_coprime_steps;
use gpumem_seq::{FastaRecord, GenomeModel, MutationModel, PackedSeq, SeqSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed smoke dataset: a mammalian-model reference and a mutated copy,
/// big enough for a multi-row, multi-column tiling.
const REF_LEN: usize = 120_000;
const MIN_LEN: u32 = 25;
const SEED_LEN: usize = 8;
const THREADS_PER_BLOCK: usize = 64;
const BLOCKS_PER_TILE: usize = 4;
const DATA_SEED: u64 = 2024;

/// Batch scenario: many short queries against the one reference, so
/// per-query index rebuilds dominate the cold path and the session
/// cache has something to amortize (the serving workload of ISSUE 4).
const BATCH_QUERIES: usize = 16;
const BATCH_QUERY_LEN: usize = 2_000;

/// Seed-mode ablation: RefOnly vs copMEM-style dual sampling at
/// small/medium/large `L` on a lightly mutated pair (low rates so
/// length-300 MEMs actually occur). The dual win is the shrinking
/// query-probe count, so it grows with `L`.
const SEEDMODE_LS: &[u32] = &[25, 100, 300];
const SEEDMODE_REF_LEN: usize = 40_000;

fn dataset() -> (PackedSeq, PackedSeq) {
    let reference = GenomeModel::mammalian().generate(REF_LEN, DATA_SEED);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(DATA_SEED + 1);
        PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng))
    };
    (reference, query)
}

/// One measurement of the quick workload.
struct Sample {
    wall_s: f64,
    stats: GpumemStats,
    mems: usize,
}

fn measure(gpumem: &Gpumem, reference: &PackedSeq, query: &PackedSeq) -> Sample {
    let start = Instant::now();
    let result = gpumem.run(reference, query).expect("quick workload fits");
    Sample {
        wall_s: start.elapsed().as_secs_f64(),
        stats: result.stats,
        mems: result.mems.len(),
    }
}

/// Mutated windows of the reference — every query shares long exact
/// stretches with it, as a resequencing workload would.
fn batch_queries(reference: &PackedSeq) -> SeqSet {
    let model = MutationModel {
        sub_rate: 0.02,
        indel_rate: 0.002,
    };
    let codes = reference.to_codes();
    let records: Vec<FastaRecord> = (0..BATCH_QUERIES)
        .map(|i| {
            let offset = (i * 7919) % (codes.len() - BATCH_QUERY_LEN);
            let window = &codes[offset..offset + BATCH_QUERY_LEN];
            let mut rng = StdRng::seed_from_u64(DATA_SEED + 7 + i as u64);
            FastaRecord {
                header: format!("q{i}"),
                seq: PackedSeq::from_codes(&model.apply(window, &mut rng)),
            }
        })
        .collect();
    SeqSet::from_records(&records)
}

/// One measurement of the batch scenario.
struct BatchSample {
    cold_wall_s: f64,
    batch_wall_s: f64,
    index_launches_cold: u64,
    index_launches_batch: u64,
    mems: usize,
}

fn measure_batch(reference: &PackedSeq, queries: &SeqSet, config: &GpumemConfig) -> BatchSample {
    // Cold path: 16 independent one-shot runs, every one rebuilding the
    // full per-row index (what serving looked like before the engine).
    let gpumem = Gpumem::new(config.clone());
    let start = Instant::now();
    let cold: Vec<_> = (0..queries.records.len())
        .map(|i| {
            gpumem
                .run(reference, &queries.record_seq(i))
                .expect("quick workload fits")
        })
        .collect();
    let cold_wall_s = start.elapsed().as_secs_f64();

    // Served path: a fresh engine per measurement, so the one cold
    // index build is honestly included in the batch wall-clock.
    let start = Instant::now();
    let engine = Engine::builder(reference.clone())
        .config(config.clone())
        .spec(DeviceSpec::tesla_k20c())
        .build()
        .expect("quick workload fits");
    let batch = engine.run_batch(queries);
    let batch_wall_s = start.elapsed().as_secs_f64();

    let batch: Vec<_> = batch
        .into_iter()
        .map(|r| r.expect("quick workload fits"))
        .collect();
    for (a, b) in cold.iter().zip(&batch) {
        assert_eq!(a.mems, b.mems, "batch output must equal sequential runs");
    }
    BatchSample {
        cold_wall_s,
        batch_wall_s,
        index_launches_cold: cold.iter().map(|r| r.stats.index.launches).sum(),
        index_launches_batch: batch.iter().map(|r| r.stats.index.launches).sum(),
        mems: batch.iter().map(|r| r.mems.len()).sum(),
    }
}

/// One `L` point of the seed-mode ablation.
struct SeedModeSample {
    l: u32,
    k1: usize,
    k2: usize,
    ref_wall_s: f64,
    dual_wall_s: f64,
    ref_modeled_match_s: f64,
    dual_modeled_match_s: f64,
    mems: usize,
}

fn measure_seedmode(l: u32, reference: &PackedSeq, query: &PackedSeq) -> SeedModeSample {
    let (k1, k2) = max_coprime_steps(l, SEED_LEN).expect("valid ablation steps");
    let config = |mode: SeedMode| {
        GpumemConfig::builder(l)
            .seed_len(SEED_LEN)
            .threads_per_block(THREADS_PER_BLOCK)
            .blocks_per_tile(BLOCKS_PER_TILE)
            .seed_mode(mode)
            .build()
            .expect("valid ablation config")
    };
    let run = |mode: SeedMode| {
        let gpumem = Gpumem::new(config(mode));
        let start = Instant::now();
        let result = gpumem.run(reference, query).expect("ablation fits");
        (start.elapsed().as_secs_f64(), result)
    };
    let (ref_wall_s, ref_result) = run(SeedMode::RefOnly);
    let (dual_wall_s, dual_result) = run(SeedMode::DualSampled { k1, k2 });
    assert_eq!(
        ref_result.mems, dual_result.mems,
        "seed modes must produce identical MEM sets (L = {l})"
    );
    SeedModeSample {
        l,
        k1,
        k2,
        ref_wall_s,
        dual_wall_s,
        ref_modeled_match_s: ref_result.stats.matching.modeled_secs(),
        dual_modeled_match_s: dual_result.stats.matching.modeled_secs(),
        mems: ref_result.mems.len(),
    }
}

/// Registry scenario: K references under a byte budget that holds only
/// a few of them resident, touched with zipf-skewed traffic (rank-1/i
/// weights) — the multi-tenant serving shape the registry's LRU
/// eviction targets.
const REGISTRY_REFS: usize = 6;
const REGISTRY_REF_LEN: usize = 12_000;
const REGISTRY_TOUCHES: usize = 60;

/// One measurement of the registry scenario.
struct RegistrySample {
    budget_bytes: u64,
    per_ref_bytes: u64,
    hit_rate: f64,
    evictions: u64,
    peak_resident_bytes: u64,
    resident_bytes: u64,
    wall_s: f64,
}

fn measure_registry(config: &GpumemConfig) -> RegistrySample {
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
    let start = Instant::now();
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
    let wall_s = start.elapsed().as_secs_f64();
    let stats = registry.stats();
    assert!(stats.evictions > 0, "zipf traffic under budget must churn");
    RegistrySample {
        budget_bytes,
        per_ref_bytes,
        hit_rate: stats.hits as f64 / (stats.hits + stats.misses) as f64,
        evictions: stats.evictions,
        peak_resident_bytes: stats.peak_resident_bytes,
        resident_bytes: stats.resident_bytes,
        wall_s,
    }
}

fn render_registry(sample: &RegistrySample) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"references\": {},\n",
            "    \"touches\": {},\n",
            "    \"budget_bytes\": {},\n",
            "    \"per_ref_bytes\": {},\n",
            "    \"hit_rate\": {:.4},\n",
            "    \"evictions\": {},\n",
            "    \"peak_resident_bytes\": {},\n",
            "    \"resident_bytes\": {},\n",
            "    \"wall_s\": {:.4}\n",
            "  }}"
        ),
        REGISTRY_REFS,
        REGISTRY_TOUCHES,
        sample.budget_bytes,
        sample.per_ref_bytes,
        sample.hit_rate,
        sample.evictions,
        sample.peak_resident_bytes,
        sample.resident_bytes,
        sample.wall_s,
    )
}

/// Sharded scenario: the pipeline dataset split across N simulated
/// devices. `modeled_ratio` is single-device modeled match time over
/// the slowest shard's — the modeled multi-device speedup, bounded by
/// the heaviest shard (the quantity the LPT plan balances).
const SHARD_COUNT: usize = 4;

struct ShardedSample {
    single_modeled_match_s: f64,
    max_shard_modeled_match_s: f64,
    single_wall_s: f64,
    sharded_wall_s: f64,
    mems: usize,
}

fn measure_sharded(
    reference: &PackedSeq,
    query: &PackedSeq,
    config: &GpumemConfig,
) -> ShardedSample {
    let engine = Engine::builder(reference.clone())
        .config(config.clone())
        .spec(DeviceSpec::tesla_k20c())
        .build()
        .expect("quick workload fits");
    let start = Instant::now();
    let single = engine.run(query).expect("quick workload fits");
    let single_wall_s = start.elapsed().as_secs_f64();

    let options = RunOptions {
        shards: SHARD_COUNT,
        ..RunOptions::default()
    };
    let start = Instant::now();
    let sharded = engine
        .execute(&RunRequest::query(query).options(options))
        .pop()
        .expect("one query yields one output")
        .expect("quick workload fits");
    let sharded_wall_s = start.elapsed().as_secs_f64();

    assert_eq!(
        single.mems, sharded.result.mems,
        "sharded MEM set must be byte-identical to single-device"
    );
    let max_shard_modeled_match_s = sharded
        .result
        .stats
        .shard_matching
        .iter()
        .map(|s| s.modeled_secs())
        .fold(0.0f64, f64::max);
    ShardedSample {
        single_modeled_match_s: single.stats.matching.modeled_secs(),
        max_shard_modeled_match_s,
        single_wall_s,
        sharded_wall_s,
        mems: single.mems.len(),
    }
}

fn render_sharded(sample: &ShardedSample) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"shards\": {},\n",
            "    \"single_modeled_match_s\": {:.6},\n",
            "    \"max_shard_modeled_match_s\": {:.6},\n",
            "    \"modeled_ratio\": {:.2},\n",
            "    \"single_wall_s\": {:.4},\n",
            "    \"sharded_wall_s\": {:.4},\n",
            "    \"mems\": {}\n",
            "  }}"
        ),
        SHARD_COUNT,
        sample.single_modeled_match_s,
        sample.max_shard_modeled_match_s,
        sample.single_modeled_match_s / sample.max_shard_modeled_match_s,
        sample.single_wall_s,
        sample.sharded_wall_s,
        sample.mems,
    )
}

fn render_seedmode(sample: &SeedModeSample) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"l\": {},\n",
            "    \"k1\": {},\n",
            "    \"k2\": {},\n",
            "    \"ref_wall_s\": {:.4},\n",
            "    \"dual_wall_s\": {:.4},\n",
            "    \"ref_modeled_match_s\": {:.6},\n",
            "    \"dual_modeled_match_s\": {:.6},\n",
            "    \"modeled_ratio\": {:.2},\n",
            "    \"mems\": {}\n",
            "  }}"
        ),
        sample.l,
        sample.k1,
        sample.k2,
        sample.ref_wall_s,
        sample.dual_wall_s,
        sample.ref_modeled_match_s,
        sample.dual_modeled_match_s,
        sample.ref_modeled_match_s / sample.dual_modeled_match_s,
        sample.mems,
    )
}

fn render_batch(sample: &BatchSample) -> String {
    let n = BATCH_QUERIES as f64;
    format!(
        concat!(
            "{{\n",
            "    \"queries\": {},\n",
            "    \"query_len\": {},\n",
            "    \"cold_wall_s\": {:.4},\n",
            "    \"batch_wall_s\": {:.4},\n",
            "    \"qps_cold\": {:.2},\n",
            "    \"qps_batch\": {:.2},\n",
            "    \"speedup_qps\": {:.2},\n",
            "    \"index_launches_cold\": {},\n",
            "    \"index_launches_batch\": {},\n",
            "    \"mems\": {}\n",
            "  }}"
        ),
        BATCH_QUERIES,
        BATCH_QUERY_LEN,
        sample.cold_wall_s,
        sample.batch_wall_s,
        n / sample.cold_wall_s,
        n / sample.batch_wall_s,
        sample.cold_wall_s / sample.batch_wall_s,
        sample.index_launches_cold,
        sample.index_launches_batch,
        sample.mems,
    )
}

/// Modeled match time split by in-kernel phase (warp-cycle
/// attribution from the traced rerun): `generate` is the candidate
/// stream — seed lookups, load balancing, and triplet generation —
/// `extend` the per-base expansion (`expand` phase), `combine` the
/// tree combine.
struct ModeledBreakdown {
    generate_s: f64,
    extend_s: f64,
    combine_s: f64,
}

impl ModeledBreakdown {
    /// Attribute `matching.modeled_secs()` to phases by their share of
    /// the matching kernels' warp cycles.
    fn from_trace(trace: &gpumem_core::Trace, matching: &gpu_sim::LaunchStats) -> ModeledBreakdown {
        let phases = trace.phase_totals();
        let modeled = matching.modeled_secs();
        let share = |name: &str| {
            phases
                .iter()
                .find(|p| p.name == name)
                .map_or(0.0, |p| p.warp_cycles as f64 / matching.warp_cycles as f64)
        };
        ModeledBreakdown {
            generate_s: modeled * (share("seed_lookup") + share("balance") + share("generate")),
            extend_s: modeled * share("expand"),
            combine_s: modeled * share("combine"),
        }
    }
}

fn render(sample: &Sample, breakdown: &ModeledBreakdown) -> String {
    let s = &sample.stats;
    format!(
        concat!(
            "{{\n",
            "    \"wall_s\": {:.4},\n",
            "    \"index_wall_s\": {:.4},\n",
            "    \"match_wall_s\": {:.4},\n",
            "    \"modeled_index_s\": {:.6},\n",
            "    \"modeled_match_s\": {:.6},\n",
            "    \"modeled_generate_s\": {:.6},\n",
            "    \"modeled_extend_s\": {:.6},\n",
            "    \"modeled_combine_s\": {:.6},\n",
            "    \"warp_efficiency\": {:.4},\n",
            "    \"divergence_rate\": {:.6},\n",
            "    \"block_occupancy\": {:.4},\n",
            "    \"pool_allocs\": {},\n",
            "    \"launches\": {},\n",
            "    \"mems\": {}\n",
            "  }}"
        ),
        sample.wall_s,
        s.index_wall.as_secs_f64(),
        s.match_wall.as_secs_f64(),
        s.index.modeled_secs(),
        s.matching.modeled_secs(),
        breakdown.generate_s,
        breakdown.extend_s,
        breakdown.combine_s,
        s.matching.warp_efficiency(32),
        s.matching.divergence_rate(),
        s.matching.block_occupancy(),
        s.index.pool_allocs + s.matching.pool_allocs,
        s.index.launches + s.matching.launches,
        sample.mems,
    )
}

/// Extract the balanced-brace object following `"<key>":` in `json`.
fn extract_object(json: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\"");
    let at = json.find(&tag)?;
    let open = json[at..].find('{')? + at;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..=open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Extract a numeric field from a JSON object snippet.
fn extract_number(object: &str, field: &str) -> Option<f64> {
    let tag = format!("\"{field}\":");
    let at = object.find(&tag)? + tag.len();
    let rest = object[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The tracked baseline every run compares against.
fn baseline_path() -> PathBuf {
    repo_root().join("BENCH_pipeline.json")
}

/// Where this run's report goes: `GPUMEM_BENCH_OUT`, else the tracked
/// baseline under `GPUMEM_BLESS=1`, else `results/BENCH_pipeline.json`.
fn out_path() -> PathBuf {
    if let Ok(path) = std::env::var("GPUMEM_BENCH_OUT") {
        return PathBuf::from(path);
    }
    if std::env::var("GPUMEM_BLESS").is_ok_and(|v| v == "1") {
        return baseline_path();
    }
    repo_root().join("results").join("BENCH_pipeline.json")
}

fn history_path() -> PathBuf {
    std::env::var("GPUMEM_BENCH_HISTORY")
        .map(PathBuf::from)
        .unwrap_or_else(|_| repo_root().join("results").join("bench_history.jsonl"))
}

/// What tells trajectory entries from different builds and machines
/// apart — the commit, the compiler (`rustc -V`) and the CPU count, as
/// the perfbench results record them. Unknown parts read `"unknown"`
/// (and 0 CPUs).
fn fingerprint() -> (String, String, usize) {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    (
        git_sha().unwrap_or_else(|| "unknown".to_string()),
        rustc.unwrap_or_else(|| "unknown".to_string()),
        nproc,
    )
}

/// The commit checked out at the repository root, read from `.git`
/// without running git (a source checkout without history has none).
fn git_sha() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// `text` as the body of a JSON string literal.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Append this run's headline numbers to the bench trajectory journal.
///
/// One compact JSON line per run; field names match the metric tables
/// in `gpumem-cli bench-info --check`, which walks the same file. The
/// journal is untracked (gitignored) so every machine accumulates its
/// own trajectory.
fn append_history(line: &str) {
    let path = history_path();
    if let Some(dir) = path.parent() {
        if std::fs::create_dir_all(dir).is_err() {
            eprintln!("bench history skipped: cannot create {}", dir.display());
            return;
        }
    }
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| writeln!(file, "{line}"));
    match appended {
        Ok(()) => eprintln!("bench history → {}", path.display()),
        Err(err) => eprintln!("bench history skipped: {err}"),
    }
}

/// Fields the simulator computes deterministically — modeled times and
/// ratios, device counters and counts. A fresh report must repeat the
/// tracked baseline's value exactly, at the precision the report writes:
/// a replay or scheduling change that moves the model even slightly
/// shows here, where a tolerance band would hide it.
const EXACT_FIELDS: &[(&str, &[&str])] = &[
    (
        "current",
        &[
            "modeled_index_s",
            "modeled_match_s",
            "modeled_generate_s",
            "modeled_extend_s",
            "modeled_combine_s",
            "warp_efficiency",
            "divergence_rate",
            "block_occupancy",
            "launches",
            "mems",
        ],
    ),
    (
        "batch",
        &["index_launches_cold", "index_launches_batch", "mems"],
    ),
    ("seedmode_l25", SEEDMODE_EXACT),
    ("seedmode_l100", SEEDMODE_EXACT),
    ("seedmode_l300", SEEDMODE_EXACT),
    (
        "registry",
        &[
            "budget_bytes",
            "per_ref_bytes",
            "hit_rate",
            "evictions",
            "peak_resident_bytes",
            "resident_bytes",
        ],
    ),
    (
        "sharded",
        &[
            "single_modeled_match_s",
            "max_shard_modeled_match_s",
            "modeled_ratio",
            "mems",
        ],
    ),
];

const SEEDMODE_EXACT: &[&str] = &[
    "k1",
    "k2",
    "ref_modeled_match_s",
    "dual_modeled_match_s",
    "modeled_ratio",
    "mems",
];

/// Host-timed fields, gated by a relative band because wall time varies
/// from run to run: `(object, field, higher is better)`.
const BANDED_FIELDS: &[(&str, &str, bool)] = &[
    ("current", "wall_s", false),
    ("current", "match_wall_s", false),
    ("batch", "qps_batch", true),
];

/// Compare a fresh report with the tracked baseline: every
/// [`EXACT_FIELDS`] entry must be equal, and every [`BANDED_FIELDS`]
/// entry within `max_regress` of the baseline. Returns the failures.
fn check_against_baseline(
    fresh: &str,
    committed: &str,
    max_regress: f64,
) -> Result<(), Vec<String>> {
    let field = |json: &str, object: &str, name: &str| {
        extract_object(json, object).and_then(|o| extract_number(&o, name))
    };
    let mut failures = Vec::new();
    let mut exact = 0;
    for &(object, names) in EXACT_FIELDS {
        for &name in names {
            let (Some(now), Some(then)) =
                (field(fresh, object, name), field(committed, object, name))
            else {
                failures.push(format!(
                    "{object}.{name} missing from the fresh or the committed report"
                ));
                continue;
            };
            if now == then {
                exact += 1;
            } else {
                failures.push(format!("{object}.{name} is {now} but the committed baseline has {then}; modeled figures must not move without a re-bless"));
            }
        }
    }
    eprintln!("exact check: {exact} modeled and count fields equal the committed baseline");
    for &(object, name, higher_is_better) in BANDED_FIELDS {
        let (Some(now), Some(then)) = (field(fresh, object, name), field(committed, object, name))
        else {
            eprintln!("{object}.{name} check skipped: no committed value");
            continue;
        };
        let regressed = if higher_is_better {
            now < then * (1.0 - max_regress)
        } else {
            now > then * (1.0 + max_regress)
        };
        if regressed {
            failures.push(format!(
                "{object}.{name} {now} regressed more than {:.0}% against committed {then}",
                max_regress * 100.0
            ));
        } else {
            eprintln!(
                "{object}.{name} check ok: {now} vs committed {then} (max regression {:.0}%)",
                max_regress * 100.0
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

fn main() {
    let iters: usize = std::env::var("GPUMEM_QUICK_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let (reference, query) = dataset();
    let config = GpumemConfig::builder(MIN_LEN)
        .seed_len(SEED_LEN)
        .threads_per_block(THREADS_PER_BLOCK)
        .blocks_per_tile(BLOCKS_PER_TILE)
        .build()
        .expect("valid quick config");
    let gpumem = Gpumem::new(config.clone());

    let mut best: Option<Sample> = None;
    for i in 0..iters {
        let sample = measure(&gpumem, &reference, &query);
        eprintln!(
            "iter {}: wall {:.3} s (index {:.3} + match {:.3}), modeled {:.3} ms, {} MEMs",
            i,
            sample.wall_s,
            sample.stats.index_wall.as_secs_f64(),
            sample.stats.match_wall.as_secs_f64(),
            (sample.stats.index.modeled_secs() + sample.stats.matching.modeled_secs()) * 1e3,
            sample.mems,
        );
        if let Some(prev) = &best {
            // Host-side optimizations must never move modeled time.
            assert_eq!(
                prev.stats.index.device_cycles, sample.stats.index.device_cycles,
                "modeled index cycles changed between identical runs"
            );
            assert_eq!(
                prev.stats.matching.device_cycles, sample.stats.matching.device_cycles,
                "modeled matching cycles changed between identical runs"
            );
            assert_eq!(prev.mems, sample.mems, "output changed between runs");
        }
        if best.as_ref().is_none_or(|b| sample.wall_s < b.wall_s) {
            best = Some(sample);
        }
    }
    let best = best.expect("at least one iteration");

    let queries = batch_queries(&reference);
    let mut batch_best: Option<BatchSample> = None;
    for i in 0..iters {
        let sample = measure_batch(&reference, &queries, &config);
        eprintln!(
            "batch iter {}: cold {:.3} s vs batch {:.3} s ({:.1}x qps), index launches {} -> {}",
            i,
            sample.cold_wall_s,
            sample.batch_wall_s,
            sample.cold_wall_s / sample.batch_wall_s,
            sample.index_launches_cold,
            sample.index_launches_batch,
        );
        if let Some(prev) = &batch_best {
            assert_eq!(prev.mems, sample.mems, "batch output changed between runs");
        }
        if batch_best
            .as_ref()
            .is_none_or(|b| sample.batch_wall_s < b.batch_wall_s)
        {
            batch_best = Some(sample);
        }
    }
    let batch_best = batch_best.expect("at least one iteration");

    let path = out_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the report directory");
    }

    // One traced run of the same pipeline workload, after the timed
    // iterations so the recorder can't perturb them. The Chrome trace
    // lands next to the benchmark JSON (open in Perfetto /
    // chrome://tracing); tracing must never move modeled device time.
    let (traced, trace) = gpumem
        .run_traced(&reference, &query)
        .expect("quick workload fits");
    assert_eq!(
        traced.stats.index.device_cycles, best.stats.index.device_cycles,
        "tracing changed modeled index cycles"
    );
    assert_eq!(
        traced.stats.matching.device_cycles, best.stats.matching.device_cycles,
        "tracing changed modeled matching cycles"
    );
    let trace_path = path.with_file_name("BENCH_pipeline_trace.json");
    std::fs::write(&trace_path, trace.to_chrome_json()).expect("write pipeline trace");
    eprintln!("pipeline trace → {}", trace_path.display());
    let breakdown = ModeledBreakdown::from_trace(&trace, &best.stats.matching);
    eprintln!(
        "modeled match breakdown: generate {:.3} ms, extend {:.3} ms, combine {:.3} ms",
        breakdown.generate_s * 1e3,
        breakdown.extend_s * 1e3,
        breakdown.combine_s * 1e3,
    );
    eprintln!(
        "device counters: warp efficiency {:.3}, divergence rate {:.4}, block occupancy {:.3}",
        best.stats.matching.warp_efficiency(32),
        best.stats.matching.divergence_rate(),
        best.stats.matching.block_occupancy(),
    );

    // Registry scenario: zipf traffic over K references under a byte
    // budget — hit rate and eviction churn are the tracked outputs.
    let registry_sample = {
        let sample = measure_registry(&config);
        eprintln!(
            "registry: {} refs, budget {} B ({} B/ref), hit rate {:.2}, {} evictions, peak {} B",
            REGISTRY_REFS,
            sample.budget_bytes,
            sample.per_ref_bytes,
            sample.hit_rate,
            sample.evictions,
            sample.peak_resident_bytes,
        );
        sample
    };

    // Sharded scenario: byte-identity across N devices plus the
    // modeled multi-device speedup (bounded by the slowest shard).
    let sharded_sample = {
        let sample = measure_sharded(&reference, &query, &config);
        eprintln!(
            "sharded: {} shards, modeled match {:.3} ms single vs {:.3} ms max-shard ({:.2}x), {} MEMs",
            SHARD_COUNT,
            sample.single_modeled_match_s * 1e3,
            sample.max_shard_modeled_match_s * 1e3,
            sample.single_modeled_match_s / sample.max_shard_modeled_match_s,
            sample.mems,
        );
        sample
    };

    // Seed-mode ablation: one run per (L, mode) — modeled time is
    // deterministic, and modeled_ratio is what the gate tracks.
    let (abl_ref, abl_query) = {
        let reference = GenomeModel::mammalian().generate(SEEDMODE_REF_LEN, DATA_SEED + 2);
        let model = MutationModel {
            sub_rate: 0.001,
            indel_rate: 0.0001,
        };
        let mut rng = StdRng::seed_from_u64(DATA_SEED + 3);
        let query = PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng));
        (reference, query)
    };
    let seedmode: Vec<SeedModeSample> = SEEDMODE_LS
        .iter()
        .map(|&l| {
            let sample = measure_seedmode(l, &abl_ref, &abl_query);
            eprintln!(
                "seedmode L={}: dual ({}, {}) modeled match {:.3} ms vs ref {:.3} ms ({:.1}x), wall {:.3} s vs {:.3} s, {} MEMs",
                l,
                sample.k1,
                sample.k2,
                sample.dual_modeled_match_s * 1e3,
                sample.ref_modeled_match_s * 1e3,
                sample.ref_modeled_match_s / sample.dual_modeled_match_s,
                sample.dual_wall_s,
                sample.ref_wall_s,
                sample.mems,
            );
            sample
        })
        .collect();

    let committed = std::fs::read_to_string(baseline_path()).ok();
    let current = render(&best, &breakdown);
    let before = committed
        .as_deref()
        .and_then(|json| extract_object(json, "before"))
        .unwrap_or_else(|| current.clone());
    let before_wall = extract_number(&before, "wall_s").unwrap_or(best.wall_s);

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"dataset\": {{\n",
            "    \"ref_len\": {}, \"query_len\": {}, \"min_len\": {}, \"seed_len\": {},\n",
            "    \"threads_per_block\": {}, \"blocks_per_tile\": {}, \"tiles\": \"{}x{}\",\n",
            "    \"data_seed\": {}, \"iters\": {}\n",
            "  }},\n",
            "  \"before\": {},\n",
            "  \"current\": {},\n",
            "  \"batch\": {},\n",
            "  \"seedmode_l25\": {},\n",
            "  \"seedmode_l100\": {},\n",
            "  \"seedmode_l300\": {},\n",
            "  \"registry\": {},\n",
            "  \"sharded\": {},\n",
            "  \"speedup_wall\": {:.2}\n",
            "}}\n"
        ),
        reference.len(),
        query.len(),
        MIN_LEN,
        SEED_LEN,
        THREADS_PER_BLOCK,
        BLOCKS_PER_TILE,
        best.stats.rows,
        best.stats.cols,
        DATA_SEED,
        iters,
        before,
        current,
        render_batch(&batch_best),
        render_seedmode(&seedmode[0]),
        render_seedmode(&seedmode[1]),
        render_seedmode(&seedmode[2]),
        render_registry(&registry_sample),
        render_sharded(&sharded_sample),
        before_wall / best.wall_s,
    );
    if std::env::var("GPUMEM_BENCH_CHECK").is_ok_and(|v| v == "1") {
        let max_regress: f64 = std::env::var("GPUMEM_BENCH_MAX_REGRESS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.20);
        match committed.as_deref() {
            Some(committed) => {
                if let Err(failures) = check_against_baseline(&json, committed, max_regress) {
                    for failure in failures {
                        eprintln!("FAIL: {failure}");
                    }
                    std::process::exit(1);
                }
            }
            None => eprintln!("check skipped: no committed BENCH_pipeline.json"),
        }
    }

    std::fs::write(&path, &json).expect("write BENCH_pipeline.json");

    // Bench trajectory: one compact line per run, appended after the
    // report so a write failure can never lose the main artifact.
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let l300 = seedmode
        .iter()
        .find(|s| s.l == 300)
        .expect("L = 300 is in the ablation");
    let (git_sha, rustc, nproc) = fingerprint();
    append_history(&format!(
        concat!(
            "{{\"ts\":{},\"git_sha\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},",
            "\"wall_s\":{:.6},\"match_wall_s\":{:.6},\"qps_batch\":{:.3},",
            "\"seedmode_l300_modeled_ratio\":{:.4},",
            "\"sharded_modeled_ratio\":{:.4},\"mems\":{}}}"
        ),
        ts,
        json_escape(&git_sha),
        json_escape(&rustc),
        nproc,
        best.wall_s,
        best.stats.match_wall.as_secs_f64(),
        BATCH_QUERIES as f64 / batch_best.batch_wall_s,
        l300.ref_modeled_match_s / l300.dual_modeled_match_s,
        sharded_sample.single_modeled_match_s / sharded_sample.max_shard_modeled_match_s,
        best.mems,
    ));

    println!("{json}");
    println!("→ {}", path.display());
}
