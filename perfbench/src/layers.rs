//! Per-layer metrics, read from what a traced run records: `Run`,
//! `Stage` and `Launch` spans, each launch's `LaunchStats`, and the
//! in-kernel `PhaseStats` of the block kernels.
//!
//! Stage spans (`index_build`, `block_batch`, `tile_merge`,
//! `global_merge`) partition a run's device work and never overlap, so
//! a run span's wall is their sum plus `pipeline.unattributed_s`: host
//! work between launches and the final canonicalization.

use std::collections::BTreeMap;

use gpumem::core::{GpumemStats, SpanCat, Trace};
use gpumem::sim::LaunchStats;

use crate::Metric;

/// The in-kernel phases of `match.blocks`, in pipeline order.
const BLOCK_PHASES: [(&str, &str); 5] = [
    ("seed_lookup", "block.seed_lookup_cycles"),
    ("balance", "block.balance_cycles"),
    ("generate", "block.generate_cycles"),
    ("combine", "block.combine_cycles"),
    ("expand", "block.expand_cycles"),
];

/// The index layer, timed by the caller through `Gpumem::build_index_only`
/// (one-shot) or `Engine::warm` (serving).
#[derive(Clone, Debug, Default)]
pub struct IndexLayer {
    pub build_wall_s: f64,
    pub stats: LaunchStats,
    pub rows_built: usize,
    pub resident_bytes: u64,
}

/// The serving layers, read from `Engine::metrics` and request timings.
/// One-shot workloads have no engine or registry and report zeros.
#[derive(Clone, Debug, Default)]
pub struct EngineLayer {
    pub overhead_ms_p50: f64,
    pub worker_max_share: f64,
    pub build_wait_s: f64,
    pub registry_hits: u64,
    pub registry_misses: u64,
    pub registry_resident_bytes: u64,
}

/// Summed stage figures of a set of traces.
#[derive(Default)]
struct Stage {
    wall_s: f64,
    stats: LaunchStats,
}

/// The per-layer metrics of `traces`, whose runs returned `results`
/// (same order). Problems found while reconciling spans against run
/// statistics are appended to `problems`.
pub fn metrics(
    traces: &[Trace],
    results: &[GpumemStats],
    warp_size: usize,
    index: &IndexLayer,
    engine: &EngineLayer,
    trace_overhead_frac: f64,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let mut run_wall_s = 0.0;
    let mut stages: BTreeMap<&str, Stage> = BTreeMap::new();
    let mut launches = 0u64;
    let mut launch_wall_s = 0.0;
    let mut launch_warp_cycles = 0u64;
    let mut phase_cycles: BTreeMap<&str, u64> = BTreeMap::new();
    for trace in traces {
        for span in trace.spans() {
            let dur = span.dur.as_secs_f64();
            match span.cat {
                SpanCat::Run => run_wall_s += dur,
                SpanCat::Stage => {
                    let stage = stages.entry(span.name.as_str()).or_default();
                    stage.wall_s += dur;
                    if let Some(stats) = &span.stats {
                        stage.stats += stats.clone();
                    }
                }
                SpanCat::Launch => {
                    launches += 1;
                    launch_wall_s += dur;
                    if let Some(stats) = &span.stats {
                        launch_warp_cycles += stats.warp_cycles;
                    }
                    if span.name == "match.blocks" {
                        for phase in &span.phases {
                            *phase_cycles.entry(phase.name.as_str()).or_default() +=
                                phase.warp_cycles;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let mut index_stats = LaunchStats::default();
    let mut matching = LaunchStats::default();
    let (mut in_block, mut out_block, mut out_tile, mut from_global) = (0, 0, 0, 0);
    for (trace, stats) in traces.iter().zip(results) {
        let run_cycles = stats.index.device_cycles + stats.matching.device_cycles;
        if trace.stage_totals().device_cycles != run_cycles {
            problems.push(format!(
                "stage spans carry {} device cycles, the run {run_cycles}",
                trace.stage_totals().device_cycles
            ));
        }
        index_stats += stats.index.clone();
        matching += stats.matching.clone();
        in_block += stats.counts.in_block;
        out_block += stats.counts.out_block;
        out_tile += stats.counts.out_tile;
        from_global += stats.counts.from_global;
    }
    if launches != index_stats.launches + matching.launches {
        problems.push(format!(
            "{launches} launch spans for {} recorded launches",
            index_stats.launches + matching.launches
        ));
    }

    let stage = |name: &str| {
        stages.get(name).map_or((0.0, LaunchStats::default()), |s| {
            (s.wall_s, s.stats.clone())
        })
    };
    let (block_wall_s, block) = stage("block_batch");
    let (tile_wall_s, tile) = stage("tile_merge");
    let (global_wall_s, _) = stage("global_merge");
    let stage_wall_s: f64 = stages.values().map(|s| s.wall_s).sum();
    let unattributed_s = run_wall_s - stage_wall_s;
    if unattributed_s < -1e-6 {
        problems.push(format!(
            "stage spans ({stage_wall_s} s) exceed their run spans ({run_wall_s} s)"
        ));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = vec![
        Metric::new("gpu_sim.launches", launches as f64, "count"),
        Metric::new("gpu_sim.launch_wall_s", launch_wall_s, "s"),
        Metric::new(
            "gpu_sim.us_per_launch",
            ratio(launch_wall_s * 1e6, launches as f64),
            "us",
        ),
        Metric::new(
            "gpu_sim.ns_per_warp_cycle",
            ratio(launch_wall_s * 1e9, launch_warp_cycles as f64),
            "ns",
        ),
        Metric::new(
            "gpu_sim.warp_efficiency",
            matching.warp_efficiency(warp_size),
            "ratio",
        ),
        Metric::new(
            "gpu_sim.divergence_rate",
            matching.divergence_rate(),
            "1/warp",
        ),
        Metric::new(
            "gpu_sim.block_occupancy",
            matching.block_occupancy(),
            "ratio",
        ),
        Metric::new(
            "gpu_sim.pool_allocs",
            (index_stats.pool_allocs + matching.pool_allocs) as f64,
            "count",
        ),
        Metric::new("index.build_wall_s", index.build_wall_s, "s"),
        Metric::new("index.modeled_s", index.stats.modeled_secs(), "s"),
        Metric::new("index.launches", index.stats.launches as f64, "count"),
        Metric::new("index.rows_built", index.rows_built as f64, "count"),
        Metric::new("index.resident_bytes", index.resident_bytes as f64, "B"),
        Metric::new("block.wall_s", block_wall_s, "s"),
        Metric::new("block.modeled_s", block.modeled_secs(), "s"),
    ];
    for (phase, name) in BLOCK_PHASES {
        let cycles = phase_cycles.get(phase).copied().unwrap_or(0);
        out.push(Metric::new(name, cycles as f64, "cycles"));
    }
    out.extend([
        Metric::new("block.comparisons", block.comparisons as f64, "count"),
        // Comparisons per MEM or fragment a block reports: the
        // wasted-work ratio that lazy LCP evaluation targets.
        Metric::new(
            "block.comparisons_per_mem",
            ratio(block.comparisons as f64, (in_block + out_block) as f64),
            "ratio",
        ),
        Metric::new("block.in_block_mems", in_block as f64, "count"),
        Metric::new("tile_run.wall_s", tile_wall_s, "s"),
        Metric::new("tile_run.modeled_s", tile.modeled_secs(), "s"),
        Metric::new("tile_run.launches", tile.launches as f64, "count"),
        Metric::new("tile_run.fragments_in", out_block as f64, "count"),
        Metric::new("global.wall_s", global_wall_s, "s"),
        Metric::new("global.fragments_in", out_tile as f64, "count"),
        Metric::new("global.mems", from_global as f64, "count"),
        Metric::new("pipeline.unattributed_s", unattributed_s, "s"),
        Metric::new(
            "pipeline.unattributed_frac",
            ratio(unattributed_s, run_wall_s),
            "ratio",
        ),
        Metric::new("engine.overhead_ms_p50", engine.overhead_ms_p50, "ms"),
        Metric::new("engine.worker_max_share", engine.worker_max_share, "ratio"),
        Metric::new("engine.build_wait_s", engine.build_wait_s, "s"),
        Metric::new("registry.hits", engine.registry_hits as f64, "count"),
        Metric::new("registry.misses", engine.registry_misses as f64, "count"),
        Metric::new(
            "registry.resident_bytes",
            engine.registry_resident_bytes as f64,
            "B",
        ),
        Metric::new("trace.overhead_frac", trace_overhead_frac, "ratio"),
    ]);
    out
}
