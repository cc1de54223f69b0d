//! The end-to-end GPUMEM runner (Figure 1).
//!
//! For each tile row: build the row's partial index on the device
//! (Algorithm 1), then for each tile in the row launch one GPU block
//! per `ℓ_tile × ℓ_block` slice (§III-B), merge the tile's out-block
//! fragments (§III-C1), and finally merge the accumulated out-tile
//! fragments on the host (§III-C2).
//!
//! The tile loop itself lives in `run_tile_rows`: a streaming core
//! that runs a set of tile rows on one device, emits every stage's MEMs
//! into a [`MemSink`] as tiles complete and takes the row index from a
//! caller-supplied provider. `gather_rows` spreads a run's rows over
//! several devices and host threads and merges them back into one run;
//! [`Gpumem::run`] wires it to a fresh per-row build, and sharded
//! engine runs to a cached [`RefSession`](crate::engine::RefSession).
//! The serving engine's single-device path, `run_tiles`, runs every row
//! on the calling thread with per-worker scratch instead.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gpu_sim::{Device, DeviceSpec, LaunchConfig, LaunchStats, PoolClass};
use gpumem_index::{build_compact_gpu, build_gpu, Region, SharedSeedLookup};
use gpumem_seq::{Mem, PackedSeq};

use crate::block::{encode_query_seeds, process_block, BlockOutput, BlockScratch};
use crate::config::GpumemConfig;
use crate::engine::{MemCollector, MemSink, MemStage};
use crate::expand::Bounds;
use crate::global::global_merge;
use crate::shard::ShardPlan;
use crate::tile::Tiling;
use crate::tile_run::{merge_tile, TileOutput};
use crate::trace::{SpanCat, Trace, TraceRecorder};

/// The sort-key packing in the device sort limits sequence coordinates
/// to 30 bits, so each input sequence must stay under 1 Gbp.
pub const SORT_KEY_LIMIT: usize = 1 << 30;

/// Why a run (or session creation) was refused before any launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A sequence is at or over [`SORT_KEY_LIMIT`] bases.
    SequenceTooLong {
        /// The offending sequence's length.
        len: usize,
        /// The limit it violates ([`SORT_KEY_LIMIT`]).
        limit: usize,
    },
    /// One tile row's working set does not fit the device's global
    /// memory (the quantity the paper sizes the tiling against, §III).
    DeviceMemoryExceeded {
        /// Estimated bytes for one tile row's working set.
        estimate: u64,
        /// The device's global memory capacity in bytes.
        capacity: u64,
    },
    /// A [`RunRequest`](crate::engine::RunRequest) carried options the
    /// engine cannot honor (conflicting builder inputs, a seed-mode
    /// override that fails config validation, a shard plan that does
    /// not cover the run's tile rows, …).
    InvalidOptions(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::SequenceTooLong { len, limit } => write!(
                f,
                "sequence of {len} bases exceeds the {limit}-base sort-key limit (1 Gbp)"
            ),
            RunError::DeviceMemoryExceeded { estimate, capacity } => write!(
                f,
                "tile working set (~{estimate} bytes) exceeds device memory ({capacity} bytes); \
                 reduce blocks_per_tile or seed_len"
            ),
            RunError::InvalidOptions(why) => write!(f, "invalid run options: {why}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Refuse sequences whose coordinates would overflow the sort keys.
pub(crate) fn ensure_sort_key(seq: &PackedSeq) -> Result<(), RunError> {
    if seq.len() >= SORT_KEY_LIMIT {
        return Err(RunError::SequenceTooLong {
            len: seq.len(),
            limit: SORT_KEY_LIMIT,
        });
    }
    Ok(())
}

/// Refuse configurations whose tile-row working set overflows `spec`'s
/// global memory.
pub(crate) fn ensure_fits(config: &GpumemConfig, spec: &DeviceSpec) -> Result<(), RunError> {
    let estimate = device_memory_estimate(config);
    if estimate > spec.global_mem_bytes {
        return Err(RunError::DeviceMemoryExceeded {
            estimate,
            capacity: spec.global_mem_bytes,
        });
    }
    Ok(())
}

/// Estimated device bytes for one tile row under `config`: every
/// buffer a row's index build takes from the device's pool, at the size
/// the pool holds it, plus the packed tile of reference bases and
/// working triplet buffers. This is the quantity the paper sizes the
/// tiling against ("to fit the problem to GPU memory", §III), and an
/// upper bound of a run's measured `pool_peak_bytes`.
///
/// The pool serves a buffer of `n` elements from the power-of-two class
/// `n.next_power_of_two()`, and keeps every class it ever served. Dense
/// rows take `ptrs` (4^ℓs + 1 entries), Algorithm 1's `temp` cursor copy
/// (4^ℓs), the device scan's chunk sums and `locs` (one entry per sampled
/// location); compact rows take the `(code, location)` pairs (8 bytes per
/// location). Rows at the end of the reference sample fewer locations
/// and may take smaller classes of `locs` or pairs, so those count
/// twice the fullest row's class: all powers of two up to a class sum to
/// less than that.
pub fn device_memory_estimate(config: &GpumemConfig) -> u64 {
    let class = |n: u64| n.next_power_of_two().max(1);
    let n_locs = (config.tile_len() / config.step + 1) as u64;
    let index = match config.index_kind {
        crate::config::IndexKind::DenseTable => {
            let seeds = 1u64 << (2 * config.seed_len);
            let scan_sums: u64 = gpu_sim::primitives::device_scan_sums(seeds as usize + 1)
                .into_iter()
                .map(|len| class(len as u64))
                .sum();
            4 * (class(seeds + 1) + class(seeds) + scan_sums + 2 * class(n_locs))
        }
        crate::config::IndexKind::CompactDirectory => 8 * 2 * class(n_locs),
    };
    let tile_bases = (config.tile_len() as u64).div_ceil(4); // 2-bit packed
                                                             // Triplet working set: generously assume every sampled location
                                                             // anchors one 12-byte triplet, twice (block + tile stage).
    let triplets = n_locs * 12 * 2;
    index + 2 * tile_bases + triplets
}

/// Build `config`'s index layout for one reference region on `device`.
/// Returned behind an [`Arc`] so a serving session can cache the index
/// and hand clones to concurrent query workers.
pub(crate) fn build_row_index(
    device: &Device,
    config: &GpumemConfig,
    reference: &PackedSeq,
    region: Region,
) -> (SharedSeedLookup, LaunchStats) {
    match config.index_kind {
        crate::config::IndexKind::DenseTable => {
            let (index, stats) = build_gpu(device, reference, region, config.seed_len, config.step);
            (Arc::new(index), stats)
        }
        crate::config::IndexKind::CompactDirectory => {
            let (index, stats) =
                build_compact_gpu(device, reference, region, config.seed_len, config.step);
            (Arc::new(index), stats)
        }
    }
}

/// Report from building the per-row partial indexes (the Table III
/// measurement).
#[derive(Clone, Debug, Default)]
pub struct IndexBuildReport {
    /// Device statistics of the index-construction launches.
    pub stats: LaunchStats,
    /// Wall time spent simulating the builds.
    pub wall: Duration,
    /// Number of tile rows whose index was built.
    pub rows: usize,
}

/// Working storage for one in-flight streaming run: the query's seed
/// codes plus the `TileScratch` its tile rows reuse. The serving
/// engine keeps one per query worker, so parallel queries never contend
/// on scratch; a one-shot run gives each of its workers a fresh
/// `TileScratch` and shares one encoding of the codes among them.
pub struct RunScratch {
    /// Seed code of every query position, encoded at the start of each
    /// run (never carried over to the next run's query).
    query_codes: Vec<u32>,
    tiles: TileScratch,
}

impl RunScratch {
    /// Scratch for `config`'s block geometry (τ threads).
    pub fn new(config: &GpumemConfig) -> RunScratch {
        RunScratch {
            query_codes: Vec::new(),
            tiles: TileScratch::new(config),
        }
    }
}

/// What one worker's tile rows reuse from tile to tile: the block
/// scratch and accumulators hoisted across every launch (blocks execute
/// sequentially on the launching thread, see the `gpu_sim::exec` docs)
/// plus the out-tile fragments its rows produced.
pub(crate) struct TileScratch {
    block: BlockScratch,
    blocks_out: BlockOutput,
    tile_out: TileOutput,
    out_tile: Vec<Mem>,
}

impl TileScratch {
    fn new(config: &GpumemConfig) -> TileScratch {
        TileScratch {
            block: BlockScratch::new(config.threads_per_block),
            blocks_out: BlockOutput::default(),
            tile_out: TileOutput::default(),
            out_tile: Vec::new(),
        }
    }
}

/// How many MEM fragments each stage produced (§IV would call these the
/// intermediate result sizes; Fig. 7's discussion leans on them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// In-block MEMs reported by block kernels.
    pub in_block: usize,
    /// Out-block fragments passed to tile merges.
    pub out_block: usize,
    /// In-tile MEMs reported by tile merges.
    pub in_tile: usize,
    /// Out-tile fragments passed to the host merge.
    pub out_tile: usize,
    /// MEMs produced by the final host merge.
    pub from_global: usize,
    /// Final canonical MEM count (for a streaming run: the total MEMs
    /// emitted, which may count cross-tile duplicates).
    pub total: usize,
}

/// Aggregated run statistics.
#[derive(Clone, Debug, Default)]
pub struct GpumemStats {
    /// Device statistics of the index-construction launches. Table III
    /// reports `index.modeled_time`.
    pub index: LaunchStats,
    /// Device statistics of the extraction launches (blocks + tile
    /// merges). Table IV reports `matching.modeled_time`.
    pub matching: LaunchStats,
    /// Host time spent simulating index construction. When a run's tile
    /// rows are simulated on several host threads (see [`Gpumem::run`]
    /// and sharded engine runs), this is the sum over the threads, so
    /// `index_wall + match_wall` may exceed the run's wall time.
    pub index_wall: Duration,
    /// Host time spent simulating extraction, including the host merge
    /// and the final canonicalization; summed over threads like
    /// `index_wall`.
    pub match_wall: Duration,
    /// Stage result sizes.
    pub counts: StageCounts,
    /// Tile grid dimensions (`n_r`, `n_c`).
    pub rows: usize,
    /// Number of tile columns.
    pub cols: usize,
    /// Per-shard extraction statistics of a sharded run, one entry per
    /// shard in shard order; empty for single-device runs. `matching`
    /// is their sum, but the per-shard split is what a speedup model
    /// needs: the sharded critical path is the *slowest* shard.
    pub shard_matching: Vec<LaunchStats>,
}

impl GpumemStats {
    /// Max/mean per-shard modeled matching time of a sharded run — the
    /// load-imbalance ratio (1.0 = perfectly balanced; also 1.0 for
    /// single-device runs, where there is nothing to imbalance).
    pub fn shard_imbalance(&self) -> f64 {
        if self.shard_matching.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = self
            .shard_matching
            .iter()
            .map(LaunchStats::modeled_secs)
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        times.iter().copied().fold(0.0, f64::max) / mean
    }
}

impl std::fmt::Display for GpumemStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tiles: {} rows x {} cols; modeled device time: index {:.3} ms + matching {:.3} ms",
            self.rows,
            self.cols,
            self.index.modeled_secs() * 1e3,
            self.matching.modeled_secs() * 1e3
        )?;
        writeln!(
            f,
            "warp efficiency {:.2}, {} divergence events, {} atomics, {} comparisons",
            self.matching.warp_efficiency(32),
            self.matching.divergence_events,
            self.index.atomic_ops + self.matching.atomic_ops,
            self.matching.comparisons
        )?;
        write!(
            f,
            "stages: {} in-block + {} in-tile + {} global = {} MEMs ({} out-block, {} out-tile fragments)",
            self.counts.in_block,
            self.counts.in_tile,
            self.counts.from_global,
            self.counts.total,
            self.counts.out_block,
            self.counts.out_tile
        )
    }
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct GpumemResult {
    /// All maximal exact matches of length ≥ L, canonical.
    pub mems: Vec<Mem>,
    /// Run statistics.
    pub stats: GpumemStats,
}

/// The serving engine's streaming tile loop: every tile row of the run
/// on one device, on the calling thread. `row_index` supplies each
/// row's partial index (built fresh, or served from a session cache
/// with zero launch stats); every stage's MEMs go to `sink` the moment
/// the stage completes. The returned `counts.total` is the emitted total
/// (in-block + in-tile + global, cross-tile duplicates included);
/// collecting callers overwrite it with the canonical count.
pub(crate) fn run_tiles(
    device: &Device,
    config: &GpumemConfig,
    reference: &PackedSeq,
    query: &PackedSeq,
    row_index: &mut dyn FnMut(&Device, usize, Region) -> (SharedSeedLookup, LaunchStats),
    scratch: &mut RunScratch,
    sink: &mut dyn MemSink,
    trace: Option<&TraceRecorder>,
) -> GpumemStats {
    // Every tile row probes the same query seeds: encode them once.
    encode_query_seeds(query, config.seed_len, &mut scratch.query_codes);
    let tiles = &mut scratch.tiles;
    let mut stats = run_tile_rows(
        device,
        config,
        reference,
        query,
        &scratch.query_codes,
        row_index,
        tiles,
        sink,
        trace,
        None,
    );
    finish_global(
        reference,
        query,
        std::mem::take(&mut tiles.out_tile),
        config.min_len,
        0,
        sink,
        trace,
        &mut stats,
    );
    stats
}

/// The tile loop restricted to a subset of tile rows — the core of
/// [`run_tiles`] and of each [`gather_rows`] worker. Runs every tile of
/// the rows listed in `rows` (`None` = all rows), streaming
/// in-block/in-tile MEMs into `sink` and leaving the produced out-tile
/// fragments in `scratch.out_tile` for a later [`finish_global`].
/// `query_codes` holds the seed code of every query position
/// ([`encode_query_seeds`]). Out-tile fragments are per-tile products —
/// independent of which device runs the tile — so concatenating the
/// fragments of disjoint row subsets and host-merging them once
/// reproduces the single-device output exactly.
#[allow(clippy::too_many_arguments)]
fn run_tile_rows(
    device: &Device,
    config: &GpumemConfig,
    reference: &PackedSeq,
    query: &PackedSeq,
    query_codes: &[u32],
    row_index: &mut dyn FnMut(&Device, usize, Region) -> (SharedSeedLookup, LaunchStats),
    scratch: &mut TileScratch,
    sink: &mut dyn MemSink,
    trace: Option<&TraceRecorder>,
    rows: Option<&[usize]>,
) -> GpumemStats {
    let mut stats = GpumemStats::default();
    scratch.out_tile.clear();

    if reference.len() >= config.seed_len && !query.is_empty() {
        let tiling = Tiling::new(config.tile_len(), reference.len(), query.len());
        stats.rows = tiling.n_rows();
        stats.cols = tiling.n_cols();
        let all_rows: Vec<usize>;
        let subset: &[usize] = match rows {
            Some(rows) => rows,
            None => {
                all_rows = (0..tiling.n_rows()).collect();
                &all_rows
            }
        };
        debug_assert!(
            subset.iter().all(|&r| r < tiling.n_rows()),
            "shard rows out of range"
        );

        for &row in subset {
            let row_range = tiling.row_range(row);
            let row_span = trace.map(|t| t.begin(format!("tile_row {row}"), SpanCat::TileRow));

            // Partial index of this row (Algorithm 1, on device).
            let t0 = Instant::now();
            let index_span = trace.map(|t| t.begin("index_build", SpanCat::Stage));
            let (index, istats) = row_index(
                device,
                row,
                Region {
                    start: row_range.start,
                    len: row_range.len(),
                },
            );
            if let (Some(t), Some(id)) = (trace, index_span) {
                t.end_with_stats(id, istats.clone());
            }
            stats.index += istats;
            stats.index_wall += t0.elapsed();

            for col in 0..tiling.n_cols() {
                let t1 = Instant::now();
                let tile_span =
                    trace.map(|t| t.begin(format!("tile ({row},{col})"), SpanCat::Tile));

                // One GPU block per ℓ_tile × ℓ_block slice; every
                // block appends into the reused accumulator.
                scratch.blocks_out.in_block.clear();
                scratch.blocks_out.out_block.clear();
                let batch_span = trace.map(|t| t.begin("block_batch", SpanCat::Stage));
                let cell = Mutex::new((&mut scratch.blocks_out, &mut scratch.block));
                let launch = device.launch_fn_named(
                    LaunchConfig::new(config.blocks_per_tile, config.threads_per_block),
                    "match.blocks",
                    |ctx| {
                        let block_q = tiling.block_range(col, ctx.block_id, config.block_width());
                        let guard = &mut *cell.lock();
                        let (output, scratch) = guard;
                        process_block(
                            ctx,
                            reference,
                            query,
                            query_codes,
                            index.as_ref(),
                            config,
                            row_range.clone(),
                            block_q,
                            scratch,
                            output,
                        );
                    },
                );
                if let (Some(t), Some(id)) = (trace, batch_span) {
                    t.end_with_stats(id, launch.clone());
                }
                stats.matching += launch;

                stats.counts.in_block += scratch.blocks_out.in_block.len();
                if !scratch.blocks_out.in_block.is_empty() {
                    sink.mems(MemStage::Block { row, col }, &scratch.blocks_out.in_block);
                }
                stats.counts.out_block += scratch.blocks_out.out_block.len();

                // Tile merge (§III-C1) as its own kernel.
                if !scratch.blocks_out.out_block.is_empty() {
                    let tile_bounds = Bounds {
                        r: row_range.clone(),
                        q: tiling.col_range(col),
                    };
                    scratch.tile_out.in_tile.clear();
                    scratch.tile_out.out_tile.clear();
                    let merge_span = trace.map(|t| t.begin("tile_merge", SpanCat::Stage));
                    let cell =
                        Mutex::new((&mut scratch.blocks_out.out_block, &mut scratch.tile_out));
                    let launch = device.launch_fn_named(
                        LaunchConfig::new(1, config.threads_per_block),
                        "match.tile_merge",
                        |ctx| {
                            let guard = &mut *cell.lock();
                            let (fragments, output) = guard;
                            merge_tile(
                                ctx,
                                reference,
                                query,
                                fragments,
                                &tile_bounds,
                                config.min_len,
                                output,
                            );
                        },
                    );
                    if let (Some(t), Some(id)) = (trace, merge_span) {
                        t.end_with_stats(id, launch.clone());
                    }
                    stats.matching += launch;
                    stats.counts.in_tile += scratch.tile_out.in_tile.len();
                    if !scratch.tile_out.in_tile.is_empty() {
                        sink.mems(MemStage::Tile { row, col }, &scratch.tile_out.in_tile);
                    }
                    scratch
                        .out_tile
                        .extend_from_slice(&scratch.tile_out.out_tile);
                }
                stats.match_wall += t1.elapsed();
                if let (Some(t), Some(id)) = (trace, tile_span) {
                    t.end(id);
                }
            }
            if let (Some(t), Some(id)) = (trace, row_span) {
                t.end(id);
            }
        }
    }

    stats
}

/// Host merge of out-tile fragments (§III-C2) — the closing half of
/// [`run_tiles`] and [`gather_rows`], which concatenate every worker's
/// fragments and merge them once. Its stage span carries no launch: it
/// runs on the host, so it contributes wall time but nothing to the
/// launch-stat reconciliation, except `pool_peak_bytes`: the footprint
/// a gather that reports one device folds its workers' pools into.
/// Finalizes `stats.counts` (`out_tile`, `from_global`, and the emitted
/// `total`).
#[allow(clippy::too_many_arguments)]
fn finish_global(
    reference: &PackedSeq,
    query: &PackedSeq,
    out_tile: Vec<Mem>,
    min_len: u32,
    pool_peak_bytes: u64,
    sink: &mut dyn MemSink,
    trace: Option<&TraceRecorder>,
    stats: &mut GpumemStats,
) {
    let t2 = Instant::now();
    let global_span = trace.map(|t| t.begin("global_merge", SpanCat::Stage));
    stats.counts.out_tile = out_tile.len();
    let global = global_merge(reference, query, out_tile, min_len);
    stats.counts.from_global = global.len();
    if !global.is_empty() {
        sink.mems(MemStage::Global, &global);
    }
    if let (Some(t), Some(id)) = (trace, global_span) {
        let gauge = LaunchStats {
            pool_peak_bytes,
            ..LaunchStats::default()
        };
        t.end_with_stats(id, gauge);
    }
    stats.match_wall += t2.elapsed();
    stats.counts.total = stats.counts.in_block + stats.counts.in_tile + stats.counts.from_global;
}

/// A tile row's partial index on a worker's device: built fresh, or
/// served from a session cache with zero launch stats.
pub(crate) type RowIndexFn<'a> =
    dyn Fn(&Device, usize, Region) -> (SharedSeedLookup, LaunchStats) + Sync + 'a;

/// Reference bases each tile row of a run covers — the row masses a
/// [`ShardPlan`] balances — or no rows when no seed can match.
pub(crate) fn row_masses(
    config: &GpumemConfig,
    reference: &PackedSeq,
    query: &PackedSeq,
) -> Vec<u64> {
    if reference.len() < config.seed_len || query.is_empty() {
        return Vec::new();
    }
    let tiling = Tiling::new(config.tile_len(), reference.len(), query.len());
    (0..tiling.n_rows())
        .map(|row| tiling.row_range(row).len() as u64)
        .collect()
}

/// The pool footprint one device would have if it had run everything
/// `devices` ran: for each (element size, size class), the most buffers
/// any one of them holds. Exact because every row's index build returns
/// all of its pool buffers before the next row starts, so a device
/// holds, per class, the most that any one of its rows needed at once.
fn folded_pool_bytes(devices: &[Device]) -> u64 {
    let mut most: HashMap<(usize, usize), PoolClass> = HashMap::new();
    for class in devices.iter().flat_map(Device::pool_classes) {
        let held = most.entry((class.elem_bytes, class.len)).or_insert(class);
        held.buffers = held.buffers.max(class.buffers);
    }
    most.values().map(PoolClass::bytes).sum()
}

/// What one run's tile rows share, whichever worker runs them.
struct RowJob<'a> {
    config: &'a GpumemConfig,
    reference: &'a PackedSeq,
    query: &'a PackedSeq,
    query_codes: &'a [u32],
    row_index: &'a RowIndexFn<'a>,
}

/// One worker's share of a gathered run.
struct WorkerRun {
    stats: GpumemStats,
    fragments: Vec<Mem>,
    trace: Option<Trace>,
}

impl RowJob<'_> {
    /// Run `rows` on `device` with fresh scratch, streaming MEMs into
    /// `sink`; returns the statistics and the out-tile fragments.
    fn run(
        &self,
        device: &Device,
        rows: &[usize],
        trace: Option<&TraceRecorder>,
        sink: &mut dyn MemSink,
    ) -> (GpumemStats, Vec<Mem>) {
        let mut scratch = TileScratch::new(self.config);
        let mut row_index =
            |device: &Device, row: usize, region: Region| (self.row_index)(device, row, region);
        let stats = run_tile_rows(
            device,
            self.config,
            self.reference,
            self.query,
            self.query_codes,
            &mut row_index,
            &mut scratch,
            sink,
            trace,
            Some(rows),
        );
        (stats, scratch.out_tile)
    }

    /// [`RowJob::run`] as one worker of several. A traced worker
    /// records on its own recorder, its rows under one `Run` span
    /// named `span`.
    fn run_worker(
        &self,
        device: &Device,
        rows: &[usize],
        span: Option<String>,
        sink: &mut dyn MemSink,
    ) -> WorkerRun {
        let recorder = span.map(|span| {
            let recorder = Arc::new(TraceRecorder::new(device.spec().warp_size));
            let previous = device.observer();
            device.set_observer(Some(crate::trace::as_observer(&recorder)));
            let id = recorder.begin(span, SpanCat::Run);
            (recorder, id, previous)
        });
        let trace = recorder.as_ref().map(|(recorder, ..)| &**recorder);
        let (stats, fragments) = self.run(device, rows, trace, sink);
        let trace = recorder.map(|(recorder, id, previous)| {
            recorder.end(id);
            device.set_observer(previous);
            recorder.snapshot()
        });
        WorkerRun {
            stats,
            fragments,
            trace,
        }
    }
}

/// A MEM batch a spawned worker hands to the calling thread.
type Batch = (MemStage, Vec<Mem>);

/// A spawned worker's sink: its batches go to the calling thread.
struct ChannelSink(mpsc::Sender<Batch>);

impl MemSink for ChannelSink {
    fn mems(&mut self, stage: MemStage, mems: &[Mem]) {
        // The receiver only goes away while the caller unwinds.
        let _ = self.0.send((stage, mems.to_vec()));
    }
}

/// The calling thread's sink: each batch of its own worker, then every
/// batch the spawned workers have sent so far, goes into the run's one
/// MEM vector.
struct CollectingSink<'a> {
    collector: &'a mut MemCollector,
    spawned: &'a mpsc::Receiver<Batch>,
}

impl MemSink for CollectingSink<'_> {
    fn mems(&mut self, stage: MemStage, mems: &[Mem]) {
        self.collector.mems(stage, mems);
        for (stage, mems) in self.spawned.try_iter() {
            self.collector.mems(stage, &mems);
        }
    }
}

/// A run whose tile rows [`gather_rows`] spread over workers.
pub(crate) struct Gathered {
    /// Canonical MEMs, and the workers' statistics summed in worker
    /// order plus the host merge and the canonicalization.
    pub(crate) result: GpumemResult,
    /// Each worker's own statistics, in worker order.
    pub(crate) workers: Vec<GpumemStats>,
    /// With tracing: one track per worker, then the calling thread's
    /// (a single track when one worker ran on the calling thread).
    pub(crate) trace: Option<Trace>,
}

/// The scatter/gather core of [`Gpumem::run`] and sharded engine runs:
/// worker `w` runs the tile rows `plan.rows(w)` on `devices[w]` with its
/// own scratch, the workers' out-tile fragments are concatenated and
/// host-merged once, and the MEMs are canonicalized (see
/// [`crate::shard`] for why this equals a one-device run).
///
/// Worker 0 runs on the calling thread; every other worker gets a host
/// thread of its own and sends its MEM batches to the calling thread,
/// which folds them into the run's one MEM vector between its own tiles
/// and after them. While a sanitizer session is live, the workers
/// instead take turns on the calling thread, the only thread a session
/// instruments. The query's seed codes are encoded once and shared.
/// Traced workers record on their own devices, their rows under one
/// `Run` span named `"{span} {w}"`; the host merge and the
/// canonicalization sit under the calling thread's `"run"` span. A
/// traced device's own observer, if any, is set aside while its rows
/// run and put back afterwards.
///
/// `fold` names the devices whose pools fold into one device's
/// footprint ([`folded_pool_bytes`]): the run's `pool_peak_bytes`
/// becomes that footprint, carried in the trace by the host merge's
/// stage span. Without it, the workers' gauges merge by max, one
/// footprint per device.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_rows(
    devices: &[Device],
    plan: &ShardPlan,
    span: &str,
    config: &GpumemConfig,
    reference: &PackedSeq,
    query: &PackedSeq,
    row_index: &RowIndexFn<'_>,
    traced: bool,
    fold: Option<&[Device]>,
) -> Gathered {
    debug_assert_eq!(devices.len(), plan.n_shards(), "one device per worker");
    let mut query_codes = Vec::new();
    encode_query_seeds(query, config.seed_len, &mut query_codes);
    let job = RowJob {
        config,
        reference,
        query,
        query_codes: &query_codes,
        row_index,
    };
    let host = traced.then(|| Arc::new(TraceRecorder::new(devices[0].spec().warp_size)));
    let mut collector = MemCollector::default();

    let (runs, run_span) = if let [device] = devices {
        // One worker: the rows run on the calling thread, recorded by
        // the run's own recorder.
        let previous = device.observer();
        let run_span = host.as_ref().map(|host| {
            device.set_observer(Some(crate::trace::as_observer(host)));
            host.begin("run", SpanCat::Run)
        });
        let (stats, fragments) = job.run(device, plan.rows(0), host.as_deref(), &mut collector);
        if host.is_some() {
            device.set_observer(previous);
        }
        let run = WorkerRun {
            stats,
            fragments,
            trace: None,
        };
        (vec![run], run_span)
    } else {
        let span_of = |w: usize| traced.then(|| format!("{span} {w}"));
        let runs: Vec<WorkerRun> = if gpu_sim::sanitizer::enabled() {
            devices
                .iter()
                .enumerate()
                .map(|(w, device)| job.run_worker(device, plan.rows(w), span_of(w), &mut collector))
                .collect()
        } else {
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                let spawned: Vec<_> = (1..devices.len())
                    .map(|w| {
                        let (job, device, rows, span) =
                            (&job, &devices[w], plan.rows(w), span_of(w));
                        let mut sink = ChannelSink(tx.clone());
                        scope.spawn(move || job.run_worker(device, rows, span, &mut sink))
                    })
                    .collect();
                drop(tx);
                let mut sink = CollectingSink {
                    collector: &mut collector,
                    spawned: &rx,
                };
                let first = job.run_worker(&devices[0], plan.rows(0), span_of(0), &mut sink);
                for (stage, mems) in rx {
                    collector.mems(stage, &mems);
                }
                let joined = spawned.into_iter().map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                });
                std::iter::once(first).chain(joined).collect()
            })
        };
        let run_span = host.as_ref().map(|h| h.begin("run", SpanCat::Run));
        (runs, run_span)
    };

    let mut stats = GpumemStats::default();
    let mut fragments = Vec::new();
    let mut traces = Vec::new();
    let mut workers = Vec::with_capacity(runs.len());
    for run in runs {
        let s = &run.stats;
        (stats.rows, stats.cols) = (s.rows, s.cols);
        stats.index += s.index.clone();
        stats.matching += s.matching.clone();
        stats.index_wall += s.index_wall;
        stats.match_wall += s.match_wall;
        stats.counts.in_block += s.counts.in_block;
        stats.counts.out_block += s.counts.out_block;
        stats.counts.in_tile += s.counts.in_tile;
        fragments.extend(run.fragments);
        traces.extend(run.trace);
        workers.push(run.stats);
    }

    let launched = stats.index.launches + stats.matching.launches > 0;
    let footprint = match fold {
        Some(pools) if launched => {
            let bytes = folded_pool_bytes(pools);
            for s in [&mut stats.index, &mut stats.matching] {
                if s.launches > 0 {
                    s.pool_peak_bytes = bytes;
                }
            }
            bytes
        }
        _ => 0,
    };
    finish_global(
        reference,
        query,
        fragments,
        config.min_len,
        footprint,
        &mut collector,
        host.as_deref(),
        &mut stats,
    );
    let t = Instant::now();
    let mems = collector.into_canonical();
    stats.match_wall += t.elapsed();
    stats.counts.total = mems.len();
    let trace = host.map(|host| {
        if let Some(id) = run_span {
            host.end(id);
        }
        traces.push(host.snapshot());
        Trace::merge(traces)
    });
    Gathered {
        result: GpumemResult { mems, stats },
        workers,
        trace,
    }
}

/// Host bytes the device replicas of one [`Gpumem`] may hold in their
/// buffer pools, together. A pool keeps what a row's index build took
/// from it — at most [`device_memory_estimate`] bytes — for as long as
/// its `Gpumem` lives, and a dense `ptrs` table grows as 4^ℓs: about
/// 0.8 MB per replica at ℓs = 8, but 805 MB at the default ℓs = 13. So
/// replicas are made only while they fit: dense-index runs at
/// ℓs = 13 keep to the device alone and hold what they held on one
/// thread.
const REPLICA_POOL_BUDGET: u64 = 256 << 20;

/// The GPUMEM tool: a configuration bound to a (simulated) device.
///
/// Tile rows are independent (each builds its own partial index and
/// only out-tile fragments meet, in the host merge), so a run simulates
/// them on up to `std::thread::available_parallelism()` host threads,
/// each on its own replica of the device. Replicas are made once, with
/// the device's spec and cost model, so their buffer pools stay warm
/// across runs, and only as many as fit a 256 MiB budget of pool
/// storage, which keeps the default dense ℓs = 13 index on one thread.
/// The run still reports one device: every modeled statistic, the MEM
/// set and the pool footprint are what the device alone would report.
pub struct Gpumem {
    config: GpumemConfig,
    /// The device, then its replicas: one per worker.
    devices: Vec<Device>,
}

impl Gpumem {
    /// Run on the paper's Tesla K20c.
    pub fn new(config: GpumemConfig) -> Gpumem {
        Gpumem::with_device(config, Device::new(DeviceSpec::tesla_k20c()))
    }

    /// Run on an explicit device (ablations; tests use a small spec).
    pub fn with_device(config: GpumemConfig, device: Device) -> Gpumem {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Gpumem::with_workers(config, device, cores)
    }

    /// [`Gpumem::with_device`] with up to `workers` host threads per run,
    /// as many as [`REPLICA_POOL_BUDGET`] leaves room for.
    pub(crate) fn with_workers(config: GpumemConfig, device: Device, workers: usize) -> Gpumem {
        let fit = REPLICA_POOL_BUDGET / device_memory_estimate(&config).max(1);
        let replicas = (workers.max(1) - 1).min(usize::try_from(fit).unwrap_or(usize::MAX));
        let replicas: Vec<Device> = (0..replicas)
            .map(|_| Device::with_cost_model(device.spec().clone(), device.cost_model().clone()))
            .collect();
        let mut devices = vec![device];
        devices.extend(replicas);
        Gpumem { config, devices }
    }

    /// The configuration.
    pub fn config(&self) -> &GpumemConfig {
        &self.config
    }

    /// The device: the first worker's, and the one
    /// [`Gpumem::build_index_only`] builds on. A run's other workers
    /// launch on replicas of it, which report to the device's observer
    /// for the run, so an observer installed here sees every launch of
    /// a plain run. A traced run sets it aside for its own recorder and
    /// puts it back afterwards.
    pub fn device(&self) -> &Device {
        &self.devices[0]
    }

    /// Estimated device bytes for one tile row (see
    /// [`device_memory_estimate`]).
    pub fn device_memory_estimate(&self) -> u64 {
        device_memory_estimate(&self.config)
    }

    /// `true` if a tile row's working set fits the device's global
    /// memory. [`Gpumem::run`] refuses to start otherwise.
    pub fn fits_device(&self) -> bool {
        self.device_memory_estimate() <= self.device().spec().global_mem_bytes
    }

    /// Build all per-row partial indexes without matching — the Table
    /// III measurement (index generation time).
    pub fn build_index_only(&self, reference: &PackedSeq) -> IndexBuildReport {
        let tiling = Tiling::new(self.config.tile_len(), reference.len(), usize::MAX);
        let mut stats = LaunchStats::default();
        let start = Instant::now();
        for row in 0..tiling.n_rows() {
            let range = tiling.row_range(row);
            let (_, s) = build_row_index(
                self.device(),
                &self.config,
                reference,
                Region {
                    start: range.start,
                    len: range.len(),
                },
            );
            stats += s;
        }
        IndexBuildReport {
            stats,
            wall: start.elapsed(),
            rows: tiling.n_rows(),
        }
    }

    /// Extract all MEMs of length ≥ L between `reference` and `query`.
    /// The tile rows are split over the workers by reference bases
    /// ([`ShardPlan::from_row_masses`]); with one core, one row or no
    /// replica (see [`Gpumem`]) they all run on the calling thread.
    pub fn run(&self, reference: &PackedSeq, query: &PackedSeq) -> Result<GpumemResult, RunError> {
        self.run_inner(reference, query, false)
            .map(|gathered| gathered.result)
    }

    /// [`Gpumem::run`] with structured tracing: also returns the run's
    /// [`Trace`] (span tree + per-stage device statistics; see
    /// [`crate::trace`]). Tracing changes no result and no modeled
    /// statistic — only wall time, by the cost of recording. Each
    /// worker's rows sit on their own track under a `"worker {w}"` span,
    /// the host merge on the calling thread's `"run"` span; a one-worker
    /// run is one `"run"` span.
    pub fn run_traced(
        &self,
        reference: &PackedSeq,
        query: &PackedSeq,
    ) -> Result<(GpumemResult, Trace), RunError> {
        let gathered = self.run_inner(reference, query, true)?;
        let trace = gathered.trace.expect("traced run records a trace");
        Ok((gathered.result, trace))
    }

    fn run_inner(
        &self,
        reference: &PackedSeq,
        query: &PackedSeq,
        traced: bool,
    ) -> Result<Gathered, RunError> {
        ensure_sort_key(reference)?;
        ensure_sort_key(query)?;
        ensure_fits(&self.config, self.device().spec())?;

        let masses = row_masses(&self.config, reference, query);
        let workers = self.devices.len().min(masses.len()).max(1);
        let plan = ShardPlan::from_row_masses(workers, &masses);
        let row_index = |device: &Device, _row: usize, region: Region| {
            build_row_index(device, &self.config, reference, region)
        };
        let (device, replicas) = self.devices[..workers].split_first().expect("a device");
        let observer = device.observer();
        for replica in replicas {
            replica.set_observer(observer.clone());
        }
        let gathered = gather_rows(
            &self.devices[..workers],
            &plan,
            "worker",
            &self.config,
            reference,
            query,
            &row_index,
            traced,
            Some(&self.devices),
        );
        for replica in replicas {
            replica.set_observer(None);
        }
        Ok(gathered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_seq::{is_maximal_exact, naive_mems, table2_pairs, GenomeModel};

    fn small_gpumem(min_len: u32, seed_len: usize, tau: usize, n_block: usize) -> Gpumem {
        let config = GpumemConfig::builder(min_len)
            .seed_len(seed_len)
            .threads_per_block(tau)
            .blocks_per_tile(n_block)
            .build()
            .unwrap();
        Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
    }

    #[test]
    fn matches_naive_on_related_pair_with_many_tiles() {
        let spec = &table2_pairs(1.0 / 65536.0)[1]; // chrXc/chrXh shape
        let pair = spec.realize(42);
        // Small tiles force the full multi-tile path:
        // tile_len = 2 * 8 * w.
        let gpumem = small_gpumem(16, 8, 8, 2);
        assert!(gpumem.config().tile_len() < pair.reference.len());
        let result = gpumem.run(&pair.reference, &pair.query).unwrap();
        let expect = naive_mems(&pair.reference, &pair.query, 16);
        assert_eq!(result.mems, expect);
        assert!(result.stats.rows > 1 && result.stats.cols > 1);
    }

    #[test]
    fn matches_naive_on_self_comparison() {
        // Self-comparison has a full-length diagonal crossing every
        // tile — the hardest boundary case.
        let text = GenomeModel::mammalian().generate(3_000, 401);
        let gpumem = small_gpumem(20, 8, 8, 2);
        let result = gpumem.run(&text, &text).unwrap();
        let expect = naive_mems(&text, &text, 20);
        assert_eq!(result.mems, expect);
        assert!(result.mems.contains(&Mem {
            r: 0,
            q: 0,
            len: text.len() as u32
        }));
    }

    #[test]
    fn matches_naive_across_l_values() {
        let spec = &table2_pairs(1.0 / 65536.0)[3];
        let pair = spec.realize(43);
        for min_len in [10u32, 14, 20, 31] {
            let gpumem = small_gpumem(min_len, 7, 8, 2);
            let result = gpumem.run(&pair.reference, &pair.query).unwrap();
            let expect = naive_mems(&pair.reference, &pair.query, min_len);
            assert_eq!(result.mems, expect, "L = {min_len}");
        }
    }

    #[test]
    fn load_balancing_toggle_changes_stats_not_output() {
        let spec = &table2_pairs(1.0 / 65536.0)[0];
        let pair = spec.realize(44);
        let on = small_gpumem(15, 7, 16, 2);
        let off = {
            let config = GpumemConfig::builder(15)
                .seed_len(7)
                .threads_per_block(16)
                .blocks_per_tile(2)
                .load_balancing(false)
                .build()
                .unwrap();
            Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
        };
        let a = on.run(&pair.reference, &pair.query).unwrap();
        let b = off.run(&pair.reference, &pair.query).unwrap();
        assert_eq!(a.mems, b.mems, "output must be identical");
        assert!(
            b.stats.matching.warp_efficiency(32) <= a.stats.matching.warp_efficiency(32) + 1e-9,
            "disabling balancing cannot improve warp efficiency"
        );
    }

    #[test]
    fn every_output_mem_is_maximal_and_long_enough() {
        let reference = GenomeModel::mammalian().generate(4_000, 402);
        let query = GenomeModel::mammalian().generate(2_500, 403);
        let gpumem = small_gpumem(12, 6, 8, 2);
        let result = gpumem.run(&reference, &query).unwrap();
        for &mem in &result.mems {
            assert!(is_maximal_exact(&reference, &query, mem, 12), "{mem:?}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let gpumem = small_gpumem(10, 5, 8, 2);
        let empty = PackedSeq::from_codes(&[]);
        let short: PackedSeq = "ACG".parse().unwrap();
        let normal = GenomeModel::uniform().generate(200, 404);
        assert!(gpumem.run(&empty, &normal).unwrap().mems.is_empty());
        assert!(gpumem.run(&normal, &empty).unwrap().mems.is_empty());
        assert!(
            gpumem.run(&short, &normal).unwrap().mems.is_empty(),
            "ref < seed"
        );
    }

    #[test]
    fn index_only_build_visits_every_row() {
        let reference = GenomeModel::uniform().generate(5_000, 405);
        let gpumem = small_gpumem(20, 10, 8, 2);
        let rows = reference.len().div_ceil(gpumem.config().tile_len());
        let report = gpumem.build_index_only(&reference);
        assert!(report.stats.launches >= 4 * rows as u64);
        assert!(report.wall > Duration::ZERO);
        assert_eq!(report.rows, rows);
    }

    #[test]
    fn compact_index_produces_identical_output() {
        let spec = &table2_pairs(1.0 / 65536.0)[1];
        let pair = spec.realize(48);
        let build = |kind: crate::config::IndexKind| {
            let config = GpumemConfig::builder(16)
                .seed_len(8)
                .threads_per_block(8)
                .blocks_per_tile(2)
                .index_kind(kind)
                .build()
                .unwrap();
            Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
        };
        let dense = build(crate::config::IndexKind::DenseTable)
            .run(&pair.reference, &pair.query)
            .unwrap();
        let compact = build(crate::config::IndexKind::CompactDirectory)
            .run(&pair.reference, &pair.query)
            .unwrap();
        assert_eq!(
            dense.mems, compact.mems,
            "index layout must not change results"
        );
        assert_eq!(dense.mems, naive_mems(&pair.reference, &pair.query, 16));
        // The compact directory trades lookup overhead for memory.
        assert!(
            compact.stats.matching.global_mem_ops > dense.stats.matching.global_mem_ops,
            "compact lookups pay binary-search loads"
        );
    }

    #[test]
    fn compact_index_shrinks_the_memory_estimate() {
        let dense = small_gpumem(20, 10, 8, 2);
        let config = GpumemConfig::builder(20)
            .seed_len(10)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .index_kind(crate::config::IndexKind::CompactDirectory)
            .build()
            .unwrap();
        let compact = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
        assert!(compact.device_memory_estimate() * 50 < dense.device_memory_estimate());
    }

    #[test]
    fn stats_display_is_informative() {
        let text = GenomeModel::mammalian().generate(1_000, 407);
        let gpumem = small_gpumem(20, 8, 8, 2);
        let result = gpumem.run(&text, &text).unwrap();
        let rendered = result.stats.to_string();
        assert!(rendered.contains("tiles:"));
        assert!(rendered.contains("warp efficiency"));
        assert!(rendered.contains("MEMs"));
    }

    #[test]
    fn memory_fit_is_checked() {
        let config = GpumemConfig::builder(50)
            .seed_len(13)
            .threads_per_block(64)
            .blocks_per_tile(4)
            .build()
            .unwrap();
        // ptrs alone for ℓs = 13 is ~268 MB.
        let spacious = Gpumem::with_device(config.clone(), Device::new(DeviceSpec::tesla_k20c()));
        assert!(spacious.fits_device());
        assert!(spacious.device_memory_estimate() > 268_000_000);
        let mut cramped_spec = DeviceSpec::test_tiny();
        cramped_spec.global_mem_bytes = 1 << 20; // 1 MiB device
        let cramped = Gpumem::with_device(config, Device::new(cramped_spec));
        assert!(!cramped.fits_device());
    }

    #[test]
    fn memory_estimate_bounds_the_golden_default_footprint() {
        // The golden default configuration measures 49,676 pool bytes:
        // ptrs 32,768 + temp 16,384 + scan sums 12 + locs 512.
        let (reference, query) = smoke_pair();
        let config = GpumemConfig::builder(25)
            .seed_len(6)
            .threads_per_block(64)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
        let stats = gpumem.run(&reference, &query).unwrap().stats;
        assert_eq!(stats.index.pool_peak_bytes, 49_676);
        let estimate = gpumem.device_memory_estimate();
        assert!(estimate >= 49_676, "estimate {estimate}");
        assert!(estimate < 2 * 49_676, "estimate {estimate} is loose");
    }

    #[test]
    fn run_rejects_oversized_working_set() {
        let mut spec = DeviceSpec::test_tiny();
        spec.global_mem_bytes = 1 << 16; // 64 KiB device
        let config = GpumemConfig::builder(20)
            .seed_len(10)
            .threads_per_block(16)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let text = GenomeModel::uniform().generate(1_000, 500);
        let err = Gpumem::with_device(config, Device::new(spec))
            .run(&text, &text)
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::DeviceMemoryExceeded { estimate, capacity }
                if estimate > capacity && capacity == 1 << 16
        ));
        assert!(err.to_string().contains("exceeds device memory"));
    }

    #[test]
    fn run_errors_display_cleanly() {
        let long = RunError::SequenceTooLong {
            len: SORT_KEY_LIMIT,
            limit: SORT_KEY_LIMIT,
        };
        assert!(long.to_string().contains("sort-key limit"));
        let oom = RunError::DeviceMemoryExceeded {
            estimate: 2,
            capacity: 1,
        };
        assert!(oom.to_string().contains("reduce blocks_per_tile"));
    }

    /// The 4 kb smoke pair of the workspace's golden modeled contract.
    fn smoke_pair() -> (PackedSeq, PackedSeq) {
        use rand::SeedableRng;
        let reference = GenomeModel::mammalian().generate(4_000, 2024);
        let model = gpumem_seq::MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
        let query = PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng));
        (reference, query)
    }

    /// Every `LaunchStats` field but `wall_time` and `pool_allocs`.
    fn render_launch(s: &LaunchStats) -> String {
        format!(
            "launches={} blocks={} warps={} warp_cycles={} lane_cycles={} device_cycles={} \
             modeled_ns={} divergence={} atomics={} global={} compares={} \
             busiest_block_cycles={} pool_peak_bytes={}",
            s.launches,
            s.blocks,
            s.warps,
            s.warp_cycles,
            s.lane_cycles,
            s.device_cycles,
            s.modeled_time.as_nanos(),
            s.divergence_events,
            s.atomic_ops,
            s.global_mem_ops,
            s.comparisons,
            s.busiest_block_cycles,
            s.pool_peak_bytes,
        )
    }

    /// Everything a run reports that must not depend on how many host
    /// threads simulated it.
    fn render_run(result: &GpumemResult, trace: Option<&Trace>) -> String {
        use std::hash::{Hash, Hasher};
        let s = &result.stats;
        let mut mem_hash = std::collections::hash_map::DefaultHasher::new();
        result.mems.hash(&mut mem_hash);
        let mut out = format!(
            "index {}\nmatching {}\ntiles {}x{} {:?}\nmems n={} hash={:016x}\n",
            render_launch(&s.index),
            render_launch(&s.matching),
            s.rows,
            s.cols,
            s.counts,
            result.mems.len(),
            mem_hash.finish(),
        );
        if let Some(trace) = trace {
            out += &format!("stages {}\n", render_launch(&trace.stage_totals()));
            let launches = trace
                .spans()
                .iter()
                .filter(|span| span.cat == SpanCat::Launch)
                .count();
            out += &format!("launch spans {launches}\n");
            for p in trace.phase_totals() {
                out += &format!("{p:?}\n");
            }
        }
        out
    }

    #[test]
    fn worker_count_changes_no_modeled_figure_or_output() {
        let (reference, query) = smoke_pair();
        let base = || {
            GpumemConfig::builder(25)
                .seed_len(6)
                .threads_per_block(64)
                .blocks_per_tile(2)
        };
        let (k1, k2) = gpumem_index::max_coprime_steps(25, 6).expect("co-prime steps");
        let configs = [
            ("default", base()),
            ("tau=32", base().threads_per_block(32)),
            ("tau=128", base().threads_per_block(128)),
            ("load_balancing=off", base().load_balancing(false)),
            (
                "compact",
                base().index_kind(crate::config::IndexKind::CompactDirectory),
            ),
            (
                "dual_sampled",
                base().seed_mode(gpumem_index::SeedMode::DualSampled { k1, k2 }),
            ),
        ];
        for (name, builder) in configs {
            let config = builder.build().unwrap();
            let gpumem = |workers| {
                Gpumem::with_workers(
                    config.clone(),
                    Device::new(DeviceSpec::test_tiny()),
                    workers,
                )
            };
            let rows = row_masses(&config, &reference, &query).len();
            let expect_plain = render_run(&gpumem(1).run(&reference, &query).unwrap(), None);
            let (traced, trace) = gpumem(1).run_traced(&reference, &query).unwrap();
            let expect_traced = render_run(&traced, Some(&trace));
            for workers in [2, 3, rows + 1] {
                let plain = gpumem(workers).run(&reference, &query).unwrap();
                assert_eq!(
                    render_run(&plain, None),
                    expect_plain,
                    "{name}: {workers} workers over {rows} rows"
                );
                let (traced, trace) = gpumem(workers).run_traced(&reference, &query).unwrap();
                assert_eq!(
                    render_run(&traced, Some(&trace)),
                    expect_traced,
                    "{name}: {workers} traced workers over {rows} rows"
                );
            }
        }
    }

    #[test]
    fn workers_run_on_their_own_tracks_and_the_host_merge_on_the_callers() {
        let (reference, query) = smoke_pair();
        let config = GpumemConfig::builder(25)
            .seed_len(6)
            .threads_per_block(32)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let gpumem = Gpumem::with_workers(config, Device::new(DeviceSpec::test_tiny()), 3);
        let (result, trace) = gpumem.run_traced(&reference, &query).unwrap();
        assert!(result.stats.rows >= 3, "every worker gets a row");
        let runs: Vec<(&str, usize)> = trace
            .spans()
            .iter()
            .filter(|span| span.cat == SpanCat::Run)
            .map(|span| (span.name.as_str(), span.track))
            .collect();
        assert_eq!(
            runs,
            [
                ("worker 0", 0),
                ("worker 1", 1),
                ("worker 2", 2),
                ("run", 3)
            ]
        );
        let global: Vec<usize> = trace
            .spans()
            .iter()
            .filter(|span| span.name == "global_merge")
            .map(|span| span.track)
            .collect();
        assert_eq!(global, [3], "one host merge, on the calling thread's track");
        let mut total = result.stats.index.clone();
        total += result.stats.matching.clone();
        assert_eq!(trace.stage_totals(), total, "stage spans reconcile");
    }

    #[test]
    fn an_observer_on_the_device_sees_every_workers_launches() {
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct Count(AtomicU64);
        impl gpu_sim::LaunchObserver for Count {
            fn on_launch(&self, _: gpu_sim::LaunchRecord<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (reference, query) = smoke_pair();
        let config = GpumemConfig::builder(25)
            .seed_len(6)
            .threads_per_block(64)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let gpumem = Gpumem::with_workers(config, Device::new(DeviceSpec::test_tiny()), 2);
        let count = Arc::new(Count::default());
        gpumem.device().set_observer(Some(count.clone()));
        let stats = gpumem.run(&reference, &query).unwrap().stats;
        assert!(stats.rows >= 2, "both workers get rows");
        assert_eq!(
            count.0.load(Ordering::Relaxed),
            stats.index.launches + stats.matching.launches
        );
        assert!(
            gpumem.devices[1].observer().is_none(),
            "replicas report to the observer only during a run"
        );
        gpumem.run_traced(&reference, &query).unwrap();
        assert!(
            gpumem.device().observer().is_some(),
            "a traced run puts the observer back"
        );
    }

    #[test]
    fn replicas_fit_the_host_pool_budget() {
        let devices = |seed_len| {
            let config = GpumemConfig::builder(25)
                .seed_len(seed_len)
                .build()
                .unwrap();
            let gpumem = Gpumem::with_workers(config, Device::new(DeviceSpec::test_tiny()), 8);
            let replicas = gpumem.devices.len() as u64 - 1;
            assert!(
                replicas * gpumem.device_memory_estimate() <= REPLICA_POOL_BUDGET,
                "ℓs = {seed_len}: {replicas} replicas"
            );
            gpumem.devices.len()
        };
        assert_eq!(devices(8), 8, "a small index runs on every worker");
        assert_eq!(devices(13), 1, "the default ℓs = 13 keeps to the device");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let reference = GenomeModel::uniform().generate(2_000, 408);
        let gpumem = small_gpumem(16, 6, 8, 2);
        let masses = row_masses(gpumem.config(), &reference, &reference);
        assert!(masses.len() >= 2);
        let devices: Vec<Device> = (0..2)
            .map(|_| Device::new(DeviceSpec::test_tiny()))
            .collect();
        let plan = ShardPlan::from_row_masses(2, &masses);
        let last = masses.len() - 1;
        let row_index = |device: &Device, row: usize, region: Region| {
            assert!(row != last, "row {row} refused");
            build_row_index(device, gpumem.config(), &reference, region)
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gather_rows(
                &devices,
                &plan,
                "worker",
                gpumem.config(),
                &reference,
                &reference,
                &row_index,
                false,
                None,
            )
        }))
        .err()
        .expect("the worker's panic propagates");
        let message = panic
            .downcast_ref::<String>()
            .expect("the worker's own payload");
        assert_eq!(message, &format!("row {last} refused"));
    }

    #[test]
    fn stage_counts_are_plausible() {
        let text = GenomeModel::mammalian().generate(2_000, 406);
        let gpumem = small_gpumem(20, 8, 8, 2);
        let result = gpumem.run(&text, &text).unwrap();
        let c = result.stats.counts;
        assert!(c.out_block > 0, "the main diagonal crosses blocks");
        assert!(c.out_tile > 0, "and tiles");
        assert_eq!(c.total, result.mems.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gpumem_seq::naive_mems;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The whole pipeline equals the ground truth on arbitrary
        /// inputs and parameters.
        #[test]
        fn pipeline_always_matches_naive(
            r in proptest::collection::vec(0u8..4, 1..500),
            q in proptest::collection::vec(0u8..4, 1..500),
            seed_len in 2usize..7,
            extra in 0u32..10,
            tau_pow in 1u32..5,
            n_block in 1usize..4,
        ) {
            let min_len = seed_len as u32 + extra;
            let reference = PackedSeq::from_codes(&r);
            let query = PackedSeq::from_codes(&q);
            let config = GpumemConfig::builder(min_len)
                .seed_len(seed_len)
                .threads_per_block(1 << tau_pow)
                .blocks_per_tile(n_block)
                .build()
                .unwrap();
            let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
            let got = gpumem.run(&reference, &query).unwrap().mems;
            prop_assert_eq!(got, naive_mems(&reference, &query, min_len));
        }

        /// The admission estimate upper-bounds the device footprint a
        /// run measures, whatever the row geometry, index layout and
        /// seed mode. Dense references are cut so that a case builds at
        /// most 4^10 `ptrs` entries in all.
        #[test]
        fn memory_estimate_bounds_the_measured_pool_peak(
            r in proptest::collection::vec(0u8..4, 1..3_000),
            q in proptest::collection::vec(0u8..4, 1..300),
            seed_len in 2usize..11,
            extra in 0u32..8,
            tau_pow in 1u32..5,
            n_block in 1usize..4,
            compact: bool,
            dual: bool,
            k1 in 1usize..5,
            k2 in 1usize..6,
        ) {
            let dual = dual && gpumem_index::gcd(k1, k2) == 1;
            let (min_len, mode) = if dual {
                let min_len = (seed_len + k1 * k2 - 1) as u32 + extra;
                (min_len, gpumem_index::SeedMode::DualSampled { k1, k2 })
            } else {
                (seed_len as u32 + extra, gpumem_index::SeedMode::RefOnly)
            };
            let kind = if compact {
                crate::config::IndexKind::CompactDirectory
            } else {
                crate::config::IndexKind::DenseTable
            };
            let config = GpumemConfig::builder(min_len)
                .seed_len(seed_len)
                .seed_mode(mode)
                .threads_per_block(1 << tau_pow)
                .blocks_per_tile(n_block)
                .index_kind(kind)
                .build()
                .unwrap();
            let rows = if compact { usize::MAX } else { (1 << 20) >> (2 * seed_len) };
            let len = r.len().min(config.tile_len().saturating_mul(rows.max(1)));
            let reference = PackedSeq::from_codes(&r[..len]);
            let query = PackedSeq::from_codes(&q);
            let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
            let stats = gpumem.run(&reference, &query).unwrap().stats;
            let peak = stats.index.pool_peak_bytes.max(stats.matching.pool_peak_bytes);
            prop_assert!(
                gpumem.device_memory_estimate() >= peak,
                "estimate {} < measured {peak} over {} rows",
                gpumem.device_memory_estimate(),
                stats.rows
            );
        }

        /// Dual sampling under arbitrary valid co-prime pairs and tile
        /// geometries equals the ground truth too — the tile/block
        /// decomposition must keep both sample grids phase-aligned
        /// across every boundary.
        #[test]
        fn dual_pipeline_always_matches_naive(
            r in proptest::collection::vec(0u8..4, 1..500),
            q in proptest::collection::vec(0u8..4, 1..500),
            seed_len in 2usize..7,
            k1 in 1usize..5,
            k2 in 1usize..6,
            slack in 0u32..8,
            tau_pow in 1u32..5,
            n_block in 1usize..4,
        ) {
            prop_assume!(gpumem_index::gcd(k1, k2) == 1);
            let min_len = (seed_len + k1 * k2 - 1) as u32 + slack;
            let reference = PackedSeq::from_codes(&r);
            let query = PackedSeq::from_codes(&q);
            let config = GpumemConfig::builder(min_len)
                .seed_len(seed_len)
                .threads_per_block(1 << tau_pow)
                .blocks_per_tile(n_block)
                .seed_mode(gpumem_index::SeedMode::DualSampled { k1, k2 })
                .build()
                .unwrap();
            let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
            let got = gpumem.run(&reference, &query).unwrap().mems;
            prop_assert_eq!(got, naive_mems(&reference, &query, min_len));
        }
    }
}
