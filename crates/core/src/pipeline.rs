//! The end-to-end GPUMEM runner (Figure 1).
//!
//! For each tile row: build the row's partial index on the device
//! (Algorithm 1), then for each tile in the row launch one GPU block
//! per `ℓ_tile × ℓ_block` slice (§III-B), merge the tile's out-block
//! fragments (§III-C1), and finally merge the accumulated out-tile
//! fragments on the host (§III-C2).
//!
//! The tile loop itself lives in `RowJob::run`: it runs the tile rows
//! a worker claims on its device, hands every stage's MEMs on as tiles
//! complete and takes the row index from a caller-supplied provider.
//! `gather_rows` spreads a run's rows over the workers a `WorkerSet`
//! checks out, one host thread each, and merges them back into one run;
//! [`Gpumem::run`] wires it to a fresh per-row build, and engine requests
//! to a cached [`RefSession`](crate::engine::RefSession). One helper,
//! `timed`, times every tile row, tile and stage: the walls a run
//! reports and the spans it traces come from the same clock readings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use gpu_sim::primitives::BLOCK_DIM;
use gpu_sim::{Device, DeviceSpec, LaunchConfig, LaunchStats, PoolClass};
use gpumem_index::{build_compact_gpu, build_gpu, Region, SharedSeedLookup};
use gpumem_seq::{canonicalize, Mem, PackedSeq};

use crate::block::{encode_query_seeds, process_block, BlockOutput, BlockScratch};
use crate::config::GpumemConfig;
use crate::expand::Bounds;
use crate::global::global_merge;
use crate::telemetry::WallClock;
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
    /// A block the run launches has more threads than the device allows.
    BlockTooWide {
        /// The run's widest block: the larger of `τ` and the fixed width
        /// of the index and primitive kernels
        /// ([`gpu_sim::primitives::BLOCK_DIM`]).
        width: usize,
        /// The device's limit
        /// ([`DeviceSpec::max_threads_per_block`]).
        limit: usize,
    },
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
            RunError::BlockTooWide { width, limit } if *limit < BLOCK_DIM => write!(
                f,
                "block of {width} threads exceeds the device's limit of {limit} threads per \
                 block; the index kernels launch {BLOCK_DIM}-thread blocks"
            ),
            RunError::BlockTooWide { width, limit } => write!(
                f,
                "block of {width} threads exceeds the device's limit of {limit} threads per \
                 block; reduce threads_per_block"
            ),
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

/// Refuse configurations whose blocks (`τ`, or the index and primitive
/// kernels' fixed [`BLOCK_DIM`]) are wider than `spec` allows or whose
/// tile-row working set overflows `spec`'s global memory.
pub(crate) fn ensure_fits(config: &GpumemConfig, spec: &DeviceSpec) -> Result<(), RunError> {
    let width = config.threads_per_block.max(BLOCK_DIM);
    if width > spec.max_threads_per_block {
        return Err(RunError::BlockTooWide {
            width,
            limit: spec.max_threads_per_block,
        });
    }
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
    /// Wall time spent simulating the builds: the sum of each build's
    /// one reading, over every worker that built.
    pub wall: Duration,
    /// Number of tile rows whose index was built.
    pub rows: usize,
}

impl IndexBuildReport {
    /// Add `built`'s builds to these.
    pub(crate) fn absorb(&mut self, built: &IndexBuildReport) {
        self.stats += built.stats.clone();
        self.wall += built.wall;
        self.rows += built.rows;
    }
}

/// What one worker's tile rows reuse from tile to tile: the block
/// scratch and accumulators hoisted across every launch (blocks execute
/// sequentially on the launching thread, see the `gpu_sim::exec` docs)
/// plus the out-tile fragments its rows produced. Every worker of a
/// [`WorkerSet`] keeps one for the set's life, so parallel runs never
/// contend on scratch and its recorded charges stay warm across runs.
struct TileScratch {
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
    /// Final canonical MEM count.
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
    /// Host time spent simulating index construction: the summed
    /// duration of the run's `index_build` stage spans, traced or not.
    /// When a run's tile rows are simulated on several host threads (see
    /// [`Gpumem::run`] and
    /// [`Engine::execute`](crate::engine::Engine::execute)), this is the
    /// sum over the threads, so `index_wall + match_wall` may exceed the
    /// run's wall time.
    pub index_wall: Duration,
    /// Host time spent simulating extraction: the summed duration of the
    /// run's tile spans, its host merge and its final canonicalization;
    /// summed over threads like `index_wall`.
    pub match_wall: Duration,
    /// Stage result sizes.
    pub counts: StageCounts,
    /// Tile grid dimensions (`n_r`, `n_c`).
    pub rows: usize,
    /// Number of tile columns.
    pub cols: usize,
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

/// One timed piece of a run: a tile row, a tile, a stage, a worker's
/// rows or the run itself. Reads the process clock
/// ([`WallClock`](crate::telemetry::WallClock)) once before `body` and
/// once after it, adds the difference to `wall` where the piece keeps
/// one and, only with a recorder attached, records the span of `cat`
/// that `name` names over the same two readings, with the device
/// statistics `stats` takes from `body`'s result. So every wall a run
/// reports is exactly the sum of its spans' durations, and an untraced
/// run names no span and copies no statistics.
pub(crate) fn timed<T>(
    trace: Option<&TraceRecorder>,
    cat: SpanCat,
    name: impl FnOnce() -> String,
    wall: Option<&mut Duration>,
    body: impl FnOnce() -> T,
    stats: impl FnOnce(&T) -> Option<LaunchStats>,
) -> T {
    let start = WallClock::read();
    let span = trace.map(|trace| (trace, trace.begin(name(), cat, start)));
    let out = body();
    let dur = WallClock::read().saturating_sub(start);
    if let Some(wall) = wall {
        *wall += dur;
    }
    if let Some((trace, span)) = span {
        trace.end(span, dur, stats(&out));
    }
    out
}

/// Where a run's tile rows get their partial indexes.
pub(crate) trait RowIndexes: Sync {
    /// Row `row`'s index on a worker's `device`: built fresh, or served
    /// from a session cache with zero launch stats.
    fn index(&self, device: &Device, row: usize, region: Region)
        -> (SharedSeedLookup, LaunchStats);

    /// Told of each [`RowIndexes::index`] call that built a row (one
    /// that launched): its statistics and the wall its `index_build`
    /// stage read, the same reading the run's `index_wall` and span
    /// take.
    fn built(&self, _row: usize, _stats: &LaunchStats, _wall: Duration) {}
}

impl<F> RowIndexes for F
where
    F: Fn(&Device, usize, Region) -> (SharedSeedLookup, LaunchStats) + Sync,
{
    fn index(
        &self,
        device: &Device,
        row: usize,
        region: Region,
    ) -> (SharedSeedLookup, LaunchStats) {
        self(device, row, region)
    }
}

/// Tile rows of a run: the reference's, or none when no seed can match.
pub(crate) fn row_count(config: &GpumemConfig, reference: &PackedSeq, query: &PackedSeq) -> usize {
    if reference.len() < config.seed_len || query.is_empty() {
        return 0;
    }
    Tiling::new(config.tile_len(), reference.len()).n_rows()
}

/// The pool footprint one device would have if it had run everything
/// `devices` ran: for each (element size, size class), the most buffers
/// any one of them holds. Exact because every row's index build returns
/// all of its pool buffers before the next row starts, so a device
/// holds, per class, the most that any one of its rows needed at once.
fn folded_pool_bytes(devices: &[&Device]) -> u64 {
    let mut most: HashMap<(usize, usize), PoolClass> = HashMap::new();
    for class in devices.iter().flat_map(|device| device.pool_classes()) {
        let held = most.entry((class.elem_bytes, class.len)).or_insert(class);
        held.buffers = held.buffers.max(class.buffers);
    }
    most.values().map(PoolClass::bytes).sum()
}

/// The cursor through which a run's workers claim its tile rows.
struct RowCursor {
    n_rows: usize,
    /// The next row to claim. The rows below it that no worker has
    /// asked for are the workers' first rows, one each.
    next: AtomicUsize,
}

impl RowCursor {
    /// Rows `0..n_rows` for `workers` workers.
    fn new(n_rows: usize, workers: usize) -> RowCursor {
        RowCursor {
            n_rows,
            next: AtomicUsize::new(workers),
        }
    }

    /// Worker `w`'s tile rows: row `w`, then whichever row is unclaimed
    /// each time it asks. A worker that starts late holds up its first
    /// row alone, and the rows it would have reached go to the others.
    fn rows(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        // Relaxed: the cursor publishes no data, and joining the workers
        // orders their results before the merge.
        let claim = std::iter::from_fn(move || Some(self.next.fetch_add(1, Ordering::Relaxed)));
        std::iter::once(w)
            .chain(claim)
            .take_while(move |&row| row < self.n_rows)
    }
}

/// Runs one body per checked-out worker, on the worker's device and
/// scratch: worker 0's, `first`, on the calling thread, and worker
/// `w`'s, which `helper(w)` makes on the calling thread before `first`
/// starts, on a scoped host thread of its own. `helper` is dropped
/// before `first` runs, so `first` may wait for what only the helpers
/// still hold. Returns the bodies' results in worker order; a helper's
/// panic reaches the caller with its payload.
fn on_workers<T, H>(
    workers: &mut [Held<'_>],
    mut helper: impl FnMut(usize) -> H,
    first: impl FnOnce(&Device, &mut TileScratch) -> T,
) -> Vec<T>
where
    T: Send,
    H: FnOnce(&Device, &mut TileScratch) -> T + Send,
{
    let (head, rest) = workers.split_first_mut().expect("a worker");
    std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .iter_mut()
            .zip(1..)
            .map(|(worker, w)| {
                let (body, device, scratch) = (helper(w), worker.device, &mut *worker.scratch);
                scope.spawn(move || body(device, scratch))
            })
            .collect();
        drop(helper);
        let first = first(head.device, &mut head.scratch);
        let joined = spawned.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        std::iter::once(first).chain(joined).collect()
    })
}

/// Builds each of `rows` with `build`, reading the clock once at each
/// end of every build (`timed`): the report holds the builds that
/// launched, their walls summed. A row served from a cache launches
/// nothing and is not counted.
pub(crate) fn build_each(
    rows: impl Iterator<Item = usize>,
    build: impl Fn(usize) -> LaunchStats,
) -> IndexBuildReport {
    let mut report = IndexBuildReport::default();
    for row in rows {
        let mut wall = Duration::ZERO;
        let stats = timed(
            None,
            SpanCat::Stage,
            String::new,
            Some(&mut wall),
            || build(row),
            |_| None,
        );
        if stats.launches > 0 {
            report.stats += stats;
            report.wall += wall;
            report.rows += 1;
        }
    }
    report
}

/// Builds the indexes of tile rows `0..n_rows` with `build` on the
/// checked-out `workers`, each claiming the next row through a
/// [`RowCursor`] ([`on_workers`]), as the rows of a run are. The
/// workers' reports are summed in worker order; like a run's, they
/// stand for one device, whose pool footprint is folded from `pools`
/// ([`folded_pool_bytes`]).
pub(crate) fn build_rows(
    workers: &mut [Held<'_>],
    n_rows: usize,
    build: &(dyn Fn(&Device, usize) -> LaunchStats + Sync),
    pools: &[&Device],
) -> IndexBuildReport {
    let cursor = RowCursor::new(n_rows, workers.len());
    let claimed = &|w: usize, device: &Device| build_each(cursor.rows(w), |row| build(device, row));
    let helper = |w: usize| move |device: &Device, _: &mut TileScratch| claimed(w, device);
    let mut report = IndexBuildReport::default();
    for built in on_workers(workers, helper, |device, _| claimed(0, device)) {
        report.absorb(&built);
    }
    if report.stats.launches > 0 {
        report.stats.pool_peak_bytes = folded_pool_bytes(pools);
    }
    report
}

/// What one run's tile rows share, whichever worker runs them, and the
/// cursor the workers claim the rows through.
struct RowJob<'a> {
    config: &'a GpumemConfig,
    reference: &'a PackedSeq,
    query: &'a PackedSeq,
    /// The seed code of every query position ([`encode_query_seeds`]).
    query_codes: &'a [u32],
    row_index: &'a dyn RowIndexes,
    tiling: Tiling,
    /// The run's tile rows, none when no seed can match, and the cursor
    /// the workers claim them through.
    cursor: RowCursor,
    n_cols: usize,
}

/// One worker's share of a gathered run.
struct WorkerRun {
    stats: GpumemStats,
    trace: Option<Trace>,
}

impl RowJob<'_> {
    /// The tile loop of worker `w`: runs every tile of each row it
    /// claims on `device` with `scratch`, handing each non-empty batch
    /// of in-block or in-tile MEMs to `out` as its stage completes, and
    /// leaving the out-tile fragments in `scratch.out_tile` for the host
    /// merge. Returns the rows' statistics. A `recorder` takes the place
    /// of the device's own observer, if any, until the rows are done,
    /// and each row's `TileRow` span carries the row's extraction
    /// statistics.
    fn run(
        &self,
        w: usize,
        device: &Device,
        scratch: &mut TileScratch,
        recorder: Option<&Arc<TraceRecorder>>,
        out: &mut dyn FnMut(&[Mem]),
    ) -> WorkerRun {
        let previous = recorder.map(|recorder| {
            let previous = device.observer();
            device.set_observer(Some(recorder.clone()));
            previous
        });
        let trace = recorder.map(|recorder| &**recorder);
        let mut stats = GpumemStats::default();
        scratch.out_tile.clear();
        for row in self.cursor.rows(w) {
            debug_assert!(row < self.cursor.n_rows, "row {row} out of range");
            let row_span = || format!("tile_row {row}");
            let row_body = || {
                // Partial index of this row (Algorithm 1, on device).
                let region = self.tiling.row_region(row);
                let mut wall = Duration::ZERO;
                let (index, istats) = timed(
                    trace,
                    SpanCat::Stage,
                    || "index_build".into(),
                    Some(&mut wall),
                    || self.row_index.index(device, row, region),
                    |(_, istats)| Some(istats.clone()),
                );
                stats.index_wall += wall;
                if istats.launches > 0 {
                    self.row_index.built(row, &istats, wall);
                }
                stats.index += istats;
                let mut matching = LaunchStats::default();
                for col in 0..self.n_cols {
                    matching += timed(
                        trace,
                        SpanCat::Tile,
                        || format!("tile ({row},{col})"),
                        Some(&mut stats.match_wall),
                        || {
                            let counts = &mut stats.counts;
                            self.tile(device, &index, region, col, scratch, out, trace, counts)
                        },
                        |_| None,
                    );
                }
                matching
            };
            let row_stats = |matching: &LaunchStats| Some(matching.clone());
            stats.matching += timed(trace, SpanCat::TileRow, row_span, None, row_body, row_stats);
        }
        if let Some(previous) = previous {
            device.set_observer(previous);
        }
        WorkerRun { stats, trace: None }
    }

    /// Tile (`row`, `col`) of `index`'s row `region`: one GPU block per
    /// `ℓ_tile × ℓ_block` slice, every block appending into the reused
    /// accumulator, then — if any fragment crossed a block edge — the
    /// tile merge (§III-C1) as its own kernel. Returns the tile's launch
    /// statistics.
    fn tile(
        &self,
        device: &Device,
        index: &SharedSeedLookup,
        region: Region,
        col: usize,
        scratch: &mut TileScratch,
        out: &mut dyn FnMut(&[Mem]),
        trace: Option<&TraceRecorder>,
        counts: &mut StageCounts,
    ) -> LaunchStats {
        let (config, reference, query) = (self.config, self.reference, self.query);
        let row_range = region.start..region.end();
        scratch.blocks_out.in_block.clear();
        scratch.blocks_out.out_block.clear();
        let batch = || {
            let launch = LaunchConfig::new(config.blocks_per_tile, config.threads_per_block);
            device.launch(launch, "match.blocks", |ctx| {
                let block_q =
                    self.tiling
                        .block_range(col, ctx.block_id, config.block_width(), query.len());
                process_block(
                    ctx,
                    reference,
                    query,
                    self.query_codes,
                    index.as_ref(),
                    config,
                    row_range.clone(),
                    block_q,
                    &mut scratch.block,
                    &mut scratch.blocks_out,
                );
            })
        };
        let batch_span = || "block_batch".into();
        let launch_stats = |launch: &LaunchStats| Some(launch.clone());
        let mut matching = timed(trace, SpanCat::Stage, batch_span, None, batch, launch_stats);
        counts.in_block += scratch.blocks_out.in_block.len();
        if !scratch.blocks_out.in_block.is_empty() {
            out(&scratch.blocks_out.in_block);
        }
        counts.out_block += scratch.blocks_out.out_block.len();
        if scratch.blocks_out.out_block.is_empty() {
            return matching;
        }

        let bounds = Bounds {
            r: row_range.clone(),
            q: self.tiling.col_range(col, query.len()),
        };
        scratch.tile_out.in_tile.clear();
        scratch.tile_out.out_tile.clear();
        let merge = || {
            let launch = LaunchConfig::new(1, config.threads_per_block);
            device.launch(launch, "match.tile_merge", |ctx| {
                merge_tile(
                    ctx,
                    reference,
                    query,
                    &mut scratch.blocks_out.out_block,
                    &bounds,
                    config.min_len,
                    &mut scratch.tile_out,
                );
            })
        };
        let merge_span = || "tile_merge".into();
        matching += timed(trace, SpanCat::Stage, merge_span, None, merge, launch_stats);
        counts.in_tile += scratch.tile_out.in_tile.len();
        if !scratch.tile_out.in_tile.is_empty() {
            out(&scratch.tile_out.in_tile);
        }
        scratch
            .out_tile
            .extend_from_slice(&scratch.tile_out.out_tile);
        matching
    }

    /// [`RowJob::run`] as one worker of several. A traced worker
    /// records on its own recorder, its rows under one `Run` span named
    /// `"worker {w}"`.
    fn run_worker(
        &self,
        w: usize,
        device: &Device,
        scratch: &mut TileScratch,
        traced: bool,
        out: &mut dyn FnMut(&[Mem]),
    ) -> WorkerRun {
        let recorder = traced.then(|| Arc::new(TraceRecorder::new(device.spec().warp_size)));
        let (trace, name) = (recorder.as_deref(), || format!("worker {w}"));
        let rows = || self.run(w, device, scratch, recorder.as_ref(), out);
        let run = timed(trace, SpanCat::Run, name, None, rows, |_| None);
        WorkerRun {
            trace: recorder.map(|recorder| recorder.snapshot()),
            ..run
        }
    }
}

/// A run whose tile rows [`gather_rows`] spread over workers.
pub(crate) struct Gathered {
    /// Canonical MEMs, and the workers' statistics summed in worker
    /// order plus the host merge and the canonicalization.
    pub(crate) result: GpumemResult,
    /// With tracing: one track per worker, then the calling thread's
    /// (a single track when one worker ran on the calling thread).
    pub(crate) trace: Option<Trace>,
}

/// The scatter/gather core of [`Gpumem::run`] and of engine requests:
/// the checked-out `workers` claim the tile rows through one cursor —
/// worker `w` starts on row `w`, and every later row goes to whichever
/// worker asks next — and run them on their own devices with their own
/// scratch. The workers' out-tile fragments are concatenated and
/// host-merged once, and the MEMs are canonicalized.
///
/// This equals a one-device run, whichever worker ran which row. The
/// canonical MEM set of a run is
/// `canonicalize(in_block ∪ in_tile ∪ global_merge(out-tile fragments))`.
/// In-block and in-tile MEMs are per-tile products, and so are out-tile
/// fragments: which fragments a tile emits depends only on the tile's
/// slice, never on which device launched it or in what order. So
/// concatenating the fragments of disjoint row subsets and host-merging
/// them once feeds the global merge the exact multiset of fragments one
/// device would have produced, and `global_merge` sorts before
/// combining, so the result is byte-identical. A row's extraction
/// statistics do not depend on its worker either: every modeled field of
/// a launch is a counter, a `Duration` sum or a max, so a traced run's
/// `TileRow` spans, which carry them, sum to the run's `matching` (but
/// for the pool footprint), and any split of the rows over devices sums
/// from the trace alone. The claim-loop tests (stalled and randomly
/// delayed workers) and the worker-count invariance tests check it.
///
/// Worker 0 runs on the calling thread; every other worker gets a scoped
/// host thread and sends its MEMs to the calling thread in one batch per
/// stage, which the calling thread folds into the run's one MEM vector
/// between its own tiles and after them, so no worker holds a copy of
/// its whole output. A worker's panic reaches the caller with its
/// payload. The query's seed codes are encoded once and shared. Traced
/// workers record on their own devices, their rows under one `Run` span
/// named `"worker {w}"`; the host merge and the canonicalization sit
/// under the calling thread's `Run` span, named `run_span`. A one-worker
/// run is that one span. A traced device's own observer, if any, is set
/// aside while its rows run and put back afterwards.
///
/// The workers stand for one device: `pools` names the devices whose
/// pools fold into its footprint ([`folded_pool_bytes`]), which becomes
/// the run's `pool_peak_bytes`, carried in the trace by the host
/// merge's stage span.
pub(crate) fn gather_rows(
    workers: &mut [Held<'_>],
    run_span: &str,
    config: &GpumemConfig,
    reference: &PackedSeq,
    query: &PackedSeq,
    row_index: &dyn RowIndexes,
    traced: bool,
    pools: &[&Device],
) -> Gathered {
    let mut query_codes = Vec::new();
    encode_query_seeds(query, config.seed_len, &mut query_codes);
    let tiling = Tiling::new(config.tile_len(), reference.len());
    let n_rows = row_count(config, reference, query);
    let cols = tiling.n_cols(query.len());
    let job = RowJob {
        config,
        reference,
        query,
        query_codes: &query_codes,
        row_index,
        n_cols: if n_rows > 0 { cols } else { 0 },
        tiling,
        cursor: RowCursor::new(n_rows, workers.len()),
    };
    let host = traced.then(|| Arc::new(TraceRecorder::new(workers[0].device.spec().warp_size)));
    let mut mems: Vec<Mem> = Vec::new();
    // Several workers run their rows before the run's span opens; one
    // runs them on the calling thread, under it.
    let spread = (workers.len() > 1).then(|| {
        let (tx, rx) = mpsc::channel::<Vec<Mem>>();
        let job = &job;
        let helper = move |w: usize| {
            let tx = tx.clone();
            move |device: &Device, scratch: &mut TileScratch| {
                // The receiver only goes away while the caller unwinds.
                let mut send = |batch: &[Mem]| {
                    let _ = tx.send(batch.to_vec());
                };
                job.run_worker(w, device, scratch, traced, &mut send)
            }
        };
        on_workers(workers, helper, |device, scratch| {
            let first = job.run_worker(0, device, scratch, traced, &mut |batch| {
                mems.extend_from_slice(batch);
                mems.extend(rx.try_iter().flatten());
            });
            mems.extend(rx.iter().flatten());
            first
        })
    });
    let (trace, mut traces) = (host.as_deref(), Vec::new());
    let gather = || {
        let runs = spread.unwrap_or_else(|| {
            let (device, scratch) = (workers[0].device, &mut *workers[0].scratch);
            let mut collect = |batch: &[Mem]| mems.extend_from_slice(batch);
            vec![job.run(0, device, scratch, host.as_ref(), &mut collect)]
        });
        let mut stats = GpumemStats {
            rows: job.cursor.n_rows,
            cols: job.n_cols,
            ..GpumemStats::default()
        };
        let mut fragments = Vec::new();
        for (run, worker) in runs.into_iter().zip(workers.iter_mut()) {
            let s = run.stats;
            stats.index += s.index;
            stats.matching += s.matching;
            stats.index_wall += s.index_wall;
            stats.match_wall += s.match_wall;
            stats.counts.in_block += s.counts.in_block;
            stats.counts.out_block += s.counts.out_block;
            stats.counts.in_tile += s.counts.in_tile;
            fragments.append(&mut worker.scratch.out_tile);
            traces.extend(run.trace);
        }

        // Host merge of the out-tile fragments (§III-C2): it launches
        // nothing, so its stage span adds wall time but nothing to the
        // launch-stat reconciliation, but for the folded footprint.
        let mut footprint = LaunchStats::default();
        if stats.index.launches + stats.matching.launches > 0 {
            footprint.pool_peak_bytes = folded_pool_bytes(pools);
            for s in [&mut stats.index, &mut stats.matching] {
                if s.launches > 0 {
                    s.pool_peak_bytes = footprint.pool_peak_bytes;
                }
            }
        }
        stats.counts.out_tile = fragments.len();
        let merge = || {
            let global = global_merge(reference, query, fragments, config.min_len);
            stats.counts.from_global = global.len();
            mems.extend(global);
        };
        let wall = &mut stats.match_wall;
        let (name, gauge) = (|| "global_merge".into(), |_: &()| Some(footprint));
        timed(trace, SpanCat::Stage, name, Some(&mut *wall), merge, gauge);
        // The final sort and dedup: a host-only stage span, launching
        // nothing.
        let (name, sort) = (|| "canonicalize".into(), || canonicalize(mems));
        let mems = timed(trace, SpanCat::Stage, name, Some(wall), sort, |_| None);
        stats.counts.total = mems.len();
        GpumemResult { mems, stats }
    };
    let run_name = || run_span.to_string();
    let result = timed(trace, SpanCat::Run, run_name, None, gather, |_| None);
    let trace = host.map(|host| {
        traces.push(host.snapshot());
        Trace::merge(traces)
    });
    Gathered { result, trace }
}

/// Host bytes the helper workers of one run may hold in their buffer
/// pools, together. A pool keeps what a row's index build took from it
/// — at most [`device_memory_estimate`] bytes — for as long as its
/// device lives, and a dense `ptrs` table grows as 4^ℓs: about 0.8 MB
/// per device at ℓs = 8, but 805 MB at the default ℓs = 13. So a run
/// takes helpers only while they fit: dense-index runs at ℓs = 13 keep
/// to one worker and hold what they held on one thread.
const REPLICA_POOL_BUDGET: u64 = 256 << 20;

/// The workers of one [`Gpumem`] or [`Engine`](crate::Engine). A run
/// checks out the workers free when it starts ([`WorkerSet::checkout`]),
/// and [`gather_rows`] spreads its tile rows over them.
pub(crate) struct WorkerSet {
    /// Worker `w`'s device, kept for the set's life.
    devices: Vec<Device>,
    /// Worker `w`'s tile scratch, kept for the set's life. Holding its
    /// lock is holding the worker.
    scratch: Vec<Mutex<TileScratch>>,
    /// Where a run waits when every worker is busy.
    next: AtomicUsize,
    /// The most workers one run may hold: the first, and as many more
    /// as [`REPLICA_POOL_BUDGET`] leaves room for.
    per_run: usize,
}

/// A worker checked out of a [`WorkerSet`], until it is dropped.
pub(crate) struct Held<'a> {
    /// The worker's place in its set.
    pub(crate) id: usize,
    pub(crate) device: &'a Device,
    scratch: MutexGuard<'a, TileScratch>,
}

impl WorkerSet {
    /// `n` workers (at least one) for runs under `config`: `device`,
    /// then devices with its spec and cost model.
    pub(crate) fn new(config: &GpumemConfig, device: Device, n: usize) -> WorkerSet {
        let n = n.max(1);
        let replicas: Vec<Device> = (1..n)
            .map(|_| Device::with_cost_model(device.spec().clone(), device.cost_model().clone()))
            .collect();
        let fit = REPLICA_POOL_BUDGET / device_memory_estimate(config).max(1);
        WorkerSet {
            devices: std::iter::once(device).chain(replicas).collect(),
            scratch: (0..n)
                .map(|_| Mutex::new(TileScratch::new(config)))
                .collect(),
            next: AtomicUsize::new(0),
            per_run: n.min(usize::try_from(fit).unwrap_or(usize::MAX).saturating_add(1)),
        }
    }

    /// Every worker's device, in worker order.
    pub(crate) fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Check out workers for a run of `rows` tile rows: the first free
    /// worker, else a wait on the next one in rotation, so concurrent
    /// runs spread over the set; then every other free worker, up to one
    /// per row and the budget's cap. Only the first is waited for, so a
    /// run never waits while it holds a worker. Under a live sanitizer
    /// session, which instruments the calling thread alone, a run holds
    /// one worker.
    pub(crate) fn checkout(&self, rows: usize) -> Vec<Held<'_>> {
        let most = if gpu_sim::sanitizer::enabled() {
            1
        } else {
            self.per_run.min(rows).max(1)
        };
        let hold = |id: usize, scratch| Held {
            id,
            device: &self.devices[id],
            scratch,
        };
        let free = |skip: Option<usize>| {
            (0..self.devices.len())
                .filter(move |&w| Some(w) != skip)
                .filter_map(move |w| Some(hold(w, self.scratch[w].try_lock()?)))
        };
        let mut held: Vec<Held<'_>> = free(None).take(most).collect();
        if held.is_empty() {
            let next = self.next.fetch_add(1, Ordering::Relaxed) % self.devices.len();
            held.push(hold(next, self.scratch[next].lock()));
            held.extend(free(Some(next)).take(most - 1));
        }
        held
    }
}

/// The GPUMEM tool: a configuration bound to a (simulated) device.
///
/// Tile rows are independent (each builds its own partial index and
/// only out-tile fragments meet, in the host merge), so a run simulates
/// them on up to `std::thread::available_parallelism()` host threads,
/// each worker on its own replica of the device with its own scratch.
/// Workers are made once, with the device's spec and cost model, so
/// their buffer pools and scratch stay warm across runs; a run takes
/// only as many as fit a 256 MiB budget of pool storage, which keeps the
/// default dense ℓs = 13 index on one thread. The run still reports one
/// device: every modeled statistic, the MEM set and the pool footprint
/// are what the device alone would report.
pub struct Gpumem {
    config: GpumemConfig,
    /// The device, then its replicas: one per worker.
    workers: WorkerSet,
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

    /// [`Gpumem::with_device`] with `workers` workers.
    pub(crate) fn with_workers(config: GpumemConfig, device: Device, workers: usize) -> Gpumem {
        Gpumem {
            workers: WorkerSet::new(&config, device, workers),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GpumemConfig {
        &self.config
    }

    /// The device: the first worker's. A run's other workers, and those
    /// of [`Gpumem::build_index_only`], launch on replicas of it, which
    /// report to the device's observer meanwhile, so an observer
    /// installed here sees every launch of a plain run. A traced run
    /// sets it aside for its own recorder and puts it back afterwards.
    pub fn device(&self) -> &Device {
        &self.workers.devices()[0]
    }

    /// Build all per-row partial indexes without matching — the Table
    /// III measurement (index generation time). The rows build on the
    /// workers free when it is called, each claiming the next row as a
    /// run's workers do; the report's statistics are what the device
    /// alone would report (but for `pool_allocs`, which each device
    /// counts for itself), and its wall is the builds' summed walls.
    pub fn build_index_only(&self, reference: &PackedSeq) -> IndexBuildReport {
        let tiling = Tiling::new(self.config.tile_len(), reference.len());
        let build = |device: &Device, row: usize| {
            build_row_index(device, &self.config, reference, tiling.row_region(row)).1
        };
        let pools: Vec<&Device> = self.workers.devices().iter().collect();
        let n_rows = tiling.n_rows();
        self.on_held(n_rows, |held| build_rows(held, n_rows, &build, &pools))
    }

    /// Checks out the workers free for `rows` tile rows and runs `body`
    /// on them. The work stands for the device: the replicas report to
    /// its observer meanwhile.
    fn on_held<T>(&self, rows: usize, body: impl FnOnce(&mut [Held<'_>]) -> T) -> T {
        let mut held = self.workers.checkout(rows);
        let observer = self.device().observer();
        for worker in held.iter().filter(|worker| worker.id != 0) {
            worker.device.set_observer(observer.clone());
        }
        let out = body(&mut held);
        for worker in held.iter().filter(|worker| worker.id != 0) {
            worker.device.set_observer(None);
        }
        out
    }

    /// Extract all MEMs of length ≥ L between `reference` and `query`.
    /// The run checks out the free workers and each claims tile rows as
    /// it gets to them; with one core, one row or a pool budget for one
    /// worker (see [`Gpumem`]) they all run on the calling thread.
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

        let rows = row_count(&self.config, reference, query);
        let row_index = |device: &Device, _row: usize, region: Region| {
            build_row_index(device, &self.config, reference, region)
        };
        // The run stands for the device: its pool would have kept
        // earlier runs' buffers too.
        let pools: Vec<&Device> = self.workers.devices().iter().collect();
        Ok(self.on_held(rows, |held| {
            gather_rows(
                held,
                "run",
                &self.config,
                reference,
                query,
                &row_index,
                traced,
                &pools,
            )
        }))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::trace::Span;
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

    /// Built on the worker set, the rows give what one device reports:
    /// every statistic but `wall_time` and `pool_allocs` (each device
    /// counts its own fresh buffers), and the rows' count.
    #[test]
    fn index_only_build_on_the_worker_set_equals_one_device() {
        let reference = GenomeModel::uniform().generate(5_000, 405);
        for kind in [
            crate::config::IndexKind::DenseTable,
            crate::config::IndexKind::CompactDirectory,
        ] {
            let config = GpumemConfig::builder(20)
                .seed_len(8)
                .threads_per_block(8)
                .blocks_per_tile(2)
                .index_kind(kind)
                .build()
                .unwrap();
            let build = |workers: usize| {
                let gpumem = Gpumem::with_workers(
                    config.clone(),
                    Device::new(DeviceSpec::test_tiny()),
                    workers,
                );
                let report = gpumem.build_index_only(&reference);
                let busy = gpumem
                    .workers
                    .devices()
                    .iter()
                    .filter(|d| !d.pool_classes().is_empty());
                assert_eq!(busy.count(), workers.min(report.rows), "every worker built");
                (render_launch(&report.stats), report.rows)
            };
            let one = build(1);
            assert!(one.1 >= 3, "fixture must span at least three rows");
            for workers in [2, 3] {
                assert_eq!(build(workers), one, "{kind:?} on {workers} workers");
            }
        }
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
        assert!(
            device_memory_estimate(compact.config()) * 50 < device_memory_estimate(dense.config())
        );
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
        // ptrs alone for ℓs = 13 is ~268 MB: within a K20c's memory,
        // beyond a 1 MiB device's.
        let estimate = device_memory_estimate(&config);
        assert!(estimate > 268_000_000);
        assert!(estimate <= DeviceSpec::tesla_k20c().global_mem_bytes);
        assert!(estimate > 1 << 20);
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
        let estimate = device_memory_estimate(gpumem.config());
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
    fn run_refuses_a_block_wider_than_the_device() {
        let spec = DeviceSpec::test_tiny();
        let config = GpumemConfig::builder(25)
            .seed_len(8)
            .threads_per_block(2 * spec.max_threads_per_block)
            .build()
            .unwrap();
        let text = GenomeModel::uniform().generate(1_000, 501);
        let err = Gpumem::with_device(config, Device::new(spec))
            .run(&text, &text)
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BlockTooWide {
                width: 512,
                limit: 256
            }
        );
        assert!(err.to_string().contains("limit of 256 threads per block"));
        assert!(err.to_string().contains("reduce threads_per_block"));

        // τ fits a 128-thread device, but the index kernels' blocks do not.
        let narrow = DeviceSpec {
            max_threads_per_block: 128,
            ..DeviceSpec::test_tiny()
        };
        let config = GpumemConfig::builder(25)
            .seed_len(8)
            .threads_per_block(64)
            .build()
            .unwrap();
        let err = Gpumem::with_device(config, Device::new(narrow))
            .run(&text, &text)
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BlockTooWide {
                width: BLOCK_DIM,
                limit: 128
            }
        );
        assert!(err
            .to_string()
            .contains("index kernels launch 256-thread blocks"));
        assert!(!err.to_string().contains("reduce threads_per_block"));
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
    pub(crate) fn smoke_pair() -> (PackedSeq, PackedSeq) {
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
    pub(crate) fn render_launch(s: &LaunchStats) -> String {
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
    pub(crate) fn render_run(result: &GpumemResult, trace: Option<&Trace>) -> String {
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

    /// The golden contract's configurations of the smoke pair.
    pub(crate) fn contract_configs() -> Vec<(&'static str, GpumemConfig)> {
        let base = || {
            GpumemConfig::builder(25)
                .seed_len(6)
                .threads_per_block(64)
                .blocks_per_tile(2)
        };
        let (k1, k2) = gpumem_index::max_coprime_steps(25, 6).expect("co-prime steps");
        [
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
        ]
        .into_iter()
        .map(|(name, builder)| (name, builder.build().unwrap()))
        .collect()
    }

    /// Asserts that `stats`' walls are exactly the summed durations of
    /// their spans in `trace`: `index_wall` of the `index_build` stages,
    /// `match_wall` of the tiles, the host merge and the
    /// canonicalization.
    pub(crate) fn assert_walls_are_spans(stats: &GpumemStats, trace: &Trace) {
        let summed = |of: &dyn Fn(&Span) -> bool| -> Duration {
            trace.spans().iter().filter(|s| of(s)).map(|s| s.dur).sum()
        };
        let host = ["global_merge", "canonicalize"];
        let matching = summed(&|s| s.cat == SpanCat::Tile || host.contains(&s.name.as_str()));
        assert_eq!(stats.index_wall, summed(&|s| s.name == "index_build"));
        assert_eq!(stats.match_wall, matching);
    }

    /// Also: on any worker count, a traced run's walls are its spans'.
    #[test]
    fn worker_count_changes_no_modeled_figure_or_output() {
        let (reference, query) = smoke_pair();
        for (name, config) in contract_configs() {
            let gpumem = |workers| {
                Gpumem::with_workers(
                    config.clone(),
                    Device::new(DeviceSpec::test_tiny()),
                    workers,
                )
            };
            let rows = row_count(&config, &reference, &query);
            let expect_plain = render_run(&gpumem(1).run(&reference, &query).unwrap(), None);
            let (traced, trace) = gpumem(1).run_traced(&reference, &query).unwrap();
            assert_walls_are_spans(&traced.stats, &trace);
            let expect_traced = render_run(&traced, Some(&trace));
            for workers in [2, 3, rows + 1] {
                let plain = gpumem(workers).run(&reference, &query).unwrap();
                assert_eq!(
                    render_run(&plain, None),
                    expect_plain,
                    "{name}: {workers} workers over {rows} rows"
                );
                let (traced, trace) = gpumem(workers).run_traced(&reference, &query).unwrap();
                assert_walls_are_spans(&traced.stats, &trace);
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
            gpumem.workers.devices()[1].observer().is_none(),
            "replicas report to the observer only during a run"
        );
        gpumem.run_traced(&reference, &query).unwrap();
        assert!(
            gpumem.device().observer().is_some(),
            "a traced run puts the observer back"
        );
    }

    #[test]
    fn a_run_holds_only_the_workers_the_pool_budget_fits() {
        let held = |seed_len| {
            let config = GpumemConfig::builder(25)
                .seed_len(seed_len)
                .build()
                .unwrap();
            let gpumem = Gpumem::with_workers(config, Device::new(DeviceSpec::test_tiny()), 8);
            let held = gpumem.workers.checkout(usize::MAX).len();
            let helpers = held as u64 - 1;
            assert!(
                helpers * device_memory_estimate(gpumem.config()) <= REPLICA_POOL_BUDGET,
                "ℓs = {seed_len}: {helpers} helpers"
            );
            held
        };
        assert_eq!(held(8), 8, "a small index runs on every worker");
        assert_eq!(held(13), 1, "the default ℓs = 13 keeps to one worker");
    }

    /// A related pair with a planted poly-C desert, so tile-row masses
    /// are heavily skewed — the imbalance a row placement must survive —
    /// and a configuration that cuts it into several tile rows.
    pub(crate) fn skewed_pair(content_seed: u64) -> (PackedSeq, PackedSeq, GpumemConfig) {
        use rand::SeedableRng;
        let mut codes = GenomeModel::mammalian()
            .generate(3_000, content_seed)
            .to_codes();
        codes[800..1_300].fill(1);
        let model = gpumem_seq::MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(content_seed.wrapping_add(13));
        let query = PackedSeq::from_codes(&model.apply(&codes, &mut rng));
        let config = GpumemConfig::builder(20)
            .seed_len(6)
            .threads_per_block(32)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        (PackedSeq::from_codes(&codes), query, config)
    }

    /// `row_index`'s rows gathered on the workers a fresh set of
    /// `workers` test-tiny devices checks out for them.
    pub(crate) fn gather_on(
        workers: usize,
        config: &GpumemConfig,
        reference: &PackedSeq,
        query: &PackedSeq,
        row_index: &dyn RowIndexes,
    ) -> Gathered {
        let set = WorkerSet::new(config, Device::new(DeviceSpec::test_tiny()), workers);
        let mut held = set.checkout(row_count(config, reference, query));
        let pools: Vec<&Device> = set.devices().iter().collect();
        gather_rows(
            &mut held, "run", config, reference, query, row_index, false, &pools,
        )
    }

    /// The one-device MEM set of a pair.
    pub(crate) fn one_device_mems(
        config: &GpumemConfig,
        reference: &PackedSeq,
        query: &PackedSeq,
    ) -> Vec<Mem> {
        Gpumem::with_workers(config.clone(), Device::new(DeviceSpec::test_tiny()), 1)
            .run(reference, query)
            .unwrap()
            .mems
    }

    #[test]
    fn a_stalled_helper_holds_only_its_first_row() {
        let (reference, query, config) = skewed_pair(31_002);
        let single = one_device_mems(&config, &reference, &query);
        let n_rows = row_count(&config, &reference, &query);
        assert!(n_rows >= 4, "fixture must span at least four tile rows");

        // Worker 1 starts on row 1, on a thread of its own, and stalls
        // there until every other row is built: the calling thread must
        // claim them all. A static split would leave some to worker 1,
        // and the stall would time out.
        let caller = std::thread::current().id();
        let built = (std::sync::Mutex::new(0usize), std::sync::Condvar::new());
        let helper_rows = std::sync::Mutex::new(Vec::new());
        let row_index = |device: &Device, row: usize, region: Region| {
            let helper = std::thread::current().id() != caller;
            let (count, wake) = &built;
            if helper && row == 1 {
                let others_built = |built: &mut usize| *built < n_rows - 1;
                let timeout = Duration::from_secs(20);
                let waited = wake
                    .wait_timeout_while(count.lock().unwrap(), timeout, others_built)
                    .unwrap()
                    .1;
                assert!(!waited.timed_out(), "rows waited for the stalled worker");
            }
            if helper {
                helper_rows.lock().unwrap().push(row);
            }
            let out = build_row_index(device, &config, &reference, region);
            *count.lock().unwrap() += 1;
            wake.notify_all();
            out
        };
        let gathered = gather_on(2, &config, &reference, &query, &row_index);
        assert_eq!(gathered.result.mems, single);
        assert_eq!(helper_rows.into_inner().unwrap(), [1]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let reference = GenomeModel::uniform().generate(2_000, 408);
        let gpumem = small_gpumem(16, 6, 8, 2);
        let config = gpumem.config();
        assert!(row_count(config, &reference, &reference) >= 2);
        // Row 1 is worker 1's first row: the helper thread refuses it.
        let row_index = |device: &Device, row: usize, region: Region| {
            assert!(row != 1, "row {row} refused");
            build_row_index(device, config, &reference, region)
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gather_on(2, config, &reference, &reference, &row_index)
        }))
        .err()
        .expect("the worker's panic propagates");
        let message = panic
            .downcast_ref::<String>()
            .expect("the worker's own payload");
        assert_eq!(message, "row 1 refused");
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
    use super::tests::{gather_on, one_device_mems, skewed_pair};
    use super::*;
    use gpumem_seq::naive_mems;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// However many workers claim the tile rows, and however long
        /// each row's index takes — so whichever worker ends up with
        /// which rows — the gather reproduces the one-device canonical
        /// MEM set byte for byte.
        #[test]
        fn claimed_rows_reproduce_one_device_under_any_stalls(
            content_seed in 0u64..500,
            stall_seed in 0u64..10_000,
        ) {
            let (reference, query, config) = skewed_pair(content_seed);
            let single = one_device_mems(&config, &reference, &query);
            let n_rows = row_count(&config, &reference, &query);

            let mut rng = StdRng::seed_from_u64(stall_seed);
            let workers = rng.gen_range(2..=7usize);
            let stalls: Vec<Duration> = (0..n_rows)
                .map(|_| Duration::from_micros(rng.gen_range(0..3_000)))
                .collect();
            let row_index = |device: &Device, row: usize, region: Region| {
                std::thread::sleep(stalls[row]);
                build_row_index(device, &config, &reference, region)
            };
            prop_assert_eq!(
                gather_on(workers, &config, &reference, &query, &row_index).result.mems,
                single,
                "{} workers, stall seed {}", workers, stall_seed
            );
        }
    }

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
                device_memory_estimate(gpumem.config()) >= peak,
                "estimate {} < measured {peak} over {} rows",
                device_memory_estimate(gpumem.config()),
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
