//! The query-batch serving engine.
//!
//! [`Gpumem::run`](crate::Gpumem::run) is a one-shot call: it rebuilds
//! every tile row's partial index for each query, so serving N queries
//! against one reference pays the Table III index cost N times. The
//! engine amortizes that cost the way copMEM amortizes its sampled
//! k-mer table and slaMEM reuses one reference index across query
//! sequences:
//!
//! * [`RefSession`] is created once per `(reference, config)` pair and
//!   caches every row's partial index behind an [`Arc`] — built lazily
//!   on first touch (or eagerly via [`RefSession::warm`]) and shared by
//!   all subsequent queries;
//! * [`Engine`] binds a session to a pool of query workers, each with
//!   its own simulated [`Device`] and [`RunScratch`], so
//!   [`Engine::run_batch`] can execute independent queries in parallel
//!   without contending on scratch or misattributing pool statistics;
//! * [`MemSink`] streams MEMs out of [`Engine::run_with_sink`] stage by
//!   stage instead of accumulating the whole result vector.
//!
//! ## Sink ordering guarantees
//!
//! For one run, batches arrive in a deterministic order: tiles in
//! row-major order, each tile's [`MemStage::Block`] batch before its
//! [`MemStage::Tile`] batch, and one final [`MemStage::Global`] batch.
//! Only non-empty batches are delivered. Batches are the raw stage
//! outputs — across tiles they may repeat a MEM (boundary
//! re-expansion), so a sink that needs the canonical set must dedup
//! (as [`MemCollector::into_canonical`] does).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use gpu_sim::{Device, DeviceSpec, LaunchStats};
use gpumem_index::{Region, SharedSeedLookup};
use gpumem_seq::{canonicalize, Mem, PackedSeq, SeqSet};
use rayon::prelude::*;

use crate::config::GpumemConfig;
use crate::pipeline::{
    build_row_index, ensure_fits, ensure_sort_key, gather_rows, row_masses, run_tiles,
    GpumemResult, GpumemStats, IndexBuildReport, RunError, RunScratch,
};
use crate::registry::{RefHandle, Registry, RegistryStats};
use crate::shard::ShardPlan;
use crate::telemetry::{Event, EventSink, TelemetryClock, WallClock};
use crate::tile::Tiling;
use crate::trace::{SpanCat, Trace, TraceRecorder};
use gpumem_index::SeedMode;

/// Which pipeline stage produced a batch of MEMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemStage {
    /// The block kernels of tile `(row, col)` — in-block MEMs.
    Block {
        /// Tile row.
        row: usize,
        /// Tile column.
        col: usize,
    },
    /// The tile merge of tile `(row, col)` — in-tile MEMs.
    Tile {
        /// Tile row.
        row: usize,
        /// Tile column.
        col: usize,
    },
    /// The final host merge of out-tile fragments.
    Global,
}

/// Receives MEM batches as the pipeline produces them (see the module
/// docs for the ordering and duplication contract).
pub trait MemSink {
    /// A stage completed with these MEMs. Never called with an empty
    /// batch.
    fn mems(&mut self, stage: MemStage, mems: &[Mem]);
}

/// The collecting sink: accumulates every batch and canonicalizes at
/// the end — the adapter that turns a streaming run back into the
/// classic `Vec<Mem>` result.
#[derive(Debug, Default)]
pub struct MemCollector {
    mems: Vec<Mem>,
}

impl MemCollector {
    /// Sort and dedup everything received into the canonical MEM set.
    pub fn into_canonical(self) -> Vec<Mem> {
        canonicalize(self.mems)
    }
}

impl MemSink for MemCollector {
    fn mems(&mut self, _stage: MemStage, mems: &[Mem]) {
        self.mems.extend_from_slice(mems);
    }
}

/// Accumulated index-build cost of a session.
#[derive(Default)]
struct BuildAccum {
    stats: LaunchStats,
    wall: Duration,
    built: usize,
}

/// A cached reference session: one per `(reference, config)` pair.
///
/// Owns the per-row partial indexes. Row ranges depend only on the
/// reference length and `ℓ_tile` — never on the query — so one session
/// serves any number of queries; each row's index is built once (on
/// whichever worker device touches it first) and shared from then on.
pub struct RefSession {
    reference: Arc<PackedSeq>,
    config: GpumemConfig,
    row_regions: Vec<Region>,
    rows: Vec<Mutex<Option<SharedSeedLookup>>>,
    build: Mutex<BuildAccum>,
    /// Row-index lookups served from cache (misses = rows built).
    hits: AtomicU64,
    /// Bytes of currently resident row indexes (the
    /// [`SeedLookup::memory_bytes`](gpumem_index::SeedLookup) sum) —
    /// what the registry's byte budget charges.
    resident: AtomicU64,
}

impl RefSession {
    /// Create a session, validating the reference length and that one
    /// tile row's working set fits `spec`'s global memory.
    pub fn new(
        reference: Arc<PackedSeq>,
        config: GpumemConfig,
        spec: &DeviceSpec,
    ) -> Result<RefSession, RunError> {
        ensure_sort_key(&reference)?;
        ensure_fits(&config, spec)?;
        let tiling = Tiling::new(config.tile_len(), reference.len(), usize::MAX);
        let row_regions: Vec<Region> = (0..tiling.n_rows())
            .map(|row| {
                let range = tiling.row_range(row);
                Region {
                    start: range.start,
                    len: range.len(),
                }
            })
            .collect();
        let rows = row_regions.iter().map(|_| Mutex::new(None)).collect();
        Ok(RefSession {
            reference,
            config,
            row_regions,
            rows,
            build: Mutex::new(BuildAccum::default()),
            hits: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        })
    }

    /// The reference sequence.
    pub fn reference(&self) -> &PackedSeq {
        &self.reference
    }

    /// The reference behind its shared handle (what a registry keys
    /// identity on).
    pub fn reference_arc(&self) -> &Arc<PackedSeq> {
        &self.reference
    }

    /// The configuration.
    pub fn config(&self) -> &GpumemConfig {
        &self.config
    }

    /// Number of tile rows (cached index slots).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of row indexes built so far.
    pub fn built_rows(&self) -> usize {
        self.build.lock().built
    }

    /// Row-index lookups served from the cache so far (the cache-miss
    /// count is [`RefSession::built_rows`]).
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Bytes of currently resident row indexes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Number of row indexes currently resident (≤ [`RefSession::rows`];
    /// smaller after an eviction).
    pub fn resident_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|slot| slot.lock().is_some())
            .count()
    }

    /// Drop every resident row index, returning the bytes freed. The
    /// session stays fully usable — the next touch of each row rebuilds
    /// it lazily, like a first-ever query. Cumulative counters
    /// ([`RefSession::built_rows`], [`RefSession::cache_hits`]) keep
    /// counting across evictions.
    pub fn evict_rows(&self) -> u64 {
        let mut freed = 0u64;
        for slot in &self.rows {
            if let Some(index) = slot.lock().take() {
                freed += index.memory_bytes() as u64;
            }
        }
        self.resident.fetch_sub(freed, Ordering::Relaxed);
        freed
    }

    /// This row's index: the cached handle (with zero launch stats), or
    /// a fresh build on `device`, cached for everyone after. Holding
    /// the slot lock across the build means concurrent queries touching
    /// the same cold row build it exactly once.
    pub(crate) fn row_index(&self, device: &Device, row: usize) -> (SharedSeedLookup, LaunchStats) {
        let mut slot = self.rows[row].lock();
        if let Some(index) = slot.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(index), LaunchStats::default());
        }
        let t0 = Instant::now();
        let (index, stats) =
            build_row_index(device, &self.config, &self.reference, self.row_regions[row]);
        let wall = t0.elapsed();
        self.resident
            .fetch_add(index.memory_bytes() as u64, Ordering::Relaxed);
        *slot = Some(Arc::clone(&index));
        let mut accum = self.build.lock();
        accum.stats += stats.clone();
        accum.wall += wall;
        accum.built += 1;
        (index, stats)
    }

    /// Build every row index now (on `device`), so subsequent queries
    /// run with zero index launches.
    pub fn warm(&self, device: &Device) -> IndexBuildReport {
        for row in 0..self.rows.len() {
            let _ = self.row_index(device, row);
        }
        self.index_report()
    }

    /// Aggregate index-build cost so far ([`IndexBuildReport::rows`] is
    /// the number of rows actually built).
    pub fn index_report(&self) -> IndexBuildReport {
        let accum = self.build.lock();
        IndexBuildReport {
            stats: accum.stats.clone(),
            wall: accum.wall,
            rows: accum.built,
        }
    }
}

/// A cache of [`RefSession`]s keyed by *reference identity* (the
/// `Arc` pointer) and the **full** [`GpumemConfig`].
///
/// Keying on the whole config — not just `(tile_len, seed_len)` or
/// whatever subset happens to affect today's index layout — is what
/// keeps seed-parameter variants apart: two configs that differ only
/// in `step`, `seed_mode`, or `index_kind` produce different partial
/// indexes (or different probe contracts against the same index) and
/// must never share cached rows. The pointer half of the key is sound
/// because every cached session holds its reference `Arc` alive, so
/// the address cannot be recycled by a different sequence while the
/// entry exists.
pub struct SessionCache {
    spec: DeviceSpec,
    /// Two-level map: the outer lock only guards slot lookup/insertion
    /// and is never held across a session construction; each key's
    /// construction runs under its own slot lock, so concurrent callers
    /// for *different* references (or configs) build in parallel while
    /// callers for the *same* key still build exactly once.
    sessions: Mutex<HashMap<(usize, GpumemConfig), SessionSlot>>,
}

/// One lazily built slot of a [`SessionCache`]: `None` until the first
/// caller for the key constructs the session under the slot lock.
type SessionSlot = Arc<Mutex<Option<Arc<RefSession>>>>;

impl SessionCache {
    /// An empty cache whose sessions validate against `spec`.
    pub fn new(spec: DeviceSpec) -> SessionCache {
        SessionCache {
            spec,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The session for `(reference, config)` — cached, or freshly
    /// created (cold, unwarmed) and cached for everyone after.
    pub fn session(
        &self,
        reference: &Arc<PackedSeq>,
        config: GpumemConfig,
    ) -> Result<Arc<RefSession>, RunError> {
        let key = (Arc::as_ptr(reference) as usize, config.clone());
        let slot = {
            let mut sessions = self.sessions.lock();
            Arc::clone(
                sessions
                    .entry(key.clone())
                    .or_insert_with(|| Arc::new(Mutex::new(None))),
            )
        };
        let mut guard = slot.lock();
        if let Some(session) = guard.as_ref() {
            return Ok(Arc::clone(session));
        }
        match RefSession::new(Arc::clone(reference), config, &self.spec) {
            Ok(session) => {
                let session = Arc::new(session);
                *guard = Some(Arc::clone(&session));
                Ok(session)
            }
            Err(e) => {
                // Leave no empty slot behind so a failed construction
                // doesn't count toward `len` (another in-flight caller
                // holding this slot Arc will simply retry-and-fail on
                // its own).
                drop(guard);
                let mut sessions = self.sessions.lock();
                if let Some(current) = sessions.get(&key) {
                    if Arc::ptr_eq(current, &slot) && slot.lock().is_none() {
                        sessions.remove(&key);
                    }
                }
                Err(e)
            }
        }
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .lock()
            .values()
            .filter(|slot| slot.lock().is_some())
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One query worker: a simulated device plus reusable run scratch and
/// its share of the serving metrics.
struct Worker {
    device: Device,
    scratch: RunScratch,
    /// Wall time this worker spent executing queries.
    busy: Duration,
    /// Queries this worker completed.
    queries: u64,
}

/// Log-bucketed query-latency histogram: bucket `i` counts queries
/// with latency in `(2^(i-1), 2^i]` microseconds.
struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    count: u64,
    total: Duration,
    max: Duration,
}

/// 2^39 µs ≈ 6.4 days — far beyond any query latency.
const LATENCY_BUCKETS: usize = 40;

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            count: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        }
    }

    fn bucket_of(latency: Duration) -> usize {
        let us = latency.as_micros().max(1) as u64;
        let idx = 64 - (us - 1).leading_zeros() as usize; // ceil(log2)
        idx.min(LATENCY_BUCKETS - 1)
    }

    fn record(&mut self, latency: Duration) {
        self.counts[LatencyHistogram::bucket_of(latency)] += 1;
        self.count += 1;
        self.total += latency;
        self.max = self.max.max(latency);
    }

    /// The `q`-quantile latency's bucket upper bound, in milliseconds
    /// (0 with no samples). Bucket resolution: a factor of 2.
    fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (1u64 << i) as f64 / 1e3;
            }
        }
        self.max.as_secs_f64() * 1e3
    }
}

/// One non-empty latency bucket: `count` queries took at most `le_us`
/// (and more than `le_us / 2`) microseconds.
#[derive(Clone, Debug, serde::Serialize)]
pub struct LatencyBucket {
    /// Inclusive upper bound of the bucket, in microseconds.
    pub le_us: u64,
    /// Queries that landed in this bucket.
    pub count: u64,
}

/// Query-latency summary (log-bucketed; quantiles are bucket upper
/// bounds, so they are accurate to a factor of 2).
#[derive(Clone, Debug, serde::Serialize)]
pub struct LatencySummary {
    /// Queries measured.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency (bucket upper bound), milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency (bucket upper bound), milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency (bucket upper bound), milliseconds.
    pub p99_ms: f64,
    /// Largest observed latency, milliseconds.
    pub max_ms: f64,
    /// The non-empty histogram buckets, ascending.
    pub buckets: Vec<LatencyBucket>,
}

/// Session index-cache counters.
#[derive(Clone, Debug, serde::Serialize)]
pub struct IndexCacheStats {
    /// Tile rows (cache slots) of the session.
    pub rows: u64,
    /// Rows built so far (= cache misses).
    pub built: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build (identical to `built`).
    pub misses: u64,
    /// Total wall time queries spent inside row-index acquisition —
    /// building, or waiting on another query's in-flight build.
    pub build_wait_s: f64,
}

/// One worker's share of the serving load.
#[derive(Clone, Debug, serde::Serialize)]
pub struct WorkerUtilization {
    /// Queries this worker completed.
    pub queries: u64,
    /// Wall time spent executing queries, seconds.
    pub busy_s: f64,
    /// `busy_s / engine uptime` — 1.0 means always busy.
    pub utilization: f64,
}

/// Aggregated device-health counters of every query's extraction
/// launches served so far: the load-balance signals (warp efficiency,
/// divergence, block occupancy) that Algorithm 2 exists to move.
#[derive(Clone, Debug, serde::Serialize)]
pub struct DeviceCounters {
    /// Warp efficiency of the matching kernels (mean active-lane share
    /// of warp cycles; 1.0 = no intra-warp imbalance).
    pub warp_efficiency: f64,
    /// Divergence events per executed warp.
    pub divergence_rate: f64,
    /// Warp-cycle share of the busiest block (1.0 = perfectly even
    /// blocks), aggregated across launches.
    pub block_occupancy: f64,
    /// Warp cycles of the busiest single block seen in any launch.
    pub busiest_block_cycles: u64,
}

/// Health of the engine's sharded execution path: how the last
/// sharded run's modeled matching time split across shards, with the
/// max/mean imbalance ratio as a first-class gauge (1.0 = perfectly
/// balanced; the signal [`ShardPlan::from_row_masses`] exists to
/// minimize).
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct ShardHealth {
    /// Queries served by a multi-shard run so far.
    pub sharded_runs: u64,
    /// Shard count of the most recent sharded run.
    pub shards: u64,
    /// Per-shard modeled matching seconds of the most recent sharded
    /// run, in shard order.
    pub last_modeled_s: Vec<f64>,
    /// Slowest shard's modeled seconds (the sharded critical path).
    pub max_modeled_s: f64,
    /// Mean per-shard modeled seconds.
    pub mean_modeled_s: f64,
    /// `max_modeled_s / mean_modeled_s` — 1.0 means a perfectly even
    /// split (or a zero-mean run, where there is nothing to be
    /// imbalanced about). 0.0 until the first sharded run, so
    /// dashboards can tell "no data" from "balanced".
    pub imbalance: f64,
}

impl ShardHealth {
    /// Fold one sharded run's per-shard matching stats in.
    fn record(&mut self, shard_matching: &[LaunchStats]) {
        self.sharded_runs += 1;
        self.shards = shard_matching.len() as u64;
        self.last_modeled_s = shard_matching
            .iter()
            .map(LaunchStats::modeled_secs)
            .collect();
        self.max_modeled_s = self.last_modeled_s.iter().copied().fold(0.0, f64::max);
        self.mean_modeled_s = if self.last_modeled_s.is_empty() {
            0.0
        } else {
            self.last_modeled_s.iter().sum::<f64>() / self.last_modeled_s.len() as f64
        };
        self.imbalance = if self.mean_modeled_s > 0.0 {
            self.max_modeled_s / self.mean_modeled_s
        } else {
            1.0
        };
    }
}

/// A point-in-time export of the engine's serving metrics, obtained
/// from [`Engine::metrics`]; serializes directly to JSON. The unified
/// exposition formats ([`crate::telemetry::render_prometheus`] /
/// [`crate::telemetry::render_json`]) are derived from this snapshot,
/// so everything here is scrapeable.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MetricsSnapshot {
    /// Seconds since the engine was created, on the engine's
    /// [`TelemetryClock`].
    pub uptime_s: f64,
    /// Queries completed across all workers.
    pub queries: u64,
    /// Per-query latency distribution.
    pub latency: LatencySummary,
    /// Session index-cache behavior.
    pub index_cache: IndexCacheStats,
    /// Per-worker load split.
    pub workers: Vec<WorkerUtilization>,
    /// Device-health counters of the matching launches.
    pub device: DeviceCounters,
    /// Cumulative index-build launch statistics of the session.
    pub index: LaunchStats,
    /// Cumulative matching launch statistics across all queries.
    pub matching: LaunchStats,
    /// Counters of the registry this engine is bound to (all-zero with
    /// `attached: false` for a registry-less engine).
    pub registry: RegistryStats,
    /// Sharded-execution health (zeroed until a sharded run happens).
    pub shards: ShardHealth,
}

impl MetricsSnapshot {
    /// Render the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }
}

/// What to run: one query or a whole batch, borrowed into a
/// [`RunRequest`].
#[derive(Clone, Copy, Debug)]
pub enum Queries<'a> {
    /// A single query sequence.
    One(&'a PackedSeq),
    /// Every record of a set, each an independent query.
    Set(&'a SeqSet),
}

impl<'a> From<&'a PackedSeq> for Queries<'a> {
    fn from(q: &'a PackedSeq) -> Queries<'a> {
        Queries::One(q)
    }
}

impl<'a> From<&'a SeqSet> for Queries<'a> {
    fn from(s: &'a SeqSet) -> Queries<'a> {
        Queries::Set(s)
    }
}

/// Per-request knobs of [`Engine::execute`] — the one place run-time
/// configuration lives. Everything here is output-preserving relative
/// to the engine's base configuration except `seed_mode`, which changes
/// *which* MEM-definition parameters apply (and transparently routes to
/// a separate cached session, since a different seed mode means a
/// different index layout).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Record a [`Trace`] for each query (returned in
    /// [`RunOutput::trace`]).
    pub trace: bool,
    /// Split each query's tile rows across this many simulated devices
    /// (`0`/`1` = single-device). The canonical MEM set is byte-identical
    /// for every shard count — see [`crate::shard`].
    pub shards: usize,
    /// Explicit row placement for sharded runs (overrides `shards`;
    /// must cover the run's tile rows exactly once).
    pub shard_plan: Option<ShardPlan>,
    /// Run under a different seed-sampling mode than the engine's base
    /// configuration (e.g. probe the copMEM-style dual grid for one
    /// request). Validated like a fresh configuration.
    pub seed_mode: Option<SeedMode>,
}

/// One unit of work for [`Engine::execute`]: what to run plus how.
#[derive(Clone, Debug)]
pub struct RunRequest<'a> {
    /// The query payload.
    pub queries: Queries<'a>,
    /// Per-request knobs.
    pub options: RunOptions,
}

impl<'a> RunRequest<'a> {
    /// A default-options request for one query.
    pub fn query(query: &'a PackedSeq) -> RunRequest<'a> {
        RunRequest {
            queries: Queries::One(query),
            options: RunOptions::default(),
        }
    }

    /// A default-options request for a batch.
    pub fn batch(queries: &'a SeqSet) -> RunRequest<'a> {
        RunRequest {
            queries: Queries::Set(queries),
            options: RunOptions::default(),
        }
    }

    /// Replace the options.
    pub fn options(mut self, options: RunOptions) -> RunRequest<'a> {
        self.options = options;
        self
    }
}

/// What [`Engine::execute`] returns per query.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The canonical MEM set and run statistics.
    pub result: GpumemResult,
    /// The query's trace when [`RunOptions::trace`] was set.
    pub trace: Option<Trace>,
}

/// The engine's registration in a [`Registry`]: the base session is
/// pinned for the engine's lifetime (released on drop).
struct RegistryBinding {
    registry: Arc<Registry>,
    handle: RefHandle,
}

/// Builds an [`Engine`] — its single construction surface.
///
/// ```no_run
/// # use gpumem_core::{Engine, GpumemConfig};
/// # use gpumem_seq::GenomeModel;
/// # use gpu_sim::DeviceSpec;
/// let reference = GenomeModel::mammalian().generate(10_000, 1);
/// let engine = Engine::builder(reference)
///     .config(GpumemConfig::builder(25).build().unwrap())
///     .spec(DeviceSpec::tesla_k20c())
///     .threads(4)
///     .build()
///     .unwrap();
/// ```
pub struct EngineBuilder {
    reference: Arc<PackedSeq>,
    config: Option<GpumemConfig>,
    spec: DeviceSpec,
    threads: usize,
    registry: Option<Arc<Registry>>,
    name: Option<String>,
    session: Option<Arc<RefSession>>,
    clock: Option<Arc<dyn TelemetryClock>>,
    events: Option<Arc<dyn EventSink>>,
    warp_floor: Option<f64>,
}

impl EngineBuilder {
    /// The pipeline configuration (default: `GpumemConfig::builder(20)`,
    /// the CLI's default minimum MEM length).
    pub fn config(mut self, config: GpumemConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// The simulated device spec each worker runs (default: the paper's
    /// Tesla K20c). Ignored when a [`Registry`] is attached — sessions
    /// then validate against the registry's spec.
    pub fn spec(mut self, spec: DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Number of query workers (default 1; clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Host the engine's session in `registry`: the session is
    /// registered (deduplicated against existing entries) and pinned
    /// for the engine's lifetime, per-request seed-mode override
    /// sessions share the registry's byte budget, and
    /// [`Engine::metrics`] carries the registry counters.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The name to register the reference under (default `"default"`;
    /// only meaningful with [`EngineBuilder::registry`]).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Bind an existing (possibly shared, possibly warmed) session
    /// instead of creating one; overrides `config` and the reference
    /// passed to [`Engine::builder`]. Incompatible with
    /// [`EngineBuilder::registry`].
    pub fn session(mut self, session: Arc<RefSession>) -> Self {
        self.session = Some(session);
        self
    }

    /// The time source behind `uptime_s` and event timestamps (default:
    /// a fresh [`WallClock`]). Inject a
    /// [`ManualClock`](crate::telemetry::ManualClock) for deterministic
    /// exposition tests.
    pub fn clock(mut self, clock: Arc<dyn TelemetryClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attach a journal sink: the engine emits `run_start`/`run_end`,
    /// `index_build`, `shard_dispatch`, and `anomaly` events into it.
    /// With no sink attached the event path is a single branch — runs
    /// are byte-identical to a sink-less engine. Note this wires the
    /// *engine* only; call [`Registry::set_event_sink`] to also journal
    /// eviction and pin/unpin events from a hosting registry.
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.events = Some(sink);
        self
    }

    /// Emit an `anomaly` event after any run whose matching warp
    /// efficiency falls below `floor` (only meaningful with
    /// [`EngineBuilder::event_sink`]).
    pub fn warp_efficiency_floor(mut self, floor: f64) -> Self {
        self.warp_floor = Some(floor);
        self
    }

    /// Validate and assemble the engine.
    pub fn build(self) -> Result<Engine, RunError> {
        let telemetry = EngineTelemetry {
            clock: self.clock.unwrap_or_else(|| Arc::new(WallClock::new())),
            events: self.events,
            warp_floor: self.warp_floor,
        };
        if let Some(session) = self.session {
            if self.registry.is_some() {
                return Err(RunError::InvalidOptions(
                    "EngineBuilder::session is incompatible with EngineBuilder::registry; \
                     register the (reference, config) pair instead"
                        .to_string(),
                ));
            }
            return Ok(Engine::assemble(
                session,
                self.spec,
                self.threads,
                None,
                telemetry,
            ));
        }
        let config = match self.config {
            Some(config) => config,
            None => GpumemConfig::builder(20)
                .build()
                .expect("default configuration is valid"),
        };
        match self.registry {
            Some(registry) => {
                let name = self.name.as_deref().unwrap_or("default");
                let handle = registry.add(name, self.reference, config)?;
                let session = registry
                    .pin_raw(handle)
                    .expect("freshly added handle resolves");
                let spec = registry.spec().clone();
                Ok(Engine::assemble(
                    session,
                    spec,
                    self.threads,
                    Some(RegistryBinding { registry, handle }),
                    telemetry,
                ))
            }
            None => {
                let session = Arc::new(RefSession::new(self.reference, config, &self.spec)?);
                Ok(Engine::assemble(
                    session,
                    self.spec,
                    self.threads,
                    None,
                    telemetry,
                ))
            }
        }
    }
}

/// The engine's telemetry attachment: the clock behind `uptime_s` and
/// event timestamps, the optional journal sink, and anomaly floors.
struct EngineTelemetry {
    clock: Arc<dyn TelemetryClock>,
    events: Option<Arc<dyn EventSink>>,
    warp_floor: Option<f64>,
}

impl Default for EngineTelemetry {
    fn default() -> EngineTelemetry {
        EngineTelemetry {
            clock: Arc::new(WallClock::new()),
            events: None,
            warp_floor: None,
        }
    }
}

/// The serving engine: a [`RefSession`] bound to a pool of query
/// workers, optionally hosted in a [`Registry`].
pub struct Engine {
    session: Arc<RefSession>,
    spec: DeviceSpec,
    workers: Vec<Mutex<Worker>>,
    /// Where a single-query request waits when every worker is busy.
    next_worker: AtomicUsize,
    /// Clock reading at assembly — `uptime_s` is measured from here.
    created_at: Duration,
    latency: Mutex<LatencyHistogram>,
    build_wait: Mutex<Duration>,
    matching_totals: Mutex<LaunchStats>,
    shard_health: Mutex<ShardHealth>,
    registry: Option<RegistryBinding>,
    telemetry: EngineTelemetry,
    /// Sessions materialized for per-request seed-mode overrides on
    /// registry-less engines (registry-hosted engines route overrides
    /// through the registry so they share its byte budget).
    overrides: Mutex<HashMap<GpumemConfig, Arc<RefSession>>>,
}

/// The resolved (session, config) pair one [`Engine::execute`] call
/// runs under; holds the override session's pin for the duration.
struct ResolvedRun {
    session: Arc<RefSession>,
    config: GpumemConfig,
    _pin: Option<crate::registry::PinnedSession>,
}

impl Engine {
    /// Start building an engine for `reference` (see [`EngineBuilder`]).
    pub fn builder(reference: impl Into<Arc<PackedSeq>>) -> EngineBuilder {
        EngineBuilder {
            reference: reference.into(),
            config: None,
            spec: DeviceSpec::tesla_k20c(),
            threads: 1,
            registry: None,
            name: None,
            session: None,
            clock: None,
            events: None,
            warp_floor: None,
        }
    }

    fn assemble(
        session: Arc<RefSession>,
        spec: DeviceSpec,
        query_threads: usize,
        registry: Option<RegistryBinding>,
        telemetry: EngineTelemetry,
    ) -> Engine {
        let workers = (0..query_threads.max(1))
            .map(|_| {
                Mutex::new(Worker {
                    device: Device::new(spec.clone()),
                    scratch: RunScratch::new(session.config()),
                    busy: Duration::ZERO,
                    queries: 0,
                })
            })
            .collect();
        Engine {
            session,
            spec,
            workers,
            next_worker: AtomicUsize::new(0),
            created_at: telemetry.clock.now(),
            latency: Mutex::new(LatencyHistogram::new()),
            build_wait: Mutex::new(Duration::ZERO),
            matching_totals: Mutex::new(LaunchStats::default()),
            shard_health: Mutex::new(ShardHealth::default()),
            registry,
            telemetry,
            overrides: Mutex::new(HashMap::new()),
        }
    }

    /// Emit a journal event. Zero-cost when no sink is attached: the
    /// event is only built (and the clock only read) after the
    /// `is-some` branch.
    fn emit(&self, make: impl FnOnce(f64) -> Event) {
        if let Some(sink) = &self.telemetry.events {
            let ts = self.telemetry.clock.now().as_secs_f64();
            sink.event(&make(ts));
        }
    }

    /// Emit threshold-crossing anomaly events for one run's stats.
    fn check_anomalies(&self, stats: &GpumemStats) {
        if self.telemetry.events.is_none() {
            return;
        }
        if let Some(floor) = self.telemetry.warp_floor {
            let eff = stats.matching.warp_efficiency(self.spec.warp_size);
            if eff < floor {
                self.emit(|ts| {
                    Event::new("anomaly", ts)
                        .with_str("metric", "warp_efficiency")
                        .with_f64("value", eff)
                        .with_f64("floor", floor)
                });
            }
        }
    }

    /// The underlying session (shareable with other engines).
    pub fn session(&self) -> &Arc<RefSession> {
        &self.session
    }

    /// The registry the engine is hosted in, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref().map(|b| &b.registry)
    }

    /// The device spec each worker simulates.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Number of query workers.
    pub fn query_threads(&self) -> usize {
        self.workers.len()
    }

    /// Check out a worker for one query: the first free one, else a
    /// blocking wait on the next worker in rotation, so concurrent
    /// single-query requests spread over the pool instead of queueing
    /// on one worker.
    fn checkout(&self) -> MutexGuard<'_, Worker> {
        self.workers
            .iter()
            .find_map(Mutex::try_lock)
            .unwrap_or_else(|| {
                let next = self.next_worker.fetch_add(1, Ordering::Relaxed);
                self.workers[next % self.workers.len()].lock()
            })
    }

    /// Build every row index now, so the first query pays no index
    /// launches.
    pub fn warm(&self) -> IndexBuildReport {
        let worker = self.workers[0].lock();
        self.session.warm(&worker.device)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_on_worker(
        &self,
        worker: &mut Worker,
        query: &PackedSeq,
        sink: &mut dyn MemSink,
        trace: Option<&TraceRecorder>,
        session: &RefSession,
        config: &GpumemConfig,
    ) -> GpumemStats {
        // Time every row-index acquisition: building a cold row, or
        // waiting on another query's in-flight build of the same row.
        let mut build_wait = Duration::ZERO;
        let mut provider = |device: &Device, row: usize, _region: Region| {
            let t = Instant::now();
            let out = session.row_index(device, row);
            build_wait += t.elapsed();
            // A cached row reports default (zero-launch) stats, so
            // launches > 0 is exactly "this call built the index".
            if out.1.launches > 0 {
                self.emit(|ts| {
                    Event::new("index_build", ts)
                        .with_u64("row", row as u64)
                        .with_u64("launches", out.1.launches)
                        .with_f64("modeled_s", out.1.modeled_secs())
                });
            }
            out
        };
        let stats = run_tiles(
            &worker.device,
            config,
            session.reference(),
            query,
            &mut provider,
            &mut worker.scratch,
            sink,
            trace,
        );
        *self.build_wait.lock() += build_wait;
        *self.matching_totals.lock() += stats.matching.clone();
        stats
    }

    fn collect_on_worker(
        &self,
        worker: &mut Worker,
        query: &PackedSeq,
        session: &RefSession,
        config: &GpumemConfig,
    ) -> GpumemResult {
        let t0 = Instant::now();
        self.emit(|ts| Event::new("run_start", ts).with_u64("query_len", query.len() as u64));
        let mut collector = MemCollector::default();
        let mut stats = self.run_on_worker(worker, query, &mut collector, None, session, config);
        let t = Instant::now();
        let mems = collector.into_canonical();
        stats.match_wall += t.elapsed();
        stats.counts.total = mems.len();
        self.record_query(worker, t0.elapsed());
        self.emit_run_end(query, &stats, mems.len());
        self.check_anomalies(&stats);
        GpumemResult { mems, stats }
    }

    /// Emit the `run_end` event carrying the run's stage totals
    /// (`index + matching`) — by construction the exact sum
    /// [`Trace::stage_totals`] reports for a traced run, which is what
    /// lets the journal reconcile against the trace field for field.
    fn emit_run_end(&self, query: &PackedSeq, stats: &GpumemStats, mems: usize) {
        self.emit(|ts| {
            let totals = stats.index.clone() + stats.matching.clone();
            Event::new("run_end", ts)
                .with_u64("query_len", query.len() as u64)
                .with_u64("mems", mems as u64)
                .with_u64("launches", totals.launches)
                .with_u64("warp_cycles", totals.warp_cycles)
                .with_u64("device_cycles", totals.device_cycles)
                .with_f64("modeled_s", totals.modeled_secs())
        });
    }

    /// Account one completed query to the latency histogram, the
    /// executing worker, and — when registry-hosted — the registry's
    /// LRU clock (which also enforces the byte budget, charging any
    /// rows the query lazily built).
    fn record_query(&self, worker: &mut Worker, latency: Duration) {
        worker.busy += latency;
        worker.queries += 1;
        self.latency.lock().record(latency);
        if let Some(binding) = &self.registry {
            binding.registry.touch(binding.handle);
        }
    }

    /// Resolve a request's options into the (session, config) pair to
    /// run under. A seed-mode override needs its own index layout, so it
    /// resolves to a separate session — through the registry (budgeted,
    /// pinned for the call) when hosted, else a per-engine cache — and
    /// runs under that session's re-derived configuration.
    fn resolve_options(&self, opts: &RunOptions) -> Result<ResolvedRun, RunError> {
        let base = self.session.config();
        match opts.seed_mode {
            Some(mode) if mode != base.seed_mode => {
                // Re-derive through the validating builder: the seed
                // mode dictates step and therefore the tile geometry.
                let config = GpumemConfig::builder(base.min_len)
                    .seed_len(base.seed_len)
                    .seed_mode(mode)
                    .threads_per_block(base.threads_per_block)
                    .blocks_per_tile(base.blocks_per_tile)
                    .load_balancing(base.load_balancing)
                    .index_kind(base.index_kind)
                    .build()
                    .map_err(|e| RunError::InvalidOptions(e.to_string()))?;
                let (session, pin) = self.override_session(config.clone())?;
                Ok(ResolvedRun {
                    session,
                    config,
                    _pin: pin,
                })
            }
            _ => Ok(ResolvedRun {
                session: Arc::clone(&self.session),
                config: base.clone(),
                _pin: None,
            }),
        }
    }

    /// The cached session for an overridden index layout.
    fn override_session(
        &self,
        session_config: GpumemConfig,
    ) -> Result<(Arc<RefSession>, Option<crate::registry::PinnedSession>), RunError> {
        if let Some(binding) = &self.registry {
            let handle = binding.registry.add(
                "seed-mode-override",
                Arc::clone(self.session.reference_arc()),
                session_config,
            )?;
            let pin = binding
                .registry
                .pin(handle)
                .expect("freshly added handle resolves");
            let session = Arc::clone(pin.session());
            return Ok((session, Some(pin)));
        }
        let mut overrides = self.overrides.lock();
        if let Some(session) = overrides.get(&session_config) {
            return Ok((Arc::clone(session), None));
        }
        let session = Arc::new(RefSession::new(
            Arc::clone(self.session.reference_arc()),
            session_config.clone(),
            &self.spec,
        )?);
        overrides.insert(session_config, Arc::clone(&session));
        Ok((session, None))
    }

    /// How many shards a request resolves to.
    fn effective_shards(&self, opts: &RunOptions) -> usize {
        opts.shard_plan
            .as_ref()
            .map(|p| p.n_shards())
            .unwrap_or(opts.shards)
            .max(1)
    }

    /// The unified run surface: execute every query of `request` under
    /// its options, returning one [`RunOutput`] per query in order.
    /// [`Engine::run`], [`Engine::run_traced`], and
    /// [`Engine::run_batch`] are thin adapters over this.
    ///
    /// Untraced single-device batches fan out across the engine's
    /// workers; traced or sharded requests run queries sequentially
    /// (tracing owns one worker's observer per query; a sharded query
    /// is already parallel across its shard devices). A single query
    /// takes the first free worker, so concurrent callers spread over
    /// the pool.
    pub fn execute(&self, request: &RunRequest<'_>) -> Vec<Result<RunOutput, RunError>> {
        let opts = &request.options;
        let n = match request.queries {
            Queries::One(_) => 1,
            Queries::Set(set) => set.records.len(),
        };
        let resolved = match self.resolve_options(opts) {
            Ok(resolved) => resolved,
            Err(e) => return (0..n).map(|_| Err(e.clone())).collect(),
        };
        match request.queries {
            Queries::One(query) => vec![self.execute_one(query, &resolved, opts)],
            Queries::Set(set) if opts.trace || self.effective_shards(opts) >= 2 => (0..n)
                .map(|i| self.execute_one(&set.record_seq(i), &resolved, opts))
                .collect(),
            Queries::Set(set) => {
                let n_workers = self.workers.len();
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(n_workers)
                    .build()
                    .expect("thread pool");
                pool.install(|| {
                    (0..n)
                        .into_par_iter()
                        .map(|i| {
                            let query = set.record_seq(i);
                            ensure_sort_key(&query)?;
                            let mut worker = self.workers[i % n_workers].lock();
                            Ok(RunOutput {
                                result: self.collect_on_worker(
                                    &mut worker,
                                    &query,
                                    &resolved.session,
                                    &resolved.config,
                                ),
                                trace: None,
                            })
                        })
                        .collect()
                })
            }
        }
    }

    fn execute_one(
        &self,
        query: &PackedSeq,
        resolved: &ResolvedRun,
        opts: &RunOptions,
    ) -> Result<RunOutput, RunError> {
        ensure_sort_key(query)?;
        let shards = self.effective_shards(opts);
        if shards >= 2 {
            return self.run_sharded(query, resolved, opts, shards);
        }
        if opts.trace {
            let (result, trace) = self.traced_on_worker(query, &resolved.session, &resolved.config);
            return Ok(RunOutput {
                result,
                trace: Some(trace),
            });
        }
        let mut worker = self.checkout();
        Ok(RunOutput {
            result: self.collect_on_worker(&mut worker, query, &resolved.session, &resolved.config),
            trace: None,
        })
    }

    /// One query across N simulated devices: each shard runs its tile
    /// rows on a fresh device with its own scratch and host thread, then
    /// the shards' out-tile fragments are concatenated and host-merged
    /// once ([`gather_rows`]). See [`crate::shard`] for why the result
    /// is byte-identical to a single-device run.
    fn run_sharded(
        &self,
        query: &PackedSeq,
        resolved: &ResolvedRun,
        opts: &RunOptions,
        n_shards: usize,
    ) -> Result<RunOutput, RunError> {
        let session = &resolved.session;
        let config = &resolved.config;
        let reference = session.reference();
        let t0 = Instant::now();
        self.emit(|ts| {
            Event::new("run_start", ts)
                .with_u64("query_len", query.len() as u64)
                .with_u64("shards", n_shards as u64)
        });
        // Row mass ∝ reference bases covered (the last row may be
        // short); occurrence-accurate masses would need the indexes
        // built up front, defeating lazy residency.
        let masses = row_masses(config, reference, query);
        let plan = match &opts.shard_plan {
            Some(plan) => {
                if !plan.covers(masses.len()) {
                    return Err(RunError::InvalidOptions(format!(
                        "shard plan assigns {} rows but the run has {} tile rows",
                        plan.n_rows(),
                        masses.len()
                    )));
                }
                plan.clone()
            }
            None => ShardPlan::from_row_masses(n_shards, &masses),
        };
        for s in 0..plan.n_shards() {
            self.emit(|ts| {
                Event::new("shard_dispatch", ts)
                    .with_u64("shard", s as u64)
                    .with_u64("rows", plan.rows(s).len() as u64)
            });
        }

        // Time every row-index acquisition: building a cold row, or
        // waiting on another shard's in-flight build of the same row.
        let row_index = |device: &Device, row: usize, _region: Region| {
            let t = Instant::now();
            let out = session.row_index(device, row);
            *self.build_wait.lock() += t.elapsed();
            out
        };
        let devices: Vec<Device> = (0..plan.n_shards())
            .map(|_| Device::new(self.spec.clone()))
            .collect();
        let gathered = gather_rows(
            &devices, &plan, "shard", config, reference, query, &row_index, opts.trace, None,
        );
        let GpumemResult { mems, mut stats } = gathered.result;
        stats.shard_matching = gathered.workers.into_iter().map(|s| s.matching).collect();
        *self.matching_totals.lock() += stats.matching.clone();

        let mut worker = self.checkout();
        self.record_query(&mut worker, t0.elapsed());
        drop(worker);
        self.shard_health.lock().record(&stats.shard_matching);
        self.emit_run_end(query, &stats, mems.len());
        self.check_anomalies(&stats);
        Ok(RunOutput {
            result: GpumemResult { mems, stats },
            trace: gathered.trace,
        })
    }

    fn traced_on_worker(
        &self,
        query: &PackedSeq,
        session: &RefSession,
        config: &GpumemConfig,
    ) -> (GpumemResult, Trace) {
        let mut worker = self.checkout();
        let recorder = Arc::new(TraceRecorder::new(worker.device.spec().warp_size));
        worker
            .device
            .set_observer(Some(crate::trace::as_observer(&recorder)));
        let query_span = recorder.begin("query", SpanCat::Run);
        let t0 = Instant::now();
        self.emit(|ts| Event::new("run_start", ts).with_u64("query_len", query.len() as u64));
        let mut collector = MemCollector::default();
        let mut stats = self.run_on_worker(
            &mut worker,
            query,
            &mut collector,
            Some(&recorder),
            session,
            config,
        );
        let mems = collector.into_canonical();
        stats.counts.total = mems.len();
        recorder.end(query_span);
        worker.device.set_observer(None);
        self.record_query(&mut worker, t0.elapsed());
        self.emit_run_end(query, &stats, mems.len());
        self.check_anomalies(&stats);
        (GpumemResult { mems, stats }, recorder.snapshot())
    }

    /// Stream one query's MEMs into `sink` as stages complete (see the
    /// module docs for the ordering contract). A warmed session makes
    /// this a zero-index-launch operation. The streaming sibling of
    /// [`Engine::execute`] (a sink has no [`RunOutput`] shape, so this
    /// stays its own entry point).
    pub fn run_with_sink(
        &self,
        query: &PackedSeq,
        sink: &mut dyn MemSink,
    ) -> Result<GpumemStats, RunError> {
        ensure_sort_key(query)?;
        let t0 = Instant::now();
        self.emit(|ts| Event::new("run_start", ts).with_u64("query_len", query.len() as u64));
        let mut worker = self.checkout();
        let stats = self.run_on_worker(
            &mut worker,
            query,
            sink,
            None,
            &self.session,
            self.session.config(),
        );
        self.record_query(&mut worker, t0.elapsed());
        self.emit_run_end(query, &stats, stats.counts.total);
        self.check_anomalies(&stats);
        Ok(stats)
    }

    /// Run one query, collecting the canonical MEM set — the
    /// default-options adapter over [`Engine::execute`].
    pub fn run(&self, query: &PackedSeq) -> Result<GpumemResult, RunError> {
        self.execute(&RunRequest::query(query))
            .pop()
            .expect("one query yields one output")
            .map(|out| out.result)
    }

    /// [`Engine::run`] with structured tracing: also returns the
    /// query's [`Trace`] (see [`crate::trace`]) — the
    /// `RunOptions { trace: true, .. }` adapter over
    /// [`Engine::execute`]. Runs on the first free worker with the
    /// recorder installed as that device's launch observer for the
    /// duration of the call.
    pub fn run_traced(&self, query: &PackedSeq) -> Result<(GpumemResult, Trace), RunError> {
        let options = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        let out = self
            .execute(&RunRequest::query(query).options(options))
            .pop()
            .expect("one query yields one output")?;
        let trace = out.trace.expect("traced run records a trace");
        Ok((out.result, trace))
    }

    /// Export the engine's serving metrics: query-latency histogram,
    /// index-cache behavior (including build-wait time), and
    /// per-worker utilization. Cheap enough to poll.
    pub fn metrics(&self) -> MetricsSnapshot {
        let uptime = self
            .telemetry
            .clock
            .now()
            .saturating_sub(self.created_at)
            .as_secs_f64();
        let latency = self.latency.lock();
        let mean_ms = if latency.count == 0 {
            0.0
        } else {
            latency.total.as_secs_f64() * 1e3 / latency.count as f64
        };
        let buckets = latency
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| LatencyBucket {
                le_us: 1u64 << i,
                count: n,
            })
            .collect();
        let summary = LatencySummary {
            count: latency.count,
            mean_ms,
            p50_ms: latency.quantile_ms(0.50),
            p90_ms: latency.quantile_ms(0.90),
            p99_ms: latency.quantile_ms(0.99),
            max_ms: latency.max.as_secs_f64() * 1e3,
            buckets,
        };
        drop(latency);
        let built = self.session.built_rows() as u64;
        let index_cache = IndexCacheStats {
            rows: self.session.rows() as u64,
            built,
            hits: self.session.cache_hits(),
            misses: built,
            build_wait_s: self.build_wait.lock().as_secs_f64(),
        };
        let warp_size = self.workers[0].lock().device.spec().warp_size;
        let totals = self.matching_totals.lock().clone();
        let device = DeviceCounters {
            warp_efficiency: totals.warp_efficiency(warp_size),
            divergence_rate: totals.divergence_rate(),
            block_occupancy: totals.block_occupancy(),
            busiest_block_cycles: totals.busiest_block_cycles,
        };
        let workers = self
            .workers
            .iter()
            .map(|w| {
                let w = w.lock();
                WorkerUtilization {
                    queries: w.queries,
                    busy_s: w.busy.as_secs_f64(),
                    utilization: if uptime > 0.0 {
                        w.busy.as_secs_f64() / uptime
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        MetricsSnapshot {
            uptime_s: uptime,
            queries: summary.count,
            latency: summary,
            index_cache,
            workers,
            device,
            index: self.session.index_report().stats,
            matching: totals,
            registry: self
                .registry
                .as_ref()
                .map(|b| b.registry.stats())
                .unwrap_or_default(),
            shards: self.shard_health.lock().clone(),
        }
    }

    /// Run every record of `queries` as an independent query, in
    /// parallel across the engine's workers — the batch adapter over
    /// [`Engine::execute`]. Results come back in record order, each
    /// exactly what [`Engine::run`] would return for that record alone.
    pub fn run_batch(&self, queries: &SeqSet) -> Vec<Result<GpumemResult, RunError>> {
        self.execute(&RunRequest::batch(queries))
            .into_iter()
            .map(|r| r.map(|out| out.result))
            .collect()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Release the lifetime pin taken by `EngineBuilder::build` so
        // the registry may evict or remove this engine's session.
        if let Some(binding) = &self.registry {
            binding.registry.unpin(binding.handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Gpumem;
    use gpumem_seq::{naive_mems, FastaRecord, GenomeModel, MutationModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(min_len: u32) -> GpumemConfig {
        GpumemConfig::builder(min_len)
            .seed_len(8)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .build()
            .unwrap()
    }

    /// The standard test engine: `reference` on a test-tiny device.
    fn engine_of(reference: &PackedSeq, cfg: GpumemConfig, threads: usize) -> Engine {
        Engine::builder(reference.clone())
            .config(cfg)
            .spec(DeviceSpec::test_tiny())
            .threads(threads)
            .build()
            .unwrap()
    }

    fn query_set(reference: &PackedSeq, n: usize) -> SeqSet {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let records: Vec<FastaRecord> = (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(900 + i as u64);
                FastaRecord {
                    header: format!("q{i}"),
                    seq: PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng)),
                }
            })
            .collect();
        SeqSet::from_records(&records)
    }

    #[test]
    fn engine_run_matches_gpumem_run() {
        let reference = GenomeModel::mammalian().generate(2_000, 800);
        let query = GenomeModel::mammalian().generate(1_500, 801);
        let engine = engine_of(&reference, config(16), 1);
        let classic = Gpumem::with_device(config(16), Device::new(DeviceSpec::test_tiny()))
            .run(&reference, &query)
            .unwrap();
        let served = engine.run(&query).unwrap();
        assert_eq!(served.mems, classic.mems);
        assert_eq!(served.mems, naive_mems(&reference, &query, 16));
    }

    #[test]
    fn second_query_builds_nothing() {
        let reference = GenomeModel::mammalian().generate(3_000, 802);
        let engine = engine_of(&reference, config(16), 1);
        let q1 = GenomeModel::mammalian().generate(1_000, 803);
        let first = engine.run(&q1).unwrap();
        assert!(first.stats.index.launches > 0, "cold run builds indexes");
        let built = engine.session().built_rows();
        assert_eq!(built, engine.session().rows(), "q1 touched every row");
        let second = engine.run(&q1).unwrap();
        assert_eq!(second.stats.index.launches, 0, "warm run builds nothing");
        assert_eq!(second.mems, first.mems);
        assert_eq!(engine.session().built_rows(), built);
    }

    #[test]
    fn warm_prebuilds_every_row() {
        let reference = GenomeModel::mammalian().generate(2_500, 804);
        let engine = engine_of(&reference, config(16), 1);
        let report = engine.warm();
        assert_eq!(report.rows, engine.session().rows());
        assert!(report.stats.launches > 0);
        let q = GenomeModel::mammalian().generate(800, 805);
        let run = engine.run(&q).unwrap();
        assert_eq!(run.stats.index.launches, 0, "warmed: no builds at all");
        // Warming again is free.
        let again = engine.warm();
        assert_eq!(again.stats.launches, report.stats.launches);
    }

    #[test]
    fn batch_equals_sequential_for_any_worker_count() {
        let reference = GenomeModel::mammalian().generate(2_000, 806);
        let queries = query_set(&reference, 4);
        let sequential: Vec<Vec<Mem>> = (0..4)
            .map(|i| {
                Gpumem::with_device(config(16), Device::new(DeviceSpec::test_tiny()))
                    .run(&reference, &queries.record_seq(i))
                    .unwrap()
                    .mems
            })
            .collect();
        for workers in [1, 2, 4] {
            let engine = engine_of(&reference, config(16), workers);
            let batch = engine.run_batch(&queries);
            assert_eq!(batch.len(), 4);
            for (result, expect) in batch.iter().zip(&sequential) {
                assert_eq!(&result.as_ref().unwrap().mems, expect, "{workers} workers");
            }
        }
    }

    #[test]
    fn batch_builds_each_row_index_once() {
        let reference = GenomeModel::mammalian().generate(2_500, 807);
        let queries = query_set(&reference, 6);
        let engine = engine_of(&reference, config(16), 3);
        let results = engine.run_batch(&queries);
        let total_index_launches: u64 = results
            .iter()
            .map(|r| r.as_ref().unwrap().stats.index.launches)
            .sum();
        let one_build = Gpumem::with_device(config(16), Device::new(DeviceSpec::test_tiny()))
            .build_index_only(&reference);
        assert_eq!(
            total_index_launches, one_build.stats.launches,
            "6 queries paid for exactly one full index build"
        );
        assert_eq!(engine.session().built_rows(), engine.session().rows());
    }

    #[test]
    fn sink_order_is_deterministic_and_complete() {
        #[derive(Default)]
        struct Recorder {
            batches: Vec<(MemStage, Vec<Mem>)>,
        }
        impl MemSink for Recorder {
            fn mems(&mut self, stage: MemStage, mems: &[Mem]) {
                assert!(!mems.is_empty(), "empty batches are never delivered");
                self.batches.push((stage, mems.to_vec()));
            }
        }

        let reference = GenomeModel::mammalian().generate(3_000, 808);
        let engine = engine_of(&reference, config(20), 1);
        // Self-comparison: the main diagonal guarantees every stage
        // (including Global) fires.
        let run = |engine: &Engine| {
            let mut sink = Recorder::default();
            engine.run_with_sink(&reference, &mut sink).unwrap();
            sink.batches
        };
        let a = run(&engine);
        let b = run(&engine);
        assert_eq!(a, b, "identical runs stream identical batch sequences");

        assert_eq!(
            a.last().map(|(stage, _)| *stage),
            Some(MemStage::Global),
            "the host merge is always the final batch"
        );
        // Tiles arrive in row-major order; Block precedes Tile within a
        // tile.
        let cells: Vec<(usize, usize, bool)> = a
            .iter()
            .filter_map(|(stage, _)| match *stage {
                MemStage::Block { row, col } => Some((row, col, false)),
                MemStage::Tile { row, col } => Some((row, col, true)),
                MemStage::Global => None,
            })
            .collect();
        assert!(cells.windows(2).all(|w| w[0] <= w[1]), "row-major order");

        // Streamed batches reconstruct the canonical result exactly.
        let streamed: Vec<Mem> = canonicalize(a.into_iter().flat_map(|(_, mems)| mems).collect());
        assert_eq!(streamed, engine.run(&reference).unwrap().mems);
        assert_eq!(streamed, naive_mems(&reference, &reference, 20));
    }

    #[test]
    fn session_rejects_oversized_working_set() {
        let mut spec = DeviceSpec::test_tiny();
        spec.global_mem_bytes = 1 << 16; // 64 KiB device
        let reference = GenomeModel::uniform().generate(1_000, 809);
        let big = GpumemConfig::builder(20)
            .seed_len(10)
            .threads_per_block(16)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let err = Engine::builder(reference)
            .config(big)
            .spec(spec)
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, RunError::DeviceMemoryExceeded { .. }));
    }

    #[test]
    fn empty_batch_and_empty_records() {
        let reference = GenomeModel::uniform().generate(500, 810);
        let engine = engine_of(&reference, config(16), 2);
        assert!(engine.run_batch(&SeqSet::from_records(&[])).is_empty());
        let empty_record = SeqSet::from_records(&[FastaRecord {
            header: "empty".into(),
            seq: PackedSeq::from_codes(&[]),
        }]);
        let results = engine.run_batch(&empty_record);
        assert_eq!(results.len(), 1);
        assert!(results[0].as_ref().unwrap().mems.is_empty());
    }

    #[test]
    fn metrics_account_queries_cache_and_workers() {
        let reference = GenomeModel::mammalian().generate(2_000, 811);
        let engine = engine_of(&reference, config(16), 2);
        let q = GenomeModel::mammalian().generate(1_000, 812);
        engine.run(&q).unwrap();
        engine.run(&q).unwrap();
        engine.run(&q).unwrap();
        let m = engine.metrics();
        assert_eq!(m.queries, 3);
        assert_eq!(m.latency.count, 3);
        let bucketed: u64 = m.latency.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucketed, 3, "every query lands in exactly one bucket");
        assert!(m.latency.mean_ms > 0.0);
        assert!(m.latency.p50_ms <= m.latency.p99_ms);
        // Cold query builds every row once; warm queries only hit.
        assert_eq!(m.index_cache.rows, engine.session().rows() as u64);
        assert_eq!(m.index_cache.built, m.index_cache.rows);
        assert_eq!(m.index_cache.misses, m.index_cache.built);
        assert_eq!(
            m.index_cache.hits,
            2 * m.index_cache.rows,
            "two warm queries re-read each row index from cache"
        );
        assert!(m.index_cache.build_wait_s > 0.0);
        // Sequential run() calls always find worker 0 free; worker 1
        // sat idle.
        assert_eq!(m.workers.len(), 2);
        assert_eq!(m.workers[0].queries, 3);
        assert_eq!(m.workers[1].queries, 0);
        assert!(m.workers[0].utilization > 0.0 && m.workers[0].utilization <= 1.0);
        assert_eq!(m.workers[1].busy_s, 0.0);
    }

    #[test]
    fn single_query_request_takes_a_free_worker() {
        let reference = GenomeModel::mammalian().generate(2_000, 813);
        let engine = engine_of(&reference, config(16), 2);
        let q = GenomeModel::mammalian().generate(1_000, 814);
        let expect = engine.run(&q).unwrap().mems;
        let held = engine.workers[0].lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(engine.run(&q).map(|r| r.mems)));
            let reply = rx.recv_timeout(Duration::from_secs(60));
            // Release worker 0 before judging, so a request queued on it
            // finishes and the scope can join.
            drop(held);
            let mems = reply.expect("request blocked on the busy worker 0");
            assert_eq!(mems.unwrap(), expect);
        });
        let m = engine.metrics();
        assert_eq!(m.workers[0].queries, 1, "only the first, unheld run");
        assert_eq!(m.workers[1].queries, 1, "the second run took worker 1");
    }

    #[test]
    fn latency_histogram_buckets_are_powers_of_two() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 3, 4, 1000, 1024, 1025] {
            h.record(Duration::from_micros(us));
        }
        // (0,1] ← 1; (1,2] ← 2; (2,4] ← 3,4; (512,1024] ← 1000,1024;
        // (1024,2048] ← 1025.
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[10], 2);
        assert_eq!(h.counts[11], 1);
        assert_eq!(h.count, 7);
        assert_eq!(h.max, Duration::from_micros(1025));
        // Quantiles report the bucket's upper bound in milliseconds.
        assert_eq!(h.quantile_ms(1.0), 2.048);
    }

    #[test]
    fn session_cache_never_shares_across_seed_parameters() {
        use gpumem_index::SeedMode;
        // L = 25, ℓs = 8 → dual bound 18; (4, 3) is the auto pair.
        let dual = GpumemConfig::builder(25)
            .seed_len(8)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .seed_mode(SeedMode::DualSampled { k1: 4, k2: 3 })
            .build()
            .unwrap();
        let ref_only = GpumemConfig::builder(25)
            .seed_len(8)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        assert_ne!(dual, ref_only);

        let reference = Arc::new(GenomeModel::mammalian().generate(4_000, 815));
        let query = GenomeModel::mammalian().generate(1_500, 816);
        let cache = SessionCache::new(DeviceSpec::test_tiny());

        // Warm RefOnly fully, then request the dual-mode session: it
        // must be a distinct, still-cold session — not the warmed
        // RefOnly rows (whose denser step-6 index would violate the
        // dual probe contract).
        let warm = cache.session(&reference, ref_only.clone()).unwrap();
        let engine_warm = Engine::builder(Arc::clone(&reference))
            .session(Arc::clone(&warm))
            .spec(DeviceSpec::test_tiny())
            .build()
            .unwrap();
        engine_warm.warm();
        assert_eq!(warm.built_rows(), warm.rows());

        let cold = cache.session(&reference, dual.clone()).unwrap();
        assert!(
            !Arc::ptr_eq(&warm, &cold),
            "configs differing only in seed parameters shared a session"
        );
        assert_eq!(cold.built_rows(), 0, "dual session inherited warm rows");
        assert_eq!(cache.len(), 2);

        // And the dual session still answers correctly.
        let engine_cold = Engine::builder(Arc::clone(&reference))
            .session(cold)
            .spec(DeviceSpec::test_tiny())
            .build()
            .unwrap();
        let got = engine_cold.run(&query).unwrap();
        assert_eq!(got.mems, naive_mems(&reference, &query, 25));

        // Same reference + identical config → the cached Arc comes
        // back.
        let again = cache.session(&reference, ref_only).unwrap();
        assert!(Arc::ptr_eq(&warm, &again));
        assert_eq!(cache.len(), 2);

        // A different reference never aliases, even with an equal
        // config.
        let other = Arc::new(GenomeModel::mammalian().generate(4_000, 817));
        let third = cache.session(&other, dual).unwrap();
        assert!(!Arc::ptr_eq(&third, &engine_cold.session().clone()));
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
    }

    #[test]
    fn engine_run_traced_matches_untraced_and_reconciles() {
        let reference = GenomeModel::mammalian().generate(2_000, 813);
        let engine = engine_of(&reference, config(16), 1);
        let q = GenomeModel::mammalian().generate(1_200, 814);
        let plain = engine.run(&q).unwrap();
        let (traced, trace) = engine.run_traced(&q).unwrap();
        assert_eq!(traced.mems, plain.mems);
        // The warm traced run launches no index builds, so its stage
        // totals are exactly the matching-side stats.
        let mut expected = traced.stats.index.clone();
        expected += traced.stats.matching.clone();
        assert_eq!(trace.stage_totals(), expected);
        assert!(trace
            .spans()
            .iter()
            .any(|s| s.cat == SpanCat::Run && s.name == "query"));
        // The observer came off the device: a later plain run is clean.
        let after = engine.run(&q).unwrap();
        assert_eq!(after.mems, plain.mems);
        assert_eq!(engine.metrics().queries, 3);
    }

    #[test]
    fn session_cache_builds_different_references_in_parallel() {
        // Regression test for the map-lock-held-across-construction bug:
        // pre-insert reference A's slot and hold its *slot* lock (as an
        // in-flight construction would), then ask the cache for
        // reference B from this thread while a second thread is parked
        // on A. With the old single-lock design the parked thread held
        // the whole map hostage and this call deadlocked; now it
        // completes while A is still "building".
        let cache = Arc::new(SessionCache::new(DeviceSpec::test_tiny()));
        let ref_a = Arc::new(GenomeModel::mammalian().generate(1_000, 832));
        let ref_b = Arc::new(GenomeModel::mammalian().generate(1_000, 833));

        let key_a = (Arc::as_ptr(&ref_a) as usize, config(16));
        let slot_a = Arc::new(Mutex::new(None));
        cache.sessions.lock().insert(key_a, Arc::clone(&slot_a));
        let in_flight = slot_a.lock();

        let parked = {
            let cache = Arc::clone(&cache);
            let ref_a = Arc::clone(&ref_a);
            std::thread::spawn(move || cache.session(&ref_a, config(16)).unwrap())
        };
        // Give the parked thread time to reach A's slot lock; whether it
        // has or not, B must not be blocked by A's construction.
        std::thread::sleep(Duration::from_millis(20));
        let session_b = cache.session(&ref_b, config(16)).unwrap();
        assert!(Arc::ptr_eq(session_b.reference_arc(), &ref_b));

        drop(in_flight);
        let session_a = parked.join().unwrap();
        assert!(Arc::ptr_eq(session_a.reference_arc(), &ref_a));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharded_run_is_byte_identical_to_single_device() {
        let reference = GenomeModel::mammalian().generate(3_000, 834);
        let query = GenomeModel::mammalian().generate(2_000, 835);
        let engine = engine_of(&reference, config(16), 1);
        let single = engine.run(&query).unwrap();
        assert_eq!(single.mems, naive_mems(&reference, &query, 16));
        assert!(single.stats.rows >= 4, "grid large enough to shard");
        for shards in [2usize, 3, 4, 7] {
            let options = RunOptions {
                shards,
                ..RunOptions::default()
            };
            let out = engine
                .execute(&RunRequest::query(&query).options(options))
                .pop()
                .unwrap()
                .unwrap();
            assert_eq!(out.result.mems, single.mems, "{shards} shards");
            assert_eq!(out.result.stats.shard_matching.len(), shards);
            assert_eq!(out.result.stats.rows, single.stats.rows);
            assert_eq!(out.result.stats.counts.total, single.stats.counts.total);
        }
    }

    #[test]
    fn sharded_run_honors_explicit_plans_and_rejects_bad_ones() {
        let reference = GenomeModel::mammalian().generate(2_500, 836);
        let query = GenomeModel::mammalian().generate(1_500, 837);
        let engine = engine_of(&reference, config(16), 1);
        let single = engine.run(&query).unwrap();
        let n_rows = single.stats.rows;
        assert!(n_rows >= 3);

        // A deliberately lopsided hand-written plan still merges right.
        let mut rows: Vec<usize> = (0..n_rows).collect();
        let rest = rows.split_off(1);
        let plan = ShardPlan::from_assignments(vec![rows, rest]);
        let options = RunOptions {
            shard_plan: Some(plan),
            ..RunOptions::default()
        };
        let out = engine
            .execute(&RunRequest::query(&query).options(options))
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(out.result.mems, single.mems);

        // A plan that misses rows is refused, not silently wrong.
        let bad = RunOptions {
            shard_plan: Some(ShardPlan::from_assignments(vec![vec![0], vec![1]])),
            ..RunOptions::default()
        };
        let err = engine
            .execute(&RunRequest::query(&query).options(bad))
            .pop()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidOptions(_)));
    }

    #[test]
    fn sharded_traced_run_merges_shard_traces() {
        let reference = GenomeModel::mammalian().generate(2_000, 838);
        let query = GenomeModel::mammalian().generate(1_200, 839);
        let engine = engine_of(&reference, config(16), 1);
        let single = engine.run(&query).unwrap();
        let options = RunOptions {
            trace: true,
            shards: 2,
            ..RunOptions::default()
        };
        let out = engine
            .execute(&RunRequest::query(&query).options(options))
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(out.result.mems, single.mems);
        let trace = out.trace.expect("traced shard run yields a trace");
        let shard_spans: Vec<_> = trace
            .spans()
            .iter()
            .filter(|s| s.cat == SpanCat::Run && s.name.starts_with("shard "))
            .collect();
        assert_eq!(shard_spans.len(), 2, "one span per shard");
    }

    #[test]
    fn run_options_override_seed_mode() {
        use gpumem_index::SeedMode;
        let reference = GenomeModel::mammalian().generate(2_500, 840);
        let query = GenomeModel::mammalian().generate(1_500, 841);
        let engine = engine_of(&reference, config(25), 1);

        // A seed-mode override answers exactly like an engine built
        // with that mode, and materializes exactly one extra session.
        let mode = SeedMode::DualSampled { k1: 4, k2: 3 };
        let options = RunOptions {
            seed_mode: Some(mode),
            ..RunOptions::default()
        };
        let overridden = engine
            .execute(&RunRequest::query(&query).options(options.clone()))
            .pop()
            .unwrap()
            .unwrap();
        let dual_cfg = GpumemConfig::builder(25)
            .seed_len(8)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .seed_mode(mode)
            .build()
            .unwrap();
        let dual_engine = engine_of(&reference, dual_cfg, 1);
        assert_eq!(
            overridden.result.mems,
            dual_engine.run(&query).unwrap().mems
        );
        assert_eq!(overridden.result.mems, naive_mems(&reference, &query, 25));
        // Repeating the override reuses the cached session.
        engine
            .execute(&RunRequest::query(&query).options(options))
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(engine.overrides.lock().len(), 1);
    }

    #[test]
    fn registry_hosted_engine_reports_counters_and_unpins_on_drop() {
        let registry = Arc::new(Registry::new(DeviceSpec::test_tiny()));
        let reference = GenomeModel::mammalian().generate(2_000, 842);
        let query = GenomeModel::mammalian().generate(1_200, 843);
        let engine = Engine::builder(reference.clone())
            .config(config(16))
            .registry(Arc::clone(&registry))
            .name("host-test")
            .build()
            .unwrap();
        assert!(engine.registry().is_some());
        let handle = registry.handle_by_name("host-test").unwrap();
        assert!(!registry.remove(handle), "engine's pin blocks removal");

        engine.run(&query).unwrap();
        engine.run(&query).unwrap();
        let m = engine.metrics();
        assert!(m.registry.attached);
        assert_eq!(m.registry.references, 1);
        assert_eq!(m.registry.pinned, 1);
        assert!(m.registry.resident_bytes > 0);
        assert!(m.registry.hits >= 1, "second query touches a warm session");

        drop(engine);
        assert!(registry.remove(handle), "drop released the pin");
    }

    #[test]
    fn plain_engine_metrics_mark_registry_detached() {
        let reference = GenomeModel::uniform().generate(600, 844);
        let engine = engine_of(&reference, config(16), 1);
        let m = engine.metrics();
        assert!(!m.registry.attached);
        assert_eq!(m.registry.references, 0);
        assert_eq!(m.registry.resident_bytes, 0);
    }

    #[test]
    fn batch_with_shard_options_matches_plain_batch() {
        let reference = GenomeModel::mammalian().generate(2_000, 845);
        let queries = query_set(&reference, 3);
        let engine = engine_of(&reference, config(16), 2);
        let plain = engine.run_batch(&queries);
        let options = RunOptions {
            shards: 2,
            ..RunOptions::default()
        };
        let sharded = engine.execute(&RunRequest::batch(&queries).options(options));
        assert_eq!(sharded.len(), plain.len());
        for (s, p) in sharded.iter().zip(&plain) {
            assert_eq!(s.as_ref().unwrap().result.mems, p.as_ref().unwrap().mems);
        }
    }
}
