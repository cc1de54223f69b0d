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
//! * [`Engine`] binds a session to a set of query workers (the kind a
//!   [`Gpumem`](crate::Gpumem) owns), each with its own simulated
//!   [`Device`] and tile scratch. Tile rows are independent, so a
//!   request runs its rows on every worker free when it arrives, each
//!   claiming the next row as it gets to it, and concurrent requests
//!   spread over the set without contending on scratch.
//!
//! [`Engine::execute`] is the one request path — one query or a set,
//! traced or not — and [`Engine::run`] its default-options shorthand
//! for one query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gpu_sim::{Device, DeviceSpec, LaunchStats};
use gpumem_index::{Region, SeedIndex};
use gpumem_seq::{PackedSeq, SeqSet};

use crate::config::GpumemConfig;
use crate::pipeline::{
    build_each, build_row_index, build_rows, ensure_fits, ensure_sort_key, gather_rows, row_count,
    GpumemResult, Held, IndexBuildReport, RowIndexes, RunError, WorkerSet,
};
use crate::registry::{PinnedSession, Registry, RegistryStats};
use crate::telemetry::{emit, Event, EventSink, TelemetryClock, WallClock};
use crate::tile::Tiling;
use crate::trace::Trace;

/// A cached reference session: one per `(reference, config)` pair.
///
/// Owns the per-row partial indexes. Row ranges depend only on the
/// reference length and `ℓ_tile` — never on the query — so one session
/// serves any number of queries; each row's index is built once (on
/// whichever worker device touches it first) and shared from then on.
pub struct RefSession {
    reference: Arc<PackedSeq>,
    config: GpumemConfig,
    rows: Vec<Mutex<Option<Arc<SeedIndex>>>>,
    /// Accumulated index-build cost ([`IndexBuildReport::rows`] counts
    /// the rows built).
    build: Mutex<IndexBuildReport>,
    /// Row-index lookups served from cache (misses = rows built).
    hits: AtomicU64,
    /// Bytes of currently resident row indexes (the
    /// [`SeedIndex::memory_bytes`] sum) — what the registry's byte
    /// budget charges.
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
        let n_rows = Tiling::new(config.tile_len(), reference.len()).n_rows();
        Ok(RefSession {
            reference,
            config,
            rows: (0..n_rows).map(|_| Mutex::new(None)).collect(),
            build: Mutex::new(IndexBuildReport::default()),
            hits: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        })
    }

    /// The reference sequence.
    pub fn reference(&self) -> &PackedSeq {
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
        self.build.lock().rows
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
    /// the same cold row build it exactly once. The caller times the
    /// call and accounts a build ([`RefSession::record_builds`]).
    pub(crate) fn row_index(&self, device: &Device, row: usize) -> (Arc<SeedIndex>, LaunchStats) {
        let mut slot = self.rows[row].lock();
        if let Some(index) = slot.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(index), LaunchStats::default());
        }
        let region = Tiling::new(self.config.tile_len(), self.reference.len()).row_region(row);
        let (index, stats) = build_row_index(device, &self.config, &self.reference, region);
        self.resident
            .fetch_add(index.memory_bytes() as u64, Ordering::Relaxed);
        *slot = Some(Arc::clone(&index));
        (index, stats)
    }

    /// Account builds of [`RefSession::row_index`]: their statistics,
    /// the walls their callers' timers read and their row count.
    pub(crate) fn record_builds(&self, built: &IndexBuildReport) {
        self.build.lock().absorb(built);
    }

    /// Build every row index now (on `device`), so subsequent queries
    /// run with zero index launches.
    pub fn warm(&self, device: &Device) -> IndexBuildReport {
        let built = build_each(0..self.rows.len(), |row| self.row_index(device, row).1);
        self.record_builds(&built);
        self.index_report()
    }

    /// [`RefSession::warm`] on the checked-out `workers`, each claiming
    /// the next row as a request's workers do. The report stands for
    /// one device, whose pool footprint the workers' pools fold into.
    pub(crate) fn warm_on(&self, workers: &mut [Held<'_>]) -> IndexBuildReport {
        let pools: Vec<&Device> = workers.iter().map(|worker| worker.device).collect();
        let build = |device: &Device, row: usize| self.row_index(device, row).1;
        self.record_builds(&build_rows(workers, self.rows.len(), &build, &pools));
        self.index_report()
    }

    /// Aggregate index-build cost so far ([`IndexBuildReport::rows`] is
    /// the number of rows actually built).
    pub fn index_report(&self) -> IndexBuildReport {
        self.build.lock().clone()
    }
}

/// One worker's share of the serving metrics, kept beside the worker
/// set so that a metrics poll never waits on a running request.
#[derive(Default)]
struct WorkerLoad {
    /// Wall time, in nanoseconds, of the requests that held the worker.
    busy_ns: AtomicU64,
    /// Requests that checked this worker out first.
    queries: AtomicU64,
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
    /// building, or waiting on another query's in-flight build: the sum
    /// of every request's `GpumemStats::index_wall`, the index stage's
    /// wall.
    pub build_wait_s: f64,
}

/// One worker's share of the serving load. A request counts as one
/// query of the first worker it checked out, and as busy time of every
/// worker it held.
#[derive(Clone, Debug, serde::Serialize)]
pub struct WorkerUtilization {
    /// Queries this worker was the first worker of.
    pub queries: u64,
    /// Wall time of the requests that held this worker, seconds.
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

/// A point-in-time export of the engine's serving metrics, obtained
/// from [`Engine::metrics`]. It serializes directly to JSON, the one
/// JSON form of the metrics (what `gpumem-cli run --metrics` writes);
/// the Prometheus exposition
/// ([`crate::telemetry::render_prometheus`]) is derived from it, so
/// everything here is scrapeable.
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

/// Per-request knobs of [`Engine::execute`]. None changes the MEM set
/// or a modeled statistic of the run; a different configuration, seed
/// mode included, is a different engine (or registry entry).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Record a [`Trace`] for each query (returned in
    /// [`RunOutput::trace`]). Each `TileRow` span of the trace carries
    /// its row's matching statistics, from which any split of the rows
    /// over devices sums offline.
    pub trace: bool,
    /// Ignored. It once reported the matching statistics as split over
    /// this many devices; a traced request's `TileRow` spans now carry
    /// each row's statistics instead.
    #[deprecated(note = "ignored: sum a traced request's `TileRow` span statistics instead")]
    pub shards: usize,
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
    clock: Option<Arc<dyn TelemetryClock>>,
    events: Option<Arc<dyn EventSink>>,
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
    /// for the engine's lifetime, and [`Engine::metrics`] carries the
    /// registry counters.
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

    /// The time source behind `uptime_s` and event timestamps (default:
    /// a fresh [`WallClock`]). Inject a
    /// [`ManualClock`](crate::telemetry::ManualClock) for deterministic
    /// exposition tests.
    pub fn clock(mut self, clock: Arc<dyn TelemetryClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attach a journal sink: the engine emits `run_start`/`run_end`
    /// and `index_build` events into it.
    /// With no sink attached the event path is a single branch — runs
    /// are byte-identical to a sink-less engine. Note this wires the
    /// *engine* only; call [`Registry::set_event_sink`] to also journal
    /// eviction and pin/unpin events from a hosting registry.
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.events = Some(sink);
        self
    }

    /// Validate and assemble the engine.
    pub fn build(self) -> Result<Engine, RunError> {
        let clock = self.clock.unwrap_or_else(|| Arc::new(WallClock));
        let config = self.config.unwrap_or_else(|| {
            GpumemConfig::builder(20)
                .build()
                .expect("default configuration is valid")
        });
        let (session, spec, pin) = match self.registry {
            Some(registry) => {
                let name = self.name.as_deref().unwrap_or("default");
                let handle = registry.add(name, self.reference, config)?;
                let pin = registry.pin(handle).expect("freshly added handle resolves");
                (
                    Arc::clone(pin.session()),
                    registry.spec().clone(),
                    Some(pin),
                )
            }
            None => {
                let session = RefSession::new(self.reference, config, &self.spec)?;
                (Arc::new(session), self.spec, None)
            }
        };
        let n = self.threads.max(1);
        Ok(Engine {
            workers: WorkerSet::new(session.config(), Device::new(spec), n),
            session,
            loads: (0..n).map(|_| WorkerLoad::default()).collect(),
            created_at: clock.now(),
            latency: Mutex::new(LatencyHistogram::new()),
            build_wait_ns: AtomicU64::new(0),
            matching_totals: Mutex::new(LaunchStats::default()),
            pin,
            clock,
            events: self.events,
        })
    }
}

/// The serving engine: a [`RefSession`] bound to a set of query
/// workers, optionally hosted in a [`Registry`].
pub struct Engine {
    session: Arc<RefSession>,
    workers: WorkerSet,
    /// `loads[w]` is worker `w`'s share of the serving metrics.
    loads: Vec<WorkerLoad>,
    /// Clock reading at assembly — `uptime_s` is measured from here.
    created_at: Duration,
    latency: Mutex<LatencyHistogram>,
    /// The requests' summed `index_wall`, in nanoseconds.
    build_wait_ns: AtomicU64,
    matching_totals: Mutex<LaunchStats>,
    /// The session's pin in the hosting registry, held for the
    /// engine's lifetime.
    pin: Option<PinnedSession>,
    /// The clock behind `uptime_s` and the engine's event timestamps.
    clock: Arc<dyn TelemetryClock>,
    /// The journal sink, if any.
    events: Option<Arc<dyn EventSink>>,
}

/// A request's rows come from the engine's session. Each build is
/// accounted to the session's report with the wall the request's
/// `index_build` stage read, and journalled.
impl RowIndexes for Engine {
    fn index(&self, device: &Device, row: usize, _: Region) -> (Arc<SeedIndex>, LaunchStats) {
        self.session.row_index(device, row)
    }

    fn built(&self, row: usize, stats: &LaunchStats, wall: Duration) {
        emit(self.events.as_deref(), &*self.clock, |ts| {
            Event::new("index_build", ts)
                .with_u64("row", row as u64)
                .with_u64("launches", stats.launches)
                .with_f64("modeled_s", stats.modeled_secs())
        });
        let stats = stats.clone();
        self.session.record_builds(&IndexBuildReport {
            stats,
            wall,
            rows: 1,
        });
    }
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
            clock: None,
            events: None,
        }
    }

    /// The engine's session.
    pub fn session(&self) -> &Arc<RefSession> {
        &self.session
    }

    /// The registry the engine is hosted in, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.pin.as_ref().map(PinnedSession::registry)
    }

    /// The device spec each worker simulates.
    pub fn spec(&self) -> &DeviceSpec {
        self.workers.devices()[0].spec()
    }

    /// Build every row index now, so the first query pays no index
    /// launches. The rows build on the workers free when it is called,
    /// each claiming the next row as a request's workers do; the report
    /// is the session's ([`RefSession::index_report`]), its statistics
    /// what one device would report (but for `pool_allocs`, which each
    /// device counts for itself). Warming journals nothing.
    pub fn warm(&self) -> IndexBuildReport {
        let mut held = self.workers.checkout(self.session.rows());
        self.session.warm_on(&mut held)
    }

    /// Account one completed query to the latency histogram, the
    /// build wait (its `index_wall`), the workers it `held` (first the
    /// one it checked out first), and — when registry-hosted — the
    /// registry's LRU clock (which also enforces the byte budget,
    /// charging any rows the query lazily built).
    fn record_query(&self, held: &[Held<'_>], latency: Duration, index_wall: Duration) {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.build_wait_ns
            .fetch_add(nanos(index_wall), Ordering::Relaxed);
        let busy = nanos(latency);
        for (n, worker) in held.iter().enumerate() {
            let load = &self.loads[worker.id];
            load.busy_ns.fetch_add(busy, Ordering::Relaxed);
            if n == 0 {
                load.queries.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.latency.lock().record(latency);
        if let Some(pin) = &self.pin {
            pin.registry().touch(pin.handle());
        }
    }

    /// The run surface: execute every query of `request` under its
    /// options, one query at a time, returning one [`RunOutput`] per
    /// query in order. Every modeled statistic and the MEM set are what
    /// one device would report, however many workers ran the rows.
    ///
    /// Each query runs through `pipeline::gather_rows` on the workers
    /// free when it arrives, up to those whose buffer pools fit the
    /// pool budget (one at the dense default ℓs = 13) and one per row:
    /// the first on the calling thread, the others on scoped host
    /// threads, each claiming the next unclaimed row with its own device
    /// and scratch; their out-tile fragments are host-merged once. Only
    /// the first worker is waited for, so concurrent callers spread over
    /// the set. Traced on one worker, the query is one `Run` span named
    /// `"query"`; on several, each worker's rows sit under
    /// `"worker {w}"` on a track of its own and the host merge under the
    /// calling thread's `"query"` span.
    pub fn execute(&self, request: &RunRequest<'_>) -> Vec<Result<RunOutput, RunError>> {
        let opts = &request.options;
        let run = |query: &PackedSeq| {
            ensure_sort_key(query)?;
            Ok(self.run_query(query, opts))
        };
        match request.queries {
            Queries::One(query) => vec![run(query)],
            Queries::Set(set) => (0..set.records.len())
                .map(|i| run(&set.record_seq(i)))
                .collect(),
        }
    }

    /// One query of [`Engine::execute`].
    fn run_query(&self, query: &PackedSeq, opts: &RunOptions) -> RunOutput {
        let config = self.session.config();
        let t0 = Instant::now();
        emit(self.events.as_deref(), &*self.clock, |ts| {
            Event::new("run_start", ts).with_u64("query_len", query.len() as u64)
        });
        let rows = row_count(config, self.session.reference(), query);
        let mut held = self.workers.checkout(rows);
        let pools: Vec<&Device> = held.iter().map(|worker| worker.device).collect();
        let gathered = gather_rows(
            &mut held,
            "query",
            config,
            self.session.reference(),
            query,
            self,
            opts.trace,
            &pools,
        );
        let GpumemResult { mems, stats } = gathered.result;
        *self.matching_totals.lock() += stats.matching.clone();
        self.record_query(&held, t0.elapsed(), stats.index_wall);
        drop(held);
        // The run's stage totals: by construction the exact sum
        // `Trace::stage_totals` reports for a traced run, so the journal
        // reconciles against the trace field for field.
        emit(self.events.as_deref(), &*self.clock, |ts| {
            let totals = stats.index.clone() + stats.matching.clone();
            Event::new("run_end", ts)
                .with_u64("query_len", query.len() as u64)
                .with_u64("mems", mems.len() as u64)
                .with_u64("launches", totals.launches)
                .with_u64("warp_cycles", totals.warp_cycles)
                .with_u64("device_cycles", totals.device_cycles)
                .with_f64("modeled_s", totals.modeled_secs())
        });
        RunOutput {
            result: GpumemResult { mems, stats },
            trace: gathered.trace,
        }
    }

    /// Run one query, collecting the canonical MEM set — the
    /// default-options shorthand for [`Engine::execute`].
    pub fn run(&self, query: &PackedSeq) -> Result<GpumemResult, RunError> {
        self.execute(&RunRequest::query(query))
            .pop()
            .expect("one query yields one output")
            .map(|out| out.result)
    }

    /// Export the engine's serving metrics: query-latency histogram,
    /// index-cache behavior (including build-wait time), and
    /// per-worker utilization. Cheap enough to poll, and never waits on
    /// a running request.
    pub fn metrics(&self) -> MetricsSnapshot {
        let uptime = self
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
            build_wait_s: Duration::from_nanos(self.build_wait_ns.load(Ordering::Relaxed))
                .as_secs_f64(),
        };
        let totals = self.matching_totals.lock().clone();
        let device = DeviceCounters {
            warp_efficiency: totals.warp_efficiency(self.spec().warp_size),
            divergence_rate: totals.divergence_rate(),
            block_occupancy: totals.block_occupancy(),
            busiest_block_cycles: totals.busiest_block_cycles,
        };
        let workers = self
            .loads
            .iter()
            .map(|load| {
                let busy_s =
                    Duration::from_nanos(load.busy_ns.load(Ordering::Relaxed)).as_secs_f64();
                WorkerUtilization {
                    queries: load.queries.load(Ordering::Relaxed),
                    busy_s,
                    utilization: if uptime > 0.0 { busy_s / uptime } else { 0.0 },
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
                .registry()
                .map(|registry| registry.stats())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Gpumem, GpumemStats};
    use crate::telemetry::MemoryEventSink;
    use crate::trace::SpanCat;
    use gpumem_seq::{naive_mems, FastaRecord, GenomeModel, Mem, MutationModel};
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

    /// Every record of `queries` through [`Engine::execute`] under
    /// `options`.
    fn run_set(engine: &Engine, queries: &SeqSet, options: RunOptions) -> Vec<GpumemResult> {
        engine
            .execute(&RunRequest::batch(queries).options(options))
            .into_iter()
            .map(|out| out.unwrap().result)
            .collect()
    }

    /// One query through [`Engine::execute`] under `options`.
    fn run_one(engine: &Engine, query: &PackedSeq, options: RunOptions) -> RunOutput {
        engine
            .execute(&RunRequest::query(query).options(options))
            .pop()
            .unwrap()
            .unwrap()
    }

    fn traced() -> RunOptions {
        RunOptions {
            trace: true,
            ..RunOptions::default()
        }
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
            let batch = run_set(&engine, &queries, RunOptions::default());
            assert_eq!(batch.len(), 4);
            for (result, expect) in batch.iter().zip(&sequential) {
                assert_eq!(&result.mems, expect, "{workers} workers");
            }
        }
    }

    #[test]
    fn batch_builds_each_row_index_once() {
        let reference = GenomeModel::mammalian().generate(2_500, 807);
        let queries = query_set(&reference, 6);
        let engine = engine_of(&reference, config(16), 3);
        let results = run_set(&engine, &queries, RunOptions::default());
        let total_index_launches: u64 = results.iter().map(|r| r.stats.index.launches).sum();
        let one_build = Gpumem::with_device(config(16), Device::new(DeviceSpec::test_tiny()))
            .build_index_only(&reference);
        assert_eq!(
            total_index_launches, one_build.stats.launches,
            "6 queries paid for exactly one full index build"
        );
        assert_eq!(engine.session().built_rows(), engine.session().rows());
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
    fn build_refuses_a_block_wider_than_the_device() {
        let spec = DeviceSpec::test_tiny();
        let reference = GenomeModel::uniform().generate(1_000, 811);
        let wide = GpumemConfig::builder(25)
            .seed_len(8)
            .threads_per_block(2 * spec.max_threads_per_block)
            .build()
            .unwrap();
        let err = Engine::builder(reference.clone())
            .config(wide)
            .spec(spec)
            .build()
            .err()
            .unwrap();
        assert_eq!(
            err,
            RunError::BlockTooWide {
                width: 512,
                limit: 256
            }
        );

        // τ fits a 128-thread device, but the index kernels' blocks do not.
        let narrow = DeviceSpec {
            max_threads_per_block: 128,
            ..DeviceSpec::test_tiny()
        };
        let err = Engine::builder(reference)
            .config(config(16))
            .spec(narrow)
            .build()
            .err()
            .unwrap();
        assert_eq!(
            err,
            RunError::BlockTooWide {
                width: gpu_sim::primitives::BLOCK_DIM,
                limit: 128
            }
        );
    }

    #[test]
    fn empty_batch_and_empty_records() {
        let reference = GenomeModel::uniform().generate(500, 810);
        let engine = engine_of(&reference, config(16), 2);
        let none = SeqSet::from_records(&[]);
        assert!(run_set(&engine, &none, RunOptions::default()).is_empty());
        let empty_record = SeqSet::from_records(&[FastaRecord {
            header: "empty".into(),
            seq: PackedSeq::from_codes(&[]),
        }]);
        let results = run_set(&engine, &empty_record, RunOptions::default());
        assert_eq!(results.len(), 1);
        assert!(results[0].mems.is_empty());
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
        // Sequential run() calls always find worker 0 free first, so it
        // counts every query; worker 1 ran rows of each as a helper.
        assert_eq!(m.workers.len(), 2);
        assert_eq!(m.workers[0].queries, 3);
        assert_eq!(m.workers[1].queries, 0);
        assert!(m.workers[0].utilization > 0.0 && m.workers[0].utilization <= 1.0);
        assert!(m.workers[1].busy_s > 0.0);
    }

    #[test]
    fn metrics_never_wait_on_a_held_worker() {
        let reference = GenomeModel::mammalian().generate(2_000, 813);
        let engine = engine_of(&reference, config(16), 2);
        let held = engine.workers.checkout(1);
        assert_eq!(held[0].id, 0);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(engine.metrics().queries));
            let reply = rx.recv_timeout(Duration::from_secs(60));
            // Release worker 0 before judging, so a poll queued on it
            // finishes and the scope can join.
            drop(held);
            assert_eq!(reply.expect("metrics() blocked on the held worker 0"), 0);
        });
    }

    #[test]
    fn engine_split_changes_no_modeled_figure_or_output() {
        use crate::pipeline::tests::{contract_configs, render_run, smoke_pair};
        let (reference, query) = smoke_pair();
        let records = query_set(&reference, 3);
        let mut split = Vec::new();
        for (name, config) in contract_configs() {
            let rows = row_count(&config, &reference, &query);
            if rows >= 2 {
                split.push(name);
            }
            // A cold query, the same query warm, a traced query and a
            // three-record set, on one engine.
            let sequence = |workers: usize| {
                let engine = engine_of(&reference, config.clone(), workers);
                let mut out = vec![
                    render_run(&engine.run(&query).unwrap(), None),
                    render_run(&engine.run(&query).unwrap(), None),
                ];
                let traced_run = run_one(&engine, &query, traced());
                out.push(render_run(&traced_run.result, traced_run.trace.as_ref()));
                for result in run_set(&engine, &records, RunOptions::default()) {
                    out.push(render_run(&result, None));
                }
                let busy: Vec<bool> = engine
                    .metrics()
                    .workers
                    .iter()
                    .map(|w| w.busy_s > 0.0)
                    .collect();
                (out, busy)
            };
            let (expect, _) = sequence(1);
            for workers in [2, 3, rows + 1] {
                let (out, busy) = sequence(workers);
                assert_eq!(out, expect, "{name}: {workers} workers over {rows} rows");
                assert!(
                    busy[..workers.min(rows)].iter().all(|&b| b),
                    "{name}: every worker a row can go to ran rows: {busy:?}"
                );
            }
        }
        for name in ["default", "compact", "dual_sampled"] {
            assert!(
                split.contains(&name),
                "{name} runs on one worker: {split:?}"
            );
        }
    }

    /// Counts the launches of the device it observes.
    #[derive(Default)]
    struct Count(AtomicU64);

    impl gpu_sim::LaunchObserver for Count {
        fn on_launch(&self, _: gpu_sim::LaunchRecord<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn engine_split_reaches_an_idle_worker() {
        let reference = GenomeModel::mammalian().generate(2_000, 811);
        let engine = engine_of(&reference, config(16), 2);
        let count = Arc::new(Count::default());
        engine.workers.devices()[1].set_observer(Some(count.clone()));
        let q = GenomeModel::mammalian().generate(1_000, 812);
        let stats = engine.run(&q).unwrap().stats;
        assert!(stats.rows >= 2, "both workers get rows");
        assert!(
            count.0.load(Ordering::Relaxed) > 0,
            "worker 1 launched none of the rows"
        );
    }

    #[test]
    fn engine_split_keeps_to_the_replica_budget() {
        let workers = |seed_len| {
            let config = GpumemConfig::builder(25)
                .seed_len(seed_len)
                .build()
                .unwrap();
            let engine = Engine::builder(GenomeModel::uniform().generate(1_000, 846))
                .config(config)
                .spec(DeviceSpec::tesla_k20c())
                .threads(4)
                .build()
                .unwrap();
            assert_eq!(engine.session().built_rows(), 0, "nothing built");
            let held = engine.workers.checkout(usize::MAX).len();
            held
        };
        assert_eq!(
            workers(13),
            1,
            "the dense default ℓs = 13 keeps to one worker"
        );
        assert_eq!(workers(8), 4, "a small index runs on every worker");
    }

    #[test]
    fn single_query_request_takes_a_free_worker() {
        let reference = GenomeModel::mammalian().generate(2_000, 813);
        let engine = engine_of(&reference, config(16), 2);
        let q = GenomeModel::mammalian().generate(1_000, 814);
        let expect = engine.run(&q).unwrap().mems;
        let held = engine.workers.checkout(1);
        assert_eq!(held[0].id, 0);
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
    fn traced_request_matches_untraced_and_reconciles() {
        let reference = GenomeModel::mammalian().generate(2_000, 813);
        let engine = engine_of(&reference, config(16), 1);
        let q = GenomeModel::mammalian().generate(1_200, 814);
        let plain = engine.run(&q).unwrap();
        let RunOutput {
            result: traced,
            trace,
        } = run_one(&engine, &q, traced());
        let trace = trace.expect("a traced request records a trace");
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
    fn request_walls_are_the_sums_of_their_spans() {
        use crate::pipeline::tests::assert_walls_are_spans;
        let reference = GenomeModel::mammalian().generate(2_000, 813);
        let q = GenomeModel::mammalian().generate(1_200, 814);
        for workers in [1, 2] {
            let engine = engine_of(&reference, config(16), workers);
            let mut index_wall = Duration::ZERO;
            for cold in [true, false] {
                let out = run_one(&engine, &q, traced());
                assert_eq!(out.result.stats.index.launches > 0, cold);
                assert_walls_are_spans(&out.result.stats, out.trace.as_ref().unwrap());
                index_wall += out.result.stats.index_wall;
            }
            // The build wait is the requests' index stage wall.
            let build_wait_s = engine.metrics().index_cache.build_wait_s;
            assert_eq!(build_wait_s, index_wall.as_secs_f64());
        }
    }

    /// A cold request times each row build once: the session's build
    /// wall grows by exactly the request's `index_build` spans that
    /// built a row, and a warm request adds nothing.
    #[test]
    fn a_cold_request_times_each_build_once() {
        let reference = GenomeModel::mammalian().generate(2_000, 813);
        let q = GenomeModel::mammalian().generate(1_200, 814);
        for workers in [1, 2] {
            let engine = engine_of(&reference, config(16), workers);
            for cold in [true, false] {
                let before = engine.session().index_report().wall;
                let out = run_one(&engine, &q, traced());
                let builds: Duration = out
                    .trace
                    .unwrap()
                    .spans()
                    .iter()
                    .filter(|span| span.name == "index_build")
                    .filter(|span| span.stats.as_ref().is_some_and(|s| s.launches > 0))
                    .map(|span| span.dur)
                    .sum();
                assert_eq!(builds > Duration::ZERO, cold, "{workers} workers");
                let grown = engine.session().index_report().wall - before;
                assert_eq!(grown, builds, "{workers} workers, cold {cold}");
            }
        }
    }

    /// Every location list of a row index, in seed-code order.
    fn index_contents(index: &SeedIndex) -> Vec<Vec<u32>> {
        let codes = index.codec().num_seeds() as u32;
        (0..codes).map(|code| index.lookup(code).to_vec()).collect()
    }

    #[test]
    fn warm_on_the_worker_set_builds_every_row_once() {
        use crate::pipeline::tests::render_launch;
        let reference = GenomeModel::mammalian().generate(2_500, 815);
        let compact = GpumemConfig::builder(16)
            .seed_len(8)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .index_kind(crate::config::IndexKind::CompactDirectory)
            .build()
            .unwrap();
        for cfg in [config(16), compact] {
            let warm = |workers: usize| {
                let sink = Arc::new(MemoryEventSink::new());
                let engine = Engine::builder(reference.clone())
                    .config(cfg.clone())
                    .spec(DeviceSpec::test_tiny())
                    .threads(workers)
                    .event_sink(sink.clone())
                    .build()
                    .unwrap();
                let report = engine.warm();
                let session = engine.session();
                assert_eq!(report.rows, session.rows(), "{workers} workers");
                assert_eq!(session.built_rows(), session.rows(), "{workers} workers");
                assert!(sink.events().is_empty(), "warming journals nothing");
                let busy = engine
                    .workers
                    .devices()
                    .iter()
                    .filter(|d| !d.pool_classes().is_empty());
                assert_eq!(
                    busy.count(),
                    workers.min(session.rows()),
                    "every worker built"
                );
                let indexes: Vec<Vec<Vec<u32>>> = session
                    .rows
                    .iter()
                    .map(|slot| index_contents(slot.lock().as_ref().expect("warmed")))
                    .collect();
                (render_launch(&report.stats), indexes)
            };
            let one = warm(1);
            assert!(one.1.len() >= 3, "fixture must span at least three rows");
            for workers in [2, 3] {
                assert_eq!(warm(workers), one, "{workers} workers");
            }
        }
    }

    #[test]
    fn a_traced_request_and_its_journal_share_one_clock() {
        let sink = Arc::new(MemoryEventSink::new());
        let engine = Engine::builder(GenomeModel::mammalian().generate(2_000, 813))
            .config(config(16))
            .spec(DeviceSpec::test_tiny())
            .threads(2)
            .event_sink(sink.clone())
            .build()
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let q = GenomeModel::mammalian().generate(1_200, 814);
        let trace = run_one(&engine, &q, traced()).trace.unwrap();
        // Microseconds, as the Chrome export writes them.
        let us = |at: Duration| at.as_secs_f64() * 1e6;
        let journal = |kind: &str| sink.of_kind(kind)[0].ts_s * 1e6;
        let (start, end) = (journal("run_start"), journal("run_end"));
        for span in trace.spans() {
            let (from, to) = (us(span.start), us(span.start + span.dur));
            let name = &span.name;
            assert!(
                start <= from && to <= end,
                "{name}: {from}..{to} µs, not in {start}..{end}"
            );
        }
    }

    #[test]
    fn registry_and_engine_journal_on_one_clock() {
        let sink = Arc::new(MemoryEventSink::new());
        let registry = Arc::new(Registry::new(DeviceSpec::test_tiny()));
        registry.set_event_sink(Some(sink.clone()));
        std::thread::sleep(Duration::from_millis(10));
        let engine = Engine::builder(GenomeModel::mammalian().generate(2_000, 842))
            .config(config(16))
            .registry(registry)
            .event_sink(sink.clone())
            .build()
            .unwrap();
        engine
            .run(&GenomeModel::mammalian().generate(1_200, 843))
            .unwrap();
        drop(engine);
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!((kinds[0], kinds[kinds.len() - 1]), ("pin", "unpin"));
        assert!(kinds.contains(&"run_start") && kinds.contains(&"run_end"));
        for pair in events.windows(2) {
            assert!(
                pair[0].ts_s <= pair[1].ts_s,
                "{:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
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

    /// `trace`'s `TileRow` spans, one per tile row of the run that
    /// reported `stats`, carry their rows' matching statistics. They sum
    /// to `stats.matching` in every field but the pool footprint, and so
    /// does any split of the rows over devices, here dealt round-robin
    /// (row `r` to device `r mod n`). `Trace::stage_totals` still sums
    /// the `Stage` spans alone.
    fn assert_tile_rows_add_up(stats: &GpumemStats, trace: &Trace, what: &str) {
        let mut rows: Vec<(usize, LaunchStats)> = trace
            .spans()
            .iter()
            .filter(|span| span.cat == SpanCat::TileRow)
            .map(|span| {
                let row = span.name.strip_prefix("tile_row ").map(str::parse);
                let stats = span
                    .stats
                    .clone()
                    .expect("a TileRow span carries statistics");
                (row.expect("a tile_row span").expect("a row number"), stats)
            })
            .collect();
        rows.sort_unstable_by_key(|&(row, _)| row);
        let ids: Vec<usize> = rows.iter().map(|&(row, _)| row).collect();
        assert_eq!(
            ids,
            (0..stats.rows).collect::<Vec<_>>(),
            "{what}: one span a row"
        );
        let summed = |of: &dyn Fn(usize) -> bool| -> LaunchStats {
            let mut sum: LaunchStats = rows
                .iter()
                .filter(|(row, _)| of(*row))
                .map(|(_, s)| s.clone())
                .sum();
            assert!(
                sum.pool_peak_bytes <= stats.matching.pool_peak_bytes,
                "{what}"
            );
            sum.pool_peak_bytes = stats.matching.pool_peak_bytes;
            sum
        };
        assert_eq!(
            summed(&|_| true),
            stats.matching,
            "{what}: rows sum to matching"
        );
        for n in [2, 3] {
            let folded: LaunchStats = (0..n).map(|d| summed(&|row| row % n == d)).sum();
            assert_eq!(
                folded, stats.matching,
                "{what}: {n} devices sum to matching"
            );
        }
        let mut stages = stats.index.clone();
        stages += stats.matching.clone();
        assert_eq!(trace.stage_totals(), stages, "{what}: Stage spans alone");
    }

    #[test]
    fn tile_row_statistics_add_up_on_any_worker_count() {
        let reference = GenomeModel::mammalian().generate(2_000, 838);
        let query = GenomeModel::mammalian().generate(1_200, 839);
        for workers in [1, 2, 3] {
            let device = Device::new(DeviceSpec::test_tiny());
            let gpumem = Gpumem::with_workers(config(16), device, workers);
            let (result, trace) = gpumem.run_traced(&reference, &query).unwrap();
            assert!(result.stats.rows >= 3, "every worker gets a row");
            assert_tile_rows_add_up(&result.stats, &trace, &format!("run, {workers} workers"));
            let engine = engine_of(&reference, config(16), workers);
            for pass in ["cold", "warm"] {
                let out = run_one(&engine, &query, traced());
                let what = format!("{pass} request, {workers} workers");
                assert_tile_rows_add_up(&out.result.stats, out.trace.as_ref().unwrap(), &what);
            }
        }
    }
}
