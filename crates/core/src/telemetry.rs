//! Unified telemetry: the Prometheus exposition of the serving
//! metrics, a structured JSONL event journal, and an injectable clock.
//!
//! Counters live where they are counted — [`LaunchStats`] on the
//! simulator, the engine's latency histogram and worker loads,
//! [`RegistryStats`] on the registry — and
//! [`Engine::metrics`](crate::engine::Engine::metrics) reads them into
//! one [`MetricsSnapshot`], whose serde form is the metrics' one JSON
//! form. This module gives that snapshot one scrape surface:
//!
//! * [`render_prometheus`] — the exposition a scraper (or a future
//!   serving daemon) pulls: every metric family, built straight from the
//!   snapshot at scrape time, with stable names, optional labels, and a
//!   deterministic order;
//! * [`EventSink`] + [`Event`] — the structured event journal
//!   (run-lifecycle, index-build, eviction, pin/unpin),
//!   with [`JsonlEventSink`] writing one JSON object per line and
//!   [`MemoryEventSink`] for tests;
//! * [`TelemetryClock`] — the injectable time source
//!   ([`WallClock`] in production, [`ManualClock`] in golden tests)
//!   behind `uptime_s` and the engine's event timestamps.
//!
//! [`WallClock`] is the process clock, whose origin every trace span
//! ([`crate::trace`]) shares too, and the engine and the registry
//! journal through one `emit` function. So with the default clock a
//! request's trace, its journal and its registry's events share one
//! time axis; an injected [`ManualClock`] stamps only the engine's
//! own events.
//!
//! ## Zero-cost when off
//!
//! Metrics are rendered by *pulling* from a snapshot at scrape time, so
//! nothing is recorded for them on the query path beyond the engine's
//! own counters. `emit` checks for a sink before it reads the clock or
//! builds an [`Event`]; with no sink attached the only cost is that
//! branch, and the run output and statistics are byte-identical
//! (pinned by the `stats_snapshot` and `telemetry` integration tests).
//!
//! ## Reconciliation invariant
//!
//! A `run_end` event carries the run's stage totals
//! (`stats.index + stats.matching`). The tracing layer guarantees
//! [`Trace::stage_totals`](crate::trace::Trace::stage_totals) equals
//! exactly that same sum (DESIGN.md §10), so on a traced run the event
//! journal and the trace reconcile field for field — no sampling, no
//! drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gpu_sim::LaunchStats;

use crate::engine::MetricsSnapshot;
use crate::registry::RegistryStats;

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// The time source behind `uptime_s` and event timestamps: a monotonic
/// duration since the clock's origin. Injectable so exposition and
/// journal outputs can be made deterministic in tests.
pub trait TelemetryClock: Send + Sync {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;
}

/// The production clock: the process clock, whose origin is its first
/// reading in the process and which every trace span shares.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallClock;

impl WallClock {
    /// The process clock's reading.
    pub(crate) fn read() -> Duration {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed()
    }
}

impl TelemetryClock for WallClock {
    fn now(&self) -> Duration {
        WallClock::read()
    }
}

/// A hand-advanced clock for deterministic tests: `now` returns
/// exactly what the test last set.
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// A clock reading `start`.
    pub fn new(start: Duration) -> ManualClock {
        ManualClock {
            now: Mutex::new(start),
        }
    }

    /// Set the clock to an absolute reading.
    pub fn set(&self, to: Duration) {
        *self.now.lock() = to;
    }

    /// Advance the clock by `by`.
    pub fn advance(&self, by: Duration) {
        *self.now.lock() += by;
    }
}

impl TelemetryClock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock()
    }
}

// ---------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------

/// A sample's value: one number (counters and gauges) or a histogram
/// series.
enum Value {
    Scalar(f64),
    /// Non-cumulative `(inclusive upper bound, count)` buckets,
    /// ascending, then the sum and the count of the observations.
    Histogram(Vec<(f64, u64)>, f64, u64),
}

struct Sample {
    labels: Vec<(&'static str, String)>,
    value: Value,
}

/// One metric family: its `# HELP`/`# TYPE` header and every sample.
struct Family {
    /// The Prometheus type: `counter`, `gauge` or `histogram`.
    kind: &'static str,
    help: &'static str,
    /// Samples keyed by their label set (`k=v,...`), so they render in
    /// a deterministic order.
    samples: BTreeMap<String, Sample>,
}

/// Every metric family of one snapshot, keyed by name. Families and
/// samples render in lexicographic order, making the exposition
/// byte-stable — the property the golden test pins.
#[derive(Default)]
struct Exposition(BTreeMap<&'static str, Family>);

impl Exposition {
    /// Add the sample `name{labels}`; a family's first sample sets its
    /// kind and help.
    fn add(
        &mut self,
        kind: &'static str,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        value: Value,
    ) {
        let family = self.0.entry(name).or_insert_with(|| Family {
            kind,
            help,
            samples: BTreeMap::new(),
        });
        let key: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let labels = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        family
            .samples
            .insert(key.join(","), Sample { labels, value });
    }

    fn counter(&mut self, name: &'static str, help: &'static str, v: f64) {
        self.add("counter", name, help, &[], Value::Scalar(v));
    }

    fn gauge(&mut self, name: &'static str, help: &'static str, v: f64) {
        self.add("gauge", name, help, &[], Value::Scalar(v));
    }
}

/// `{k="v",...}` with an optional trailing `le` label, or nothing for
/// an empty set.
fn label_pairs(labels: &[(&str, String)], le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One field value of a journal event.
#[derive(Clone, Debug)]
pub enum EventValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl serde::Serialize for EventValue {
    fn serialize(&self, s: &mut serde::Serializer) {
        match self {
            EventValue::U64(v) => s.write_u64(*v),
            EventValue::F64(v) => s.write_f64(*v),
            EventValue::Str(v) => s.write_str(v),
        }
    }
}

/// One structured journal event: a kind, a clock timestamp, and ordered
/// key/value fields. Serializes as one flat JSON object
/// (`{"ts_s": ..., "event": "...", ...fields}`).
#[derive(Clone, Debug)]
pub struct Event {
    /// Seconds on the emitting component's [`TelemetryClock`].
    pub ts_s: f64,
    /// The event kind (`run_start`, `run_end`, `index_build`, `evict`,
    /// `pin`, `unpin`).
    pub kind: String,
    /// The kind-specific payload, in emission order.
    pub fields: Vec<(String, EventValue)>,
}

impl Event {
    /// A field-less event of `kind` at `ts_s`.
    pub fn new(kind: &str, ts_s: f64) -> Event {
        Event {
            ts_s,
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    /// Append an unsigned-integer field.
    pub fn with_u64(mut self, key: &str, v: u64) -> Event {
        self.fields.push((key.to_string(), EventValue::U64(v)));
        self
    }

    /// Append a float field.
    pub fn with_f64(mut self, key: &str, v: f64) -> Event {
        self.fields.push((key.to_string(), EventValue::F64(v)));
        self
    }

    /// Append a string field.
    pub fn with_str(mut self, key: &str, v: &str) -> Event {
        self.fields
            .push((key.to_string(), EventValue::Str(v.to_string())));
        self
    }

    /// The integer field `key`, if present.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                EventValue::U64(v) => Some(*v),
                _ => None,
            })
    }

    /// The float field `key`, if present (integers widen).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                EventValue::F64(v) => Some(*v),
                EventValue::U64(v) => Some(*v as f64),
                _ => None,
            })
    }

    /// Render as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde::json::to_string(self)
    }
}

impl serde::Serialize for Event {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.field("ts_s", &self.ts_s);
        s.field("event", &self.kind);
        for (k, v) in &self.fields {
            s.field(k, v);
        }
        s.end_object();
    }
}

/// Receives journal events. Implementations must not call back into
/// the component that emitted the event (the registry emits eviction
/// events while holding its own lock).
pub trait EventSink: Send + Sync {
    /// One event was emitted.
    fn event(&self, event: &Event);
}

/// The one way the engine and the registry journal: only when `sink`
/// is attached, read `clock` and hand the sink the event `make` builds
/// at that reading (in seconds).
pub(crate) fn emit(
    sink: Option<&dyn EventSink>,
    clock: &dyn TelemetryClock,
    make: impl FnOnce(f64) -> Event,
) {
    if let Some(sink) = sink {
        sink.event(&make(clock.now().as_secs_f64()));
    }
}

/// An in-memory sink for tests and reconciliation checks.
#[derive(Default)]
pub struct MemoryEventSink {
    events: Mutex<Vec<Event>>,
}

impl MemoryEventSink {
    /// An empty sink.
    pub fn new() -> MemoryEventSink {
        MemoryEventSink::default()
    }

    /// A copy of every event received so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Events of one kind, in emission order.
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }
}

impl EventSink for MemoryEventSink {
    fn event(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

/// A sink that appends one JSON line per event to a writer — the
/// durable journal. Lines are flushed per event (journals are
/// low-rate; durability beats batching here). The first write or flush
/// error is kept for [`JsonlEventSink::take_error`], and the sink
/// writes nothing from then until it is taken.
pub struct JsonlEventSink {
    out: Mutex<(Box<dyn Write + Send>, Option<std::io::Error>)>,
}

impl JsonlEventSink {
    /// Journal into an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlEventSink {
        JsonlEventSink {
            out: Mutex::new((writer, None)),
        }
    }

    /// Journal into the file at `path` (created or truncated).
    pub fn create(path: &str) -> std::io::Result<JsonlEventSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlEventSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Take the first I/O error the journal met, if any: a caller checks
    /// once its events are in, and fails rather than lose them unseen.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.out.lock().1.take()
    }
}

impl EventSink for JsonlEventSink {
    fn event(&self, event: &Event) {
        let (out, error) = &mut *self.out.lock();
        if error.is_none() {
            let written = writeln!(out, "{}", event.to_json_line()).and_then(|()| out.flush());
            *error = written.err();
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot export
// ---------------------------------------------------------------------

/// One [`LaunchStats`] aggregate under a `stage` label. Every field is
/// covered: counters end in `_total`, the two gauges
/// (`busiest_block_cycles`, `pool_peak_bytes`) don't.
fn export_launch_stats(e: &mut Exposition, stage: &str, stats: &LaunchStats) {
    let mut add =
        |kind, name, help, v: f64| e.add(kind, name, help, &[("stage", stage)], Value::Scalar(v));
    add(
        "counter",
        "gpumem_stage_launches_total",
        "Kernel launches folded into this stage's totals.",
        stats.launches as f64,
    );
    add(
        "counter",
        "gpumem_stage_blocks_total",
        "Blocks executed.",
        stats.blocks as f64,
    );
    add(
        "counter",
        "gpumem_stage_warps_total",
        "Warps executed.",
        stats.warps as f64,
    );
    add(
        "counter",
        "gpumem_stage_warp_cycles_total",
        "Sum over warps of the warp's cycle cost.",
        stats.warp_cycles as f64,
    );
    add(
        "counter",
        "gpumem_stage_lane_cycles_total",
        "Sum over lanes of lane cycles (useful work).",
        stats.lane_cycles as f64,
    );
    add(
        "counter",
        "gpumem_stage_device_cycles_total",
        "Modeled device cycles after block scheduling.",
        stats.device_cycles as f64,
    );
    add(
        "counter",
        "gpumem_stage_modeled_seconds_total",
        "Modeled device time in seconds.",
        stats.modeled_time.as_secs_f64(),
    );
    add(
        "counter",
        "gpumem_stage_wall_seconds_total",
        "Measured wall time of the simulated launches.",
        stats.wall_time.as_secs_f64(),
    );
    add(
        "counter",
        "gpumem_stage_divergence_events_total",
        "Warp-level divergence events.",
        stats.divergence_events as f64,
    );
    add(
        "counter",
        "gpumem_stage_atomic_ops_total",
        "Atomic operations performed.",
        stats.atomic_ops as f64,
    );
    add(
        "counter",
        "gpumem_stage_global_mem_ops_total",
        "Global-memory element operations.",
        stats.global_mem_ops as f64,
    );
    add(
        "counter",
        "gpumem_stage_comparisons_total",
        "Base comparisons charged.",
        stats.comparisons as f64,
    );
    add(
        "gauge",
        "gpumem_stage_busiest_block_cycles",
        "Warp cycles of the most loaded block seen in any launch (gauge).",
        stats.busiest_block_cycles as f64,
    );
    add(
        "counter",
        "gpumem_stage_pool_allocs_total",
        "Device-buffer allocations that missed the pool.",
        stats.pool_allocs as f64,
    );
    add(
        "gauge",
        "gpumem_stage_pool_peak_bytes",
        "Peak pooled device-buffer bytes (gauge).",
        stats.pool_peak_bytes as f64,
    );
}

/// The registry counters. Always exported — `attached` is 0 for a
/// registry-less engine, so scrapers see a stable schema.
fn export_registry_stats(e: &mut Exposition, stats: &RegistryStats) {
    e.gauge(
        "gpumem_registry_attached",
        "1 when the engine is hosted in a reference registry.",
        if stats.attached { 1.0 } else { 0.0 },
    );
    e.gauge(
        "gpumem_registry_references",
        "Registered reference sessions.",
        stats.references as f64,
    );
    e.gauge(
        "gpumem_registry_pinned",
        "Currently pinned sessions (never evictable).",
        stats.pinned as f64,
    );
    e.gauge(
        "gpumem_registry_resident_bytes",
        "Summed resident row-index bytes across sessions.",
        stats.resident_bytes as f64,
    );
    e.gauge(
        "gpumem_registry_peak_resident_bytes",
        "High-water mark of resident bytes.",
        stats.peak_resident_bytes as f64,
    );
    e.gauge(
        "gpumem_registry_budget_bytes",
        "The eviction byte budget (0 = unbounded).",
        stats.budget_bytes as f64,
    );
    e.counter(
        "gpumem_registry_hits_total",
        "Touches that found the session resident.",
        stats.hits as f64,
    );
    e.counter(
        "gpumem_registry_misses_total",
        "Touches that found the session cold.",
        stats.misses as f64,
    );
    e.counter(
        "gpumem_registry_evictions_total",
        "Sessions evicted to stay under the budget.",
        stats.evictions as f64,
    );
}

/// Every family of a [`MetricsSnapshot`]: uptime/queries, the latency
/// histogram and quantiles, index-cache and worker counters,
/// device-health gauges, the cumulative index/matching [`LaunchStats`],
/// and the registry counters.
fn exposition(snap: &MetricsSnapshot) -> Exposition {
    let mut e = Exposition::default();
    e.gauge(
        "gpumem_uptime_seconds",
        "Seconds since the engine was created.",
        snap.uptime_s,
    );
    e.counter(
        "gpumem_queries_total",
        "Queries completed across all workers.",
        snap.queries as f64,
    );

    let lat = &snap.latency;
    let buckets: Vec<(f64, u64)> = lat
        .buckets
        .iter()
        .map(|b| (b.le_us as f64 / 1e6, b.count))
        .collect();
    let sum = lat.mean_ms * lat.count as f64 / 1e3;
    e.add(
        "histogram",
        "gpumem_query_latency_seconds",
        "Per-query wall latency (log2 buckets).",
        &[],
        Value::Histogram(buckets, sum, lat.count),
    );
    for (q, v) in [
        ("0.5", lat.p50_ms),
        ("0.9", lat.p90_ms),
        ("0.99", lat.p99_ms),
    ] {
        e.add(
            "gauge",
            "gpumem_query_latency_quantile_seconds",
            "Latency quantiles (log2 bucket upper bounds).",
            &[("quantile", q)],
            Value::Scalar(v / 1e3),
        );
    }
    e.gauge(
        "gpumem_query_latency_max_seconds",
        "Largest observed query latency.",
        lat.max_ms / 1e3,
    );
    e.gauge(
        "gpumem_query_latency_mean_seconds",
        "Mean query latency.",
        lat.mean_ms / 1e3,
    );

    let cache = &snap.index_cache;
    e.gauge(
        "gpumem_index_cache_rows",
        "Tile rows (cache slots) of the session.",
        cache.rows as f64,
    );
    e.counter(
        "gpumem_index_cache_built_total",
        "Row indexes built so far (= cache misses).",
        cache.built as f64,
    );
    e.counter(
        "gpumem_index_cache_hits_total",
        "Row-index lookups served from the cache.",
        cache.hits as f64,
    );
    e.counter(
        "gpumem_index_cache_misses_total",
        "Row-index lookups that had to build.",
        cache.misses as f64,
    );
    e.counter(
        "gpumem_index_cache_build_wait_seconds_total",
        "Wall time queries spent acquiring row indexes.",
        cache.build_wait_s,
    );

    for (i, w) in snap.workers.iter().enumerate() {
        let worker = i.to_string();
        let labels: &[(&str, &str)] = &[("worker", &worker)];
        e.add(
            "counter",
            "gpumem_worker_queries_total",
            "Queries completed by this worker.",
            labels,
            Value::Scalar(w.queries as f64),
        );
        e.add(
            "counter",
            "gpumem_worker_busy_seconds_total",
            "Wall time this worker spent executing queries.",
            labels,
            Value::Scalar(w.busy_s),
        );
        e.add(
            "gauge",
            "gpumem_worker_utilization",
            "busy_s / uptime (1.0 = always busy).",
            labels,
            Value::Scalar(w.utilization),
        );
    }

    let dev = &snap.device;
    e.gauge(
        "gpumem_device_warp_efficiency",
        "Mean active-lane share of warp cycles across matching launches.",
        dev.warp_efficiency,
    );
    e.gauge(
        "gpumem_device_divergence_rate",
        "Divergence events per executed warp.",
        dev.divergence_rate,
    );
    e.gauge(
        "gpumem_device_block_occupancy",
        "Mean block load over the busiest block (1.0 = even).",
        dev.block_occupancy,
    );
    e.gauge(
        "gpumem_device_busiest_block_cycles",
        "Warp cycles of the busiest single block (gauge).",
        dev.busiest_block_cycles as f64,
    );

    export_launch_stats(&mut e, "index", &snap.index);
    export_launch_stats(&mut e, "matching", &snap.matching);
    export_registry_stats(&mut e, &snap.registry);
    e
}

/// The Prometheus text exposition of a snapshot (`# HELP` / `# TYPE`
/// headers, histogram `_bucket`/`_sum`/`_count` convention) — what
/// `gpumem-cli metrics export` prints and a serving daemon would serve
/// on `/metrics`.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, family) in &exposition(snap).0 {
        let _ = writeln!(out, "# HELP {name} {}", family.help);
        let _ = writeln!(out, "# TYPE {name} {}", family.kind);
        for sample in family.samples.values() {
            let plain = label_pairs(&sample.labels, None);
            match &sample.value {
                Value::Scalar(v) => {
                    let _ = writeln!(out, "{name}{plain} {v}");
                }
                Value::Histogram(buckets, sum, count) => {
                    let mut cum = 0u64;
                    for &(le, n) in buckets {
                        cum += n;
                        let labels = label_pairs(&sample.labels, Some(&le.to_string()));
                        let _ = writeln!(out, "{name}_bucket{labels} {cum}");
                    }
                    let labels = label_pairs(&sample.labels, Some("+Inf"));
                    let _ = writeln!(out, "{name}_bucket{labels} {count}");
                    let _ = writeln!(out, "{name}_sum{plain} {sum}");
                    let _ = writeln!(out, "{name}_count{plain} {count}");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let clock = ManualClock::new(Duration::from_secs(5));
        assert_eq!(clock.now(), Duration::from_secs(5));
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(5250));
        clock.set(Duration::ZERO);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn event_json_line_is_flat_and_ordered() {
        let e = Event::new("run_end", 1.5)
            .with_u64("mems", 3)
            .with_f64("modeled_s", 0.25)
            .with_str("note", "ok");
        assert_eq!(
            e.to_json_line(),
            r#"{"ts_s":1.5,"event":"run_end","mems":3,"modeled_s":0.25,"note":"ok"}"#
        );
        assert_eq!(e.u64_field("mems"), Some(3));
        assert_eq!(e.f64_field("mems"), Some(3.0));
        assert_eq!(e.f64_field("modeled_s"), Some(0.25));
        assert_eq!(e.u64_field("missing"), None);
    }

    #[test]
    fn memory_sink_collects_by_kind() {
        let sink = MemoryEventSink::new();
        sink.event(&Event::new("pin", 0.0));
        sink.event(&Event::new("evict", 0.5).with_u64("handle", 2));
        sink.event(&Event::new("pin", 1.0));
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.of_kind("pin").len(), 2);
        assert_eq!(sink.of_kind("evict")[0].u64_field("handle"), Some(2));
    }
}
