//! Unified telemetry: typed metric instruments with Prometheus/JSON
//! exposition, a structured JSONL event journal, and an injectable
//! clock.
//!
//! Counters have lived all over the tree — [`LaunchStats`] on the
//! simulator, [`MetricsSnapshot`] on
//! the engine, [`RegistryStats`] on the
//! registry, per-shard stats on
//! [`GpumemStats::shard_matching`](crate::pipeline::GpumemStats) — each
//! with its own ad-hoc JSON shape. This module gives them one scrape
//! surface:
//!
//! * [`MetricsRegistry`] — a catalog of typed instruments
//!   ([`Counter`], [`Gauge`], log₂ [`Histogram`]) with stable names,
//!   optional labels, and deterministic rendering order;
//! * [`export_snapshot`] — re-plumbs every existing counter onto the
//!   registry from a [`MetricsSnapshot`]
//!   (pull model: nothing is touched on the query hot path);
//! * [`render_prometheus`] / [`render_json`] — the one-call exposition
//!   entry points a scraper (or the future `gpumem serve` daemon)
//!   serves;
//! * [`EventSink`] + [`Event`] — the structured event journal
//!   (run-lifecycle, index-build, eviction, pin/unpin, shard-dispatch,
//!   threshold anomalies), with [`JsonlEventSink`] writing one JSON
//!   object per line and [`MemoryEventSink`] for tests;
//! * [`TelemetryClock`] — the injectable time source
//!   ([`WallClock`] in production, [`ManualClock`] in golden tests)
//!   behind `uptime_s` and every event timestamp.
//!
//! ## Zero-cost when off
//!
//! Metrics are exported by *pulling* from a snapshot at scrape time, so
//! an engine with no registry attached does no metric work at all. The
//! event path checks `Option<Arc<dyn EventSink>>` before building an
//! [`Event`]; with no sink attached the only cost is that branch, and
//! the run output and statistics are byte-identical (pinned by the
//! `stats_snapshot` and `telemetry` integration tests).
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gpu_sim::LaunchStats;

use crate::engine::{MetricsSnapshot, ShardHealth};
use crate::registry::RegistryStats;

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// The time source behind `uptime_s` and event timestamps: a monotonic
/// duration since the clock's own epoch. Injectable so exposition and
/// journal outputs can be made deterministic in tests.
pub trait TelemetryClock: Send + Sync {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
}

/// The production clock: wall time since the clock was created.
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl TelemetryClock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
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
// Instruments
// ---------------------------------------------------------------------

/// The instrument taxonomy (DESIGN.md §14): what a metric family is
/// allowed to do and how it renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotonically non-decreasing total (Prometheus `counter`).
    Counter,
    /// A value that can go up and down (Prometheus `gauge`).
    Gauge,
    /// A log₂-bucketed distribution (Prometheus `histogram`).
    Histogram,
}

impl InstrumentKind {
    fn prometheus(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter handle. Values are `f64` (Prometheus counters
/// are floats — `*_seconds_total` needs fractions); monotonicity is the
/// caller's contract, and [`Counter::set_total`] enforces it by only
/// ever moving forward.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Add `v` (must be non-negative to keep the counter monotonic).
    pub fn add(&self, v: f64) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Set the cumulative total from an external source, never moving
    /// backwards — the re-plumbing path for pre-existing counters that
    /// already accumulate elsewhere.
    pub fn set_total(&self, total: f64) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some(f64::from_bits(bits).max(total).to_bits())
            });
    }

    /// The current total.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a point-in-time value.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// One histogram's state: non-cumulative per-bucket counts keyed by the
/// bucket's inclusive upper bound, plus the running sum and count.
#[derive(Default)]
struct HistCell {
    /// `(le, count)` pairs, ascending by `le`.
    buckets: Vec<(f64, u64)>,
    sum: f64,
    count: u64,
}

impl HistCell {
    fn record(&mut self, le: f64, n: u64) {
        match self
            .buckets
            .binary_search_by(|(b, _)| b.partial_cmp(&le).expect("finite bucket bound"))
        {
            Ok(i) => self.buckets[i].1 += n,
            Err(i) => self.buckets.insert(i, (le, n)),
        }
    }
}

/// A log₂ histogram handle: [`Histogram::observe`] buckets each value
/// into powers of two, like the engine's latency histogram.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<Mutex<HistCell>>,
}

impl Histogram {
    /// Record one observation: it lands in the smallest power-of-two
    /// bucket `2^k ≥ v` (non-positive values land in the lowest
    /// bucket used so far or `1.0`).
    pub fn observe(&self, v: f64) {
        let le = if v > 0.0 {
            let mut k = v.log2().ceil();
            // Guard the float-log edge: ensure 2^k really covers v.
            if 2f64.powi(k as i32) < v {
                k += 1.0;
            }
            2f64.powi(k as i32)
        } else {
            1.0
        };
        let mut cell = self.cell.lock();
        cell.record(le, 1);
        cell.sum += v.max(0.0);
        cell.count += 1;
    }

    /// Replace the histogram's contents with an externally accumulated
    /// series — the re-plumbing path for the engine's latency
    /// histogram. `buckets` are `(inclusive upper bound, count)` pairs
    /// (non-cumulative).
    pub fn set_series(&self, buckets: &[(f64, u64)], sum: f64, count: u64) {
        let mut cell = self.cell.lock();
        cell.buckets.clear();
        for &(le, n) in buckets {
            cell.record(le, n);
        }
        cell.sum = sum;
        cell.count = count;
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

enum SampleValue {
    Scalar(Arc<AtomicU64>),
    Histogram(Arc<Mutex<HistCell>>),
}

struct Sample {
    labels: Vec<(String, String)>,
    value: SampleValue,
}

struct Family {
    kind: InstrumentKind,
    help: String,
    /// Samples keyed by their rendered label set, so exposition order
    /// is deterministic.
    samples: BTreeMap<String, Sample>,
}

/// A catalog of metric families. Registration is get-or-create: asking
/// for the same `(name, labels)` twice returns a handle to the same
/// underlying cell, so producers and the exposition layer never race on
/// "who made this metric".
///
/// Names and families render in lexicographic order, making the
/// Prometheus and JSON outputs byte-stable — the property the golden
/// tests pin.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Number of metric families registered.
    pub fn len(&self) -> usize {
        self.families.lock().len()
    }

    /// Whether no families are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: InstrumentKind,
        labels: &[(&str, &str)],
    ) -> SampleValue {
        let mut families = self.families.lock();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            samples: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} registered as {:?} and again as {kind:?}",
            family.kind
        );
        let key = render_labels(labels);
        let sample = family.samples.entry(key).or_insert_with(|| Sample {
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: match kind {
                InstrumentKind::Histogram => {
                    SampleValue::Histogram(Arc::new(Mutex::new(HistCell::default())))
                }
                _ => SampleValue::Scalar(Arc::new(AtomicU64::new(0f64.to_bits()))),
            },
        });
        match &sample.value {
            SampleValue::Scalar(cell) => SampleValue::Scalar(Arc::clone(cell)),
            SampleValue::Histogram(cell) => SampleValue::Histogram(Arc::clone(cell)),
        }
    }

    /// The label-less counter `name`, created on first use.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// The counter `name{labels}`, created on first use.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, InstrumentKind::Counter, labels) {
            SampleValue::Scalar(cell) => Counter { cell },
            SampleValue::Histogram(_) => unreachable!("counter registered as scalar"),
        }
    }

    /// The label-less gauge `name`, created on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// The gauge `name{labels}`, created on first use.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, InstrumentKind::Gauge, labels) {
            SampleValue::Scalar(cell) => Gauge { cell },
            SampleValue::Histogram(_) => unreachable!("gauge registered as scalar"),
        }
    }

    /// The label-less histogram `name`, created on first use.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// The histogram `name{labels}`, created on first use.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, InstrumentKind::Histogram, labels) {
            SampleValue::Histogram(cell) => Histogram { cell },
            SampleValue::Scalar(_) => unreachable!("histogram registered as histogram"),
        }
    }

    /// Render every family in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, histogram `_bucket`/`_sum`/`_count`
    /// convention). Deterministic: families and samples are sorted.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.prometheus());
            for sample in family.samples.values() {
                match &sample.value {
                    SampleValue::Scalar(cell) => {
                        let v = f64::from_bits(cell.load(Ordering::Relaxed));
                        let labels = render_label_pairs(&sample.labels, None);
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    SampleValue::Histogram(cell) => {
                        let cell = cell.lock();
                        let mut cum = 0u64;
                        for &(le, n) in &cell.buckets {
                            cum += n;
                            let labels = render_label_pairs(&sample.labels, Some(&le.to_string()));
                            let _ = writeln!(out, "{name}_bucket{labels} {cum}");
                        }
                        let labels = render_label_pairs(&sample.labels, Some("+Inf"));
                        let _ = writeln!(out, "{name}_bucket{labels} {}", cell.count);
                        let plain = render_label_pairs(&sample.labels, None);
                        let _ = writeln!(out, "{name}_sum{plain} {}", cell.sum);
                        let _ = writeln!(out, "{name}_count{plain} {}", cell.count);
                    }
                }
            }
        }
        out
    }

    /// Render every family as pretty-printed JSON:
    /// `{"metrics": [{"name", "kind", "help", "samples": [...]}]}` with
    /// scalar samples as `{"labels", "value"}` and histogram samples as
    /// `{"labels", "buckets", "sum", "count"}`. Deterministic like
    /// [`MetricsRegistry::render_prometheus`].
    pub fn render_json(&self) -> String {
        let families = self.families.lock();
        serde::json::to_string_pretty(&JsonRegistry(&families))
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|&(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_label_pairs(labels: &[(String, String)], le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

struct JsonRegistry<'a>(&'a BTreeMap<String, Family>);

impl serde::Serialize for JsonRegistry<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.field("metrics", &JsonFamilies(self.0));
        s.end_object();
    }
}

struct JsonFamilies<'a>(&'a BTreeMap<String, Family>);

impl serde::Serialize for JsonFamilies<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_array();
        for (name, family) in self.0.iter() {
            s.element(&JsonFamily(name, family));
        }
        s.end_array();
    }
}

struct JsonFamily<'a>(&'a str, &'a Family);

impl serde::Serialize for JsonFamily<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.field("name", self.0);
        s.field("kind", self.1.kind.prometheus());
        s.field("help", &self.1.help);
        s.field("samples", &JsonSamples(&self.1.samples));
        s.end_object();
    }
}

struct JsonSamples<'a>(&'a BTreeMap<String, Sample>);

impl serde::Serialize for JsonSamples<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_array();
        for sample in self.0.values() {
            s.element(&JsonSample(sample));
        }
        s.end_array();
    }
}

struct JsonSample<'a>(&'a Sample);

impl serde::Serialize for JsonSample<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.field("labels", &JsonLabels(&self.0.labels));
        match &self.0.value {
            SampleValue::Scalar(cell) => {
                s.field("value", &f64::from_bits(cell.load(Ordering::Relaxed)));
            }
            SampleValue::Histogram(cell) => {
                let cell = cell.lock();
                s.field("buckets", &JsonBuckets(&cell.buckets));
                s.field("sum", &cell.sum);
                s.field("count", &cell.count);
            }
        }
        s.end_object();
    }
}

struct JsonLabels<'a>(&'a [(String, String)]);

impl serde::Serialize for JsonLabels<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        for (k, v) in self.0 {
            s.field(k, v);
        }
        s.end_object();
    }
}

struct JsonBuckets<'a>(&'a [(f64, u64)]);

impl serde::Serialize for JsonBuckets<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_array();
        for &(le, count) in self.0 {
            s.element(&JsonBucket(le, count));
        }
        s.end_array();
    }
}

struct JsonBucket(f64, u64);

impl serde::Serialize for JsonBucket {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.field("le", &self.0);
        s.field("count", &self.1);
        s.end_object();
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
    /// `pin`, `unpin`, `shard_dispatch`, `anomaly`, ...).
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
/// low-rate; durability beats batching here).
pub struct JsonlEventSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlEventSink {
    /// Journal into an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlEventSink {
        JsonlEventSink {
            out: Mutex::new(writer),
        }
    }

    /// Journal into the file at `path` (created or truncated).
    pub fn create(path: &str) -> std::io::Result<JsonlEventSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlEventSink::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl EventSink for JsonlEventSink {
    fn event(&self, event: &Event) {
        let mut out = self.out.lock();
        let _ = writeln!(out, "{}", event.to_json_line());
        let _ = out.flush();
    }
}

// ---------------------------------------------------------------------
// Snapshot export bridge
// ---------------------------------------------------------------------

/// Export one [`LaunchStats`] aggregate under a `stage` label. Every
/// field is covered: counters end in `_total`, the two gauges
/// (`busiest_block_cycles`, `pool_peak_bytes`) don't.
pub fn export_launch_stats(registry: &MetricsRegistry, stage: &str, stats: &LaunchStats) {
    let labels: &[(&str, &str)] = &[("stage", stage)];
    let c = |name: &str, help: &str, v: f64| {
        registry.counter_with(name, help, labels).set_total(v);
    };
    let g = |name: &str, help: &str, v: f64| {
        registry.gauge_with(name, help, labels).set(v);
    };
    c(
        "gpumem_stage_launches_total",
        "Kernel launches folded into this stage's totals.",
        stats.launches as f64,
    );
    c(
        "gpumem_stage_blocks_total",
        "Blocks executed.",
        stats.blocks as f64,
    );
    c(
        "gpumem_stage_warps_total",
        "Warps executed.",
        stats.warps as f64,
    );
    c(
        "gpumem_stage_warp_cycles_total",
        "Sum over warps of the warp's cycle cost.",
        stats.warp_cycles as f64,
    );
    c(
        "gpumem_stage_lane_cycles_total",
        "Sum over lanes of lane cycles (useful work).",
        stats.lane_cycles as f64,
    );
    c(
        "gpumem_stage_device_cycles_total",
        "Modeled device cycles after block scheduling.",
        stats.device_cycles as f64,
    );
    c(
        "gpumem_stage_modeled_seconds_total",
        "Modeled device time in seconds.",
        stats.modeled_time.as_secs_f64(),
    );
    c(
        "gpumem_stage_wall_seconds_total",
        "Measured wall time of the simulated launches.",
        stats.wall_time.as_secs_f64(),
    );
    c(
        "gpumem_stage_divergence_events_total",
        "Warp-level divergence events.",
        stats.divergence_events as f64,
    );
    c(
        "gpumem_stage_atomic_ops_total",
        "Atomic operations performed.",
        stats.atomic_ops as f64,
    );
    c(
        "gpumem_stage_global_mem_ops_total",
        "Global-memory element operations.",
        stats.global_mem_ops as f64,
    );
    c(
        "gpumem_stage_comparisons_total",
        "Base comparisons charged.",
        stats.comparisons as f64,
    );
    g(
        "gpumem_stage_busiest_block_cycles",
        "Warp cycles of the most loaded block seen in any launch (gauge).",
        stats.busiest_block_cycles as f64,
    );
    c(
        "gpumem_stage_pool_allocs_total",
        "Device-buffer allocations that missed the pool.",
        stats.pool_allocs as f64,
    );
    g(
        "gpumem_stage_pool_peak_bytes",
        "Peak pooled device-buffer bytes (gauge).",
        stats.pool_peak_bytes as f64,
    );
}

/// Export the registry counters. Always exported — `attached` is 0 for
/// a registry-less engine, so scrapers see a stable schema.
pub fn export_registry_stats(registry: &MetricsRegistry, stats: &RegistryStats) {
    let g = |name: &str, help: &str, v: f64| registry.gauge(name, help).set(v);
    let c = |name: &str, help: &str, v: f64| registry.counter(name, help).set_total(v);
    g(
        "gpumem_registry_attached",
        "1 when the engine is hosted in a reference registry.",
        if stats.attached { 1.0 } else { 0.0 },
    );
    g(
        "gpumem_registry_references",
        "Registered reference sessions.",
        stats.references as f64,
    );
    g(
        "gpumem_registry_pinned",
        "Currently pinned sessions (never evictable).",
        stats.pinned as f64,
    );
    g(
        "gpumem_registry_resident_bytes",
        "Summed resident row-index bytes across sessions.",
        stats.resident_bytes as f64,
    );
    g(
        "gpumem_registry_peak_resident_bytes",
        "High-water mark of resident bytes.",
        stats.peak_resident_bytes as f64,
    );
    g(
        "gpumem_registry_budget_bytes",
        "The eviction byte budget (0 = unbounded).",
        stats.budget_bytes as f64,
    );
    c(
        "gpumem_registry_hits_total",
        "Touches that found the session resident.",
        stats.hits as f64,
    );
    c(
        "gpumem_registry_misses_total",
        "Touches that found the session cold.",
        stats.misses as f64,
    );
    c(
        "gpumem_registry_evictions_total",
        "Sessions evicted to stay under the budget.",
        stats.evictions as f64,
    );
}

/// Export the sharded-run health block, including the first-class
/// imbalance gauge (max/mean per-shard modeled seconds of the last
/// sharded run).
pub fn export_shard_health(registry: &MetricsRegistry, shards: &ShardHealth) {
    registry
        .counter(
            "gpumem_sharded_runs_total",
            "Queries served by a multi-shard run.",
        )
        .set_total(shards.sharded_runs as f64);
    registry
        .gauge(
            "gpumem_shard_count",
            "Shards of the most recent sharded run.",
        )
        .set(shards.shards as f64);
    for (i, &modeled_s) in shards.last_modeled_s.iter().enumerate() {
        let shard = i.to_string();
        registry
            .gauge_with(
                "gpumem_shard_modeled_seconds",
                "Per-shard modeled matching seconds of the last sharded run.",
                &[("shard", &shard)],
            )
            .set(modeled_s);
    }
    registry
        .gauge(
            "gpumem_shard_modeled_max_seconds",
            "Slowest shard's modeled seconds (the sharded critical path).",
        )
        .set(shards.max_modeled_s);
    registry
        .gauge(
            "gpumem_shard_modeled_mean_seconds",
            "Mean per-shard modeled seconds.",
        )
        .set(shards.mean_modeled_s);
    registry
        .gauge(
            "gpumem_shard_imbalance",
            "Max/mean per-shard modeled time (1.0 = perfectly balanced).",
        )
        .set(shards.imbalance);
}

/// Re-plumb every counter of a [`MetricsSnapshot`] onto `registry`:
/// uptime/queries, the latency histogram and quantiles, index-cache and
/// worker counters, device-health gauges, the cumulative index/matching
/// [`LaunchStats`], registry counters, and shard health. Pull-model:
/// call at scrape time.
pub fn export_snapshot(registry: &MetricsRegistry, snap: &MetricsSnapshot) {
    registry
        .gauge(
            "gpumem_uptime_seconds",
            "Seconds since the engine was created.",
        )
        .set(snap.uptime_s);
    registry
        .counter(
            "gpumem_queries_total",
            "Queries completed across all workers.",
        )
        .set_total(snap.queries as f64);

    let lat = &snap.latency;
    let buckets: Vec<(f64, u64)> = lat
        .buckets
        .iter()
        .map(|b| (b.le_us as f64 / 1e6, b.count))
        .collect();
    registry
        .histogram(
            "gpumem_query_latency_seconds",
            "Per-query wall latency (log2 buckets).",
        )
        .set_series(&buckets, lat.mean_ms * lat.count as f64 / 1e3, lat.count);
    for (q, v) in [
        ("0.5", lat.p50_ms),
        ("0.9", lat.p90_ms),
        ("0.99", lat.p99_ms),
    ] {
        registry
            .gauge_with(
                "gpumem_query_latency_quantile_seconds",
                "Latency quantiles (log2 bucket upper bounds).",
                &[("quantile", q)],
            )
            .set(v / 1e3);
    }
    registry
        .gauge(
            "gpumem_query_latency_max_seconds",
            "Largest observed query latency.",
        )
        .set(lat.max_ms / 1e3);
    registry
        .gauge("gpumem_query_latency_mean_seconds", "Mean query latency.")
        .set(lat.mean_ms / 1e3);

    let cache = &snap.index_cache;
    registry
        .gauge(
            "gpumem_index_cache_rows",
            "Tile rows (cache slots) of the session.",
        )
        .set(cache.rows as f64);
    registry
        .counter(
            "gpumem_index_cache_built_total",
            "Row indexes built so far (= cache misses).",
        )
        .set_total(cache.built as f64);
    registry
        .counter(
            "gpumem_index_cache_hits_total",
            "Row-index lookups served from the cache.",
        )
        .set_total(cache.hits as f64);
    registry
        .counter(
            "gpumem_index_cache_misses_total",
            "Row-index lookups that had to build.",
        )
        .set_total(cache.misses as f64);
    registry
        .counter(
            "gpumem_index_cache_build_wait_seconds_total",
            "Wall time queries spent acquiring row indexes.",
        )
        .set_total(cache.build_wait_s);

    for (i, w) in snap.workers.iter().enumerate() {
        let worker = i.to_string();
        let labels: &[(&str, &str)] = &[("worker", &worker)];
        registry
            .counter_with(
                "gpumem_worker_queries_total",
                "Queries completed by this worker.",
                labels,
            )
            .set_total(w.queries as f64);
        registry
            .counter_with(
                "gpumem_worker_busy_seconds_total",
                "Wall time this worker spent executing queries.",
                labels,
            )
            .set_total(w.busy_s);
        registry
            .gauge_with(
                "gpumem_worker_utilization",
                "busy_s / uptime (1.0 = always busy).",
                labels,
            )
            .set(w.utilization);
    }

    let dev = &snap.device;
    registry
        .gauge(
            "gpumem_device_warp_efficiency",
            "Mean active-lane share of warp cycles across matching launches.",
        )
        .set(dev.warp_efficiency);
    registry
        .gauge(
            "gpumem_device_divergence_rate",
            "Divergence events per executed warp.",
        )
        .set(dev.divergence_rate);
    registry
        .gauge(
            "gpumem_device_block_occupancy",
            "Mean block load over the busiest block (1.0 = even).",
        )
        .set(dev.block_occupancy);
    registry
        .gauge(
            "gpumem_device_busiest_block_cycles",
            "Warp cycles of the busiest single block (gauge).",
        )
        .set(dev.busiest_block_cycles as f64);

    export_launch_stats(registry, "index", &snap.index);
    export_launch_stats(registry, "matching", &snap.matching);
    export_registry_stats(registry, &snap.registry);
    export_shard_health(registry, &snap.shards);
}

/// One-call Prometheus exposition of a snapshot — what `gpumem-cli
/// metrics export` prints and the future `gpumem serve` daemon will
/// serve on `/metrics`.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let registry = MetricsRegistry::new();
    export_snapshot(&registry, snap);
    registry.render_prometheus()
}

/// One-call JSON exposition of a snapshot (the registry's JSON shape,
/// not [`MetricsSnapshot::to_json`]'s raw field dump).
pub fn render_json(snap: &MetricsSnapshot) -> String {
    let registry = MetricsRegistry::new();
    export_snapshot(&registry, snap);
    registry.render_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_and_float_valued() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("test_total", "help");
        c.inc();
        c.add(2.5);
        assert!((c.get() - 3.5).abs() < 1e-12);
        c.set_total(3.0); // backwards: ignored
        assert!((c.get() - 3.5).abs() < 1e-12);
        c.set_total(10.0);
        assert!((c.get() - 10.0).abs() < 1e-12);
        // Same (name, labels) resolves to the same cell.
        assert!((reg.counter("test_total", "help").get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", "help");
        h.observe(3.0); // -> le 4
        h.observe(4.0); // -> le 4 (inclusive upper bound)
        h.observe(0.3); // -> le 0.5
        let text = reg.render_prometheus();
        assert!(text.contains("lat_seconds_bucket{le=\"0.5\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"4\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_count 3"), "{text}");
    }

    #[test]
    fn labeled_samples_render_sorted_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.gauge_with("g", "h", &[("worker", "1")]).set(1.0);
        reg.gauge_with("g", "h", &[("worker", "0")]).set(0.5);
        let text = reg.render_prometheus();
        let w0 = text.find("worker=\"0\"").unwrap();
        let w1 = text.find("worker=\"1\"").unwrap();
        assert!(w0 < w1, "samples must sort by label set:\n{text}");
        reg.gauge_with("g", "h", &[("name", "a\"b\\c")]).set(2.0);
        assert!(reg.render_prometheus().contains("name=\"a\\\"b\\\\c\""));
    }

    #[test]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total", "h");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("x_total", "h");
        }));
        assert!(result.is_err(), "re-registering with a new kind must panic");
    }

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
