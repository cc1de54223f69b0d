//! End-to-end tests of the telemetry subsystem: the Prometheus
//! exposition pinned by a golden file (every metric family exactly
//! once, stable names), the structured event journal (lifecycle,
//! index-build and registry pin/unpin/evict events) and its exact
//! reconciliation against `Trace::stage_totals()`, deterministic uptime
//! via an injected clock, and the `gpumem-cli metrics export` surface
//! beside the snapshot JSON of `run --metrics`.
//!
//! Re-bless the golden file after an intentional exposition change:
//!
//! ```text
//! GPUMEM_BLESS=1 cargo test --test telemetry
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use gpumem::core::engine::{
    DeviceCounters, IndexCacheStats, LatencyBucket, LatencySummary, WorkerUtilization,
};
use gpumem::core::telemetry;
use gpumem::seq::{write_fasta, FastaRecord, GenomeModel, MutationModel, PackedSeq};
use gpumem::sim::{Device, DeviceSpec, LaunchStats};
use gpumem::{
    Engine, EventSink, GpumemConfig, ManualClock, MemoryEventSink, MetricsSnapshot, Registry,
    RegistryStats, RunOptions, RunRequest,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::parse;

/// Every metric family the exposition must declare, exactly once.
const FAMILIES: &[&str] = &[
    "gpumem_uptime_seconds",
    "gpumem_queries_total",
    "gpumem_query_latency_seconds",
    "gpumem_query_latency_quantile_seconds",
    "gpumem_query_latency_max_seconds",
    "gpumem_query_latency_mean_seconds",
    "gpumem_index_cache_rows",
    "gpumem_index_cache_built_total",
    "gpumem_index_cache_hits_total",
    "gpumem_index_cache_misses_total",
    "gpumem_index_cache_build_wait_seconds_total",
    "gpumem_worker_queries_total",
    "gpumem_worker_busy_seconds_total",
    "gpumem_worker_utilization",
    "gpumem_device_warp_efficiency",
    "gpumem_device_divergence_rate",
    "gpumem_device_block_occupancy",
    "gpumem_device_busiest_block_cycles",
    "gpumem_stage_launches_total",
    "gpumem_stage_blocks_total",
    "gpumem_stage_warps_total",
    "gpumem_stage_warp_cycles_total",
    "gpumem_stage_lane_cycles_total",
    "gpumem_stage_device_cycles_total",
    "gpumem_stage_modeled_seconds_total",
    "gpumem_stage_wall_seconds_total",
    "gpumem_stage_divergence_events_total",
    "gpumem_stage_atomic_ops_total",
    "gpumem_stage_global_mem_ops_total",
    "gpumem_stage_comparisons_total",
    "gpumem_stage_busiest_block_cycles",
    "gpumem_stage_pool_allocs_total",
    "gpumem_stage_pool_peak_bytes",
    "gpumem_registry_attached",
    "gpumem_registry_references",
    "gpumem_registry_pinned",
    "gpumem_registry_resident_bytes",
    "gpumem_registry_peak_resident_bytes",
    "gpumem_registry_budget_bytes",
    "gpumem_registry_hits_total",
    "gpumem_registry_misses_total",
    "gpumem_registry_evictions_total",
];

/// A fully populated snapshot with hand-picked values, so the golden
/// file covers every branch of the exporter (labels, histogram series,
/// per-worker fan-out) with deterministic numbers.
fn golden_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        uptime_s: 12.5,
        queries: 3,
        latency: LatencySummary {
            count: 3,
            mean_ms: 1.5,
            p50_ms: 1.024,
            p90_ms: 2.048,
            p99_ms: 2.048,
            max_ms: 1.75,
            buckets: vec![
                LatencyBucket {
                    le_us: 1024,
                    count: 2,
                },
                LatencyBucket {
                    le_us: 2048,
                    count: 1,
                },
            ],
        },
        index_cache: IndexCacheStats {
            rows: 3,
            built: 3,
            hits: 6,
            misses: 3,
            build_wait_s: 0.25,
        },
        workers: vec![
            WorkerUtilization {
                queries: 2,
                busy_s: 0.5,
                utilization: 0.04,
            },
            WorkerUtilization {
                queries: 1,
                busy_s: 0.25,
                utilization: 0.02,
            },
        ],
        device: DeviceCounters {
            warp_efficiency: 0.75,
            divergence_rate: 0.125,
            block_occupancy: 0.5,
            busiest_block_cycles: 4096,
        },
        index: LaunchStats {
            launches: 3,
            blocks: 6,
            warps: 12,
            warp_cycles: 1000,
            lane_cycles: 24000,
            device_cycles: 500,
            modeled_time: Duration::from_micros(500),
            wall_time: Duration::from_millis(2),
            divergence_events: 5,
            atomic_ops: 10,
            global_mem_ops: 20,
            comparisons: 30,
            busiest_block_cycles: 300,
            pool_allocs: 2,
            pool_peak_bytes: 1 << 20,
        },
        matching: LaunchStats {
            launches: 9,
            blocks: 18,
            warps: 36,
            warp_cycles: 3000,
            lane_cycles: 72000,
            device_cycles: 1500,
            modeled_time: Duration::from_micros(1500),
            wall_time: Duration::from_millis(6),
            divergence_events: 15,
            atomic_ops: 40,
            global_mem_ops: 80,
            comparisons: 120,
            busiest_block_cycles: 4096,
            pool_allocs: 1,
            pool_peak_bytes: 1 << 21,
        },
        registry: RegistryStats {
            attached: true,
            references: 2,
            pinned: 1,
            resident_bytes: 1 << 20,
            peak_resident_bytes: 1 << 21,
            budget_bytes: 1 << 22,
            hits: 5,
            misses: 2,
            evictions: 1,
        },
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Byte-compare `actual` against the committed golden file, or rewrite
/// the golden file when `GPUMEM_BLESS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GPUMEM_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); re-bless with GPUMEM_BLESS=1",
            name
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the golden file; if intentional, re-bless with GPUMEM_BLESS=1"
    );
}

#[test]
fn prometheus_exposition_matches_golden_with_every_family_exactly_once() {
    let text = telemetry::render_prometheus(&golden_snapshot());
    check_golden("metrics.prom", &text);

    for family in FAMILIES {
        let type_lines = text
            .lines()
            .filter(|l| l.starts_with("# TYPE ") && l.split_whitespace().nth(2) == Some(*family))
            .count();
        assert_eq!(
            type_lines, 1,
            "family {family} must be declared exactly once"
        );
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "family {family} has no sample"
        );
    }
    // No families beyond the pinned contract sneak in unreviewed.
    let declared = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(declared, FAMILIES.len(), "unexpected extra metric family");

    // Histogram exposition is cumulative and +Inf-terminated.
    assert!(text.contains("gpumem_query_latency_seconds_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("gpumem_query_latency_seconds_count 3"));
}

fn test_pair(seed: u64) -> (PackedSeq, PackedSeq) {
    let reference = GenomeModel::mammalian().generate(4_000, seed);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(seed + 1);
        PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng))
    };
    (reference, query)
}

fn test_config() -> GpumemConfig {
    GpumemConfig::builder(20)
        .seed_len(6)
        .threads_per_block(32)
        .blocks_per_tile(2)
        .build()
        .expect("valid config")
}

#[test]
fn runs_without_a_sink_are_identical_to_instrumented_runs() {
    let (reference, query) = test_pair(9_001);
    let bare = Engine::builder(reference.clone())
        .config(test_config())
        .spec(DeviceSpec::test_tiny())
        .build()
        .unwrap();
    let sink = Arc::new(MemoryEventSink::new());
    let instrumented = Engine::builder(reference)
        .config(test_config())
        .spec(DeviceSpec::test_tiny())
        .clock(Arc::new(ManualClock::new(Duration::ZERO)))
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .unwrap();

    let plain = bare.run(&query).unwrap();
    let observed = instrumented.run(&query).unwrap();
    assert!(!plain.mems.is_empty(), "fixture must produce MEMs");
    assert_eq!(plain.mems, observed.mems, "instrumentation changed MEMs");
    // Wall time is measured, everything modeled must be untouched.
    for (what, a, b) in [
        ("index", &plain.stats.index, &observed.stats.index),
        ("matching", &plain.stats.matching, &observed.stats.matching),
    ] {
        assert_eq!(a.launches, b.launches, "{what} launches");
        assert_eq!(a.warp_cycles, b.warp_cycles, "{what} warp cycles");
        assert_eq!(a.lane_cycles, b.lane_cycles, "{what} lane cycles");
        assert_eq!(a.device_cycles, b.device_cycles, "{what} device cycles");
        assert_eq!(a.modeled_time, b.modeled_time, "{what} modeled time");
        assert_eq!(a.comparisons, b.comparisons, "{what} comparisons");
    }

    // The instrumented run journaled its lifecycle.
    assert_eq!(sink.of_kind("run_start").len(), 1);
    assert_eq!(sink.of_kind("run_end").len(), 1);

    // One cold query: every built row journaled one index_build event.
    let built = instrumented.metrics().index_cache.built;
    assert!(built > 0);
    assert_eq!(sink.of_kind("index_build").len() as u64, built);
}

#[test]
fn run_end_event_reconciles_exactly_with_trace_stage_totals() {
    let (reference, query) = test_pair(9_002);
    let sink = Arc::new(MemoryEventSink::new());
    let engine = Engine::builder(reference)
        .config(test_config())
        .spec(DeviceSpec::test_tiny())
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .unwrap();

    let options = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let out = engine
        .execute(&RunRequest::query(&query).options(options))
        .pop()
        .unwrap()
        .unwrap();
    let totals = out
        .trace
        .expect("a traced request records a trace")
        .stage_totals();
    assert!(totals.launches > 0, "trivial trace");

    let ends = sink.of_kind("run_end");
    assert_eq!(ends.len(), 1);
    let end = &ends[0];
    assert_eq!(end.u64_field("launches"), Some(totals.launches));
    assert_eq!(end.u64_field("warp_cycles"), Some(totals.warp_cycles));
    assert_eq!(end.u64_field("device_cycles"), Some(totals.device_cycles));
    assert_eq!(end.f64_field("modeled_s"), Some(totals.modeled_secs()));
    assert_eq!(end.u64_field("query_len"), Some(query.len() as u64));
}

#[test]
fn manual_clock_makes_uptime_deterministic() {
    let (reference, query) = test_pair(9_003);
    let clock = Arc::new(ManualClock::new(Duration::from_secs(100)));
    let engine = Engine::builder(reference)
        .config(test_config())
        .spec(DeviceSpec::test_tiny())
        .clock(Arc::clone(&clock) as Arc<dyn gpumem::TelemetryClock>)
        .build()
        .unwrap();
    engine.run(&query).unwrap();

    clock.advance(Duration::from_millis(12_500));
    assert_eq!(engine.metrics().uptime_s, 12.5);
    clock.set(Duration::from_secs(100));
    assert_eq!(engine.metrics().uptime_s, 0.0);
}

#[test]
fn cold_split_requests_journal_every_index_build() {
    let (reference, query) = test_pair(9_007);
    let sink = Arc::new(MemoryEventSink::new());
    let engine = Engine::builder(reference)
        .config(test_config())
        .spec(DeviceSpec::test_tiny())
        .threads(2)
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let out = engine
        .execute(&RunRequest::query(&query))
        .pop()
        .unwrap()
        .unwrap();

    // The request built every row on one of its two workers: one event
    // each, carrying the launches the run's index stats add up.
    let built = engine.metrics().index_cache.built;
    assert!(built >= 2, "the fixture spans several rows");
    let builds = sink.of_kind("index_build");
    assert_eq!(builds.len() as u64, built, "one index_build per row built");
    let launches: u64 = builds
        .iter()
        .map(|e| e.u64_field("launches").unwrap())
        .sum();
    assert_eq!(launches, out.result.stats.index.launches);
    let mut rows: Vec<u64> = builds.iter().map(|e| e.u64_field("row").unwrap()).collect();
    rows.sort_unstable();
    assert_eq!(rows, (0..built).collect::<Vec<_>>());
}

#[test]
fn registry_journals_pin_unpin_and_evictions() {
    let spec = DeviceSpec::test_tiny();
    let config = test_config();
    let device = Device::new(spec.clone());
    let references: Vec<Arc<PackedSeq>> = (0..3)
        .map(|i| Arc::new(GenomeModel::mammalian().generate(4_000, 700 + i)))
        .collect();

    // Size the budget to hold one warmed reference, so touching the
    // others must evict.
    let probe = Registry::new(spec.clone());
    let handle = probe
        .add("probe", Arc::clone(&references[0]), config.clone())
        .unwrap();
    probe.session(handle).unwrap().warm(&device);
    let per_ref = probe.resident_bytes();
    assert!(per_ref > 0);

    let sink = Arc::new(MemoryEventSink::new());
    let registry = Arc::new(Registry::with_budget(spec, per_ref + per_ref / 2));
    registry.set_event_sink(Some(Arc::clone(&sink) as Arc<dyn EventSink>));
    let handles: Vec<_> = references
        .iter()
        .enumerate()
        .map(|(i, r)| {
            registry
                .add(&format!("ref{i}"), Arc::clone(r), config.clone())
                .unwrap()
        })
        .collect();

    let pinned = registry.pin(handles[0]).unwrap();
    for &handle in &handles[1..] {
        registry.session(handle).unwrap().warm(&device);
        registry.touch(handle);
    }
    drop(pinned);

    let stats = registry.stats();
    assert!(stats.evictions > 0, "budget churn must evict: {stats:?}");
    let evicts = sink.of_kind("evict");
    assert_eq!(
        evicts.len() as u64,
        stats.evictions,
        "one event per eviction"
    );
    for evict in &evicts {
        assert!(evict.u64_field("freed_bytes").unwrap() > 0);
    }
    let pins = sink.of_kind("pin");
    assert_eq!(pins.len(), 1);
    assert_eq!(pins[0].u64_field("pins"), Some(1));
    assert_eq!(sink.of_kind("unpin").len(), 1);
}

#[test]
fn jsonl_sink_writes_one_parseable_line_per_event() {
    let dir = std::env::temp_dir().join("gpumem-telemetry-jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let (reference, query) = test_pair(9_005);
    {
        let sink = Arc::new(gpumem::JsonlEventSink::create(path.to_str().unwrap()).unwrap());
        let engine = Engine::builder(reference)
            .config(test_config())
            .spec(DeviceSpec::test_tiny())
            .event_sink(sink as Arc<dyn EventSink>)
            .build()
            .unwrap();
        engine.run(&query).unwrap();
    }

    let journal = std::fs::read_to_string(&path).unwrap();
    let mut kinds = Vec::new();
    for line in journal.lines() {
        let event = parse(line).unwrap_or_else(|e| panic!("bad journal line {line:?}: {e}"));
        assert!(event.get("ts_s").unwrap().as_f64().is_some());
        kinds.push(event.get("event").unwrap().as_str().unwrap().to_string());
    }
    for expected in ["run_start", "index_build", "run_end"] {
        assert!(kinds.iter().any(|k| k == expected), "no {expected} event");
    }
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpumem-cli"))
}

fn write_pair(dir: &std::path::Path) -> (String, String) {
    let (reference, query) = test_pair(9_006);
    let write = |name: &str, seq: &PackedSeq| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(
            &mut file,
            &[FastaRecord {
                header: name.into(),
                seq: seq.clone(),
            }],
        )
        .unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    (write("ref.fa", &reference), write("query.fa", &query))
}

/// The metrics' two forms from the CLI: `metrics export` prints the
/// Prometheus text (and journals the batch), `run --metrics` writes the
/// engine's snapshot as JSON, and both count the same one query.
#[test]
fn cli_metrics_export_emits_both_formats_and_a_journal() {
    let dir = std::env::temp_dir().join("gpumem-telemetry-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    let journal = dir.join("events.jsonl");

    let prom = cli()
        .args(["metrics", "export", "--min-len", "20", "--seed-len", "6"])
        .args([
            "--query-threads",
            "2",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .args([&ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(
        prom.status.success(),
        "metrics export failed: {}",
        String::from_utf8_lossy(&prom.stderr)
    );
    let text = String::from_utf8(prom.stdout).unwrap();
    for family in FAMILIES {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "scrape output missing {family}"
        );
    }
    assert!(text.contains("gpumem_queries_total 1"));

    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert!(!journal_text.is_empty());
    for line in journal_text.lines() {
        parse(line).unwrap_or_else(|e| panic!("bad journal line {line:?}: {e}"));
    }
    assert!(journal_text.contains("\"event\":\"run_end\""));

    let snapshot = dir.join("metrics.json");
    let run = cli()
        .args([
            "run",
            "--min-len",
            "20",
            "--seed-len",
            "6",
            "--query-threads",
            "2",
        ])
        .arg("--metrics")
        .arg(&snapshot)
        .args([&ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(run.status.success());
    let doc = parse(&std::fs::read_to_string(&snapshot).unwrap()).expect("valid JSON snapshot");
    assert_eq!(doc.get("queries").and_then(|v| v.as_u64()), Some(1));
    let workers = doc.get("workers").and_then(|v| v.as_array()).unwrap();
    assert_eq!(workers.len(), 2, "one entry per engine worker");
}
