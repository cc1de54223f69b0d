//! End-to-end tests of the observability surface of `gpumem-cli`:
//! `--trace` emits valid Chrome Trace Event JSON whose Stage events
//! reconcile with the run, `--metrics` emits a well-formed serving
//! snapshot, `--profile` prints the stage table, and none of the three
//! may change the match output.

use std::io::Write;
use std::process::Command;

use gpumem::seq::{write_fasta, FastaRecord, GenomeModel, MutationModel, PackedSeq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::{parse, Value};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpumem-cli"))
}

fn write_pair(dir: &std::path::Path) -> (String, String) {
    let reference = GenomeModel::mammalian().generate(6_000, 4321);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(4322);
        PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng))
    };
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

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("missing field {key:?}"))
}

#[test]
fn trace_flag_emits_chrome_trace_json_that_reconciles() {
    let dir = std::env::temp_dir().join("gpumem-obs-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    let trace_path = dir.join("trace.json");

    let baseline = cli()
        .args(["run", "--min-len", "25", &ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(baseline.status.success());

    let out = cli()
        .args([
            "run",
            "--min-len",
            "25",
            "--trace",
            trace_path.to_str().unwrap(),
            &ref_fa,
            &query_fa,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "--trace run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, baseline.stdout,
        "--trace changed the match output"
    );

    let trace = parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("valid JSON");
    assert_eq!(
        field(&trace, "displayTimeUnit").as_str(),
        Some("ms"),
        "Chrome Trace header"
    );
    let events = field(&trace, "traceEvents").as_array().unwrap();
    assert!(!events.is_empty());

    // Every event is a complete duration event; Stage events carry the
    // per-launch device stats in args, except the host-only
    // canonicalization, which carries none.
    let mut stage_warp_cycles = 0u64;
    let mut cats = Vec::new();
    for event in events {
        assert_eq!(field(event, "ph").as_str(), Some("X"));
        assert!(field(event, "ts").as_f64().is_some());
        assert!(field(event, "dur").as_f64().unwrap() >= 0.0);
        assert!(field(event, "name").as_str().is_some());
        assert_eq!(field(event, "pid").as_u64(), Some(1));
        assert!(field(event, "tid").as_u64().is_some());
        let cat = field(event, "cat").as_str().unwrap().to_string();
        if cat == "Stage" {
            let stats = field(field(event, "args"), "stats");
            if field(event, "name").as_str() == Some("canonicalize") {
                assert!(
                    matches!(stats, Value::Null),
                    "canonicalize launches nothing"
                );
            } else {
                stage_warp_cycles += field(stats, "warp_cycles").as_u64().unwrap();
            }
        }
        cats.push(cat);
    }
    for expected in ["Run", "TileRow", "Tile", "Stage", "Launch", "Phase"] {
        assert!(
            cats.iter().any(|c| c == expected),
            "no {expected} event in trace"
        );
    }
    for stage in [
        "index_build",
        "block_batch",
        "tile_merge",
        "global_merge",
        "canonicalize",
    ] {
        assert!(
            events.iter().any(|e| {
                field(e, "cat").as_str() == Some("Stage")
                    && field(e, "name").as_str() == Some(stage)
            }),
            "no {stage} Stage event"
        );
    }

    // Stage events partition the run's launches, so their warp cycles
    // must equal the sum over Launch events exactly.
    let launch_warp_cycles: u64 = events
        .iter()
        .filter(|e| field(e, "cat").as_str() == Some("Launch"))
        .map(|e| {
            field(field(field(e, "args"), "stats"), "warp_cycles")
                .as_u64()
                .unwrap()
        })
        .sum();
    assert!(stage_warp_cycles > 0, "trivial trace");
    assert_eq!(
        stage_warp_cycles, launch_warp_cycles,
        "Stage events do not reconcile with Launch events"
    );
}

#[test]
fn metrics_flag_emits_serving_snapshot() {
    let dir = std::env::temp_dir().join("gpumem-obs-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    let metrics_path = dir.join("metrics.json");

    let out = cli()
        .args([
            "run",
            "--min-len",
            "25",
            "--metrics",
            metrics_path.to_str().unwrap(),
            &ref_fa,
            &query_fa,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "--metrics run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let m = parse(&std::fs::read_to_string(&metrics_path).unwrap()).expect("valid JSON");
    assert_eq!(field(&m, "queries").as_u64(), Some(1));
    assert!(field(&m, "uptime_s").as_f64().unwrap() > 0.0);

    let latency = field(&m, "latency");
    assert_eq!(field(latency, "count").as_u64(), Some(1));
    assert!(field(latency, "mean_ms").as_f64().unwrap() > 0.0);
    assert!(field(latency, "max_ms").as_f64().unwrap() > 0.0);
    assert!(field(latency, "p50_ms").as_f64().unwrap() > 0.0);
    let buckets = field(latency, "buckets").as_array().unwrap();
    let bucketed: u64 = buckets
        .iter()
        .map(|b| field(b, "count").as_u64().unwrap())
        .sum();
    assert_eq!(bucketed, 1, "the one query lands in exactly one bucket");

    // One cold query builds every row index once and never hits.
    let cache = field(&m, "index_cache");
    let rows = field(cache, "rows").as_u64().unwrap();
    assert!(rows > 0);
    assert_eq!(field(cache, "built").as_u64(), Some(rows));
    assert_eq!(field(cache, "misses").as_u64(), Some(rows));
    assert_eq!(field(cache, "hits").as_u64(), Some(0));
    assert!(field(cache, "build_wait_s").as_f64().unwrap() > 0.0);

    let workers = field(&m, "workers").as_array().unwrap();
    assert_eq!(workers.len(), 1);
    assert_eq!(field(&workers[0], "queries").as_u64(), Some(1));
    let utilization = field(&workers[0], "utilization").as_f64().unwrap();
    assert!(utilization > 0.0 && utilization <= 1.0);
}

#[test]
fn profile_flag_prints_stage_table_to_stderr() {
    let dir = std::env::temp_dir().join("gpumem-obs-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let out = cli()
        .args(["run", "--min-len", "25", "--profile", &ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "--profile run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    for needle in [
        "stage",
        "index_build",
        "block_batch",
        "seed_lookup",
        "expand",
    ] {
        assert!(stderr.contains(needle), "profile report missing {needle:?}");
    }
}

#[test]
fn observability_flags_reject_cpu_tools() {
    let dir = std::env::temp_dir().join("gpumem-obs-reject");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let out = cli()
        .args([
            "run",
            "--tool",
            "mummer",
            "--min-len",
            "25",
            "--profile",
            &ref_fa,
            &query_fa,
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--profile with mummer must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("require --tool gpumem"), "got: {stderr}");
}
