//! The benchmark's own tests, on the tiny variant of every workload:
//! every declared metric is reported with its unit, outputs are checked
//! against the oracle, and a corrupted MEM set is caught.

use std::time::Duration;

use gpumem_perfbench::workloads::{pair_inputs, serve_inputs};
use gpumem_perfbench::{run, Settings, Workload};
use serde::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Value::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark binary on the tiny variant of `workload`.
fn run_cli(workload: &str, trace: bool) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_gpumem-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.15"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = declared(list);
        for workload in Workload::ALL {
            let out = run_cli(workload.name(), trace);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the result line is JSON");
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) > Some(0));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared, "{} {list}", workload.name());
            let value = |name: &str| {
                metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .and_then(|(_, m)| m.get("value"))
                    .and_then(Value::as_f64)
                    .expect(name)
            };
            if !trace {
                for (name, _) in &declared {
                    assert!(value(name) > 0.0, "{} {name}", workload.name());
                }
                continue;
            }
            assert!(value("pipeline.unattributed_s") >= 0.0);
            assert!(value("gpu_sim.launches") > 0.0);
            assert!(value("block.comparisons") > 0.0);
            if workload == Workload::Serve {
                // A share, whichever way requests are dispatched.
                let share = value("engine.worker_max_share");
                assert!(share > 0.0 && share <= 1.0, "{share}");
                // One reference hosted, held resident without churn.
                assert_eq!(
                    value("registry.resident_bytes"),
                    value("index.resident_bytes")
                );
                assert!(value("registry.hits") > 0.0);
            }
        }
    }
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gpumem-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn a_corrupted_mem_set_counts_as_failed() {
    let settings = Settings {
        seed: 7,
        seconds: Duration::from_millis(150),
        trace: false,
        tiny: true,
        corrupt: true,
    };
    for workload in Workload::ALL {
        let outcome = run(workload, &settings);
        assert!(!outcome.correct(), "{}", workload.name());
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, outcome.attempted, "{}", workload.name());
        assert_eq!(outcome.failed_frac(), 1.0);
    }
}

#[test]
fn benchmark_json_workloads_exist_with_their_reasons() {
    let declared = benchmark_json();
    let declared = declared
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert!(!declared.is_empty());
    for entry in declared {
        let name = entry.get("name").and_then(Value::as_str).expect("name");
        let workload = Workload::from_name(name).expect("a declared workload exists");
        assert_eq!(
            entry.get("why").and_then(Value::as_str),
            Some(workload.why())
        );
    }
}

#[test]
fn generators_depend_only_on_the_seed() {
    for workload in [Workload::Pair, Workload::LongL, Workload::Repeats] {
        let a = pair_inputs(workload, 11, true);
        let b = pair_inputs(workload, 11, true);
        let c = pair_inputs(workload, 12, true);
        assert_eq!(a.reference.to_codes(), b.reference.to_codes());
        assert_eq!(a.query.to_codes(), b.query.to_codes());
        assert_ne!(a.query.to_codes(), c.query.to_codes());
    }
    let a = serve_inputs(11, true);
    let b = serve_inputs(11, true);
    assert_eq!(a.queries.len(), b.queries.len());
    for (x, y) in a.queries.iter().zip(&b.queries) {
        assert_eq!(x.to_codes(), y.to_codes());
    }
}

/// `pair` at seed 2024 is the `quick` bench's pipeline dataset; the run
/// flags any difference from the committed baseline as a problem.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-size run; use --release")]
fn pair_at_the_quick_seed_matches_the_committed_baseline() {
    let settings = Settings {
        seed: 2024,
        seconds: Duration::ZERO,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let outcome = run(Workload::Pair, &settings);
    assert!(outcome.correct(), "{:?}", outcome.problems);
    assert!(outcome.attempted > 0);
}
