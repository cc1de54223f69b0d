//! JSON output: the one-line result the benchmark prints last, and the
//! fuller results file with the machine fingerprint.

use std::path::{Path, PathBuf};

use crate::{Metric, Outcome, Settings, Workload};

/// A JSON number. Rust prints `f64` with every digit needed to read it
/// back exactly and never in exponent form; non-finite values, which
/// JSON cannot hold, become 0.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string.
pub fn text(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| format!("{}: {value}", text(key)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_object(metrics: &[Metric]) -> String {
    object(metrics.iter().map(|m| {
        (
            m.name,
            object([("value", num(m.value)), ("unit", text(m.unit))]),
        )
    }))
}

/// The metrics this invocation reports: per-layer when traced,
/// end-to-end otherwise.
pub fn reported(outcome: &Outcome, settings: &Settings) -> Vec<Metric> {
    if settings.trace {
        outcome.per_layer.clone()
    } else {
        outcome.end_to_end.clone()
    }
}

/// The last line of standard output.
pub fn result_line(outcome: &Outcome, settings: &Settings) -> String {
    object([
        ("correct", outcome.correct().to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", metrics_object(&reported(outcome, settings))),
    ])
}

/// What tells results from different machines and builds apart.
pub fn fingerprint(root: &Path) -> Vec<(&'static str, String)> {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        (
            "git_sha",
            text(&git_sha(root).unwrap_or_else(|| "unknown".to_string())),
        ),
        ("rustc", text(rustc.as_deref().unwrap_or("unknown"))),
        ("nproc", nproc.to_string()),
        ("os", text(std::env::consts::OS)),
        ("arch", text(std::env::consts::ARCH)),
    ]
}

/// The commit checked out at `root`, read from `.git` without running
/// git (a source checkout without history has none).
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// The full record of one invocation.
pub fn results_json(
    workload: Workload,
    settings: &Settings,
    outcome: &Outcome,
    fingerprint: Vec<(&'static str, String)>,
) -> String {
    let problems: Vec<String> = outcome.problems.iter().map(|p| text(p)).collect();
    object([
        ("workload", text(workload.name())),
        ("why", text(workload.why())),
        ("seed", settings.seed.to_string()),
        ("seconds", num(settings.seconds.as_secs_f64())),
        ("trace", u8::from(settings.trace).to_string()),
        ("fingerprint", object(fingerprint)),
        ("inputs", object(outcome.context.iter().cloned())),
        ("correct", outcome.correct().to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("failed_frac", num(outcome.failed_frac())),
        ("problems", format!("[{}]", problems.join(", "))),
        ("end_to_end", metrics_object(&outcome.end_to_end)),
        ("per_layer", metrics_object(&outcome.per_layer)),
    ])
}

/// Where the results file of one invocation goes: the benchmark's own
/// `results/` directory, never a tracked file.
pub fn results_path(bench_dir: &Path, workload: Workload, settings: &Settings) -> PathBuf {
    bench_dir.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        settings.seed,
        u8::from(settings.trace)
    ))
}
