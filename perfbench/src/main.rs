//! Command-line entry of the GPUMEM benchmark (see the library docs).
//!
//! ```text
//! gpumem-perfbench --workload <pair|long_l|repeats|serve> --seed <n>
//!                  --seconds <s> --trace <0|1> [--tiny]
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use gpumem_perfbench::{report, run, Settings, Workload};

const USAGE: &str = "usage: gpumem-perfbench --workload <pair|long_l|repeats|serve> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse(args: &[String]) -> Result<(Workload, Settings), String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            settings.tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => settings.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                settings.seconds = Duration::try_from_secs_f64(seconds)
                    .map_err(|_| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, settings))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fingerprint = report::fingerprint(bench_dir.parent().unwrap_or(bench_dir));

    let outcome = run(workload, &settings);

    eprintln!(
        "{} (seed {}): {} operations, {} failed",
        workload.name(),
        settings.seed,
        outcome.attempted,
        outcome.failed
    );
    for problem in &outcome.problems {
        eprintln!("  problem: {problem}");
    }
    for metric in report::reported(&outcome, &settings) {
        eprintln!(
            "  {:<28} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let path = report::results_path(bench_dir, workload, &settings);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::write(
                &path,
                report::results_json(workload, &settings, &outcome, fingerprint) + "\n",
            )
        });
    match written {
        Ok(()) => eprintln!("results: {}", path.display()),
        Err(err) => eprintln!("results not written to {}: {err}", path.display()),
    }
    println!("{}", report::result_line(&outcome, &settings));
    ExitCode::SUCCESS
}
