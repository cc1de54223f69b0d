//! The GPUMEM benchmark: seeded workloads, timed from outside the
//! program through its public entry points, every output checked
//! against a CPU oracle.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pair --seed 1 --seconds 35 --trace 0
//! ```
//!
//! * `--trace 0` times the workload and reports the end-to-end metrics:
//!   `setup_s` (one set-up), `scaled_wall_s` (one run, or one request
//!   as the client waits for it), `modeled_s` (modeled K20c index +
//!   matching time of one run or request), `peak_rss_mb` and
//!   `device_peak_mb` (`pool_peak_bytes`).
//!
//!   The timed window is cut into rounds, each opening with a fresh
//!   set-up, so set-ups are sampled across the window like the runs
//!   are. Both times are interquartile means of wall times scaled to a
//!   reference host speed by a calibration kernel timed beside each
//!   operation (see `calibrate`): a shared host's speed switches for
//!   seconds to minutes at a time, which no statistic of raw wall times
//!   within one run removes. The interquartile mean ignores stalls in
//!   the tails yet, unlike a median, moves smoothly when samples fall
//!   on a coarse grid. The results file keeps the raw figures: every
//!   run's wall time (one-shot), or the latency quantiles and the
//!   request rate (`serve`), and the calibration kernel's median time.
//! * `--trace 1` times it the same way, then runs it again traced and
//!   reports the per-layer metrics read from the spans, `LaunchStats`
//!   and `PhaseStats` the program records.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A fuller record —
//! machine fingerprint, input sizes, sample counts, `failed_frac` — goes
//! to `perfbench/results/`; the benchmark writes nowhere else.
//!
//! The oracle is `gpumem_baselines::Mummer`, computed before any timed
//! region. An operation fails when it returns a `RunError` or a MEM set
//! other than the oracle's; modeled cycles and MEM counts must also
//! repeat exactly across runs of the same input, traced or not.
//!
//! The benchmark's own tests run every workload in a tiny mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use gpumem::core::{GpumemResult, RunError};
use gpumem::seq::Mem;

pub mod calibrate;
pub mod layers;
pub mod oneshot;
pub mod report;
pub mod serve;
pub mod stats;
pub mod workloads;

pub use workloads::Workload;

/// How one invocation runs.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Workload seed; the only input the generators take.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: Duration,
    /// Also run traced and report the per-layer metrics.
    pub trace: bool,
    /// Shrink every input (for the benchmark's own tests).
    pub tiny: bool,
    /// Perturb every MEM set before the oracle comparison, so every
    /// operation must count as failed (for the benchmark's own tests).
    pub corrupt: bool,
}

/// One measured number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued: setup runs, timed runs or requests, traced runs.
    pub attempted: u64,
    /// Operations that returned an error or disagreed with the oracle.
    pub failed: u64,
    /// Checks that are not one operation: counters that did not repeat,
    /// trace reconciliation, the `quick` cross-check.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless `Settings::trace`.
    pub per_layer: Vec<Metric>,
    /// Input sizes and sample counts, as `(key, JSON value)`.
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run `workload` under `settings`.
pub fn run(workload: Workload, settings: &Settings) -> Outcome {
    if workload.is_one_shot() {
        oneshot::run(workload, settings)
    } else {
        serve::run(settings)
    }
}

/// Exact counters of one output, which must repeat for the same input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Counters {
    index_cycles: u64,
    matching_cycles: u64,
    mems: usize,
}

/// Compare one output with the oracle: its counters if it agrees, what
/// went wrong if not. `corrupt` perturbs the MEM set first.
pub(crate) fn verdict(
    outcome: Result<&GpumemResult, &RunError>,
    oracle: &[Mem],
    corrupt: bool,
) -> Result<Counters, String> {
    let result = outcome.map_err(|err| format!("run error: {err}"))?;
    let agrees = if corrupt {
        let mut mems = result.mems.clone();
        match mems.first_mut() {
            Some(first) => first.len += 1,
            None => mems.push(Mem { r: 0, q: 0, len: 1 }),
        }
        mems == oracle
    } else {
        result.mems == oracle
    };
    if !agrees {
        return Err(format!(
            "{} MEMs disagree with the oracle's {}",
            result.mems.len(),
            oracle.len()
        ));
    }
    Ok(Counters {
        index_cycles: result.stats.index.device_cycles,
        matching_cycles: result.stats.matching.device_cycles,
        mems: result.mems.len(),
    })
}

/// Counts operations and checks each against the oracle and against the
/// first output seen for the same input.
pub(crate) struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    corrupt: bool,
    first: Vec<Option<Counters>>,
}

impl Checker {
    /// A checker for `inputs` distinct inputs.
    pub fn new(inputs: usize, corrupt: bool) -> Checker {
        Checker {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            corrupt,
            first: vec![None; inputs],
        }
    }

    /// Account one operation on input `input`; `true` if it passed.
    pub fn check(
        &mut self,
        input: usize,
        outcome: Result<&GpumemResult, &RunError>,
        oracle: &[Mem],
    ) -> bool {
        let verdict = verdict(outcome, oracle, self.corrupt);
        self.record(input, verdict)
    }

    /// Account one operation whose output was already compared.
    pub fn record(&mut self, input: usize, verdict: Result<Counters, String>) -> bool {
        self.attempted += 1;
        let counters = match verdict {
            Ok(counters) => counters,
            Err(problem) => return self.fail(format!("input {input}: {problem}")),
        };
        match self.first[input] {
            None => self.first[input] = Some(counters),
            Some(first) if first != counters => {
                return self.fail(format!(
                    "input {input}: counters {counters:?} differ from the first run's {first:?}"
                ))
            }
            Some(_) => {}
        }
        true
    }

    fn fail(&mut self, problem: String) -> bool {
        self.failed += 1;
        // One line per kind of failure is enough to diagnose it.
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
        false
    }
}
