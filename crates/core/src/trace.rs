//! Structured run tracing: hierarchical spans with device statistics.
//!
//! A [`TraceRecorder`] records one run (or one served query) as a tree
//! of spans — run → tile row → tile → stage, with per-launch and
//! per-phase detail supplied by the simulator's
//! [`LaunchObserver`] hook — and the finished
//! [`Trace`] exports as:
//!
//! * **Chrome Trace Event JSON** ([`Trace::to_chrome_json`]): open the
//!   file in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`
//!   for a flame view of the run;
//! * **a profile report** ([`Trace::profile_report`]): a human-readable
//!   top-stages table for terminals.
//!
//! ## Span categories and the reconciliation contract
//!
//! | category  | spans                                   | stats |
//! |-----------|-----------------------------------------|-------|
//! | `Run`     | the whole run / one served query        | none |
//! | `TileRow` | one reference tile row                  | informational |
//! | `Tile`    | one reference × query tile              | none |
//! | `Stage`   | `index_build`, `block_batch`, `tile_merge`, `global_merge` | **exact, disjoint** |
//! | `Stage`   | `canonicalize` (the final sort and dedup, host only) | none |
//! | `Launch`  | one kernel launch (observer-reported)   | informational |
//! | `Phase`   | in-kernel phase of a launch             | informational |
//!
//! Stage spans never overlap, so a run span's wall minus theirs is the
//! host time no stage accounts for. Only `Stage` spans carry *summable*
//! statistics: they partition every device launch of the run, so the
//! sum of their [`LaunchStats`] equals
//! the run's `GpumemStats.index + GpumemStats.matching` **exactly**
//! (integer counters, no sampling — pinned by the workspace's
//! `stats_snapshot` tests via [`Trace::stage_totals`]). `Launch` and
//! `Phase` spans are informational children of their stage, and a
//! `TileRow` span carries its row's matching launches (its tiles'
//! `block_batch` and `tile_merge` stages): summing them too would
//! double-count. The `TileRow` statistics sum to the run's
//! `GpumemStats.matching` in every field but `pool_peak_bytes` (the run
//! reports the one-device pool footprint), so a trace alone tells what
//! any split of its tile rows over devices would have run.
//!
//! ## Determinism and time
//!
//! Span structure, names, nesting, and all statistics are deterministic
//! for a fixed data seed. Timestamps and durations are measured wall
//! time of the *simulation* and vary run to run; consumers that need
//! reproducibility (tests, the bench gate) compare the statistics, not
//! the timestamps.
//!
//! Every span starts on the process clock ([`WallClock`]), which also
//! stamps the journal, so all traces and a request's journal events
//! share one time axis. The pipeline takes a span and the stage's wall
//! in `GpumemStats` from the same two clock readings, so a wall is
//! exactly the sum of its spans' durations.

use std::time::Duration;

use parking_lot::Mutex;

use gpu_sim::observe::merge_phases;
use gpu_sim::{LaunchObserver, LaunchRecord, LaunchStats, PhaseStats};

use crate::telemetry::WallClock;

/// Span category (see the module docs for the contract per category).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanCat {
    /// A whole run or served query.
    Run,
    /// One reference tile row.
    TileRow,
    /// One reference × query tile.
    Tile,
    /// A pipeline stage carrying exact, disjoint device statistics.
    Stage,
    /// One kernel launch (reported by the device observer).
    Launch,
    /// One in-kernel phase of a launch.
    Phase,
}

impl SpanCat {
    fn as_str(self) -> &'static str {
        match self {
            SpanCat::Run => "Run",
            SpanCat::TileRow => "TileRow",
            SpanCat::Tile => "Tile",
            SpanCat::Stage => "Stage",
            SpanCat::Launch => "Launch",
            SpanCat::Phase => "Phase",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`"run"`, `"tile_row 0"`, `"block_batch"`, …).
    pub name: String,
    /// Category (drives the reconciliation contract).
    pub cat: SpanCat,
    /// Track this span renders on (0 unless traces were merged).
    pub track: usize,
    /// Start on the process clock ([`WallClock`]).
    pub start: Duration,
    /// Wall duration.
    pub dur: Duration,
    /// Device statistics: exact for `Stage` spans, informational for
    /// `Launch` and `TileRow` spans, absent for the other structural
    /// spans.
    pub stats: Option<LaunchStats>,
    /// In-kernel phase breakdown (`Launch` spans only).
    pub phases: Vec<PhaseStats>,
}

/// Identifier of an open span, returned by [`TraceRecorder::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// Records one run's spans; install on a device (via
/// `Device::set_observer`) to capture per-launch detail between a
/// [`TraceRecorder::begin`] and its [`TraceRecorder::end`].
pub struct TraceRecorder {
    warp_size: usize,
    spans: Mutex<Vec<Span>>,
}

impl TraceRecorder {
    /// An empty recorder. `warp_size` is used for efficiency ratios in
    /// exports.
    pub fn new(warp_size: usize) -> TraceRecorder {
        TraceRecorder {
            warp_size,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span that started at `start` on the process clock
    /// ([`WallClock`]); close it with [`TraceRecorder::end`]. Spans stay
    /// in the order they were opened in.
    pub fn begin(&self, name: impl Into<String>, cat: SpanCat, start: Duration) -> SpanId {
        let mut spans = self.spans.lock();
        spans.push(Span {
            name: name.into(),
            cat,
            track: 0,
            start,
            dur: Duration::ZERO,
            stats: None,
            phases: Vec::new(),
        });
        SpanId(spans.len() - 1)
    }

    /// Close a span after `dur`, with its device statistics (exact for
    /// `Stage` spans) or none.
    pub fn end(&self, id: SpanId, dur: Duration, stats: Option<LaunchStats>) {
        let span = &mut self.spans.lock()[id.0];
        span.dur = dur;
        span.stats = stats;
    }

    /// Snapshot the recorded spans into an exportable [`Trace`].
    pub fn snapshot(&self) -> Trace {
        Trace {
            warp_size: self.warp_size,
            spans: self.spans.lock().clone(),
        }
    }
}

impl LaunchObserver for TraceRecorder {
    /// Record one completed launch as a closed `Launch` span. The
    /// callback fires at launch end, so the span is back-dated by the
    /// launch's measured wall time.
    fn on_launch(&self, record: LaunchRecord<'_>) {
        let now = WallClock::read();
        self.spans.lock().push(Span {
            name: record.name.to_string(),
            cat: SpanCat::Launch,
            track: 0,
            start: now.saturating_sub(record.stats.wall_time),
            dur: record.stats.wall_time,
            stats: Some(record.stats.clone()),
            phases: record.phases.to_vec(),
        });
    }
}

/// A finished trace: the span list plus export methods.
#[derive(Clone, Debug)]
pub struct Trace {
    warp_size: usize,
    spans: Vec<Span>,
}

impl Trace {
    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of all `Stage` spans' statistics. Stages partition the run's
    /// launches, so this equals the run's `index + matching` totals
    /// exactly (the module-docs reconciliation contract).
    pub fn stage_totals(&self) -> LaunchStats {
        let mut total = LaunchStats::default();
        for span in &self.spans {
            if span.cat == SpanCat::Stage {
                if let Some(stats) = &span.stats {
                    total += stats.clone();
                }
            }
        }
        total
    }

    /// Merge traces onto one timeline (the CLI uses this to export a
    /// multi-query profiling run). Each input keeps its own tracks,
    /// placed after those of the inputs before it, so a single-track
    /// input takes one track of its own and the workers of a multi-track
    /// input stay apart. Every span already starts on the process clock,
    /// so starts are kept as recorded.
    pub fn merge(traces: Vec<Trace>) -> Trace {
        let warp_size = traces.first().map_or(32, |t| t.warp_size);
        let mut spans = Vec::new();
        let mut placed = 0;
        for trace in traces {
            let tracks = trace.spans.iter().map(|s| s.track + 1).max().unwrap_or(1);
            spans.extend(trace.spans.into_iter().map(|span| Span {
                track: span.track + placed,
                ..span
            }));
            placed += tracks;
        }
        Trace { warp_size, spans }
    }

    /// Export as Chrome Trace Event JSON (the `traceEvents` array
    /// format), loadable in Perfetto or `chrome://tracing`. Launch
    /// spans with in-kernel phases additionally emit one child event
    /// per phase, with the launch's wall time apportioned by each
    /// phase's share of warp cycles (modeled attribution — phases have
    /// no independent wall clock).
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<ChromeEvent> = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            events.push(ChromeEvent {
                name: span.name.clone(),
                cat: span.cat.as_str().to_string(),
                ph: "X".to_string(),
                ts: span.start.as_secs_f64() * 1e6,
                dur: span.dur.as_secs_f64() * 1e6,
                pid: 1,
                tid: span.track as u64,
                args: EventArgs {
                    stats: span.stats.clone(),
                    warp_efficiency: span
                        .stats
                        .as_ref()
                        .map(|s| s.warp_efficiency(self.warp_size)),
                    divergence_rate: span.stats.as_ref().map(|s| s.divergence_rate()),
                    phase: None,
                },
            });
            if span.phases.is_empty() {
                continue;
            }
            let launch_cycles: u64 = span.phases.iter().map(|p| p.warp_cycles).sum();
            let mut cursor = span.start.as_secs_f64() * 1e6;
            for phase in &span.phases {
                let share = if launch_cycles == 0 {
                    1.0 / span.phases.len() as f64
                } else {
                    phase.warp_cycles as f64 / launch_cycles as f64
                };
                let dur = span.dur.as_secs_f64() * 1e6 * share;
                events.push(ChromeEvent {
                    name: phase.name.clone(),
                    cat: SpanCat::Phase.as_str().to_string(),
                    ph: "X".to_string(),
                    ts: cursor,
                    dur,
                    pid: 1,
                    tid: span.track as u64,
                    args: EventArgs {
                        stats: None,
                        warp_efficiency: Some(phase.warp_efficiency(self.warp_size)),
                        divergence_rate: None,
                        phase: Some(phase.clone()),
                    },
                });
                cursor += dur;
            }
        }
        serde::json::to_string_pretty(&ChromeTrace {
            traceEvents: events,
            displayTimeUnit: "ms".to_string(),
        })
    }

    /// Aggregate the in-kernel phase breakdown across every launch of
    /// the trace, sorted by descending warp cycles. Phases are
    /// informational children of launches (they never overlap within a
    /// launch), so each phase's `warp_cycles` share of the matching
    /// total is the modeled attribution of that stage of the kernel —
    /// the bench uses this to split modeled match time into
    /// generate/expand/combine.
    pub fn phase_totals(&self) -> Vec<PhaseStats> {
        let mut phases = Vec::new();
        merge_phases(&mut phases, self.spans.iter().flat_map(|s| &s.phases));
        phases.sort_by_key(|p| std::cmp::Reverse(p.warp_cycles));
        phases
    }

    /// A human-readable top-stages table: per-stage call counts, wall
    /// and modeled time, warp efficiency, divergence rate, and share of
    /// run wall time, followed by the in-kernel phase breakdown.
    pub fn profile_report(&self) -> String {
        let run_wall: f64 = self
            .spans
            .iter()
            .filter(|s| s.cat == SpanCat::Run)
            .map(|s| s.dur.as_secs_f64())
            .sum();
        let mut stages: Vec<StageRow> = Vec::new();
        for span in &self.spans {
            if span.cat != SpanCat::Stage {
                continue;
            }
            let row = match stages.iter_mut().find(|r| r.name == span.name) {
                Some(row) => row,
                None => {
                    stages.push(StageRow::new(span.name.clone()));
                    stages.last_mut().expect("just pushed")
                }
            };
            row.calls += 1;
            row.wall += span.dur.as_secs_f64();
            if let Some(stats) = &span.stats {
                row.stats += stats.clone();
            }
        }
        stages.sort_by(|a, b| b.wall.total_cmp(&a.wall));

        let phases = self.phase_totals();
        let phase_cycles: u64 = phases.iter().map(|p| p.warp_cycles).sum();

        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>6} {:>10} {:>12} {:>9} {:>9} {:>7}\n",
            "stage", "calls", "wall ms", "modeled ms", "warp eff", "div/warp", "share"
        ));
        for row in &stages {
            let share = if run_wall > 0.0 {
                100.0 * row.wall / run_wall
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<14} {:>6} {:>10.3} {:>12.3} {:>9.3} {:>9.3} {:>6.1}%\n",
                row.name,
                row.calls,
                row.wall * 1e3,
                row.stats.modeled_secs() * 1e3,
                row.stats.warp_efficiency(self.warp_size),
                row.stats.divergence_rate(),
                share
            ));
        }
        if !phases.is_empty() {
            out.push_str(&format!(
                "\nin-kernel phases ({} warp cycles attributed):\n",
                phase_cycles
            ));
            out.push_str(&format!(
                "{:<14} {:>12} {:>9} {:>10} {:>12} {:>7}\n",
                "phase", "warp cycles", "warp eff", "atomics", "comparisons", "share"
            ));
            for p in &phases {
                let share = if phase_cycles > 0 {
                    100.0 * p.warp_cycles as f64 / phase_cycles as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{:<14} {:>12} {:>9.3} {:>10} {:>12} {:>6.1}%\n",
                    p.name,
                    p.warp_cycles,
                    p.warp_efficiency(self.warp_size),
                    p.atomic_ops,
                    p.comparisons,
                    share
                ));
            }
        }
        out
    }
}

struct StageRow {
    name: String,
    calls: u64,
    wall: f64,
    stats: LaunchStats,
}

impl StageRow {
    fn new(name: String) -> StageRow {
        StageRow {
            name,
            calls: 0,
            wall: 0.0,
            stats: LaunchStats::default(),
        }
    }
}

/// The Chrome Trace Event file shape: `{"traceEvents": [...]}`.
#[allow(non_snake_case)] // Chrome's field names are camelCase
#[derive(serde::Serialize)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
    displayTimeUnit: String,
}

#[derive(serde::Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    args: EventArgs,
}

#[derive(serde::Serialize)]
struct EventArgs {
    stats: Option<LaunchStats>,
    warp_efficiency: Option<f64>,
    divergence_rate: Option<f64>,
    phase: Option<PhaseStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(warp_cycles: u64) -> LaunchStats {
        LaunchStats {
            launches: 1,
            warps: 2,
            warp_cycles,
            lane_cycles: warp_cycles * 16,
            divergence_events: 1,
            ..LaunchStats::default()
        }
    }

    fn sample_trace() -> Trace {
        let rec = TraceRecorder::new(32);
        let at = |us| Duration::from_micros(us);
        let run = rec.begin("run", SpanCat::Run, at(10));
        let s1 = rec.begin("index_build", SpanCat::Stage, at(11));
        rec.end(s1, at(4), Some(stage(100)));
        let s2 = rec.begin("block_batch", SpanCat::Stage, at(15));
        rec.on_launch(LaunchRecord {
            name: "match.blocks",
            stats: &stage(40),
            phases: &[
                PhaseStats {
                    name: "balance".to_string(),
                    warp_cycles: 30,
                    ..PhaseStats::default()
                },
                PhaseStats {
                    name: "expand".to_string(),
                    warp_cycles: 10,
                    ..PhaseStats::default()
                },
            ],
        });
        rec.end(s2, at(3), Some(stage(40)));
        rec.end(run, at(9), None);
        rec.snapshot()
    }

    #[test]
    fn stage_totals_sum_only_stage_spans() {
        let trace = sample_trace();
        let totals = trace.stage_totals();
        assert_eq!(totals.launches, 2, "launch span must not be summed");
        assert_eq!(totals.warp_cycles, 140);
    }

    #[test]
    fn chrome_export_is_valid_json_with_phase_children() {
        let trace = sample_trace();
        let json = trace.to_chrome_json();
        let value = serde::json::parse(&json).expect("valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // run + 2 stages + 1 launch + 2 phases.
        assert_eq!(events.len(), 6);
        for event in events {
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                assert!(event.get(key).is_some(), "missing {key}");
            }
            assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
        }
        let phases: Vec<&serde::json::Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some("Phase"))
            .collect();
        assert_eq!(phases.len(), 2);
        // Phase durations apportion the launch wall by warp-cycle share
        // (3:1 here), so balance gets 3× expand's duration.
        let dur = |e: &serde::json::Value| e.get("dur").and_then(|v| v.as_f64()).unwrap();
        if dur(phases[0]) + dur(phases[1]) > 0.0 {
            assert!(dur(phases[0]) >= dur(phases[1]));
        }
    }

    #[test]
    fn profile_report_lists_stages_and_phases() {
        let report = sample_trace().profile_report();
        assert!(report.contains("index_build"));
        assert!(report.contains("block_batch"));
        assert!(report.contains("balance"));
        assert!(report.contains("expand"));
        assert!(report.contains("share"));
    }

    #[test]
    fn phase_totals_aggregate_and_sort_by_cycles() {
        let totals = sample_trace().phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].name, "balance");
        assert_eq!(totals[0].warp_cycles, 30);
        assert_eq!(totals[1].name, "expand");
        assert_eq!(totals[1].warp_cycles, 10);
    }

    #[test]
    fn merge_assigns_one_track_per_trace() {
        let a = sample_trace();
        let b = sample_trace();
        let merged = Trace::merge(vec![a, b]);
        assert!(merged.spans().iter().any(|s| s.track == 0));
        assert!(merged.spans().iter().any(|s| s.track == 1));
        assert_eq!(merged.stage_totals().launches, 4);
    }

    #[test]
    fn merge_keeps_every_recorded_start() {
        // A launch span starts on the process clock, wherever the other
        // spans of its trace start.
        let first = sample_trace();
        std::thread::sleep(Duration::from_millis(2));
        let second = sample_trace();
        let starts = |t: &Trace| t.spans().iter().map(|s| s.start).collect::<Vec<_>>();
        let launch = |t: &Trace| t.spans()[3].start;
        assert!(launch(&second) >= launch(&first) + Duration::from_millis(2));
        let expect = [starts(&second), starts(&first)].concat();
        let merged = Trace::merge(vec![second, first]);
        assert_eq!(starts(&merged), expect, "input order, starts unchanged");
    }

    #[test]
    fn merge_keeps_each_inputs_tracks_apart() {
        let two_tracks = || Trace::merge(vec![sample_trace(), sample_trace()]);
        let merged = Trace::merge(vec![two_tracks(), two_tracks()]);
        let runs: Vec<usize> = merged
            .spans()
            .iter()
            .filter(|s| s.cat == SpanCat::Run)
            .map(|s| s.track)
            .collect();
        assert_eq!(runs, [0, 1, 2, 3], "four runs on four tracks");
        assert_eq!(merged.stage_totals().launches, 8);
    }
}
