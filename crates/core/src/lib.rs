//! GPUMEM: maximal exact match extraction on a (simulated) GPU.
//!
//! The paper's primary contribution, reproduced end to end:
//!
//! * [`config`] — the Table I parameters with the paper's derivation
//!   rules (`w = Δs`, `ℓ_block = τ·w`, `ℓ_tile = n_block·ℓ_block`,
//!   Eq. 1 validation);
//! * [`tile`] — the 2-D reference × query tiling (Fig. 1);
//! * [`balance`] — the proactive load-balancing heuristic
//!   (Algorithm 2, Fig. 2);
//! * [`generate`] — triplet generation with seed right-extension
//!   (§III-B2);
//! * [`combine`] — the conflict-free tree combine (Algorithm 3,
//!   Fig. 3) and the sorted scan combine (§III-C);
//! * [`expand`] — per-base expansion and in-/out-boundary
//!   classification (§III-B4);
//! * [`block`] / [`tile_run`] / [`global`] — the three merge levels
//!   (block → tile → host);
//! * [`pipeline`] — the [`Gpumem`] runner tying everything together on
//!   a [`gpu_sim::Device`];
//! * [`engine`] — the serving layer: cached [`RefSession`] reference
//!   indexes and the [`Engine`] with per-worker devices/scratch, whose
//!   one request path [`Engine::execute`] serves one query or a set on
//!   the free workers, traced or not, with or without a modeled shard
//!   split;
//! * [`registry`] / [`shard`] — many references under one byte budget,
//!   and the row placement a shard split sums;
//! * [`trace`] — the observability layer: hierarchical run spans with
//!   exact per-stage device statistics, Chrome Trace Event export, and
//!   the human-readable profile report;
//! * [`telemetry`] — the unified telemetry subsystem: Prometheus/JSON
//!   exposition of the engine's [`MetricsSnapshot`], the structured
//!   [`EventSink`] journal, and the injectable [`TelemetryClock`].
//!
//! The output is the exact canonical MEM set: property tests pin it to
//! the ground-truth [`gpumem_seq::naive_mems`] and (in the workspace
//! integration tests) to all four CPU baselines.
//!
//! ```
//! use gpumem_core::{Gpumem, GpumemConfig};
//! use gpumem_seq::PackedSeq;
//!
//! let reference: PackedSeq = "ACGTACGTACGTGGGGACGTACGTACGT".parse().unwrap();
//! let query: PackedSeq = "TTTTACGTACGTACGTCCCC".parse().unwrap();
//! let config = GpumemConfig::builder(8).seed_len(4).build().unwrap();
//! let result = Gpumem::new(config).run(&reference, &query).unwrap();
//! assert!(result.mems.iter().all(|m| m.len >= 8));
//! ```

pub mod balance;
pub mod block;
pub mod combine;
pub mod config;
pub mod engine;
pub mod expand;
pub mod generate;
pub mod global;
pub mod pipeline;
pub mod registry;
pub mod shard;
pub mod telemetry;
pub mod tile;
pub mod tile_run;
pub mod trace;

pub use config::{ConfigError, GpumemConfig, GpumemConfigBuilder, IndexKind};
pub use engine::{
    DeviceCounters, Engine, EngineBuilder, MetricsSnapshot, Queries, RefSession, RunOptions,
    RunOutput, RunRequest, ShardHealth,
};
pub use expand::Bounds;
pub use gpumem_index::SeedMode;
pub use pipeline::{
    Gpumem, GpumemResult, GpumemStats, IndexBuildReport, RunError, StageCounts, SORT_KEY_LIMIT,
};
pub use registry::{PinnedSession, RefEntryInfo, RefHandle, Registry, RegistryStats};
pub use shard::ShardPlan;
pub use telemetry::{
    Event, EventSink, EventValue, JsonlEventSink, ManualClock, MemoryEventSink, TelemetryClock,
    WallClock,
};
pub use tile::Tiling;
pub use trace::{Span, SpanCat, Trace, TraceRecorder};
