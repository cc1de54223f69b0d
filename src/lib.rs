//! # GPUMEM
//!
//! A reproduction of *"Extracting Maximal Exact Matches on GPU"*
//! (Abu-Doleh, Kaya, Abouelhoda, Çatalyürek — IEEE IPDPSW 2014) as a Rust
//! workspace. This facade crate re-exports the public APIs of every
//! workspace crate so downstream users can depend on a single crate:
//!
//! * [`seq`] — 2-bit packed DNA sequences, FASTA IO, synthetic genome
//!   generation ([`gpumem_seq`]).
//! * [`sim`] — the SIMT execution-model simulator standing in for the
//!   paper's Tesla K20c ([`gpu_sim`]).
//! * [`index`] — the lightweight `ptrs`/`locs` seed index
//!   ([`gpumem_index`]).
//! * [`core`] — the GPUMEM pipeline itself ([`gpumem_core`]).
//! * [`baselines`] — sparseMEM / essaMEM / MUMmer / slaMEM CPU finders
//!   ([`gpumem_baselines`]).
//!
//! ## Quickstart
//!
//! ```
//! use gpumem::core::{Gpumem, GpumemConfig};
//! use gpumem::seq::PackedSeq;
//!
//! let reference = PackedSeq::from_ascii(b"ACGTACGTACGTGGGGACGTACGTACGT").unwrap();
//! let query     = PackedSeq::from_ascii(b"TTTTACGTACGTACGTCCCC").unwrap();
//! let config = GpumemConfig::builder(8).seed_len(4).build().unwrap();
//! let mems = Gpumem::new(config).run(&reference, &query).unwrap().mems;
//! assert!(mems.iter().all(|m| m.len >= 8));
//! ```
//!
//! ## Serving many queries
//!
//! For query streams against one reference, the serving engine caches
//! the per-row partial indexes in a session and runs each query's tile
//! rows on every worker free when it arrives. `Engine::execute` is its
//! one request path — everything needed is re-exported at the crate
//! root:
//!
//! ```
//! use gpumem::{Engine, GpumemConfig, RunError, RunRequest};
//! use gpumem::seq::{FastaRecord, PackedSeq, SeqSet};
//!
//! let reference = PackedSeq::from_ascii(b"ACGTACGTACGTGGGGACGTACGTACGT").unwrap();
//! let queries = SeqSet::from_records(&[
//!     FastaRecord { header: "q0".into(), seq: "TTTTACGTACGTACGTCCCC".parse().unwrap() },
//!     FastaRecord { header: "q1".into(), seq: "GGGGACGTACGTAAAA".parse().unwrap() },
//! ]);
//! let config = GpumemConfig::builder(8).seed_len(4).build().unwrap();
//! let engine = Engine::builder(reference).config(config).threads(2).build()?;
//! for output in engine.execute(&RunRequest::batch(&queries)) {
//!     assert!(output?.result.mems.iter().all(|m| m.len >= 8));
//! }
//! # Ok::<(), RunError>(())
//! ```
//!
//! ## Hosting many references
//!
//! A [`Registry`] hosts many references behind stable [`RefHandle`]s
//! under one byte budget, evicting the coldest resident indexes when
//! the budget is exceeded (pinned sessions — e.g. any session backing a
//! live [`Engine`] — are never evicted):
//!
//! ```
//! use std::sync::Arc;
//! use gpumem::{Engine, GpumemConfig, Registry, RunError};
//! use gpumem::seq::PackedSeq;
//! use gpumem::sim::DeviceSpec;
//!
//! let registry = Arc::new(Registry::with_budget(
//!     DeviceSpec::test_tiny(),
//!     64 << 20, // 64 MiB across all hosted references
//! ));
//! let reference = PackedSeq::from_ascii(b"ACGTACGTACGTGGGGACGTACGTACGT").unwrap();
//! let config = GpumemConfig::builder(8).seed_len(4).build().unwrap();
//! let engine = Engine::builder(reference)
//!     .config(config)
//!     .registry(Arc::clone(&registry))
//!     .name("chr1")
//!     .build()?;
//! let query = PackedSeq::from_ascii(b"TTTTACGTACGTACGTCCCC").unwrap();
//! engine.run(&query)?;
//! assert_eq!(engine.metrics().registry.references, 1);
//! # Ok::<(), RunError>(())
//! ```

pub use gpu_sim as sim;
pub use gpumem_baselines as baselines;
pub use gpumem_core as core;
pub use gpumem_index as index;
pub use gpumem_seq as seq;

// The serving/session API at the root, so batch users need one `use`.
pub use gpumem_core::{
    Engine, EngineBuilder, Gpumem, GpumemConfig, GpumemResult, GpumemStats, IndexBuildReport,
    MetricsSnapshot, PinnedSession, Queries, RefEntryInfo, RefHandle, RefSession, Registry,
    RegistryStats, RunError, RunOptions, RunOutput, RunRequest, SeedMode, ShardHealth, ShardPlan,
    Trace, TraceRecorder,
};

// The telemetry subsystem (metrics exposition, event journal, clocks),
// likewise at the root — see `gpumem_core::telemetry`.
pub use gpumem_core::{
    Event, EventSink, EventValue, JsonlEventSink, ManualClock, MemoryEventSink, TelemetryClock,
    WallClock,
};
