//! A SIMT execution-model simulator.
//!
//! The paper runs GPUMEM on an NVIDIA Tesla K20c (13 SMs × 192 CUDA
//! cores @ 0.7 GHz, 4.8 GB global memory, warp size 32 — §II-B, §IV).
//! No GPU is attached to this machine and Rust's GPU-kernel story is
//! immature, so this crate *simulates the execution model* instead of
//! the hardware:
//!
//! * a kernel is launched over a 1-D **grid of blocks**; the simulator
//!   executes blocks *sequentially on the launching thread*, in
//!   ascending `block_id` order (the vendored rayon is a sequential
//!   stand-in), while *cost-modeling* them as distributed across SMs —
//!   execution is therefore fully deterministic, and block order is an
//!   asserted invariant, not an accident of scheduling. Separate
//!   [`Device`]s share nothing (each owns its buffer pool and launch
//!   observer), so different devices may launch from different host
//!   threads at once — the GPUMEM pipeline simulates independent tile
//!   rows that way, one device per thread;
//! * inside a block, code is written as a sequence of **SIMT regions**
//!   ([`BlockCtx::simt`]): each region runs a closure once per logical
//!   thread, warp by warp, and region boundaries are `__syncthreads()`
//!   barriers. Lanes within a block are executed *sequentially* by the
//!   simulator (which makes shared memory a plain `&mut` borrow and the
//!   simulation deterministic) but are *cost-modeled* as parallel;
//! * a block may [`BlockCtx::record`] what a run of regions charged and
//!   later [`BlockCtx::replay`] that charge without running them, when
//!   the regions touch no device buffer and their charge is known in
//!   advance (the result then comes from the host);
//! * every lane carries an operation counter ([`Lane`]); a warp's cycle
//!   cost is the **maximum over its 32 lanes** plus a serialization
//!   charge for divergent branches — this is precisely the effect the
//!   paper's proactive load-balancing heuristic (Fig. 2, Alg. 2) exists
//!   to mitigate, so disabling load balancing shows up in modeled device
//!   time exactly as in the paper's Figure 7;
//! * **global memory** is shared between blocks via [`GpuU32`] /
//!   [`GpuU64`] buffers whose element operations are relaxed atomics, and
//!   `atomicAdd` (Algorithm 1's conflict-avoidance primitive) is charged
//!   at a higher cost than a plain access;
//! * modeled **device time** converts accumulated warp cycles to seconds
//!   on a [`DeviceSpec`], scheduling blocks onto SMs with an LPT greedy
//!   assignment and accounting for the SM's warp-level parallelism.
//!
//! The simulator reports both modeled device time and measured wall time
//! ([`LaunchStats`]); the experiment harnesses use the former for
//! GPU-side numbers and the latter as a sanity cross-check.

pub mod cost;
pub mod exec;
pub mod memory;
pub mod observe;
pub mod pool;
pub mod primitives;
#[cfg(feature = "sanitize")]
pub mod sanitizer;
pub mod spec;
pub mod stats;

pub use cost::{CostModel, Op};
pub use exec::{BlockCtx, BlockKernel, Device, Lane, LaunchConfig, RegionCharge};
pub use memory::{GpuU32, GpuU64};
pub use observe::{LaunchObserver, LaunchRecord, PhaseStats};
pub use pool::{PoolClass, PooledU32, PooledU64};
pub use spec::DeviceSpec;
pub use stats::LaunchStats;
