//! Kernel launch and SIMT execution.
//!
//! See the crate docs for the model. In short: [`Device::launch`] runs
//! a kernel's blocks *one after another on the launching thread*, in
//! ascending `block_id` order, so the simulation is deterministic and a
//! kernel is an `FnMut` that may keep per-block scratch in its captures,
//! while the blocks are *cost-modeled* as parallel across SMs; inside a
//! block, [`BlockCtx::simt`] runs a closure once per logical thread,
//! warp by warp; each region boundary is a block barrier; warp cost is
//! the max over lane costs plus a divergence serialization charge.
//!
//! A launch never leaves its thread, but devices are independent:
//! several devices may launch concurrently from different threads, each
//! with its own pool, observer and statistics. A sanitizer session only
//! instruments launches made on the thread that started it.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cost::{CostModel, Op};
use crate::memory::{Elem, GpuBuf};
use crate::observe::{merge_phases, LaunchObserver, LaunchRecord, PhaseStats};
use crate::pool::{BufferPool, Init, PoolClass, Pooled};
use crate::sanitizer::{AccessKind, SiteCtx};
use crate::spec::DeviceSpec;
use crate::stats::LaunchStats;

/// Fixed per-launch overhead (driver + scheduling), modeled as wall
/// seconds added to every launch's modeled time.
const LAUNCH_OVERHEAD_S: f64 = 5.0e-6;

/// A 1-D launch configuration (the paper's kernels are 1-D grids of 1-D
/// blocks: one GPU block per `ℓ_tile × ℓ_block` region, `τ` threads per
/// block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block (`τ`).
    pub block_dim: usize,
}

impl LaunchConfig {
    /// Create a config; `block_dim` must be positive.
    ///
    /// `grid_dim` **may be zero**: launching a zero-block grid is a
    /// well-defined no-op — the kernel body never runs and the launch
    /// returns empty statistics (only the fixed launch overhead is
    /// modeled). The pipeline relies on this when a tile or histogram
    /// region is empty, so it is a documented guarantee, not an
    /// accident. (Real CUDA rejects 0-dim grids with
    /// `cudaErrorInvalidConfiguration`; callers here would otherwise
    /// all need `if n > 0` guards around an operation that has an
    /// obvious identity behavior.)
    pub fn new(grid_dim: usize, block_dim: usize) -> LaunchConfig {
        assert!(block_dim > 0, "block_dim must be positive");
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }
}

/// The simulated GPU.
pub struct Device {
    spec: DeviceSpec,
    cost: CostModel,
    pool: BufferPool,
    /// Tracing hook, called after every launch when installed (see
    /// [`crate::observe`]). Behind a mutex so the device stays `Sync`;
    /// the lock is taken once per launch, never per warp.
    observer: Mutex<Option<Arc<dyn LaunchObserver>>>,
}

impl Device {
    /// A device with the default cost model.
    pub fn new(spec: DeviceSpec) -> Device {
        Device {
            spec,
            cost: CostModel::default(),
            pool: BufferPool::default(),
            observer: Mutex::new(None),
        }
    }

    /// A device with an explicit cost model (ablations).
    pub fn with_cost_model(spec: DeviceSpec, cost: CostModel) -> Device {
        Device {
            spec,
            cost,
            pool: BufferPool::default(),
            observer: Mutex::new(None),
        }
    }

    /// Install (or with `None`, remove) the launch observer. While an
    /// observer is installed, kernels' [`BlockCtx::phase`] markers are
    /// recorded and every launch ends with an
    /// [`LaunchObserver::on_launch`] callback; without one, both are
    /// free (see [`crate::observe`]).
    pub fn set_observer(&self, observer: Option<Arc<dyn LaunchObserver>>) {
        *self.observer.lock() = observer;
    }

    /// The installed launch observer, if any (see
    /// [`Device::set_observer`]).
    pub fn observer(&self) -> Option<Arc<dyn LaunchObserver>> {
        self.observer.lock().clone()
    }

    /// Pool-backed [`GpuBuf::named`]: `len` zeroed elements, reusing
    /// storage freed by earlier drops of pooled buffers on this device.
    pub fn alloc<T: Elem>(&self, len: usize, name: &str) -> Pooled<'_, T> {
        self.pool.get(len, name, Init::Zeroed)
    }

    /// Pool-backed [`GpuBuf::alloc_uninit`]: contents are undefined
    /// (recycled storage keeps its previous bits) and the sanitizer
    /// flags reads-before-writes.
    pub fn alloc_uninit<T: Elem>(&self, len: usize, name: &str) -> Pooled<'_, T> {
        self.pool.get(len, name, Init::Uninit)
    }

    /// The buffers this device's pool holds, per size class (see
    /// [`crate::pool`]). Their bytes sum to the
    /// [`LaunchStats::pool_peak_bytes`] the next launch reports. Devices
    /// that split one run's work can fold their classes into the
    /// footprint one device running all of it would have.
    pub fn pool_classes(&self) -> Vec<PoolClass> {
        self.pool.classes()
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Launch `kernel` over `cfg.grid_dim` blocks of `cfg.block_dim`
    /// logical threads and return aggregate statistics. The blocks run
    /// one after another on the calling thread, in ascending `block_id`
    /// order; `name` is what sanitizer reports and the launch observer
    /// call the kernel.
    ///
    /// A `grid_dim` of zero is a no-op (see [`LaunchConfig::new`]).
    pub fn launch(
        &self,
        cfg: LaunchConfig,
        name: &str,
        mut kernel: impl FnMut(&mut BlockCtx<'_>),
    ) -> LaunchStats {
        assert!(
            cfg.block_dim <= self.spec.max_threads_per_block,
            "block_dim {} exceeds device limit {}",
            cfg.block_dim,
            self.spec.max_threads_per_block
        );
        crate::sanitizer::begin_launch(name, self.spec.warp_size as u32);
        // One lock per launch; the Arc clone keeps the observer alive
        // even if it is swapped out mid-launch.
        let observer = self.observer.lock().clone();
        let phases_enabled = observer.is_some();
        let start = Instant::now();
        let mut outs = Vec::with_capacity(cfg.grid_dim);
        let mut phases: Vec<PhaseStats> = Vec::new();
        for block_id in 0..cfg.grid_dim {
            let mut ctx = BlockCtx::new(
                block_id,
                cfg,
                &self.cost,
                self.spec.warp_size,
                phases_enabled,
            );
            kernel(&mut ctx);
            let (out, block_phases) = ctx.finish();
            outs.push(out);
            merge_phases(&mut phases, &block_phases);
        }
        let wall = start.elapsed();
        crate::sanitizer::end_launch();
        let stats = self.aggregate(outs, wall);
        if let Some(observer) = observer {
            observer.on_launch(LaunchRecord {
                name,
                stats: &stats,
                phases: &phases,
            });
        }
        stats
    }

    /// Fold per-block results into launch statistics, scheduling block
    /// costs onto SMs with a greedy LPT assignment.
    fn aggregate(&self, outs: Vec<BlockOut>, wall: Duration) -> LaunchStats {
        let warps_in_flight = self.spec.warps_in_flight_per_sm() as u64;
        let mut block_cycles: Vec<u64> = outs
            .iter()
            .map(|o| o.warp_cycles.div_ceil(warps_in_flight))
            .collect();
        block_cycles.sort_unstable_by(|a, b| b.cmp(a));
        let mut sm_load = vec![0u64; self.spec.sm_count];
        for cycles in block_cycles {
            let min = sm_load.iter_mut().min().expect("sm_count is positive");
            *min += cycles;
        }
        let device_cycles = sm_load.into_iter().max().unwrap_or(0);
        let modeled =
            Duration::from_secs_f64(device_cycles as f64 / self.spec.clock_hz + LAUNCH_OVERHEAD_S);

        let mut stats = LaunchStats {
            launches: 1,
            blocks: outs.len() as u64,
            device_cycles,
            modeled_time: modeled,
            wall_time: wall,
            // Host-side bookkeeping: fresh (pool-missing) buffer
            // allocations since the previous launch on this device,
            // and the pool's byte footprint gauge.
            pool_allocs: self.pool.take_fresh(),
            pool_peak_bytes: self.pool.peak_bytes(),
            ..LaunchStats::default()
        };
        for o in outs {
            stats.warps += o.warps;
            stats.warp_cycles += o.warp_cycles;
            stats.lane_cycles += o.lane_cycles;
            stats.divergence_events += o.divergence_events;
            stats.atomic_ops += o.atomic_ops;
            stats.global_mem_ops += o.global_ops;
            stats.comparisons += o.comparisons;
            // Gauge: the straggler block of this launch.
            stats.busiest_block_cycles = stats.busiest_block_cycles.max(o.warp_cycles);
        }
        stats
    }
}

/// What a run of SIMT regions charged one block: the seven per-block
/// counters and the number of regions, plus the key they are a
/// function of — the block size, warp size and cost model they ran
/// under. Made by [`BlockCtx::record`], spent by [`BlockCtx::replay`].
#[derive(Clone, Debug, PartialEq)]
pub struct RegionCharge {
    /// Counter deltas, in [`BlockOut::snapshot`] order.
    counters: [u64; 7],
    regions: u32,
    block_dim: usize,
    warp_size: usize,
    cost: CostModel,
}

/// How a kernel whose lane charges the host can compute runs
/// (DESIGN.md §8, "Computing charges").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Body {
    /// Every lane runs and every device access goes through a [`Lane`]:
    /// the path a sanitizer session checks, and the computed body's
    /// reference.
    Interpreted,
    /// The host moves the data in plain loops over the device buffers
    /// and charges each region from the lane totals it computes
    /// ([`BlockCtx::simt_computed`]), replaying the charges that depend
    /// on launch geometry alone.
    Computed,
}

impl Body {
    /// The body a launch made now runs: [`Body::Interpreted`] while a
    /// sanitizer session is live, since a session checks only accesses
    /// made through lanes, else [`Body::Computed`]. The same switch
    /// [`Lane::ld_slice`] makes.
    pub fn current() -> Body {
        if crate::sanitizer::enabled() {
            Body::Interpreted
        } else {
            Body::Computed
        }
    }
}

/// The branch path of a lane that has taken no branch yet.
const PATH_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The branch path after decision `taken` on `path`: the one fold both
/// [`Lane::branch`] and [`LaneCharge::branch`] apply, so a computed
/// lane's path equals the path the lane would have taken, collisions
/// included.
#[inline(always)]
const fn fold_branch(path: u64, taken: bool) -> u64 {
    (path ^ taken as u64 ^ 0x9E37).wrapping_mul(0x0000_0100_0000_01B3)
}

/// What one lane of a computed region charges (see
/// [`BlockCtx::simt_computed`]): a count per operation class, priced by
/// the block's cost model, and the id of the branch path the lane took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneCharge {
    counts: [u64; 8],
    path: u64,
}

impl LaneCharge {
    /// A lane on branch path `path` that has charged nothing yet. Lanes
    /// of one warp diverge exactly when their paths differ, so a path
    /// must stand for the whole sequence of branch decisions the lane
    /// would take.
    pub const fn on_path(path: u64) -> LaneCharge {
        LaneCharge {
            counts: [0; 8],
            path,
        }
    }

    /// A lane as it enters a region: nothing charged, no branch taken.
    /// Built up with [`LaneCharge::branch`], its path is the one the
    /// lane would have taken running [`Lane::branch`].
    pub const fn fresh() -> LaneCharge {
        LaneCharge::on_path(PATH_START)
    }

    /// Add `count` operations of class `op`.
    #[must_use]
    pub const fn with(mut self, op: Op, count: u64) -> LaneCharge {
        self.counts[op as usize] += count;
        self
    }

    /// Record a branch decision as [`Lane::branch`] does: one
    /// [`Op::Branch`], and `taken` folded into the path.
    #[must_use]
    pub const fn branch(mut self, taken: bool) -> LaneCharge {
        self.counts[Op::Branch as usize] += 1;
        self.path = fold_branch(self.path, taken);
        self
    }

    /// The counters this charge adds to its lane under `cost`.
    #[inline(always)]
    fn totals(&self, cost: &CostModel) -> LaneTotals {
        let count = |op: Op| self.counts[op as usize];
        LaneTotals {
            cycles: cost.price(&self.counts),
            atomic_ops: count(Op::Atomic),
            global_ops: count(Op::GlobalLoad) + count(Op::GlobalStore),
            comparisons: count(Op::Compare),
            path: self.path,
        }
    }
}

/// One lane's counters as the warp fold of [`BlockCtx::fold_region`]
/// takes them, whether the lane ran or the host computed its charge.
struct LaneTotals {
    cycles: u64,
    atomic_ops: u64,
    global_ops: u64,
    comparisons: u64,
    /// Branch path: lanes of one warp on different paths diverge.
    path: u64,
}

/// Per-block accumulation, reduced into [`LaunchStats`] after the launch.
struct BlockOut {
    warps: u64,
    warp_cycles: u64,
    lane_cycles: u64,
    divergence_events: u64,
    atomic_ops: u64,
    global_ops: u64,
    comparisons: u64,
}

impl BlockOut {
    /// Counter snapshot, in the field order phase attribution diffs.
    fn snapshot(&self) -> [u64; 7] {
        [
            self.warps,
            self.warp_cycles,
            self.lane_cycles,
            self.divergence_events,
            self.atomic_ops,
            self.global_ops,
            self.comparisons,
        ]
    }

    /// Add counter deltas given in [`BlockOut::snapshot`] order.
    fn add(&mut self, d: &[u64; 7]) {
        self.warps += d[0];
        self.warp_cycles += d[1];
        self.lane_cycles += d[2];
        self.divergence_events += d[3];
        self.atomic_ops += d[4];
        self.global_ops += d[5];
        self.comparisons += d[6];
    }
}

/// Execution context of one simulated block.
pub struct BlockCtx<'c> {
    /// This block's index in the grid.
    pub block_id: usize,
    /// Number of blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block (`τ`).
    pub block_dim: usize,
    cost: &'c CostModel,
    warp_size: usize,
    /// SIMT region ordinal: incremented at every region, run or
    /// computed (and by a replay, by the regions it stands for), so
    /// accesses separated by a barrier land in different regions.
    region: u32,
    /// Distinct branch signatures of the current warp. Owned by the
    /// context so the hot warp loop never allocates (one buffer per
    /// block instead of one per warp).
    signatures: Vec<u64>,
    out: BlockOut,
    /// Whether an observer is installed on the launching device. When
    /// false, [`BlockCtx::phase`] is a no-op and regions do no
    /// attribution bookkeeping — the zero-cost-when-disabled contract.
    phases_enabled: bool,
    /// Per-phase counter attribution, in first-marked order.
    phases: Vec<PhaseStats>,
    /// Index into `phases` that subsequent SIMT regions attribute to.
    current_phase: Option<usize>,
}

impl<'c> BlockCtx<'c> {
    fn new(
        block_id: usize,
        cfg: LaunchConfig,
        cost: &'c CostModel,
        warp_size: usize,
        phases_enabled: bool,
    ) -> BlockCtx<'c> {
        BlockCtx {
            block_id,
            grid_dim: cfg.grid_dim,
            block_dim: cfg.block_dim,
            cost,
            warp_size,
            region: 0,
            signatures: Vec::with_capacity(warp_size),
            out: BlockOut {
                warps: 0,
                warp_cycles: 0,
                lane_cycles: 0,
                divergence_events: 0,
                atomic_ops: 0,
                global_ops: 0,
                comparisons: 0,
            },
            phases_enabled,
            phases: Vec::new(),
            current_phase: None,
        }
    }

    /// Mark the start of a named phase: all SIMT regions until the next
    /// `phase` call are attributed to `name` in the launch's observer
    /// record. Re-marking a name resumes its accumulation (kernels that
    /// loop over stages get one row per stage, not one per round).
    ///
    /// Pure attribution: charges nothing, and with no observer
    /// installed on the device it is a no-op, so modeled statistics are
    /// identical whether or not a kernel is phase-annotated.
    pub fn phase(&mut self, name: &'static str) {
        if !self.phases_enabled {
            return;
        }
        let idx = match self.phases.iter().position(|p| p.name == name) {
            Some(idx) => idx,
            None => {
                self.phases.push(PhaseStats {
                    name: name.to_string(),
                    ..PhaseStats::default()
                });
                self.phases.len() - 1
            }
        };
        self.current_phase = Some(idx);
    }

    /// One barrier-delimited SIMT region over all `block_dim` threads.
    ///
    /// The closure runs once per logical thread; returning from `simt`
    /// is a `__syncthreads()` barrier. Because lanes run sequentially in
    /// the simulator, the closure may capture shared (per-block) state
    /// by `&mut` — that models shared memory without synchronization
    /// (the cost of shared accesses is still charged via
    /// [`Lane::shared`]).
    pub fn simt<F: FnMut(&mut Lane<'_>)>(&mut self, f: F) {
        self.simt_range(0..self.block_dim, f)
    }

    /// A SIMT region over a sub-range of the block's threads (threads
    /// outside the range are masked off, as with an early `if (tid >= n)
    /// return;` guard in CUDA).
    pub fn simt_range<F: FnMut(&mut Lane<'_>)>(&mut self, threads: Range<usize>, mut f: F) {
        let (cost, block_id, region) = (self.cost, self.block_id, self.region);
        self.fold_region(threads, |tid| {
            let mut lane = Lane {
                tid,
                block_id,
                region,
                cost,
                cycles: 0,
                branch_signature: PATH_START,
                atomic_ops: 0,
                global_ops: 0,
                comparisons: 0,
            };
            f(&mut lane);
            LaneTotals {
                cycles: lane.cycles,
                atomic_ops: lane.atomic_ops,
                global_ops: lane.global_ops,
                comparisons: lane.comparisons,
                path: lane.branch_signature,
            }
        });
    }

    /// A SIMT region over `threads` whose lanes do not run: `charge(tid)`
    /// gives what lane `tid` would charge, and the region is folded into
    /// warps exactly as [`BlockCtx::simt_range`] folds lanes that ran.
    /// `charge` is called once per thread, in ascending order, so it may
    /// do the lane's work on the host as it goes.
    ///
    /// Only for regions whose every lane charge is an exact function of
    /// data the host holds, and that either touch no device buffer or
    /// belong to a kernel that moves their data in host loops and runs
    /// its interpreted body under a live sanitizer session
    /// ([`Body::current`]); the results must come from the host. As for
    /// a region that ran, the region
    /// ordinal advances by one and, under an observer, the current phase
    /// is credited; [`BlockCtx::record`] and [`BlockCtx::replay`] treat
    /// the region like any other.
    pub fn simt_computed(
        &mut self,
        threads: Range<usize>,
        mut charge: impl FnMut(usize) -> LaneCharge,
    ) {
        let cost = self.cost;
        self.fold_region(threads, |tid| charge(tid).totals(cost));
    }

    /// The warp fold of one region: each warp's cost is its slowest
    /// lane's cycles plus a sync and, for every branch path beyond the
    /// first, the divergence penalty; the block counters grow by the
    /// lanes' totals, and the current phase is credited with the region
    /// when an observer is installed.
    #[inline(always)]
    fn fold_region(&mut self, threads: Range<usize>, mut lane: impl FnMut(usize) -> LaneTotals) {
        self.region += 1;
        // Snapshot the block counters so the region's delta can be
        // attributed to the current phase. Skipped entirely (not even
        // the copies) when no observer is installed.
        let tracked_phase = if self.phases_enabled {
            self.current_phase
        } else {
            None
        };
        let before = tracked_phase.map(|_| self.out.snapshot());
        let end = threads.end.min(self.block_dim);
        let mut warp_start = threads.start;
        while warp_start < end {
            let warp_end = (warp_start + self.warp_size).min(end);
            let mut warp_max = 0u64;
            self.signatures.clear();
            for tid in warp_start..warp_end {
                let lane = lane(tid);
                warp_max = warp_max.max(lane.cycles);
                self.out.lane_cycles += lane.cycles;
                self.out.atomic_ops += lane.atomic_ops;
                self.out.global_ops += lane.global_ops;
                self.out.comparisons += lane.comparisons;
                if !self.signatures.contains(&lane.path) {
                    self.signatures.push(lane.path);
                }
            }
            let distinct_paths = self.signatures.len() as u64;
            if distinct_paths > 1 {
                self.out.divergence_events += 1;
            }
            self.out.warps += 1;
            self.out.warp_cycles +=
                warp_max + self.cost.sync + (distinct_paths - 1) * self.cost.divergence_penalty;
            warp_start = warp_end;
        }
        if let (Some(idx), Some(before)) = (tracked_phase, before) {
            let after = self.out.snapshot();
            self.phases[idx].add(&std::array::from_fn(|i| after[i] - before[i]));
        }
    }

    /// Run `f`'s SIMT regions exactly as they run without recording and
    /// return what they charged this block, for later
    /// [`BlockCtx::replay`]s.
    ///
    /// `f` must not mark a phase: a replay attributes the whole
    /// recording to the phase current at the replay.
    pub fn record(&mut self, f: impl FnOnce(&mut Self)) -> RegionCharge {
        let before = self.out.snapshot();
        let (region, phase) = (self.region, self.current_phase);
        f(self);
        assert_eq!(
            self.current_phase, phase,
            "a recording may not cross a phase marker"
        );
        let after = self.out.snapshot();
        RegionCharge {
            counters: std::array::from_fn(|i| after[i] - before[i]),
            regions: self.region - region,
            block_dim: self.block_dim,
            warp_size: self.warp_size,
            cost: self.cost.clone(),
        }
    }

    /// Charge this block what `charge`'s regions charged when they were
    /// recorded, without running them: the block counters grow by the
    /// recording, the current phase is credited with it when an
    /// observer is installed, and the region ordinal advances past the
    /// regions it stands for, so the sanitizer numbers later regions as
    /// if they had run.
    ///
    /// Only for regions that touch no device buffer and whose charge is
    /// a function of what the caller keys the recording by; their
    /// results must come from the host. Returns `false`, charging
    /// nothing, when the recording was made under a different block
    /// size, warp size or cost model.
    #[must_use = "a refused recording charges nothing; run the regions instead"]
    pub fn replay(&mut self, charge: &RegionCharge) -> bool {
        if charge.block_dim != self.block_dim
            || charge.warp_size != self.warp_size
            || charge.cost != *self.cost
        {
            return false;
        }
        self.out.add(&charge.counters);
        if self.phases_enabled {
            if let Some(idx) = self.current_phase {
                self.phases[idx].add(&charge.counters);
            }
        }
        self.region += charge.regions;
        true
    }

    /// Replay `memo` when it holds a recording this block accepts;
    /// otherwise run `f` under [`BlockCtx::record`] and keep the new
    /// recording in `memo`. Returns whether `f` ran: when it did not,
    /// the caller produces the regions' results on the host.
    pub fn replay_or_record(
        &mut self,
        memo: &mut Option<RegionCharge>,
        f: impl FnOnce(&mut Self),
    ) -> bool {
        if memo.as_ref().is_some_and(|charge| self.replay(charge)) {
            return false;
        }
        *memo = Some(self.record(f));
        true
    }

    /// The device's warp size.
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    fn finish(self) -> (BlockOut, Vec<PhaseStats>) {
        (self.out, self.phases)
    }
}

/// One logical thread inside a SIMT region. All cost accounting flows
/// through this handle.
pub struct Lane<'c> {
    /// Thread index within the block (`threadIdx.x`).
    pub tid: usize,
    /// Block index within the grid (`blockIdx.x`).
    pub block_id: usize,
    /// SIMT region this lane is executing in (sanitizer coordinates).
    region: u32,
    cost: &'c CostModel,
    cycles: u64,
    branch_signature: u64,
    atomic_ops: u64,
    global_ops: u64,
    comparisons: u64,
}

impl Lane<'_> {
    /// Charge `count` operations of class `op`.
    #[inline(always)]
    pub fn charge(&mut self, op: Op, count: u64) {
        self.cycles += self.cost.cycles(op, count);
        match op {
            Op::Atomic => self.atomic_ops += count,
            Op::GlobalLoad | Op::GlobalStore => self.global_ops += count,
            Op::Compare => self.comparisons += count,
            _ => {}
        }
    }

    /// Record a branch decision (for divergence accounting) and charge
    /// one branch op.
    #[inline(always)]
    pub fn branch(&mut self, taken: bool) -> bool {
        self.charge(Op::Branch, 1);
        self.branch_signature = fold_branch(self.branch_signature, taken);
        taken
    }

    /// Charge `count` base comparisons.
    #[inline(always)]
    pub fn compare(&mut self, count: u64) {
        self.charge(Op::Compare, count);
    }

    /// Charge `count` shared-memory accesses.
    #[inline(always)]
    pub fn shared(&mut self, count: u64) {
        self.charge(Op::Shared, count);
    }

    /// This lane's coordinates for the sanitizer.
    #[inline]
    fn site(&self) -> SiteCtx {
        SiteCtx {
            block: self.block_id as u32,
            region: self.region,
            tid: self.tid as u32,
        }
    }

    /// Sanitizer check for one device access, made while a session is
    /// live; `false` means suppress the access.
    #[inline]
    fn check<T: Elem>(&self, buf: &GpuBuf<T>, i: usize, kind: AccessKind) -> bool {
        crate::sanitizer::device_access(buf.meta(), buf.len(), i, kind, self.site())
    }

    /// Global load through the cost model.
    #[inline(always)]
    pub fn ld<T: Elem>(&mut self, buf: &GpuBuf<T>, i: usize) -> T {
        self.charge(Op::GlobalLoad, 1);
        if crate::sanitizer::enabled() && !self.check(buf, i, AccessKind::Read) {
            return T::default();
        }
        buf.load(i)
    }

    /// Global store through the cost model.
    #[inline(always)]
    pub fn st<T: Elem>(&mut self, buf: &GpuBuf<T>, i: usize, v: T) {
        self.charge(Op::GlobalStore, 1);
        if crate::sanitizer::enabled() && !self.check(buf, i, AccessKind::Write) {
            return;
        }
        buf.store_raw(i, v);
    }

    /// Bulk global load: read `dst.len()` consecutive elements starting
    /// at `start`. Each element is charged as one coalesced
    /// [`Op::GlobalLoad`], identical to `dst.len()` [`Lane::ld`] calls
    /// (the cost model is linear in the count), but in one charge call
    /// and — when no sanitizer session is active — one bulk copy.
    pub fn ld_slice<T: Elem>(&mut self, buf: &GpuBuf<T>, start: usize, dst: &mut [T]) {
        self.charge(Op::GlobalLoad, dst.len() as u64);
        if !crate::sanitizer::enabled() {
            buf.load_range(start, dst);
            return;
        }
        for (k, out) in dst.iter_mut().enumerate() {
            *out = if self.check(buf, start + k, AccessKind::Read) {
                buf.load(start + k)
            } else {
                T::default()
            };
        }
    }

    /// Bulk global store: write `src` to `src.len()` consecutive
    /// elements starting at `start`; the cost-model dual of
    /// [`Lane::ld_slice`].
    pub fn st_slice<T: Elem>(&mut self, buf: &GpuBuf<T>, start: usize, src: &[T]) {
        self.charge(Op::GlobalStore, src.len() as u64);
        let checked = crate::sanitizer::enabled();
        for (k, &v) in src.iter().enumerate() {
            if !checked || self.check(buf, start + k, AccessKind::Write) {
                buf.store_raw(start + k, v);
            }
        }
    }

    /// `atomicAdd`, returning the old value.
    #[inline(always)]
    pub fn atomic_add<T: Elem>(&mut self, buf: &GpuBuf<T>, i: usize, v: T) -> T {
        self.charge(Op::Atomic, 1);
        if crate::sanitizer::enabled() && !self.check(buf, i, AccessKind::Atomic) {
            return T::default();
        }
        buf.atomic_add(i, v)
    }

    /// Atomically reserve `count` consecutive slots of `target` by
    /// adding `count` to the cursor `cursor[i]`, returning the base of
    /// the reserved range — the paper's Algorithm 1 fill idiom
    /// (`idx = atomicAdd(&ptr[code], 1)` then `locs[idx] = pos`).
    ///
    /// Costs exactly one atomic op, like [`Lane::atomic_add`]. Under
    /// the sanitizer the reserved range of `target` is additionally
    /// recorded, so two cursors handing out overlapping slots of the
    /// same target are reported as an overlapping-reservation hazard,
    /// and the reserved slots count as initialized.
    #[inline(always)]
    pub fn atomic_reserve<T: Elem, U: Elem>(
        &mut self,
        cursor: &GpuBuf<T>,
        i: usize,
        count: T,
        target: &GpuBuf<U>,
    ) -> T {
        self.charge(Op::Atomic, 1);
        if !crate::sanitizer::enabled() {
            return cursor.atomic_add(i, count);
        }
        if !self.check(cursor, i, AccessKind::Atomic) {
            return T::default();
        }
        let base = cursor.atomic_add(i, count);
        crate::sanitizer::record_reservation(
            target.meta(),
            target.len(),
            base.into(),
            count.into(),
            self.site(),
        );
        base
    }

    /// Cycles charged to this lane so far in the current region.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{GpuU32, GpuU64};
    use crate::spec::DeviceSpec;

    fn tiny() -> Device {
        Device::new(DeviceSpec::test_tiny())
    }

    #[test]
    fn every_thread_runs_exactly_once() {
        let device = tiny();
        let counter = GpuU32::new(1);
        let cfg = LaunchConfig::new(7, 65); // deliberately not warp-aligned
        let stats = device.launch(cfg, "test", |ctx| {
            ctx.simt(|lane| {
                lane.atomic_add(&counter, 0, 1);
            });
        });
        assert_eq!(counter.load(0), 7 * 65);
        assert_eq!(stats.blocks, 7);
        assert_eq!(stats.atomic_ops, 7 * 65);
        // 65 threads = 3 warps (32 + 32 + 1) per block.
        assert_eq!(stats.warps, 7 * 3);
    }

    #[test]
    fn thread_and_block_ids_are_correct() {
        let device = tiny();
        let seen = GpuU32::new(4 * 64);
        device.launch(LaunchConfig::new(4, 64), "test", |ctx| {
            ctx.simt(|lane| {
                lane.st(&seen, lane.block_id * 64 + lane.tid, 1);
            });
        });
        assert!(seen.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn warp_cost_is_max_over_lanes() {
        let device = Device::with_cost_model(
            DeviceSpec::test_tiny(),
            CostModel {
                sync: 0,
                divergence_penalty: 0,
                ..CostModel::default()
            },
        );
        // One warp; lane t charges t ALU cycles. Warp cost must be 31.
        let stats = device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
            ctx.simt(|lane| {
                lane.charge(Op::Alu, lane.tid as u64);
            });
        });
        assert_eq!(stats.warp_cycles, 31);
        let total: u64 = (0..32).sum();
        assert_eq!(stats.lane_cycles, total);
        // mean lane cost is 15.5 against a warp max of 31 → exactly 0.5.
        assert!((stats.warp_efficiency(32) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn balanced_work_has_high_efficiency() {
        let device = Device::with_cost_model(
            DeviceSpec::test_tiny(),
            CostModel {
                sync: 0,
                divergence_penalty: 0,
                ..CostModel::default()
            },
        );
        let stats = device.launch(LaunchConfig::new(2, 64), "test", |ctx| {
            ctx.simt(|lane| lane.charge(Op::Alu, 100));
        });
        assert!((stats.warp_efficiency(32) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn divergence_is_detected_and_penalized() {
        let model = CostModel {
            sync: 0,
            divergence_penalty: 10,
            branch: 0,
            ..CostModel::default()
        };
        let device = Device::with_cost_model(DeviceSpec::test_tiny(), model);
        // Half the warp takes one path, half the other: 2 distinct paths.
        let stats = device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
            ctx.simt(|lane| {
                if lane.branch(lane.tid % 2 == 0) {
                    lane.charge(Op::Alu, 5);
                } else {
                    lane.charge(Op::Alu, 7);
                }
            });
        });
        assert_eq!(stats.divergence_events, 1);
        // max lane (7) + (2-1) * penalty (10) = 17.
        assert_eq!(stats.warp_cycles, 17);
    }

    #[test]
    fn uniform_branches_do_not_diverge() {
        let device = tiny();
        let stats = device.launch(LaunchConfig::new(1, 64), "test", |ctx| {
            ctx.simt(|lane| {
                lane.branch(true);
                lane.branch(false);
            });
        });
        assert_eq!(stats.divergence_events, 0);
    }

    #[test]
    fn simt_range_masks_threads() {
        let device = tiny();
        let counter = GpuU32::new(1);
        device.launch(LaunchConfig::new(1, 128), "test", |ctx| {
            ctx.simt_range(10..50, |lane| {
                assert!((10..50).contains(&lane.tid));
                lane.atomic_add(&counter, 0, 1);
            });
        });
        assert_eq!(counter.load(0), 40);
    }

    #[test]
    fn regions_are_barriers_shared_memory_is_coherent() {
        let device = tiny();
        let result = GpuU32::new(64);
        device.launch(LaunchConfig::new(1, 64), "test", |ctx| {
            let mut shared = vec![0u32; 64];
            ctx.simt(|lane| {
                lane.shared(1);
                shared[lane.tid] = lane.tid as u32;
            });
            // Barrier here: every lane may now read any slot.
            ctx.simt(|lane| {
                lane.shared(1);
                let other = shared[63 - lane.tid];
                lane.st(&result, lane.tid, other);
            });
        });
        let out = result.to_vec();
        for (tid, &v) in out.iter().enumerate() {
            assert_eq!(v, (63 - tid) as u32);
        }
    }

    #[test]
    fn modeled_time_scales_with_work() {
        let device = tiny();
        let small = device.launch(LaunchConfig::new(4, 64), "test", |ctx| {
            ctx.simt(|lane| lane.charge(Op::Alu, 1_000));
        });
        let large = device.launch(LaunchConfig::new(4, 64), "test", |ctx| {
            ctx.simt(|lane| lane.charge(Op::Alu, 100_000));
        });
        assert!(large.modeled_secs() > small.modeled_secs() * 10.0);
    }

    #[test]
    fn lpt_scheduling_balances_sms() {
        // test_tiny has 2 SMs and 2 warps in flight per SM. Four equal
        // single-warp blocks of cost C: each block contributes C/2
        // cycles (div_ceil by warps-in-flight 2), LPT splits 2+2, so
        // device_cycles = C.
        let device = Device::with_cost_model(
            DeviceSpec::test_tiny(),
            CostModel {
                sync: 0,
                divergence_penalty: 0,
                ..CostModel::default()
            },
        );
        let stats = device.launch(LaunchConfig::new(4, 32), "test", |ctx| {
            ctx.simt(|lane| lane.charge(Op::Alu, 1_000));
        });
        assert_eq!(stats.warp_cycles, 4_000);
        assert_eq!(stats.device_cycles, 1_000);
    }

    #[test]
    fn empty_grid_is_a_noop() {
        let device = tiny();
        let stats = device.launch(LaunchConfig::new(0, 32), "test", |ctx| {
            ctx.simt(|_| panic!("no blocks should run"));
        });
        assert_eq!(stats.blocks, 0);
        assert_eq!(stats.warp_cycles, 0);
    }

    #[test]
    fn zero_block_grid_semantics_are_a_counted_overhead_only_launch() {
        // The documented contract of LaunchConfig::new(0, τ): legal,
        // kernel body never runs, the launch is still counted and
        // charged the fixed launch overhead, and all work counters stay
        // zero.
        let device = tiny();
        let stats = device.launch(LaunchConfig::new(0, 64), "test", |_| {
            panic!("kernel body must not run for a zero-block grid")
        });
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.blocks, 0);
        assert_eq!(stats.warps, 0);
        assert_eq!(stats.device_cycles, 0);
        assert_eq!(stats.atomic_ops, 0);
        assert_eq!(stats.global_mem_ops, 0);
        assert!(stats.modeled_secs() > 0.0, "overhead is still modeled");
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        let device = tiny();
        device.launch(LaunchConfig::new(1, 512), "test", |_| {});
    }

    #[test]
    fn blocks_execute_sequentially_in_ascending_order() {
        // The execution model documented in the crate docs: blocks run
        // one after another on the launching thread, in block_id order.
        // Kernels (and the pipeline's collector pattern) rely on this
        // determinism, so it is pinned here.
        let device = tiny();
        let mut order = Vec::new();
        let launcher = std::thread::current().id();
        device.launch(LaunchConfig::new(16, 32), "test", |ctx| {
            assert_eq!(
                std::thread::current().id(),
                launcher,
                "blocks must run on the launching thread"
            );
            order.push(ctx.block_id);
        });
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_allocations_are_counted_then_reused() {
        let device = tiny();
        let round = |name: &str| {
            let buf = device.alloc::<u32>(100, name);
            device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
                ctx.simt(|lane| {
                    lane.st(&buf, lane.tid, 1);
                });
            })
        };
        let first = round("a");
        assert_eq!(first.pool_allocs, 1, "first round allocates");
        let second = round("b");
        assert_eq!(second.pool_allocs, 0, "second round reuses the pool");
        // Everything modeled is identical between the rounds.
        assert_eq!(first.warp_cycles, second.warp_cycles);
        assert_eq!(first.device_cycles, second.device_cycles);
    }

    #[test]
    fn bulk_slice_ops_charge_exactly_like_element_ops() {
        let device = tiny();
        let a = GpuU32::from_slice(&(0..64).collect::<Vec<u32>>());
        let b = GpuU32::new(64);
        let element = device.launch(LaunchConfig::new(1, 16), "test", |ctx| {
            ctx.simt(|lane| {
                let lo = lane.tid * 4;
                for i in lo..lo + 4 {
                    let v = lane.ld(&a, i);
                    lane.st(&b, i, v);
                }
            });
        });
        let bulk = device.launch(LaunchConfig::new(1, 16), "test", |ctx| {
            ctx.simt(|lane| {
                let lo = lane.tid * 4;
                let mut tmp = [0u32; 4];
                lane.ld_slice(&a, lo, &mut tmp);
                lane.st_slice(&b, lo, &tmp);
            });
        });
        assert_eq!(b.to_vec(), a.to_vec());
        assert_eq!(element.warp_cycles, bulk.warp_cycles);
        assert_eq!(element.lane_cycles, bulk.lane_cycles);
        assert_eq!(element.global_mem_ops, bulk.global_mem_ops);
        assert_eq!(element.device_cycles, bulk.device_cycles);
    }

    #[test]
    fn bulk_u64_slice_ops_round_trip() {
        let device = tiny();
        let src: Vec<u64> = (0..32).map(|i| (i as u64) << 40 | i as u64).collect();
        let a = GpuU64::from_slice(&src);
        let b = GpuU64::new(32);
        let stats = device.launch(LaunchConfig::new(1, 8), "test", |ctx| {
            ctx.simt(|lane| {
                let lo = lane.tid * 4;
                let mut tmp = [0u64; 4];
                lane.ld_slice(&a, lo, &mut tmp);
                lane.st_slice(&b, lo, &tmp);
            });
        });
        assert_eq!(b.to_vec(), src);
        assert_eq!(stats.global_mem_ops, 64);
    }

    /// Test observer that clones every record into a list.
    #[derive(Default)]
    struct Recorder {
        records: Mutex<Vec<(String, LaunchStats, Vec<PhaseStats>)>>,
    }

    impl LaunchObserver for Recorder {
        fn on_launch(&self, record: LaunchRecord<'_>) {
            self.records.lock().push((
                record.name.to_string(),
                record.stats.clone(),
                record.phases.to_vec(),
            ));
        }
    }

    #[test]
    fn observer_sees_every_launch_with_name_and_stats() {
        let device = tiny();
        let recorder = Arc::new(Recorder::default());
        device.set_observer(Some(recorder.clone()));
        assert!(device.observer().is_some());
        let counter = GpuU32::new(1);
        let stats = device.launch(LaunchConfig::new(2, 32), "count", |ctx| {
            ctx.simt(|lane| {
                lane.atomic_add(&counter, 0, 1);
            });
        });
        device.set_observer(None);
        assert!(device.observer().is_none());
        device.launch(LaunchConfig::new(1, 32), "silent", |ctx| {
            ctx.simt(|_| {});
        });
        let records = recorder.records.lock();
        assert_eq!(records.len(), 1, "removed observer sees nothing");
        let (name, recorded, phases) = &records[0];
        assert_eq!(name, "count");
        assert_eq!(recorded, &stats, "record carries the returned stats");
        assert!(phases.is_empty(), "no phase markers ⇒ no phase rows");
    }

    #[test]
    fn phases_partition_region_counters_and_merge_across_blocks() {
        let device = tiny();
        let recorder = Arc::new(Recorder::default());
        device.set_observer(Some(recorder.clone()));
        let sink = GpuU32::new(1);
        let stats = device.launch(LaunchConfig::new(3, 32), "test", |ctx| {
            ctx.simt(|lane| lane.compare(5)); // before any phase marker
            ctx.phase("gather");
            ctx.simt(|lane| lane.compare(2));
            ctx.phase("scatter");
            ctx.simt(|lane| {
                lane.atomic_add(&sink, 0, 1);
            });
            ctx.phase("gather"); // resumes the existing row
            ctx.simt(|lane| lane.compare(1));
        });
        let records = recorder.records.lock();
        let (_, _, phases) = &records[0];
        assert_eq!(
            phases.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            vec!["gather", "scatter"],
            "rows are in first-marked order, merged across 3 blocks"
        );
        let gather = &phases[0];
        let scatter = &phases[1];
        assert_eq!(gather.comparisons, 3 * 32 * (2 + 1));
        assert_eq!(gather.atomic_ops, 0);
        assert_eq!(scatter.atomic_ops, 3 * 32);
        assert_eq!(scatter.comparisons, 0);
        // The pre-marker region is in the totals but in no phase.
        assert_eq!(stats.comparisons, 3 * 32 * (5 + 2 + 1));
        let phase_warp_cycles: u64 = phases.iter().map(|p| p.warp_cycles).sum();
        assert!(phase_warp_cycles < stats.warp_cycles);
        assert_eq!(
            phases.iter().map(|p| p.warps).sum::<u64>(),
            3 * 3,
            "three marked regions × one warp × three blocks"
        );
    }

    #[test]
    fn observed_launch_models_identically_to_unobserved() {
        // The zero-cost contract from the observe module docs: phase
        // markers and the observer change no modeled statistic.
        let run = |device: &Device| {
            let sink = GpuU32::new(1);
            device.launch(LaunchConfig::new(2, 64), "test", |ctx| {
                ctx.phase("a");
                ctx.simt(|lane| {
                    if lane.branch(lane.tid % 2 == 0) {
                        lane.compare(3);
                    }
                });
                ctx.phase("b");
                ctx.simt(|lane| {
                    lane.atomic_add(&sink, 0, 1);
                });
            })
        };
        let plain = tiny();
        let observed = tiny();
        observed.set_observer(Some(Arc::new(Recorder::default())));
        let a = run(&plain);
        let b = run(&observed);
        assert_eq!(a.warp_cycles, b.warp_cycles);
        assert_eq!(a.lane_cycles, b.lane_cycles);
        assert_eq!(a.device_cycles, b.device_cycles);
        assert_eq!(a.modeled_time, b.modeled_time);
        assert_eq!(a.divergence_events, b.divergence_events);
        assert_eq!(a.comparisons, b.comparisons);
    }

    /// Lane `tid`'s branch path when a region has `paths` of them.
    fn path_of(tid: usize, paths: usize) -> u64 {
        (tid * 7 % paths) as u64
    }

    /// The charge a lane of [`run_lanes`] makes, as a host-computed
    /// total: path 0 decides one branch, the others two.
    fn computed_lane(tid: usize, paths: usize) -> LaneCharge {
        let path = path_of(tid, paths);
        LaneCharge::on_path(path)
            .with(Op::Branch, 1 + u64::from(path > 0))
            .with(Op::Alu, tid as u64 % 5)
            .with(Op::Compare, 3 * path)
            .with(Op::GlobalLoad, tid as u64 % 2)
            .with(Op::Atomic, u64::from(tid.is_multiple_of(11)))
            .with(Op::Shared, 2)
    }

    /// Lanes that charge what [`computed_lane`] computes, branching
    /// their way onto the same path.
    fn run_lanes(ctx: &mut BlockCtx<'_>, threads: Range<usize>, paths: usize) {
        ctx.simt_range(threads, |lane| {
            let path = path_of(lane.tid, paths);
            if !lane.branch(path == 0) {
                lane.branch(path == 1);
            }
            lane.charge(Op::Alu, lane.tid as u64 % 5);
            lane.compare(3 * path);
            lane.charge(Op::GlobalLoad, lane.tid as u64 % 2);
            lane.charge(Op::Atomic, u64::from(lane.tid % 11 == 0));
            lane.shared(2);
        });
    }

    #[test]
    fn computed_region_charges_what_running_its_lanes_charges() {
        // τ below one warp, and a partial last warp, over the whole
        // block and a masked sub-range, on one to three paths.
        for block_dim in [20, 70] {
            for threads in [0..block_dim, 3..block_dim - 2] {
                for paths in 1..=3 {
                    for observed in [false, true] {
                        let launch = |computed: bool| {
                            let device = tiny();
                            let recorder = Arc::new(Recorder::default());
                            if observed {
                                device.set_observer(Some(recorder.clone()));
                            }
                            let mut stats =
                                device.launch(LaunchConfig::new(2, block_dim), "test", |ctx| {
                                    ctx.phase("region");
                                    if computed {
                                        ctx.simt_computed(threads.clone(), |tid| {
                                            computed_lane(tid, paths)
                                        });
                                    } else {
                                        run_lanes(ctx, threads.clone(), paths);
                                    }
                                });
                            stats.wall_time = Duration::ZERO;
                            let phases = recorder.records.lock().pop().map(|r| r.2);
                            (stats, phases)
                        };
                        let (run, computed) = (launch(false), launch(true));
                        let case = format!("τ={block_dim} {threads:?} paths={paths}");
                        assert_eq!(computed, run, "{case} observed={observed}");
                        assert_eq!(run.1.is_some(), observed);
                        assert_eq!(run.0.divergence_events > 0, paths > 1, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn computed_region_advances_the_sanitizer_region_ordinal() {
        // Each block writes its half of `buf`, runs or computes a region,
        // then reads one element past the end; the report names the
        // region ordinal of that read.
        let probe = |computed: bool| -> Vec<(u32, u32)> {
            let device = tiny();
            let buf = GpuU32::named(64, "buf");
            let session = crate::sanitizer::Session::start();
            device.launch(LaunchConfig::new(2, 32), "probe", |ctx| {
                let base = ctx.block_id * 32;
                ctx.simt(|lane| lane.st(&buf, base + lane.tid, 1));
                if computed {
                    ctx.simt_computed(0..32, |tid| computed_lane(tid, 2));
                } else {
                    run_lanes(ctx, 0..32, 2);
                }
                ctx.simt_range(0..1, |lane| {
                    lane.ld(&buf, 64 + lane.block_id);
                });
            });
            let report = session.finish();
            report
                .hazards
                .iter()
                .map(|h| (h.first.block, h.first.region))
                .collect()
        };
        assert_eq!(probe(false), vec![(0, 2), (1, 2)], "write, region, probe");
        assert_eq!(probe(true), probe(false));
    }

    #[test]
    fn pool_peak_bytes_gauge_reports_footprint() {
        let device = tiny();
        let buf = device.alloc::<u32>(100, "a"); // class 128 → 512 bytes
        let stats = device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
            ctx.simt(|lane| {
                lane.st(&buf, lane.tid, 1);
            });
        });
        assert_eq!(stats.pool_peak_bytes, 512);
        let classes = device.pool_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!((classes[0].len, classes[0].buffers), (128, 1));
        assert_eq!(classes[0].bytes(), stats.pool_peak_bytes);
    }
}
