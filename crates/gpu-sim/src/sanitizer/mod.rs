//! Shadow-memory hazard sanitizer for the SIMT simulator.
//!
//! The simulator executes a launch's blocks one after another, and a
//! block's lanes one after another, so whole families of CUDA bugs — inter-block data races, missing
//! `__syncthreads()`, out-of-bounds indexing, reads of uninitialized
//! `cudaMalloc` memory, double-booked `atomicAdd` slot reservations —
//! run *deterministically correct* here while they would corrupt
//! results on real hardware. This module makes them visible: while a
//! [`Session`] is active, every instrumented access to a
//! [`crate::GpuBuf`] from a [`crate::Lane`] is logged
//! with its full SIMT coordinates (launch, block, SIMT region, warp,
//! lane) and checked by five detectors (see
//! [`HazardClass`]).
//!
//! # Usage
//!
//! ```
//! use gpu_sim::{sanitizer, Device, DeviceSpec, GpuU32, LaunchConfig};
//!
//! let session = sanitizer::Session::start();
//! let device = Device::new(DeviceSpec::test_tiny());
//! let buf = GpuU32::named(64, "out");
//! device.launch(LaunchConfig::new(2, 32), "fill", |block| {
//!     let base = block.block_id * block.block_dim;
//!     block.simt(|lane| {
//!         lane.st(&buf, base + lane.tid, (base + lane.tid) as u32);
//!     });
//! });
//! let report = session.finish();
//! assert!(report.is_clean(), "{report}");
//! ```
//!
//! # Model
//!
//! * Sessions are global and serialized: [`Session::start`] blocks
//!   until any other live session finishes. A session observes only
//!   launches made from the thread that started it (a launch runs its
//!   blocks on the launching thread), so concurrently running tests
//!   cannot pollute each other's reports.
//! * Only accesses made *through a lane* are instrumented. Host-side
//!   `load`/`store`/`to_vec` are treated like `cudaMemcpy`: they mark
//!   elements initialized but never race (the simulator only runs them
//!   between launches).
//! * Atomic/atomic, atomic/read and read/read pairs never conflict —
//!   matching `compute-sanitizer --tool racecheck` semantics and
//!   Algorithm 1's reliance on `atomicAdd` for conflict avoidance.
//! * Hazards are capped per launch ([`MAX_HAZARDS_PER_LAUNCH`]); the
//!   overflow is counted in [`SanitizeReport::suppressed`] so a noisy
//!   launch cannot OOM the report.

mod hazard;
pub mod report;
mod shadow;

#[cfg(test)]
pub mod fixtures;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

pub use report::{AccessKind, AccessSite, Hazard, HazardClass, SanitizeReport};

pub(crate) use shadow::SiteCtx;

use shadow::{Access, BufState, Capture};

/// Hazards recorded per launch before further ones are only counted.
pub const MAX_HAZARDS_PER_LAUNCH: usize = 64;

/// Fast-path gate: checked (relaxed) on every instrumented access.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes sessions across threads (held for a session's lifetime).
static GATE: Mutex<()> = Mutex::new(());

/// The active session's shadow state.
static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Identity of one instrumented launch.
#[derive(Clone, Debug)]
pub(crate) struct LaunchMeta {
    pub kernel: String,
    pub warp_size: u32,
}

struct State {
    /// The thread that started the session. Instrumentation is confined
    /// to it: a launch runs every block on the launching thread, and
    /// confining the session keeps launches made on other threads (by
    /// concurrently running tests, or by other devices) out of the
    /// capture.
    owner: ThreadId,
    launches: Vec<LaunchMeta>,
    buffers: HashMap<u64, BufState>,
    current: Option<Capture>,
    /// Hazards recorded for the launch in flight (capped).
    launch_hazards: usize,
    report: SanitizeReport,
}

impl State {
    fn new_for_current_thread() -> State {
        State {
            owner: std::thread::current().id(),
            launches: Vec::new(),
            buffers: HashMap::new(),
            current: None,
            launch_hazards: 0,
            report: SanitizeReport::default(),
        }
    }

    fn push_hazard(&mut self, hazard: Hazard) {
        if self.launch_hazards < MAX_HAZARDS_PER_LAUNCH {
            self.launch_hazards += 1;
            self.report.hazards.push(hazard);
        } else {
            self.report.suppressed += 1;
        }
    }

    fn buf_state(&mut self, meta: &crate::memory::BufMeta, _len: usize) -> &mut BufState {
        self.buffers.entry(meta.id()).or_insert_with(|| BufState {
            name: meta.name().to_string(),
            uninit: None,
        })
    }

    fn current_launch(&self) -> Option<(u32, &LaunchMeta)> {
        let idx = self.launches.len().checked_sub(1)?;
        Some((idx as u32, &self.launches[idx]))
    }
}

fn lock_state() -> MutexGuard<'static, Option<State>> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` on the active session's state, but only when called from the
/// session's owning thread. All hooks funnel through here.
fn with_active<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let tid = std::thread::current().id();
    let mut guard = lock_state();
    let state = guard.as_mut()?;
    if state.owner != tid {
        return None;
    }
    Some(f(state))
}

/// An active sanitizing session. Create with [`Session::start`]; all
/// kernel launches and instrumented accesses between then and
/// [`Session::finish`] are checked.
#[must_use = "a Session that is immediately dropped sanitizes nothing"]
pub struct Session {
    _gate: MutexGuard<'static, ()>,
}

impl Session {
    /// Begin sanitizing. Blocks until any other live session finishes.
    pub fn start() -> Session {
        let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        *lock_state() = Some(State::new_for_current_thread());
        ENABLED.store(true, Ordering::SeqCst);
        Session { _gate: gate }
    }

    /// Stop sanitizing and return everything observed, with adjacent
    /// same-conflict elements coalesced into ranges.
    pub fn finish(self) -> SanitizeReport {
        ENABLED.store(false, Ordering::SeqCst);
        let mut report = lock_state()
            .take()
            .map(|state| state.report)
            .unwrap_or_default();
        report.coalesce();
        report
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // `finish` also runs this (idempotent); a leaked/panicked
        // session must not leave the instrumentation hot.
        ENABLED.store(false, Ordering::SeqCst);
        lock_state().take();
    }
}

/// `true` while a [`Session`] is live on any thread. A caller that
/// would spread launches over several threads keeps them on one while
/// this holds, so the session sees every launch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Called by `Device` before running a kernel's blocks.
pub(crate) fn begin_launch(kernel: &str, warp_size: u32) {
    with_active(|state| {
        state.launches.push(LaunchMeta {
            kernel: kernel.to_string(),
            warp_size: warp_size.max(1),
        });
        state.report.launches += 1;
        state.launch_hazards = 0;
        state.current = Some(Capture::default());
    });
}

/// Called by `Device` after a launch's blocks finish: runs the
/// launch-scoped detectors over the capture.
pub(crate) fn end_launch() {
    with_active(|state| {
        let Some(capture) = state.current.take() else {
            return;
        };
        let Some((launch, meta)) = state.current_launch() else {
            return;
        };
        let meta = meta.clone();
        let mut found = Vec::new();
        hazard::detect(capture, launch, &meta, &state.buffers, |h| found.push(h));
        for hazard in found {
            state.push_hazard(hazard);
        }
    });
}

/// Check + log one device access. Returns `false` when the access must
/// be suppressed (out of bounds): the caller skips the store / returns
/// 0 for the load so the launch can finish and report.
pub(crate) fn device_access(
    meta: &crate::memory::BufMeta,
    len: usize,
    elem: usize,
    kind: AccessKind,
    site: SiteCtx,
) -> bool {
    with_active(|state| {
        state.report.accesses_checked += 1;
        let Some((launch, launch_meta)) = state.current_launch() else {
            return true;
        };
        let launch_meta = launch_meta.clone();
        let buf = state.buf_state(meta, len);
        let buffer = buf.name.clone();

        if elem >= len {
            let first = hazard::site_at(site, kind, launch, &launch_meta);
            state.push_hazard(Hazard {
                class: HazardClass::OutOfBounds,
                buffer,
                elems: elem..elem + 1,
                first,
                second: None,
            });
            return false;
        }

        let uninit_read = kind != AccessKind::Write && buf.is_uninit(elem);
        if kind != AccessKind::Read {
            buf.mark_init(elem, elem + 1);
        }
        if uninit_read {
            let first = hazard::site_at(site, kind, launch, &launch_meta);
            state.push_hazard(Hazard {
                class: HazardClass::UninitRead,
                buffer,
                elems: elem..elem + 1,
                first,
                second: None,
            });
        }

        if let Some(capture) = state.current.as_mut() {
            capture.record_access(meta.id(), elem, Access { site, kind });
        }
        true
    })
    .unwrap_or(true)
}

/// Log an `atomic_reserve` slot reservation on `target`.
pub(crate) fn record_reservation(
    target: &crate::memory::BufMeta,
    target_len: usize,
    base: u64,
    count: u64,
    site: SiteCtx,
) {
    with_active(|state| {
        // Reserved slots will be written by this lane; mark them
        // initialized and remember the range for the overlap sweep.
        let buf = state.buf_state(target, target_len);
        buf.mark_init(
            base as usize,
            (base + count).min(target_len as u64) as usize,
        );
        if let Some(capture) = state.current.as_mut() {
            capture
                .reservations
                .entry(target.id())
                .or_default()
                .push(shadow::Reservation { base, count, site });
        }
    });
}

/// Host-side write (store/zero/from_slice): marks elements initialized.
pub(crate) fn host_write(meta: &crate::memory::BufMeta, lo: usize, hi: usize) {
    with_active(|state| {
        if let Some(buf) = state.buffers.get_mut(&meta.id()) {
            buf.mark_init(lo, hi);
        }
    });
}

/// Register a buffer allocated uninitialized (`alloc_uninit`): every
/// element starts flagged until a host or device write covers it.
pub(crate) fn register_uninit(meta: &crate::memory::BufMeta, len: usize) {
    with_active(|state| {
        state.buffers.insert(
            meta.id(),
            BufState {
                name: meta.name().to_string(),
                uninit: Some(vec![true; len]),
            },
        );
    });
}
