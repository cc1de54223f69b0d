//! Simulated global device memory.
//!
//! A launch runs its blocks one after another on the launching thread,
//! and a block its lanes one after another (see [`crate::exec`]), so no
//! two device accesses ever overlap: a buffer is a plain vector of
//! [`Cell`]s, and `atomicAdd` is a read followed by a write. A buffer
//! is therefore `Send` but not `Sync`, and belongs to the thread that
//! launches on it. What real hardware would run concurrently — blocks
//! writing one slot, lanes of one region reading each other's writes —
//! runs deterministically here, and the sanitizer
//! ([`crate::sanitizer`]) reports it.
//!
//! Every buffer carries a unique identity and a name
//! ([`GpuBuf::named`]), and host-side writes report to the sanitizer so
//! it can track element initialization. Host-side reads and writes are
//! *not* hazard-checked: the simulator only runs them between launches,
//! like `cudaMemcpy` on a synchronized stream.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::pool::sealed;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Sanitizer-visible identity of a device buffer.
#[derive(Clone, Debug)]
pub(crate) struct BufMeta {
    id: u64,
    name: Arc<str>,
}

impl BufMeta {
    pub(crate) fn new(name: &str) -> BufMeta {
        BufMeta {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }
}

/// An element type of device memory: `u32` or `u64`. Sealed, because
/// a device's buffer pool keeps free lists per element type.
pub trait Elem: Copy + Default + Into<u64> + sealed::Sealed + 'static {
    /// `self + rhs`, wrapping on overflow like CUDA's `atomicAdd`.
    fn wrapping_add(self, rhs: Self) -> Self;
}

impl Elem for u32 {
    #[inline(always)]
    fn wrapping_add(self, rhs: u32) -> u32 {
        u32::wrapping_add(self, rhs)
    }
}

impl Elem for u64 {
    #[inline(always)]
    fn wrapping_add(self, rhs: u64) -> u64 {
        u64::wrapping_add(self, rhs)
    }
}

/// Default name for buffers allocated through the un-named constructors.
const UNNAMED: &str = "unnamed";

/// A global-memory buffer of `T`.
pub struct GpuBuf<T: Elem> {
    data: Vec<Cell<T>>,
    meta: BufMeta,
}

/// A buffer of `u32` (locations, pointers, lengths — the index's
/// `ptrs`/`locs` arrays live here).
pub type GpuU32 = GpuBuf<u32>;

/// A buffer of `u64` (packed `(seed code, location)` pairs).
pub type GpuU64 = GpuBuf<u64>;

impl<T: Elem> GpuBuf<T> {
    /// Allocate `len` zeroed elements.
    pub fn new(len: usize) -> GpuBuf<T> {
        Self::named(len, UNNAMED)
    }

    /// Allocate `len` zeroed elements under `name` (what sanitizer
    /// reports call the buffer). Zeroing counts as initialization, like
    /// `cudaMemset`.
    pub fn named(len: usize, name: &str) -> GpuBuf<T> {
        Self::from_storage(vec![Cell::new(T::default()); len], name, false)
    }

    /// Allocate `len` elements *without* initializing them, like
    /// `cudaMalloc`. The storage is physically zeroed (this is a
    /// simulator), but under an active sanitizer session every element
    /// is flagged and a read before the first write reports an
    /// uninitialized-read hazard.
    pub fn alloc_uninit(len: usize, name: &str) -> GpuBuf<T> {
        Self::from_storage(vec![Cell::new(T::default()); len], name, true)
    }

    /// Wrap storage as a new buffer with a fresh identity. `uninit`
    /// follows the [`GpuBuf::alloc_uninit`] contract (contents
    /// undefined, reads-before-writes flagged); otherwise the caller
    /// has zeroed the storage and this counts as initialization.
    pub(crate) fn from_storage(data: Vec<Cell<T>>, name: &str, uninit: bool) -> GpuBuf<T> {
        let buf = GpuBuf {
            data,
            meta: BufMeta::new(name),
        };
        if uninit {
            crate::sanitizer::register_uninit(&buf.meta, buf.len());
        }
        buf
    }

    /// Surrender the storage (to a buffer pool free list), leaving the
    /// buffer empty.
    pub(crate) fn take_data(&mut self) -> Vec<Cell<T>> {
        std::mem::take(&mut self.data)
    }

    /// Copy a host slice to the device.
    pub fn from_slice(src: &[T]) -> GpuBuf<T> {
        GpuBuf {
            data: src.iter().copied().map(Cell::new).collect(),
            meta: BufMeta::new(UNNAMED),
        }
    }

    /// Sanitizer identity of this buffer.
    pub(crate) fn meta(&self) -> &BufMeta {
        &self.meta
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Plain element read.
    #[inline(always)]
    pub fn load(&self, i: usize) -> T {
        self.data[i].get()
    }

    /// Plain element write (host-side; marks the element initialized).
    #[inline(always)]
    pub fn store(&self, i: usize, v: T) {
        if crate::sanitizer::enabled() {
            crate::sanitizer::host_write(&self.meta, i, i + 1);
        }
        self.data[i].set(v);
    }

    /// Element write without the host-side init-marking hook; used by
    /// `Lane` accessors, which report to the sanitizer themselves.
    #[inline(always)]
    pub(crate) fn store_raw(&self, i: usize, v: T) {
        self.data[i].set(v);
    }

    /// `atomicAdd(mem, val)`: adds and returns the *old* value, exactly
    /// as the CUDA intrinsic the paper's Algorithm 1 relies on.
    #[inline(always)]
    pub fn atomic_add(&self, i: usize, v: T) -> T {
        let cell = &self.data[i];
        cell.replace(cell.get().wrapping_add(v))
    }

    /// Copy back to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.data.iter().map(Cell::get).collect()
    }

    /// Bulk host-side read: copy `dst.len()` elements starting at
    /// `start` into `dst` (one `cudaMemcpy`, not `len` element reads).
    pub fn load_range(&self, start: usize, dst: &mut [T]) {
        if dst.is_empty() {
            return;
        }
        for (cell, out) in self.data[start..start + dst.len()].iter().zip(dst) {
            *out = cell.get();
        }
    }

    /// Bulk host-side write: copy `src` into the buffer starting at
    /// `start`, marking the range initialized with one sanitizer report.
    pub fn store_range(&self, start: usize, src: &[T]) {
        if src.is_empty() {
            return;
        }
        if crate::sanitizer::enabled() {
            crate::sanitizer::host_write(&self.meta, start, start + src.len());
        }
        for (cell, &v) in self.data[start..start + src.len()].iter().zip(src) {
            cell.set(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let buf = GpuU32::new(8);
        assert_eq!(buf.to_vec(), vec![0; 8]);
        assert_eq!(buf.len(), 8);
    }

    #[test]
    fn from_slice_round_trips() {
        let buf = GpuU32::from_slice(&[3, 1, 4, 1, 5]);
        assert_eq!(buf.to_vec(), vec![3, 1, 4, 1, 5]);
        let big = GpuU64::from_slice(&[u64::MAX, 0]);
        assert_eq!(big.to_vec(), vec![u64::MAX, 0]);
    }

    #[test]
    fn atomic_add_returns_old_value_and_wraps() {
        let buf = GpuU32::new(1);
        assert_eq!(buf.atomic_add(0, 5), 0);
        assert_eq!(buf.atomic_add(0, 2), 5);
        assert_eq!(buf.load(0), 7);
        assert_eq!(buf.atomic_add(0, u32::MAX), 7);
        assert_eq!(buf.load(0), 6, "wraps like the hardware intrinsic");
        let big = GpuU64::from_slice(&[u64::MAX]);
        assert_eq!(big.atomic_add(0, 2), u64::MAX);
        assert_eq!(big.load(0), 1);
    }

    #[test]
    fn bulk_host_copies_round_trip() {
        let buf = GpuU64::new(6);
        buf.store_range(2, &[7, 8, 9]);
        let mut out = [0u64; 4];
        buf.load_range(1, &mut out);
        assert_eq!(out, [0, 7, 8, 9]);
    }

    #[test]
    fn alloc_uninit_is_physically_zeroed() {
        // Outside a sanitizer session, alloc_uninit behaves like new.
        let buf = GpuU32::alloc_uninit(4, "scratch");
        assert_eq!(buf.to_vec(), vec![0; 4]);
        let big = GpuU64::alloc_uninit(2, "scratch64");
        assert_eq!(big.to_vec(), vec![0; 2]);
    }

    #[test]
    fn buffer_ids_are_unique_and_names_stick() {
        let a = GpuU32::named(1, "a");
        let b = GpuU64::named(1, "b");
        assert_ne!(a.meta().id(), b.meta().id());
        assert_eq!(a.meta().name(), "a");
        assert_eq!(b.meta().name(), "b");
        assert_eq!(GpuU32::new(1).meta().name(), "unnamed");
    }
}
