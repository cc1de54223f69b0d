//! Simulated global device memory.
//!
//! Blocks run concurrently on different CPU threads, so global buffers
//! use relaxed atomics per element. Relaxed is sufficient: the
//! simulator's launch boundary is a full synchronization point (rayon
//! join), matching a CUDA kernel-launch boundary, and within a launch
//! the paper's algorithms only communicate through `atomicAdd`-reserved
//! disjoint slots.
//!
//! With the `sanitize` feature (default), every buffer carries a unique
//! identity and a name ([`GpuU32::named`]), and host-side writes report
//! to the sanitizer so it can track element initialization. Host-side
//! reads and writes are *not* hazard-checked: the simulator only runs
//! them between launches, like `cudaMemcpy` on a synchronized stream.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

#[cfg(feature = "sanitize")]
mod ident {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

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
}

#[cfg(feature = "sanitize")]
pub(crate) use ident::BufMeta;

/// Default name for buffers allocated through the un-named constructors.
const UNNAMED: &str = "unnamed";

/// A global-memory buffer of `u32` (locations, pointers, lengths — the
/// index's `ptrs`/`locs` arrays live here).
pub struct GpuU32 {
    data: Vec<AtomicU32>,
    #[cfg(feature = "sanitize")]
    meta: BufMeta,
}

impl GpuU32 {
    /// Allocate `len` zeroed elements.
    pub fn new(len: usize) -> GpuU32 {
        Self::named(len, UNNAMED)
    }

    /// Allocate `len` zeroed elements under `name` (what sanitizer
    /// reports call the buffer). Zeroing counts as initialization, like
    /// `cudaMemset`.
    pub fn named(len: usize, name: &str) -> GpuU32 {
        #[cfg(not(feature = "sanitize"))]
        let _ = name;
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicU32::new(0));
        GpuU32 {
            data,
            #[cfg(feature = "sanitize")]
            meta: BufMeta::new(name),
        }
    }

    /// Allocate `len` elements *without* initializing them, like
    /// `cudaMalloc`. The storage is physically zeroed (this is a
    /// simulator), but under an active sanitizer session every element
    /// is flagged and a read before the first write reports an
    /// uninitialized-read hazard.
    pub fn alloc_uninit(len: usize, name: &str) -> GpuU32 {
        let buf = Self::named(len, name);
        #[cfg(feature = "sanitize")]
        crate::sanitizer::register_uninit(&buf.meta, len);
        buf
    }

    /// Wrap recycled pool storage as a new buffer with a fresh identity.
    /// `uninit` follows the [`GpuU32::alloc_uninit`] contract (contents
    /// undefined, reads-before-writes flagged); otherwise the pool has
    /// already zeroed the storage and this counts as initialization.
    pub(crate) fn from_pool(data: Vec<AtomicU32>, name: &str, uninit: bool) -> GpuU32 {
        #[cfg(not(feature = "sanitize"))]
        let _ = name;
        let buf = GpuU32 {
            data,
            #[cfg(feature = "sanitize")]
            meta: BufMeta::new(name),
        };
        #[cfg(feature = "sanitize")]
        if uninit {
            crate::sanitizer::register_uninit(&buf.meta, buf.len());
        }
        #[cfg(not(feature = "sanitize"))]
        let _ = uninit;
        buf
    }

    /// Surrender the storage (to a buffer pool free list).
    pub(crate) fn into_data(self) -> Vec<AtomicU32> {
        self.data
    }

    /// Copy a host slice to the device.
    pub fn from_slice(src: &[u32]) -> GpuU32 {
        Self::from_slice_named(src, UNNAMED)
    }

    /// Copy a host slice to the device, naming the buffer.
    pub fn from_slice_named(src: &[u32], name: &str) -> GpuU32 {
        #[cfg(not(feature = "sanitize"))]
        let _ = name;
        GpuU32 {
            data: src.iter().map(|&v| AtomicU32::new(v)).collect(),
            #[cfg(feature = "sanitize")]
            meta: BufMeta::new(name),
        }
    }

    /// Sanitizer identity of this buffer.
    #[cfg(feature = "sanitize")]
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
    pub fn load(&self, i: usize) -> u32 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Plain element write (host-side; marks the element initialized).
    #[inline(always)]
    pub fn store(&self, i: usize, v: u32) {
        #[cfg(feature = "sanitize")]
        if crate::sanitizer::enabled() {
            crate::sanitizer::host_write(&self.meta, i, i + 1);
        }
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Element write without the host-side init-marking hook; used by
    /// `Lane` accessors, which report to the sanitizer themselves.
    #[inline(always)]
    pub(crate) fn store_raw(&self, i: usize, v: u32) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// `atomicAdd(mem, val)`: adds and returns the *old* value, exactly
    /// as the CUDA intrinsic the paper's Algorithm 1 relies on.
    #[inline(always)]
    pub fn atomic_add(&self, i: usize, v: u32) -> u32 {
        self.data[i].fetch_add(v, Ordering::Relaxed)
    }

    /// `atomicMax`.
    #[inline(always)]
    pub fn atomic_max(&self, i: usize, v: u32) -> u32 {
        self.data[i].fetch_max(v, Ordering::Relaxed)
    }

    /// Zero every element (host-side, like `cudaMemset`; marks the
    /// whole buffer initialized).
    pub fn zero(&self) {
        #[cfg(feature = "sanitize")]
        if crate::sanitizer::enabled() {
            crate::sanitizer::host_write(&self.meta, 0, self.data.len());
        }
        for cell in &self.data {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Copy back to the host.
    pub fn to_vec(&self) -> Vec<u32> {
        self.data
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bulk host-side read: copy `dst.len()` elements starting at
    /// `start` into `dst` (one `cudaMemcpy`, not `len` element reads).
    pub fn load_range(&self, start: usize, dst: &mut [u32]) {
        if dst.is_empty() {
            return;
        }
        for (cell, out) in self.data[start..start + dst.len()].iter().zip(dst) {
            *out = cell.load(Ordering::Relaxed);
        }
    }

    /// Bulk host-side write: copy `src` into the buffer starting at
    /// `start`, marking the range initialized with one sanitizer report.
    pub fn store_range(&self, start: usize, src: &[u32]) {
        if src.is_empty() {
            return;
        }
        #[cfg(feature = "sanitize")]
        if crate::sanitizer::enabled() {
            crate::sanitizer::host_write(&self.meta, start, start + src.len());
        }
        for (cell, &v) in self.data[start..start + src.len()].iter().zip(src) {
            cell.store(v, Ordering::Relaxed);
        }
    }
}

/// A global-memory buffer of `u64` (packed match triplets).
pub struct GpuU64 {
    data: Vec<AtomicU64>,
    #[cfg(feature = "sanitize")]
    meta: BufMeta,
}

impl GpuU64 {
    /// Allocate `len` zeroed elements.
    pub fn new(len: usize) -> GpuU64 {
        Self::named(len, UNNAMED)
    }

    /// Allocate `len` zeroed elements under `name`.
    pub fn named(len: usize, name: &str) -> GpuU64 {
        #[cfg(not(feature = "sanitize"))]
        let _ = name;
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicU64::new(0));
        GpuU64 {
            data,
            #[cfg(feature = "sanitize")]
            meta: BufMeta::new(name),
        }
    }

    /// Allocate `len` elements without initializing them (see
    /// [`GpuU32::alloc_uninit`]).
    pub fn alloc_uninit(len: usize, name: &str) -> GpuU64 {
        let buf = Self::named(len, name);
        #[cfg(feature = "sanitize")]
        crate::sanitizer::register_uninit(&buf.meta, len);
        buf
    }

    /// Wrap recycled pool storage (see [`GpuU32::from_pool`]).
    pub(crate) fn from_pool(data: Vec<AtomicU64>, name: &str, uninit: bool) -> GpuU64 {
        #[cfg(not(feature = "sanitize"))]
        let _ = name;
        let buf = GpuU64 {
            data,
            #[cfg(feature = "sanitize")]
            meta: BufMeta::new(name),
        };
        #[cfg(feature = "sanitize")]
        if uninit {
            crate::sanitizer::register_uninit(&buf.meta, buf.len());
        }
        #[cfg(not(feature = "sanitize"))]
        let _ = uninit;
        buf
    }

    /// Surrender the storage (to a buffer pool free list).
    pub(crate) fn into_data(self) -> Vec<AtomicU64> {
        self.data
    }

    /// Copy a host slice to the device.
    pub fn from_slice(src: &[u64]) -> GpuU64 {
        Self::from_slice_named(src, UNNAMED)
    }

    /// Copy a host slice to the device, naming the buffer.
    pub fn from_slice_named(src: &[u64], name: &str) -> GpuU64 {
        #[cfg(not(feature = "sanitize"))]
        let _ = name;
        GpuU64 {
            data: src.iter().map(|&v| AtomicU64::new(v)).collect(),
            #[cfg(feature = "sanitize")]
            meta: BufMeta::new(name),
        }
    }

    /// Sanitizer identity of this buffer.
    #[cfg(feature = "sanitize")]
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
    pub fn load(&self, i: usize) -> u64 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Plain element write (host-side; marks the element initialized).
    #[inline(always)]
    pub fn store(&self, i: usize, v: u64) {
        #[cfg(feature = "sanitize")]
        if crate::sanitizer::enabled() {
            crate::sanitizer::host_write(&self.meta, i, i + 1);
        }
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Element write without the host-side init-marking hook; used by
    /// `Lane` accessors, which report to the sanitizer themselves.
    #[inline(always)]
    pub(crate) fn store_raw(&self, i: usize, v: u64) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// `atomicAdd` returning the old value.
    #[inline(always)]
    pub fn atomic_add(&self, i: usize, v: u64) -> u64 {
        self.data[i].fetch_add(v, Ordering::Relaxed)
    }

    /// Copy back to the host.
    pub fn to_vec(&self) -> Vec<u64> {
        self.data
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bulk host-side read (see [`GpuU32::load_range`]).
    pub fn load_range(&self, start: usize, dst: &mut [u64]) {
        if dst.is_empty() {
            return;
        }
        for (cell, out) in self.data[start..start + dst.len()].iter().zip(dst) {
            *out = cell.load(Ordering::Relaxed);
        }
    }

    /// Bulk host-side write (see [`GpuU32::store_range`]).
    pub fn store_range(&self, start: usize, src: &[u64]) {
        if src.is_empty() {
            return;
        }
        #[cfg(feature = "sanitize")]
        if crate::sanitizer::enabled() {
            crate::sanitizer::host_write(&self.meta, start, start + src.len());
        }
        for (cell, &v) in self.data[start..start + src.len()].iter().zip(src) {
            cell.store(v, Ordering::Relaxed);
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
    fn atomic_add_returns_old_value() {
        let buf = GpuU32::new(1);
        assert_eq!(buf.atomic_add(0, 5), 0);
        assert_eq!(buf.atomic_add(0, 2), 5);
        assert_eq!(buf.load(0), 7);
    }

    #[test]
    fn atomic_add_is_race_free_across_threads() {
        let buf = GpuU32::new(1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        buf.atomic_add(0, 1);
                    }
                });
            }
        });
        assert_eq!(buf.load(0), 80_000);
    }

    #[test]
    fn zero_resets() {
        let buf = GpuU32::from_slice(&[1, 2, 3]);
        buf.zero();
        assert_eq!(buf.to_vec(), vec![0, 0, 0]);
    }

    #[test]
    fn atomic_max_works() {
        let buf = GpuU32::new(1);
        buf.atomic_max(0, 4);
        buf.atomic_max(0, 2);
        assert_eq!(buf.load(0), 4);
    }

    #[test]
    fn alloc_uninit_is_physically_zeroed() {
        // Outside a sanitizer session, alloc_uninit behaves like new.
        let buf = GpuU32::alloc_uninit(4, "scratch");
        assert_eq!(buf.to_vec(), vec![0; 4]);
        let big = GpuU64::alloc_uninit(2, "scratch64");
        assert_eq!(big.to_vec(), vec![0; 2]);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn buffer_ids_are_unique_and_names_stick() {
        let a = GpuU32::named(1, "a");
        let b = GpuU32::named(1, "b");
        assert_ne!(a.meta().id(), b.meta().id());
        assert_eq!(a.meta().name(), "a");
        assert_eq!(b.meta().name(), "b");
        assert_eq!(GpuU32::new(1).meta().name(), "unnamed");
    }
}
