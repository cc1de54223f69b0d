//! Device-owned buffer pool.
//!
//! Real pipelines allocate the same per-tile-row buffers (`ptrs`,
//! `locs`, sort scratch…) over and over; on hardware that is a
//! `cudaMalloc`/`cudaFree` churn that production code avoids with a
//! suballocator. The simulator pays the same tax as host `Vec`
//! allocations, so the [`Device`](crate::exec::Device) owns this pool:
//! freed buffers go onto per-size-class free lists and the next
//! allocation of a similar size reuses the storage instead of touching
//! the heap.
//!
//! Size classes are powers of two: an allocation of `len` elements is
//! served from class `len.next_power_of_two()`, so a recycled buffer is
//! never more than 2× the request and a tile row whose rounded sizes
//! repeat (the common case — every row has the same geometry) hits the
//! pool every time after the first row.
//!
//! The pool is host-side bookkeeping only: reused buffers get a fresh
//! sanitizer identity and the same initialization semantics as a fresh
//! allocation (`named` ⇒ zeroed, `uninit` ⇒ contents undefined), so
//! modeled time, hazard checking, and results are unaffected. Fresh
//! heap allocations (pool misses) are counted and reported per launch
//! as [`LaunchStats::pool_allocs`](crate::stats::LaunchStats), which is
//! what the steady-state regression tests pin to zero.

use std::cell::Cell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::memory::{Elem, GpuBuf};

/// The element types a pool keeps free lists for, each pointing at its
/// own list (the trait that seals [`Elem`]).
pub(crate) mod sealed {
    use std::cell::Cell;
    use std::collections::HashMap;

    use parking_lot::Mutex;

    /// Recycled storage of one element type, per size class.
    pub type FreeList<T> = Mutex<HashMap<usize, Vec<Vec<Cell<T>>>>>;

    /// A pool's free lists, one per element type.
    #[derive(Default)]
    pub struct FreeLists {
        u32s: FreeList<u32>,
        u64s: FreeList<u64>,
    }

    pub trait Sealed: Sized {
        /// This element type's free list in `lists`.
        fn free_list(lists: &FreeLists) -> &FreeList<Self>;
    }

    impl Sealed for u32 {
        fn free_list(lists: &FreeLists) -> &FreeList<u32> {
            &lists.u32s
        }
    }

    impl Sealed for u64 {
        fn free_list(lists: &FreeLists) -> &FreeList<u64> {
            &lists.u64s
        }
    }
}

/// Per-size-class free lists of recycled buffer storage.
#[derive(Default)]
pub(crate) struct BufferPool {
    free: sealed::FreeLists,
    /// Fresh heap allocations (pool misses) since the last drain.
    fresh: AtomicU64,
    /// Buffers held per size class, on loan or free, sorted by element
    /// size and length: one per fresh allocation. The pool never
    /// returns storage to the heap (freed buffers sit on the free
    /// lists), so their bytes are simultaneously the current device
    /// footprint and its high-water mark — the memory-admission
    /// headroom gauge reported as
    /// [`LaunchStats::pool_peak_bytes`](crate::stats::LaunchStats).
    held: Mutex<Vec<PoolClass>>,
}

/// Buffers a device's pool holds in one size class, on loan or free
/// (see [`Device::pool_classes`](crate::exec::Device::pool_classes)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolClass {
    /// Element size: 4 for `u32` buffers, 8 for `u64` buffers.
    pub elem_bytes: usize,
    /// Elements per buffer of the class (a power of two).
    pub len: usize,
    /// Buffers of the class the pool holds.
    pub buffers: u64,
}

impl PoolClass {
    /// Bytes the class's buffers occupy.
    pub fn bytes(&self) -> u64 {
        (self.elem_bytes * self.len) as u64 * self.buffers
    }
}

/// Whether an acquired buffer must come back zeroed (the `named`
/// contract) or may keep whatever the previous user left (`uninit`,
/// the `cudaMalloc` contract — the sanitizer flags reads-before-writes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Init {
    Zeroed,
    Uninit,
}

impl BufferPool {
    /// Fresh allocations since the previous call (drained per launch
    /// into `LaunchStats::pool_allocs`).
    pub(crate) fn take_fresh(&self) -> u64 {
        self.fresh.swap(0, Ordering::Relaxed)
    }

    /// Peak bytes of pooled buffer storage, counted at class capacity
    /// (see the `held` field).
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.held.lock().iter().map(PoolClass::bytes).sum()
    }

    /// Every size class the pool holds buffers in, sorted by element
    /// size and length.
    pub(crate) fn classes(&self) -> Vec<PoolClass> {
        self.held.lock().clone()
    }

    /// Count one fresh buffer of `len` elements of `elem_bytes`.
    fn grow(&self, elem_bytes: usize, len: usize) {
        self.fresh.fetch_add(1, Ordering::Relaxed);
        let mut held = self.held.lock();
        match held.binary_search_by_key(&(elem_bytes, len), |c| (c.elem_bytes, c.len)) {
            Ok(i) => held[i].buffers += 1,
            Err(i) => held.insert(
                i,
                PoolClass {
                    elem_bytes,
                    len,
                    buffers: 1,
                },
            ),
        }
    }

    /// A buffer of `len` elements from the free list of its size class
    /// `len.next_power_of_two()`, or freshly allocated at the class's
    /// capacity.
    pub(crate) fn get<T: Elem>(&self, len: usize, name: &str, init: Init) -> Pooled<'_, T> {
        let class = len.next_power_of_two().max(1);
        let zero = || Cell::new(T::default());
        let recycled = T::free_list(&self.free)
            .lock()
            .get_mut(&class)
            .and_then(Vec::pop);
        let data = match recycled {
            Some(mut data) => {
                data.truncate(len);
                // Within the class capacity: never reallocates.
                data.resize_with(len, zero);
                if init == Init::Zeroed {
                    for cell in &data {
                        cell.set(T::default());
                    }
                }
                data
            }
            None => {
                self.grow(std::mem::size_of::<T>(), class);
                let mut data = Vec::with_capacity(class);
                data.resize_with(len, zero);
                data
            }
        };
        Pooled {
            buf: GpuBuf::from_storage(data, name, init == Init::Uninit),
            pool: self,
            class,
        }
    }
}

/// A pool-backed [`GpuBuf`]; derefs to the buffer and returns the
/// storage to its size class when dropped.
pub struct Pooled<'d, T: Elem> {
    buf: GpuBuf<T>,
    pool: &'d BufferPool,
    class: usize,
}

impl<T: Elem> Deref for Pooled<'_, T> {
    type Target = GpuBuf<T>;

    fn deref(&self) -> &GpuBuf<T> {
        &self.buf
    }
}

impl<T: Elem> Drop for Pooled<'_, T> {
    fn drop(&mut self) {
        let data = self.buf.take_data();
        T::free_list(&self.pool.free)
            .lock()
            .entry(self.class)
            .or_default()
            .push(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_allocation_is_fresh_second_is_reused() {
        let pool = BufferPool::default();
        {
            let a = pool.get::<u32>(100, "a", Init::Zeroed);
            assert_eq!(a.len(), 100);
        }
        assert_eq!(pool.take_fresh(), 1);
        {
            // 100 and 120 share the 128 class: reuse, no fresh alloc.
            let b = pool.get::<u32>(120, "b", Init::Zeroed);
            assert_eq!(b.len(), 120);
        }
        assert_eq!(pool.take_fresh(), 0);
    }

    #[test]
    fn named_reuse_is_zeroed_uninit_reuse_may_not_be() {
        let pool = BufferPool::default();
        {
            let a = pool.get::<u32>(8, "a", Init::Zeroed);
            for i in 0..8 {
                a.store(i, 7);
            }
        }
        {
            let b = pool.get::<u32>(8, "b", Init::Uninit);
            assert_eq!(b.to_vec(), vec![7; 8], "uninit reuse keeps stale data");
        }
        let c = pool.get::<u32>(8, "c", Init::Zeroed);
        assert_eq!(c.to_vec(), vec![0; 8], "named reuse is zeroed");
    }

    #[test]
    fn distinct_size_classes_do_not_mix() {
        let pool = BufferPool::default();
        drop(pool.get::<u32>(10, "small", Init::Zeroed));
        pool.take_fresh();
        drop(pool.get::<u32>(1000, "big", Init::Zeroed));
        assert_eq!(pool.take_fresh(), 1, "1000 cannot reuse the 16 class");
    }

    #[test]
    fn u64_pool_reuses_and_resizes() {
        let pool = BufferPool::default();
        drop(pool.get::<u64>(33, "a", Init::Zeroed));
        pool.take_fresh();
        let b = pool.get::<u64>(64, "b", Init::Zeroed);
        assert_eq!(b.len(), 64, "recycled 64-class grows to the request");
        assert_eq!(pool.take_fresh(), 0);
    }

    #[test]
    fn peak_bytes_counts_class_capacity_and_is_reuse_invariant() {
        let pool = BufferPool::default();
        drop(pool.get::<u32>(100, "a", Init::Zeroed)); // class 128 → 512 B
        assert_eq!(pool.peak_bytes(), 512);
        drop(pool.get::<u32>(120, "b", Init::Zeroed)); // reuses the 128 class
        assert_eq!(pool.peak_bytes(), 512, "reuse does not grow the pool");
        drop(pool.get::<u64>(10, "c", Init::Zeroed)); // class 16 → 128 B
        assert_eq!(pool.peak_bytes(), 512 + 128);
    }

    #[test]
    fn classes_count_every_buffer_held() {
        let pool = BufferPool::default();
        {
            // Two 128-class u32 buffers at once, then one reused.
            let _a = pool.get::<u32>(100, "a", Init::Zeroed);
            let _b = pool.get::<u32>(128, "b", Init::Uninit);
        }
        drop(pool.get::<u32>(120, "c", Init::Zeroed));
        drop(pool.get::<u64>(128, "d", Init::Zeroed));
        let classes = pool.classes();
        assert_eq!(
            classes,
            vec![
                PoolClass {
                    elem_bytes: 4,
                    len: 128,
                    buffers: 2
                },
                PoolClass {
                    elem_bytes: 8,
                    len: 128,
                    buffers: 1
                },
            ],
            "u32 and u64 buffers of equal length are separate classes"
        );
        assert_eq!(pool.peak_bytes(), 2 * 128 * 4 + 128 * 8);
    }

    #[test]
    fn zero_len_allocations_work() {
        let pool = BufferPool::default();
        let a = pool.get::<u32>(0, "empty", Init::Zeroed);
        assert!(a.is_empty());
    }

    #[test]
    fn reused_buffers_get_fresh_identities() {
        let pool = BufferPool::default();
        let first_id = {
            let a = pool.get::<u32>(4, "a", Init::Zeroed);
            a.meta().id()
        };
        let b = pool.get::<u32>(4, "b", Init::Zeroed);
        assert_ne!(b.meta().id(), first_id);
        assert_eq!(b.meta().name(), "b");
    }
}
