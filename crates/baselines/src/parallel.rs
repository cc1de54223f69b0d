//! Shared-memory parallel driver (the paper's τ = 1, 4, 8 query runs).
//!
//! The query is partitioned into position ranges; because every finder
//! reports a MEM exactly once, at a unique anchor position (see
//! [`crate::common`]), disjoint ranges produce disjoint result sets and
//! the union is exact. Index builds run on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};

use gpumem_seq::{canonicalize, Mem, PackedSeq};

use crate::common::MemFinder;

/// Find all MEMs with `threads` workers over query partitions: at most
/// `threads` scoped host threads, each claiming the next unclaimed
/// range until none is left.
pub fn find_mems_parallel<F: MemFinder + ?Sized>(
    finder: &F,
    query: &PackedSeq,
    min_len: u32,
    threads: usize,
) -> Vec<Mem> {
    if threads <= 1 || query.is_empty() {
        return finder.find_mems(query, min_len);
    }
    let n = query.len();
    // Over-partition 4x for load balance (MEM density is uneven).
    let chunk = n.div_ceil(threads * 4).max(1);
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mems = Vec::new();
        loop {
            // Relaxed: the cursor publishes no data, and joining the
            // workers orders their results before the merge.
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= n {
                return mems;
            }
            mems.extend(finder.find_in_range(query, lo..(lo + chunk).min(n), min_len));
        }
    };
    let mems: Vec<Mem> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n.div_ceil(chunk)))
            .map(|_| scope.spawn(worker))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    canonicalize(mems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EssaMem, Mummer, SlaMem, SparseMem};
    use gpumem_seq::{naive_mems, table2_pairs};

    #[test]
    fn parallel_output_is_identical_to_sequential() {
        let spec = &table2_pairs(1.0 / 32768.0)[1];
        let pair = spec.realize(31);
        let min_len = 16;
        let expect = naive_mems(&pair.reference, &pair.query, min_len);

        let finders: Vec<Box<dyn MemFinder>> = vec![
            Box::new(SparseMem::build(&pair.reference, 4)),
            Box::new(EssaMem::build(&pair.reference, 4)),
            Box::new(Mummer::build(&pair.reference)),
            Box::new(SlaMem::build(&pair.reference)),
        ];
        for finder in &finders {
            for threads in [1usize, 4, 8] {
                let got = find_mems_parallel(finder.as_ref(), &pair.query, min_len, threads);
                assert_eq!(got, expect, "{} τ={threads}", finder.name());
            }
        }
    }

    #[test]
    fn empty_query_is_fine() {
        let spec = &table2_pairs(1.0 / 262_144.0)[3];
        let pair = spec.realize(1);
        let finder = Mummer::build(&pair.reference);
        let empty = PackedSeq::from_codes(&[]);
        assert!(find_mems_parallel(&finder, &empty, 10, 4).is_empty());
    }
}
