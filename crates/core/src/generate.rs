//! Exact-match triplet generation (§III-B2).
//!
//! After the round's thread assignment, each group owns one query seed
//! location `q`. The group's threads split the seed's indexed reference
//! locations evenly; each location `r` yields an initial triplet
//! `(r, q, ℓs)`, extended to the right until a mismatch or until the
//! length reaches `w` (`= Δs` under `SeedMode::RefOnly`, `= k1·k2`
//! under dual sampling), so that consecutive anchors of one MEM
//! (spaced exactly `w` on the diagonal) are guaranteed to overlap and
//! chain in the combine step. Dual sampling changes nothing here: the
//! block loop simply hands this stage fewer rounds (only `q ≡ 0
//! (mod k2)` locations are probed), and every triplet still extends to
//! the same capped length.

use gpu_sim::Op;
use gpumem_index::SeedLookup;
use gpumem_seq::{Mem, PackedSeq};

use crate::balance::Assignment;

/// The cost of an LCE of `matched` bases as `(global loads, compares)`:
/// packed word reads on both sequences plus the comparisons.
#[inline]
pub(crate) fn lce_cost(matched: usize) -> (u64, u64) {
    ((matched as u64 / 32 + 1) * 2, matched as u64 + 1)
}

/// Generate one round's triplets into `triplets[seed_slot]`.
///
/// * `q_of_slot[k]` — the query location of seed slot `k` (`None` when
///   the location falls outside the block or cannot host a full seed);
/// * `cap` — [`crate::GpumemConfig::generation_cap`] (`max(w, ℓs)`).
///
/// Runs as one SIMT region; lanes of one group stride over the seed's
/// bucket (the even split of §III-B2).
pub fn generate_triplets(
    ctx: &mut gpu_sim::BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    index: &dyn SeedLookup,
    assignment: &Assignment,
    q_of_slot: &[Option<usize>],
    codes: &[Option<u32>],
    cap: usize,
    triplets: &mut [Vec<Mem>],
) {
    ctx.simt(|lane| {
        let g = assignment.group_of_thread[lane.tid];
        if lane.branch(g == crate::balance::IDLE) {
            return;
        }
        let group = &assignment.groups[g];
        let (Some(q), Some(code)) = (q_of_slot[group.seed_slot], codes[group.seed_slot]) else {
            return;
        };
        // Bucket boundary reads, plus the layout's lookup overhead
        // (the compact directory pays a binary search here).
        lane.charge(Op::GlobalLoad, 2 + index.lookup_overhead_loads());
        let bucket = index.lookup(code);
        let my_offset = lane.tid - group.threads.start;
        let stride = group.threads.len();
        // One `locs[j]` load and one triplet store per visited element;
        // the LCE cost is data-dependent, so it accumulates into locals.
        // All charges post in one batch per lane (totals are what the
        // warp model consumes).
        let visited = if my_offset < bucket.len() {
            (bucket.len() - my_offset).div_ceil(stride) as u64
        } else {
            0
        };
        let (mut lce_loads, mut lce_compares) = (0u64, 0u64);
        let mut j = my_offset;
        while j < bucket.len() {
            let r = bucket[j] as usize;
            // The seed matches by construction (ℓs bases); extend right
            // up to the cap. LCE below block/tile boundaries is fine —
            // classification happens at expansion time.
            let len = reference.lce_fwd(r, query, q, cap);
            debug_assert!(len >= index.seed_len().min(cap));
            let (loads, compares) = lce_cost(len);
            lce_loads += loads;
            lce_compares += compares;
            triplets[group.seed_slot].push(Mem {
                r: r as u32,
                q: q as u32,
                len: len as u32,
            });
            j += stride;
        }
        lane.charge(Op::GlobalLoad, visited); // locs[j] reads
        lane.charge(Op::GlobalLoad, lce_loads);
        lane.compare(lce_compares);
        lane.charge(Op::GlobalStore, visited);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{balance_into, Assignment, BalanceScratch};
    use gpu_sim::{Device, DeviceSpec, LaunchConfig};
    use gpumem_index::{build_sequential, Region};
    use gpumem_seq::GenomeModel;

    /// Drive one generation round over the whole query with a trivial
    /// block (every slot = one query position, stride w = 1).
    fn run_round(
        reference: &PackedSeq,
        query: &PackedSeq,
        seed_len: usize,
        tau: usize,
        q_start: usize,
        cap: usize,
        load_balancing: bool,
    ) -> Vec<Vec<Mem>> {
        let index = build_sequential(reference, Region::whole(reference), seed_len, 1);
        let device = Device::new(DeviceSpec::test_tiny());
        let mut out = Vec::new();
        device.launch(LaunchConfig::new(1, tau), "test", |ctx| {
            let q_of_slot: Vec<Option<usize>> = (0..tau)
                .map(|k| {
                    let q = q_start + k;
                    (q + seed_len <= query.len()).then_some(q)
                })
                .collect();
            let codes: Vec<Option<u32>> = q_of_slot
                .iter()
                .map(|q| q.and_then(|q| index.codec.encode(query, q)))
                .collect();
            let loads: Vec<u32> = codes
                .iter()
                .map(|c| c.map_or(0, |c| index.occurrences(c) as u32))
                .collect();
            let mut assignment = Assignment::default();
            let scratch = &mut BalanceScratch::default();
            balance_into(ctx, &loads, load_balancing, scratch, &mut assignment);
            let mut triplets: Vec<Vec<Mem>> = vec![Vec::new(); tau];
            generate_triplets(
                ctx,
                reference,
                query,
                &index,
                &assignment,
                &q_of_slot,
                &codes,
                cap,
                &mut triplets,
            );
            out = triplets;
        });
        out
    }

    #[test]
    fn every_seed_occurrence_becomes_a_triplet() {
        let reference: PackedSeq = "ACGTACGTACGT".parse().unwrap();
        let query: PackedSeq = "TACGTA".parse().unwrap();
        // Seed "ACGT" (at q=1) occurs at reference 0, 4, 8.
        let triplets = run_round(&reference, &query, 4, 8, 0, 4, true);
        let slot1: Vec<_> = triplets[1].iter().map(|m| m.r).collect();
        let mut sorted = slot1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 4, 8]);
        for m in &triplets[1] {
            assert_eq!(m.q, 1);
            assert!(m.len >= 4);
        }
    }

    #[test]
    fn extension_caps_at_w() {
        let reference: PackedSeq = "AAAAAAAAAAAAAAAA".parse().unwrap();
        let query: PackedSeq = "AAAAAAAAAAAAAAAA".parse().unwrap();
        let triplets = run_round(&reference, &query, 2, 4, 0, 6, true);
        for slot in &triplets {
            for m in slot {
                assert!(m.len <= 6, "capped at w: {m:?}");
            }
        }
    }

    #[test]
    fn extension_stops_at_mismatch() {
        let reference: PackedSeq = "ACGTTTTT".parse().unwrap();
        let query: PackedSeq = "ACGAAAAA".parse().unwrap();
        // Seed "ACG" matches at (0,0) and extends to exactly 3.
        let triplets = run_round(&reference, &query, 3, 4, 0, 10, true);
        assert_eq!(triplets[0], vec![Mem { r: 0, q: 0, len: 3 }]);
    }

    #[test]
    fn balanced_and_unbalanced_generate_the_same_set() {
        let reference = GenomeModel::mammalian().generate(800, 91);
        let query = GenomeModel::mammalian().generate(64, 92);
        for q_start in [0usize, 13] {
            let a = run_round(&reference, &query, 5, 32, q_start, 9, true);
            let b = run_round(&reference, &query, 5, 32, q_start, 9, false);
            let norm = |t: Vec<Vec<Mem>>| {
                let mut all: Vec<Mem> = t.into_iter().flatten().collect();
                all.sort_unstable();
                all
            };
            assert_eq!(norm(a), norm(b), "q_start {q_start}");
        }
    }

    #[test]
    fn group_threads_split_bucket_without_loss_or_duplication() {
        // A reference where one 2-mer is very frequent forces a
        // multi-thread group.
        let reference = PackedSeq::from_codes(&[0, 1].repeat(200));
        let query: PackedSeq = "AC".parse().unwrap();
        let triplets = run_round(&reference, &query, 2, 16, 0, 2, true);
        let mut rs: Vec<u32> = triplets[0].iter().map(|m| m.r).collect();
        rs.sort_unstable();
        let expect: Vec<u32> = (0..399).step_by(2).collect(); // "AC" at every even pos
        assert_eq!(rs, expect);
    }
}
