//! Combining exact-match triplets.
//!
//! Two combiners, matching the paper's two levels:
//!
//! * [`tree_combine_scheduled`] — Algorithm 3 / Figure 3: within a
//!   block round, `2·log₂τ − 1` iterations over seed distances
//!   `d = 1, 2, …, τ/2, …, 2, 1`; at each iteration an active seed's triplets absorb
//!   overlapping triplets of the seed `d` slots to its right. Two
//!   triplets `(r,q,λ)`, `(r',q',λ')` overlap iff
//!   `0 < r'−r = q'−q ≤ λ`; the left one becomes
//!   `(r, q, (r'−r) + λ')` and the right one is deleted (`λ' ← 0`,
//!   exactly as the paper notes). The active-seed schedule guarantees
//!   no triplet is both modified and deleted in one iteration. The
//!   host merges each iteration and charges every lane what scanning
//!   the target lists would (DESIGN.md §8, "Computing charges").
//! * [`scan_combine_sorted`] — §III-C: after sorting by `(r−q, q)`,
//!   overlapping triplets are consecutive; one linear scan merges each
//!   diagonal run (used on out-block MEMs per tile and on out-tile
//!   MEMs at the host).
//!
//! Plus [`block_sort_by_diag`], the in-kernel bitonic sort that puts
//! out-block MEMs in `(r−q, q)` order (§III-C1).

use gpu_sim::{BlockCtx, LaneCharge, Op, RegionCharge};
use gpumem_seq::Mem;

use crate::balance::{Assignment, IDLE};

/// Try to merge `right` into `left` (same diagonal, overlapping or
/// adjacent). Returns the merged triplet if they combine.
#[inline]
pub fn combine_pair(left: Mem, right: Mem) -> Option<Mem> {
    let delta = i64::from(right.r) - i64::from(left.r);
    if delta > 0 && delta == i64::from(right.q) - i64::from(left.q) && delta <= i64::from(left.len)
    {
        Some(Mem {
            r: left.r,
            q: left.q,
            len: (delta + i64::from(right.len)) as u32,
        })
    } else {
        None
    }
}

/// The combine schedule of Algorithm 3 / Figure 3 for `τ` seeds: for
/// each of the `2·log₂τ − 1` iterations, the list of `(active, target)`
/// slot pairs. The distance `d` doubles for the first `log₂τ`
/// iterations and then halves; active slots are `≡ 0 (mod 2d)` on the
/// way up and `≡ d (mod 2d)` on the way down, which guarantees no slot
/// is both modified (a source) and deleted (a target) in the same
/// iteration (the module tests' `schedule_is_conflict_free_for_all_tau`).
pub fn combine_schedule(tau: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(
        tau.is_power_of_two() && tau >= 2,
        "τ must be a power of two >= 2"
    );
    let k = tau.trailing_zeros() as usize;
    let mut schedule = Vec::with_capacity(2 * k - 1);
    let mut d = 1usize;
    for iter in 1..=(2 * k).saturating_sub(1) {
        let mut pairs = Vec::new();
        for src in 0..tau {
            let ctrl = if iter > k {
                match src.checked_sub(d) {
                    Some(c) => c,
                    None => continue,
                }
            } else {
                src
            };
            if ctrl % (2 * d) == 0 && src + d < tau {
                pairs.push((src, src + d));
            }
        }
        schedule.push(pairs);
        if iter < k {
            d *= 2;
        } else {
            d /= 2;
        }
    }
    schedule
}

/// Reusable storage for [`tree_combine_scheduled`]: the
/// [`combine_schedule`] as a per-iteration target lookup, which depends
/// only on `τ`, and the recorded charges of single-seed rounds and dead
/// iterations.
pub struct CombineScratch {
    /// `targets[i][s]`: the slot that source slot `s` absorbs in
    /// iteration `i`, or `usize::MAX` when `s` is not a source there.
    targets: Vec<Vec<usize>>,
    /// `single_seed[s]`: charge of the whole combine on a round whose
    /// one group, holding every thread, serves slot `s` (τ entries).
    single_seed: Vec<Option<RegionCharge>>,
    /// `dead[m]`: charge of an iteration that merges nothing, with no
    /// idle thread and `m` warps mixing lanes that have a target with
    /// lanes that have none (⌈τ/warp⌉ + 1 entries).
    dead: Vec<Option<RegionCharge>>,
    /// Per-warp kinds of lane seen in the current iteration: bit 0 a
    /// lane without a target, bit 1 a lane with one.
    warp_kinds: Vec<u8>,
    merge: MergeScratch,
}

/// Working storage of the host's merge in [`combine_region`].
struct MergeScratch {
    /// `scans[tid]`: target entries lane `tid` scans in the current
    /// iteration, and how many of its triplets merge.
    scans: Vec<(u64, u64)>,
    /// The current target list's `(r << 32) | position` keys, sorted
    /// once a triplet needs its partner (see `position_of`).
    positions: Vec<u64>,
}

impl CombineScratch {
    /// Scratch for blocks of `tau` threads (a power of two ≥ 2).
    pub fn new(tau: usize) -> CombineScratch {
        let targets = combine_schedule(tau)
            .into_iter()
            .map(|pairs| {
                let mut target_of = vec![usize::MAX; tau];
                for (src, tgt) in pairs {
                    target_of[src] = tgt;
                }
                target_of
            })
            .collect();
        CombineScratch {
            targets,
            single_seed: vec![None; tau],
            dead: Vec::new(),
            warp_kinds: Vec::new(),
            merge: MergeScratch {
                scans: vec![(0, 0); tau],
                positions: Vec::new(),
            },
        }
    }

    /// Number of recorded charges this scratch holds (at most
    /// τ + ⌈τ/warp⌉ + 1).
    pub fn recordings(&self) -> usize {
        self.single_seed.iter().chain(&self.dead).flatten().count()
    }
}

/// Algorithm 3 over one round's per-slot triplet lists, with
/// caller-kept scratch. Deleted triplets are marked `len = 0` (callers
/// filter).
///
/// When one group holds every thread and every other slot is empty (a
/// single-seed round under load balancing), no iteration can pair two
/// non-empty slots: the combine changes no triplet and charges a
/// function of the group's slot alone. It then runs once per slot and
/// scratch under [`BlockCtx::record`], and later rounds
/// [`BlockCtx::replay`] that charge. Other rounds replay their dead
/// iterations one by one (see `combine_iterations`).
pub fn tree_combine_scheduled(
    ctx: &mut BlockCtx<'_>,
    assignment: &Assignment,
    scratch: &mut CombineScratch,
    triplets: &mut [Vec<Mem>],
) {
    let tau = ctx.block_dim;
    debug_assert!(tau.is_power_of_two());
    debug_assert_eq!(
        scratch.single_seed.len(),
        tau,
        "scratch sized for a different τ"
    );
    let warps = tau.div_ceil(ctx.warp_size());
    let CombineScratch {
        targets,
        single_seed,
        dead,
        warp_kinds,
        merge,
    } = scratch;
    dead.resize(warps + 1, None);
    warp_kinds.resize(warps, 0);
    if let [group] = assignment.groups.as_slice() {
        let slot = group.seed_slot;
        let alone = group.threads == (0..tau)
            && triplets
                .iter()
                .enumerate()
                .all(|(k, list)| k == slot || list.is_empty());
        if alone {
            // Nothing merges, so a replay leaves nothing for the host
            // to compute.
            ctx.replay_or_record(&mut single_seed[slot], |ctx| {
                combine_iterations(ctx, assignment, targets, dead, warp_kinds, merge, triplets)
            });
            return;
        }
    }
    combine_iterations(ctx, assignment, targets, dead, warp_kinds, merge, triplets);
}

/// Algorithm 3's iterations, one SIMT region each.
///
/// An iteration is dead when no group's slot and its target both hold
/// triplets: nothing merges, and every lane charges the same branch,
/// three ALU ops and branch, differing only in whether its slot has a
/// target. With no idle thread the block's charge is then a function of
/// how many warps mix the two kinds of lane, so a dead iteration
/// replays the recording kept for that count. Rounds with idle threads
/// (load balancing off) run every iteration.
fn combine_iterations(
    ctx: &mut BlockCtx<'_>,
    assignment: &Assignment,
    targets: &[Vec<usize>],
    dead: &mut [Option<RegionCharge>],
    warp_kinds: &mut [u8],
    merge: &mut MergeScratch,
    triplets: &mut [Vec<Mem>],
) {
    let no_idle = assignment
        .groups
        .iter()
        .map(|g| g.threads.len())
        .sum::<usize>()
        == ctx.block_dim;
    for target_of in targets {
        if no_idle {
            if let Some(mixed) =
                dead_iteration_mix(assignment, target_of, triplets, ctx.warp_size(), warp_kinds)
            {
                ctx.replay_or_record(&mut dead[mixed], |ctx| {
                    combine_region(ctx, assignment, target_of, merge, triplets)
                });
                continue;
            }
        }
        combine_region(ctx, assignment, target_of, merge, triplets);
    }
}

/// For an iteration that merges nothing, the number of warps holding
/// both lanes whose slot has a target and lanes whose slot has none;
/// `None` when some group's slot and its target both hold triplets.
fn dead_iteration_mix(
    assignment: &Assignment,
    target_of: &[usize],
    triplets: &[Vec<Mem>],
    warp_size: usize,
    warp_kinds: &mut [u8],
) -> Option<usize> {
    warp_kinds.fill(0);
    for group in &assignment.groups {
        let src = group.seed_slot;
        let target = target_of[src];
        let has_target = target != usize::MAX;
        if has_target && !triplets[src].is_empty() && !triplets[target].is_empty() {
            return None;
        }
        if group.threads.is_empty() {
            continue;
        }
        let kind = 1 << u8::from(has_target);
        for kinds in
            &mut warp_kinds[group.threads.start / warp_size..group.threads.end.div_ceil(warp_size)]
        {
            *kinds |= kind;
        }
    }
    Some(warp_kinds.iter().filter(|&&kinds| kinds == 3).count())
}

/// Charge of an idle lane (load balancing off): its one branch.
const IDLE_LANE: LaneCharge = LaneCharge::on_path(0).with(Op::Branch, 1);
/// Charge of a lane whose slot has no target in the iteration: both
/// branches and the three ALU ops that find its group's slot and target.
const NO_TARGET_LANE: LaneCharge = LaneCharge::on_path(1).with(Op::Branch, 2).with(Op::Alu, 3);

/// One iteration of Algorithm 3: every active group's threads split its
/// slot's triplets and absorb overlapping triplets of the target slot.
///
/// The host does the merging and the block is charged what each lane
/// would (see [`BlockCtx::simt_computed`]). A lane with a target takes
/// its share of the source triplets (a stride over the group) and scans
/// the target list for each live one, 3 compares and 2 shared accesses
/// per entry, zeroed entries included, plus 2 shared accesses for a
/// merge, which ends the scan. All triplets of a slot share its `q`, so
/// a slot holds at most one triplet per diagonal and `r` finds it: a
/// source triplet's scan ends at its diagonal partner when the two
/// merge and covers the whole target list otherwise.
fn combine_region(
    ctx: &mut BlockCtx<'_>,
    assignment: &Assignment,
    target_of: &[usize],
    merge: &mut MergeScratch,
    triplets: &mut [Vec<Mem>],
) {
    for group in &assignment.groups {
        let (src, target) = (group.seed_slot, target_of[group.seed_slot]);
        if target == usize::MAX || group.threads.is_empty() {
            continue;
        }
        let scans = &mut merge.scans[group.threads.clone()];
        scans.fill((0, 0));
        // Split borrows: target = src + d > src.
        let (head, tail) = triplets.split_at_mut(target);
        let (s_list, t_list) = (&mut head[src], &mut tail[0]);
        let Some(first) = t_list.first() else {
            continue;
        };
        let (q, scan_all) = (first.q, t_list.len() as u64);
        debug_assert!(t_list.iter().all(|m| m.q == q), "a slot's triplets share q");
        let positions = &mut merge.positions;
        positions.clear();
        // Lanes take the group's source triplets in turn.
        for (mine, lane) in s_list.iter_mut().zip((0..scans.len()).cycle()) {
            if mine.len == 0 {
                continue;
            }
            // Only a partner `q − mine.q` further along the diagonal,
            // within `mine`'s length, can merge (see `combine_pair`).
            let merged = q
                .checked_sub(mine.q)
                .filter(|&delta| delta <= mine.len)
                .and_then(|delta| {
                    position_of(positions, t_list, u64::from(mine.r) + u64::from(delta))
                })
                .filter(|&pos| t_list[pos].len > 0)
                .and_then(|pos| Some((pos, combine_pair(*mine, t_list[pos])?)));
            let lane = &mut scans[lane];
            match merged {
                Some((pos, merged)) => {
                    *mine = merged;
                    t_list[pos].len = 0; // "GPUMEM just sets λ' to zero"
                    lane.0 += pos as u64 + 1;
                    lane.1 += 1;
                }
                None => lane.0 += scan_all,
            }
        }
    }
    let scans = &merge.scans;
    ctx.simt_computed(0..ctx.block_dim, |tid| {
        let g = assignment.group_of_thread[tid];
        if g == IDLE {
            return IDLE_LANE;
        }
        if target_of[assignment.groups[g].seed_slot] == usize::MAX {
            return NO_TARGET_LANE;
        }
        let (scan, merges) = scans[tid];
        LaneCharge::on_path(2)
            .with(Op::Branch, 2)
            .with(Op::Alu, 3)
            .with(Op::Compare, 3 * scan)
            .with(Op::Shared, 2 * scan + 2 * merges)
    });
}

/// The position of the triplet at reference position `r` in `list`,
/// whose triplets share one `q` and so lie on distinct diagonals.
/// `positions` holds the list's `(r << 32) | position` keys, sorted;
/// empty, it is filled first.
fn position_of(positions: &mut Vec<u64>, list: &[Mem], r: u64) -> Option<usize> {
    if positions.is_empty() {
        positions.extend(
            list.iter()
                .enumerate()
                .map(|(pos, m)| (u64::from(m.r) << 32) | pos as u64),
        );
        positions.sort_unstable();
        debug_assert!(
            positions.windows(2).all(|w| w[0] >> 32 != w[1] >> 32),
            "a slot holds at most one triplet per diagonal"
        );
    }
    let k = positions.binary_search_by_key(&r, |key| key >> 32).ok()?;
    Some(positions[k] as u32 as usize)
}

/// 61-bit sort key `(r − q, q)` for triplets; requires positions below
/// 2^30 (1 Gbp — the paper's largest input is 243 Mbp).
#[inline]
pub fn diag_key(mem: &Mem) -> u64 {
    const BIAS: i64 = 1 << 30;
    debug_assert!(mem.r < (1 << 30) && mem.q < (1 << 30));
    (((mem.diagonal() + BIAS) as u64) << 30) | u64::from(mem.q)
}

/// In-kernel bitonic sort of triplets by `(r − q, q)` (§III-C1's
/// "parallel sort"). Cost-modeled like
/// [`gpu_sim::primitives::block_bitonic_sort_u64`].
pub fn block_sort_by_diag(ctx: &mut BlockCtx<'_>, data: &mut Vec<Mem>) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();
    let pad = Mem {
        r: u32::MAX,
        q: u32::MAX,
        len: 0,
    };
    let mut keyed: Vec<(u64, Mem)> = data.iter().map(|m| (diag_key(m), *m)).collect();
    keyed.resize(padded, (u64::MAX, pad));

    let lanes = ctx.block_dim.min(padded / 2).max(1);
    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            ctx.simt_range(0..lanes, |lane| {
                let (mut shared, mut compares, mut alu) = (0u64, 0u64, 0u64);
                let mut i = lane.tid;
                while i < padded {
                    let partner = i ^ j;
                    if partner > i {
                        shared += 2;
                        compares += 1;
                        let ascending = (i & k) == 0;
                        if (keyed[i].0 > keyed[partner].0) == ascending {
                            keyed.swap(i, partner);
                            shared += 2;
                        }
                    }
                    alu += 2;
                    i += lanes;
                }
                lane.shared(shared);
                lane.compare(compares);
                lane.charge(Op::Alu, alu);
            });
            j /= 2;
        }
        k *= 2;
    }
    keyed.truncate(n);
    data.clear();
    data.extend(keyed.into_iter().map(|(_, m)| m));
}

/// Merge overlapping/adjacent triplets in a `(r−q, q)`-sorted slice;
/// absorbed entries get `len = 0`. Returns the number of merges.
pub fn scan_combine_sorted(mems: &mut [Mem]) -> usize {
    let mut merges = 0;
    let mut acc: Option<usize> = None;
    for i in 0..mems.len() {
        if mems[i].len == 0 {
            continue;
        }
        match acc {
            Some(a) if mems[a].diagonal() == mems[i].diagonal() => {
                let left = mems[a];
                let right = mems[i];
                if let Some(merged) = combine_pair(left, right) {
                    // Keep the longer end (a duplicate-start or nested
                    // fragment must not shrink the accumulator).
                    mems[a].len = merged.len.max(left.len);
                    mems[i].len = 0;
                    merges += 1;
                } else if right.q == left.q {
                    // Identical start: keep the longer.
                    mems[a].len = left.len.max(right.len);
                    mems[i].len = 0;
                    merges += 1;
                } else {
                    acc = Some(i);
                }
            }
            _ => acc = Some(i),
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::GroupAssign;
    use gpu_sim::{Device, DeviceSpec, LaunchConfig};

    #[test]
    fn combine_pair_follows_the_paper_equation() {
        let left = Mem {
            r: 10,
            q: 20,
            len: 8,
        };
        // Overlap: r'-r = q'-q = 5 ≤ 8.
        let right = Mem {
            r: 15,
            q: 25,
            len: 8,
        };
        assert_eq!(
            combine_pair(left, right),
            Some(Mem {
                r: 10,
                q: 20,
                len: 13
            })
        );
        // Exactly adjacent (δ = λ) combines.
        let touching = Mem {
            r: 18,
            q: 28,
            len: 4,
        };
        assert_eq!(
            combine_pair(left, touching),
            Some(Mem {
                r: 10,
                q: 20,
                len: 12
            })
        );
        // Too far (δ > λ) does not.
        assert_eq!(
            combine_pair(
                left,
                Mem {
                    r: 19,
                    q: 29,
                    len: 4
                }
            ),
            None
        );
        // Different diagonal does not.
        assert_eq!(
            combine_pair(
                left,
                Mem {
                    r: 15,
                    q: 26,
                    len: 4
                }
            ),
            None
        );
        // δ must be positive.
        assert_eq!(combine_pair(left, left), None);
    }

    /// Run the combine with a one-thread-per-slot assignment.
    fn run_tree(tau: usize, triplets: Vec<Vec<Mem>>) -> Vec<Mem> {
        let device = Device::new(DeviceSpec::test_tiny());
        let assignment = Assignment {
            groups: (0..tau)
                .map(|k| GroupAssign {
                    seed_slot: k,
                    threads: k..k + 1,
                })
                .collect(),
            group_of_thread: (0..tau).collect(),
        };
        let mut out = Vec::new();
        device.launch(LaunchConfig::new(1, tau), "test", |ctx| {
            let mut t = triplets.clone();
            let mut scratch = CombineScratch::new(ctx.block_dim);
            tree_combine_scheduled(ctx, &assignment, &mut scratch, &mut t);
            out = t.into_iter().flatten().filter(|m| m.len > 0).collect();
        });
        out
    }

    fn chain(slots: std::ops::Range<usize>, w: u32, diag: u32) -> Vec<Vec<Mem>> {
        let mut t = vec![Vec::new(); 16];
        for s in slots {
            let q = s as u32 * w;
            t[s].push(Mem {
                r: q + diag,
                q,
                len: w,
            });
        }
        t
    }

    #[test]
    fn aligned_chain_reduces_to_one() {
        let out = run_tree(16, chain(0..8, 5, 100));
        assert_eq!(
            out,
            vec![Mem {
                r: 100,
                q: 0,
                len: 40
            }]
        );
    }

    #[test]
    fn every_offset_chain_reduces_to_one() {
        // Chains at all possible alignments and lengths must reduce to a
        // single triplet spanning the chain (the paper's "not hard to
        // verify" claim, verified).
        for start in 0..16 {
            for len in 1..=(16 - start) {
                let out = run_tree(16, chain(start..start + len, 7, 3));
                assert_eq!(
                    out,
                    vec![Mem {
                        r: (start as u32) * 7 + 3,
                        q: (start as u32) * 7,
                        len: (len as u32) * 7,
                    }],
                    "chain {start}..{}",
                    start + len
                );
            }
        }
    }

    #[test]
    fn distinct_diagonals_do_not_merge() {
        let mut t = vec![Vec::new(); 8];
        t[0].push(Mem { r: 0, q: 0, len: 5 });
        t[1].push(Mem {
            r: 100,
            q: 5,
            len: 5,
        });
        let mut out = run_tree(8, t);
        out.sort_unstable();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn two_chains_on_different_diagonals_both_survive() {
        let mut t = chain(0..4, 5, 10);
        for (s, extra) in chain(4..8, 5, 200).into_iter().enumerate() {
            t[s].extend(extra);
        }
        let mut out = run_tree(16, t);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![
                Mem {
                    r: 10,
                    q: 0,
                    len: 20
                },
                Mem {
                    r: 220,
                    q: 20,
                    len: 20
                }
            ]
        );
    }

    #[test]
    fn multi_thread_groups_combine_correctly() {
        // A group with several threads splits S; the chain must still
        // fully reduce.
        let device = Device::new(DeviceSpec::test_tiny());
        let assignment = Assignment {
            groups: vec![
                GroupAssign {
                    seed_slot: 0,
                    threads: 0..3,
                },
                GroupAssign {
                    seed_slot: 1,
                    threads: 3..4,
                },
            ],
            group_of_thread: vec![0, 0, 0, 1],
        };
        let mut got = Vec::new();
        device.launch(LaunchConfig::new(1, 4), "test", |ctx| {
            let mut t = vec![Vec::new(); 4];
            // Slot 0 has triplets on three diagonals; slot 1 continues
            // one of them.
            t[0].push(Mem { r: 0, q: 0, len: 4 });
            t[0].push(Mem {
                r: 50,
                q: 0,
                len: 4,
            });
            t[0].push(Mem {
                r: 90,
                q: 0,
                len: 4,
            });
            t[1].push(Mem {
                r: 54,
                q: 4,
                len: 4,
            });
            let mut scratch = CombineScratch::new(ctx.block_dim);
            tree_combine_scheduled(ctx, &assignment, &mut scratch, &mut t);
            got = t
                .into_iter()
                .flatten()
                .filter(|m| m.len > 0)
                .collect::<Vec<_>>();
        });
        got.sort_unstable();
        assert_eq!(
            got,
            vec![
                Mem { r: 0, q: 0, len: 4 },
                Mem {
                    r: 50,
                    q: 0,
                    len: 8
                },
                Mem {
                    r: 90,
                    q: 0,
                    len: 4
                }
            ]
        );
    }

    #[test]
    fn schedule_matches_figure_3() {
        // Figure 3: 16 seeds, 7 iterations.
        let schedule = combine_schedule(16);
        assert_eq!(schedule.len(), 7);
        let pairs = |d: usize, srcs: &[usize]| -> Vec<(usize, usize)> {
            srcs.iter()
                .map(|&s| (s, s + d))
                .filter(|&(_, t)| t < 16)
                .collect()
        };
        assert_eq!(schedule[0], pairs(1, &[0, 2, 4, 6, 8, 10, 12, 14]));
        assert_eq!(schedule[1], pairs(2, &[0, 4, 8, 12]));
        assert_eq!(schedule[2], pairs(4, &[0, 8]));
        assert_eq!(schedule[3], pairs(8, &[0]));
        assert_eq!(schedule[4], pairs(4, &[4, 12]));
        assert_eq!(schedule[5], pairs(2, &[2, 6, 10, 14]));
        assert_eq!(schedule[6], pairs(1, &[1, 3, 5, 7, 9, 11, 13, 15]));
    }

    #[test]
    fn schedule_is_conflict_free_for_all_tau() {
        // The paper: "each overlapping triplet will be either modified
        // or deleted but these cases cannot be at the same iteration" —
        // i.e. per iteration, sources and targets are disjoint, and no
        // slot appears twice in either role.
        for tau_pow in 1..=10 {
            let tau = 1usize << tau_pow;
            for (iter, pairs) in combine_schedule(tau).iter().enumerate() {
                let sources: std::collections::HashSet<usize> =
                    pairs.iter().map(|&(s, _)| s).collect();
                let targets: std::collections::HashSet<usize> =
                    pairs.iter().map(|&(_, t)| t).collect();
                assert_eq!(
                    sources.len(),
                    pairs.len(),
                    "τ={tau} iter={iter}: dup source"
                );
                assert_eq!(
                    targets.len(),
                    pairs.len(),
                    "τ={tau} iter={iter}: dup target"
                );
                assert!(
                    sources.is_disjoint(&targets),
                    "τ={tau} iter={iter}: a slot is both source and target"
                );
            }
        }
    }

    #[test]
    fn schedule_covers_every_adjacent_pair() {
        // Every adjacent pair (i, i+1) must be combinable through some
        // path; the minimal necessary condition is that each pair
        // (s, s+d) appearing in the schedule chains any contiguous run.
        // Validated behaviourally by `every_offset_chain_reduces_to_one`;
        // here check the last iteration handles all odd seeds.
        let schedule = combine_schedule(64);
        let last = schedule.last().unwrap();
        let expected: Vec<(usize, usize)> = (1..63).step_by(2).map(|s| (s, s + 1)).collect();
        assert_eq!(*last, expected);
    }

    #[test]
    fn diag_key_orders_by_diagonal_then_q() {
        let a = Mem {
            r: 5,
            q: 10,
            len: 1,
        }; // diag -5
        let b = Mem {
            r: 10,
            q: 10,
            len: 1,
        }; // diag 0
        let c = Mem {
            r: 12,
            q: 12,
            len: 1,
        }; // diag 0, larger q
        assert!(diag_key(&a) < diag_key(&b));
        assert!(diag_key(&b) < diag_key(&c));
    }

    #[test]
    fn block_sort_orders_triplets() {
        let device = Device::new(DeviceSpec::test_tiny());
        let input = vec![
            Mem { r: 9, q: 1, len: 3 },
            Mem { r: 2, q: 2, len: 3 },
            Mem { r: 5, q: 5, len: 3 },
            Mem { r: 0, q: 7, len: 3 },
            Mem { r: 3, q: 3, len: 3 },
        ];
        let mut got = input.clone();
        device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
            block_sort_by_diag(ctx, &mut got);
        });
        let mut expect = input;
        expect.sort_unstable_by_key(diag_key);
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_combine_merges_runs() {
        let mut mems = vec![
            Mem {
                r: 10,
                q: 0,
                len: 6,
            }, // diag 10
            Mem {
                r: 14,
                q: 4,
                len: 6,
            }, // diag 10, overlapping
            Mem {
                r: 22,
                q: 12,
                len: 6,
            }, // diag 10, too far (gap)
            Mem { r: 5, q: 0, len: 9 }, // diag 5 — but sorted order matters:
        ];
        mems.sort_unstable_by_key(diag_key);
        let merges = scan_combine_sorted(&mut mems);
        assert_eq!(merges, 1);
        let alive: Vec<Mem> = mems.into_iter().filter(|m| m.len > 0).collect();
        assert!(alive.contains(&Mem {
            r: 10,
            q: 0,
            len: 10
        }));
        assert!(alive.contains(&Mem {
            r: 22,
            q: 12,
            len: 6
        }));
        assert!(alive.contains(&Mem { r: 5, q: 0, len: 9 }));
    }

    #[test]
    fn scan_combine_handles_duplicates_and_nesting() {
        let mut mems = vec![
            Mem {
                r: 10,
                q: 0,
                len: 20,
            },
            Mem {
                r: 10,
                q: 0,
                len: 5,
            }, // duplicate start, shorter
            Mem {
                r: 15,
                q: 5,
                len: 3,
            }, // nested inside the first
        ];
        mems.sort_unstable_by_key(diag_key);
        scan_combine_sorted(&mut mems);
        let alive: Vec<Mem> = mems.into_iter().filter(|m| m.len > 0).collect();
        assert_eq!(
            alive,
            vec![Mem {
                r: 10,
                q: 0,
                len: 20
            }]
        );
    }

    #[test]
    fn scan_combine_chains_transitively() {
        let mut mems: Vec<Mem> = (0..5)
            .map(|i| Mem {
                r: i * 4,
                q: i * 4,
                len: 4,
            })
            .collect();
        mems.sort_unstable_by_key(diag_key);
        scan_combine_sorted(&mut mems);
        let alive: Vec<Mem> = mems.into_iter().filter(|m| m.len > 0).collect();
        assert_eq!(
            alive,
            vec![Mem {
                r: 0,
                q: 0,
                len: 20
            }]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// scan-combine over random same-diagonal fragments equals the
        /// interval union when fragments pairwise chain.
        #[test]
        fn scan_combine_equals_interval_union(
            starts in proptest::collection::vec(0u32..60, 1..12),
            diag in 0u32..50,
        ) {
            // Fragments of length 10 at the given starts, one diagonal.
            let mut mems: Vec<Mem> = starts
                .iter()
                .map(|&q| Mem { r: q + diag, q, len: 10 })
                .collect();
            mems.sort_unstable_by_key(diag_key);
            scan_combine_sorted(&mut mems);
            let mut alive: Vec<(u32, u32)> = mems
                .iter()
                .filter(|m| m.len > 0)
                .map(|m| (m.q, m.q + m.len))
                .collect();
            alive.sort_unstable();
            // Expected: union of [q, q+10) intervals (they chain when
            // overlapping or touching).
            let mut sorted = starts.clone();
            sorted.sort_unstable();
            let mut expect: Vec<(u32, u32)> = Vec::new();
            for q in sorted {
                match expect.last_mut() {
                    Some((_, end)) if q <= *end => *end = (*end).max(q + 10),
                    _ => expect.push((q, q + 10)),
                }
            }
            prop_assert_eq!(alive, expect);
        }
    }
}
