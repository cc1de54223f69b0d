//! The proactive load-balancing heuristic (Algorithm 2, Figure 2).
//!
//! Each round of a block assigns `τ` query seeds to `τ` threads. Seed
//! occurrence counts are heavily skewed (Figure 6), so the straight
//! thread-per-seed assignment leaves most lanes idle while a few grind
//! through thousands of locations. The heuristic:
//!
//! 1. `load[tid]` ← occurrences of thread `tid`'s seed; `task[tid]` ← 1
//!    if that seed occurs at all;
//! 2. inclusive prefix sums over both (`GPUPrefixSum`);
//! 3. the `T_idle = τ − task[τ−1]` threads whose seeds are absent are
//!    redistributed: non-empty seed group `g` ends at thread
//!    `(g+1) + ⌊T_idle · cumload(g) / T_load⌋`, i.e. idle threads are
//!    handed out proportionally to cumulative load;
//! 4. each thread finds its group by binary search on the `assign`
//!    prefix array.
//!
//! With the heuristic disabled (Figure 7's ablation) the original
//! one-thread-per-seed assignment is used verbatim.
//!
//! Steps 1–2 branch only on thread id, so they charge the same on every
//! round, and on a single-seed round steps 3–4 charge a function of the
//! seed's slot alone. [`balance_into`] therefore runs those regions once
//! per [`BalanceScratch`] under [`BlockCtx::record`] and afterwards
//! [`BlockCtx::replay`]s their charge, computing the results on the host
//! (DESIGN.md §8, "Replaying known charges"). Steps 3–4 never run lanes:
//! the host fills `assign` and searches it for every thread, and each
//! lane is charged from what it would have done
//! ([`BlockCtx::simt_computed`], DESIGN.md §8, "Computing charges").

use std::ops::Range;

use gpu_sim::primitives::{block_inclusive_scan, upper_bound_probes};
use gpu_sim::{BlockCtx, LaneCharge, Op, RegionCharge};

/// One thread group serving one non-empty seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupAssign {
    /// Which of the round's `τ` seed slots this group serves.
    pub seed_slot: usize,
    /// The block-thread ids working for this seed.
    pub threads: Range<usize>,
}

/// The result of one round's thread assignment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assignment {
    /// Groups in seed-slot order.
    pub groups: Vec<GroupAssign>,
    /// `group_of_thread[tid]` — index into `groups`, or `usize::MAX`
    /// for an idle thread (only without load balancing).
    pub group_of_thread: Vec<usize>,
}

/// Marker for idle threads in [`Assignment::group_of_thread`].
pub const IDLE: usize = usize::MAX;

/// Reusable working storage for [`balance_into`] — the shared-memory
/// arrays of Algorithm 2, hoisted so every round reuses them, and the
/// recorded charges of the regions whose charge is known in advance.
#[derive(Debug, Default)]
pub struct BalanceScratch {
    load: Vec<u32>,
    task: Vec<u32>,
    assign: Vec<u32>,
    seed_slot_of_group: Vec<usize>,
    /// The Hillis–Steele scan's double buffer.
    scan_src: Vec<u32>,
    /// Charge of steps 1–2.
    scan_charge: Option<RegionCharge>,
    /// `single_seed[s]`: charge of steps 3–4 on a round whose only
    /// non-empty slot is `s` (τ entries).
    single_seed: Vec<Option<RegionCharge>>,
}

impl BalanceScratch {
    /// Number of recorded charges this scratch holds (at most τ + 1).
    pub fn recordings(&self) -> usize {
        usize::from(self.scan_charge.is_some()) + self.single_seed.iter().flatten().count()
    }
}

/// Run the assignment for one round. `loads[k]` is the index occurrence
/// count of the seed at slot `k` (0 for slots without a valid seed).
/// Allocates a fresh result; hot callers reuse storage via
/// [`balance_into`].
pub fn balance(ctx: &mut BlockCtx<'_>, loads: &[u32], enabled: bool) -> Assignment {
    let mut out = Assignment::default();
    balance_into(
        ctx,
        loads,
        enabled,
        &mut BalanceScratch::default(),
        &mut out,
    );
    out
}

/// [`balance`] into caller-owned storage: `out` is overwritten and
/// `scratch` provides the working arrays.
pub fn balance_into(
    ctx: &mut BlockCtx<'_>,
    loads: &[u32],
    enabled: bool,
    scratch: &mut BalanceScratch,
    out: &mut Assignment,
) {
    let tau = ctx.block_dim;
    assert_eq!(loads.len(), tau, "one load entry per thread");
    out.groups.clear();
    out.group_of_thread.clear();
    out.group_of_thread.resize(tau, IDLE);

    if !enabled {
        // Straight assignment: thread k serves seed slot k (if any).
        for (k, &load) in loads.iter().enumerate() {
            if load > 0 {
                out.group_of_thread[k] = out.groups.len();
                out.groups.push(GroupAssign {
                    seed_slot: k,
                    threads: k..k + 1,
                });
            }
        }
        return;
    }

    // Algorithm 2, step 1: per-thread load/task flags.
    let load = &mut scratch.load;
    let task = &mut scratch.task;
    let scan_src = &mut scratch.scan_src;
    load.clear();
    load.resize(tau, 0);
    task.clear();
    task.resize(tau, 0);
    let ran = ctx.replay_or_record(&mut scratch.scan_charge, |ctx| {
        ctx.simt(|lane| {
            lane.charge(Op::GlobalLoad, 1); // ptrs[s+1] - ptrs[s]
            lane.shared(2);
            load[lane.tid] = loads[lane.tid];
            task[lane.tid] = u32::from(loads[lane.tid] > 0);
        });

        // Step 2: GPUPrefixSum over both arrays.
        block_inclusive_scan(ctx, load, scan_src);
        block_inclusive_scan(ctx, task, scan_src);
    });
    if !ran {
        let (mut load_sum, mut task_sum) = (0u32, 0u32);
        for (k, &l) in loads.iter().enumerate() {
            load_sum = load_sum.wrapping_add(l);
            task_sum += u32::from(l > 0);
            load[k] = load_sum;
            task[k] = task_sum;
        }
    }

    let t_load = load[tau - 1] as usize;
    let n_groups = task[tau - 1] as usize;
    if n_groups == 0 {
        return;
    }
    let t_idle = tau - n_groups;

    // Step 3: fill `assign` (group boundaries) and the seed slot of
    // each group, in parallel (each non-empty slot writes its own
    // group's entry).
    let assign = &mut scratch.assign;
    let seed_slot_of_group = &mut scratch.seed_slot_of_group;
    assign.clear();
    assign.resize(n_groups + 1, 0);
    seed_slot_of_group.clear();
    seed_slot_of_group.resize(n_groups, 0);
    let group_of_thread = &mut out.group_of_thread;
    let mut steps_3_4 = |ctx: &mut BlockCtx<'_>| {
        ctx.simt_computed(0..tau, |tid| {
            let nonempty = loads[tid] > 0;
            if nonempty {
                let g = task[tid] as usize - 1;
                let offset = t_idle * load[tid] as usize / t_load;
                assign[g + 1] = ((g + 1) + offset) as u32;
                seed_slot_of_group[g] = tid;
            }
            LaneCharge::on_path(u64::from(nonempty))
                .with(Op::Alu, 4)
                .with(Op::Shared, 2)
                .with(Op::Branch, 1)
        });

        // Step 4: every thread binary-searches its group, one shared
        // read and one compare per probe.
        ctx.simt_computed(0..tau, |tid| {
            let (end, probes) = upper_bound_probes(assign, tid as u32);
            group_of_thread[tid] = end - 1;
            LaneCharge::on_path(0)
                .with(Op::Shared, probes)
                .with(Op::Compare, probes)
        });
    };
    if n_groups == 1 {
        // A single-seed round: every thread joins the one group, and
        // step 3 diverges only in the warp holding its slot.
        let slot = loads
            .iter()
            .position(|&l| l > 0)
            .expect("one non-empty slot");
        scratch.single_seed.resize(tau, None);
        if !ctx.replay_or_record(&mut scratch.single_seed[slot], steps_3_4) {
            assign[1] = tau as u32;
            seed_slot_of_group[0] = slot;
            group_of_thread.fill(0);
        }
    } else {
        steps_3_4(ctx);
    }
    debug_assert_eq!(assign[n_groups] as usize, tau, "all threads assigned");

    out.groups.extend((0..n_groups).map(|g| GroupAssign {
        seed_slot: seed_slot_of_group[g],
        threads: assign[g] as usize..assign[g + 1] as usize,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec, LaunchConfig};

    fn run_balance(loads: Vec<u32>, enabled: bool) -> Assignment {
        let device = Device::new(DeviceSpec::test_tiny());
        let mut out = Assignment::default();
        device.launch(LaunchConfig::new(1, loads.len()), "test", |ctx| {
            out = balance(ctx, &loads, enabled);
        });
        out
    }

    /// Invariants every assignment must satisfy.
    fn check_invariants(loads: &[u32], a: &Assignment, enabled: bool) {
        let tau = loads.len();
        // One group per non-empty slot, in slot order.
        let nonempty: Vec<usize> = (0..tau).filter(|&k| loads[k] > 0).collect();
        assert_eq!(a.groups.len(), nonempty.len());
        for (g, &slot) in nonempty.iter().enumerate() {
            assert_eq!(a.groups[g].seed_slot, slot);
            assert!(!a.groups[g].threads.is_empty(), "every group gets a thread");
        }
        if enabled && !a.groups.is_empty() {
            // Groups partition 0..tau contiguously.
            assert_eq!(a.groups[0].threads.start, 0);
            for w in a.groups.windows(2) {
                assert_eq!(w[0].threads.end, w[1].threads.start);
            }
            assert_eq!(a.groups.last().unwrap().threads.end, tau);
            // group_of_thread is consistent with the ranges.
            for (g, group) in a.groups.iter().enumerate() {
                for tid in group.threads.clone() {
                    assert_eq!(a.group_of_thread[tid], g, "tid {tid}");
                }
            }
        }
    }

    #[test]
    fn empty_loads_give_no_groups() {
        let a = run_balance(vec![0; 32], true);
        assert!(a.groups.is_empty());
        assert!(a.group_of_thread.iter().all(|&g| g == IDLE));
    }

    #[test]
    fn uniform_loads_give_one_thread_each() {
        let loads = vec![5u32; 32];
        let a = run_balance(loads.clone(), true);
        check_invariants(&loads, &a, true);
        for group in &a.groups {
            assert_eq!(group.threads.len(), 1, "no idle threads to share");
        }
    }

    #[test]
    fn skewed_load_attracts_idle_threads() {
        // One heavy seed, one light seed, 30 idle slots.
        let mut loads = vec![0u32; 32];
        loads[3] = 90;
        loads[20] = 10;
        let a = run_balance(loads.clone(), true);
        check_invariants(&loads, &a, true);
        let heavy = &a.groups[0];
        let light = &a.groups[1];
        assert_eq!(heavy.seed_slot, 3);
        assert!(
            heavy.threads.len() > 5 * light.threads.len().min(6),
            "heavy group {} threads vs light {}",
            heavy.threads.len(),
            light.threads.len()
        );
        assert_eq!(heavy.threads.len() + light.threads.len(), 32);
    }

    #[test]
    fn proportionality_matches_the_formula() {
        // loads 3, 0, 1, 2 (the shape of the paper's toy example,
        // padded to a full warp).
        let mut loads = vec![0u32; 32];
        loads[0] = 3;
        loads[2] = 1;
        loads[3] = 2;
        let a = run_balance(loads.clone(), true);
        check_invariants(&loads, &a, true);
        // T_idle = 29, T_load = 6; boundaries at
        // 1 + ⌊29·3/6⌋ = 15, 2 + ⌊29·4/6⌋ = 21, 3 + 29 = 32.
        assert_eq!(a.groups[0].threads, 0..15);
        assert_eq!(a.groups[1].threads, 15..21);
        assert_eq!(a.groups[2].threads, 21..32);
    }

    #[test]
    fn disabled_mode_is_identity() {
        let mut loads = vec![0u32; 16];
        loads[2] = 50;
        loads[7] = 1;
        let a = run_balance(loads.clone(), false);
        check_invariants(&loads, &a, false);
        assert_eq!(a.groups[0].threads, 2..3);
        assert_eq!(a.groups[1].threads, 7..8);
        assert_eq!(a.group_of_thread[2], 0);
        assert_eq!(a.group_of_thread[7], 1);
        assert_eq!(a.group_of_thread[0], IDLE);
    }

    #[test]
    fn single_heavy_seed_takes_all_threads() {
        let mut loads = vec![0u32; 64];
        loads[10] = 1000;
        let a = run_balance(loads.clone(), true);
        check_invariants(&loads, &a, true);
        assert_eq!(a.groups.len(), 1);
        assert_eq!(a.groups[0].threads, 0..64);
    }

    #[test]
    fn balancing_reduces_modeled_imbalance() {
        // Simulated round: lane work proportional to its share of the
        // per-seed load. With balancing the heavy seed's work spreads
        // over the block; warp cycles (max-per-warp) drop.
        let device = Device::new(DeviceSpec::test_tiny());
        let mut loads = vec![0u32; 64];
        loads[0] = 6_400;
        let work = |enabled: bool| {
            device
                .launch(LaunchConfig::new(1, 64), "test", |ctx| {
                    let a = balance(ctx, &loads, enabled);
                    ctx.simt(|lane| {
                        let g = a.group_of_thread[lane.tid];
                        if g == IDLE {
                            return;
                        }
                        let group = &a.groups[g];
                        let total = loads[group.seed_slot] as usize;
                        let share = total / group.threads.len();
                        lane.charge(Op::Compare, share as u64);
                    });
                })
                .warp_cycles
        };
        let balanced = work(true);
        let unbalanced = work(false);
        assert!(
            unbalanced > balanced * 5,
            "unbalanced {unbalanced} vs balanced {balanced}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec, LaunchConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn assignment_invariants_hold(
            loads in proptest::collection::vec(0u32..100, 32),
            enabled: bool,
        ) {
            let device = Device::new(DeviceSpec::test_tiny());
            let mut a = Assignment::default();
            device.launch(LaunchConfig::new(1, 32), "test", |ctx| {
                a = balance(ctx, &loads, enabled);
            });
            let nonempty = loads.iter().filter(|&&l| l > 0).count();
            prop_assert_eq!(a.groups.len(), nonempty);
            for group in &a.groups {
                prop_assert!(loads[group.seed_slot] > 0);
                prop_assert!(!group.threads.is_empty());
                prop_assert!(group.threads.end <= 32);
            }
            if enabled && nonempty > 0 {
                prop_assert_eq!(a.groups[0].threads.start, 0);
                prop_assert_eq!(a.groups.last().unwrap().threads.end, 32);
                for w in a.groups.windows(2) {
                    prop_assert_eq!(w[0].threads.end, w[1].threads.start);
                }
            }
        }
    }
}
