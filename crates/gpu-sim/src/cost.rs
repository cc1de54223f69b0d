//! The cycle cost model.
//!
//! Lanes charge themselves per abstract operation; the model maps each
//! operation class to a cycle cost. The absolute values are a coarse
//! Kepler-era approximation (global memory ~hundreds of cycles raw, but
//! amortized by coalescing and latency hiding to tens; atomics costlier
//! than plain accesses; shared memory near register speed). What the
//! experiments depend on is the *ordering* (atomic > global > shared >
//! ALU) and the warp-max aggregation, not the absolute numbers — see
//! DESIGN.md §2.

/// Operation classes a lane can charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Arithmetic / logic on registers.
    Alu,
    /// A comparison (tracked separately because base-comparison counts
    /// are the natural work unit of MEM extraction).
    Compare,
    /// Coalesced global-memory read of one element/word.
    GlobalLoad,
    /// Coalesced global-memory write of one element/word.
    GlobalStore,
    /// Shared-memory access.
    Shared,
    /// Atomic read-modify-write on global memory (`atomicAdd` in
    /// Algorithm 1).
    Atomic,
    /// A potentially-divergent branch decision.
    Branch,
    /// Block-wide barrier (`__syncthreads`).
    Sync,
}

/// Cycle cost per operation class.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Cost of [`Op::Alu`].
    pub alu: u64,
    /// Cost of [`Op::Compare`].
    pub compare: u64,
    /// Cost of [`Op::GlobalLoad`].
    pub global_load: u64,
    /// Cost of [`Op::GlobalStore`].
    pub global_store: u64,
    /// Cost of [`Op::Shared`].
    pub shared: u64,
    /// Cost of [`Op::Atomic`].
    pub atomic: u64,
    /// Cost of [`Op::Branch`].
    pub branch: u64,
    /// Cost of [`Op::Sync`].
    pub sync: u64,
    /// Extra cycles serialized onto a warp each time its lanes disagree
    /// on a branch (the "divergent warps are serialized" effect of
    /// §II-B).
    pub divergence_penalty: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            alu: 1,
            compare: 1,
            global_load: 16,
            global_store: 16,
            shared: 1,
            atomic: 48,
            branch: 1,
            sync: 2,
            divergence_penalty: 8,
        }
    }
}

impl CostModel {
    /// Cycles for `count` operations of class `op`.
    #[inline(always)]
    pub fn cycles(&self, op: Op, count: u64) -> u64 {
        let unit = match op {
            Op::Alu => self.alu,
            Op::Compare => self.compare,
            Op::GlobalLoad => self.global_load,
            Op::GlobalStore => self.global_store,
            Op::Shared => self.shared,
            Op::Atomic => self.atomic,
            Op::Branch => self.branch,
            Op::Sync => self.sync,
        };
        unit.saturating_mul(count)
    }

    /// Cycles for `counts[op as usize]` operations of every class `op`:
    /// the sum of [`CostModel::cycles`] over the classes, which never
    /// saturate at the counts a kernel makes. Plain products let the
    /// sum vectorize.
    #[inline(always)]
    pub(crate) fn price(&self, counts: &[u64; 8]) -> u64 {
        let units = [
            self.alu,
            self.compare,
            self.global_load,
            self.global_store,
            self.shared,
            self.atomic,
            self.branch,
            self.sync,
        ];
        units.iter().zip(counts).map(|(unit, n)| unit * n).sum()
    }

    /// A free model (every op zero cycles) — for tests that only check
    /// functional behaviour.
    pub fn zero() -> CostModel {
        CostModel {
            alu: 0,
            compare: 0,
            global_load: 0,
            global_store: 0,
            shared: 0,
            atomic: 0,
            branch: 0,
            sync: 0,
            divergence_penalty: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ordering_is_sane() {
        let m = CostModel::default();
        assert!(m.atomic > m.global_load, "atomics cost more than loads");
        assert!(m.global_load > m.shared, "global costs more than shared");
        assert!(m.shared >= m.alu, "shared costs at least ALU");
    }

    #[test]
    fn cycles_multiplies() {
        let m = CostModel::default();
        assert_eq!(m.cycles(Op::GlobalLoad, 3), 3 * m.global_load);
        assert_eq!(m.cycles(Op::Alu, 0), 0);
    }

    #[test]
    fn cycles_saturates() {
        let m = CostModel::default();
        assert_eq!(m.cycles(Op::Atomic, u64::MAX), u64::MAX);
    }

    #[test]
    fn price_sums_the_cycles_of_every_class() {
        let m = CostModel::default();
        let ops = [
            Op::Alu,
            Op::Compare,
            Op::GlobalLoad,
            Op::GlobalStore,
            Op::Shared,
            Op::Atomic,
            Op::Branch,
            Op::Sync,
        ];
        let mut all = [0; 8];
        for (i, op) in ops.into_iter().enumerate() {
            let n = 3 * i as u64 + 1;
            let mut one = [0; 8];
            one[op as usize] = n;
            assert_eq!(m.price(&one), m.cycles(op, n), "{op:?}");
            all[op as usize] = n;
        }
        let sum: u64 = ops.iter().map(|&op| m.cycles(op, all[op as usize])).sum();
        assert_eq!(m.price(&all), sum);
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        for op in [Op::Alu, Op::GlobalLoad, Op::Atomic, Op::Sync] {
            assert_eq!(m.cycles(op, 1000), 0);
        }
    }
}
