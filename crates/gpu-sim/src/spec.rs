//! Device specifications.

/// Static description of a simulated GPU.
///
/// The defaults mirror the paper's evaluation hardware (§IV): a Tesla
/// K20c with 13 streaming multiprocessors of 192 CUDA cores each,
/// clocked at 0.706 GHz, with 4.8 GB of usable global memory and ECC on.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Threads per warp (32 on every CUDA architecture the paper
    /// mentions).
    pub warp_size: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Usable global memory in bytes.
    pub global_mem_bytes: u64,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
}

impl DeviceSpec {
    /// The paper's Tesla K20c (13 SM × 192 cores = 2496 CUDA cores at
    /// 0.706 GHz, 4.8 GB global memory).
    pub fn tesla_k20c() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla K20c (simulated)",
            sm_count: 13,
            cores_per_sm: 192,
            warp_size: 32,
            clock_hz: 0.706e9,
            global_mem_bytes: 4_800_000_000,
            max_threads_per_block: 1024,
        }
    }

    /// The paper's "future work" card, for the forward-looking ablation
    /// (§V mentions evaluating on a Tesla K40: 15 SMs, 0.745 GHz, 12 GB).
    pub fn tesla_k40() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla K40 (simulated)",
            sm_count: 15,
            cores_per_sm: 192,
            warp_size: 32,
            clock_hz: 0.745e9,
            global_mem_bytes: 12_000_000_000,
            max_threads_per_block: 1024,
        }
    }

    /// A tiny device for unit tests: 2 SMs, small warps are still 32.
    pub fn test_tiny() -> DeviceSpec {
        DeviceSpec {
            name: "test-tiny",
            sm_count: 2,
            cores_per_sm: 64,
            warp_size: 32,
            clock_hz: 1.0e9,
            global_mem_bytes: 1 << 30,
            max_threads_per_block: 256,
        }
    }

    /// Total CUDA cores.
    pub fn total_cores(&self) -> usize {
        self.sm_count * self.cores_per_sm
    }

    /// How many warps one SM can execute concurrently (one warp per
    /// group of `warp_size` cores).
    pub fn warps_in_flight_per_sm(&self) -> usize {
        (self.cores_per_sm / self.warp_size).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20c_matches_paper_figures() {
        let spec = DeviceSpec::tesla_k20c();
        assert_eq!(spec.sm_count, 13);
        assert_eq!(spec.cores_per_sm, 192);
        assert_eq!(spec.total_cores(), 2496);
        assert_eq!(spec.warp_size, 32);
        assert_eq!(spec.warps_in_flight_per_sm(), 6);
    }

    #[test]
    fn k40_is_larger_than_k20c() {
        let k20 = DeviceSpec::tesla_k20c();
        let k40 = DeviceSpec::tesla_k40();
        assert!(k40.total_cores() > k20.total_cores());
        assert!(k40.clock_hz > k20.clock_hz);
        assert!(k40.global_mem_bytes > k20.global_mem_bytes);
    }
}
