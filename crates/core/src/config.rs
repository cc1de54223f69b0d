//! Pipeline configuration (the parameters of Table I).
//!
//! | Symbol | Field | Derivation |
//! |---|---|---|
//! | `L` | `min_len` | user input |
//! | `ℓs` | `seed_len` | default `min(13, L)` |
//! | `Δs` | `step` | reference sampling step: default `L − ℓs + 1` (Eq. 1 maximum); `k1` under [`SeedMode::DualSampled`] |
//! | — | `query_step()` | query probing step: 1 (`RefOnly`) or `k2` (`DualSampled`) |
//! | `w` | `w()` | `= step · query_step()` — `= Δs` in `RefOnly` (§III-B2: "GPUMEM uses w = Δs"), `= k1·k2` in dual mode, so `w` is the anchor spacing along a diagonal in both |
//! | `τ` | `threads_per_block` | power of two (Algorithm 3 needs `log₂ τ`) |
//! | `ℓ_block` | `block_width()` | `= τ · w` |
//! | `n_block` | `blocks_per_tile` | user input |
//! | `ℓ_tile` | `tile_len()` | `= n_block · ℓ_block` — automatically a multiple of both `step` and `query_step()`, which keeps the reference *and* query sampling phases continuous across tile rows/columns (required for the Eq. 1 / CRT coverage guarantee to hold globally) |

use gpumem_index::{check_dual_steps, check_step, max_step, IndexError, SeedCodec, SeedMode};

/// Which index layout the pipeline builds per tile row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The paper's dense `ptrs`/`locs` table (Algorithm 1).
    #[default]
    DenseTable,
    /// The compact sorted directory (`O(n_locs)` memory, binary-search
    /// lookups) — the §V "novel indexing techniques" extension.
    CompactDirectory,
}

/// Validated GPUMEM configuration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GpumemConfig {
    /// Minimum MEM length `L`.
    pub min_len: u32,
    /// Indexing seed length `ℓs`.
    pub seed_len: usize,
    /// Reference sampling step: `Δs` under [`SeedMode::RefOnly`], `k1`
    /// under [`SeedMode::DualSampled`] (the builder keeps them in
    /// sync).
    pub step: usize,
    /// How seeds are sampled and probed (reference-only vs copMEM-style
    /// dual sampling).
    pub seed_mode: SeedMode,
    /// Threads per GPU block `τ` (power of two).
    pub threads_per_block: usize,
    /// Blocks per tile `n_block`.
    pub blocks_per_tile: usize,
    /// Whether the proactive load-balancing heuristic (Algorithm 2) is
    /// applied. Disabled only for the Figure 7 ablation.
    pub load_balancing: bool,
    /// The per-row index layout.
    pub index_kind: IndexKind,
}

/// Configuration errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `Δs`/`ℓs`/`L` violate Eq. 1 (see [`IndexError`]).
    Index(IndexError),
    /// `τ` must be a power of two of at least 2 for the combine
    /// schedule (Algorithm 3 runs `2·log₂ τ − 1` iterations).
    TauNotPowerOfTwo(usize),
    /// `n_block` must be positive.
    NoBlocks,
    /// `L` must be positive.
    ZeroMinLen,
    /// `ℓs` must lie in `1..=`[`SeedCodec::MAX_SEED_LEN`]: a seed code
    /// packs `2·ℓs` bits into a `u32`.
    SeedLenOutOfRange(usize),
    /// An explicit `step` was combined with [`SeedMode::DualSampled`]
    /// and disagrees with its `k1` — in dual mode the reference step
    /// *is* `k1`, so there is nothing independent to override.
    StepConflictsWithSeedMode {
        /// The explicit step.
        step: usize,
        /// The dual mode's reference step.
        k1: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Index(e) => write!(f, "{e}"),
            ConfigError::TauNotPowerOfTwo(tau) => {
                write!(
                    f,
                    "threads_per_block must be a power of two >= 2, got {tau}"
                )
            }
            ConfigError::NoBlocks => write!(f, "blocks_per_tile must be positive"),
            ConfigError::ZeroMinLen => write!(f, "minimum MEM length L must be positive"),
            ConfigError::SeedLenOutOfRange(seed_len) => write!(
                f,
                "seed length {seed_len} out of range 1..={}",
                SeedCodec::MAX_SEED_LEN
            ),
            ConfigError::StepConflictsWithSeedMode { step, k1 } => write!(
                f,
                "explicit step {step} conflicts with DualSampled k1 = {k1}; in dual mode the reference step is k1"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<IndexError> for ConfigError {
    fn from(e: IndexError) -> ConfigError {
        ConfigError::Index(e)
    }
}

impl GpumemConfig {
    /// Start building a configuration for minimum MEM length `L`.
    pub fn builder(min_len: u32) -> GpumemConfigBuilder {
        GpumemConfigBuilder {
            min_len,
            seed_len: None,
            step: None,
            seed_mode: SeedMode::RefOnly,
            threads_per_block: 64,
            blocks_per_tile: 16,
            load_balancing: true,
            index_kind: IndexKind::DenseTable,
        }
    }

    /// The query probing step: every `query_step()`-th query position is
    /// looked up in the index (1 in [`SeedMode::RefOnly`], `k2` in
    /// [`SeedMode::DualSampled`]).
    #[inline(always)]
    pub fn query_step(&self) -> usize {
        self.seed_mode.query_step()
    }

    /// `w`, the query locations per thread per block sweep: `= Δs`
    /// under [`SeedMode::RefOnly`], `= k1·k2` under
    /// [`SeedMode::DualSampled`]. Either way it is the spacing of
    /// consecutive anchors along one diagonal, which is what the round
    /// structure and the tree combine rely on.
    #[inline(always)]
    pub fn w(&self) -> usize {
        self.step * self.query_step()
    }

    /// `ℓ_block = τ · w`.
    #[inline(always)]
    pub fn block_width(&self) -> usize {
        self.threads_per_block * self.w()
    }

    /// `ℓ_tile = n_block · ℓ_block`.
    #[inline(always)]
    pub fn tile_len(&self) -> usize {
        self.blocks_per_tile * self.block_width()
    }

    /// Triplet lengths are capped at `max(w, ℓs)` during generation
    /// (§III-B2: extension stops when the length "reaches w"; a bare
    /// seed is already `ℓs` long).
    #[inline(always)]
    pub fn generation_cap(&self) -> usize {
        self.w().max(self.seed_len)
    }
}

/// Builder for [`GpumemConfig`].
#[derive(Clone, Debug)]
pub struct GpumemConfigBuilder {
    min_len: u32,
    seed_len: Option<usize>,
    step: Option<usize>,
    seed_mode: SeedMode,
    threads_per_block: usize,
    blocks_per_tile: usize,
    load_balancing: bool,
    index_kind: IndexKind,
}

impl GpumemConfigBuilder {
    /// Set `ℓs` (default `min(13, L)`).
    pub fn seed_len(mut self, seed_len: usize) -> Self {
        self.seed_len = Some(seed_len);
        self
    }

    /// Override `Δs` (default: the Eq. 1 maximum `L − ℓs + 1`).
    /// Incompatible with [`SeedMode::DualSampled`], whose reference
    /// step is its `k1`.
    pub fn step(mut self, step: usize) -> Self {
        self.step = Some(step);
        self
    }

    /// Choose the seed sampling scheme (default
    /// [`SeedMode::RefOnly`]). [`SeedMode::DualSampled`] steps are
    /// validated by `build()` via
    /// [`check_dual_steps`].
    pub fn seed_mode(mut self, mode: SeedMode) -> Self {
        self.seed_mode = mode;
        self
    }

    /// Set `τ` (default 64; must be a power of two ≥ 2).
    pub fn threads_per_block(mut self, tau: usize) -> Self {
        self.threads_per_block = tau;
        self
    }

    /// Set `n_block` (default 16).
    pub fn blocks_per_tile(mut self, n: usize) -> Self {
        self.blocks_per_tile = n;
        self
    }

    /// Toggle the load-balancing heuristic (Figure 7 ablation).
    pub fn load_balancing(mut self, on: bool) -> Self {
        self.load_balancing = on;
        self
    }

    /// Choose the per-row index layout (default: the paper's dense
    /// table).
    pub fn index_kind(mut self, kind: IndexKind) -> Self {
        self.index_kind = kind;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<GpumemConfig, ConfigError> {
        if self.min_len == 0 {
            return Err(ConfigError::ZeroMinLen);
        }
        let seed_len = self
            .seed_len
            .unwrap_or_else(|| 13usize.min(self.min_len as usize));
        if !(1..=SeedCodec::MAX_SEED_LEN).contains(&seed_len) {
            return Err(ConfigError::SeedLenOutOfRange(seed_len));
        }
        if seed_len as u32 > self.min_len {
            return Err(IndexError::SeedLongerThanL {
                seed_len,
                min_len: self.min_len,
            }
            .into());
        }
        let step = match self.seed_mode {
            SeedMode::RefOnly => {
                let step = self
                    .step
                    .unwrap_or_else(|| max_step(self.min_len, seed_len));
                check_step(step, self.min_len, seed_len)?;
                step
            }
            SeedMode::DualSampled { k1, k2 } => {
                if let Some(step) = self.step {
                    if step != k1 {
                        return Err(ConfigError::StepConflictsWithSeedMode { step, k1 });
                    }
                }
                check_dual_steps(k1, k2, self.min_len, seed_len)?;
                k1
            }
        };
        if self.threads_per_block < 2 || !self.threads_per_block.is_power_of_two() {
            return Err(ConfigError::TauNotPowerOfTwo(self.threads_per_block));
        }
        if self.blocks_per_tile == 0 {
            return Err(ConfigError::NoBlocks);
        }
        Ok(GpumemConfig {
            min_len: self.min_len,
            seed_len,
            step,
            seed_mode: self.seed_mode,
            threads_per_block: self.threads_per_block,
            blocks_per_tile: self.blocks_per_tile,
            load_balancing: self.load_balancing,
            index_kind: self.index_kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let config = GpumemConfig::builder(50).build().unwrap();
        assert_eq!(config.seed_len, 13);
        assert_eq!(config.step, 38, "Eq. 1 maximum for L=50, ls=13");
        assert_eq!(config.w(), 38);
        assert_eq!(config.block_width(), 64 * 38);
        assert_eq!(config.tile_len(), 16 * 64 * 38);
        assert!(config.load_balancing);
    }

    #[test]
    fn tile_len_is_a_multiple_of_step() {
        for l in [10u32, 20, 30, 50, 100, 150] {
            let config = GpumemConfig::builder(l).build().unwrap();
            assert_eq!(config.tile_len() % config.step, 0, "L = {l}");
        }
    }

    #[test]
    fn small_l_caps_seed_len() {
        let config = GpumemConfig::builder(10).build().unwrap();
        assert_eq!(config.seed_len, 10, "ls capped to L (the paper's last row)");
        assert_eq!(config.step, 1, "full index when L = ls");
    }

    #[test]
    fn generation_cap_covers_both_regimes() {
        // w > ls (L = 50, ls = 13 → w = 38).
        let wide = GpumemConfig::builder(50).build().unwrap();
        assert_eq!(wide.generation_cap(), 38);
        // w < ls (L = 20, ls = 13 → w = 8).
        let narrow = GpumemConfig::builder(20).build().unwrap();
        assert_eq!(narrow.step, 8);
        assert_eq!(narrow.generation_cap(), 13);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            GpumemConfig::builder(0).build(),
            Err(ConfigError::ZeroMinLen)
        ));
        for seed_len in [0, SeedCodec::MAX_SEED_LEN + 1] {
            assert_eq!(
                GpumemConfig::builder(50).seed_len(seed_len).build(),
                Err(ConfigError::SeedLenOutOfRange(seed_len))
            );
        }
        assert!(matches!(
            GpumemConfig::builder(10).seed_len(13).build(),
            Err(ConfigError::Index(IndexError::SeedLongerThanL { .. }))
        ));
        assert!(matches!(
            GpumemConfig::builder(50).step(39).build(),
            Err(ConfigError::Index(IndexError::StepTooLarge { .. }))
        ));
        assert!(matches!(
            GpumemConfig::builder(50).threads_per_block(48).build(),
            Err(ConfigError::TauNotPowerOfTwo(48))
        ));
        assert!(matches!(
            GpumemConfig::builder(50).threads_per_block(1).build(),
            Err(ConfigError::TauNotPowerOfTwo(1))
        ));
        assert!(matches!(
            GpumemConfig::builder(50).blocks_per_tile(0).build(),
            Err(ConfigError::NoBlocks)
        ));
    }

    #[test]
    fn index_kind_defaults_to_dense_and_is_settable() {
        let config = GpumemConfig::builder(50).build().unwrap();
        assert_eq!(config.index_kind, IndexKind::DenseTable);
        let compact = GpumemConfig::builder(50)
            .index_kind(IndexKind::CompactDirectory)
            .build()
            .unwrap();
        assert_eq!(compact.index_kind, IndexKind::CompactDirectory);
    }

    #[test]
    fn explicit_step_below_maximum_is_allowed() {
        let config = GpumemConfig::builder(50).step(10).build().unwrap();
        assert_eq!(config.step, 10);
    }

    #[test]
    fn errors_display_cleanly() {
        let err = GpumemConfig::builder(50)
            .threads_per_block(3)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn dual_mode_derives_the_table_i_quantities() {
        let config = GpumemConfig::builder(25)
            .seed_len(8)
            .seed_mode(SeedMode::DualSampled { k1: 4, k2: 3 })
            .build()
            .unwrap();
        assert_eq!(config.step, 4, "reference step is k1");
        assert_eq!(config.query_step(), 3);
        assert_eq!(config.w(), 12, "w = k1·k2 = anchor spacing");
        assert_eq!(config.block_width(), 64 * 12);
        assert_eq!(config.tile_len(), 16 * 64 * 12);
        assert_eq!(config.generation_cap(), 12, "cap = max(w, ls)");
        // Phase continuity: tile rows/cols start on multiples of both
        // sampling grids.
        assert_eq!(config.tile_len() % config.step, 0);
        assert_eq!(config.tile_len() % config.query_step(), 0);
    }

    #[test]
    fn ref_only_mode_is_the_default_and_unchanged() {
        let config = GpumemConfig::builder(50).build().unwrap();
        assert_eq!(config.seed_mode, SeedMode::RefOnly);
        assert_eq!(config.query_step(), 1);
        assert_eq!(config.w(), config.step, "w = Δs exactly as before");
    }

    #[test]
    fn dual_mode_with_unit_query_step_degenerates_to_ref_only_geometry() {
        let dual = GpumemConfig::builder(25)
            .seed_len(8)
            .seed_mode(SeedMode::DualSampled { k1: 5, k2: 1 })
            .build()
            .unwrap();
        let explicit = GpumemConfig::builder(25)
            .seed_len(8)
            .step(5)
            .build()
            .unwrap();
        assert_eq!(dual.w(), explicit.w());
        assert_eq!(dual.step, explicit.step);
        assert_eq!(dual.tile_len(), explicit.tile_len());
    }

    #[test]
    fn dual_mode_rejects_invalid_steps() {
        assert!(matches!(
            GpumemConfig::builder(25)
                .seed_len(8)
                .seed_mode(SeedMode::DualSampled { k1: 4, k2: 6 })
                .build(),
            Err(ConfigError::Index(IndexError::StepsNotCoprime {
                gcd: 2,
                ..
            }))
        ));
        assert!(matches!(
            GpumemConfig::builder(25)
                .seed_len(8)
                .seed_mode(SeedMode::DualSampled { k1: 5, k2: 4 })
                .build(),
            Err(ConfigError::Index(IndexError::DualProductTooLarge { .. }))
        ));
        assert!(matches!(
            GpumemConfig::builder(25)
                .seed_len(8)
                .seed_mode(SeedMode::DualSampled { k1: 0, k2: 3 })
                .build(),
            Err(ConfigError::Index(IndexError::StepZero))
        ));
    }

    #[test]
    fn dual_mode_rejects_a_conflicting_explicit_step() {
        let err = GpumemConfig::builder(25)
            .seed_len(8)
            .step(7)
            .seed_mode(SeedMode::DualSampled { k1: 4, k2: 3 })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::StepConflictsWithSeedMode { step: 7, k1: 4 }
        ));
        assert!(err.to_string().contains("k1"));
        // An agreeing explicit step is tolerated.
        let ok = GpumemConfig::builder(25)
            .seed_len(8)
            .step(4)
            .seed_mode(SeedMode::DualSampled { k1: 4, k2: 3 })
            .build()
            .unwrap();
        assert_eq!(ok.step, 4);
    }
}
