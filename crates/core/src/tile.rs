//! 2-D partitioning of the reference × query search space (§III, Fig. 1).
//!
//! The `|R| × |Q|` space is cut into `ℓ_tile × ℓ_tile` square tiles
//! (`n_r` rows × `n_c` columns); a tile row shares one partial index of
//! its reference region, and each tile is further cut into `n_block`
//! query slices of width `ℓ_block`, one GPU block each.

use std::ops::Range;

use gpumem_index::Region;

/// The tiling of one reference against any query: `ℓ_tile` and `|R|`
/// fix the tile rows, which no query changes, and a query's length fixes
/// its columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tiling {
    /// `ℓ_tile`.
    pub tile_len: usize,
    /// `|R|`.
    pub ref_len: usize,
}

impl Tiling {
    /// Create a tiling; `tile_len` must be positive.
    pub fn new(tile_len: usize, ref_len: usize) -> Tiling {
        assert!(tile_len > 0, "tile_len must be positive");
        Tiling { tile_len, ref_len }
    }

    /// Number of tile rows `n_r`.
    pub fn n_rows(&self) -> usize {
        self.ref_len.div_ceil(self.tile_len)
    }

    /// Reference region of tile row `row` (clipped at `|R|`): what the
    /// row's partial index covers.
    pub fn row_region(&self, row: usize) -> Region {
        let start = row * self.tile_len;
        let end = (start + self.tile_len).min(self.ref_len);
        Region {
            start,
            len: end.saturating_sub(start),
        }
    }

    /// Number of tile columns `n_c` of a `query_len`-base query.
    pub fn n_cols(&self, query_len: usize) -> usize {
        query_len.div_ceil(self.tile_len)
    }

    /// Query range of tile column `col` of a `query_len`-base query
    /// (clipped at `|Q|`).
    pub fn col_range(&self, col: usize, query_len: usize) -> Range<usize> {
        let start = col * self.tile_len;
        start..(start + self.tile_len).min(query_len)
    }

    /// Query range of block `block` (`width` bases wide) inside tile
    /// column `col` of a `query_len`-base query, clipped to the column.
    pub fn block_range(
        &self,
        col: usize,
        block: usize,
        width: usize,
        query_len: usize,
    ) -> Range<usize> {
        let col_range = self.col_range(col, query_len);
        let start = (col_range.start + block * width).min(col_range.end);
        start..(start + width).min(col_range.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(start: usize, len: usize) -> Region {
        Region { start, len }
    }

    #[test]
    fn exact_division() {
        let t = Tiling::new(100, 400);
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(300), 3);
        assert_eq!(t.row_region(0), region(0, 100));
        assert_eq!(t.row_region(3), region(300, 100));
        assert_eq!(t.col_range(2, 300), 200..300);
    }

    #[test]
    fn ragged_edges_are_clipped() {
        let t = Tiling::new(100, 250);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(130), 2);
        assert_eq!(t.row_region(2), region(200, 50));
        assert_eq!(t.col_range(1, 130), 100..130);
    }

    #[test]
    fn tiles_cover_everything_exactly_once() {
        let t = Tiling::new(37, 1000);
        let covered: usize = (0..t.n_rows()).map(|r| t.row_region(r).len).sum();
        assert_eq!(covered, 1000);
        let covered: usize = (0..t.n_cols(500)).map(|c| t.col_range(c, 500).len()).sum();
        assert_eq!(covered, 500);
    }

    #[test]
    fn blocks_partition_the_column() {
        let t = Tiling::new(100, 300);
        // Column 2 of a 250-base query is 200..250; block width 30 →
        // blocks 200..230, 230..250, then empty.
        assert_eq!(t.block_range(2, 0, 30, 250), 200..230);
        assert_eq!(t.block_range(2, 1, 30, 250), 230..250);
        assert!(t.block_range(2, 2, 30, 250).is_empty());
        let covered: usize = (0..4).map(|b| t.block_range(2, b, 30, 250).len()).sum();
        assert_eq!(covered, 50);
    }

    #[test]
    fn tiny_inputs() {
        let t = Tiling::new(100, 5);
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.n_cols(0), 0);
        assert_eq!(t.row_region(0), region(0, 5));
    }
}
