//! Tile-level merge (§III-C1): combine a tile's out-block fragments
//! into in-tile MEMs and out-tile fragments.
//!
//! The union of the tile's out-block MEMs is sorted by `(r − q, q)`
//! with the in-kernel bitonic sort, scan-combined per diagonal run in
//! parallel, re-expanded per base within the tile's window, and
//! classified: in-tile MEMs (≥ L) go to the host for reporting,
//! out-tile fragments join the global list.

use gpu_sim::{BlockCtx, Op};
use gpumem_seq::{Mem, PackedSeq};

use crate::combine::{block_sort_by_diag, scan_combine_sorted};
use crate::expand::{expand_within, Bounds};
use crate::generate::lce_cost;

/// The two result classes of a tile (§III-C1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TileOutput {
    /// True MEMs (≥ L) — reported.
    pub in_tile: Vec<Mem>,
    /// Tile-boundary-touching fragments — merged globally on the host.
    pub out_tile: Vec<Mem>,
}

/// Merge one tile's out-block fragments inside a launched kernel
/// block, appending results to `output`. `out_block` is consumed in
/// place (sorted and scan-combined), so the caller can reuse its
/// storage for the next tile.
pub fn merge_tile(
    ctx: &mut BlockCtx<'_>,
    reference: &PackedSeq,
    query: &PackedSeq,
    out_block: &mut Vec<Mem>,
    tile_bounds: &Bounds,
    min_len: u32,
    output: &mut TileOutput,
) {
    if out_block.is_empty() {
        return;
    }

    // Parallel sort by (r − q, q).
    block_sort_by_diag(ctx, out_block);

    // Scan-combine, parallel over diagonal runs: find run starts, then
    // lanes take runs round-robin.
    let mut run_starts: Vec<usize> = Vec::new();
    for i in 0..out_block.len() {
        if i == 0 || out_block[i].diagonal() != out_block[i - 1].diagonal() {
            run_starts.push(i);
        }
    }
    let n_runs = run_starts.len();
    let lanes = ctx.block_dim.min(n_runs).max(1);
    ctx.simt_range(0..lanes, |lane| {
        let (mut loads, mut compares) = (0u64, 0u64);
        let mut run = lane.tid;
        while run < n_runs {
            let lo = run_starts[run];
            let hi = run_starts.get(run + 1).copied().unwrap_or(out_block.len());
            loads += (hi - lo) as u64;
            compares += (hi - lo) as u64 * 2;
            // Runs are disjoint; in-simulator lanes execute
            // sequentially, so the split is race-free (and would be on
            // hardware, too: one thread per run).
            scan_combine_sorted(&mut out_block[lo..hi]);
            run += lanes;
        }
        lane.charge(Op::GlobalLoad, loads);
        lane.compare(compares);
    });

    // Re-expand and classify survivors; charges accumulate into locals
    // and post in one batch per lane.
    let lanes = ctx.block_dim.min(out_block.len()).max(1);
    ctx.simt_range(0..lanes, |lane| {
        let (mut lce_loads, mut lce_compares, mut stores) = (0u64, 0u64, 0u64);
        let mut i = lane.tid;
        while i < out_block.len() {
            let mem = out_block[i];
            if mem.len > 0 {
                let (expanded, compared) = expand_within(reference, query, mem, tile_bounds);
                let (loads, compares) = lce_cost(compared);
                lce_loads += loads;
                lce_compares += compares;
                stores += 1;
                if expanded.touches_boundary {
                    output.out_tile.push(expanded.mem);
                } else if expanded.mem.len >= min_len {
                    output.in_tile.push(expanded.mem);
                }
            }
            i += lanes;
        }
        lane.charge(Op::GlobalLoad, lce_loads);
        lane.compare(lce_compares);
        lane.charge(Op::GlobalStore, stores);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec, LaunchConfig};
    use gpumem_seq::{canonicalize, is_maximal_exact, GenomeModel};
    use parking_lot::Mutex;

    fn run_merge(
        reference: &PackedSeq,
        query: &PackedSeq,
        out_block: Vec<Mem>,
        bounds: Bounds,
        min_len: u32,
    ) -> TileOutput {
        let device = Device::new(DeviceSpec::test_tiny());
        let out = Mutex::new(TileOutput::default());
        device.launch_fn(LaunchConfig::new(1, 64), |ctx| {
            let mut fragments = out_block.clone();
            let mut tile_out = TileOutput::default();
            merge_tile(
                ctx,
                reference,
                query,
                &mut fragments,
                &bounds,
                min_len,
                &mut tile_out,
            );
            *out.lock() = tile_out;
        });
        out.into_inner()
    }

    #[test]
    fn adjacent_fragments_merge_into_one_mem() {
        // A 30-base shared run split into two block fragments at q=15.
        let reference = {
            let mut codes = vec![1u8; 60]; // C background
            for (i, slot) in codes[10..40].iter_mut().enumerate() {
                *slot = [0u8, 3, 2][i % 3];
            }
            PackedSeq::from_codes(&codes)
        };
        let query = {
            let mut codes = vec![2u8; 50]; // G background
            for (i, slot) in codes[5..35].iter_mut().enumerate() {
                *slot = [0u8, 3, 2][i % 3];
            }
            PackedSeq::from_codes(&codes)
        };
        // Fragments as two blocks would emit them (split at q = 20).
        let fragments = vec![
            Mem {
                r: 10,
                q: 5,
                len: 15,
            },
            Mem {
                r: 25,
                q: 20,
                len: 15,
            },
        ];
        let bounds = Bounds::whole(&reference, &query);
        let output = run_merge(&reference, &query, fragments, bounds, 12);
        assert!(output.out_tile.is_empty());
        assert_eq!(
            canonicalize(output.in_tile),
            vec![Mem {
                r: 10,
                q: 5,
                len: 30
            }]
        );
    }

    #[test]
    fn fragment_gap_is_closed_by_expansion() {
        // Two fragments of one long identity diagonal with a gap (the
        // middle block produced nothing): expansion must recover the
        // full run even though scan-combine cannot bridge the gap.
        let text = GenomeModel::uniform().generate(300, 201);
        let fragments = vec![
            Mem {
                r: 0,
                q: 0,
                len: 40,
            },
            Mem {
                r: 200,
                q: 200,
                len: 40,
            },
        ];
        let bounds = Bounds::whole(&text, &text);
        let output = run_merge(&text, &text, fragments, bounds, 20);
        assert_eq!(
            canonicalize(output.in_tile),
            vec![Mem {
                r: 0,
                q: 0,
                len: 300
            }],
            "both fragments expand to the full diagonal and dedup later"
        );
    }

    #[test]
    fn tile_boundary_produces_out_tile() {
        let text = GenomeModel::uniform().generate(100, 202);
        let bounds = Bounds { r: 0..50, q: 0..50 };
        let fragments = vec![Mem {
            r: 10,
            q: 10,
            len: 30,
        }];
        let output = run_merge(&text, &text, fragments, bounds, 10);
        assert!(output.in_tile.is_empty());
        assert_eq!(output.out_tile.len(), 1);
        assert_eq!(
            output.out_tile[0],
            Mem {
                r: 0,
                q: 0,
                len: 50
            }
        );
    }

    #[test]
    fn short_survivors_are_filtered_only_when_interior() {
        let reference: PackedSeq = "GGGGACGTGGGGGGGG".parse().unwrap();
        let query: PackedSeq = "TTTTACGTTTTTTTTT".parse().unwrap();
        let bounds = Bounds::whole(&reference, &query);
        // The ACGT match (len 4) is interior and below L=10: dropped.
        let output = run_merge(
            &reference,
            &query,
            vec![Mem { r: 4, q: 4, len: 4 }],
            bounds,
            10,
        );
        assert!(output.in_tile.is_empty());
        assert!(output.out_tile.is_empty());
    }

    #[test]
    fn results_are_maximal_within_whole_space() {
        let reference = GenomeModel::mammalian().generate(500, 203);
        let query = GenomeModel::mammalian().generate(400, 204);
        // Feed every 1-base matching seed on a sample of diagonals.
        let mut fragments = Vec::new();
        for d in 0..40u32 {
            for t in (0..300).step_by(17) {
                let (r, q) = (t + d, t);
                if (r as usize) < reference.len()
                    && (q as usize) < query.len()
                    && reference.code(r as usize) == query.code(q as usize)
                {
                    fragments.push(Mem { r, q, len: 1 });
                }
            }
        }
        let bounds = Bounds::whole(&reference, &query);
        let output = run_merge(&reference, &query, fragments, bounds, 2);
        for &mem in &output.in_tile {
            assert!(is_maximal_exact(&reference, &query, mem, 2), "{mem:?}");
        }
    }

    #[test]
    fn empty_input_is_a_noop() {
        let text = GenomeModel::uniform().generate(50, 205);
        let output = run_merge(&text, &text, Vec::new(), Bounds::whole(&text, &text), 10);
        assert_eq!(output, TileOutput::default());
    }
}
