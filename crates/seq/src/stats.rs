//! Sequence statistics.
//!
//! The paper motivates its load-balancing heuristic with the
//! seed-occurrence distribution of real chromosomes (Figure 6): most
//! seeds occur once, but a heavy tail occurs many times, so a static
//! thread-per-seed assignment leaves warps imbalanced. This module
//! computes that histogram.

use crate::packed::PackedSeq;

/// Histogram of seed occurrence counts: entry `(occ, n)` means `n`
/// distinct seeds appear at exactly `occ` sampled positions.
///
/// `seed_len` is `ℓs` and `step` is the sampling distance `Δs` (use
/// `step = 1` for the full-index histogram the paper plots in Fig. 6).
/// Entries are sorted by `occ` ascending.
pub fn seed_occurrence_histogram(seq: &PackedSeq, seed_len: usize, step: usize) -> Vec<(u64, u64)> {
    assert!(step >= 1, "step must be at least 1");
    assert!((1..=16).contains(&seed_len), "seed_len must be in 1..=16");
    if seq.len() < seed_len {
        return Vec::new();
    }
    let mut codes: Vec<u32> = (0..=seq.len() - seed_len)
        .step_by(step)
        .map(|i| seq.kmer(i, seed_len).expect("in range by construction"))
        .collect();
    codes.sort_unstable();

    // Run-length over sorted codes -> per-seed occurrence counts.
    let mut occ_counts: Vec<u64> = Vec::new();
    let mut run = 0u64;
    let mut prev: Option<u32> = None;
    for code in codes {
        match prev {
            Some(p) if p == code => run += 1,
            Some(_) => {
                occ_counts.push(run);
                run = 1;
            }
            None => run = 1,
        }
        prev = Some(code);
    }
    if prev.is_some() {
        occ_counts.push(run);
    }

    // Histogram occurrence -> #seeds.
    occ_counts.sort_unstable();
    let mut hist: Vec<(u64, u64)> = Vec::new();
    for occ in occ_counts {
        match hist.last_mut() {
            Some((o, n)) if *o == occ => *n += 1,
            _ => hist.push((occ, 1)),
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GenomeModel;

    #[test]
    fn histogram_of_unique_seeds() {
        // All 3-mers of "ACGTAC" at step 1: ACG, CGT, GTA, TAC — unique.
        let seq: PackedSeq = "ACGTAC".parse().unwrap();
        let hist = seed_occurrence_histogram(&seq, 3, 1);
        assert_eq!(hist, vec![(1, 4)]);
    }

    #[test]
    fn histogram_counts_repeats() {
        // "ACACACAC": 2-mers at step 1 are AC,CA,AC,CA,AC,CA,AC -> AC×4, CA×3.
        let seq: PackedSeq = "ACACACAC".parse().unwrap();
        let hist = seed_occurrence_histogram(&seq, 2, 1);
        assert_eq!(hist, vec![(3, 1), (4, 1)]);
    }

    #[test]
    fn histogram_respects_step() {
        // Step 2 over "ACACACAC": positions 0,2,4,6 all read "AC".
        let seq: PackedSeq = "ACACACAC".parse().unwrap();
        let hist = seed_occurrence_histogram(&seq, 2, 2);
        assert_eq!(hist, vec![(4, 1)]);
    }

    #[test]
    fn histogram_short_sequence_is_empty() {
        let seq: PackedSeq = "ACG".parse().unwrap();
        assert!(seed_occurrence_histogram(&seq, 8, 1).is_empty());
    }

    #[test]
    fn histogram_total_seeds_matches_positions() {
        let seq = GenomeModel::mammalian().generate(20_000, 9);
        let hist = seed_occurrence_histogram(&seq, 13, 1);
        let total: u64 = hist.iter().map(|(occ, n)| occ * n).sum();
        assert_eq!(total, (seq.len() - 13 + 1) as u64);
    }

    #[test]
    fn repeat_model_has_heavier_tail_than_uniform() {
        let rep = GenomeModel::mammalian().generate(40_000, 21);
        let uni = GenomeModel::uniform().generate(40_000, 21);
        let tail = |h: &[(u64, u64)]| -> u64 {
            h.iter().filter(|(occ, _)| *occ >= 4).map(|(_, n)| n).sum()
        };
        let rep_tail = tail(&seed_occurrence_histogram(&rep, 13, 1));
        let uni_tail = tail(&seed_occurrence_histogram(&uni, 13, 1));
        assert!(
            rep_tail > uni_tail.saturating_mul(4).max(8),
            "repeat tail {rep_tail} vs uniform tail {uni_tail}"
        );
    }
}
