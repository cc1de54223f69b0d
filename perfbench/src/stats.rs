//! Order statistics over timing samples, and host memory.

use std::time::Duration;

/// Nearest-rank percentile `pct` (0–100] of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Mean of the middle half of `samples` (the interquartile mean); 0
/// when empty. Unlike the median it moves smoothly when the samples
/// fall on a coarse grid, as request latencies do on a host that hands
/// a released lock over on a scheduler tick; unlike the mean it ignores
/// the stalls in the tails.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    mean(&sorted[quarter..sorted.len() - quarter])
}

pub fn secs(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(Duration::as_secs_f64).collect()
}

/// Peak resident set size of this process in bytes (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
        })
        .map_or(0, |kib| kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 4.0, 0.0]), 3.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
