//! Percentiles and medians over raw samples.

/// A percentile needs at least this many samples beyond it to be reported
/// (choosing-metrics §1) — p99 needs 1,000 samples, p50 needs 20.
pub const SAMPLES_BEYOND: usize = 10;

#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub have: usize,
    pub need: usize,
}

/// Samples needed before percentile `p` (in `0..1`) may be reported.
pub fn samples_needed(p: f64) -> usize {
    (SAMPLES_BEYOND as f64 / (1.0 - p)).ceil() as usize
}

/// Nearest-rank percentile of `sorted` (ascending). Refuses when fewer
/// than [`SAMPLES_BEYOND`] samples lie beyond the requested rank.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, TooFewSamples> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile needs sorted input");
    let need = samples_needed(p);
    if sorted.len() < need {
        return Err(TooFewSamples { have: sorted.len(), need });
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_under_a_thousand_samples() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), Err(TooFewSamples { have: 999, need: 1000 }));
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Ok(990));
        assert_eq!(samples_needed(0.999), 10_000);
    }

    #[test]
    fn p50_needs_twenty_samples_and_is_nearest_rank() {
        let v: Vec<u64> = (1..=19).collect();
        assert!(percentile(&v, 0.50).is_err());
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.50), Ok(10));
    }

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
