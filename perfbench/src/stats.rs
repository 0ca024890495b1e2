//! Order statistics over measured samples.

/// Percentiles the tail is chosen from, highest last.
const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending); 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Ascending copy of a sample.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean of a sample; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples beyond it,
/// as `(percentile, value)`. Falls back to the median when the sample is too small.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    for &p in TAIL_LADDER.iter().rev() {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= rank + TAIL_MIN_BEYOND {
            return (p, percentile(&s, p));
        }
    }
    (50.0, percentile(&s, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
