//! Percentile and spread maths shared by every measurement.
//!
//! The rule for tails comes from the choosing-metrics guide: report the
//! highest percentile that still has at least ten samples beyond it, so
//! a p99 is never the maximum of a handful of samples.

/// The value at percentile `p` (0..=100) of an ascending-sorted slice,
/// nearest-rank. `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` and returns the nearest-rank percentile.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(values, p)
}

/// Median of `values` (mean of the two middle values when even).
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Samples needed before percentile `p` has `beyond` samples above it.
pub fn samples_needed(p: f64, beyond: usize) -> usize {
    // The tolerance keeps 99.9 (not exact in binary) from needing 10 001.
    (beyond as f64 / (1.0 - p / 100.0) - 1e-6).ceil() as usize
}

/// The highest of the candidate percentiles (ascending) that `n`
/// samples support with at least ten samples beyond it.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rfind(|&p| n >= samples_needed(p, 10))
}

/// First quartile, median, third quartile — the exclusive method
/// Python's `statistics.quantiles(values, n=4)` uses, which is what the
/// benchmark contract measures spread with. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |i: usize| -> f64 {
        // position i*(n+1)/4, 1-based, clamped into the data
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut [], 50.0), None);
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 99.0), Some(7.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(samples_needed(99.0, 10), 1000);
        assert_eq!(samples_needed(95.0, 10), 200);
        assert_eq!(samples_needed(50.0, 10), 20);
        let candidates = [50.0, 90.0, 95.0, 99.0, 99.9];
        assert_eq!(highest_supported_percentile(5, &candidates), None);
        assert_eq!(highest_supported_percentile(20, &candidates), Some(50.0));
        assert_eq!(highest_supported_percentile(199, &candidates), Some(90.0));
        assert_eq!(highest_supported_percentile(200, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(999, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(1000, &candidates), Some(99.0));
        assert_eq!(
            highest_supported_percentile(10_000, &candidates),
            Some(99.9)
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(quartiles(&[1.0]), None);
    }
}
