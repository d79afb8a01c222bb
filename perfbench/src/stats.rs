//! Order statistics over timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `samples`.
///
/// A percentile above the median is only returned when at least ten
/// samples lie strictly beyond it: with fewer, the value is one or two
/// outliers and says nothing about the tail.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let value = sorted[rank - 1];
    if p > 50.0 && sorted.iter().filter(|&&s| s > value).count() < 10 {
        return None;
    }
    Some(value)
}

/// Interquartile range as a share of the median: the spread measure the
/// acceptance rule uses (linear-interpolation quartiles, the "exclusive"
/// method of Python's `statistics.quantiles`). `None` below two samples
/// or for a zero median.
pub fn iqr_ratio(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let quantile = |q: f64| {
        let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - lo as f64)
    };
    let med = median(&sorted)?;
    (med != 0.0).then(|| (quantile(0.75) - quantile(0.25)) / med)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 99 samples: p90 is the 90th value, and exactly 9 lie beyond it.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&short, 90.0), None);
        // 100 samples: 10 lie beyond the 90th value.
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 90.0), Some(90.0));
        // Ties at the percentile do not count as beyond it.
        let mut tied = vec![5.0; 95];
        tied.extend((0..5).map(|i| 10.0 + f64::from(i)));
        assert_eq!(percentile(&tied, 90.0), None);
        // The median and below need no tail.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn iqr_ratio_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let expected = (8.25 - 2.75) / 5.5;
        assert!((iqr_ratio(&xs).unwrap() - expected).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[1.0]), None);
    }
}
