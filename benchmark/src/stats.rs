//! The harness's own statistics: order statistics, the tail-percentile
//! selection rule, geometric mean, and the seeded class shuffle.

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the spreads printed
/// here are the ones the acceptance rule computes. One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        percentile(values, 25.0),
        percentile(values, 50.0),
        percentile(values, 75.0),
    )
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0 < p < 100), exclusive method: position
/// `p/100 · (n+1)` in the sorted sample, linearly interpolated and clamped
/// to the sample's range.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p / 100.0 * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// bounds are compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The tail rule: the highest of p99.9 / p99 / p95 / p90 / p75 that still
/// has at least ten samples beyond it among `n`. Below 40 samples no tail
/// percentile qualifies and the median is all that can be stated.
pub fn tail_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10_000)
        .map_or(50.0, |(p, _)| p)
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: the shuffle's generator, kept here so class order depends
/// on the seed alone and not on the vendored `rand` stand-in.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The order in which pass `pass` visits `n` classes under `seed`
/// (Fisher–Yates; each pass gets its own permutation).
pub fn shuffled_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// FNV-1a over bytes: the digest stored for outputs too large to keep.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(60), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(720), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn geomean_is_scale_fair() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled_order(100, 42, 3);
        assert_eq!(a, shuffled_order(100, 42, 3));
        assert_ne!(a, shuffled_order(100, 42, 4));
        assert_ne!(a, shuffled_order(100, 7, 3));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn digest_separates_neighbours() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"elapsed=1.0"), fnv1a(b"elapsed=1.1"));
    }
}
