//! Order statistics and the stream digest.

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns), so the spreads printed
/// here match the ones the benchmark contract computes. Needs two values;
/// fewer give `(median, median)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return (m, m);
    }
    let at = |q: usize| {
        // Position q*(n+1)/4 on a 1-based scale, clamped to the sample.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// A tail statistic: the highest percentile the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at `percentile`.
    pub value: f64,
    /// Which percentile was reported (99, 95, 90, 75 or 50).
    pub percentile: u32,
    /// Sample count.
    pub n: usize,
}

/// The highest of p99 / p95 / p90 that has at least ten samples beyond
/// it; small samples fall back to p75, then the median. An empty sample
/// reports `0.0` at p50.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for percentile in [99u32, 95, 90, 75] {
        let beyond = n * (100 - percentile as usize) / 100;
        if beyond >= 10 {
            return Tail {
                value: v[n - 1 - beyond],
                percentile,
                n,
            };
        }
    }
    Tail {
        value: median(&v),
        percentile: 50,
        n,
    }
}

/// FNV-1a-64 over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 99);
        assert_eq!(tail(&v[..200]).percentile, 95);
        assert_eq!(tail(&v[..150]).percentile, 90);
        assert_eq!(tail(&v[..60]).percentile, 75);
        assert_eq!(tail(&v[..12]).percentile, 50);
        assert_eq!(tail(&v).value, 989.0);
    }
}
