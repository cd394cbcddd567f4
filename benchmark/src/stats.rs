//! Order statistics used by every report.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least the share `q` of all samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted (a bypassed layer reads 0).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Power-of-two histogram of tick durations: bucket `b` counts durations
/// `d` with `floor(log2(d)) == b` (and `d == 0` in bucket 0).
#[derive(Clone)]
pub struct Log2Hist(pub [u64; 64]);

impl Default for Log2Hist {
    fn default() -> Self {
        Self([0; 64])
    }
}

impl Log2Hist {
    #[inline]
    pub fn record(&mut self, d: u64) {
        self.0[63 - (d | 1).leading_zeros() as usize] += 1;
    }

    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.0.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 9.0, 1.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 1000 samples: exactly ten lie beyond the p99 sample.
        let w: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&w, 0.99), 989);
    }

    #[test]
    fn log2_buckets() {
        let mut h = Log2Hist::default();
        for d in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(d);
        }
        assert_eq!(h.0[0], 2); // 0 and 1
        assert_eq!(h.0[1], 2); // 2 and 3
        assert_eq!(h.0[2], 1);
        assert_eq!(h.0[9], 1);
        assert_eq!(h.0[10], 1);
        assert_eq!(h.count(), 7);
    }
}
