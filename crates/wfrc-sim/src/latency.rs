//! Fixed-bucket log-scale latency histogram.
//!
//! Per-operation latency recording for the E4 experiment must not
//! allocate or lock on the record path (it sits inside the measured loop).
//! This histogram uses 2-bits-of-mantissa log buckets over `u64`
//! nanoseconds — 256 buckets, ~19% worst-case relative error per bucket
//! boundary, `record` is a handful of ALU ops and one array increment.

const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS;
/// Number of buckets: 64 exponents × 4 sub-buckets.
pub const BUCKETS: usize = 64 * SUB;

/// A log-scale histogram of `u64` samples (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    ((exp as usize) << SUB_BITS | sub).min(BUCKETS - 1)
}

/// Representative (lower-bound) value of a bucket.
fn bucket_floor(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let exp = (b >> SUB_BITS) as u32;
    let sub = (b & (SUB - 1)) as u64;
    (1u64 << exp) | sub << (exp - SUB_BITS)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
        if v < self.min {
            self.min = v;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded sample.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact mean of recorded samples.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1): lower bound of the bucket
    /// containing the q-th sample; the max is reported exactly for q = 1.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(b);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_monotone_and_bounded() {
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 4, 7, 8, 100, 1_000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket order broke at {v}");
            assert!(b < BUCKETS);
            prev = b;
        }
    }

    #[test]
    fn bucket_floor_le_value() {
        for v in [0u64, 1, 5, 123, 999, 4096, 1 << 33, u64::MAX / 2] {
            let f = bucket_floor(bucket_of(v));
            assert!(f <= v, "floor {f} > value {v}");
            // Relative error bound of the 2-bit mantissa.
            if v > 4 {
                assert!((v - f) as f64 / v as f64 <= 0.25, "v={v} floor={f}");
            }
        }
    }

    #[test]
    fn stats_on_known_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.len(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
        assert!((h.mean() - 500.5).abs() < 0.01);
        let p50 = h.quantile(0.5);
        assert!((400..=510).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.min(), 10);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
