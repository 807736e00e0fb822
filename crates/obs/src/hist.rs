//! The fixed-size log-linear histogram: the workspace's one percentile
//! engine.
//!
//! Values below 64 get a unit-width bucket each, so they are recorded
//! exactly; above that, every power of two `[2^e, 2^(e+1))` is split into
//! 32 equal sub-buckets, over the whole `u64` range. A bucket is thus at
//! most 1/32 of its lower edge wide, and [`FixedHistogram::percentile`]
//! (the upper edge of the rank's bucket, clamped to the exact maximum)
//! never reads below the true nearest-rank value nor more than 1/32 above
//! it. Everything is fixed-size: recording is O(1) with no allocation,
//! and two histograms [`FixedHistogram::merge`] by adding counts — the
//! fold-at-the-epoch-boundary pattern — which conserves both the sample
//! count and the bucket totals exactly.

/// Sub-buckets per power of two, as a bit count: 32 sub-buckets bound a
/// bucket's width by 1/32 of its lower edge.
const SUB_BITS: u32 = 5;

/// Number of histogram buckets: 64 unit-width buckets for 0–63, then 32
/// per power of two `2^6 ..= 2^63` (1,920 buckets, 15 KiB of counts).
pub const BUCKETS: usize = 64 + 58 * 32;

/// A fixed-size log-linear histogram over `u64` samples (see module
/// docs): safe to keep per-process and merge at epoch boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        FixedHistogram { counts: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl FixedHistogram {
    /// An empty histogram.
    pub fn new() -> FixedHistogram {
        FixedHistogram::default()
    }

    /// The bucket index a value lands in: a value of bit length `n > 6`
    /// drops its low `n - 6` bits, keeping a 6-bit mantissa in `[32, 64)`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        let shift = (64 - v.leading_zeros()).saturating_sub(SUB_BITS + 1);
        ((shift as usize) << SUB_BITS) + (v >> shift) as usize
    }

    /// `(inclusive lower edge, width)` of bucket `i`: the inverse of
    /// [`FixedHistogram::bucket_of`].
    fn edges(i: usize) -> (u64, u64) {
        let shift = ((i >> SUB_BITS) as u32).saturating_sub(1);
        let mantissa = (i - ((shift as usize) << SUB_BITS)) as u64;
        (mantissa << shift, 1 << shift)
    }

    /// Inclusive lower edge of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        Self::edges(i).0
    }

    /// Inclusive upper edge of bucket `i` (`u64::MAX` for the last one).
    pub fn bucket_hi(i: usize) -> u64 {
        let (lo, width) = Self::edges(i);
        lo + (width - 1)
    }

    /// Records one sample (O(1), allocation-free).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` by adding bucket counts — the epoch
    /// boundary fold. Conserves counts: afterwards every bucket (and the
    /// total) equals the sum of the two inputs'.
    pub fn merge(&mut self, other: &FixedHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Nearest-rank `q`-quantile **upper bound**: the upper edge of the
    /// bucket holding rank `ceil(q · n)` (clamped to `[1, n]`), clamped to
    /// the recorded maximum. Exact below 64 and for `q = 1`; otherwise at
    /// most 1/32 above the true value. 0 if empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_monotone_and_cover() {
        assert_eq!(BUCKETS, 1920);
        assert_eq!(FixedHistogram::bucket_lo(0), 0);
        for i in 1..BUCKETS {
            assert_eq!(FixedHistogram::bucket_lo(i), FixedHistogram::bucket_hi(i - 1) + 1, "{i}");
            assert!(FixedHistogram::bucket_lo(i) <= FixedHistogram::bucket_hi(i));
        }
        assert_eq!(FixedHistogram::bucket_hi(BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 63, 64, 65, 66, 127, 128, 1023, 1024, 12_602, u64::MAX] {
            let b = FixedHistogram::bucket_of(v);
            assert!(FixedHistogram::bucket_lo(b) <= v && v <= FixedHistogram::bucket_hi(b), "{v}");
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = FixedHistogram::new();
        for v in [0u64, 1, 1, 2, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 109);
        assert_eq!(h.max(), 100);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 2);
        assert!(h.percentile(0.0) <= h.percentile(0.5));
        assert!(h.percentile(0.5) <= h.percentile(1.0));
        assert_eq!(h.percentile(1.0), 100, "p100 clamps to the recorded max");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // Rank ceil(q · n): the median of two samples is the lower one.
        let mut h = FixedHistogram::new();
        for v in [10u64, 4000] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 10);
        assert_eq!(h.percentile(0.0), 10, "rank clamps up to 1");
        assert_eq!(h.percentile(0.51), 4000);
        assert_eq!(h.percentile(1.0), 4000);
    }

    #[test]
    fn merge_conserves_counts() {
        let mut a = FixedHistogram::new();
        let mut b = FixedHistogram::new();
        for v in 0..50u64 {
            a.record(v * 3);
            b.record(v * 7);
        }
        let (ca, cb) = (a.count(), b.count());
        let per_bucket: Vec<u64> =
            (0..BUCKETS).map(|i| a.bucket_count(i) + b.bucket_count(i)).collect();
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        for (i, &want) in per_bucket.iter().enumerate() {
            assert_eq!(a.bucket_count(i), want, "bucket {i}");
        }
    }
}
