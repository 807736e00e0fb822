//! Property tests over the telemetry math: histogram bucket edges, count
//! conservation under the epoch-boundary merge, the percentile error bound
//! against exact sorted samples, Jain-index bounds, and per-process
//! telemetry bookkeeping.

use proptest::prelude::*;
use wfl_core::AttemptMetrics;
use wfl_workloads::telemetry::{jain_index, ProcTelemetry};
use wfl_obs::{FixedHistogram, BUCKETS};

/// A deterministic pseudo-random sample stream from a seed (the shim's
/// strategies only draw scalars; streams are derived here).
fn stream(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix magnitudes: small counts, mid-size latencies, huge outliers.
            match x % 5 {
                0 => x % 4,
                1 => x % 100,
                2 => x % 10_000,
                3 => x % (1 << 30),
                _ => x,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Bucket edges are strictly monotone and partition `u64`: every value
    /// lands in exactly the bucket whose `[lo, hi]` range contains it.
    /// Buckets below 64 are one value wide; every other bucket is at most
    /// 1/32 of its lower edge wide.
    #[test]
    fn bucket_edges_monotone_and_containing(seed in 0u64..1_000_000) {
        for (i, v) in stream(seed, 64).into_iter().enumerate() {
            let b = FixedHistogram::bucket_of(v);
            prop_assert!(b < BUCKETS);
            prop_assert!(FixedHistogram::bucket_lo(b) <= v, "v {v} below bucket {b}");
            prop_assert!(v <= FixedHistogram::bucket_hi(b), "v {v} above bucket {b}");
            if i == 0 {
                for j in 1..BUCKETS {
                    let (lo, hi) = (FixedHistogram::bucket_lo(j), FixedHistogram::bucket_hi(j));
                    prop_assert!(FixedHistogram::bucket_hi(j - 1) < lo);
                    prop_assert!(lo <= hi);
                    if lo < 64 {
                        prop_assert_eq!(lo, hi, "bucket {} below 64 is not unit-width", j);
                    } else {
                        prop_assert!(hi - lo <= lo / 32, "bucket {} [{}, {}] too wide", j, lo, hi);
                    }
                }
            }
        }
    }

    /// Merging conserves counts exactly: every bucket, the total, the sum
    /// and the max of a merge equal what recording both streams into one
    /// histogram would have produced. Every percentile of the merge reads
    /// the exact nearest-rank value `v` of the sorted samples, or at most
    /// `v/32` above it, and exactly `v` below 64.
    #[test]
    fn merge_conserves_counts(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        len_a in 0usize..200,
        len_b in 0usize..200,
    ) {
        let (xs, ys) = (stream(seed_a, len_a), stream(seed_b, len_b));
        let mut a = FixedHistogram::new();
        let mut b = FixedHistogram::new();
        let mut both = FixedHistogram::new();
        for &v in &xs { a.record(v); both.record(v); }
        for &v in &ys { b.record(v); both.record(v); }
        a.merge(&b);
        prop_assert_eq!(a.count(), both.count());
        prop_assert_eq!(a.sum(), both.sum());
        prop_assert_eq!(a.max(), both.max());
        for i in 0..BUCKETS {
            prop_assert_eq!(a.bucket_count(i), both.bucket_count(i), "bucket {}", i);
        }
        let mut sorted: Vec<u64> = xs.iter().chain(&ys).copied().collect();
        sorted.sort_unstable();
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let p = a.percentile(q);
            prop_assert!(p >= prev, "percentile not monotone at q={}", q);
            prop_assert!(p <= a.max());
            prev = p;
            if !sorted.is_empty() {
                // Nearest rank: the ceil(q · n)-th sample, rank at least 1.
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let v = sorted[rank - 1];
                let within = v <= p && p <= v.saturating_add(v / 32);
                prop_assert!(within, "q={}: exact {} read as {}", q, v, p);
                if v < 64 {
                    prop_assert_eq!(p, v, "q={} below 64 must be exact", q);
                }
            }
        }
    }

    /// Jain's index lies in `[1/n, 1]` for any non-degenerate allocation
    /// and hits 1 exactly on equal shares.
    #[test]
    fn jain_index_bounds(seed in 0u64..1_000_000, n in 1usize..24) {
        let xs: Vec<f64> = stream(seed, n).into_iter().map(|v| (v % 1000) as f64).collect();
        let j = jain_index(&xs);
        prop_assert!(j <= 1.0 + 1e-12, "jain {} > 1", j);
        prop_assert!(j >= 1.0 / n as f64 - 1e-12, "jain {} < 1/{}", j, n);
        let equal = vec![42.0; n];
        prop_assert!((jain_index(&equal) - 1.0).abs() < 1e-12);
        if n > 1 {
            let mut solo = vec![0.0; n];
            solo[0] = 7.0;
            prop_assert!((jain_index(&solo) - 1.0 / n as f64).abs() < 1e-12);
        }
    }

    /// Per-process telemetry bookkeeping: wins and attempts reconcile with
    /// the histograms for arbitrary win/loss sequences, and merging two
    /// telemetries adds their books.
    #[test]
    fn telemetry_books_balance(seed in 0u64..1_000_000, len in 0usize..300) {
        let samples = stream(seed, len);
        let mut t = ProcTelemetry::new();
        let mut wins = 0u64;
        for (i, &s) in samples.iter().enumerate() {
            let won = (s ^ i as u64) & 3 == 0;
            t.record(&AttemptMetrics::decided(won, s % 1000));
            wins += won as u64;
        }
        prop_assert_eq!(t.attempts, len as u64);
        prop_assert_eq!(t.wins, wins);
        prop_assert_eq!(t.tries.count(), wins, "one try-count sample per acquisition");
        prop_assert_eq!(t.latency.count(), wins);
        prop_assert_eq!(t.tries.sum() <= t.attempts, true, "closed streaks cannot exceed attempts");
        prop_assert!(t.max_stretch <= t.attempts.max(1));

        let mut merged = ProcTelemetry::new();
        merged.merge(&t);
        merged.merge(&t);
        prop_assert_eq!(merged.attempts, 2 * t.attempts);
        prop_assert_eq!(merged.wins, 2 * t.wins);
        prop_assert_eq!(merged.tries.count(), 2 * t.tries.count());
        prop_assert_eq!(merged.max_stretch, t.max_stretch);
    }
}
