//! Per-request service metrics: counters and a latency histogram.
//!
//! The histogram uses power-of-two microsecond buckets (the same
//! `{lo, hi, count}` bin vocabulary the runtime's `RunMetrics` exports),
//! recorded lock-free from worker threads and snapshotted on demand for
//! the `stats` response. Quantiles are read off the cumulative bucket
//! walk, so p50/p99 are upper bounds at bucket resolution — exactly what
//! a load generator needs to gate regressions, without per-sample
//! storage.

use crate::protocol::{LatencyBin, LatencySummary};
use std::sync::atomic::{AtomicU64, Ordering};

/// A started latency measurement.
///
/// Every wall-clock read in this crate goes through [`Timer::start`]:
/// timing annotates replies and feeds the histograms below but never
/// feeds back into what a plan contains, so determinism holds. Keeping
/// the single `Instant::now()` here (audited with an inline waiver) lets
/// the rest of the crate stay clean under the workspace `no-wallclock`
/// rule instead of exempting the whole crate.
#[derive(Debug, Clone, Copy)]
pub struct Timer(std::time::Instant);

impl Timer {
    /// Starts measuring now.
    pub fn start() -> Timer {
        // lint:allow(no-wallclock): request timing feeds the latency histograms only, never plan contents
        Timer(std::time::Instant::now())
    }

    /// Elapsed microseconds since [`Timer::start`], saturating.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Number of histogram buckets. Bucket `k > 0` covers
/// `[2^(k-1), 2^k)` µs; bucket 0 covers `[0, 1)`. The last bucket
/// (`2^30` µs ≈ 18 minutes) absorbs everything larger.
const NBUCKETS: usize = 32;

/// A lock-free power-of-two latency histogram, in microseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(NBUCKETS - 1)
    }
}

fn bucket_lo(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

fn bucket_hi(idx: usize) -> u64 {
    1u64 << idx
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one sample of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot: `(count, mean_us, p50_us, p99_us,
    /// non-empty bins)`. Quantiles are bucket upper bounds.
    pub fn snapshot(&self) -> (u64, f64, f64, f64, Vec<LatencyBin>) {
        Self::snapshot_sum([self])
    }

    /// The [`LatencyHistogram::snapshot`] of the histogram holding every
    /// sample of `parts`, bucket by bucket.
    pub fn snapshot_sum<'a>(
        parts: impl IntoIterator<Item = &'a LatencyHistogram>,
    ) -> (u64, f64, f64, f64, Vec<LatencyBin>) {
        let mut counts = [0u64; NBUCKETS];
        let mut sum = 0u64;
        for part in parts {
            for (total, bucket) in counts.iter_mut().zip(&part.buckets) {
                *total += bucket.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(part.sum_us.load(Ordering::Relaxed));
        }
        let count: u64 = counts.iter().sum();
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        let bins: Vec<LatencyBin> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| LatencyBin {
                lo: bucket_lo(i) as f64,
                hi: bucket_hi(i) as f64,
                count: c,
            })
            .collect();
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let target = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return bucket_hi(i) as f64;
                }
            }
            bucket_hi(NBUCKETS - 1) as f64
        };
        (count, mean, quantile(0.50), quantile(0.99), bins)
    }

    /// The snapshot condensed to the wire's [`LatencySummary`] shape
    /// (count / mean / p50 / p99, no bins).
    pub fn summary(&self) -> LatencySummary {
        let (count, mean_us, p50_us, p99_us, _) = self.snapshot();
        LatencySummary {
            count,
            mean_us,
            p50_us,
            p99_us,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-shard counters for the sharded reactor, updated lock-free by the
/// owning shard thread (and the accept thread for the two accept-side
/// counters) and snapshotted by whichever shard answers a `stats`
/// request.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Connections the accept loop assigned to this shard.
    pub accepted: AtomicU64,
    /// Connections shed at accept because this shard's pending queue
    /// exceeded the backpressure bound.
    pub shed_accept: AtomicU64,
    /// Frames decoded on this shard's connections (all request types).
    pub requests: AtomicU64,
    /// Requests this shard forwarded to another shard's cache slice
    /// (dataset affinity sent them elsewhere).
    pub forwarded: AtomicU64,
    /// Reply slots currently awaiting a computation (the shard's pending
    /// queue depth — the quantity accept backpressure bounds).
    pub pending: AtomicU64,
    /// Plan + layout hits in this shard's cache slice.
    pub cache_hits: AtomicU64,
    /// Plan + layout misses in this shard's cache slice.
    pub cache_misses: AtomicU64,
    /// Entries claimed from this shard's slice because their generation
    /// was stale.
    pub cache_invalidated: AtomicU64,
    /// Requests that joined an in-flight computation on this shard.
    pub coalesced: AtomicU64,
    /// Latency of plan/layout/place requests whose reply slot lived on
    /// this shard's connections.
    pub latency: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
        for idx in 1..NBUCKETS - 1 {
            assert_eq!(bucket_of(bucket_lo(idx)), idx);
            assert_eq!(bucket_of(bucket_hi(idx) - 1), idx);
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = LatencyHistogram::new();
        // 99 fast samples at 1 µs, one slow at ~1 ms.
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        let (count, mean, p50, p99, bins) = h.snapshot();
        assert_eq!(count, 100);
        assert!((mean - (99.0 + 1000.0) / 100.0).abs() < 1e-9);
        assert_eq!(p50, 2.0, "p50 lands in the 1 µs bucket (hi = 2)");
        assert_eq!(p99, 2.0, "99 of 100 samples are in the 1 µs bucket");
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].count, 99);
        assert_eq!(bins[1].count, 1);
    }

    #[test]
    fn a_summed_snapshot_is_the_snapshot_of_every_sample() {
        let (a, b, both) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for us in [0, 1, 3, 900, 70_000] {
            a.record(us);
            both.record(us);
        }
        for us in [2, 2, 5, 1 << 40] {
            b.record(us);
            both.record(us);
        }
        assert_eq!(LatencyHistogram::snapshot_sum([&a, &b]), both.snapshot());
        assert_eq!(
            LatencyHistogram::snapshot_sum([]),
            LatencyHistogram::new().snapshot()
        );
    }

    #[test]
    fn empty_histogram_snapshots_zeroes() {
        let h = LatencyHistogram::new();
        let (count, mean, p50, p99, bins) = h.snapshot();
        assert_eq!((count, mean, p50, p99), (0, 0.0, 0.0, 0.0));
        assert!(bins.is_empty());
    }
}
