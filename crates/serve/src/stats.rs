//! Serving observability: wait-free log-linear latency histograms and
//! point-in-time [`ServiceStats`] snapshots.

use start_sync::atomic::{AtomicU64, Ordering};

use start_core::CacheStats;

/// Sub-buckets per octave, as a power of two: 2^3 = 8.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every octave
/// `[2^e, 2^(e+1))` from `e = SUB_BITS` up to 63 gets `SUB` more.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket holding `us`.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (us >> shift) as usize & (SUB - 1);
    SUB + shift as usize * SUB + sub
}

/// The smallest and the largest value of bucket `i` (both inclusive).
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64);
    }
    let shift = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    let lo = (SUB as u64 + sub) << shift;
    // Written as lo + (width - 1) so the top bucket ends at u64::MAX
    // without overflowing.
    (lo, lo + ((1u64 << shift) - 1))
}

/// A log-linear histogram of microsecond latencies.
///
/// Values below 8 µs get one bucket each; every octave `[2^e, 2^(e+1))`
/// above is split into 8 equal sub-buckets, so a bucket is at most 1/8 as
/// wide as its smallest value. 496 buckets cover all of `u64`. A quantile
/// is reported as the largest value of the bucket that holds it, capped at
/// the observed maximum: never below the true sample, at most 12.5% above
/// it, and never above `max_us`. The running sum saturates at `u64::MAX`
/// instead of wrapping, so `mean_us` degrades to a pessimistic floor on
/// pathological inputs instead of silently corrupting after long uptimes.
///
/// `record` is a handful of relaxed atomic updates (one bucket, count,
/// sum, max) — lock-free (the saturating sum is a CAS loop that only
/// retries under contention on the same counter), callable from every
/// worker — and `snapshot` walks the buckets without stopping recorders,
/// so a snapshot taken under load is approximate. That resolution is what
/// a latency monitor needs and nothing a correctness test should depend on.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one latency sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        // relaxed-ok: independent monotone tallies; snapshots are documented
        // as approximate under load, no cross-counter ordering is promised.
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed-ok: see above
                                                    // Saturate rather than wrap: a sum pinned at u64::MAX yields an
                                                    // obviously-degenerate mean; a wrapped sum yields a believable lie.
        let _ = self
            .sum_us
            // relaxed-ok: single-counter CAS loop, approximate snapshot
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(us)));
        self.max_us.fetch_max(us, Ordering::Relaxed); // relaxed-ok: monotone max
    }

    /// The sample at quantile `q` in `[0, 1]`, as the largest value of its
    /// bucket capped at the observed maximum `max`.
    fn quantile_us(counts: &[u64; BUCKETS], total: u64, max: u64, q: f64) -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_range(i).1.min(max);
            }
        }
        max
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; BUCKETS] =
            // relaxed-ok: snapshots are documented as approximate under load
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        let sum = self.sum_us.load(Ordering::Relaxed); // relaxed-ok: approximate snapshot
        let max = self.max_us.load(Ordering::Relaxed); // relaxed-ok: approximate snapshot
        HistogramSnapshot {
            count: total,
            mean_us: if total == 0 { 0.0 } else { sum as f64 / total as f64 },
            p50_us: Self::quantile_us(&counts, total, max, 0.50),
            p99_us: Self::quantile_us(&counts, total, max, 0.99),
            max_us: max,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen read of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub mean_us: f64,
    /// Median latency, rounded up to the largest value of its bucket (at
    /// most 12.5% high) and capped at `max_us`.
    pub p50_us: u64,
    /// 99th-percentile latency, same rounding.
    pub p99_us: u64,
    pub max_us: u64,
}

/// Point-in-time counters for the whole service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with an embedding.
    pub completed: u64,
    /// Requests refused at the door (`QueueFull`, invalid, shutting down).
    pub rejected: u64,
    /// Requests answered with `WorkerPanicked`/`ModelPoisoned`.
    pub failed: u64,
    /// Micro-batches flushed by the workers.
    pub batches: u64,
    /// Requests sitting in the queue right now.
    pub queue_depth: usize,
    /// Time from `submit` to batch pickup.
    pub queue_wait: HistogramSnapshot,
    /// Time a worker spent encoding each batch.
    pub encode: HistogramSnapshot,
    /// Embedding-cache counters (hits/misses/occupancy) of the **current
    /// model version's** cache instance; a hot-swap starts these from zero
    /// (`cache.epoch` names the version they describe).
    pub cache: CacheStats,
    /// The model version currently serving (0 until the first publish).
    pub model_version: u64,
    /// kNN entries indexed under a model version other than the current
    /// one — the re-indexing backlog left behind by checkpoint hot-swaps.
    pub stale_index_entries: usize,
}

impl ServiceStats {
    /// Mean flushed batch size — the micro-batcher's effectiveness.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.max_us, 0);
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn quantiles_land_in_the_right_buckets() {
        let h = Histogram::new();
        // 99 fast samples at 10µs, one slow outlier at 10_000µs.
        for _ in 0..99 {
            h.record_us(10);
        }
        h.record_us(10_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 10_000);
        // Below 16µs every value has its own bucket, so 10µs reads exactly.
        assert_eq!(s.p50_us, 10);
        // p99 rank is 99 of 100 — still inside the fast bucket.
        assert_eq!(s.p99_us, 10);
        assert!(s.mean_us > 10.0 && s.mean_us < 200.0);
    }

    #[test]
    fn zero_samples_occupy_bucket_zero() {
        let h = Histogram::new();
        h.record_us(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, 0);
    }

    #[test]
    fn giant_samples_saturate_the_last_bucket() {
        let h = Histogram::new();
        h.record_us(u64::MAX);
        assert_eq!(h.snapshot().max_us, u64::MAX);
    }

    /// Regression: the running sum must saturate, not wrap. Two `u64::MAX`
    /// samples used to wrap the sum to `u64::MAX - 1` … with a carry lost,
    /// quietly corrupting `mean_us` for the rest of the uptime.
    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        h.record_us(u64::MAX);
        h.record_us(u64::MAX);
        h.record_us(10);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        // A wrapped sum would make the mean ~3 µs; the saturated sum keeps
        // it pinned at the (pessimistic, obviously degenerate) ceiling.
        assert!(s.mean_us >= (u64::MAX / 3) as f64, "mean collapsed: {}", s.mean_us);
    }

    /// The top bucket ends at `u64::MAX`; quantiles never exceed the
    /// observed max.
    #[test]
    fn top_bucket_quantiles_stay_within_the_observed_max() {
        let h = Histogram::new();
        h.record_us(1 << 62);
        h.record_us(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        // 2^62 sits in [2^62, 2^62 + 2^59): p50 reads that bucket's top.
        assert_eq!(s.p50_us, (1 << 62) + (1 << 59) - 1);
        assert_eq!(s.p99_us, u64::MAX);
        assert_eq!(s.max_us, u64::MAX);
        let h = Histogram::new();
        h.record_us(9_000);
        h.record_us(9_001);
        // Both in [8192, 9216): the bucket top is capped at the max.
        assert_eq!(h.snapshot().p50_us, 9_001);
    }

    /// The buckets tile `0..=u64::MAX` in order, and each is at most 1/8
    /// as wide as its smallest value: the 12.5% resolution bound.
    #[test]
    fn buckets_tile_u64_with_an_eighth_resolution() {
        assert_eq!(bucket_range(0), (0, 0));
        assert_eq!(bucket_range(BUCKETS - 1).1, u64::MAX);
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, bucket_range(i - 1).1 + 1, "gap before bucket {i}");
            assert!(lo <= hi);
            assert!(hi - lo <= lo / 8, "bucket {i} [{lo}, {hi}] wider than 1/8");
            assert_eq!((bucket_of(lo), bucket_of(hi)), (i, i));
        }
        // The ranges the old power-of-two buckets could not tell apart.
        assert_ne!(bucket_of(9_000), bucket_of(15_000));
        assert_eq!(bucket_range(bucket_of(9_000)), (8_192, 9_215));
    }
}
