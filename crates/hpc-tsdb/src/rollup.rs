//! Downsampling: every raw sample folds into the 1-hour bucket holding it.
//!
//! Every bucket carries `count / sum / min / max` plus Welford moments
//! (`mean`, `m2`), so re-aggregating buckets over a window reproduces the
//! mean and variance a raw scan would compute — means of means are never
//! taken.

use crate::log::Log;

/// One-hour rollup resolution in seconds.
pub const HOUR: i64 = 3600;

/// Mergeable summary of a set of samples (Welford/Chan formulation, the
/// same moments `sim_core::stats::OnlineStats` carries).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Running mean (numerically stable).
    pub mean: f64,
    /// Sum of squared deviations from the mean.
    pub m2: f64,
}

impl Aggregate {
    /// Summary of zero samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merge another summary (Chan's pairwise update).
    pub fn merge(&mut self, other: &Aggregate) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the summarised samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance (0 when fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

/// A sealed rollup bucket: an [`Aggregate`] pinned to an aligned window
/// `[start, start + resolution)`.
#[derive(Debug, Clone, Copy)]
pub struct Bucket {
    /// Window start (aligned to the level's resolution).
    pub start: i64,
    /// Summary of the raw samples inside the window.
    pub agg: Aggregate,
}

/// One downsampling level: sealed buckets plus the bucket currently
/// filling. Buckets seal when a sample lands past their window, so levels
/// only ever append — into a shared [`Log`], so a cloned level shares its
/// sealed history and copies only the log's tail.
#[derive(Debug, Clone)]
pub struct RollupLevel {
    resolution: i64,
    sealed: Log<Bucket>,
    open: Option<Bucket>,
}

impl RollupLevel {
    /// An empty level bucketing at `resolution` seconds.
    ///
    /// # Panics
    /// Panics if `resolution <= 0`.
    pub fn new(resolution: i64) -> Self {
        assert!(resolution > 0, "rollup resolution must be positive");
        RollupLevel { resolution, sealed: Log::new(), open: None }
    }

    /// Bucket width in seconds.
    pub fn resolution(&self) -> i64 {
        self.resolution
    }

    /// Reassemble a level from persisted parts (sealed buckets in time
    /// order plus the optional trailing open bucket). Used by snapshot
    /// recovery after CRC verification.
    ///
    /// # Panics
    /// Panics if `resolution <= 0`.
    pub fn from_parts(resolution: i64, sealed: Vec<Bucket>, open: Option<Bucket>) -> Self {
        assert!(resolution > 0, "rollup resolution must be positive");
        RollupLevel { resolution, sealed: sealed.into(), open }
    }

    /// Sealed (complete) buckets in time order.
    pub fn sealed(&self) -> &Log<Bucket> {
        &self.sealed
    }

    /// The partially filled trailing bucket, if any.
    pub fn open(&self) -> Option<&Bucket> {
        self.open.as_ref()
    }

    fn bucket_start(&self, ts: i64) -> i64 {
        ts.div_euclid(self.resolution) * self.resolution
    }

    /// Fold one raw sample in, sealing the open bucket when `ts` lies past
    /// its window.
    ///
    /// # Panics
    /// Panics if `ts` falls before the open bucket's window.
    pub fn push(&mut self, ts: i64, value: f64) {
        let mut agg = Aggregate::new();
        agg.push(value);
        let start = self.bucket_start(ts);
        match &mut self.open {
            Some(b) if b.start == start => b.agg.merge(&agg),
            open => {
                if let Some(b) = open.take() {
                    assert!(b.start < start, "rollup push went backwards");
                    self.sealed.push(b);
                }
                *open = Some(Bucket { start, agg });
            }
        }
    }

    /// Buckets (sealed and open) intersecting `[from, to)`, in time order.
    /// Sealed starts strictly increase, so the sealed ones are one run
    /// found by binary search: O(log n + k) for `k` buckets in the window,
    /// and `.count()` is O(log n).
    pub fn buckets_in(&self, from: i64, to: i64) -> impl Iterator<Item = &Bucket> {
        let lo = self.sealed.partition_point(|b| b.start + self.resolution <= from);
        let hi = self.sealed.partition_point(|b| b.start < to).max(lo);
        self.sealed
            .range(lo..hi)
            .chain(self.open.iter().filter(move |b| b.start < to && b.start + self.resolution > from))
    }

    /// Whether `[from, to)` is aligned to this level's bucket grid, so
    /// bucket aggregates compose exactly to the window aggregate.
    pub fn covers_aligned(&self, from: i64, to: i64) -> bool {
        from % self.resolution == 0 && to % self.resolution == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_matches_sequential_push() {
        let data: Vec<f64> = (0..97).map(|i| f64::from(i) * 1.37 - 20.0).collect();
        let mut whole = Aggregate::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Aggregate::new();
        let mut right = Aggregate::new();
        for &x in &data[..31] {
            left.push(x);
        }
        for &x in &data[31..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count, whole.count);
        assert!((left.sum - whole.sum).abs() < 1e-9);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-6);
        assert_eq!(left.min, whole.min);
        assert_eq!(left.max, whole.max);
    }

    #[test]
    fn samples_seal_hour_buckets() {
        let mut hours = RollupLevel::new(HOUR);
        // 3 hours of 10-second samples.
        for i in 0..(3 * 360) {
            hours.push(i64::from(i) * 10, f64::from(i));
        }
        assert_eq!(hours.sealed().len(), 2);
        let h0 = hours.sealed()[0];
        assert_eq!(h0.start, 0);
        assert_eq!(h0.agg.count, 360);
        assert!((h0.agg.mean() - 179.5).abs() < 1e-9);
        // The open bucket already holds the latest sample.
        let open = hours.open().unwrap();
        assert_eq!((open.start, open.agg.count), (2 * HOUR, 360));
    }

    #[test]
    fn rollup_mean_reaggregates_not_mean_of_means() {
        // Unequal bucket populations: 1 sample in hour 0, 59 in hour 1.
        let mut hours = RollupLevel::new(HOUR);
        hours.push(0, 100.0);
        for i in 0..59 {
            hours.push(HOUR + i * 60, 0.0);
        }
        hours.push(2 * HOUR, 0.0); // seal hour 1
        let mut window = Aggregate::new();
        for b in hours.buckets_in(0, 2 * HOUR) {
            window.merge(&b.agg);
        }
        // Mean of means would give (100 + 0) / 2 = 50; the true mean is
        // 100 / 60 ≈ 1.67.
        assert_eq!(window.count, 60);
        assert!((window.mean() - 100.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn alignment_check() {
        let l = RollupLevel::new(HOUR);
        assert!(l.covers_aligned(0, 3600));
        assert!(l.covers_aligned(7200, 18_000));
        assert!(!l.covers_aligned(60, 3660));
        assert!(!l.covers_aligned(0, 5400));
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let mut l = RollupLevel::new(HOUR);
        l.push(-3601, 1.0);
        l.push(-3600, 2.0);
        l.push(-1, 3.0);
        l.push(0, 4.0);
        // -3601 is in bucket [-7200, -3600); -3600 and -1 in [-3600, 0);
        // 0 in [0, 3600).
        assert_eq!(l.sealed().len(), 2);
        assert_eq!(l.sealed()[0].start, -7200);
        assert_eq!(l.sealed()[1].start, -3600);
        assert_eq!(l.sealed()[1].agg.count, 2);
    }
}
