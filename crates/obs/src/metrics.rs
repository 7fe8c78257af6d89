//! Named counters and log2-bucketed histograms.
//!
//! The registry is the single interface behind which per-protocol and
//! per-substrate statistics live: the engine's thread stats, the MVM's
//! version-depth census and install accounting, and the software STM's
//! event counts all export into one [`MetricsRegistry`], which the
//! JSONL [`crate::report::RunReport`] serializes.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A histogram over `u64` samples with logarithmic buckets: bucket `i`
/// counts samples whose value `v` satisfies `floor(log2(v)) == i - 1`,
/// with bucket 0 reserved for `v == 0`. Equivalently: bucket 0 holds 0,
/// bucket 1 holds 1, bucket 2 holds 2..=3, bucket 3 holds 4..=7, and so
/// on — 65 buckets cover the whole `u64` range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u32, u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index for `value`: 0 for 0, else `ilog2(value) + 1`.
    pub fn bucket_of(value: u64) -> u32 {
        match value {
            0 => 0,
            v => v.ilog2() + 1,
        }
    }

    /// The half-open sample range `[lo, hi)` a bucket covers (`hi` is
    /// saturating at `u64::MAX` for the top bucket).
    pub fn bucket_range(bucket: u32) -> (u64, u64) {
        match bucket {
            0 => (0, 1),
            b => (1u64 << (b - 1), 1u64.checked_shl(b).unwrap_or(u64::MAX)),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(Self::bucket_of(value)).or_insert(0) += 1;
        self.total += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Count in bucket `bucket`.
    pub fn count_in(&self, bucket: u32) -> u64 {
        self.counts.get(&bucket).copied().unwrap_or(0)
    }

    /// Non-empty `(bucket, count)` pairs in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&b, &c)| (b, c))
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (&b, &c) in &other.counts {
            *self.counts.entry(b).or_insert(0) += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The histogram as a JSON object:
    /// `{"buckets": [[bucket, count], ...], "sum": s, "max": m}`.
    /// Buckets appear in ascending order (deterministic). `sum` is
    /// exact as long as it fits in 2^53 (JSON numbers are `f64`), which
    /// covers every histogram this repository emits.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let buckets = self
            .buckets()
            .map(|(b, c)| Json::Arr(vec![Json::Num(b as f64), Json::Num(c as f64)]))
            .collect();
        Json::obj([
            ("buckets", Json::Arr(buckets)),
            ("sum", Json::Num(self.sum as f64)),
            ("max", Json::Num(self.max as f64)),
        ])
    }

    /// Parses a [`Histogram::to_json`] object back. `total` is
    /// recomputed from the bucket counts; returns `None` on any
    /// malformed field.
    pub fn from_json(v: &crate::json::Json) -> Option<Histogram> {
        use crate::json::Json;
        let mut h = Histogram {
            sum: v.get("sum")?.as_u64()? as u128,
            max: v.get("max")?.as_u64()?,
            ..Histogram::default()
        };
        let Some(Json::Arr(buckets)) = v.get("buckets") else {
            return None;
        };
        for pair in buckets {
            let Json::Arr(bc) = pair else { return None };
            let bucket = bc.first()?.as_u64()?;
            let count = bc.get(1)?.as_u64()?;
            if bucket >= BUCKETS as u64 {
                return None;
            }
            h.counts.insert(bucket as u32, count);
            h.total += count;
        }
        Some(h)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (b, c) in self.buckets() {
            let (lo, hi) = Self::bucket_range(b);
            writeln!(f, "[{lo:>12}, {hi:>12})  {c}")?;
        }
        write!(
            f,
            "n={} mean={:.2} max={}",
            self.total,
            self.mean(),
            self.max
        )
    }
}

/// Number of log2 buckets covering the whole `u64` domain: bucket 0
/// for zero plus one bucket per bit position.
const BUCKETS: usize = 65;

/// A lock-free counterpart of [`Histogram`]: the same log2 buckets over
/// plain atomics, so many threads can record concurrently (e.g. every
/// committing STM transaction) without serializing through a mutex.
///
/// Reads go through [`AtomicHistogram::snapshot`], which folds the
/// atomics into an ordinary [`Histogram`] — export paths
/// ([`MetricsRegistry::merge_histogram`], JSONL) are therefore
/// byte-identical to the mutex-guarded `Histogram` they replace. A
/// snapshot taken while writers are active is a consistent *lower
/// bound* per bucket, not an atomic cut; take it after the racing
/// threads quiesce when exactness matters.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; safe to call from any thread
    /// through a shared reference. A sample that cannot change `sum`
    /// (zero) or `max` (not above it) writes neither: the bucket count
    /// is then the only line the call dirties.
    pub fn record(&self, value: u64) {
        self.counts[Histogram::bucket_of(value) as usize].fetch_add(1, Ordering::Relaxed);
        if value != 0 {
            self.sum.fetch_add(value, Ordering::Relaxed);
        }
        if self.max.load(Ordering::Relaxed) < value {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded (sum of all bucket counts).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Folds the current contents into an ordinary [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut counts = BTreeMap::new();
        let mut total = 0u64;
        for (bucket, count) in self.counts.iter().enumerate() {
            let c = count.load(Ordering::Relaxed);
            if c > 0 {
                counts.insert(bucket as u32, c);
                total += c;
            }
        }
        Histogram {
            counts,
            total,
            sum: self.sum.load(Ordering::Relaxed) as u128,
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// The registry: named counters and histograms with stable (sorted)
/// iteration order, so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Free-form numeric gauges (averages, ratios) set by exporters.
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name` (creating it when absent).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges an externally maintained histogram into histogram `name`
    /// (creating it when absent).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Sets gauge `name`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another registry: counters add, histograms merge, gauges
    /// overwrite.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.gauges.is_empty()
    }
}

/// Anything that can export its statistics into a [`MetricsRegistry`]
/// under a name prefix — the one interface all four protocol models
/// (and the MVM store behind them) implement.
pub trait Observable {
    /// Writes this component's metrics into `reg`. Implementations
    /// should namespace their entries (`"mvm.census.depth"`,
    /// `"sitm.commits"`, ...).
    fn export_metrics(&self, reg: &mut MetricsRegistry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every boundary value v = 2^k lands in a fresh bucket and
        // v - 1 lands in the previous one.
        for k in 1..64u32 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_of(v), k + 1);
            assert_eq!(Histogram::bucket_of(v - 1), k);
        }
    }

    #[test]
    fn bucket_ranges_tile_the_domain() {
        let mut expected_lo = 0u64;
        for b in 0..=10u32 {
            let (lo, hi) = Histogram::bucket_range(b);
            assert_eq!(
                lo, expected_lo,
                "bucket {b} must start where the last ended"
            );
            assert!(hi > lo);
            expected_lo = hi;
        }
        // A sample equal to a bucket's lo belongs to that bucket.
        for b in 0..=10u32 {
            let (lo, hi) = Histogram::bucket_range(b);
            assert_eq!(Histogram::bucket_of(lo), b);
            if hi != u64::MAX {
                assert_eq!(Histogram::bucket_of(hi - 1), b);
            }
        }
    }

    #[test]
    fn histogram_stats_and_merge() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-12);
        assert_eq!(h.count_in(2), 2); // 2 and 3

        let mut other = Histogram::new();
        other.record(100);
        h.merge(&other);
        assert_eq!(h.total(), 6);
        assert_eq!(h.count_in(Histogram::bucket_of(100)), 2);
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 100, 1 << 40] {
            h.record(v);
        }
        let line = h.to_json().to_line();
        let back = Histogram::from_json(&crate::json::Json::parse(&line).unwrap())
            .expect("round-trip parses");
        assert_eq!(back, h);
        assert_eq!(back.to_json().to_line(), line, "fixed point");
        // Empty histograms round-trip too.
        let empty = Histogram::new();
        let back =
            Histogram::from_json(&crate::json::Json::parse(&empty.to_json().to_line()).unwrap())
                .unwrap();
        assert_eq!(back, empty);
        // Malformed inputs are rejected, not mis-parsed.
        for bad in [
            r#"{"sum":1,"max":1}"#,
            r#"{"buckets":[[99,1]],"sum":1,"max":1}"#,
            r#"{"buckets":[[1]],"sum":1,"max":1}"#,
        ] {
            assert_eq!(
                Histogram::from_json(&crate::json::Json::parse(bad).unwrap()),
                None,
                "{bad}"
            );
        }
    }

    #[test]
    fn atomic_histogram_snapshot_round_trips_through_json() {
        // The satellite contract: edge values land in deterministic
        // buckets and an AtomicHistogram snapshot survives the JSONL
        // export/import path bit-for-bit.
        let atomic = AtomicHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, (1 << 20) - 1, 1 << 20, u64::MAX] {
            atomic.record(v);
        }
        let snap = atomic.snapshot();
        // u64::MAX wraps the atomic sum; the snapshot still reports the
        // wrapped value consistently, so only check bucket placement.
        assert_eq!(snap.count_in(0), 1); // 0
        assert_eq!(snap.count_in(1), 1); // 1
        assert_eq!(snap.count_in(2), 2); // 2, 3
        assert_eq!(snap.count_in(3), 2); // 4, 7
        assert_eq!(snap.count_in(4), 1); // 8
        assert_eq!(snap.count_in(20), 1); // 2^20 - 1
        assert_eq!(snap.count_in(21), 1); // 2^20
        assert_eq!(snap.count_in(64), 1); // u64::MAX
        let line = snap.to_json().to_line();
        let back = Histogram::from_json(&crate::json::Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.total(), snap.total());
        assert_eq!(back.max(), snap.max());
        let counts_match = (0..=64u32).all(|b| back.count_in(b) == snap.count_in(b));
        assert!(counts_match);
    }

    #[test]
    fn atomic_histogram_matches_sequential_histogram() {
        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        // Zeros, repeats and samples below the running maximum take
        // the paths that skip the `sum` / `max` writes.
        for v in [0, 1, 2, 3, 7, 100, 1 << 40, 5, 0, 100, 1 << 40] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
        assert_eq!(atomic.total(), plain.total());
    }

    #[test]
    fn atomic_histogram_concurrent_records_are_not_lost() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.total(), 4000);
        assert_eq!(snap.max(), 3999);
        let bucket_sum: u64 = snap.buckets().map(|(_, c)| c).sum();
        assert_eq!(bucket_sum, 4000);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.count("commits", 3);
        r.count("commits", 2);
        r.observe("read_set", 17);
        r.gauge("abort_rate", 0.25);
        assert_eq!(r.counter("commits"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.histogram("read_set").unwrap().total(), 1);
        assert_eq!(r.gauge_value("abort_rate"), Some(0.25));

        let mut other = MetricsRegistry::new();
        other.count("commits", 1);
        other.observe("read_set", 1);
        r.merge(&other);
        assert_eq!(r.counter("commits"), 6);
        assert_eq!(r.histogram("read_set").unwrap().total(), 2);
    }
}
