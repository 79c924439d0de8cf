//! Log-linear histogram for latency-style positive quantities.
//!
//! HdrHistogram-like layout: values are bucketed into power-of-two ranges,
//! each split into `sub_buckets` linear slots, giving a bounded relative
//! error (≈ 1/sub_buckets) over many orders of magnitude with O(1) insert
//! and a few KiB of memory. Latencies in the simulator span ~100 ns (wire
//! time) to ~1 s (pathological stalls), which a linear histogram cannot
//! cover affordably.

use crate::stats::{Boxplot, MeanVar};

/// Log-linear histogram over `u64` values (typically nanoseconds).
#[derive(Clone, Debug)]
pub struct Histogram {
    sub_bits: u32,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    /// Welford accumulator for the variance: stable even for large,
    /// tightly clustered values, where sum-of-squares cancellation would
    /// destroy all precision.
    moments: MeanVar,
    /// What [`Histogram::record_burst`] recorded since the last fold into
    /// `moments`, as exact integer sums: at most [`BURST_CHUNK`] values.
    pending: BurstSums,
    min: u64,
    max: u64,
}

/// [`Histogram::record_burst`] sums values below this bound, and their
/// squares, in integers: a square fits 72 bits, so a block of
/// [`BURST_CHUNK`] values cannot overflow the `u128` arithmetic its
/// variance takes (`n·Σx² < 2^104`). 2^36 ns is 68 s — any latency worth
/// the name; larger values take the scalar [`Histogram::record`].
const BURST_EXACT_BELOW: u64 = 1 << 36;
/// Values [`Histogram::record_burst`] sums in its pending block before
/// folding them into the moments (see [`BURST_EXACT_BELOW`]).
const BURST_CHUNK: u64 = 1 << 16;

/// Exact integer summary of a run of recorded values.
#[derive(Clone, Debug)]
struct BurstSums {
    n: u64,
    sum: u64,
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl BurstSums {
    const EMPTY: BurstSums = BurstSums {
        n: 0,
        sum: 0,
        sum_sq: 0,
        min: u64::MAX,
        max: 0,
    };

    /// Add `other`'s values (integer adds; the caller keeps `n` within
    /// [`BURST_CHUNK`]).
    fn add(&mut self, other: &BurstSums) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The block as Welford moments. Σ(x − mean)² = (n·Σx² − (Σx)²) / n,
    /// the numerator exact (and non-negative, by Cauchy–Schwarz), so
    /// nothing cancels.
    fn moments(&self) -> MeanVar {
        if self.n == 0 {
            return MeanVar::new();
        }
        let n = self.n as f64;
        let spread = u128::from(self.n) * self.sum_sq - u128::from(self.sum).pow(2);
        MeanVar::from_moments(
            self.n,
            self.sum as f64 / n,
            spread as f64 / n,
            self.min as f64,
            self.max as f64,
        )
    }
}

impl Histogram {
    /// Create a histogram with 2^`sub_bits` linear sub-buckets per octave.
    ///
    /// `sub_bits = 5` (32 sub-buckets, ≈3% relative error) is plenty for
    /// latency reporting; `sub_bits = 7` gives ≈0.8%.
    pub fn new(sub_bits: u32) -> Self {
        assert!((1..=16).contains(&sub_bits), "sub_bits in 1..=16");
        // 64 octaves × sub_buckets is the worst case; index() caps octaves.
        let n = (64 - sub_bits as usize + 1) * (1 << sub_bits);
        Histogram {
            sub_bits,
            counts: vec![0; n],
            total: 0,
            sum: 0,
            moments: MeanVar::new(),
            pending: BurstSums::EMPTY,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Default configuration for latency distributions (≈3% error).
    pub fn latency() -> Self {
        Histogram::new(5)
    }

    fn index(&self, value: u64) -> usize {
        let sub = self.sub_bits;
        if value < (1 << sub) {
            // First octave is exact.
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let octave = (msb - sub + 1) as usize;
        let within = ((value >> (msb - sub)) - (1 << sub)) as usize;
        octave * (1 << sub) + within
    }

    /// Lowest value that maps to the bucket with the given index
    /// (the inverse of `index`, used for quantile reconstruction).
    fn bucket_low(&self, idx: usize) -> u64 {
        let sub = self.sub_bits as usize;
        let per = 1usize << sub;
        if idx < per {
            return idx as u64;
        }
        let octave = idx / per;
        let within = idx % per;
        // Octave o >= 1 covers [2^(sub+o-1), 2^(sub+o)), each slot spanning
        // 2^(o-1) values.
        let base = 1u64 << (sub + octave - 1);
        base + (within as u64) * (1u64 << (octave - 1))
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self.index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.moments.add(value as f64);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record `n` identical observations.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index(value);
        self.counts[idx] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.moments.add_n(value as f64, n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record every value of one burst: equivalent to calling
    /// [`Histogram::record`] on each (identical buckets, count, sum, min
    /// and max; mean and variance equal up to float rounding), at a lower
    /// price per value. Each value costs a bucket increment and integer
    /// Σx, Σx², min and max — independent operations the CPU overlaps —
    /// and the burst costs a few integer adds into a pending block, where
    /// `record` runs a dependent `f64` division per value. The block folds
    /// into the Welford moments, in one Chan merge from its exact integer
    /// sums (so nothing cancels), once it holds 2^16 values or when the
    /// moments are read: [`Histogram::variance`],
    /// [`Histogram::std_dev`], [`Histogram::boxplot_scaled`],
    /// [`Histogram::merge`]. Buckets, count, sum, min and max are current
    /// after every call.
    pub fn record_burst(&mut self, values: impl IntoIterator<Item = u64>) {
        let mut burst = BurstSums::EMPTY;
        for value in values {
            if value >= BURST_EXACT_BELOW {
                self.record(value);
                continue;
            }
            let idx = self.index(value);
            self.counts[idx] += 1;
            burst.n += 1;
            burst.sum += value;
            burst.sum_sq += u128::from(value) * u128::from(value);
            burst.min = burst.min.min(value);
            burst.max = burst.max.max(value);
            if burst.n == BURST_CHUNK {
                self.absorb(&std::mem::replace(&mut burst, BurstSums::EMPTY));
            }
        }
        self.absorb(&burst);
    }

    /// Put one burst's sums on the totals and into the pending block,
    /// folding the block first if the burst would overfill it.
    fn absorb(&mut self, burst: &BurstSums) {
        if burst.n == 0 {
            return;
        }
        self.total += burst.n;
        self.sum += u128::from(burst.sum);
        self.min = self.min.min(burst.min);
        self.max = self.max.max(burst.max);
        if self.pending.n + burst.n > BURST_CHUNK {
            self.fold();
        }
        self.pending.add(burst);
    }

    /// Fold the pending block into the moments.
    fn fold(&mut self) {
        self.moments.merge(&self.pending.moments());
        self.pending = BurstSums::EMPTY;
    }

    /// The moments of everything recorded, the pending block folded into a
    /// copy (reads take `&self`).
    fn folded_moments(&self) -> MeanVar {
        let mut moments = self.moments.clone();
        moments.merge(&self.pending.moments());
        moments
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of recorded values (what a Prometheus `_sum` sample
    /// reports; `u128` so nanosecond totals cannot overflow).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact minimum (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (bucket lower bound; relative error bounded
    /// by the sub-bucket resolution).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to the true extremes for the outer quantiles.
                let v = self.bucket_low(i);
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median shortcut.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Sample variance of recorded values (0 with fewer than two
    /// observations). Welford-accumulated, so it stays accurate even for
    /// large nanosecond values packed close together — the regime where
    /// the naive `E[X²] − mean²` form cancels catastrophically.
    pub fn variance(&self) -> f64 {
        self.folded_moments().variance()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.folded_moments().std_dev()
    }

    /// Five-number summary of the recorded distribution, every field
    /// multiplied by `scale` (e.g. `1e-3` to report nanosecond records in
    /// microseconds). Quartiles carry the histogram's bucket resolution;
    /// min/max/mean are exact, std-dev is Welford-accurate. `None` if
    /// nothing was recorded.
    pub fn boxplot_scaled(&self, scale: f64) -> Option<Boxplot> {
        if self.total == 0 {
            return None;
        }
        Some(Boxplot {
            min: self.min as f64 * scale,
            q1: self.quantile(0.25)? as f64 * scale,
            median: self.quantile(0.50)? as f64 * scale,
            q3: self.quantile(0.75)? as f64 * scale,
            max: self.max as f64 * scale,
            mean: self.mean() * scale,
            std_dev: self.std_dev() * scale,
            count: self.total as usize,
        })
    }

    /// Merge another histogram with identical configuration.
    ///
    /// # Panics
    /// If the two histograms were built with different `sub_bits`.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "incompatible histograms");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.fold();
        self.moments.merge(&other.folded_moments());
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterate non-empty buckets as `(bucket_low, count)`.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (self.bucket_low(i), c))
    }

    /// Iterate non-empty buckets as `(low, high_exclusive, count)` — the
    /// half-open value range each bucket covers, for exporters that need
    /// upper bounds (e.g. Prometheus `le` labels).
    pub fn iter_spans(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (self.bucket_low(i), self.bucket_low(i + 1), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::latency();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new(5);
        for v in 0..32 {
            h.record(v);
        }
        // First octave is exact: every value its own bucket.
        let buckets: Vec<_> = h.iter_buckets().collect();
        assert_eq!(buckets.len(), 32);
        for (i, (low, count)) in buckets.iter().enumerate() {
            assert_eq!(*low, i as u64);
            assert_eq!(*count, 1);
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::latency();
        for v in [100, 200, 300, 1_000_000] {
            h.record(v);
        }
        assert!((h.mean() - 250_150.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new(5);
        // Values across several octaves.
        let vals: Vec<u64> = (0..10_000).map(|i| 50 + i * 37).collect();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = sorted[((q * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)];
            let approx = h.quantile(q).unwrap();
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.05, "q={q}: exact {exact} approx {approx} rel {rel}");
        }
    }

    #[test]
    fn min_max_exact() {
        let mut h = Histogram::latency();
        h.record(17);
        h.record(93_000_001);
        assert_eq!(h.min(), Some(17));
        assert_eq!(h.max(), Some(93_000_001));
        assert_eq!(h.quantile(0.0), Some(17));
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let mut a = Histogram::new(5);
        let mut b = Histogram::new(5);
        a.record_n(1234, 7);
        for _ in 0..7 {
            b.record(1234);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    /// `record_burst` against the scalar loop on the same values: the
    /// integer state must be identical, the variance equal to rounding
    /// (1e-9 relative).
    fn assert_burst_matches_loop(bursts: &[Vec<u64>]) {
        let (burst, looped) = assert_integer_state_matches(bursts);
        assert_same_variance(&burst, &looped);
    }

    fn assert_integer_state_matches(bursts: &[Vec<u64>]) -> (Histogram, Histogram) {
        let mut burst = Histogram::latency();
        let mut looped = Histogram::latency();
        for values in bursts {
            burst.record_burst(values.iter().copied());
            for &v in values {
                looped.record(v);
            }
        }
        assert_same_integer_state(&burst, &looped);
        (burst, looped)
    }

    /// What a reader sees that is exact: buckets, count, sum, extremes,
    /// quantiles and mean.
    fn assert_same_integer_state(got: &Histogram, want: &Histogram) {
        assert!(got.iter_buckets().eq(want.iter_buckets()), "buckets");
        assert_eq!(got.count(), want.count());
        assert_eq!(got.sum(), want.sum());
        assert_eq!(got.min(), want.min());
        assert_eq!(got.max(), want.max());
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(got.quantile(q), want.quantile(q), "q{q}");
        }
        assert_eq!(got.mean(), want.mean());
    }

    fn assert_same_variance(got: &Histogram, want: &Histogram) {
        let (a, b) = (got.variance(), want.variance());
        assert!((a - b).abs() <= 1e-9 * b.abs(), "variance {a} vs {b}");
        let (a, b) = (got.std_dev(), want.std_dev());
        assert!((a - b).abs() <= 1e-9 * b.abs(), "std-dev {a} vs {b}");
    }

    /// `n` latency-like values, spread over four orders of magnitude.
    fn spread_values(n: u64) -> Vec<u64> {
        (0..n).map(|i| 100 + (i * 7_919 % 1_000_003) * 37).collect()
    }

    #[test]
    fn record_burst_folds_at_the_chunk_bound_in_one_call_and_across_calls() {
        for n in [BURST_CHUNK - 1, BURST_CHUNK, BURST_CHUNK + 1] {
            let values = spread_values(n);
            // One call: the block fills (or not) inside it.
            assert_burst_matches_loop(std::slice::from_ref(&values));
            // Across calls: bursts of 1..=5 values fill the block from
            // outside, and one long burst overfills it with a block
            // already pending.
            let mut bursts = Vec::new();
            let mut rest = &values[..];
            for len in (1..=5).cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(len.min(rest.len()));
                bursts.push(head.to_vec());
                rest = tail;
            }
            assert_burst_matches_loop(&bursts);
            assert_burst_matches_loop(&[values[..3].to_vec(), values[3..].to_vec()]);
            // At the top of the exact range the block's sums must not
            // overflow however it was filled.
            let top = vec![BURST_EXACT_BELOW - 1; n as usize];
            assert_burst_matches_loop(&[top[..7].to_vec(), top[7..].to_vec()]);
        }
    }

    #[test]
    fn merging_pending_blocks_equals_recording_into_one() {
        let values = spread_values(3 * BURST_CHUNK / 2);
        let (left, right) = values.split_at(values.len() / 3);
        let mut whole = Histogram::latency();
        for &v in &values {
            whole.record(v);
        }
        // Each side holds a pending block, one of them behind a fold, and
        // a few scalar records beside it.
        let side = |values: &[u64]| {
            let mut h = Histogram::latency();
            h.record(values[0]);
            for burst in values[1..].chunks(3) {
                h.record_burst(burst.iter().copied());
            }
            h
        };
        let mut merged = side(left);
        merged.merge(&side(right));
        assert_same_integer_state(&merged, &whole);
        assert_same_variance(&merged, &whole);
        // The merged side keeps recording bursts as before.
        merged.record_burst([5, 50_000, 5_000_000]);
        whole.record_burst([5, 50_000, 5_000_000]);
        assert_same_integer_state(&merged, &whole);
        assert_same_variance(&merged, &whole);
    }

    #[test]
    fn record_burst_edge_cases_match_the_loop() {
        assert_burst_matches_loop(&[vec![]]);
        assert_burst_matches_loop(&[vec![0]]);
        assert_burst_matches_loop(&[vec![7], vec![], vec![7, 7, 7]]);
        // Around the exact-sum bound, and the largest value there is.
        let edge = BURST_EXACT_BELOW;
        assert_burst_matches_loop(&[vec![edge - 1, edge, edge + 1, u64::MAX, 3]]);
        // One-second latencies a nanosecond apart (no cancellation).
        assert_burst_matches_loop(&[vec![1_000_000_000, 1_000_000_001], vec![1_000_000_002]]);
    }

    #[test]
    fn record_burst_folds_long_bursts_in_chunks() {
        // Longer than a chunk, at the top of the exact range: the integer
        // sums must not overflow.
        let values = vec![BURST_EXACT_BELOW - 1; BURST_CHUNK as usize + 5];
        let mut h = Histogram::latency();
        h.record_burst(values.iter().copied());
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(
            h.sum(),
            u128::from(BURST_EXACT_BELOW - 1) * values.len() as u128
        );
        assert_eq!(h.variance(), 0.0);
    }

    proptest::proptest! {
        /// Any split of any latency-like sequence into bursts records the
        /// same distribution as the scalar loop.
        #[test]
        fn record_burst_matches_record(
            bursts in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u64..5_000_000_000, 0..40),
                1..30,
            )
        ) {
            assert_burst_matches_loop(&bursts);
        }

        /// Tightly clustered values far from zero — a minute out, two
        /// microseconds wide — where a naive sum of squares cancels and
        /// even Welford's own rounding (condition number ~1e8) exceeds
        /// 1e-9: the burst path must stay as close to the exact two-pass
        /// variance as the scalar loop does.
        #[test]
        fn record_burst_is_as_stable_as_record_when_clustered(
            base in 0u64..60_000_000_000,
            bursts in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u64..2_000, 1..33),
                2..20,
            )
        ) {
            let shifted: Vec<Vec<u64>> = bursts
                .iter()
                .map(|b| b.iter().map(|v| base + v).collect())
                .collect();
            let (burst, looped) = assert_integer_state_matches(&shifted);
            let all: Vec<u128> = shifted.iter().flatten().map(|&v| u128::from(v)).collect();
            let n = all.len() as u128;
            let (sum, sum_sq) = all.iter().fold((0, 0), |(s, q), v| (s + v, q + v * v));
            let exact = (n * sum_sq - sum * sum) as f64 / (n * (n - 1)) as f64;
            for (name, got) in [("burst", burst.variance()), ("loop", looped.variance())] {
                assert!((got - exact).abs() <= 1e-6 * exact, "{name} {got} vs exact {exact}");
            }
        }
    }

    #[test]
    fn variance_matches_two_pass() {
        let mut h = Histogram::latency();
        let vals = [120u64, 340, 560, 780, 10_000];
        for &v in &vals {
            h.record(v);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<u64>() as f64 / n;
        let var = vals
            .iter()
            .map(|&v| (v as f64 - mean) * (v as f64 - mean))
            .sum::<f64>()
            / (n - 1.0);
        assert!((h.variance() - var).abs() / var < 1e-12, "{}", h.variance());
        assert!((h.std_dev() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn variance_survives_large_clustered_values() {
        // One-second-scale latencies one nanosecond apart: the naive
        // E[X²] − mean² form loses everything to cancellation here (the
        // ulp of 1e18 is ~128), Welford does not.
        let mut h = Histogram::latency();
        h.record(1_000_000_000);
        h.record(1_000_000_001);
        assert!((h.variance() - 0.5).abs() < 1e-3, "{}", h.variance());
        // Same via the O(1) bulk path.
        let mut b = Histogram::latency();
        b.record_n(1_000_000_000, 500);
        b.record_n(1_000_000_001, 500);
        let expect = 0.25 * 1000.0 / 999.0;
        assert!((b.variance() - expect).abs() < 1e-3, "{}", b.variance());
    }

    #[test]
    fn variance_degenerate_cases() {
        let mut h = Histogram::latency();
        assert_eq!(h.variance(), 0.0);
        h.record(500);
        assert_eq!(h.variance(), 0.0); // one sample
        h.record_n(500, 9);
        assert_eq!(h.variance(), 0.0); // identical samples
    }

    #[test]
    fn boxplot_scaled_summarizes() {
        let mut h = Histogram::latency();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1..=1000 µs in ns
        }
        let bp = h.boxplot_scaled(1e-3).unwrap();
        assert_eq!(bp.count, 1000);
        assert!((bp.min - 1.0).abs() < 1e-9);
        assert!((bp.max - 1000.0).abs() < 1e-9);
        assert!((bp.median - 500.0).abs() / 500.0 < 0.05);
        assert!(bp.q1 <= bp.median && bp.median <= bp.q3);
        assert!((bp.mean - 500.5).abs() < 1e-6);
        assert!(Histogram::latency().boxplot_scaled(1.0).is_none());
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new(5);
        let mut b = Histogram::new(5);
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000_000));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_mismatched_config() {
        let mut a = Histogram::new(5);
        let b = Histogram::new(6);
        a.merge(&b);
    }

    #[test]
    fn bucket_low_is_monotone() {
        let h = Histogram::new(5);
        let mut prev = 0;
        for i in 0..500 {
            let low = h.bucket_low(i);
            assert!(low >= prev, "bucket {i}: {low} < {prev}");
            prev = low;
        }
    }

    #[test]
    fn index_bucket_low_consistent() {
        let h = Histogram::new(5);
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 65_535, 1 << 30] {
            let idx = h.index(v);
            let low = h.bucket_low(idx);
            assert!(low <= v, "v={v} idx={idx} low={low}");
            // Next bucket must start above v.
            let next_low = h.bucket_low(idx + 1);
            assert!(next_low > v, "v={v} idx={idx} next_low={next_low}");
        }
    }
}
