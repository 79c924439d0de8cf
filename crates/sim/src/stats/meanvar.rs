//! Online mean/variance (Welford's algorithm) with min/max tracking.

/// Numerically stable single-pass estimator of mean, variance, min and max.
///
/// Welford's update keeps the running mean and the sum of squared deviations
/// (`m2`); variance follows without catastrophic cancellation even when the
/// values are large (nanosecond timestamps) and tightly clustered.
#[derive(Clone, Debug, Default)]
pub struct MeanVar {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl MeanVar {
    /// Fresh, empty estimator.
    pub fn new() -> Self {
        MeanVar {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// An estimator over `count` observations summarized elsewhere: their
    /// mean, their sum of squared deviations from it (`m2`) and their
    /// extremes — the right-hand side of a [`MeanVar::merge`] for a caller
    /// that accumulated a batch in exact integer sums.
    pub(crate) fn from_moments(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        MeanVar {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Incorporate one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Incorporate `n` identical observations of `x` in O(1) (Chan merge
    /// with a point mass: a degenerate distribution has zero `m2`).
    pub fn add_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.count = n;
            self.mean = x;
            self.m2 = 0.0;
            self.min = x;
            self.max = x;
            return;
        }
        let n1 = self.count as f64;
        let n2 = n as f64;
        let delta = x - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += delta * delta * n1 * n2 / total;
        self.count += n;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another estimator into this one (parallel Welford / Chan et al.).
    pub fn merge(&mut self, other: &MeanVar) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_n_matches_looped_adds() {
        let mut bulk = MeanVar::new();
        let mut looped = MeanVar::new();
        for (x, n) in [(10.0, 3u64), (250.5, 1), (1e9, 7), (3.25, 0)] {
            bulk.add_n(x, n);
            for _ in 0..n {
                looped.add(x);
            }
        }
        assert_eq!(bulk.count(), looped.count());
        assert!((bulk.mean() - looped.mean()).abs() < 1e-9 * looped.mean());
        assert!((bulk.variance() - looped.variance()).abs() < 1e-6 * looped.variance());
        assert_eq!(bulk.min(), looped.min());
        assert_eq!(bulk.max(), looped.max());
    }

    #[test]
    fn add_n_into_empty_is_a_point_mass() {
        let mut mv = MeanVar::new();
        mv.add_n(42.0, 5);
        assert_eq!(mv.count(), 5);
        assert_eq!(mv.mean(), 42.0);
        assert_eq!(mv.variance(), 0.0);
        assert_eq!(mv.min(), Some(42.0));
        assert_eq!(mv.max(), Some(42.0));
    }

    #[test]
    fn empty_is_benign() {
        let mv = MeanVar::new();
        assert_eq!(mv.count(), 0);
        assert_eq!(mv.mean(), 0.0);
        assert_eq!(mv.variance(), 0.0);
        assert_eq!(mv.min(), None);
        assert_eq!(mv.max(), None);
    }

    #[test]
    fn matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut mv = MeanVar::new();
        for &x in &xs {
            mv.add(x);
        }
        assert!((mv.mean() - 5.0).abs() < 1e-12);
        // Two-pass unbiased variance: sum((x-5)^2)/(n-1) = 32/7.
        assert!((mv.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mv.min(), Some(2.0));
        assert_eq!(mv.max(), Some(9.0));
        assert!((mv.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = MeanVar::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = MeanVar::new();
        let mut right = MeanVar::new();
        for &x in &xs[..37] {
            left.add(x);
        }
        for &x in &xs[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = MeanVar::new();
        a.add(1.0);
        a.add(3.0);
        let b = MeanVar::new();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);

        let mut c = MeanVar::new();
        c.merge(&a);
        assert_eq!(c.count(), 2);
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stable_for_large_offsets() {
        // 1e9-offset values with tiny variance: naive sum-of-squares dies here.
        let mut mv = MeanVar::new();
        for i in 0..1000 {
            mv.add(1e9 + (i % 2) as f64);
        }
        assert!((mv.mean() - (1e9 + 0.5)).abs() < 1e-3);
        assert!((mv.variance() - 0.2502502502).abs() < 1e-3);
    }
}
