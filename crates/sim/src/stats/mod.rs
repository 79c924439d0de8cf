//! Measurement utilities shared by every experiment.
//!
//! The paper reports means, variances, boxplots (Figs. 1, 8, 10), empirical
//! PDFs (Fig. 4), time series (Fig. 9) and per-mille loss rates (Table I).
//! This module provides the estimators those reports need, all pure-Rust,
//! deterministic, and cheap enough to run inline with the simulation:
//!
//! * [`MeanVar`] — Welford online mean/variance with min/max.
//! * [`Ewma`] — exponentially weighted moving average (the paper's eq. (11)
//!   load estimator uses exactly this shape).
//! * [`Histogram`] — log-linear latency histogram with quantile queries.
//! * [`Reservoir`] — uniform reservoir sample for exact small-sample
//!   percentiles (boxplots).
//! * [`Boxplot`] — five-number summary computed from samples.

mod ewma;
mod histogram;
mod meanvar;
mod reservoir;

pub use ewma::Ewma;
pub use histogram::Histogram;
pub use meanvar::MeanVar;
pub use reservoir::{Boxplot, Reservoir};

/// Compute the `q`-quantile (0 ≤ q ≤ 1) of a *sorted* slice by linear
/// interpolation (type-7 estimator, the numpy/R default).
///
/// Returns `None` on an empty slice. Panics in debug builds if the slice is
/// not sorted.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_empty() {
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quantile_single() {
        assert_eq!(quantile_sorted(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile_sorted(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert!((quantile_sorted(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_q() {
        let v = [1.0, 2.0];
        assert_eq!(quantile_sorted(&v, -3.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 9.0), Some(2.0));
    }
}
