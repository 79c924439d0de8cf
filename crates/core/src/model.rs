//! The Metronome analytical model (paper §IV, equations 1–14).
//!
//! Metronome alternates *vacation periods* `V(i)` (all threads asleep,
//! packets accumulate) with *busy periods* `B(i)` (the trylock winner
//! drains the queue). Given the load `ρ = λ/µ`, the model relates the
//! controllable short timeout `TS` to the resulting mean vacation — and is
//! then inverted to pin the mean vacation (and thus the added latency) at a
//! target `V̄` regardless of load.
//!
//! All functions are pure and deterministic; time is carried in seconds as
//! `f64` for algebra and converted at the edges (the controller in
//! [`crate::controller`] does the `Nanos` conversion).
//!
//! Two transcription notes versus the arXiv text (both verified by Monte
//! Carlo in the unit tests below):
//! * eq. (7)'s closed form is `[1 − (1 − TS/TL)^{M−1}] / (M−1)`;
//! * the exact general-load mean (§IV-C) has denominator
//!   `M (p/TS + (1−p)/TL)` — the `TS`/`TL` positions are swapped in the
//!   paper's display equation (its own limits confirm this: `p → 1` must
//!   give `TS/M`, `p → 0` must give eq. (6)).

/// Mean busy period for a vacation of length `v` at load `rho` (eq. (3)):
/// `E[B|V] = V·ρ/(1−ρ)`.
///
/// Returns infinity at `rho >= 1` (overloaded queue never empties).
pub fn busy_period_mean(v: f64, rho: f64) -> f64 {
    assert!(v >= 0.0);
    if rho >= 1.0 {
        f64::INFINITY
    } else if rho <= 0.0 {
        0.0
    } else {
        v * rho / (1.0 - rho)
    }
}

/// Load estimate from an observed (busy, vacation) pair (eq. (4)):
/// `ρ = B/(V+B)`.
pub fn rho_from_periods(busy: f64, vacation: f64) -> f64 {
    if busy <= 0.0 {
        0.0
    } else {
        busy / (vacation + busy)
    }
}

/// High-load vacation CDF (eq. (5)): `P(V ≤ x)` when one primary thread
/// uses timeout `ts` and `m−1` backups are uniformly spread over `(0, tl)`.
pub fn vacation_cdf_high_load(x: f64, ts: f64, tl: f64, m: usize) -> f64 {
    assert!(m >= 2, "model needs at least two threads");
    assert!(ts > 0.0 && tl > 0.0);
    if x < 0.0 {
        0.0
    } else if x >= ts {
        1.0
    } else {
        1.0 - (1.0 - x / tl).max(0.0).powi(m as i32 - 1)
    }
}

/// Mean high-load vacation (eq. (6)):
/// `E[V] = (TL/M)·(1 − (1 − TS/TL)^M)`.
pub fn vacation_mean_high_load(ts: f64, tl: f64, m: usize) -> f64 {
    assert!(m >= 2);
    assert!(ts > 0.0 && tl > 0.0 && ts <= tl);
    tl / m as f64 * (1.0 - (1.0 - ts / tl).powi(m as i32))
}

/// Probability that a backup thread (rather than the primary) wins the next
/// race (eq. (7)): `[1 − (1 − TS/TL)^{M−1}]/(M−1)`.
pub fn backup_success_prob(ts: f64, tl: f64, m: usize) -> f64 {
    assert!(m >= 2);
    assert!(ts > 0.0 && tl > 0.0 && ts <= tl);
    (1.0 - (1.0 - ts / tl).powi(m as i32 - 1)) / (m as f64 - 1.0)
}

/// Low-load vacation CDF (eq. (8)): all `m` threads primary with timeout
/// `ts`.
pub fn vacation_cdf_low_load(x: f64, ts: f64, m: usize) -> f64 {
    assert!(m >= 1);
    assert!(ts > 0.0);
    if x < 0.0 {
        0.0
    } else if x >= ts {
        1.0
    } else {
        1.0 - (1.0 - x / ts).powi(m as i32)
    }
}

/// Equal-timeout vacation PDF (eq. (9), the Fig. 4 overlay):
/// `f(x) = (M−1)/TL · (1 − x/TL)^{M−2}` on `[0, TL]`.
pub fn vacation_pdf_equal_timeouts(x: f64, tl: f64, m: usize) -> f64 {
    assert!(m >= 2);
    assert!(tl > 0.0);
    if !(0.0..=tl).contains(&x) {
        0.0
    } else {
        (m as f64 - 1.0) / tl * (1.0 - x / tl).powi(m as i32 - 2)
    }
}

/// Exact general-load mean vacation (§IV-C integral):
/// `E[V] = [1 − ((1−p)(1−TS/TL))^M] / (M·(p/TS + (1−p)/TL))`
/// where `p` is the probability a thread is in primary state.
pub fn vacation_mean_general(ts: f64, tl: f64, m: usize, p: f64) -> f64 {
    assert!(m >= 1);
    assert!(ts > 0.0 && tl > 0.0 && ts <= tl);
    assert!((0.0..=1.0).contains(&p));
    let a = p / ts + (1.0 - p) / tl;
    let inner = (1.0 - p) * (1.0 - ts / tl);
    (1.0 - inner.powi(m as i32)) / (m as f64 * a)
}

/// Approximate general-load mean vacation under `TL ≫ TS` (eq. (10)):
/// `E[V] ≈ TS·(1 − (1−p)^M)/(M·p)`.
pub fn vacation_mean_approx(ts: f64, m: usize, p: f64) -> f64 {
    assert!(m >= 1);
    assert!(ts > 0.0);
    assert!((0.0..=1.0).contains(&p));
    if p <= f64::EPSILON {
        // p → 0 limit: E[V] → TS.
        return ts;
    }
    ts * (1.0 - (1.0 - p).powi(m as i32)) / (m as f64 * p)
}

/// The load-adaptive `TS` rule (eq. (13)):
/// `TS = M·(1−ρ)/(1−ρ^M) · V̄ = M·V̄ / (1 + ρ + … + ρ^{M−1})`.
///
/// Clamps `rho` into `[0, 1]`; the `ρ → 1` limit (`TS = V̄`) and the
/// `ρ → 0` limit (`TS = M·V̄`) are handled exactly.
pub fn ts_rule(m: usize, rho: f64, v_target: f64) -> f64 {
    assert!(m >= 1);
    assert!(v_target > 0.0);
    let rho = rho.clamp(0.0, 1.0);
    // Geometric-sum form is numerically stable at rho ≈ 1.
    let mut denom = 0.0;
    let mut pow = 1.0;
    for _ in 0..m {
        denom += pow;
        pow *= rho;
    }
    m as f64 * v_target / denom
}

/// The multiqueue `TS` rule (eq. (14)): per-queue load `rho_i`, with
/// `M/N` average threads per queue:
/// `TS_i = (M/N)·(1−ρ_i)/(1−ρ_i^{M/N}) · V̄`.
///
/// A whole number of threads per queue is eq. (13) with `M/N` threads —
/// one thread per queue is `V̄` at any load — so only a fractional ratio
/// pays for `powf`; a worker evaluates this rule on every release.
pub fn ts_rule_multiqueue(m: usize, n: usize, rho_i: f64, v_target: f64) -> f64 {
    assert!(m >= 1 && n >= 1);
    assert!(m >= n, "need at least one thread per queue (M ≥ N)");
    assert!(v_target > 0.0);
    if m == n {
        return v_target;
    }
    if m.is_multiple_of(n) {
        return ts_rule(m / n, rho_i, v_target);
    }
    let m_eff = m as f64 / n as f64;
    let rho = rho_i.clamp(0.0, 1.0);
    if (1.0 - rho).abs() < 1e-9 {
        return v_target; // ρ → 1 limit
    }
    if rho < 1e-12 {
        return m_eff * v_target; // ρ → 0 limit
    }
    m_eff * (1.0 - rho) / (1.0 - rho.powf(m_eff)) * v_target
}

/// Worst-case added latency (§IV-D): a packet arriving right after a busy
/// period waits out the whole vacation, so the expected worst case equals
/// the target vacation.
pub fn worst_case_latency(v_target: f64) -> f64 {
    v_target
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_sim::Rng;

    const TS: f64 = 10e-6;
    const TL: f64 = 500e-6;

    #[test]
    fn busy_period_limits() {
        assert_eq!(busy_period_mean(10.0, 0.0), 0.0);
        assert!((busy_period_mean(10.0, 0.5) - 10.0).abs() < 1e-12);
        assert!((busy_period_mean(10.0, 0.9) - 90.0).abs() < 1e-9);
        assert!(busy_period_mean(10.0, 1.0).is_infinite());
    }

    #[test]
    fn rho_inverts_busy_period() {
        // eq. (3) and eq. (4) are inverses.
        for rho in [0.1, 0.5, 0.53, 0.9] {
            let v = 20e-6;
            let b = busy_period_mean(v, rho);
            assert!((rho_from_periods(b, v) - rho).abs() < 1e-12, "rho {rho}");
        }
    }

    #[test]
    fn cdf_boundaries() {
        assert_eq!(vacation_cdf_high_load(-1.0, TS, TL, 3), 0.0);
        assert_eq!(vacation_cdf_high_load(TS, TS, TL, 3), 1.0);
        assert_eq!(vacation_cdf_low_load(TS, TS, 3), 1.0);
        let mid = vacation_cdf_high_load(TS / 2.0, TS, TL, 3);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = TS * i as f64 / 100.0;
            let c = vacation_cdf_high_load(x, TS, TL, 5);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn mean_high_load_monte_carlo() {
        // V = min(TS, U_1, ..., U_{M-1}) with U_j ~ Uniform(0, TL).
        let m = 4;
        let mut rng = Rng::new(11);
        let n = 400_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let mut v: f64 = TS;
            for _ in 0..m - 1 {
                v = v.min(rng.f64() * TL);
            }
            sum += v;
        }
        let mc = sum / n as f64;
        let analytic = vacation_mean_high_load(TS, TL, m);
        assert!(
            (mc - analytic).abs() / analytic < 0.01,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn backup_success_monte_carlo() {
        // A backup wins if its uniform wake lands before TS *and* before
        // all other backups; by symmetry each backup has the same chance.
        let m = 4;
        let mut rng = Rng::new(12);
        let n = 400_000;
        let mut wins_first_backup = 0u64;
        for _ in 0..n {
            let wakes: Vec<f64> = (0..m - 1).map(|_| rng.f64() * TL).collect();
            let min = wakes.iter().cloned().fold(f64::INFINITY, f64::min);
            if min < TS && wakes[0] == min {
                wins_first_backup += 1;
            }
        }
        let mc = wins_first_backup as f64 / n as f64;
        let analytic = backup_success_prob(TS, TL, m);
        assert!(
            (mc - analytic).abs() / analytic < 0.05,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn pdf_integrates_to_one() {
        // eq. (9) over [0, TL] must integrate to 1.
        for m in [2usize, 3, 5] {
            let steps = 100_000;
            let dx = TL / steps as f64;
            let integral: f64 = (0..steps)
                .map(|i| vacation_pdf_equal_timeouts((i as f64 + 0.5) * dx, TL, m) * dx)
                .sum();
            assert!((integral - 1.0).abs() < 1e-3, "m={m}: {integral}");
        }
    }

    #[test]
    fn general_mean_limits_match_extremes() {
        let m = 3;
        // p → 1 (all primary, low load): TS/M.
        let low = vacation_mean_general(TS, TL, m, 1.0);
        assert!((low - TS / m as f64).abs() < 1e-12, "{low}");
        // p → 0 (one primary, high load): eq. (6).
        let high = vacation_mean_general(TS, TL, m, 0.0);
        let eq6 = vacation_mean_high_load(TS, TL, m);
        assert!((high - eq6).abs() / eq6 < 1e-12, "{high} vs {eq6}");
    }

    #[test]
    fn approx_close_to_exact_when_tl_large() {
        for p in [0.1, 0.5, 0.9] {
            let exact = vacation_mean_general(TS, 100.0 * TS, 3, p);
            let approx = vacation_mean_approx(TS, 3, p);
            assert!(
                (exact - approx).abs() / exact < 0.02,
                "p={p}: exact {exact} approx {approx}"
            );
        }
    }

    #[test]
    fn general_mean_monte_carlo() {
        // §IV-C model: the conditioning thread (just released the queue)
        // wakes after exactly TS; each of the remaining M−1 threads is
        // independently primary with probability p (wake ~ U(0,TS)) or
        // backup (wake ~ U(0,TL)). V is the minimum of all of them.
        let (m, p) = (4usize, 0.37);
        let mut rng = Rng::new(13);
        let n = 400_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let mut v: f64 = TS;
            for _ in 0..m - 1 {
                let t = if rng.f64() < p {
                    rng.f64() * TS
                } else {
                    rng.f64() * TL
                };
                v = v.min(t);
            }
            sum += v;
        }
        let mc = sum / n as f64;
        let analytic = vacation_mean_general(TS, TL, m, p);
        assert!(
            (mc - analytic).abs() / analytic < 0.02,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn ts_rule_limits() {
        let v = 10e-6;
        // ρ → 1: TS = V̄.
        assert!((ts_rule(3, 1.0, v) - v).abs() < 1e-15);
        // ρ → 0: TS = M·V̄.
        assert!((ts_rule(3, 0.0, v) - 3.0 * v).abs() < 1e-15);
        // Clamps out-of-range estimates.
        assert!((ts_rule(3, 1.7, v) - v).abs() < 1e-15);
        assert!((ts_rule(3, -0.2, v) - 3.0 * v).abs() < 1e-15);
    }

    #[test]
    fn ts_rule_monotone_decreasing_in_rho() {
        let v = 10e-6;
        let mut prev = f64::INFINITY;
        for i in 0..=50 {
            let rho = i as f64 / 50.0;
            let ts = ts_rule(4, rho, v);
            assert!(ts <= prev + 1e-15, "not monotone at rho={rho}");
            prev = ts;
        }
    }

    #[test]
    fn ts_rule_geometric_identity() {
        // M(1−ρ)/(1−ρ^M) = M/(1+ρ+…+ρ^{M−1}).
        for rho in [0.05, 0.3, 0.65, 0.999] {
            let m = 5;
            let direct = m as f64 * (1.0 - rho) / (1.0 - rho.powi(m as i32));
            let ours = ts_rule(m, rho, 1.0) / 1.0;
            assert!(
                (direct - ours).abs() < 1e-9,
                "rho {rho}: {direct} vs {ours}"
            );
        }
    }

    #[test]
    fn ts_rule_inverts_vacation_mean() {
        // Setting TS by eq. (13) must yield E[V] = V̄ under eq. (10) with
        // p = 1−ρ — the self-consistency at the heart of the adaptation.
        let v_target = 10e-6;
        for rho in [0.1, 0.5, 0.9] {
            let m = 3;
            let ts = ts_rule(m, rho, v_target);
            let ev = vacation_mean_approx(ts, m, 1.0 - rho);
            assert!(
                (ev - v_target).abs() / v_target < 1e-9,
                "rho {rho}: E[V] {ev}"
            );
        }
    }

    #[test]
    fn multiqueue_reduces_to_single_queue() {
        for rho in [0.2, 0.7] {
            let a = ts_rule_multiqueue(3, 1, rho, 10e-6);
            let b = ts_rule(3, rho, 10e-6);
            assert!((a - b).abs() / b < 1e-9);
        }
    }

    #[test]
    fn multiqueue_whole_ratios_match_the_powf_form() {
        // Eq. (14) as written, limits included: what every ratio went
        // through before whole ones took eq. (13)'s geometric sum.
        fn powf_form(m_eff: f64, rho: f64, v: f64) -> f64 {
            if (1.0 - rho).abs() < 1e-9 {
                v
            } else if rho < 1e-12 {
                m_eff * v
            } else {
                m_eff * (1.0 - rho) / (1.0 - rho.powf(m_eff)) * v
            }
        }
        let v = 15e-6;
        let grid = [0.0, 1e-13, 1e-6, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-10, 1.0];
        for ratio in 1..=4usize {
            for n in [1usize, 3, 16] {
                for rho in grid {
                    let got = ts_rule_multiqueue(ratio * n, n, rho, v);
                    let want = powf_form(ratio as f64, rho, v);
                    assert!(
                        (got - want).abs() <= 1e-9 * want,
                        "M/N {ratio}, rho {rho}: {got} vs {want}"
                    );
                    if ratio == 1 {
                        assert_eq!(got, v, "one thread per queue is V̄ exactly (rho {rho})");
                        assert_eq!(want, v, "and the powf form agreed, bit for bit");
                    }
                }
            }
        }
    }

    #[test]
    fn multiqueue_fractional_threads_per_queue() {
        // M=5, N=4: M/N = 1.25 threads per queue on average.
        let ts = ts_rule_multiqueue(5, 4, 0.5, 15e-6);
        let m_eff: f64 = 1.25;
        let expect = m_eff * 0.5 / (1.0 - 0.5f64.powf(m_eff)) * 15e-6;
        assert!((ts - expect).abs() < 1e-12);
    }

    #[test]
    fn multiqueue_limits() {
        assert!((ts_rule_multiqueue(6, 3, 1.0, 10e-6) - 10e-6).abs() < 1e-15);
        assert!((ts_rule_multiqueue(6, 3, 0.0, 10e-6) - 20e-6).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "M ≥ N")]
    fn multiqueue_requires_threads_for_queues() {
        ts_rule_multiqueue(2, 3, 0.5, 10e-6);
    }
}
