//! The adaptive controller: per-queue load estimation and `TS` setting.
//!
//! Paper §IV-D: each renewal cycle yields an observation `B(i)/(V(i)+B(i))`
//! that feeds the EWMA of eq. (11); the smoothed `ρ` then drives the `TS`
//! rule of eq. (13) (or eq. (14) per queue in the multiqueue case). The
//! controller also exposes the derived offered-rate estimate `λ̂ = ρ̂·µ`
//! that Fig. 9a plots against the true MoonGen rate.

use crate::config::MetronomeConfig;
use crate::model;
use metronome_sim::stats::Ewma;
use metronome_sim::Nanos;

/// Per-queue adaptation state plus run statistics.
#[derive(Clone, Debug, Default)]
pub struct QueueState {
    /// Smoothed load estimate; meaningful once `cycles > 0`.
    pub(crate) rho: f64,
    /// Successful trylock acquisitions on this queue.
    pub total_tries: u64,
    /// Failed trylock attempts ("busy tries", Figs. 6/7/14, Table III).
    pub busy_tries: u64,
    /// Completed renewal cycles.
    pub cycles: u64,
    /// Sum of vacation durations (for reporting mean V).
    pub vacation_sum: Nanos,
    /// Sum of busy durations.
    pub busy_sum: Nanos,
}

impl QueueState {
    /// One step of eq. (11): the load estimate after a renewal cycle of
    /// `vacation` then `busy`, from the estimate before it — `None` before
    /// the first cycle, whose observation initializes the average
    /// directly. The one place the estimator's arithmetic lives: the
    /// `&mut` controller below and the realtime backend's per-queue words
    /// (`crate::realtime`) both step through it.
    pub fn rho_step(alpha: f64, prev: Option<f64>, vacation: Nanos, busy: Nanos) -> f64 {
        let mut rho = Ewma::new(alpha);
        if let Some(prev) = prev {
            rho.update(prev);
        }
        rho.update(model::rho_from_periods(
            busy.as_secs_f64(),
            vacation.as_secs_f64(),
        ))
    }

    /// Smoothed load estimate (0 before any observation).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Mean observed vacation period.
    pub fn mean_vacation(&self) -> Option<Nanos> {
        (self.cycles > 0).then(|| self.vacation_sum / self.cycles)
    }

    /// Mean observed busy period.
    pub fn mean_busy(&self) -> Option<Nanos> {
        (self.cycles > 0).then(|| self.busy_sum / self.cycles)
    }

    /// Fraction of trylock attempts that failed.
    pub fn busy_try_fraction(&self) -> f64 {
        let all = self.total_tries + self.busy_tries;
        if all == 0 {
            0.0
        } else {
            self.busy_tries as f64 / all as f64
        }
    }
}

/// The per-port adaptive controller shared by all Metronome threads.
#[derive(Clone, Debug)]
pub struct AdaptiveController {
    cfg: MetronomeConfig,
    queues: Vec<QueueState>,
}

impl AdaptiveController {
    /// Controller for the configured number of queues.
    pub fn new(cfg: MetronomeConfig) -> Self {
        let queues = vec![QueueState::default(); cfg.n_queues];
        AdaptiveController { cfg, queues }
    }

    /// A controller holding the given per-queue states: how the realtime
    /// backend hands its per-queue words out as a snapshot.
    pub(crate) fn from_queues(cfg: MetronomeConfig, queues: Vec<QueueState>) -> Self {
        debug_assert_eq!(queues.len(), cfg.n_queues);
        AdaptiveController { cfg, queues }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MetronomeConfig {
        &self.cfg
    }

    /// Record a completed renewal cycle on `queue`: the vacation that
    /// preceded the busy period and the busy period itself (eq. (11)).
    pub fn record_cycle(&mut self, queue: usize, vacation: Nanos, busy: Nanos) {
        let q = &mut self.queues[queue];
        let prev = (q.cycles > 0).then_some(q.rho);
        q.rho = QueueState::rho_step(self.cfg.alpha, prev, vacation, busy);
        q.cycles += 1;
        q.vacation_sum += vacation;
        q.busy_sum += busy;
    }

    /// Record a successful trylock acquisition.
    pub fn record_acquired(&mut self, queue: usize) {
        self.queues[queue].total_tries += 1;
    }

    /// Record a failed trylock attempt (busy try).
    pub fn record_busy_try(&mut self, queue: usize) {
        self.queues[queue].busy_tries += 1;
    }

    /// Current `TS` for `queue`: [`AdaptiveController::ts_for`] its
    /// smoothed load.
    pub fn ts(&self, queue: usize) -> Nanos {
        Self::ts_for(&self.cfg, self.queues[queue].rho())
    }

    /// `TS` under `cfg` for a queue whose smoothed load is `rho` (eq. (13),
    /// or eq. (14) when `n_queues > 1`). A configured `fixed_ts`
    /// short-circuits the adaptive rule.
    pub fn ts_for(cfg: &MetronomeConfig, rho: f64) -> Nanos {
        if let Some(fixed) = cfg.fixed_ts {
            return fixed;
        }
        let v = cfg.v_target.as_secs_f64();
        let ts = if cfg.n_queues == 1 {
            model::ts_rule(cfg.m_threads, rho, v)
        } else {
            model::ts_rule_multiqueue(cfg.m_threads, cfg.n_queues, rho, v)
        };
        Nanos::from_secs_f64(ts)
    }

    /// The long backup timeout (fixed; §IV-E "the TL value remains fixed").
    pub fn tl(&self) -> Nanos {
        self.cfg.t_long
    }

    /// Smoothed load of a queue.
    pub fn rho(&self, queue: usize) -> f64 {
        self.queues[queue].rho()
    }

    /// Offered-rate estimate for a queue: `λ̂ = ρ̂·µ` (Fig. 9a), where `µ`
    /// is the configured drain rate in packets/second.
    pub fn estimated_rate_pps(&self, queue: usize, mu_pps: f64) -> f64 {
        self.rho(queue) * mu_pps
    }

    /// Immutable view of a queue's statistics.
    pub fn queue(&self, queue: usize) -> &QueueState {
        &self.queues[queue]
    }

    /// Number of queues under control.
    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    /// Aggregate busy-try fraction across queues.
    pub fn busy_try_fraction(&self) -> f64 {
        let (mut busy, mut all) = (0u64, 0u64);
        for q in &self.queues {
            busy += q.busy_tries;
            all += q.busy_tries + q.total_tries;
        }
        if all == 0 {
            0.0
        } else {
            busy as f64 / all as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetronomeConfig;

    fn cfg(m: usize, n: usize) -> MetronomeConfig {
        MetronomeConfig {
            m_threads: m,
            n_queues: n,
            ..MetronomeConfig::default()
        }
    }

    #[test]
    fn ts_starts_at_low_load_value() {
        // No observations → ρ = 0 → TS = M·V̄.
        let c = AdaptiveController::new(cfg(3, 1));
        let expect = c.config().v_target.scaled(3);
        assert_eq!(c.ts(0), expect);
    }

    #[test]
    fn ts_shrinks_under_load() {
        let mut c = AdaptiveController::new(cfg(3, 1));
        let before = c.ts(0);
        // Heavy load: busy periods as long as vacations (ρ ≈ 0.5).
        for _ in 0..200 {
            c.record_cycle(0, Nanos::from_micros(20), Nanos::from_micros(20));
        }
        let after = c.ts(0);
        assert!(after < before, "{after} !< {before}");
        assert!((c.rho(0) - 0.5).abs() < 0.01, "rho {}", c.rho(0));
        // TS = 3(1-0.5)/(1-0.125)·V̄ = 12/7·V̄ ≈ 1.714·V̄.
        let expect = c.config().v_target.scaled_f64(12.0 / 7.0);
        let err =
            (after.as_nanos() as f64 - expect.as_nanos() as f64).abs() / expect.as_nanos() as f64;
        assert!(err < 0.02, "{after} vs {expect}");
    }

    #[test]
    fn ewma_tracks_load_changes() {
        let mut c = AdaptiveController::new(cfg(3, 1));
        for _ in 0..300 {
            c.record_cycle(0, Nanos::from_micros(10), Nanos::from_micros(90));
        }
        assert!((c.rho(0) - 0.9).abs() < 0.01);
        // Load drops; estimate must follow.
        for _ in 0..300 {
            c.record_cycle(0, Nanos::from_micros(90), Nanos::from_micros(10));
        }
        assert!((c.rho(0) - 0.1).abs() < 0.01);
    }

    #[test]
    fn per_queue_independence() {
        let mut c = AdaptiveController::new(cfg(6, 3));
        for _ in 0..100 {
            c.record_cycle(0, Nanos::from_micros(10), Nanos::from_micros(30)); // hot
            c.record_cycle(1, Nanos::from_micros(30), Nanos::from_micros(10)); // cold
        }
        assert!(c.rho(0) > 0.7);
        assert!(c.rho(1) < 0.3);
        assert_eq!(c.rho(2), 0.0);
        // Hot queue gets a shorter TS.
        assert!(c.ts(0) < c.ts(1));
    }

    #[test]
    fn rate_estimate_scales_with_mu() {
        let mut c = AdaptiveController::new(cfg(3, 1));
        for _ in 0..200 {
            c.record_cycle(0, Nanos::from_micros(10), Nanos::from_micros(10));
        }
        let est = c.estimated_rate_pps(0, 28e6);
        assert!((est - 14e6).abs() / 14e6 < 0.02, "estimate {est}");
    }

    #[test]
    fn busy_try_accounting() {
        let mut c = AdaptiveController::new(cfg(3, 2));
        c.record_acquired(0);
        c.record_acquired(0);
        c.record_busy_try(0);
        c.record_busy_try(1);
        assert!((c.queue(0).busy_try_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.queue(1).busy_try_fraction(), 1.0);
        assert!((c.busy_try_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_periods_reported() {
        let mut c = AdaptiveController::new(cfg(3, 1));
        assert_eq!(c.queue(0).mean_vacation(), None);
        c.record_cycle(0, Nanos::from_micros(10), Nanos::from_micros(30));
        c.record_cycle(0, Nanos::from_micros(20), Nanos::from_micros(10));
        assert_eq!(c.queue(0).mean_vacation(), Some(Nanos::from_micros(15)));
        assert_eq!(c.queue(0).mean_busy(), Some(Nanos::from_micros(20)));
    }

    #[test]
    fn multiqueue_ts_uses_eq14() {
        let mut c = AdaptiveController::new(cfg(6, 3));
        for _ in 0..300 {
            c.record_cycle(0, Nanos::from_micros(10), Nanos::from_micros(10));
        }
        let rho = c.rho(0);
        let expect = crate::model::ts_rule_multiqueue(6, 3, rho, c.config().v_target.as_secs_f64());
        let got = c.ts(0).as_secs_f64();
        // `ts()` rounds to integer nanoseconds, so compare at that grain.
        assert!((got - expect).abs() < 2e-9, "{got} vs {expect}");
    }
}
