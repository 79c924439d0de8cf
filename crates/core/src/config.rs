//! Metronome configuration knobs.

use metronome_sim::Nanos;

/// Tunables of the Metronome architecture (paper §V defaults unless noted).
#[derive(Clone, Debug)]
pub struct MetronomeConfig {
    /// Number of packet-retrieval threads `M` (paper default 3 for the
    /// single-queue evaluation, 5 for the 4-queue XL710 sweep).
    pub m_threads: usize,
    /// Number of Rx queues `N` (`M ≥ N`).
    pub n_queues: usize,
    /// Target mean vacation period `V̄` (10 µs single-queue, 15 µs
    /// multiqueue in the paper).
    pub v_target: Nanos,
    /// Long (backup) timeout `TL` — fixed at 500 µs in the evaluation:
    /// "(i) it is 50 times bigger than the maximum TS possible value ...
    /// (ii) most of the advantage of increasing TL happens before 500 µs".
    pub t_long: Nanos,
    /// EWMA smoothing factor `α` of the load estimator (eq. (11)).
    pub alpha: f64,
    /// Rx burst size (DPDK convention: 32).
    pub burst: u32,
    /// Pin `TS` to a fixed value instead of the adaptive rule — used by
    /// the model-validation experiment (paper Fig. 4 sets TS = TL = 50 µs)
    /// and the fixed-vs-adaptive ablation.
    pub fixed_ts: Option<Nanos>,
}

impl Default for MetronomeConfig {
    fn default() -> Self {
        MetronomeConfig {
            m_threads: 3,
            n_queues: 1,
            v_target: Nanos::from_micros(10),
            t_long: Nanos::from_micros(500),
            alpha: 0.125,
            burst: 32,
            fixed_ts: None,
        }
    }
}

impl MetronomeConfig {
    /// Paper §V-F multiqueue defaults: `V̄ = 15 µs`, `N` queues, `M`
    /// threads.
    pub fn multiqueue(m_threads: usize, n_queues: usize) -> Self {
        MetronomeConfig {
            m_threads,
            n_queues,
            v_target: Nanos::from_micros(15),
            ..Default::default()
        }
    }

    /// Validate invariants; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.m_threads < 1 {
            return Err("need at least one thread".into());
        }
        if self.n_queues < 1 {
            return Err("need at least one queue".into());
        }
        if self.m_threads < self.n_queues {
            return Err(format!(
                "M ({}) must be at least N ({}) so every queue can have a primary (§IV-E)",
                self.m_threads, self.n_queues
            ));
        }
        if self.v_target.is_zero() {
            return Err("zero target vacation".into());
        }
        if self.t_long < self.v_target {
            return Err("TL must exceed the vacation target".into());
        }
        if !(0.0..=1.0).contains(&self.alpha) || self.alpha == 0.0 {
            return Err("alpha must be in (0, 1]".into());
        }
        if self.burst == 0 {
            return Err("burst size must be positive".into());
        }
        if let Some(ts) = self.fixed_ts {
            if ts.is_zero() || ts > self.t_long {
                return Err("fixed TS must be in (0, TL]".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = MetronomeConfig::default();
        c.validate().unwrap();
        assert_eq!(c.m_threads, 3);
        assert_eq!(c.v_target, Nanos::from_micros(10));
        assert_eq!(c.t_long, Nanos::from_micros(500));
    }

    #[test]
    fn multiqueue_preset() {
        let c = MetronomeConfig::multiqueue(5, 4);
        c.validate().unwrap();
        assert_eq!(c.v_target, Nanos::from_micros(15));
        assert_eq!(c.n_queues, 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = MetronomeConfig {
            m_threads: 0,
            ..MetronomeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = MetronomeConfig {
            n_queues: 5, // M=3 < N=5
            ..MetronomeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = MetronomeConfig {
            t_long: Nanos::from_micros(5),
            ..MetronomeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = MetronomeConfig {
            alpha: 0.0,
            ..MetronomeConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
