//! Package power accounting (RAPL-style).
//!
//! The paper reads energy through Intel RAPL (§V, \[40\]) and reports package
//! watts for the governor comparisons (Fig. 11), the multiqueue grids
//! (Fig. 13) and the rate sweep (Fig. 15). This meter integrates a simple
//! but physically-shaped model:
//!
//! * running core at frequency `f`: `active_max · (f/f_max)^exp` watts —
//!   the f·V² dynamic-power curve;
//! * idle core: C1 power for the first `c6_entry` of an idle interval,
//!   C6 power afterwards — busy-wait polling never idles and therefore
//!   never touches a C-state, which is exactly why static DPDK burns the
//!   most power at zero traffic;
//! * each wake transition costs fixed energy.
//!
//! Everything is integrated exactly (piecewise-constant), so total energy
//! is deterministic.

use crate::config::PowerConfig;
use metronome_sim::Nanos;

/// Per-run energy integrator for one package.
#[derive(Clone, Debug)]
pub struct PowerMeter {
    cfg: PowerConfig,
    max_mhz: u32,
    core_energy: Vec<f64>,
    wake_count: Vec<u64>,
}

impl PowerMeter {
    /// Meter for `n_cores` cores with the given model and maximum frequency.
    pub fn new(cfg: PowerConfig, n_cores: usize, max_mhz: u32) -> Self {
        PowerMeter {
            cfg,
            max_mhz,
            core_energy: vec![0.0; n_cores],
            wake_count: vec![0; n_cores],
        }
    }

    /// Instantaneous active power at `freq_mhz`, watts.
    pub fn active_watts(&self, freq_mhz: u32) -> f64 {
        let ratio = freq_mhz as f64 / self.max_mhz as f64;
        self.cfg.core_active_max_watts * ratio.powf(self.cfg.freq_exponent)
    }

    /// Charge an active (running) interval on a core.
    pub fn charge_active(&mut self, core: usize, dur: Nanos, freq_mhz: u32) {
        self.core_energy[core] += self.active_watts(freq_mhz) * dur.as_secs_f64();
    }

    /// Charge an idle interval on a core (C1 then C6 after the entry delay).
    ///
    /// C1 leakage rides the core's current voltage/frequency plane, so a
    /// downclocked core idles cheaper — part of the ondemand governor's
    /// advantage for sleep&wake workloads (Fig. 11a). C6 power gates the
    /// core entirely and is frequency-independent.
    pub fn charge_idle(&mut self, core: usize, dur: Nanos, freq_mhz: u32) {
        let c1_span = dur.min(self.cfg.c6_entry);
        let c6_span = dur.saturating_sub(self.cfg.c6_entry);
        let ratio = (freq_mhz as f64 / self.max_mhz as f64).powf(1.2);
        self.core_energy[core] += self.cfg.c1_watts * ratio * c1_span.as_secs_f64()
            + self.cfg.c6_watts * c6_span.as_secs_f64();
    }

    /// Charge one sleep→run transition.
    pub fn charge_wake(&mut self, core: usize) {
        self.core_energy[core] += self.cfg.wake_energy_joules;
        self.wake_count[core] += 1;
    }

    /// Total package energy over `elapsed` of wall time, joules
    /// (cores + uncore floor).
    pub fn package_energy(&self, elapsed: Nanos) -> f64 {
        let cores: f64 = self.core_energy.iter().sum();
        cores + self.cfg.uncore_watts * elapsed.as_secs_f64()
    }

    /// Average package power over `elapsed`, watts.
    pub fn package_watts(&self, elapsed: Nanos) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.package_energy(elapsed) / elapsed.as_secs_f64()
    }

    /// Wake transitions per core.
    pub fn wakes(&self, core: usize) -> u64 {
        self.wake_count[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PowerConfig;

    fn meter() -> PowerMeter {
        PowerMeter::new(PowerConfig::default(), 2, 2100)
    }

    #[test]
    fn active_power_scales_with_frequency() {
        let m = meter();
        let full = m.active_watts(2100);
        let half = m.active_watts(1050);
        assert!((full - PowerConfig::default().core_active_max_watts).abs() < 1e-9);
        // (1/2)^2.4 ≈ 0.19
        assert!((half / full - 0.5f64.powf(2.4)).abs() < 1e-9);
    }

    #[test]
    fn busy_core_beats_idle_core() {
        let mut m = meter();
        let dur = Nanos::from_secs(1);
        m.charge_active(0, dur, 2100);
        m.charge_idle(1, dur, 2100);
        assert!(m.core_energy[0] > 3.0 * m.core_energy[1]);
    }

    #[test]
    fn long_idle_reaches_c6() {
        let mut m = meter();
        // A 1 s idle interval: 200 µs at C1, rest at C6.
        m.charge_idle(0, Nanos::from_secs(1), 2100);
        let e = m.core_energy[0];
        let cfg = PowerConfig::default();
        let expected = cfg.c1_watts * 200e-6 + cfg.c6_watts * (1.0 - 200e-6);
        assert!((e - expected).abs() < 1e-9, "{e} vs {expected}");
        // Many short idles never reach C6 and burn more in total.
        let mut m2 = meter();
        for _ in 0..10_000 {
            m2.charge_idle(0, Nanos::from_micros(100), 2100);
        }
        assert!(m2.core_energy[0] > e);
    }

    #[test]
    fn package_includes_uncore_floor() {
        let m = meter();
        let watts = m.package_watts(Nanos::from_secs(10));
        assert!((watts - PowerConfig::default().uncore_watts).abs() < 1e-9);
    }

    #[test]
    fn wake_energy_counted() {
        let mut m = meter();
        for _ in 0..1000 {
            m.charge_wake(0);
        }
        assert_eq!(m.wakes(0), 1000);
        assert!((m.core_energy[0] - 1000.0 * 1.0e-6).abs() < 1e-12);
    }

    #[test]
    fn downclocked_c1_is_cheaper() {
        let mut hi = meter();
        let mut lo = meter();
        hi.charge_idle(0, Nanos::from_micros(100), 2100);
        lo.charge_idle(0, Nanos::from_micros(100), 800);
        assert!(lo.core_energy[0] < 0.5 * hi.core_energy[0]);
    }

    #[test]
    fn zero_elapsed_power_is_zero() {
        assert_eq!(meter().package_watts(Nanos::ZERO), 0.0);
    }

    #[test]
    fn busy_poll_vs_sleep_wake_shape() {
        // The Fig. 11 intuition: at zero traffic a busy-polling core burns
        // full active power, a sleep&wake core mostly C-state power.
        let mut poll = meter();
        poll.charge_active(0, Nanos::from_secs(1), 2100);
        let mut snw = meter();
        // 20% active, 80% idle in 30 µs chunks + wakes (per-30µs cycle).
        for _ in 0..10_000 {
            snw.charge_active(0, Nanos::from_micros(20), 2100);
            snw.charge_idle(0, Nanos::from_micros(80), 2100);
            snw.charge_wake(0);
        }
        let p_poll = poll.package_watts(Nanos::from_secs(1));
        let p_snw = snw.package_watts(Nanos::from_secs(1));
        assert!(p_snw < p_poll, "sleep&wake {p_snw} >= polling {p_poll}");
    }
}
