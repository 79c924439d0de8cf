//! The four fixed workloads. Names are part of the benchmark's contract
//! (`BENCHMARK.json`, later issues); each is one [`Scenario`] of the real
//! realtime runner, built from the seed and the run length alone.
//!
//! All are open loop (`PacedArrivals` emits the schedule regardless of
//! progress), 64 B frames over the runner's 256 routable flows, with the
//! generator inline on the calling thread (`gen_shards = 1`). Thread
//! workloads use M = 1 and the async one a single shard: `PreciseSleeper`
//! spins every sleep of 120 µs or less, so each Metronome thread and the
//! generator occupy a core apiece, and on this 2-core host a third busy
//! thread turned the generator's own lateness from ~1.5 µs into ~500 µs
//! (README, "The M = 1 rule").

use metronome_core::{ExecBackend, MetronomeConfig};
use metronome_runtime::{AppProfile, Scenario, SystemKind, TrafficSpec};
use metronome_sim::Nanos;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["low_l3fwd", "high_l3fwd", "mq16_async", "ramp_ipsec"];

/// Up-steps of the `ramp_ipsec` staircase. It climbs to its peak in this
/// many steps and comes down in one fewer (the step after those has rate
/// 0), and the step length is the run length over that count, so the
/// staircase always fills the run exactly.
const RAMP_STEPS: usize = 5;

/// Steps of the staircase that offer traffic.
const RAMP_LIVE_STEPS: usize = 2 * RAMP_STEPS - 1;

/// Peak of the staircase. ESP costs ~9.5 µs a packet here, so this is load
/// 0.57: the seconds in which this host runs a quarter slower still leave
/// the peak well short of overload, where latency stops being
/// proportional to anything. (At 80 kpps they did not.)
const RAMP_PEAK_PPS: f64 = 60e3;

/// The scenario of workload `name` for `seed`, lasting `duration`; an
/// unknown name is the error.
pub fn scenario(name: &str, seed: u64, duration: Nanos) -> Result<Scenario, String> {
    let single = || MetronomeConfig {
        m_threads: 1,
        ..MetronomeConfig::default()
    };
    let sc = match name {
        // Poisson, not CBR: `CbrPps(20e3)` arrives as 32-frame trains
        // 1.6 ms apart, so the generator sleeps through the OS between
        // them, and how fast the host wakes an idle vCPU (and how cold its
        // caches are by then) moved this workload's median latency
        // between 6 and 13 µs for minutes at a time. Single arrivals 50 µs
        // apart keep the generator spinning like every other workload's.
        "low_l3fwd" => {
            Scenario::metronome(name, single(), TrafficSpec::PoissonPps(20e3)).with_ring(4096)
        }
        // 4096 is the largest ring the NIC model allows: 4 ms at 1 Mpps,
        // so a longer host stall shows as ring drops here (and is set
        // aside, see `run::Steady::loss`).
        "high_l3fwd" => {
            Scenario::metronome(name, single(), TrafficSpec::CbrPps(1e6)).with_ring(4096)
        }
        "mq16_async" => Scenario::metronome(
            name,
            MetronomeConfig::multiqueue(16, 16),
            TrafficSpec::PoissonPps(1e6),
        )
        .with_async_backend(1)
        .with_ring(1024),
        "ramp_ipsec" => Scenario::metronome(
            name,
            single(),
            TrafficSpec::RampUpDown {
                peak_pps: RAMP_PEAK_PPS,
                n_steps: RAMP_STEPS,
                step: Nanos(duration.as_nanos() / RAMP_LIVE_STEPS as u64),
            },
        )
        .with_app(AppProfile::ipsec())
        .with_ring(4096),
        _ => {
            return Err(format!(
                "unknown workload '{name}' (known: {})",
                NAMES.join(", ")
            ))
        }
    };
    Ok(sc.with_seed(seed).with_duration(duration))
}

/// The scenario's Metronome configuration (every workload runs the
/// Metronome discipline).
pub fn config(sc: &Scenario) -> &MetronomeConfig {
    match &sc.system {
        SystemKind::Metronome(cfg) => cfg,
        other => unreachable!("benchmark workloads are Metronome scenarios, got {other:?}"),
    }
}

/// The scenario's phases of constant offered load, as `(start, end)`: the
/// live steps of a staircase, and otherwise the whole run. Windowed
/// metrics take a level from each ([`crate::run::Steady`]).
pub fn phases(sc: &Scenario) -> Vec<(Nanos, Nanos)> {
    match sc.traffic {
        TrafficSpec::RampUpDown { n_steps, step, .. } => (0..2 * n_steps as u64 - 1)
            .map(|i| (step.scaled(i), step.scaled(i + 1)))
            .collect(),
        _ => vec![(Nanos::ZERO, sc.duration)],
    }
}

/// Threads that spin while the workload runs: the retrieval workers (OS
/// threads, or executor shards on the async backend) plus the inline
/// generator. More of these than cores means the run measures the host
/// scheduler.
pub fn busy_threads(sc: &Scenario) -> usize {
    let workers = match sc.exec {
        ExecBackend::Threads => config(sc).m_threads,
        ExecBackend::Async { shards } => shards,
    };
    workers + sc.gen_shards
}

/// Packets the scenario's schedule holds — the count an open-loop
/// generator must offer, whatever the system under test does. Drained from
/// a fresh copy of the arrival process, exactly as `PacedArrivals` cuts it
/// (`t < duration`).
pub fn scheduled_packets(sc: &Scenario) -> u64 {
    let cut = sc.duration.saturating_sub(Nanos(1));
    sc.traffic
        .build(sc.gen_shards, &sc.nic, sc.seed)
        .iter_mut()
        .map(|source| source.drain(cut, None))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_the_live_steps_of_the_staircase_or_the_whole_run() {
        let duration = Nanos::from_secs(9);
        let ramp = scenario("ramp_ipsec", 1, duration).unwrap();
        let steps = phases(&ramp);
        assert_eq!(steps.len(), RAMP_LIVE_STEPS);
        assert_eq!(steps[0], (Nanos::ZERO, Nanos::from_secs(1)));
        assert_eq!(steps[RAMP_LIVE_STEPS - 1].1, duration);
        // Traffic is offered in every one of them, and none after.
        for (start, _) in &steps {
            assert!(ramp.traffic.nominal_pps(*start) > 0.0);
        }
        assert_eq!(ramp.traffic.nominal_pps(duration), 0.0);

        let flat = scenario("high_l3fwd", 1, duration).unwrap();
        assert_eq!(phases(&flat), [(Nanos::ZERO, duration)]);
    }
}
