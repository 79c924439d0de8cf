//! One call into the real runner, timed from outside, and the checks
//! every such call must pass.

use crate::procfs;
use crate::workload;
use metronome_runtime::realtime_runner::{default_processor, ProcessorFactory};
use metronome_runtime::{try_run_realtime_with, RunReport, Scenario};
use metronome_sim::stats::{quantile_sorted, Histogram};
use metronome_sim::Nanos;
use metronome_telemetry::{TimeSeries, Window};
use std::time::Instant;

/// Set-up and tear-down allowance of the overrun check below: pool,
/// templates, spawn, drain, join. Seen: 0.001–0.015 s.
const SETUP_ALLOWANCE_S: f64 = 0.25;

/// Failed output checks of one benchmark invocation. Any entry makes the
/// result `correct: false` and the exit code non-zero.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record `what` as a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every failure so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// What one invocation did, for the result line and the host guard.
#[derive(Default)]
pub struct Done {
    /// Packets offered in the steady windows of the invocation's runs
    /// that loss is judged on ([`Steady::loss`]).
    pub attempted: u64,
    /// Packets dropped in them.
    pub failed: u64,
    /// Generator lateness p99 of the untraced run, µs.
    pub gen_late_p99_us: f64,
    /// Generator lateness maximum of the untraced run, µs.
    pub gen_late_max_us: f64,
    /// Lines for the report that are not metrics (sample counts, the
    /// failed and attempted counts behind a share).
    pub notes: Vec<String>,
}

impl Done {
    /// Count the loss of run `leg` into the attempted and failed totals,
    /// and note what was left out of them.
    pub fn tally(&mut self, leg: &str, out: &Outcome, loss: &Loss) {
        self.attempted += loss.offered;
        self.failed += loss.dropped;
        let r = &out.report;
        self.notes.push(format!(
            "{leg}: {} dropped of {} offered in the steady windows; {} more in {} windows \
             left out as host stalls ({} of {} over the whole run: {} ring, {} pool)",
            loss.dropped,
            loss.offered,
            loss.stalled_dropped,
            loss.stalled_windows,
            r.dropped,
            r.offered,
            r.dropped_ring,
            r.dropped_pool
        ));
    }
}

/// A finished runner call with the bench's own measurements around it.
pub struct Outcome {
    /// What the runner reported.
    pub report: RunReport,
    /// Wall time of the whole call by the bench's clock, seconds.
    pub wall_s: f64,
    /// `utime + stime` the process consumed during the call, seconds.
    pub cpu_s: f64,
}

impl Outcome {
    /// Wall time the call took beyond the scenario's own duration.
    pub fn setup_s(&self) -> f64 {
        self.wall_s - self.report.duration.as_secs_f64()
    }

    /// The windowed series (every benchmark scenario requests one).
    pub fn series(&self) -> &TimeSeries {
        self.report
            .timeseries
            .as_ref()
            .expect("benchmark scenarios run with_series")
    }

    /// Summed worker busy time, nanoseconds.
    pub fn busy_ns(&self) -> f64 {
        self.series().totals.busy_nanos as f64
    }

    /// The run's steady part: whole windows that start after `warmup`,
    /// grouped by the phase of constant offered load (`phases`, see
    /// [`workload::phases`]) each lies in. A window that straddles two
    /// phases is left out with the warm-up, and so is whatever follows the
    /// last phase: the drain and the shutdown.
    pub fn steady(&self, warmup: Nanos, phases: &[(Nanos, Nanos)]) -> Steady<'_> {
        let windows = &self.series().windows;
        Steady(
            phases
                .iter()
                .map(|&(start, end)| {
                    let from = start.max(warmup);
                    let to = end.min(self.report.duration);
                    windows
                        .iter()
                        .filter(|w| w.start >= from && w.end <= to)
                        .collect::<Vec<_>>()
                })
                .filter(|phase| !phase.is_empty())
                .collect(),
        )
    }

    /// Largest generator lateness of the whole run, µs.
    pub fn gen_late_max_us(&self) -> f64 {
        let latest = self.series().totals.gen_jitter.as_ref();
        latest.and_then(Histogram::max).unwrap_or(0) as f64 / 1e3
    }
}

/// Share of the steady windows that loss is judged on whatever they
/// dropped; the rest are left out if they dropped anything. See
/// [`Steady::loss`].
const LOSS_KEEP_SHARE: f64 = 0.75;

/// What [`Steady::loss`] found.
#[derive(Default)]
pub struct Loss {
    /// Packets offered in the windows loss is judged on.
    pub offered: u64,
    /// Packets dropped in them.
    pub dropped: u64,
    /// Windows left out as host stalls.
    pub stalled_windows: usize,
    /// Packets dropped in those.
    pub stalled_dropped: u64,
}

/// The windows of a run's steady part, one list per phase of constant
/// offered load.
///
/// Why there is a warm-up to leave out: the runner spawns its worker from
/// the generator's thread, and for the first 0.3–1 s of every run the
/// two share a core (in the guest or on the hypervisor) before they are
/// balanced apart. At 1 Mpps that costs thousands of ring drops and a
/// millisecond of latency, and says nothing about the system.
pub struct Steady<'a>(Vec<Vec<&'a Window>>);

impl Steady<'_> {
    fn windows(&self) -> impl Iterator<Item = &Window> + '_ {
        self.0.iter().flatten().copied()
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows().count()
    }

    /// Whether the run was too short to hold one whole steady window.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A counter summed over the windows.
    pub fn sum(&self, f: impl Fn(&Window) -> u64) -> u64 {
        self.windows().map(f).sum()
    }

    /// Seconds the windows cover.
    pub fn span_s(&self) -> f64 {
        self.sum(|w| w.span().as_nanos()) as f64 / 1e9
    }

    /// The `q`-quantile window of each phase, averaged over the phases.
    /// Within a phase the load is constant, so a quantile of its windows
    /// is a level of the system; across phases the levels differ by
    /// design, and a quantile over a whole staircase would sit on the
    /// edge between two of them. 0 when there is no window.
    fn level(&self, q: f64, f: impl Fn(&Window) -> f64) -> f64 {
        let levels = self.0.iter().map(|phase| {
            let mut values: Vec<f64> = phase.iter().map(|w| f(w)).collect();
            values.sort_by(f64::total_cmp);
            quantile_sorted(&values, q).unwrap_or(0.0)
        });
        levels.sum::<f64>() / self.0.len().max(1) as f64
    }

    /// The typical window's value of `f` (the median window): for what a
    /// host stall moves either way or not at all — rates, gauges.
    pub fn typical(&self, f: impl Fn(&Window) -> f64) -> f64 {
        self.level(0.5, f)
    }

    /// The value of `f` in the windows the host left alone (the
    /// first-decile window): for costs. This guest runs a fifth slower
    /// for a second or two several times a minute, and is stalled for
    /// milliseconds every second (occupancy counts a descheduled worker
    /// as busy). Both only ever add to a cost, so its low windows are the
    /// system's own and its median is partly the host's: over ten runs
    /// the median window of `high_l3fwd`'s duty cycle spread 12 %, the
    /// first-decile window 3 % (README, "Host stalls").
    pub fn quiet(&self, f: impl Fn(&Window) -> f64) -> f64 {
        self.level(0.1, f)
    }

    /// The largest window's value of `f`; 0 when there is no window.
    pub fn max(&self, f: impl Fn(&Window) -> f64) -> f64 {
        self.windows().map(f).fold(0.0, f64::max)
    }

    /// Generator lateness `(p50, p99)`, µs: how far behind its schedule
    /// the open-loop generator offered each packet, as the typical window
    /// saw it.
    pub fn gen_lateness_us(&self) -> (f64, f64) {
        (
            self.typical(|w| w.gen_jitter.map_or(0.0, |l| l.p50_us)),
            self.typical(|w| w.gen_jitter.map_or(0.0, |l| l.p99_us)),
        )
    }

    /// Offered and dropped packets, leaving out the windows that dropped
    /// the most — a quarter of the windows at most.
    ///
    /// This guest is stalled for 3–5 ms about once a second and for
    /// 10–20 ms a few times a minute (README, "Host stalls"). The
    /// generator is open loop: after a stall it offers its whole backlog
    /// at once, so a stall longer than `ring / rate` overflows the ring
    /// whichever thread it hit. Those drops measure the host. A system
    /// that cannot keep up drops in every window, and one that hiccups
    /// periodically in most; only what is confined to a quarter of the
    /// windows is set aside here, and it is still reported.
    pub fn loss(&self) -> Loss {
        let mut windows: Vec<&Window> = self.windows().collect();
        windows.sort_by_key(|w| w.dropped());
        let judged = (windows.len() as f64 * LOSS_KEEP_SHARE).ceil() as usize;
        let mut loss = Loss::default();
        for (rank, w) in windows.iter().enumerate() {
            if rank >= judged && w.dropped() > 0 {
                loss.stalled_windows += 1;
                loss.stalled_dropped += w.dropped();
            } else {
                loss.offered += w.offered;
                loss.dropped += w.dropped();
            }
        }
        loss
    }
}

/// Series window of a leg that lasts 4 s or more: short enough that a
/// host stall spoils a small share of the windows ([`Steady::loss`] can
/// set aside a quarter of them).
pub const WINDOW: Nanos = Nanos::from_millis(100);

/// Series window of a leg lasting `duration`: [`WINDOW`], or a fortieth
/// of a shorter leg, so that `--quick` runs and the shortest staircase
/// step still hold whole windows.
pub fn window_of(duration: Nanos) -> Nanos {
    WINDOW.min(Nanos((duration.as_nanos() / 40).max(1)))
}

/// `sc` as every benchmark leg runs it: latency measured on every packet
/// into the in-path histogram, plus a windowed series (which is what
/// exposes the full histogram and the generator's lateness).
pub fn instrumented(sc: Scenario, window: Nanos) -> Scenario {
    sc.with_latency().with_series(window)
}

/// [`run`] with the scenario's stock processor on every queue.
pub fn run_stock(sc: &Scenario) -> Result<Outcome, String> {
    run(sc, &|_q| default_processor(sc.app.name))
}

/// Run `sc` through `try_run_realtime_with`, with `make_app` building each
/// queue's processor.
pub fn run(sc: &Scenario, make_app: &ProcessorFactory) -> Result<Outcome, String> {
    let cpu0 = procfs::process_cpu_seconds();
    let t0 = Instant::now();
    let report = try_run_realtime_with(sc, make_app).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, procfs::process_cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => return Err("/proc/self/stat is unreadable".into()),
    };
    Ok(Outcome {
        report,
        wall_s,
        cpu_s,
    })
}

/// The checks every runner call must pass, whatever the workload:
/// packets are conserved and attributed, every pool buffer came home, the
/// open-loop generator offered exactly its schedule, and neither it nor
/// the drain overran the run by more than 1 % (so goodput is within 1 %
/// of the schedule whenever nothing was dropped).
pub fn check_outcome(leg: &str, sc: &Scenario, out: &Outcome, checks: &mut Checks) {
    let r = &out.report;
    checks.require(r.offered == r.forwarded + r.dropped, || {
        format!(
            "{leg}: offered {} != forwarded {} + dropped {}",
            r.offered, r.forwarded, r.dropped
        )
    });
    checks.require(
        r.dropped == r.dropped_ring + r.dropped_pool + r.dropped_fault,
        || {
            format!(
                "{leg}: dropped {} != ring {} + pool {} + fault {}",
                r.dropped, r.dropped_ring, r.dropped_pool, r.dropped_fault
            )
        },
    );
    match r.mempool {
        Some(pool) => checks.require(pool.allocs == pool.frees && pool.cached == 0, || {
            format!(
                "{leg}: mempool allocs {} != frees {} (cached {})",
                pool.allocs, pool.frees, pool.cached
            )
        }),
        None => checks.require(false, || format!("{leg}: no mempool report")),
    }
    let scheduled = workload::scheduled_packets(sc);
    checks.require(r.offered == scheduled, || {
        format!(
            "{leg}: offered {} but the schedule holds {scheduled}",
            r.offered
        )
    });
    let limit = sc.duration.as_secs_f64() * 1.01 + SETUP_ALLOWANCE_S;
    checks.require(out.wall_s <= limit, || {
        format!("{leg}: run took {:.3} s, over {limit:.3} s", out.wall_s)
    });
}

/// The `q`-quantile of `h`, interpolated linearly inside the bucket the
/// rank falls in (the histogram's own `quantile` returns the bucket's
/// lower edge, which moves in ~3 % steps). 0 for an empty histogram.
pub fn percentile(h: &Histogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (low, high, count) in h.iter_spans() {
        if (below + count) as f64 >= rank {
            let within = (rank - below as f64) / count as f64;
            let value = low as f64 + within * (high - low) as f64;
            // Recorded extremes are exact; never report outside them.
            let (min, max) = (h.min().unwrap_or(0), h.max().unwrap_or(u64::MAX));
            return value.clamp(min as f64, max as f64);
        }
        below += count;
    }
    h.max().unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_inside_buckets() {
        let mut h = Histogram::latency();
        assert_eq!(percentile(&h, 0.5), 0.0);
        // 1000..2000 ns, one sample per ns: the buckets there are 32 ns
        // wide, yet the interpolated quantiles land within a few ns.
        for v in 1000..2000u64 {
            h.record(v);
        }
        assert!((percentile(&h, 0.5) - 1500.0).abs() < 4.0);
        assert!((percentile(&h, 0.9) - 1900.0).abs() < 4.0);
        assert_eq!(percentile(&h, 0.0), 1000.0);
        assert_eq!(percentile(&h, 1.0), 1999.0);
        // The histogram's own quantile sits on a bucket edge.
        assert_eq!(h.quantile(0.5), Some(1472));
    }

    #[test]
    fn percentile_never_leaves_the_recorded_range() {
        let mut h = Histogram::latency();
        h.record_n(5_000, 10);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&h, q), 5_000.0);
        }
    }

    fn window(offered: u64, dropped: u64, busy_nanos: u64) -> Window {
        Window {
            end: Nanos(100),
            offered,
            dropped_ring: dropped,
            busy_nanos,
            ..Window::default()
        }
    }

    #[test]
    fn levels_are_taken_per_phase() {
        // A staircase of two levels, the upper one with a disturbed
        // window: the median and the first decile of each phase, averaged.
        let low: Vec<Window> = [10, 10, 10].map(|b| window(0, 0, b)).into();
        let high: Vec<Window> = [30, 30, 90].map(|b| window(0, 0, b)).into();
        let steady = Steady(vec![low.iter().collect(), high.iter().collect()]);
        assert_eq!(steady.len(), 6);
        assert!((steady.typical(Window::duty_cycle) - 0.20).abs() < 1e-12);
        assert!((steady.quiet(Window::duty_cycle) - 0.20).abs() < 1e-12);
        assert_eq!(steady.max(Window::duty_cycle), 0.9);
        assert_eq!(Steady(Vec::new()).typical(Window::duty_cycle), 0.0);
    }

    #[test]
    fn loss_sets_aside_at_most_a_quarter_of_the_windows() {
        // Two windows of eight dropped: both are host stalls.
        let mut windows: Vec<Window> = (0..8).map(|_| window(100, 0, 0)).collect();
        windows[2].dropped_ring = 40;
        windows[5].dropped_ring = 7;
        let loss = Steady(vec![windows.iter().collect()]).loss();
        assert_eq!((loss.offered, loss.dropped), (600, 0));
        assert_eq!((loss.stalled_windows, loss.stalled_dropped), (2, 47));

        // Three of eight: the one that dropped the least counts.
        windows[7].dropped_ring = 3;
        let loss = Steady(vec![windows.iter().collect()]).loss();
        assert_eq!((loss.offered, loss.dropped), (600, 3));
        assert_eq!((loss.stalled_windows, loss.stalled_dropped), (2, 47));

        // Drops everywhere are the system's own.
        let all: Vec<Window> = (0..8).map(|_| window(100, 5, 0)).collect();
        let loss = Steady(vec![all.iter().collect()]).loss();
        assert_eq!((loss.offered, loss.dropped), (600, 30));
    }

    #[test]
    fn checks_collect_failures() {
        let mut c = Checks::default();
        c.require(true, || unreachable!());
        c.require(false, || "broken".into());
        assert_eq!(c.failures(), ["broken".to_string()]);
    }
}
