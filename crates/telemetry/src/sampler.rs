//! The windowed sampler: cumulative counter snapshots in, fixed-interval
//! [`Window`]s out.
//!
//! The hot path only ever *increments* counters; everything windowed is
//! derived here, off the hot path, by differencing consecutive
//! [`CounterSnapshot`]s. That split has two consequences the tests rely
//! on:
//!
//! * **Conservation by construction** — window deltas telescope, so the
//!   per-window `retrieved`/`dropped_*` columns sum *exactly* to the final
//!   cumulative counters (the sampler starts from an implicit all-zero
//!   snapshot at `t = 0`).
//! * **Backend symmetry** — the simulation samples at scheduled event
//!   boundaries and the realtime backend from a sampler thread, but both
//!   feed the same [`Sampler`], so a [`TimeSeries`] means the same thing
//!   in either report.
//!
//! Per-window latency percentiles come from differencing the cumulative
//! latency [`Histogram`]: bucket-count deltas are themselves a histogram
//! of just that window's samples.

use metronome_sim::stats::Histogram;
use metronome_sim::Nanos;

/// A cumulative reading of every counter the time series tracks, taken at
/// one instant. Counters (`retrieved`, drops, wake-ups, busy/sleep time)
/// are since-start totals; the rest are instantaneous gauges.
#[derive(Clone, Debug, Default)]
pub struct CounterSnapshot {
    /// When the snapshot was taken (run-relative).
    pub at: Nanos,
    /// Retrieval-discipline label of the counted workers ("" when the
    /// producing hub predates labelling or no workers ran).
    pub discipline: &'static str,
    /// Packets retrieved since start.
    pub retrieved: u64,
    /// Packets offered since start (0 when the backend cannot observe it).
    pub offered: u64,
    /// Ring tail-drops since start.
    pub dropped_ring: u64,
    /// Mempool-exhaustion drops since start.
    pub dropped_pool: u64,
    /// Injected-fault drops since start (packets a fault plan suppressed
    /// before they reached the ring).
    pub dropped_fault: u64,
    /// Worker wake-ups since start.
    pub wakeups: u64,
    /// Total worker awake time since start, nanoseconds.
    pub busy_nanos: u64,
    /// Total worker asleep time since start, nanoseconds.
    pub sleep_nanos: u64,
    /// Total measured oversleep (wake-up lateness) since start,
    /// nanoseconds.
    pub oversleep_nanos: u64,
    /// Per-queue adaptive `TS` gauge, nanoseconds.
    pub ts_ns: Vec<u64>,
    /// Per-queue smoothed load estimate gauge.
    pub rho: Vec<f64>,
    /// Per-queue Rx ring occupancy gauge.
    pub occupancy: Vec<u64>,
    /// Mempool buffers currently handed out (gauge).
    pub pool_in_use: u64,
    /// Mempool buffers parked in per-worker caches (gauge; 0 when the
    /// backend allocates straight from the shared freelist).
    pub pool_cached: u64,
    /// The process's timer slack when the worker set spawned, ns (gauge;
    /// `None` on the simulation backend or where it cannot be read): what
    /// the sleepers' learned wake overshoot sits on.
    pub timer_slack_ns: Option<u64>,
    /// Cumulative package energy, joules (simulation backend only).
    pub energy_joules: f64,
    /// Cumulative latency histogram (nanoseconds), if latency is measured.
    pub latency: Option<Histogram>,
    /// Cumulative wake-to-first-poll latency histogram (nanoseconds),
    /// populated when flight-recorder tracing is enabled.
    pub wake_latency: Option<Histogram>,
    /// Cumulative oversleep histogram (nanoseconds; tracing only). Its
    /// sum reconciles exactly against `oversleep_nanos`.
    pub oversleep_hist: Option<Histogram>,
    /// Cumulative scheduler ready-to-run delay histogram (nanoseconds;
    /// tracing on the async backend only).
    pub sched_delay: Option<Histogram>,
    /// Cumulative generator jitter histogram (nanoseconds): how late each
    /// offered packet was relative to its scheduled departure, summed over
    /// generator shards. The always-on pacing check — present whenever the
    /// wall-clock generator runs.
    pub gen_jitter: Option<Histogram>,
}

impl CounterSnapshot {
    /// An all-zero snapshot at `at`.
    pub fn new(at: Nanos) -> Self {
        CounterSnapshot {
            at,
            ..CounterSnapshot::default()
        }
    }
}

/// Per-window latency percentiles, microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyWindow {
    /// Samples recorded in this window.
    pub count: u64,
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
}

/// One fixed-interval window of the time series: counter deltas over
/// `[start, end)` plus end-of-window gauges.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Window index (0-based).
    pub index: usize,
    /// Window start (run-relative).
    pub start: Nanos,
    /// Window end (run-relative).
    pub end: Nanos,
    /// Packets retrieved in this window.
    pub retrieved: u64,
    /// Packets offered in this window (0 when unobserved).
    pub offered: u64,
    /// Ring tail-drops in this window.
    pub dropped_ring: u64,
    /// Mempool-exhaustion drops in this window.
    pub dropped_pool: u64,
    /// Injected-fault drops in this window.
    pub dropped_fault: u64,
    /// Worker wake-ups in this window.
    pub wakeups: u64,
    /// Worker awake time in this window, nanoseconds (summed over
    /// workers, so it can exceed the window span).
    pub busy_nanos: u64,
    /// Worker asleep time in this window, nanoseconds.
    pub sleep_nanos: u64,
    /// Measured oversleep in this window, nanoseconds.
    pub oversleep_nanos: u64,
    /// Per-queue `TS` at window end, nanoseconds.
    pub ts_ns: Vec<u64>,
    /// Per-queue ρ at window end.
    pub rho: Vec<f64>,
    /// Per-queue ring occupancy at window end.
    pub occupancy: Vec<u64>,
    /// Mempool buffers handed out at window end.
    pub pool_in_use: u64,
    /// Mempool buffers parked in per-worker caches at window end.
    pub pool_cached: u64,
    /// Package power over the window, watts (0 when unobserved).
    pub power_watts: f64,
    /// Latency percentiles of samples recorded in this window.
    pub latency: Option<LatencyWindow>,
    /// Wake-to-first-poll percentiles of this window's wakes (tracing
    /// only).
    pub wake_latency: Option<LatencyWindow>,
    /// Scheduler-delay percentiles of this window's picks (tracing on
    /// the async backend only).
    pub sched_delay: Option<LatencyWindow>,
    /// Generator offered-vs-scheduled lateness percentiles of packets
    /// offered in this window (wall-clock generator only).
    pub gen_jitter: Option<LatencyWindow>,
}

impl Window {
    /// Window span.
    pub fn span(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }

    /// Fraction of the window the workers were awake, summed over workers
    /// (1.0 = one core's worth; can exceed 1 with several workers).
    pub fn duty_cycle(&self) -> f64 {
        let span = self.span().as_nanos();
        if span == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / span as f64
        }
    }

    /// Retrieval throughput over the window, Mpps.
    pub fn throughput_mpps(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.retrieved as f64 / span / 1e6
        }
    }

    /// Total drops in the window, all causes.
    pub fn dropped(&self) -> u64 {
        self.dropped_ring + self.dropped_pool + self.dropped_fault
    }

    /// Loss fraction over the window (0 when nothing was offered).
    pub fn loss(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.offered as f64
        }
    }

    /// Queue-0 `TS` in microseconds (the column Fig. 9 plots).
    pub fn ts_us(&self) -> f64 {
        self.ts_ns.first().map_or(0.0, |&ns| ns as f64 / 1e3)
    }

    /// Mean `TS` across queues, microseconds.
    pub fn mean_ts_us(&self) -> f64 {
        if self.ts_ns.is_empty() {
            0.0
        } else {
            self.ts_ns.iter().map(|&ns| ns as f64 / 1e3).sum::<f64>() / self.ts_ns.len() as f64
        }
    }

    /// Queue-0 ρ at window end.
    pub fn rho0(&self) -> f64 {
        self.rho.first().copied().unwrap_or(0.0)
    }

    /// Total ring occupancy at window end.
    pub fn total_occupancy(&self) -> u64 {
        self.occupancy.iter().sum()
    }
}

/// A complete fixed-interval series plus its closing cumulative totals.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    /// Nominal sampling interval.
    pub interval: Nanos,
    /// The windows, in time order.
    pub windows: Vec<Window>,
    /// The final cumulative snapshot (aggregates of the whole run).
    pub totals: CounterSnapshot,
}

impl TimeSeries {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the series holds no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Sum of a per-window counter column, for conservation checks.
    pub fn column_sum(&self, f: impl Fn(&Window) -> u64) -> u64 {
        self.windows.iter().map(f).sum()
    }

    /// The retrieval-discipline label the series was sampled under
    /// (carried by the closing snapshot; "" when unlabelled).
    pub fn discipline(&self) -> &'static str {
        self.totals.discipline
    }
}

/// Snapshot differencer: feed cumulative [`CounterSnapshot`]s in time
/// order, collect the [`TimeSeries`]. The first window spans from the
/// implicit all-zero snapshot at `t = 0` to the first sample, so the
/// window columns telescope exactly to the final totals.
#[derive(Clone, Debug)]
pub struct Sampler {
    interval: Nanos,
    prev: CounterSnapshot,
    windows: Vec<Window>,
}

impl Sampler {
    /// Sampler with the given nominal interval (recorded in the series;
    /// the actual window bounds come from the snapshots fed in).
    pub fn new(interval: Nanos) -> Self {
        Sampler {
            interval,
            prev: CounterSnapshot::new(Nanos::ZERO),
            windows: Vec::new(),
        }
    }

    /// Close the window `[prev.at, snap.at)` and make `snap` the new base.
    ///
    /// # Panics
    /// If snapshots go backwards in time.
    pub fn sample(&mut self, snap: CounterSnapshot) {
        assert!(snap.at >= self.prev.at, "snapshots must be in time order");
        let latency = diff_latency(self.prev.latency.as_ref(), snap.latency.as_ref());
        let wake_latency =
            diff_latency(self.prev.wake_latency.as_ref(), snap.wake_latency.as_ref());
        let sched_delay = diff_latency(self.prev.sched_delay.as_ref(), snap.sched_delay.as_ref());
        let gen_jitter = diff_latency(self.prev.gen_jitter.as_ref(), snap.gen_jitter.as_ref());
        let energy_delta = (snap.energy_joules - self.prev.energy_joules).max(0.0);
        let span_s = snap.at.saturating_sub(self.prev.at).as_secs_f64();
        self.windows.push(Window {
            index: self.windows.len(),
            start: self.prev.at,
            end: snap.at,
            retrieved: snap.retrieved.saturating_sub(self.prev.retrieved),
            offered: snap.offered.saturating_sub(self.prev.offered),
            dropped_ring: snap.dropped_ring.saturating_sub(self.prev.dropped_ring),
            dropped_pool: snap.dropped_pool.saturating_sub(self.prev.dropped_pool),
            dropped_fault: snap.dropped_fault.saturating_sub(self.prev.dropped_fault),
            wakeups: snap.wakeups.saturating_sub(self.prev.wakeups),
            busy_nanos: snap.busy_nanos.saturating_sub(self.prev.busy_nanos),
            sleep_nanos: snap.sleep_nanos.saturating_sub(self.prev.sleep_nanos),
            oversleep_nanos: snap
                .oversleep_nanos
                .saturating_sub(self.prev.oversleep_nanos),
            ts_ns: snap.ts_ns.clone(),
            rho: snap.rho.clone(),
            occupancy: snap.occupancy.clone(),
            pool_in_use: snap.pool_in_use,
            pool_cached: snap.pool_cached,
            power_watts: if span_s > 0.0 {
                energy_delta / span_s
            } else {
                0.0
            },
            latency,
            wake_latency,
            sched_delay,
            gen_jitter,
        });
        self.prev = snap;
    }

    /// Finish, yielding the series (totals = the last snapshot fed in).
    pub fn into_series(self) -> TimeSeries {
        TimeSeries {
            interval: self.interval,
            windows: self.windows,
            totals: self.prev,
        }
    }

    /// Windows closed so far.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The windows closed so far (live view, e.g. for printing each
    /// window as it closes).
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }
}

/// Percentiles of the samples recorded between two cumulative histogram
/// snapshots, computed from bucket-count deltas. `prev = None` means
/// "empty histogram".
fn diff_latency(prev: Option<&Histogram>, cur: Option<&Histogram>) -> Option<LatencyWindow> {
    let cur = cur?;
    let prev_counts: std::collections::HashMap<u64, u64> =
        prev.map(|p| p.iter_buckets().collect()).unwrap_or_default();
    // iter_buckets yields buckets in index order and bucket lower bounds
    // are strictly increasing with the index, so this delta is sorted.
    let delta: Vec<(u64, u64)> = cur
        .iter_buckets()
        .map(|(low, c)| (low, c - prev_counts.get(&low).copied().unwrap_or(0)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let total: u64 = delta.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let quantile = |q: f64| -> f64 {
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(low, c) in &delta {
            seen += c;
            if seen >= target {
                return low as f64 / 1e3;
            }
        }
        delta.last().map_or(0.0, |&(low, _)| low as f64 / 1e3)
    };
    Some(LatencyWindow {
        count: total,
        p50_us: quantile(0.50),
        p95_us: quantile(0.95),
        p99_us: quantile(0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_us: u64, retrieved: u64, dropped_ring: u64) -> CounterSnapshot {
        CounterSnapshot {
            at: Nanos::from_micros(at_us),
            retrieved,
            dropped_ring,
            ..CounterSnapshot::default()
        }
    }

    #[test]
    fn windows_are_deltas_and_telescope() {
        let mut s = Sampler::new(Nanos::from_micros(100));
        s.sample(snap(100, 40, 1));
        s.sample(snap(200, 100, 1));
        s.sample(snap(300, 100, 7));
        let ts = s.into_series();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.windows[0].retrieved, 40);
        assert_eq!(ts.windows[1].retrieved, 60);
        assert_eq!(ts.windows[2].retrieved, 0);
        assert_eq!(ts.windows[2].dropped_ring, 6);
        assert_eq!(ts.column_sum(|w| w.retrieved), ts.totals.retrieved);
        assert_eq!(ts.column_sum(|w| w.dropped_ring), ts.totals.dropped_ring);
    }

    #[test]
    fn derived_metrics() {
        let mut w = Window {
            start: Nanos::ZERO,
            end: Nanos::from_millis(1),
            retrieved: 1500,
            offered: 2000,
            dropped_ring: 400,
            dropped_pool: 100,
            busy_nanos: 250_000,
            ts_ns: vec![17_000, 29_000],
            ..Window::default()
        };
        assert!((w.duty_cycle() - 0.25).abs() < 1e-12);
        assert!((w.throughput_mpps() - 1.5).abs() < 1e-12);
        assert!((w.loss() - 0.25).abs() < 1e-12);
        assert!((w.ts_us() - 17.0).abs() < 1e-12);
        assert!((w.mean_ts_us() - 23.0).abs() < 1e-12);
        // Zero-width / zero-offered windows never divide by zero.
        w.end = Nanos::ZERO;
        w.offered = 0;
        assert_eq!(w.duty_cycle(), 0.0);
        assert_eq!(w.throughput_mpps(), 0.0);
        assert_eq!(w.loss(), 0.0);
    }

    #[test]
    fn latency_windows_diff_the_cumulative_histogram() {
        let mut h = Histogram::latency();
        for v in 1..=100u64 {
            h.record(v * 1_000); // 1..=100 µs
        }
        let mut s = Sampler::new(Nanos::from_micros(100));
        let mut first = snap(100, 0, 0);
        first.latency = Some(h.clone());
        s.sample(first);
        // Second window: 1000 more samples, all near 500 µs.
        for _ in 0..1000 {
            h.record(500_000);
        }
        let mut second = snap(200, 0, 0);
        second.latency = Some(h.clone());
        s.sample(second);
        let ts = s.into_series();
        let w0 = ts.windows[0].latency.unwrap();
        let w1 = ts.windows[1].latency.unwrap();
        assert_eq!(w0.count, 100);
        assert_eq!(w1.count, 1000);
        assert!((w0.p50_us - 50.0).abs() / 50.0 < 0.1, "{}", w0.p50_us);
        // The second window must reflect only its own samples, not the
        // first window's 1..=100 µs tail.
        assert!((w1.p50_us - 500.0).abs() / 500.0 < 0.05, "{}", w1.p50_us);
        assert!(w1.p99_us >= w1.p50_us);
        // Window latency counts also telescope.
        assert_eq!(w0.count + w1.count, h.count());
    }

    #[test]
    fn empty_window_has_no_latency() {
        let mut s = Sampler::new(Nanos::from_micros(10));
        let mut a = snap(10, 0, 0);
        a.latency = Some(Histogram::latency());
        s.sample(a);
        assert_eq!(s.into_series().windows[0].latency, None);
    }

    #[test]
    fn power_is_energy_delta_over_span() {
        let mut s = Sampler::new(Nanos::from_millis(1));
        let mut a = snap(1_000, 0, 0);
        a.energy_joules = 0.002;
        s.sample(a);
        let mut b = snap(2_000, 0, 0);
        b.energy_joules = 0.005;
        s.sample(b);
        let ts = s.into_series();
        assert!((ts.windows[0].power_watts - 2.0).abs() < 1e-9);
        assert!((ts.windows[1].power_watts - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn snapshots_must_move_forward() {
        let mut s = Sampler::new(Nanos::from_micros(10));
        s.sample(snap(100, 0, 0));
        s.sample(snap(50, 0, 0));
    }
}
