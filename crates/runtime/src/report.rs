//! Experiment outputs.

use metronome_dpdk::MempoolStats;
use metronome_sim::stats::Boxplot;
use metronome_sim::Nanos;
use metronome_telemetry::export::json::{timeseries_json, Json};
use metronome_telemetry::{TimeSeries, TraceDump};

/// Per-queue outcome of a run.
#[derive(Clone, Debug)]
pub struct QueueReport {
    /// Mean measured vacation period, µs.
    pub mean_vacation_us: f64,
    /// Mean measured busy period, µs.
    pub mean_busy_us: f64,
    /// Mean packets found queued at busy-period start (Table I's `NV`).
    pub nv: f64,
    /// Final smoothed load estimate.
    pub rho: f64,
    /// Successful trylock acquisitions.
    pub total_tries: u64,
    /// Failed trylock attempts.
    pub busy_tries: u64,
    /// busy_tries / (busy_tries + total_tries).
    pub busy_try_fraction: f64,
    /// Packets drained from this queue.
    pub drained: u64,
    /// Packets lost at this queue, all causes (ring tail-drop plus, on
    /// the realtime backend, mempool exhaustion for frames RSS had
    /// steered here).
    pub dropped: u64,
    /// Of `dropped`, packets lost to mempool exhaustion (the frame's
    /// buffer could not be allocated; always 0 on the simulation backend,
    /// which does not model the pool).
    pub dropped_pool: u64,
}

/// One point of the Fig. 9 adaptation time series.
#[derive(Clone, Copy, Debug)]
pub struct RampPoint {
    /// Sample time, seconds.
    pub t_s: f64,
    /// True offered rate, Mpps.
    pub true_mpps: f64,
    /// Metronome's estimate `ρ̂·µ`, Mpps.
    pub est_mpps: f64,
    /// Current `TS`, µs (queue 0).
    pub ts_us: f64,
    /// Current smoothed ρ (queue 0).
    pub rho: f64,
    /// Total packet-thread CPU over the last window, percent.
    pub cpu_pct: f64,
}

/// The full outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scenario label.
    pub name: String,
    /// Simulated duration.
    pub duration: Nanos,
    /// Packets offered by the NIC (accepted + dropped).
    pub offered: u64,
    /// Packets retrieved and processed.
    pub forwarded: u64,
    /// Packets lost, all causes (`dropped_ring + dropped_pool`).
    pub dropped: u64,
    /// Of `dropped`, packets tail-dropped at the Rx rings (descriptor
    /// exhaustion; includes frames stranded in rings at shutdown).
    pub dropped_ring: u64,
    /// Of `dropped`, packets lost to mempool exhaustion — the NIC had a
    /// free descriptor but no buffer to DMA into. Always 0 on the
    /// simulation backend, which does not model the pool.
    pub dropped_pool: u64,
    /// Of `dropped`, packets a `FaultPlan`'s `PlannedFaults` injector
    /// suppressed before they reached the rings. Always 0 when the
    /// scenario injects no faults.
    pub dropped_fault: u64,
    /// Mempool counters of the realtime backend's shared buffer pool
    /// (`None` on the simulation backend): pool-sizing visibility —
    /// population, peak occupancy, alloc failures.
    pub mempool: Option<MempoolStats>,
    /// The timer slack the realtime worker set's sleeper threads ran at,
    /// ns, as a worker or shard thread read it on itself (`None` on the
    /// simulation backend, or where it cannot be read): the regime the
    /// sleepers learned their wake overshoot in.
    pub timer_slack_ns: Option<u64>,
    /// Forwarding throughput in Mpps.
    pub throughput_mpps: f64,
    /// Loss fraction (0..1).
    pub loss: f64,
    /// Total CPU of the packet threads, percent of one core (can exceed
    /// 100 with multiple threads — same convention as the paper's plots).
    pub cpu_total_pct: f64,
    /// Per-thread CPU percentages.
    pub cpu_per_thread_pct: Vec<f64>,
    /// Average package power, watts.
    pub power_watts: f64,
    /// End-to-end latency summary (µs), if sampling was enabled.
    pub latency_us: Option<Boxplot>,
    /// Generator pacing jitter summary (µs): how late each offered packet
    /// left relative to its scheduled departure, merged over generator
    /// shards (`None` on the simulation backend, where departure times are
    /// exact by construction).
    pub gen_jitter_us: Option<Boxplot>,
    /// Per-queue details.
    pub queues: Vec<QueueReport>,
    /// Aggregate busy-try fraction.
    pub busy_try_fraction: f64,
    /// Total thread wake-ups.
    pub total_wakes: u64,
    /// When the ferret job finished (last worker), if it ran and finished.
    pub ferret_completion: Option<Nanos>,
    /// Ferret's uncontended duration, for slowdown ratios.
    pub ferret_standalone: Option<Nanos>,
    /// Fig. 9 time series (empty unless requested).
    pub series: Vec<RampPoint>,
    /// Windowed telemetry series (`None` unless the scenario requested
    /// sampling via `with_series`): per-window duty cycle, throughput,
    /// `TS`/ρ trajectory, drops by cause, occupancy, latency percentiles.
    pub timeseries: Option<TimeSeries>,
    /// Raw vacation-period samples in µs (Fig. 4 / Table I), capped.
    pub vacation_samples_us: Vec<f64>,
    /// Flight-recorder trace dump (`None` unless the scenario enabled
    /// tracing via `with_trace`): per-worker/shard event rings plus
    /// wake-latency, oversleep and scheduler-delay histograms. Render it
    /// with [`TraceDump::chrome_json`] for `chrome://tracing`/Perfetto or
    /// [`TraceDump::summary_json`] for counts.
    pub trace: Option<TraceDump>,
}

impl RunReport {
    /// Assemble the backend-independent core of a report from the raw
    /// packet counts: derived throughput and loss are computed here, every
    /// backend-specific field starts empty. Both the discrete-event runner
    /// and the realtime runner build their reports through this, so the
    /// two backends' columns stay derivation-compatible by construction.
    pub fn from_counts(
        name: impl Into<String>,
        duration: Nanos,
        offered: u64,
        forwarded: u64,
        dropped: u64,
    ) -> RunReport {
        let wall = duration.as_secs_f64();
        RunReport {
            name: name.into(),
            duration,
            offered,
            forwarded,
            dropped,
            // Until a backend says otherwise, every drop is a ring drop
            // (the simulation has no pool to exhaust).
            dropped_ring: dropped,
            dropped_pool: 0,
            dropped_fault: 0,
            mempool: None,
            timer_slack_ns: None,
            throughput_mpps: if wall > 0.0 {
                forwarded as f64 / wall / 1e6
            } else {
                0.0
            },
            loss: if offered > 0 {
                dropped as f64 / offered as f64
            } else {
                0.0
            },
            cpu_total_pct: 0.0,
            cpu_per_thread_pct: Vec::new(),
            power_watts: 0.0,
            latency_us: None,
            gen_jitter_us: None,
            queues: Vec::new(),
            busy_try_fraction: 0.0,
            total_wakes: 0,
            ferret_completion: None,
            ferret_standalone: None,
            series: Vec::new(),
            timeseries: None,
            vacation_samples_us: Vec::new(),
            trace: None,
        }
    }

    /// Loss in per-mille, the unit Table I uses.
    pub fn loss_permille(&self) -> f64 {
        self.loss * 1000.0
    }

    /// Mean measured vacation across queues, µs.
    pub fn mean_vacation_us(&self) -> f64 {
        let with_data: Vec<&QueueReport> = self
            .queues
            .iter()
            .filter(|q| q.mean_vacation_us > 0.0)
            .collect();
        if with_data.is_empty() {
            0.0
        } else {
            with_data.iter().map(|q| q.mean_vacation_us).sum::<f64>() / with_data.len() as f64
        }
    }

    /// Mean measured busy period across queues, µs.
    pub fn mean_busy_us(&self) -> f64 {
        let with_data: Vec<&QueueReport> = self
            .queues
            .iter()
            .filter(|q| q.mean_busy_us > 0.0)
            .collect();
        if with_data.is_empty() {
            0.0
        } else {
            with_data.iter().map(|q| q.mean_busy_us).sum::<f64>() / with_data.len() as f64
        }
    }

    /// Mean NV across queues.
    pub fn mean_nv(&self) -> f64 {
        let with_data: Vec<&QueueReport> = self.queues.iter().filter(|q| q.nv > 0.0).collect();
        if with_data.is_empty() {
            0.0
        } else {
            with_data.iter().map(|q| q.nv).sum::<f64>() / with_data.len() as f64
        }
    }

    /// Ferret slowdown vs its standalone duration, if it ran to completion.
    pub fn ferret_slowdown(&self) -> Option<f64> {
        match (self.ferret_completion, self.ferret_standalone) {
            (Some(done), Some(alone)) if !alone.is_zero() => Some(done / alone),
            _ => None,
        }
    }

    /// Mean ρ across queues.
    pub fn mean_rho(&self) -> f64 {
        if self.queues.is_empty() {
            0.0
        } else {
            self.queues.iter().map(|q| q.rho).sum::<f64>() / self.queues.len() as f64
        }
    }

    /// Queue `q`'s share of the forwarded traffic, in `[0, 1]` — 0 when
    /// nothing was forwarded (Silent / zero-rate scenarios), never NaN.
    pub fn queue_share(&self, q: usize) -> f64 {
        if self.forwarded == 0 {
            0.0
        } else {
            self.queues.get(q).map_or(0.0, |qr| qr.drained as f64) / self.forwarded as f64
        }
    }

    /// Machine-readable JSON of the whole report (through the telemetry
    /// JSON writer — the vendored build has no serde). Integer counters
    /// are emitted exactly; non-finite floats render as `null`, so a
    /// pathological report can never produce unparseable output.
    pub fn to_json(&self) -> String {
        let queues: Vec<Json> = self
            .queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                Json::obj()
                    .with("queue", i)
                    .with("mean_vacation_us", q.mean_vacation_us)
                    .with("mean_busy_us", q.mean_busy_us)
                    .with("nv", q.nv)
                    .with("rho", q.rho)
                    .with("total_tries", q.total_tries)
                    .with("busy_tries", q.busy_tries)
                    .with("busy_try_fraction", q.busy_try_fraction)
                    .with("drained", q.drained)
                    .with("share", self.queue_share(i))
                    .with("dropped", q.dropped)
                    .with("dropped_pool", q.dropped_pool)
            })
            .collect();
        let boxplot = |b: &Boxplot| {
            Json::obj()
                .with("min", b.min)
                .with("q1", b.q1)
                .with("median", b.median)
                .with("q3", b.q3)
                .with("max", b.max)
                .with("mean", b.mean)
                .with("std_dev", b.std_dev)
                .with("count", b.count)
        };
        let mut doc = Json::obj()
            .with("name", self.name.as_str())
            .with("duration_s", self.duration.as_secs_f64())
            .with("offered", self.offered)
            .with("forwarded", self.forwarded)
            .with("dropped", self.dropped)
            .with("dropped_ring", self.dropped_ring)
            .with("dropped_pool", self.dropped_pool)
            .with("dropped_fault", self.dropped_fault)
            .with("throughput_mpps", self.throughput_mpps)
            .with("loss", self.loss)
            .with("cpu_total_pct", self.cpu_total_pct)
            .with(
                "cpu_per_thread_pct",
                Json::Arr(self.cpu_per_thread_pct.iter().map(|&c| c.into()).collect()),
            )
            .with("power_watts", self.power_watts)
            .with("busy_try_fraction", self.busy_try_fraction)
            .with("total_wakes", self.total_wakes)
            .with("latency_us", self.latency_us.as_ref().map(boxplot))
            .with("gen_jitter_us", self.gen_jitter_us.as_ref().map(boxplot))
            .with(
                "mempool",
                self.mempool.map(|m| {
                    Json::obj()
                        .with("population", m.population)
                        .with("allocs", m.allocs)
                        .with("frees", m.frees)
                        .with("alloc_failures", m.alloc_failures)
                        .with("in_use_peak", m.in_use_peak)
                        .with("materialized", m.materialized)
                }),
            )
            .with("timer_slack_ns", self.timer_slack_ns)
            .with(
                "ferret_completion_s",
                self.ferret_completion.map(|n| n.as_secs_f64()),
            )
            .with("ferret_slowdown", self.ferret_slowdown())
            .with("queues", Json::Arr(queues));
        match &self.timeseries {
            Some(ts) => doc.push("timeseries", timeseries_json(ts)),
            None => doc.push("timeseries", Json::Null),
        };
        // The trace rides along as its summary (event/drop counts per
        // ring, histogram quantiles) — the full Chrome dump is a separate
        // artifact callers render on demand.
        doc.push(
            "trace",
            self.trace
                .as_ref()
                .map(TraceDump::summary_json)
                .unwrap_or(Json::Null),
        );
        doc.render()
    }
}
