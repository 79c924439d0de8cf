//! Experiment configuration: which system, which workload, which knobs.

use crate::apps_profile::AppProfile;
use crate::calib;
use metronome_core::discipline::{DisciplineSpec, ModerationConfig};
use metronome_core::{ExecBackend, MetronomeConfig};
use metronome_dpdk::nic::{gbps_to_pps, NicProfile};
use metronome_dpdk::shared_ring::RingPath;
use metronome_os::config::{DaemonConfig, Governor, OsConfig};
use metronome_os::sleep::SleepService;
use metronome_sim::{Nanos, Rng};
use metronome_traffic::{
    ArrivalProcess, BurstyCbr, Cbr, FaultPlan, OnOff, Poisson, Silent, Staircase, UnbalancedTrace,
};

/// Which packet-retrieval system runs.
///
/// Every variant executes on **both** backends: the discrete-event
/// simulator models it with calibrated costs, and the realtime runner
/// maps it onto a `metronome_core::discipline` worker set (Metronome →
/// the Listing 2 engine, StaticDpdk → `BusyPoll`, Xdp → `InterruptLike`
/// parked on doorbells, ConstSleep → fixed-period retrieval, Idle → no
/// workers).
#[derive(Clone, Debug)]
pub enum SystemKind {
    /// The paper's contribution.
    Metronome(MetronomeConfig),
    /// Classic DPDK busy polling, one thread per queue.
    StaticDpdk,
    /// XDP/NAPI interrupt-driven baseline, one core per queue.
    Xdp,
    /// Fixed-period retrieval (`r_sleep(P)` between drains), one thread
    /// per queue — the constant-sleep strawman Metronome's adaptive `TS`
    /// beats.
    ConstSleep {
        /// The fixed retrieval period `P`.
        period: Nanos,
    },
    /// No packet system at all — baseline for co-tenant-alone runs
    /// (the "ferret alone" bars of Fig. 12).
    Idle,
}

impl SystemKind {
    /// The retrieval discipline this system runs on real threads (`None`
    /// for [`SystemKind::Idle`]: no workers at all).
    pub(crate) fn discipline(&self) -> Option<DisciplineSpec> {
        match self {
            SystemKind::Metronome(_) => Some(DisciplineSpec::Metronome),
            SystemKind::StaticDpdk => Some(DisciplineSpec::BusyPoll),
            SystemKind::Xdp => Some(DisciplineSpec::InterruptLike(ModerationConfig::default())),
            SystemKind::ConstSleep { period } => Some(DisciplineSpec::ConstSleep(*period)),
            SystemKind::Idle => None,
        }
    }

    /// Stable lowercase label shared by telemetry series, reports and
    /// thread names — the label of the discipline the system maps to
    /// ([`DisciplineSpec::label`]), plus "idle" for the no-system case.
    pub fn label(&self) -> &'static str {
        self.discipline().map_or("idle", |spec| spec.label())
    }
}

/// The offered workload.
#[derive(Clone, Debug)]
pub enum TrafficSpec {
    /// Constant rate in packets per second (spread evenly over queues).
    CbrPps(f64),
    /// Constant rate in Gb/s of 64 B frames.
    CbrGbps(f64),
    /// Poisson arrivals at the given mean pps.
    PoissonPps(f64),
    /// The Fig. 9 staircase: up to `peak_pps` in `n_steps` steps of
    /// `step` duration each, then back down.
    RampUpDown {
        /// Peak aggregate rate.
        peak_pps: f64,
        /// Steps up (and down).
        n_steps: usize,
        /// Duration of each step.
        step: Nanos,
    },
    /// Table III: 30% of traffic on one flow, 70% spread randomly,
    /// dispatched by real Toeplitz RSS shares.
    Unbalanced {
        /// Aggregate rate.
        total_pps: f64,
    },
    /// On/off bursts (XDP reactivity comparisons).
    OnOff {
        /// Rate during a burst.
        burst_pps: f64,
        /// Burst length.
        on: Nanos,
        /// Silence length.
        off: Nanos,
    },
    /// No traffic (idle CPU/power floors).
    Silent,
}

impl TrafficSpec {
    /// Build the per-queue arrival processes. The aggregate rate is capped
    /// at what the NIC can deliver (`nic.max_pps(64)`).
    pub fn build(
        &self,
        n_queues: usize,
        nic: &NicProfile,
        seed: u64,
    ) -> Vec<Box<dyn ArrivalProcess>> {
        let cap = nic.max_pps(64);
        let per_queue = |total: f64| (total.min(cap)) / n_queues as f64;
        match self {
            TrafficSpec::CbrPps(pps) => {
                let rate = per_queue(*pps);
                let wire_gap = Nanos((1e9 / cap) as u64);
                (0..n_queues)
                    .map(|i| {
                        // Stagger queue phases so arrivals interleave like
                        // RSS-dispatched traffic rather than in lockstep.
                        let offset = if *pps > 0.0 {
                            Nanos((i as f64 * 1e9 / pps.min(cap)) as u64)
                        } else {
                            Nanos::ZERO
                        };
                        if rate > 0.0 && rate < 0.7 * cap / n_queues as f64 {
                            // Sub-line-rate CBR arrives as generator DMA
                            // trains (see BurstyCbr docs).
                            Box::new(BurstyCbr::new(rate, 32, wire_gap, offset))
                                as Box<dyn ArrivalProcess>
                        } else {
                            Box::new(Cbr::new(rate, offset)) as Box<dyn ArrivalProcess>
                        }
                    })
                    .collect()
            }
            TrafficSpec::CbrGbps(gbps) => {
                TrafficSpec::CbrPps(gbps_to_pps(*gbps, 64)).build(n_queues, nic, seed)
            }
            TrafficSpec::PoissonPps(pps) => {
                let rate = per_queue(*pps);
                (0..n_queues)
                    .map(|i| {
                        Box::new(Poisson::new(
                            rate,
                            Nanos::ZERO,
                            Rng::new(seed).stream(0xA0 + i as u64),
                        )) as Box<dyn ArrivalProcess>
                    })
                    .collect()
            }
            TrafficSpec::RampUpDown {
                peak_pps,
                n_steps,
                step,
            } => {
                let peak = per_queue(*peak_pps);
                (0..n_queues)
                    .map(|_| {
                        Box::new(Staircase::ramp_up_down(peak, *n_steps, *step))
                            as Box<dyn ArrivalProcess>
                    })
                    .collect()
            }
            TrafficSpec::Unbalanced { total_pps } => {
                let trace = UnbalancedTrace::table3(seed);
                let shares = trace.queue_shares(n_queues);
                let total = total_pps.min(cap);
                shares
                    .iter()
                    .map(|&s| Box::new(Cbr::new(total * s, Nanos::ZERO)) as Box<dyn ArrivalProcess>)
                    .collect()
            }
            TrafficSpec::OnOff { burst_pps, on, off } => {
                let rate = per_queue(*burst_pps);
                (0..n_queues)
                    .map(|_| Box::new(OnOff::new(rate, *on, *off)) as Box<dyn ArrivalProcess>)
                    .collect()
            }
            TrafficSpec::Silent => (0..n_queues)
                .map(|_| Box::new(Silent) as Box<dyn ArrivalProcess>)
                .collect(),
        }
    }

    /// Nominal aggregate rate at `t` (pps), before NIC capping.
    pub fn nominal_pps(&self, t: Nanos) -> f64 {
        match self {
            TrafficSpec::CbrPps(pps) => *pps,
            TrafficSpec::CbrGbps(gbps) => gbps_to_pps(*gbps, 64),
            TrafficSpec::PoissonPps(pps) => *pps,
            TrafficSpec::RampUpDown {
                peak_pps,
                n_steps,
                step,
            } => {
                // Mirror Staircase::ramp_up_down's schedule.
                let s = Staircase::ramp_up_down(*peak_pps, *n_steps, *step);
                s.rate_pps(t)
            }
            TrafficSpec::Unbalanced { total_pps } => *total_pps,
            TrafficSpec::OnOff { burst_pps, on, off } => {
                let cycle = (*on + *off).as_nanos();
                if cycle == 0 || t.as_nanos() % cycle < on.as_nanos() {
                    *burst_pps
                } else {
                    0.0
                }
            }
            TrafficSpec::Silent => 0.0,
        }
    }
}

/// Co-located ferret job specification (paper §V-E).
#[derive(Clone, Debug)]
pub struct FerretSpec {
    /// Worker threads.
    pub n_workers: usize,
    /// Standalone (uncontended) completion time of the whole job.
    pub standalone: Nanos,
    /// Niceness of the ferret/VM threads.
    pub nice: i8,
    /// Pin ferret workers to the same cores as the packet threads
    /// (the sharing experiments) instead of separate cores.
    pub on_net_cores: bool,
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Report label.
    pub name: String,
    /// System under test.
    pub system: SystemKind,
    /// Application cost profile.
    pub app: AppProfile,
    /// Offered workload.
    pub traffic: TrafficSpec,
    /// Simulated duration.
    pub duration: Nanos,
    /// Rx queues.
    pub n_queues: usize,
    /// Descriptor ring size per queue.
    pub ring_size: usize,
    /// Mbuf pool population for the realtime backend (`None` = sized from
    /// the rings: enough to fill every ring twice over, so normal runs
    /// never see pool exhaustion). The simulation backend does not model
    /// the pool and ignores this.
    pub mbuf_pool: Option<usize>,
    /// NIC device profile.
    pub nic: NicProfile,
    /// OS model configuration (governor, scheduler, daemon, power).
    pub os: OsConfig,
    /// Niceness of the packet-retrieval threads (paper: −20 for
    /// Metronome's "slight scheduling advantage").
    pub net_nice: i8,
    /// Optional co-located ferret job.
    pub ferret: Option<FerretSpec>,
    /// Sleep primitive used by Metronome threads.
    pub sleep_service: SleepService,
    /// Equal-timeout ablation: backups sleep `TS` instead of `TL`.
    pub equal_timeouts: bool,
    /// Latency sampling stride (0 disables latency measurement).
    pub latency_stride: u64,
    /// Record a time series every this often (Fig. 9).
    pub series_every: Option<Nanos>,
    /// Scheduled fault injection (soak/chaos runs). Both backends realize
    /// the plan and count suppressed packets as `DropCause::Fault`, so
    /// fault runs still reconcile exactly.
    pub faults: Option<FaultPlan>,
    /// Execution backend of the realtime worker set: one OS thread per
    /// worker (the default, the paper's model) or cooperative tasks on a
    /// sharded async executor — the 1000+-queue scale path. The
    /// simulation backend models threads and ignores this.
    pub exec: ExecBackend,
    /// Ring transport under the realtime RSS port, of which there is
    /// one. Nothing reads it but `perfbench/`'s `RssPort::with_path` call;
    /// it goes with benchmark round 2's `perfbench` edit.
    pub ring_path: RingPath,
    /// Flight-recorder tracing of the realtime worker set: per-worker (or
    /// per-shard on the async backend) event rings plus wake-latency /
    /// oversleep / scheduler-delay histograms, dumped into the report.
    /// Off by default — the disabled path is a compile-time no-op on the
    /// record path. Simulation ignores this.
    pub trace: bool,
    /// Generator producer shards on the realtime backend. `1` (the
    /// default) keeps the single-threaded inline generator; `G > 1` splits
    /// the arrival schedule across `G` concurrent producer threads
    /// assigned by flow (flow → shard, preserving per-flow order), each
    /// with its own pacer slice, mempool cache and scatter arena; the
    /// shards take turns at each ring's producer guard, once per burst.
    /// Simulation ignores this.
    pub gen_shards: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scenario {
    fn base(name: impl Into<String>, system: SystemKind, n_queues: usize) -> Self {
        Scenario {
            name: name.into(),
            system,
            app: AppProfile::l3fwd(),
            traffic: TrafficSpec::Silent,
            duration: Nanos::from_secs(2),
            n_queues,
            ring_size: calib::RX_RING_SIZE,
            mbuf_pool: None,
            nic: NicProfile::X520,
            os: OsConfig::default(),
            net_nice: 0,
            ferret: None,
            sleep_service: SleepService::HrSleep,
            equal_timeouts: false,
            latency_stride: 0,
            series_every: None,
            faults: None,
            exec: ExecBackend::Threads,
            ring_path: RingPath::Spsc,
            trace: false,
            gen_shards: 1,
            seed: 0xC0FFEE,
        }
    }

    /// A Metronome scenario (nice −20 per the paper's setup).
    pub fn metronome(name: impl Into<String>, cfg: MetronomeConfig, traffic: TrafficSpec) -> Self {
        cfg.validate().expect("invalid Metronome config");
        let n_queues = cfg.n_queues;
        let mut s = Scenario::base(name, SystemKind::Metronome(cfg), n_queues);
        s.net_nice = -20;
        s.traffic = traffic;
        s
    }

    /// A static-DPDK scenario (one busy-poll thread per queue).
    pub fn static_dpdk(name: impl Into<String>, n_queues: usize, traffic: TrafficSpec) -> Self {
        let mut s = Scenario::base(name, SystemKind::StaticDpdk, n_queues);
        s.traffic = traffic;
        s
    }

    /// An XDP scenario (one interrupt-driven core per queue).
    pub fn xdp(name: impl Into<String>, n_queues: usize, traffic: TrafficSpec) -> Self {
        let mut s = Scenario::base(name, SystemKind::Xdp, n_queues);
        s.traffic = traffic;
        s
    }

    /// A constant-sleep scenario: one thread per queue draining on a
    /// fixed `period` timer (the naive `r_sleep` baseline).
    pub fn const_sleep(
        name: impl Into<String>,
        n_queues: usize,
        period: Nanos,
        traffic: TrafficSpec,
    ) -> Self {
        assert!(!period.is_zero(), "constant sleep period must be positive");
        let mut s = Scenario::base(name, SystemKind::ConstSleep { period }, n_queues);
        s.traffic = traffic;
        s
    }

    /// A scenario with no packet system (co-tenant baselines).
    pub fn idle(name: impl Into<String>) -> Self {
        Scenario::base(name, SystemKind::Idle, 1)
    }

    /// Set the application profile.
    pub fn with_app(mut self, app: AppProfile) -> Self {
        self.app = app;
        self
    }

    /// Set the run duration.
    pub fn with_duration(mut self, d: Nanos) -> Self {
        self.duration = d;
        self
    }

    /// Set the cpufreq governor.
    pub fn with_governor(mut self, g: Governor) -> Self {
        self.os.governor = g;
        self
    }

    /// Use the XL710 40 G profile (and its 37 Mpps cap).
    pub fn with_nic(mut self, nic: NicProfile) -> Self {
        self.nic = nic;
        self
    }

    /// Set the descriptor ring size.
    pub fn with_ring(mut self, size: usize) -> Self {
        self.ring_size = size;
        self
    }

    /// Set the realtime backend's mbuf pool population (undersize it to
    /// provoke pool-exhaustion drops; the drop-cause breakdown in the
    /// report tells pool exhaustion from ring tail-drop).
    pub fn with_mbuf_pool(mut self, population: usize) -> Self {
        self.mbuf_pool = Some(population);
        self
    }

    /// Enable latency measurement with the default MoonGen-like stride.
    pub fn with_latency(mut self) -> Self {
        self.latency_stride = calib::LATENCY_SAMPLE_STRIDE;
        self
    }

    /// Enable latency measurement with a custom stride.
    pub fn with_latency_stride(mut self, stride: u64) -> Self {
        self.latency_stride = stride;
        self
    }

    /// Record the Fig. 9-style time series.
    pub fn with_series(mut self, every: Nanos) -> Self {
        self.series_every = Some(every);
        self
    }

    /// Inject scheduled faults (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Add a co-located ferret job.
    pub fn with_ferret(mut self, f: FerretSpec) -> Self {
        self.ferret = Some(f);
        self
    }

    /// Choose the sleep service (nanosleep ablations).
    pub fn with_sleep_service(mut self, s: SleepService) -> Self {
        self.sleep_service = s;
        self
    }

    /// Enable the equal-timeout ablation.
    pub fn with_equal_timeouts(mut self) -> Self {
        self.equal_timeouts = true;
        self
    }

    /// Disable kernel-daemon interference (clean model-validation runs).
    pub fn without_daemon(mut self) -> Self {
        self.os.daemon = DaemonConfig::disabled();
        self
    }

    /// Choose the realtime execution backend explicitly.
    pub fn with_exec(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
        self
    }

    /// Run the realtime worker set on the async executor with the given
    /// shard count (shorthand for
    /// `with_exec(ExecBackend::Async { shards })`).
    pub fn with_async_backend(mut self, shards: usize) -> Self {
        self.exec = ExecBackend::Async { shards };
        self
    }

    /// Enable flight-recorder tracing of the realtime worker set.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Split realtime generation across `shards` producer threads
    /// (flow-sharded: every flow keeps one producer).
    ///
    /// # Panics
    /// If `shards` is zero — a run with no producers offers nothing.
    pub fn with_gen_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "gen_shards must be at least 1");
        self.gen_shards = shards;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of packet-retrieval threads this scenario spawns.
    pub fn n_net_threads(&self) -> usize {
        match &self.system {
            SystemKind::Metronome(cfg) => cfg.m_threads,
            SystemKind::StaticDpdk | SystemKind::Xdp | SystemKind::ConstSleep { .. } => {
                self.n_queues
            }
            SystemKind::Idle => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_split_across_queues() {
        let spec = TrafficSpec::CbrPps(4e6);
        let mut qs = spec.build(4, &NicProfile::XL710, 1);
        assert_eq!(qs.len(), 4);
        let n = qs[0].drain(Nanos::from_millis(10), None);
        // 1 Mpps per queue for 10 ms ≈ 10k packets; sub-line-rate CBR is
        // emitted as 32-packet DMA trains, so the window edge can hold a
        // partial train.
        assert!((n as f64 - 10_000.0).abs() <= 32.0, "{n}");
    }

    #[test]
    fn traffic_capped_at_nic_limit() {
        // 59 Mpps offered on an XL710 caps at 37 Mpps.
        let spec = TrafficSpec::CbrPps(59e6);
        let mut qs = spec.build(1, &NicProfile::XL710, 1);
        let n = qs[0].drain(Nanos::from_millis(1), None);
        assert!((n as f64 - 37_000.0).abs() < 5.0, "{n}");
    }

    #[test]
    fn gbps_conversion_uses_64b_framing() {
        let spec = TrafficSpec::CbrGbps(10.0);
        assert!((spec.nominal_pps(Nanos::ZERO) - 14_880_952.38).abs() < 1.0);
    }

    #[test]
    fn unbalanced_shares_skewed() {
        let spec = TrafficSpec::Unbalanced { total_pps: 3e6 };
        let mut qs = spec.build(3, &NicProfile::X520, 42);
        let counts: Vec<u64> = qs
            .iter_mut()
            .map(|q| q.drain(Nanos::from_millis(100), None))
            .collect();
        let total: u64 = counts.iter().sum();
        let max = *counts.iter().max().unwrap();
        let share = max as f64 / total as f64;
        assert!((0.45..0.6).contains(&share), "hot share {share}");
    }

    #[test]
    fn scenario_builders() {
        let s = Scenario::metronome("m", MetronomeConfig::default(), TrafficSpec::CbrGbps(10.0))
            .with_latency()
            .with_governor(Governor::Ondemand)
            .with_duration(Nanos::from_secs(1));
        assert_eq!(s.net_nice, -20);
        assert_eq!(s.n_net_threads(), 3);
        assert!(s.latency_stride > 0);

        let x = Scenario::xdp("x", 4, TrafficSpec::CbrGbps(10.0));
        assert_eq!(x.n_net_threads(), 4);

        let c = Scenario::const_sleep(
            "c",
            2,
            Nanos::from_micros(50),
            TrafficSpec::CbrPps(10_000.0),
        );
        assert_eq!(c.n_net_threads(), 2);
        assert_eq!(c.system.label(), "const-sleep");
        assert_eq!(Scenario::idle("i").system.label(), "idle");

        // The backend defaults to the paper's model and is overridable
        // per scenario.
        assert_eq!(s.exec, ExecBackend::Threads);
        let a = Scenario::xdp("a", 2, TrafficSpec::Silent).with_async_backend(2);
        assert_eq!(a.exec, ExecBackend::Async { shards: 2 });
        assert_eq!(a.exec.label(), "async");

        // Generation is single-shard unless asked otherwise.
        assert_eq!(s.gen_shards, 1);
        let g = Scenario::xdp("g", 2, TrafficSpec::Silent).with_gen_shards(4);
        assert_eq!(g.gen_shards, 4);
    }

    #[test]
    #[should_panic(expected = "gen_shards")]
    fn zero_gen_shards_rejected() {
        let _ = Scenario::xdp("g", 2, TrafficSpec::Silent).with_gen_shards(0);
    }

    #[test]
    fn ramp_nominal_rate_follows_schedule() {
        let spec = TrafficSpec::RampUpDown {
            peak_pps: 14e6,
            n_steps: 15,
            step: Nanos::from_secs(2),
        };
        assert!(spec.nominal_pps(Nanos::from_secs(29)) > 13e6);
        assert!(spec.nominal_pps(Nanos::from_secs(1)) < 2e6);
    }
}
