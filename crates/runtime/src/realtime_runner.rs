//! Realtime scenario execution: `run(Scenario) -> RunReport` on real
//! `std::thread`s.
//!
//! The same [`Scenario`] the discrete-event simulator executes runs here
//! against the machine instead of a model, stage for stage. The runner is
//! the [`Pipeline`] (built, armed, observed and drained exactly as the
//! `metronomed` service does it) plus one paced scenario plus the report:
//!
//! ```text
//! ArrivalProcess ──wall-clock──▶ mempool alloc ──Toeplitz RSS──▶ mbuf rings
//!   (PacedArrivals)               (template refill)               (RssPort)
//!        ──▶ retrieval workers ──▶ PacketProcessor bursts ──▶ mempool free
//!          (discipline per SystemKind)  (process_burst + latency)
//! ```
//!
//! * **Load generation** — the scenario's [`crate::scenario::TrafficSpec`] builds
//!   `gen_shards` [`metronome_traffic::ArrivalProcess`] slices, each
//!   replayed in real time by a [`PacedArrivals`] (MoonGen's role — and
//!   MoonGen's multi-core scaling recipe: flows are partitioned across
//!   shards, so per-flow order is preserved while shards produce
//!   concurrently, taking turns at each ring's producer guard) in bounded
//!   batches against the run's one [`metronome_traffic::WallClock`]. The
//!   pipeline assembles each shard ([`Pipeline::producer`]), and every
//!   batch goes through the one ingest core (see [`crate::ingest`]):
//!   pooled buffers refilled from flow templates — once a buffer has
//!   been created, **no heap allocation per packet** — stamped with their scheduled arrival,
//!   scattered to their RSS queues, with pool exhaustion and ring
//!   tail-drop booked on the port as distinct causes and per-packet
//!   lateness always recorded.
//! * **RSS dispatch** — the frame's flow steers it through a real Toeplitz
//!   hash onto one of `N` bounded mbuf rings ([`metronome_dpdk::RssPort`]), offered ring
//!   by ring in bursts (`offer_burst`); a full ring tail-drops with
//!   per-queue accounting, and the dropped frames' buffers recycle
//!   straight back to the pool.
//! * **Retrieval** — every [`SystemKind`] maps onto a
//!   `metronome_core::discipline` worker set ([`Pipeline::arm`] spawns it on
//!   the scenario's [`metronome_core::ExecBackend`] — one OS thread per
//!   worker, or cooperative tasks on a sharded async executor):
//!   Metronome threads race trylocks and sleep adaptive timeouts
//!   (Listing 2); `StaticDpdk` pins one spinning `BusyPoll` worker per
//!   queue; `Xdp` parks one `InterruptLike` worker per queue on a
//!   [`metronome_core::discipline::Doorbell`] the RSS port rings on every
//!   accepted burst (adaptive moderation window included); `ConstSleep`
//!   retrieves on a fixed period; `Idle` spawns nothing. Same rings, same
//!   apps, same report — only the retrieval discipline differs, which is
//!   exactly what the paper's comparative figures vary.
//! * **Processing & measurement** — each frame passes through a functional
//!   [`PacketProcessor`] (per-queue instance, so concurrent queues never
//!   contend), and its scheduled-arrival → completion latency is recorded
//!   in a per-queue log-linear [`metronome_sim::stats::Histogram`] (P4TG-style data-plane
//!   histograms rather than sampled reservoirs: recording is O(1), so
//!   every packet is measured).
//!
//! The result is assembled into the same [`RunReport`] the simulator
//! emits (via [`RunReport::from_counts`]), with the fields a wall-clock
//! run cannot observe documented per field below. Packet conservation is
//! exact and asserted: `offered = forwarded + dropped`, where `dropped`
//! breaks down into ring tail-drops, mempool-exhaustion drops, and frames
//! stranded in rings at shutdown (normally zero — the runner waits for
//! the rings to empty before stopping, [`Pipeline::drain`]; under `Idle`
//! every accepted frame is stranded by construction and counted).
//!
//! A scenario the runner cannot execute (an app profile with no
//! functional processor, a queue-count mismatch) is rejected with a typed
//! [`RealtimeError`] through [`try_run_realtime`]; the panicking
//! [`run_realtime`] convenience wrapper merely unwraps it.
//!
//! [`PacedArrivals`]: metronome_traffic::PacedArrivals

use crate::pipeline::{pool_population, processor_for, Pipeline, Producer, MBUF_DATAROOM};
use crate::report::{QueueReport, RunReport};
use crate::scenario::{Scenario, SystemKind};
use metronome_apps::processor::PacketProcessor;
use metronome_core::discipline::DisciplineSpec;
use metronome_core::WorkerBooks;
use metronome_core::{AdaptiveController, MetronomeConfig};
use metronome_dpdk::Mempool;
use metronome_sim::Nanos;
use metronome_telemetry::{CounterSnapshot, Sampler, TraceHub, DEFAULT_RING_CAPACITY};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long after the traffic horizon the runner waits for workers to
/// drain the rings before declaring leftovers stranded.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Why the realtime runner refused to execute a scenario. Returned by
/// [`try_run_realtime`] instead of panicking, so callers sweeping over
/// generated scenario sets can report and skip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RealtimeError {
    /// The Metronome config's queue count disagrees with the scenario's.
    QueueMismatch {
        /// Queues in the `MetronomeConfig`.
        config: usize,
        /// Queues in the `Scenario`.
        scenario: usize,
    },
    /// The scenario's app profile has no functional processor wired
    /// (cost-model-only profiles exist in the simulator).
    NoProcessor {
        /// The app profile name.
        app: &'static str,
    },
}

impl std::fmt::Display for RealtimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealtimeError::QueueMismatch { config, scenario } => write!(
                f,
                "Metronome config has {config} queues but the scenario has {scenario}"
            ),
            RealtimeError::NoProcessor { app } => {
                write!(f, "no functional processor wired for app profile '{app}'")
            }
        }
    }
}

impl std::error::Error for RealtimeError {}

/// Builds the functional packet processor for one queue. Factories run
/// once per queue at startup; each queue owns its instance, so processor
/// state (route tables, flow tables, SA counters) is per-queue like DPDK's
/// per-lcore state.
pub type ProcessorFactory<'a> = dyn Fn(usize) -> Box<dyn PacketProcessor> + 'a;

/// [`processor_for`], panicking when the profile has no functional
/// implementation.
///
/// # Panics
/// If the profile has no functional implementation.
pub fn default_processor(app_name: &str) -> Box<dyn PacketProcessor> {
    processor_for(app_name)
        .unwrap_or_else(|| panic!("no functional processor wired for app profile '{app_name}'"))
}

/// The worker configuration and discipline a [`SystemKind`] maps onto
/// (the mapping [`SystemKind::label`] names): `None` for
/// [`SystemKind::Idle`] (no workers at all).
fn discipline_for(
    sc: &Scenario,
) -> Result<Option<(MetronomeConfig, DisciplineSpec)>, RealtimeError> {
    let Some(spec) = sc.system.discipline() else {
        return Ok(None);
    };
    let cfg = match &sc.system {
        SystemKind::Metronome(cfg) if cfg.n_queues != sc.n_queues => {
            return Err(RealtimeError::QueueMismatch {
                config: cfg.n_queues,
                scenario: sc.n_queues,
            })
        }
        SystemKind::Metronome(cfg) => cfg.clone(),
        _ => MetronomeConfig {
            m_threads: sc.n_queues,
            n_queues: sc.n_queues,
            ..MetronomeConfig::default()
        },
    };
    Ok(Some((cfg, spec)))
}

/// Execute a scenario end-to-end on real threads, with the app profile's
/// default functional processor. Every [`SystemKind`] executes (each maps
/// onto a retrieval discipline; `Idle` runs the pipeline with no
/// consumers).
///
/// # Panics
/// If the scenario is rejected (see [`try_run_realtime`] for the
/// non-panicking form).
pub fn run_realtime(sc: &Scenario) -> RunReport {
    try_run_realtime(sc).unwrap_or_else(|e| panic!("realtime scenario rejected: {e}"))
}

/// [`run_realtime`] with a custom per-queue processor factory (tests use
/// this to inject instrumented or deliberately slow applications).
///
/// # Panics
/// If the scenario is rejected (see [`try_run_realtime_with`]).
pub fn run_realtime_with(sc: &Scenario, make_app: &ProcessorFactory) -> RunReport {
    try_run_realtime_with(sc, make_app)
        .unwrap_or_else(|e| panic!("realtime scenario rejected: {e}"))
}

/// Fallible [`run_realtime`]: a scenario the runner cannot execute comes
/// back as a typed [`RealtimeError`] instead of a panic.
pub fn try_run_realtime(sc: &Scenario) -> Result<RunReport, RealtimeError> {
    // Resolve the processor up front so the factory below cannot panic on
    // user input.
    if processor_for(sc.app.name).is_none() {
        return Err(RealtimeError::NoProcessor { app: sc.app.name });
    }
    try_run_realtime_with(sc, &|_q| default_processor(sc.app.name))
}

/// Fallible [`run_realtime_with`]: the [`Pipeline`], one paced scenario
/// through it, and the report.
pub fn try_run_realtime_with(
    sc: &Scenario,
    make_app: &ProcessorFactory,
) -> Result<RunReport, RealtimeError> {
    let dispatch = discipline_for(sc)?;

    // ---- worker shape ----------------------------------------------------
    // The worker config sizes the shared state (controller, locks,
    // doorbells) even when no workers spawn, so the report's per-queue
    // columns keep their shape under `Idle`.
    let worker_cfg = dispatch
        .as_ref()
        .map(|(cfg, _)| cfg.clone())
        .unwrap_or_else(|| MetronomeConfig {
            m_threads: sc.n_queues.max(1),
            n_queues: sc.n_queues,
            ..MetronomeConfig::default()
        });
    let n_workers = dispatch
        .as_ref()
        .map_or(0, |(cfg, spec)| spec.workers(cfg.m_threads, cfg.n_queues));

    // ---- the shared mbuf pool --------------------------------------------
    // Sized by the pipeline unless the scenario undersizes it on purpose
    // (`with_mbuf_pool`).
    let gen_shards = Pipeline::producer_shards(sc.gen_shards);
    let population = sc.mbuf_pool.unwrap_or_else(|| {
        pool_population(
            sc.n_queues,
            sc.ring_size,
            gen_shards,
            n_workers,
            worker_cfg.burst as usize,
        )
    });
    let pool = Mempool::new(population, MBUF_DATAROOM);
    let mut pipeline = Pipeline::new(sc.n_queues, sc.ring_size, sc.seed, pool.clone(), make_app)
        .measuring_latency(sc.latency_stride > 0);
    if let Some(plan) = &sc.faults {
        pipeline = pipeline.with_faults(plan);
    }

    let run_start = Instant::now();
    // Flight-recorder tracing (opt-in): one ring per worker on the thread
    // backend, one per shard on the executor. An untraced worker set runs
    // over NullTrace, so a `trace: false` scenario records nothing and
    // pays nothing on the record path.
    let trace_hub: Option<Arc<TraceHub>> = (sc.trace && dispatch.is_some()).then(|| {
        Arc::new(TraceHub::labeled(
            sc.exec.trace_slots(n_workers),
            DEFAULT_RING_CAPACITY,
            sc.system.label(),
        ))
    });

    // ---- workers: the scenario's retrieval discipline on real threads ----
    let metronome = dispatch.map(|(cfg, spec)| {
        let workers = pipeline.arm(cfg, spec, sc.exec, trace_hub.as_ref());
        // Interrupt-driven workers park on per-queue doorbells; arm the
        // RSS port's producer-side hook so every accepted burst rings the
        // queue's bell (the "raise the IRQ" edge). The hook is installed
        // before generation starts, so no accepted frame can pre-date it.
        if matches!(spec, DisciplineSpec::InterruptLike(_)) {
            for q in 0..sc.n_queues {
                let bell = Arc::clone(workers.doorbell(q));
                pipeline
                    .port_mut()
                    .set_wake_hook(q, Arc::new(move || bell.ring()));
            }
        }
        workers
    });
    // ---- telemetry: the set's books always on, sampling on request -------
    // Workers count into their set's books (the queue words their trylock
    // orders, a hub of per-worker time blocks); losses stay on the
    // pipeline's books (the port's rings, the injectors), which a sampler
    // thread (below) reads beside them. An `Idle` run arms no set: its
    // snapshots carry the scenario's label and no worker counts.
    let set_books = metronome.as_ref().map(|workers| workers.books());
    let label = sc.system.label();
    let fill = move |snap: &mut CounterSnapshot, set_books: Option<&WorkerBooks>| {
        snap.discipline = label;
        if let Some(set_books) = set_books {
            set_books.fill_snapshot(snap);
        }
    };

    // ---- traffic: G flow-sharded arrival slices, wall-clock paced --------
    // `TrafficSpec::build(gen_shards, ...)` splits the aggregate rate into
    // `G` phase-staggered slices; every slice paces against the run's ONE
    // clock, so interleaved arrival timestamps stay mutually comparable
    // and latency/jitter measurements reference the same zero. Flow `i`
    // belongs to shard `i mod G` (the same partitioning argument RSS
    // itself makes on the receive side). Under a fault plan the pipeline
    // puts each shard's source behind its own seeded injector over the
    // plan's arrival side (independent sub-streams of the master seed;
    // spikes duplicate, dips and jitter suppress); stalls and starvation
    // are the pipeline's fault driver's, below.
    let clock = pipeline.clock();
    let producers: Vec<Producer> = sc
        .traffic
        .build(gen_shards, &sc.nic, sc.seed)
        .into_iter()
        .enumerate()
        .map(|(s, source)| pipeline.producer(s, gen_shards, source, sc.duration))
        .collect();
    let pipeline = Arc::new(pipeline);

    // ---- sampler thread (the realtime counterpart of the simulation's
    // scheduled sampling events): every `series_every` it snapshots the
    // worker set's cumulative books plus everything the pipeline knows, and
    // takes one final snapshot after shutdown accounting settles so the
    // windowed series telescopes exactly to the report's totals.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler_thread = sc.series_every.map(|every| {
        let set_books = set_books.clone();
        let pipeline = Arc::clone(&pipeline);
        let stop = Arc::clone(&sampler_stop);
        let trace_hub = trace_hub.clone();
        let interval = Duration::from_nanos(every.as_nanos());
        std::thread::Builder::new()
            .name("metronome-sampler".into())
            .spawn(move || {
                let mut sampler = Sampler::new(every);
                let mut last = Instant::now();
                loop {
                    // Acquire pairs with the Release store below: once the
                    // flag reads true, every counter write the main thread
                    // made before raising it (worker counters settled by
                    // join, the sweep's books) is visible here — the
                    // final snapshot must telescope exactly. Parked until
                    // the next window; the main thread unparks this thread
                    // right after raising the flag, so the final snapshot
                    // waits for no timer.
                    while !stop.load(Ordering::Acquire) {
                        let Some(left) = interval.checked_sub(last.elapsed()) else {
                            break;
                        };
                        std::thread::park_timeout(left);
                    }
                    let stopping = stop.load(Ordering::Acquire);
                    let mut snap =
                        CounterSnapshot::new(Nanos(run_start.elapsed().as_nanos() as u64));
                    fill(&mut snap, set_books.as_ref());
                    pipeline.fill_snapshot(&mut snap, trace_hub.as_deref());
                    sampler.sample(snap);
                    last = Instant::now();
                    if stopping {
                        return sampler.into_series();
                    }
                }
            })
            .expect("spawn sampler thread")
    });

    // ---- load generation --------------------------------------------------
    // Each shard emits its slice in schedule order to exhaustion. `G = 1`
    // runs inline on this thread (the classic path, no spawn); `G > 1`
    // runs every shard on its own scoped producer thread, all offering
    // concurrently, a burst at a time per ring. The shard caches
    // flush as the shards drop, before the scoped join — the post-run
    // pool audit sees everything home. The pipeline's fault driver, when
    // the plan has a world side, runs beside the producers and stops with
    // them, handing back the stall and its confiscated buffers.
    let faults_stop = Arc::new(AtomicBool::new(false));
    let fault_driver = pipeline.fault_driver().map(|drive| {
        let stop = Arc::clone(&faults_stop);
        std::thread::Builder::new()
            .name("metronome-faults".into())
            .spawn(move || drive(&stop))
            .expect("spawn fault driver")
    });
    if gen_shards == 1 {
        producers.into_iter().for_each(Producer::run);
    } else {
        std::thread::scope(|scope| {
            for (s, producer) in producers.into_iter().enumerate() {
                std::thread::Builder::new()
                    .name(format!("metronome-gen{s}"))
                    .spawn_scoped(scope, move || producer.run())
                    .expect("spawn generator shard");
            }
        });
    }
    faults_stop.store(true, Ordering::Release);
    if let Some(driver) = fault_driver {
        driver.join().expect("fault driver panicked");
    }

    // ---- run out the horizon ----------------------------------------------
    // A source can dry up before the scenario ends (Silent traffic, an
    // OnOff off-tail): the workers must still run their idle sleep/wake
    // loop for the full configured duration, or idle-cost measurements
    // (wakes, busy fraction) would cover a spawn/teardown window instead
    // of the scenario — the sim runs the same horizon unconditionally.
    let elapsed = clock.now();
    if elapsed < sc.duration {
        std::thread::sleep(Duration::from_nanos((sc.duration - elapsed).as_nanos()));
    }

    // ---- drain and stop ---------------------------------------------------
    // Generation is over: let the workers empty the rings before stopping
    // them, bounded by a grace period. With no workers (`Idle`) there is
    // nothing to wait for: everything accepted is stranded by
    // construction. Whatever is still queued after the stop was accepted
    // but never retrieved; the sweep books it as dropped so conservation
    // stays exact, and recycles the buffers so the pool audit balances.
    if metronome.is_some() {
        pipeline.drain(DRAIN_GRACE);
    }
    let stats = metronome
        .map(|workers| pipeline.disarm(workers))
        .unwrap_or_default();
    // Busy time accrues from worker start to join — including the drain
    // tail past the traffic horizon — so CPU% must be normalized by the
    // same span, not by the scenario duration.
    let actual_wall = run_start.elapsed().as_secs_f64();
    pipeline.sweep();

    // Every buffer the pool handed out must be home again: the workers
    // recycle after each burst and each generator shard after each offer
    // (the shard caches flushed when the shards finished, the worker
    // caches when their threads exited), so a leak here is a real
    // datapath bug, not a timing artifact.
    debug_assert_eq!(pool.in_use(), 0, "mbuf leak: pool buffers unaccounted");
    debug_assert_eq!(pool.cached(), 0, "worker caches not flushed at exit");

    // Shutdown accounting is settled: release the sampler for its final
    // snapshot, so the series totals match the report's counters exactly.
    let timeseries = sampler_thread.map(|handle| {
        sampler_stop.store(true, Ordering::Release);
        handle.thread().unpark();
        handle.join().expect("sampler thread panicked")
    });
    // The books: the same final snapshot the series telescopes to.
    let mut books = CounterSnapshot::new(Nanos::ZERO);
    fill(&mut books, set_books.as_ref());
    pipeline.fill_snapshot(&mut books, None);

    // The Metronome discipline snapshots its adaptive controller at stop;
    // the lock-free baselines (and `Idle`) never touch one, so their
    // per-queue race/vacation columns read zero from a fresh instance.
    let ctrl = stats
        .controller
        .clone()
        .unwrap_or_else(|| AdaptiveController::new(worker_cfg.clone()));
    let forwarded = stats.total_processed();
    let dropped = books.dropped_ring + books.dropped_pool + books.dropped_fault;
    assert_eq!(
        books.offered,
        forwarded + dropped,
        "packet conservation violated in the realtime pipeline"
    );

    // ---- report: same columns as the simulator ----------------------------
    let mut report = RunReport::from_counts(
        sc.name.clone(),
        sc.duration,
        books.offered,
        forwarded,
        dropped,
    );
    report.dropped_ring = books.dropped_ring;
    report.dropped_pool = books.dropped_pool;
    report.dropped_fault = books.dropped_fault;
    report.mempool = Some(pool.stats());
    report.timer_slack_ns = books.timer_slack_ns;
    report.timeseries = timeseries;
    report.queues = (0..sc.n_queues)
        .map(|q| {
            let st = ctrl.queue(q);
            let ring = &pipeline.port().rings()[q];
            QueueReport {
                mean_vacation_us: st.mean_vacation().map_or(0.0, |v| v.as_micros_f64()),
                mean_busy_us: st.mean_busy().map_or(0.0, |b| b.as_micros_f64()),
                // NV (packets found queued at acquire) is not instrumented
                // on the hot path; the sim reports it.
                nv: 0.0,
                rho: ctrl.rho(q),
                total_tries: st.total_tries,
                busy_tries: st.busy_tries,
                busy_try_fraction: st.busy_try_fraction(),
                drained: stats.processed.get(q).copied().unwrap_or(0),
                dropped: ring.dropped() + ring.swept() + ring.nombuf(),
                dropped_pool: ring.nombuf(),
            }
        })
        .collect();
    // CPU: the workers' own measured awake time (the set's hub's busy
    // spans, flushed at every sleep/park/spin boundary) over the actual
    // wall span — comparable across disciplines: a busy poller reads
    // ≈100% per queue, a parked interrupt worker ≈0 at idle, Metronome in
    // between and proportional to load. This measures *occupancy*, not
    // scheduler CPU time: on an oversubscribed host a spinning worker's
    // involuntary descheduling still counts as busy, exactly like the
    // "burned core" the paper charges to static DPDK. Real deployments
    // would read /proc; the sim charges calibrated cycle costs instead.
    report.cpu_per_thread_pct = set_books.map_or_else(Vec::new, |set_books| {
        (0..set_books.n_workers())
            .map(|w| {
                set_books.worker(w).busy_nanos.load(Ordering::Relaxed) as f64
                    / 1e9
                    / actual_wall.max(f64::MIN_POSITIVE)
                    * 100.0
            })
            .collect()
    });
    report.cpu_total_pct = report.cpu_per_thread_pct.iter().sum();
    report.busy_try_fraction = ctrl.busy_try_fraction();
    report.total_wakes = stats.wakes.iter().sum();
    // Packet latency (when measured) and pacing fidelity, merged over
    // queues and generator shards.
    report.latency_us = books.latency.and_then(|h| h.boxplot_scaled(1e-3));
    report.gen_jitter_us = books.gen_jitter.and_then(|h| h.boxplot_scaled(1e-3));
    // Workers joined above, so every recorder has deposited its final
    // ring state: this dump is the complete flight record of the run.
    report.trace = trace_hub.as_ref().map(|t| t.dump());
    Ok(report)
}
