//! The service engine behind `metronomed`: a persistent realtime
//! pipeline (mempool → RSS port → retrieval workers) that outlives any
//! single scenario, with live reconfiguration and scheduled fault
//! injection.
//!
//! Where [`metronome_runtime::realtime_runner`] executes one scenario
//! start-to-finish and tears everything down, the engine keeps the
//! [`Mempool`] up between scenarios and drives the runner's own
//! [`Pipeline`] for each one — the engine is "pipeline + re-arm + control
//! socket":
//!
//! * **Submit** builds a fresh [`Pipeline`] over the shared pool, arms
//!   its worker set ([`Pipeline::arm`], which anchors the run's one
//!   clock), and spawns the producer shards ([`Pipeline::producer`] over
//!   `crate::generator` sources), as many as the pool covers.
//! * **Reconfigure** adjusts the offered rate through one atomic store
//!   (every shard reads it per poll), or re-arms the worker set for a
//!   new discipline / `M` without stopping the generator — counters stay
//!   monotone because the retiring set's books fold into the scenario's
//!   before the fresh set takes over; losses are the pipeline's books.
//! * **Drain** runs the shutdown state machine: stop the producers (the
//!   fault driver releases what it holds on exit), wait for the workers to
//!   empty the rings ([`Pipeline::drain`]), disarm them
//!   ([`Pipeline::disarm`]; their mempool caches flush on exit), sweep
//!   anything stranded ([`Pipeline::sweep`]),
//!   and audit the pool — `in_use == 0`, `cached == 0`, `allocs == frees`
//!   — before reporting exact conservation: `offered == processed +
//!   dropped`.
//!
//! A [`FaultPlan`] means here what it means in the scenario runner: its
//! arrival side goes through a [`PlannedFaults`] around each shard's
//! fault-free live-rate source, its world side through the pipeline's
//! [`Pipeline::fault_driver`], which the producer set runs beside it:
//!
//! | kind           | realization                                                  | shows up as |
//! |----------------|--------------------------------------------------------------|-------------|
//! | `rate-spike`   | the injector duplicates arrivals by the factor, a dip thins them | ring drops under overload; a dip's, fault drops |
//! | `queue-stall`  | the driver raises the stall; workers nap before each burst and the rings back up | ring drops |
//! | `pool-starve`  | the driver confiscates that fraction of the pool for the window | pool drops |
//! | `jitter-burst` | the injector drops with `drop_prob`, shifts survivors back by up to `jitter` | fault drops |
//!
//! [`FaultPlan`]: metronome_traffic::FaultPlan
//! [`PlannedFaults`]: metronome_traffic::PlannedFaults

use crate::generator::{GenShared, LiveRate, GEN_TICK};
use crate::protocol::{self, ReconfigureSpec, Request, SubmitSpec};
use metronome_core::discipline::{DisciplineSpec, Doorbell};
use metronome_core::{ExecBackend, MetronomeConfig, WorkerSet};
use metronome_dpdk::ring::valid_ring_size;
use metronome_dpdk::{Mbuf, Mempool};
use metronome_runtime::pipeline::{
    pool_population, processor_for, Pipeline, WorkerRing, MBUF_DATAROOM,
};
use metronome_sim::Nanos;
use metronome_telemetry::export::prometheus::{render, snapshot_metrics};
use metronome_telemetry::{
    CounterSnapshot, Json, MarkerKind, TraceHub, TraceRecorder, TraceSink, DEFAULT_RING_CAPACITY,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long `drain` waits for the workers to catch up with everything
/// the rings accepted before sweeping leftovers as stranded.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Fixed infrastructure the daemon owns for its whole lifetime.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Rx queues of every scenario the daemon runs.
    pub n_queues: usize,
    /// Descriptors per Rx ring.
    pub ring_size: usize,
    /// Mbuf pool population (`None`: [`pool_population`] at 16 producer
    /// shards and one worker per queue); it bounds `gen_shards`.
    pub pool_population: Option<usize>,
    /// App profile every queue processes with (must have a functional
    /// processor — see `processor_for`).
    pub app: &'static str,
    /// Seed for flow population and fault coin flips.
    pub seed: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            n_queues: 2,
            ring_size: 512,
            pool_population: None,
            app: "l3fwd-lpm",
            seed: 1,
        }
    }
}

/// Add `from`'s cumulative counters onto `into` (gauges and histograms
/// are left alone): how retired worker sets' books and closed scenarios
/// fold into the totals that keep exported counters monotone across
/// re-arms and scenarios.
fn accumulate(into: &mut CounterSnapshot, from: &CounterSnapshot) {
    into.offered += from.offered;
    into.retrieved += from.retrieved;
    into.wakeups += from.wakeups;
    into.busy_nanos += from.busy_nanos;
    into.sleep_nanos += from.sleep_nanos;
    into.oversleep_nanos += from.oversleep_nanos;
    into.dropped_ring += from.dropped_ring;
    into.dropped_pool += from.dropped_pool;
    into.dropped_fault += from.dropped_fault;
}

/// One armed worker set, replaced wholesale on a discipline/M
/// reconfigure.
struct Arm {
    workers: WorkerSet<Mbuf, WorkerRing>,
    discipline: DisciplineSpec,
    m_threads: usize,
    exec: ExecBackend,
}

impl Arm {
    /// Arm `spec` on `run`'s pipeline and point the per-queue doorbell
    /// slots at the new set.
    fn new(run: &RunState, cfg: MetronomeConfig, spec: DisciplineSpec, exec: ExecBackend) -> Arm {
        let m_threads = cfg.m_threads;
        let trace = run.trace.as_ref().map(|t| &t.hub);
        let workers = run.pipeline.arm(cfg, spec, exec, trace);
        let interrupt_driven = matches!(spec, DisciplineSpec::InterruptLike(_));
        for (q, slot) in run.bells.iter().enumerate() {
            *slot.lock() = interrupt_driven.then(|| Arc::clone(workers.doorbell(q)));
        }
        Arm {
            workers,
            discipline: spec,
            m_threads,
            exec,
        }
    }

    /// Stop the set (`Pipeline::disarm`) and fold its books into `into`,
    /// read after the join, when they are final. A set's books hold no
    /// offered packet and no loss.
    fn retire(self, pipeline: &Pipeline, into: &mut CounterSnapshot) {
        let books = self.workers.books();
        let _stats = pipeline.disarm(self.workers);
        let mut snap = CounterSnapshot::new(Nanos::ZERO);
        books.fill_snapshot(&mut snap);
        accumulate(into, &snap);
    }
}

/// The flight recorder of a running scenario: the hub the workers'
/// per-worker/per-shard recorders publish into, plus one extra
/// **control recorder** (the hub's last slot) for the daemon's own
/// reconfigure / fault-plan markers. The hub outlives re-arms — a new
/// worker set takes fresh recorders over the same slots — so one
/// `trace` dump shows the marker *and* the behaviour change after it.
struct TraceArm {
    hub: Arc<TraceHub>,
    /// Control-plane recorder (recorders are `Send`, not `Sync`; marker
    /// rates are a few per reconfigure, so a mutex is fine here).
    control: Mutex<TraceRecorder>,
}

impl TraceArm {
    /// A hub sized for `worker_slots` worker/shard recorders plus the
    /// control slot.
    fn new(worker_slots: usize, label: &str) -> TraceArm {
        let hub = Arc::new(TraceHub::labeled(
            worker_slots + 1,
            DEFAULT_RING_CAPACITY,
            label,
        ));
        let control = Mutex::new(hub.recorder(worker_slots));
        TraceArm { hub, control }
    }

    /// Record a control-plane marker and publish it immediately (markers
    /// are rare; a blocking flush here costs nothing).
    fn marker(&self, kind: MarkerKind, a: u64) {
        let control = self.control.lock();
        control.marker(kind, a);
        control.flush();
    }

    /// Worker/shard recorder slots (everything but the control slot).
    fn worker_slots(&self) -> usize {
        self.hub.n_recorders() - 1
    }
}

/// A running scenario on the persistent pipeline.
struct RunState {
    name: String,
    /// Port, apps, flow templates, lateness slots, the run's one clock,
    /// the fault plan and the loss books, kept across re-arms and
    /// `gen_shards` respawns.
    pipeline: Pipeline,
    arm: Option<Arm>,
    /// The books of the worker sets this scenario's re-arms retired
    /// (they close into [`EngineState::base`] at drain).
    folded: CounterSnapshot,
    /// Flight recorder, armed at submit (`None` when the scenario opted
    /// out with `"trace": false`).
    trace: Option<TraceArm>,
    /// The producers' stop flag and live rate, and the threads reading
    /// them: one per shard, plus the pipeline's fault driver when the
    /// plan has a world side.
    gen: Arc<GenShared>,
    gen_threads: Vec<std::thread::JoinHandle<()>>,
    /// Producer shard count of the live generator set.
    gen_shards: usize,
    /// Per-queue doorbell slots the port's wake hooks ring through
    /// (re-pointed at the new worker set on re-arm).
    bells: Vec<Arc<Mutex<Option<Arc<Doorbell>>>>>,
}

struct EngineState {
    run: Option<RunState>,
    /// The closed books of every drained scenario.
    base: CounterSnapshot,
    /// Scenarios drained to completion since startup.
    completed: u64,
}

/// The daemon's command engine: one per process, shared by the control
/// socket and the metrics listener.
pub struct ServiceEngine {
    cfg: DaemonConfig,
    pool: Mempool,
    started: Instant,
    state: Mutex<EngineState>,
    shutdown: AtomicBool,
}

impl ServiceEngine {
    /// Build the engine and its persistent mempool. Panics if `cfg.app`
    /// has no functional processor or `cfg.ring_size` is not a ring size
    /// — those are deployment errors, not request input, and must not
    /// wait for the first `submit` to surface.
    pub fn new(cfg: DaemonConfig) -> ServiceEngine {
        assert!(cfg.n_queues > 0, "need at least one queue");
        assert!(
            valid_ring_size(cfg.ring_size),
            "invalid ring size {} (must be a power of two in 32..=4096)",
            cfg.ring_size
        );
        assert!(
            processor_for(cfg.app).is_some(),
            "no functional processor wired for app profile '{}'",
            cfg.app
        );
        let population = cfg.pool_population.unwrap_or_else(|| {
            pool_population(
                cfg.n_queues,
                cfg.ring_size,
                16,
                cfg.n_queues,
                MetronomeConfig::default().burst as usize,
            )
        });
        let pool = Mempool::new(population, MBUF_DATAROOM);
        ServiceEngine {
            cfg,
            pool,
            started: Instant::now(),
            state: Mutex::new(EngineState {
                run: None,
                base: CounterSnapshot::default(),
                completed: 0,
            }),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The daemon's fixed configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Whether `shutdown` has been requested (servers drain their accept
    /// loops once this reads true).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Parse one request line and execute it: the single entry point for
    /// control connections. Malformed input becomes an error reply.
    pub fn dispatch(&self, line: &str) -> Json {
        match Request::parse(line) {
            Ok(req) => self.handle(req),
            Err(e) => protocol::err(e),
        }
    }

    /// Execute one parsed request.
    pub fn handle(&self, req: Request) -> Json {
        match req {
            Request::Ping => protocol::ok()
                .with("reply", "pong")
                .with("state", self.state_label()),
            Request::Stats => self.stats_reply(),
            Request::Trace { path } => self.trace_reply(path),
            Request::Submit(spec) => self.submit(spec),
            Request::Reconfigure(spec) => self.reconfigure(spec),
            Request::Drain => {
                let mut st = self.state.lock();
                self.drain_locked(&mut st)
            }
            // Shutdown is drain + flag, and idempotent: a second call
            // finds no run, drains trivially, and still replies ok.
            Request::Shutdown => {
                let mut st = self.state.lock();
                let reply = self.drain_locked(&mut st);
                self.shutdown.store(true, Ordering::Release);
                reply.with("shutdown", true)
            }
        }
    }

    fn state_label(&self) -> &'static str {
        if self.is_shutdown() {
            "shutdown"
        } else if self.state.lock().run.is_some() {
            "running"
        } else {
            "idle"
        }
    }

    // ---- worker arming ---------------------------------------------------

    /// The worker configuration for `m_threads` workers over the daemon's
    /// queues.
    fn shape(&self, m_threads: usize) -> Result<MetronomeConfig, String> {
        let cfg = MetronomeConfig {
            m_threads,
            n_queues: self.cfg.n_queues,
            ..MetronomeConfig::default()
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Refuse a producer set of `gen_shards` that the pool cannot cover
    /// beside `workers` workers ([`pool_population`]; every armed set has
    /// the default burst), naming the limit.
    fn check_gen_shards(&self, gen_shards: usize, workers: usize) -> Result<(), Json> {
        let (n, ring) = (self.cfg.n_queues, self.cfg.ring_size);
        let burst = MetronomeConfig::default().burst as usize;
        let fixed = pool_population(n, ring, 0, workers, burst);
        let per_shard = pool_population(n, ring, 1, workers, burst) - fixed;
        let population = self.pool.population();
        let limit = population.saturating_sub(fixed) / per_shard;
        if gen_shards <= limit {
            return Ok(());
        }
        Err(protocol::err(format!(
            "gen_shards {gen_shards} is more than the {limit} producer shards the \
             {population}-mbuf pool covers beside {workers} workers (--pool raises it)"
        ))
        .with("gen_shards_limit", limit as u64))
    }

    // ---- submit ----------------------------------------------------------

    fn submit(&self, spec: SubmitSpec) -> Json {
        if self.is_shutdown() {
            return protocol::err("daemon is shutting down");
        }
        let mut st = self.state.lock();
        if st.run.is_some() {
            return protocol::err("a scenario is already running; reconfigure it or drain first");
        }
        let m_threads = if spec.m_threads == 0 {
            self.cfg.n_queues
        } else {
            spec.m_threads
        };
        let cfg = match self.shape(m_threads) {
            Ok(cfg) => cfg,
            Err(e) => return protocol::err(e),
        };
        let workers = spec.discipline.workers(cfg.m_threads, cfg.n_queues);
        let gen_shards = Pipeline::producer_shards(spec.gen_shards);
        if let Err(refusal) = self.check_gen_shards(gen_shards, workers) {
            return refusal;
        }

        let app = self.cfg.app;
        let mut pipeline = Pipeline::new(
            self.cfg.n_queues,
            self.cfg.ring_size,
            spec.seed,
            self.pool.clone(),
            &|_q| processor_for(app).expect("app checked at startup"),
        )
        .with_faults(&spec.faults);
        // Doorbell slots. Hooks are installed before the port is shared
        // and ring through a slot, so a re-arm can re-point them without
        // `&mut` access to the port.
        let bells: Vec<Arc<Mutex<Option<Arc<Doorbell>>>>> = (0..self.cfg.n_queues)
            .map(|_| Arc::new(Mutex::new(None)))
            .collect();
        for (q, slot) in bells.iter().enumerate() {
            let slot = Arc::clone(slot);
            pipeline.port_mut().set_wake_hook(
                q,
                Arc::new(move || {
                    if let Some(bell) = slot.lock().as_ref() {
                        bell.ring();
                    }
                }),
            );
        }
        let trace = spec
            .trace
            .then(|| TraceArm::new(spec.exec.trace_slots(workers), &spec.name));
        if let Some(trace) = &trace {
            // Stamp the armed fault plan into the recorder so a later
            // dump shows what was scheduled before what happened.
            if !spec.faults.is_empty() {
                trace.marker(MarkerKind::FaultPlan, spec.faults.len() as u64);
            }
        }

        let reply = protocol::ok()
            .with("submitted", spec.name.as_str())
            .with("discipline", spec.discipline.label())
            .with("exec", spec.exec.label())
            .with("workers", workers as u64)
            .with("gen_shards", gen_shards as u64)
            .with("rate_pps", spec.rate_pps)
            .with("fault_events", spec.faults.len() as u64)
            .with("fault_kinds", spec.faults.distinct_kinds() as u64)
            .with("trace", trace.is_some());
        let mut run = RunState {
            name: spec.name,
            pipeline,
            arm: None,
            folded: CounterSnapshot::default(),
            trace,
            gen: GenShared::new(spec.rate_pps),
            gen_threads: Vec::new(),
            gen_shards,
            bells,
        };
        run.arm = Some(Arm::new(&run, cfg, spec.discipline, spec.exec));
        self.spawn_generators(&mut run);
        st.run = Some(run);
        reply
    }

    /// Spawn `run`'s producer set at its current `gen_shards` width: one
    /// thread per shard, each owning its slice of the flow population and
    /// producing concurrently onto the port's Rx rings (a burst at a time
    /// per ring), each a [`LiveRate`] source the pipeline assembles into a
    /// producer shard, polled every [`GEN_TICK`], plus the pipeline's
    /// fault driver when the plan has a world side.
    /// The previous set, if any, has been joined: the stop flag is free.
    fn spawn_generators(&self, run: &mut RunState) {
        run.gen.stop.store(false, Ordering::Release);
        let (n_shards, clock) = (run.gen_shards, run.pipeline.clock());
        let mut handles = Vec::with_capacity(n_shards + 1);
        for shard in 0..n_shards {
            let source = LiveRate::new(Arc::clone(&run.gen), n_shards, clock.now());
            let producer = run
                .pipeline
                .producer(shard, n_shards, Box::new(source), Nanos(u64::MAX))
                .with_poll(GEN_TICK);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("metronomed-gen{shard}"))
                    .spawn(move || producer.run())
                    .expect("spawn generator thread"),
            );
        }
        if let Some(drive) = run.pipeline.fault_driver() {
            let shared = Arc::clone(&run.gen);
            handles.push(
                std::thread::Builder::new()
                    .name("metronomed-faults".into())
                    .spawn(move || drive(&shared.stop))
                    .expect("spawn fault driver thread"),
            );
        }
        run.gen_threads = handles;
    }

    /// Stop and join `run`'s producer set: shard caches flush, the fault
    /// driver releases the stall flag and its confiscated buffers. (A
    /// producer that panicked shows up in the drain audit.)
    fn stop_generators(run: &mut RunState) {
        run.gen.stop.store(true, Ordering::Release);
        for handle in run.gen_threads.drain(..) {
            let _ = handle.join();
        }
    }

    // ---- reconfigure -----------------------------------------------------

    fn reconfigure(&self, spec: ReconfigureSpec) -> Json {
        let mut st = self.state.lock();
        let Some(run) = st.run.as_mut() else {
            return protocol::err("no scenario is running; submit one first");
        };
        // Validate before anything is applied, so an error reply always
        // means "nothing changed": resolve the worker shape and check the
        // producer width against the pool first, so a rejected `m` or
        // `gen_shards` cannot leave a new rate behind.
        let old = run
            .arm
            .as_ref()
            .expect("running scenario always has an arm");
        let rearm = if spec.discipline.is_some() || spec.m_threads.is_some() || spec.exec.is_some()
        {
            let discipline = spec.discipline.unwrap_or(old.discipline);
            match self.shape(spec.m_threads.unwrap_or(old.m_threads)) {
                Ok(cfg) => {
                    let workers = discipline.workers(cfg.m_threads, cfg.n_queues);
                    Some((discipline, spec.exec.unwrap_or(old.exec), cfg, workers))
                }
                Err(e) => return protocol::err(e),
            }
        } else {
            None
        };
        let gen_shards = spec.gen_shards.map(Pipeline::producer_shards);
        if rearm.is_some() || gen_shards.is_some() {
            let workers = rearm
                .as_ref()
                .map_or(old.workers.books().n_workers(), |r| r.3);
            if let Err(refusal) =
                self.check_gen_shards(gen_shards.unwrap_or(run.gen_shards), workers)
            {
                return refusal;
            }
        }
        let mut changed: Vec<&'static str> = Vec::new();

        if let Some(rate) = spec.rate_pps {
            run.gen.rate_bits.store(rate.to_bits(), Ordering::Relaxed);
            changed.push("rate_pps");
        }

        if let Some((discipline, exec, cfg, workers)) = rearm {
            let old = run.arm.take().expect("running scenario always has an arm");
            // Re-arm sequence, ordered so no count is ever lost: 1. disarm
            // the old set — mid-stall workers fall through, then join —
            // only now are its books final — 2. fold them, 3. spawn the
            // new set through `Pipeline::arm` over fresh consumer handles,
            // with books of its own. The producers never see a set's books.
            old.retire(&run.pipeline, &mut run.folded);
            // The trace hub persists across re-arms (markers and recent
            // history survive; the fresh workers take recorders over the
            // same slots) — unless the new shape needs more slots than
            // the hub has, in which case it is rebuilt larger.
            let recorders = exec.trace_slots(workers);
            if let Some(trace) = &run.trace {
                if trace.worker_slots() < recorders {
                    run.trace = Some(TraceArm::new(recorders, &run.name));
                }
            }
            run.arm = Some(Arm::new(run, cfg, discipline, exec));
            if spec.discipline.is_some() {
                changed.push("discipline");
            }
            if spec.m_threads.is_some() {
                changed.push("m");
            }
            if spec.exec.is_some() {
                changed.push("exec");
            }
        }

        if let Some(g) = gen_shards {
            if g != run.gen_shards {
                // Retire the old producer set, then respawn at the new
                // width on the same clock and the same live rate.
                Self::stop_generators(run);
                run.gen_shards = g;
                self.spawn_generators(run);
            }
            changed.push("gen_shards");
        }

        let arm = run.arm.as_ref().expect("re-armed above");
        // Stamp the reconfigure into the flight recorder so a later dump
        // correlates the marker with the behaviour change around it.
        if let Some(trace) = &run.trace {
            trace.marker(MarkerKind::Reconfigure, changed.len() as u64);
        }
        protocol::ok()
            .with(
                "changed",
                Json::Arr(changed.into_iter().map(Json::from).collect()),
            )
            .with("discipline", arm.discipline.label())
            .with("m", arm.m_threads as u64)
            .with("exec", arm.exec.label())
            .with("gen_shards", run.gen_shards as u64)
            .with("rate_pps", run.gen.rate_pps())
    }

    // ---- drain -----------------------------------------------------------

    /// The drain state machine. Idempotent: with nothing running it
    /// reports the (clean) pool audit and `"state": "idle"`.
    fn drain_locked(&self, st: &mut EngineState) -> Json {
        let Some(mut run) = st.run.take() else {
            let (allocs, frees) = self.pool.counters();
            return protocol::ok()
                .with("state", "idle")
                .with("already_drained", true)
                .with("pool_in_use", self.pool.in_use() as u64)
                .with("pool_materialized", self.pool.stats().materialized)
                .with("pool_cached", self.pool.cached() as u64)
                .with("allocs", allocs)
                .with("frees", frees)
                .with(
                    "pool_balanced",
                    self.pool.in_use() == 0 && self.pool.cached() == 0,
                );
        };

        // 1. Stop the producers: every shard flushes its cache, the fault
        //    driver frees confiscated buffers and clears the stall flag.
        Self::stop_generators(&mut run);

        // 2. Generation is over; wait for the workers to empty the rings,
        //    bounded by a grace period.
        run.pipeline.drain(DRAIN_GRACE);

        // 3. Join the workers (counters settle, caches flush) and fold
        //    their books.
        if let Some(arm) = run.arm.take() {
            arm.retire(&run.pipeline, &mut run.folded);
        }

        // 4. Sweep anything still queued (only possible if the grace
        //    period expired) as ring drops, and close the scenario's
        //    books — the same snapshot `stats` shows — into the base.
        let stranded = run.pipeline.sweep();
        run.pipeline.fill_snapshot(&mut run.folded, None);
        accumulate(&mut st.base, &run.folded);
        st.completed += 1;

        // 5. Audit: every buffer home, every packet accounted.
        let base = &st.base;
        let (allocs, frees) = self.pool.counters();
        let dropped = base.dropped_ring + base.dropped_pool + base.dropped_fault;
        let conserved = base.offered == base.retrieved + dropped;
        let pool_balanced = self.pool.in_use() == 0 && self.pool.cached() == 0 && allocs == frees;
        protocol::ok()
            .with("state", "drained")
            .with("scenario", run.name.as_str())
            .with("offered", base.offered)
            .with("processed", base.retrieved)
            .with("dropped", dropped)
            .with("dropped_ring", base.dropped_ring)
            .with("dropped_pool", base.dropped_pool)
            .with("dropped_fault", base.dropped_fault)
            .with("stranded", stranded)
            .with("conserved", conserved)
            .with("pool_in_use", self.pool.in_use() as u64)
            .with("pool_materialized", self.pool.stats().materialized)
            .with("pool_cached", self.pool.cached() as u64)
            .with("allocs", allocs)
            .with("frees", frees)
            .with("pool_balanced", pool_balanced)
    }

    // ---- observability ---------------------------------------------------

    /// One coherent counter snapshot: the live set's books, the books of
    /// the sets the running scenario's re-arms retired and everything its
    /// pipeline knows, plus
    /// the books of every drained scenario. This is what both the
    /// `stats` command and the Prometheus endpoint export.
    pub fn snapshot(&self) -> CounterSnapshot {
        let st = self.state.lock();
        let mut snap = CounterSnapshot::new(Nanos(self.started.elapsed().as_nanos() as u64));
        match &st.run {
            Some(run) => {
                if let Some(arm) = &run.arm {
                    arm.workers.books().fill_snapshot(&mut snap);
                }
                accumulate(&mut snap, &run.folded);
                let trace = run.trace.as_ref().map(|t| &*t.hub);
                run.pipeline.fill_snapshot(&mut snap, trace);
            }
            // Between scenarios only the pool is live.
            None => {
                snap.pool_in_use = self.pool.in_use() as u64;
                snap.pool_cached = self.pool.cached() as u64;
            }
        }
        accumulate(&mut snap, &st.base);
        snap
    }

    /// The Prometheus text exposition of [`ServiceEngine::snapshot`]
    /// (what the HTTP listener serves on `/metrics`).
    pub fn prometheus_text(&self) -> String {
        render(&snapshot_metrics(&self.snapshot()))
    }

    /// The `/healthz` reply body: liveness plus coarse state, cheap
    /// enough for an aggressive prober (no counter walk, no port poll).
    pub fn health_json(&self) -> Json {
        let st = self.state.lock();
        Json::obj()
            .with("status", "ok")
            .with("state", self.state_label_locked(&st))
            .with("uptime_ms", self.started.elapsed().as_millis() as u64)
            .with("completed_runs", st.completed)
    }

    /// The `trace` command: dump the running scenario's flight recorder.
    /// The summary (per-ring event/drop counts, histogram quantiles) is
    /// always inline; the full Chrome trace-event JSON goes inline when
    /// no `path` was named, else to the file at `path`.
    fn trace_reply(&self, path: Option<String>) -> Json {
        let st = self.state.lock();
        let Some(run) = st.run.as_ref() else {
            return protocol::err("no scenario is running; submit one first");
        };
        let Some(trace) = &run.trace else {
            return protocol::err(
                "tracing is disabled for this scenario (it was submitted with \"trace\": false)",
            );
        };
        // Publish any still-buffered control markers; worker recorders
        // flush opportunistically, so their rings may trail by up to one
        // flush interval — the dump is a snapshot, not a barrier.
        trace.control.lock().flush();
        let dump = trace.hub.dump();
        let mut reply = protocol::ok()
            .with("scenario", run.name.as_str())
            .with("workers", dump.workers.len() as u64)
            .with("events", dump.total_events() as u64)
            .with("dropped_events", dump.total_dropped())
            .with("summary", dump.summary_json());
        match path {
            Some(p) => {
                let chrome = dump.chrome_json().render();
                if let Err(e) = std::fs::write(&p, chrome.as_bytes()) {
                    return protocol::err(format!("cannot write {p:?}: {e}"));
                }
                reply.push("written", p.as_str());
                reply.push("bytes", chrome.len() as u64);
            }
            None => {
                reply.push("chrome", dump.chrome_json());
            }
        }
        reply
    }

    fn stats_reply(&self) -> Json {
        let snap = self.snapshot();
        let st = self.state.lock();
        // Effective backend of the live arm (post-clamp shard count from
        // the worker set itself, not the requested figure); idle daemons
        // report "none" / 0 so the fields are always present.
        let (exec_backend, shards) =
            st.run
                .as_ref()
                .and_then(|r| r.arm.as_ref())
                .map_or(("none", 0u64), |arm| match arm.workers.exec() {
                    ExecBackend::Threads => ("threads", 0),
                    ExecBackend::Async { shards } => ("async", shards as u64),
                });
        let mut reply = protocol::ok()
            .with("state", self.state_label_locked(&st))
            .with("uptime_s", snap.at.as_secs_f64())
            .with("uptime_ms", snap.at.as_nanos() / 1_000_000)
            .with("exec_backend", exec_backend)
            .with("shards", shards)
            .with(
                "gen_shards",
                st.run.as_ref().map_or(0u64, |r| r.gen_shards as u64),
            )
            .with("completed_runs", st.completed)
            .with("offered", snap.offered)
            .with("processed", snap.retrieved)
            .with(
                "dropped",
                snap.dropped_ring + snap.dropped_pool + snap.dropped_fault,
            )
            .with("dropped_ring", snap.dropped_ring)
            .with("dropped_pool", snap.dropped_pool)
            .with("dropped_fault", snap.dropped_fault)
            .with("wakeups", snap.wakeups)
            .with("busy_nanos", snap.busy_nanos)
            .with("pool_in_use", snap.pool_in_use)
            .with("pool_materialized", self.pool.stats().materialized)
            .with("pool_cached", snap.pool_cached)
            .with("timer_slack_ns", snap.timer_slack_ns)
            .with(
                "occupancy",
                Json::Arr(snap.occupancy.iter().map(|&o| o.into()).collect()),
            );
        if let Some(h) = snap.latency.as_ref().filter(|h| h.count() > 0) {
            for (key, q) in [("latency_p50_us", 0.5), ("latency_p99_us", 0.99)] {
                reply.push(key, h.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3));
            }
        }
        if let Some(run) = &st.run {
            reply.push("scenario", run.name.as_str());
            reply.push("trace", run.trace.is_some());
            if let Some(arm) = &run.arm {
                reply.push("discipline", arm.discipline.label());
                reply.push("m", arm.m_threads as u64);
                reply.push("exec", arm.exec.label());
            }
            reply.push("rate_pps", run.gen.rate_pps());
            reply.push("stalled", run.pipeline.stall_raised());
        }
        reply
    }

    fn state_label_locked(&self, st: &EngineState) -> &'static str {
        if self.is_shutdown() {
            "shutdown"
        } else if st.run.is_some() {
            "running"
        } else {
            "idle"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bad_ring_size_is_refused_at_startup_not_at_the_first_submit() {
        let with_ring = |ring_size| {
            std::panic::catch_unwind(|| {
                ServiceEngine::new(DaemonConfig {
                    ring_size,
                    ..DaemonConfig::default()
                })
            })
        };
        for bad in [500, 16, 8192] {
            assert!(with_ring(bad).is_err(), "accepted --ring {bad}");
        }
        assert!(with_ring(512).is_ok());
    }

    #[test]
    fn the_pool_sets_the_producer_limit() {
        let limit = |refusal: Json| refusal.get("gen_shards_limit").and_then(Json::as_u64);
        // The default pool covers 16 shards beside one worker per queue,
        // a shard fewer beside a wider set.
        let engine = ServiceEngine::new(DaemonConfig::default());
        assert!(engine.check_gen_shards(16, 2).is_ok());
        assert_eq!(limit(engine.check_gen_shards(17, 2).unwrap_err()), Some(16));
        assert_eq!(
            limit(engine.check_gen_shards(16, 10).unwrap_err()),
            Some(15)
        );
        // `--pool` raises it.
        let engine = ServiceEngine::new(DaemonConfig {
            pool_population: Some(pool_population(2, 512, 64, 2, 32)),
            ..DaemonConfig::default()
        });
        assert!(engine.check_gen_shards(64, 2).is_ok());
        assert_eq!(limit(engine.check_gen_shards(65, 2).unwrap_err()), Some(64));
    }
}
