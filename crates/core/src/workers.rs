//! The one way to start retrieval workers: [`WorkerSet::builder`].
//!
//! A worker set is `spec.workers(M, N)` [`RetrievalDiscipline`] state
//! machines over `N` Rx queues, each worker owning a
//! [`RealtimeBackend`] on one shared state (controller, trylocks,
//! processed counters, doorbells). Where they execute is the
//! [`ExecBackend`]: one OS thread per worker (`crate::realtime`), or
//! cooperative tasks on a sharded executor (`crate::executor`).
//!
//! ```text
//! WorkerSet::builder(cfg, spec, queues)   // required
//!     .exec(ExecBackend::Async { shards: 2 })   // default: Threads
//!     .telemetry(&hub)                          // default: NullSink
//!     .trace(&trace_hub)                        // default: NullTrace
//!     .spawn(|worker| move |queue, burst| { .. })
//! ```
//!
//! `spawn` picks the worker loop monomorphized for the chosen sinks, so
//! a set without telemetry or tracing runs the loop with every publish
//! and record call compiled out.
//!
//! [`RetrievalDiscipline`]: crate::discipline::RetrievalDiscipline

use crate::config::MetronomeConfig;
use crate::discipline::{AnyDiscipline, DisciplineSpec, Doorbell};
use crate::engine::Backend;
use crate::executor::{spawn_shards, Injector, ShardHandle};
use crate::policy::ThreadPolicy;
use crate::realtime::{collect_stats, spawn_threads, RealtimeBackend, RealtimeStats, SharedState};
use crate::rxqueue::{Consume, RxQueue};
use crossbeam::queue::ArrayQueue;
use metronome_sim::Nanos;
use metronome_telemetry::{NullSink, NullTrace, TelemetryHub, TelemetrySink, TraceHub, TraceSink};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Which execution backend a worker set runs on: one OS thread per
/// worker (the paper's model) or cooperative tasks on a sharded async
/// executor (the 1000+-queue scale path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecBackend {
    /// One OS thread per worker.
    #[default]
    Threads,
    /// Cooperative tasks on `shards` executor threads; `shards` is
    /// clamped to `[1, worker count]`.
    Async {
        /// Executor threads to spread the task set over.
        shards: usize,
    },
}

impl ExecBackend {
    /// Stable lowercase label ("threads" / "async") for protocols and
    /// reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Threads => "threads",
            ExecBackend::Async { .. } => "async",
        }
    }

    /// How many trace-ring recorder slots a set of `workers` workers
    /// records into — one per OS thread it runs on: one per worker on
    /// the thread backend, one per shard (after clamping to the worker
    /// count) on the executor. Size a [`TraceHub`] with at least this
    /// many recorders before handing it to [`WorkerSetBuilder::trace`].
    pub fn trace_slots(self, workers: usize) -> usize {
        match self {
            ExecBackend::Threads => workers,
            ExecBackend::Async { shards } => shards.clamp(1, workers.max(1)),
        }
    }
}

/// A worker set about to start: the required shape plus the optional
/// backend and sinks. Built by [`WorkerSet::builder`], consumed by
/// [`WorkerSetBuilder::spawn`].
pub struct WorkerSetBuilder<T: Send + 'static, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    cfg: MetronomeConfig,
    spec: DisciplineSpec,
    queues: Vec<Q>,
    exec: ExecBackend,
    telemetry: Option<Arc<TelemetryHub>>,
    trace: Option<Arc<TraceHub>>,
    _item: PhantomData<fn() -> T>,
}

impl<T: Send + 'static, Q: RxQueue<T>> WorkerSetBuilder<T, Q> {
    /// Run the set on `exec` instead of one OS thread per worker.
    pub fn exec(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
        self
    }

    /// Publish into `hub`: every worker reports wakes, busy/sleep time,
    /// drained bursts and `TS` updates (relaxed loads and stores at
    /// protocol grain — the hot path takes no lock, executes no atomic
    /// read-modify-write and allocates nothing for telemetry). Each
    /// worker claims its slot of the hub until it exits. The hub needs
    /// one worker slot per worker (`spec.workers(..)`, on either backend)
    /// and `cfg.n_queues` queue slots.
    pub fn telemetry(mut self, hub: &Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(Arc::clone(hub));
        self
    }

    /// Record into the flight recorder `trace`: compact binary events
    /// (turn verdicts, sleep precision, park/unpark, drained bursts)
    /// plus wake-latency and oversleep histograms. Recorder grain follows
    /// the backend — a ring per worker on threads, a ring per shard on
    /// the executor (whose shards add slice, vruntime-pick and timer-wheel
    /// events, with the worker id in the payload). The hub needs at least
    /// [`ExecBackend::trace_slots`] recorders; slots beyond that stay
    /// empty (callers may reserve extras for control-plane markers).
    pub fn trace(mut self, trace: &Arc<TraceHub>) -> Self {
        self.trace = Some(Arc::clone(trace));
        self
    }

    /// Start the workers. `make_consumer(worker)` is called once per
    /// worker and the returned [`Consume`]r — any `FnMut(queue, &mut
    /// burst)` is one — is moved onto that worker, so per-worker state (a
    /// mempool cache, a flow-table shard) rides into the hot path with no
    /// synchronization.
    ///
    /// # Panics
    /// If the config is invalid, the queue count is not `cfg.n_queues`,
    /// or a telemetry / trace hub is mis-sized for the worker set.
    pub fn spawn<P>(self, mut make_consumer: impl FnMut(usize) -> P) -> WorkerSet<T, Q>
    where
        P: Consume<T> + Send + 'static,
    {
        let (cfg, spec, exec) = (self.cfg, self.spec, self.exec);
        cfg.validate().expect("invalid Metronome configuration");
        assert_eq!(self.queues.len(), cfg.n_queues, "queue count mismatch");
        let n_workers = spec.workers(cfg.m_threads, cfg.n_queues);
        if let Some(hub) = &self.telemetry {
            assert_eq!(hub.n_workers(), n_workers, "hub/config worker mismatch");
            assert_eq!(hub.n_queues(), cfg.n_queues, "hub/config queue mismatch");
        }
        if let Some(trace) = &self.trace {
            assert!(
                trace.n_recorders() >= exec.trace_slots(n_workers),
                "trace hub has {} recorder slots, the worker set records into {}",
                trace.n_recorders(),
                exec.trace_slots(n_workers)
            );
        }
        let shared = SharedState::new(&cfg);
        let epoch = shared.epoch;
        let stop = Arc::new(AtomicBool::new(false));
        // Every worker drives the same RealtimeBackend the single-threaded
        // harness hands out (the parity tests drive exactly this
        // substrate), with its own consumer.
        let workers: Vec<_> = (0..n_workers)
            .map(|worker| {
                (
                    spec.build(worker, cfg.n_queues, cfg.burst, &shared.doorbells),
                    RealtimeBackend::new(
                        self.queues.clone(),
                        Arc::clone(&shared),
                        make_consumer(worker),
                    ),
                )
            })
            .collect();
        let label = spec.label();
        let joins = match (self.telemetry, self.trace) {
            (None, None) => start(
                exec,
                label,
                workers,
                &stop,
                epoch,
                |_| NullSink,
                |_| NullTrace,
            ),
            (Some(hub), None) => start(
                exec,
                label,
                workers,
                &stop,
                epoch,
                move |worker| hub.worker_sink(worker),
                |_| NullTrace,
            ),
            (None, Some(trace)) => start(
                exec,
                label,
                workers,
                &stop,
                epoch,
                |_| NullSink,
                move |slot| trace.recorder(slot),
            ),
            (Some(hub), Some(trace)) => start(
                exec,
                label,
                workers,
                &stop,
                epoch,
                move |worker| hub.worker_sink(worker),
                move |slot| trace.recorder(slot),
            ),
        };
        WorkerSet {
            queues: self.queues,
            shared,
            stop,
            joins,
            _item: PhantomData,
        }
    }
}

/// Hand the prepared workers to `exec`'s spawn function, with the stop
/// flag and the clock epoch their drivers share with their backends.
/// `make_sink` is called per worker, `make_tracer` per recorder slot.
fn start<B, S, R>(
    exec: ExecBackend,
    label: &str,
    workers: Vec<(AnyDiscipline, B)>,
    stop: &Arc<AtomicBool>,
    epoch: Instant,
    make_sink: impl Fn(usize) -> S,
    make_tracer: impl Fn(usize) -> R,
) -> Joins
where
    B: Backend + Send + 'static,
    S: TelemetrySink + Send + 'static,
    R: TraceSink + Send + 'static,
{
    match exec {
        ExecBackend::Threads => Joins::Threads(spawn_threads(
            label,
            workers,
            stop,
            epoch,
            make_sink,
            make_tracer,
        )),
        ExecBackend::Async { .. } => {
            // One recorder slot per shard thread: the clamped shard count.
            let shards = exec.trace_slots(workers.len());
            let (injectors, handles) =
                spawn_shards(label, workers, shards, stop, epoch, make_sink, make_tracer);
            Joins::Async { injectors, handles }
        }
    }
}

/// What [`WorkerSet::stop`] joins.
enum Joins {
    Threads(Vec<JoinHandle<ThreadPolicy>>),
    Async {
        injectors: Vec<Arc<Injector>>,
        handles: Vec<ShardHandle>,
    },
}

/// A running worker set over queues of `T`, on either backend.
pub struct WorkerSet<T: Send + 'static, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    shared: Arc<SharedState>,
    stop: Arc<AtomicBool>,
    joins: Joins,
    _item: PhantomData<fn() -> T>,
}

impl<T: Send + 'static, Q: RxQueue<T>> WorkerSet<T, Q> {
    /// A worker set running `spec` over `queues` (which must match
    /// `cfg.n_queues`): `cfg.m_threads` racing workers for
    /// [`DisciplineSpec::Metronome`], one pinned worker per queue for the
    /// BusyPoll / InterruptLike / ConstSleep baselines (which ignore the
    /// trylock layer entirely — classic DPDK and XDP have no queue race).
    pub fn builder(
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
    ) -> WorkerSetBuilder<T, Q> {
        WorkerSetBuilder {
            cfg,
            spec,
            queues,
            exec: ExecBackend::default(),
            telemetry: None,
            trace: None,
            _item: PhantomData,
        }
    }

    /// Which backend this set runs on (for the executor, the shard count
    /// after clamping).
    pub fn exec(&self) -> ExecBackend {
        match &self.joins {
            Joins::Threads(_) => ExecBackend::Threads,
            Joins::Async { handles, .. } => ExecBackend::Async {
                shards: handles.len(),
            },
        }
    }

    /// The Rx queues (for producers to push into).
    pub fn queues(&self) -> &[Q] {
        &self.queues
    }

    /// Queue `q`'s wake-up doorbell. A producer feeding an InterruptLike
    /// worker set must ring it after enqueuing (once per burst); for the
    /// other disciplines ringing is harmless and ignored.
    pub fn doorbell(&self, q: usize) -> &Arc<Doorbell> {
        &self.shared.doorbells[q]
    }

    /// Items processed so far on a queue.
    pub fn processed(&self, queue: usize) -> u64 {
        self.shared.processed(queue)
    }

    /// Current smoothed load estimate of a queue.
    pub fn rho(&self, queue: usize) -> f64 {
        self.shared.rho(queue)
    }

    /// Current adaptive TS of a queue.
    pub fn ts(&self, queue: usize) -> Nanos {
        self.shared.ts(queue)
    }

    /// Stop all workers and collect final statistics, in worker order on
    /// either backend.
    pub fn stop(self) -> RealtimeStats {
        self.stop.store(true, Ordering::Relaxed);
        let policies = match self.joins {
            Joins::Threads(handles) => handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect(),
            Joins::Async { injectors, handles } => {
                // A shard may be blocked idle: rouse it to see the flag.
                for injector in &injectors {
                    injector.notify();
                }
                let mut policies: Vec<(usize, ThreadPolicy)> = handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("executor shard panicked"))
                    .collect();
                policies.sort_by_key(|&(id, _)| id);
                policies.into_iter().map(|(_, p)| p).collect()
            }
        };
        collect_stats(&self.shared, policies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::ModerationConfig;
    use metronome_telemetry::TraceEventKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    const EXECS: [ExecBackend; 3] = [
        ExecBackend::Threads,
        ExecBackend::Async { shards: 1 },
        ExecBackend::Async { shards: 2 },
    ];

    /// How long the table test leaves the queues empty between its two
    /// halves: several times the longest sleep any discipline takes.
    const IDLE_GAP: Duration = Duration::from_millis(5);

    /// M = 3 over N = 2: three racing Metronome workers, or two pinned
    /// baseline workers.
    fn cfg() -> MetronomeConfig {
        MetronomeConfig {
            m_threads: 3,
            n_queues: 2,
            ..MetronomeConfig::default()
        }
    }

    fn queues(cap: usize) -> Vec<Arc<ArrayQueue<u64>>> {
        (0..2).map(|_| Arc::new(ArrayQueue::new(cap))).collect()
    }

    fn idle(_worker: usize) -> impl FnMut(usize, &mut Vec<u64>) + Send + 'static {
        |_q, burst| burst.clear()
    }

    /// The single spawn path, end to end: every backend × sink choice ×
    /// discipline drains a fixed item count exactly once, reports it
    /// consistently on every surface that is switched on, and refuses
    /// hubs that do not fit the worker set.
    #[test]
    fn every_backend_sink_and_discipline_combination_conserves() {
        const PER_QUEUE: u64 = 1_000;
        let n = 2 * PER_QUEUE;
        let specs = [
            DisciplineSpec::Metronome,
            DisciplineSpec::BusyPoll,
            DisciplineSpec::InterruptLike(ModerationConfig::default()),
            DisciplineSpec::ConstSleep(Nanos::from_micros(200)),
        ];
        for exec in EXECS {
            // Mis-sized hubs are rejected before anything spawns.
            let builder =
                || WorkerSet::builder(cfg(), DisciplineSpec::Metronome, queues(8)).exec(exec);
            let slots = exec.trace_slots(3);
            let rejected = [
                catch_unwind(AssertUnwindSafe(|| {
                    builder().telemetry(&TelemetryHub::new(4, 2)).spawn(idle)
                })),
                catch_unwind(AssertUnwindSafe(|| {
                    builder().telemetry(&TelemetryHub::new(3, 1)).spawn(idle)
                })),
                catch_unwind(AssertUnwindSafe(|| {
                    builder()
                        .trace(&Arc::new(TraceHub::new(slots - 1, 64)))
                        .spawn(idle)
                })),
            ];
            for (i, r) in rejected.into_iter().enumerate() {
                assert!(r.is_err(), "{exec:?}: mis-sized hub {i} was accepted");
            }

            for (telemetry_on, trace_on) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                for spec in &specs {
                    let case = format!(
                        "{exec:?} telemetry={telemetry_on} trace={trace_on} {}",
                        spec.label()
                    );
                    let workers = spec.workers(3, 2);
                    let slots = exec.trace_slots(workers);
                    let hub = TelemetryHub::new(workers, 2);
                    // One spare slot, to show the set writes only its own.
                    let trace = Arc::new(TraceHub::new(slots + 1, 4096));
                    let queues = queues(4096);
                    let seen = Arc::new(AtomicU64::new(0));
                    let sum = Arc::new(AtomicU64::new(0));
                    let mut builder = WorkerSet::builder(cfg(), *spec, queues.clone()).exec(exec);
                    if telemetry_on {
                        builder = builder.telemetry(&hub);
                    }
                    if trace_on {
                        builder = builder.trace(&trace);
                    }
                    let set = builder.spawn(|_worker| {
                        let seen = Arc::clone(&seen);
                        let sum = Arc::clone(&sum);
                        move |_q, burst: &mut Vec<u64>| {
                            for item in burst.drain(..) {
                                seen.fetch_add(1, Ordering::Relaxed);
                                sum.fetch_add(item, Ordering::Relaxed);
                            }
                        }
                    });
                    assert_eq!(set.exec(), exec, "{case}");

                    // Two halves with an idle gap between them, so that a
                    // wake follows from the test's shape and not from
                    // scheduling: once the first half is drained the
                    // queues are empty for longer than the longest sleep
                    // (TL = 500 µs), so every worker that can sleep or
                    // park has done so before the second half arrives.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    for half in [0..n / 2, n / 2..n] {
                        let upto = half.end;
                        for i in half {
                            let q = (i % 2) as usize;
                            while set.queues()[q].push(i).is_err() {
                                std::thread::yield_now();
                            }
                            if i % 32 == 0 {
                                set.doorbell(q).ring();
                            }
                        }
                        set.doorbell(0).ring();
                        set.doorbell(1).ring();
                        while set.processed(0) + set.processed(1) < upto
                            && Instant::now() < deadline
                        {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        std::thread::sleep(IDLE_GAP);
                    }
                    let stats = set.stop();

                    assert_eq!(stats.total_processed(), n, "{case}: lost or stalled");
                    assert_eq!(stats.processed, [PER_QUEUE; 2], "{case}: per queue");
                    assert_eq!(seen.load(Ordering::Relaxed), n, "{case}: closure calls");
                    assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2, "{case}: dups");
                    // One policy per worker, in worker order, on either
                    // backend. Busy pollers never sleep, so never wake.
                    assert_eq!(stats.wakes.len(), workers, "{case}");
                    let wakes: u64 = stats.wakes.iter().sum();
                    match spec {
                        DisciplineSpec::BusyPoll => assert_eq!(wakes, 0, "{case}"),
                        _ => assert!(wakes > 0, "{case}: never woke"),
                    }

                    let worker_sum = |f: fn(&metronome_telemetry::WorkerCounters) -> &AtomicU64| {
                        (0..workers)
                            .map(|w| f(hub.worker(w)).load(Ordering::Relaxed))
                            .sum::<u64>()
                    };
                    if telemetry_on {
                        // Same events, counted on two independent paths.
                        assert_eq!(hub.total_retrieved(), n, "{case}");
                        assert_eq!(hub.total_wakeups(), wakes, "{case}");
                        assert!(worker_sum(|w| &w.busy_nanos) > 0, "{case}: no busy span");
                        if !matches!(spec, DisciplineSpec::BusyPoll) {
                            assert!(worker_sum(|w| &w.sleep_nanos) > 0, "{case}: no sleep");
                        }
                        if matches!(spec, DisciplineSpec::Metronome) {
                            assert!(hub.queue(0).ts_ns.load(Ordering::Relaxed) > 0, "{case}");
                        }
                    } else {
                        assert_eq!(hub.total_retrieved(), 0, "{case}: hub written");
                    }

                    let dump = trace.dump();
                    let written = dump
                        .workers
                        .iter()
                        .filter(|w| w.events.len() as u64 + w.dropped > 0)
                        .count();
                    if !trace_on {
                        assert_eq!(written, 0, "{case}: trace written");
                        continue;
                    }
                    assert_eq!(written, slots, "{case}: recorders written");
                    if matches!(spec, DisciplineSpec::Metronome) {
                        // Sleeps carry the requested-vs-actual split.
                        assert!(dump.kind_count(TraceEventKind::Sleep) > 0, "{case}");
                    }
                    if exec != ExecBackend::Threads {
                        // Scheduler introspection: slices bracket, picks
                        // carry their delay, timed sleeps ride the wheel.
                        for kind in [
                            TraceEventKind::SliceBegin,
                            TraceEventKind::SliceEnd,
                            TraceEventKind::SchedPick,
                        ] {
                            assert!(dump.kind_count(kind) > 0, "{case}: no {kind:?}");
                        }
                        if matches!(spec, DisciplineSpec::Metronome) {
                            assert!(dump.kind_count(TraceEventKind::WheelInsert) > 0, "{case}");
                            assert!(dump.kind_count(TraceEventKind::WheelFire) > 0, "{case}");
                        }
                    }
                    if telemetry_on {
                        // Burst events mirror the hub's bursts counter 1:1
                        // and the oversleep histogram sums to the hub's
                        // oversleep counter.
                        let bursts: u64 = (0..2)
                            .map(|q| hub.queue(q).bursts.load(Ordering::Relaxed))
                            .sum();
                        assert_eq!(dump.kind_count(TraceEventKind::Burst), bursts, "{case}");
                        assert_eq!(
                            dump.oversleep().sum(),
                            worker_sum(|w| &w.oversleep_nanos) as u128,
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    /// The queue words and the telemetry counters are loads and stores
    /// ordered by the trylock alone (and, for a worker's own block, by
    /// there being one writer). Racing workers on more than one core, a
    /// producer pushing a known count: every acquisition, lost race,
    /// renewal cycle, packet and burst is on the books exactly once.
    #[test]
    fn racing_workers_lose_no_update_on_either_backend() {
        const PUSHED: u64 = 24_000;
        // Three workers on one queue; four over two, where worker `w`
        // starts on queue `w % 2` — on the executor that is its shard too,
        // so there the first shape is the one that races across cores.
        let shapes = [(3, 1), (4, 2)];
        let execs = [ExecBackend::Threads, ExecBackend::Async { shards: 2 }];
        for (exec, (m, n)) in execs.into_iter().flat_map(|e| shapes.map(|s| (e, s))) {
            let case = format!("{exec:?} M={m} N={n}");
            let cfg = MetronomeConfig {
                m_threads: m,
                n_queues: n,
                ..MetronomeConfig::default()
            };
            let hub = TelemetryHub::new(m, n);
            let queues: Vec<_> = (0..n).map(|_| Arc::new(ArrayQueue::new(1024))).collect();
            let set = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues)
                .exec(exec)
                .telemetry(&hub)
                .spawn(|_worker| {
                    |_q, burst: &mut Vec<u64>| {
                        // Hold the queue a while: backups wake into drains.
                        let t0 = Instant::now();
                        while t0.elapsed() < Duration::from_micros(5) {
                            std::hint::spin_loop();
                        }
                        burst.clear();
                    }
                });
            // A few packets at a time with a pause between, so the run is
            // thousands of short renewal cycles and not one long drain.
            for i in 0..PUSHED {
                while set.queues()[i as usize % n].push(i).is_err() {
                    std::thread::yield_now();
                }
                if i % 8 == 7 {
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_micros(20) {
                        std::hint::spin_loop();
                    }
                }
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while (0..n).map(|q| set.processed(q)).sum::<u64>() < PUSHED
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let stats = set.stop();
            let ctrl = stats.controller.as_ref().expect("controller snapshot");

            let (mut total, mut busy) = (0, 0);
            for q in 0..n {
                let st = ctrl.queue(q);
                total += st.total_tries;
                busy += st.busy_tries;
                assert!(st.total_tries > 100, "{case}: queue {q} barely raced");
                // Every acquisition but the queue's first closes a cycle.
                assert_eq!(st.cycles, st.total_tries - 1, "{case}: queue {q}");
                let qc = hub.queue(q);
                let retrieved = qc.retrieved.load(Ordering::Relaxed);
                let bursts = qc.bursts.load(Ordering::Relaxed);
                assert_eq!(retrieved, stats.processed[q], "{case}: queue {q}");
                assert!(0 < bursts && bursts <= retrieved, "{case}: queue {q}");
            }
            assert_eq!(stats.races_won.iter().sum::<u64>(), total, "{case}");
            assert_eq!(stats.races_lost.iter().sum::<u64>(), busy, "{case}");
            assert_eq!(stats.total_processed(), PUSHED, "{case}");
            assert_eq!(hub.total_retrieved(), PUSHED, "{case}");
            assert_eq!(hub.total_wakeups(), stats.wakes.iter().sum::<u64>());
        }
    }

    /// Always idle: every race is won, every poll is empty, `TS` is
    /// fixed — and workers start staggered, which the realtime backend
    /// never asks for, so the drivers' `Wait` path runs too.
    struct IdleBackend;

    const IDLE_TS: Nanos = Nanos::from_micros(250);
    const IDLE_STAGGER: Nanos = Nanos::from_micros(777);

    impl Backend for IdleBackend {
        fn n_queues(&self) -> usize {
            1
        }
        fn draw(&mut self) -> u64 {
            0
        }
        fn try_acquire(&mut self, _q: usize) -> bool {
            true
        }
        fn rx_burst(&mut self, _q: usize, _burst: u32) -> u64 {
            0
        }
        fn release(&mut self, _q: usize) -> Nanos {
            IDLE_TS
        }
        fn ts(&self, _q: usize) -> Nanos {
            IDLE_TS
        }
        fn tl(&self) -> Nanos {
            Nanos::from_micros(500)
        }
        fn stagger(&mut self) -> Nanos {
            IDLE_STAGGER
        }
    }

    /// Keeps every completed timed sleep as the tracer is told of it:
    /// `(requested, actual, overslept)`.
    #[derive(Clone, Default)]
    struct SleepLog(Arc<parking_lot::Mutex<Vec<[Nanos; 3]>>>);

    impl TraceSink for SleepLog {
        fn sleep(&self, requested: Nanos, actual: Nanos, overslept: Nanos) {
            self.0.lock().push([requested, actual, overslept]);
        }
    }

    #[test]
    fn every_timed_sleep_is_its_request_plus_its_oversleep() {
        // One stamp starts a sleep and sets its deadline, one ends it: so
        // `actual == requested + overslept` exactly, sleep by sleep, on
        // both drivers. (With a clock read apiece for "slept" and
        // "overslept" the two disagree by a read or two.)
        for exec in EXECS {
            let log = SleepLog::default();
            // Two workers and sleeps mostly spent in the OS: the suite's
            // other realtime tests run alongside and need the cores.
            let workers = (0..2)
                .map(|w| (DisciplineSpec::Metronome.build(w, 1, 32, &[]), IdleBackend))
                .collect();
            let stop = Arc::new(AtomicBool::new(false));
            let epoch = Instant::now();
            let joins = start(
                exec,
                "idle",
                workers,
                &stop,
                epoch,
                |_| NullSink,
                |_| log.clone(),
            );
            std::thread::sleep(Duration::from_millis(15));
            // The scripted workers never touch the set's own state.
            let set = WorkerSet {
                queues: queues(8),
                shared: SharedState::new(&cfg()),
                stop,
                joins,
                _item: PhantomData,
            };
            assert_eq!(set.stop().wakes.len(), 2, "{exec:?}");
            let sleeps = log.0.lock();
            let staggers = sleeps.iter().filter(|s| s[0] == IDLE_STAGGER).count();
            assert_eq!(staggers, 2, "{exec:?}: one stagger wait per worker");
            assert!(sleeps.len() > 20, "{exec:?}: {} sleeps", sleeps.len());
            for &[requested, actual, overslept] in sleeps.iter() {
                if requested == IDLE_STAGGER {
                    // `Wait`: at least as long as asked, no oversleep.
                    assert!(actual >= requested, "{exec:?}: short stagger");
                    assert_eq!(overslept, Nanos::ZERO, "{exec:?}");
                } else {
                    assert_eq!(requested, IDLE_TS, "{exec:?}");
                    assert_eq!(actual, requested + overslept, "{exec:?}");
                }
            }
        }
    }

    #[test]
    fn parked_workers_stop_promptly_on_both_backends() {
        // No traffic, no rings: the interrupt worker parks (condvar on
        // threads; waker plus the long fallback timer on the executor).
        // stop() must not wait either out.
        for exec in [ExecBackend::Threads, ExecBackend::Async { shards: 1 }] {
            let cfg = MetronomeConfig {
                m_threads: 1,
                n_queues: 1,
                ..MetronomeConfig::default()
            };
            let set = WorkerSet::builder(
                cfg,
                DisciplineSpec::InterruptLike(ModerationConfig::default()),
                vec![Arc::new(ArrayQueue::<u64>::new(64))],
            )
            .exec(exec)
            .spawn(idle);
            std::thread::sleep(Duration::from_millis(50));
            let t0 = Instant::now();
            let stats = set.stop();
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "{exec:?}: parked worker did not observe stop"
            );
            assert_eq!(stats.total_processed(), 0);
        }
    }
}
