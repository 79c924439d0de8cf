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
//!     .trace(&trace_hub)                        // default: NullTrace
//!     .spawn(|worker| move |queue, burst| { .. })
//! ```
//!
//! Every set keeps one set of books, its own: the per-queue words the
//! trylock orders (what each queue retrieved, its `TS`, its ρ̂) and a
//! telemetry hub of per-worker time blocks that `spawn` sizes and labels
//! from the spec. [`WorkerSet::books`] reads both into a snapshot, while
//! the set runs and after it stopped. `spawn` picks the worker loop
//! monomorphized for the chosen tracer, so a set without tracing runs the
//! loop with every record call compiled out.
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
use metronome_telemetry::{
    CounterSnapshot, NullTrace, TelemetryHub, TelemetrySink, TraceHub, TraceSink, WorkerCounters,
};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
    trace: Option<Arc<TraceHub>>,
    _item: PhantomData<fn() -> T>,
}

impl<T: Send + 'static, Q: RxQueue<T>> WorkerSetBuilder<T, Q> {
    /// Run the set on `exec` instead of one OS thread per worker.
    pub fn exec(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
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
    /// or the trace hub has too few recorders for the worker set.
    pub fn spawn<P>(self, mut make_consumer: impl FnMut(usize) -> P) -> WorkerSet<T, Q>
    where
        P: Consume<T> + Send + 'static,
    {
        let (cfg, spec, exec) = (self.cfg, self.spec, self.exec);
        cfg.validate().expect("invalid Metronome configuration");
        assert_eq!(self.queues.len(), cfg.n_queues, "queue count mismatch");
        let n_workers = spec.workers(cfg.m_threads, cfg.n_queues);
        if let Some(trace) = &self.trace {
            assert!(
                trace.n_recorders() >= exec.trace_slots(n_workers),
                "trace hub has {} recorder slots, the worker set records into {}",
                trace.n_recorders(),
                exec.trace_slots(n_workers)
            );
        }
        let shared = SharedState::new(&cfg);
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
        let hub = TelemetryHub::new(n_workers, label);
        let sink = |worker| hub.worker_sink(worker);
        let joins = match self.trace {
            None => start(exec, label, workers, &stop, &shared, sink, |_| NullTrace),
            Some(trace) => start(exec, label, workers, &stop, &shared, sink, move |slot| {
                trace.recorder(slot)
            }),
        };
        WorkerSet {
            queues: self.queues,
            books: WorkerBooks { shared, hub },
            stop,
            joins,
            _item: PhantomData,
        }
    }
}

/// Hand the prepared workers to `exec`'s spawn function, with the stop
/// flag and the state their drivers share with their backends (the clock
/// epoch, and the book of the timer slack they sleep under).
/// `make_sink` is called per worker, `make_tracer` per recorder slot.
fn start<B, S, R>(
    exec: ExecBackend,
    label: &str,
    workers: Vec<(AnyDiscipline, B)>,
    stop: &Arc<AtomicBool>,
    shared: &Arc<SharedState>,
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
            shared,
            make_sink,
            make_tracer,
        )),
        ExecBackend::Async { .. } => {
            // One recorder slot per shard thread: the clamped shard count.
            let shards = exec.trace_slots(workers.len());
            let (injectors, handles) =
                spawn_shards(label, workers, shards, stop, shared, make_sink, make_tracer);
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

/// A worker set's books, readable while it runs and after it stopped
/// (a handle over the set's shared state; cloning is two `Arc` bumps):
/// the per-queue words the trylock orders — what each queue retrieved,
/// its `TS` and its ρ̂ — the set's hub of per-worker time blocks, and the
/// timer slack its sleepers learn their wake overshoot against, as a
/// worker or shard thread read it on itself.
#[derive(Clone)]
pub struct WorkerBooks {
    shared: Arc<SharedState>,
    hub: Arc<TelemetryHub>,
}

impl WorkerBooks {
    /// Fill `snap` with what the set counts: the discipline label,
    /// `retrieved`, the per-queue `TS` (0 for a queue never released) and
    /// ρ̂ gauges, the workers' wakes and busy, sleep and oversleep time,
    /// and the timer slack the workers' threads run at. What the set does
    /// not count (offered load, losses, occupancy, pool, latency) is left
    /// untouched for the caller to fill.
    pub fn fill_snapshot(&self, snap: &mut CounterSnapshot) {
        self.hub.fill_snapshot(snap);
        self.shared.fill_snapshot(snap);
    }

    /// Workers in the set.
    pub fn n_workers(&self) -> usize {
        self.hub.n_workers()
    }

    /// Worker `w`'s time block.
    pub fn worker(&self, w: usize) -> &WorkerCounters {
        self.hub.worker(w)
    }
}

/// A running worker set over queues of `T`, on either backend.
pub struct WorkerSet<T: Send + 'static, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    books: WorkerBooks,
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
        &self.books.shared.doorbells[q]
    }

    /// The set's books, for a sampler to read while it runs and a final
    /// snapshot to read after [`WorkerSet::stop`].
    pub fn books(&self) -> WorkerBooks {
        self.books.clone()
    }

    /// Items processed so far on a queue.
    pub fn processed(&self, queue: usize) -> u64 {
        self.books.shared.processed(queue)
    }

    /// Current smoothed load estimate of a queue.
    pub fn rho(&self, queue: usize) -> f64 {
        self.books.shared.rho(queue)
    }

    /// Current adaptive TS of a queue.
    pub fn ts(&self, queue: usize) -> Nanos {
        self.books.shared.ts(queue)
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
        collect_stats(&self.books.shared, policies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::ModerationConfig;
    use crate::slack::{thread_timer_slack, LOWERED_SLACK_NS};
    use metronome_telemetry::{NullSink, TraceEventKind};
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

    /// The single spawn path, end to end: every backend × tracer choice ×
    /// discipline drains a fixed item count exactly once, reports it
    /// consistently on every surface, and refuses a trace hub that does
    /// not fit the worker set.
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
            // A mis-sized trace hub is rejected before anything spawns.
            let rejected = catch_unwind(AssertUnwindSafe(|| {
                WorkerSet::builder(cfg(), DisciplineSpec::Metronome, queues(8))
                    .exec(exec)
                    .trace(&Arc::new(TraceHub::new(exec.trace_slots(3) - 1, 64)))
                    .spawn(idle)
            }));
            assert!(
                rejected.is_err(),
                "{exec:?}: mis-sized trace hub was accepted"
            );

            for trace_on in [false, true] {
                for spec in &specs {
                    let case = format!("{exec:?} trace={trace_on} {}", spec.label());
                    let workers = spec.workers(3, 2);
                    let slots = exec.trace_slots(workers);
                    // One spare slot, to show the set writes only its own;
                    // rings long enough to keep every event of a worker
                    // that sleeps (a busy poller records a verdict a spin
                    // and overflows any ring).
                    let trace = Arc::new(TraceHub::new(slots + 1, 1 << 17));
                    let queues = queues(4096);
                    let seen = Arc::new(AtomicU64::new(0));
                    let sum = Arc::new(AtomicU64::new(0));
                    let mut builder = WorkerSet::builder(cfg(), *spec, queues.clone()).exec(exec);
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
                    let books = set.books();

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

                    // The books, read after the join.
                    let mut snap = CounterSnapshot::new(Nanos::ZERO);
                    books.fill_snapshot(&mut snap);
                    assert_eq!(snap.discipline, spec.label(), "{case}");
                    assert_eq!(snap.retrieved, stats.total_processed(), "{case}");
                    assert_eq!(snap.wakeups, wakes, "{case}");
                    assert_eq!(snap.rho, stats.rho, "{case}");
                    // The slack a worker or shard thread runs at, as that
                    // thread read it on itself.
                    let lowered = thread_timer_slack().map(|_| LOWERED_SLACK_NS);
                    assert_eq!(snap.timer_slack_ns, lowered, "{case}");
                    assert!(snap.busy_nanos > 0, "{case}: no busy span");
                    if !matches!(spec, DisciplineSpec::BusyPoll) {
                        assert!(snap.sleep_nanos > 0, "{case}: no sleep");
                    }
                    if matches!(spec, DisciplineSpec::Metronome) {
                        assert!(snap.ts_ns.iter().all(|&ts| ts > 0), "{case}");
                    } else {
                        // A baseline never takes the lock: no TS to report.
                        assert_eq!(snap.ts_ns, [0, 0], "{case}");
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
                    // Same events, counted on independent paths: the burst
                    // events carry every packet retrieved, and the
                    // oversleep histogram sums to the books' oversleep.
                    if !matches!(spec, DisciplineSpec::BusyPoll) {
                        assert_eq!(dump.total_dropped(), 0, "{case}: ring overflowed");
                        let burst_packets: u64 = (dump.workers.iter())
                            .flat_map(|w| &w.events)
                            .filter(|e| e.kind == TraceEventKind::Burst)
                            .map(|e| e.b)
                            .sum();
                        assert_eq!(burst_packets, n, "{case}");
                    }
                    assert_eq!(
                        dump.oversleep().sum(),
                        snap.oversleep_nanos as u128,
                        "{case}"
                    );
                }
            }
        }
    }

    /// The queue words and the telemetry counters are loads and stores
    /// ordered by the trylock alone (and, for a worker's own block, by
    /// there being one writer). Racing workers on more than one core, a
    /// producer pushing a known count: every acquisition, lost race,
    /// renewal cycle, packet and wake is on the books exactly once.
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
            let queues: Vec<_> = (0..n).map(|_| Arc::new(ArrayQueue::new(1024))).collect();
            let set = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues)
                .exec(exec)
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
            let books = set.books();
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
            }
            assert_eq!(stats.races_won.iter().sum::<u64>(), total, "{case}");
            assert_eq!(stats.races_lost.iter().sum::<u64>(), busy, "{case}");
            assert_eq!(stats.total_processed(), PUSHED, "{case}");
            let mut snap = CounterSnapshot::new(Nanos::ZERO);
            books.fill_snapshot(&mut snap);
            assert_eq!(snap.retrieved, PUSHED, "{case}");
            assert_eq!(snap.wakeups, stats.wakes.iter().sum::<u64>(), "{case}");
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
            // The scripted workers touch the set's own state only to book
            // their threads' timer slack.
            let shared = SharedState::new(&cfg());
            let joins = start(
                exec,
                "idle",
                workers,
                &stop,
                &shared,
                |_| NullSink,
                |_| log.clone(),
            );
            std::thread::sleep(Duration::from_millis(15));
            let set = WorkerSet {
                queues: queues(8),
                books: WorkerBooks {
                    shared,
                    hub: TelemetryHub::new(2, "idle"),
                },
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
