//! Real-thread packet retrieval: the paper's Listing 2 — and its
//! comparative baselines — on actual OS threads.
//!
//! This module is the thread half of [`crate::workers::WorkerSet`]: it
//! runs a [`RetrievalDiscipline`] worker set (the shared
//! [`crate::engine::MetronomeEngine`]: trylock racing, primary/backup
//! timeouts, adaptive `TS`; or the BusyPoll / InterruptLike / ConstSleep
//! baselines) with `std::thread` workers against in-process lock-free
//! queues. Each worker owns a [`RealtimeBackend`] that realizes the
//! engine's [`Backend`] capabilities with real primitives:
//!
//! | engine capability | simulation realization | real-thread realization |
//! |---|---|---|
//! | race primitive    | owner slot on the sim queue | CMPXCHG [`TryLock`] |
//! | receive burst     | counting descriptor ring    | any [`RxQueue`] (locked `ArrayQueue`, lock-free SPSC/MPSC ring consumer) drained batched into a reusable scratch buffer, one app call per burst |
//! | sleep service     | calibrated `hr_sleep` model | [`PreciseSleeper`]  |
//! | entropy           | seeded xoshiro stream       | SplitMix64 counter  |
//! | clock             | virtual `Nanos`             | `std::time::Instant` |
//! | step costs        | calibrated cycle charges    | zero (hardware pays) |
//!
//! **`hr_sleep()` substitution.** The paper's precision comes from a custom
//! kernel sleep service we cannot ship from user space. [`PreciseSleeper`]
//! stands in: it sleeps coarsely through the OS for the bulk of the
//! interval and spin-waits the final stretch, delivering microsecond-class
//! wake precision at a small, bounded CPU cost — the same trade the paper
//! makes in kernel space (documented in DESIGN.md as a substitution).

use crate::config::MetronomeConfig;
use crate::controller::AdaptiveController;
use crate::discipline::{AnyDiscipline, Doorbell, RetrievalDiscipline, Verdict};
use crate::engine::Backend;
use crate::policy::ThreadPolicy;
use crate::rxqueue::RxQueue;
use crate::trylock::TryLock;
use crossbeam::queue::ArrayQueue;
use metronome_sim::Nanos;
use metronome_telemetry::{TelemetrySink, TraceSink, TraceVerdict, TracedSink};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a parked worker waits on its doorbell before re-checking the
/// stop flag (bounds shutdown latency of idle InterruptLike workers).
const PARK_STOP_CHECK: Duration = Duration::from_millis(1);

/// Hybrid sleep: OS sleep for the bulk, spin for the residual.
///
/// `spin_threshold` is how much of the tail is spun; larger values buy
/// precision with CPU. The default 120 µs comfortably covers typical Linux
/// `nanosleep` overshoot (≈50–100 µs without an RT class).
///
/// **Accounting semantic.** A `sleep()` call — including its spun tail,
/// which for intervals at or below `spin_threshold` is the *whole*
/// interval — counts as sleep time in telemetry, not busy time. The
/// sleeper stands in for the paper's kernel `hr_sleep()`, whose sleeps
/// are genuinely CPU-free; charging its user-space spin to the worker
/// would report the substitution artifact instead of the protocol's
/// cost. Every retrieval discipline goes through the same sleeper with
/// the same threshold, so cross-discipline duty-cycle comparisons stay
/// apples-to-apples *under the `hr_sleep` model*; the real spin cost of
/// the substitution is documented in DESIGN.md §2 and measurable by
/// dropping the threshold to zero ([`PreciseSleeper::with_spin_threshold`],
/// the `nanosleep`-precision ablation).
#[derive(Clone, Copy, Debug)]
pub struct PreciseSleeper {
    /// Portion of the interval spun instead of slept.
    pub spin_threshold: Duration,
}

impl Default for PreciseSleeper {
    fn default() -> Self {
        PreciseSleeper {
            spin_threshold: Duration::from_micros(120),
        }
    }
}

impl PreciseSleeper {
    /// A sleeper spinning the final `spin_threshold` of every interval.
    /// Larger thresholds buy wake precision with CPU; zero degrades to a
    /// plain `thread::sleep` (the `nanosleep` ablation).
    pub fn with_spin_threshold(spin_threshold: Duration) -> Self {
        PreciseSleeper { spin_threshold }
    }

    /// Sleep for at least `dur`, waking within spin precision of the
    /// deadline (sub-microsecond on an unloaded core). Returns the
    /// measured oversleep — how far past the requested deadline the call
    /// actually returned — so callers can feed telemetry's sleep-
    /// precision counters.
    pub fn sleep(&self, dur: Duration) -> Duration {
        let start = Instant::now();
        let deadline = start + dur;
        if dur > self.spin_threshold {
            std::thread::sleep(dur - self.spin_threshold);
        }
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        start.elapsed().saturating_sub(dur)
    }
}

/// Aggregated counters of a real-thread run.
#[derive(Clone, Debug, Default)]
pub struct RealtimeStats {
    /// Items processed per queue.
    pub processed: Vec<u64>,
    /// Per-thread wake counts.
    pub wakes: Vec<u64>,
    /// Per-thread won races.
    pub races_won: Vec<u64>,
    /// Per-thread lost races (busy tries).
    pub races_lost: Vec<u64>,
    /// Final smoothed ρ per queue.
    pub rho: Vec<f64>,
    /// Final TS per queue.
    pub ts: Vec<Nanos>,
    /// Snapshot of the adaptive controller after all workers joined:
    /// per-queue try accounting and renewal-cycle sums for reports.
    pub controller: Option<AdaptiveController>,
}

impl RealtimeStats {
    /// Total items processed across queues.
    pub fn total_processed(&self) -> u64 {
        self.processed.iter().sum()
    }

    /// Total busy tries across threads.
    pub fn total_busy_tries(&self) -> u64 {
        self.races_lost.iter().sum()
    }
}

/// Assemble a [`RealtimeStats`] from joined per-worker policies (in
/// worker order) and the shared state's final counters — the one path
/// both backends report through.
pub(crate) fn collect_stats(shared: &SharedState, policies: Vec<ThreadPolicy>) -> RealtimeStats {
    let mut stats = RealtimeStats::default();
    for policy in policies {
        stats.wakes.push(policy.wakes);
        stats.races_won.push(policy.races_won);
        stats.races_lost.push(policy.races_lost);
    }
    // Counters are read only after every worker joined: a worker that
    // was mid-turn when the flag rose finishes its drain first, and
    // those packets must be on the books (the realtime runner asserts
    // offered = processed + dropped against these).
    stats.processed = shared
        .processed
        .iter()
        .map(|p| p.load(Ordering::Relaxed))
        .collect();
    let ctrl = shared.controller.lock();
    for q in 0..shared.processed.len() {
        stats.rho.push(ctrl.rho(q));
        stats.ts.push(ctrl.ts(q));
    }
    stats.controller = Some(ctrl.clone());
    stats
}

/// State shared by every worker of one [`crate::workers::WorkerSet`], on
/// either backend — which is what keeps the two backends' accounting
/// identical.
pub(crate) struct SharedState {
    pub(crate) controller: Mutex<AdaptiveController>,
    locks: Vec<TryLock>,
    /// Instant each queue's lock was last released (vacation measurement).
    last_release: Vec<Mutex<Option<Instant>>>,
    pub(crate) processed: Vec<AtomicU64>,
    rand_state: AtomicU64,
    /// `TL` is fixed (§IV-E), so workers read it without the controller
    /// lock.
    t_long: Nanos,
    /// One wake-up doorbell per queue. Only the InterruptLike discipline
    /// parks on them; producers may ring unconditionally (a ring with no
    /// waiter is one uncontended mutex bump).
    pub(crate) doorbells: Vec<Arc<Doorbell>>,
}

impl SharedState {
    pub(crate) fn new(cfg: &MetronomeConfig) -> Arc<Self> {
        Arc::new(SharedState {
            controller: Mutex::new(AdaptiveController::new(cfg.clone())),
            locks: (0..cfg.n_queues).map(|_| TryLock::new()).collect(),
            last_release: (0..cfg.n_queues).map(|_| Mutex::new(None)).collect(),
            processed: (0..cfg.n_queues).map(|_| AtomicU64::new(0)).collect(),
            rand_state: AtomicU64::new(0x4D3),
            t_long: cfg.t_long,
            doorbells: (0..cfg.n_queues).map(|_| Doorbell::new()).collect(),
        })
    }
}

impl SharedState {
    /// SplitMix64 over a shared counter — the `rte_random` role.
    fn draw(&self) -> u64 {
        let s = self
            .rand_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The real-thread realization of the engine's [`Backend`] capabilities:
/// CMPXCHG trylock, [`RxQueue`] receive bursts drained batched into a
/// reusable scratch buffer and processed one application call per burst,
/// wall-clock vacation measurement, and a shared SplitMix64 entropy
/// counter. One backend instance belongs to one worker thread, and its
/// process closure is `FnMut` *owned by that worker* — per-thread state
/// (a mempool cache, a flow table shard) lives right in the closure with
/// no locks around it.
pub struct RealtimeBackend<T: Send + 'static, P, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    shared: Arc<SharedState>,
    process: P,
    /// Reusable burst buffer: filled by `rx_burst`, handed to the process
    /// closure, cleared after — the hot path allocates only until the
    /// buffer's capacity has grown to the configured burst size once.
    scratch: Vec<T>,
    /// Acquire instant of the currently held lock (busy-period start).
    acquired_at: Option<Instant>,
    /// Vacation that ended at the current acquire, if measurable.
    pending_vacation: Option<Duration>,
}

impl<T, P, Q> RealtimeBackend<T, P, Q>
where
    T: Send + 'static,
    P: FnMut(usize, &mut Vec<T>),
    Q: RxQueue<T>,
{
    pub(crate) fn new(queues: Vec<Q>, shared: Arc<SharedState>, process: P) -> Self {
        RealtimeBackend {
            queues,
            shared,
            process,
            scratch: Vec::new(),
            acquired_at: None,
            pending_vacation: None,
        }
    }
}

impl<T, P, Q> Backend for RealtimeBackend<T, P, Q>
where
    T: Send + 'static,
    P: FnMut(usize, &mut Vec<T>),
    Q: RxQueue<T>,
{
    fn n_queues(&self) -> usize {
        self.queues.len()
    }

    fn draw(&mut self) -> u64 {
        self.shared.draw()
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        if !self.shared.locks[q].try_lock() {
            self.shared.controller.lock().record_busy_try(q);
            return false;
        }
        // Lock held: measure the vacation that just ended. The controller
        // is deliberately NOT touched here — contending its mutex while
        // holding the queue lock would extend the queue's unavailability
        // and inflate the measured busy period; the acquisition is
        // recorded in release()'s single critical section instead.
        let now = Instant::now();
        self.acquired_at = Some(now);
        self.pending_vacation =
            (*self.shared.last_release[q].lock()).map(|released| now.duration_since(released));
        true
    }

    fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
        // Drain up to `burst` items into the reusable scratch buffer with
        // one batched dequeue, then hand the application the whole burst
        // at once (the rx_burst → process-array shape of a DPDK lcore
        // loop). The actual drained count — not the requested burst — is
        // what the engine's Chunk phase and the cost model see.
        debug_assert!(self.scratch.is_empty(), "scratch not cleared");
        let taken = self.queues[q].pop_burst(&mut self.scratch, burst as usize) as u64;
        if taken > 0 {
            (self.process)(q, &mut self.scratch);
            // The closure may have consumed the items (e.g. recycled them
            // to a mempool); drop whatever it left behind.
            self.scratch.clear();
            self.shared.processed[q].fetch_add(taken, Ordering::Relaxed);
        }
        taken
    }

    fn release(&mut self, q: usize) -> Nanos {
        let acquired = self
            .acquired_at
            .take()
            .expect("release without matching acquire");
        let busy = acquired.elapsed();
        *self.shared.last_release[q].lock() = Some(Instant::now());
        self.shared.locks[q].unlock();
        // One controller critical section per winning turn: record the
        // acquisition and the completed renewal cycle, read the new TS.
        let mut ctrl = self.shared.controller.lock();
        ctrl.record_acquired(q);
        if let Some(vacation) = self.pending_vacation.take() {
            ctrl.record_cycle(
                q,
                Nanos(vacation.as_nanos() as u64),
                Nanos(busy.as_nanos() as u64),
            );
        }
        ctrl.ts(q)
    }

    fn ts(&self, q: usize) -> Nanos {
        self.shared.controller.lock().ts(q)
    }

    fn tl(&self) -> Nanos {
        self.shared.t_long
    }
}

/// A single-threaded harness over the realtime backend components.
///
/// Spawns no threads: it builds the same `SharedState` a running
/// [`crate::workers::WorkerSet`] uses and hands out per-worker
/// [`RealtimeBackend`]s that a test can drive step by step. This is what
/// the sim-vs-realtime parity test uses to execute both backends under
/// one deterministic schedule.
pub struct RealtimeHarness<T: Send + 'static, F, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    shared: Arc<SharedState>,
    process: Arc<F>,
    _item: PhantomData<fn() -> T>,
}

impl<T, F, Q> RealtimeHarness<T, F, Q>
where
    T: Send + 'static,
    F: Fn(usize, &mut Vec<T>) + Send + Sync + 'static,
    Q: RxQueue<T>,
{
    /// Build the shared state for `cfg` over the given queues.
    pub fn new(cfg: MetronomeConfig, queues: Vec<Q>, process: F) -> Self {
        cfg.validate().expect("invalid Metronome configuration");
        assert_eq!(queues.len(), cfg.n_queues, "queue count mismatch");
        RealtimeHarness {
            shared: SharedState::new(&cfg),
            queues,
            process: Arc::new(process),
            _item: PhantomData,
        }
    }

    /// A worker backend sharing this harness's state (all backends call
    /// the one shared process closure).
    pub fn backend(
        &self,
    ) -> RealtimeBackend<T, impl FnMut(usize, &mut Vec<T>) + Send + Sync + 'static, Q> {
        let process = Arc::clone(&self.process);
        RealtimeBackend::new(
            self.queues.clone(),
            Arc::clone(&self.shared),
            move |q, burst: &mut Vec<T>| process(q, burst),
        )
    }

    /// Items processed so far on a queue.
    pub fn processed(&self, queue: usize) -> u64 {
        self.shared.processed[queue].load(Ordering::Relaxed)
    }

    /// Successful acquisitions recorded on a queue.
    pub fn total_tries(&self, queue: usize) -> u64 {
        self.shared.controller.lock().queue(queue).total_tries
    }

    /// Busy tries recorded on a queue.
    pub fn busy_tries(&self, queue: usize) -> u64 {
        self.shared.controller.lock().queue(queue).busy_tries
    }
}

/// Spawn one OS thread per prepared `(discipline, backend)` worker — the
/// thread half of [`crate::workers::WorkerSet`]. `make_sink(worker)` is
/// the worker's telemetry view ([`NullSink`](metronome_telemetry::NullSink)
/// when telemetry is off, so the worker monomorphizes to the
/// pre-telemetry loop) and `make_tracer(worker)` its flight-recorder view
/// ([`NullTrace`](metronome_telemetry::NullTrace) when tracing is off —
/// a loop with zero record-path cost). Joining a handle yields the
/// worker's final policy counters.
pub(crate) fn spawn_threads<B, S, R>(
    label: &str,
    workers: Vec<(AnyDiscipline, B)>,
    stop: &Arc<AtomicBool>,
    make_sink: impl Fn(usize) -> S,
    make_tracer: impl Fn(usize) -> R,
) -> Vec<JoinHandle<ThreadPolicy>>
where
    B: Backend + Send + 'static,
    S: TelemetrySink + Send + 'static,
    R: TraceSink + Send + 'static,
{
    let sleeper = PreciseSleeper::default();
    workers
        .into_iter()
        .enumerate()
        .map(|(worker, (discipline, backend))| {
            let stop = Arc::clone(stop);
            let sink = make_sink(worker);
            let tracer = make_tracer(worker);
            std::thread::Builder::new()
                .name(format!("{label}-{worker}"))
                .spawn(move || run_worker(discipline, backend, sleeper, sink, tracer, &stop))
                .expect("spawn retrieval worker")
        })
        .collect()
}

/// Drive one retrieval discipline with real sleeps, spins and doorbell
/// parks until `stop` is raised.
///
/// This is the whole worker body: the protocol lives in the discipline's
/// [`RetrievalDiscipline::turn`]; here we only execute the verdicts it
/// yields. Busy/sleep accounting happens at verdict boundaries (never per
/// packet); spans of a worker that never reaches a sleep/park boundary —
/// a spinning busy poller, or any discipline held in a long drain streak
/// by sustained load — are flushed every `SPAN_FLUSH_MASK + 1` turns so
/// windowed duty-cycle sampling stays live without an `Instant` read per
/// turn.
///
/// `tracer` is the worker's flight-recorder view. It sees every verdict,
/// every sleep with its requested/actual/oversleep split (exactly the
/// values the telemetry sink is fed, so trace histograms reconcile with
/// hub counters), every park/unpark with the wake-to-first-poll latency,
/// and — via the [`TracedSink`] wrapper around `sink` — every drained
/// burst the discipline reports. With
/// [`NullTrace`](metronome_telemetry::NullTrace) all of it
/// monomorphizes away.
fn run_worker<B, D, S, R>(
    mut discipline: D,
    mut backend: B,
    sleeper: PreciseSleeper,
    sink: S,
    tracer: R,
    stop: &AtomicBool,
) -> ThreadPolicy
where
    B: Backend,
    D: RetrievalDiscipline,
    S: TelemetrySink,
    R: TraceSink,
{
    /// Boundary-less turns (empty spins or non-empty drains) between
    /// busy-span flushes.
    const SPAN_FLUSH_MASK: u32 = 0x3F;

    // Mirror discipline-internal `retrieved` reports into burst trace
    // events (1:1 with the hub's `bursts` counter by construction).
    let sink = TracedSink::new(sink, &tracer);
    let mut awake_since = Instant::now();
    let mut streak: u32 = 0;
    // Set when a park wake was just recorded; consumed at the top of the
    // next turn as the wake-to-first-poll latency.
    let mut woke_at: Option<Instant> = None;
    loop {
        if let Some(woke) = woke_at.take() {
            tracer.first_poll(Nanos(woke.elapsed().as_nanos() as u64));
        }
        match discipline.turn(&mut backend, &sink) {
            // Real cycles were already spent doing the step; flush the
            // running busy span periodically so a saturated worker's duty
            // cycle shows up in the window it was earned, not in one
            // spike at the streak's end.
            Verdict::Continue => {
                tracer.turn_verdict(TraceVerdict::Continue);
                streak = streak.wrapping_add(1);
                if streak & SPAN_FLUSH_MASK == 0 {
                    sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                    awake_since = Instant::now();
                }
            }
            Verdict::Yield => {
                tracer.turn_verdict(TraceVerdict::Yield);
                // Spin boundary (busy polling): no queue lock is held, so
                // exiting here cannot strand anything.
                if stop.load(Ordering::Relaxed) {
                    sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                    return discipline.into_policy();
                }
                streak = streak.wrapping_add(1);
                if streak & SPAN_FLUSH_MASK == 0 {
                    sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                    awake_since = Instant::now();
                }
                std::hint::spin_loop();
            }
            Verdict::Sleep(dur) => {
                tracer.turn_verdict(TraceVerdict::Sleep);
                sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                // Sleep points are turn boundaries: the queue lock is never
                // held here, so exiting now cannot strand a TryLock or drop
                // an in-flight renewal cycle mid-drain.
                if stop.load(Ordering::Relaxed) {
                    return discipline.into_policy();
                }
                if !dur.is_zero() {
                    let slept_from = Instant::now();
                    let oversleep = sleeper.sleep(Duration::from_nanos(dur.as_nanos()));
                    let measured = Nanos(slept_from.elapsed().as_nanos() as u64);
                    let over = Nanos(oversleep.as_nanos() as u64);
                    sink.slept(measured);
                    sink.overslept(over);
                    // Same values the sink just saw: the trace oversleep
                    // histogram's sum equals the hub's oversleep counter.
                    tracer.sleep(dur, measured, over);
                }
                awake_since = Instant::now();
            }
            Verdict::Wait(dur) => {
                tracer.turn_verdict(TraceVerdict::Wait);
                // Start-up stagger: an exact idle wait with no oversleep
                // semantics (and none recorded — the trace event carries a
                // zero oversleep, keeping histogram sums reconciled).
                sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                if stop.load(Ordering::Relaxed) {
                    return discipline.into_policy();
                }
                if !dur.is_zero() {
                    let slept_from = Instant::now();
                    sleeper.sleep(Duration::from_nanos(dur.as_nanos()));
                    let measured = Nanos(slept_from.elapsed().as_nanos() as u64);
                    sink.slept(measured);
                    tracer.sleep(dur, measured, Nanos::ZERO);
                }
                awake_since = Instant::now();
            }
            Verdict::Park(token) => {
                tracer.turn_verdict(TraceVerdict::Park);
                sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                tracer.park();
                let parked_from = Instant::now();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        sink.slept(Nanos(parked_from.elapsed().as_nanos() as u64));
                        return discipline.into_policy();
                    }
                    if token.wait(PARK_STOP_CHECK) {
                        break;
                    }
                }
                let parked = Nanos(parked_from.elapsed().as_nanos() as u64);
                sink.slept(parked);
                tracer.unpark(parked);
                woke_at = Some(Instant::now());
                awake_since = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DisciplineSpec;
    use crate::workers::WorkerSet;

    #[test]
    fn precise_sleeper_hits_deadline() {
        let s = PreciseSleeper::default();
        for req_us in [50u64, 200, 1_000] {
            let req = Duration::from_micros(req_us);
            let t0 = Instant::now();
            s.sleep(req);
            let actual = t0.elapsed();
            assert!(actual >= req, "woke early: {actual:?} < {req:?}");
            // Generous bound for shared CI machines.
            assert!(
                actual < req + Duration::from_millis(20),
                "woke far too late: {actual:?} for request {req:?}"
            );
        }
    }

    #[test]
    fn adaptation_reacts_to_idle() {
        // With no traffic the estimator must stay at/near zero and TS at
        // its maximal (M·V̄ for single queue) value.
        let cfg = MetronomeConfig::default(); // M=3, N=1, V̄=10µs
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
        let m = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues)
            .spawn(|_worker| |_q, _burst: &mut Vec<u64>| {});
        std::thread::sleep(Duration::from_millis(300));
        let rho = m.rho(0);
        let ts = m.ts(0);
        let stats = m.stop();
        assert!(rho < 0.2, "idle rho {rho}");
        // TS near M·V̄ = 30µs.
        assert!(
            ts >= Nanos::from_micros(20),
            "idle TS {ts} should be near M·V̄"
        );
        assert!(stats.total_processed() == 0);
        // Threads were actually waking and racing.
        assert!(stats.wakes.iter().sum::<u64>() > 100);
    }

    #[test]
    fn stop_counters_include_the_final_drain() {
        // Stop while workers are mid-turn: a worker only observes the flag
        // at its next sleep boundary, so it finishes draining first — and
        // stop() must report those packets. With a slow processor the
        // final drain is long, which made the old snapshot-before-join
        // bookkeeping visibly undercount.
        let cfg = MetronomeConfig {
            m_threads: 2,
            ..MetronomeConfig::default()
        };
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(1024))];
        let m =
            WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone()).spawn(|_worker| {
                |_q, burst: &mut Vec<u64>| {
                    // 50 µs of spinning per item, so the final drain is long.
                    for _ in burst.drain(..) {
                        let t0 = Instant::now();
                        while t0.elapsed() < Duration::from_micros(50) {
                            std::hint::spin_loop();
                        }
                    }
                }
            });
        let n = 512u64;
        for i in 0..n {
            let _ = queues[0].push(i);
        }
        // Give a worker time to win the race and get deep into the burst.
        std::thread::sleep(Duration::from_millis(5));
        let stats = m.stop();
        let mut leftover = 0u64;
        while queues[0].pop().is_some() {
            leftover += 1;
        }
        assert_eq!(
            stats.total_processed() + leftover,
            n,
            "stop() lost the packets processed during the final drain"
        );
    }

    #[test]
    fn stats_expose_race_outcomes() {
        let cfg = MetronomeConfig::default();
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
        let m = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues)
            .spawn(|_worker| |_q, _burst: &mut Vec<u64>| {});
        std::thread::sleep(Duration::from_millis(200));
        let stats = m.stop();
        let won: u64 = stats.races_won.iter().sum();
        assert!(won > 0, "nobody ever acquired the queue");
        assert_eq!(stats.rho.len(), 1);
        assert_eq!(stats.ts.len(), 1);
        let ctrl = stats.controller.expect("controller snapshot");
        assert_eq!(ctrl.queue(0).total_tries, won);
    }

    #[test]
    fn precise_sleeper_reports_oversleep() {
        let s = PreciseSleeper::with_spin_threshold(Duration::from_micros(200));
        let req = Duration::from_micros(300);
        let t0 = Instant::now();
        let over = s.sleep(req);
        let actual = t0.elapsed();
        // The report must equal the measured lateness (within the cost of
        // the two Instant reads).
        assert!(actual >= req);
        assert!(
            over <= actual.saturating_sub(req) + Duration::from_micros(50),
            "oversleep {over:?} inconsistent with actual {actual:?}"
        );
    }

    #[test]
    fn backend_is_drivable_single_threaded() {
        // The Backend surface must be usable without spawning threads —
        // this is what the sim-vs-realtime parity test leans on.
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(16))];
        let harness = RealtimeHarness::new(
            MetronomeConfig::default(),
            queues.clone(),
            |_q, _burst: &mut Vec<u64>| {},
        );
        let mut b = harness.backend();
        queues[0].push(7).unwrap();
        assert!(b.try_acquire(0));
        assert!(!b.try_acquire(0), "second acquire must lose the race");
        assert_eq!(b.rx_burst(0, 32), 1);
        let ts = b.release(0);
        assert!(!ts.is_zero(), "release must return the adaptive TS");
        assert!(b.try_acquire(0), "released lock must be re-acquirable");
        b.release(0);
        assert_eq!(harness.processed(0), 1);
        assert_eq!(harness.total_tries(0), 2);
        assert_eq!(harness.busy_tries(0), 1);
    }
}
