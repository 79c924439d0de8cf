//! The backend-agnostic Metronome execution core.
//!
//! The paper's Listing 2 loop — trylock race, drain burst, adaptive
//! `TS`/`TL` sleep — exists exactly once, here, as the resumable state
//! machine [`MetronomeEngine`]. Everything environment-specific is behind
//! the [`Backend`] trait: how time passes, how packets are received and
//! processed, how the race primitive and the entropy source are realized,
//! and what each protocol step costs.
//!
//! Two backends drive the same engine:
//!
//! * the **discrete-event simulation** (`metronome-runtime`'s
//!   `WorldBackend`): the trylock is an owner slot on the simulated queue,
//!   sleeps go through the calibrated `hr_sleep()`/`nanosleep()` model,
//!   entropy comes from the thread's seeded PRNG stream, and every step
//!   charges calibrated CPU cycles to the virtual core;
//! * the **real-thread runtime** (`crate::realtime::RealtimeBackend`):
//!   the trylock is a CMPXCHG [`crate::trylock::TryLock`], sleeps go
//!   through the spin-assisted [`crate::realtime::PreciseSleeper`],
//!   entropy is a shared SplitMix64 counter, and step costs are zero
//!   because the hardware charges them implicitly.
//!
//! The engine yields an [`EngineOp`] per step instead of blocking so the
//! cooperative simulator can interleave threads and advance virtual time
//! between steps; the real-thread driver simply executes ops in a loop.
//! One protocol change lands in both runtimes by construction.

use crate::policy::ThreadPolicy;
use crate::rxqueue::Lookahead;
use metronome_sim::Nanos;
use metronome_telemetry::{NullSink, SleepKind, TelemetrySink};

pub use crate::policy::Role;

/// CPU cycles charged per protocol step, exclusive of packet processing.
///
/// The simulation backend fills these from its calibration constants; the
/// real-thread backend reports zero everywhere (real cycles are spent, not
/// modeled).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCosts {
    /// Wake path after a timer fires: IRQ, context switch in, re-warming.
    pub wake_path: u64,
    /// Successful trylock plus queue-state load.
    pub acquire: u64,
    /// Failed trylock attempt (read + CMPXCHG miss + branch).
    pub busy_try: u64,
    /// An empty `rx_burst` poll on a just-acquired queue.
    pub empty_poll: u64,
    /// Lock release, estimator update, `TS` computation.
    pub release: u64,
    /// Issuing the sleep syscall (entry, hrtimer arming, switch out).
    pub sleep_call: u64,
}

impl StepCosts {
    /// All-zero costs (real-time execution: the hardware keeps the books).
    pub const ZERO: StepCosts = StepCosts {
        wake_path: 0,
        acquire: 0,
        busy_try: 0,
        empty_poll: 0,
        release: 0,
        sleep_call: 0,
    };
}

/// What the engine asks its driver to do next.
///
/// Every step of the protocol yields exactly one op; the driver performs
/// it (burn cycles / sleep / wait) and calls [`MetronomeEngine::step`]
/// again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineOp {
    /// Execute this many CPU cycles of protocol work, then step again.
    /// Real-time drivers treat any `Work` as "continue immediately".
    Work(u64),
    /// Sleep through the backend's timer service for (at least) the given
    /// duration, then step again. Subject to the service's oversleep.
    Sleep(Nanos),
    /// Idle until exactly this much time has passed (start-up stagger);
    /// no timer-service oversleep model applies.
    Wait(Nanos),
}

/// The environment capabilities the Metronome protocol runs against.
///
/// A backend bundles the clockless subset of what Listing 2 touches:
/// queue I/O (`try_acquire` / `rx_burst` / `release`), the per-queue
/// adaptive controller view (`ts` / `tl`), an entropy source for the
/// backup queue pick (`draw`), and the step cost model. Implementations
/// must record race and renewal-cycle statistics inside `try_acquire` /
/// `release` so the shared [`crate::controller::AdaptiveController`]
/// bookkeeping also lives in exactly one place per backend.
pub trait Backend {
    /// Number of Rx queues under contention.
    fn n_queues(&self) -> usize;

    /// Entropy for the backup's random queue pick (the `rte_random` role).
    fn draw(&mut self) -> u64;

    /// Race for queue `q`. On success the backend must record the
    /// acquisition (and start vacation measurement); on failure it must
    /// record the busy try.
    fn try_acquire(&mut self, q: usize) -> bool;

    /// Receive up to `burst` packets from the owned queue `q`, returning
    /// how many were taken. Real-time backends process the packets here;
    /// simulation backends only dequeue (processing cost is charged via
    /// [`Backend::chunk_cost`] and accounted in [`Backend::chunk_done`]).
    fn rx_burst(&mut self, q: usize, burst: u32) -> u64;

    /// CPU cycles to process a chunk of `k` packets (application cost).
    fn chunk_cost(&self, k: u64) -> u64 {
        let _ = k;
        0
    }

    /// A chunk of `k` packets finished processing (Tx-batch accounting).
    fn chunk_done(&mut self, q: usize, k: u64) {
        let _ = (q, k);
    }

    /// Release the owned queue `q`, feed the completed renewal cycle
    /// (vacation + busy period) to the adaptive controller, and return the
    /// queue's resulting adaptive `TS`. Returning `TS` from here lets a
    /// backend that shares its controller between threads step the
    /// estimator and hand out the timeout it leads to while it still owns
    /// the queue.
    fn release(&mut self, q: usize) -> Nanos;

    /// Hook invoked on wake for the queue about to be contended, before
    /// the race (the simulation flushes stale Tx batches here).
    fn before_contend(&mut self, q: usize) {
        let _ = q;
    }

    /// Hook invoked by a realtime driver before each turn with its latest
    /// clock stamp, in nanoseconds on the worker set's shared epoch: on
    /// the turns that follow a wake, the stamp at which the worker's sleep
    /// or timer returned. A backend may use it in place of a clock read of
    /// its own, in that turn only. Clockless backends (the simulation)
    /// ignore it.
    fn before_turn(&mut self, now: Nanos) {
        let _ = now;
    }

    /// Hook invoked by a realtime driver when it closes a busy span — the
    /// mirror of [`Backend::before_turn`]: the stamp the backend's last
    /// [`Backend::release`] closed the busy period on (its own clock read,
    /// or the completion read of the drain's last burst), on the same
    /// epoch, handed to the driver exactly once (`None` if nothing was
    /// released since the previous call). A driver closes the span on it instead of a read of
    /// its own, so what follows the release — `TS` bookkeeping, the sleep
    /// verdict — is outside the span. Clockless backends (the simulation)
    /// have no stamp.
    fn take_release_stamp(&mut self) -> Option<Nanos> {
        None
    }

    /// Hook invoked by a realtime driver that knows queue `q` is about to
    /// be contended by this backend's worker — a turn or two from now, not
    /// in the current one: start fetching what the poll of its first
    /// `depth` items will wait for
    /// ([`crate::rxqueue::RxQueue::lookahead`]). A hint, outside the
    /// protocol: no race, no poll, no clock read, nothing the statistics
    /// see. Backends without real memory behind their queues (the
    /// simulation) ignore it.
    fn lookahead(&self, q: usize, stage: Lookahead, depth: usize) {
        let _ = (q, stage, depth);
    }

    /// Current adaptive short timeout of queue `q`.
    fn ts(&self, q: usize) -> Nanos;

    /// The long (backup) timeout.
    fn tl(&self) -> Nanos;

    /// Equal-timeout ablation: losers sleep `TS` instead of `TL`.
    fn equal_timeouts(&self) -> bool {
        false
    }

    /// Start-up stagger before the first contention (threads in a real
    /// deployment start milliseconds apart; the simulation draws a uniform
    /// offset over one `TL` so first wakes don't race in lockstep).
    fn stagger(&mut self) -> Nanos {
        Nanos::ZERO
    }

    /// The cycle cost of each protocol step.
    fn costs(&self) -> StepCosts {
        StepCosts::ZERO
    }
}

impl<B: Backend> Backend for &mut B {
    fn n_queues(&self) -> usize {
        (**self).n_queues()
    }

    fn draw(&mut self) -> u64 {
        (**self).draw()
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        (**self).try_acquire(q)
    }

    fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
        (**self).rx_burst(q, burst)
    }

    fn chunk_cost(&self, k: u64) -> u64 {
        (**self).chunk_cost(k)
    }

    fn chunk_done(&mut self, q: usize, k: u64) {
        (**self).chunk_done(q, k)
    }

    fn release(&mut self, q: usize) -> Nanos {
        (**self).release(q)
    }

    fn before_contend(&mut self, q: usize) {
        (**self).before_contend(q)
    }

    fn before_turn(&mut self, now: Nanos) {
        (**self).before_turn(now)
    }

    fn take_release_stamp(&mut self) -> Option<Nanos> {
        (**self).take_release_stamp()
    }

    fn lookahead(&self, q: usize, stage: Lookahead, depth: usize) {
        (**self).lookahead(q, stage, depth)
    }

    fn ts(&self, q: usize) -> Nanos {
        (**self).ts(q)
    }

    fn tl(&self) -> Nanos {
        (**self).tl()
    }

    fn equal_timeouts(&self) -> bool {
        (**self).equal_timeouts()
    }

    fn stagger(&mut self) -> Nanos {
        (**self).stagger()
    }

    fn costs(&self) -> StepCosts {
        (**self).costs()
    }
}

/// Where the engine is inside the Listing 2 loop.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// First dispatch: stagger the start phase.
    Init,
    /// Just woke from a timer sleep.
    AfterSleep,
    /// Race for the queue.
    TryAcquire,
    /// A burst of `k` packets from queue `q` is being processed.
    Chunk {
        /// Owned queue.
        q: usize,
        /// Packets in the chunk whose processing just completed.
        k: u64,
    },
    /// About to sleep for `dur`.
    GoSleep {
        /// Requested sleep length.
        dur: Nanos,
        /// Which timeout the sleep is taken under (telemetry label).
        kind: SleepKind,
    },
}

/// One Metronome packet-retrieval thread: the paper's Listing 2 as a
/// resumable, backend-agnostic state machine.
///
/// ```text
/// while (1) {
///     if (!trylock(lock[curr_queue])) {
///         curr_queue = randint(n_queues);
///         hr_sleep(timeout_long);
///         continue;
///     }
///     while (nb_rx = receive_burst(queue[curr_queue], pkts, BURST_SIZE))
///         process_and_send_pkts(pkts, nb_rx);
///     unlock(lock[i]);
///     hr_sleep(timeout_short);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct MetronomeEngine {
    policy: ThreadPolicy,
    burst: u32,
    phase: Phase,
}

impl MetronomeEngine {
    /// Engine for a thread initially contending `initial_queue`, draining
    /// in bursts of `burst` packets.
    pub fn new(initial_queue: usize, burst: u32) -> Self {
        MetronomeEngine {
            policy: ThreadPolicy::new(initial_queue),
            burst: burst.max(1),
            phase: Phase::Init,
        }
    }

    /// The thread's policy state (role, queue, race counters).
    pub fn policy(&self) -> &ThreadPolicy {
        &self.policy
    }

    /// Consume the engine, yielding the final policy statistics.
    pub fn into_policy(self) -> ThreadPolicy {
        self.policy
    }

    /// Advance the protocol by one step against `backend`, returning what
    /// the driver must do before the next step.
    pub fn step<B: Backend>(&mut self, backend: &mut B) -> EngineOp {
        self.step_with(backend, &NullSink)
    }

    /// [`MetronomeEngine::step`] with telemetry: wakes,
    /// drained-burst counts, `TS` recomputations and sleep intents are
    /// published into `sink` as they happen. `sink` is called at protocol
    /// grain (per turn / per burst, never per packet), so a counter sink
    /// adds a handful of relaxed-atomic increments per turn; with
    /// [`NullSink`] this monomorphizes back to the plain loop.
    pub fn step_with<B: Backend, S: TelemetrySink>(
        &mut self,
        backend: &mut B,
        sink: &S,
    ) -> EngineOp {
        match self.phase {
            Phase::Init => {
                let stagger = backend.stagger();
                self.phase = Phase::AfterSleep;
                sink.sleep_planned(SleepKind::Stagger, stagger);
                EngineOp::Wait(stagger)
            }
            Phase::AfterSleep => {
                self.policy.on_wake();
                sink.wake();
                let q = self.policy.queue_to_contend();
                backend.before_contend(q);
                self.phase = Phase::TryAcquire;
                EngineOp::Work(backend.costs().wake_path)
            }
            Phase::TryAcquire => {
                let q = self.policy.queue_to_contend();
                if backend.try_acquire(q) {
                    self.policy.on_race_won();
                    self.phase = Phase::Chunk { q, k: 0 };
                    EngineOp::Work(backend.costs().acquire)
                } else {
                    // Busy try: become backup, pick a random queue, sleep
                    // TL (or TS in the equal-timeout ablation).
                    let n_queues = backend.n_queues();
                    let draw = backend.draw();
                    self.policy.on_race_lost(n_queues, draw);
                    let dur = if backend.equal_timeouts() {
                        backend.ts(q)
                    } else {
                        backend.tl()
                    };
                    self.phase = Phase::GoSleep {
                        dur,
                        kind: SleepKind::Long,
                    };
                    let costs = backend.costs();
                    EngineOp::Work(costs.busy_try + costs.sleep_call)
                }
            }
            Phase::Chunk { q, k } => {
                if k > 0 {
                    // The chunk just finished computing: account Tx.
                    backend.chunk_done(q, k);
                }
                let taken = backend.rx_burst(q, self.burst);
                if taken > 0 {
                    sink.retrieved(q, taken);
                    self.phase = Phase::Chunk { q, k: taken };
                    EngineOp::Work(backend.chunk_cost(taken))
                } else {
                    // Queue depleted: release, compute TS, sleep.
                    if k == 0 {
                        self.policy.on_empty_poll();
                    }
                    let dur = backend.release(q);
                    sink.ts_update(q, dur);
                    debug_assert_eq!(self.policy.role(), Role::Primary);
                    self.phase = Phase::GoSleep {
                        dur,
                        kind: SleepKind::Short,
                    };
                    let costs = backend.costs();
                    EngineOp::Work(costs.empty_poll + costs.release + costs.sleep_call)
                }
            }
            Phase::GoSleep { dur, kind } => {
                self.phase = Phase::AfterSleep;
                sink.sleep_planned(kind, dur);
                EngineOp::Sleep(dur)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted in-memory backend for engine unit tests.
    struct ScriptBackend {
        n_queues: usize,
        locked: Vec<bool>,
        queued: Vec<VecDeque<u64>>,
        draws: VecDeque<u64>,
        ts: Nanos,
        tl: Nanos,
        equal: bool,
        releases: Vec<usize>,
        processed: u64,
    }

    impl ScriptBackend {
        fn new(n_queues: usize) -> Self {
            ScriptBackend {
                n_queues,
                locked: vec![false; n_queues],
                queued: (0..n_queues).map(|_| VecDeque::new()).collect(),
                draws: VecDeque::new(),
                ts: Nanos::from_micros(30),
                tl: Nanos::from_micros(500),
                equal: false,
                releases: Vec::new(),
                processed: 0,
            }
        }
    }

    impl Backend for ScriptBackend {
        fn n_queues(&self) -> usize {
            self.n_queues
        }

        fn draw(&mut self) -> u64 {
            self.draws.pop_front().unwrap_or(0)
        }

        fn try_acquire(&mut self, q: usize) -> bool {
            if self.locked[q] {
                false
            } else {
                self.locked[q] = true;
                true
            }
        }

        fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
            let mut taken = 0;
            while taken < burst as u64 && self.queued[q].pop_front().is_some() {
                taken += 1;
                self.processed += 1;
            }
            taken
        }

        fn release(&mut self, q: usize) -> Nanos {
            assert!(self.locked[q], "release of unowned queue");
            self.locked[q] = false;
            self.releases.push(q);
            self.ts
        }

        fn ts(&self, _q: usize) -> Nanos {
            self.ts
        }

        fn tl(&self) -> Nanos {
            self.tl
        }

        fn equal_timeouts(&self) -> bool {
            self.equal
        }
    }

    fn run_one_turn(engine: &mut MetronomeEngine, b: &mut ScriptBackend) -> EngineOp {
        // Step until the engine asks to sleep; return the sleep op.
        loop {
            match engine.step(b) {
                EngineOp::Work(_) | EngineOp::Wait(_) => continue,
                op @ EngineOp::Sleep(_) => return op,
            }
        }
    }

    #[test]
    fn win_drain_release_sleeps_ts() {
        let mut b = ScriptBackend::new(1);
        b.queued[0].extend(0..40u64); // two bursts of 32 + 8
        let mut e = MetronomeEngine::new(0, 32);
        let op = run_one_turn(&mut e, &mut b);
        assert_eq!(op, EngineOp::Sleep(b.ts));
        assert_eq!(b.processed, 40);
        assert_eq!(b.releases, vec![0]);
        assert!(!b.locked[0]);
        assert_eq!(e.policy().races_won, 1);
        assert_eq!(e.policy().role(), Role::Primary);
        // 40 packets drained in two non-empty bursts, no empty poll flag.
        assert_eq!(e.policy().empty_polls, 0);
    }

    #[test]
    fn empty_win_counts_empty_poll() {
        let mut b = ScriptBackend::new(1);
        let mut e = MetronomeEngine::new(0, 32);
        run_one_turn(&mut e, &mut b);
        assert_eq!(e.policy().empty_polls, 1);
        assert_eq!(b.releases, vec![0]);
    }

    #[test]
    fn lost_race_sleeps_tl_and_randomizes() {
        let mut b = ScriptBackend::new(4);
        b.locked[1] = true; // someone owns the target queue
        b.draws.push_back(7); // 7 % 4 = queue 3
        let mut e = MetronomeEngine::new(1, 32);
        let op = run_one_turn(&mut e, &mut b);
        assert_eq!(op, EngineOp::Sleep(b.tl));
        assert_eq!(e.policy().role(), Role::Backup);
        assert_eq!(e.policy().races_lost, 1);
        assert_eq!(e.policy().queue_to_contend(), 3);
        assert!(b.releases.is_empty(), "loser must not release");
    }

    #[test]
    fn equal_timeout_ablation_sleeps_ts_on_loss() {
        let mut b = ScriptBackend::new(1);
        b.locked[0] = true;
        b.equal = true;
        let mut e = MetronomeEngine::new(0, 32);
        let op = run_one_turn(&mut e, &mut b);
        assert_eq!(op, EngineOp::Sleep(b.ts));
    }

    #[test]
    fn first_step_is_stagger_wait() {
        let mut b = ScriptBackend::new(1);
        let mut e = MetronomeEngine::new(0, 32);
        assert_eq!(e.step(&mut b), EngineOp::Wait(Nanos::ZERO));
    }

    #[test]
    fn step_with_publishes_telemetry() {
        use metronome_telemetry::TelemetryHub;
        use std::sync::atomic::Ordering;

        let hub = TelemetryHub::new(1, 1);
        let sink = hub.worker_sink(0);
        let mut b = ScriptBackend::new(1);
        b.queued[0].extend(0..40u64);
        let mut e = MetronomeEngine::new(0, 32);
        loop {
            if let EngineOp::Sleep(_) = e.step_with(&mut b, &sink) {
                break;
            }
        }
        assert_eq!(hub.total_retrieved(), 40);
        assert_eq!(hub.total_wakeups(), 1);
        // Two non-empty bursts → two burst records.
        assert_eq!(hub.queue(0).bursts.load(Ordering::Relaxed), 2);
        // The TS gauge carries the release()-computed timeout.
        assert_eq!(hub.queue(0).ts_ns.load(Ordering::Relaxed), b.ts.as_nanos());
        // The winner's sleep is a short (TS) sleep.
        assert_eq!(hub.worker(0).sleeps_short.load(Ordering::Relaxed), 1);
        assert_eq!(hub.worker(0).sleeps_long.load(Ordering::Relaxed), 0);

        // A lost race publishes a long (TL) sleep intent.
        b.locked[0] = true;
        loop {
            if let EngineOp::Sleep(_) = e.step_with(&mut b, &sink) {
                break;
            }
        }
        assert_eq!(hub.worker(0).sleeps_long.load(Ordering::Relaxed), 1);
        assert_eq!(hub.total_wakeups(), 2);
    }

    #[test]
    fn backup_recovers_to_primary_after_winning() {
        let mut b = ScriptBackend::new(1);
        b.locked[0] = true;
        let mut e = MetronomeEngine::new(0, 32);
        run_one_turn(&mut e, &mut b); // loses
        assert_eq!(e.policy().role(), Role::Backup);
        b.locked[0] = false;
        run_one_turn(&mut e, &mut b); // wins
        assert_eq!(e.policy().role(), Role::Primary);
        assert_eq!(e.policy().role_transitions, 2);
        assert_eq!(e.policy().wakes, 2);
    }
}
