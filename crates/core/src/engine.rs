//! The backend-agnostic Metronome execution core.
//!
//! The paper's Listing 2 loop — trylock race, drain burst, adaptive
//! `TS`/`TL` sleep — exists exactly once, here, as the resumable state
//! machine [`MetronomeEngine`], one [`RetrievalDiscipline`] among the
//! baselines of [`crate::discipline`]. Everything environment-specific is
//! behind the [`Backend`] trait: how packets are received and processed,
//! and how the race primitive and the entropy source are realized.
//!
//! Two backends drive the same engine:
//!
//! * the **discrete-event simulation** (`metronome-runtime`'s
//!   `WorldBackend`): the trylock is an owner slot on the simulated queue,
//!   entropy comes from the thread's seeded PRNG stream, and each backend
//!   call adds its calibrated CPU cycles to the turn, which the simulator's
//!   driver charges to the virtual core;
//! * the **real-thread runtime** (`crate::realtime::RealtimeBackend`):
//!   the trylock is a CMPXCHG [`crate::trylock::TryLock`] and entropy is a
//!   shared SplitMix64 counter; the hardware spends the cycles.
//!
//! The engine returns a [`Verdict`] per turn instead of blocking, so the
//! cooperative simulator can interleave threads and advance virtual time
//! between turns; the real-thread driver executes verdicts in a loop.
//! One protocol change lands in both runtimes by construction.

use crate::discipline::{RetrievalDiscipline, Verdict};
use crate::policy::ThreadPolicy;
use crate::rxqueue::Lookahead;
use metronome_sim::Nanos;
use metronome_telemetry::TelemetrySink;

pub use crate::policy::Role;

/// The environment capabilities the Metronome protocol runs against.
///
/// A backend bundles the clockless subset of what Listing 2 touches:
/// queue I/O (`try_acquire` / `rx_burst` / `release`), the per-queue
/// adaptive controller view (`ts` / `tl`) and an entropy source for the
/// backup queue pick (`draw`). Implementations must record race and
/// renewal-cycle statistics inside `try_acquire` / `release` so the shared
/// [`crate::controller::AdaptiveController`] bookkeeping also lives in
/// exactly one place per backend.
pub trait Backend {
    /// Number of Rx queues under contention.
    fn n_queues(&self) -> usize;

    /// Entropy for the backup's random queue pick (the `rte_random` role).
    fn draw(&mut self) -> u64;

    /// Race for queue `q`. On success the backend must record the
    /// acquisition (and start vacation measurement); on failure it must
    /// record the busy try.
    fn try_acquire(&mut self, q: usize) -> bool;

    /// Receive up to `burst` packets from queue `q` and process them,
    /// returning how many were taken.
    fn rx_burst(&mut self, q: usize, burst: u32) -> u64;

    /// Release the owned queue `q`, feed the completed renewal cycle
    /// (vacation + busy period) to the adaptive controller, and return the
    /// queue's resulting adaptive `TS`. Returning `TS` from here lets a
    /// backend that shares its controller between threads step the
    /// estimator and hand out the timeout it leads to while it still owns
    /// the queue.
    fn release(&mut self, q: usize) -> Nanos;

    /// Hook invoked on wake for the queue about to be contended or polled,
    /// before the race or the drain (the simulation charges the wake path
    /// and flushes stale Tx batches here).
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
    /// Draining the owned queue `q`.
    Drain {
        /// Owned queue.
        q: usize,
        /// Whether this drain has taken anything yet.
        drained_any: bool,
    },
    /// About to sleep for `dur`.
    GoSleep {
        /// Requested sleep length.
        dur: Nanos,
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
}

impl RetrievalDiscipline for MetronomeEngine {
    /// One step of Listing 2. Wakes and drained bursts are published into
    /// `sink` as they happen, at protocol grain (per wake / per burst,
    /// never per packet); the `TS` a release computes is the backend's
    /// book, not an event. With `NullSink` this monomorphizes back to the
    /// plain loop.
    fn turn<B: Backend, S: TelemetrySink>(&mut self, backend: &mut B, sink: &S) -> Verdict {
        match self.phase {
            Phase::Init => {
                let stagger = backend.stagger();
                self.phase = Phase::AfterSleep;
                Verdict::Wait(stagger)
            }
            Phase::AfterSleep => {
                self.policy.on_wake();
                sink.wake();
                let q = self.policy.queue_to_contend();
                backend.before_contend(q);
                self.phase = Phase::TryAcquire;
                Verdict::Continue
            }
            Phase::TryAcquire => {
                let q = self.policy.queue_to_contend();
                if backend.try_acquire(q) {
                    self.policy.on_race_won();
                    self.phase = Phase::Drain {
                        q,
                        drained_any: false,
                    };
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
                    self.phase = Phase::GoSleep { dur };
                }
                Verdict::Continue
            }
            Phase::Drain { q, drained_any } => {
                let taken = backend.rx_burst(q, self.burst);
                if taken > 0 {
                    sink.retrieved(q, taken);
                    self.phase = Phase::Drain {
                        q,
                        drained_any: true,
                    };
                } else {
                    // Queue depleted: release, compute TS, sleep.
                    if !drained_any {
                        self.policy.on_empty_poll();
                    }
                    let dur = backend.release(q);
                    debug_assert_eq!(self.policy.role(), Role::Primary);
                    self.phase = Phase::GoSleep { dur };
                }
                Verdict::Continue
            }
            Phase::GoSleep { dur } => {
                self.phase = Phase::AfterSleep;
                Verdict::Sleep(dur)
            }
        }
    }

    fn policy(&self) -> &ThreadPolicy {
        &self.policy
    }

    fn into_policy(self) -> ThreadPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_telemetry::NullSink;
    use std::cell::Cell;
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

    /// Turn until the engine asks to sleep; return the sleep's length.
    fn run_one_turn(engine: &mut MetronomeEngine, b: &mut ScriptBackend) -> Nanos {
        loop {
            if let Verdict::Sleep(dur) = engine.turn(b, &NullSink) {
                return dur;
            }
        }
    }

    #[test]
    fn win_drain_release_sleeps_ts() {
        let mut b = ScriptBackend::new(1);
        b.queued[0].extend(0..40u64); // two bursts of 32 + 8
        let mut e = MetronomeEngine::new(0, 32);
        assert_eq!(run_one_turn(&mut e, &mut b), b.ts);
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
        assert_eq!(run_one_turn(&mut e, &mut b), b.tl);
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
        assert_eq!(run_one_turn(&mut e, &mut b), b.ts);
    }

    #[test]
    fn first_turn_is_stagger_wait() {
        let mut b = ScriptBackend::new(1);
        let mut e = MetronomeEngine::new(0, 32);
        assert!(matches!(
            e.turn(&mut b, &NullSink),
            Verdict::Wait(Nanos::ZERO)
        ));
    }

    /// Tallies what the engine publishes.
    #[derive(Default)]
    struct Tally {
        wakes: Cell<u64>,
        busy: Cell<u64>,
        bursts: Cell<u64>,
        retrieved: Cell<u64>,
    }

    impl TelemetrySink for Tally {
        fn wake(&self) {
            self.wakes.set(self.wakes.get() + 1);
        }
        fn busy(&self, _dur: Nanos) {
            self.busy.set(self.busy.get() + 1);
        }
        fn retrieved(&self, _q: usize, n: u64) {
            self.bursts.set(self.bursts.get() + 1);
            self.retrieved.set(self.retrieved.get() + n);
        }
    }

    #[test]
    fn turn_publishes_telemetry() {
        let sink = Tally::default();
        let mut b = ScriptBackend::new(1);
        b.queued[0].extend(0..40u64);
        let mut e = MetronomeEngine::new(0, 32);
        while !matches!(e.turn(&mut b, &sink), Verdict::Sleep(_)) {}
        // Two non-empty bursts → two burst records of 40 packets in all.
        assert_eq!((sink.bursts.get(), sink.retrieved.get()), (2, 40));
        assert_eq!(sink.wakes.get(), 1);

        // A lost race publishes its wake and no burst.
        b.locked[0] = true;
        while !matches!(e.turn(&mut b, &sink), Verdict::Sleep(_)) {}
        assert_eq!(sink.wakes.get(), 2);
        assert_eq!(sink.bursts.get(), 2);
        // Busy spans are the driver's to publish, never the engine's.
        assert_eq!(sink.busy.get(), 0);
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
