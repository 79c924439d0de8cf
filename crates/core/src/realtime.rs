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
//! | receive burst     | counting descriptor ring    | any [`RxQueue`] (the pipeline's lock-free ring consumer; an `ArrayQueue` in tests) drained batched into a reusable scratch buffer, one app call per burst |
//! | sleep service     | calibrated `hr_sleep` model | [`PreciseSleeper`]  |
//! | entropy           | seeded xoshiro stream       | SplitMix64 counter  |
//! | clock             | virtual `Nanos`             | the driver's [`CoarseClock`]: one OS read in an empty wake's busy span, the release stamp that closes it; in a wake that drains bursts, one per burst, the last of which is also the release stamp |
//! | step costs        | calibrated cycle charges    | none modeled (hardware pays) |
//!
//! **`hr_sleep()` substitution.** The paper's precision comes from a custom
//! kernel sleep service we cannot ship from user space. [`PreciseSleeper`]
//! stands in: it OS-sleeps toward the deadline minus the overshoot it has
//! learned the host's timers to add ([`WakeEstimate`], a running p90 of its
//! own thread's measured overshoot), then spin-waits the rest. Every
//! worker thread runs at the paper's lowered 1 µs timer slack
//! ([`crate::slack::LoweredSlack`], Fig. 1's `nanosleep` baseline), so
//! that overshoot is a few µs, not the ≈ 56 µs of the default 50 µs
//! slack. A sleep shorter than the overshoot is all spin — the paper's
//! patched `hr_sleep`, which returns at once for requests below its
//! precision (documented in DESIGN.md as a substitution).

use crate::config::MetronomeConfig;
use crate::controller::{AdaptiveController, QueueState};
use crate::discipline::{AnyDiscipline, Doorbell, RetrievalDiscipline, Verdict};
use crate::engine::Backend;
use crate::policy::ThreadPolicy;
use crate::rxqueue::{Consume, Lookahead, RxQueue};
use crate::slack::{thread_timer_slack, LoweredSlack};
use crate::trylock::TryLock;
use crossbeam::queue::ArrayQueue;
use metronome_sim::time::read_clock;
use metronome_sim::{CoarseClock, Nanos};
use metronome_telemetry::counters::bump;
use metronome_telemetry::{CounterSnapshot, TelemetrySink, TraceSink, TraceVerdict, TracedSink};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a parked worker waits on its doorbell before re-checking the
/// stop flag (bounds shutdown latency of idle InterruptLike workers).
const PARK_STOP_CHECK: Duration = Duration::from_millis(1);

/// One step of [`WakeEstimate`]: it falls this much on a sample at or
/// below it and rises [`WAKE_UP_STEPS`] of these on a sample above it.
const WAKE_STEP: Nanos = Nanos::from_nanos(250);

/// Up-steps per sample above the estimate. The estimate stands still
/// where `WAKE_UP_STEPS` × P(above) = P(at or below), so 9 puts it at the
/// overshoot's p90.
const WAKE_UP_STEPS: u64 = 9;

/// The highest [`WakeEstimate`] goes, and where it starts on a thread
/// whose timer slack cannot be read: enough to cover typical Linux
/// `nanosleep` overshoot even at the default 50 µs timer slack
/// (≈ 50–100 µs there, without an RT class). No sleep spins longer than
/// this.
const WAKE_CAP: Nanos = Nanos::from_micros(120);

/// Where a fresh [`WakeEstimate`] starts above its thread's timer slack
/// ([`WakeEstimate::seeded`]). On the 2-vCPU build host an OS sleep of
/// 10–100 µs overshoots by ≈ 56 µs at the p90 at the default 50 µs slack
/// and by ≈ 7–9 µs at 1 µs, about the slack plus 6–8 µs, so the seed
/// starts a little above both and learns down from there.
const WAKE_BASE: Nanos = Nanos::from_micros(15);

/// A thread's learned OS wake overshoot `ô`: a running high quantile
/// (≈ p90) of how far past the requested instant its OS sleeps return.
///
/// A value: [`WakeEstimate::update`] is a pure step of fixed size — up
/// 9 × 250 ns on a sample above the estimate, down 250 ns otherwise — so
/// one multi-millisecond host stall moves it by one up-step only. It
/// starts from the sleeping thread's timer slack
/// ([`WakeEstimate::seeded`]: 16 µs at the 1 µs slack every library
/// sleeper runs at, 65 µs at the default 50 µs), and never rises above
/// 120 µs. [`PreciseSleeper`] keeps one per worker or pacer, and each
/// executor shard keeps one for its idle wait: both ask it where an OS
/// sleep toward a deadline should end ([`WakeEstimate::os_wake`]) and
/// feed it the overshoot of the sleep they took. A wait shorter than the
/// estimate is spun whole and measures nothing, so a Metronome worker
/// whose `TS` ≈ 10 µs keeps spinning — where one OS sleep costs ≈ 6 µs
/// of thread CPU, that is the cheaper wait — while a pacer's 17–83 µs
/// gaps sleep from the first one.
///
/// A wait spun whole steps an estimate that stands above its seed one
/// step back toward it ([`WakeEstimate::spun`]). Without that, a few late
/// wakes in a row could lift the estimate past every wait its thread
/// takes — a 40 kpps CBR pacer's 25 µs gaps are four up-steps above the
/// 16 µs seed — and it would never be tested again: the thread would
/// spin every wait for the rest of its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WakeEstimate {
    overshoot: Nanos,
    /// Where it started, and where waits that take no OS sleep return it.
    seed: Nanos,
}

/// The cap: what an estimate starts at when its thread's slack is not
/// known.
impl Default for WakeEstimate {
    fn default() -> Self {
        WakeEstimate::starting_at(WAKE_CAP)
    }
}

impl WakeEstimate {
    fn starting_at(seed: Nanos) -> WakeEstimate {
        WakeEstimate {
            overshoot: seed,
            seed,
        }
    }

    /// A fresh estimate for a thread whose timer slack is `slack_ns`:
    /// `min(120 µs, slack + 15 µs)`.
    pub fn seeded(slack_ns: u64) -> WakeEstimate {
        let seed = Nanos(slack_ns.saturating_add(WAKE_BASE.as_nanos()));
        WakeEstimate::starting_at(seed.min(WAKE_CAP))
    }

    /// A fresh estimate for the calling thread, seeded from its timer
    /// slack ([`thread_timer_slack`]), or the cap where that cannot be
    /// read. Call it on the thread that will sleep.
    pub fn for_this_thread() -> WakeEstimate {
        thread_timer_slack().map_or_else(WakeEstimate::default, WakeEstimate::seeded)
    }

    /// The estimated overshoot `ô`.
    pub fn overshoot(self) -> Nanos {
        self.overshoot
    }

    /// The estimate after one measured overshoot `sample`.
    pub fn update(self, sample: Nanos) -> WakeEstimate {
        let overshoot = if sample > self.overshoot {
            (self.overshoot + WAKE_STEP * WAKE_UP_STEPS).min(WAKE_CAP)
        } else {
            self.overshoot.saturating_sub(WAKE_STEP)
        };
        WakeEstimate { overshoot, ..self }
    }

    /// The estimate after a wait spun whole, which measured nothing: one
    /// step down when it stands above its seed, never below the seed, and
    /// unchanged at or below it.
    pub fn spun(self) -> WakeEstimate {
        let overshoot = if self.overshoot > self.seed {
            self.overshoot.saturating_sub(WAKE_STEP).max(self.seed)
        } else {
            self.overshoot
        };
        WakeEstimate { overshoot, ..self }
    }

    /// Where an OS sleep from `now` toward `deadline` should end:
    /// `deadline − ô`, or `None` when that is not in the future and the
    /// whole wait is better spun.
    pub fn os_wake(self, now: Nanos, deadline: Nanos) -> Option<Nanos> {
        Some(deadline.saturating_sub(self.overshoot)).filter(|&wake| wake > now)
    }
}

/// Hybrid sleep: OS sleep to the deadline minus the thread's learned wake
/// overshoot ([`WakeEstimate`]), spin the rest, which buys wake precision
/// with as little CPU as this host's timers allow. Not `Clone`: each
/// worker and each pacer owns its sleeper, so each learns its own
/// thread's overshoot. A sleeper may be built on one thread and run on
/// another (a pacer is), so it seeds its estimate on its first sleep,
/// from the timer slack of the thread that takes it — one
/// `PR_GET_TIMERSLACK` per sleeper, not per sleep.
///
/// **Accounting semantic.** A `sleep()` call — including its spun tail,
/// which for intervals shorter than the estimate is the *whole* interval
/// — counts as sleep time in telemetry, not busy time. The sleeper stands
/// in for the paper's kernel `hr_sleep()`, whose sleeps are genuinely
/// CPU-free; charging its user-space spin to the worker would report the
/// substitution artifact instead of the protocol's cost. Every retrieval
/// discipline goes through the same sleeper, so cross-discipline
/// duty-cycle comparisons stay apples-to-apples *under the `hr_sleep`
/// model*; the real spin cost of the substitution is documented in
/// DESIGN.md §2 and shows in the process's own CPU time. The
/// `nanosleep`-precision ablation (DESIGN.md §5) is a simulator run over
/// `metronome_os::sleep::SleepService::Nanosleep`, not this sleeper.
#[derive(Debug, Default)]
pub struct PreciseSleeper {
    /// `None` until the first sleep seeds it.
    wake: Cell<Option<WakeEstimate>>,
}

impl PreciseSleeper {
    /// Sleep for at least `dur`, waking within spin precision of the
    /// deadline (sub-microsecond on an unloaded core, unless the OS sleep
    /// overshot by more than the estimate). Returns the measured
    /// oversleep — how far past the requested deadline the call actually
    /// returned — so callers can feed telemetry's sleep-precision
    /// counters.
    pub fn sleep(&self, dur: Duration) -> Duration {
        // A fresh clock's cache sits at its epoch: "now" for sleep_until.
        let dur = Nanos(dur.as_nanos() as u64);
        let woke = self.sleep_until(&CoarseClock::new(), dur);
        Duration::from_nanos((woke - dur).as_nanos())
    }

    /// Sleep until `deadline` on `clock`'s timeline and return the stamp
    /// at which the wait ended: the spin loop's own last read
    /// (≥ `deadline`), which is also what `clock.cached()` holds
    /// afterwards. The caller's last tick — `clock.cached()` on entry — is
    /// taken as the present, so a driver pays no clock read to start a
    /// sleep and none to learn when it ended: slept and overslept follow
    /// by subtraction. When `deadline − ô` is in the future the thread
    /// OS-sleeps to it first, and the spin's first read is the overshoot
    /// sample the estimate learns from; otherwise the whole wait is spun,
    /// and the estimate steps back toward its seed
    /// ([`WakeEstimate::spun`]).
    pub fn sleep_until(&self, clock: &CoarseClock, deadline: Nanos) -> Nanos {
        let wake = self.estimate();
        if let Some(at) = wake.os_wake(clock.cached(), deadline) {
            std::thread::sleep(Duration::from_nanos((at - clock.cached()).as_nanos()));
            let now = clock.tick();
            self.wake.set(Some(wake.update(now.saturating_sub(at))));
            if now >= deadline {
                return now;
            }
        } else {
            self.wake.set(Some(wake.spun()));
        }
        loop {
            let now = clock.tick();
            if now >= deadline {
                return now;
            }
            std::hint::spin_loop();
        }
    }

    /// The current estimate, seeded from the calling thread's slack the
    /// first time it is asked for.
    fn estimate(&self) -> WakeEstimate {
        self.wake.get().unwrap_or_else(|| {
            let seeded = WakeEstimate::for_this_thread();
            self.wake.set(Some(seeded));
            seeded
        })
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
    for q in 0..shared.slots.len() {
        stats.processed.push(shared.processed(q));
        stats.rho.push(shared.rho(q));
        stats.ts.push(shared.ts(q));
    }
    stats.controller = Some(shared.controller());
    stats
}

/// State shared by every worker of one [`crate::workers::WorkerSet`], on
/// either backend — which is what keeps the two backends' accounting
/// identical.
pub(crate) struct SharedState {
    /// Read-only after construction: `α`, `TL` and what the `TS` rule
    /// takes.
    cfg: MetronomeConfig,
    slots: Vec<QueueSlot>,
    /// What every stamp of the set — drivers' wake stamps, backends'
    /// release stamps — counts nanoseconds from: a vacation runs from one
    /// worker's release to another's wake.
    pub(crate) epoch: Instant,
    rand_state: AtomicU64,
    /// One wake-up doorbell per queue. Only the InterruptLike discipline
    /// parks on them; producers may ring unconditionally (a ring with no
    /// waiter is one uncontended mutex bump).
    pub(crate) doorbells: Vec<Arc<Doorbell>>,
    /// The timer slack the set's sleeper threads run at, ns, as each read
    /// it on itself after lowering it ([`SharedState::lower_timer_slack`]);
    /// [`SLACK_UNREAD`] until one has.
    timer_slack: AtomicU64,
}

const SLACK_UNREAD: u64 = u64::MAX;

/// One queue's contended words, on cache lines of their own so racing on
/// one queue never invalidates a neighbour's.
///
/// **The trylock is the only lock.** Every word but `lock` and
/// `busy_tries` is this queue's share of the adaptive controller
/// ([`QueueState`] plus the current `TS`) and of the run's books — the
/// set's one per-queue book ([`crate::workers::WorkerBooks`]) — kept as
/// `Relaxed` loads and stores with no read-modify-write ([`bump`]): a
/// word is written only by the trylock's holder, in `release()` *before*
/// `unlock()` (a `Release` store), or while draining; the next holder
/// reads it after its `try_lock()` (an `Acquire` CMPXCHG), so it sees
/// every write of every earlier holder and `load + 1` loses no update.
/// A baseline discipline never takes the lock but pins one worker to the
/// queue, which makes `processed` single-writer there too. Readers
/// outside the lock — [`crate::workers::WorkerSet::rho`] / `ts`, the
/// books' sampler, a loser reading `ts` in the equal-timeouts
/// ablation — may see a word one cycle stale, never a torn one;
/// [`SharedState::controller`] reads a consistent set because it runs
/// after the workers joined.
///
/// Laid out as declared: the eight words only a holder writes fill the
/// first line, and what a loser writes — the failed CMPXCHG takes the
/// lock's line exclusive, then `busy_tries` — sits on the second, so a
/// lost race never pulls the state line from under the holder.
#[repr(C, align(64))]
struct QueueSlot {
    /// When the lock was last released, in nanoseconds since
    /// [`SharedState::epoch`] ([`NEVER_RELEASED`] before the first
    /// release) — the start of the vacation the next acquire measures.
    last_release: AtomicU64,
    processed: AtomicU64,
    /// ρ̂ as `f64` bits; meaningful once `cycles > 0`.
    rho: AtomicU64,
    total_tries: AtomicU64,
    cycles: AtomicU64,
    vacation_sum: AtomicU64,
    busy_sum: AtomicU64,
    /// The current `TS` in nanoseconds: recomputed when ρ̂ moves, so
    /// reading it is a load.
    ts: AtomicU64,
    lock: TryLock,
    /// The one word losers write, hence a `fetch_add` — on the path that
    /// goes back to sleep for `TL`.
    busy_tries: AtomicU64,
}

const NEVER_RELEASED: u64 = u64::MAX;

/// A vacation shorter than this is measured to its exact end — one clock
/// read once the race is won — and not to the driver's wake stamp.
///
/// The wake stamp precedes the CMPXCHG by the wake path: the sleep's
/// bookkeeping and the engine's `AfterSleep` turn, some 60 ns (a few
/// hundred in a debug build). Measured against a vacation of `TS` ≥ `V̄`
/// that is under a percent, so the stamp stands in for the acquire and
/// the wake pays no clock read for it. But when another worker
/// released the queue moments ago — two workers waking in step on an idle
/// queue, a backup arriving right behind the primary — that stretch would
/// be a large share of the vacation, and booking it as busy time would
/// push the load estimate up: those cycles pay the read. So does a
/// backend stepped without a driver (the parity harness), which has no
/// wake stamp at all.
const SHORT_VACATION: Nanos = Nanos::from_micros(4);

impl SharedState {
    pub(crate) fn new(cfg: &MetronomeConfig) -> Arc<Self> {
        let idle_ts = AdaptiveController::ts_for(cfg, 0.0).as_nanos();
        Arc::new(SharedState {
            cfg: cfg.clone(),
            slots: (0..cfg.n_queues)
                .map(|_| QueueSlot {
                    last_release: AtomicU64::new(NEVER_RELEASED),
                    processed: AtomicU64::new(0),
                    rho: AtomicU64::new(0f64.to_bits()),
                    total_tries: AtomicU64::new(0),
                    cycles: AtomicU64::new(0),
                    vacation_sum: AtomicU64::new(0),
                    busy_sum: AtomicU64::new(0),
                    ts: AtomicU64::new(idle_ts),
                    lock: TryLock::new(),
                    busy_tries: AtomicU64::new(0),
                })
                .collect(),
            epoch: Instant::now(),
            rand_state: AtomicU64::new(0x4D3),
            doorbells: (0..cfg.n_queues).map(|_| Doorbell::new()).collect(),
            timer_slack: AtomicU64::new(SLACK_UNREAD),
        })
    }

    /// Lower the calling thread's timer slack for as long as the guard
    /// lives, and book the slack it then runs at. Every thread that runs
    /// the set's sleepers — a thread worker, an executor shard — calls
    /// this first, so the books show what they sleep under, not what the
    /// thread that spawned them does.
    pub(crate) fn lower_timer_slack(&self) -> LoweredSlack {
        let lowered = LoweredSlack::lower();
        if let Some(ns) = thread_timer_slack() {
            self.timer_slack.store(ns, Ordering::Relaxed);
        }
        lowered
    }

    /// Items processed so far on queue `q`.
    pub(crate) fn processed(&self, q: usize) -> u64 {
        self.slots[q].processed.load(Ordering::Relaxed)
    }

    /// Smoothed load estimate of queue `q` (0 before any observation).
    pub(crate) fn rho(&self, q: usize) -> f64 {
        f64::from_bits(self.slots[q].rho.load(Ordering::Relaxed))
    }

    /// Current adaptive `TS` of queue `q`.
    pub(crate) fn ts(&self, q: usize) -> Nanos {
        Nanos(self.slots[q].ts.load(Ordering::Relaxed))
    }

    /// Fill `snap`'s per-queue books from the slots: `retrieved` (every
    /// queue's `processed`) and the `TS` and ρ̂ gauges — a queue never
    /// released reads `TS` 0, since a baseline discipline never takes the
    /// lock, so it has no timeout to report — and the timer slack the
    /// set's sleepers run at (`None` until one has started).
    pub(crate) fn fill_snapshot(&self, snap: &mut CounterSnapshot) {
        let word = |w: &AtomicU64| w.load(Ordering::Relaxed);
        snap.retrieved = self.slots.iter().map(|s| word(&s.processed)).sum();
        snap.ts_ns = (self.slots.iter())
            .map(|s| {
                if word(&s.total_tries) == 0 {
                    0
                } else {
                    word(&s.ts)
                }
            })
            .collect();
        snap.rho = (0..self.slots.len()).map(|q| self.rho(q)).collect();
        let slack = self.timer_slack.load(Ordering::Relaxed);
        snap.timer_slack_ns = (slack != SLACK_UNREAD).then_some(slack);
    }

    /// The slots' words as the controller the simulation keeps behind
    /// `&mut`: per-queue try accounting and renewal-cycle sums.
    pub(crate) fn controller(&self) -> AdaptiveController {
        let word = |w: &AtomicU64| w.load(Ordering::Relaxed);
        let queues = (self.slots.iter().enumerate())
            .map(|(q, slot)| QueueState {
                rho: self.rho(q),
                total_tries: word(&slot.total_tries),
                busy_tries: word(&slot.busy_tries),
                cycles: word(&slot.cycles),
                vacation_sum: Nanos(word(&slot.vacation_sum)),
                busy_sum: Nanos(word(&slot.busy_sum)),
            })
            .collect();
        AdaptiveController::from_queues(self.cfg.clone(), queues)
    }

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
/// reusable scratch buffer and handed to the worker's [`Consume`]r one
/// call per burst, wall-clock vacation measurement from the driver's wake
/// stamp and one release stamp per release — handed back to the driver to
/// close its busy span ([`Backend::take_release_stamp`]) — and a shared
/// SplitMix64 entropy counter. The release stamp is the completion read
/// of the drain's last burst when the consumer took one
/// ([`Consume::take_completion`]), and a read of the backend's own
/// otherwise. One backend instance belongs to one worker thread, and its
/// consumer is *owned by that worker* — per-thread state (a mempool
/// cache, a flow table shard) lives right in it with no locks around it.
pub struct RealtimeBackend<T: Send + 'static, P, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    shared: Arc<SharedState>,
    consumer: P,
    /// Reusable burst buffer: filled by `rx_burst`, handed to the
    /// consumer, cleared after — the hot path allocates only until the
    /// buffer's capacity has grown to the configured burst size once.
    scratch: Vec<T>,
    /// The driver's clock stamp for the current turn
    /// ([`Backend::before_turn`]), until a race consumes it.
    turn_stamp: Option<Nanos>,
    /// Acquire stamp of the currently held lock (busy-period start).
    acquired_at: Option<Nanos>,
    /// Vacation that ended at the current acquire, if measurable.
    pending_vacation: Option<Nanos>,
    /// The completion read of the last burst drained under the held lock,
    /// until the release closes on it — or the driver hands down a stamp
    /// past it, which puts it in a busy span already closed.
    completed_at: Option<Nanos>,
    /// The last release's stamp, until the driver takes it.
    released_at: Option<Nanos>,
}

impl<T, P, Q> RealtimeBackend<T, P, Q>
where
    T: Send + 'static,
    P: Consume<T>,
    Q: RxQueue<T>,
{
    pub(crate) fn new(queues: Vec<Q>, shared: Arc<SharedState>, consumer: P) -> Self {
        RealtimeBackend {
            queues,
            shared,
            consumer,
            scratch: Vec::new(),
            turn_stamp: None,
            acquired_at: None,
            pending_vacation: None,
            completed_at: None,
            released_at: None,
        }
    }
}

impl<T, P, Q> Backend for RealtimeBackend<T, P, Q>
where
    T: Send + 'static,
    P: Consume<T>,
    Q: RxQueue<T>,
{
    fn n_queues(&self) -> usize {
        self.queues.len()
    }

    fn draw(&mut self) -> u64 {
        self.shared.draw()
    }

    fn before_turn(&mut self, now: Nanos) {
        self.turn_stamp = Some(now);
        // The driver closed a span after that completion (a periodic flush,
        // a drain cut at a slice's turn budget): a release now would close
        // a span that does not contain it, so it reads the clock instead.
        if self.completed_at.is_some_and(|done| done < now) {
            self.completed_at = None;
        }
    }

    fn take_release_stamp(&mut self) -> Option<Nanos> {
        self.released_at.take()
    }

    fn lookahead(&self, q: usize, stage: Lookahead, depth: usize) {
        self.queues[q].lookahead(stage, depth);
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        // Won or lost, the race consumes the turn's stamp; a completion
        // stamp is only ever one of this acquire's bursts.
        let woke = self.turn_stamp.take();
        self.completed_at = None;
        let slot = &self.shared.slots[q];
        if !slot.lock.try_lock() {
            slot.busy_tries.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Lock held: the vacation ends and the busy period starts. The
        // acquisition goes on the books in release(), past the stamp that
        // ends the measured busy period.
        let released = slot.last_release.load(Ordering::Relaxed);
        let first = released == NEVER_RELEASED;
        let now = match woke {
            Some(woke) if first || woke >= Nanos(released) + SHORT_VACATION => woke,
            _ => read_clock(self.shared.epoch),
        };
        self.acquired_at = Some(now);
        // Saturating, as `Instant::duration_since` is: the release stamp
        // was read on another thread.
        self.pending_vacation = (!first).then(|| now.saturating_sub(Nanos(released)));
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
            self.consumer.consume(q, &mut self.scratch);
            // The consumer's completion read, on the set's epoch (exactly:
            // an `Instant` converts onto any anchor without rounding).
            self.completed_at = (self.consumer.take_completion())
                .map(|at| Nanos(at.saturating_duration_since(self.shared.epoch).as_nanos() as u64));
            // The consumer may have taken the items (e.g. recycled them to
            // a mempool); drop whatever it left behind.
            self.scratch.clear();
            bump(&self.shared.slots[q].processed, taken);
        }
        taken
    }

    fn release(&mut self, q: usize) -> Nanos {
        let acquired = self
            .acquired_at
            .take()
            .expect("release without matching acquire");
        // One stamp: the busy period's end, the published release stamp,
        // and — handed to the driver — the end of the worker's busy span.
        // After a drain it is the completion read of its last burst, which
        // only the poll that found the queue empty follows; an empty wake
        // (or a consumer that reads no clock) pays a read here.
        let now = match self.completed_at.take() {
            Some(done) => done,
            None => read_clock(self.shared.epoch),
        };
        debug_assert!(
            now >= acquired,
            "release stamp {now} before acquire {acquired}"
        );
        self.released_at = Some(now);
        let shared = &*self.shared;
        let slot = &shared.slots[q];
        slot.last_release.store(now.as_nanos(), Ordering::Relaxed);
        // The controller's turn, all of it before the unlock that
        // publishes it (see `QueueSlot`): the acquisition, the completed
        // renewal cycle, and the TS that follows from the new ρ̂.
        bump(&slot.total_tries, 1);
        let ts = match self.pending_vacation.take() {
            Some(vacation) => {
                let busy = now - acquired;
                let cycles = slot.cycles.load(Ordering::Relaxed);
                let prev = (cycles > 0).then(|| shared.rho(q));
                let rho = QueueState::rho_step(shared.cfg.alpha, prev, vacation, busy);
                let ts = AdaptiveController::ts_for(&shared.cfg, rho);
                slot.rho.store(rho.to_bits(), Ordering::Relaxed);
                slot.cycles.store(cycles + 1, Ordering::Relaxed);
                bump(&slot.vacation_sum, vacation.as_nanos());
                bump(&slot.busy_sum, busy.as_nanos());
                slot.ts.store(ts.as_nanos(), Ordering::Relaxed);
                ts
            }
            None => shared.ts(q),
        };
        slot.lock.unlock();
        ts
    }

    fn ts(&self, q: usize) -> Nanos {
        self.shared.ts(q)
    }

    fn tl(&self) -> Nanos {
        self.shared.cfg.t_long
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
        self.shared.processed(queue)
    }

    /// Successful acquisitions recorded on a queue.
    pub fn total_tries(&self, queue: usize) -> u64 {
        self.shared.slots[queue].total_tries.load(Ordering::Relaxed)
    }

    /// Busy tries recorded on a queue.
    pub fn busy_tries(&self, queue: usize) -> u64 {
        self.shared.slots[queue].busy_tries.load(Ordering::Relaxed)
    }
}

/// Publish one completed timed sleep — `requested`, and `actual` between
/// the two stamps that bound it — with its oversleep where the verdict's
/// contract has one (`Sleep` yes, `Wait` no). Sink and tracer see the same
/// values, so the trace oversleep histogram's sum equals the hub's
/// oversleep counter, and `actual == requested + overslept` exactly.
pub(crate) fn publish_sleep(
    sink: &impl TelemetrySink,
    tracer: &impl TraceSink,
    requested: Nanos,
    actual: Nanos,
    oversleep: bool,
) {
    sink.slept(actual);
    let over = if oversleep {
        sink.overslept(actual - requested);
        actual - requested
    } else {
        Nanos::ZERO
    };
    tracer.sleep(requested, actual, over);
}

/// The stamp a driver closes a busy span on: the backend's release stamp
/// ([`Backend::take_release_stamp`]) when a release came since the last
/// close — `clock` moved up to it, no read — and one read of `clock`
/// otherwise.
pub(crate) fn span_end(clock: &CoarseClock, backend: &mut impl Backend) -> Nanos {
    match backend.take_release_stamp() {
        Some(stamp) => clock.advance_to(stamp),
        None => clock.tick(),
    }
}

/// Spawn one OS thread per prepared `(discipline, backend)` worker — the
/// thread half of [`crate::workers::WorkerSet`]. Each thread first lowers
/// its own timer slack and books it in `shared`
/// ([`SharedState::lower_timer_slack`]). Every worker's driver clock
/// counts from `shared.epoch`, the worker set's own, so the wake stamps it
/// hands its backend share the backends' timeline. `make_sink(worker)` is
/// the worker's telemetry view (its slot of the set's hub) and
/// `make_tracer(worker)` its flight-recorder view
/// ([`NullTrace`](metronome_telemetry::NullTrace) when tracing is off —
/// a loop with zero record-path cost). Joining a handle yields the
/// worker's final policy counters.
pub(crate) fn spawn_threads<B, S, R>(
    label: &str,
    workers: Vec<(AnyDiscipline, B)>,
    stop: &Arc<AtomicBool>,
    shared: &Arc<SharedState>,
    make_sink: impl Fn(usize) -> S,
    make_tracer: impl Fn(usize) -> R,
) -> Vec<JoinHandle<ThreadPolicy>>
where
    B: Backend + Send + 'static,
    S: TelemetrySink + Send + 'static,
    R: TraceSink + Send + 'static,
{
    workers
        .into_iter()
        .enumerate()
        .map(|(worker, (discipline, backend))| {
            let stop = Arc::clone(stop);
            let shared = Arc::clone(shared);
            let sink = make_sink(worker);
            let tracer = make_tracer(worker);
            std::thread::Builder::new()
                .name(format!("{label}-{worker}"))
                .spawn(move || {
                    let _slack = shared.lower_timer_slack();
                    let sleeper = PreciseSleeper::default();
                    let epoch = shared.epoch;
                    run_worker(discipline, backend, &sleeper, epoch, sink, tracer, &stop)
                })
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
/// windowed duty-cycle sampling stays live without a clock read per turn.
///
/// **The driver owns the clock** (counting from `epoch`). A sleep costs
/// two stamps: one that closes the busy span and is the sleep's start, and
/// the sleeper's own last spin-loop read when the sleep returns, which
/// opens the next busy span, gives `slept` and `overslept` by subtraction
/// (so `slept == requested + overslept` exactly) and is what the backend
/// is handed before each turn ([`Backend::before_turn`]) as the stamp of
/// its acquire. The closing stamp is the backend's release stamp when a
/// release came since the last close ([`Backend::take_release_stamp`]),
/// and a read of the driver's own otherwise — a lost race, a baseline
/// discipline, a park. So the busy span of an empty Metronome wake holds
/// one OS clock read, the release, and so does a wake that loses its race,
/// the close; a wake that drains `k` bursts through a consumer that stamps
/// their completion holds `k`, the last of which is the release stamp too.
/// What follows the release stamp (the engine's `TS` bookkeeping and
/// `GoSleep` turn, this dispatch — and after a drain, the rest of the last
/// burst's consume and the poll that found the queue empty) is the first
/// few nanoseconds of the sleep.
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
    sleeper: &PreciseSleeper,
    epoch: Instant,
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
    // events (their packets sum to the queues' `processed` by
    // construction).
    let sink = TracedSink::new(sink, &tracer);
    let clock = CoarseClock::from_epoch(epoch);
    // Close the busy span running since `since` (see `span_end`); the
    // caller makes the closing stamp the start of whatever comes next.
    let close_span = |since: Nanos, backend: &mut B| {
        let now = span_end(&clock, backend);
        sink.busy(now - since);
        now
    };
    // Sleep `dur` from the stamp `now`, publish it and return the wake
    // stamp (`now` itself for an empty sleep).
    let sleep_from = |now: Nanos, dur: Nanos, oversleep: bool| {
        if dur.is_zero() {
            return now;
        }
        let woke = sleeper.sleep_until(&clock, now + dur);
        publish_sleep(&sink, &tracer, dur, woke - now, oversleep);
        woke
    };
    let mut awake_since = clock.tick();
    let mut streak: u32 = 0;
    // Set when a park wake was just recorded; consumed at the top of the
    // next turn as the wake-to-first-poll latency.
    let mut woke_at: Option<Nanos> = None;
    loop {
        if let Some(woke) = woke_at.take() {
            tracer.first_poll(clock.tick() - woke);
        }
        backend.before_turn(clock.cached());
        match discipline.turn(&mut backend, &sink) {
            // Real cycles were already spent doing the step; flush the
            // running busy span periodically so a saturated worker's duty
            // cycle shows up in the window it was earned, not in one
            // spike at the streak's end.
            Verdict::Continue => {
                tracer.turn_verdict(TraceVerdict::Continue);
                streak = streak.wrapping_add(1);
                if streak & SPAN_FLUSH_MASK == 0 {
                    awake_since = close_span(awake_since, &mut backend);
                }
            }
            Verdict::Yield => {
                tracer.turn_verdict(TraceVerdict::Yield);
                // Spin boundary (busy polling): no queue lock is held, so
                // exiting here cannot strand anything.
                if stop.load(Ordering::Relaxed) {
                    close_span(awake_since, &mut backend);
                    return discipline.into_policy();
                }
                streak = streak.wrapping_add(1);
                if streak & SPAN_FLUSH_MASK == 0 {
                    awake_since = close_span(awake_since, &mut backend);
                }
                std::hint::spin_loop();
            }
            Verdict::Sleep(dur) => {
                tracer.turn_verdict(TraceVerdict::Sleep);
                let now = close_span(awake_since, &mut backend);
                // Sleep points are turn boundaries: the queue lock is never
                // held here, so exiting now cannot strand a TryLock or drop
                // an in-flight renewal cycle mid-drain.
                if stop.load(Ordering::Relaxed) {
                    return discipline.into_policy();
                }
                awake_since = sleep_from(now, dur, true);
            }
            Verdict::Wait(dur) => {
                tracer.turn_verdict(TraceVerdict::Wait);
                // Start-up stagger: an exact idle wait with no oversleep
                // semantics (and none recorded — the trace event carries a
                // zero oversleep, keeping histogram sums reconciled).
                let now = close_span(awake_since, &mut backend);
                if stop.load(Ordering::Relaxed) {
                    return discipline.into_policy();
                }
                awake_since = sleep_from(now, dur, false);
            }
            Verdict::Park(token) => {
                tracer.turn_verdict(TraceVerdict::Park);
                let parked_from = close_span(awake_since, &mut backend);
                tracer.park();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        sink.slept(clock.tick() - parked_from);
                        return discipline.into_policy();
                    }
                    if token.wait(PARK_STOP_CHECK) {
                        break;
                    }
                }
                awake_since = clock.tick();
                let parked = awake_since - parked_from;
                sink.slept(parked);
                tracer.unpark(parked);
                woke_at = Some(awake_since);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
    fn wake_estimate_settles_near_the_overshoot_p90() {
        // Overshoots spread uniformly over 40–80 µs, as the default 50 µs
        // slack spreads them here: p90 is 76 µs. From its 120 µs start the
        // estimate walks down and then hovers within a few steps of it.
        let mut rng = metronome_sim::Rng::new(7);
        let mut wake = WakeEstimate::default();
        let mut tail = Vec::new();
        for i in 0..20_000 {
            wake = wake.update(Nanos(rng.range_inclusive(40_000, 80_000)));
            if i >= 10_000 {
                tail.push(wake.overshoot().as_micros_f64());
            }
        }
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (73.0..=79.0).contains(&mean),
            "settled at {mean} µs, not ≈ 76"
        );
        let (lo, hi) = tail
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!(lo > 64.0 && hi < 88.0, "wandered over {lo}–{hi} µs");
    }

    #[test]
    fn a_host_stall_moves_the_wake_estimate_one_step() {
        let mut wake = WakeEstimate::default();
        for _ in 0..200 {
            wake = wake.update(Nanos::from_micros(10));
        }
        let before = wake.overshoot();
        assert_eq!(before, Nanos::from_micros(70));
        let after = wake.update(Nanos::from_millis(13)).overshoot();
        assert_eq!(after - before, WAKE_STEP * WAKE_UP_STEPS);
        assert_eq!(after - before, Nanos(2_250));
    }

    #[test]
    fn the_wake_estimate_never_rises_above_its_start() {
        let start = WakeEstimate::default();
        assert_eq!(start.overshoot(), Nanos::from_micros(120));
        let mut wake = start;
        for sample in [Nanos::from_micros(121), Nanos::from_millis(13), Nanos::MAX] {
            for _ in 0..100 {
                wake = wake.update(sample);
                assert!(wake.overshoot() <= start.overshoot());
            }
            assert_eq!(wake, start);
        }
        // The floor is zero, and from it one late wake is one up-step.
        for _ in 0..1_000 {
            wake = wake.update(Nanos::ZERO);
        }
        assert_eq!(wake.overshoot(), Nanos::ZERO);
        assert_eq!(wake.update(Nanos(1)).overshoot(), Nanos(2_250));
        // An OS sleep ends `ô` before the deadline, if that is still ahead.
        let (now, deadline) = (Nanos::from_micros(1_000), Nanos::from_micros(1_200));
        assert_eq!(
            start.os_wake(now, deadline),
            Some(Nanos::from_micros(1_080))
        );
        assert_eq!(start.os_wake(now, now + Nanos::from_micros(120)), None);
        assert_eq!(start.os_wake(Nanos::ZERO, Nanos::from_micros(50)), None);
    }

    #[test]
    fn a_spun_wait_returns_the_estimate_to_its_seed_and_no_further() {
        let seed = WakeEstimate::seeded(1_000);
        // A late streak lifts it past a 25 µs wait: four up-steps.
        let mut wake = seed;
        for _ in 0..4 {
            wake = wake.update(Nanos::from_millis(1));
        }
        assert_eq!(wake.overshoot(), Nanos::from_micros(25));
        assert_eq!(wake.os_wake(Nanos::ZERO, Nanos::from_micros(25)), None);
        // Each wait it spins whole brings it one step back, to the seed.
        for _ in 0..36 {
            wake = wake.spun();
        }
        assert_eq!(wake, seed);
        assert_eq!(wake.spun(), seed);
        assert!(wake.os_wake(Nanos::ZERO, Nanos::from_micros(25)).is_some());
        // Below the seed, which only measured samples take it to, a spun
        // wait changes nothing.
        let learned = seed.update(Nanos::ZERO);
        assert_eq!(learned.spun(), learned);
    }

    #[test]
    fn the_wake_estimate_is_seeded_from_the_timer_slack() {
        assert_eq!(
            WakeEstimate::seeded(50_000).overshoot(),
            Nanos::from_micros(65)
        );
        assert_eq!(
            WakeEstimate::seeded(1_000).overshoot(),
            Nanos::from_micros(16)
        );
        assert_eq!(WakeEstimate::seeded(10_000_000), WakeEstimate::default());
        assert_eq!(WakeEstimate::seeded(u64::MAX).overshoot(), WAKE_CAP);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_precise_sleeper_seeds_on_the_thread_that_first_sleeps() {
        // Built here, at this thread's slack; first used on a thread that
        // lowered its own.
        let s = PreciseSleeper::default();
        let seeded = std::thread::spawn(move || {
            let _slack = LoweredSlack::lower();
            s.sleep(Duration::ZERO);
            s.estimate()
        })
        .join()
        .unwrap();
        assert_eq!(seeded, WakeEstimate::seeded(crate::slack::LOWERED_SLACK_NS));
    }

    #[test]
    fn precise_sleeper_learns_the_overshoot_without_waking_early() {
        // 200 sleeps of 1 ms at the lowered slack: each OS-sleeps most of
        // the way and spins the rest. Generous for shared hosts: the
        // estimate has only to leave its 16 µs seed, in whichever
        // direction this host's wakes take it (a 1 ms sleep lets a
        // virtual CPU halt, and on the 2-vCPU build host it then
        // overshoots by ≈ 35 µs at the median even at 1 µs of slack).
        let _slack = LoweredSlack::lower();
        let s = PreciseSleeper::default();
        let start = WakeEstimate::for_this_thread();
        let clock = CoarseClock::new();
        for _ in 0..200 {
            let t0 = Instant::now();
            let deadline = clock.tick() + Nanos::from_millis(1);
            let woke = s.sleep_until(&clock, deadline);
            assert!(woke >= deadline, "woke early: {woke} < {deadline}");
            assert!(
                t0.elapsed() >= Duration::from_millis(1),
                "{:?}",
                t0.elapsed()
            );
        }
        let learned = s.estimate();
        assert_ne!(learned, start, "still at its seed");
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
        let s = PreciseSleeper::default();
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
    fn sleep_until_returns_its_own_last_read() {
        let s = PreciseSleeper::default();
        let clock = CoarseClock::new();
        let from = clock.tick();
        let deadline = from + Nanos::from_micros(300);
        let woke = s.sleep_until(&clock, deadline);
        assert!(woke >= deadline, "woke early: {woke} < {deadline}");
        assert!(woke < deadline + Nanos::from_millis(20), "woke at {woke}");
        assert_eq!(clock.cached(), woke, "the wake stamp stays in the clock");
        // A deadline already behind the clock is one read and no sleep.
        let again = s.sleep_until(&clock, from);
        assert!(again >= woke && again < woke + Nanos::from_millis(20));
    }

    /// One winning turn on queue `q` — acquire on `stamp` (or on the
    /// backend's own read), release — booked on `want` as the stamps the
    /// backend took say it went. Returns the acquire stamp.
    fn winning_turn<P: FnMut(usize, &mut Vec<u64>)>(
        b: &mut RealtimeBackend<u64, P>,
        want: &mut AdaptiveController,
        q: usize,
        stamp: Option<Nanos>,
    ) -> Nanos {
        let released =
            |b: &RealtimeBackend<u64, P>| b.shared.slots[q].last_release.load(Ordering::Relaxed);
        let before = released(b);
        b.turn_stamp = stamp;
        assert!(b.try_acquire(q), "free lock must be acquirable");
        let acquired = b.acquired_at.expect("lock held");
        let ts = b.release(q);
        want.record_acquired(q);
        if before != NEVER_RELEASED {
            let vacation = acquired.saturating_sub(Nanos(before));
            want.record_cycle(q, vacation, Nanos(released(b)) - acquired);
        }
        assert_eq!(ts, want.ts(q), "release returns the TS of the new rho");
        acquired
    }

    #[test]
    fn backend_is_drivable_single_threaded() {
        // The Backend surface must be usable without spawning threads —
        // this is what the sim-vs-realtime parity test leans on — and
        // deterministic in its stamps: with the acquires stamped by the
        // driver and the releases read by the backend, a cycle is exactly
        // the vacation and the busy period those stamps bound. And the
        // queue's words are a plain `AdaptiveController`'s books, bit for
        // bit: `want` is fed the same (vacation, busy) sequence through
        // `&mut`, under eq. (13), eq. (14) at one thread per queue, at a
        // whole and at a fractional ratio, and under a pinned TS.
        for cfg in [
            MetronomeConfig::default(),
            MetronomeConfig::multiqueue(2, 2),
            MetronomeConfig::multiqueue(4, 2),
            MetronomeConfig::multiqueue(5, 4),
            MetronomeConfig {
                fixed_ts: Some(Nanos::from_micros(50)),
                ..MetronomeConfig::default()
            },
        ] {
            let q = cfg.n_queues - 1;
            let queues: Vec<_> = (0..cfg.n_queues)
                .map(|_| Arc::new(ArrayQueue::<u64>::new(16)))
                .collect();
            let harness =
                RealtimeHarness::new(cfg.clone(), queues.clone(), |_q, _burst: &mut Vec<u64>| {});
            let shared = &harness.shared;
            let mut want = AdaptiveController::new(cfg);
            let now = || read_clock(shared.epoch);
            let released = || Nanos(shared.slots[q].last_release.load(Ordering::Relaxed));
            let (mut b, mut other) = (harness.backend(), harness.backend());
            assert_eq!(b.ts(q), want.ts(q), "idle TS before any cycle");
            queues[q].push(7).unwrap();
            let t0 = now();
            b.before_turn(t0);
            assert!(b.try_acquire(q));
            assert_eq!(b.acquired_at, Some(t0));
            // A lost race consumes its stamp and leaves nothing behind.
            other.before_turn(t0);
            assert!(!other.try_acquire(q), "second acquire must lose the race");
            assert_eq!((other.turn_stamp, other.acquired_at), (None, None));
            want.record_busy_try(q);
            assert_eq!(b.rx_burst(q, 32), 1);
            let ts = b.release(q);
            want.record_acquired(q);
            assert_eq!(ts, want.ts(q));
            let t1 = released();
            // The release stamp is the driver's, once; a lost race has none.
            assert_eq!(b.take_release_stamp(), Some(t1));
            assert_eq!(b.take_release_stamp(), None);
            assert_eq!(other.take_release_stamp(), None);
            // No release came before the first acquire: no vacation, no
            // cycle.
            assert_eq!(shared.controller().queue(q).cycles, 0);
            // A stamp handed in a turn that only polls (a baseline
            // discipline, the next slice of a long drain) is replaced by
            // the next turn's.
            b.before_turn(t1);
            assert_eq!(b.rx_burst(q, 32), 0);
            // The script, in µs. The acquire stamp sets the vacation; the
            // release reads the clock, so the busy period is at least what
            // the script lets pass and exactly what the stamps say.
            let script = [
                (500, 1),
                (5, 0),
                (30, 20),
                (10, 90),
                (200, 5),
                (8, 8),
                (40, 0),
                (15, 60),
                (5, 150),
                (100, 2),
            ];
            for (vacation, busy) in script {
                let stamp = released() + Nanos::from_micros(vacation);
                while now() < stamp + Nanos::from_micros(busy) {
                    std::hint::spin_loop();
                }
                let cycles = want.queue(q).cycles;
                let acquired = winning_turn(&mut b, &mut want, q, Some(stamp));
                assert_eq!(acquired, stamp, "the driver's stamp is the acquire");
                assert_eq!(want.queue(q).cycles, cycles + 1);
                assert_eq!(b.ts(q), want.ts(q));
                assert_eq!(shared.rho(q).to_bits(), want.rho(q).to_bits());
            }
            // A wake stamp this close behind the last release would take a
            // good part of the vacation for busy time: the backend reads
            // the clock instead. So does one that was handed no stamp.
            for stamp in [Some(released() + Nanos(100)), None] {
                let before = now();
                let acquired = winning_turn(&mut b, &mut want, q, stamp);
                assert!(acquired >= before, "{stamp:?}");
            }
            assert_eq!(harness.processed(q), 1);
            assert_eq!(harness.total_tries(q), script.len() as u64 + 3);
            assert_eq!(harness.busy_tries(q), 1);
            let got = shared.controller();
            for queue in 0..got.n_queues() {
                let (g, w) = (got.queue(queue), want.queue(queue));
                assert_eq!(g.rho().to_bits(), w.rho().to_bits());
                assert_eq!(
                    (g.total_tries, g.busy_tries, g.cycles),
                    (w.total_tries, w.busy_tries, w.cycles)
                );
                assert_eq!((g.vacation_sum, g.busy_sum), (w.vacation_sum, w.busy_sum));
                assert_eq!(shared.ts(queue), want.ts(queue));
            }
        }
    }

    /// Counts the clock reads inside each busy span that follows a sleep,
    /// puts `refill` items on `queue` as each span opens, and raises
    /// `stop` after a few spans.
    #[cfg(debug_assertions)]
    struct SpanReads<'a> {
        stop: &'a AtomicBool,
        queue: &'a ArrayQueue<u64>,
        refill: u64,
        opened_at: std::cell::Cell<Option<u64>>,
        spans: std::cell::RefCell<Vec<u64>>,
    }

    #[cfg(debug_assertions)]
    impl TelemetrySink for SpanReads<'_> {
        // The driver's first call after the sleeper's last read: the span
        // is open and nothing has been read inside it yet.
        fn slept(&self, _dur: Nanos) {
            self.opened_at.set(Some(metronome_sim::time::clock_reads()));
            for item in 0..self.refill {
                self.queue.push(item).expect("the queue holds a refill");
            }
        }

        // Called right after the read that closes the span.
        fn busy(&self, _dur: Nanos) {
            if let Some(opened_at) = self.opened_at.take() {
                let mut spans = self.spans.borrow_mut();
                spans.push(metronome_sim::time::clock_reads() - opened_at);
                if spans.len() == 8 {
                    self.stop.store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// A consumer that stamps each burst's completion through the counted
    /// read and hands it back, as the pipeline's does.
    #[cfg(debug_assertions)]
    #[derive(Default)]
    pub(crate) struct Stamping(Option<Instant>);

    #[cfg(debug_assertions)]
    impl Consume<u64> for Stamping {
        fn consume(&mut self, _q: usize, burst: &mut Vec<u64>) {
            burst.clear();
            self.0 = Some(metronome_sim::time::read_instant());
        }

        fn take_completion(&mut self) -> Option<Instant> {
            self.0.take()
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_metronome_wake_reads_the_clock_once_per_burst_or_once_if_empty() {
        // The real driver over the real backend, on this thread (the read
        // counter is thread-local). One worker on one queue, topped up with
        // `refill` items as every wake's span opens, so every wake wins
        // the race. Empty, it polls nothing, releases and sleeps TS again:
        // its busy span holds the backend's release stamp, which also
        // closes it, and no second read. With one burst queued the span
        // holds the burst's completion read and nothing else: the poll
        // that finds the queue empty next releases on that stamp, which
        // closes the span. Two bursts (32 + 1) are two completion reads
        // and nothing at the release. With the queue held by someone else
        // every wake loses, nothing is released, and the driver's own
        // span-closing read is all there is.
        for (queue_held, refill, reads) in
            [(false, 0, 1), (false, 1, 1), (false, 33, 2), (true, 0, 1)]
        {
            let case = format!("queue held: {queue_held}, refill {refill}");
            let cfg = MetronomeConfig {
                m_threads: 1,
                ..MetronomeConfig::default()
            };
            let queue = Arc::new(ArrayQueue::<u64>::new(64));
            let harness = RealtimeHarness::new(
                cfg,
                vec![Arc::clone(&queue)],
                |_q, _burst: &mut Vec<u64>| {},
            );
            let mut holder = harness.backend();
            if queue_held {
                assert!(holder.try_acquire(0));
            }
            let stop = AtomicBool::new(false);
            let sink = SpanReads {
                stop: &stop,
                queue: &queue,
                refill,
                opened_at: Default::default(),
                spans: Default::default(),
            };
            let backend = RealtimeBackend::new(
                vec![Arc::clone(&queue)],
                Arc::clone(&harness.shared),
                Stamping::default(),
            );
            let policy = run_worker(
                crate::engine::MetronomeEngine::new(0, 32),
                backend,
                &PreciseSleeper::default(),
                harness.shared.epoch,
                &sink,
                metronome_telemetry::NullTrace,
                &stop,
            );
            assert_eq!(*sink.spans.borrow(), [reads; 8], "{case}");
            let won = if queue_held { 0 } else { policy.wakes };
            assert_eq!(policy.races_won, won, "{case}");
            // Every span but the last one's ran its drain to the end.
            assert!(harness.processed(0) >= 7 * refill, "{case}");
        }
    }
}
