//! The async discipline executor: 1000+ retrieval queues on a handful of
//! OS threads.
//!
//! The thread backend (`crate::realtime`) spawns one OS thread per
//! worker, which caps scenario scale at what the host can schedule. This
//! module — the executor half of [`crate::workers::WorkerSet`],
//! [`ExecBackend::Async`](crate::workers::ExecBackend) — runs the *same*
//! [`RetrievalDiscipline`] state machines as cooperative tasks over a
//! hand-rolled, vruntime-ordered executor — no external async runtime,
//! consistent with the offline vendoring policy. A worker set of `W`
//! tasks runs on `shards` executor threads; each shard owns
//!
//! * a **due list**: the tasks a wheel tick just fired or a doorbell just
//!   woke, in that order, served front to back as one *sweep* — the
//!   paper's multiqueue thread waking and serving its queues — with the
//!   queues of the next two tasks on the list hinted ahead of time
//!   ([`Backend::lookahead`]), so their cross-core cache misses overlap
//!   the burst being processed;
//! * a **run queue** ordered by accumulated virtual runtime (the CFS
//!   idea: the task that has consumed the least CPU runs next) for the
//!   tasks that end a slice wanting more — a saturated drain, a busy
//!   poller — which get one slice between sweeps and so can neither
//!   starve their shard-mates nor be starved by them;
//! * a **hierarchical [`TimerWheel`]** absorbing every `Verdict::Sleep` /
//!   `Verdict::Wait` deadline — thousands of concurrent `r_sleep` timers
//!   become one coalesced deadline store per shard instead of one parked
//!   OS thread each;
//! * an **injector** that [`std::task::Waker`]s push woken tasks through:
//!   a `Verdict::Park` registers the task's waker on its queue's
//!   [`Doorbell`] (via the same lost-wakeup-safe arming protocol the
//!   condvar path uses, [`crate::discipline::ParkToken::arm`]), so a
//!   parked task costs zero CPU until a producer's ring fires the waker.
//!
//! Verdict → scheduling map (the async mirror of
//! `crate::realtime::run_worker`):
//!
//! | [`Verdict`]  | thread backend              | executor                          |
//! |--------------|-----------------------------|-----------------------------------|
//! | `Continue`   | loop again                  | same slice until the turn budget, then requeue by vruntime |
//! | `Yield`      | stop-check + `spin_loop`    | requeue by vruntime               |
//! | `Sleep(d)`   | `PreciseSleeper::sleep(d)`  | timer-wheel entry, oversleep kept; due list when it fires |
//! | `Wait(d)`    | precise sleep, no oversleep | timer-wheel entry; due list when it fires |
//! | `Park(tok)`  | condvar wait on the bell    | waker registered on the bell; due list when it rings |
//!
//! Accounting is shared wholesale: tasks run over the identical
//! [`RealtimeBackend`] / `SharedState` substrate (controller, trylocks,
//! processed counters, doorbells) and publish through the same
//! [`TelemetrySink`] calls at the same protocol boundaries, so a report
//! produced on this backend is directly comparable to the thread
//! backend's — that is what the thread-vs-async parity tests pin down.
//!
//! [`Doorbell`]: crate::discipline::Doorbell
//! [`RealtimeBackend`]: crate::realtime::RealtimeBackend

mod wheel;

pub use wheel::{TimerEntry, TimerWheel};

use crate::discipline::{AnyDiscipline, ParkToken, RetrievalDiscipline, Verdict};
use crate::engine::Backend;
use crate::policy::ThreadPolicy;
use crate::realtime::{publish_sleep, span_end, WakeEstimate};
use crate::rxqueue::Lookahead;
use metronome_sim::{CoarseClock, Nanos};
use metronome_telemetry::{TelemetrySink, TraceSink, TraceVerdict, TracedSink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wheel tick: ≈16 µs coalescing grain. Deadlines round **up** to a tick
/// boundary, so a sleep of `d` lasts until the first boundary at or after
/// its deadline: `d` plus 0–16 µs, and sleeps shorter than a tick —
/// Metronome's `TS` at `V̄` = 15 µs — last a whole tick or two. That is
/// why `mq16_async` measures a ≈ 33 µs mean vacation against its 15 µs
/// target (DESIGN.md §2f); from a few ticks up the rounding is a small
/// share of the sleep.
const TICK_NS: u64 = 16_384;

/// Consecutive `Verdict::Continue` turns a task may run before it is
/// requeued (64 turns × a 32-packet burst ≈ 2k packets per slice): the
/// preemption grain that keeps one saturated queue from starving its
/// shard-mates.
const TURN_BUDGET: u32 = 64;

/// Queued items per queue a sweep's lookahead asks about
/// ([`Backend::lookahead`]): the slots whose lines the index stage
/// requests and the frames whose headers the next stage does. A little
/// over the bursts a sweep finds (`apps.burst_mean` ≈ 2.4 on `mq16_async`):
/// a deeper queue amortizes its misses over the burst by itself.
const LOOKAHEAD_DEPTH: usize = 4;

/// Upper bound on one idle block (bounds wheel catch-up work and stop
/// latency even if a notification is somehow missed).
const MAX_IDLE_WAIT: Duration = Duration::from_millis(20);

/// Defensive re-poll cadence for parked tasks. The waker protocol is
/// lost-wakeup-free on its own; this fallback timer (cancelled by the
/// wake's generation bump — "cancel on wake") merely bounds the damage
/// of a producer that forgets to ring. Long on purpose: parked tasks are
/// supposed to cost ~zero CPU.
const PARK_RECHECK: Nanos = Nanos::from_millis(50);

// ---------------------------------------------------------------------------
// Injector: waker → shard hand-off
// ---------------------------------------------------------------------------

/// Where wakers deposit woken tasks and where an idle shard blocks.
pub(crate) struct Injector {
    state: Mutex<InjectorState>,
    cv: Condvar,
    /// Lock-free "something is queued or notified" flag: the shard loop
    /// drains only when it is up, and the spin tail of precise waits
    /// breaks on it. Written only with `state` locked — raised by every
    /// push/notify, lowered by the drain before it takes the list — so a
    /// push can never be left queued behind a lowered flag.
    hot: AtomicBool,
}

#[derive(Default)]
struct InjectorState {
    woken: Vec<usize>,
    notified: bool,
}

impl Injector {
    fn new() -> Arc<Self> {
        Arc::new(Injector {
            state: Mutex::new(InjectorState::default()),
            cv: Condvar::new(),
            hot: AtomicBool::new(false),
        })
    }

    /// Push a woken task (waker side) and rouse the shard.
    fn push(&self, task: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.woken.push(task);
        st.notified = true;
        self.hot.store(true, Ordering::Release);
        drop(st);
        self.cv.notify_one();
    }

    /// Rouse the shard without a task (stop propagation).
    pub(crate) fn notify(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.notified = true;
        self.hot.store(true, Ordering::Release);
        drop(st);
        self.cv.notify_one();
    }

    /// Move all woken tasks into `out` and re-arm the notification flags.
    /// `hot` drops inside the critical section, before the list is taken:
    /// a push that lands after the take raises it again.
    fn drain_into(&self, out: &mut Vec<usize>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.hot.store(false, Ordering::Release);
        out.append(&mut st.woken);
        st.notified = false;
    }

    /// Block until something is pushed/notified or `timeout` elapses.
    /// True when the wait ran its whole timeout: only then is its end
    /// an OS wake overshoot sample.
    fn wait(&self, timeout: Duration) -> bool {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.notified || !st.woken.is_empty() {
            return false;
        }
        let (st, waited) = self
            .cv
            .wait_timeout(st, timeout)
            .unwrap_or_else(|e| e.into_inner());
        drop(st);
        waited.timed_out()
    }

    fn is_hot(&self) -> bool {
        self.hot.load(Ordering::Acquire)
    }
}

/// The per-task waker a `Verdict::Park` leaves on a `Doorbell`: firing
/// it pushes the task into its shard's injector. One waker is built per
/// task at spawn and reused for every park, so [`Waker::will_wake`]
/// dedupe on the bell works by pointer identity.
struct TaskWaker {
    injector: Arc<Injector>,
    task: usize,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.injector.push(self.task);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.injector.push(self.task);
    }
}

// ---------------------------------------------------------------------------
// Tasks and the shard loop
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunState {
    /// In the run queue (or currently running).
    Runnable,
    /// Waiting on a timer-wheel deadline (`Sleep`/`Wait`).
    Sleeping,
    /// Waker registered on a doorbell (`Park`); fallback timer armed.
    Parked,
}

/// One cooperative task: a discipline state machine plus its private
/// backend, sink and scheduling bookkeeping. Every stamp is nanoseconds on
/// the shard's clock.
struct Task<B, S> {
    /// Global worker index (hub slot / stats order — identical to the
    /// thread backend's worker numbering).
    id: usize,
    discipline: AnyDiscipline,
    backend: B,
    sink: S,
    waker: Waker,
    state: RunState,
    /// Accumulated CPU (CFS virtual runtime; every task runs at the same
    /// weight, so this is fair round-robin by consumed CPU).
    vruntime: u64,
    /// Arming generation: bumped whenever a pending timer becomes stale
    /// (doorbell wake, new sleep), which is how timers cancel in O(1).
    gen: u64,
    /// When the current idle period (sleep or park) began.
    idle_from: Option<Nanos>,
    /// The current timed sleep: its requested duration, and whether
    /// oversleep is part of the verdict's contract (`Sleep` yes, `Wait`
    /// no). `None` while parked or runnable.
    sleep: Option<(Nanos, bool)>,
    /// When the task last became runnable — the scheduler-delay clock a
    /// vruntime pick closes.
    ready_at: Option<Nanos>,
    /// The task's next pick follows a doorbell wake: its scheduler delay
    /// is also the wake-to-first-poll latency.
    woke_from_park: bool,
}

impl<B, S: TelemetrySink> Task<B, S> {
    /// Close the current idle period at the wake stamp `now`: record the
    /// slept span and, for oversleep-bearing sleeps, how far past the
    /// requested deadline the task actually woke (the wheel-tick
    /// quantization shows up here, exactly as `PreciseSleeper` imprecision
    /// does on the thread path). The idle period began at the stamp its
    /// deadline was computed from, so `slept == requested + overslept`
    /// exactly.
    ///
    /// The tracer sees the same values the sink does: a timed sleep
    /// becomes one sleep event carrying requested/actual/oversleep (so
    /// the trace oversleep histogram sums to the hub counter), a park
    /// becomes an unpark event carrying the parked span.
    fn finish_idle(&mut self, now: Nanos, tracer: &impl TraceSink) {
        let Some(from) = self.idle_from.take() else {
            return;
        };
        let actual = now - from;
        match self.sleep.take() {
            Some((requested, oversleep)) => {
                debug_assert!(actual >= requested, "the wheel fired early");
                publish_sleep(&self.sink, tracer, requested, actual, oversleep);
            }
            None => {
                self.sink.slept(actual);
                tracer.unpark(actual);
            }
        }
    }
}

/// What a slice ended with (the non-`Continue` verdict that closed it,
/// or budget exhaustion).
enum SliceEnd {
    Requeue,
    Timed { dur: Nanos, oversleep: bool },
    Park(ParkToken),
}

/// Run one task until it yields, sleeps, parks or exhausts its turn
/// budget; charge the elapsed wall time to its busy telemetry and its
/// vruntime. The slice runs from `from`, the shard's pick stamp — which
/// the backend is handed as the stamp of its acquire — to its end stamp,
/// which the shard reads back as `clock.cached()`: the backend's release
/// stamp when the slice released its queue (no read), one tick of `clock`
/// otherwise.
/// The tracer brackets the slice with begin/end events,
/// sees every turn verdict, and — via the [`TracedSink`] wrapper — every
/// drained burst the discipline reports inside the slice.
fn run_slice<B, S, R>(
    task: &mut Task<B, S>,
    from: Nanos,
    clock: &CoarseClock,
    stop: &AtomicBool,
    tracer: &R,
) -> SliceEnd
where
    B: Backend,
    S: TelemetrySink,
    R: TraceSink,
{
    tracer.slice_begin(task.id, task.vruntime);
    let sink = TracedSink::new(&task.sink, tracer);
    let mut turns = 0u32;
    let end = loop {
        task.backend.before_turn(from);
        match task.discipline.turn(&mut task.backend, &sink) {
            Verdict::Continue => {
                tracer.turn_verdict(TraceVerdict::Continue);
                turns += 1;
                if turns >= TURN_BUDGET || stop.load(Ordering::Relaxed) {
                    break SliceEnd::Requeue;
                }
            }
            Verdict::Yield => {
                tracer.turn_verdict(TraceVerdict::Yield);
                break SliceEnd::Requeue;
            }
            Verdict::Sleep(dur) => {
                tracer.turn_verdict(TraceVerdict::Sleep);
                break SliceEnd::Timed {
                    dur,
                    oversleep: true,
                };
            }
            Verdict::Wait(dur) => {
                tracer.turn_verdict(TraceVerdict::Wait);
                break SliceEnd::Timed {
                    dur,
                    oversleep: false,
                };
            }
            Verdict::Park(token) => {
                tracer.turn_verdict(TraceVerdict::Park);
                break SliceEnd::Park(token);
            }
        }
    };
    let elapsed = span_end(clock, &mut task.backend) - from;
    task.sink.busy(elapsed);
    tracer.slice_end(task.id, elapsed);
    task.vruntime = task.vruntime.saturating_add(elapsed.as_nanos().max(1));
    end
}

/// One executor shard: the scheduler loop over its owned task set.
///
/// **Two queues, one pick path.** A task that becomes runnable because
/// something happened to it — its timer fired, its doorbell rang, the
/// shard just started — goes to the back of the **due list**, in the order
/// the wheel and the injector reported it. A task that was running and
/// wants more — `Continue` past the turn budget, `Yield`, a zero-length
/// sleep, a park the bell refused — goes on the **vruntime heap**. Each
/// round of the loop collects what became due, serves the whole due list
/// front to back as one *sweep* (the paper's multiqueue thread: wake, serve
/// the queues, sleep), then gives the least-served heap task one slice, and
/// waits idle only if there was neither. So a task that wakes, polls and
/// sleeps again — every Metronome and ConstSleep wake — never touches the
/// heap; a saturated drain or a busy poller runs between sweeps, one slice
/// at a time, and holds a sweep up by at most that slice; and a sweep that
/// never ends (more due tasks than a tick can serve) cannot starve the
/// heap, because tasks that fire during a sweep wait for the next round.
///
/// **The sweep looks ahead.** It knows who runs next, so each slice, right
/// after its pick stamp, asks the backends of the next two tasks on the
/// list to get their queues moving ([`Backend::lookahead`]):
/// [`Lookahead::Indices`] for the task two places down, and
/// [`Lookahead::Frames`] for the task one place down — whose index lines
/// were asked for one slice ago and have had that slice to arrive. The
/// cross-core misses of the next poll then overlap this slice's burst
/// instead of queueing behind it. The hints run inside the slice that
/// issues them: they are on its busy span, like everything else a slice
/// does between its two stamps.
///
/// **The shard owns the clock** (counting from `epoch`), and a task wake
/// costs two OS reads: one at the pick (closes the scheduler delay,
/// starts the slice, is the backend's acquire stamp) and the backend's own
/// at release, which also ends the slice (busy time and vruntime, the
/// start of the idle period, the wheel deadline and the oversleep
/// deadline). A slice that released nothing — a lost race, a baseline's
/// poll, a drain cut at the turn budget — ends on a read of its own. That
/// end stamp — or the idle wait's last, when nothing was runnable — is
/// also the next round's `now`: every doorbell wake and every timer it
/// finds due shares it, however many tasks one wheel tick fires.
///
/// The shard owns one `tracer` (its flight-recorder ring slot): besides
/// the per-slice events [`run_slice`] records, the loop itself records
/// doorbell unparks, picks with their scheduler delay,
/// wake-to-first-poll latencies, and every timer-wheel insert, cascade
/// batch, and fire (live or cancelled).
fn run_shard<B, S, R>(
    mut tasks: Vec<Task<B, S>>,
    injector: Arc<Injector>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    tracer: R,
) -> Vec<(usize, ThreadPolicy)>
where
    B: Backend,
    S: TelemetrySink,
    R: TraceSink,
{
    let clock = CoarseClock::from_epoch(epoch);
    let mut now = clock.tick();
    let mut wheel = TimerWheel::new(TICK_NS);
    let mut wake = WakeEstimate::default();
    // Runnable tasks that are not running sit in exactly one of these.
    // Everyone starts due, in task order.
    let mut due: VecDeque<usize> = (0..tasks.len()).collect();
    // Min-heap on (vruntime, local index): the least-served task first.
    let mut requeued: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut woken: Vec<usize> = Vec::new();
    let mut expired: Vec<TimerEntry> = Vec::new();

    while !stop.load(Ordering::Relaxed) {
        // 1. Doorbell wakes: parked tasks whose waker fired become due;
        //    the generation bump cancels their fallback timer. Metronome
        //    tasks never park, so the common round pays one load here, not
        //    the injector's lock.
        if injector.is_hot() {
            injector.drain_into(&mut woken);
        }
        for idx in woken.drain(..) {
            let task = &mut tasks[idx];
            if task.state == RunState::Parked {
                task.gen = task.gen.wrapping_add(1);
                task.finish_idle(now, &tracer);
                task.state = RunState::Runnable;
                task.ready_at = Some(now);
                task.woke_from_park = true;
                due.push_back(idx);
            }
        }
        // 2. Timer expiries (coalesced: every deadline in a tick fires in
        //    one advance), in fire order.
        let cascaded_before = wheel.cascaded();
        wheel.advance(now.as_nanos(), &mut |e| expired.push(e));
        let cascaded = wheel.cascaded() - cascaded_before;
        if cascaded > 0 {
            tracer.wheel_cascade(cascaded);
        }
        for e in expired.drain(..) {
            let task = &mut tasks[e.task];
            let live = task.gen == e.gen && task.state != RunState::Runnable;
            tracer.wheel_fire(task.id, live);
            if !live {
                continue; // cancelled on wake
            }
            task.finish_idle(now, &tracer);
            // A fired park-fallback timer is a wake too: its next pick's
            // delay doubles as wake-to-first-poll latency.
            task.woke_from_park = task.state == RunState::Parked;
            task.state = RunState::Runnable;
            task.ready_at = Some(now);
            due.push_back(e.task);
        }
        // 3. The sweep: everything due, front to back, then one slice for
        //    the least-served task that asked to go on.
        let mut ran = false;
        loop {
            let closes_round = due.is_empty();
            let Some(idx) = due
                .pop_front()
                .or_else(|| requeued.pop().map(|Reverse((_, idx))| idx))
            else {
                break;
            };
            ran = true;
            let from = clock.tick();
            let task = &mut tasks[idx];
            if let Some(ready) = task.ready_at.take() {
                let delay = from - ready;
                tracer.sched_pick(task.id, delay);
                if std::mem::take(&mut task.woke_from_park) {
                    tracer.first_poll(delay);
                }
            }
            for (ahead, stage) in [(1, Lookahead::Indices), (0, Lookahead::Frames)] {
                if let Some(next) = due.get(ahead).map(|&next| &tasks[next]) {
                    let q = next.discipline.policy().queue_to_contend();
                    next.backend.lookahead(q, stage, LOOKAHEAD_DEPTH);
                }
            }
            let task = &mut tasks[idx];
            let end = run_slice(task, from, &clock, &stop, &tracer);
            now = clock.cached();
            match end {
                SliceEnd::Requeue => {
                    task.ready_at = Some(now);
                    requeued.push(Reverse((task.vruntime, idx)));
                }
                SliceEnd::Timed { dur, oversleep } => {
                    if dur.is_zero() {
                        task.ready_at = Some(now);
                        requeued.push(Reverse((task.vruntime, idx)));
                    } else {
                        task.gen = task.gen.wrapping_add(1);
                        task.state = RunState::Sleeping;
                        task.idle_from = Some(now);
                        task.sleep = Some((dur, oversleep));
                        let deadline_ns = (now + dur).as_nanos();
                        tracer.wheel_insert(task.id, deadline_ns);
                        wheel.insert(
                            deadline_ns,
                            TimerEntry {
                                task: idx,
                                gen: task.gen,
                            },
                        );
                    }
                }
                SliceEnd::Park(token) => {
                    // The waker lands on the bell only if the bell still sits
                    // at the token's pre-poll sample; otherwise the ring we
                    // would have parked through already happened — re-poll.
                    if token.subscribe(&task.waker) {
                        task.gen = task.gen.wrapping_add(1);
                        task.state = RunState::Parked;
                        task.idle_from = Some(now);
                        tracer.park();
                        let deadline_ns = (now + PARK_RECHECK).as_nanos();
                        tracer.wheel_insert(task.id, deadline_ns);
                        wheel.insert(
                            deadline_ns,
                            TimerEntry {
                                task: idx,
                                gen: task.gen,
                            },
                        );
                    } else {
                        task.ready_at = Some(now);
                        requeued.push(Reverse((task.vruntime, idx)));
                    }
                }
            }
            if closes_round || stop.load(Ordering::Relaxed) {
                break;
            }
        }
        if !ran {
            now = idle_wait(&wheel, &injector, &stop, &clock, &mut wake);
        }
    }

    // Stop: mirror the thread backend's exit discipline. A runnable task
    // may sit mid-drain (holding a queue trylock after a budget-exhausted
    // slice); drive it to its next verdict boundary so locks release and
    // the final drain lands on the books. Idle tasks put their idle time
    // on the books and nothing else: a sleep or park that stop cut short
    // did not complete, so — as on the thread backend, where a parked
    // worker stops the same way — there is no event to report for it.
    for task in &mut tasks {
        let from = clock.tick();
        match task.state {
            RunState::Runnable => {
                while let Verdict::Continue = task.discipline.turn(&mut task.backend, &task.sink) {}
                task.sink.busy(clock.tick() - from);
            }
            RunState::Sleeping | RunState::Parked => {
                let idle_from = task.idle_from.expect("an idle task has its idle stamp");
                task.sink.slept(from - idle_from);
            }
        }
    }
    tasks
        .into_iter()
        .map(|t| (t.id, t.discipline.into_policy()))
        .collect()
}

/// Empty run queue: block toward the next wheel deadline (or a bounded
/// default) and spin the final stretch for µs-class wake precision — the
/// rule [`PreciseSleeper`] follows, from the shard's own `wake` estimate:
/// block to `deadline − ô` when that is in the future, spin to the
/// deadline otherwise (the spin breaks on a doorbell wake or stop). A
/// block that ran its whole timeout is an overshoot sample for `wake`; one
/// a notification cut short is not. `clock.cached()` is taken as the
/// present; returns the stamp at which the wait ended (the wait's own
/// last read).
///
/// [`PreciseSleeper`]: crate::realtime::PreciseSleeper
fn idle_wait(
    wheel: &TimerWheel,
    injector: &Injector,
    stop: &AtomicBool,
    clock: &CoarseClock,
    wake: &mut WakeEstimate,
) -> Nanos {
    let now = clock.cached();
    let Some(deadline) = wheel.next_deadline_ns().map(Nanos) else {
        injector.wait(MAX_IDLE_WAIT);
        return clock.tick();
    };
    let Some(at) = wake.os_wake(now, deadline) else {
        while clock.tick() < deadline {
            if injector.is_hot() || stop.load(Ordering::Relaxed) {
                break;
            }
            std::hint::spin_loop();
        }
        return clock.cached();
    };
    let block = Duration::from_nanos((at - now).as_nanos()).min(MAX_IDLE_WAIT);
    let timed_out = injector.wait(block);
    let woke = clock.tick();
    if timed_out {
        let due = now + Nanos(block.as_nanos() as u64);
        *wake = wake.update(woke.saturating_sub(due));
    }
    woke
}

// ---------------------------------------------------------------------------
// Spawning and joining shards
// ---------------------------------------------------------------------------

/// Joining a shard thread yields its tasks' final policies, each with
/// its global worker id (tasks are dealt round-robin, so a shard's ids
/// are not contiguous).
pub(crate) type ShardHandle = JoinHandle<Vec<(usize, ThreadPolicy)>>;

/// Spread the prepared `(discipline, backend)` workers round-robin over
/// `shards` executor threads (`1 ..= workers.len()`) as cooperative
/// tasks. `make_sink(worker)` is each *task's* telemetry view — worker
/// numbering and labeling are identical to the thread backend's, so
/// reports stay comparable across backends — while `make_tracer(shard)`
/// is per *shard*: each shard thread owns one flight-recorder ring and
/// logs its scheduler events (slices, vruntime picks, wheel activity)
/// alongside the per-task verdicts, with the global worker id carried in
/// the event payloads. Every shard's clock counts from `epoch`, the
/// worker set's own, so the pick stamps it hands its tasks' backends share
/// the backends' timeline.
///
/// Returns each shard's injector and join handle. To stop, raise `stop`,
/// then [`Injector::notify`] every shard (one may be blocked idle), then
/// join.
pub(crate) fn spawn_shards<B, S, R>(
    label: &str,
    workers: Vec<(AnyDiscipline, B)>,
    shards: usize,
    stop: &Arc<AtomicBool>,
    epoch: Instant,
    make_sink: impl Fn(usize) -> S,
    make_tracer: impl Fn(usize) -> R,
) -> (Vec<Arc<Injector>>, Vec<ShardHandle>)
where
    B: Backend + Send + 'static,
    S: TelemetrySink + Send + 'static,
    R: TraceSink + Send + 'static,
{
    let injectors: Vec<_> = (0..shards).map(|_| Injector::new()).collect();
    let mut per_shard: Vec<Vec<Task<B, S>>> = (0..shards).map(|_| Vec::new()).collect();
    for (worker, (discipline, backend)) in workers.into_iter().enumerate() {
        let shard = worker % shards;
        let local = per_shard[shard].len();
        let waker = Waker::from(Arc::new(TaskWaker {
            injector: Arc::clone(&injectors[shard]),
            task: local,
        }));
        per_shard[shard].push(Task {
            id: worker,
            discipline,
            backend,
            sink: make_sink(worker),
            waker,
            state: RunState::Runnable,
            vruntime: 0,
            gen: 0,
            idle_from: None,
            sleep: None,
            ready_at: None,
            woke_from_park: false,
        });
    }
    let handles = per_shard
        .into_iter()
        .enumerate()
        .map(|(s, tasks)| {
            let injector = Arc::clone(&injectors[s]);
            let stop = Arc::clone(stop);
            let tracer = make_tracer(s);
            std::thread::Builder::new()
                .name(format!("{label}-exec-{s}"))
                .spawn(move || run_shard(tasks, injector, stop, epoch, tracer))
                .expect("spawn executor shard")
        })
        .collect();
    (injectors, handles)
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::config::MetronomeConfig;
    use crate::discipline::{BusyPoll, ConstSleep};
    use crate::engine::MetronomeEngine;
    use crate::realtime::tests::Stamping;
    use crate::realtime::{RealtimeBackend, SharedState};
    use crate::rxqueue::RxQueue;
    use crossbeam::queue::ArrayQueue;
    use metronome_sim::time::clock_reads;
    use metronome_telemetry::{NullSink, TraceDump, TraceHub};

    #[test]
    fn a_push_after_a_drain_leaves_the_injector_hot() {
        let inj = Injector::new();
        let mut out = Vec::new();
        assert!(!inj.is_hot());
        inj.push(3);
        assert!(inj.is_hot());
        inj.drain_into(&mut out);
        assert_eq!(out, vec![3]);
        assert!(!inj.is_hot(), "a drain lowers the flag");
        // Ordered after the drain's take: still queued, so still hot.
        inj.push(4);
        assert!(inj.is_hot());
        // A bare notify is hot too (the stop path), and drains to nothing.
        out.clear();
        inj.drain_into(&mut out);
        inj.notify();
        assert!(inj.is_hot());
        inj.drain_into(&mut out);
        assert_eq!(out, vec![4]);
        assert!(!inj.is_hot());
    }

    /// The shard loop's gate: draining only when `is_hot()` must never
    /// strand a push, whatever the interleaving — the flag drops before
    /// the drain takes the list, under the same lock the push holds.
    #[test]
    fn a_drain_gated_on_hot_loses_no_push() {
        const PUSHES: usize = 200_000;
        let inj = Injector::new();
        let start = Arc::new(std::sync::Barrier::new(2));
        let pusher = {
            let (inj, start) = (Arc::clone(&inj), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for task in 0..PUSHES {
                    inj.push(task);
                }
            })
        };
        let mut out = Vec::new();
        start.wait();
        while !pusher.is_finished() {
            if inj.is_hot() {
                inj.drain_into(&mut out);
            }
        }
        pusher.join().expect("pusher panicked");
        // Quiescent: whatever is still queued must be behind a raised flag.
        if inj.is_hot() {
            inj.drain_into(&mut out);
        }
        assert!(!inj.is_hot());
        assert_eq!(out, (0..PUSHES).collect::<Vec<_>>());
    }

    /// What a shard did, in order: the scheduler events of its tracer and
    /// the lookahead hints its queues were handed, each with the task or
    /// queue it concerned.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        Fire(usize),
        Pick(usize),
        Hint(usize, Lookahead, usize),
        SliceEnd(usize),
    }

    #[derive(Clone, Default)]
    struct StepLog(Arc<Mutex<Vec<Step>>>);

    impl StepLog {
        fn push(&self, step: Step) {
            self.0.lock().unwrap().push(step);
        }
    }

    impl TraceSink for StepLog {
        fn wheel_fire(&self, task: usize, live: bool) {
            if live {
                self.push(Step::Fire(task));
            }
        }
        fn sched_pick(&self, task: usize, _delay: Nanos) {
            self.push(Step::Pick(task));
        }
        fn slice_end(&self, task: usize, _busy: Nanos) {
            self.push(Step::SliceEnd(task));
        }
    }

    /// Queue `q` of a set, reporting every hint it is handed.
    #[derive(Clone)]
    struct Watched {
        q: usize,
        inner: Arc<ArrayQueue<u64>>,
        log: StepLog,
    }

    impl RxQueue<u64> for Watched {
        fn pop(&self) -> Option<u64> {
            self.inner.pop()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn lookahead(&self, stage: Lookahead, depth: usize) {
            self.log.push(Step::Hint(self.q, stage, depth));
        }
    }

    /// One shard over `disciplines`, task `i` on a backend over `n` empty
    /// watched queues, run for `run_for`; what it logged before the stop.
    fn shard_steps(disciplines: Vec<AnyDiscipline>, run_for: Duration) -> Vec<Step> {
        let n = disciplines.len();
        let shared = SharedState::new(&MetronomeConfig::multiqueue(n, n));
        let log = StepLog::default();
        let queues: Vec<Watched> = (0..n)
            .map(|q| Watched {
                q,
                inner: Arc::new(ArrayQueue::new(16)),
                log: log.clone(),
            })
            .collect();
        let workers = disciplines
            .into_iter()
            .map(|discipline| {
                let backend = RealtimeBackend::new(
                    queues.clone(),
                    Arc::clone(&shared),
                    |_q: usize, _burst: &mut Vec<u64>| {},
                );
                (discipline, backend)
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let (injectors, handles) = spawn_shards(
            "steps",
            workers,
            1,
            &stop,
            shared.epoch,
            |_| NullSink,
            |_| log.clone(),
        );
        std::thread::sleep(run_for);
        let logged = log.0.lock().unwrap().len();
        stop.store(true, Ordering::Relaxed);
        injectors[0].notify();
        for handle in handles {
            handle.join().expect("shard panicked");
        }
        let mut steps = std::mem::take(&mut *log.0.lock().unwrap());
        steps.truncate(logged);
        steps
    }

    #[test]
    fn a_tick_s_tasks_run_in_fire_order_before_any_requeued_task() {
        // Task 0 polls without ever sleeping (every slice ends in `Yield`:
        // the heap); tasks 1..=5 sleep a fixed period (every wake comes off
        // the wheel: the due list). Whatever one round's `advance` fires is
        // then picked in that order, each task once, and only then does
        // task 0 get a slice again.
        let mut disciplines = vec![AnyDiscipline::BusyPoll(BusyPoll::new(0, 32))];
        disciplines.extend(
            (1..=5).map(|q| {
                AnyDiscipline::ConstSleep(ConstSleep::new(q, 32, Nanos::from_micros(100)))
            }),
        );
        let steps = shard_steps(disciplines, Duration::from_millis(20));
        let schedule: Vec<Step> = steps
            .into_iter()
            .filter(|s| matches!(s, Step::Fire(_) | Step::Pick(_)))
            .collect();
        let (mut sweeps, mut widest, mut polls) = (0, 0, 0);
        let mut at = 0;
        while at < schedule.len() {
            let fired: Vec<usize> = schedule[at..]
                .iter()
                .map_while(|s| match s {
                    Step::Fire(task) => Some(*task),
                    _ => None,
                })
                .collect();
            at += fired.len();
            let picked: Vec<usize> = schedule[at..]
                .iter()
                .map_while(|s| match s {
                    Step::Pick(task) => Some(*task),
                    _ => None,
                })
                .collect();
            at += picked.len();
            // The log was cut at an arbitrary point: judge whole rounds.
            if at == schedule.len() {
                break;
            }
            let (sweep, after) = picked.split_at(fired.len().min(picked.len()));
            assert_eq!(sweep, fired, "a sweep is the fires, in order, once each");
            assert!(after.iter().all(|&task| task == 0), "{after:?} ran unfired");
            assert!(!fired.contains(&0), "the busy poller never sleeps");
            sweeps += usize::from(!fired.is_empty());
            widest = widest.max(fired.len());
            polls += after.len();
        }
        assert!(sweeps > 20, "{sweeps} sweeps");
        assert!(widest > 1, "no tick ever fired two tasks");
        assert!(polls > sweeps, "the busy poller ran {polls} slices");
    }

    #[test]
    fn a_sweep_s_hints_are_issued_inside_the_slice_ahead_of_their_task() {
        // 16 Metronome tasks on idle queues, task `i` contending queue
        // `i`. Within a sweep of fires f0 f1 f2 …, the slice of f(i) — and
        // nothing outside a slice, where no busy span would pay for it —
        // hints queue f(i+2)'s indices, then queue f(i+1)'s frames.
        const N: usize = 16;
        let disciplines = (0..N)
            .map(|id| AnyDiscipline::Metronome(MetronomeEngine::new(id, 32)))
            .collect();
        let steps = shard_steps(disciplines, Duration::from_millis(10));
        // Start-up is not a sweep: nothing has fired, and a Metronome task's
        // first turn is a zero-length stagger wait that sends it through
        // the heap. Each task's first sleep ends its second slice; the log
        // that matters starts at the first fire after the last of those.
        let mut slices_of = [0usize; N];
        let warm = steps
            .iter()
            .position(|step| {
                if let Step::SliceEnd(task) = step {
                    slices_of[*task] += 1;
                }
                slices_of.iter().all(|&slices| slices >= 2)
            })
            .expect("a task never got past its start-up");
        let mut fired: Vec<usize> = Vec::new();
        let mut served = 0; // tasks of `fired` already picked
        let mut running: Option<(usize, Vec<Step>)> = None;
        let (mut slices, mut both_stages) = (0, 0);
        let mut last_was_fire = false;
        for step in steps
            .into_iter()
            .skip(warm)
            .skip_while(|s| !matches!(s, Step::Fire(_)))
        {
            match step {
                Step::Fire(task) => {
                    assert!(running.is_none(), "a fire inside a slice");
                    if !last_was_fire {
                        assert_eq!(served, fired.len(), "a sweep was cut short");
                        fired.clear();
                        served = 0;
                    }
                    fired.push(task);
                }
                Step::Pick(task) => {
                    assert!(running.is_none(), "a pick inside a slice");
                    running = Some((task, Vec::new()));
                }
                Step::Hint(..) => {
                    let (_, hints) = running.as_mut().expect("a hint outside any slice");
                    hints.push(step);
                }
                Step::SliceEnd(task) => {
                    let (picked, hints) = running.take().expect("a slice ended unpicked");
                    assert_eq!(task, picked);
                    assert_eq!(fired.get(served), Some(&task), "picked out of fire order");
                    let expected: Vec<Step> = [
                        fired
                            .get(served + 2)
                            .map(|&q| Step::Hint(q, Lookahead::Indices, LOOKAHEAD_DEPTH)),
                        fired
                            .get(served + 1)
                            .map(|&q| Step::Hint(q, Lookahead::Frames, LOOKAHEAD_DEPTH)),
                    ]
                    .into_iter()
                    .flatten()
                    .collect();
                    assert_eq!(hints, expected, "slice {served} of sweep {fired:?}");
                    served += 1;
                    slices += 1;
                    both_stages += usize::from(expected.len() == 2);
                }
            }
            last_was_fire = matches!(step, Step::Fire(_));
        }
        assert!(slices > 100, "{slices} slices");
        assert!(both_stages > 0, "no sweep was ever three tasks long");
    }

    /// How long one item of the busy poller's queue takes to process.
    const POLLER_ITEM: Duration = Duration::from_micros(20);

    /// One shard for 300 ms: task 0 busy-polls a queue that is never
    /// empty, one slow item a turn, so every slice of it runs its whole
    /// turn budget; tasks 1..16 are Metronome sleepers on trickle-fed
    /// queues. Returns items processed per queue and the shard's trace.
    fn a_poller_among_sleepers() -> (Vec<u64>, TraceDump) {
        const N: usize = 16;
        let shared = SharedState::new(&MetronomeConfig::multiqueue(N, N));
        let queues: Vec<_> = (0..N)
            .map(|_| Arc::new(ArrayQueue::<u64>::new(256)))
            .collect();
        let workers = (0..N)
            .map(|id| {
                let discipline = match id {
                    0 => AnyDiscipline::BusyPoll(BusyPoll::new(0, 1)),
                    _ => AnyDiscipline::Metronome(MetronomeEngine::new(id, 32)),
                };
                let backend = RealtimeBackend::new(
                    queues.clone(),
                    Arc::clone(&shared),
                    |q: usize, burst: &mut Vec<u64>| {
                        let until = Instant::now() + POLLER_ITEM * u32::from(q == 0);
                        while Instant::now() < until {
                            std::hint::spin_loop();
                        }
                        burst.clear();
                    },
                );
                (discipline, backend)
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let trace = TraceHub::new(1, 1 << 12);
        let (injectors, handles) = spawn_shards(
            "mixed",
            workers,
            1,
            &stop,
            shared.epoch,
            |_| NullSink,
            |slot| trace.recorder(slot),
        );
        let until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < until {
            while queues[0].push(0).is_ok() {}
            for queue in &queues[1..] {
                let _ = queue.push(0);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        stop.store(true, Ordering::Relaxed);
        injectors[0].notify();
        for handle in handles {
            handle.join().expect("shard panicked");
        }
        ((0..N).map(|q| shared.processed(q)).collect(), trace.dump())
    }

    #[test]
    fn a_busy_poller_holds_its_sleeping_shard_mates_up_by_one_slice_at_most() {
        // The sleepers' timers fire while the poller runs, so they wait for
        // its slice to end — and for no second one: once due they are swept
        // before the heap is looked at again, however far ahead of the
        // poller's their vruntime is. A loaded host only ever adds to a
        // delay, so three runs get to show one that is within bounds.
        let slice = Nanos((POLLER_ITEM * TURN_BUDGET).as_nanos() as u64);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (processed, dump) = a_poller_among_sleepers();
            assert!(processed.iter().all(|&n| n > 0), "starved: {processed:?}");
            let slices = processed[0] / u64::from(TURN_BUDGET);
            assert!(slices > 50, "the poller ran {slices} full slices");
            let (delay, late) = (dump.sched_delay(), dump.oversleep());
            assert!(delay.count() > 15 * slices, "{} picks", delay.count());
            // Found due to picked — the sweep ahead of a task, never a
            // slice of the poller's — and deadline to found due: what was
            // left of the poller's slice.
            let delay = Nanos(delay.quantile(0.99).expect("picks"));
            let late = Nanos(late.quantile(0.5).expect("sleeps"));
            // Not vacuous: the typical sleeper fires early in a slice of
            // the poller's and waits it out.
            assert!(late > slice / 2, "oversleep p50 {late}, slice {slice}");
            seen.push((delay, late));
            // Half a slice of margin for the sweep itself.
            if delay < slice + slice / 2 && late < slice * 2 {
                return;
            }
        }
        panic!("(sched_delay p99, oversleep p50) {seen:?} against a slice of {slice}");
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Event {
        Fire,
        Pick,
        SliceEnd,
    }

    /// A shard's scheduler events, each with the number of clock reads the
    /// shard thread had made when it happened (the tracer runs on the
    /// shard's own thread, where the thread-local counter counts). Every
    /// live fire also puts `refill` items on the fired task's queue.
    #[derive(Clone)]
    struct ReadLog {
        events: Arc<Mutex<Vec<(Event, u64)>>>,
        queues: Vec<Arc<ArrayQueue<u64>>>,
        refill: u64,
    }

    impl ReadLog {
        fn push(&self, event: Event) {
            self.events.lock().unwrap().push((event, clock_reads()));
        }
    }

    impl TraceSink for ReadLog {
        fn wheel_fire(&self, task: usize, live: bool) {
            if live {
                self.push(Event::Fire);
                for item in 0..self.refill {
                    self.queues[task]
                        .push(item)
                        .expect("the queue holds a refill");
                }
            }
        }
        // Right after the pick's read.
        fn sched_pick(&self, _task: usize, _delay: Nanos) {
            self.push(Event::Pick);
        }
        // Right after the slice's end stamp.
        fn slice_end(&self, _task: usize, _busy: Nanos) {
            self.push(Event::SliceEnd);
        }
    }

    #[test]
    fn a_task_wake_reads_the_clock_twice_and_due_timers_share_one_stamp() {
        // 16 Metronome tasks on one real shard, a queue each, topped up
        // with `refill` items whenever a task's timer fires (and once
        // before the start), so every wake wins its race and finds them.
        // Empty, a wake polls nothing, releases and sleeps TS again: the
        // slice's busy span holds the backend's release stamp, which also
        // ends the slice. With one burst queued it holds the burst's
        // completion read, which the release that follows the empty poll
        // closes on: two reads a task wake either way, counting the pick.
        // Two bursts (32 + 1) are two completion reads and nothing at the
        // release.
        const N: usize = 16;
        for (refill, in_slice) in [(0, 1), (1, 1), (33, 2)] {
            let shared = SharedState::new(&MetronomeConfig::multiqueue(N, N));
            let queues: Vec<_> = (0..N)
                .map(|_| Arc::new(ArrayQueue::<u64>::new(128)))
                .collect();
            let workers = (0..N)
                .map(|id| {
                    let discipline = AnyDiscipline::Metronome(MetronomeEngine::new(id, 32));
                    let backend = RealtimeBackend::new(
                        queues.clone(),
                        Arc::clone(&shared),
                        Stamping::default(),
                    );
                    (discipline, backend)
                })
                .collect();
            for queue in &queues {
                for item in 0..refill {
                    queue.push(item).unwrap();
                }
            }
            let stop = Arc::new(AtomicBool::new(false));
            let log = ReadLog {
                events: Arc::default(),
                queues: queues.clone(),
                refill,
            };
            let (injectors, handles) = spawn_shards(
                "reads",
                workers,
                1,
                &stop,
                shared.epoch,
                |_| NullSink,
                |_| log.clone(),
            );
            std::thread::sleep(Duration::from_millis(10));
            // Stop cuts a slice short at its next turn: look only at what
            // was logged before the flag went up.
            let logged = log.events.lock().unwrap().len();
            stop.store(true, Ordering::Relaxed);
            injectors[0].notify();
            for handle in handles {
                handle.join().expect("shard panicked");
            }

            let events = &log.events.lock().unwrap()[..logged];
            let (mut slices, mut back_to_back, mut widest_batch, mut batch) = (0, 0, 0, 0);
            for pair in events.windows(2) {
                let [(before, reads_before), (after, reads_after)] = [pair[0], pair[1]];
                let reads = reads_after - reads_before;
                match (before, after) {
                    // Timers that expire in one iteration are stamped by the
                    // iteration's one `now`: no read between their fires.
                    (Event::Fire, Event::Fire) => {
                        assert_eq!(reads, 0, "a read between two fires of one iteration");
                        batch += 1;
                        widest_batch = widest_batch.max(batch + 1);
                    }
                    // The slice's busy span: one completion read a burst,
                    // the last of which is the release stamp that ends the
                    // slice — or, empty, the release's own read.
                    (Event::Pick, Event::SliceEnd) => {
                        assert_eq!(reads, in_slice, "reads inside a slice, refill {refill}");
                        slices += 1;
                    }
                    // The next task was already runnable: no idle wait, so
                    // the pick's own read is all there is between two
                    // slices.
                    (Event::SliceEnd, Event::Pick) => {
                        assert_eq!(reads, 1, "reads between two slices, refill {refill}");
                        back_to_back += 1;
                    }
                    _ => batch = 0,
                }
            }
            assert!(slices > 100, "refill {refill}: {slices} slices");
            assert!(
                back_to_back > 0,
                "refill {refill}: no two slices ran back to back"
            );
            assert!(
                widest_batch > 1,
                "refill {refill}: no two timers ever expired together"
            );
            let processed: u64 = (0..N).map(|q| shared.processed(q)).sum();
            assert!(
                processed >= refill * slices,
                "refill {refill}: {processed} processed"
            );
        }
    }
}
