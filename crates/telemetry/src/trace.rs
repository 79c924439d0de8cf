//! Flight-recorder tracing: per-worker binary event rings, merged dumps,
//! and latency histograms.
//!
//! Counters ([`crate::counters`]) answer *how much*; this module answers
//! *when*. Every worker (thread backend) or executor shard (async
//! backend) owns a [`TraceRecorder`]: a fixed-capacity drop-oldest ring
//! of compact [`TraceEvent`]s plus three log-bucketed histograms (wake
//! latency, oversleep, scheduler delay). The record path is strictly
//! worker-local — one `RefCell` borrow, one ring slot write, no locks,
//! no allocation, no atomics shared across workers — so an enabled
//! recorder costs a clock read and a few stores per event, and the
//! disabled path ([`NullTrace`]) monomorphizes to nothing at all.
//!
//! Publication is decoupled from recording: every [`FLUSH_EVERY`] events
//! the recorder *tries* to copy its ring into a shared slot
//! (`try_lock`; contention skips the flush, never blocks the worker),
//! and deposits unconditionally on drop. [`TraceHub::dump`] merges the
//! slots into a [`TraceDump`], which renders as a Chrome trace-event
//! JSON document (`chrome://tracing` / Perfetto loadable).
//!
//! Reconciliation is designed in, not sampled: the ring keeps exact
//! per-kind *recorded* counts that survive drop-oldest overwrites, the
//! oversleep histogram records exactly the values the driver hands to
//! [`TelemetrySink::overslept`], and [`TracedSink`] emits one
//! [`TraceEventKind::Burst`] record per [`TelemetrySink::retrieved`]
//! call — so burst events equal the hub's `bursts` counter and the
//! histogram sum equals `oversleep_nanos`, exactly.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::export::json::Json;
use crate::sink::{DropCause, SleepKind, TelemetrySink};
use metronome_sim::stats::Histogram;
use metronome_sim::{CoarseClock, Nanos};

/// Default per-recorder ring capacity (events). At ~40 bytes/event this
/// is a few hundred KiB per worker — enough for several milliseconds of
/// saturated tracing, the flight-recorder window.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Events between opportunistic slot publications. Large enough that the
/// amortized copy cost disappears, small enough that a live `trace`
/// snapshot of a busy worker is at most a few hundred events stale.
pub const FLUSH_EVERY: u32 = 1024;

/// Number of distinct [`TraceEventKind`]s (length of per-kind count
/// arrays).
pub const N_EVENT_KINDS: usize = 14;

/// What a [`TraceEvent`] records. The two payload words `a`/`b` are
/// kind-dependent (documented per variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A discipline turn returned a verdict. `a` = [`TraceVerdict`] code.
    TurnVerdict = 0,
    /// A timer sleep completed. `a` = requested ns, `b` = actual ns.
    Sleep = 1,
    /// The worker parked on a doorbell.
    Park = 2,
    /// The worker unparked. `a` = parked ns.
    Unpark = 3,
    /// First poll after a wake. `a` = wake-to-first-poll latency ns.
    FirstPoll = 4,
    /// The scheduler started a slice. `a` = task, `b` = vruntime.
    SliceBegin = 5,
    /// A slice ended. `a` = task, `b` = busy ns.
    SliceEnd = 6,
    /// The scheduler picked a newly-runnable task. `a` = task,
    /// `b` = ready-to-run delay ns.
    SchedPick = 7,
    /// A timer-wheel insert. `a` = task, `b` = deadline ns.
    WheelInsert = 8,
    /// A timer-wheel cascade re-placed entries. `a` = entry count.
    WheelCascade = 9,
    /// A timer-wheel entry fired. `a` = task, `b` = 1 live / 0 stale.
    WheelFire = 10,
    /// A retrieval burst was drained. `a` = queue, `b` = packets.
    Burst = 11,
    /// Live-reconfigure marker. `a` = caller-defined code.
    Reconfigure = 12,
    /// Fault-plan realization marker. `a` = caller-defined code.
    FaultPlan = 13,
}

impl TraceEventKind {
    /// Every kind, in code order (index == code).
    pub const ALL: [TraceEventKind; N_EVENT_KINDS] = [
        TraceEventKind::TurnVerdict,
        TraceEventKind::Sleep,
        TraceEventKind::Park,
        TraceEventKind::Unpark,
        TraceEventKind::FirstPoll,
        TraceEventKind::SliceBegin,
        TraceEventKind::SliceEnd,
        TraceEventKind::SchedPick,
        TraceEventKind::WheelInsert,
        TraceEventKind::WheelCascade,
        TraceEventKind::WheelFire,
        TraceEventKind::Burst,
        TraceEventKind::Reconfigure,
        TraceEventKind::FaultPlan,
    ];

    /// Stable display name (also the Chrome event name).
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::TurnVerdict => "turn-verdict",
            TraceEventKind::Sleep => "sleep",
            TraceEventKind::Park => "park",
            TraceEventKind::Unpark => "unpark",
            TraceEventKind::FirstPoll => "first-poll",
            TraceEventKind::SliceBegin => "slice-begin",
            TraceEventKind::SliceEnd => "slice-end",
            TraceEventKind::SchedPick => "sched-pick",
            TraceEventKind::WheelInsert => "wheel-insert",
            TraceEventKind::WheelCascade => "wheel-cascade",
            TraceEventKind::WheelFire => "wheel-fire",
            TraceEventKind::Burst => "burst",
            TraceEventKind::Reconfigure => "reconfigure",
            TraceEventKind::FaultPlan => "fault-plan",
        }
    }
}

/// The verdict a discipline turn produced, as recorded in a
/// [`TraceEventKind::TurnVerdict`] event (mirrors the core `Verdict`
/// shape without depending on the core crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceVerdict {
    /// Found work; poll again immediately.
    Continue = 0,
    /// Nothing to do right now; yield the timeslice.
    Yield = 1,
    /// Sleep for a computed timeout.
    Sleep = 2,
    /// Park on a doorbell.
    Park = 3,
    /// Cooperative timed wait.
    Wait = 4,
}

impl TraceVerdict {
    /// The code stored in the event's `a` word.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Stable display name.
    pub fn label(self) -> &'static str {
        match self {
            TraceVerdict::Continue => "continue",
            TraceVerdict::Yield => "yield",
            TraceVerdict::Sleep => "sleep",
            TraceVerdict::Park => "park",
            TraceVerdict::Wait => "wait",
        }
    }
}

/// Control-plane marker kinds (recorded by the daemon / runner, not by
/// workers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkerKind {
    /// A live reconfigure was applied.
    Reconfigure,
    /// A fault-plan window was realized.
    FaultPlan,
}

/// One recorded event: a timestamp (nanoseconds since the owning
/// [`TraceHub`]'s epoch) plus kind and two kind-dependent payload words.
/// `Copy` and fixed-size — the ring never allocates per event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the hub epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// First payload word (kind-dependent).
    pub a: u64,
    /// Second payload word (kind-dependent).
    pub b: u64,
}

/// Fixed-capacity drop-oldest event ring with an exact overflow counter
/// and per-kind *recorded* counts that survive overwrites.
///
/// Single-owner by design: the ring lives inside a recorder's `RefCell`
/// and is never shared, so `push` is a plain slot write — no atomics.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    head: usize,
    len: usize,
    dropped: u64,
    kind_counts: [u64; N_EVENT_KINDS],
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (min 1). The
    /// buffer is allocated up front; `push` never allocates.
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            len: 0,
            dropped: 0,
            kind_counts: [0; N_EVENT_KINDS],
        }
    }

    /// Record one event. When full, the oldest stored event is
    /// overwritten (and counted in [`TraceRing::dropped`]); the per-kind
    /// recorded count is bumped either way.
    pub fn push(&mut self, event: TraceEvent) {
        self.kind_counts[event.kind as usize] += 1;
        if self.buf.len() < self.cap {
            self.buf.push(event);
            self.len += 1;
        } else if self.len < self.cap {
            // Refilling after a drain: overwrite retired slots in place.
            let idx = (self.head + self.len) % self.cap;
            self.buf[idx] = event;
            self.len += 1;
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently stored (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum events stored at once.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events overwritten by drop-oldest overflow — exact: every `push`
    /// beyond capacity bumps this by one.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events *recorded* (stored or since overwritten) of `kind`.
    pub fn kind_count(&self, kind: TraceEventKind) -> u64 {
        self.kind_counts[kind as usize]
    }

    /// Total events recorded across all kinds.
    pub fn recorded(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// The stored events, oldest first (copied; the ring keeps them).
    pub fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % self.cap]);
        }
        out
    }
}

/// Trace event sink — the hot-path recording trait. Like
/// [`TelemetrySink`], every method takes `&self` and defaults to a
/// no-op, so the disabled path ([`NullTrace`]) compiles away entirely.
///
/// Record-path contract: an implementation may touch only state owned by
/// the calling worker — no locks held unconditionally, no allocation, no
/// atomics shared across workers.
pub trait TraceSink {
    /// A discipline turn produced `verdict`.
    fn turn_verdict(&self, verdict: TraceVerdict) {
        let _ = verdict;
    }

    /// A timer sleep completed: the driver asked for `requested`, the
    /// service delivered `actual`, and charged `overslept` lateness (the
    /// exact value handed to [`TelemetrySink::overslept`], so histogram
    /// sums reconcile against the `oversleep_nanos` counter).
    fn sleep(&self, requested: Nanos, actual: Nanos, overslept: Nanos) {
        let _ = (requested, actual, overslept);
    }

    /// The worker parked on its doorbell.
    fn park(&self) {}

    /// The worker unparked after `parked`.
    fn unpark(&self, parked: Nanos) {
        let _ = parked;
    }

    /// First poll after a wake, `wake_latency` after the wake signal.
    fn first_poll(&self, wake_latency: Nanos) {
        let _ = wake_latency;
    }

    /// The scheduler started a slice of `task` at virtual runtime
    /// `vruntime`.
    fn slice_begin(&self, task: usize, vruntime: u64) {
        let _ = (task, vruntime);
    }

    /// The slice of `task` ended after `busy`.
    fn slice_end(&self, task: usize, busy: Nanos) {
        let _ = (task, busy);
    }

    /// The scheduler picked newly-runnable `task`, `delay` after it
    /// became ready.
    fn sched_pick(&self, task: usize, delay: Nanos) {
        let _ = (task, delay);
    }

    /// A timer was armed for `task` at `deadline_ns` (executor clock).
    fn wheel_insert(&self, task: usize, deadline_ns: u64) {
        let _ = (task, deadline_ns);
    }

    /// A wheel cascade re-placed `entries` entries.
    fn wheel_cascade(&self, entries: u64) {
        let _ = entries;
    }

    /// A wheel entry for `task` fired (`live` false = stale generation,
    /// discarded).
    fn wheel_fire(&self, task: usize, live: bool) {
        let _ = (task, live);
    }

    /// A burst of `n` packets was drained from queue `q` (one event per
    /// [`TelemetrySink::retrieved`] call).
    fn burst(&self, q: usize, n: u64) {
        let _ = (q, n);
    }

    /// A control-plane marker.
    fn marker(&self, kind: MarkerKind, a: u64) {
        let _ = (kind, a);
    }
}

/// The disabled tracer: every event is a no-op the optimizer erases, so
/// an untraced driver monomorphizes to the pre-tracing code.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTrace;

impl TraceSink for NullTrace {}

/// Sharing a tracer by reference is still a tracer.
impl<T: TraceSink + ?Sized> TraceSink for &T {
    fn turn_verdict(&self, verdict: TraceVerdict) {
        (**self).turn_verdict(verdict)
    }
    fn sleep(&self, requested: Nanos, actual: Nanos, overslept: Nanos) {
        (**self).sleep(requested, actual, overslept)
    }
    fn park(&self) {
        (**self).park()
    }
    fn unpark(&self, parked: Nanos) {
        (**self).unpark(parked)
    }
    fn first_poll(&self, wake_latency: Nanos) {
        (**self).first_poll(wake_latency)
    }
    fn slice_begin(&self, task: usize, vruntime: u64) {
        (**self).slice_begin(task, vruntime)
    }
    fn slice_end(&self, task: usize, busy: Nanos) {
        (**self).slice_end(task, busy)
    }
    fn sched_pick(&self, task: usize, delay: Nanos) {
        (**self).sched_pick(task, delay)
    }
    fn wheel_insert(&self, task: usize, deadline_ns: u64) {
        (**self).wheel_insert(task, deadline_ns)
    }
    fn wheel_cascade(&self, entries: u64) {
        (**self).wheel_cascade(entries)
    }
    fn wheel_fire(&self, task: usize, live: bool) {
        (**self).wheel_fire(task, live)
    }
    fn burst(&self, q: usize, n: u64) {
        (**self).burst(q, n)
    }
    fn marker(&self, kind: MarkerKind, a: u64) {
        (**self).marker(kind, a)
    }
}

/// One recorder's published state: its ring contents at the last flush
/// plus overflow, per-kind recorded counts, and the three histograms.
#[derive(Clone, Debug)]
pub struct WorkerTrace {
    /// Recorder index (worker on the thread backend, shard on the async
    /// backend, control-plane slots after those).
    pub worker: usize,
    /// Stored events, oldest first, timestamps nondecreasing.
    pub events: Vec<TraceEvent>,
    /// Events lost to drop-oldest overflow (exact).
    pub dropped: u64,
    /// Events recorded per kind (index = kind code; survives overflow).
    pub kind_counts: Vec<u64>,
    /// Wake-to-first-poll latency, nanoseconds.
    pub wake_latency: Histogram,
    /// Sleep-service oversleep, nanoseconds. The sum over records equals
    /// the values handed to [`TelemetrySink::overslept`] exactly.
    pub oversleep: Histogram,
    /// Ready-to-scheduled delay, nanoseconds.
    pub sched_delay: Histogram,
}

impl WorkerTrace {
    /// An empty trace for recorder `worker`.
    pub fn empty(worker: usize) -> WorkerTrace {
        WorkerTrace {
            worker,
            events: Vec::new(),
            dropped: 0,
            kind_counts: vec![0; N_EVENT_KINDS],
            wake_latency: Histogram::latency(),
            oversleep: Histogram::latency(),
            sched_delay: Histogram::latency(),
        }
    }

    /// Recorded events of `kind` (survives ring overflow).
    pub fn kind_count(&self, kind: TraceEventKind) -> u64 {
        self.kind_counts[kind as usize]
    }
}

struct RecorderInner {
    ring: TraceRing,
    wake_latency: Histogram,
    oversleep: Histogram,
    sched_delay: Histogram,
    since_flush: u32,
}

impl RecorderInner {
    fn publish(&self, worker: usize, slot: &mut WorkerTrace) {
        slot.worker = worker;
        slot.events = self.ring.ordered();
        slot.dropped = self.ring.dropped();
        slot.kind_counts = self.ring.kind_counts.to_vec();
        slot.wake_latency = self.wake_latency.clone();
        slot.oversleep = self.oversleep.clone();
        slot.sched_delay = self.sched_delay.clone();
    }
}

/// Per-worker flight recorder: a [`TraceRing`] plus histograms behind a
/// `RefCell` (the worker is the only borrower — recorders are `Send`,
/// not `Sync`), publishing to its hub slot every [`FLUSH_EVERY`] events
/// via `try_lock` (never blocking the worker) and unconditionally on
/// drop.
pub struct TraceRecorder {
    worker: usize,
    /// Amortized timestamp source anchored on the hub epoch: boundary
    /// events (verdicts, sleeps, parks, scheduler picks, markers) take one
    /// precise read; payload events inside a turn (bursts, wheel traffic)
    /// reuse it. Cached reads are monotone, so per-worker event streams
    /// stay sorted — the dump-merge invariant the proptests pin down.
    clock: CoarseClock,
    slot: Arc<Mutex<WorkerTrace>>,
    inner: RefCell<RecorderInner>,
}

impl TraceRecorder {
    /// The recorder's index in its hub.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Record with one precise clock read (turn/sleep/sched boundaries).
    fn record(&self, kind: TraceEventKind, a: u64, b: u64) {
        let ts_ns = self.clock.tick().as_nanos();
        self.record_at(ts_ns, kind, a, b);
    }

    /// Record against the last boundary's timestamp — no clock read. Used
    /// by the high-frequency payload events (bursts, timer-wheel traffic),
    /// whose rate is what the flight recorder is measuring in the first
    /// place. Staleness is bounded by one turn; the first event on a fresh
    /// recorder still takes a precise read so nothing is stamped at the
    /// epoch.
    fn record_coarse(&self, kind: TraceEventKind, a: u64, b: u64) {
        let cached = self.clock.cached();
        let ts_ns = if cached.is_zero() {
            self.clock.tick().as_nanos()
        } else {
            cached.as_nanos()
        };
        self.record_at(ts_ns, kind, a, b);
    }

    fn record_at(&self, ts_ns: u64, kind: TraceEventKind, a: u64, b: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.ring.push(TraceEvent { ts_ns, kind, a, b });
        inner.since_flush += 1;
        if inner.since_flush >= FLUSH_EVERY {
            inner.since_flush = 0;
            // Opportunistic publication: a contended slot (a dump in
            // progress) skips the flush rather than stall the worker.
            if let Ok(mut slot) = self.slot.try_lock() {
                inner.publish(self.worker, &mut slot);
            }
        }
    }

    /// Publish the current state to the hub slot, blocking on the slot
    /// lock (control-plane use; workers flush opportunistically).
    pub fn flush(&self) {
        let inner = self.inner.borrow();
        if let Ok(mut slot) = self.slot.lock() {
            inner.publish(self.worker, &mut slot);
        }
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

impl TraceSink for TraceRecorder {
    fn turn_verdict(&self, verdict: TraceVerdict) {
        self.record(TraceEventKind::TurnVerdict, verdict.code(), 0);
    }

    fn sleep(&self, requested: Nanos, actual: Nanos, overslept: Nanos) {
        self.inner
            .borrow_mut()
            .oversleep
            .record(overslept.as_nanos());
        self.record(
            TraceEventKind::Sleep,
            requested.as_nanos(),
            actual.as_nanos(),
        );
    }

    fn park(&self) {
        self.record(TraceEventKind::Park, 0, 0);
    }

    fn unpark(&self, parked: Nanos) {
        self.record(TraceEventKind::Unpark, parked.as_nanos(), 0);
    }

    fn first_poll(&self, wake_latency: Nanos) {
        self.inner
            .borrow_mut()
            .wake_latency
            .record(wake_latency.as_nanos());
        self.record(TraceEventKind::FirstPoll, wake_latency.as_nanos(), 0);
    }

    fn slice_begin(&self, task: usize, vruntime: u64) {
        self.record(TraceEventKind::SliceBegin, task as u64, vruntime);
    }

    fn slice_end(&self, task: usize, busy: Nanos) {
        self.record(TraceEventKind::SliceEnd, task as u64, busy.as_nanos());
    }

    fn sched_pick(&self, task: usize, delay: Nanos) {
        self.inner.borrow_mut().sched_delay.record(delay.as_nanos());
        self.record(TraceEventKind::SchedPick, task as u64, delay.as_nanos());
    }

    fn wheel_insert(&self, task: usize, deadline_ns: u64) {
        self.record_coarse(TraceEventKind::WheelInsert, task as u64, deadline_ns);
    }

    fn wheel_cascade(&self, entries: u64) {
        self.record_coarse(TraceEventKind::WheelCascade, entries, 0);
    }

    fn wheel_fire(&self, task: usize, live: bool) {
        self.record_coarse(TraceEventKind::WheelFire, task as u64, live as u64);
    }

    fn burst(&self, q: usize, n: u64) {
        self.record_coarse(TraceEventKind::Burst, q as u64, n);
    }

    fn marker(&self, kind: MarkerKind, a: u64) {
        let k = match kind {
            MarkerKind::Reconfigure => TraceEventKind::Reconfigure,
            MarkerKind::FaultPlan => TraceEventKind::FaultPlan,
        };
        self.record(k, a, 0);
    }
}

/// The hub a scenario's recorders publish into: one slot per recorder
/// plus the shared epoch every timestamp is relative to.
#[derive(Debug)]
pub struct TraceHub {
    label: String,
    epoch: Instant,
    capacity: usize,
    slots: Vec<Arc<Mutex<WorkerTrace>>>,
}

impl TraceHub {
    /// A hub with `n_recorders` slots and per-recorder ring `capacity`.
    pub fn new(n_recorders: usize, capacity: usize) -> TraceHub {
        TraceHub::labeled(n_recorders, capacity, "metronome")
    }

    /// [`TraceHub::new`] with a process label for the Chrome dump.
    pub fn labeled(n_recorders: usize, capacity: usize, label: &str) -> TraceHub {
        TraceHub {
            label: label.to_string(),
            epoch: Instant::now(),
            capacity,
            slots: (0..n_recorders)
                .map(|w| Arc::new(Mutex::new(WorkerTrace::empty(w))))
                .collect(),
        }
    }

    /// Number of recorder slots.
    pub fn n_recorders(&self) -> usize {
        self.slots.len()
    }

    /// Per-recorder ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The process label used in dumps.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Build the recorder for slot `worker`. Each slot should have
    /// exactly one live recorder; a second recorder for the same slot
    /// (e.g. after a re-arm) simply replaces the published state.
    ///
    /// # Panics
    /// If `worker` is out of range.
    pub fn recorder(&self, worker: usize) -> TraceRecorder {
        TraceRecorder {
            worker,
            clock: CoarseClock::from_epoch(self.epoch),
            slot: Arc::clone(&self.slots[worker]),
            inner: RefCell::new(RecorderInner {
                ring: TraceRing::new(self.capacity),
                wake_latency: Histogram::latency(),
                oversleep: Histogram::latency(),
                sched_delay: Histogram::latency(),
                since_flush: 0,
            }),
        }
    }

    /// Snapshot every slot's last-published state. Complete after the
    /// recorders have dropped; at most [`FLUSH_EVERY`] events stale per
    /// worker while they run.
    pub fn dump(&self) -> TraceDump {
        TraceDump {
            label: self.label.clone(),
            workers: self
                .slots
                .iter()
                .map(|s| {
                    s.lock()
                        .map(|g| g.clone())
                        .unwrap_or_else(|p| p.into_inner().clone())
                })
                .collect(),
        }
    }
}

/// A merged snapshot of every recorder's published state.
#[derive(Clone, Debug)]
pub struct TraceDump {
    /// Process label (Chrome dump process name).
    pub label: String,
    /// One entry per recorder slot, in slot order.
    pub workers: Vec<WorkerTrace>,
}

impl TraceDump {
    /// All stored events as `(worker, event)`, globally sorted by
    /// timestamp. The sort is stable, so each worker's own (already
    /// nondecreasing) order is preserved.
    pub fn merged(&self) -> Vec<(usize, TraceEvent)> {
        let mut all: Vec<(usize, TraceEvent)> = self
            .workers
            .iter()
            .flat_map(|w| w.events.iter().map(|&e| (w.worker, e)))
            .collect();
        all.sort_by_key(|(_, e)| e.ts_ns);
        all
    }

    /// Stored events across all workers.
    pub fn total_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Overflow-dropped events across all workers (exact).
    pub fn total_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Recorded events of `kind` across all workers (survives ring
    /// overflow — this is the number that reconciles against hub
    /// counters).
    pub fn kind_count(&self, kind: TraceEventKind) -> u64 {
        self.workers.iter().map(|w| w.kind_count(kind)).sum()
    }

    /// Merged wake-to-first-poll histogram (nanoseconds).
    pub fn wake_latency(&self) -> Histogram {
        self.merged_hist(|w| &w.wake_latency)
    }

    /// Merged oversleep histogram (nanoseconds).
    pub fn oversleep(&self) -> Histogram {
        self.merged_hist(|w| &w.oversleep)
    }

    /// Merged scheduler-delay histogram (nanoseconds).
    pub fn sched_delay(&self) -> Histogram {
        self.merged_hist(|w| &w.sched_delay)
    }

    fn merged_hist<'a>(&'a self, pick: impl Fn(&'a WorkerTrace) -> &'a Histogram) -> Histogram {
        let mut h = Histogram::latency();
        for w in &self.workers {
            h.merge(pick(w));
        }
        h
    }

    /// Per-worker summary (counts, overflow, per-kind breakdown) — the
    /// daemon `trace` reply body.
    pub fn summary_json(&self) -> Json {
        let workers: Vec<Json> = self
            .workers
            .iter()
            .map(|w| {
                let mut kinds = Json::obj();
                for kind in TraceEventKind::ALL {
                    let n = w.kind_count(kind);
                    if n > 0 {
                        kinds.push(kind.label(), n);
                    }
                }
                Json::obj()
                    .with("worker", w.worker)
                    .with("events", w.events.len() as u64)
                    .with("recorded", w.kind_counts.iter().sum::<u64>())
                    .with("dropped", w.dropped)
                    .with("kinds", kinds)
            })
            .collect();
        Json::obj()
            .with("label", self.label.as_str())
            .with("events", self.total_events() as u64)
            .with("dropped", self.total_dropped())
            .with("workers", Json::Arr(workers))
    }

    /// Render the dump as a Chrome trace-event JSON document
    /// (`chrome://tracing` / Perfetto loadable): one process named after
    /// the hub label, one named thread per recorder, `ts`/`dur` in
    /// microseconds. Sleeps and slices render as complete (`"X"`) spans
    /// — the ring records their *end*, so the span is back-dated by its
    /// duration — and everything else as thread-scoped instants.
    pub fn chrome_json(&self) -> Json {
        let us = |ns: u64| Json::Float(ns as f64 / 1e3);
        let mut events: Vec<Json> =
            Vec::with_capacity(self.total_events() + self.workers.len() + 1);
        events.push(
            Json::obj()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", 1u64)
                .with("tid", 0u64)
                .with("args", Json::obj().with("name", self.label.as_str())),
        );
        for w in &self.workers {
            events.push(
                Json::obj()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 1u64)
                    .with("tid", w.worker as u64)
                    .with(
                        "args",
                        Json::obj().with("name", format!("worker-{}", w.worker).as_str()),
                    ),
            );
        }
        for w in &self.workers {
            let tid = w.worker as u64;
            for e in &w.events {
                let base = |name: &str, ph: &str, ts_ns: u64| {
                    Json::obj()
                        .with("name", name)
                        .with("cat", "trace")
                        .with("ph", ph)
                        .with("pid", 1u64)
                        .with("tid", tid)
                        .with("ts", us(ts_ns))
                };
                let ev = match e.kind {
                    TraceEventKind::Sleep => base("sleep", "X", e.ts_ns.saturating_sub(e.b))
                        .with("dur", us(e.b))
                        .with(
                            "args",
                            Json::obj().with("requested_ns", e.a).with("actual_ns", e.b),
                        ),
                    TraceEventKind::SliceEnd => base("slice", "X", e.ts_ns.saturating_sub(e.b))
                        .with("dur", us(e.b))
                        .with("args", Json::obj().with("task", e.a).with("busy_ns", e.b)),
                    kind => base(kind.label(), "i", e.ts_ns)
                        .with("s", "t")
                        .with("args", Json::obj().with("a", e.a).with("b", e.b)),
                };
                events.push(ev);
            }
        }
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ns")
    }
}

/// A [`TelemetrySink`] combinator that forwards every event to an inner
/// sink and additionally records the trace-grade ones into a
/// [`TraceSink`] — the seam that keeps trace events and hub counters
/// reconciled: each `retrieved` call produces exactly one hub `bursts`
/// increment *and* one [`TraceEventKind::Burst`] record.
#[derive(Clone, Copy, Debug)]
pub struct TracedSink<S, R> {
    sink: S,
    trace: R,
}

impl<S: TelemetrySink, R: TraceSink> TracedSink<S, R> {
    /// Wrap `sink`, mirroring trace-grade events into `trace`.
    pub fn new(sink: S, trace: R) -> TracedSink<S, R> {
        TracedSink { sink, trace }
    }
}

impl<S: TelemetrySink, R: TraceSink> TelemetrySink for TracedSink<S, R> {
    fn wake(&self) {
        self.sink.wake()
    }
    fn sleep_planned(&self, kind: SleepKind, planned: Nanos) {
        self.sink.sleep_planned(kind, planned)
    }
    fn busy(&self, dur: Nanos) {
        self.sink.busy(dur)
    }
    fn slept(&self, dur: Nanos) {
        self.sink.slept(dur)
    }
    fn overslept(&self, dur: Nanos) {
        self.sink.overslept(dur)
    }
    fn retrieved(&self, q: usize, n: u64) {
        self.trace.burst(q, n);
        self.sink.retrieved(q, n)
    }
    fn dropped(&self, q: usize, cause: DropCause, n: u64) {
        self.sink.dropped(q, cause, n)
    }
    fn ts_update(&self, q: usize, ts: Nanos) {
        self.sink.ts_update(q, ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: TraceEventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn ring_stores_in_order_below_capacity() {
        let mut r = TraceRing::new(8);
        for i in 0..5 {
            r.push(ev(i, TraceEventKind::Burst, i, 0));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let got: Vec<u64> = r.ordered().iter().map(|e| e.ts_ns).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts_exactly() {
        let mut r = TraceRing::new(4);
        for i in 0..11 {
            r.push(ev(i, TraceEventKind::Burst, i, 0));
        }
        assert_eq!(r.len(), 4, "capacity bound holds");
        assert_eq!(r.dropped(), 7, "exactly pushes-minus-capacity dropped");
        let got: Vec<u64> = r.ordered().iter().map(|e| e.ts_ns).collect();
        assert_eq!(
            got,
            vec![7, 8, 9, 10],
            "the newest events survive, in order"
        );
        assert_eq!(
            r.kind_count(TraceEventKind::Burst),
            11,
            "recorded count survives overflow"
        );
        assert_eq!(r.recorded(), 11);
    }

    #[test]
    fn recorder_publishes_on_drop_and_hub_merges() {
        let hub = TraceHub::new(2, 16);
        for w in 0..2 {
            let rec = hub.recorder(w);
            rec.burst(w, 32);
            rec.turn_verdict(TraceVerdict::Continue);
            drop(rec); // deposits into the slot
        }
        let dump = hub.dump();
        assert_eq!(dump.workers.len(), 2);
        assert_eq!(dump.kind_count(TraceEventKind::Burst), 2);
        assert_eq!(dump.kind_count(TraceEventKind::TurnVerdict), 2);
        assert_eq!(dump.total_events(), 4);
        assert_eq!(dump.total_dropped(), 0);
        // Both workers contributed to the merge.
        let merged = dump.merged();
        assert_eq!(merged.len(), 4);
        let mut seen: Vec<usize> = merged.iter().map(|(w, _)| *w).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn histograms_record_and_reconcile() {
        let hub = TraceHub::new(1, 16);
        let rec = hub.recorder(0);
        rec.sleep(
            Nanos::from_micros(10),
            Nanos::from_micros(13),
            Nanos::from_micros(3),
        );
        rec.sleep(Nanos::from_micros(10), Nanos::from_micros(10), Nanos::ZERO);
        rec.first_poll(Nanos::from_micros(5));
        rec.sched_pick(0, Nanos::from_micros(7));
        drop(rec);
        let dump = hub.dump();
        let over = dump.oversleep();
        assert_eq!(over.count(), 2, "one oversleep record per sleep");
        assert_eq!(
            over.sum(),
            3_000,
            "histogram sum equals the overslept total"
        );
        assert_eq!(dump.wake_latency().count(), 1);
        assert_eq!(dump.sched_delay().count(), 1);
        assert_eq!(dump.kind_count(TraceEventKind::Sleep), 2);
        assert_eq!(dump.kind_count(TraceEventKind::FirstPoll), 1);
        assert_eq!(dump.kind_count(TraceEventKind::SchedPick), 1);
    }

    #[test]
    fn traced_sink_mirrors_bursts_only() {
        use crate::counters::TelemetryHub;
        use std::sync::atomic::Ordering;
        let counters = TelemetryHub::new(1, 2);
        let trace_hub = TraceHub::new(1, 16);
        {
            let sink = TracedSink::new(counters.worker_sink(0), trace_hub.recorder(0));
            sink.retrieved(1, 32);
            sink.retrieved(0, 16);
            sink.wake();
            sink.overslept(Nanos::from_micros(1));
        }
        let dump = trace_hub.dump();
        let hub_bursts = counters.queue(0).bursts.load(Ordering::Relaxed)
            + counters.queue(1).bursts.load(Ordering::Relaxed);
        assert_eq!(
            dump.kind_count(TraceEventKind::Burst),
            hub_bursts,
            "burst events reconcile with the hub bursts counter"
        );
        assert_eq!(
            dump.total_events(),
            2,
            "non-burst sink events record nothing"
        );
    }

    #[test]
    fn chrome_dump_is_valid_and_carries_required_fields() {
        let hub = TraceHub::labeled(2, 16, "test-run");
        for w in 0..2 {
            let rec = hub.recorder(w);
            rec.burst(w, 32);
            rec.sleep(
                Nanos::from_micros(10),
                Nanos::from_micros(12),
                Nanos::from_micros(2),
            );
            rec.slice_begin(w, 5);
            rec.slice_end(w, Nanos::from_micros(4));
        }
        let doc = hub.dump().chrome_json().render();
        let parsed = Json::parse(&doc).expect("chrome dump is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // 1 process + 2 thread metadata + 8 events.
        assert_eq!(events.len(), 11);
        for e in events {
            for field in ["ph", "pid", "tid"] {
                assert!(e.get(field).is_some(), "missing {field} in {e:?}");
            }
            if e.get("ph").and_then(Json::as_str) != Some("M") {
                assert!(e.get("ts").is_some(), "non-metadata event missing ts");
            }
        }
        // Spans are back-dated, never negative.
        assert!(events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .all(|e| e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0));
    }

    #[test]
    fn live_dump_sees_flushed_state_without_blocking_recorder() {
        let hub = TraceHub::new(1, 8192);
        let rec = hub.recorder(0);
        // Fewer than FLUSH_EVERY events: nothing published yet.
        rec.burst(0, 1);
        assert_eq!(hub.dump().total_events(), 0);
        for _ in 0..FLUSH_EVERY {
            rec.burst(0, 1);
        }
        let dump = hub.dump();
        assert!(
            dump.total_events() >= FLUSH_EVERY as usize,
            "flush boundary published"
        );
        rec.flush();
        assert_eq!(
            hub.dump().kind_count(TraceEventKind::Burst),
            FLUSH_EVERY as u64 + 1
        );
    }
}
