//! Lock-free counters: the hot-path half of the telemetry subsystem.
//!
//! A [`TelemetryHub`] owns one [`WorkerCounters`] per worker and one
//! [`QueueCounters`] per Rx queue, all plain `AtomicU64`s accessed with
//! `Ordering::Relaxed`. Workers publish through a per-worker
//! [`WorkerTelemetry`] view (which binds the worker index once, so the
//! sink callbacks carry no identity lookup); the sampler thread reads the
//! same atomics without ever blocking a worker. Counter reads are
//! monotone-per-counter but not a consistent cross-counter cut — windowed
//! deltas absorb that, which is why the sampler works on snapshots.
//!
//! **Written by the workers, never read-modify-written.** Every counter
//! has one writer at a time, so its update is a load and a store
//! ([`bump`]) with no `lock` prefix: a worker's own block because
//! [`TelemetryHub::worker_sink`] hands each slot to one live view, a
//! queue's retrieval words because only whoever may poll the queue — the
//! trylock's holder under Metronome, the pinned worker under a baseline —
//! reports a burst from it. The hub counts no loss: a packet lost before
//! retrieval is booked once, where it was lost (the realtime port's rings
//! and the fault injectors; the simulator's world), and the pipeline
//! reads those books into its snapshots.

use crate::sink::{SleepKind, TelemetrySink};
use metronome_sim::Nanos;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// `counter += n` for a counter with one writer at a time: a load and a
/// store, where an atomic add is a `lock`-prefixed read-modify-write. With
/// two concurrent writers it loses updates — the caller owns the argument
/// for why there is one (a claimed slot here, the queue's trylock in
/// `metronome-core`).
#[inline]
pub fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Per-worker counters: one cache line per worker, so a worker's five
/// updates per wake never invalidate a neighbour's line. Each block has a
/// single writer by construction — the one live [`WorkerTelemetry`] that
/// [`TelemetryHub::worker_sink`] let claim it — so every update is a plain
/// load and store.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct WorkerCounters {
    /// Set while a [`WorkerTelemetry`] view of this slot is alive.
    claimed: AtomicBool,
    /// Timer wake-ups.
    pub wakeups: AtomicU64,
    /// Nanoseconds spent awake (wake → next sleep).
    pub busy_nanos: AtomicU64,
    /// Nanoseconds spent asleep (as measured, including oversleep).
    pub sleep_nanos: AtomicU64,
    /// Sleeps taken under the short adaptive timeout `TS`.
    pub sleeps_short: AtomicU64,
    /// Sleeps taken under the long backup timeout `TL`.
    pub sleeps_long: AtomicU64,
    /// Sleeps taken under a fixed-period retrieval timer (ConstSleep's
    /// `r_sleep` period, InterruptLike's moderation window).
    pub sleeps_fixed: AtomicU64,
    /// Measured oversleep: how much later than requested the sleep
    /// service actually woke the thread, summed in nanoseconds. Lets the
    /// ConstSleep baseline and Metronome report comparable sleep-service
    /// precision on real hardware.
    pub oversleep_nanos: AtomicU64,
}

/// Per-queue counters plus the `TS` gauge, one cache line per queue,
/// written by the queue's current poller.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct QueueCounters {
    /// Packets retrieved (drained by winners). Written by the queue's
    /// current poller only, as is `bursts`.
    pub retrieved: AtomicU64,
    /// Non-empty retrieval bursts.
    pub bursts: AtomicU64,
    /// Current adaptive `TS` in nanoseconds (gauge, last-writer-wins).
    pub ts_ns: AtomicU64,
}

/// The shared counter block for one running Metronome instance.
#[derive(Debug)]
pub struct TelemetryHub {
    workers: Vec<WorkerCounters>,
    queues: Vec<QueueCounters>,
    /// Which retrieval discipline the counted workers run ("metronome",
    /// "busy-poll", "interrupt", "const-sleep", ...). Propagated into
    /// snapshots so exported series are comparable across systems.
    discipline: &'static str,
}

impl TelemetryHub {
    /// Hub for `m_workers` threads over `n_queues` queues, labelled with
    /// the default "metronome" discipline.
    pub fn new(m_workers: usize, n_queues: usize) -> Arc<Self> {
        Self::labeled(m_workers, n_queues, "metronome")
    }

    /// [`TelemetryHub::new`] with an explicit retrieval-discipline label.
    pub fn labeled(m_workers: usize, n_queues: usize, discipline: &'static str) -> Arc<Self> {
        Arc::new(TelemetryHub {
            workers: (0..m_workers).map(|_| WorkerCounters::default()).collect(),
            queues: (0..n_queues).map(|_| QueueCounters::default()).collect(),
            discipline,
        })
    }

    /// The retrieval-discipline label this hub counts under.
    pub fn discipline(&self) -> &'static str {
        self.discipline
    }

    /// Number of worker slots.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of queue slots.
    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    /// A worker's counter block.
    pub fn worker(&self, w: usize) -> &WorkerCounters {
        &self.workers[w]
    }

    /// A queue's counter block.
    pub fn queue(&self, q: usize) -> &QueueCounters {
        &self.queues[q]
    }

    /// The publishing view for worker `w`, which claims the slot until it
    /// is dropped: the view is the slot's one writer.
    ///
    /// # Panics
    /// If `w` is out of range, or slot `w` is claimed by a live view.
    pub fn worker_sink(self: &Arc<Self>, w: usize) -> WorkerTelemetry {
        assert!(w < self.workers.len(), "worker index out of range");
        // Acquire pairs with the Release in `WorkerTelemetry::drop`: the
        // next owner of a slot continues from its last owner's counts.
        assert!(
            !self.workers[w].claimed.swap(true, Ordering::Acquire),
            "worker slot {w} is already claimed by a live WorkerTelemetry"
        );
        WorkerTelemetry {
            hub: Arc::clone(self),
            worker: w,
        }
    }

    /// Total packets retrieved across queues.
    pub fn total_retrieved(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.retrieved.load(Ordering::Relaxed))
            .sum()
    }

    /// Total wake-ups across workers.
    pub fn total_wakeups(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.wakeups.load(Ordering::Relaxed))
            .sum()
    }

    /// Fold the hub's counters into `snap` (the sampler-facing read side).
    /// What the hub does not count (offered load, losses, occupancy,
    /// pool, energy, latency) is left untouched for the caller to fill.
    pub fn fill_snapshot(&self, snap: &mut crate::sampler::CounterSnapshot) {
        snap.discipline = self.discipline;
        snap.retrieved = self.total_retrieved();
        snap.wakeups = self.total_wakeups();
        snap.busy_nanos = self
            .workers
            .iter()
            .map(|w| w.busy_nanos.load(Ordering::Relaxed))
            .sum();
        snap.sleep_nanos = self
            .workers
            .iter()
            .map(|w| w.sleep_nanos.load(Ordering::Relaxed))
            .sum();
        snap.oversleep_nanos = self
            .workers
            .iter()
            .map(|w| w.oversleep_nanos.load(Ordering::Relaxed))
            .sum();
        snap.ts_ns = self
            .queues
            .iter()
            .map(|q| q.ts_ns.load(Ordering::Relaxed))
            .collect();
    }
}

/// A queue-level sink over the whole hub (no worker identity), for a
/// driver that publishes retrievals and `TS` without a worker slot.
impl TelemetrySink for TelemetryHub {
    /// To be called by queue `q`'s current poller only (see the module
    /// doc).
    fn retrieved(&self, q: usize, n: u64) {
        let qc = &self.queues[q];
        bump(&qc.retrieved, n);
        bump(&qc.bursts, 1);
    }

    fn ts_update(&self, q: usize, ts: Nanos) {
        self.queues[q].ts_ns.store(ts.as_nanos(), Ordering::Relaxed);
    }
}

/// Worker `w`'s publishing handle: binds the worker index so every sink
/// callback is a direct relaxed load and store on pre-resolved counters.
/// Not `Clone`: it holds the claim on its slot and releases it on drop.
#[derive(Debug)]
pub struct WorkerTelemetry {
    hub: Arc<TelemetryHub>,
    worker: usize,
}

impl Drop for WorkerTelemetry {
    fn drop(&mut self) {
        self.slot().claimed.store(false, Ordering::Release);
    }
}

impl WorkerTelemetry {
    /// The hub this view publishes into.
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// The bound worker index.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The claimed counter block.
    fn slot(&self) -> &WorkerCounters {
        &self.hub.workers[self.worker]
    }
}

impl TelemetrySink for WorkerTelemetry {
    fn wake(&self) {
        bump(&self.slot().wakeups, 1);
    }

    fn sleep_planned(&self, kind: SleepKind, _planned: Nanos) {
        let w = self.slot();
        match kind {
            SleepKind::Short => bump(&w.sleeps_short, 1),
            SleepKind::Long => bump(&w.sleeps_long, 1),
            SleepKind::Fixed => bump(&w.sleeps_fixed, 1),
            SleepKind::Stagger => {}
        }
    }

    fn busy(&self, dur: Nanos) {
        bump(&self.slot().busy_nanos, dur.as_nanos());
    }

    fn slept(&self, dur: Nanos) {
        bump(&self.slot().sleep_nanos, dur.as_nanos());
    }

    fn overslept(&self, dur: Nanos) {
        bump(&self.slot().oversleep_nanos, dur.as_nanos());
    }

    fn retrieved(&self, q: usize, n: u64) {
        self.hub.retrieved(q, n);
    }

    fn ts_update(&self, q: usize, ts: Nanos) {
        self.hub.ts_update(q, ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_accumulates_worker_events() {
        let hub = TelemetryHub::new(2, 2);
        let w0 = hub.worker_sink(0);
        let w1 = hub.worker_sink(1);
        w0.wake();
        w0.busy(Nanos::from_micros(5));
        w0.slept(Nanos::from_micros(30));
        w0.retrieved(0, 32);
        w1.wake();
        w1.retrieved(1, 8);
        hub.ts_update(0, Nanos::from_micros(17));

        assert_eq!(hub.total_wakeups(), 2);
        assert_eq!(hub.total_retrieved(), 40);
        assert_eq!(hub.queue(1).retrieved.load(Ordering::Relaxed), 8);
        assert_eq!(hub.queue(0).ts_ns.load(Ordering::Relaxed), 17_000);
        assert_eq!(hub.worker(0).busy_nanos.load(Ordering::Relaxed), 5_000);
        assert_eq!(hub.worker(0).sleep_nanos.load(Ordering::Relaxed), 30_000);
        assert_eq!(hub.queue(0).bursts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn neighbouring_slots_never_share_a_cache_line() {
        // An alignment of 64 makes the size a multiple of 64 as well.
        assert_eq!(std::mem::align_of::<WorkerCounters>(), 64);
        assert_eq!(std::mem::align_of::<QueueCounters>(), 64);
    }

    #[test]
    fn sleep_kinds_split() {
        let hub = TelemetryHub::new(1, 1);
        let w = hub.worker_sink(0);
        w.sleep_planned(SleepKind::Short, Nanos::from_micros(20));
        w.sleep_planned(SleepKind::Short, Nanos::from_micros(20));
        w.sleep_planned(SleepKind::Long, Nanos::from_micros(500));
        w.sleep_planned(SleepKind::Fixed, Nanos::from_micros(100));
        w.sleep_planned(SleepKind::Stagger, Nanos::ZERO);
        assert_eq!(hub.worker(0).sleeps_short.load(Ordering::Relaxed), 2);
        assert_eq!(hub.worker(0).sleeps_long.load(Ordering::Relaxed), 1);
        assert_eq!(hub.worker(0).sleeps_fixed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn discipline_label_reaches_snapshots() {
        let hub = TelemetryHub::labeled(1, 1, "busy-poll");
        assert_eq!(hub.discipline(), "busy-poll");
        let w = hub.worker_sink(0);
        w.overslept(Nanos::from_micros(3));
        w.overslept(Nanos::from_micros(4));
        let mut snap = crate::sampler::CounterSnapshot::new(Nanos::from_millis(1));
        hub.fill_snapshot(&mut snap);
        assert_eq!(snap.discipline, "busy-poll");
        assert_eq!(snap.oversleep_nanos, 7_000);
        // The default constructor keeps the historical label.
        assert_eq!(TelemetryHub::new(1, 1).discipline(), "metronome");
    }

    #[test]
    fn snapshot_fill_reads_all_counters() {
        let hub = TelemetryHub::new(1, 2);
        let w = hub.worker_sink(0);
        w.wake();
        w.retrieved(0, 10);
        w.retrieved(1, 20);
        hub.ts_update(1, Nanos::from_micros(25));
        let mut snap = crate::sampler::CounterSnapshot::new(Nanos::from_millis(1));
        snap.dropped_ring = 2;
        hub.fill_snapshot(&mut snap);
        assert_eq!(snap.retrieved, 30);
        assert_eq!(snap.wakeups, 1);
        assert_eq!(snap.dropped_ring, 2, "the hub books no loss");
        assert_eq!(snap.ts_ns, vec![0, 25_000]);
    }

    #[test]
    fn a_worker_slot_has_one_live_view() {
        let hub = TelemetryHub::new(2, 1);
        let w1 = hub.worker_sink(1);
        w1.wake();
        // The neighbouring slot is free; slot 1 is not, and says which.
        let _w0 = hub.worker_sink(0);
        let again = std::panic::catch_unwind(|| hub.worker_sink(1));
        let msg = *again.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("worker slot 1 is already claimed"), "{msg}");
        // Dropping the view releases the claim, and the next view goes on
        // from the counts the last one left.
        drop(w1);
        hub.worker_sink(1).wake();
        assert_eq!(hub.worker(1).wakeups.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worker_sink_bounds_checked() {
        let hub = TelemetryHub::new(1, 1);
        let _ = hub.worker_sink(1);
    }
}
