//! Lock-free counters: the hot-path half of the telemetry subsystem.
//!
//! A [`TelemetryHub`] owns one [`WorkerCounters`] time block per worker,
//! all plain `AtomicU64`s accessed with `Ordering::Relaxed`. Workers
//! publish through a per-worker [`WorkerTelemetry`] view (which binds the
//! worker index once, so the sink callbacks carry no identity lookup);
//! the sampler thread reads the same atomics without ever blocking a
//! worker. Counter reads are monotone-per-counter but not a consistent
//! cross-counter cut — windowed deltas absorb that, which is why the
//! sampler works on snapshots.
//!
//! **Written by the workers, never read-modify-written.** Every counter
//! has one writer at a time, so its update is a load and a store
//! ([`bump`]) with no `lock` prefix: a worker's own block because
//! [`TelemetryHub::worker_sink`] hands each slot to one live view. The
//! hub keeps no per-queue book: what a queue retrieved, its `TS` and its
//! ρ̂ are the words the queue's trylock orders (`metronome-core`'s
//! worker set reads them beside this hub into one snapshot). Nor does it
//! count a loss: a packet lost before retrieval is booked once, where it
//! was lost (the realtime port's rings and the fault injectors; the
//! simulator's world).

use crate::sink::TelemetrySink;
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

/// Per-worker time counters: one cache line per worker, so a worker's
/// updates never invalidate a neighbour's line. Each block has a single
/// writer by construction — the one live [`WorkerTelemetry`] that
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
    /// Measured oversleep: how much later than requested the sleep
    /// service actually woke the thread, summed in nanoseconds. Lets the
    /// ConstSleep baseline and Metronome report comparable sleep-service
    /// precision on real hardware.
    pub oversleep_nanos: AtomicU64,
}

/// The per-worker time blocks of one running worker set.
#[derive(Debug)]
pub struct TelemetryHub {
    workers: Vec<WorkerCounters>,
    /// Which retrieval discipline the counted workers run ("metronome",
    /// "busy-poll", "interrupt", "const-sleep", ...). Propagated into
    /// snapshots so exported series are comparable across systems.
    discipline: &'static str,
}

impl TelemetryHub {
    /// Hub for `m_workers` workers running `discipline`.
    pub fn new(m_workers: usize, discipline: &'static str) -> Arc<Self> {
        Arc::new(TelemetryHub {
            workers: (0..m_workers).map(|_| WorkerCounters::default()).collect(),
            discipline,
        })
    }

    /// Number of worker slots.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// A worker's counter block.
    pub fn worker(&self, w: usize) -> &WorkerCounters {
        &self.workers[w]
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

    /// Fold the hub's counters into `snap`: the discipline label and the
    /// worker time totals. What the hub does not count (retrievals and
    /// the per-queue gauges, offered load, losses, occupancy, pool,
    /// energy, latency) is left untouched for the caller to fill.
    pub fn fill_snapshot(&self, snap: &mut crate::sampler::CounterSnapshot) {
        let sum = |f: fn(&WorkerCounters) -> &AtomicU64| -> u64 {
            self.workers
                .iter()
                .map(|w| f(w).load(Ordering::Relaxed))
                .sum()
        };
        snap.discipline = self.discipline;
        snap.wakeups = sum(|w| &w.wakeups);
        snap.busy_nanos = sum(|w| &w.busy_nanos);
        snap.sleep_nanos = sum(|w| &w.sleep_nanos);
        snap.oversleep_nanos = sum(|w| &w.oversleep_nanos);
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
    /// The claimed counter block.
    fn slot(&self) -> &WorkerCounters {
        &self.hub.workers[self.worker]
    }
}

impl TelemetrySink for WorkerTelemetry {
    fn wake(&self) {
        bump(&self.slot().wakeups, 1);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::CounterSnapshot;

    #[test]
    fn hub_accumulates_worker_events() {
        let hub = TelemetryHub::new(2, "metronome");
        let w0 = hub.worker_sink(0);
        let w1 = hub.worker_sink(1);
        w0.wake();
        w0.busy(Nanos::from_micros(5));
        w0.slept(Nanos::from_micros(30));
        w0.retrieved(0, 32);
        w1.wake();

        assert_eq!(hub.worker(0).busy_nanos.load(Ordering::Relaxed), 5_000);
        assert_eq!(hub.worker(0).sleep_nanos.load(Ordering::Relaxed), 30_000);
        assert_eq!(hub.worker(1).wakeups.load(Ordering::Relaxed), 1);
        let mut snap = CounterSnapshot::new(Nanos::from_millis(1));
        snap.dropped_ring = 2;
        hub.fill_snapshot(&mut snap);
        assert_eq!(snap.wakeups, 2);
        assert_eq!(snap.retrieved, 0, "the hub keeps no queue book");
        assert_eq!(snap.dropped_ring, 2, "the hub books no loss");
    }

    #[test]
    fn neighbouring_slots_never_share_a_cache_line() {
        // An alignment of 64 makes the size a multiple of 64 as well.
        assert_eq!(std::mem::align_of::<WorkerCounters>(), 64);
    }

    #[test]
    fn discipline_label_reaches_snapshots() {
        let hub = TelemetryHub::new(1, "busy-poll");
        let w = hub.worker_sink(0);
        w.overslept(Nanos::from_micros(3));
        w.overslept(Nanos::from_micros(4));
        let mut snap = CounterSnapshot::new(Nanos::from_millis(1));
        hub.fill_snapshot(&mut snap);
        assert_eq!(snap.discipline, "busy-poll");
        assert_eq!(snap.oversleep_nanos, 7_000);
    }

    #[test]
    fn a_worker_slot_has_one_live_view() {
        let hub = TelemetryHub::new(2, "metronome");
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
        let hub = TelemetryHub::new(1, "metronome");
        let _ = hub.worker_sink(1);
    }
}
