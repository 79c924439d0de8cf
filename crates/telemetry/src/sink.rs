//! The event surface the execution layers publish into.
//!
//! Everything that happens on a packet-retrieval thread — the wakes
//! and sleeps of the Listing 2 loop, drained bursts, `TS`
//! recomputations — funnels through one object-free trait,
//! [`TelemetrySink`]. Losses are not worker events: the port and the
//! fault injectors count them where they happen, and the realtime
//! pipeline reads those books into its snapshots. The contract is deliberately
//! strict: an implementation must be safe to call from the hot path, so it
//! may touch **relaxed atomics only** — no locks, no allocation, no
//! syscalls. [`crate::counters::TelemetryHub`] is the canonical
//! implementation; [`NullSink`] is the free disabled default (every method
//! body is empty, so a `NullSink`-monomorphized engine compiles to the
//! pre-telemetry code).

use metronome_sim::Nanos;

/// Which timeout a sleep was taken under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SleepKind {
    /// The short adaptive timeout `TS` (race winners).
    Short,
    /// The long backup timeout `TL` (race losers).
    Long,
    /// A fixed-period retrieval timer: the ConstSleep baseline's `r_sleep`
    /// period and the InterruptLike discipline's moderation window.
    Fixed,
    /// The one-off start-up stagger.
    Stagger,
}

/// Telemetry event sink. All methods default to no-ops so implementations
/// pick the events they care about; all take `&self` so one sink can be
/// shared across threads.
///
/// Hot-path contract: implementations must be bounded to relaxed-atomic
/// updates — no locks, no allocation (the realtime worker calls these
/// while holding a queue trylock).
pub trait TelemetrySink {
    /// The thread woke from a timer sleep.
    fn wake(&self) {}

    /// The thread is about to sleep `planned` under `kind`.
    fn sleep_planned(&self, kind: SleepKind, planned: Nanos) {
        let _ = (kind, planned);
    }

    /// The thread was awake (busy) for `dur` since its last sleep.
    fn busy(&self, dur: Nanos) {
        let _ = dur;
    }

    /// The thread actually slept `dur` (includes oversleep).
    fn slept(&self, dur: Nanos) {
        let _ = dur;
    }

    /// The thread overslept its requested timeout by `dur` (measured
    /// wake-up lateness of the sleep service; 0 for a perfectly precise
    /// sleeper).
    fn overslept(&self, dur: Nanos) {
        let _ = dur;
    }

    /// `n` packets were retrieved from queue `q` in one burst.
    fn retrieved(&self, q: usize, n: u64) {
        let _ = (q, n);
    }

    /// Queue `q`'s adaptive `TS` was recomputed to `ts`.
    fn ts_update(&self, q: usize, ts: Nanos) {
        let _ = (q, ts);
    }
}

/// The disabled sink: every event is a no-op the optimizer erases.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {}

/// Sharing a sink by reference is still a sink (lets drivers pass
/// `&sink` without caring whether the callee wants ownership).
impl<S: TelemetrySink + ?Sized> TelemetrySink for &S {
    fn wake(&self) {
        (**self).wake()
    }
    fn sleep_planned(&self, kind: SleepKind, planned: Nanos) {
        (**self).sleep_planned(kind, planned)
    }
    fn busy(&self, dur: Nanos) {
        (**self).busy(dur)
    }
    fn slept(&self, dur: Nanos) {
        (**self).slept(dur)
    }
    fn overslept(&self, dur: Nanos) {
        (**self).overslept(dur)
    }
    fn retrieved(&self, q: usize, n: u64) {
        (**self).retrieved(q, n)
    }
    fn ts_update(&self, q: usize, ts: Nanos) {
        (**self).ts_update(q, ts)
    }
}
