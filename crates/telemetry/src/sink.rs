//! The event surface the execution layers publish into.
//!
//! What happens on a packet-retrieval thread — the wakes and sleeps of
//! the Listing 2 loop, its busy spans, the bursts it drains — funnels
//! through one object-free trait, [`TelemetrySink`]. Queue state is not a
//! worker event: what a queue retrieved, its `TS` and its ρ̂ are the
//! words its trylock orders, which the worker set reads into snapshots
//! itself; a drained burst reaches the sink only so the flight recorder
//! ([`crate::trace::TracedSink`]) can record it. Losses are not worker
//! events either: the port and the fault injectors count them where they
//! happen. The contract is deliberately strict: an implementation must be
//! safe to call from the hot path, so it may touch **relaxed atomics
//! only** — no locks, no allocation, no syscalls.
//! [`crate::counters::WorkerTelemetry`] is the canonical implementation;
//! [`NullSink`] is the free disabled default (every method body is empty,
//! so a `NullSink`-monomorphized engine compiles to the pre-telemetry
//! code).

use metronome_sim::Nanos;

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
}
