//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is carried as [`Nanos`], an integer count of
//! nanoseconds since the start of the simulation. Integer nanoseconds give
//! deterministic arithmetic (no floating-point drift between runs) while
//! being fine enough to express the microsecond-scale sleep intervals the
//! Metronome paper works with (`hr_sleep()` granularity experiments go down
//! to 1 µs) and the ~35 ns per-packet service times of a 28 Mpps forwarder.
//!
//! A `u64` of nanoseconds covers ~584 years of simulated time, so overflow
//! is not a practical concern; arithmetic is nevertheless implemented with
//! saturating/checked semantics where a wrap would corrupt the event order.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in virtual time, or a span of virtual time, in nanoseconds.
///
/// The same type is deliberately used for both instants and durations:
/// the simulator does enough interval arithmetic (vacation periods, busy
/// periods, sleep timeouts, inter-arrival gaps) that splitting the two into
/// separate types produced more conversion noise than safety in practice.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero: the start of the simulation.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// One microsecond.
    pub const MICRO: Nanos = Nanos(1_000);
    /// One second.
    pub const SECOND: Nanos = Nanos(1_000_000_000);

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    ///
    /// Negative and non-finite inputs clamp to zero: callers feed this from
    /// model formulas that can transiently produce tiny negative values.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Construct from fractional microseconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        Nanos::from_secs_f64(us * 1e-6)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - rhs`, floored at zero.
    ///
    /// Used pervasively when computing residual timeouts, where scheduling
    /// jitter can make the "deadline" land slightly in the past.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (caps at [`Nanos::MAX`]).
    #[inline]
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Multiply a duration by an integer scale factor (saturating).
    #[inline]
    pub fn scaled(self, factor: u64) -> Nanos {
        Nanos(self.0.saturating_mul(factor))
    }

    /// Multiply a duration by a floating factor, rounding to nearest ns.
    ///
    /// Non-finite or negative factors clamp to zero.
    #[inline]
    pub fn scaled_f64(self, factor: f64) -> Nanos {
        if !factor.is_finite() || factor <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos(((self.0 as f64) * factor).round().min(u64::MAX as f64) as u64)
    }

    /// The midpoint between two instants (no overflow).
    #[inline]
    pub fn midpoint(self, other: Nanos) -> Nanos {
        Nanos(self.0 / 2 + other.0 / 2 + (self.0 & other.0 & 1))
    }

    /// Smaller of two times.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two times.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// True if this is the zero time/duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    /// Ratio of two durations (dimensionless).
    type Output = f64;
    #[inline]
    fn div(self, rhs: Nanos) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Nanos {
    /// Human-oriented rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "∞")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// One precise read of the OS monotonic clock, as nanoseconds since
/// `epoch` — the single funnel for every clock read on the realtime wake
/// path ([`CoarseClock::tick`], the sleeper's spin loop, the backend's
/// release stamp) but one, a burst's completion stamp, which is
/// [`read_instant`].
///
/// In debug builds each call also bumps a thread-local counter
/// ([`clock_reads`]) — after the read, so the bump never sits inside an
/// interval the stamp closes — which is how the unit tests pin the wake
/// path's read budget; release builds compile to the bare read.
#[inline]
pub fn read_clock(epoch: std::time::Instant) -> Nanos {
    Nanos(read_instant().saturating_duration_since(epoch).as_nanos() as u64)
}

/// [`read_clock`] as the bare `Instant`, counted the same way: for a stamp
/// that must convert exactly onto more than one epoch — a burst's
/// completion, which is a latency sample on the pipeline's clock and the
/// queue's release stamp on the worker set's.
#[inline]
pub fn read_instant() -> std::time::Instant {
    let now = std::time::Instant::now();
    #[cfg(debug_assertions)]
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    now
}

#[cfg(debug_assertions)]
thread_local! {
    static CLOCK_READS: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

/// How many [`read_clock`] calls the current thread has made (debug
/// builds only). Tests take the difference across the code under test.
#[cfg(debug_assertions)]
pub fn clock_reads() -> u64 {
    CLOCK_READS.with(core::cell::Cell::get)
}

/// An amortized monotonic clock for realtime hot paths.
///
/// Reading the OS monotonic clock (`Instant::now()`) costs a vDSO call —
/// tens of nanoseconds — which is the same order as the per-packet budget of
/// a 25+ Mpps pipeline. The realtime components (latency stamping, trace
/// timestamps, pacing backstops) rarely need per-packet precision: one fresh
/// read per *burst* or per scheduler *turn* bounds the staleness by the
/// burst service time (a few µs at worst) while removing the clock read from
/// the per-packet path entirely.
///
/// The contract:
///
/// * [`CoarseClock::tick`] performs one precise read, caches it, and returns
///   it. Call it at batch/turn boundaries.
/// * [`CoarseClock::cached`] returns the last ticked value with **no**
///   clock read. Use it for every timestamp inside the batch.
/// * The cached value is nondecreasing (`Instant` is monotonic and the cache
///   only moves forward), so per-owner timestamp streams stay sorted.
/// * Sleep deadlines must NOT use the cached value: keep the precise
///   [`CoarseClock::epoch`]-anchored path for anything that blocks.
///
/// The type is deliberately `!Sync` (interior `Cell`): each worker, shard,
/// or recorder owns its own instance, so there is no cross-thread cache
/// coherence traffic — the same reason DPDK keeps per-lcore cycle caches.
#[derive(Debug, Clone)]
pub struct CoarseClock {
    epoch: std::time::Instant,
    cached: core::cell::Cell<u64>,
}

impl CoarseClock {
    /// A clock anchored at "now"; the cache starts at zero (the epoch).
    pub fn new() -> Self {
        Self::from_epoch(std::time::Instant::now())
    }

    /// A clock anchored at an existing epoch, so several clocks (or a clock
    /// and a precise-sleep path) share one timeline.
    pub fn from_epoch(epoch: std::time::Instant) -> Self {
        CoarseClock {
            epoch,
            cached: core::cell::Cell::new(0),
        }
    }

    /// Refresh the cache with one precise clock read ([`read_clock`]) and
    /// return it.
    #[inline]
    pub fn tick(&self) -> Nanos {
        // `Instant` is monotone, but the advance guards the cache anyway so
        // `cached()` can never observe a rewind even if the epoch maths
        // ever changes.
        self.advance_to(read_clock(self.epoch))
    }

    /// Move the cache forward to `stamp` — a [`read_clock`] taken elsewhere
    /// on this clock's epoch — with no read of its own, and return the
    /// cache. Monotone like [`tick`](Self::tick): a stamp behind the cache
    /// leaves it where it is.
    #[inline]
    pub fn advance_to(&self, stamp: Nanos) -> Nanos {
        if stamp.as_nanos() > self.cached.get() {
            self.cached.set(stamp.as_nanos());
        }
        Nanos(self.cached.get())
    }

    /// The last [`tick`](Self::tick)ed value — no clock read.
    #[inline]
    pub fn cached(&self) -> Nanos {
        Nanos(self.cached.get())
    }

    /// The precise anchor, for sleep deadlines and cross-clock alignment.
    #[inline]
    pub fn epoch(&self) -> std::time::Instant {
        self.epoch
    }
}

impl Default for CoarseClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of CPU cycles, used by the OS/CPU cost model.
///
/// Cycles convert to time through a core's current frequency, so the same
/// per-packet costs stretch correctly when the `ondemand` governor lowers
/// the clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Construct from a raw count.
    #[inline]
    pub const fn new(c: u64) -> Self {
        Cycles(c)
    }

    /// Duration of this many cycles on a core clocked at `mhz`.
    #[inline]
    pub fn at_mhz(self, mhz: u32) -> Nanos {
        debug_assert!(mhz > 0, "zero frequency");
        // cycles / (mhz * 1e6 Hz) seconds = cycles * 1000 / mhz nanoseconds.
        Nanos(self.0 * 1_000 / mhz as u64)
    }

    /// How many cycles fit in `dur` at `mhz` (rounded down).
    #[inline]
    pub fn from_duration(dur: Nanos, mhz: u32) -> Cycles {
        Cycles(dur.0 * mhz as u64 / 1_000)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(3), Nanos(3_000));
        assert_eq!(Nanos::from_millis(3), Nanos(3_000_000));
        assert_eq!(Nanos::from_secs(3), Nanos(3_000_000_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
        assert_eq!(Nanos::from_micros_f64(2.5), Nanos(2_500));
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::ZERO);
    }

    #[test]
    fn round_trips() {
        let t = Nanos::from_micros(1234);
        assert!((t.as_micros_f64() - 1234.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.001234).abs() < 1e-12);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Nanos(5).saturating_sub(Nanos(10)), Nanos::ZERO);
        assert_eq!(Nanos::MAX.saturating_add(Nanos(1)), Nanos::MAX);
        assert_eq!(Nanos(10).saturating_sub(Nanos(4)), Nanos(6));
    }

    #[test]
    fn scaled_f64_rounds() {
        assert_eq!(Nanos(1000).scaled_f64(1.5), Nanos(1500));
        assert_eq!(Nanos(1000).scaled_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos(1000).scaled_f64(f64::NAN), Nanos::ZERO);
    }

    #[test]
    fn ratio_division() {
        let a = Nanos::from_micros(30);
        let b = Nanos::from_micros(10);
        assert!((a / b - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(999)), "999ns");
        assert_eq!(format!("{}", Nanos::from_micros(10)), "10.000µs");
        assert_eq!(format!("{}", Nanos::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(1)), "1.000s");
    }

    #[test]
    fn cycles_to_time() {
        // 2100 cycles at 2100 MHz is exactly 1 µs.
        assert_eq!(Cycles(2100).at_mhz(2100), Nanos::from_micros(1));
        // 75 cycles at 2100 MHz ≈ 35 ns (the l3fwd per-packet cost).
        assert_eq!(Cycles(75).at_mhz(2100), Nanos(35));
    }

    #[test]
    fn cycles_from_duration_round_trip() {
        let dur = Nanos::from_micros(10);
        let c = Cycles::from_duration(dur, 2100);
        assert_eq!(c, Cycles(21_000));
        assert_eq!(c.at_mhz(2100), dur);
    }

    #[test]
    fn coarse_clock_cached_is_free_and_monotone() {
        let c = CoarseClock::new();
        assert_eq!(c.cached(), Nanos::ZERO, "fresh clock has not ticked");
        let t1 = c.tick();
        assert_eq!(c.cached(), t1, "cached returns the last tick");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(c.cached(), t1, "cached never reads the clock");
        let t2 = c.tick();
        assert!(t2 >= t1, "ticks are nondecreasing");
        assert!(t2 > t1, "2ms later the precise read must have advanced");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn every_tick_is_one_counted_read_and_cached_is_none() {
        let c = CoarseClock::new();
        let before = clock_reads();
        c.tick();
        c.tick();
        assert_eq!(clock_reads() - before, 2);
        c.cached();
        read_clock(c.epoch());
        assert_eq!(clock_reads() - before, 3);
        let at = read_instant();
        assert_eq!(clock_reads() - before, 4, "the bare instant counts too");
        assert!(at >= c.epoch());
    }

    #[test]
    fn advancing_to_a_stamp_reads_nothing_and_never_rewinds() {
        let c = CoarseClock::new();
        let t1 = c.tick();
        #[cfg(debug_assertions)]
        let before = clock_reads();
        let later = t1 + Nanos::from_micros(5);
        assert_eq!(c.advance_to(later), later);
        assert_eq!(c.cached(), later);
        assert_eq!(c.advance_to(t1), later, "a stamp behind the cache");
        assert_eq!(c.cached(), later);
        #[cfg(debug_assertions)]
        assert_eq!(clock_reads(), before, "an advance is not a read");
        assert!(c.tick() >= later, "the next read does not rewind either");
    }

    #[test]
    fn coarse_clock_shares_an_epoch() {
        let epoch = std::time::Instant::now();
        let a = CoarseClock::from_epoch(epoch);
        let b = CoarseClock::from_epoch(epoch);
        let (ta, tb) = (a.tick(), b.tick());
        // Same timeline: two back-to-back ticks land within a generous bound.
        assert!(tb.saturating_sub(ta) < Nanos::from_millis(100));
        assert_eq!(a.epoch(), epoch);
    }

    #[test]
    fn midpoint_no_overflow() {
        assert_eq!(Nanos(2).midpoint(Nanos(4)), Nanos(3));
        assert_eq!(Nanos::MAX.midpoint(Nanos::MAX), Nanos::MAX);
        assert_eq!(Nanos(3).midpoint(Nanos(3)), Nanos(3));
    }
}
