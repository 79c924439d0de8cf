//! Wall-clock pacing of arrival processes for the real-thread pipeline.
//!
//! The simulator *drains* an [`ArrivalProcess`] lazily against virtual
//! time; the realtime load generator must instead *emit* the same arrival
//! schedule against the machine's clock, the way MoonGen's rate control
//! releases paced DMA batches. [`PacedArrivals`] is that adapter: it maps
//! `Instant::now()` onto the process's virtual timeline via a
//! [`WallClock`], sleeps until the next arrival is due through the same
//! [`PreciseSleeper`] the Metronome workers use (the user-space stand-in
//! for `hr_sleep()` — one hybrid-sleep implementation, not two), and
//! hands the caller batches of due arrival timestamps.
//!
//! The schedule is authoritative: a generator that falls behind (slow
//! frame building, scheduler preemption) catches up by emitting the
//! backlog in one batch, so the *offered count over any window* matches
//! the arrival process exactly — only micro-timing degrades, never the
//! rate. This mirrors how hardware generators behave under back-pressure
//! and is what keeps offered-count assertions deterministic in tests.

use crate::arrival::ArrivalProcess;
use metronome_core::realtime::PreciseSleeper;
use metronome_sim::Nanos;
use std::time::{Duration, Instant};

/// Maps wall-clock instants onto a virtual [`Nanos`] timeline anchored at
/// construction time.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Anchor the timeline at the current instant.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Virtual time elapsed since the anchor.
    pub fn now(&self) -> Nanos {
        Nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// The wall-clock instant virtual time zero maps to. Lets derived
    /// clocks (e.g. a `CoarseClock` amortizing hot-path reads) share this
    /// timeline exactly.
    pub fn anchor(&self) -> Instant {
        self.start
    }

    /// Sleep until virtual time `t` through `sleeper` (the same hybrid
    /// OS-sleep + spin-tail primitive the Metronome workers use — see
    /// DESIGN.md's `hr_sleep` substitution). Returns immediately if `t`
    /// has already passed.
    pub fn sleep_until(&self, t: Nanos, sleeper: &PreciseSleeper) {
        let deadline = self.start + Duration::from_nanos(t.as_nanos());
        if let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
            sleeper.sleep(remaining);
        }
    }
}

/// Drives an [`ArrivalProcess`] in real time, yielding batches of due
/// arrivals.
pub struct PacedArrivals {
    clock: WallClock,
    source: Box<dyn ArrivalProcess>,
    horizon: Nanos,
    sleeper: PreciseSleeper,
    buf: Vec<Nanos>,
    /// Read position into `buf` (chunked hand-out of a catch-up backlog).
    cursor: usize,
    /// Largest batch `next_batch` hands out (0 = unlimited).
    max_batch: usize,
    /// Longest the pacer waits before draining the source again.
    poll: Option<Nanos>,
}

impl PacedArrivals {
    /// Pace `source` from now until `horizon` of virtual time. The clock
    /// starts immediately.
    pub fn new(source: Box<dyn ArrivalProcess>, horizon: Nanos) -> Self {
        Self::with_clock(source, horizon, WallClock::start())
    }

    /// Pace `source` against an existing `clock` instead of anchoring a
    /// fresh one. This is how sharded generation keeps `G` concurrent
    /// pacers on one timeline: every shard shares the run's clock
    /// (`WallClock` is `Copy`), so their interleaved arrival timestamps
    /// are mutually comparable and the latency/jitter measurements all
    /// reference the same zero.
    pub fn with_clock(source: Box<dyn ArrivalProcess>, horizon: Nanos, clock: WallClock) -> Self {
        PacedArrivals {
            clock,
            source,
            horizon,
            sleeper: PreciseSleeper,
            buf: Vec::new(),
            cursor: 0,
            max_batch: 0,
            poll: None,
        }
    }

    /// Bound the size of the batches [`PacedArrivals::next_batch`] hands
    /// out. A generator that fell behind catches up by emitting its whole
    /// backlog; with a cap the backlog arrives as consecutive chunks of at
    /// most `n` arrivals instead of one unbounded slice — which is what a
    /// consumer allocating mbufs burst-by-burst from a *finite* pool
    /// needs: the chunk size bounds how many pool buffers one batch can
    /// demand before any can be recycled. `0` removes the cap.
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Never wait longer than `period` before draining the source again,
    /// for a source whose schedule can change under it (a live rate, a
    /// stop flag). While the next arrival is more than a period away the
    /// pacer naps with a plain OS sleep — nobody is waiting on that wake,
    /// so it pays no spin tail — for up to one period, always keeping one
    /// period in hand to absorb the nap's overshoot; that last stretch
    /// before an arrival is slept precisely as always.
    pub fn with_poll(mut self, period: Nanos) -> Self {
        self.poll = Some(period);
        self
    }

    /// Block until at least one arrival is due, then return the batch of
    /// arrival timestamps with `t ≤ now` (all before the horizon), at
    /// most `max_batch` long if a cap is set. `None` once the horizon has
    /// passed or the source is exhausted.
    pub fn next_batch(&mut self) -> Option<&[Nanos]> {
        loop {
            // Hand out the rest of an already-drained backlog first.
            if self.cursor < self.buf.len() {
                let end = match self.max_batch {
                    0 => self.buf.len(),
                    cap => (self.cursor + cap).min(self.buf.len()),
                };
                let chunk = &self.buf[self.cursor..end];
                self.cursor = end;
                return Some(chunk);
            }
            let now = self.clock.now();
            let cut = now.min(self.horizon.saturating_sub(Nanos(1)));
            self.buf.clear();
            self.cursor = 0;
            let n = self.source.drain(cut, Some(&mut self.buf));
            if n > 0 {
                continue; // serve from the freshly drained buffer
            }
            if now >= self.horizon {
                return None;
            }
            let t = self.source.peek_next().filter(|&t| t < self.horizon)?;
            match self.poll {
                Some(period) if t.saturating_sub(now) > period => {
                    let nap = period.min(t - now - period);
                    std::thread::sleep(Duration::from_nanos(nap.as_nanos()))
                }
                _ => self.clock.sleep_until(t, &self.sleeper),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{Cbr, OnOff, Silent};

    #[test]
    fn wall_clock_is_monotone_and_sleeps_to_deadline() {
        let clock = WallClock::start();
        let sleeper = PreciseSleeper;
        let a = clock.now();
        clock.sleep_until(a + Nanos::from_micros(300), &sleeper);
        let b = clock.now();
        assert!(b >= a + Nanos::from_micros(300), "woke early: {a} -> {b}");
        // Sleeping until a past deadline returns immediately.
        clock.sleep_until(Nanos::ZERO, &sleeper);
    }

    #[test]
    fn paced_cbr_emits_the_exact_schedule() {
        // 100 kpps for 20 ms of virtual time = 2000 arrivals; the count is
        // schedule-exact no matter how the wall clock slices the run.
        let horizon = Nanos::from_millis(20);
        let mut paced = PacedArrivals::new(Box::new(Cbr::new(100_000.0, Nanos::ZERO)), horizon);
        let mut total = 0u64;
        let mut last = Nanos::ZERO;
        while let Some(batch) = paced.next_batch() {
            for &t in batch {
                assert!(t >= last, "timestamps must be ordered");
                assert!(t < horizon, "arrival past the horizon");
                last = t;
            }
            total += batch.len() as u64;
        }
        assert_eq!(total, 2000);
    }

    #[test]
    fn capped_batches_preserve_schedule_and_order() {
        // Same CBR run as above, but handed out in chunks of ≤ 32: the
        // total and the ordering must be unchanged, every chunk bounded.
        let horizon = Nanos::from_millis(20);
        let mut paced = PacedArrivals::new(Box::new(Cbr::new(100_000.0, Nanos::ZERO)), horizon)
            .with_max_batch(32);
        let mut total = 0u64;
        let mut last = Nanos::ZERO;
        while let Some(batch) = paced.next_batch() {
            assert!(!batch.is_empty());
            assert!(batch.len() <= 32, "cap violated: {}", batch.len());
            for &t in batch {
                assert!(t >= last, "timestamps must stay ordered across chunks");
                last = t;
            }
            total += batch.len() as u64;
        }
        assert_eq!(total, 2000);
    }

    #[test]
    fn paced_run_tracks_wall_time() {
        let t0 = Instant::now();
        let mut paced = PacedArrivals::new(
            Box::new(Cbr::new(50_000.0, Nanos::ZERO)),
            Nanos::from_millis(10),
        );
        while paced.next_batch().is_some() {}
        let wall = t0.elapsed();
        assert!(wall >= Duration::from_millis(9), "finished early: {wall:?}");
        // Generous bound: shared/1-core CI machines stall, but a paced
        // 10 ms run must not take seconds.
        assert!(wall < Duration::from_secs(2), "pacing stalled: {wall:?}");
    }

    #[test]
    fn sharded_pacers_share_one_timeline() {
        // Two pacers on one clock (the sharded-generation shape): each
        // emits its own slice's exact schedule against the shared zero.
        let clock = WallClock::start();
        let horizon = Nanos::from_millis(10);
        let mk = |offset_ns: u64| {
            PacedArrivals::with_clock(
                Box::new(Cbr::new(100_000.0, Nanos(offset_ns))),
                horizon,
                clock,
            )
        };
        let (mut a, mut b) = (mk(0), mk(5_000));
        let (mut na, mut nb) = (0u64, 0u64);
        while let Some(batch) = a.next_batch() {
            na += batch.len() as u64;
        }
        while let Some(batch) = b.next_batch() {
            nb += batch.len() as u64;
        }
        assert_eq!(na, 1000);
        assert_eq!(nb, 1000);
    }

    #[test]
    fn polled_pacer_naps_up_to_an_arrival_and_sees_the_source_end() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        // A live source: one arrival 20 ms out, then nothing in sight
        // until the stop flag ends it.
        struct Live {
            next: Option<Nanos>,
            stop: Arc<AtomicBool>,
            drains: Arc<AtomicU64>,
        }
        impl ArrivalProcess for Live {
            fn drain(&mut self, until: Nanos, out: Option<&mut Vec<Nanos>>) -> u64 {
                self.drains.fetch_add(1, Ordering::Relaxed);
                match self.next.filter(|&t| t <= until) {
                    Some(t) => {
                        out.into_iter().for_each(|o| o.push(t));
                        self.next = None;
                        1
                    }
                    None => 0,
                }
            }
            fn peek_next(&mut self) -> Option<Nanos> {
                (!self.stop.load(Ordering::Acquire))
                    .then(|| self.next.unwrap_or(Nanos(u64::MAX - 1)))
            }
            fn rate_pps(&self, _: Nanos) -> f64 {
                0.0
            }
        }
        let (stop, drains) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicU64::new(0)),
        );
        let due = Nanos::from_millis(20);
        let live = Live {
            next: Some(due),
            stop: Arc::clone(&stop),
            drains: Arc::clone(&drains),
        };
        let clock = WallClock::start();
        let mut paced = PacedArrivals::with_clock(Box::new(live), Nanos(u64::MAX), clock)
            .with_poll(Nanos::from_micros(500));
        // The arrival is released at its instant, never early, after
        // some 35 naps (fewer on a loaded host) rather than one long sleep
        // or a busy loop.
        assert_eq!(paced.next_batch(), Some(&[due][..]));
        assert!(clock.now() >= due, "released early");
        let polls = drains.load(Ordering::Relaxed);
        assert!((3..=120).contains(&polls), "{polls} drains in 20 ms");
        // Nothing in sight: the pacer keeps polling, and ends once the
        // flag goes up (generous bound: a loaded host preempts).
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Release);
            Instant::now()
        });
        assert!(paced.next_batch().is_none());
        let seen_after = stopper.join().unwrap().elapsed();
        assert!(seen_after < Duration::from_secs(2), "{seen_after:?}");
        assert!(
            drains.load(Ordering::Relaxed) > polls + 2,
            "stopped polling"
        );
    }

    #[test]
    fn silent_source_ends_immediately() {
        let mut paced = PacedArrivals::new(Box::new(Silent), Nanos::from_secs(1000));
        assert!(paced.next_batch().is_none());
    }

    #[test]
    fn onoff_source_is_bounded_by_horizon() {
        // An OnOff source always has a next arrival; the horizon must
        // still terminate the pacer during an off-period.
        let mut paced = PacedArrivals::new(
            Box::new(OnOff::new(
                1e6,
                Nanos::from_millis(2),
                Nanos::from_secs(3600),
            )),
            Nanos::from_millis(5),
        );
        let mut total = 0u64;
        while let Some(batch) = paced.next_batch() {
            total += batch.len() as u64;
        }
        assert!((total as i64 - 2000).unsigned_abs() <= 2, "{total}");
    }
}
