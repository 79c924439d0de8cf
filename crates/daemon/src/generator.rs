//! The service's producer side: MoonGen's role as a long-running
//! process. Each shard's source is a [`LiveRate`], which the pipeline
//! assembles into a producer shard exactly as it does the scenario
//! runner's (`metronome_runtime::pipeline::Pipeline::producer`: behind
//! the plan's arrival-side injector, paced, into the one ingest core);
//! the service adds the [`GEN_TICK`] poll.

use metronome_runtime::ingest::GEN_BATCH;
use metronome_sim::Nanos;
use metronome_traffic::ArrivalProcess;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How long a shard with nothing due naps before re-reading the live
/// rate and the stop flag (the pacer's poll period): a stop or a rate
/// change reaches every shard within one tick, even at rate 0 — where
/// the shard costs one OS sleep a tick.
pub(crate) const GEN_TICK: Nanos = Nanos::from_micros(500);

/// What [`LiveRate::peek_next`] reports while the rate is zero: nothing
/// in sight, yet not exhausted — the pacer's poll brings it back.
const NEVER: Nanos = Nanos(u64::MAX - 1);

/// What the producer threads share with the engine, for the whole run:
/// the live-reconfigurable rate, and the stop flag that retires one
/// generation of threads (raised, joined, lowered again before the next
/// generation spawns — a `gen_shards` reconfigure, or the drain).
pub(crate) struct GenShared {
    pub(crate) stop: AtomicBool,
    /// Offered rate as `f64` bits — reconfiguring the rate is one store.
    pub(crate) rate_bits: AtomicU64,
}

impl GenShared {
    pub(crate) fn new(rate_pps: f64) -> Arc<GenShared> {
        Arc::new(GenShared {
            stop: AtomicBool::new(false),
            rate_bits: AtomicU64::new(rate_pps.to_bits()),
        })
    }

    /// The aggregate offered rate, packets per second.
    pub(crate) fn rate_pps(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// One shard's share of a rate that can change while it runs: the
/// arrival after `t` is scheduled `1 / rate` later, with `rate` the live
/// aggregate rate ÷ shards, read per poll. It owes no backlog: a rate
/// change re-spaces from the last poll point, and a shard that cannot
/// keep up is handed at most [`GEN_BATCH`] arrivals a poll and sheds the
/// rest (a service must not build debt — the stop flag would sit behind
/// it). It never runs dry until the stop flag is up.
pub(crate) struct LiveRate {
    shared: Arc<GenShared>,
    n_shards: f64,
    /// The rate `next` was scheduled at.
    rate: f64,
    /// The next scheduled arrival (`None` while the rate is zero).
    next: Option<Nanos>,
    /// The last instant the pacer drained to.
    polled: Nanos,
}

impl LiveRate {
    /// One of `n_shards` shards' sources, starting at `start` on the
    /// run's clock.
    pub(crate) fn new(shared: Arc<GenShared>, n_shards: usize, start: Nanos) -> LiveRate {
        LiveRate {
            shared,
            n_shards: n_shards as f64,
            rate: 0.0,
            next: None,
            polled: start,
        }
    }

    fn schedule(&mut self, from: Nanos, rate: f64) {
        self.rate = rate;
        // At least 1 ns apart: an absurd rate still advances the schedule.
        let gap = ((1e9 / rate).round() as u64).max(1);
        self.next = (rate > 0.0).then(|| Nanos(from.as_nanos().saturating_add(gap)));
    }
}

impl ArrivalProcess for LiveRate {
    fn drain(&mut self, until: Nanos, mut timestamps: Option<&mut Vec<Nanos>>) -> u64 {
        if self.shared.stopped() {
            return 0;
        }
        // A reconfigure since `next` was scheduled: re-space from the
        // previous poll point.
        let live = self.rate_pps(until);
        if live != self.rate {
            self.schedule(self.polled, live);
        }
        let mut kept = 0;
        for _ in 0..GEN_BATCH {
            let Some(t) = self.next.filter(|&t| t <= until) else {
                break;
            };
            kept += 1;
            if let Some(out) = timestamps.as_deref_mut() {
                out.push(t);
            }
            self.schedule(t, self.rate);
        }
        // Still due after a full batch: the offered rate is beyond what
        // this shard emits. Shed the remainder, re-space from now.
        if self.next.is_some_and(|t| t <= until) {
            self.schedule(until, self.rate);
        }
        self.polled = self.polled.max(until);
        kept
    }

    fn peek_next(&mut self) -> Option<Nanos> {
        if self.shared.stopped() {
            return None;
        }
        Some(self.next.unwrap_or(NEVER))
    }

    fn rate_pps(&self, _t: Nanos) -> f64 {
        self.shared.rate_pps().max(0.0) / self.n_shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_sim::Rng;
    use metronome_traffic::{FaultKind, FaultPlan, PlannedFaults};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn source(rate: f64, n_shards: usize) -> (Arc<GenShared>, LiveRate) {
        let shared = GenShared::new(rate);
        let live = LiveRate::new(Arc::clone(&shared), n_shards, Nanos::ZERO);
        (shared, live)
    }

    /// Drive the source the way a `PacedArrivals` polling every
    /// `GEN_TICK` does — drain to "now", peek, jump to the peeked instant
    /// or nap towards it — from `from` until `to`.
    fn pace(live: &mut LiveRate, from: Nanos, to: Nanos) -> Vec<Nanos> {
        let mut out = Vec::new();
        let mut now = from;
        while now < to {
            live.drain(now, Some(&mut out));
            let t = live.peek_next().expect("running source never ends");
            now = match t - now {
                gap if gap > GEN_TICK => now + GEN_TICK.min(gap - GEN_TICK),
                _ => t,
            };
        }
        out
    }

    #[test]
    fn steady_rate_is_evenly_spaced_and_split_across_shards() {
        let (_s, mut live) = source(40_000.0, 2);
        let ts = pace(&mut live, Nanos::ZERO, ms(100));
        // 20 kpps per shard: 50 µs apart, 2000 in 100 ms.
        assert!((ts.len() as i64 - 2000).abs() <= 1, "{}", ts.len());
        assert!(ts.windows(2).all(|w| w[1] - w[0] == Nanos(50_000)));
    }

    #[test]
    fn slow_rates_keep_their_schedule_across_poll_points() {
        // 100 pps: 10 ms gaps, 20 poll points between arrivals.
        let (_s, mut live) = source(100.0, 1);
        let ts = pace(&mut live, Nanos::ZERO, ms(100));
        assert_eq!(ts, (1..10).map(|k| ms(10 * k)).collect::<Vec<_>>());
    }

    #[test]
    fn rate_change_is_seen_within_a_tick_and_owes_no_backlog() {
        let (shared, mut live) = source(0.0, 1);
        // Rate 0: nothing due, yet the source keeps asking to be polled.
        assert!(pace(&mut live, Nanos::ZERO, ms(50)).is_empty());
        assert_eq!(live.peek_next(), Some(NEVER));
        // Raise the rate at t = 50 ms: the first arrival lands one gap
        // after the last poll point, not 50 ms worth of backlog.
        shared
            .rate_bits
            .store(40_000f64.to_bits(), Ordering::Relaxed);
        let from = live.polled + GEN_TICK;
        let ts = pace(&mut live, from, from + ms(10));
        assert!(ts[0] >= from - GEN_TICK && ts[0] <= from + Nanos(25_000));
        assert!((ts.len() as i64 - 400).abs() <= 25, "{}", ts.len());
        // Back to zero: dry within a tick.
        shared.rate_bits.store(0f64.to_bits(), Ordering::Relaxed);
        let from = live.polled + GEN_TICK;
        assert!(pace(&mut live, from, from + ms(10)).len() <= 1);
    }

    #[test]
    fn an_absurd_rate_is_shed_not_owed() {
        // 1e12 pps: a poll 10 ms on is handed one batch; the other 1e10
        // arrivals are shed and the schedule restarts at the poll point.
        let (_s, mut live) = source(1e12, 1);
        let mut out = Vec::new();
        assert_eq!(live.drain(ms(10), Some(&mut out)), GEN_BATCH as u64);
        assert_eq!(out.len(), GEN_BATCH);
        assert_eq!(live.peek_next(), Some(ms(10) + Nanos(1)));
        // Certain loss in front of it (the injector every shard's source
        // runs behind) thins without emitting, bounded the same way: one
        // batch a drain.
        let lossy = FaultPlan::new().with(
            Nanos::ZERO,
            ms(100),
            FaultKind::JitterBurst {
                jitter: Nanos::ZERO,
                drop_prob: 1.0,
            },
        );
        let (_s, live) = source(1e12, 1);
        let mut faulty = PlannedFaults::new(live, lossy, Rng::new(1));
        assert_eq!(faulty.drain(ms(10), None), 0);
        assert_eq!(faulty.stats().drops(), GEN_BATCH as u64);
        assert_eq!(faulty.drain(ms(20), None), 0);
        assert_eq!(faulty.stats().drops(), 2 * GEN_BATCH as u64);
    }

    #[test]
    fn stop_ends_the_source() {
        let (shared, mut live) = source(40_000.0, 1);
        assert!(live.peek_next().is_some());
        shared.stop.store(true, Ordering::Release);
        assert_eq!(live.drain(ms(10), None), 0);
        assert_eq!(live.peek_next(), None);
    }
}
