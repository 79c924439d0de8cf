//! Property tests of the `MetronomeEngine` protocol against arbitrary
//! scripted backends: invariants that must hold for *any* schedule of
//! lock contention, queue occupancy, and renewal-cycle observations — not
//! just the benign schedules the integration tests produce.
//!
//! The invariants mirror what the realtime runtime relies on:
//!
//! 1. **TS clamp** — every adaptive timeout the controller hands out
//!    stays within `[V̄, (M/N)·V̄]`, whatever ρ observations it was fed.
//! 2. **Win → exactly one drain + release** — a won race is followed by
//!    at least one `rx_burst` and exactly one `release` before the next
//!    sleep; bursts and releases never happen without holding the lock.
//! 3. **Stop safety** — at every `Sleep`/`Wait` boundary (the only points
//!    where a realtime worker may observe its stop flag and exit) the
//!    engine holds no lock and has no half-recorded turn, so a stopping
//!    worker can never strand a trylock.

use metronome_repro::core::config::MetronomeConfig;
use metronome_repro::core::controller::AdaptiveController;
use metronome_repro::core::discipline::{RetrievalDiscipline, Verdict};
use metronome_repro::core::engine::{Backend, MetronomeEngine};
use metronome_repro::sim::Nanos;
use metronome_repro::telemetry::NullSink;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A backend whose every response is drawn from proptest-generated
/// scripts, wrapping the real `AdaptiveController` and asserting the
/// lock-discipline invariants inline.
struct ScriptedBackend {
    ctrl: AdaptiveController,
    /// The queue the engine currently holds, if any.
    held: Option<usize>,
    /// Per `try_acquire` call: does an (imaginary) rival hold the lock?
    contention: VecDeque<bool>,
    /// Per `rx_burst` call: packets available.
    avail: VecDeque<u64>,
    /// Per `release` call: the (vacation µs, busy µs) observation fed to
    /// the controller.
    cycles: VecDeque<(u64, u64)>,
    draw_state: u64,
    acquires: u64,
    releases: u64,
    bursts_since_acquire: u64,
    /// Every TS the controller handed out through `release`/`ts`.
    ts_seen: Vec<Nanos>,
}

impl ScriptedBackend {
    fn new(
        cfg: MetronomeConfig,
        contention: Vec<bool>,
        avail: Vec<u64>,
        cycles: Vec<(u64, u64)>,
    ) -> Self {
        ScriptedBackend {
            ctrl: AdaptiveController::new(cfg),
            held: None,
            contention: contention.into(),
            avail: avail.into(),
            cycles: cycles.into(),
            draw_state: 0x5EED,
            acquires: 0,
            releases: 0,
            bursts_since_acquire: 0,
            ts_seen: Vec::new(),
        }
    }
}

impl Backend for ScriptedBackend {
    fn n_queues(&self) -> usize {
        self.ctrl.n_queues()
    }

    fn draw(&mut self) -> u64 {
        self.draw_state = self
            .draw_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        self.draw_state >> 11
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        assert!(
            self.held.is_none(),
            "engine raced for a lock while already holding one"
        );
        if self.contention.pop_front().unwrap_or(false) {
            self.ctrl.record_busy_try(q);
            false
        } else {
            self.held = Some(q);
            self.acquires += 1;
            self.bursts_since_acquire = 0;
            true
        }
    }

    fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
        assert_eq!(self.held, Some(q), "rx_burst without holding the lock");
        self.bursts_since_acquire += 1;
        self.avail.pop_front().unwrap_or(0).min(burst as u64)
    }

    fn release(&mut self, q: usize) -> Nanos {
        assert_eq!(self.held, Some(q), "release without holding the lock");
        assert!(
            self.bursts_since_acquire >= 1,
            "a won race must drain at least one burst before releasing"
        );
        self.held = None;
        self.releases += 1;
        let (vac, busy) = self.cycles.pop_front().unwrap_or((10, 10));
        self.ctrl.record_acquired(q);
        self.ctrl
            .record_cycle(q, Nanos::from_micros(vac), Nanos::from_micros(busy));
        let ts = self.ctrl.ts(q);
        self.ts_seen.push(ts);
        ts
    }

    fn ts(&self, q: usize) -> Nanos {
        self.ctrl.ts(q)
    }

    fn tl(&self) -> Nanos {
        self.ctrl.tl()
    }
}

proptest! {
    #[test]
    fn engine_invariants_hold_on_any_schedule(
        n_queues in 1usize..=3,
        extra_threads in 0usize..=3,
        contention in prop::collection::vec(any::<bool>(), 1..160),
        avail in prop::collection::vec(0u64..80, 1..160),
        cycles in prop::collection::vec((0u64..400, 0u64..400), 1..80),
    ) {
        let cfg = MetronomeConfig {
            m_threads: n_queues + extra_threads,
            n_queues,
            ..MetronomeConfig::default()
        };
        cfg.validate().unwrap();
        let tl = cfg.t_long;
        // TS bounds: eq. (13)/(14) clamp to [V̄, (M/N)·V̄]; ±1 ns covers
        // the controller's integer-nanosecond rounding.
        let ts_min = cfg.v_target.saturating_sub(Nanos(1));
        let ts_max = cfg
            .v_target
            .scaled_f64(cfg.m_threads as f64 / cfg.n_queues as f64)
            + Nanos(1);

        let mut b = ScriptedBackend::new(cfg, contention, avail, cycles);
        let mut engine = MetronomeEngine::new(0, 32);

        // Boundary invariants (plain asserts so the check can live in a
        // closure): stop safety — a worker exits only at sleep boundaries,
        // where it must hold no lock and have a fully recorded turn — and
        // sleep-duration discipline.
        let check_boundary = |b: &ScriptedBackend, dur: Option<Nanos>| {
            assert!(b.held.is_none(), "sleeping while holding a lock");
            assert_eq!(
                b.acquires, b.releases,
                "a won race was not followed by exactly one release"
            );
            if let Some(dur) = dur {
                // A sleep is either the fixed TL (lost race) or a clamped
                // adaptive TS (won race).
                assert!(
                    dur == tl || (dur >= ts_min && dur <= ts_max),
                    "sleep {dur} is neither TL nor a clamped TS"
                );
            }
        };

        for _ in 0..600 {
            match engine.turn(&mut b, &NullSink) {
                Verdict::Sleep(dur) => check_boundary(&b, Some(dur)),
                Verdict::Wait(_) => check_boundary(&b, None),
                Verdict::Continue => {}
                other => panic!("the engine never yields or parks: {other:?}"),
            }
        }
        // Drive the current turn to its boundary so nothing is half done.
        let mut settled = false;
        for _ in 0..10_000 {
            if matches!(engine.turn(&mut b, &NullSink), Verdict::Sleep(_)) {
                settled = true;
                break;
            }
        }
        prop_assert!(settled, "engine failed to reach a sleep boundary");
        check_boundary(&b, None);

        // Accounting parity between the engine's policy and the backend.
        prop_assert_eq!(engine.policy().races_won, b.acquires);
        prop_assert_eq!(b.acquires, b.releases);

        // TS clamp over everything the controller handed out, plus the
        // final per-queue values.
        for q in 0..b.ctrl.n_queues() {
            b.ts_seen.push(b.ctrl.ts(q));
        }
        for &ts in &b.ts_seen {
            prop_assert!(
                ts >= ts_min && ts <= ts_max,
                "TS {ts} escaped [{ts_min}, {ts_max}]"
            );
        }
    }
}
