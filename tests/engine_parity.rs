//! Sim-vs-realtime discipline parity.
//!
//! Each retrieval discipline that runs on both backends — the Listing 2
//! `MetronomeEngine`, `BusyPoll` and `ConstSleep` — is one state machine,
//! so it must behave identically whether its `Backend` is the
//! discrete-event world or the real-thread substrate. These tests drive
//! both backends single-threaded under one deterministic schedule —
//! identical turn interleaving, identical arrivals, identical entropy —
//! and assert identical verdict kinds, identical drained counts, identical
//! per-thread policy statistics and, for Metronome, identical controller
//! try accounting.
//!
//! Durations legitimately differ between the backends (virtual nanoseconds
//! vs wall-clock instants feed the estimator), so ρ/TS values are *not*
//! compared; everything schedule-determined must match exactly.

use crossbeam::queue::ArrayQueue;
use metronome_repro::core::config::MetronomeConfig;
use metronome_repro::core::controller::AdaptiveController;
use metronome_repro::core::discipline::{DisciplineSpec, RetrievalDiscipline, Verdict};
use metronome_repro::core::engine::{Backend, MetronomeEngine};
use metronome_repro::core::realtime::RealtimeHarness;
use metronome_repro::core::{Role, ThreadPolicy};
use metronome_repro::runtime::{AppProfile, SimQueue, World, WorldBackend};
use metronome_repro::sim::{Nanos, Rng};
use metronome_repro::telemetry::NullSink;
use metronome_repro::traffic::Cbr;
use std::mem::discriminant;
use std::sync::Arc;

/// Wraps any backend, overriding only its entropy source, so a simulated
/// and a realtime backend driven in lockstep draw the same backup-queue
/// picks.
struct FixedEntropy<'a, B> {
    inner: B,
    draws: &'a mut Rng,
}

impl<B: Backend> Backend for FixedEntropy<'_, B> {
    fn n_queues(&self) -> usize {
        self.inner.n_queues()
    }

    fn draw(&mut self) -> u64 {
        self.draws.next_u64()
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        self.inner.try_acquire(q)
    }

    fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
        self.inner.rx_burst(q, burst)
    }

    fn release(&mut self, q: usize) -> Nanos {
        self.inner.release(q)
    }

    fn before_contend(&mut self, q: usize) {
        self.inner.before_contend(q)
    }

    fn ts(&self, q: usize) -> Nanos {
        self.inner.ts(q)
    }

    fn tl(&self) -> Nanos {
        self.inner.tl()
    }

    fn equal_timeouts(&self) -> bool {
        self.inner.equal_timeouts()
    }

    fn stagger(&mut self) -> Nanos {
        self.inner.stagger()
    }
}

const M_THREADS: usize = 3;
const N_QUEUES: usize = 2;
// One arrival per 10 µs per queue: slow enough relative to the 1 µs
// lockstep tick that drains complete and primaries release (a tick
// executes one turn, so a rate of one packet per tick would keep the
// drain loop saturated forever).
const PPS_PER_QUEUE: u64 = 100_000;
const STEPS: u64 = 20_000; // 20 ms of 1 µs lockstep ticks
const CAPACITY: usize = 4096; // largest valid ring; nothing tail-drops at these rates

/// A simulated world of `N_QUEUES` CBR queues, one arrival per 10 µs each.
fn sim_world(cfg: &MetronomeConfig) -> World {
    let queues: Vec<SimQueue> = (0..N_QUEUES)
        .map(|_| {
            SimQueue::new(
                CAPACITY,
                Box::new(Cbr::new(PPS_PER_QUEUE as f64, Nanos::ZERO)),
                0,
            )
        })
        .collect();
    World::new(
        queues,
        AdaptiveController::new(cfg.clone()),
        Nanos::ZERO,
        0xDE7,
    )
}

/// Push into the realtime queues what the sim's CBR sources have emitted
/// by tick `tick` (µs): arrivals at k·10 µs, so `tick / 10 + 1` packets.
fn mirror_arrivals(tick: u64, rt_queues: &[Arc<ArrayQueue<u64>>], mirrored: &mut [u64]) {
    let due = tick / 10 + 1;
    for (q, rt_queue) in rt_queues.iter().enumerate() {
        while mirrored[q] < due {
            rt_queue
                .push(mirrored[q])
                .expect("mirror queue must not overflow");
            mirrored[q] += 1;
        }
    }
}

/// Every schedule-determined counter of two threads' policies matches.
fn assert_same_policy(who: &str, s: &ThreadPolicy, r: &ThreadPolicy) {
    assert_eq!(s.wakes, r.wakes, "{who} wakes diverged");
    assert_eq!(s.races_won, r.races_won, "{who} wins diverged");
    assert_eq!(s.races_lost, r.races_lost, "{who} losses diverged");
    assert_eq!(s.empty_polls, r.empty_polls, "{who} empty polls diverged");
    assert_eq!(
        s.role_transitions, r.role_transitions,
        "{who} role transitions diverged"
    );
    assert_eq!(s.role(), r.role(), "{who} final role diverged");
    assert_eq!(
        s.queue_to_contend(),
        r.queue_to_contend(),
        "{who} next queue diverged"
    );
}

#[test]
fn sim_and_realtime_backends_agree_on_policy_statistics() {
    let cfg = MetronomeConfig {
        m_threads: M_THREADS,
        n_queues: N_QUEUES,
        ..MetronomeConfig::default()
    };

    // --- sim side: the discrete-event world ------------------------------
    let mut world = sim_world(&cfg);
    let mut sim_rng = Rng::new(0x51A7);
    let app = AppProfile::l3fwd();

    // --- realtime side: trylocks + ArrayQueues, no threads ---------------
    let rt_queues: Vec<Arc<ArrayQueue<u64>>> = (0..N_QUEUES)
        .map(|_| Arc::new(ArrayQueue::new(CAPACITY)))
        .collect();
    let harness = RealtimeHarness::new(cfg.clone(), rt_queues.clone(), |_q, _b: &mut Vec<u64>| {});
    let mut rt_backends: Vec<_> = (0..M_THREADS).map(|_| harness.backend()).collect();

    // --- identical engines, identical entropy streams --------------------
    let mut sim_engines: Vec<_> = (0..M_THREADS)
        .map(|i| MetronomeEngine::new(i % N_QUEUES, cfg.burst))
        .collect();
    let mut rt_engines: Vec<_> = (0..M_THREADS)
        .map(|i| MetronomeEngine::new(i % N_QUEUES, cfg.burst))
        .collect();
    let mut sim_draws = Rng::new(0xE417_0911);
    let mut rt_draws = Rng::new(0xE417_0911);

    // --- one deterministic schedule: lockstep round-robin ----------------
    // Each tick advances virtual time 1 µs, mirrors the sim's CBR arrivals
    // into the realtime ArrayQueues, then gives every engine exactly one
    // turn on each backend. Sleep/work durations are schedule-irrelevant:
    // both sides progress phase by phase in the same interleaving.
    let mut mirrored = [0u64; N_QUEUES];
    for tick in 1..=STEPS {
        let now = Nanos::from_micros(tick);
        mirror_arrivals(tick, &rt_queues, &mut mirrored);
        for i in 0..M_THREADS {
            let sim = sim_engines[i].turn(
                &mut FixedEntropy {
                    inner: WorldBackend::new(&mut world, &mut sim_rng, now, i, app),
                    draws: &mut sim_draws,
                },
                &NullSink,
            );
            let rt = rt_engines[i].turn(
                &mut FixedEntropy {
                    inner: &mut rt_backends[i],
                    draws: &mut rt_draws,
                },
                &NullSink,
            );
            assert_eq!(
                discriminant(&sim),
                discriminant(&rt),
                "engine {i} verdict kind diverged at tick {tick}"
            );
        }
    }

    // Drive every engine to its next turn boundary (a Sleep verdict) so no
    // turn is left half-recorded: the realtime backend records an
    // acquisition at release time (the turn's bookkeeping, past the stamp
    // that ends its busy period), the sim world at acquire time — at a
    // boundary both have the full turn on the books. Virtual time stays
    // at the final tick, so no new arrivals appear on either side.
    let now = Nanos::from_micros(STEPS);
    for i in 0..M_THREADS {
        loop {
            let sim = sim_engines[i].turn(
                &mut FixedEntropy {
                    inner: WorldBackend::new(&mut world, &mut sim_rng, now, i, app),
                    draws: &mut sim_draws,
                },
                &NullSink,
            );
            let rt = rt_engines[i].turn(
                &mut FixedEntropy {
                    inner: &mut rt_backends[i],
                    draws: &mut rt_draws,
                },
                &NullSink,
            );
            assert_eq!(
                discriminant(&sim),
                discriminant(&rt),
                "engine {i} verdict kind diverged while settling"
            );
            if matches!(sim, Verdict::Sleep(_)) {
                break;
            }
        }
    }

    // --- the schedule must actually have exercised the protocol ----------
    let total_lost: u64 = sim_engines.iter().map(|e| e.policy().races_lost).sum();
    let total_won: u64 = sim_engines.iter().map(|e| e.policy().races_won).sum();
    assert!(
        total_won > 100,
        "schedule produced too few wins: {total_won}"
    );
    assert!(total_lost > 0, "schedule never exercised a lost race");
    assert!(
        sim_engines
            .iter()
            .any(|e| e.policy().role() == Role::Primary),
        "somebody must end primary"
    );

    // --- per-engine policy parity ----------------------------------------
    for (i, (sim, rt)) in sim_engines.iter().zip(&rt_engines).enumerate() {
        assert_same_policy(&format!("engine {i}"), sim.policy(), rt.policy());
    }

    // --- controller try-accounting parity --------------------------------
    for q in 0..N_QUEUES {
        assert_eq!(
            world.controller.queue(q).total_tries,
            harness.total_tries(q),
            "queue {q} acquisitions diverged"
        );
        assert_eq!(
            world.controller.queue(q).busy_tries,
            harness.busy_tries(q),
            "queue {q} busy tries diverged"
        );
    }

    // --- both sides drained the same traffic ------------------------------
    for q in 0..N_QUEUES {
        assert_eq!(
            world.queues[q].drained_total(),
            harness.processed(q),
            "queue {q} drained counts diverged"
        );
    }
}

/// The equal-timeout ablation flows through the shared engine on the sim
/// backend: with the flag set, a loser's next sleep is TS, not TL.
#[test]
fn equal_timeout_flag_reaches_engine_through_world_backend() {
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: 1,
        ..MetronomeConfig::default()
    };
    let q = SimQueue::new(512, Box::new(Cbr::new(1e6, Nanos::ZERO)), 0);
    let mut world = World::new(
        vec![q],
        AdaptiveController::new(cfg.clone()),
        Nanos::ZERO,
        7,
    );
    world.equal_timeouts = true;
    let mut rng = Rng::new(3);
    let mut backend = WorldBackend::new(
        &mut world,
        &mut rng,
        Nanos::from_micros(5),
        1,
        AppProfile::l3fwd(),
    );
    // Thread 0 "owns" the queue.
    assert!(backend.try_acquire(0));
    let ts = backend.ts(0);
    let mut loser = MetronomeEngine::new(0, 32);
    // Turn the loser up to its sleep decision: Init (Wait), AfterSleep
    // (Continue), TryAcquire (loses, Continue), GoSleep (Sleep).
    for _ in 0..3 {
        loser.turn(&mut backend, &NullSink);
    }
    match loser.turn(&mut backend, &NullSink) {
        Verdict::Sleep(dur) => assert_eq!(dur, ts, "ablated loser must sleep TS"),
        other => panic!("expected the loser's sleep, got {other:?}"),
    }
    assert_eq!(loser.policy().role(), Role::Backup);
}

/// The baselines are one state machine on both backends too: one
/// `BusyPoll` and one `ConstSleep` worker per queue, turned in lockstep
/// over the world and over the realtime backend with mirrored arrivals,
/// return the same verdict kinds, take the same packets turn for turn and
/// end with the same policy counters.
#[test]
fn baselines_agree_turn_for_turn_on_both_backends() {
    let cfg = MetronomeConfig {
        m_threads: N_QUEUES,
        n_queues: N_QUEUES,
        ..MetronomeConfig::default()
    };
    let app = AppProfile::l3fwd();
    for spec in [
        DisciplineSpec::BusyPoll,
        DisciplineSpec::ConstSleep(Nanos::from_micros(30)),
    ] {
        let label = spec.label();
        let mut world = sim_world(&cfg);
        let mut sim_rng = Rng::new(0x51A7);
        let rt_queues: Vec<Arc<ArrayQueue<u64>>> = (0..N_QUEUES)
            .map(|_| Arc::new(ArrayQueue::new(CAPACITY)))
            .collect();
        let harness =
            RealtimeHarness::new(cfg.clone(), rt_queues.clone(), |_q, _b: &mut Vec<u64>| {});
        let workers = spec.workers(cfg.m_threads, N_QUEUES);
        let mut rt_backends: Vec<_> = (0..workers).map(|_| harness.backend()).collect();
        let mut sim_workers: Vec<_> = (0..workers)
            .map(|w| spec.build(w, N_QUEUES, cfg.burst, &[]))
            .collect();
        let mut rt_workers = sim_workers.clone();

        let mut mirrored = [0u64; N_QUEUES];
        let mut kinds = Vec::new();
        for tick in 1..=STEPS {
            let now = Nanos::from_micros(tick);
            mirror_arrivals(tick, &rt_queues, &mut mirrored);
            for w in 0..workers {
                let sim = sim_workers[w].turn(
                    &mut WorldBackend::new(&mut world, &mut sim_rng, now, w, app),
                    &NullSink,
                );
                let rt = rt_workers[w].turn(&mut rt_backends[w], &NullSink);
                assert_eq!(
                    discriminant(&sim),
                    discriminant(&rt),
                    "{label} worker {w} verdict kind diverged at tick {tick}"
                );
                assert_eq!(
                    world.queues[w].drained_total(),
                    harness.processed(w),
                    "{label} worker {w} took different packets at tick {tick}"
                );
                if !kinds.contains(&discriminant(&sim)) {
                    kinds.push(discriminant(&sim));
                }
            }
        }

        // The schedule exercised both sides of the discipline: draining
        // and its idle verdict (yield or sleep).
        assert_eq!(kinds.len(), 2, "{label}: expected two verdict kinds");
        for w in 0..workers {
            assert!(
                harness.processed(w) > 100,
                "{label} worker {w} drained little"
            );
            assert_same_policy(
                &format!("{label} worker {w}"),
                sim_workers[w].policy(),
                rt_workers[w].policy(),
            );
        }
    }
}
