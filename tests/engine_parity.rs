//! Sim-vs-realtime engine parity.
//!
//! The whole point of the unified execution core: the *same*
//! `MetronomeEngine` must behave identically whether its `Backend` is the
//! discrete-event world or the real-thread substrate. This test drives
//! both backends single-threaded under one deterministic schedule —
//! identical step interleaving, identical arrivals, identical entropy —
//! and asserts that every engine reports identical role transitions and
//! race win/loss statistics, and that both controllers record identical
//! try accounting.
//!
//! Durations legitimately differ between the backends (virtual nanoseconds
//! vs wall-clock instants feed the estimator), so ρ/TS values are *not*
//! compared; everything schedule-determined must match exactly.

use crossbeam::queue::ArrayQueue;
use metronome_repro::core::config::MetronomeConfig;
use metronome_repro::core::controller::AdaptiveController;
use metronome_repro::core::engine::{Backend, EngineOp, MetronomeEngine, StepCosts};
use metronome_repro::core::realtime::RealtimeHarness;
use metronome_repro::core::Role;
use metronome_repro::runtime::{AppProfile, SimQueue, World, WorldBackend};
use metronome_repro::sim::{Nanos, Rng};
use metronome_repro::traffic::Cbr;
use std::sync::Arc;

/// Wraps any backend, overriding only its entropy source so the sim and
/// realtime sides draw the same backup-queue picks.
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

    fn chunk_cost(&self, k: u64) -> u64 {
        self.inner.chunk_cost(k)
    }

    fn chunk_done(&mut self, q: usize, k: u64) {
        self.inner.chunk_done(q, k)
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

    fn costs(&self) -> StepCosts {
        self.inner.costs()
    }
}

const M_THREADS: usize = 3;
const N_QUEUES: usize = 2;
// One arrival per 10 µs per queue: slow enough relative to the 1 µs
// lockstep tick that drains complete and primaries release (a tick
// executes one engine step, so a rate of one packet per tick would keep
// the drain loop saturated forever).
const PPS_PER_QUEUE: u64 = 100_000;
const STEPS: u64 = 20_000; // 20 ms of 1 µs lockstep ticks
const CAPACITY: usize = 4096; // largest valid ring; nothing tail-drops at these rates

#[test]
fn sim_and_realtime_backends_agree_on_policy_statistics() {
    let cfg = MetronomeConfig {
        m_threads: M_THREADS,
        n_queues: N_QUEUES,
        ..MetronomeConfig::default()
    };

    // --- sim side: the discrete-event world ------------------------------
    let queues: Vec<SimQueue> = (0..N_QUEUES)
        .map(|_| {
            SimQueue::new(
                CAPACITY,
                Box::new(Cbr::new(PPS_PER_QUEUE as f64, Nanos::ZERO)),
                32,
                0,
            )
        })
        .collect();
    let mut world = World::new(
        queues,
        AdaptiveController::new(cfg.clone()),
        Nanos::ZERO,
        0xDE7,
    );
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
    // step on each backend. Sleep/work durations are schedule-irrelevant:
    // both sides progress phase by phase in the same interleaving.
    let mut mirrored = [0u64; N_QUEUES];
    for tick in 1..=STEPS {
        let now = Nanos::from_micros(tick);
        // CBR(1e5, offset 0) has arrivals at k·10 µs: floor(now_us/10) + 1
        // packets have been emitted by `now`.
        let due = tick / 10 + 1;
        for (q, rt_queue) in rt_queues.iter().enumerate() {
            while mirrored[q] < due {
                rt_queue
                    .push(mirrored[q])
                    .expect("mirror queue must not overflow");
                mirrored[q] += 1;
            }
        }
        for i in 0..M_THREADS {
            let world_backend = WorldBackend {
                world: &mut world,
                rng: &mut sim_rng,
                now,
                tid: i,
                app,
            };
            sim_engines[i].step(&mut FixedEntropy {
                inner: world_backend,
                draws: &mut sim_draws,
            });
            rt_engines[i].step(&mut FixedEntropy {
                inner: &mut rt_backends[i],
                draws: &mut rt_draws,
            });
        }
    }

    // Drive every engine to its next turn boundary (a Sleep op) so no
    // turn is left half-recorded: the realtime backend records an
    // acquisition at release time (the turn's bookkeeping, past the stamp
    // that ends its busy period), the sim world at acquire time — at a
    // boundary both have the full turn on the books. Virtual time stays
    // at the final tick, so no new arrivals appear on either side.
    let now = Nanos::from_micros(STEPS);
    for i in 0..M_THREADS {
        loop {
            let sim_op = sim_engines[i].step(&mut FixedEntropy {
                inner: WorldBackend {
                    world: &mut world,
                    rng: &mut sim_rng,
                    now,
                    tid: i,
                    app,
                },
                draws: &mut sim_draws,
            });
            let rt_op = rt_engines[i].step(&mut FixedEntropy {
                inner: &mut rt_backends[i],
                draws: &mut rt_draws,
            });
            assert_eq!(
                std::mem::discriminant(&sim_op),
                std::mem::discriminant(&rt_op),
                "engine {i} op kind diverged while settling"
            );
            if matches!(sim_op, EngineOp::Sleep(_)) {
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
        let (s, r) = (sim.policy(), rt.policy());
        assert_eq!(s.wakes, r.wakes, "engine {i} wakes diverged");
        assert_eq!(s.races_won, r.races_won, "engine {i} wins diverged");
        assert_eq!(s.races_lost, r.races_lost, "engine {i} losses diverged");
        assert_eq!(
            s.empty_polls, r.empty_polls,
            "engine {i} empty polls diverged"
        );
        assert_eq!(
            s.role_transitions, r.role_transitions,
            "engine {i} role transitions diverged"
        );
        assert_eq!(s.role(), r.role(), "engine {i} final role diverged");
        assert_eq!(
            s.queue_to_contend(),
            r.queue_to_contend(),
            "engine {i} next queue diverged"
        );
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
    let q = SimQueue::new(512, Box::new(Cbr::new(1e6, Nanos::ZERO)), 32, 0);
    let mut world = World::new(
        vec![q],
        AdaptiveController::new(cfg.clone()),
        Nanos::ZERO,
        7,
    );
    world.equal_timeouts = true;
    let mut rng = Rng::new(3);
    let mut backend = WorldBackend {
        world: &mut world,
        rng: &mut rng,
        now: Nanos::from_micros(5),
        tid: 1,
        app: AppProfile::l3fwd(),
    };
    // Thread 0 "owns" the queue.
    assert!(backend.try_acquire(0));
    let ts = backend.ts(0);
    let mut loser = MetronomeEngine::new(0, 32);
    // Step the loser up to its sleep decision: Init (Wait), AfterSleep
    // (Work), TryAcquire (loses, Work), GoSleep (Sleep).
    use metronome_repro::core::engine::EngineOp;
    loser.step(&mut backend);
    loser.step(&mut backend);
    loser.step(&mut backend);
    let op = loser.step(&mut backend);
    assert_eq!(op, EngineOp::Sleep(ts), "ablated loser must sleep TS");
    assert_eq!(loser.policy().role(), Role::Backup);
}
