//! The async executor backend, end to end.
//!
//! Two layers of evidence that the cooperative backend is the thread
//! backend's equal (the third, lockstep parity with the simulator at the
//! executor's one-`turn()`-per-visit granularity, is
//! `tests/engine_parity.rs`: the simulator turns the same state machines):
//!
//! 1. **Scale** — 1024 queues with 1024 Metronome tasks on 2 executor
//!    shards: exact conservation and nonzero per-queue throughput, the
//!    workload the thread backend would need 1024 OS threads for.
//! 2. **Pipeline agreement** — `run_realtime` on `ExecBackend::Async`
//!    produces the same conservation identity, report shape, and (for the
//!    interrupt discipline) waker-driven parking as the thread backend.
//!
//! All assertions are correctness-based, never timing-based, so they hold
//! on loaded 1-core machines.

mod common;

use common::{push_all, serial};
use crossbeam::queue::ArrayQueue;
use metronome_repro::core::config::MetronomeConfig;
use metronome_repro::core::{DisciplineSpec, ExecBackend, WorkerSet};
use metronome_repro::runtime::{run_realtime, Scenario, TrafficSpec};
use metronome_repro::sim::Nanos;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 1024 queues, 1024 Metronome tasks, 2 executor shards: every queue
/// drains completely (nonzero per-queue throughput) and conservation is
/// exact. The thread backend would need 1024 OS threads for this shape.
#[test]
fn a_thousand_queues_conserve_on_two_shards() {
    let _guard = serial();
    const N: usize = 1024;
    const PER_QUEUE: u64 = 32;
    let cfg = MetronomeConfig {
        m_threads: N,
        n_queues: N,
        ..MetronomeConfig::default()
    };
    let queues: Vec<Arc<ArrayQueue<u64>>> = (0..N).map(|_| Arc::new(ArrayQueue::new(64))).collect();
    for (q, queue) in queues.iter().enumerate() {
        push_all(queue, (0..PER_QUEUE).map(|i| q as u64 * PER_QUEUE + i));
    }
    let m = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone())
        .exec(ExecBackend::Async { shards: 2 })
        .spawn(|_worker| |_q: usize, burst: &mut Vec<u64>| burst.clear());
    let offered = N as u64 * PER_QUEUE;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let processed: u64 = (0..N).map(|q| m.processed(q)).sum();
        if processed >= offered || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = m.stop();
    assert_eq!(
        stats.total_processed(),
        offered,
        "conservation: every offered item processed exactly once"
    );
    for q in 0..N {
        assert_eq!(
            stats.processed[q], PER_QUEUE,
            "queue {q} did not drain completely"
        );
    }
    assert!(queues.iter().all(|q| q.is_empty()), "items left behind");
}

/// The same small scenario through `run_realtime` on both backends: the
/// async report must carry the thread report's shape and satisfy the same
/// conservation identity with zero loss at this load.
#[test]
fn thread_and_async_backends_agree_end_to_end() {
    let _guard = serial();
    let make = |name: &str| {
        Scenario::metronome(
            name,
            MetronomeConfig::multiqueue(2, 2),
            TrafficSpec::CbrPps(40_000.0),
        )
        .with_duration(Nanos::from_millis(200))
        .with_seed(0xA51)
    };
    let threads = run_realtime(&make("rt-exec-threads"));
    let asynced = run_realtime(&make("rt-exec-async").with_async_backend(2));

    for r in [&threads, &asynced] {
        assert!(r.forwarded > 0, "{}: no packets processed", r.name);
        assert_eq!(r.offered, r.forwarded + r.dropped, "{}: leaked", r.name);
        assert_eq!(r.dropped, 0, "{}: unexpected drops at 40 kpps", r.name);
        assert_eq!(r.queues.len(), 2, "{}: queue columns", r.name);
        let pool = r.mempool.expect("realtime runs report pool stats");
        assert_eq!(pool.allocs, pool.frees, "{}: pool audit", r.name);
    }
    // Identical seeds and schedules: both backends saw the same offered
    // load, and the report keeps one CPU column per worker either way.
    assert_eq!(threads.offered, asynced.offered, "offered load diverged");
    assert_eq!(
        threads.cpu_per_thread_pct.len(),
        asynced.cpu_per_thread_pct.len(),
        "worker accounting columns diverged"
    );
    assert!(asynced.total_wakes > 0, "async workers never slept/woke");
}

/// The interrupt discipline on the async backend: workers park as waker
/// registrations on the ring doorbells, the producer-side wake hook fires
/// them, and the full pipeline still conserves with zero loss.
#[test]
fn interrupt_discipline_parks_through_wakers_end_to_end() {
    let _guard = serial();
    // A deep ring: at 40 kpps the default 512-slot ring overflows if the
    // shard thread is descheduled for ~13 ms, which a loaded 1-core host
    // does occasionally. 4096 slots buy ~100 ms of scheduling slack so
    // the zero-drop assertion tests the wake path, not the host's mood.
    let sc = Scenario::xdp("rt-async-interrupt", 1, TrafficSpec::CbrPps(40_000.0))
        .with_duration(Nanos::from_millis(200))
        .with_seed(0x1D1F)
        .with_ring(4096)
        .with_async_backend(1);
    let r = run_realtime(&sc);
    assert!(r.forwarded > 0, "no packets processed");
    assert_eq!(r.offered, r.forwarded + r.dropped, "packets leaked");
    assert_eq!(r.dropped, 0, "unexpected drops at 40 kpps");
    assert!(r.total_wakes > 0, "doorbells never woke a parked task");

    // And with no traffic at all, a parked task costs ~nothing: the waker
    // registration replaces the blocked OS thread, same CPU bar as the
    // thread backend's idle interrupt worker.
    let idle = Scenario::xdp("rt-async-interrupt-idle", 1, TrafficSpec::Silent)
        .with_duration(Nanos::from_millis(200))
        .with_seed(0x1D20)
        .with_async_backend(1);
    let r = run_realtime(&idle);
    assert_eq!(r.offered, 0);
    assert_eq!(r.forwarded, 0);
    assert!(
        r.cpu_total_pct < 5.0,
        "parked async worker should be ~free, got {:.2}%",
        r.cpu_total_pct
    );
}
