//! Integration tests of the real-`std::thread` Metronome runtime: the
//! library surface a user adopts (paper Listing 2 on real atomics and a
//! spin-assisted precise sleeper).

mod common;

use common::{push_all, serial};
use crossbeam::queue::ArrayQueue;
use metronome_repro::core::{DisciplineSpec, MetronomeConfig, WorkerSet};
use metronome_repro::sim::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn multiqueue_processes_exactly_once() {
    let _guard = serial();
    let cfg = MetronomeConfig {
        m_threads: 4,
        n_queues: 3,
        ..MetronomeConfig::default()
    };
    let queues: Vec<_> = (0..3)
        .map(|_| Arc::new(ArrayQueue::<u64>::new(8192)))
        .collect();
    let count = Arc::new(AtomicU64::new(0));
    let xor = Arc::new(AtomicU64::new(0));
    let m = {
        let count = Arc::clone(&count);
        let xor = Arc::clone(&xor);
        WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone()).spawn(move |_worker| {
            let count = Arc::clone(&count);
            let xor = Arc::clone(&xor);
            move |_q, burst: &mut Vec<u64>| {
                for item in burst.drain(..) {
                    count.fetch_add(1, Ordering::Relaxed);
                    xor.fetch_xor(item, Ordering::Relaxed);
                }
            }
        })
    };
    let n = 30_000u64;
    let mut expected_xor = 0u64;
    for i in 0..n {
        expected_xor ^= i;
    }
    for (qi, q) in queues.iter().enumerate() {
        push_all(q, (0..n).filter(|i| (i % 3) as usize == qi));
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    while count.load(Ordering::Relaxed) < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = m.stop();
    assert_eq!(count.load(Ordering::Relaxed), n, "lost items");
    assert_eq!(
        xor.load(Ordering::Relaxed),
        expected_xor,
        "duplicated items"
    );
    assert_eq!(stats.total_processed(), n);
    // All three queues saw traffic.
    for q in 0..3 {
        assert!(stats.processed[q] > 0, "queue {q} starved");
    }
}

#[test]
fn rho_tracks_offered_load_up_and_down() {
    let _guard = serial();
    // The protocol is timescale-free: to make the test robust on small,
    // shared machines (this host has 2 cores; OS timeslices are ~ms) we
    // scale every knob up ~30x — V̄ = 300 µs, TL = 10 ms, ~20 µs per item —
    // so renewal cycles last ~1 ms and scheduler noise is second-order.
    // M = 2 workers + 1 paced producer fit the available cores.
    let cfg = MetronomeConfig {
        m_threads: 2,
        v_target: Nanos::from_micros(300),
        t_long: Nanos::from_millis(10),
        ..MetronomeConfig::default()
    };
    let queues = vec![Arc::new(ArrayQueue::<u64>::new(8192))];
    let m = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone()).spawn(|_worker| {
        |_q, burst: &mut Vec<u64>| {
            for item in burst.drain(..) {
                let t = Instant::now();
                while t.elapsed() < Duration::from_micros(20) {
                    std::hint::spin_loop();
                }
                std::hint::black_box(item);
            }
        }
    });
    let sleeper = metronome_repro::core::PreciseSleeper;

    // Phase 1: ~25 kpps against ~50 kpps of capacity (ρ ≈ 0.5) for 1 s.
    let t0 = Instant::now();
    let mut rho_busy = 0.0f64;
    let mut ts_busy = Nanos::MAX;
    let mut batches = 0u64;
    while t0.elapsed() < Duration::from_secs(1) {
        push_all(&queues[0], 0..8);
        batches += 1;
        if batches.is_multiple_of(100) {
            rho_busy = rho_busy.max(m.rho(0));
            ts_busy = ts_busy.min(m.ts(0));
        }
        sleeper.sleep(Duration::from_micros(320));
    }

    // Phase 2: silence — rho must decay and TS relax back toward M·V̄.
    std::thread::sleep(Duration::from_secs(1));
    let rho_idle = m.rho(0);
    let ts_idle = m.ts(0);
    m.stop();

    assert!(
        rho_busy > 0.15,
        "rho too low under sustained load: {rho_busy}"
    );
    assert!(
        rho_idle < rho_busy / 2.0,
        "rho did not decay: busy {rho_busy} vs idle {rho_idle}"
    );
    assert!(
        ts_busy < Nanos::from_micros(600),
        "TS never compressed: {ts_busy}"
    );
    assert!(
        ts_idle > ts_busy,
        "TS did not relax at idle: {ts_idle} vs {ts_busy}"
    );
    assert!(
        ts_idle <= Nanos::from_micros(601),
        "TS above M·V̄: {ts_idle}"
    );
}

#[test]
fn stop_is_clean_under_load() {
    let _guard = serial();
    // Stopping mid-traffic must join all workers without panicking and
    // report consistent counters.
    let cfg = MetronomeConfig {
        m_threads: 3,
        n_queues: 2,
        ..MetronomeConfig::default()
    };
    let queues: Vec<_> = (0..2)
        .map(|_| Arc::new(ArrayQueue::<u64>::new(1024)))
        .collect();
    let m = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone())
        .spawn(|_worker| |_q, _burst: &mut Vec<u64>| {});
    for q in &queues {
        push_all(q, 0..512);
    }
    std::thread::sleep(Duration::from_millis(100));
    let stats = m.stop();
    assert_eq!(stats.wakes.len(), 3);
    assert!(stats.wakes.iter().all(|&w| w > 0), "a worker never woke");
    assert!(stats.total_processed() <= 1024);
}
