//! Multi-worker hot-path measurement harness behind the lock-free
//! refactor: alloc/free-burst transactions at worker counts (locked
//! freelist vs per-worker caches) and SPSC vs MPSC ring producer/consumer
//! pairs.
//!
//! These are wall-clock duration harnesses (fixed total work, measured
//! elapsed), not Criterion timers: the contention effects under study only
//! exist across real threads, and the per-op number of interest is
//! `elapsed / total_ops` summed over all workers. `examples/bench6.rs`
//! snapshots them into `BENCH_6.json`. The consume body itself (pop →
//! process → record → free) has no harness here: `perfbench/` prices the
//! one that runs, stage by stage.
//!
//! **Single-core caveat**: on a 1-CPU host the workers time-slice instead
//! of running concurrently, so a mutex is nearly always free when the
//! running thread asks for it — cross-core cache-line bouncing and
//! lock-holder stalls do not appear. What remains measurable, and what
//! these harnesses report, is the *per-operation* cost each path pays
//! (lock + shared-freelist traffic vs thread-local stack moves) and
//! whether the cached path's per-op cost stays flat as workers are added.

use metronome_dpdk::{Mbuf, Mempool, RingPath, SharedRing};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Burst size every harness uses, matching the paper's retrieval burst.
pub const BURST: usize = 32;

/// Median of `n` runs of a measurement — the noise filter the
/// `BENCH_6.json` snapshot applies on a shared, single-core host where
/// any one run can eat a scheduling hiccup.
pub fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    assert!(n > 0, "need at least one run");
    let mut runs: Vec<f64> = (0..n).map(|_| f()).collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("measurement NaN"));
    runs[runs.len() / 2]
}

/// Nanoseconds per buffer alloc+free pair with `workers` threads doing
/// `total_txns / workers` 32-buffer transactions each against one shared
/// pool — through the locked freelist (`cached = false`) or through a
/// per-worker [`metronome_dpdk::MempoolCache`] (`cached = true`).
///
/// The total work is fixed, so the number is directly comparable across
/// worker counts: flat means the path scales, growth is contention.
pub fn pool_txn_per_op_ns(workers: usize, cached: bool, total_txns: u64) -> f64 {
    assert!(workers > 0, "need at least one worker");
    // Headroom for every cache's refill high-water mark plus in-flight
    // bursts, so the pool never exhausts (exhaustion would measure the
    // failure path, not the transaction).
    let pool = Mempool::new(workers * 4 * BURST + 4 * BURST, 64);
    let barrier = Arc::new(Barrier::new(workers + 1));
    let txns = (total_txns / workers as u64).max(1);
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let pool = pool.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut burst: Vec<Mbuf> = Vec::with_capacity(BURST);
                let mut cache = cached.then(|| pool.cache(BURST));
                barrier.wait();
                for _ in 0..txns {
                    let got = match cache.as_mut() {
                        Some(c) => c.alloc_burst(BURST, &mut burst),
                        None => pool.alloc_burst(BURST, &mut burst),
                    };
                    debug_assert_eq!(got, BURST, "bench pool must never exhaust");
                    match cache.as_mut() {
                        Some(c) => c.free_burst(burst.drain(..)),
                        None => pool.free_burst(burst.drain(..)),
                    }
                }
                // Cache drops here, spilling its stack back to the pool.
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("pool bench worker panicked");
    }
    let elapsed = t0.elapsed();
    assert_eq!(pool.in_use(), 0, "bench leaked buffers");
    assert_eq!(pool.cached(), 0, "bench left buffers cached");
    let ops = txns * workers as u64 * BURST as u64;
    elapsed.as_secs_f64() * 1e9 / ops as f64
}

/// Mpps through one producer/consumer thread pair over a [`SharedRing`]
/// on the given path, until the consumer has drained `target_items`.
///
/// The producer allocates blank mbufs from a per-thread pool cache and
/// offers bursts; rejected frames recycle through the cache, exactly like
/// the realtime runner's generator. The consumer drains bursts and frees
/// them through its own cache.
pub fn ring_pair_mpps(path: RingPath, target_items: u64) -> f64 {
    let ring = Arc::new(SharedRing::with_path(1024, path));
    let pool = Mempool::new(4096, 64);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(3));
    let consumer = ring.consumer();

    let producer = {
        let ring = Arc::clone(&ring);
        let pool = pool.clone();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut cache = pool.cache(BURST);
            let mut frames: Vec<Mbuf> = Vec::with_capacity(BURST);
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                cache.alloc_burst(BURST, &mut frames);
                let accepted = ring.offer_burst(&mut frames);
                // Tail-dropped frames stay in `frames`; recycle them.
                cache.free_burst(frames.drain(..));
                if accepted == 0 {
                    // Ring full. On a single-core host spinning here burns
                    // the whole timeslice the consumer needs; hand it over.
                    std::thread::yield_now();
                }
            }
        })
    };
    let drainer = {
        let pool = pool.clone();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut cache = pool.cache(BURST);
            let mut out: Vec<Mbuf> = Vec::with_capacity(BURST);
            let mut got = 0u64;
            barrier.wait();
            while got < target_items {
                let n = consumer.pop_burst(&mut out, BURST);
                got += n as u64;
                cache.free_burst(out.drain(..));
                if n == 0 {
                    // Ring empty: yield to the producer (see above).
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
        })
    };
    barrier.wait();
    let t0 = Instant::now();
    drainer.join().expect("ring bench consumer panicked");
    let elapsed = t0.elapsed();
    producer.join().expect("ring bench producer panicked");
    // Return anything still queued so the pool audit below holds.
    let leftover = ring.consumer();
    let mut out = Vec::with_capacity(BURST);
    while leftover.pop_burst(&mut out, BURST) > 0 {
        pool.free_burst(out.drain(..));
    }
    assert_eq!(pool.in_use(), 0, "ring bench leaked buffers");
    target_items as f64 / elapsed.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_harness_measures_both_paths() {
        let locked = pool_txn_per_op_ns(2, false, 2_000);
        let cached = pool_txn_per_op_ns(2, true, 2_000);
        assert!(locked > 0.0 && cached > 0.0);
    }

    #[test]
    fn ring_harness_moves_items_on_every_path() {
        for path in [RingPath::Spsc, RingPath::Mpsc] {
            assert!(ring_pair_mpps(path, 50_000) > 0.0, "{path:?}");
        }
    }
}
