//! Sharded-ingest measurement harness behind the multi-producer
//! generation refactor (`BENCH_10.json`): `G` producer shards splitting
//! one flow population, scatter-gather queue dispatch vs per-queue `Vec`
//! staging, and the amortized [`CoarseClock`] vs a precise per-packet
//! clock read.
//!
//! Like [`crate::hotpath`], these are wall-clock duration harnesses
//! (fixed total work, measured elapsed) across real threads, with exact
//! conservation asserted at every point: what the producers offered
//! equals what the rings accepted plus what they tail-dropped, what the
//! drainer freed equals what the rings accepted, and the pool ends
//! whole (`in_use == 0`, `cached == 0`, `allocs == frees`).
//!
//! **Single-core caveat**: on a 1-CPU host the shards time-slice instead
//! of producing concurrently, so shard scaling measures coordination
//! overhead (MPSC CAS traffic, cache hand-offs) rather than parallel
//! speedup — `BENCH_10.json` records the host's `nproc` alongside every
//! number for exactly this reason.

use metronome_dpdk::{Mbuf, Mempool, QueueScatter, RingPath, RssPort};
use metronome_runtime::realtime_runner::flow_templates;
use metronome_sim::CoarseClock;
use metronome_traffic::WallClock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Burst size every harness uses, matching the paper's retrieval burst.
pub const BURST: usize = 32;

/// Descriptors per Rx ring.
const RING_SIZE: usize = 1024;

/// Mpps of `shards` producer threads pushing a fixed total of accepted
/// frames through an [`RssPort`] on `path`, drained by one consumer
/// thread — the sharded-ingest shape end to end.
///
/// Each shard owns the flows whose template index is `i % shards` (the
/// runner's flow→shard function), a per-shard [`Mempool`] cache, and its
/// own staging: a [`QueueScatter`] bucket sort when `scatter` is true,
/// the pre-refactor per-queue `Vec` staging when false. Ring tail-drops
/// are recycled and re-offered as fresh frames until the shard's
/// acceptance quota is met, so the measured work is identical across
/// shard counts and paths.
///
/// # Panics
/// If conservation or the pool audit fails — a harness that can lose
/// packets would measure the leak, not the path.
pub fn sharded_ingest_mpps(
    shards: usize,
    path: RingPath,
    n_queues: usize,
    total_packets: u64,
    scatter: bool,
) -> f64 {
    assert!(shards > 0, "need at least one producer shard");
    assert!(n_queues > 0, "need at least one queue");
    assert!(
        shards == 1 || path != RingPath::Spsc,
        "SPSC rings admit one producer"
    );
    let port = Arc::new(RssPort::with_path(n_queues, RING_SIZE, path));
    let pool = Mempool::new(2 * n_queues * RING_SIZE + (shards + 1) * 4 * BURST, 2048);
    let templates = Arc::new(flow_templates(&port, 0xB45));
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(shards + 2));
    let per_shard = (total_packets / shards as u64).max(1);
    let offered = Arc::new(AtomicU64::new(0));

    let producers: Vec<_> = (0..shards)
        .map(|s| {
            let port = Arc::clone(&port);
            let pool = pool.clone();
            let templates = Arc::clone(&templates);
            let barrier = Arc::clone(&barrier);
            let offered = Arc::clone(&offered);
            std::thread::spawn(move || {
                let mut cache = pool.cache(BURST);
                let mut blanks: Vec<Mbuf> = Vec::with_capacity(BURST);
                let mut bucket = QueueScatter::new(n_queues);
                let mut staged: Vec<Vec<Mbuf>> =
                    (0..n_queues).map(|_| Vec::with_capacity(BURST)).collect();
                let my: Vec<usize> = (0..templates.len()).filter(|i| i % shards == s).collect();
                let mut seq = 0usize;
                let mut accepted = 0u64;
                barrier.wait();
                while accepted < per_shard {
                    let want = BURST.min((per_shard - accepted) as usize);
                    cache.alloc_burst(want, &mut blanks);
                    let mut built = 0u64;
                    while let Some(mut mbuf) = blanks.pop() {
                        let (frame, q, hash) = &templates[my[seq % my.len()]];
                        seq += 1;
                        mbuf.refill(frame);
                        mbuf.queue = *q as u16;
                        mbuf.rss_hash = *hash;
                        built += 1;
                        if scatter {
                            bucket.push(*q, mbuf);
                        } else {
                            staged[*q].push(mbuf);
                        }
                    }
                    offered.fetch_add(built, Ordering::Relaxed);
                    let before = accepted;
                    if scatter {
                        bucket.dispatch(|q, frames| {
                            accepted += port.offer_burst(q, frames) as u64;
                            // Tail-dropped frames stay behind; recycle.
                            cache.free_burst(frames.drain(..));
                        });
                    } else {
                        for (q, frames) in staged.iter_mut().enumerate() {
                            if frames.is_empty() {
                                continue;
                            }
                            accepted += port.offer_burst(q, frames) as u64;
                            cache.free_burst(frames.drain(..));
                        }
                    }
                    if accepted == before {
                        // Rings full: on a single-core host spinning here
                        // burns the timeslice the drainer needs.
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let drainer = {
        let pool = pool.clone();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let consumers = port.consumers();
        std::thread::spawn(move || {
            let mut cache = pool.cache(BURST);
            let mut out: Vec<Mbuf> = Vec::with_capacity(BURST);
            let mut drained = 0u64;
            barrier.wait();
            loop {
                let mut idle = true;
                for c in &consumers {
                    let n = c.pop_burst(&mut out, BURST);
                    drained += n as u64;
                    cache.free_burst(out.drain(..));
                    if n > 0 {
                        idle = false;
                    }
                }
                if idle {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            drained
        })
    };

    barrier.wait();
    let t0 = Instant::now();
    for p in producers {
        p.join().expect("ingest producer panicked");
    }
    stop.store(true, Ordering::Release);
    let drained = drainer.join().expect("ingest drainer panicked");
    let elapsed = t0.elapsed();

    // Exact conservation at this sweep point.
    let accepted = port.total_accepted();
    assert_eq!(accepted, shards as u64 * per_shard, "quota not met");
    assert_eq!(drained, accepted, "drainer lost frames");
    assert_eq!(
        port.total_offered(),
        port.total_accepted() + port.total_dropped(),
        "port counters leaked"
    );
    assert_eq!(
        offered.load(Ordering::Relaxed),
        port.total_offered(),
        "producers and port disagree on offered"
    );
    // Pool audit: caches flushed on join, every buffer home.
    let stats = pool.stats();
    assert_eq!(pool.in_use(), 0, "ingest bench leaked buffers");
    assert_eq!(pool.cached(), 0, "ingest bench left buffers cached");
    assert_eq!(stats.allocs, stats.frees, "alloc/free imbalance");

    accepted as f64 / elapsed.as_secs_f64() / 1e6
}

/// Nanoseconds per packet of latency stamping: a precise clock read per
/// packet (`WallClock::now`, the pre-refactor shape) vs the amortized
/// path (one [`CoarseClock::tick`] per 32-packet burst, free cached
/// reads per packet). The stamped values feed a black-boxed accumulator
/// so neither loop can be optimized away.
pub fn stamp_per_packet_ns(coarse: bool, total_packets: u64) -> f64 {
    let clock = WallClock::start();
    let amortized = CoarseClock::from_epoch(clock.anchor());
    let bursts = (total_packets / BURST as u64).max(1);
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..bursts {
        if coarse {
            amortized.tick();
            for _ in 0..BURST {
                acc = acc.wrapping_add(std::hint::black_box(amortized.cached().as_nanos()));
            }
        } else {
            for _ in 0..BURST {
                acc = acc.wrapping_add(std::hint::black_box(clock.now().as_nanos()));
            }
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e9 / (bursts * BURST as u64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_harness_conserves_on_every_path_and_staging() {
        for (shards, path) in [
            (1, RingPath::Spsc),
            (1, RingPath::Mpsc),
            (2, RingPath::Mpsc),
            (2, RingPath::Locked),
        ] {
            for scatter in [false, true] {
                let mpps = sharded_ingest_mpps(shards, path, 2, 20_000, scatter);
                assert!(mpps > 0.0, "{shards} shards on {path:?}");
            }
        }
    }

    #[test]
    fn multi_shard_spsc_is_rejected() {
        let r = std::panic::catch_unwind(|| sharded_ingest_mpps(2, RingPath::Spsc, 1, 100, true));
        assert!(r.is_err(), "two producers on SPSC must be refused");
    }

    #[test]
    fn stamp_harness_measures_both_clocks() {
        assert!(stamp_per_packet_ns(false, 50_000) > 0.0);
        assert!(stamp_per_packet_ns(true, 50_000) > 0.0);
    }
}
