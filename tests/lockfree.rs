//! Threaded stress tests for the lock-free hot path: the SPSC/MPSC ring
//! primitives under real-thread boundary races (a consumer that peeks and
//! hints between its pops included), and the `SharedRing`
//! wake-hook contract (rung exactly once per accepting burst) on every
//! ring path.
//!
//! These run as part of the normal suite and again under the CI
//! threaded-stress job with `--test-threads=1`, where each test owns the
//! machine and the producer/consumer interleavings are at their most
//! adversarial on a single core (whole-timeslice stalls at arbitrary
//! points in the protocol).

use metronome_repro::dpdk::fastring::{MpscRing, SpscRing};
use metronome_repro::dpdk::{Mempool, RingPath, SharedRing};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const ALL_PATHS: [RingPath; 2] = [RingPath::Spsc, RingPath::Mpsc];

/// A capacity-2 SPSC ring forces a full/empty boundary on nearly every
/// operation: the producer sees "apparently full" and the consumer
/// "apparently empty" constantly, so the cached-index refresh paths and
/// the acquire/release index handoff are exercised at maximum frequency.
#[test]
fn spsc_tiny_ring_boundary_stress_keeps_fifo() {
    const ITEMS: u64 = 200_000;
    let ring = Arc::new(SpscRing::<u64>::new(2));
    let producer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            let mut next = 0u64;
            let mut batch: Vec<u64> = Vec::with_capacity(4);
            while next < ITEMS {
                // Alternate single pushes and small bursts so both the
                // one-slot and the batched publish paths cross the
                // boundary.
                if next.is_multiple_of(3) {
                    if ring.push(next).is_ok() {
                        next += 1;
                    } else {
                        std::thread::yield_now();
                    }
                } else {
                    batch.clear();
                    batch.extend(next..(next + 4).min(ITEMS));
                    let offered = batch.len() as u64;
                    let accepted = ring.push_burst(&mut batch) as u64;
                    next += accepted;
                    if accepted < offered {
                        std::thread::yield_now();
                    }
                }
            }
        })
    };
    let mut expected = 0u64;
    let mut out: Vec<u64> = Vec::with_capacity(4);
    while expected < ITEMS {
        if expected.is_multiple_of(2) {
            match ring.pop() {
                Some(v) => {
                    assert_eq!(v, expected, "FIFO order violated");
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        } else {
            let taken = ring.pop_burst(&mut out, 4);
            for v in out.drain(..) {
                assert_eq!(v, expected, "FIFO order violated in burst");
                expected += 1;
            }
            if taken == 0 {
                std::thread::yield_now();
            }
        }
    }
    producer.join().expect("producer panicked");
    assert!(
        ring.is_empty(),
        "items left behind after conservation count"
    );
}

/// A consumer that looks before it takes, against a live producer: every
/// peek shows exactly what the next pops return — nothing twice, nothing
/// torn or unpublished, nothing the producer has yet to finish writing —
/// and the index hint in between changes none of it. Items carry their
/// sequence number twice over (`i` and `!i`), so a slot read before its
/// write completed would not check out.
#[test]
fn spsc_peek_then_pop_agree_under_a_live_producer() {
    const ITEMS: u64 = 200_000;
    for capacity in [2usize, 64] {
        let ring = Arc::new(SpscRing::<(u64, u64)>::new(capacity));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut batch: Vec<(u64, u64)> = Vec::with_capacity(8);
                let mut next = 0u64;
                while next < ITEMS {
                    batch.clear();
                    batch.extend((next..(next + 5).min(ITEMS)).map(|i| (i, !i)));
                    let accepted = ring.push_burst(&mut batch) as u64;
                    next += accepted;
                    if accepted == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let mut expected = 0u64;
        let mut peeked: Vec<(u64, u64)> = Vec::with_capacity(4);
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(4);
        while expected < ITEMS {
            ring.prefetch_indices(4);
            peeked.clear();
            let shown = ring.peek_each(4, |&item| peeked.push(item));
            assert_eq!(shown, peeked.len());
            for (k, &(i, check)) in peeked.iter().enumerate() {
                assert_eq!((i, check), (expected + k as u64, !i), "peeked a bad item");
            }
            // The producer may have added more since; what was shown is
            // still the front of the queue.
            out.clear();
            let taken = ring.pop_burst(&mut out, 4);
            assert!(taken >= shown, "a peeked item vanished before its pop");
            assert_eq!(&out[..shown], &peeked[..], "pops disagree with the peek");
            for &(i, check) in &out {
                assert_eq!((i, check), (expected, !i), "FIFO order violated");
                expected += 1;
            }
            if taken == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().expect("producer panicked");
        assert!(ring.is_empty(), "capacity {capacity}: items left behind");
    }
}

/// Multi-producer stress on the MPSC ring: every item arrives exactly
/// once and each producer's items arrive in that producer's order (slot
/// claims are monotone per producer).
#[test]
fn mpsc_multi_producer_stress_conserves_and_orders() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 50_000;
    let ring = Arc::new(MpscRing::<u64>::new(8));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let tagged = p << 32 | i;
                    loop {
                        match ring.push(tagged) {
                            Ok(()) => break,
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                }
            })
        })
        .collect();
    let mut next_per_producer = vec![0u64; PRODUCERS as usize];
    let mut received = 0u64;
    let mut out: Vec<u64> = Vec::with_capacity(8);
    while received < PRODUCERS * PER_PRODUCER {
        let taken = ring.pop_burst(&mut out, 8);
        for tagged in out.drain(..) {
            let (p, i) = ((tagged >> 32) as usize, tagged & 0xFFFF_FFFF);
            assert_eq!(i, next_per_producer[p], "producer {p} items reordered");
            next_per_producer[p] += 1;
            received += 1;
        }
        if taken == 0 {
            std::thread::yield_now();
        }
    }
    for p in producers {
        p.join().expect("producer panicked");
    }
    assert!(ring.is_empty());
}

/// The wake-hook contract under producer/consumer stress, on every ring
/// path: the hook fires exactly once per burst that accepted at least one
/// frame — never per frame, never for an all-rejected burst — and the
/// tail-drop accounting reconciles (`offered == accepted + dropped`,
/// `accepted == consumed`).
#[test]
fn wake_hook_fires_once_per_accepting_burst_on_every_path() {
    const BURST: usize = 32;
    const TOTAL_BURSTS: u64 = 2_000;
    for path in ALL_PATHS {
        let wakes = Arc::new(AtomicU64::new(0));
        let mut ring = SharedRing::with_path(64, path);
        {
            let wakes = Arc::clone(&wakes);
            ring.set_wake_hook(Arc::new(move || {
                wakes.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let ring = Arc::new(ring);
        let pool = Mempool::new(1024, 64);
        let consumer = ring.consumer();
        let done = Arc::new(AtomicBool::new(false));

        let producer = {
            let ring = Arc::clone(&ring);
            let pool = pool.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut cache = pool.cache(BURST);
                let mut frames = Vec::with_capacity(BURST);
                let mut accepting_bursts = 0u64;
                for _ in 0..TOTAL_BURSTS {
                    cache.alloc_burst(BURST, &mut frames);
                    let accepted = ring.offer_burst(&mut frames);
                    if accepted > 0 {
                        accepting_bursts += 1;
                    } else {
                        std::thread::yield_now();
                    }
                    // Rejected frames stay in `frames`: recycle them.
                    cache.free_burst(frames.drain(..));
                }
                // Release-publish "no more offers": once the drainer reads
                // true, a subsequent empty pop really means drained.
                done.store(true, Ordering::Release);
                accepting_bursts
            })
        };
        let drainer = {
            let pool = pool.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut cache = pool.cache(BURST);
                let mut out = Vec::with_capacity(BURST);
                let mut consumed = 0u64;
                loop {
                    let n = consumer.pop_burst(&mut out, BURST);
                    consumed += n as u64;
                    cache.free_burst(out.drain(..));
                    if n == 0 {
                        if done.load(Ordering::Acquire) && consumer.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                consumed
            })
        };
        let accepting_bursts = producer.join().expect("producer panicked");
        let consumed = drainer.join().expect("drainer panicked");
        assert_eq!(
            ring.offered(),
            ring.accepted() + ring.dropped(),
            "{path:?}: offer accounting broken"
        );
        assert_eq!(ring.offered(), TOTAL_BURSTS * BURST as u64, "{path:?}");
        assert_eq!(
            ring.accepted(),
            consumed,
            "{path:?}: frames lost or duplicated"
        );
        assert_eq!(
            wakes.load(Ordering::Relaxed),
            accepting_bursts,
            "{path:?}: wake hook must fire exactly once per accepting burst"
        );
        assert_eq!(pool.in_use(), 0, "{path:?}: buffers leaked");
    }
}
