//! The lock-free bounded ring (`rte_ring` analogue) behind every
//! [`crate::shared_ring::SharedRing`]: the one Rx ring transport.
//!
//! DPDK's whole premise — the one the Metronome paper leans on — is that
//! retrieval cost dominates the hot path, so `rte_ring` never takes a
//! lock: producers and consumers move batched head/tail indices with
//! relaxed loads and acquire/release publications. [`SpscRing`]
//! reproduces that design: one producer and one consumer *at a time*.
//! Each side owns its index and publishes it with a release store; the
//! opposite side reads it with an acquire load **once per burst**, through
//! a cached copy that is only refreshed when the cached view runs out of
//! space/items — the batched head/tail update of
//! `__rte_ring_move_prod_head`. The paper's shape is one RSS generator
//! feeding one retrieval worker per queue; Metronome's racing workers are
//! serialized per queue by the trylock, and several generator threads
//! (sharded ingest) take turns at the producer guard, once per burst.
//!
//! **Soundness under any number of owners.** The ring is shared through
//! `Arc` and exposes `&self` methods, so the type system cannot prove the
//! one-owner-at-a-time discipline. Instead of an `unsafe` contract
//! leaking into callers, each side is protected by a one-word spin guard
//! acquired **once per operation** (not per item): with one owner the CAS
//! never spins — it is a single uncontended atomic exchange, the same
//! cost DPDK pays to move a head index — and with several the guard
//! serializes them. This mirrors DPDK's own MP path, where a producer
//! spins waiting for earlier producers' tail updates. A burst pop that
//! finds the ring empty says so before taking the guard: it reads two
//! indices and no item, so the guard has nothing to protect.
//!
//! **Ordering contract** (the table DESIGN.md §2 records):
//!
//! | operation | loads | stores |
//! |---|---|---|
//! | push burst | own tail `Relaxed`; head `Acquire` only on apparent-full | slots plain; tail `Release` |
//! | pop burst | own head `Relaxed`; tail `Acquire` only on apparent-shortfall | slots plain; head `Release` |
//! | empty check (`pop_burst`, before the guard) | head `Acquire`, *then* tail `Acquire`; no item read | none: equal means empty, return 0 without the guard |
//! | index hint (`prefetch_indices`) | head `Relaxed`, unguarded: only picks which slot line to ask for | none |
//! | peek (`peek_each`) | consumer guard *tried*, never waited for; own head `Relaxed`; tail `Acquire` | none |
//! | guards | CAS `Acquire` | `Release` (publishes cached indices to the next owner) |
//!
//! **Looking ahead.** A consumer that knows it will drain a ring shortly
//! (an executor shard, one task ahead of the one it is running) can ask
//! for the lines the drain will miss on before it gets there:
//! `prefetch_indices` requests the producer's index line and the slots at
//! the head, and [`SpscRing::peek_each`] shows the first queued items by
//! reference, so the caller can request what *they* point to. Neither
//! moves an index, takes an item or waits for anyone — what the ring
//! holds before and after is the same, item for item.
//!
//! The memory-safety argument is confined to this module; the rest of the
//! crate remains `#[deny(unsafe_code)]`-clean.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Pad-and-align to a cache line so the producer and consumer indices
/// never false-share (the `rte_ring` layout; elsewhere known as
/// `CachePadded`).
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct CacheLine<T>(pub(crate) T);

/// Ask the CPU to start fetching the cache line holding `*at` — with
/// write intent, `rte_prefetch0_write`: `_MM_HINT_ET0` becomes `prefetchw`
/// in a build with the `prfchw` target feature and `prefetcht0` on the
/// x86-64 baseline (DESIGN.md §2, "What crosses cores per packet"). A
/// hint: nothing is read or written, so any pointer will do; a no-op off
/// x86-64. The crate's one prefetch, shared by the rings' index hints and
/// [`crate::mbuf::Mbuf::prefetch_header`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn prefetch_line<T>(at: *const T) {
    use core::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
    // SAFETY: `_mm_prefetch` is `unsafe` only as a `target_feature(sse)`
    // intrinsic, and SSE is part of the x86-64 baseline. The instruction
    // is a hint: it never faults, reads or writes memory architecturally,
    // whatever the address.
    unsafe { _mm_prefetch::<_MM_HINT_ET0>(at.cast::<i8>()) }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn prefetch_line<T>(_at: *const T) {}

/// A one-word spin guard over one *side* (producer or consumer) of a
/// ring: acquired once per burst, free with a single owner, serializing
/// several. Releasing publishes everything the owner wrote (cached
/// indices included) to the next owner.
#[derive(Debug, Default)]
struct SideGuard(AtomicBool);

impl SideGuard {
    #[inline]
    fn acquire(&self) {
        while self
            .0
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
    }

    /// One attempt, no spin: for a caller that would rather go without
    /// than wait (a hint).
    #[inline]
    fn try_acquire(&self) -> bool {
        self.0
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn release(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Releases a [`SideGuard`] on drop: for the one holder that runs caller
/// code (a peek's closure), so a panic there cannot leave the side locked.
struct Held<'a>(&'a SideGuard);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Assert a power-of-two ring capacity (mask indexing, like `rte_ring`).
fn check_capacity(capacity: usize) -> usize {
    assert!(
        capacity > 0 && capacity.is_power_of_two(),
        "ring capacity must be a non-zero power of two, got {capacity}"
    );
    capacity
}

// ---------------------------------------------------------------------------
// SPSC
// ---------------------------------------------------------------------------

/// One producer side: the tail index it owns, plus its cached view of the
/// consumer's head (refreshed with one acquire load per apparent-full).
#[derive(Debug, Default)]
struct ProducerSide {
    /// Next slot to write; monotonically increasing, masked on use.
    tail: AtomicUsize,
    /// The producer's last acquire-read of the consumer head.
    head_cache: AtomicUsize,
    guard: SideGuard,
}

/// One consumer side, mirrored.
#[derive(Debug, Default)]
struct ConsumerSide {
    /// Next slot to read; monotonically increasing, masked on use.
    head: AtomicUsize,
    /// The consumer's last acquire-read of the producer tail.
    tail_cache: AtomicUsize,
    guard: SideGuard,
}

/// A bounded single-producer single-consumer ring with batched
/// acquire/release head/tail updates — the transport under every
/// [`crate::shared_ring::SharedRing`].
///
/// "Single" means *at a time*: distinct threads may take turns on either
/// side (the guard hands the cached indices over with release/acquire
/// ordering). That is the discipline Metronome's trylock enforces on the
/// consumer side, and several producers (sharded ingest) keep it by
/// taking turns at the producer guard, once per burst.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    prod: CacheLine<ProducerSide>,
    cons: CacheLine<ConsumerSide>,
}

// SAFETY: the ring transfers owned `T`s between threads (so `T: Send` is
// required); every slot is written by exactly one side while the indices
// and side guards serialize access to it, so `&SpscRing` may be shared.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Ring holding up to `capacity` items.
    ///
    /// # Panics
    /// If `capacity` is zero or not a power of two.
    pub fn new(capacity: usize) -> Self {
        let capacity = check_capacity(capacity);
        SpscRing {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: capacity - 1,
            prod: CacheLine::default(),
            cons: CacheLine::default(),
        }
    }

    /// Maximum items the ring can hold.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Items currently queued (a racy snapshot, like `rte_ring_count`).
    pub fn len(&self) -> usize {
        let tail = self.prod.0.tail.load(Ordering::Acquire);
        let head = self.cons.0.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True if nothing is queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the ring is at capacity (racy snapshot).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Move the first items of `src` into the ring, in order, as one
    /// batched index update: free space is computed once (refreshing the
    /// cached consumer head only if the cached view looks too full), the
    /// accepted prefix is drained out of `src`, and the new tail is
    /// published with a single release store. Returns how many items were
    /// accepted; the rejected remainder stays in `src`.
    pub fn push_burst(&self, src: &mut Vec<T>) -> usize {
        let want = src.len();
        if want == 0 {
            return 0;
        }
        let side = &self.prod.0;
        side.guard.acquire();
        let tail = side.tail.load(Ordering::Relaxed);
        let mut head = side.head_cache.load(Ordering::Relaxed);
        if self.capacity() - tail.wrapping_sub(head) < want {
            head = self.cons.0.head.load(Ordering::Acquire);
            side.head_cache.store(head, Ordering::Relaxed);
        }
        let free = self.capacity() - tail.wrapping_sub(head);
        let n = want.min(free);
        for (i, value) in src.drain(..n).enumerate() {
            // SAFETY: slots [tail, tail+n) are at or past the consumer
            // head plus capacity, so the consumer is done with them; the
            // producer guard makes us the only writer.
            unsafe {
                (*self.slots[tail.wrapping_add(i) & self.mask].get()).write(value);
            }
        }
        // Publish the filled slots: pairs with the consumer's acquire
        // load of the tail.
        side.tail.store(tail.wrapping_add(n), Ordering::Release);
        side.guard.release();
        n
    }

    /// Push one item, or hand it back if the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let side = &self.prod.0;
        side.guard.acquire();
        let tail = side.tail.load(Ordering::Relaxed);
        let mut head = side.head_cache.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) == self.capacity() {
            head = self.cons.0.head.load(Ordering::Acquire);
            side.head_cache.store(head, Ordering::Relaxed);
        }
        let result = if tail.wrapping_sub(head) == self.capacity() {
            Err(value)
        } else {
            // SAFETY: as in `push_burst` — slot is consumer-free and the
            // guard makes us the only writer.
            unsafe {
                (*self.slots[tail & self.mask].get()).write(value);
            }
            side.tail.store(tail.wrapping_add(1), Ordering::Release);
            Ok(())
        };
        side.guard.release();
        result
    }

    /// Pop up to `max` items into `out` (appended), in order, as one
    /// batched index update: availability is computed once (refreshing the
    /// cached producer tail only if the cached view falls short of `max`),
    /// and the new head is published with a single release store. Returns
    /// how many items were taken.
    pub fn pop_burst(&self, out: &mut Vec<T>, max: usize) -> usize {
        let side = &self.cons.0;
        // The empty check, before the guard: own head, *then* the producer
        // tail. The head never passes the tail, so equal values mean the
        // ring was empty when the tail was read, even with a misused second
        // consumer moving the head in between. Two plain loads on x86-64
        // and no slot touched: the poll that ends a drain, and every poll
        // of an idle queue, pay no locked instruction.
        let head = side.head.load(Ordering::Acquire);
        if max == 0 || head == self.prod.0.tail.load(Ordering::Acquire) {
            return 0;
        }
        side.guard.acquire();
        let head = side.head.load(Ordering::Relaxed);
        let mut tail = side.tail_cache.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) < max {
            tail = self.prod.0.tail.load(Ordering::Acquire);
            side.tail_cache.store(tail, Ordering::Relaxed);
        }
        let n = tail.wrapping_sub(head).min(max);
        out.reserve(n);
        for i in 0..n {
            // SAFETY: slots [head, head+n) are at or before the
            // acquire-observed producer tail, so their writes are visible
            // and complete; the consumer guard makes us the only reader,
            // and advancing the head below transfers ownership out.
            unsafe {
                out.push((*self.slots[head.wrapping_add(i) & self.mask].get()).assume_init_read());
            }
        }
        // Publish the freed slots: pairs with the producer's acquire load
        // of the head.
        side.head.store(head.wrapping_add(n), Ordering::Release);
        side.guard.release();
        n
    }

    /// Pop the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        let side = &self.cons.0;
        side.guard.acquire();
        let head = side.head.load(Ordering::Relaxed);
        let mut tail = side.tail_cache.load(Ordering::Relaxed);
        if tail == head {
            tail = self.prod.0.tail.load(Ordering::Acquire);
            side.tail_cache.store(tail, Ordering::Relaxed);
        }
        let result = if tail == head {
            None
        } else {
            // SAFETY: as in `pop_burst`.
            let value = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
            side.head.store(head.wrapping_add(1), Ordering::Release);
            Some(value)
        };
        side.guard.release();
        result
    }

    /// Hint that a pop is coming: start fetching the two things it will
    /// miss on when the producer runs on another core — the producer's
    /// index line, and the line(s) of the first `slots` slots at the head.
    /// Takes no guard and moves nothing; the head is read `Relaxed` only
    /// to choose which slots to ask for, so a stale value costs a wasted
    /// prefetch, never a wrong answer.
    #[inline]
    pub fn prefetch_indices(&self, slots: usize) {
        prefetch_line(&self.prod.0.tail);
        let head = self.cons.0.head.load(Ordering::Relaxed);
        for i in 0..slots.min(self.capacity()) {
            prefetch_line(self.slots[head.wrapping_add(i) & self.mask].get());
        }
    }

    /// Show `f` the first queued items, oldest first, up to `max` of
    /// them, without taking them: what the next pops will return. Returns
    /// how many were shown — 0 also when the consumer side is in use right
    /// now, because a peek never waits for a pop to finish. The
    /// references are good only inside `f`.
    #[inline]
    pub fn peek_each(&self, max: usize, mut f: impl FnMut(&T)) -> usize {
        let side = &self.cons.0;
        // An empty ring (by the same racy snapshot `len` takes) is not
        // worth the guard's CAS: an idle poller peeks at nothing for two
        // loads.
        if max == 0 || self.is_empty() || !side.guard.try_acquire() {
            return 0;
        }
        let _held = Held(&side.guard);
        let head = side.head.load(Ordering::Relaxed);
        let tail = self.prod.0.tail.load(Ordering::Acquire);
        let n = tail.wrapping_sub(head).min(max);
        for i in 0..n {
            // SAFETY: slots [head, head+n) are at or before the
            // acquire-observed producer tail, so they hold complete,
            // published values, and the producer does not write a slot
            // again until the head has moved past it. The head moves only
            // under the consumer guard, which we hold until `_held` drops
            // — after the last `&T` handed to `f` is dead. The items are
            // only borrowed: ownership stays with the ring.
            f(unsafe { (*self.slots[head.wrapping_add(i) & self.mask].get()).assume_init_ref() });
        }
        n
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent access; drop whatever is still queued.
        let head = self.cons.0.head.load(Ordering::Relaxed);
        let tail = self.prod.0.tail.load(Ordering::Relaxed);
        for i in 0..tail.wrapping_sub(head) {
            // SAFETY: [head, tail) are exactly the initialized,
            // not-yet-consumed slots.
            unsafe {
                (*self.slots[head.wrapping_add(i) & self.mask].get()).assume_init_drop();
            }
        }
    }
}

impl<T> std::fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    #[test]
    fn spsc_fifo_and_boundaries() {
        let r = SpscRing::new(4);
        assert!(r.is_empty());
        assert!(r.push(1).is_ok());
        assert!(r.push(2).is_ok());
        assert!(r.push(3).is_ok());
        assert!(r.push(4).is_ok());
        assert!(r.is_full());
        assert_eq!(r.push(5), Err(5));
        assert_eq!(r.pop(), Some(1));
        assert!(r.push(5).is_ok(), "freed slot must be reusable");
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.pop(), Some(5));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn spsc_burst_roundtrip_wraps() {
        let r = SpscRing::new(8);
        let mut out = Vec::new();
        // Many laps around the ring to exercise index wrapping.
        let mut next = 0u64;
        for _ in 0..100 {
            let mut burst: Vec<u64> = (next..next + 6).collect();
            assert_eq!(r.push_burst(&mut burst), 6);
            assert!(burst.is_empty());
            next += 6;
            assert_eq!(r.pop_burst(&mut out, 6), 6);
        }
        assert_eq!(out.len(), 600);
        assert!(out.windows(2).all(|w| w[1] == w[0] + 1), "FIFO violated");
    }

    #[test]
    fn spsc_burst_rejects_overflow_in_src() {
        let r = SpscRing::new(4);
        let mut burst: Vec<u32> = (0..7).collect();
        assert_eq!(r.push_burst(&mut burst), 4);
        assert_eq!(burst, vec![4, 5, 6], "rejected tail must stay in src");
        let mut out = Vec::new();
        assert_eq!(r.pop_burst(&mut out, 16), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn spsc_two_threads_conserve_and_order() {
        const N: u64 = 200_000;
        let r = Arc::new(SpscRing::new(64));
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut pending: Vec<u64> = Vec::new();
                let mut next = 0u64;
                while next < N || !pending.is_empty() {
                    while pending.len() < 32 && next < N {
                        pending.push(next);
                        next += 1;
                    }
                    if r.push_burst(&mut pending) == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let mut got = Vec::with_capacity(N as usize);
        let mut scratch = Vec::new();
        while got.len() < N as usize {
            if r.pop_burst(&mut scratch, 32) == 0 {
                std::thread::yield_now();
            }
            got.append(&mut scratch);
        }
        producer.join().unwrap();
        assert_eq!(got.len() as u64, N);
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1), "FIFO violated");
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn spsc_drops_queued_items_on_drop() {
        // Drop counting via Arc strong counts.
        let tracker = Arc::new(());
        {
            let r = SpscRing::new(8);
            for _ in 0..5 {
                r.push(Arc::clone(&tracker)).unwrap();
            }
            let _ = r.pop();
            assert_eq!(Arc::strong_count(&tracker), 5);
        }
        assert_eq!(Arc::strong_count(&tracker), 1, "queued items leaked");
    }

    #[test]
    fn spsc_many_producers_conserve() {
        // Sharded ingest: several producers take turns at the producer
        // guard, one burst each, and lose or duplicate nothing. The ring
        // holds every item, so the producers never wait on the consumer:
        // any two running at once push side by side (the root suite's
        // stress test runs a shallow ring).
        const PRODUCERS: u64 = 4;
        const PER: u64 = 50_000;
        let r = Arc::new(SpscRing::new((PRODUCERS * PER).next_power_of_two() as usize));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut pending: Vec<u64> = Vec::with_capacity(3);
                    let mut next = p * PER;
                    while next < (p + 1) * PER || !pending.is_empty() {
                        while pending.len() < 3 && next < (p + 1) * PER {
                            pending.push(next);
                            next += 1;
                        }
                        if r.push_burst(&mut pending) == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let total = PRODUCERS * PER;
        let mut got: Vec<u64> = Vec::with_capacity(total as usize);
        let mut scratch = Vec::new();
        // Drain until every producer has returned (or panicked) and a
        // later poll finds the ring empty: a lost or duplicated item fails
        // the test instead of stalling the drain.
        loop {
            let done = handles.iter().all(|h| h.is_finished());
            if r.pop_burst(&mut scratch, 64) == 0 {
                if done {
                    break;
                }
                std::thread::yield_now();
            }
            got.append(&mut scratch);
            assert!(got.len() as u64 <= total, "duplicated items");
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len() as u64, total, "lost or duplicated items");
        // Conservation: every value exactly once.
        got.sort_unstable();
        assert!(got.iter().copied().eq(0..total), "lost or duplicated items");
        // Per-producer FIFO is checked in the root lockfree stress suite
        // with interleaving-sensitive payloads.
        assert_eq!(r.pop(), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn spsc_rejects_non_power_of_two() {
        SpscRing::<u32>::new(48);
    }

    /// An SPSC ring whose indices start `back` items short of wrapping
    /// `usize`, so a short test crosses the wraparound.
    fn spsc_near_wrap<T>(capacity: usize, back: usize) -> SpscRing<T> {
        let r = SpscRing::new(capacity);
        let start = 0usize.wrapping_sub(back);
        for index in [&r.prod.0.tail, &r.prod.0.head_cache] {
            index.store(start, Ordering::Relaxed);
        }
        for index in [&r.cons.0.head, &r.cons.0.tail_cache] {
            index.store(start, Ordering::Relaxed);
        }
        r
    }

    /// What a peek of up to `max` shows.
    fn peeked(r: &SpscRing<u32>, max: usize) -> Vec<u32> {
        let mut seen = Vec::new();
        let shown = r.peek_each(max, |&item| seen.push(item));
        assert_eq!(shown, seen.len());
        seen
    }

    proptest! {
        /// A hint or a peek never changes what the ring holds: any
        /// interleaving of push / push_burst / hint / peek / pop /
        /// pop_burst agrees with a `VecDeque` — same items, same order,
        /// same `len` — at capacity 2 (full or empty at every step) and
        /// across the index wraparound.
        #[test]
        fn spsc_hints_and_peeks_leave_the_ring_as_the_model_has_it(
            shape in (0usize..2, 0usize..6),
            ops in prop::collection::vec((0u8..6, 0usize..7), 1..300),
        ) {
            let (capacity, back) = ([2usize, 8][shape.0], shape.1);
            let r = spsc_near_wrap::<u32>(capacity, back);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            let mut out = Vec::new();
            for (op, arg) in ops {
                match op {
                    0 => {
                        let pushed = r.push(next);
                        prop_assert_eq!(pushed.is_ok(), model.len() < capacity);
                        if pushed.is_ok() {
                            model.push_back(next);
                        }
                        next += 1;
                    }
                    1 => {
                        let mut src: Vec<u32> = (next..next + arg as u32).collect();
                        next += arg as u32;
                        let accepted = r.push_burst(&mut src);
                        prop_assert_eq!(accepted, arg.min(capacity - model.len()));
                        model.extend(next - arg as u32..next - (arg - accepted) as u32);
                    }
                    2 => r.prefetch_indices(arg),
                    3 => {
                        let expected: Vec<u32> = model.iter().copied().take(arg).collect();
                        prop_assert_eq!(peeked(&r, arg), expected);
                    }
                    4 => prop_assert_eq!(r.pop(), model.pop_front()),
                    _ => {
                        out.clear();
                        let taken = r.pop_burst(&mut out, arg);
                        let expected: Vec<u32> = model.drain(..arg.min(model.len())).collect();
                        prop_assert_eq!(taken, expected.len());
                        prop_assert_eq!(&out, &expected);
                    }
                }
                prop_assert_eq!(r.len(), model.len());
            }
            // Whatever was peeked along the way is still there to pop.
            out.clear();
            r.pop_burst(&mut out, capacity);
            prop_assert_eq!(out, Vec::from(model));
        }

    }

    #[test]
    fn a_peeked_item_is_dropped_once_with_the_ring() {
        let tracker = Arc::new(());
        {
            // Five queued across the index wraparound, one popped.
            let r = spsc_near_wrap(8, 2);
            for _ in 0..5 {
                r.push(Arc::clone(&tracker)).unwrap();
            }
            let _ = r.pop();
            let mut shown = 0;
            // A peek lends: nothing is cloned, nothing moves out.
            r.peek_each(3, |item| shown += usize::from(Arc::ptr_eq(item, &tracker)));
            assert_eq!(shown, 3);
            assert_eq!(
                Arc::strong_count(&tracker),
                5,
                "a peek took or copied an item"
            );
        }
        assert_eq!(
            Arc::strong_count(&tracker),
            1,
            "peeked items leaked or dropped twice"
        );
    }

    /// Run `poll` on a thread of its own; its answer arrives on the
    /// returned channel. Waited for with a deadline, a poll stuck spinning
    /// on a held guard fails the test instead of hanging the suite.
    fn spawn_poll(
        poll: impl FnOnce() -> usize + Send + 'static,
    ) -> std::sync::mpsc::Receiver<usize> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(poll());
        });
        rx
    }

    #[test]
    fn an_empty_poll_never_waits_for_the_consumer_guard() {
        use std::time::Duration;
        const DEADLINE: Duration = Duration::from_secs(1);
        let r = Arc::new(SpscRing::<u32>::new(4));
        // A lap and a half of traffic first, so the indices sit past a
        // wrap of the slot array.
        let mut out = Vec::new();
        for i in 0..6 {
            r.push(i).unwrap();
            assert_eq!(r.pop_burst(&mut out, 32), 1);
        }
        let poll = || {
            let r = Arc::clone(&r);
            spawn_poll(move || r.pop_burst(&mut Vec::new(), 32))
        };
        // A pop in progress on another thread, as the poll sees it.
        r.cons.0.guard.acquire();
        let answer = poll().recv_timeout(DEADLINE);
        assert_eq!(answer, Ok(0), "an empty poll waited for the guard");
        // Not vacuous: with an item queued the same poll is a pop, and
        // waits for the guard like one.
        r.push(7).unwrap();
        let pending = poll();
        let early = pending.recv_timeout(Duration::from_millis(20));
        assert!(early.is_err(), "a pop went past a held guard");
        r.cons.0.guard.release();
        assert_eq!(pending.recv_timeout(DEADLINE), Ok(1));
    }

    #[test]
    fn a_peek_goes_without_when_the_consumer_side_is_in_use() {
        let r = SpscRing::new(4);
        r.push(7u32).unwrap();
        // A pop in progress on another thread, as the peek sees it.
        r.cons.0.guard.acquire();
        assert_eq!(
            peeked(&r, 4),
            [],
            "a peek waited for, or ignored, the guard"
        );
        r.cons.0.guard.release();
        assert_eq!(peeked(&r, 4), [7]);
        // A panic in the caller's closure gives the side back.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.peek_each(4, |_| panic!("caller bug"))
        }));
        assert!(caught.is_err());
        assert_eq!(r.pop(), Some(7), "the consumer side stayed locked");
    }
}
