//! Shared packet-buffer pool (`rte_mempool` analogue) with per-worker
//! caches.
//!
//! DPDK pre-allocates all mbufs from hugepage-backed pools shared by every
//! lcore; running out of pool buffers is a first-class failure mode (Rx
//! stalls even though the ring has descriptors). The pool here reproduces
//! that bounded-allocation discipline for the whole pipeline: a fixed
//! population of buffers of fixed capacity, O(1) alloc/free, exhaustion
//! accounting — and, since the realtime pipeline allocates on the producer
//! thread and recycles on the worker threads, the pool is a cheaply
//! clonable handle ([`Mempool`] is `Arc`-shared internally) whose every
//! method takes `&self`.
//!
//! **Burst discipline.** The freelist sits behind one short-critical-
//! section lock. The shared burst paths — [`Mempool::alloc_burst`] and
//! [`Mempool::free_burst`] — take the freelist lock *once per burst*.
//!
//! **Per-worker caches.** The lock-free tier above that is
//! [`MempoolCache`] (`rte_mempool`'s per-lcore cache): each thread owns a
//! private stack of buffers, so its alloc/free is a plain `Vec` push/pop
//! and a count kept in the cache itself — no lock, and no store to any
//! cache line another thread reads or writes. The cache refills from and
//! spills to the shared freelist in cache-sized chunks (refill pulls up to
//! `2C`, spill triggers at `1.5C` and drains back to `C`, DPDK's
//! flush-threshold scheme), so the lock is touched once per *C buffers*,
//! not once per burst.
//!
//! **Accounting settles at the freelist transaction.** Every counter of
//! the pool lives in one ledger that is written only with the freelist
//! lock held — once per critical section — and read lock-free. A
//! direct [`Mempool`] call is its own transaction, so a pool used without
//! caches is exact after every call. A cache's hits accumulate privately
//! and reach the ledger with its next refill, spill or flush, so between
//! those [`Mempool::counters`] lag by the cache's unsettled hits,
//! [`Mempool::cached`] holds each cache's depth as of its last
//! transaction, and [`Mempool::in_use`] is off by at most the buffers
//! that passed through cache hits since (under a cache's capacity each:
//! over-reading while a recycler's frees are unsettled, under-reading
//! while an allocator's hits are). Whatever the interleaving,
//! [`Mempool::available`] and [`Mempool::in_use`] are derived so that
//! they sum to the population and neither can wrap; once every cache has
//! flushed (or dropped) every figure is exact — which is when the pool
//! audits read them.

use crate::fastring::CacheLine;
use crate::mbuf::Mbuf;
use bytes::BytesMut;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot of a pool's counters (for reports: pool sizing visibility).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Total buffers the pool owns.
    pub population: u64,
    /// Successful allocations so far.
    pub allocs: u64,
    /// Buffers returned so far.
    pub frees: u64,
    /// Allocations that failed because the pool was empty.
    pub alloc_failures: u64,
    /// Highest number of buffers simultaneously handed out.
    pub in_use_peak: u64,
    /// Buffers currently parked in per-worker caches.
    pub cached: u64,
}

/// The sampler-visible gauge of one per-worker cache (how many buffers it
/// currently parks). Written only by the owning cache thread with plain
/// relaxed stores; read by anyone. On a cache line of its own: the slots
/// of a run's caches are allocated back to back, and two of them sharing
/// a line would have the generator and a worker invalidate each other on
/// every burst.
#[repr(align(64))]
struct CacheSlot {
    cached: AtomicU64,
}

/// The ledger side: every counter, apart from the lock's line so that a
/// sampler reading it never delays a refill or spill. Written only by
/// [`PoolShared::settle`] — with the freelist lock held, so plain
/// load/store pairs suffice — and read lock-free.
#[repr(align(64))]
struct Ledger {
    /// Mirror of the freelist's length.
    free_count: AtomicU64,
    /// Σ buffers parked in per-worker caches, each as of its cache's last
    /// transaction (cached buffers are *available*, not in flight —
    /// `rte_mempool_avail_count` semantics).
    cached_total: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
    alloc_failures: AtomicU64,
    in_use_peak: AtomicU64,
}

/// What one freelist critical section adds to the ledger.
#[derive(Default)]
struct Settlement {
    allocs: u64,
    frees: u64,
    failures: u64,
    /// Change in the settling cache's parked depth.
    cached: i64,
}

struct PoolShared {
    /// The freelist side of the pool: the lock and the buffers behind it,
    /// on a line of their own.
    freelist: CacheLine<Mutex<Vec<BytesMut>>>,
    ledger: Ledger,
    /// Live per-cache gauges, for telemetry enumeration.
    caches: Mutex<Vec<Arc<CacheSlot>>>,
    buf_capacity: usize,
    population: usize,
}

#[cfg(debug_assertions)]
thread_local! {
    static SHARED_TOUCHES: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

/// How many times the current thread has written the pool's shared ledger
/// (debug builds only): one per freelist critical section, none on a
/// cache hit. Tests take the difference across the code under test.
#[cfg(debug_assertions)]
pub fn shared_touches() -> u64 {
    SHARED_TOUCHES.with(core::cell::Cell::get)
}

impl PoolShared {
    /// Buffers not in flight, as the ledger has them — clamped, because
    /// the parked depths are as of each cache's last transaction and a
    /// buffer that has since moved on through cache hits can be counted
    /// twice (or, between the two loads, a refill can move a chunk).
    fn available(&self) -> u64 {
        let idle = self.ledger.free_count.load(Ordering::Relaxed)
            + self.ledger.cached_total.load(Ordering::Relaxed);
        idle.min(self.population as u64)
    }

    /// Apply one freelist critical section to the ledger. `free` is the
    /// locked freelist as the section leaves it; holding its lock is what
    /// makes the load/store pairs below race-free.
    fn settle(&self, free: &[BytesMut], delta: Settlement) {
        #[cfg(debug_assertions)]
        SHARED_TOUCHES.with(|n| n.set(n.get() + 1));
        let bump = |counter: &AtomicU64, by: u64| {
            counter.store(
                counter.load(Ordering::Relaxed).wrapping_add(by),
                Ordering::Relaxed,
            );
        };
        let ledger = &self.ledger;
        ledger
            .free_count
            .store(free.len() as u64, Ordering::Relaxed);
        // Two's complement: a negative change wraps to the right sum.
        bump(&ledger.cached_total, delta.cached as u64);
        bump(&ledger.allocs, delta.allocs);
        bump(&ledger.frees, delta.frees);
        bump(&ledger.alloc_failures, delta.failures);
        // The peak is sampled here, from the same derived figure
        // `in_use()` reports, so it can never exceed the population.
        let in_use = self.population as u64 - self.available();
        if in_use > ledger.in_use_peak.load(Ordering::Relaxed) {
            ledger.in_use_peak.store(in_use, Ordering::Relaxed);
        }
    }
}

/// Fixed-population shared buffer pool. Cloning the handle shares the
/// pool, like passing an `rte_mempool*` between lcores.
#[derive(Clone)]
pub struct Mempool {
    shared: Arc<PoolShared>,
}

impl Mempool {
    /// Pool of `population` buffers, each able to hold `buf_capacity` bytes
    /// (DPDK's default dataroom is 2048).
    pub fn new(population: usize, buf_capacity: usize) -> Self {
        assert!(population > 0, "empty pool");
        Mempool {
            shared: Arc::new(PoolShared {
                freelist: CacheLine(Mutex::new(
                    (0..population)
                        .map(|_| BytesMut::with_capacity(buf_capacity))
                        .collect(),
                )),
                ledger: Ledger {
                    free_count: AtomicU64::new(population as u64),
                    cached_total: AtomicU64::new(0),
                    allocs: AtomicU64::new(0),
                    frees: AtomicU64::new(0),
                    alloc_failures: AtomicU64::new(0),
                    in_use_peak: AtomicU64::new(0),
                },
                caches: Mutex::new(Vec::new()),
                buf_capacity,
                population,
            }),
        }
    }

    /// Total buffers the pool owns.
    pub fn population(&self) -> usize {
        self.shared.population
    }

    /// Per-buffer byte capacity (the dataroom).
    pub fn buf_capacity(&self) -> usize {
        self.shared.buf_capacity
    }

    /// Buffers currently available — on the shared freelist or parked in
    /// per-worker caches (`rte_mempool_avail_count` counts both). A
    /// lock-free read: two relaxed loads, never the freelist lock, so
    /// telemetry sampling cannot contend with the hot path. Never above
    /// the population; exact once every cache has flushed, and within the
    /// caches' unsettled hits before (see the module docs).
    pub fn available(&self) -> usize {
        self.shared.available() as usize
    }

    /// Buffers parked in per-worker caches, each cache as of its last
    /// refill, spill or flush (lock-free read).
    pub fn cached(&self) -> usize {
        self.shared.ledger.cached_total.load(Ordering::Relaxed) as usize
    }

    /// Per-cache occupancy gauges, one per live [`MempoolCache`], in
    /// registration order (the telemetry sampler's cache column). These
    /// are current: each cache publishes its own depth after every call.
    pub fn cached_per_cache(&self) -> Vec<u64> {
        self.shared
            .caches
            .lock()
            .iter()
            .map(|slot| slot.cached.load(Ordering::Relaxed))
            .collect()
    }

    /// Buffers currently handed out: the population less
    /// [`Mempool::available`], so the two always sum to the population
    /// and this can read neither negative nor above it.
    pub fn in_use(&self) -> usize {
        self.shared.population - self.available()
    }

    /// Highest [`Mempool::in_use`] any freelist transaction has left
    /// behind. A cache's refill settles as of *after* the allocation that
    /// caused it, so an allocation that drains the pool registers the full
    /// population; hits between transactions are not sampled.
    pub fn in_use_peak(&self) -> usize {
        self.shared.ledger.in_use_peak.load(Ordering::Relaxed) as usize
    }

    /// Times an allocation failed because the pool was empty.
    pub fn alloc_failures(&self) -> u64 {
        self.shared.ledger.alloc_failures.load(Ordering::Relaxed)
    }

    /// (allocations, frees) counters, as settled.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.shared.ledger.allocs.load(Ordering::Relaxed),
            self.shared.ledger.frees.load(Ordering::Relaxed),
        )
    }

    /// All counters in one snapshot (for reports).
    pub fn stats(&self) -> MempoolStats {
        let (allocs, frees) = self.counters();
        MempoolStats {
            population: self.shared.population as u64,
            allocs,
            frees,
            alloc_failures: self.alloc_failures(),
            in_use_peak: self.in_use_peak() as u64,
            cached: self.cached() as u64,
        }
    }

    /// A per-worker cache of up to ~`2 * size` buffers (DPDK's per-lcore
    /// cache; `size` is `C` in the refill/spill scheme). Hand one to each
    /// thread that allocates or frees on the hot path; drop it (or
    /// [`MempoolCache::flush`]) to return the parked buffers. Sized so
    /// `size` matches the thread's burst: a warm cache then serves whole
    /// bursts without touching the freelist lock.
    pub fn cache(&self, size: usize) -> MempoolCache {
        assert!(size > 0, "zero-sized mempool cache");
        let slot = Arc::new(CacheSlot {
            cached: AtomicU64::new(0),
        });
        self.shared.caches.lock().push(Arc::clone(&slot));
        MempoolCache {
            pool: self.clone(),
            slot,
            stack: Vec::with_capacity(2 * size),
            size,
            account: CacheAccount::default(),
        }
    }

    /// Allocate an empty mbuf, or `None` if the pool is exhausted.
    pub fn alloc(&self) -> Option<Mbuf> {
        let mut buf = {
            let mut free = self.shared.freelist.0.lock();
            let buf = free.pop();
            self.shared.settle(
                &free,
                Settlement {
                    allocs: u64::from(buf.is_some()),
                    failures: u64::from(buf.is_none()),
                    ..Settlement::default()
                },
            );
            buf
        }?;
        buf.clear();
        Some(Mbuf::from_bytes(buf))
    }

    /// Allocate and fill with `frame` bytes. Fails if the pool is empty or
    /// the frame exceeds the pool's buffer capacity (a too-long frame does
    /// not consume a buffer and is not counted as an exhaustion failure).
    pub fn alloc_with(&self, frame: &[u8]) -> Option<Mbuf> {
        if frame.len() > self.shared.buf_capacity {
            return None;
        }
        let mut m = self.alloc()?;
        m.refill(frame);
        Some(m)
    }

    /// Allocate up to `n` empty mbufs in one freelist critical section,
    /// appending them to `out`. Returns how many were obtained; the
    /// shortfall is counted as exhaustion failures.
    pub fn alloc_burst(&self, n: usize, out: &mut Vec<Mbuf>) -> usize {
        let mut free = self.shared.freelist.0.lock();
        let got = n.min(free.len());
        let keep = free.len() - got;
        out.extend(free.drain(keep..).rev().map(|mut buf| {
            buf.clear();
            Mbuf::from_bytes(buf)
        }));
        self.shared.settle(
            &free,
            Settlement {
                allocs: got as u64,
                failures: (n - got) as u64,
                ..Settlement::default()
            },
        );
        got
    }

    /// Return an mbuf's buffer to the pool.
    ///
    /// # Panics
    /// In debug builds, if more buffers are freed than were allocated
    /// (double free).
    pub fn free(&self, mbuf: Mbuf) {
        self.free_burst(std::iter::once(mbuf));
    }

    /// Return any number of mbufs in one freelist critical section (the
    /// recycle half of the burst discipline). Buffers are cleared before
    /// they re-enter the freelist.
    ///
    /// The iterator is consumed *while the freelist lock is held*: it
    /// must not call back into this pool (alloc, free, or even a cache
    /// spill) or it will self-deadlock on the non-reentrant mutex. Pass
    /// plain ownership transfers — `vec.drain(..)`, `once(mbuf)` — as
    /// every in-tree caller does.
    ///
    /// # Panics
    /// In debug builds, if the freelist would exceed the population
    /// (double free).
    pub fn free_burst(&self, mbufs: impl IntoIterator<Item = Mbuf>) {
        let mut free = self.shared.freelist.0.lock();
        let before = free.len();
        for mut mbuf in mbufs {
            debug_assert!(
                free.len() < self.shared.population,
                "mempool over-free (double free?)"
            );
            let mut buf = mbuf.take_data();
            buf.clear();
            free.push(buf);
        }
        // The hand-back is on the books before the lock is released: once
        // the buffers are re-allocatable they no longer count as in use.
        let frees = (free.len() - before) as u64;
        if frees > 0 {
            self.shared.settle(
                &free,
                Settlement {
                    frees,
                    ..Settlement::default()
                },
            );
        }
    }
}

/// A per-worker allocation cache (`rte_mempool`'s per-lcore cache): a
/// thread-private stack of pool buffers. Alloc and free on a warm cache
/// are a `Vec` pop/push and a private count — no lock, no shared cache
/// line. The cache exchanges buffers with the shared freelist in chunks:
/// an empty cache refills to `size` beyond the current need; a cache past
/// `1.5 * size` spills down to `size` (DPDK's flush threshold). Each such
/// exchange also settles the cache's hits since the last one into the
/// pool's counters (see the module docs). Bursts larger than `2 * size`
/// bypass the cache entirely and hit the shared burst path.
///
/// Owned, not clonable: one per thread, like one per lcore. Dropping it
/// flushes the parked buffers back to the freelist and settles its
/// account, so a worker that exits returns everything it held — pool
/// audits (`in_use() == 0` at quiescence) hold without extra ceremony.
pub struct MempoolCache {
    pool: Mempool,
    slot: Arc<CacheSlot>,
    stack: Vec<BytesMut>,
    size: usize,
    account: CacheAccount,
}

/// A cache's private books: what it has served from its stack since it
/// last took the freelist lock, and what the pool's ledger holds for it.
#[derive(Default)]
struct CacheAccount {
    unsettled_allocs: u64,
    unsettled_frees: u64,
    /// The parked depth the ledger's `cached_total` counts for this cache.
    settled_depth: usize,
}

impl CacheAccount {
    /// Settle inside a freelist critical section (`free` is the locked
    /// list): the unsettled hits, `allocs` more hand-outs the cache is
    /// about to serve, and the parked `depth` those leave it with.
    fn settle(
        &mut self,
        shared: &PoolShared,
        free: &[BytesMut],
        depth: usize,
        allocs: usize,
        failures: usize,
    ) {
        shared.settle(
            free,
            Settlement {
                allocs: self.unsettled_allocs + allocs as u64,
                frees: self.unsettled_frees,
                failures: failures as u64,
                cached: depth as i64 - self.settled_depth as i64,
            },
        );
        *self = CacheAccount {
            settled_depth: depth,
            ..CacheAccount::default()
        };
    }
}

impl MempoolCache {
    /// The pool this cache draws from.
    pub fn pool(&self) -> &Mempool {
        &self.pool
    }

    /// Buffers currently parked in this cache.
    pub fn cached(&self) -> usize {
        self.stack.len()
    }

    /// The cache's nominal size `C` (refill target and spill floor).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Publish the new stack depth to the sampler-visible gauge (a plain
    /// relaxed store to this cache's own line; this thread is the only
    /// writer).
    fn publish_gauge(&self) {
        self.slot
            .cached
            .store(self.stack.len() as u64, Ordering::Relaxed);
    }

    /// Account for handing out up to `n` buffers from the top of the
    /// stack and return how many there are to hand out (fewer than `n`
    /// only when the pool is drained; the shortfall is counted as
    /// exhaustion failures). A hit is a private count; a miss refills in
    /// one freelist critical section — up to `size` beyond the need, so
    /// the next bursts hit — and settles as of after this hand-out.
    fn reserve(&mut self, n: usize) -> usize {
        if self.stack.len() >= n {
            self.account.unsettled_allocs += n as u64;
            return n;
        }
        let shared = &*self.pool.shared;
        let mut free = shared.freelist.0.lock();
        let want = n + self.size - self.stack.len();
        let keep = free.len().saturating_sub(want);
        self.stack.extend(free.drain(keep..).rev());
        let got = n.min(self.stack.len());
        self.account
            .settle(shared, &free, self.stack.len() - got, got, n - got);
        got
    }

    /// Return the top `count` buffers of the stack to the freelist and
    /// settle, in one critical section.
    fn spill(&mut self, count: usize) {
        let shared = &*self.pool.shared;
        let mut free = shared.freelist.0.lock();
        for buf in self.stack.drain(self.stack.len() - count..) {
            debug_assert!(
                free.len() < shared.population,
                "mempool over-free (double free?)"
            );
            free.push(buf);
        }
        self.account.settle(shared, &free, self.stack.len(), 0, 0);
    }

    /// Allocate an empty mbuf from the cache (lock-free when warm), or
    /// `None` if cache and pool are both exhausted.
    pub fn alloc(&mut self) -> Option<Mbuf> {
        if self.reserve(1) == 0 {
            return None;
        }
        let mut buf = self.stack.pop().expect("reserved one buffer");
        self.publish_gauge();
        buf.clear();
        Some(Mbuf::from_bytes(buf))
    }

    /// Allocate and fill with `frame` bytes (see [`Mempool::alloc_with`]).
    pub fn alloc_with(&mut self, frame: &[u8]) -> Option<Mbuf> {
        if frame.len() > self.pool.buf_capacity() {
            return None;
        }
        let mut m = self.alloc()?;
        m.refill(frame);
        Some(m)
    }

    /// Allocate up to `n` empty mbufs, appending them to `out`: from the
    /// cache when `n` is burst-sized (lock-free when warm, one refill
    /// otherwise), straight from the shared pool when `n > 2 * size`.
    /// Returns how many were obtained; the shortfall is counted as
    /// exhaustion failures.
    pub fn alloc_burst(&mut self, n: usize, out: &mut Vec<Mbuf>) -> usize {
        if n > 2 * self.size {
            return self.pool.alloc_burst(n, out);
        }
        let got = self.reserve(n);
        for mut buf in self.stack.drain(self.stack.len() - got..) {
            buf.clear();
            out.push(Mbuf::from_bytes(buf));
        }
        self.publish_gauge();
        got
    }

    /// Return one mbuf to the cache (lock-free below the flush
    /// threshold).
    pub fn free(&mut self, mbuf: Mbuf) {
        self.free_burst(std::iter::once(mbuf));
    }

    /// Return any number of mbufs to the cache, spilling past the flush
    /// threshold (`1.5 * size`, down to `size`) in one critical section.
    /// Buffers are cleared before they re-enter circulation.
    pub fn free_burst(&mut self, mbufs: impl IntoIterator<Item = Mbuf>) {
        let before = self.stack.len();
        for mut mbuf in mbufs {
            let mut buf = mbuf.take_data();
            buf.clear();
            self.stack.push(buf);
        }
        self.account.unsettled_frees += (self.stack.len() - before) as u64;
        if self.stack.len() > self.size + self.size / 2 {
            self.spill(self.stack.len() - self.size);
        }
        self.publish_gauge();
    }

    /// Return every parked buffer to the shared freelist and settle this
    /// cache's account (the cache stays usable and will refill on the
    /// next alloc).
    pub fn flush(&mut self) {
        let account = &self.account;
        if self.stack.is_empty() && account.unsettled_allocs == 0 && account.unsettled_frees == 0 {
            return;
        }
        self.spill(self.stack.len());
        self.publish_gauge();
    }
}

impl Drop for MempoolCache {
    fn drop(&mut self) {
        self.flush();
        let slot = &self.slot;
        self.pool
            .shared
            .caches
            .lock()
            .retain(|s| !Arc::ptr_eq(s, slot));
    }
}

impl std::fmt::Debug for MempoolCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MempoolCache")
            .field("size", &self.size)
            .field("cached", &self.stack.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let p = Mempool::new(2, 64);
        assert_eq!(p.available(), 2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_eq!(p.available(), 0);
        assert_eq!(p.in_use(), 2);
        assert!(p.alloc().is_none());
        assert_eq!(p.alloc_failures(), 1);
        p.free(a);
        assert_eq!(p.available(), 1);
        assert!(p.alloc().is_some());
        p.free(b);
    }

    #[test]
    fn alloc_with_copies_frame() {
        let p = Mempool::new(1, 64);
        let m = p.alloc_with(b"abcd").unwrap();
        assert_eq!(m.bytes(), b"abcd");
    }

    #[test]
    fn alloc_with_rejects_oversized() {
        let p = Mempool::new(1, 4);
        assert!(p.alloc_with(b"too long for four").is_none());
        // The failed oversized alloc must not leak a buffer or count as
        // pool exhaustion.
        assert_eq!(p.available(), 1);
        assert_eq!(p.alloc_failures(), 0);
    }

    #[test]
    fn recycled_buffers_are_clean() {
        let p = Mempool::new(1, 64);
        let m = p.alloc_with(b"dirty").unwrap();
        p.free(m);
        let m2 = p.alloc().unwrap();
        assert!(m2.is_empty());
    }

    #[test]
    fn counters_track() {
        let p = Mempool::new(4, 64);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        p.free(a);
        p.free(b);
        assert_eq!(p.counters(), (2, 2));
        assert_eq!(p.in_use_peak(), 2);
    }

    #[test]
    fn burst_alloc_free_round_trip() {
        let p = Mempool::new(8, 64);
        let mut burst = Vec::new();
        assert_eq!(p.alloc_burst(6, &mut burst), 6);
        assert_eq!(p.in_use(), 6);
        // Shortfall: only 2 left, asking for 5 gets 2 and counts 3 failures.
        let mut more = Vec::new();
        assert_eq!(p.alloc_burst(5, &mut more), 2);
        assert_eq!(p.alloc_failures(), 3);
        assert_eq!(p.available(), 0);
        p.free_burst(burst.drain(..));
        p.free_burst(more.drain(..));
        assert_eq!(p.available(), 8);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.in_use_peak(), 8);
    }

    #[test]
    fn clones_share_the_pool() {
        let p = Mempool::new(2, 64);
        let q = p.clone();
        let a = p.alloc().unwrap();
        assert_eq!(q.in_use(), 1);
        q.free(a);
        assert_eq!(p.available(), 2);
        assert_eq!(p.counters(), (1, 1));
    }

    #[test]
    fn stats_snapshot() {
        let p = Mempool::new(2, 64);
        let a = p.alloc().unwrap();
        assert!(p.alloc_with(&[0u8; 65]).is_none());
        p.free(a);
        let s = p.stats();
        assert_eq!(s.population, 2);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.alloc_failures, 0);
        assert_eq!(s.in_use_peak, 1);
        assert_eq!(s.cached, 0);
    }

    #[test]
    fn cache_hits_settle_at_the_next_transaction() {
        let p = Mempool::new(16, 64);
        let mut c = p.cache(4);
        let m = c.alloc().unwrap();
        // The refill pulled need + size = 5 and settled as of after the
        // hand-out: 1 in flight, 4 parked.
        assert_eq!(p.in_use(), 1);
        assert_eq!(c.cached(), 4);
        assert_eq!(p.cached(), 4);
        assert_eq!(p.available(), 15, "cached buffers stay available");
        assert_eq!(p.counters(), (1, 0));
        // The free is a hit: the cache knows, its gauge shows it, the
        // pool's ledger does not yet — and still adds up.
        c.free(m);
        assert_eq!(c.cached(), 5);
        assert_eq!(p.cached_per_cache(), vec![5]);
        assert_eq!(p.counters(), (1, 0));
        assert_eq!(p.available() + p.in_use(), 16);
        c.flush();
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.counters(), (1, 1));
        assert_eq!(p.cached(), 0);
        assert_eq!(p.available(), 16);
        // Hits again after the flush, settled by the drop.
        let m = c.alloc().unwrap();
        c.free(m);
        drop(c);
        assert_eq!(p.cached(), 0, "drop must flush the cache");
        assert_eq!(p.counters(), (2, 2));
        assert_eq!(p.available(), 16);
        assert_eq!(p.in_use_peak(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn cache_hits_never_touch_the_shared_ledger() {
        let p = Mempool::new(64, 64);
        let mut c = p.cache(8);
        let mut burst = Vec::new();
        // Cold: the refill is one settlement.
        let before = shared_touches();
        assert_eq!(c.alloc_burst(8, &mut burst), 8);
        assert_eq!(shared_touches() - before, 1);
        assert_eq!(p.in_use(), 8);
        assert_eq!(p.available(), 56);
        // Handing the burst back to a cache the refill just topped up
        // spills (16 > 1.5 C): one settlement again.
        let before = shared_touches();
        c.free_burst(burst.drain(..));
        assert_eq!(shared_touches() - before, 1);
        assert_eq!(p.counters(), (8, 8));
        // Warm: alloc/free pairs of a whole burst are private.
        let before = shared_touches();
        for _ in 0..100 {
            assert_eq!(c.alloc_burst(8, &mut burst), 8);
            c.free_burst(burst.drain(..));
        }
        assert_eq!(shared_touches() - before, 0);
        assert_eq!(p.counters(), (8, 8), "hits are not on the books yet");
        // The next spill brings the books up to date.
        let mut direct = Vec::new();
        p.alloc_burst(8, &mut direct);
        assert_eq!(c.cached(), 8);
        let before = shared_touches();
        c.free_burst(direct.drain(..));
        assert_eq!(shared_touches() - before, 1);
        assert_eq!(c.cached(), 8);
        assert_eq!(p.counters(), (816, 816));
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.cached(), 8);
        // So is a flush; a second one has nothing to settle.
        let before = shared_touches();
        c.flush();
        c.flush();
        assert_eq!(shared_touches() - before, 1);
        assert_eq!(p.available(), 64);
        assert_eq!(p.in_use_peak(), 8);
    }

    #[test]
    fn cache_spills_past_flush_threshold() {
        let p = Mempool::new(64, 64);
        let mut direct = Vec::new();
        p.alloc_burst(32, &mut direct);
        let mut c = p.cache(8);
        // Free 32 into a C=8 cache: threshold 12 forces spills; the cache
        // must end at or below the flush threshold with the rest back on
        // the freelist.
        c.free_burst(direct.drain(..));
        assert!(c.cached() <= 12, "cache kept {} > threshold", c.cached());
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.available(), 64);
        assert_eq!(p.cached(), c.cached());
    }

    #[test]
    fn cache_bypasses_for_giant_bursts() {
        let p = Mempool::new(64, 64);
        let mut c = p.cache(4);
        let mut burst = Vec::new();
        // n > 2C goes straight to the shared pool: nothing parked.
        assert_eq!(c.alloc_burst(32, &mut burst), 32);
        assert_eq!(c.cached(), 0);
        assert_eq!(p.in_use(), 32);
        p.free_burst(burst.drain(..));
        assert_eq!(p.available(), 64);
    }

    #[test]
    fn cache_shortfall_counts_failures() {
        let p = Mempool::new(4, 64);
        let mut c = p.cache(4);
        let mut burst = Vec::new();
        assert_eq!(c.alloc_burst(4, &mut burst), 4);
        // Pool and cache both empty now.
        assert_eq!(c.alloc_burst(3, &mut burst), 0);
        assert_eq!(p.alloc_failures(), 3);
        assert!(c.alloc().is_none());
        assert_eq!(p.alloc_failures(), 4);
        // The allocation that drained the pool registered the ceiling.
        assert_eq!(p.in_use_peak(), 4);
        c.free_burst(burst.drain(..));
        c.flush();
        assert_eq!(p.available(), 4);
    }

    #[test]
    fn two_caches_share_exactly() {
        let p = Mempool::new(32, 64);
        let mut a = p.cache(4);
        let mut b = p.cache(4);
        let ma = a.alloc().unwrap();
        let mb = b.alloc().unwrap();
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.cached_per_cache(), vec![4, 4]);
        // Cross-cache recycling: a's buffer freed through b.
        b.free(ma);
        a.free(mb);
        assert_eq!(p.cached_per_cache(), vec![5, 5]);
        drop(a);
        assert_eq!(p.cached_per_cache().len(), 1);
        drop(b);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.available(), 32);
        assert_eq!(p.cached(), 0);
        assert_eq!(p.counters(), (2, 2));
    }

    #[test]
    fn unsettled_hits_never_push_the_derived_gauges_out_of_range() {
        // The generator/worker shape: one cache only allocates, the other
        // only frees, and the recycler settles first — so the ledger
        // counts the travelled buffers twice until the allocator settles.
        let p = Mempool::new(16, 64);
        let mut gen = p.cache(4);
        let mut worker = p.cache(2);
        let mut burst = Vec::new();
        assert_eq!(gen.alloc_burst(1, &mut burst), 1); // refill: 5 out of the freelist
        assert_eq!(gen.alloc_burst(4, &mut burst), 4); // hits, unsettled
        worker.free_burst(burst.drain(..)); // 5 > 1.5 C: spills down to 2, settles
        assert_eq!(p.cached_per_cache(), vec![0, 2]);
        // Truth: nothing in flight. Ledger: freelist 14 + gen's settled 4
        // + worker's 2 = 20 > 16 — clamped, never wrapped.
        assert_eq!(p.available(), 16);
        assert_eq!(p.in_use(), 0);
        assert!(p.in_use_peak() <= 16);
        let (allocs, frees) = p.counters();
        assert_eq!((allocs, frees), (1, 5), "the allocator's hits lag");
        drop((gen, worker));
        assert_eq!(p.counters(), (5, 5));
        assert_eq!(p.available(), 16);
        assert_eq!(p.cached(), 0);
    }

    #[test]
    fn cache_alloc_with_fills_and_respects_dataroom() {
        let p = Mempool::new(8, 8);
        let mut c = p.cache(2);
        let m = c.alloc_with(b"abc").unwrap();
        assert_eq!(m.bytes(), b"abc");
        assert!(c.alloc_with(b"way too long for 8").is_none());
        c.free(m);
        c.flush();
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn cache_rejects_zero_size() {
        let p = Mempool::new(4, 64);
        let _ = p.cache(0);
    }
}
