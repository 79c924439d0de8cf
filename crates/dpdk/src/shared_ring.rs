//! Thread-safe Rx rings for the real-thread pipeline.
//!
//! The concurrent analogue of `rte_ring` + RSS, and the only kind of Rx
//! ring a packet crosses:
//!
//! * [`SharedRing`] — a bounded mbuf ring with NIC-style tail-drop
//!   accounting: a producer that offers into a full ring loses the frame
//!   and the drop is counted, exactly like descriptors exhausting on an
//!   X520/XL710. The transport under the accounting is
//!   [`crate::fastring::SpscRing`] (`rte_ring`'s batched acquire/release
//!   head/tail design) for any producer count: one RSS producer, or
//!   several generator shards taking turns at its producer guard.
//! * [`RssPort`] — `N` shared rings behind one Toeplitz hasher: the
//!   receive side of a NIC port with RSS enabled. The load generator
//!   resolves each flow to a queue once (`queue_for`), then offers frames;
//!   Metronome workers drain [`RingConsumer`] handles obtained via
//!   [`RssPort::consumers`].
//!
//! Conservation is the contract tests rely on: for every ring,
//! `offered = accepted + dropped`, and whatever was accepted is either
//! still queued, was popped by a consumer, or was swept at stop —
//! nothing is double-counted because `offer` is the only producer path.
//! Each receive-side loss is counted here, once, per queue, like
//! `rte_eth_stats`: tail drops, frames with no buffer (`rx_nombuf`) and
//! frames swept at stop.

use crate::fastring::SpscRing;
use crate::mbuf::Mbuf;
use crate::ring::valid_ring_size;
use metronome_net::toeplitz::Toeplitz;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A producer-side wake-up callback: invoked once per offer that accepted
/// at least one frame (the "raise the IRQ line" hook an interrupt-driven
/// consumer arms — e.g. ringing a `metronome_core` `Doorbell`).
pub type WakeHook = Arc<dyn Fn() + Send + Sync>;

/// The ring transport, of which there is one. Kept only so that
/// `perfbench/`'s `RssPort::with_path` call builds; it goes with
/// benchmark round 2's `perfbench` edit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RingPath {
    /// The guarded [`SpscRing`].
    #[default]
    Spsc,
}

/// A bounded mbuf ring with tail-drop accounting over a lock-free
/// [`SpscRing`].
pub struct SharedRing {
    ring: Arc<SpscRing<Mbuf>>,
    accepted: AtomicU64,
    dropped: AtomicU64,
    nombuf: AtomicU64,
    swept: AtomicU64,
    /// Rung after every accepting offer; `None` (the default) costs one
    /// predictable branch per burst.
    wake_hook: Option<WakeHook>,
}

impl SharedRing {
    /// Ring with the given descriptor count.
    ///
    /// # Panics
    /// If `capacity` is not a valid NIC ring size (power of two in
    /// 32..=4096).
    pub fn new(capacity: usize) -> Self {
        assert!(valid_ring_size(capacity), "invalid ring size {capacity}");
        SharedRing {
            ring: Arc::new(SpscRing::new(capacity)),
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            nombuf: AtomicU64::new(0),
            swept: AtomicU64::new(0),
            wake_hook: None,
        }
    }

    /// A consumer handle (what a Metronome worker drains). Cheap to
    /// clone; all clones drain the same ring. At most one handle may be
    /// popping at a time (concurrent pops serialize on the consumer guard,
    /// they do not corrupt) — which is exactly the discipline the
    /// per-queue trylock already enforces.
    pub fn consumer(&self) -> RingConsumer {
        RingConsumer {
            ring: Arc::clone(&self.ring),
        }
    }

    /// Arm the producer-side doorbell hook: `hook` runs after every offer
    /// that accepted at least one frame (once per burst, never per
    /// packet). Install it before producers start offering — the hook is
    /// how an interrupt-driven retrieval discipline learns that packets
    /// arrived while it was parked.
    pub fn set_wake_hook(&mut self, hook: WakeHook) {
        self.wake_hook = Some(hook);
    }

    fn wake(&self) {
        if let Some(hook) = &self.wake_hook {
            hook();
        }
    }

    /// Offer one frame; on a full ring it is tail-dropped and `false` is
    /// returned.
    pub fn offer(&self, mbuf: Mbuf) -> bool {
        match self.ring.push(mbuf) {
            Ok(()) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                self.wake();
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Offer a whole burst, in order, with one accounting update per burst
    /// (the `rte_eth_rx_burst` producer-side analogue). Frames the full
    /// ring rejects are tail-dropped *as accounting* but their buffers are
    /// handed back: after the call, `frames` holds exactly the rejected
    /// mbufs (possibly none) so the caller can recycle them to the
    /// mempool — a drop loses the packet, never the buffer.
    ///
    /// Returns how many frames the ring accepted.
    pub fn offer_burst(&self, frames: &mut Vec<Mbuf>) -> usize {
        let total = frames.len();
        let accepted = self.ring.push_burst(frames);
        if accepted > 0 {
            self.accepted.fetch_add(accepted as u64, Ordering::Relaxed);
            self.wake();
        }
        let rejected = total - accepted;
        if rejected > 0 {
            self.dropped.fetch_add(rejected as u64, Ordering::Relaxed);
        }
        accepted
    }

    /// Pop up to `max` frames into the caller-provided buffer (appended),
    /// returning how many were taken. This is the consumer half of the
    /// burst discipline: one call per retrieval burst, reusing the
    /// caller's scratch buffer so the hot path never allocates.
    pub fn pop_burst(&self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        self.ring.pop_burst(out, max)
    }

    /// Frames accepted into the ring so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Frames tail-dropped at the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames offered (accepted + dropped).
    pub fn offered(&self) -> u64 {
        self.accepted() + self.dropped()
    }

    /// Count `n` frames that found no buffer to land in (mempool
    /// exhaustion).
    pub fn count_nombuf(&self, n: u64) {
        self.nombuf.fetch_add(n, Ordering::Relaxed);
    }

    /// Frames lost to mempool exhaustion so far.
    pub fn nombuf(&self) -> u64 {
        self.nombuf.load(Ordering::Relaxed)
    }

    /// Pop every frame still queued into `out` (appended) and count it as
    /// swept — accepted, never retrieved; returns how many.
    pub fn sweep(&self, out: &mut Vec<Mbuf>) -> u64 {
        let before = out.len();
        while self.ring.pop_burst(out, self.ring.capacity()) > 0 {}
        let n = (out.len() - before) as u64;
        self.swept.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Frames swept so far.
    pub fn swept(&self) -> u64 {
        self.swept.load(Ordering::Relaxed)
    }

    /// Frames currently queued.
    pub fn occupancy(&self) -> usize {
        self.ring.len()
    }

    /// Descriptor count.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }
}

/// The consumer end of a [`SharedRing`]: the handle a retrieval worker
/// drains. Cheap to clone (an `Arc` under the hood); concurrent pops
/// from clones serialize on the ring's consumer guard rather than
/// corrupting state.
#[derive(Clone)]
pub struct RingConsumer {
    ring: Arc<SpscRing<Mbuf>>,
}

impl RingConsumer {
    /// Pop the oldest frame, if any.
    pub fn pop(&self) -> Option<Mbuf> {
        self.ring.pop()
    }

    /// Pop up to `max` frames into `out` (appended), returning how many
    /// were taken — one batched index update.
    pub fn pop_burst(&self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        self.ring.pop_burst(out, max)
    }

    /// Hint, a little ahead of a pop: start fetching the lines the pop
    /// will miss on when the producer runs on another core — the
    /// producer's index line and the first `slots` slots at the head.
    /// Moves nothing and waits for no one.
    #[inline]
    pub fn prefetch_indices(&self, slots: usize) {
        self.ring.prefetch_indices(slots);
    }

    /// Hint, just ahead of a pop and after [`Self::prefetch_indices`] has
    /// had time to land: look at the first queued frames, up to `max`,
    /// and start fetching each one's header ([`Mbuf::prefetch_header`]),
    /// so the lines the generator core wrote last are on their way before
    /// the pop that takes the frames. Nothing is taken, and if a pop is in
    /// progress the hint is skipped, not waited for.
    #[inline]
    pub fn prefetch_frames(&self, max: usize) {
        self.ring.peek_each(max, Mbuf::prefetch_header);
    }

    /// Frames currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Descriptor count.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }
}

impl std::fmt::Debug for RingConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingConsumer")
            .field("len", &self.ring.len())
            .field("capacity", &self.ring.capacity())
            .finish()
    }
}

/// The receive side of an RSS-enabled NIC port: `N` shared rings behind
/// one Toeplitz hasher.
pub struct RssPort {
    toeplitz: Toeplitz,
    rings: Vec<SharedRing>,
}

impl RssPort {
    /// Port with `n_queues` rings of `ring_size` descriptors each, hashing
    /// with the Intel default RSS key.
    pub fn new(n_queues: usize, ring_size: usize) -> Self {
        assert!(n_queues > 0, "need at least one queue");
        RssPort {
            toeplitz: Toeplitz::default(),
            rings: (0..n_queues).map(|_| SharedRing::new(ring_size)).collect(),
        }
    }

    /// [`RssPort::new`]. Kept only for `perfbench/`'s call; it goes with
    /// benchmark round 2's `perfbench` edit.
    pub fn with_path(n_queues: usize, ring_size: usize, _path: RingPath) -> Self {
        RssPort::new(n_queues, ring_size)
    }

    /// Number of Rx queues.
    pub fn n_queues(&self) -> usize {
        self.rings.len()
    }

    /// The RSS hash of a flow's hash input (see `FiveTuple::rss_input`).
    pub fn rss_hash(&self, rss_input: &[u8]) -> u32 {
        self.toeplitz.hash(rss_input)
    }

    /// The queue RSS steers a flow to. Stable per flow — resolve once per
    /// flow, not per packet, like a NIC's indirection table.
    pub fn queue_for(&self, rss_input: &[u8]) -> usize {
        self.toeplitz.queue_for(rss_input, self.rings.len())
    }

    /// Arm queue `q`'s doorbell hook (see [`SharedRing::set_wake_hook`]):
    /// the hook runs after every accepting offer into that ring, which is
    /// how an InterruptLike consumer parked on the queue gets woken.
    pub fn set_wake_hook(&mut self, q: usize, hook: WakeHook) {
        self.rings[q].set_wake_hook(hook);
    }

    /// Offer a frame to queue `q` (its metadata should carry the RSS
    /// decision); `false` means the ring tail-dropped it.
    pub fn offer(&self, q: usize, mbuf: Mbuf) -> bool {
        self.rings[q].offer(mbuf)
    }

    /// Offer a whole burst to queue `q` (see [`SharedRing::offer_burst`]):
    /// returns the accepted count and leaves the tail-dropped mbufs in
    /// `frames` for the caller to recycle.
    pub fn offer_burst(&self, q: usize, frames: &mut Vec<Mbuf>) -> usize {
        self.rings[q].offer_burst(frames)
    }

    /// The per-queue rings (for counters and occupancy checks).
    pub fn rings(&self) -> &[SharedRing] {
        &self.rings
    }

    /// Per-queue ring occupancies in one pass (the telemetry sampler's
    /// gauge column; each read is lock-free).
    pub fn occupancies(&self) -> Vec<u64> {
        self.rings.iter().map(|r| r.occupancy() as u64).collect()
    }

    /// Consumer handles for the workers, one per queue.
    pub fn consumers(&self) -> Vec<RingConsumer> {
        self.rings.iter().map(SharedRing::consumer).collect()
    }

    /// Total frames offered across queues.
    pub fn total_offered(&self) -> u64 {
        self.rings.iter().map(SharedRing::offered).sum()
    }

    /// Total frames accepted across queues.
    pub fn total_accepted(&self) -> u64 {
        self.rings.iter().map(SharedRing::accepted).sum()
    }

    /// Total frames tail-dropped across queues.
    pub fn total_dropped(&self) -> u64 {
        self.rings.iter().map(SharedRing::dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use metronome_net::FiveTuple;
    use std::net::Ipv4Addr;

    fn frame() -> Mbuf {
        Mbuf::from_bytes(BytesMut::from(&[0u8; 60][..]))
    }

    #[test]
    fn shared_ring_conserves_and_counts_drops() {
        let r = SharedRing::new(32);
        for _ in 0..40 {
            r.offer(frame());
        }
        assert_eq!(r.accepted(), 32);
        assert_eq!(r.dropped(), 8);
        assert_eq!(r.offered(), 40);
        assert_eq!(r.occupancy(), 32);
        let q = r.consumer();
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 32);
        assert_eq!(r.occupancy(), 0);
        // Space freed: offers succeed again.
        assert!(r.offer(frame()));
        assert_eq!(r.accepted(), 33);
    }

    #[test]
    fn nombuf_and_swept_frames_are_books_of_their_own() {
        let r = SharedRing::new(32);
        for _ in 0..40 {
            r.offer(frame());
        }
        r.count_nombuf(3);
        let mut out = Vec::new();
        assert_eq!(r.sweep(&mut out), 32);
        assert_eq!(out.len(), 32);
        assert_eq!((r.dropped(), r.nombuf(), r.swept()), (8, 3, 32));
        assert_eq!(r.offered(), 40, "neither book is an offer");
        assert_eq!(r.sweep(&mut out), 0);
        assert_eq!(r.swept(), 32);
    }

    #[test]
    #[should_panic(expected = "invalid ring size")]
    fn shared_ring_rejects_bad_size() {
        SharedRing::new(33);
    }

    #[test]
    fn offer_burst_accounts_and_returns_rejects() {
        let r = SharedRing::new(32);
        let mut burst: Vec<Mbuf> = (0..40).map(|_| frame()).collect();
        let accepted = r.offer_burst(&mut burst);
        assert_eq!(accepted, 32);
        assert_eq!(burst.len(), 8, "rejected mbufs must be handed back");
        assert_eq!(r.accepted(), 32);
        assert_eq!(r.dropped(), 8);
        assert_eq!(r.offered(), 40);
        // Rejected buffers are real mbufs the caller can recycle.
        assert!(burst.iter().all(|m| m.len() == 60));
    }

    #[test]
    fn pop_burst_drains_into_scratch() {
        let r = SharedRing::new(32);
        let mut burst: Vec<Mbuf> = (0..10u8)
            .map(|i| {
                let mut m = frame();
                m.bytes_mut()[0] = i;
                m
            })
            .collect();
        r.offer_burst(&mut burst);
        let mut out = Vec::new();
        assert_eq!(r.pop_burst(&mut out, 4), 4);
        assert_eq!(r.occupancy(), 6, "a burst takes at most max");
        assert_eq!(r.pop_burst(&mut out, 32), 6);
        let firsts: Vec<u8> = out.iter().map(|m| m.bytes()[0]).collect();
        assert_eq!(firsts, (0..10).collect::<Vec<u8>>(), "FIFO");
        assert_eq!(r.pop_burst(&mut out, 32), 0, "ring must be empty");
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn burst_and_single_offer_agree_on_accounting() {
        let single = SharedRing::new(32);
        let burst = SharedRing::new(32);
        for _ in 0..40 {
            single.offer(frame());
        }
        let mut frames: Vec<Mbuf> = (0..40).map(|_| frame()).collect();
        burst.offer_burst(&mut frames);
        assert_eq!(single.accepted(), burst.accepted());
        assert_eq!(single.dropped(), burst.dropped());
        assert_eq!(single.occupancy(), burst.occupancy());
    }

    #[test]
    fn wake_hook_fires_once_per_accepting_offer() {
        use std::sync::atomic::AtomicUsize;

        let rings = Arc::new(AtomicUsize::new(0));
        let mut r = SharedRing::new(32);
        let counter = Arc::clone(&rings);
        r.set_wake_hook(Arc::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        }));
        // Single offers: one ring each.
        r.offer(frame());
        r.offer(frame());
        assert_eq!(rings.load(Ordering::Relaxed), 2);
        // A burst rings once, not per packet.
        let mut burst: Vec<Mbuf> = (0..10).map(|_| frame()).collect();
        r.offer_burst(&mut burst);
        assert_eq!(rings.load(Ordering::Relaxed), 3);
        // A fully rejected burst (ring full) must not ring.
        let mut fill: Vec<Mbuf> = (0..32).map(|_| frame()).collect();
        r.offer_burst(&mut fill);
        let before = rings.load(Ordering::Relaxed);
        let mut rejected: Vec<Mbuf> = (0..4).map(|_| frame()).collect();
        assert_eq!(r.offer_burst(&mut rejected), 0);
        assert_eq!(rings.load(Ordering::Relaxed), before);
    }

    #[test]
    fn lookahead_hints_take_nothing() {
        let r = SharedRing::new(32);
        let q = r.consumer();
        // Empty, then holding frames.
        for queued in [0usize, 6] {
            let mut burst: Vec<Mbuf> = (0..queued).map(|_| frame()).collect();
            r.offer_burst(&mut burst);
            q.prefetch_indices(4);
            q.prefetch_frames(4);
            assert_eq!(q.len(), queued);
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_burst(&mut out, 32), 6);
        assert!(out.iter().all(|m| m.len() == 60));
    }

    #[test]
    fn consumer_handles_share_the_ring() {
        let r = SharedRing::new(32);
        let a = r.consumer();
        let b = a.clone();
        assert!(a.is_empty());
        r.offer(frame());
        r.offer(frame());
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert!(a.pop().is_some());
        assert!(b.pop().is_some());
        assert!(a.pop().is_none());
        assert_eq!(b.capacity(), 32);
    }

    #[test]
    fn rss_port_spreads_flows_stably() {
        let port = RssPort::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..400u32 {
            let t = FiveTuple::udp(
                Ipv4Addr::from(0x0a00_0000 + i),
                (1000 + i) as u16,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            let q = port.queue_for(&t.rss_input());
            assert_eq!(q, port.queue_for(&t.rss_input()), "flow must be stable");
            assert!(q < 4);
            counts[q] += 1;
        }
        assert!(counts.iter().all(|&c| c > 40), "skewed spread: {counts:?}");
    }

    #[test]
    fn rss_port_accounts_per_queue_and_total() {
        let port = RssPort::new(2, 32);
        for _ in 0..40 {
            port.offer(0, frame());
        }
        port.offer(1, frame());
        assert_eq!(port.rings()[0].dropped(), 8);
        assert_eq!(port.rings()[1].dropped(), 0);
        assert_eq!(port.total_accepted(), 33);
        assert_eq!(port.total_dropped(), 8);
        assert_eq!(port.total_offered(), 41);
        assert_eq!(port.consumers().len(), 2);
    }
}
