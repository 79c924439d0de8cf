//! The one ingest core: what turns a batch of due arrival instants into
//! frames on the Rx rings ([`IngestShard::emit`]) and what turns a
//! retrieved burst back into free buffers and latency samples
//! ([`complete_burst`]).
//!
//! Both wall-clock load generators — the scenario runner
//! ([`crate::realtime_runner`]) and the `metronomed` service — get their
//! producer shards from one assembly, [`crate::pipeline::Pipeline::producer`]:
//! a [`metronome_traffic::PacedArrivals`] over the caller's source (behind
//! the plan's arrival-side injector when there is one) handing every batch
//! to an [`IngestShard`]. The batch body is here and does not know who
//! called it. It counts no loss of its own: a frame with no buffer is
//! booked on its queue's ring ([`metronome_dpdk::SharedRing::count_nombuf`]),
//! a tail drop by the ring itself, and what an injector suppressed never
//! reaches the shard. DESIGN.md §2h walks through it.

use metronome_apps::processor::PacketProcessor;
use metronome_dpdk::{Mbuf, Mempool, MempoolCache, QueueScatter, RssPort};
use metronome_sim::stats::Histogram;
use metronome_sim::time::read_instant;
use metronome_sim::{CoarseClock, Nanos};
use metronome_traffic::WallClock;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Largest arrival batch a shard requests from the pool at once, and the
/// size of its mempool cache (bounds how many buffers a catch-up backlog
/// can demand before any recycle). Callers cap their pacer with it.
pub const GEN_BATCH: usize = 256;

/// One refill template: a flow's frame with its RSS decision resolved —
/// `(frame, queue, rss_hash)`.
pub type FlowTemplate = (bytes::BytesMut, usize, u32);

/// One producer shard's working set. Flow `i` of the run's population
/// belongs to shard `i mod G`, so every flow has exactly one producer and
/// per-flow order is a single-producer property. The cache flushes as
/// the shard drops: every buffer is home afterwards.
pub struct IngestShard {
    templates: Vec<FlowTemplate>,
    /// Burst alloc/free is a thread-local stack drain, no freelist lock.
    cache: MempoolCache,
    /// Counting sort to per-queue runs, `O(batch + touched queues)`.
    scatter: QueueScatter,
    blanks: Vec<Mbuf>,
    /// On the run's one [`WallClock`]: ONE precise read per batch.
    coarse: CoarseClock,
    /// Offered-vs-scheduled lateness per packet. Locked once per batch;
    /// samplers and reports merge the shards' slots.
    lateness: Arc<Mutex<Histogram>>,
    seq: usize,
}

impl IngestShard {
    /// Shard `shard` of `n_shards` over `templates` (the whole
    /// population; the shard keeps its `i % n_shards == shard` slice),
    /// producing onto `port` from `pool`, stamping lateness against
    /// `clock` into `lateness`.
    ///
    /// # Panics
    /// If the shard's slice is empty (`n_shards` above the population).
    pub fn new(
        shard: usize,
        n_shards: usize,
        templates: &[FlowTemplate],
        port: &RssPort,
        pool: &Mempool,
        clock: WallClock,
        lateness: Arc<Mutex<Histogram>>,
    ) -> IngestShard {
        let templates: Vec<FlowTemplate> = templates
            .iter()
            .skip(shard)
            .step_by(n_shards)
            .cloned()
            .collect();
        assert!(!templates.is_empty(), "shard {shard} owns no flow");
        IngestShard {
            templates,
            cache: pool.cache(GEN_BATCH),
            scatter: QueueScatter::new(port.n_queues()),
            blanks: Vec::with_capacity(GEN_BATCH),
            coarse: CoarseClock::from_epoch(clock.anchor()),
            lateness,
            seq: 0,
        }
    }

    /// Produce one batch: every instant in `due` becomes one frame of the
    /// shard's next flow, stamped `arrival = scheduled t`, offered to its
    /// RSS queue. Every counter touched is shard-additive (ring counters,
    /// pool accounting), so the aggregate over concurrent shards is exact
    /// regardless of interleaving.
    pub fn emit(&mut self, due: &[Nanos], port: &RssPort) {
        // Lateness of the whole batch against one amortized timestamp: a
        // batch IS one emission instant.
        let now = self.coarse.tick();
        self.lateness
            .lock()
            .record_burst(due.iter().map(|&t| now.saturating_sub(t).as_nanos()));
        let IngestShard {
            templates,
            cache,
            scatter,
            blanks,
            seq,
            ..
        } = self;
        cache.alloc_burst(due.len(), blanks);
        for &t in due {
            let (frame, q, hash) = &templates[*seq % templates.len()];
            *seq += 1;
            match blanks.pop() {
                Some(mut mbuf) => {
                    mbuf.refill(frame);
                    mbuf.queue = *q as u16;
                    mbuf.rss_hash = *hash;
                    mbuf.arrival = t;
                    scatter.push(*q, mbuf);
                }
                // Pool exhausted: the NIC has a descriptor but no buffer
                // to DMA into — a loss of its own, booked on the queue.
                None => port.rings()[*q].count_nombuf(1),
            }
        }
        scatter.dispatch(|q, frames| {
            port.offer_burst(q, frames);
            // Whatever the ring rejected it counted as tail-dropped:
            // recycle the buffers in one cache transaction.
            cache.free_burst(frames.drain(..));
        });
    }
}

/// Per-queue application state: the processor plus its latency histogram,
/// behind one mutex taken **once per burst**, not per packet. Uncontended
/// by construction — only one worker drains a queue at a time (the
/// Metronome trylock, or 1:1 worker/queue pinning in the baselines).
pub struct QueueApp {
    /// The queue's functional processor.
    pub proc: Box<dyn PacketProcessor>,
    /// Scheduled-arrival → completion latency, nanoseconds.
    pub latency_ns: Histogram,
}

impl QueueApp {
    /// `proc` with an empty latency histogram, ready to share.
    pub fn new(proc: Box<dyn PacketProcessor>) -> Mutex<QueueApp> {
        Mutex::new(QueueApp {
            proc,
            latency_ns: Histogram::latency(),
        })
    }
}

/// The consumer end of a burst, per burst and never per packet, all under
/// one lock of the queue's app: `process_burst`; when `clock` is given,
/// the burst's arrival stamps noted in `arrivals` (the caller's, reused);
/// `free_burst`; then, when `clock` is given, one completion read and one
/// histogram pass of `done − arrival`. A packet completes once it is
/// processed *and* its buffer recycled, so only the latency record
/// follows the read: returned, it can also end the drain the burst belongs
/// to ([`metronome_core::Consume::take_completion`]).
#[inline]
pub fn complete_burst(
    app: &Mutex<QueueApp>,
    burst: &mut Vec<Mbuf>,
    clock: Option<&WallClock>,
    cache: &mut MempoolCache,
    arrivals: &mut Vec<Nanos>,
) -> Option<Instant> {
    let mut slot = app.lock();
    let _verdicts = slot.proc.process_burst(burst);
    arrivals.clear();
    if clock.is_some() {
        arrivals.extend(burst.iter().map(|mbuf| mbuf.arrival));
    }
    cache.free_burst(burst.drain(..));
    let anchor = clock?.anchor();
    let at = read_instant();
    let done = Nanos(at.saturating_duration_since(anchor).as_nanos() as u64);
    slot.latency_ns.record_burst(
        arrivals
            .iter()
            .map(|&arrival| done.saturating_sub(arrival).as_nanos()),
    );
    Some(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{flow_templates, MBUF_DATAROOM};
    use std::collections::HashMap;

    const QUEUES: usize = 2;

    struct Rig {
        port: RssPort,
        pool: Mempool,
        lateness: Arc<Mutex<Histogram>>,
    }

    impl Rig {
        fn new(ring_size: usize, population: usize) -> Rig {
            Rig {
                port: RssPort::new(QUEUES, ring_size),
                pool: Mempool::new(population, MBUF_DATAROOM),
                lateness: Arc::new(Mutex::new(Histogram::latency())),
            }
        }

        fn shard(&self) -> IngestShard {
            IngestShard::new(
                0,
                1,
                &flow_templates(&self.port, 7),
                &self.port,
                &self.pool,
                WallClock::start(),
                Arc::clone(&self.lateness),
            )
        }

        fn pool_drops(&self) -> u64 {
            self.port.rings().iter().map(|r| r.nombuf()).sum()
        }

        /// Pop everything the rings hold, recycle it, return the frames'
        /// `(rss_hash, arrival)` in per-queue retrieval order.
        fn sweep(&self) -> Vec<(u32, Nanos)> {
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            for ring in self.port.rings() {
                while ring.pop_burst(&mut scratch, GEN_BATCH) > 0 {
                    out.extend(scratch.iter().map(|m| (m.rss_hash, m.arrival)));
                    self.pool.free_burst(scratch.drain(..));
                }
            }
            out
        }

        /// `offered == accepted + ring drops + pool drops`, each loss on
        /// one book of the port, and every buffer is home.
        fn assert_conserved(&self, offered: u64) {
            let ring_drops = self.port.total_dropped();
            let pool_drops = self.pool_drops();
            assert_eq!(
                offered,
                self.port.total_accepted() + ring_drops + pool_drops
            );
            assert_eq!(self.port.total_offered() + pool_drops, offered);
            assert_eq!(self.lateness.lock().count(), offered);
            let (allocs, frees) = self.pool.counters();
            assert_eq!((self.pool.in_use(), self.pool.cached()), (0, 0));
            assert_eq!(allocs, frees);
        }
    }

    fn schedule(n: u64) -> Vec<Nanos> {
        (0..n).map(|k| Nanos(1_000 + 10 * k)).collect()
    }

    #[test]
    fn ring_overflow_conserves_exactly() {
        // 3 batches of 200 into two 64-slot rings with no consumer: most
        // of it tail-drops, none of it leaks.
        let rig = Rig::new(64, 1024);
        let mut shard = rig.shard();
        for batch in schedule(600).chunks(200) {
            shard.emit(batch, &rig.port);
        }
        drop(shard);
        assert!(rig.port.total_dropped() > 0, "rings never overflowed");
        assert_eq!(rig.pool_drops(), 0);
        rig.sweep();
        rig.assert_conserved(600);
    }

    #[test]
    fn pool_exhaustion_conserves_exactly() {
        // 100 buffers for a 250-arrival batch: the shortfall is a pool
        // drop per packet, attributed to the packet's own queue.
        let rig = Rig::new(1024, 100);
        let mut shard = rig.shard();
        shard.emit(&schedule(250), &rig.port);
        drop(shard);
        assert_eq!(rig.pool_drops(), 150);
        assert_eq!(rig.port.total_dropped(), 0);
        assert_eq!(rig.sweep().len(), 100);
        rig.assert_conserved(250);
    }

    #[test]
    fn frames_carry_their_scheduled_stamp_in_flow_order() {
        let rig = Rig::new(1024, 1024);
        let mut shard = rig.shard();
        let due = schedule(500);
        for batch in due.chunks(128) {
            shard.emit(batch, &rig.port);
        }
        drop(shard);
        let frames = rig.sweep();
        // Every scheduled instant is on exactly one frame, unaltered.
        let mut stamps: Vec<Nanos> = frames.iter().map(|&(_, t)| t).collect();
        stamps.sort_unstable();
        assert_eq!(stamps, due);
        // Within a flow, retrieval order is schedule order.
        let mut last: HashMap<u32, Nanos> = HashMap::new();
        for (flow, t) in frames {
            if let Some(prev) = last.insert(flow, t) {
                assert!(t >= prev, "flow {flow:#x} stepped back: {prev} -> {t}");
            }
        }
        rig.assert_conserved(500);
    }
}
