//! The shared simulation world: Rx queues, locks, measurement state.
//!
//! `World` is the `W` type parameter of `metronome_os::OsSim<W>`: every
//! behavior (retrieval discipline, XDP NAPI loop, ferret worker) mutates
//! it from inside its scheduler turns. It owns
//!
//! * one [`SimQueue`] per Rx queue — the hybrid analytic/DES queue: a
//!   counting descriptor ring fed lazily by an arrival process, with
//!   MoonGen-style sampled latency tracking and Tx-batch accounting;
//! * the queue locks (plain owner slots — the simulation is single-threaded,
//!   the CMPXCHG variant lives in `metronome-core::trylock`);
//! * the shared [`AdaptiveController`] (per-thread policy state is owned by
//!   each worker's `metronome_core::discipline` state machine);
//! * run-wide measurement collectors (latency reservoir, vacation samples,
//!   ferret completion times).

use crate::calib;
use metronome_core::controller::AdaptiveController;
use metronome_dpdk::ring::RxRingModel;
use metronome_sim::stats::{Histogram, MeanVar, Reservoir};
use metronome_sim::Nanos;
use metronome_traffic::ArrivalProcess;
use std::collections::VecDeque;

/// A latency sample in flight: an accepted packet awaiting Tx flush.
#[derive(Clone, Copy, Debug)]
struct Sample {
    seq: u64,
    arrival: Nanos,
}

/// One Rx queue of the simulated NIC port.
pub struct SimQueue {
    /// Counting descriptor ring (tail-drop at capacity).
    pub ring: RxRingModel,
    arrivals: Box<dyn ArrivalProcess>,
    last_sync: Nanos,
    /// Sequence number of the next accepted packet.
    accepted_seq: u64,
    /// Packets handed to the application (chunk completion).
    processed_seq: u64,
    /// Packets flushed to the wire.
    flushed_seq: u64,
    last_flush: Nanos,
    /// Latency sampling stride (0 disables).
    stride: u64,
    waiting: VecDeque<Sample>,
    ts_buf: Vec<Nanos>,
    /// Current lock owner (thread id), if any.
    pub owner: Option<usize>,
    /// When the lock was last released (end of previous busy period).
    pub last_release: Option<Nanos>,
    /// When the current owner acquired the lock.
    pub acquired_at: Nanos,
    /// Vacation preceding the current busy period.
    pub current_vacation: Option<Nanos>,
    /// Mean packets found queued at acquire time (`NV` of Table I).
    pub nv: MeanVar,
    /// Per-queue vacation-period statistics.
    pub vacations: MeanVar,
    /// Per-queue busy-period statistics.
    pub busy_periods: MeanVar,
}

impl SimQueue {
    /// Queue with the given ring size, arrival process and latency
    /// sampling stride (0 = no latency measurement).
    pub fn new(ring_size: usize, arrivals: Box<dyn ArrivalProcess>, stride: u64) -> Self {
        SimQueue {
            ring: RxRingModel::new(ring_size),
            arrivals,
            last_sync: Nanos::ZERO,
            accepted_seq: 0,
            processed_seq: 0,
            flushed_seq: 0,
            last_flush: Nanos::ZERO,
            stride,
            waiting: VecDeque::new(),
            ts_buf: Vec::new(),
            owner: None,
            last_release: None,
            acquired_at: Nanos::ZERO,
            current_vacation: None,
            nv: MeanVar::new(),
            vacations: MeanVar::new(),
            busy_periods: MeanVar::new(),
        }
    }

    /// Pull arrivals up to `now` into the ring (tail-dropping), recording
    /// sampled packets' timestamps.
    pub fn sync(&mut self, now: Nanos) {
        if now <= self.last_sync {
            return;
        }
        self.last_sync = now;
        if self.stride == 0 {
            let n = self.arrivals.drain(now, None);
            self.ring.offer(n);
            self.accepted_seq = self.ring.total_accepted();
            return;
        }
        self.ts_buf.clear();
        let n = self.arrivals.drain(now, Some(&mut self.ts_buf));
        let accepted = self.ring.offer(n);
        for (i, &t) in self.ts_buf[..accepted as usize].iter().enumerate() {
            let seq = self.accepted_seq + i as u64;
            if seq.is_multiple_of(self.stride) {
                self.waiting.push_back(Sample { seq, arrival: t });
            }
        }
        self.accepted_seq += accepted;
        debug_assert_eq!(self.accepted_seq, self.ring.total_accepted());
    }

    /// Take up to `max` packets for processing (after syncing arrivals).
    pub fn take_burst(&mut self, now: Nanos, max: u64) -> u64 {
        self.sync(now);
        self.ring.take(max)
    }

    /// Time of the next pending arrival, if the source has one.
    pub fn peek_next_arrival(&mut self) -> Option<Nanos> {
        self.arrivals.peek_next()
    }

    /// A chunk of `k` packets finished processing at `now`: account Tx
    /// batching and finalize any sampled latencies that flushed.
    /// Returns finalized `(latency)` values via the `out` callback.
    pub fn chunk_processed(
        &mut self,
        now: Nanos,
        k: u64,
        base_latency: Nanos,
        out: &mut dyn FnMut(Nanos),
    ) {
        self.processed_seq += k;
        let pending = self.processed_seq - self.flushed_seq;
        if pending >= calib::TX_BATCH {
            let send = (pending / calib::TX_BATCH) * calib::TX_BATCH;
            self.flushed_seq += send;
            self.last_flush = now;
            self.finalize_flushed(now, base_latency, out);
        }
    }

    /// Packets taken for processing that have not finished it.
    fn in_service(&self) -> u64 {
        self.ring.total_drained() - self.processed_seq
    }

    /// Force out any partially filled Tx batch (drain timeout or explicit
    /// flush before sleeping).
    pub fn flush_tx(&mut self, now: Nanos, base_latency: Nanos, out: &mut dyn FnMut(Nanos)) {
        if self.processed_seq > self.flushed_seq {
            self.flushed_seq = self.processed_seq;
            self.last_flush = now;
            self.finalize_flushed(now, base_latency, out);
        }
    }

    /// True if a partial batch has been sitting longer than the drain
    /// timeout.
    pub fn tx_stale(&self, now: Nanos) -> bool {
        self.processed_seq > self.flushed_seq
            && now.saturating_sub(self.last_flush) > calib::TX_DRAIN_TIMEOUT
    }

    fn finalize_flushed(&mut self, now: Nanos, base: Nanos, out: &mut dyn FnMut(Nanos)) {
        while let Some(front) = self.waiting.front() {
            if front.seq < self.flushed_seq {
                let s = self.waiting.pop_front().expect("checked front");
                let lat = now.saturating_sub(s.arrival).saturating_add(base);
                out(lat);
            } else {
                break;
            }
        }
    }

    /// Packets currently queued.
    pub fn occupancy(&self) -> u64 {
        self.ring.occupancy()
    }

    /// Packets taken by the application so far.
    pub fn drained_total(&self) -> u64 {
        self.ring.total_drained()
    }

    /// Packets dropped at the ring so far.
    pub fn dropped_total(&self) -> u64 {
        self.ring.total_dropped()
    }

    /// Packets offered so far (accepted + dropped).
    pub fn offered_total(&self) -> u64 {
        self.ring.total_accepted() + self.ring.total_dropped()
    }
}

/// Completion record of a ferret worker.
#[derive(Clone, Copy, Debug)]
pub struct FerretCompletion {
    /// Worker index.
    pub worker: usize,
    /// Completion time.
    pub at: Nanos,
}

/// The shared world mutated by all behaviors.
pub struct World {
    /// Rx queues.
    pub queues: Vec<SimQueue>,
    /// The shared adaptive controller.
    pub controller: AdaptiveController,
    /// Fixed path latency added to every measured sample.
    pub base_latency: Nanos,
    /// End-to-end latency samples (µs), reservoir-sampled.
    pub latency_us: Reservoir,
    /// Cumulative latency histogram (ns): every sample, O(1) insert. The
    /// telemetry sampler differences snapshots of this into per-window
    /// percentiles (the reservoir cannot be windowed — it forgets).
    pub latency_hist: Histogram,
    /// Vacation-period samples in µs (for Fig. 4 / Table I), capped.
    pub vacation_samples_us: Vec<f64>,
    /// Cap on retained vacation samples.
    pub vacation_sample_cap: usize,
    /// Ferret completions.
    pub ferret_done: Vec<FerretCompletion>,
    /// Count of equal-timeout mode (ablation) — threads sleep TS always.
    pub equal_timeouts: bool,
}

impl World {
    /// Build a world over the given queues.
    pub fn new(
        queues: Vec<SimQueue>,
        controller: AdaptiveController,
        base_latency: Nanos,
        seed: u64,
    ) -> Self {
        World {
            queues,
            controller,
            base_latency,
            latency_us: Reservoir::new(20_000, seed ^ 0x1A7E),
            latency_hist: Histogram::latency(),
            vacation_samples_us: Vec::new(),
            vacation_sample_cap: 200_000,
            ferret_done: Vec::new(),
            equal_timeouts: false,
        }
    }

    /// Attempt to acquire queue `q` for thread `tid` (the simulated
    /// trylock). On success records the vacation period that just ended.
    pub fn try_acquire(&mut self, q: usize, tid: usize, now: Nanos) -> bool {
        if self.queues[q].owner.is_some() {
            self.controller.record_busy_try(q);
            return false;
        }
        let queue = &mut self.queues[q];
        queue.owner = Some(tid);
        queue.acquired_at = now;
        queue.current_vacation = queue.last_release.map(|rel| now.saturating_sub(rel));
        self.controller.record_acquired(q);
        // NV: packets waiting at the start of this busy period.
        queue.sync(now);
        let nv = queue.occupancy();
        if queue.current_vacation.is_some() {
            queue.nv.add(nv as f64);
        }
        true
    }

    /// Release queue `q`, feeding the adaptive controller with the
    /// completed renewal cycle.
    pub fn release(&mut self, q: usize, tid: usize, now: Nanos) {
        let queue = &mut self.queues[q];
        debug_assert_eq!(queue.owner, Some(tid), "release by non-owner");
        queue.owner = None;
        let busy = now.saturating_sub(queue.acquired_at);
        if let Some(vac) = queue.current_vacation.take() {
            queue.vacations.add(vac.as_micros_f64());
            queue.busy_periods.add(busy.as_micros_f64());
            if self.vacation_samples_us.len() < self.vacation_sample_cap {
                self.vacation_samples_us.push(vac.as_micros_f64());
            }
            self.controller.record_cycle(q, vac, busy);
        }
        queue.last_release = Some(now);
    }

    /// The chunk queue `q` handed out last (everything taken and not yet
    /// processed) finished processing at `now`: run the Tx-batch accounting
    /// and capture any finalized latency samples.
    pub fn settle(&mut self, q: usize, now: Nanos) {
        let k = self.queues[q].in_service();
        if k == 0 {
            return;
        }
        let base = self.base_latency;
        let latency = &mut self.latency_us;
        let hist = &mut self.latency_hist;
        self.queues[q].chunk_processed(now, k, base, &mut |lat| {
            latency.add(lat.as_micros_f64());
            hist.record(lat.as_nanos());
        });
    }

    /// Force-flush queue `q`'s partial Tx batch.
    pub fn flush_queue_tx(&mut self, q: usize, now: Nanos) {
        let base = self.base_latency;
        let latency = &mut self.latency_us;
        let hist = &mut self.latency_hist;
        self.queues[q].flush_tx(now, base, &mut |lat| {
            latency.add(lat.as_micros_f64());
            hist.record(lat.as_nanos());
        });
    }

    /// Total packets forwarded across queues.
    pub fn total_drained(&self) -> u64 {
        self.queues.iter().map(|q| q.drained_total()).sum()
    }

    /// Total packets dropped across queues.
    pub fn total_dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped_total()).sum()
    }

    /// Total packets offered across queues.
    pub fn total_offered(&self) -> u64 {
        self.queues.iter().map(|q| q.offered_total()).sum()
    }

    /// Loss fraction over the whole run.
    pub fn loss_fraction(&self) -> f64 {
        let offered = self.total_offered();
        if offered == 0 {
            0.0
        } else {
            self.total_dropped() as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_core::MetronomeConfig;
    use metronome_traffic::Cbr;

    fn world_one_queue(pps: f64, stride: u64) -> World {
        let q = SimQueue::new(512, Box::new(Cbr::new(pps, Nanos::ZERO)), stride);
        let ctrl = AdaptiveController::new(MetronomeConfig::default());
        World::new(vec![q], ctrl, calib::BASE_PATH_LATENCY, 42)
    }

    #[test]
    fn sync_fills_ring_and_counts_drops() {
        let mut w = world_one_queue(1e6, 0); // 1 packet per µs
                                             // 600 arrivals > 512 capacity.
        w.queues[0].sync(Nanos::from_micros(600));
        assert_eq!(w.queues[0].occupancy(), 512);
        assert!(w.queues[0].dropped_total() >= 88);
    }

    #[test]
    fn take_burst_drains_fifo_counts() {
        let mut w = world_one_queue(1e6, 0);
        let k = w.queues[0].take_burst(Nanos::from_micros(100), 32);
        assert_eq!(k, 32);
        let k2 = w.queues[0].take_burst(Nanos::from_micros(100), 200);
        // 101 arrivals total (t=0..100), 32 taken.
        assert_eq!(k2, 69);
    }

    #[test]
    fn acquire_release_records_cycle() {
        let mut w = world_one_queue(1e6, 0);
        assert!(w.try_acquire(0, 7, Nanos::from_micros(10)));
        // Second acquire fails and counts a busy try.
        assert!(!w.try_acquire(0, 8, Nanos::from_micros(11)));
        w.release(0, 7, Nanos::from_micros(30));
        // First cycle has no preceding vacation (no last_release yet).
        assert_eq!(w.controller.queue(0).cycles, 0);
        assert!(w.try_acquire(0, 8, Nanos::from_micros(50)));
        w.release(0, 8, Nanos::from_micros(60));
        assert_eq!(w.controller.queue(0).cycles, 1);
        // Vacation was 50-30 = 20 µs.
        assert_eq!(w.queues[0].vacations.count(), 1);
        assert!((w.queues[0].vacations.mean() - 20.0).abs() < 1e-9);
        assert_eq!(w.vacation_samples_us.len(), 1);
        assert_eq!(w.controller.queue(0).busy_tries, 1);
    }

    #[test]
    fn nv_measured_at_acquire() {
        let mut w = world_one_queue(1e6, 0);
        w.try_acquire(0, 1, Nanos::from_micros(10));
        w.release(0, 1, Nanos::from_micros(10));
        // 100 µs vacation at 1 Mpps ⇒ ~100 packets waiting.
        w.try_acquire(0, 2, Nanos::from_micros(110));
        let nv = w.queues[0].nv.mean();
        assert!((nv - 100.0).abs() <= 12.0, "NV {nv}");
    }

    #[test]
    fn latency_samples_flow_through_tx_batching() {
        let mut w = world_one_queue(1e6, 1); // sample every packet
        let mut got = Vec::new();
        let base = w.base_latency;
        // 64 packets arrive by t=63µs; take and process them at t=100µs.
        let k = w.queues[0].take_burst(Nanos::from_micros(100), 32);
        assert_eq!(k, 32);
        w.queues[0].chunk_processed(Nanos::from_micros(102), k, base, &mut |l| got.push(l));
        // Full batch of 32 flushed immediately.
        assert_eq!(got.len(), 32);
        // First packet arrived at t=0, flushed at 102 ⇒ 102 + base.
        let first = got[0];
        assert_eq!(first, Nanos::from_micros(102) + base);
    }

    #[test]
    fn partial_batch_waits_for_flush() {
        let mut w = world_one_queue(1e5, 1); // 1 packet / 10 µs
        let mut got = Vec::new();
        let base = w.base_latency;
        let k = w.queues[0].take_burst(Nanos::from_micros(50), 32);
        assert_eq!(k, 6);
        w.queues[0].chunk_processed(Nanos::from_micros(51), k, base, &mut |l| got.push(l));
        assert!(got.is_empty(), "partial batch must not flush");
        assert!(!w.queues[0].tx_stale(Nanos::from_micros(60)));
        assert!(w.queues[0].tx_stale(Nanos::from_micros(200)));
        w.queues[0].flush_tx(Nanos::from_micros(200), base, &mut |l| got.push(l));
        assert_eq!(got.len(), 6);
        // The t=0 packet was held until 200 µs.
        assert_eq!(got[0], Nanos::from_micros(200) + base);
    }

    #[test]
    fn loss_fraction_aggregates() {
        let mut w = world_one_queue(1e6, 0);
        w.queues[0].sync(Nanos::from_micros(1000)); // heavy overflow
        assert!(w.loss_fraction() > 0.3);
        assert_eq!(w.total_offered(), 1001);
    }
}
