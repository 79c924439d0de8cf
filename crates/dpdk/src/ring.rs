//! Rx descriptor ring sizing and the simulator's ring model.
//!
//! * [`valid_ring_size`] — the one size rule every ring in the crate
//!   enforces.
//! * [`RxRingModel`] — the counting model the discrete-event simulator
//!   uses: it tracks occupancy, accepted and dropped packets without
//!   materializing buffers, so line-rate minutes stay cheap. Its semantics
//!   (tail-drop at capacity, FIFO drain) mirror the ring the realtime
//!   pipeline runs on, [`crate::shared_ring::SharedRing`]; a unit test here
//!   and a property test in the facade crate drive both with the same
//!   schedule and check they agree.
//!
//! Ring sizes on Intel X520/XL710 are configurable between 32 and 4096
//! descriptors (paper Appendix II); the evaluation behaviour of Table I
//! (loss onset between target vacation 10 µs and 20 µs at line rate)
//! pins the effective size at 512 — see `metronome-runtime::calib`.

/// Supported descriptor-ring sizes: powers of two in 32..=4096 (Intel
/// X520/XL710 constraint).
pub fn valid_ring_size(n: usize) -> bool {
    n.is_power_of_two() && (32..=4096).contains(&n)
}

/// Counting model of an Rx descriptor ring for the simulator.
///
/// Occupancy-only: `offer(n)` adds arrivals with tail-drop, `take(n)`
/// drains in FIFO order. All counters are u64; the model never allocates.
#[derive(Clone, Debug)]
pub struct RxRingModel {
    capacity: u64,
    occupancy: u64,
    accepted: u64,
    dropped: u64,
    drained: u64,
}

impl RxRingModel {
    /// Model with the given descriptor count.
    pub fn new(capacity: usize) -> Self {
        assert!(valid_ring_size(capacity), "invalid ring size {capacity}");
        RxRingModel {
            capacity: capacity as u64,
            occupancy: 0,
            accepted: 0,
            dropped: 0,
            drained: 0,
        }
    }

    /// Descriptor count.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Packets currently queued.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.occupancy == 0
    }

    /// Free descriptors.
    pub fn free_slots(&self) -> u64 {
        self.capacity - self.occupancy
    }

    /// Offer `n` arrivals; returns how many were accepted (the rest are
    /// tail-dropped and counted).
    pub fn offer(&mut self, n: u64) -> u64 {
        let take = n.min(self.free_slots());
        self.occupancy += take;
        self.accepted += take;
        self.dropped += n - take;
        take
    }

    /// Drain up to `n` packets; returns how many were actually taken.
    pub fn take(&mut self, n: u64) -> u64 {
        let take = n.min(self.occupancy);
        self.occupancy -= take;
        self.drained += take;
        take
    }

    /// Packets accepted into the ring since creation.
    pub fn total_accepted(&self) -> u64 {
        self.accepted
    }

    /// Packets tail-dropped since creation.
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets drained since creation.
    pub fn total_drained(&self) -> u64 {
        self.drained
    }

    /// Loss fraction over everything offered so far (0 if nothing offered).
    pub fn loss_fraction(&self) -> f64 {
        let offered = self.accepted + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbuf::Mbuf;
    use crate::shared_ring::SharedRing;
    use bytes::BytesMut;

    #[test]
    fn ring_size_validation() {
        assert!(valid_ring_size(32));
        assert!(valid_ring_size(512));
        assert!(valid_ring_size(4096));
        assert!(!valid_ring_size(0));
        assert!(!valid_ring_size(31));
        assert!(!valid_ring_size(100));
        assert!(!valid_ring_size(8192));
    }

    #[test]
    fn model_offer_take() {
        let mut m = RxRingModel::new(512);
        assert_eq!(m.offer(500), 500);
        assert_eq!(m.offer(100), 12);
        assert_eq!(m.total_dropped(), 88);
        assert_eq!(m.occupancy(), 512);
        assert_eq!(m.take(32), 32);
        assert_eq!(m.occupancy(), 480);
        assert_eq!(m.take(1000), 480);
        assert!(m.is_empty());
        assert_eq!(m.total_drained(), 512);
    }

    #[test]
    fn model_loss_fraction() {
        let mut m = RxRingModel::new(32);
        assert_eq!(m.loss_fraction(), 0.0);
        m.offer(32);
        m.offer(8);
        assert!((m.loss_fraction() - 8.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn model_matches_ring_on_random_schedule() {
        // Drive the model and the ring the datapath runs on with the same
        // offer/take schedule.
        let ring = SharedRing::new(64);
        let mut model = RxRingModel::new(64);
        let mut seed = 99u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        let mut frames = Vec::new();
        let mut out = Vec::new();
        let mut drained = 0u64;
        for _ in 0..1_000 {
            let n = next() % 20;
            frames.clear();
            frames.extend((0..n).map(|_| Mbuf::from_bytes(BytesMut::new())));
            let accepted = ring.offer_burst(&mut frames) as u64;
            assert_eq!(model.offer(n as u64), accepted);
            let k = next() % 20;
            out.clear();
            let took = ring.pop_burst(&mut out, k) as u64;
            assert_eq!(model.take(k as u64), took);
            drained += took;
            assert_eq!(model.occupancy(), ring.occupancy() as u64);
        }
        assert_eq!(model.total_accepted(), ring.accepted());
        assert_eq!(model.total_dropped(), ring.dropped());
        assert_eq!(model.total_drained(), drained);
    }
}
