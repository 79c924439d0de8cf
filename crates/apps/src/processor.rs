//! The packet-processor abstraction shared by all applications.
//!
//! Every application the paper adapts to Metronome (§V-G) is, at the
//! retrieval layer, a function applied per packet plus a per-packet CPU
//! cost. The discrete-event simulator only needs the cost (it processes
//! packets in aggregate); the functional path (unit tests, examples, the
//! real-thread runtime) calls [`PacketProcessor::process`] on real frames
//! — or, on the hot path, [`PacketProcessor::process_burst`] on a whole
//! retrieval burst at once, mirroring how DPDK applications consume the
//! `rte_rx_burst` result array.
//!
//! Cycle costs are calibrated from the paper's own single-core capacities
//! at 2.1 GHz — see each application's docs and DESIGN.md §3.

use metronome_dpdk::Mbuf;

/// Outcome of processing one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Forward the (possibly rewritten) packet.
    Forward,
    /// Drop it (parse error, TTL expiry, policy).
    Drop,
}

/// Aggregate outcome of processing one retrieval burst.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BurstVerdicts {
    /// Packets whose verdict was [`Verdict::Forward`].
    pub forwarded: u64,
    /// Packets whose verdict was [`Verdict::Drop`].
    pub dropped: u64,
}

impl BurstVerdicts {
    /// Count one verdict.
    pub fn count(&mut self, v: Verdict) {
        match v {
            Verdict::Forward => self.forwarded += 1,
            Verdict::Drop => self.dropped += 1,
        }
    }

    /// Total packets the burst contained.
    pub fn total(&self) -> u64 {
        self.forwarded + self.dropped
    }
}

/// A per-packet network function with a calibrated CPU cost.
pub trait PacketProcessor: Send {
    /// Application name for reports.
    fn name(&self) -> &'static str;

    /// CPU cycles consumed per packet on the paper's 2.1 GHz Xeon Silver.
    fn cycles_per_packet(&self) -> u64;

    /// Fixed overhead per retrieved burst (descriptor refill, prefetch,
    /// loop bookkeeping). DPDK amortizes this over up to 32 packets.
    ///
    /// Kept small for a reason Table I dictates: at 64 B line rate the
    /// inter-arrival gap is 67.2 ns (141 cycles at 2.1 GHz) and busy
    /// periods *do end* at line rate — even when cache contention inflates
    /// work by ~1.45× (shared-core experiments), a 1-packet burst must
    /// still beat one inter-arrival gap ((70+20)·1.45 = 130 cycles < 141).
    fn cycles_per_burst(&self) -> u64 {
        20
    }

    /// Functionally transform one packet.
    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict;

    /// Functionally transform one retrieval burst.
    ///
    /// # Contract
    ///
    /// `process_burst` must be **observably equivalent** to calling
    /// [`PacketProcessor::process`] on each mbuf of `mbufs` in slice
    /// order: the same frame rewrites, the same per-packet verdicts (only
    /// their aggregate counts are returned), and the same internal state
    /// transitions (counters, flow tables, SA sequence numbers advance as
    /// if the packets had been processed one by one). Implementations may
    /// reorder *work* for burst amortization — staged parsing, bulk table
    /// lookups, deferred rewrites — but never observable effects.
    ///
    /// The mbufs stay owned by the caller (the retrieval loop recycles
    /// them to the mempool afterwards); an implementation must not assume
    /// it sees a buffer again after returning.
    ///
    /// The default implementation is the per-packet loop, and every
    /// application here uses it. Override it only with a batched path
    /// measured faster than that loop at the bursts the workers drain (a
    /// few packets at a time): `l3fwd`'s staged bulk-LPM path was not.
    fn process_burst(&mut self, mbufs: &mut [Mbuf]) -> BurstVerdicts {
        let mut verdicts = BurstVerdicts::default();
        for mbuf in mbufs {
            verdicts.count(self.process(mbuf));
        }
        verdicts
    }

    /// Single-core drain rate µ in packets/second at `mhz`, with the
    /// fixed per-burst overhead amortized over `burst`-packet bursts (the
    /// configured Rx burst size — DPDK convention 32, but ablations run
    /// down to 1, where the overhead is paid per packet).
    fn mu_pps(&self, mhz: u32, burst: u32) -> f64 {
        let burst = burst.max(1) as f64;
        let cycles = self.cycles_per_packet() as f64 + self.cycles_per_burst() as f64 / burst;
        mhz as f64 * 1e6 / cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    struct Nop;
    impl PacketProcessor for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn cycles_per_packet(&self) -> u64 {
            70
        }
        fn process(&mut self, _mbuf: &mut Mbuf) -> Verdict {
            Verdict::Forward
        }
    }

    /// Drops every other packet, so the default burst loop has both
    /// verdicts to count.
    struct Alternating {
        n: u64,
    }
    impl PacketProcessor for Alternating {
        fn name(&self) -> &'static str {
            "alternating"
        }
        fn cycles_per_packet(&self) -> u64 {
            1
        }
        fn process(&mut self, _mbuf: &mut Mbuf) -> Verdict {
            self.n += 1;
            if self.n.is_multiple_of(2) {
                Verdict::Drop
            } else {
                Verdict::Forward
            }
        }
    }

    #[test]
    fn mu_matches_hand_computation() {
        let p = Nop;
        // 70 + 20/32 = 70.625 cycles -> 2.1e9/70.625 ≈ 29.7 Mpps.
        let mu = p.mu_pps(2100, 32);
        assert!((mu - 2.1e9 / 70.625).abs() < 1.0, "{mu}");
    }

    #[test]
    fn mu_scales_with_frequency() {
        let p = Nop;
        assert!((p.mu_pps(1050, 32) * 2.0 - p.mu_pps(2100, 32)).abs() < 1e-6);
    }

    #[test]
    fn mu_tracks_burst_size() {
        let p = Nop;
        // burst=1 pays the whole overhead per packet: 70+20 = 90 cycles.
        let mu1 = p.mu_pps(2100, 1);
        assert!((mu1 - 2.1e9 / 90.0).abs() < 1.0, "{mu1}");
        assert!(p.mu_pps(2100, 32) > mu1);
        // A zero burst is clamped to 1, not a division blow-up.
        assert!((p.mu_pps(2100, 0) - mu1).abs() < 1e-6);
    }

    #[test]
    fn default_burst_overhead() {
        let p = Nop;
        let mut m = Mbuf::from_bytes(BytesMut::new());
        assert_eq!(p.cycles_per_burst(), 20);
        let mut p = Nop;
        assert_eq!(p.process(&mut m), Verdict::Forward);
    }

    #[test]
    fn default_process_burst_loops_in_order() {
        let mut p = Alternating { n: 0 };
        let mut burst: Vec<Mbuf> = (0..5).map(|_| Mbuf::from_bytes(BytesMut::new())).collect();
        let v = p.process_burst(&mut burst);
        assert_eq!(v.forwarded, 3);
        assert_eq!(v.dropped, 2);
        assert_eq!(v.total(), 5);
        assert_eq!(p.n, 5, "state must advance exactly once per packet");
    }
}
