//! The `l3fwd` application: DPDK's layer-3 forwarder.
//!
//! The paper's workhorse (§V): "The l3fwd sample application acts as a
//! software L3 forwarder either through the longest prefix matching (LPM)
//! mechanism or the exact match (EM) one. We chose the LPM approach as it
//! is the most computation-expensive one." LPM is the one lookup engine
//! implemented here.
//!
//! Per packet: parse Ethernet/IPv4, look up the destination in the route
//! table, rewrite MACs, decrement TTL with incremental checksum update,
//! and emit on the next hop.
//!
//! **Cycle calibration (70 cycles/packet).** Table I of the paper measures
//! `B ≈ 1.04–1.15 × V` at 14.88 Mpps line rate, i.e. `ρ = B/(V+B) ≈
//! 0.50–0.53`, so the single-core drain rate is `µ = λ/ρ ≈ 28–30 Mpps`.
//! At 2.1 GHz that is ≈70 cycles per packet — in line with published DPDK
//! l3fwd numbers for LPM on Xeon-class cores. The value also keeps the
//! drain tail stable under the 1.45× shared-core cache-thrash inflation
//! (see `PacketProcessor::cycles_per_burst`).

use crate::processor::{BurstVerdicts, PacketProcessor, Verdict};
use metronome_dpdk::Mbuf;
use metronome_net::headers::{l3fwd_rewrite, parse_frame, Mac};
use metronome_net::lpm::Lpm;
use std::net::Ipv4Addr;

/// A forwarding next hop: egress port and the MACs to write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NextHop {
    /// Egress port id.
    pub port: u16,
    /// Source MAC of the egress interface.
    pub src_mac: Mac,
    /// Next-hop router MAC.
    pub dst_mac: Mac,
}

/// LPM-based L3 forwarder with per-verdict counters.
pub struct L3Fwd {
    lpm: Lpm,
    hops: Vec<NextHop>,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped (no route, parse error, TTL).
    pub dropped: u64,
    // Burst-path scratch (reused across bursts so the batched path never
    // allocates in steady state): destinations of parseable frames, their
    // indices into the burst, and the bulk-lookup results.
    burst_dsts: Vec<Ipv4Addr>,
    burst_idx: Vec<usize>,
    burst_hops: Vec<Option<u16>>,
}

impl L3Fwd {
    /// Forwarder with the paper-style synthetic route table: one /8 per
    /// next hop (the l3fwd sample's default `l3fwd_lpm_route_array` shape),
    /// plus a handful of longer prefixes to exercise the second stage.
    pub fn with_sample_routes(n_hops: usize) -> Self {
        assert!((1..=64).contains(&n_hops));
        let mut lpm = Lpm::with_first_stage_bits(16, 256);
        let mut hops = Vec::new();
        for h in 0..n_hops {
            hops.push(NextHop {
                port: h as u16,
                src_mac: Mac::local(0x100 + h as u32),
                dst_mac: Mac::local(0x200 + h as u32),
            });
            // 10.h.0.0/16 plus a /24 carve-out pointing at the next hop,
            // to exercise longest-prefix override on every table.
            lpm.add(Ipv4Addr::new(10, h as u8, 0, 0), 16, h as u16)
                .expect("route");
            lpm.add(
                Ipv4Addr::new(10, h as u8, 7, 0),
                24,
                ((h + 1) % n_hops) as u16,
            )
            .expect("route");
        }
        L3Fwd {
            lpm,
            hops,
            forwarded: 0,
            dropped: 0,
            burst_dsts: Vec::new(),
            burst_idx: Vec::new(),
            burst_hops: Vec::new(),
        }
    }

    /// Next hops table.
    pub fn hops(&self) -> &[NextHop] {
        &self.hops
    }

    /// Look up the next hop for a destination.
    pub fn route(&self, dst: Ipv4Addr) -> Option<&NextHop> {
        self.lpm.lookup(dst).and_then(|h| self.hops.get(h as usize))
    }
}

impl PacketProcessor for L3Fwd {
    fn name(&self) -> &'static str {
        "l3fwd-lpm"
    }

    /// See module docs: back-solved from Table I (`µ ≈ 29 Mpps`).
    fn cycles_per_packet(&self) -> u64 {
        70
    }

    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict {
        let parsed = match parse_frame(mbuf.bytes()) {
            Ok(p) => p,
            Err(_) => {
                self.dropped += 1;
                return Verdict::Drop;
            }
        };
        let hop = self.lpm.lookup(parsed.tuple.dst_ip);
        let Some(hop) = hop.and_then(|h| self.hops.get(h as usize)).copied() else {
            self.dropped += 1;
            return Verdict::Drop;
        };
        if l3fwd_rewrite(mbuf.bytes_mut(), hop.src_mac, hop.dst_mac) {
            mbuf.port = hop.port;
            self.forwarded += 1;
            Verdict::Forward
        } else {
            self.dropped += 1;
            Verdict::Drop
        }
    }

    /// The batched forwarding path (`rte_lpm_lookup_bulk` style): parse
    /// the whole burst, resolve every destination in one bulk LPM pass,
    /// then rewrite — so the route table's cache misses are paid once per
    /// burst, back to back, instead of interleaved with header work.
    /// Observably equivalent to the per-packet loop (see the
    /// `PacketProcessor::process_burst` contract).
    fn process_burst(&mut self, mbufs: &mut [Mbuf]) -> BurstVerdicts {
        let mut verdicts = BurstVerdicts::default();
        // Stage 1: parse, collecting the destinations of parseable frames.
        self.burst_dsts.clear();
        self.burst_idx.clear();
        self.burst_hops.clear();
        for (i, mbuf) in mbufs.iter().enumerate() {
            match parse_frame(mbuf.bytes()) {
                Ok(p) => {
                    self.burst_dsts.push(p.tuple.dst_ip);
                    self.burst_idx.push(i);
                }
                Err(_) => {
                    self.dropped += 1;
                    verdicts.count(Verdict::Drop);
                }
            }
        }
        // Stage 2: one bulk LPM pass over the burst's destinations.
        self.lpm.lookup_bulk(&self.burst_dsts, &mut self.burst_hops);
        // Stage 3: rewrite and count, exactly as the scalar path would.
        for (k, &i) in self.burst_idx.iter().enumerate() {
            let mbuf = &mut mbufs[i];
            let hop = self.burst_hops[k].and_then(|h| self.hops.get(h as usize).copied());
            let v = match hop {
                Some(hop) if l3fwd_rewrite(mbuf.bytes_mut(), hop.src_mac, hop.dst_mac) => {
                    mbuf.port = hop.port;
                    self.forwarded += 1;
                    Verdict::Forward
                }
                _ => {
                    self.dropped += 1;
                    Verdict::Drop
                }
            };
            verdicts.count(v);
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_net::headers::build_udp_frame;
    use metronome_net::FiveTuple;

    fn frame_to(dst: Ipv4Addr) -> Mbuf {
        let t = FiveTuple::udp(Ipv4Addr::new(192, 168, 0, 1), 1000, dst, 2000);
        Mbuf::from_bytes(build_udp_frame(Mac::local(1), Mac::local(2), &t, &[], 64))
    }

    #[test]
    fn forwards_on_matching_route() {
        let mut fwd = L3Fwd::with_sample_routes(4);
        let mut m = frame_to(Ipv4Addr::new(10, 2, 1, 1));
        assert_eq!(fwd.process(&mut m), Verdict::Forward);
        assert_eq!(fwd.forwarded, 1);
        assert_eq!(m.port, 2);
        let p = parse_frame(m.bytes()).unwrap();
        assert_eq!(p.ttl, 63);
        assert_eq!(p.src_mac, Mac::local(0x102));
        assert_eq!(p.dst_mac, Mac::local(0x202));
    }

    #[test]
    fn carveout_route_overrides() {
        let mut fwd = L3Fwd::with_sample_routes(4);
        // 10.2.7.0/24 maps to hop 3 ((2+1) % 4).
        let mut m = frame_to(Ipv4Addr::new(10, 2, 7, 9));
        assert_eq!(fwd.process(&mut m), Verdict::Forward);
        assert_eq!(m.port, 3);
    }

    #[test]
    fn drops_unroutable() {
        let mut fwd = L3Fwd::with_sample_routes(2);
        let mut m = frame_to(Ipv4Addr::new(172, 16, 0, 1));
        assert_eq!(fwd.process(&mut m), Verdict::Drop);
        assert_eq!(fwd.dropped, 1);
    }

    #[test]
    fn drops_garbage() {
        let mut fwd = L3Fwd::with_sample_routes(2);
        let mut m = Mbuf::from_bytes(bytes::BytesMut::from(&[0u8; 20][..]));
        assert_eq!(fwd.process(&mut m), Verdict::Drop);
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut fwd = L3Fwd::with_sample_routes(2);
        let mut m = frame_to(Ipv4Addr::new(10, 1, 1, 1));
        // Force TTL to 1.
        m.bytes_mut()[14 + 8] = 1;
        assert_eq!(fwd.process(&mut m), Verdict::Drop);
    }

    #[test]
    fn burst_path_matches_per_packet_path() {
        // Mixed burst: routable, carve-out, unroutable, garbage, TTL=1.
        let build = || -> Vec<Mbuf> {
            let mut frames = vec![
                frame_to(Ipv4Addr::new(10, 2, 1, 1)),
                frame_to(Ipv4Addr::new(10, 2, 7, 9)),
                frame_to(Ipv4Addr::new(172, 16, 0, 1)),
                Mbuf::from_bytes(bytes::BytesMut::from(&[0u8; 20][..])),
                frame_to(Ipv4Addr::new(10, 1, 1, 1)),
            ];
            frames[4].bytes_mut()[14 + 8] = 1; // force TTL expiry
            frames
        };
        let mut scalar = L3Fwd::with_sample_routes(4);
        let mut scalar_frames = build();
        let mut scalar_verdicts = BurstVerdicts::default();
        for m in &mut scalar_frames {
            scalar_verdicts.count(scalar.process(m));
        }
        let mut batched = L3Fwd::with_sample_routes(4);
        let mut batched_frames = build();
        let batched_verdicts = batched.process_burst(&mut batched_frames);
        assert_eq!(batched_verdicts, scalar_verdicts);
        assert_eq!(batched.forwarded, scalar.forwarded);
        assert_eq!(batched.dropped, scalar.dropped);
        for (a, b) in scalar_frames.iter().zip(&batched_frames) {
            assert_eq!(a.bytes(), b.bytes(), "rewrites must be identical");
            assert_eq!(a.port, b.port);
        }
    }

    #[test]
    fn calibrated_mu_near_paper() {
        let fwd = L3Fwd::with_sample_routes(4);
        let mu = fwd.mu_pps(2100, 32);
        // Table I back-solve: µ ≈ 28–29 Mpps at 2.1 GHz.
        assert!((26.0e6..30.0e6).contains(&mu), "µ = {mu}");
    }

    #[test]
    fn route_lookup_api() {
        let fwd = L3Fwd::with_sample_routes(3);
        assert_eq!(fwd.route(Ipv4Addr::new(10, 1, 0, 5)).unwrap().port, 1);
        assert!(fwd.route(Ipv4Addr::new(9, 9, 9, 9)).is_none());
    }
}
