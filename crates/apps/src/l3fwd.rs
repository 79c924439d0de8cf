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
//! and emit on the next hop. A burst is the trait's per-packet loop: a
//! staged path (parse the burst, one bulk lookup, rewrite) measured slower
//! at bursts of 1, 2, 3 and 25 packets, since the bulk lookup is the same
//! loop over [`Lpm::lookup`] and the stages add three scratch passes.
//!
//! **Cycle calibration (70 cycles/packet).** Table I of the paper measures
//! `B ≈ 1.04–1.15 × V` at 14.88 Mpps line rate, i.e. `ρ = B/(V+B) ≈
//! 0.50–0.53`, so the single-core drain rate is `µ = λ/ρ ≈ 28–30 Mpps`.
//! At 2.1 GHz that is ≈70 cycles per packet — in line with published DPDK
//! l3fwd numbers for LPM on Xeon-class cores. The value also keeps the
//! drain tail stable under the 1.45× shared-core cache-thrash inflation
//! (see `PacketProcessor::cycles_per_burst`).

use crate::processor::{PacketProcessor, Verdict};
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
