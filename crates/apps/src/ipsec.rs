//! The IPsec Security Gateway application.
//!
//! Paper §V-G: "This application acts as an IPsec end tunnel for both
//! inbound and outbound network traffic. It takes advantage of the NIC
//! offloading capabilities for cryptographic operations, while
//! encapsulation and decapsulation are performed by the application
//! itself. Our tests perform encryption of the incoming packets through
//! the AES-CBC 128-bit algorithm as packets are later sent to the
//! unprotected port. The DPDK sample application achieves a maximum
//! outbound throughput of 5.61 Mpps with 64B packets."
//!
//! **Cycle calibration (370 cycles/packet).** 5.61 Mpps at 2.1 GHz is
//! ≈374 cycles per packet end to end; we budget ~370 for the gateway and
//! let the shared burst overhead supply the remainder. The *functional*
//! transformation here really runs AES-128-CBC in software (so the
//! round-trip is verifiable); the cost model reflects the paper's
//! offloaded-crypto deployment, where the CPU pays for ESP framing, SA
//! lookup and descriptor juggling but not the cipher itself.
//!
//! **Sim cost vs. realtime cost.** The simulator charges the 370 cycles
//! (≈ 0.18 µs at 2.1 GHz) and never calls [`IpsecGateway::process`]; the
//! realtime runner calls it and pays what it costs on the host: ≈ 0.3 µs
//! for a 64 B frame (`apps.process_ns_pkt` on `perfbench`'s `ramp_ipsec`),
//! of which the software cipher — four table-driven CBC blocks,
//! `metronome_net::aes` — is about three quarters. That is within 2× of
//! the paper's offloaded deployment (it was 54×, ≈ 9.5 µs, with a
//! byte-wise cipher and two allocations and three copies a packet), and
//! one realtime core tops out at ≈ 2–3 Mpps of ESP (was ≈ 105 kpps). The
//! frame is transformed inside the mbuf's own buffer
//! ([`SecurityAssociation::encapsulate_in_place`]): no heap traffic per
//! packet on pooled mbufs, either direction (`tests/ipsec_no_alloc.rs`).

use crate::processor::{PacketProcessor, Verdict};
use metronome_dpdk::Mbuf;
use metronome_net::esp::SecurityAssociation;
use metronome_sim::Rng;
use std::net::Ipv4Addr;

/// Gateway direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Protect: plaintext in, ESP tunnel out.
    Outbound,
    /// Unprotect: ESP in, plaintext out.
    Inbound,
}

/// IPsec security gateway over one SA.
pub struct IpsecGateway {
    sa: SecurityAssociation,
    direction: Direction,
    iv_rng: Rng,
    /// Successfully transformed packets.
    pub processed: u64,
    /// Packets dropped (malformed, wrong SPI, padding errors).
    pub dropped: u64,
}

impl IpsecGateway {
    /// Outbound (encrypting) gateway with a fixed demo SA.
    pub fn outbound() -> Self {
        Self::new(Direction::Outbound, 0x900D_5EC5, 7)
    }

    /// Inbound (decrypting) gateway matching [`IpsecGateway::outbound`].
    pub fn inbound() -> Self {
        Self::new(Direction::Inbound, 0x900D_5EC5, 7)
    }

    /// Gateway with explicit SPI and IV seed.
    pub fn new(direction: Direction, spi: u32, iv_seed: u64) -> Self {
        IpsecGateway {
            sa: SecurityAssociation::new(
                spi,
                Ipv4Addr::new(172, 16, 1, 1),
                Ipv4Addr::new(172, 16, 2, 1),
                b"metronome-secret",
            ),
            direction,
            iv_rng: Rng::new(iv_seed),
            processed: 0,
            dropped: 0,
        }
    }
}

impl PacketProcessor for IpsecGateway {
    fn name(&self) -> &'static str {
        match self.direction {
            Direction::Outbound => "ipsec-secgw-out",
            Direction::Inbound => "ipsec-secgw-in",
        }
    }

    /// See module docs: back-solved from the paper's 5.61 Mpps ceiling.
    fn cycles_per_packet(&self) -> u64 {
        370
    }

    /// Transform the frame where it lies: the buffer leaves the mbuf, is
    /// encapsulated or decapsulated in place, and goes back — a pooled
    /// mbuf returns to its pool with the buffer it was handed, dataroom
    /// intact. Only a bare mbuf sized to its plaintext frame (unit tests)
    /// is too small for the ESP result and reallocates, once.
    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict {
        let mut frame = mbuf.take_data();
        let result = match self.direction {
            Direction::Outbound => {
                let mut iv = [0u8; 16];
                for half in iv.chunks_exact_mut(8) {
                    half.copy_from_slice(&self.iv_rng.next_u64().to_le_bytes());
                }
                self.sa.encapsulate_in_place(&mut frame, &iv)
            }
            Direction::Inbound => self.sa.decapsulate_in_place(&mut frame),
        };
        mbuf.replace_data(frame);
        match result {
            Ok(()) => {
                self.processed += 1;
                Verdict::Forward
            }
            Err(_) => {
                self.dropped += 1;
                Verdict::Drop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_net::headers::{build_udp_frame, parse_frame, Mac};
    use metronome_net::{FiveTuple, IpProto};

    fn plain() -> Mbuf {
        let t = FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 0, 2),
            2000,
        );
        Mbuf::from_bytes(build_udp_frame(
            Mac::local(1),
            Mac::local(2),
            &t,
            b"top secret",
            64,
        ))
    }

    #[test]
    fn outbound_produces_esp() {
        let mut gw = IpsecGateway::outbound();
        let mut m = plain();
        assert_eq!(gw.process(&mut m), Verdict::Forward);
        let p = parse_frame(m.bytes()).unwrap();
        assert_eq!(p.tuple.proto, IpProto::Esp);
        assert_eq!(gw.processed, 1);
    }

    #[test]
    fn full_tunnel_round_trip() {
        let mut out = IpsecGateway::outbound();
        let mut inb = IpsecGateway::inbound();
        let mut m = plain();
        let original = m.bytes().to_vec();
        assert_eq!(out.process(&mut m), Verdict::Forward);
        assert_ne!(m.bytes(), &original[..]);
        assert_eq!(inb.process(&mut m), Verdict::Forward);
        assert_eq!(m.bytes(), &original[..]);
    }

    /// The pool invariant: whatever the gateway does to a pooled frame,
    /// the buffer that goes back to the pool is the pool's own, dataroom
    /// intact — or the next `alloc_with` would accept a frame its buffer
    /// cannot hold without reallocating.
    #[test]
    fn pooled_mbufs_keep_their_dataroom_through_both_directions() {
        use metronome_dpdk::Mempool;
        let pool = Mempool::new(2, 2048);
        let frame = plain();
        let mut out = IpsecGateway::outbound();
        let mut inb = IpsecGateway::inbound();
        // More laps than buffers: every pooled buffer goes through both.
        for _ in 0..4 {
            let mut m = pool.alloc_with(frame.bytes()).unwrap();
            let buffer = m.bytes().as_ptr();
            assert_eq!(out.process(&mut m), Verdict::Forward);
            assert!(m.len() > frame.len(), "ESP adds tunnel overhead");
            assert!(m.capacity() >= pool.buf_capacity());
            assert_eq!(inb.process(&mut m), Verdict::Forward);
            assert_eq!(m.bytes(), frame.bytes());
            assert!(m.capacity() >= pool.buf_capacity());
            assert_eq!(
                m.bytes().as_ptr(),
                buffer,
                "the frame left its pooled buffer"
            );
            pool.free(m);
        }
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn distinct_ivs_per_packet() {
        let mut gw = IpsecGateway::outbound();
        let mut a = plain();
        let mut b = plain();
        gw.process(&mut a);
        gw.process(&mut b);
        // Identical plaintext frames must encrypt differently.
        assert_ne!(a.bytes(), b.bytes());
    }

    /// The determinism `tests/burst_parity.rs` leans on: the IV stream is
    /// a function of the seed alone, so two gateways built alike turn the
    /// same inputs into the same bytes.
    #[test]
    fn same_iv_seed_same_bytes() {
        let mut a = IpsecGateway::new(Direction::Outbound, 0xABCD, 99);
        let mut b = IpsecGateway::new(Direction::Outbound, 0xABCD, 99);
        let mut other_seed = IpsecGateway::new(Direction::Outbound, 0xABCD, 100);
        let mut draws = Rng::new(99);
        for _ in 0..8 {
            let (mut x, mut y, mut z) = (plain(), plain(), plain());
            a.process(&mut x);
            b.process(&mut y);
            other_seed.process(&mut z);
            assert_eq!(x.bytes(), y.bytes());
            assert_ne!(x.bytes(), z.bytes());
            // An IV is two draws, every byte of both.
            let iv = [
                draws.next_u64().to_le_bytes(),
                draws.next_u64().to_le_bytes(),
            ];
            assert_eq!(x.bytes()[42..58], iv.concat());
        }
    }

    /// A bare mbuf sized to its plaintext has no room for the 46–61 bytes
    /// ESP adds: the buffer reallocates, once, and the frame still
    /// round-trips. (Pooled mbufs never do: `tests/ipsec_no_alloc.rs`.)
    #[test]
    fn a_bare_mbuf_without_headroom_still_encapsulates() {
        let mut m = plain();
        let original = m.bytes().to_vec();
        let mut exact = bytes::BytesMut::with_capacity(original.len());
        exact.extend_from_slice(&original);
        m.replace_data(exact);
        let before = m.capacity();
        assert_eq!(IpsecGateway::outbound().process(&mut m), Verdict::Forward);
        assert!(m.len() > before, "the ESP frame outgrew the buffer");
        assert_eq!(IpsecGateway::inbound().process(&mut m), Verdict::Forward);
        assert_eq!(m.bytes(), &original[..]);
    }

    #[test]
    fn inbound_rejects_garbage() {
        let mut gw = IpsecGateway::inbound();
        let mut m = plain(); // plaintext is not a valid ESP packet
        assert_eq!(gw.process(&mut m), Verdict::Drop);
        assert_eq!(gw.dropped, 1);
    }

    #[test]
    fn calibrated_mu_matches_paper_ceiling() {
        let gw = IpsecGateway::outbound();
        let mu = gw.mu_pps(2100, 32);
        // Paper: 5.61 Mpps max outbound with 64B packets.
        assert!(
            (5.3e6..6.0e6).contains(&mu),
            "IPsec µ = {mu}, expected ≈5.61 Mpps"
        );
    }
}
