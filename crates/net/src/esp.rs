//! ESP (IPsec Encapsulating Security Payload) tunnel-mode encap/decap.
//!
//! The paper's second application is DPDK's IPsec Security Gateway sample,
//! acting as "an IPsec end tunnel for both inbound and outbound network
//! trafﬁc ... encryption of the incoming packets through the AES-CBC
//! 128-bit algorithm as packets are later sent to the unprotected port"
//! (§V-G). This module provides the packet transformation that gateway
//! performs: RFC 4303 ESP framing in tunnel mode with AES-128-CBC, without
//! authentication (matching the sample's cipher-only configuration used in
//! the paper's throughput test).

use crate::aes::{Aes128, BLOCK};
use crate::checksum::internet_checksum;
use crate::flow::IpProto;
use crate::headers::{ETHERTYPE_IPV4, ETH_HEADER_LEN, IPV4_HEADER_LEN};
use bytes::BytesMut;
use std::net::Ipv4Addr;

/// ESP header: SPI (4) + sequence number (4).
pub const ESP_HEADER_LEN: usize = 8;
/// IV length for AES-CBC.
pub const ESP_IV_LEN: usize = 16;
/// Trailer: pad length (1) + next header (1), inside the encrypted payload.
pub const ESP_TRAILER_LEN: usize = 2;

/// Offsets into an ESP tunnel frame: `Ethernet | outer IPv4 | SPI, seq |
/// IV | ciphertext`.
const ESP_START: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN;
const IV_START: usize = ESP_START + ESP_HEADER_LEN;
const CIPHERTEXT_START: usize = IV_START + ESP_IV_LEN;
/// Next-header value of the trailer: 4 = IPv4 (tunnel mode).
const NEXT_HEADER_IPV4: u8 = 4;

/// Bytes of CBC payload for an inner packet of `inner_len` bytes: the
/// packet, 0–15 pad bytes and the trailer, in whole blocks.
fn padded_len(inner_len: usize) -> usize {
    (inner_len + ESP_TRAILER_LEN).div_ceil(BLOCK) * BLOCK
}

/// A unidirectional Security Association.
#[derive(Clone)]
pub struct SecurityAssociation {
    /// Security Parameter Index carried in the ESP header.
    pub spi: u32,
    /// Tunnel outer source address.
    pub tunnel_src: Ipv4Addr,
    /// Tunnel outer destination address.
    pub tunnel_dst: Ipv4Addr,
    cipher: Aes128,
    next_seq: u32,
}

/// Errors from ESP processing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EspError {
    /// Packet too short to carry the claimed structure.
    Truncated,
    /// The outer headers are not IPv4 carrying ESP (EtherType, version/IHL,
    /// protocol), or the outer total length overruns the frame.
    NotEsp,
    /// Encrypted payload not block-aligned.
    BadAlignment,
    /// Pad-length byte inconsistent with payload size (wrong key or
    /// corrupted packet).
    BadPadding,
    /// SPI in the packet does not match this SA.
    WrongSpi,
}

impl SecurityAssociation {
    /// Create an SA with the given SPI, tunnel endpoints and AES-128 key.
    pub fn new(spi: u32, tunnel_src: Ipv4Addr, tunnel_dst: Ipv4Addr, key: &[u8; 16]) -> Self {
        SecurityAssociation {
            spi,
            tunnel_src,
            tunnel_dst,
            cipher: Aes128::new(key),
            next_seq: 1,
        }
    }

    /// Tunnel-mode encapsulation of a full Ethernet frame, inside the
    /// frame's own buffer.
    ///
    /// The inner IPv4 packet (everything after the Ethernet header) moves
    /// to its ciphertext offset, is padded and encrypted there, and
    /// `outer IPv4 | ESP | IV` is written into the gap; the original
    /// Ethernet header is re-used for the outer frame (the gateway
    /// rewrites MACs separately when forwarding). One copy of the inner
    /// packet, and no allocation when the buffer has the capacity for the
    /// 46–61 bytes ESP adds — a pooled mbuf's dataroom does.
    /// `iv` is caller-provided (deterministic tests; a real gateway uses an
    /// unpredictable IV per packet). On `Err` the frame is untouched.
    pub fn encapsulate_in_place(
        &mut self,
        frame: &mut BytesMut,
        iv: &[u8; ESP_IV_LEN],
    ) -> Result<(), EspError> {
        if frame.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
            return Err(EspError::Truncated);
        }
        let inner_len = frame.len() - ETH_HEADER_LEN;
        let payload_len = padded_len(inner_len);
        let pad_len = payload_len - inner_len - ESP_TRAILER_LEN;

        frame.resize(CIPHERTEXT_START + payload_len, 0);
        frame.copy_within(ETH_HEADER_LEN..ETH_HEADER_LEN + inner_len, CIPHERTEXT_START);
        let (head, payload) = frame.split_at_mut(CIPHERTEXT_START);

        // Plaintext = inner IP packet + padding + pad_len + next_header,
        // the padding RFC 4303's monotonic 1,2,3,...
        let (pad, trailer) = payload[inner_len..].split_at_mut(pad_len);
        for (i, b) in pad.iter_mut().enumerate() {
            *b = (i + 1) as u8;
        }
        trailer.copy_from_slice(&[pad_len as u8, NEXT_HEADER_IPV4]);
        self.cipher.cbc_encrypt(iv, payload);

        let outer_total = (CIPHERTEXT_START - ETH_HEADER_LEN + payload_len) as u16;
        let mut ip = [0u8; IPV4_HEADER_LEN];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&outer_total.to_be_bytes());
        ip[8] = 64;
        ip[9] = IpProto::Esp.number();
        ip[12..16].copy_from_slice(&self.tunnel_src.octets());
        ip[16..20].copy_from_slice(&self.tunnel_dst.octets());
        let cks = internet_checksum(&ip);
        ip[10..12].copy_from_slice(&cks.to_be_bytes());
        head[ETH_HEADER_LEN..ESP_START].copy_from_slice(&ip);

        head[ESP_START..ESP_START + 4].copy_from_slice(&self.spi.to_be_bytes());
        head[ESP_START + 4..IV_START].copy_from_slice(&self.next_seq.to_be_bytes());
        self.next_seq = self.next_seq.wrapping_add(1);
        head[IV_START..].copy_from_slice(iv);
        Ok(())
    }

    /// [`Self::encapsulate_in_place`] on a copy of `frame`.
    pub fn encapsulate(
        &mut self,
        frame: &[u8],
        iv: &[u8; ESP_IV_LEN],
    ) -> Result<BytesMut, EspError> {
        let inner_len = frame.len().saturating_sub(ETH_HEADER_LEN);
        let mut out = BytesMut::with_capacity(CIPHERTEXT_START + padded_len(inner_len));
        out.extend_from_slice(frame);
        self.encapsulate_in_place(&mut out, iv)?;
        Ok(out)
    }

    /// Tunnel-mode decapsulation inside the frame's own buffer: leaves the
    /// inner Ethernet frame (outer Ethernet header + decrypted inner IP
    /// packet). The mirror of [`Self::encapsulate_in_place`]: decrypt where
    /// the ciphertext lies, check the trailer, move the inner packet back
    /// behind the Ethernet header, truncate.
    ///
    /// The outer headers are checked before anything is decrypted. A
    /// `BadPadding` frame is left with its payload decrypted — it is
    /// garbage either way and the caller drops it; every other `Err`
    /// leaves the frame untouched.
    pub fn decapsulate_in_place(&self, frame: &mut BytesMut) -> Result<(), EspError> {
        if frame.len() < CIPHERTEXT_START + BLOCK {
            return Err(EspError::Truncated);
        }
        let ip = &frame[ETH_HEADER_LEN..ESP_START];
        let outer_total = u16::from_be_bytes([ip[2], ip[3]]) as usize;
        if frame[12..ETH_HEADER_LEN] != ETHERTYPE_IPV4.to_be_bytes()
            || ip[0] != 0x45
            || ip[9] != IpProto::Esp.number()
            || ETH_HEADER_LEN + outer_total > frame.len()
        {
            return Err(EspError::NotEsp);
        }
        if frame[ESP_START..ESP_START + 4] != self.spi.to_be_bytes() {
            return Err(EspError::WrongSpi);
        }
        let (head, payload) = frame.split_at_mut(CIPHERTEXT_START);
        if !payload.len().is_multiple_of(BLOCK) {
            return Err(EspError::BadAlignment);
        }
        let iv: &[u8; ESP_IV_LEN] = head[IV_START..]
            .try_into()
            .expect("the IV field is ESP_IV_LEN bytes");
        self.cipher.cbc_decrypt(iv, payload);

        // Validate and strip the trailer.
        let (body, trailer) = payload.split_at(payload.len() - ESP_TRAILER_LEN);
        let pad_len = trailer[0] as usize;
        if trailer[1] != NEXT_HEADER_IPV4 || pad_len > body.len() {
            return Err(EspError::BadPadding);
        }
        // Verify the monotonic pad bytes — catches wrong-key decrypts early.
        let inner_len = body.len() - pad_len;
        if body[inner_len..]
            .iter()
            .enumerate()
            .any(|(i, &b)| b != (i + 1) as u8)
        {
            return Err(EspError::BadPadding);
        }
        frame.copy_within(
            CIPHERTEXT_START..CIPHERTEXT_START + inner_len,
            ETH_HEADER_LEN,
        );
        frame.truncate(ETH_HEADER_LEN + inner_len);
        Ok(())
    }

    /// [`Self::decapsulate_in_place`] on a copy of `frame`.
    pub fn decapsulate(&self, frame: &[u8]) -> Result<BytesMut, EspError> {
        let mut out = BytesMut::from(frame);
        self.decapsulate_in_place(&mut out)?;
        Ok(out)
    }

    /// Current outbound sequence number (next to be used).
    pub fn next_sequence(&self) -> u32 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use crate::headers::{build_udp_frame, parse_frame, Mac};

    fn sa() -> SecurityAssociation {
        SecurityAssociation::new(
            0x1001,
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(172, 16, 0, 2),
            &[0x42; 16],
        )
    }

    fn plain_frame() -> BytesMut {
        let t = FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            1111,
            Ipv4Addr::new(10, 0, 0, 2),
            2222,
        );
        build_udp_frame(Mac::local(1), Mac::local(2), &t, b"secret payload!", 64)
    }

    #[test]
    fn encap_decap_round_trip() {
        let mut out_sa = sa();
        let in_sa = sa();
        let original = plain_frame();
        let iv = [0x17; 16];
        let encrypted = out_sa.encapsulate(&original, &iv).unwrap();
        let recovered = in_sa.decapsulate(&encrypted).unwrap();
        assert_eq!(&recovered[..], &original[..]);
    }

    #[test]
    fn outer_header_is_esp_tunnel() {
        let mut out_sa = sa();
        let encrypted = out_sa.encapsulate(&plain_frame(), &[0; 16]).unwrap();
        let p = parse_frame(&encrypted).unwrap();
        assert_eq!(p.tuple.proto, IpProto::Esp);
        assert_eq!(p.tuple.src_ip, Ipv4Addr::new(172, 16, 0, 1));
        assert_eq!(p.tuple.dst_ip, Ipv4Addr::new(172, 16, 0, 2));
    }

    #[test]
    fn ciphertext_hides_payload() {
        let mut out_sa = sa();
        let original = plain_frame();
        let encrypted = out_sa.encapsulate(&original, &[0x55; 16]).unwrap();
        // The inner UDP payload bytes must not appear in the ESP packet.
        let needle = b"secret payload!";
        let hay = &encrypted[..];
        assert!(
            !hay.windows(needle.len()).any(|w| w == needle),
            "plaintext leaked"
        );
    }

    #[test]
    fn sequence_increments() {
        let mut out_sa = sa();
        assert_eq!(out_sa.next_sequence(), 1);
        out_sa.encapsulate(&plain_frame(), &[0; 16]).unwrap();
        out_sa.encapsulate(&plain_frame(), &[0; 16]).unwrap();
        assert_eq!(out_sa.next_sequence(), 3);
    }

    #[test]
    fn wrong_spi_rejected() {
        let mut out_sa = sa();
        let encrypted = out_sa.encapsulate(&plain_frame(), &[0; 16]).unwrap();
        let other = SecurityAssociation::new(
            0x2002,
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(172, 16, 0, 2),
            &[0x42; 16],
        );
        assert_eq!(other.decapsulate(&encrypted), Err(EspError::WrongSpi));
    }

    #[test]
    fn wrong_key_rejected_via_padding() {
        let mut out_sa = sa();
        let encrypted = out_sa.encapsulate(&plain_frame(), &[0; 16]).unwrap();
        let wrong_key = SecurityAssociation::new(
            0x1001,
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(172, 16, 0, 2),
            &[0x43; 16],
        );
        assert_eq!(wrong_key.decapsulate(&encrypted), Err(EspError::BadPadding));
    }

    #[test]
    fn truncated_rejected() {
        let in_sa = sa();
        assert_eq!(in_sa.decapsulate(&[0u8; 30]), Err(EspError::Truncated));
    }

    #[test]
    fn corrupted_ciphertext_rejected() {
        let mut out_sa = sa();
        let mut encrypted = out_sa.encapsulate(&plain_frame(), &[0; 16]).unwrap();
        let n = encrypted.len();
        encrypted[n - 1] ^= 0xFF; // flips trailer after decrypt
        let in_sa = sa();
        assert!(in_sa.decapsulate(&encrypted).is_err());
    }

    /// An arbitrary frame of `len` bytes behind an IPv4 EtherType (ESP does
    /// not parse the inner packet).
    fn patterned_frame(len: usize) -> BytesMut {
        let mut frame: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        frame[12..14].copy_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
        BytesMut::from(frame)
    }

    /// The ESP frame for `frame`, put together the long way round: headers
    /// field by field, the plaintext in a buffer of its own.
    fn assembled_by_hand(
        sa: &SecurityAssociation,
        frame: &[u8],
        seq: u32,
        iv: &[u8; 16],
    ) -> BytesMut {
        use bytes::BufMut;
        let mut plaintext = frame[ETH_HEADER_LEN..].to_vec();
        let pad_len = (BLOCK - (plaintext.len() + ESP_TRAILER_LEN) % BLOCK) % BLOCK;
        plaintext.extend((1..=pad_len).map(|i| i as u8));
        plaintext.extend([pad_len as u8, 4]);
        sa.cipher.cbc_encrypt(iv, &mut plaintext);

        let mut ip = BytesMut::new();
        ip.put_u8(0x45);
        ip.put_u8(0);
        ip.put_u16((IPV4_HEADER_LEN + ESP_HEADER_LEN + ESP_IV_LEN + plaintext.len()) as u16);
        ip.put_u32(0);
        ip.put_u8(64);
        ip.put_u8(50);
        ip.put_u16(0);
        ip.put_slice(&sa.tunnel_src.octets());
        ip.put_slice(&sa.tunnel_dst.octets());
        let cks = internet_checksum(&ip);
        ip[10..12].copy_from_slice(&cks.to_be_bytes());

        let mut out = BytesMut::new();
        out.put_slice(&frame[..ETH_HEADER_LEN]);
        out.put_slice(&ip);
        out.put_u32(sa.spi);
        out.put_u32(seq);
        out.put_slice(iv);
        out.put_slice(&plaintext);
        out
    }

    /// Every frame length from the shortest legal one to a full MTU frame
    /// — all 16 pad lengths, 0 included, many times over.
    #[test]
    fn in_place_framing_equals_the_frame_assembled_by_hand_and_inverts() {
        let mut out_sa = sa();
        let in_sa = sa();
        let mut pad_lengths = std::collections::BTreeSet::new();
        for len in 34..=1514usize {
            let original = patterned_frame(len);
            let iv: [u8; 16] = core::array::from_fn(|i| (len + i) as u8);
            let seq = out_sa.next_sequence();

            let mut frame = original.clone();
            out_sa.encapsulate_in_place(&mut frame, &iv).unwrap();
            assert_eq!(
                frame,
                assembled_by_hand(&out_sa, &original, seq, &iv),
                "length {len}"
            );
            assert_eq!(out_sa.next_sequence(), seq + 1);
            pad_lengths.insert(frame.len() - CIPHERTEXT_START - (len - ETH_HEADER_LEN) - 2);

            in_sa.decapsulate_in_place(&mut frame).unwrap();
            assert_eq!(frame, original, "length {len}");
        }
        assert!(pad_lengths.into_iter().eq(0..16));
    }

    #[test]
    fn the_copying_wrappers_are_the_in_place_bodies() {
        let (mut a, mut b) = (sa(), sa());
        let original = plain_frame();
        for round in 1..=3u32 {
            let iv = [round as u8; 16];
            let wrapped = a.encapsulate(&original, &iv).unwrap();
            let mut in_place = original.clone();
            b.encapsulate_in_place(&mut in_place, &iv).unwrap();
            assert_eq!(wrapped, in_place);
            assert_eq!(a.next_sequence(), round + 1);
            assert_eq!(b.next_sequence(), round + 1);
            assert_eq!(wrapped[38..42], round.to_be_bytes());
            assert_eq!(a.decapsulate(&wrapped).unwrap(), original);
        }
    }

    #[test]
    fn a_refused_frame_takes_no_sequence_number_and_stays_as_it_was() {
        let mut out_sa = sa();
        let mut short = BytesMut::from(&[0u8; 33][..]);
        assert_eq!(
            out_sa.encapsulate_in_place(&mut short, &[0; 16]),
            Err(EspError::Truncated)
        );
        assert_eq!(
            out_sa.encapsulate(&short, &[0; 16]),
            Err(EspError::Truncated)
        );
        assert_eq!(out_sa.encapsulate(&[], &[0; 16]), Err(EspError::Truncated));
        assert_eq!(&short[..], &[0u8; 33]);
        assert_eq!(out_sa.next_sequence(), 1);
    }

    /// A buffer with no room to spare (a bare mbuf sized to its plaintext)
    /// still encapsulates: `resize` reallocates it, once.
    #[test]
    fn a_buffer_sized_to_its_plaintext_grows() {
        let mut out_sa = sa();
        let original = plain_frame();
        let mut frame = BytesMut::with_capacity(original.len());
        frame.extend_from_slice(&original);
        assert!(frame.capacity() < CIPHERTEXT_START + padded_len(original.len() - ETH_HEADER_LEN));
        out_sa.encapsulate_in_place(&mut frame, &[3; 16]).unwrap();
        sa().decapsulate_in_place(&mut frame).unwrap();
        assert_eq!(frame, original);
    }

    /// Before the outer headers were looked at, this frame — plain UDP whose
    /// ports spell the SPI at the ESP header's offset — was decrypted as
    /// garbage and refused only because the padding check happened to fail.
    #[test]
    fn a_udp_frame_carrying_the_spi_at_the_esp_offset_is_not_esp() {
        let in_sa = sa();
        let t = FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            (in_sa.spi >> 16) as u16,
            Ipv4Addr::new(10, 0, 0, 2),
            in_sa.spi as u16,
        );
        let frame = build_udp_frame(Mac::local(1), Mac::local(2), &t, &[0x5A; 48], 0);
        assert_eq!(frame.len(), 90, "long enough and block-aligned past the IV");
        assert_eq!(frame[ESP_START..ESP_START + 4], in_sa.spi.to_be_bytes());
        assert_eq!(in_sa.decapsulate(&frame), Err(EspError::NotEsp));
        // A short plaintext frame is too short to be looked at at all.
        assert_eq!(in_sa.decapsulate(&plain_frame()), Err(EspError::Truncated));
    }

    #[test]
    fn each_outer_header_field_is_checked() {
        let encrypted = sa().encapsulate(&plain_frame(), &[0; 16]).unwrap();
        let in_sa = sa();
        // EtherType, version/IHL, protocol, total length (high byte).
        for (offset, value) in [(12, 0x86), (14, 0x46), (23, 17), (16, 0x01)] {
            let mut frame = encrypted.clone();
            frame[offset] = value;
            assert_eq!(
                in_sa.decapsulate_in_place(&mut frame),
                Err(EspError::NotEsp),
                "byte {offset}"
            );
            frame[offset] = encrypted[offset];
            assert_eq!(frame, encrypted, "a refused frame is untouched");
        }
        assert!(in_sa.decapsulate(&encrypted).is_ok());
    }
}
