//! Ethernet / IPv4 / UDP header construction and parsing.
//!
//! The evaluation traffic is 64-byte UDP-in-IPv4-in-Ethernet frames (the
//! 10 GbE worst case: 14.88 Mpps). These builders produce real wire-format
//! bytes so the applications (l3fwd rewrites MACs and decrements TTL, the
//! IPsec gateway re-encapsulates, FloWatcher parses tuples) operate on
//! genuine packets rather than opaque tokens.

use crate::checksum::{finish, internet_checksum, raw_sum};
use crate::flow::{FiveTuple, IpProto};
use bytes::{BufMut, BytesMut};
use std::net::Ipv4Addr;

/// Length of an Ethernet header (no VLAN).
pub const ETH_HEADER_LEN: usize = 14;
/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;
/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;
/// Minimum Ethernet frame (without FCS) — 64B frames on the wire carry a
/// 4-byte FCS, so the buildable portion is 60 bytes.
pub const MIN_FRAME_NO_FCS: usize = 60;
/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// A locally administered address derived from a small integer id —
    /// handy for synthetic topologies.
    pub fn local(id: u32) -> Mac {
        let b = id.to_be_bytes();
        Mac([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

/// Errors from packet parsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// Frame shorter than the headers it claims to carry.
    Truncated,
    /// EtherType other than IPv4.
    NotIpv4,
    /// IPv4 version/IHL invalid or options present where unsupported.
    BadIpHeader,
    /// IPv4 header checksum mismatch.
    BadChecksum,
    /// Transport protocol we don't parse.
    UnsupportedProto(u8),
}

/// Build a complete UDP/IPv4/Ethernet frame for `tuple` with `payload_len`
/// bytes of zeroed payload, padding the result to at least `frame_len`
/// (FCS excluded). Returns the wire bytes.
///
/// `frame_len` is what the paper calls packet size (64B tests build 60 bytes
/// here + 4 FCS on the wire).
pub fn build_udp_frame(
    src_mac: Mac,
    dst_mac: Mac,
    tuple: &FiveTuple,
    payload: &[u8],
    frame_len: usize,
) -> BytesMut {
    let ip_len = IPV4_HEADER_LEN + UDP_HEADER_LEN + payload.len();
    let mut buf = BytesMut::with_capacity(frame_len.max(ETH_HEADER_LEN + ip_len));

    // Ethernet.
    buf.put_slice(&dst_mac.0);
    buf.put_slice(&src_mac.0);
    buf.put_u16(ETHERTYPE_IPV4);

    // IPv4.
    let ip_start = buf.len();
    buf.put_u8(0x45); // version 4, IHL 5
    buf.put_u8(0); // DSCP/ECN
    buf.put_u16(ip_len as u16);
    buf.put_u16(0); // identification
    buf.put_u16(0); // flags/fragment
    buf.put_u8(64); // TTL
    buf.put_u8(tuple.proto.number());
    buf.put_u16(0); // checksum placeholder
    buf.put_slice(&tuple.src_ip.octets());
    buf.put_slice(&tuple.dst_ip.octets());
    let cks = internet_checksum(&buf[ip_start..ip_start + IPV4_HEADER_LEN]);
    buf[ip_start + 10..ip_start + 12].copy_from_slice(&cks.to_be_bytes());

    // UDP.
    let udp_start = buf.len();
    buf.put_u16(tuple.src_port);
    buf.put_u16(tuple.dst_port);
    buf.put_u16((UDP_HEADER_LEN + payload.len()) as u16);
    buf.put_u16(0); // checksum placeholder
    buf.put_slice(payload);
    let udp_cks = udp_checksum(tuple, &buf[udp_start..]);
    buf[udp_start + 6..udp_start + 8].copy_from_slice(&udp_cks.to_be_bytes());

    // Pad to the requested frame length (Ethernet padding bytes).
    while buf.len() < frame_len {
        buf.put_u8(0);
    }
    buf
}

/// UDP checksum with the IPv4 pseudo-header. Returns 0xFFFF instead of 0
/// (RFC 768: transmitted 0 means "no checksum").
pub fn udp_checksum(tuple: &FiveTuple, udp_segment: &[u8]) -> u16 {
    let mut sum = 0u32;
    sum += raw_sum(&tuple.src_ip.octets());
    sum += raw_sum(&tuple.dst_ip.octets());
    sum += IpProto::Udp.number() as u32;
    sum += udp_segment.len() as u32;
    // Zero the checksum field for computation.
    sum += raw_sum(&udp_segment[..6]);
    sum += raw_sum(&udp_segment[8..]);
    let c = finish(sum);
    if c == 0 {
        0xFFFF
    } else {
        c
    }
}

/// Parsed view of a UDP/IPv4 frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParsedFrame {
    /// Source MAC.
    pub src_mac: Mac,
    /// Destination MAC.
    pub dst_mac: Mac,
    /// Flow tuple (ports are zero for non-TCP/UDP protocols such as ESP).
    pub tuple: FiveTuple,
    /// IPv4 TTL.
    pub ttl: u8,
    /// Offset of the IPv4 payload (transport header) within the frame.
    pub l4_offset: usize,
    /// Total IPv4 length field.
    pub ip_total_len: usize,
}

/// Parse an Ethernet/IPv4 frame; UDP and TCP get ports extracted, ESP gets
/// zero ports (flow identity for ESP is the SPI, handled by the IPsec app).
pub fn parse_frame(frame: &[u8]) -> Result<ParsedFrame, ParseError> {
    if frame.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    let dst_mac = Mac(frame[0..6].try_into().unwrap());
    let src_mac = Mac(frame[6..12].try_into().unwrap());
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != ETHERTYPE_IPV4 {
        return Err(ParseError::NotIpv4);
    }
    let ip = &frame[ETH_HEADER_LEN..];
    if ip[0] != 0x45 {
        return Err(ParseError::BadIpHeader);
    }
    if !crate::checksum::verify(&ip[..IPV4_HEADER_LEN]) {
        return Err(ParseError::BadChecksum);
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if total_len < IPV4_HEADER_LEN || frame.len() < ETH_HEADER_LEN + total_len {
        return Err(ParseError::Truncated);
    }
    let ttl = ip[8];
    let proto_num = ip[9];
    let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let proto = IpProto::from_number(proto_num).ok_or(ParseError::UnsupportedProto(proto_num))?;
    let l4 = &ip[IPV4_HEADER_LEN..];
    let (src_port, dst_port) = match proto {
        IpProto::Udp | IpProto::Tcp => {
            if l4.len() < 4 {
                return Err(ParseError::Truncated);
            }
            (
                u16::from_be_bytes([l4[0], l4[1]]),
                u16::from_be_bytes([l4[2], l4[3]]),
            )
        }
        IpProto::Esp => (0, 0),
    };
    Ok(ParsedFrame {
        src_mac,
        dst_mac,
        tuple: FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        },
        ttl,
        l4_offset: ETH_HEADER_LEN + IPV4_HEADER_LEN,
        ip_total_len: total_len,
    })
}

/// In-place L3 forwarding rewrite: swap in new MACs, decrement TTL, and
/// incrementally update the IPv4 checksum (RFC 1624). This is what DPDK's
/// `l3fwd` does per packet.
///
/// Returns `false` (drop) if the TTL would reach zero.
pub fn l3fwd_rewrite(frame: &mut [u8], new_src: Mac, new_dst: Mac) -> bool {
    debug_assert!(frame.len() >= ETH_HEADER_LEN + IPV4_HEADER_LEN);
    let ttl = frame[ETH_HEADER_LEN + 8];
    if ttl <= 1 {
        return false;
    }
    frame[0..6].copy_from_slice(&new_dst.0);
    frame[6..12].copy_from_slice(&new_src.0);
    frame[ETH_HEADER_LEN + 8] = ttl - 1;
    // RFC 1624 incremental update: HC' = ~(~HC + ~m + m').
    let cks_off = ETH_HEADER_LEN + 10;
    let old = u16::from_be_bytes([frame[cks_off], frame[cks_off + 1]]);
    let old_word = u16::from_be_bytes([ttl, frame[ETH_HEADER_LEN + 9]]);
    let new_word = u16::from_be_bytes([ttl - 1, frame[ETH_HEADER_LEN + 9]]);
    let sum = (!old as u32) + (!old_word as u32) + new_word as u32;
    let new = !crate::checksum::fold(sum);
    frame[cks_off..cks_off + 2].copy_from_slice(&new.to_be_bytes());
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(192, 168, 1, 10),
            5555,
            Ipv4Addr::new(10, 0, 0, 1),
            53,
        )
    }

    #[test]
    fn build_then_parse_round_trip() {
        let f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[1, 2, 3, 4], 64);
        assert_eq!(f.len(), 64);
        let p = parse_frame(&f).unwrap();
        assert_eq!(p.tuple, tuple());
        assert_eq!(p.src_mac, Mac::local(1));
        assert_eq!(p.dst_mac, Mac::local(2));
        assert_eq!(p.ttl, 64);
        assert_eq!(p.ip_total_len, 20 + 8 + 4);
    }

    #[test]
    fn min_frame_is_padded() {
        let f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[], 60);
        assert_eq!(f.len(), 60);
        parse_frame(&f).unwrap();
    }

    #[test]
    fn large_frame() {
        let payload = vec![0xAB; 1400];
        let f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &payload, 1442);
        let p = parse_frame(&f).unwrap();
        assert_eq!(p.ip_total_len, 20 + 8 + 1400);
    }

    #[test]
    fn parse_rejects_truncated() {
        assert_eq!(parse_frame(&[0u8; 10]), Err(ParseError::Truncated));
    }

    #[test]
    fn parse_rejects_non_ipv4() {
        let mut f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[], 64);
        f[12] = 0x86;
        f[13] = 0xDD; // IPv6 ethertype
        assert_eq!(parse_frame(&f), Err(ParseError::NotIpv4));
    }

    #[test]
    fn parse_rejects_corrupt_checksum() {
        let mut f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[], 64);
        f[ETH_HEADER_LEN + 12] ^= 0xFF; // corrupt source IP
        assert_eq!(parse_frame(&f), Err(ParseError::BadChecksum));
    }

    #[test]
    fn l3fwd_rewrite_updates_ttl_and_checksum() {
        let mut f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[], 64);
        assert!(l3fwd_rewrite(&mut f, Mac::local(7), Mac::local(8)));
        let p = parse_frame(&f).expect("checksum must still verify");
        assert_eq!(p.ttl, 63);
        assert_eq!(p.src_mac, Mac::local(7));
        assert_eq!(p.dst_mac, Mac::local(8));
    }

    #[test]
    fn l3fwd_rewrite_many_hops_checksum_stays_valid() {
        let mut f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[], 64);
        for _ in 0..60 {
            assert!(l3fwd_rewrite(&mut f, Mac::local(7), Mac::local(8)));
            parse_frame(&f).expect("incremental checksum drifted");
        }
    }

    #[test]
    fn l3fwd_drops_ttl_expired() {
        let mut f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[], 64);
        f[ETH_HEADER_LEN + 8] = 1;
        // Fix the checksum for the modified TTL so parse would pass...
        // rewrite must refuse regardless of checksum state.
        assert!(!l3fwd_rewrite(&mut f, Mac::local(7), Mac::local(8)));
    }

    #[test]
    fn udp_checksum_nonzero() {
        // RFC 768: a computed 0 must be transmitted as 0xFFFF; in all cases
        // the field must be nonzero for a checksummed packet.
        let f = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(), &[0x55; 9], 64);
        let udp = &f[ETH_HEADER_LEN + IPV4_HEADER_LEN..];
        let cks = u16::from_be_bytes([udp[6], udp[7]]);
        assert_ne!(cks, 0);
    }

    #[test]
    fn mac_local_distinct() {
        assert_ne!(Mac::local(1), Mac::local(2));
        assert_eq!(Mac::local(3), Mac::local(3));
    }
}
