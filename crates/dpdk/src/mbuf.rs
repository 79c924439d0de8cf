//! Packet buffer (`rte_mbuf` analogue).
//!
//! An [`Mbuf`] owns the frame bytes plus the receive metadata a DPDK
//! application reads: ingress port/queue, the NIC-computed RSS hash, and
//! the arrival timestamp (our NIC model timestamps on DMA completion, which
//! is what MoonGen's hardware timestamping measures against).

use crate::fastring::prefetch_line;
use bytes::BytesMut;
use metronome_sim::Nanos;

/// Bytes of a frame the forwarding apps read and rewrite: Ethernet (14),
/// IPv4 without options (20) and the L4 ports (4).
const HEADER_BYTES: usize = 38;

/// A packet buffer with receive metadata.
#[derive(Debug, Clone)]
pub struct Mbuf {
    data: BytesMut,
    /// Ingress port id.
    pub port: u16,
    /// Ingress Rx queue index (RSS decision).
    pub queue: u16,
    /// RSS hash as computed by the NIC.
    pub rss_hash: u32,
    /// Arrival (DMA completion) timestamp.
    pub arrival: Nanos,
}

impl Mbuf {
    /// Wrap frame bytes with zeroed metadata.
    pub fn from_bytes(data: BytesMut) -> Self {
        Mbuf {
            data,
            port: 0,
            queue: 0,
            rss_hash: 0,
            arrival: Nanos::ZERO,
        }
    }

    /// Frame length in bytes (without wire overhead).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable frame bytes (headers are rewritten in place, as in DPDK).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Bytes the underlying buffer can hold without reallocating (a
    /// pooled buffer's dataroom).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Ask the CPU to start fetching, for writing, the cache line(s)
    /// holding the frame's first 38 bytes — the Ethernet, IPv4 and port
    /// fields the forwarding apps parse and rewrite; one line or two, by
    /// where the buffer happens to start (`rte_prefetch0_write` on the
    /// mbuf's data). The consumer of a ring issues this for a whole burst,
    /// so the lines the producer core wrote last travel concurrently
    /// instead of one load miss at a time inside the app's parse. A hint
    /// only: no effect on an empty mbuf or off x86-64. The write intent
    /// (`_MM_HINT_ET0`) becomes `prefetchw` in a build with the `prfchw`
    /// target feature; on the x86-64 baseline LLVM emits `prefetcht0`,
    /// which measured the same here (DESIGN.md §2, "What crosses cores
    /// per packet").
    #[inline]
    pub fn prefetch_header(&self) {
        let header = &self.data[..self.data.len().min(HEADER_BYTES)];
        if let (Some(first), Some(last)) = (header.first(), header.last()) {
            prefetch_line(first);
            prefetch_line(last);
        }
    }

    /// Replace the frame contents, keeping metadata (used by encapsulating
    /// applications like the IPsec gateway).
    pub fn replace_data(&mut self, data: BytesMut) {
        self.data = data;
    }

    /// Take the buffer out, leaving an empty mbuf (zero-copy handoff).
    pub fn take_data(&mut self) -> BytesMut {
        core::mem::take(&mut self.data)
    }

    /// Overwrite the frame contents with `frame`, keeping the underlying
    /// buffer (the template-fill path of the pooled datapath: one `memcpy`
    /// into an already-allocated buffer, no heap traffic as long as the
    /// frame fits the buffer's capacity — which pooled buffers guarantee
    /// by construction).
    pub fn refill(&mut self, frame: &[u8]) {
        debug_assert!(
            frame.len() <= self.data.capacity() || self.data.capacity() == 0,
            "refill beyond buffer capacity would reallocate"
        );
        self.data.clear();
        self.data.extend_from_slice(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_bytes() {
        let m = Mbuf::from_bytes(BytesMut::from(&b"hello"[..]));
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.bytes(), b"hello");
    }

    #[test]
    fn mutation_in_place() {
        let mut m = Mbuf::from_bytes(BytesMut::from(&[0u8; 4][..]));
        m.bytes_mut()[0] = 0xFF;
        assert_eq!(m.bytes()[0], 0xFF);
    }

    #[test]
    fn refill_reuses_capacity() {
        let mut m = Mbuf::from_bytes(BytesMut::with_capacity(16));
        m.refill(b"first frame");
        assert_eq!(m.bytes(), b"first frame");
        m.refill(b"second");
        assert_eq!(m.bytes(), b"second");
        assert!(m.len() == 6);
    }

    #[test]
    fn prefetch_header_is_a_hint_on_any_length() {
        // Empty, one byte, exactly the header, and a frame spanning
        // several lines: nothing faults, nothing changes.
        for len in [0usize, 1, HEADER_BYTES, 200] {
            let m = Mbuf::from_bytes(BytesMut::from(&vec![0xA5u8; len][..]));
            m.prefetch_header();
            assert_eq!(m.len(), len);
            assert!(m.bytes().iter().all(|&b| b == 0xA5));
        }
        // A pooled blank: capacity without length.
        let blank = Mbuf::from_bytes(BytesMut::with_capacity(64));
        blank.prefetch_header();
        assert!(blank.is_empty());
    }

    #[test]
    fn replace_and_take() {
        let mut m = Mbuf::from_bytes(BytesMut::from(&b"aa"[..]));
        m.replace_data(BytesMut::from(&b"bbbb"[..]));
        assert_eq!(m.len(), 4);
        let d = m.take_data();
        assert_eq!(&d[..], b"bbbb");
        assert!(m.is_empty());
    }
}
