//! NIC models: link framing math and device profiles (RSS dispatch onto
//! rings is [`crate::shared_ring::RssPort`]).
//!
//! The paper evaluates on two devices we reproduce as profiles:
//!
//! * **Intel X520** (82599, `ixgbe`): 10 GbE, line rate at 64 B frames is
//!   14.88 Mpps; single Rx queue in the paper's §V-A..V-E tests.
//! * **Intel XL710** (`i40e`): 40 GbE, but "limited by a maximum processing
//!   rate of 37 Mpps" (paper §V-F, citing the XL710 spec update) — the
//!   silicon cap binds before the 40 G link does at 64 B (59.52 Mpps).
//!
//! Framing math: an Ethernet frame of `len` bytes (FCS included) occupies
//! `len + 20` bytes on the wire (7 preamble + 1 SFD + 12 IFG), so
//! 10 Gb/s ÷ (84 B × 8) = 14.88 Mpps at 64 B.

/// Per-frame wire overhead: preamble (7) + SFD (1) + inter-frame gap (12).
pub const WIRE_OVERHEAD_BYTES: u64 = 20;
/// 10 GbE line rate at 64 B frames, packets per second.
pub const LINE_RATE_10G_64B_PPS: f64 = 14_880_952.38;

/// Maximum packets per second a link of `gbps` sustains at `frame_len`
/// bytes per frame (FCS included).
pub fn line_rate_pps(gbps: f64, frame_len: u32) -> f64 {
    let bits_per_frame = (frame_len as u64 + WIRE_OVERHEAD_BYTES) * 8;
    gbps * 1e9 / bits_per_frame as f64
}

/// Convert offered bandwidth to packets per second at a frame size.
pub fn gbps_to_pps(gbps: f64, frame_len: u32) -> f64 {
    line_rate_pps(gbps, frame_len)
}

/// Convert packets per second to occupied bandwidth at a frame size.
pub fn pps_to_gbps(pps: f64, frame_len: u32) -> f64 {
    pps * ((frame_len as u64 + WIRE_OVERHEAD_BYTES) * 8) as f64 / 1e9
}

/// Static description of a NIC device type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NicProfile {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Link speed in Gb/s.
    pub link_gbps: f64,
    /// Packet-processing cap of the silicon, if it binds before the link
    /// (packets per second).
    pub silicon_max_pps: Option<f64>,
}

impl NicProfile {
    /// Intel X520 / 82599 (ixgbe): 10 GbE, no silicon cap below line rate.
    pub const X520: NicProfile = NicProfile {
        name: "Intel X520 (82599)",
        link_gbps: 10.0,
        silicon_max_pps: None,
    };

    /// Intel XL710 (i40e): 40 GbE with a 37 Mpps processing cap
    /// (XL710 spec update §2 clarification #13, cited by the paper).
    pub const XL710: NicProfile = NicProfile {
        name: "Intel XL710",
        link_gbps: 40.0,
        silicon_max_pps: Some(37_000_000.0),
    };

    /// Achievable receive rate at `frame_len`-byte frames: the binding
    /// minimum of link rate and silicon cap.
    pub fn max_pps(&self, frame_len: u32) -> f64 {
        let link = line_rate_pps(self.link_gbps, frame_len);
        match self.silicon_max_pps {
            Some(cap) => link.min(cap),
            None => link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_matches_paper_numbers() {
        // 14.88 Mpps at 10G/64B — the number quoted everywhere in §V.
        let pps = line_rate_pps(10.0, 64);
        assert!((pps - 14_880_952.38).abs() < 1.0, "{pps}");
        // 40G/64B would be 59.52 Mpps, but XL710 caps at 37 Mpps.
        assert!((line_rate_pps(40.0, 64) - 59_523_809.5).abs() < 10.0);
        assert!((NicProfile::XL710.max_pps(64) - 37e6).abs() < 1.0);
        assert!((NicProfile::X520.max_pps(64) - 14_880_952.38).abs() < 1.0);
    }

    #[test]
    fn timestamped_64b_frames_line_rate() {
        // §V footnote 5: latency tests add a 20B timestamp, i.e. 84B frames.
        // 10^10 / ((84+20)*8) = 12.02 Mpps.
        let pps = line_rate_pps(10.0, 84);
        assert!((pps - 12_019_230.77).abs() < 1.0, "{pps}");
    }

    #[test]
    fn pps_gbps_round_trip() {
        let pps = gbps_to_pps(5.0, 64);
        let gbps = pps_to_gbps(pps, 64);
        assert!((gbps - 5.0).abs() < 1e-9);
    }
}
