//! Longest-prefix-match table, DIR-24-8 style (DPDK `rte_lpm`).
//!
//! The paper's flagship application is `l3fwd` in LPM mode ("we chose the
//! LPM approach as it is the most computation-expensive one"). DPDK's LPM is
//! the DIR-24-8 two-stage trie: a directly indexed 2^24-entry first stage
//! (one lookup resolves any prefix ≤ /24) plus second-stage groups for
//! longer prefixes. Lookup is one memory access for short routes and two
//! for long ones — constant time, which is what keeps the per-packet cost
//! of the forwarder flat.
//!
//! The first-stage width is configurable (24 bits reproduces DPDK exactly;
//! tests use narrower widths to keep allocations cheap). The second stage
//! always resolves all remaining `32 - first_bits` bits, so route depth is
//! unrestricted for any configuration.

use std::net::Ipv4Addr;

/// Entry encoding: bit 31 = valid, bit 30 = "points to second stage",
/// low 16 bits = next hop or group index.
const VALID: u32 = 1 << 31;
const GROUP: u32 = 1 << 30;
const DATA_MASK: u32 = 0xFFFF;

/// Second-stage group covering one first-stage slot.
#[derive(Clone)]
struct TblGroup {
    /// `VALID | next_hop` per suffix, plus the depth that installed each
    /// entry so that more-specific routes override less-specific ones
    /// regardless of insertion order.
    entries: Vec<u32>,
    depths: Vec<u8>,
}

impl TblGroup {
    fn new(size: usize, seed_entry: u32, seed_depth: u8) -> Self {
        TblGroup {
            entries: vec![seed_entry; size],
            depths: vec![seed_depth; size],
        }
    }
}

/// Errors from route manipulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpmError {
    /// Prefix depth outside 1..=32.
    BadDepth,
    /// All second-stage groups in use.
    TblGroupsExhausted,
}

/// DIR-24-8 longest-prefix-match table mapping IPv4 prefixes to 16-bit
/// next-hop ids.
pub struct Lpm {
    first_bits: u32,
    tbl24: Vec<u32>,
    /// Depth that installed each non-group tbl24 entry (0 = none).
    depths24: Vec<u8>,
    groups: Vec<TblGroup>,
    max_groups: u16,
    route_count: usize,
}

impl Lpm {
    /// DPDK-faithful geometry: 24-bit first stage, 8-bit second stage.
    /// `max_groups` bounds the number of distinct /25+ slot expansions
    /// (DPDK defaults to 256).
    pub fn new_dir24_8(max_groups: u16) -> Self {
        Lpm::with_first_stage_bits(24, max_groups)
    }

    /// Table with a custom first-stage width (8..=24 bits).
    pub fn with_first_stage_bits(first_bits: u32, max_groups: u16) -> Self {
        assert!((8..=24).contains(&first_bits), "first stage 8..=24 bits");
        let size = 1usize << first_bits;
        Lpm {
            first_bits,
            tbl24: vec![0; size],
            depths24: vec![0; size],
            groups: Vec::new(),
            max_groups,
            route_count: 0,
        }
    }

    /// Number of successful `add` calls (duplicate prefixes overwrite the
    /// next hop but still count as an add).
    pub fn len(&self) -> usize {
        self.route_count
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.route_count == 0
    }

    #[inline]
    fn first_index(&self, ip: u32) -> usize {
        (ip >> (32 - self.first_bits)) as usize
    }

    #[inline]
    fn rest_bits(&self) -> u32 {
        32 - self.first_bits
    }

    #[inline]
    fn suffix(&self, ip: u32) -> usize {
        (ip & ((1u32 << self.rest_bits()) - 1)) as usize
    }

    /// Install `prefix/depth -> next_hop`. Re-adding a prefix overwrites its
    /// next hop.
    pub fn add(&mut self, prefix: Ipv4Addr, depth: u8, next_hop: u16) -> Result<(), LpmError> {
        if depth == 0 || depth > 32 {
            return Err(LpmError::BadDepth);
        }
        let ip = u32::from(prefix) & mask(depth);
        if (depth as u32) <= self.first_bits {
            // Covered entirely by the first stage: fill every slot the
            // prefix spans, respecting deeper already-installed routes.
            let span = 1usize << (self.first_bits - depth as u32);
            let base = self.first_index(ip);
            for i in base..base + span {
                if self.tbl24[i] & GROUP != 0 {
                    let g = (self.tbl24[i] & DATA_MASK) as usize;
                    let grp = &mut self.groups[g];
                    for j in 0..grp.entries.len() {
                        if grp.depths[j] <= depth {
                            grp.entries[j] = VALID | next_hop as u32;
                            grp.depths[j] = depth;
                        }
                    }
                } else if self.depths24[i] <= depth {
                    self.tbl24[i] = VALID | next_hop as u32;
                    self.depths24[i] = depth;
                }
            }
        } else {
            // Deeper than the first stage: expand the slot into a group.
            let idx = self.first_index(ip);
            let g = if self.tbl24[idx] & GROUP != 0 {
                (self.tbl24[idx] & DATA_MASK) as usize
            } else {
                if self.groups.len() >= self.max_groups as usize {
                    return Err(LpmError::TblGroupsExhausted);
                }
                // Seed the new group with the covering first-stage route.
                let (seed_entry, seed_depth) = if self.tbl24[idx] & VALID != 0 {
                    (self.tbl24[idx], self.depths24[idx])
                } else {
                    (0, 0)
                };
                let g = self.groups.len();
                self.groups.push(TblGroup::new(
                    1usize << self.rest_bits(),
                    seed_entry,
                    seed_depth,
                ));
                self.tbl24[idx] = VALID | GROUP | g as u32;
                g
            };
            let start = self.suffix(ip);
            let span = 1usize << (32 - depth as u32);
            let grp = &mut self.groups[g];
            for j in start..start + span {
                if grp.depths[j] <= depth {
                    grp.entries[j] = VALID | next_hop as u32;
                    grp.depths[j] = depth;
                }
            }
        }
        self.route_count += 1;
        Ok(())
    }

    /// Look up the next hop for `ip`, or `None` for no matching route.
    #[inline]
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<u16> {
        let ip = u32::from(ip);
        let e = self.tbl24[self.first_index(ip)];
        if e & VALID == 0 {
            return None;
        }
        if e & GROUP == 0 {
            return Some((e & DATA_MASK) as u16);
        }
        let g = (e & DATA_MASK) as usize;
        let ge = self.groups[g].entries[self.suffix(ip)];
        if ge & VALID == 0 {
            None
        } else {
            Some((ge & DATA_MASK) as u16)
        }
    }

    /// Look up a whole burst of destinations, appending one result per
    /// input to `out` — the `rte_lpm_lookup_bulk` signature, but no
    /// batching behind it: it is [`Lpm::lookup`] in a loop, so it costs
    /// what that loop costs (the benchmark's per-lookup price reads it).
    pub fn lookup_bulk(&self, dsts: &[Ipv4Addr], out: &mut Vec<Option<u16>>) {
        out.reserve(dsts.len());
        for &ip in dsts {
            out.push(self.lookup(ip));
        }
    }
}

fn mask(depth: u8) -> u32 {
    if depth == 0 {
        0
    } else {
        u32::MAX << (32 - depth as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn small() -> Lpm {
        Lpm::with_first_stage_bits(16, 64)
    }

    #[test]
    fn empty_lookup_misses() {
        let l = small();
        assert_eq!(l.lookup(ip("1.2.3.4")), None);
        assert!(l.is_empty());
    }

    #[test]
    fn bulk_lookup_matches_scalar() {
        let mut l = small();
        l.add(ip("10.0.0.0"), 8, 1).unwrap();
        l.add(ip("10.1.0.0"), 16, 2).unwrap();
        let dsts = [ip("10.0.0.1"), ip("10.1.2.3"), ip("192.168.0.1")];
        let mut bulk = Vec::new();
        l.lookup_bulk(&dsts, &mut bulk);
        let scalar: Vec<_> = dsts.iter().map(|&d| l.lookup(d)).collect();
        assert_eq!(bulk, scalar);
        assert_eq!(bulk, vec![Some(1), Some(2), None]);
    }

    #[test]
    fn depth_bounds() {
        let mut l = small();
        assert_eq!(l.add(ip("10.0.0.0"), 0, 1), Err(LpmError::BadDepth));
        assert_eq!(l.add(ip("10.0.0.0"), 33, 1), Err(LpmError::BadDepth));
        assert!(l.add(ip("10.0.0.0"), 32, 1).is_ok());
        assert!(l.add(ip("10.0.0.0"), 1, 2).is_ok());
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn short_prefix_lookup() {
        let mut l = small();
        l.add(ip("10.0.0.0"), 8, 7).unwrap();
        assert_eq!(l.lookup(ip("10.1.2.3")), Some(7));
        assert_eq!(l.lookup(ip("10.255.255.255")), Some(7));
        assert_eq!(l.lookup(ip("11.0.0.1")), None);
    }

    #[test]
    fn longest_prefix_wins_first_stage() {
        let mut l = small();
        l.add(ip("10.0.0.0"), 8, 1).unwrap();
        l.add(ip("10.128.0.0"), 9, 2).unwrap();
        assert_eq!(l.lookup(ip("10.128.0.1")), Some(2));
        assert_eq!(l.lookup(ip("10.0.0.1")), Some(1));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut a = small();
        a.add(ip("10.0.0.0"), 8, 1).unwrap();
        a.add(ip("10.128.0.0"), 9, 2).unwrap();
        a.add(ip("10.128.7.0"), 24, 3).unwrap();
        let mut b = small();
        b.add(ip("10.128.7.0"), 24, 3).unwrap();
        b.add(ip("10.128.0.0"), 9, 2).unwrap();
        b.add(ip("10.0.0.0"), 8, 1).unwrap();
        for probe in ["10.128.0.1", "10.0.0.1", "10.200.3.4", "10.128.7.9"] {
            assert_eq!(a.lookup(ip(probe)), b.lookup(ip(probe)), "{probe}");
        }
    }

    #[test]
    fn long_prefix_uses_second_stage() {
        let mut l = small();
        l.add(ip("10.1.0.0"), 16, 1).unwrap();
        l.add(ip("10.1.2.0"), 24, 2).unwrap();
        l.add(ip("10.1.2.3"), 32, 3).unwrap();
        assert_eq!(l.lookup(ip("10.1.9.9")), Some(1));
        assert_eq!(l.lookup(ip("10.1.2.9")), Some(2));
        assert_eq!(l.lookup(ip("10.1.2.3")), Some(3));
    }

    #[test]
    fn group_seeded_with_covering_route() {
        let mut l = small();
        l.add(ip("10.1.0.0"), 16, 1).unwrap();
        // Expanding with a /32 must preserve /16 behaviour elsewhere in the
        // same first-stage slot.
        l.add(ip("10.1.0.77"), 32, 9).unwrap();
        assert_eq!(l.lookup(ip("10.1.0.77")), Some(9));
        assert_eq!(l.lookup(ip("10.1.0.78")), Some(1));
        assert_eq!(l.lookup(ip("10.1.200.1")), Some(1));
    }

    #[test]
    fn shorter_route_added_after_group_expansion() {
        let mut l = small();
        l.add(ip("10.1.0.77"), 32, 9).unwrap();
        l.add(ip("10.1.0.0"), 16, 1).unwrap();
        assert_eq!(l.lookup(ip("10.1.0.77")), Some(9));
        assert_eq!(l.lookup(ip("10.1.0.78")), Some(1));
    }

    #[test]
    fn dir24_8_full_width() {
        let mut l = Lpm::new_dir24_8(16);
        l.add(ip("192.168.0.0"), 16, 5).unwrap();
        l.add(ip("192.168.1.0"), 24, 6).unwrap();
        l.add(ip("192.168.1.128"), 25, 7).unwrap();
        assert_eq!(l.lookup(ip("192.168.2.1")), Some(5));
        assert_eq!(l.lookup(ip("192.168.1.1")), Some(6));
        assert_eq!(l.lookup(ip("192.168.1.200")), Some(7));
        assert_eq!(l.lookup(ip("192.169.0.1")), None);
    }

    #[test]
    fn group_exhaustion_reported() {
        let mut l = Lpm::with_first_stage_bits(16, 1);
        l.add(ip("10.0.0.0"), 24, 1).unwrap();
        // A different first-stage slot needs a second group.
        assert_eq!(
            l.add(ip("10.1.0.0"), 24, 2),
            Err(LpmError::TblGroupsExhausted)
        );
        // But the same slot reuses the existing group.
        assert!(l.add(ip("10.0.1.0"), 24, 3).is_ok());
    }

    #[test]
    fn matches_naive_oracle_randomized() {
        use std::collections::BTreeMap;
        // Naive oracle: scan all routes for the longest matching prefix.
        let mut seed = 0x12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u32
        };
        let mut l = small();
        let mut dedup: BTreeMap<(u32, u8), u16> = BTreeMap::new();
        for hop in 0..200u16 {
            let depth = (next() % 32 + 1) as u8;
            let prefix = next() & mask(depth);
            if l.add(Ipv4Addr::from(prefix), depth, hop).is_ok() {
                dedup.insert((prefix, depth), hop);
            }
        }
        let oracle = |ip_u: u32| -> Option<u16> {
            dedup
                .iter()
                .filter(|&(&(p, d), _)| ip_u & mask(d) == p)
                .max_by_key(|&(&(_, d), _)| d)
                .map(|(_, &h)| h)
        };
        for _ in 0..2_000 {
            let probe = next();
            assert_eq!(
                l.lookup(Ipv4Addr::from(probe)),
                oracle(probe),
                "probe {:?}",
                Ipv4Addr::from(probe)
            );
        }
    }
}
