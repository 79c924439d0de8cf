//! # metronome-net — packet and protocol substrate
//!
//! From-scratch implementations of everything the Metronome reproduction
//! needs below the NIC abstraction:
//!
//! * [`flow`] — 5-tuples and flow identity.
//! * [`headers`] — Ethernet/IPv4/UDP wire format, parsing, and the l3fwd
//!   rewrite (MAC swap + TTL decrement + RFC 1624 incremental checksum).
//! * [`checksum`] — RFC 1071 Internet checksum.
//! * [`toeplitz`] — the real RSS hash (validated against the Microsoft
//!   verification-suite vectors) that decides per-flow Rx-queue placement.
//! * [`lpm`] — DIR-24-8 longest-prefix match (DPDK `rte_lpm` geometry).
//! * [`em`] — exact-match flow table (FloWatcher's per-flow state).
//! * [`aes`] / [`esp`] — FIPS-197 AES-128 + CBC and RFC 4303 tunnel-mode
//!   ESP for the IPsec Security Gateway application.
//!
//! Everything here is deterministic, allocation-conscious, and validated
//! against published test vectors where they exist (FIPS-197, SP 800-38A,
//! Microsoft RSS).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aes;
pub mod checksum;
pub mod em;
pub mod esp;
pub mod flow;
pub mod headers;
pub mod lpm;
pub mod toeplitz;

pub use em::ExactMatch;
pub use flow::{FiveTuple, IpProto};
pub use headers::{Mac, ParsedFrame};
pub use lpm::Lpm;
pub use toeplitz::Toeplitz;
