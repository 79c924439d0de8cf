//! # metronome-dpdk — the DPDK-like substrate
//!
//! A from-scratch stand-in for the slice of DPDK the Metronome paper
//! depends on. Real DPDK binds physical NICs via userspace drivers; this
//! crate reproduces the *interfaces and semantics* that Metronome's
//! algorithm and the paper's evaluation observe:
//!
//! * [`mbuf::Mbuf`] — packet buffers with Rx metadata (port, queue,
//!   RSS hash, arrival timestamp).
//! * [`mempool::Mempool`] — bounded pre-allocated buffer pools with
//!   exhaustion accounting: `Arc`-shared handles, atomic counters, and
//!   burst alloc/free that take the freelist lock once per burst (the
//!   per-lcore-cache amortization of `rte_mempool`).
//! * [`ring`] — [`ring::valid_ring_size`], the one descriptor-count rule,
//!   and [`ring::RxRingModel`], the allocation-free occupancy model the
//!   discrete-event simulator uses (property-tested to agree with
//!   [`shared_ring::SharedRing`]).
//! * [`nic`] — framing math (64 B ⇒ 14.88 Mpps at 10 G) and device
//!   profiles (X520, XL710 with its 37 Mpps silicon cap).
//! * [`shared_ring`] — the Rx side of the real-thread pipeline, and the
//!   only ring a packet crosses: [`shared_ring::SharedRing`] (bounded mbuf
//!   ring with tail-drop accounting and `offer_burst`/`pop_burst` batch
//!   APIs that hand rejected buffers back for recycling, on one of two
//!   lock-free transports — SPSC or MPSC, each the correct one for its
//!   producer count) and [`shared_ring::RssPort`] (`N` rings behind one
//!   Toeplitz hasher).
//! * [`fastring`] — the lock-free bounded rings behind those transports
//!   ([`fastring::SpscRing`], [`fastring::MpscRing`]), `rte_ring`'s
//!   batched acquire/release head/tail design.
//! * [`scatter::QueueScatter`] — the generator-side scatter arena: one
//!   stable counting sort maps a produced batch onto per-queue bursts in
//!   `O(batch + touched_queues)`, independent of the queue count.

#![warn(missing_docs)]
// Everything except `fastring` is unsafe-free. `fastring` holds the
// `rte_ring`-style lock-free rings, whose slot ownership argument the
// borrow checker cannot express, and `prefetch_line`, the crate's one
// prefetch intrinsic call; its invariants are documented inline and it
// carries `#![allow(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod fastring;
pub mod mbuf;
pub mod mempool;
pub mod nic;
pub mod ring;
pub mod scatter;
pub mod shared_ring;

pub use mbuf::Mbuf;
pub use mempool::{Mempool, MempoolCache, MempoolStats};
pub use nic::NicProfile;
pub use ring::RxRingModel;
pub use scatter::QueueScatter;
pub use shared_ring::{RingConsumer, RingPath, RssPort, SharedRing};
