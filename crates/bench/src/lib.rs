//! # metronome-bench — benchmark harness
//!
//! Bench targets (run with `cargo bench`):
//!
//! * `paper_experiments` — Criterion timing of a scaled-down kernel of
//!   every table/figure reproduction (one group per experiment), useful as
//!   a regression canary for simulation throughput;
//! * `micro` — Criterion microbenchmarks of the hot primitives (trylock,
//!   Toeplitz, LPM, exact-match, AES, rings, event queue, arrival drains);
//! * `ablations` — a measurement harness (not a timer) printing the
//!   design-choice comparisons called out in DESIGN.md §5: diversity vs
//!   equal timeouts, adaptive vs fixed TS, hr_sleep vs nanosleep, Tx batch
//!   32 vs 1, burst reactivity vs XDP.
//!
//! The multi-thread measurement harnesses live in [`hotpath`];
//! `examples/bench6.rs` snapshots them into `BENCH_6.json`. The
//! queue-count scaling harness (thread vs async executor backend) lives
//! in [`scale`]; `examples/bench8.rs` snapshots it into `BENCH_8.json`.
//! The ingest path has no harness here: `perfbench/` prices it per
//! workload (`dpdk.alloc/refill/scatter/offer_ns_pkt`,
//! `sim.coarse_tick_ns`, `traffic.gen_late_*`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hotpath;
pub mod scale;
