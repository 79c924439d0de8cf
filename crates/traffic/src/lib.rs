//! # metronome-traffic — MoonGen-like workload generation
//!
//! The paper drives its testbed with MoonGen \[38\]: CBR 64-byte UDP streams,
//! a rate staircase for the adaptation test (Fig. 9), and a skewed pcap for
//! the unbalanced multiqueue test (Table III). This crate synthesizes the
//! same processes:
//!
//! * [`arrival`] — lazily-drained arrival processes ([`arrival::Cbr`],
//!   [`arrival::Poisson`], [`arrival::Staircase`], [`arrival::OnOff`],
//!   [`arrival::Silent`]) used by the simulator's hybrid analytic/DES queue
//!   filling;
//! * [`flows`] — reproducible flow populations, the Table III
//!   30%-hot-flow trace, and RSS share computation over real Toeplitz
//!   dispatch;
//! * [`pacing`] — the wall-clock adapter that replays any arrival process
//!   in real time for the real-thread pipeline ([`pacing::PacedArrivals`]);
//! * convenience conversions between Gb/s and packets/s re-exported from
//!   the NIC framing math ([`gbps_to_pps`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod faults;
pub mod flows;
pub mod pacing;

pub use arrival::{ArrivalProcess, BurstyCbr, Cbr, OnOff, Poisson, Silent, Staircase};
pub use faults::{FaultEvent, FaultKind, FaultPlan, InjectionStats, PlannedFaults};
pub use flows::{FlowSet, UnbalancedTrace};
pub use metronome_dpdk::nic::{gbps_to_pps, line_rate_pps, pps_to_gbps, LINE_RATE_10G_64B_PPS};
pub use pacing::{PacedArrivals, WallClock};
