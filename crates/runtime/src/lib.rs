//! # metronome-runtime — full-system simulation drivers
//!
//! Glues every substrate together into runnable whole-system experiments:
//! traffic (`metronome-traffic`) feeds NIC descriptor rings
//! (`metronome-dpdk`) drained by thread behaviors — Metronome workers,
//! static DPDK pollers, XDP NAPI handlers, ferret co-tenants — scheduled
//! by the OS model (`metronome-os`) and coordinated by the Metronome
//! policy/controller (`metronome-core`).
//!
//! The public surface is intentionally small:
//!
//! * [`scenario::Scenario`] — describe an experiment (system, app,
//!   traffic, governor, ferret, knobs);
//! * [`runner::run`] — execute it deterministically in the
//!   discrete-event simulator;
//! * [`realtime_runner::run_realtime`] — execute the same scenario on
//!   real threads: wall-clock paced load generation, Toeplitz RSS over
//!   bounded mbuf rings, real Metronome workers running functional
//!   packet processors, per-packet latency histograms;
//! * [`report::RunReport`] — everything the paper's tables/figures plot:
//!   throughput, loss (‰), CPU %, package watts, latency boxplots,
//!   vacation/busy periods, `NV`, ρ, busy tries, ferret slowdowns,
//!   adaptation time series.
//!
//! Calibration constants and their paper-derived justifications live in
//! [`calib`]; DESIGN.md §3 summarizes them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps_profile;
pub mod behaviors;
pub mod calib;
pub mod ingest;
pub mod pipeline;
pub mod realtime_runner;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod world;

pub use apps_profile::AppProfile;
pub use behaviors::{MetronomeWorker, WorldBackend};
pub use metronome_core::ExecBackend;
pub use realtime_runner::{
    run_realtime, run_realtime_with, try_run_realtime, try_run_realtime_with, RealtimeError,
};
pub use report::{QueueReport, RampPoint, RunReport};
pub use runner::run;
pub use scenario::{FerretSpec, Scenario, SystemKind, TrafficSpec};
pub use world::{SimQueue, World};
