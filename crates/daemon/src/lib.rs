//! `metronomed` — Metronome's realtime pipeline as a long-running
//! service.
//!
//! The batch runners (`metronome_runtime::run` / `run_realtime`) execute
//! one scenario and exit; this crate keeps the pipeline resident behind
//! two listeners:
//!
//! * a **Unix-domain control socket** speaking line-delimited JSON
//!   ([`protocol`]): submit a scenario, reconfigure its rate / discipline
//!   / `M` live (no restart — the worker set re-arms over the same rings
//!   with counters folded so exported totals stay monotone), read stats,
//!   drain, shut down;
//! * an **HTTP listener** ([`http`]) serving the telemetry crate's
//!   Prometheus text exposition on `GET /metrics`, scrapeable mid-run.
//!
//! Scenarios may carry a [`metronome_traffic::FaultPlan`]; the engine
//! ([`service`]) realizes rate spikes, queue stalls, pool starvation,
//! and jitter bursts against the live pipeline, with every suppressed
//! packet counted by cause so conservation stays exact through any fault
//! schedule. Drain audits the mempool (`in_use == 0`, `cached == 0`,
//! `allocs == frees`) before reporting — a leaked buffer is a failed
//! drain, not a silent loss.
//!
//! ```text
//!  UnixListener ──lines──▶ protocol::Request ─▶ ServiceEngine ─▶ reply line
//!                                                │
//!                    generator shards (paced) ───┤ rate spikes / jitter thinning
//!                    pipeline fault driver ──────┤ stall flag / pool starvation
//!                    worker set (re-armable) ────┤ stall pauses, latency stamps
//!                                                │
//!  TcpListener ──GET /metrics──▶ snapshot ─▶ Prometheus text
//! ```

#![forbid(unsafe_code)]

pub mod control;
mod generator;
pub mod http;
pub mod protocol;
pub mod service;

pub use control::ControlServer;
pub use http::MetricsServer;
pub use protocol::{ReconfigureSpec, Request, SubmitSpec};
pub use service::{DaemonConfig, ServiceEngine};
