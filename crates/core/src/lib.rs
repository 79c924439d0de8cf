//! # metronome-core — adaptive and precise intermittent packet retrieval
//!
//! The primary contribution of *Metronome* (Faltelli et al., CoNEXT 2020):
//! replace DPDK's continuous busy polling with a sleep&wake scheme whose
//! CPU usage is proportional to the load while the added latency stays
//! pinned at a configurable target.
//!
//! The pieces, each its own module:
//!
//! * [`trylock`] — the user-space CMPXCHG race primitive (§III-B);
//! * [`engine`] — the backend-agnostic execution core: the Listing 2 loop
//!   as a resumable [`engine::MetronomeEngine`] state machine over the
//!   [`engine::Backend`] capability trait, so the identical protocol code
//!   drives the discrete-event simulation and the real-thread runtime;
//! * [`discipline`] — the retrieval-discipline layer: the Listing 2 loop
//!   as one [`discipline::RetrievalDiscipline`] among four — Metronome,
//!   busy-polling DPDK ([`discipline::BusyPoll`]), interrupt-driven
//!   XDP/NAPI ([`discipline::InterruptLike`] parked on a
//!   [`discipline::Doorbell`]), and fixed-period retrieval
//!   ([`discipline::ConstSleep`]) — each one state machine that runs on
//!   real threads and in the simulator alike;
//! * [`policy`] — the primary/backup diversity policy: race winners sleep
//!   the short adaptive timeout `TS` and re-contend their queue, losers
//!   sleep the long timeout `TL` and re-contend a random queue (§IV-A,
//!   §IV-E);
//! * [`model`] — the renewal/vacation analytical model, equations (1)–(14);
//! * [`controller`] — the EWMA load estimator (eq. (11)) driving the
//!   `TS` rule (eq. (13)/(14)) per queue;
//! * [`predictor`] — closed-form CPU/wake-rate predictions from the same
//!   renewal structure, validated against the simulation;
//! * [`workers`] — the one way to start retrieval workers:
//!   [`WorkerSet::builder`]`(cfg, spec, queues)`, optionally
//!   `.exec(..)`, `.trace(..)`, then `.spawn(..)`; each set keeps its own
//!   books ([`WorkerSet::books`]), and [`ExecBackend`] selects where it
//!   runs:
//! * [`realtime`] — one `std::thread` per worker, with a spin-assisted
//!   [`realtime::PreciseSleeper`] standing in for the paper's
//!   `hr_sleep()` kernel service;
//! * [`executor`] — the async backend: the same disciplines as
//!   cooperative tasks on a vruntime-ordered sharded executor with a
//!   hierarchical [`executor::TimerWheel`] and waker-wired doorbells, so
//!   1000+ queues run on a handful of OS threads;
//! * [`config`] — tunables with the paper's evaluation defaults
//!   (`M = 3`, `V̄ = 10 µs`, `TL = 500 µs`, burst 32).
//!
//! The same policy/model code drives both the discrete-event simulation
//! (see `metronome-runtime`) and the real-thread runtime, so what the
//! benchmarks evaluate is what a user adopts.
//!
//! ## Quick start (real threads)
//!
//! ```
//! use metronome_core::{DisciplineSpec, MetronomeConfig, WorkerSet};
//! use crossbeam::queue::ArrayQueue;
//! use std::sync::Arc;
//!
//! let queues = vec![Arc::new(ArrayQueue::<u64>::new(1024))];
//! let m = WorkerSet::builder(MetronomeConfig::default(), DisciplineSpec::Metronome, queues.clone())
//!     .spawn(|_worker| |_queue, burst: &mut Vec<u64>| {
//!         burst.clear(); // process the drained burst
//!     });
//! queues[0].push(42).unwrap();
//! std::thread::sleep(std::time::Duration::from_millis(50));
//! let stats = m.stop();
//! assert_eq!(stats.total_processed(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod controller;
pub mod discipline;
pub mod engine;
pub mod executor;
pub mod model;
pub mod policy;
pub mod predictor;
pub mod realtime;
pub mod rxqueue;
pub mod trylock;
pub mod workers;

pub use config::MetronomeConfig;
pub use controller::AdaptiveController;
pub use discipline::{
    AnyDiscipline, BusyPoll, ConstSleep, DisciplineSpec, Doorbell, InterruptLike, ModerationConfig,
    ParkToken, RetrievalDiscipline, Verdict,
};
pub use engine::{Backend, MetronomeEngine};
pub use executor::TimerWheel;
pub use policy::{Role, ThreadPolicy};
pub use realtime::{PreciseSleeper, RealtimeBackend, RealtimeHarness, RealtimeStats, WakeEstimate};
pub use rxqueue::{Consume, RxQueue};
pub use trylock::TryLock;
pub use workers::{ExecBackend, WorkerBooks, WorkerSet, WorkerSetBuilder};
