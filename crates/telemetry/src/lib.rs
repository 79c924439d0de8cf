//! # metronome-telemetry — windowed time-series metrics for both backends
//!
//! Metronome's headline results are *time-series* claims (CPU tracks the
//! offered load as `TS` adapts, §V Figs. 9/11), but an end-of-run
//! aggregate can only assert final averages. This crate is the
//! observability layer that turns both backends into per-window series:
//!
//! * [`sink`] — the [`sink::TelemetrySink`] event trait the execution
//!   layers publish into (wakes, sleeps, busy spans, drained bursts),
//!   with [`sink::NullSink`] as the free disabled default;
//! * [`counters`] — the hot-path implementation: one **relaxed-atomic**
//!   time block per worker ([`counters::TelemetryHub`]) that never locks,
//!   read-modify-writes or allocates on the datapath (every counter has
//!   one writer at a time; the per-queue books — retrievals, `TS`, ρ̂ —
//!   are the worker set's trylock-ordered queue words, and losses the
//!   pipeline's books);
//! * [`sampler`] — the [`sampler::Sampler`] differences cumulative
//!   [`sampler::CounterSnapshot`]s into fixed-interval
//!   [`sampler::Window`]s (duty cycle, throughput, `TS`/ρ trajectory,
//!   drops by cause, occupancy, per-window latency percentiles), with
//!   exact window→total conservation by construction;
//! * [`export`] — pluggable serializers: CSV rows, hand-rolled JSON (the
//!   vendored build has no serde), and Prometheus text exposition format
//!   (with a parser, so the exporter is round-trip tested);
//! * [`trace`] — flight-recorder tracing: per-worker drop-oldest event
//!   rings ([`trace::TraceRecorder`]), wake/oversleep/scheduler-delay
//!   histograms, and Chrome trace-event dumps of the merged rings.
//!
//! The simulation backend samples at scheduled event boundaries; the
//! realtime backend runs a sampler thread over a worker set's books
//! (`metronome_core::WorkerSet::books`, which fill a snapshot from the
//! set's queue words and its hub). Both feed the same `Sampler`, so a
//! window means the same thing in either report.
//!
//! ```
//! use crossbeam::queue::ArrayQueue;
//! use metronome_core::{DisciplineSpec, MetronomeConfig, WorkerSet};
//! use metronome_sim::Nanos;
//! use metronome_telemetry::{CounterSnapshot, Sampler};
//! use std::sync::Arc;
//!
//! let cfg = MetronomeConfig { m_threads: 1, n_queues: 1, ..MetronomeConfig::default() };
//! let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
//! let set = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone())
//!     .spawn(|_worker| |_queue, burst: &mut Vec<u64>| burst.clear());
//! let books = set.books();
//! (0..32).for_each(|i| queues[0].push(i).unwrap());
//! while set.processed(0) < 32 {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! set.stop();
//!
//! // The books outlive the set: a final snapshot reads them after the join.
//! let mut sampler = Sampler::new(Nanos::from_millis(1));
//! let mut snap = CounterSnapshot::new(Nanos::from_millis(1));
//! books.fill_snapshot(&mut snap);
//! sampler.sample(snap);
//! let series = sampler.into_series();
//! assert_eq!(series.windows[0].retrieved, 32);
//! assert_eq!(series.totals.discipline, "metronome");
//! assert!(series.totals.ts_ns[0] > 0, "the queue was released");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod export;
pub mod sampler;
pub mod sink;
pub mod trace;

pub use counters::{TelemetryHub, WorkerCounters, WorkerTelemetry};
pub use export::json::Json;
pub use sampler::{CounterSnapshot, LatencyWindow, Sampler, TimeSeries, Window};
pub use sink::{NullSink, TelemetrySink};
pub use trace::{
    MarkerKind, NullTrace, TraceDump, TraceEvent, TraceEventKind, TraceHub, TraceRecorder,
    TraceRing, TraceSink, TraceVerdict, TracedSink, WorkerTrace, DEFAULT_RING_CAPACITY,
};
