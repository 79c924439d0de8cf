//! # metronome-telemetry — windowed time-series metrics for both backends
//!
//! Metronome's headline results are *time-series* claims (CPU tracks the
//! offered load as `TS` adapts, §V Figs. 9/11), but an end-of-run
//! aggregate can only assert final averages. This crate is the
//! observability layer that turns both backends into per-window series:
//!
//! * [`sink`] — the [`sink::TelemetrySink`] event trait the execution
//!   layers publish into (wakes, sleeps, drained bursts, `TS`
//!   updates), with [`sink::NullSink`] as the free disabled default;
//! * [`counters`] — the hot-path implementation: per-worker and per-queue
//!   **relaxed-atomic** counters ([`counters::TelemetryHub`]) that never
//!   lock, read-modify-write or allocate on the datapath (every counter
//!   has one writer at a time; losses are the pipeline's books, not the
//!   hub's);
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
//! realtime backend runs a sampler thread. Both feed the same `Sampler`,
//! so a window means the same thing in either report.
//!
//! ```
//! use metronome_telemetry::{CounterSnapshot, Sampler, TelemetryHub, TelemetrySink};
//! use metronome_sim::Nanos;
//!
//! let hub = TelemetryHub::new(1, 1); // 1 worker, 1 queue
//! let worker = hub.worker_sink(0);
//! worker.wake();
//! worker.retrieved(0, 32);
//!
//! let mut sampler = Sampler::new(Nanos::from_millis(1));
//! let mut snap = CounterSnapshot::new(Nanos::from_millis(1));
//! hub.fill_snapshot(&mut snap);
//! sampler.sample(snap);
//! let series = sampler.into_series();
//! assert_eq!(series.windows[0].retrieved, 32);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod export;
pub mod sampler;
pub mod sink;
pub mod trace;

pub use counters::{QueueCounters, TelemetryHub, WorkerCounters, WorkerTelemetry};
pub use export::json::Json;
pub use sampler::{CounterSnapshot, LatencyWindow, Sampler, TimeSeries, Window};
pub use sink::{NullSink, SleepKind, TelemetrySink};
pub use trace::{
    MarkerKind, NullTrace, TraceDump, TraceEvent, TraceEventKind, TraceHub, TraceRecorder,
    TraceRing, TraceSink, TraceVerdict, TracedSink, WorkerTrace, DEFAULT_RING_CAPACITY,
};
