//! The realtime pipeline, once: what the scenario runner
//! ([`crate::realtime_runner`]) and the `metronomed` service both build
//! ([`Pipeline::new`]), arm ([`Pipeline::arm`]), feed
//! ([`Pipeline::ingest_shard`]), observe ([`Pipeline::fill_snapshot`])
//! and drain ([`Pipeline::drain`], then [`Pipeline::sweep`] once the
//! worker set has stopped).
//!
//! A [`Pipeline`] owns one scenario's receive side: the [`RssPort`] over
//! bounded mbuf rings (on the ring path its producer count needs), the
//! flow templates the producer shards refill from, one [`QueueApp`] per
//! queue, the shards' lateness slots and the run's one [`WallClock`]. The
//! [`Mempool`] is the caller's — per run for the runner, for the process
//! lifetime in the daemon. What differs between the two drivers stays
//! with them: the runner paces one finite scenario and reports; the
//! daemon paces a live rate, re-arms worker sets under load and answers a
//! control socket. So does the doorbell wiring: the runner hooks the port
//! straight to the one set it arms, the daemon through slots it re-points
//! on every re-arm, and one body for both would branch on which caller
//! it serves.

use crate::ingest::{complete_burst, FlowTemplate, IngestShard, QueueApp, GEN_BATCH};
use crate::realtime_runner::ProcessorFactory;
use metronome_apps::processor::PacketProcessor;
use metronome_apps::{FloWatcher, IpsecGateway, L3Fwd};
use metronome_core::discipline::DisciplineSpec;
use metronome_core::rxqueue::{Consume, Lookahead, RxQueue};
use metronome_core::{ExecBackend, MetronomeConfig, WorkerSet};
use metronome_dpdk::{Mbuf, Mempool, MempoolCache, RingConsumer, RingPath, RssPort};
use metronome_net::headers::{build_udp_frame, Mac, MIN_FRAME_NO_FCS};
use metronome_sim::stats::Histogram;
use metronome_sim::Nanos;
use metronome_telemetry::{CounterSnapshot, DropCause, TelemetryHub, TelemetrySink, TraceHub};
use metronome_traffic::{FlowSet, WallClock};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Flows in the generated population (enough for RSS to spread evenly).
pub const FLOWS_PER_RUN: usize = 256;

/// Destination subnets, matching `L3Fwd::with_sample_routes(4)`.
const L3FWD_SUBNETS: usize = 4;

/// Mbuf dataroom of a pipeline's pool (DPDK's default; far above the
/// templates' minimal frames).
pub const MBUF_DATAROOM: usize = 2048;

/// The functional processor wired to an app profile name, if one exists
/// (the realtime counterpart of the cost-only
/// [`crate::apps_profile::AppProfile`]).
pub fn processor_for(app_name: &str) -> Option<Box<dyn PacketProcessor>> {
    match app_name {
        "l3fwd-lpm" => Some(Box::new(L3Fwd::with_sample_routes(L3FWD_SUBNETS))),
        "ipsec-secgw-out" => Some(Box::new(IpsecGateway::outbound())),
        "flowatcher" => Some(Box::new(FloWatcher::new(65_536))),
        _ => None,
    }
}

/// The Rx-queue capability realized by a DPDK-like ring consumer: the
/// glue between `metronome_core`'s [`RxQueue`] seam and
/// `metronome_dpdk`'s [`RingConsumer`] (a newtype, since both the trait
/// and the type live in other crates). On the default SPSC ring path a
/// worker's burst drain is one batched acquire/release index update —
/// followed by a write-intent prefetch of every popped frame's header
/// ([`Mbuf::prefetch_header`]): the generator core wrote those lines
/// last, and asking for all of them here puts a burst's worth of
/// cross-core transfers in flight at once, before the app lock, the
/// completion stamp and `process_burst` get to the first frame. A driver
/// that knows which ring it drains next (an executor shard's sweep) gets
/// the same transfers started a task earlier through
/// [`RxQueue::lookahead`]: the ring's index and head-slot lines two tasks
/// ahead, the queued frames' headers one task ahead.
#[derive(Clone, Debug)]
pub struct WorkerRing(pub RingConsumer);

impl RxQueue<Mbuf> for WorkerRing {
    fn pop(&self) -> Option<Mbuf> {
        self.0.pop()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn pop_burst(&self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        let taken = self.0.pop_burst(out, max);
        for mbuf in &out[out.len() - taken..] {
            mbuf.prefetch_header();
        }
        taken
    }

    fn lookahead(&self, stage: Lookahead, depth: usize) {
        match stage {
            Lookahead::Indices => self.0.prefetch_indices(depth),
            Lookahead::Frames => self.0.prefetch_frames(depth),
        }
    }
}

/// The generated flow population as refill templates: [`FLOWS_PER_RUN`]
/// routable flows (destinations inside the sample `l3fwd` routes) seeded
/// by `seed`, each as its minimal Ethernet/IPv4/UDP frame with the RSS
/// decision resolved once against `port`.
pub fn flow_templates(port: &RssPort, seed: u64) -> Vec<FlowTemplate> {
    FlowSet::routable(FLOWS_PER_RUN, L3FWD_SUBNETS, seed)
        .flows()
        .iter()
        .map(|t| {
            let frame = build_udp_frame(Mac::local(1), Mac::local(2), t, &[], MIN_FRAME_NO_FCS);
            let input = t.rss_input();
            (frame, port.queue_for(&input), port.rss_hash(&input))
        })
        .collect()
}

/// The ring path `gen_shards` concurrent producers need: the default SPSC
/// path upgrades to MPSC (SPSC under `G > 1` would be *safe* — the
/// producer side is guarded — but the guard serializes the shards).
fn producer_ring_path(gen_shards: usize, requested: RingPath) -> RingPath {
    if gen_shards > 1 && requested == RingPath::Spsc {
        RingPath::Mpsc
    } else {
        requested
    }
}

/// One worker's consumer of an armed pipeline: `before_burst`, then
/// [`complete_burst`] into the queue's app with the worker's own mempool
/// cache and arrival buffer, keeping the completion read for the backend.
struct BurstConsumer<F> {
    apps: Arc<Vec<Mutex<QueueApp>>>,
    clock: Arc<OnceLock<WallClock>>,
    latency: bool,
    before_burst: F,
    cache: MempoolCache,
    arrivals: Vec<Nanos>,
    completed: Option<Instant>,
}

impl<F: Fn()> Consume<Mbuf> for BurstConsumer<F> {
    fn consume(&mut self, q: usize, frames: &mut Vec<Mbuf>) {
        (self.before_burst)();
        let clock = self.clock.get().filter(|_| self.latency);
        self.completed = complete_burst(
            &self.apps[q],
            frames,
            clock,
            &mut self.cache,
            &mut self.arrivals,
        );
    }

    fn take_completion(&mut self) -> Option<Instant> {
        self.completed.take()
    }
}

/// One scenario's realtime pipeline (see the module doc).
pub struct Pipeline {
    port: Arc<RssPort>,
    pool: Mempool,
    templates: Vec<FlowTemplate>,
    /// Per-queue processor + packet-latency histogram; outlives re-arms,
    /// so the histogram is cumulative for the run.
    apps: Arc<Vec<Mutex<QueueApp>>>,
    /// Per-shard per-packet lateness: shard `s` records into slot `s`,
    /// and slots outlive a respawn of the producer set.
    lateness: Vec<Arc<Mutex<Histogram>>>,
    clock: Arc<OnceLock<WallClock>>,
    /// Stamp and record per-packet latency at completion.
    latency: bool,
}

impl Pipeline {
    /// A pipeline over `n_queues` rings of `ring_size` descriptors fed by
    /// `gen_shards` producer shards (a [`Pipeline::producer_shards`]
    /// count; more than one upgrades an SPSC `ring_path` to MPSC), the
    /// flow population seeded by `seed`, buffers from `pool`, and queue
    /// `q` processing with `make_app(q)`.
    pub fn new(
        n_queues: usize,
        ring_size: usize,
        ring_path: RingPath,
        gen_shards: usize,
        seed: u64,
        pool: Mempool,
        make_app: &ProcessorFactory,
    ) -> Pipeline {
        let port = RssPort::with_path(
            n_queues,
            ring_size,
            producer_ring_path(gen_shards, ring_path),
        );
        Pipeline {
            templates: flow_templates(&port, seed),
            port: Arc::new(port),
            pool,
            apps: Arc::new((0..n_queues).map(|q| QueueApp::new(make_app(q))).collect()),
            lateness: Vec::new(),
            clock: Arc::new(OnceLock::new()),
            latency: true,
        }
    }

    /// A requested producer shard count, clamped to `1..=`[`FLOWS_PER_RUN`]:
    /// flows are partitioned across shards, so more shards than flows
    /// would leave shards with nothing to emit.
    pub fn producer_shards(requested: usize) -> usize {
        requested.clamp(1, FLOWS_PER_RUN)
    }

    /// Whether completions stamp and record packet latency (on unless a
    /// scenario turns it off).
    pub(crate) fn measuring_latency(mut self, on: bool) -> Pipeline {
        self.latency = on;
        self
    }

    /// The port (for producers to offer onto).
    pub fn port(&self) -> &Arc<RssPort> {
        &self.port
    }

    /// The port, to install doorbell hooks.
    ///
    /// # Panics
    /// Once the port is shared: hooks go in before any producer runs.
    pub fn port_mut(&mut self) -> &mut RssPort {
        Arc::get_mut(&mut self.port).expect("wake hooks are installed before the port is shared")
    }

    /// The run's one clock: scheduled arrival stamps, completion stamps
    /// and fault windows share its zero. The first [`Pipeline::arm`]
    /// anchors it once its workers are up — anchoring before the spawn
    /// would stamp the arrivals falling due during thread creation
    /// milliseconds late and inflate the latency tail — and a pipeline
    /// that is never armed anchors it on first use.
    pub fn clock(&self) -> WallClock {
        *self.clock.get_or_init(WallClock::start)
    }

    /// Producer shard `shard` of `n_shards` (see [`IngestShard::new`]):
    /// its slice of the flow population, offering onto the port from the
    /// pool and stamping lateness against the run's clock into the
    /// shard's slot.
    pub fn ingest_shard(&mut self, shard: usize, n_shards: usize) -> IngestShard {
        while self.lateness.len() <= shard {
            self.lateness
                .push(Arc::new(Mutex::new(Histogram::latency())));
        }
        IngestShard::new(
            shard,
            n_shards,
            &self.templates,
            &self.port,
            &self.pool,
            self.clock(),
            Arc::clone(&self.lateness[shard]),
        )
    }

    /// Spawn `spec`'s worker set over fresh consumer handles of the
    /// port's rings, on `exec`, publishing into `hub` (and recording into
    /// `trace`). Each worker owns a burst-sized mempool cache — a
    /// recycled burst is a thread-local stack push, not a freelist lock;
    /// the cache flushes when the worker exits, before `stop` returns —
    /// and completes every burst through [`complete_burst`] after calling
    /// `before_burst` (a caller with nothing to do there passes `|| {}`,
    /// which compiles away). The burst's completion read goes back to the
    /// worker's backend, which releases the queue on it when the drain
    /// ends there.
    pub fn arm<F>(
        &self,
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        exec: ExecBackend,
        hub: &Arc<TelemetryHub>,
        trace: Option<&Arc<TraceHub>>,
        before_burst: F,
    ) -> WorkerSet<Mbuf, WorkerRing>
    where
        F: Fn() + Clone + Send + 'static,
    {
        let burst = cfg.burst as usize;
        let consumers = self.port.consumers().into_iter().map(WorkerRing).collect();
        let mut builder = WorkerSet::builder(cfg, spec, consumers)
            .exec(exec)
            .telemetry(hub);
        if let Some(trace) = trace {
            builder = builder.trace(trace);
        }
        let workers = builder.spawn(|_worker| BurstConsumer {
            apps: Arc::clone(&self.apps),
            clock: Arc::clone(&self.clock),
            latency: self.latency,
            before_burst: before_burst.clone(),
            cache: self.pool.cache(burst),
            arrivals: Vec::with_capacity(burst),
            completed: None,
        });
        // No packet can complete before this: production starts later.
        self.clock();
        workers
    }

    /// Fill `snap` with everything the pipeline knows, on top of the
    /// counters already in it (this pipeline's hub counts): the books —
    /// `offered` = frames offered to the port + pool drops + fault drops,
    /// so `offered == retrieved + dropped + in flight` — ring occupancy,
    /// the pool gauges, packet latency merged over queues (when measured),
    /// generator lateness merged over shards, and, given the flight
    /// recorder, its wake-latency / oversleep / scheduler-delay
    /// histograms. Recorders publish opportunistically, so a live snapshot
    /// sees each ring as of its last flush.
    pub fn fill_snapshot(&self, snap: &mut CounterSnapshot, trace: Option<&TraceHub>) {
        snap.offered = self.port.total_offered() + snap.dropped_pool + snap.dropped_fault;
        snap.occupancy = self.port.occupancies();
        snap.pool_in_use = self.pool.in_use() as u64;
        snap.pool_cached = self.pool.cached() as u64;
        // Each histogram is locked briefly by its writer: a worker once
        // per burst, a producer shard once per batch.
        if self.latency {
            let mut latency = Histogram::latency();
            for app in self.apps.iter() {
                latency.merge(&app.lock().latency_ns);
            }
            snap.latency = Some(latency);
        }
        let mut lateness = Histogram::latency();
        for slot in &self.lateness {
            lateness.merge(&slot.lock());
        }
        snap.gen_jitter = Some(lateness);
        if let Some(trace) = trace {
            let dump = trace.dump();
            snap.wake_latency = Some(dump.wake_latency());
            snap.oversleep_hist = Some(dump.oversleep());
            snap.sched_delay = Some(dump.sched_delay());
        }
    }

    /// Wait until every ring is empty, at most `grace` (generation must be
    /// over). A burst already popped completes before its worker joins,
    /// so once the set is stopped whatever is still queued was never
    /// going to be retrieved — [`Pipeline::sweep`] books it. (Not
    /// `processed ≥ accepted`: a set re-armed under load restarts its
    /// count while the port's carries on.)
    pub fn drain(&self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while self.port.occupancies().iter().any(|&o| o > 0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Pop whatever the rings still hold back into the pool and book it
    /// into `hub` as ring drops (accepted, never retrieved), so
    /// conservation stays exact; call once the worker set has stopped.
    /// Returns how many frames were stranded.
    pub fn sweep(&self, hub: &TelemetryHub) -> u64 {
        let mut scratch: Vec<Mbuf> = Vec::new();
        let mut stranded = 0;
        for (q, ring) in self.port.rings().iter().enumerate() {
            let mut n = 0;
            while ring.pop_burst(&mut scratch, GEN_BATCH) > 0 {
                n += scratch.len() as u64;
                self.pool.free_burst(scratch.drain(..));
            }
            hub.dropped(q, DropCause::Ring, n);
            stranded += n;
        }
        stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime_runner::default_processor;

    fn pipeline(gen_shards: usize, ring_size: usize) -> Pipeline {
        Pipeline::new(
            2,
            ring_size,
            RingPath::Spsc,
            gen_shards,
            7,
            Mempool::new(4096, MBUF_DATAROOM),
            &|_q| default_processor("l3fwd-lpm"),
        )
    }

    #[test]
    fn producer_shards_clamp_and_pick_the_ring_path() {
        assert_eq!(Pipeline::producer_shards(0), 1);
        assert_eq!(Pipeline::producer_shards(10_000), FLOWS_PER_RUN);
        assert_eq!(pipeline(1, 64).port().rings()[0].path(), RingPath::Spsc);
        assert_eq!(pipeline(3, 64).port().rings()[0].path(), RingPath::Mpsc);
    }

    #[test]
    fn unretrieved_frames_are_swept_into_the_books() {
        // Two shards into 64-slot rings and no worker set: what the rings
        // refuse tail-drops, what they accept is stranded, and the sweep
        // books the latter as ring drops too.
        let mut p = pipeline(2, 64);
        let hub = TelemetryHub::new(0, 2);
        let due: Vec<Nanos> = (0..300).map(|k| Nanos(1_000 + k)).collect();
        for s in 0..2 {
            let mut shard = p.ingest_shard(s, 2);
            shard.emit(&due, p.port(), &hub);
            shard.finish(&hub);
        }
        assert!(p.port().total_dropped() > 0, "rings never overflowed");
        assert_eq!(p.sweep(&hub), p.port().total_accepted());
        let t0 = Instant::now();
        p.drain(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drain waited on empty rings"
        );

        let mut books = CounterSnapshot::new(Nanos::ZERO);
        hub.fill_snapshot(&mut books);
        p.fill_snapshot(&mut books, None);
        assert_eq!(books.offered, 600);
        assert_eq!(books.dropped_ring, 600);
        assert_eq!(books.occupancy, vec![0, 0]);
        assert_eq!((books.pool_in_use, books.pool_cached), (0, 0));
        assert_eq!(books.gen_jitter.map(|h| h.count()), Some(600));
        assert_eq!(books.latency.map(|h| h.count()), Some(0));
    }
}
