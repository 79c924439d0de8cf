//! The realtime pipeline, once: what the scenario runner
//! ([`crate::realtime_runner`]) and the `metronomed` service both size
//! ([`pool_population`]), build ([`Pipeline::new`]), arm
//! ([`Pipeline::arm`]), feed ([`Pipeline::producer`]), fault
//! ([`Pipeline::fault_driver`]), observe ([`Pipeline::fill_snapshot`])
//! and drain ([`Pipeline::drain`], [`Pipeline::disarm`], then
//! [`Pipeline::sweep`]).
//!
//! A [`Pipeline`] owns one scenario's receive side: the [`RssPort`] over
//! bounded mbuf rings (one producer shard or several, taking turns), the
//! flow templates the producer shards refill from, one [`QueueApp`] per
//! queue, the shards' lateness slots, the run's one [`WallClock`] and its
//! fault plan — the arrival side in front of every producer's source, the
//! world side (stalls and starvation) in the fault driver. The
//! [`Mempool`] is the caller's — per run for the runner, for the process
//! lifetime in the daemon. Each loss is counted once, where it happens:
//! on the port's rings (tail drops, no buffer, swept at stop) or by a
//! fault injector; [`Pipeline::fill_snapshot`] reads those books, and a
//! worker set's books count none. What differs between the two drivers
//! stays with them: the runner paces one finite scenario and reports; the
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
use metronome_core::{ExecBackend, MetronomeConfig, RealtimeStats, WorkerSet};
use metronome_dpdk::{Mbuf, Mempool, MempoolCache, RingConsumer, RssPort, SharedRing};
use metronome_net::headers::{build_udp_frame, Mac, MIN_FRAME_NO_FCS};
use metronome_sim::stats::Histogram;
use metronome_sim::{Nanos, Rng};
use metronome_telemetry::{CounterSnapshot, TraceHub};
use metronome_traffic::{
    ArrivalProcess, FaultKind, FaultPlan, FlowSet, InjectionStats, PacedArrivals, PlannedFaults,
    WallClock,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Flows in the generated population (enough for RSS to spread evenly).
pub const FLOWS_PER_RUN: usize = 256;

/// Destination subnets, matching `L3Fwd::with_sample_routes(4)`.
const L3FWD_SUBNETS: usize = 4;

/// Mbuf dataroom of a pipeline's pool (DPDK's default; far above the
/// templates' minimal frames).
pub const MBUF_DATAROOM: usize = 2048;

/// The fault driver's period: a window edge reaches the world within one
/// tick, whether or not a packet is due.
const FAULT_TICK: Duration = Duration::from_micros(500);

/// How long a stalled consumer naps between looks at the stall flag.
const STALL_NAP: Duration = Duration::from_micros(100);

/// How often [`Pipeline::drain`] looks at the rings: a vacation's scale.
const DRAIN_POLL: Duration = Duration::from_micros(50);

/// The mbuf population that keeps a pipeline clear of pool exhaustion:
/// every ring full twice over, plus each producer shard's and worker's
/// cache at its high-water mark (a cache of size C holds at most 2C) —
/// small enough that a deliberate undersizing bites at once. It is a cap,
/// not memory: the pool creates a buffer only when a request finds none
/// to recycle, so the "twice over" margin costs memory only in a run
/// whose load actually fills the rings.
pub fn pool_population(
    n_queues: usize,
    ring_size: usize,
    gen_shards: usize,
    workers: usize,
    burst: usize,
) -> usize {
    2 * n_queues * ring_size + gen_shards * 2 * GEN_BATCH + workers.max(1) * 2 * burst
}

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
/// and the type live in other crates). A worker's burst drain is one
/// batched acquire/release index update — followed by a write-intent
/// prefetch of every popped frame's header ([`Mbuf::prefetch_header`]):
/// the generator core wrote those lines last, and asking for all of them here puts a burst's worth of
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

/// The world side of a pipeline's fault plan: the stall flag the fault
/// driver raises over `queue-stall` windows and consumers nap under, and
/// the disarms that let them through. Both words are `Relaxed`: they
/// publish no data, and a napping consumer only has to see them change
/// within a nap or two.
struct WorldFaults {
    plan: FaultPlan,
    stalled: AtomicBool,
    /// [`Pipeline::disarm`]s in progress. While one runs no consumer naps:
    /// each driver arms one set at a time, so the consumers it lets
    /// through are the stopping set's.
    disarming: AtomicUsize,
}

impl WorldFaults {
    fn nap_while_stalled(&self) {
        while self.stalled.load(Ordering::Relaxed) && self.disarming.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(STALL_NAP);
        }
    }
}

/// One worker's consumer of an armed pipeline: a nap while the plan's
/// stall is up (only when the plan schedules one), then
/// [`complete_burst`] into the queue's app with the worker's own mempool
/// cache and arrival buffer, keeping the completion read for the backend.
struct BurstConsumer {
    apps: Arc<Vec<Mutex<QueueApp>>>,
    clock: Arc<OnceLock<WallClock>>,
    latency: bool,
    stall: Option<Arc<WorldFaults>>,
    cache: MempoolCache,
    arrivals: Vec<Nanos>,
    completed: Option<Instant>,
}

impl Consume<Mbuf> for BurstConsumer {
    fn consume(&mut self, q: usize, frames: &mut Vec<Mbuf>) {
        if let Some(stall) = &self.stall {
            stall.nap_while_stalled();
        }
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

/// One producer shard, ready to run ([`Pipeline::producer`]).
pub struct Producer {
    paced: PacedArrivals,
    shard: IngestShard,
    port: Arc<RssPort>,
}

impl Producer {
    /// Poll a live source every `period` ([`PacedArrivals::with_poll`]).
    pub fn with_poll(mut self, period: Nanos) -> Producer {
        self.paced = self.paced.with_poll(period);
        self
    }

    /// Pace and emit until the source runs dry or the horizon passes; the
    /// shard's cache flushes as it drops.
    pub fn run(mut self) {
        while let Some(batch) = self.paced.next_batch() {
            self.shard.emit(batch, &self.port);
        }
    }
}

/// One scenario's realtime pipeline (see the module doc).
pub struct Pipeline {
    port: Arc<RssPort>,
    pool: Mempool,
    templates: Vec<FlowTemplate>,
    /// The flow population's seed; injector streams derive from it.
    seed: u64,
    /// The plan's spikes and jitter, in front of every producer's source.
    arrival_faults: FaultPlan,
    /// The fault book: every injector's stats, kept across respawns.
    injected: Vec<InjectionStats>,
    /// Per-queue processor + packet-latency histogram; outlives re-arms,
    /// so the histogram is cumulative for the run.
    apps: Arc<Vec<Mutex<QueueApp>>>,
    /// Per-shard per-packet lateness: shard `s` records into slot `s`,
    /// and slots outlive a respawn of the producer set.
    lateness: Vec<Arc<Mutex<Histogram>>>,
    clock: Arc<OnceLock<WallClock>>,
    /// Stamp and record per-packet latency at completion.
    latency: bool,
    /// The plan's stalls and starvation (`None` when it schedules neither).
    world: Option<Arc<WorldFaults>>,
}

impl Pipeline {
    /// A pipeline over `n_queues` rings of `ring_size` descriptors, the
    /// flow population seeded by `seed`, buffers from `pool`, and queue
    /// `q` processing with `make_app(q)`. Any number of producer shards
    /// may feed it ([`Pipeline::producer`]).
    pub fn new(
        n_queues: usize,
        ring_size: usize,
        seed: u64,
        pool: Mempool,
        make_app: &ProcessorFactory,
    ) -> Pipeline {
        let port = RssPort::new(n_queues, ring_size);
        Pipeline {
            templates: flow_templates(&port, seed),
            seed,
            arrival_faults: FaultPlan::new(),
            injected: Vec::new(),
            port: Arc::new(port),
            pool,
            apps: Arc::new((0..n_queues).map(|q| QueueApp::new(make_app(q))).collect()),
            lateness: Vec::new(),
            clock: Arc::new(OnceLock::new()),
            latency: true,
            world: None,
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

    /// Realize `plan` on the run's clock: its arrival side in front of
    /// every producer's source ([`Pipeline::producer`]), `queue-stall` and
    /// `pool-starve` against this pipeline's workers and pool
    /// ([`Pipeline::fault_driver`]). Set before the first [`Pipeline::arm`].
    pub fn with_faults(mut self, plan: &FaultPlan) -> Pipeline {
        self.arrival_faults = plan.arrival_side();
        self.world = (self.arrival_faults.len() < plan.len()).then(|| {
            Arc::new(WorldFaults {
                plan: plan.clone(),
                stalled: AtomicBool::new(false),
                disarming: AtomicUsize::new(0),
            })
        });
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

    /// Producer shard `shard` of `n_shards`: `source` behind a
    /// `PlannedFaults` over the plan's arrival side when it has one
    /// (stream `0xFA + shard` of the seed), paced on the run's clock until
    /// `horizon`, [`GEN_BATCH`] at most a batch, into the shard's
    /// [`IngestShard`].
    pub fn producer(
        &mut self,
        shard: usize,
        n_shards: usize,
        mut source: Box<dyn ArrivalProcess>,
        horizon: Nanos,
    ) -> Producer {
        if !self.arrival_faults.is_empty() {
            let injector = PlannedFaults::new(
                source,
                self.arrival_faults.clone(),
                Rng::new(self.seed).stream(0xFA + shard as u64),
            );
            self.injected.push(injector.stats());
            source = Box::new(injector);
        }
        Producer {
            shard: self.ingest_shard(shard, n_shards),
            paced: PacedArrivals::with_clock(source, horizon, self.clock())
                .with_max_batch(GEN_BATCH),
            port: Arc::clone(&self.port),
        }
    }

    /// Ingest shard `shard` of `n_shards` ([`IngestShard::new`]), stamping
    /// lateness into the shard's slot.
    fn ingest_shard(&mut self, shard: usize, n_shards: usize) -> IngestShard {
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
    /// port's rings, on `exec` (recording into `trace`); the set keeps
    /// its own books ([`WorkerSet::books`]). Each worker owns a
    /// burst-sized mempool cache — a recycled burst is a thread-local
    /// stack push, not a freelist lock; the cache flushes when the worker
    /// exits, before `stop` returns — and completes every burst through
    /// [`complete_burst`]. When the plan schedules a `queue-stall`, a
    /// worker first naps while the stall is up, so the rings back up
    /// behind it and tail-drop; without one it carries no flag. The burst's completion read goes back to the
    /// worker's backend, which releases the queue on it when the drain
    /// ends there. Stop the set with [`Pipeline::disarm`].
    pub fn arm(
        &self,
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        exec: ExecBackend,
        trace: Option<&Arc<TraceHub>>,
    ) -> WorkerSet<Mbuf, WorkerRing> {
        let stall = self.world.as_ref().filter(|w| {
            w.plan
                .events
                .iter()
                .any(|e| e.kind == FaultKind::QueueStall)
        });
        let burst = cfg.burst as usize;
        let consumers = self.port.consumers().into_iter().map(WorkerRing).collect();
        let mut builder = WorkerSet::builder(cfg, spec, consumers).exec(exec);
        if let Some(trace) = trace {
            builder = builder.trace(trace);
        }
        let workers = builder.spawn(|_worker| BurstConsumer {
            apps: Arc::clone(&self.apps),
            clock: Arc::clone(&self.clock),
            latency: self.latency,
            stall: stall.cloned(),
            cache: self.pool.cache(burst),
            arrivals: Vec::with_capacity(burst),
            completed: None,
        });
        // No packet can complete before this: production starts later.
        self.clock();
        workers
    }

    /// Stop `set`, armed on this pipeline, and collect its final
    /// statistics. Its workers are let through a stall nap first, so a
    /// stopping set never waits out a stall window (a set armed after it
    /// naps again while the stall lasts).
    pub fn disarm(&self, set: WorkerSet<Mbuf, WorkerRing>) -> RealtimeStats {
        let Some(world) = &self.world else {
            return set.stop();
        };
        world.disarming.fetch_add(1, Ordering::Relaxed);
        let stats = set.stop();
        world.disarming.fetch_sub(1, Ordering::Relaxed);
        stats
    }

    /// The world side of the plan in motion, for a thread of the caller's
    /// to run for the life of its producers (`None` when the plan
    /// schedules no stall or starvation). Every 500 µs tick of the run's
    /// clock, whether or not a packet is due, it raises the stall
    /// flag over `queue-stall` windows and holds `pool-starve`'s fraction
    /// of the pool, confiscated straight from the shared freelist
    /// (bypassing caches, so the count is exact). Once `stop` goes up it
    /// lowers the flag and frees what it holds, so the drain finds the
    /// workers running and the audit the pool whole.
    pub fn fault_driver(&self) -> Option<impl FnOnce(&AtomicBool) + Send + 'static> {
        let world = Arc::clone(self.world.as_ref()?);
        let (pool, clock) = (self.pool.clone(), self.clock());
        Some(move |stop: &AtomicBool| {
            let mut confiscated: Vec<Mbuf> = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let now = clock.now();
                world
                    .stalled
                    .store(world.plan.stalled(now), Ordering::Relaxed);
                let want = (world.plan.starve_fraction(now) * pool.population() as f64) as usize;
                if want > confiscated.len() {
                    let _ = pool.alloc_burst(want - confiscated.len(), &mut confiscated);
                } else {
                    pool.free_burst(confiscated.drain(want..));
                }
                std::thread::sleep(FAULT_TICK);
            }
            world.stalled.store(false, Ordering::Relaxed);
            pool.free_burst(confiscated);
        })
    }

    /// Whether the plan's stall is up right now.
    pub fn stall_raised(&self) -> bool {
        self.world
            .as_ref()
            .is_some_and(|w| w.stalled.load(Ordering::Relaxed))
    }

    /// Fill `snap` with everything the pipeline knows, on top of the
    /// counters already in it (the armed worker set's books): the loss books
    /// and `offered` = frames offered to the port + pool drops + fault
    /// drops, so `offered == retrieved + dropped + in flight` — ring
    /// occupancy, the pool gauges, packet latency merged over queues (when measured),
    /// generator lateness merged over shards, and, given the flight
    /// recorder, its wake-latency / oversleep / scheduler-delay
    /// histograms. Recorders publish opportunistically, so a live snapshot
    /// sees each ring as of its last flush.
    pub fn fill_snapshot(&self, snap: &mut CounterSnapshot, trace: Option<&TraceHub>) {
        let rings = self.port.rings();
        snap.dropped_ring = rings.iter().map(|r| r.dropped() + r.swept()).sum();
        snap.dropped_pool = rings.iter().map(SharedRing::nombuf).sum();
        // An arrival-side plan has no stall, so an injector holds nothing.
        debug_assert!(self.injected.iter().all(|s| s.held() == 0));
        snap.dropped_fault = self.injected.iter().map(InjectionStats::drops).sum();
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
    ///
    /// Polls at vacation scale (`DRAIN_POLL`, 50 µs): the workers empty
    /// a ring within a vacation or two, so a coarser poll would only round
    /// every tear-down up.
    pub fn drain(&self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while self.port.occupancies().iter().any(|&o| o > 0) && Instant::now() < deadline {
            std::thread::sleep(DRAIN_POLL);
        }
    }

    /// Pop whatever the rings still hold back into the pool, each ring
    /// booking it as swept (a ring drop), so conservation stays exact;
    /// call once the worker set has stopped. Returns how many.
    pub fn sweep(&self) -> u64 {
        let mut scratch: Vec<Mbuf> = Vec::new();
        let mut stranded = 0;
        for ring in self.port.rings() {
            stranded += ring.sweep(&mut scratch);
            self.pool.free_burst(scratch.drain(..));
        }
        stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime_runner::default_processor;

    #[test]
    fn producer_shards_clamp() {
        assert_eq!(Pipeline::producer_shards(0), 1);
        assert_eq!(Pipeline::producer_shards(10_000), FLOWS_PER_RUN);
    }

    #[test]
    fn unretrieved_frames_are_swept_into_the_books() {
        // Two shards into 64-slot rings and no worker set: what the rings
        // refuse tail-drops, what they accept is stranded, and the sweep
        // books the latter as ring drops too.
        let mut p = Pipeline::new(2, 64, 7, Mempool::new(4096, MBUF_DATAROOM), &|_q| {
            default_processor("l3fwd-lpm")
        });
        let due: Vec<Nanos> = (0..300).map(|k| Nanos(1_000 + k)).collect();
        for s in 0..2 {
            p.ingest_shard(s, 2).emit(&due, p.port());
        }
        assert!(p.port().total_dropped() > 0, "rings never overflowed");
        assert_eq!(p.sweep(), p.port().total_accepted());
        let t0 = Instant::now();
        p.drain(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drain waited on empty rings"
        );

        let mut books = CounterSnapshot::new(Nanos::ZERO);
        p.fill_snapshot(&mut books, None);
        assert_eq!(books.offered, 600);
        assert_eq!(books.dropped_ring, 600);
        assert_eq!(books.occupancy, vec![0, 0]);
        assert_eq!((books.pool_in_use, books.pool_cached), (0, 0));
        assert_eq!(books.gen_jitter.map(|h| h.count()), Some(600));
        assert_eq!(books.latency.map(|h| h.count()), Some(0));
    }

    #[test]
    fn the_fault_book_reads_every_injector_across_a_respawn() {
        // Certain loss over the whole horizon: every arrival is a fault
        // drop, none reaches the port. A second producer generation on
        // the same pipeline adds to the book instead of replacing it.
        let plan = FaultPlan::new().with(
            Nanos::ZERO,
            Nanos::from_secs(10),
            FaultKind::JitterBurst {
                jitter: Nanos::ZERO,
                drop_prob: 1.0,
            },
        );
        let mut p = Pipeline::new(2, 64, 7, Mempool::new(4096, MBUF_DATAROOM), &|_q| {
            default_processor("l3fwd-lpm")
        })
        .with_faults(&plan);
        let cbr = || -> Box<dyn ArrivalProcess> {
            Box::new(metronome_traffic::Cbr::new(100_000.0, Nanos::ZERO))
        };
        for n_shards in [2, 1] {
            for s in 0..n_shards {
                p.producer(s, n_shards, cbr(), Nanos::from_millis(2)).run();
            }
        }
        let mut books = CounterSnapshot::new(Nanos::ZERO);
        p.fill_snapshot(&mut books, None);
        // 100 kpps for 2 ms, three producers.
        assert!(
            (590..=603).contains(&books.dropped_fault),
            "{}",
            books.dropped_fault
        );
        assert_eq!(books.offered, books.dropped_fault);
        assert_eq!(p.port().total_offered(), 0);
        assert_eq!((books.dropped_ring, books.dropped_pool), (0, 0));
    }

    #[test]
    fn pool_population_covers_rings_shards_and_workers() {
        assert_eq!(
            pool_population(2, 512, 16, 2, 32),
            2 * 2 * 512 + 16 * 2 * GEN_BATCH + 2 * 2 * 32
        );
        // A worker-less run still leaves one worker cache's room.
        assert_eq!(
            pool_population(1, 64, 1, 0, 32),
            pool_population(1, 64, 1, 1, 32)
        );
    }
}
