//! End-to-end tests of the realtime scenario runner: load generator →
//! Toeplitz RSS → mbuf rings → Metronome workers → functional apps →
//! latency histograms → `RunReport`.
//!
//! These tests spawn real spinning threads; they serialize on the shared
//! guard and run single-threaded in CI's realtime job. All assertions are
//! correctness-based (conservation, counters, report shape) — never
//! timing-based — so they hold on loaded 1-core machines.

mod common;

use common::serial;
use metronome_repro::apps::processor::{PacketProcessor, Verdict};
use metronome_repro::apps::L3Fwd;
use metronome_repro::core::MetronomeConfig;
use metronome_repro::dpdk::Mbuf;
use metronome_repro::runtime::ingest::GEN_BATCH;
use metronome_repro::runtime::{
    run_realtime, run_realtime_with, try_run_realtime, AppProfile, RealtimeError, RunReport,
    Scenario, TrafficSpec,
};
use metronome_repro::sim::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wraps a processor, counting verdicts into shared atomics so a test can
/// observe the application layer from outside the pipeline.
struct Counting<P> {
    inner: P,
    forwarded: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl<P: PacketProcessor> PacketProcessor for Counting<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cycles_per_packet(&self) -> u64 {
        self.inner.cycles_per_packet()
    }

    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict {
        let v = self.inner.process(mbuf);
        match v {
            Verdict::Forward => self.forwarded.fetch_add(1, Ordering::Relaxed),
            Verdict::Drop => self.dropped.fetch_add(1, Ordering::Relaxed),
        };
        v
    }
}

/// A deliberately slow application: spins `per_packet` per frame, making
/// the drain capacity precisely controllable for overload tests.
struct SlowApp {
    per_packet: Duration,
}

impl PacketProcessor for SlowApp {
    fn name(&self) -> &'static str {
        "slow-app"
    }

    fn cycles_per_packet(&self) -> u64 {
        1
    }

    fn process(&mut self, _mbuf: &mut Mbuf) -> Verdict {
        let t0 = Instant::now();
        while t0.elapsed() < self.per_packet {
            std::hint::spin_loop();
        }
        Verdict::Forward
    }
}

/// The acceptance scenario: an l3fwd CBR run end-to-end on real threads.
#[test]
fn l3fwd_cbr_end_to_end() {
    let _guard = serial();
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: 1,
        ..MetronomeConfig::default()
    };
    let sc = Scenario::metronome("rt-l3fwd-cbr", cfg, TrafficSpec::CbrPps(40_000.0))
        .with_duration(Nanos::from_millis(200))
        .with_latency()
        .with_seed(0xE2E);

    let app_forwarded = Arc::new(AtomicU64::new(0));
    let app_dropped = Arc::new(AtomicU64::new(0));
    let r = run_realtime_with(&sc, &|_q| {
        Box::new(Counting {
            inner: L3Fwd::with_sample_routes(4),
            forwarded: Arc::clone(&app_forwarded),
            dropped: Arc::clone(&app_dropped),
        })
    });

    // Nonzero traffic actually flowed (CBR 40 kpps × 200 ms = 8000 frames;
    // sub-line-rate CBR arrives as 32-packet generator trains, so the
    // window edge can round to a train boundary).
    assert!(r.forwarded > 0, "no packets processed");
    assert!(
        (r.offered as i64 - 8_000).unsigned_abs() <= 32,
        "CBR schedule drifted: offered {}",
        r.offered
    );
    // Conservation: everything offered was processed or dropped.
    assert_eq!(r.offered, r.forwarded + r.dropped, "packets leaked");
    // The functional l3fwd really forwarded the frames: routable flows,
    // valid checksums, TTL > 1 — none may be dropped by the application.
    assert_eq!(
        app_forwarded.load(Ordering::Relaxed),
        r.forwarded,
        "application did not forward every retrieved frame"
    );
    assert_eq!(app_dropped.load(Ordering::Relaxed), 0);
    // Latency percentiles are populated and ordered.
    let lat = r.latency_us.expect("latency must be measured");
    assert_eq!(lat.count as u64, r.forwarded);
    assert!(lat.min > 0.0, "zero latency is implausible");
    assert!(lat.min <= lat.q1 && lat.q1 <= lat.median);
    assert!(lat.median <= lat.q3 && lat.q3 <= lat.max);
    // Report shape matches the sim's columns.
    assert_eq!(r.queues.len(), 1);
    assert_eq!(r.queues[0].drained, r.forwarded);
    assert!(r.total_wakes > 0);
    assert!(r.queues[0].total_tries > 0);
    // The pool creates buffers as the load needs them: at 40 kpps the
    // ring never fills, so what it created is bounded by one ring and the
    // caches at their high-water marks (2C each: the producer shard's and
    // both workers'), well under the population sized for two full rings.
    let pool = r.mempool.expect("realtime run reports pool stats");
    let caches = 2 * GEN_BATCH + 2 * 2 * MetronomeConfig::default().burst as usize;
    assert!(
        pool.materialized <= (sc.ring_size + caches) as u64,
        "created {} buffers at 40 kpps",
        pool.materialized
    );
    assert!(pool.materialized < pool.population);
    assert_eq!(pool.allocs, pool.frees, "every buffer must come home");
    // The report says which timer slack the sleepers learned against.
    let slack = metronome_repro::core::realtime::timer_slack_ns();
    assert_eq!(r.timer_slack_ns, slack);
    if let Some(ns) = slack {
        assert!(r.to_json().contains(&format!("\"timer_slack_ns\":{ns}")));
    }
}

/// RSS spreads a multi-flow CBR stream over both queues and the per-queue
/// accounting adds up to the aggregate.
#[test]
fn multiqueue_rss_spreads_and_accounts() {
    let _guard = serial();
    let cfg = MetronomeConfig::multiqueue(2, 2);
    let sc = Scenario::metronome("rt-multiqueue", cfg, TrafficSpec::CbrPps(50_000.0))
        .with_duration(Nanos::from_millis(200))
        .with_latency()
        .with_seed(0x2525);
    let r = run_realtime(&sc);

    assert_eq!(r.queues.len(), 2);
    assert_eq!(r.offered, r.forwarded + r.dropped);
    for (q, qr) in r.queues.iter().enumerate() {
        assert!(qr.drained > 0, "queue {q} starved — RSS did not spread");
    }
    let per_queue: u64 = r.queues.iter().map(|q| q.drained + q.dropped).sum();
    assert_eq!(per_queue, r.offered, "per-queue counts drifted from total");
}

/// Overload: offered rate far above the app's drain capacity on a tiny
/// ring. Tail-drops must be counted, conservation must stay exact, and no
/// wakeup may be lost (the run terminates with the rings empty).
#[test]
fn ring_overflow_under_overload_conserves_packets() {
    let _guard = serial();
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: 1,
        ..MetronomeConfig::default()
    };
    // Capacity ≈ 1/30µs ≈ 33 kpps; offered 150 kpps on a 32-slot ring.
    let sc = Scenario::metronome("rt-overload", cfg, TrafficSpec::CbrPps(150_000.0))
        .with_duration(Nanos::from_millis(150))
        .with_ring(32)
        .with_seed(0x0F10)
        .with_latency();
    let r = run_realtime_with(&sc, &|_q| {
        Box::new(SlowApp {
            per_packet: Duration::from_micros(30),
        })
    });

    assert!(
        (r.offered as i64 - 22_500).unsigned_abs() <= 32,
        "CBR schedule drifted: offered {}",
        r.offered
    );
    assert!(r.dropped > 0, "overload must tail-drop");
    assert!(r.forwarded > 0, "some packets must still flow");
    // The conservation identity — no double count, no loss of accounting.
    assert_eq!(r.offered, r.forwarded + r.dropped);
    assert_eq!(
        r.queues.iter().map(|q| q.dropped).sum::<u64>(),
        r.dropped,
        "per-queue drops drifted from the total"
    );
    // Drop causes partition the total.
    assert_eq!(r.dropped, r.dropped_ring + r.dropped_pool);
    assert!(r.loss > 0.0 && r.loss < 1.0);
}

/// One equal-offered-load scenario per retrieval discipline (40 kpps of
/// l3fwd CBR for 200 ms on one queue).
fn discipline_scenarios() -> Vec<Scenario> {
    let traffic = TrafficSpec::CbrPps(40_000.0);
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: 1,
        ..MetronomeConfig::default()
    };
    vec![
        Scenario::metronome("rt-disc-metronome", cfg, traffic.clone()),
        Scenario::static_dpdk("rt-disc-busy-poll", 1, traffic.clone()),
        Scenario::xdp("rt-disc-interrupt", 1, traffic.clone()),
        Scenario::const_sleep("rt-disc-const-sleep", 1, Nanos::from_micros(100), traffic),
    ]
    .into_iter()
    .map(|sc| sc.with_duration(Nanos::from_millis(200)).with_seed(0xD15C))
    .collect()
}

/// Discipline parity: every retrieval discipline executes the same
/// scenario on real threads with exact packet conservation and non-zero
/// throughput — the realtime runner no longer rejects the baselines.
#[test]
fn all_disciplines_conserve_and_forward() {
    let _guard = serial();
    for sc in discipline_scenarios() {
        let r: RunReport = run_realtime(&sc);
        assert!(r.forwarded > 0, "{}: no packets processed", r.name);
        assert_eq!(
            r.offered,
            r.forwarded + r.dropped,
            "{}: packets leaked",
            r.name
        );
        assert!(
            (r.offered as i64 - 8_000).unsigned_abs() <= 32,
            "{}: CBR schedule drifted: offered {}",
            r.name,
            r.offered
        );
        // Per-queue accounting still adds up for every discipline.
        let per_queue: u64 = r.queues.iter().map(|q| q.drained + q.dropped).sum();
        assert_eq!(per_queue, r.offered, "{}: per-queue drift", r.name);
        // At 40 kpps with a 100 µs period / moderation window, no
        // discipline should drop on a default 512-slot ring.
        assert_eq!(r.dropped, 0, "{}: unexpected drops", r.name);
    }
}

/// The Fig. 10 CPU ordering on real threads: a busy poller burns its core
/// (duty cycle ≈ 100% per queue) while Metronome's sleep&wake scheme
/// spends strictly less at the same offered load.
#[test]
fn busy_poll_burns_the_core_metronome_does_not() {
    let _guard = serial();
    let scenarios = discipline_scenarios();
    let metronome = run_realtime(&scenarios[0]);
    let busy_poll = run_realtime(&scenarios[1]);
    // One pinned spinning worker: the whole wall clock is busy time.
    assert!(
        busy_poll.cpu_total_pct > 85.0,
        "busy poller should burn ~a full core, got {:.1}%",
        busy_poll.cpu_total_pct
    );
    assert!(
        busy_poll.cpu_total_pct < 115.0,
        "one busy poller cannot exceed one core: {:.1}%",
        busy_poll.cpu_total_pct
    );
    // Metronome at 40 kpps sleeps most of the time.
    assert!(
        metronome.cpu_total_pct < 0.7 * busy_poll.cpu_total_pct,
        "metronome {:.1}% should be well under busy-poll {:.1}%",
        metronome.cpu_total_pct,
        busy_poll.cpu_total_pct
    );
}

/// The interrupt-driven discipline parks on its doorbell: with no traffic
/// at all its CPU is ≈ 0 (the XDP idle bar of Fig. 10).
#[test]
fn interrupt_discipline_idles_at_zero_cpu() {
    let _guard = serial();
    let sc = Scenario::xdp("rt-interrupt-idle", 1, TrafficSpec::Silent)
        .with_duration(Nanos::from_millis(200))
        .with_seed(0x1D1E);
    let r = run_realtime(&sc);
    assert_eq!(r.offered, 0);
    assert_eq!(r.forwarded, 0);
    assert!(
        r.cpu_total_pct < 5.0,
        "parked interrupt worker should be ~free, got {:.2}%",
        r.cpu_total_pct
    );
}

/// `Idle` runs the pipeline with no consumers: every accepted frame is
/// stranded and counted as a ring drop, and conservation still holds.
#[test]
fn idle_system_strands_everything() {
    let _guard = serial();
    let mut sc = Scenario::idle("rt-idle");
    sc.traffic = TrafficSpec::CbrPps(40_000.0);
    let r = run_realtime(&sc.with_duration(Nanos::from_millis(100)).with_seed(0x1D7E));
    assert!(r.offered > 0);
    assert_eq!(r.forwarded, 0, "idle system must process nothing");
    assert_eq!(r.offered, r.dropped, "everything offered must be dropped");
    assert_eq!(r.cpu_total_pct, 0.0);
    assert_eq!(r.total_wakes, 0);
}

/// A scenario the runner cannot execute comes back as a typed error, not
/// a panic: unknown functional processors and queue-count mismatches.
#[test]
fn rejected_scenarios_return_typed_errors() {
    let _guard = serial();
    // Cost-model-only app profile: fine in the simulator, no functional
    // processor on real threads.
    let bogus = AppProfile {
        name: "cost-model-only",
        cycles_per_packet: 100,
        cycles_per_burst: 50,
    };
    let sc = Scenario::metronome(
        "rt-no-processor",
        MetronomeConfig::default(),
        TrafficSpec::Silent,
    )
    .with_app(bogus)
    .with_duration(Nanos::from_millis(10));
    match try_run_realtime(&sc) {
        Err(RealtimeError::NoProcessor { app }) => assert_eq!(app, "cost-model-only"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("scenario with no functional processor must be rejected"),
    }

    // Queue-count mismatch between the Metronome config and the scenario.
    let mut sc = Scenario::metronome(
        "rt-queue-mismatch",
        MetronomeConfig::multiqueue(3, 2),
        TrafficSpec::Silent,
    )
    .with_duration(Nanos::from_millis(10));
    sc.n_queues = 1;
    match try_run_realtime(&sc) {
        Err(RealtimeError::QueueMismatch { config, scenario }) => {
            assert_eq!((config, scenario), (2, 1));
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("queue-count mismatch must be rejected"),
    }
}

/// Pool exhaustion is its own drop cause: a big ring with a starved mbuf
/// pool loses packets at allocation, not at the descriptors — and the
/// report must say so (ring tail-drop vs pool exhaustion), with the pool
/// counters exposing the starvation.
#[test]
fn pool_exhaustion_is_a_distinct_drop_cause() {
    let _guard = serial();
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: 1,
        ..MetronomeConfig::default()
    };
    // Ring far larger than the pool: descriptors are never the bottleneck,
    // so every loss must be charged to the pool. The slow app holds each
    // buffer ~30 µs, capping pool turnover at ~33 kpps × 24 buffers.
    let sc = Scenario::metronome("rt-pool-starved", cfg, TrafficSpec::CbrPps(150_000.0))
        .with_duration(Nanos::from_millis(150))
        .with_ring(4096)
        .with_mbuf_pool(24)
        .with_seed(0x9001);
    let r = run_realtime_with(&sc, &|_q| {
        Box::new(SlowApp {
            per_packet: Duration::from_micros(30),
        })
    });

    assert!(r.dropped_pool > 0, "starved pool must drop at allocation");
    assert_eq!(r.offered, r.forwarded + r.dropped, "conservation");
    assert_eq!(r.dropped, r.dropped_ring + r.dropped_pool);
    assert_eq!(
        r.queues.iter().map(|q| q.dropped_pool).sum::<u64>(),
        r.dropped_pool,
        "per-queue pool drops drifted from the total"
    );
    let pool = r.mempool.expect("realtime run reports pool stats");
    assert!(pool.alloc_failures >= r.dropped_pool);
    assert_eq!(pool.population, 24);
    // An alloc failure means some allocation found the freelist empty —
    // and since occupancy accounting shares the freelist's critical
    // section, the peak must have registered the full population (and can
    // never exceed it).
    assert_eq!(pool.in_use_peak, 24, "starved pool must hit its ceiling");
    assert_eq!(
        (pool.materialized, pool.population),
        (24, 24),
        "a drained pool has created every buffer it may hold"
    );
    assert_eq!(pool.allocs, pool.frees, "every buffer must come home");
}
