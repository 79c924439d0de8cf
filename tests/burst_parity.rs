//! Burst-vs-per-packet parity: the burst refactor must change *how fast*
//! the datapath runs, never *what it computes*.
//!
//! Two layers are pinned down:
//!
//! * **Processor layer** — `PacketProcessor::process_burst` (including
//!   l3fwd's bulk-LPM override) must be observably equivalent to the
//!   per-packet `process` loop: identical verdict counts, identical frame
//!   rewrites, identical internal counters (the contract documented on
//!   the trait).
//! * **Pipeline layer** — a realtime run at `burst = 1` (every packet is
//!   its own burst: per-packet pool transactions, per-packet process
//!   calls) must produce the same `RunReport` packet counts as the same
//!   scenario at `burst = 32`, given a ring and pool sized so nothing
//!   drops: the offered count is schedule-exact and everything offered is
//!   forwarded, at any burst size. And a run's workers, which take
//!   their bursts through `WorkerRing::pop_burst` and its header
//!   prefetch, must leave every frame exactly as a scalar `l3fwd` fed the
//!   same flows off the datapath does.

mod common;

use common::serial;
use metronome_repro::apps::processor::{BurstVerdicts, PacketProcessor, Verdict};
use metronome_repro::apps::L3Fwd;
use metronome_repro::core::MetronomeConfig;
use metronome_repro::dpdk::{Mbuf, RingPath, RssPort};
use metronome_repro::net::headers::{build_udp_frame, Mac};
use metronome_repro::net::FiveTuple;
use metronome_repro::runtime::pipeline::flow_templates;
use metronome_repro::runtime::{run_realtime, run_realtime_with, RunReport, Scenario, TrafficSpec};
use metronome_repro::sim::{Nanos, Rng};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// A pseudo-random frame mix: routable, unroutable, and garbage frames.
fn frame_mix(n: usize, seed: u64) -> Vec<Mbuf> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            match rng.below(8) {
                // Truncated garbage (parse failure).
                0 => Mbuf::from_bytes(bytes::BytesMut::from(&[0u8; 13][..])),
                // Unroutable destination.
                1 => {
                    let t = FiveTuple::udp(
                        Ipv4Addr::new(192, 168, 0, 1),
                        4000 + i as u16,
                        Ipv4Addr::new(172, 16, 0, 1),
                        80,
                    );
                    Mbuf::from_bytes(build_udp_frame(Mac::local(1), Mac::local(2), &t, &[], 64))
                }
                // Routable into one of the sample /16s (or its carve-out).
                _ => {
                    let h = (rng.below(4)) as u8;
                    let t = FiveTuple::udp(
                        Ipv4Addr::new(192, 168, 0, 1),
                        4000 + i as u16,
                        Ipv4Addr::new(10, h, if rng.below(4) == 0 { 7 } else { 1 }, 9),
                        80,
                    );
                    Mbuf::from_bytes(build_udp_frame(Mac::local(1), Mac::local(2), &t, &[], 64))
                }
            }
        })
        .collect()
}

#[test]
fn l3fwd_burst_override_matches_scalar_loop_on_random_mixes() {
    for seed in [1u64, 7, 0xBEEF, 0x5EED] {
        let mut scalar = L3Fwd::with_sample_routes(4);
        let mut scalar_frames = frame_mix(97, seed); // non-multiple of 32
        let mut scalar_verdicts = BurstVerdicts::default();
        for m in &mut scalar_frames {
            scalar_verdicts.count(scalar.process(m));
        }

        let mut batched = L3Fwd::with_sample_routes(4);
        let mut batched_frames = frame_mix(97, seed);
        let mut batched_verdicts = BurstVerdicts::default();
        // Feed in bursts of 32 (with a ragged tail), like the worker does.
        for chunk in batched_frames.chunks_mut(32) {
            let v = batched.process_burst(chunk);
            batched_verdicts.forwarded += v.forwarded;
            batched_verdicts.dropped += v.dropped;
        }

        assert_eq!(batched_verdicts, scalar_verdicts, "seed {seed}");
        assert_eq!(batched.forwarded, scalar.forwarded, "seed {seed}");
        assert_eq!(batched.dropped, scalar.dropped, "seed {seed}");
        for (i, (a, b)) in scalar_frames.iter().zip(&batched_frames).enumerate() {
            assert_eq!(a.bytes(), b.bytes(), "frame {i} rewrite diverged");
            assert_eq!(a.port, b.port, "frame {i} egress diverged");
        }
    }
}

/// Run the same no-drop scenario at the given burst size.
fn lossless_run(burst: u32) -> RunReport {
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: 1,
        burst,
        ..MetronomeConfig::default()
    };
    let sc = Scenario::metronome(
        format!("parity-burst-{burst}"),
        cfg,
        TrafficSpec::CbrPps(30_000.0),
    )
    .with_duration(Nanos::from_millis(200))
    .with_ring(4096)
    .with_mbuf_pool(16_384)
    .with_latency()
    .with_seed(0x009A_8177);
    run_realtime(&sc)
}

#[test]
fn realtime_counts_agree_at_burst_1_and_32() {
    let _guard = serial();
    let one = lossless_run(1);
    let thirty_two = lossless_run(32);

    // The offered count is schedule-exact: same seed, same schedule.
    assert_eq!(one.offered, thirty_two.offered, "schedules diverged");
    // Nothing may drop in either run — ring and pool are oversized.
    assert_eq!(one.dropped, 0, "burst=1 dropped");
    assert_eq!(thirty_two.dropped, 0, "burst=32 dropped");
    assert_eq!(one.dropped_pool, 0);
    assert_eq!(thirty_two.dropped_pool, 0);
    // Therefore the forwarded counts are identical.
    assert_eq!(one.forwarded, thirty_two.forwarded);
    assert_eq!(one.forwarded, one.offered);
    // Per-queue accounting matches the aggregate on both.
    for r in [&one, &thirty_two] {
        let per_queue: u64 = r.queues.iter().map(|q| q.drained + q.dropped).sum();
        assert_eq!(per_queue, r.offered);
    }
    // Latency measured every packet on both paths.
    assert_eq!(one.latency_us.as_ref().unwrap().count as u64, one.forwarded);
    assert_eq!(
        thirty_two.latency_us.as_ref().unwrap().count as u64,
        thirty_two.forwarded
    );
    // The pool audit is visible in both reports.
    for r in [&one, &thirty_two] {
        let m = r.mempool.as_ref().expect("realtime reports pool stats");
        assert_eq!(m.allocs, m.frees, "pool must balance after the run");
        assert!(m.in_use_peak > 0);
        assert_eq!(m.alloc_failures, 0);
    }
}

/// `l3fwd` that keeps a copy of every frame as it leaves the worker.
struct Recording {
    inner: L3Fwd,
    frames: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl PacketProcessor for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cycles_per_packet(&self) -> u64 {
        self.inner.cycles_per_packet()
    }

    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict {
        let verdict = self.inner.process(mbuf);
        self.frames.lock().unwrap().push(mbuf.bytes().to_vec());
        verdict
    }

    fn process_burst(&mut self, mbufs: &mut [Mbuf]) -> BurstVerdicts {
        let verdicts = self.inner.process_burst(mbufs);
        let mut frames = self.frames.lock().unwrap();
        frames.extend(mbufs.iter().map(|m| m.bytes().to_vec()));
        verdicts
    }
}

/// The worker's burst path — batched pop, write-intent prefetch of every
/// header, burst rewrite, burst latency stamp — against the same flows
/// rewritten one by one on bare mbufs that never saw a ring: same counts,
/// same per-queue split, byte-identical frames in the same order.
#[test]
fn realtime_frames_match_the_scalar_rewrite_of_the_same_flows() {
    let _guard = serial();
    const QUEUES: usize = 2;
    const SEED: u64 = 0x00F0_07E5;
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: QUEUES,
        ..MetronomeConfig::default()
    };
    let sc = Scenario::metronome("parity-prefetch", cfg, TrafficSpec::CbrPps(60_000.0))
        .with_duration(Nanos::from_millis(150))
        .with_ring(4096)
        .with_mbuf_pool(16_384)
        .with_latency()
        .with_seed(SEED);
    let recorded: Vec<_> = (0..QUEUES)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let report = run_realtime_with(&sc, &|q| {
        Box::new(Recording {
            inner: L3Fwd::with_sample_routes(4),
            frames: Arc::clone(&recorded[q]),
        })
    });

    assert_eq!(report.dropped, 0, "ring and pool are oversized");
    assert_eq!(report.forwarded, report.offered);
    assert_eq!(
        report.latency_us.as_ref().unwrap().count as u64,
        report.forwarded,
        "the burst stamp measures every packet"
    );

    // The generator walks the flow templates round-robin; each template
    // resolves to one queue, and a queue is FIFO.
    let port = RssPort::with_path(QUEUES, 4096, RingPath::Spsc);
    let templates = flow_templates(&port, SEED);
    let mut scalar = L3Fwd::with_sample_routes(4);
    let mut expected: Vec<Vec<Vec<u8>>> = vec![Vec::new(); QUEUES];
    for (frame, q, _hash) in templates.iter().cycle().take(report.offered as usize) {
        let mut mbuf = Mbuf::from_bytes(frame.clone());
        assert_eq!(scalar.process(&mut mbuf), Verdict::Forward);
        expected[*q].push(mbuf.bytes().to_vec());
    }
    for q in 0..QUEUES {
        let got = recorded[q].lock().unwrap();
        assert!(!got.is_empty(), "RSS left queue {q} without traffic");
        assert_eq!(
            report.queues[q].drained,
            expected[q].len() as u64,
            "queue {q}"
        );
        assert_eq!(got.len(), expected[q].len(), "queue {q}");
        for (i, (a, b)) in got.iter().zip(&expected[q]).enumerate() {
            assert_eq!(a, b, "queue {q} frame {i} diverged");
        }
    }
}
