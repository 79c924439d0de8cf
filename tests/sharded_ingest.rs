//! Property tests of the sharded ingest path: for *any* combination of
//! producer shard count, queue count, and seed, sharded
//! generation plus scatter-gather queue dispatch must preserve per-flow
//! order (flow → shard is a pure flow property, so every flow has
//! exactly one producer) and exact packet conservation
//! (`offered == forwarded + dropped`, every mempool buffer home).
//!
//! These runs spawn real generator and worker threads; they serialize on
//! the shared guard and keep durations short so 64 proptest cases stay
//! tractable on a loaded 1-core CI machine.

mod common;

use common::serial;
use metronome_repro::apps::processor::{PacketProcessor, Verdict};
use metronome_repro::core::MetronomeConfig;
use metronome_repro::dpdk::Mbuf;
use metronome_repro::runtime::{run_realtime_with, Scenario, TrafficSpec};
use metronome_repro::sim::Nanos;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Observes per-flow arrival order from inside the application layer:
/// RSS pins a flow to one queue, so each queue-local probe sees every
/// packet of its flows in retrieval order and can check that arrival
/// timestamps never step backwards within a flow. Violations are counted
/// into a shared atomic (a panic inside a worker thread would poison the
/// scoped join instead of failing the test cleanly).
struct OrderProbe {
    last: HashMap<u32, Nanos>,
    violations: Arc<AtomicU64>,
    seen: Arc<AtomicU64>,
}

impl PacketProcessor for OrderProbe {
    fn name(&self) -> &'static str {
        "order-probe"
    }

    fn cycles_per_packet(&self) -> u64 {
        1
    }

    fn process(&mut self, mbuf: &mut Mbuf) -> Verdict {
        self.seen.fetch_add(1, Ordering::Relaxed);
        if let Some(prev) = self.last.insert(mbuf.rss_hash, mbuf.arrival) {
            if mbuf.arrival < prev {
                self.violations.fetch_add(1, Ordering::Relaxed);
            }
        }
        Verdict::Forward
    }
}

proptest! {
    #[test]
    fn sharded_ingest_preserves_flow_order_and_conserves(
        gen_shards in 1usize..=4,
        n_queues in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let _guard = serial();
        let cfg = MetronomeConfig {
            m_threads: n_queues.max(2),
            n_queues,
            ..MetronomeConfig::default()
        };
        // Short but non-trivial: ~2000 offered packets per case. With
        // `gen_shards > 1` the shards take turns at each ring's producer
        // guard (part of the property: turn-taking costs no conservation).
        let sc = Scenario::metronome(
            "prop-sharded-ingest",
            cfg,
            TrafficSpec::CbrPps(50_000.0),
        )
        .with_duration(Nanos::from_millis(40))
        .with_seed(seed)
        .with_gen_shards(gen_shards)
        .with_latency();

        let violations = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let r = run_realtime_with(&sc, &|_q| {
            Box::new(OrderProbe {
                last: HashMap::new(),
                violations: Arc::clone(&violations),
                seen: Arc::clone(&seen),
            })
        });

        // Exact conservation, whatever the shard/queue combination.
        prop_assert_eq!(
            r.offered,
            r.forwarded + r.dropped,
            "packets leaked: shards={} queues={}",
            gen_shards,
            n_queues
        );
        // Every forwarded frame passed through a probe.
        prop_assert_eq!(seen.load(Ordering::Relaxed), r.forwarded);
        // Per-flow order survived concurrent shard production and the
        // scatter-gather dispatch into the rings.
        prop_assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "per-flow arrival order violated: shards={} queues={} seed={}",
            gen_shards,
            n_queues,
            seed
        );
        // Pool audit: every buffer went home, no cache kept any.
        let m = r.mempool.expect("realtime runs report mempool stats");
        prop_assert_eq!(m.allocs, m.frees, "pool alloc/free imbalance");
        prop_assert_eq!(m.cached, 0, "worker caches must flush on join");
        // The generator measured its own pacing jitter for the run.
        if r.offered > 0 {
            prop_assert!(
                r.gen_jitter_us.is_some(),
                "offered traffic must come with jitter telemetry"
            );
        }
    }
}
