//! The realtime runner under a fault plan. The plan is realized the way
//! `metronomed` realizes it: spikes and jitter by an injector in front of
//! each producer shard's source (duplicating and thinning arrivals
//! upstream of the ingest core), stalls and starvation by the pipeline's
//! fault driver against the workers and the pool. The run must still
//! reconcile exactly — by cause, with the pool whole — on one producer
//! shard and on several, and each kind must land under its own cause.

use metronome_core::MetronomeConfig;
use metronome_runtime::{try_run_realtime, RunReport, Scenario, TrafficSpec};
use metronome_sim::Nanos;
use metronome_traffic::{FaultKind, FaultPlan};

#[test]
fn realtime_run_under_a_seeded_fault_plan_conserves_by_cause() {
    let dur = Nanos::from_millis(400);
    let plan = FaultPlan::seeded(0x50AC, dur, 8);
    assert!(plan.distinct_kinds() >= 3, "seeded plan must mix kinds");
    for gen_shards in [1, 2] {
        let sc = Scenario::metronome(
            "rt-faults",
            MetronomeConfig::default(),
            TrafficSpec::CbrPps(100_000.0),
        )
        .with_duration(dur)
        .with_faults(plan.clone())
        .with_seed(0x50AC)
        .with_gen_shards(gen_shards)
        .with_latency();
        let r = try_run_realtime(&sc).expect("scenario is executable");

        assert!(
            r.offered > 0 && r.forwarded > 0,
            "G={gen_shards}: no traffic"
        );
        assert!(
            r.dropped_fault > 0,
            "G={gen_shards}: the plan must have actually injected"
        );
        assert_eq!(
            r.offered,
            r.forwarded + r.dropped,
            "G={gen_shards}: offered == processed + dropped under faults"
        );
        assert_eq!(
            r.dropped,
            r.dropped_ring + r.dropped_pool + r.dropped_fault,
            "G={gen_shards}: drops must split by cause"
        );
        let m = r.mempool.expect("realtime runs report mempool stats");
        assert_eq!(
            m.allocs, m.frees,
            "G={gen_shards}: pool alloc/free imbalance"
        );
        assert_eq!(m.cached, 0, "G={gen_shards}: caches must flush");
        // Every offered packet that reached the ingest core was stamped.
        assert!(r.gen_jitter_us.is_some() && r.latency_us.is_some());
    }
}

/// 100 kpps of CBR for 300 ms under `plan`, on rings of `ring` slots.
fn run_under(plan: FaultPlan, ring: usize) -> RunReport {
    let sc = Scenario::metronome(
        "rt-world-faults",
        MetronomeConfig::default(),
        TrafficSpec::CbrPps(100_000.0),
    )
    .with_duration(Nanos::from_millis(300))
    .with_ring(ring)
    .with_faults(plan)
    .with_seed(0xCA5E)
    .with_latency();
    let r = try_run_realtime(&sc).expect("scenario is executable");
    assert_eq!(r.offered, r.forwarded + r.dropped);
    assert_eq!(r.dropped, r.dropped_ring + r.dropped_pool + r.dropped_fault);
    let m = r.mempool.expect("realtime runs report mempool stats");
    assert_eq!((m.allocs, m.cached), (m.frees, 0), "pool not whole");
    r
}

#[test]
fn stalls_and_starvation_land_under_their_own_cause() {
    let ms = Nanos::from_millis;
    // Starvation takes the pool's buffers away: arrivals find none.
    let starve = FaultPlan::new().with(ms(50), ms(150), FaultKind::PoolStarve { fraction: 1.0 });
    let r = run_under(starve, 512);
    assert!(r.dropped_pool > 0, "starvation left the pool alone");
    assert_eq!(r.dropped_fault, 0, "starvation booked as a fault drop");

    // A stall 300 times as long as the 32-slot ring takes to fill at
    // 100 kpps: the ring backs up and tail-drops, and what waited in it
    // completes a stall late.
    let window = ms(100);
    let stall = FaultPlan::new().with(ms(50), window, FaultKind::QueueStall);
    let r = run_under(stall, 32);
    assert!(r.dropped_ring > 0, "the ring never backed up");
    assert_eq!(r.dropped_fault, 0, "a stall booked as a fault drop");
    let max_us = r.latency_us.expect("latency measured").max;
    assert!(
        max_us >= (window / 2).as_micros_f64(),
        "latency max {max_us} µs never saw the {window} stall"
    );
}
