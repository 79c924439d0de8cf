//! The realtime runner under a seeded fault plan: the arrival-side
//! injector thins, duplicates, holds and releases packets upstream of
//! the ingest core, and the run must still reconcile exactly — by cause,
//! with the pool whole — on one producer shard and on several.

use metronome_core::MetronomeConfig;
use metronome_runtime::{try_run_realtime, Scenario, TrafficSpec};
use metronome_sim::Nanos;
use metronome_traffic::FaultPlan;

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
