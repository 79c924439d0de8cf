//! Cross-layer telemetry tests: window conservation on both backends,
//! Prometheus round-trip on a real run's counters, and the zero-traffic
//! (offered = 0) regression path.
//!
//! The conservation property is the subsystem's core contract: the
//! sampler differences cumulative snapshots, so the per-window
//! `retrieved` / `dropped_ring` / `dropped_pool` columns must sum
//! *exactly* — not approximately — to the final aggregate counters of the
//! run, on the simulation and the realtime backend alike.

mod common;

use common::serial;
use metronome_repro::core::MetronomeConfig;
use metronome_repro::runtime::{run, run_realtime, RunReport, Scenario, TrafficSpec};
use metronome_repro::sim::Nanos;
use metronome_repro::telemetry::export::prometheus;
use metronome_repro::telemetry::TimeSeries;
use proptest::prelude::*;

/// Window columns must telescope to the report's aggregate counters.
fn assert_conservation(r: &RunReport, ts: &TimeSeries) {
    assert_eq!(
        ts.column_sum(|w| w.retrieved),
        r.forwarded,
        "windowed retrieved must sum to forwarded"
    );
    assert_eq!(
        ts.column_sum(|w| w.dropped_ring),
        r.dropped_ring,
        "windowed ring drops must sum to dropped_ring"
    );
    assert_eq!(
        ts.column_sum(|w| w.dropped_pool),
        r.dropped_pool,
        "windowed pool drops must sum to dropped_pool"
    );
    // And the series' own totals agree with the report.
    assert_eq!(ts.totals.retrieved, r.forwarded);
    assert_eq!(ts.totals.dropped_ring + ts.totals.dropped_pool, r.dropped);
}

/// The series closes on one `TS` and one ρ̂ per queue, and its ρ̂ is the
/// report's.
fn assert_gauges_match(r: &RunReport, ts: &TimeSeries) {
    let n_queues = r.queues.len();
    assert_eq!(ts.totals.ts_ns.len(), n_queues, "one TS per queue");
    assert_eq!(ts.totals.rho.len(), n_queues, "one rho per queue");
    for (q, queue) in r.queues.iter().enumerate() {
        assert_eq!(ts.totals.rho[q], queue.rho, "queue {q}");
    }
}

proptest! {
    /// Simulation backend: any rate (including overload), any seed, any
    /// window count — per-window deltas sum exactly to the aggregates.
    #[test]
    fn sim_windows_conserve_counters(
        kpps in 0u64..40_000,
        n_windows in 2u64..12,
        seed in any::<u64>(),
    ) {
        let dur = Nanos::from_millis(40);
        let sc = Scenario::metronome(
            "telemetry-sim-conservation",
            MetronomeConfig::default(),
            TrafficSpec::CbrPps(kpps as f64 * 1e3),
        )
        .with_duration(dur)
        .with_series(dur / n_windows)
        .with_seed(seed);
        let r = run(&sc);
        let ts = r.timeseries.as_ref().expect("series requested");
        prop_assert!(ts.len() >= n_windows as usize);
        assert_conservation(&r, ts);
        assert_gauges_match(&r, ts);
    }
}

#[test]
fn realtime_windows_conserve_counters() {
    let _guard = serial();
    // A few deliberately different operating points: clean CBR, ring
    // overload (tiny rings), pool starvation (undersized mempool). Each
    // must conserve exactly, drops included.
    let points: &[(f64, usize, Option<usize>)] = &[
        (40e3, 1024, None),
        (400e3, 32, None),
        (200e3, 256, Some(64)),
    ];
    for (i, &(pps, ring, pool)) in points.iter().enumerate() {
        let cfg = MetronomeConfig {
            m_threads: 2,
            n_queues: 2,
            ..MetronomeConfig::default()
        };
        let mut sc = Scenario::metronome(
            format!("telemetry-rt-conservation-{i}"),
            cfg,
            TrafficSpec::CbrPps(pps),
        )
        .with_duration(Nanos::from_millis(60))
        .with_series(Nanos::from_millis(10))
        .with_ring(ring)
        .with_latency()
        .with_seed(0x7E1E + i as u64);
        if let Some(p) = pool {
            sc = sc.with_mbuf_pool(p);
        }
        let r = run_realtime(&sc);
        let ts = r.timeseries.as_ref().expect("series requested");
        assert!(ts.len() >= 2, "point {i}: expected several windows");
        assert_conservation(&r, ts);
        // The gauges mean something: occupancy columns exist per queue,
        // and the series' final TS and ρ̂ are the report's, read from the
        // same words after the join.
        assert!(ts.windows.iter().all(|w| w.occupancy.len() == 2));
        assert_gauges_match(&r, ts);
    }
}

#[test]
fn realtime_prometheus_export_round_trips() {
    let _guard = serial();
    let sc = Scenario::metronome(
        "telemetry-prometheus",
        MetronomeConfig::default(),
        TrafficSpec::CbrPps(50e3),
    )
    .with_duration(Nanos::from_millis(50))
    .with_series(Nanos::from_millis(10))
    .with_seed(0xB0B);
    let r = run_realtime(&sc);
    let ts = r.timeseries.as_ref().expect("series requested");
    let metrics = prometheus::snapshot_metrics(&ts.totals);
    let text = prometheus::render(&metrics);
    let parsed = prometheus::parse(&text).expect("rendered text must parse");
    assert_eq!(parsed, metrics, "render → parse must be the identity");
    // The scraped counter equals the report's headline number.
    let retrieved = parsed
        .iter()
        .find(|m| m.name == "metronome_retrieved_packets_total")
        .expect("retrieved counter exported");
    assert_eq!(retrieved.samples[0].value as u64, r.forwarded);
}

/// The zero-traffic path: every ratio field must be a plain 0, not NaN —
/// on both backends, and through the JSON writer.
#[test]
fn zero_traffic_reports_have_no_nan() {
    let _guard = serial();
    let base = |name: &str| {
        Scenario::metronome(
            name.to_string(),
            MetronomeConfig::default(),
            TrafficSpec::Silent,
        )
        .with_duration(Nanos::from_millis(40))
        .with_series(Nanos::from_millis(10))
        .with_seed(3)
    };
    let sim = run(&base("zero-traffic-sim"));
    let rt = run_realtime(&base("zero-traffic-rt"));
    for r in [&sim, &rt] {
        assert_eq!(r.offered, 0, "{}", r.name);
        assert_eq!(
            r.loss, 0.0,
            "{}: loss must be 0 when nothing offered",
            r.name
        );
        assert_eq!(r.throughput_mpps, 0.0, "{}", r.name);
        for q in 0..r.queues.len() {
            assert_eq!(r.queue_share(q), 0.0, "{}: share of queue {q}", r.name);
        }
        let ts = r.timeseries.as_ref().expect("series requested");
        assert!(ts.windows.iter().all(|w| w.loss() == 0.0));
        assert!(ts.windows.iter().all(|w| w.throughput_mpps() == 0.0));
        // Nothing non-finite may leak into the machine-readable output.
        let json = r.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{}", r.name);
        assert!(json.contains("\"offered\":0"));
    }
}
