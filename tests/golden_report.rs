//! Golden-report regression tests: fixed-seed simulator runs of five
//! representative scenarios (three Metronome, the static DPDK poller and
//! the constant-sleep strawman), snapshotting the key `RunReport` fields so
//! any protocol drift (engine, controller, queue model, traffic, latency
//! path) fails loudly instead of silently shifting results.
//!
//! Each scenario is run twice to prove byte-stability at a fixed seed,
//! then compared against the snapshot committed under `tests/golden/`.
//! To regenerate after an *intentional* protocol change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_report
//! ```
//!
//! The run-vs-run stability check holds on every platform. The committed
//! snapshots, however, are pinned to Linux (the CI platform): some
//! simulated values pass through libm (`ln`/`exp` in the Poisson and
//! sleep models), whose last-ulp rounding may differ across libm
//! implementations, which could shift an arrival across the horizon or a
//! digit across a rounding boundary with no actual protocol drift. The
//! snapshot comparison is therefore compiled only on Linux.

use metronome_repro::core::MetronomeConfig;
use metronome_repro::dpdk::NicProfile;
use metronome_repro::runtime::{run, RunReport, Scenario, TrafficSpec};
use metronome_repro::sim::Nanos;
use std::path::PathBuf;

/// Render the protocol-determined fields of a report as a stable snapshot.
///
/// Everything here is either an exact integer count or a deterministic
/// f64 derived from the seeded simulation; Rust's float formatting is
/// shortest-round-trip and platform-independent, so equal runs render
/// equal bytes.
fn render(r: &RunReport) -> String {
    let mut s = String::new();
    let mut line = |k: &str, v: String| {
        s.push_str(k);
        s.push_str(" = ");
        s.push_str(&v);
        s.push('\n');
    };
    line("name", r.name.clone());
    line("duration_ns", r.duration.as_nanos().to_string());
    line("offered", r.offered.to_string());
    line("processed", r.forwarded.to_string());
    line("dropped", r.dropped.to_string());
    line("loss_permille", format!("{:.6}", r.loss_permille()));
    line("throughput_mpps", format!("{:.6}", r.throughput_mpps));
    line("mean_rho", format!("{:.6}", r.mean_rho()));
    line("busy_try_fraction", format!("{:.6}", r.busy_try_fraction));
    line("total_wakes", r.total_wakes.to_string());
    line("mean_vacation_us", format!("{:.4}", r.mean_vacation_us()));
    line("mean_busy_us", format!("{:.4}", r.mean_busy_us()));
    line("cpu_total_pct", format!("{:.6}", r.cpu_total_pct));
    match &r.latency_us {
        Some(b) => {
            line("latency_count", b.count.to_string());
            line("latency_min_us", format!("{:.4}", b.min));
            line("latency_q1_us", format!("{:.4}", b.q1));
            line("latency_median_us", format!("{:.4}", b.median));
            line("latency_q3_us", format!("{:.4}", b.q3));
            line("latency_max_us", format!("{:.4}", b.max));
        }
        None => line("latency", "none".into()),
    }
    for (qi, q) in r.queues.iter().enumerate() {
        line(
            &format!("queue{qi}"),
            format!(
                "drained={} dropped={} tries={} busy_tries={} rho={:.6}",
                q.drained, q.dropped, q.total_tries, q.busy_tries, q.rho
            ),
        );
    }
    line("series_points", r.series.len().to_string());
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check(name: &str, scenario: impl Fn() -> Scenario) {
    let first = render(&run(&scenario()));
    let second = render(&run(&scenario()));
    assert_eq!(
        first, second,
        "{name}: two runs at the same seed must be byte-identical"
    );
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &first).unwrap();
        return;
    }
    // Snapshots are pinned to the CI platform's libm (see module docs).
    #[cfg(target_os = "linux")]
    {
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
        assert_eq!(
            first, want,
            "{name}: RunReport drifted from its golden snapshot. If the \
             protocol change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_report`."
        );
    }
    #[cfg(not(target_os = "linux"))]
    let _ = path;
}

#[test]
fn golden_cbr_l3fwd() {
    check("cbr_l3fwd", || {
        Scenario::metronome(
            "golden-cbr-l3fwd",
            MetronomeConfig::default(),
            TrafficSpec::CbrPps(5e6),
        )
        .with_duration(Nanos::from_millis(100))
        .with_latency()
        .with_seed(0x601D_0001)
    });
}

#[test]
fn golden_poisson_multiqueue() {
    check("poisson_multiqueue", || {
        Scenario::metronome(
            "golden-poisson-multiqueue",
            MetronomeConfig::multiqueue(5, 4),
            TrafficSpec::PoissonPps(8e6),
        )
        .with_nic(NicProfile::XL710)
        .with_duration(Nanos::from_millis(100))
        .with_latency()
        .with_seed(0x601D_0002)
    });
}

#[test]
fn golden_staircase_adaptation() {
    check("staircase_adaptation", || {
        Scenario::metronome(
            "golden-staircase",
            MetronomeConfig::default(),
            TrafficSpec::RampUpDown {
                peak_pps: 4e6,
                n_steps: 4,
                step: Nanos::from_millis(25),
            },
        )
        .with_duration(Nanos::from_millis(200))
        .with_latency()
        .with_series(Nanos::from_millis(50))
        .with_seed(0x601D_0003)
    });
}

#[test]
fn golden_static_dpdk() {
    check("static_dpdk", || {
        Scenario::static_dpdk("golden-static-dpdk", 2, TrafficSpec::PoissonPps(4e6))
            .with_duration(Nanos::from_millis(100))
            .with_latency()
            .with_seed(0x601D_0004)
    });
}

#[test]
fn golden_const_sleep() {
    check("const_sleep", || {
        Scenario::const_sleep(
            "golden-const-sleep",
            1,
            Nanos::from_micros(20),
            TrafficSpec::CbrPps(2e6),
        )
        .with_duration(Nanos::from_millis(100))
        .with_latency()
        .with_seed(0x601D_0005)
    });
}
