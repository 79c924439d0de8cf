//! Live windowed telemetry over a real-thread Metronome instance.
//!
//! Starts a worker set, offers a two-phase load (quiet, then a burst
//! plateau), and samples the set's books every 100 ms while the run is
//! live — printing each window as it closes: duty cycle, windowed
//! throughput, wake rate, and the adaptive `TS` and ρ̂ trajectories
//! reacting to the load step. Afterwards the same series is rendered
//! through the three exporters (CSV, JSON, Prometheus text format).
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use metronome_repro::core::{DisciplineSpec, MetronomeConfig, WorkerSet};
use metronome_repro::sim::Nanos;
use metronome_repro::telemetry::export::{csv, json, prometheus};
use metronome_repro::telemetry::{CounterSnapshot, Sampler};

use crossbeam::queue::ArrayQueue;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WINDOW: Duration = Duration::from_millis(100);
const WINDOWS: usize = 10;

fn main() {
    let cfg = MetronomeConfig {
        m_threads: 2,
        n_queues: 1,
        ..MetronomeConfig::default()
    };
    let queues = vec![Arc::new(ArrayQueue::<u64>::new(4096))];
    let metronome = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone())
        .spawn(|_worker| |_q, burst: &mut Vec<u64>| burst.clear());
    let books = metronome.books();

    println!("live series: one row per {WINDOW:?} window (load steps up at window 5)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>9} {:>8} {:>8} {:>6}",
        "window", "retrieved", "kpps", "wakeups", "duty%", "TS µs", "ρ̂"
    );

    let start = Instant::now();
    let mut sampler = Sampler::new(Nanos(WINDOW.as_nanos() as u64));
    let mut seq = 0u64;
    for window in 0..WINDOWS {
        // Quiet phase: ~5 kpps; plateau phase: ~50 kpps.
        let per_ms = if window < WINDOWS / 2 { 5 } else { 50 };
        let window_end = start + WINDOW * (window as u32 + 1);
        while Instant::now() < window_end {
            for _ in 0..per_ms {
                let _ = queues[0].push(seq);
                seq += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        // Close the window: snapshot the cumulative counters and print
        // the freshly derived per-window row.
        let mut snap = CounterSnapshot::new(Nanos(start.elapsed().as_nanos() as u64));
        books.fill_snapshot(&mut snap);
        snap.occupancy = vec![queues[0].len() as u64];
        sampler.sample(snap);
        let w = &sampler.windows()[window];
        println!(
            "{:>6} {:>10} {:>10.1} {:>9} {:>8.1} {:>8.1} {:>6.3}",
            w.index,
            w.retrieved,
            w.throughput_mpps() * 1e3,
            w.wakeups,
            w.duty_cycle() * 100.0,
            w.ts_us(),
            w.rho0(),
        );
    }

    let stats = metronome.stop();
    let series = sampler.into_series();
    println!(
        "\nworkers processed {} items over {} windows",
        stats.total_processed(),
        series.len()
    );

    let exports = [
        ("CSV", "csv", csv::timeseries_csv(&series)),
        ("JSON", "json", json::timeseries_json(&series).render()),
        (
            "Prometheus",
            "prom",
            prometheus::render(&prometheus::snapshot_metrics(&series.totals)),
        ),
    ];
    for (name, ext, out) in exports {
        let preview: String = out.lines().take(4).collect::<Vec<_>>().join("\n");
        println!("\n--- {name} export (.{ext}, first lines) ---");
        println!("{preview}");
    }
}
