//! The measured run (`--trace 0`): the workload once through the real
//! runner with tracing off, timed from outside, giving the seven
//! end-to-end metrics.
//!
//! The run lasts a warm-up plus `--seconds`; whatever the windowed series
//! can tell apart is read from the steady part alone (see
//! [`crate::run::Steady`]), and `cpu_pct` is its typical window.

use crate::procfs;
use crate::run::{
    check_outcome, instrumented, percentile, run_stock, window_of, Checks, Done, WINDOW,
};
use crate::spec::Metrics;
use crate::workload;
use metronome_sim::stats::quantile_sorted;
use metronome_sim::Nanos;
use metronome_telemetry::Window;

/// Short runs of the same scenario taken before the measured one: each
/// pays the full set-up and tear-down, so `setup_s` rests on many
/// readings rather than one, and they warm the allocator and the CPU
/// before anything is measured.
const SETUP_REPS: usize = 100;

/// Duration of each set-up repetition.
const SETUP_REP: Nanos = Nanos::from_millis(10);

/// Start of the measured run that the windowed metrics leave out.
const WARMUP: Nanos = Nanos::from_millis(1500);

/// The measured run of workload `name`; fills `metrics` with every
/// end-to-end metric.
pub fn end_to_end(
    name: &str,
    seed: u64,
    seconds: f64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<Done, String> {
    let scenario = |duration: Nanos, window: Nanos| {
        workload::scenario(name, seed, duration).map(|sc| instrumented(sc, window))
    };

    let mut setups = Vec::with_capacity(SETUP_REPS + 1);
    for rep in 0..SETUP_REPS {
        let sc = scenario(SETUP_REP, WINDOW)?;
        let out = run_stock(&sc)?;
        check_outcome(&format!("setup rep {rep}"), &sc, &out, checks);
        setups.push(out.setup_s());
    }

    let duration = WARMUP + Nanos::from_secs_f64(seconds);
    let sc = scenario(duration, window_of(duration))?;
    let out = run_stock(&sc)?;
    check_outcome("measured run", &sc, &out, checks);
    setups.push(out.setup_s());

    let r = &out.report;
    let latency = out
        .series()
        .totals
        .latency
        .as_ref()
        .ok_or("measured run recorded no latency histogram")?;
    checks.require(latency.count() == r.forwarded, || {
        format!(
            "latency histogram holds {} samples for {} forwarded packets",
            latency.count(),
            r.forwarded
        )
    });

    let steady = out.steady(WARMUP, &workload::phases(&sc));
    if steady.is_empty() {
        return Err(format!("no whole window in a {seconds} s run"));
    }
    let loss = steady.loss();

    metrics.set("cpu_pct", steady.quiet(|w| w.duty_cycle() * 100.0));
    metrics.set("lat_p50_us", percentile(latency, 0.5) / 1e3);
    metrics.set(
        "delivered_pct",
        (1.0 - loss.dropped as f64 / loss.offered.max(1) as f64) * 100.0,
    );
    metrics.set("goodput_mpps", steady.typical(Window::throughput_mpps));
    metrics.set("os_cpu_cores", out.cpu_s / out.wall_s);
    metrics.set(
        "rss_mb",
        procfs::peak_rss_mb().ok_or("/proc/self/status is unreadable")?,
    );
    // The first set-up of a process pays the pool's page faults (~10 ms)
    // and now and then one waits out a host stall; the median reading has
    // neither.
    setups.sort_by(f64::total_cmp);
    metrics.set("setup_s", quantile_sorted(&setups, 0.5).unwrap_or(0.0));

    let mut done = Done {
        gen_late_p99_us: steady.gen_lateness_us().1,
        gen_late_max_us: out.gen_late_max_us(),
        notes: vec![
            format!(
                "cpu_pct, goodput_mpps: first-decile and median of {} windows of {} ms after a {} s warm-up",
                steady.len(),
                window_of(duration).as_millis_f64(),
                WARMUP.as_secs_f64()
            ),
            format!("lat_p50_us: median of {} packets", latency.count()),
            format!("setup_s: median of {} set-ups", setups.len()),
        ],
        ..Done::default()
    };
    done.tally("measured run", &out, &loss);
    Ok(done)
}
