//! The traced run (`--trace 1`): where the end-to-end numbers come from,
//! layer by layer (the layers are the repo's crates). Everything is
//! measured from outside, through public functions, in five legs that
//! split the run's `--seconds`:
//!
//! * **reference leg** — the workload through the real runner, untraced,
//!   with a `/proc/self/task` monitor beside it: the
//!   always-on counters (`traffic.*`, `dpdk.*` gauges, `core.*` totals,
//!   `runtime.lat_*`) and the CPU figure tracing is compared against;
//! * **runner leg** — the same scenario with the flight recorder on and a
//!   [`SpanProcessor`] around every queue's processor: `apps.*`, the
//!   trace histograms, `telemetry.*`;
//! * **idle leg** — the same system with no traffic, which prices one
//!   empty wake (`core.busy_ns_per_wake`);
//! * **stage leg** — single-threaded and unpaced: the workload's own
//!   arrival process cut into `V̄`-sized windows (so batch sizes match the
//!   workload) and pushed through the public calls in runner order, one
//!   clock read at each stage boundary of each batch;
//! * **primitive leg** — direct calls in a loop.

use crate::procfs::ThreadMonitor;
use crate::run::{
    self, check_outcome, instrumented, percentile, run_stock, window_of, Checks, Done, Outcome,
    Steady,
};
use crate::spans::{Span, SpanLog, SpanProcessor};
use crate::spec::Metrics;
use crate::workload;
use bytes::BytesMut;
use metronome_apps::processor::{PacketProcessor, Verdict};
use metronome_apps::IpsecGateway;
use metronome_core::PreciseSleeper;
use metronome_dpdk::{Mbuf, Mempool, QueueScatter, RssPort};
use metronome_net::esp::SecurityAssociation;
use metronome_net::headers::{build_udp_frame, Mac, MIN_FRAME_NO_FCS};
use metronome_net::Lpm;
use metronome_runtime::realtime_runner::default_processor;
use metronome_runtime::{AppProfile, Scenario, TrafficSpec};
use metronome_sim::stats::Histogram;
use metronome_sim::{CoarseClock, Nanos};
use metronome_telemetry::Window;
use metronome_traffic::{FlowSet, WallClock};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Shares of `--seconds` each leg gets. The primitives take
/// `PRIMITIVE_SHARE` apiece (there are four), so the shares sum to 1.
const REFERENCE_SHARE: f64 = 0.3;
const RUNNER_SHARE: f64 = 0.4;
const IDLE_SHARE: f64 = 0.05;
const STAGE_SHARE: f64 = 0.15;
const PRIMITIVE_SHARE: f64 = 0.025;

/// `/proc/self/task` samples per reference leg.
const MONITOR_SAMPLES: u32 = 20;

/// Virtual time the stage leg's arrival process covers at most (it stops
/// earlier when its wall budget runs out).
const STAGE_HORIZON: Nanos = Nanos::from_secs(2);

/// Batches of the stage leg whose stage spans are kept for `--trace-out`.
const STAGE_SPAN_BATCHES: u64 = 2_000;

/// One ESP output in this many is decapsulated and compared with its
/// input in the stage leg.
const ESP_SAMPLE_EVERY: u64 = 1024;

// The runner's own population constants, which it keeps private: the
// stage leg rebuilds the same flows, frames, pool and batches from
// outside.
const FLOWS_PER_RUN: usize = 256;
const L3FWD_SUBNETS: usize = 4;
const MBUF_DATAROOM: usize = 2048;
const GEN_BATCH: usize = 256;

/// The traced run of workload `name`; fills `metrics` with every
/// per-layer metric.
pub fn per_layer(
    name: &str,
    seed: u64,
    seconds: f64,
    trace_out: Option<&str>,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<Done, String> {
    let leg = |share: f64| Nanos::from_secs_f64(seconds * share);
    let scenario = |duration: Nanos| {
        workload::scenario(name, seed, duration).map(|sc| instrumented(sc, window_of(duration)))
    };
    let log = SpanLog::new();
    let mut done = Done::default();

    // ---- reference leg ----------------------------------------------------
    let sc = scenario(leg(REFERENCE_SHARE))?;
    let (reference, monitor) = monitored(&sc, &log)?;
    check_outcome("reference leg", &sc, &reference, checks);
    let steady = reference.steady(warmup_of(&sc), &workload::phases(&sc));
    if steady.is_empty() {
        return Err(format!(
            "no whole window in the reference leg of a {seconds} s run"
        ));
    }
    done.tally("reference leg", &reference, &steady.loss());
    reference_metrics(&reference, &steady, &monitor, metrics)?;
    done.gen_late_p99_us = steady.gen_lateness_us().1;
    done.gen_late_max_us = reference.gen_late_max_us();
    let untraced_duty = steady.quiet(Window::duty_cycle);
    let wakes_per_pkt =
        steady.sum(|w| w.wakeups) as f64 / steady.sum(|w| w.retrieved).max(1) as f64;

    // ---- runner leg -------------------------------------------------------
    let sc = scenario(leg(RUNNER_SHARE))?.with_trace();
    let start_ns = log.now_ns();
    let traced = run::run(&sc, &|q| {
        Box::new(SpanProcessor::new(default_processor(sc.app.name), q, &log))
    })?;
    log.leg("runner_leg", start_ns, traced.report.forwarded);
    check_outcome("runner leg", &sc, &traced, checks);
    let traced_steady = traced.steady(warmup_of(&sc), &workload::phases(&sc));
    done.tally("runner leg", &traced, &traced_steady.loss());
    let traced_duty = traced_steady.quiet(Window::duty_cycle);
    metrics.set(
        "telemetry.trace_overhead_pct",
        (traced_duty - untraced_duty) / untraced_duty.max(f64::MIN_POSITIVE) * 100.0,
    );
    let process_ns_pkt = runner_metrics(&traced, &log, metrics, checks)?;

    // ---- idle leg ---------------------------------------------------------
    let mut sc = scenario(leg(IDLE_SHARE))?;
    sc.traffic = TrafficSpec::Silent;
    let idle = run_stock(&sc)?;
    check_outcome("idle leg", &sc, &idle, checks);
    let busy_ns_per_wake = idle.busy_ns() / idle.report.total_wakes.max(1) as f64;
    metrics.set("core.busy_ns_per_wake", busy_ns_per_wake);

    // ---- stage leg --------------------------------------------------------
    let sc = scenario(STAGE_HORIZON)?;
    let budget = Duration::from_secs_f64(seconds * STAGE_SHARE);
    let stages = stage_leg(&sc, budget, &log, checks);
    for (stage, metric) in [
        (Stage::Arrivals, "traffic.arrivals_ns_pkt"),
        (Stage::Alloc, "dpdk.alloc_ns_pkt"),
        (Stage::Refill, "dpdk.refill_ns_pkt"),
        (Stage::Scatter, "dpdk.scatter_ns_pkt"),
        (Stage::Offer, "dpdk.offer_ns_pkt"),
        (Stage::Pop, "dpdk.pop_ns_pkt"),
        (Stage::Hist, "sim.hist_record_ns_pkt"),
        (Stage::Free, "dpdk.free_ns_pkt"),
    ] {
        metrics.set(metric, stages.ns_pkt(stage));
    }
    done.notes.push(format!(
        "stage leg: {} packets in {} batches, process {:.1} ns/pkt unpaced, {} ESP outputs decapsulated",
        stages.packets,
        stages.batches,
        stages.ns_pkt(Stage::Process),
        stages.esp_checked
    ));

    // ---- the stage table must reconcile with the total --------------------
    // Worker busy time per packet, less what the wakes themselves cost,
    // is what is left for the per-packet stages; the gap between that and
    // their sum is printed, not hidden.
    let busy_ns_pkt = metrics.get("core.busy_ns_pkt").unwrap_or(0.0);
    let stage_sum = stages.ns_pkt(Stage::Pop)
        + process_ns_pkt
        + stages.ns_pkt(Stage::Hist)
        + stages.ns_pkt(Stage::Free);
    let left_for_stages = busy_ns_pkt - wakes_per_pkt * busy_ns_per_wake;
    metrics.set("runtime.stage_sum_ns_pkt", stage_sum);
    metrics.set(
        "runtime.stage_gap_pct",
        (left_for_stages - stage_sum) / busy_ns_pkt.max(f64::MIN_POSITIVE) * 100.0,
    );

    // ---- primitive leg ----------------------------------------------------
    let start_ns = log.now_ns();
    let each = Duration::from_secs_f64(seconds * PRIMITIVE_SHARE);
    let v_target = Duration::from_nanos(workload::config(&sc).v_target.as_nanos());
    metrics.set(
        "core.sleep_overshoot_us",
        sleep_overshoot_us(v_target, each),
    );
    metrics.set("net.lpm_ns_lookup", lpm_ns_lookup(seed, each));
    metrics.set("net.esp_ns_pkt", esp_ns_pkt(seed, each));
    metrics.set("sim.coarse_tick_ns", coarse_tick_ns(each));
    log.leg("primitive_leg", start_ns, 0);

    if let Some(path) = trace_out {
        let doc = log
            .chrome_json(&format!("bench {name} seed {seed}"))
            .render();
        std::fs::write(path, doc + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(done)
}

/// The part of a runner leg left out as warm-up (see [`run::Steady`]):
/// 1.5 s, or a third of a leg shorter than 4.5 s.
fn warmup_of(sc: &Scenario) -> Nanos {
    Nanos::from_millis(1500).min(sc.duration / 3)
}

/// Run `sc` untraced with a `/proc/self/task` monitor beside it.
fn monitored(sc: &Scenario, log: &SpanLog) -> Result<(Outcome, ThreadMonitor), String> {
    let interval = Duration::from_nanos(sc.duration.as_nanos()) / MONITOR_SAMPLES;
    let stop = AtomicBool::new(false);
    let start_ns = log.now_ns();
    let (outcome, monitor) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| ThreadMonitor::watch(interval, &stop));
        // Raised on unwind too: the scope joins the watcher, which would
        // otherwise sample forever after a panic in the runner.
        let raise = StopOnDrop(&stop);
        let outcome = run_stock(sc);
        drop(raise);
        (outcome, watcher.join())
    });
    let outcome = outcome?;
    log.leg("reference_leg", start_ns, outcome.report.forwarded);
    let monitor = monitor.map_err(|_| "the /proc monitor thread panicked")?;
    Ok((outcome, monitor))
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Metrics the untraced reference leg supplies, from the runner's
/// always-on counters and the thread monitor.
fn reference_metrics(
    out: &Outcome,
    steady: &Steady,
    monitor: &ThreadMonitor,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let r = &out.report;

    let (p50, p99) = steady.gen_lateness_us();
    metrics.set("traffic.gen_late_p50_us", p50);
    metrics.set("traffic.gen_late_p99_us", p99);
    metrics.set("traffic.gen_late_max_us", out.gen_late_max_us());

    // The generator runs inline on the main thread; retrieval workers are
    // the runner's `metronome-<n>` threads or `metronome-exec-<n>` shards
    // (the sampler and any generator shards share the prefix).
    let mut gen_oncpu = 0.0;
    let mut worker_oncpu = 0.0;
    for t in monitor.threads() {
        if t.is_main {
            gen_oncpu += t.oncpu_pct();
        } else if t.comm.starts_with("metronome-")
            && !t.comm.starts_with("metronome-sampl")
            && !t.comm.starts_with("metronome-gen")
        {
            worker_oncpu += t.oncpu_pct();
        }
    }
    metrics.set("traffic.gen_oncpu_pct", gen_oncpu);
    metrics.set("core.worker_oncpu_pct", worker_oncpu);

    // Gauges and counters over the steady windows; the controller's own
    // statistics (vacation, busy period, busy tries, ρ) cover the whole
    // leg. `TS` is sampled at every window's end; the realtime hub does
    // not sample ρ, so that is the controller's final smoothed estimate.
    metrics.set(
        "dpdk.ring_occ_p50",
        steady.typical(|w| w.total_occupancy() as f64),
    );
    metrics.set(
        "dpdk.ring_occ_max",
        steady.max(|w| w.total_occupancy() as f64),
    );
    metrics.set("dpdk.drop_ring", steady.sum(|w| w.dropped_ring) as f64);
    metrics.set("dpdk.drop_pool", steady.sum(|w| w.dropped_pool) as f64);
    let pool = r.mempool.ok_or("reference leg has no mempool report")?;
    metrics.set("dpdk.pool_in_use_peak", pool.in_use_peak as f64);

    metrics.set("core.vacation_us", r.mean_vacation_us());
    metrics.set(
        "core.wakes_per_s",
        steady.sum(|w| w.wakeups) as f64 / steady.span_s(),
    );
    metrics.set(
        "core.busy_ns_pkt",
        steady.sum(|w| w.busy_nanos) as f64 / steady.sum(|w| w.retrieved).max(1) as f64,
    );
    metrics.set("core.busy_period_us", r.mean_busy_us());
    metrics.set("core.busy_try_share", r.busy_try_fraction);
    metrics.set("core.ts_us", steady.typical(Window::mean_ts_us));
    metrics.set("core.rho", r.mean_rho());

    let latency = out
        .series()
        .totals
        .latency
        .as_ref()
        .ok_or("reference leg recorded no latency histogram")?;
    for (metric, q) in [
        ("runtime.lat_p75_us", 0.75),
        ("runtime.lat_p90_us", 0.90),
        ("runtime.lat_p99_us", 0.99),
        ("runtime.lat_p999_us", 0.999),
        ("runtime.lat_max_us", 1.0),
    ] {
        metrics.set(metric, percentile(latency, q) / 1e3);
    }
    Ok(())
}

/// Metrics of the traced runner leg: the `apps` boundary from the burst
/// spans and the flight recorder's histograms. Returns
/// `apps.process_ns_pkt`.
fn runner_metrics(
    traced: &Outcome,
    log: &SpanLog,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<f64, String> {
    let bursts = log.burst_totals();
    checks.require(bursts.packets == traced.report.forwarded, || {
        format!(
            "runner leg: spans cover {} packets, the runner forwarded {}",
            bursts.packets, traced.report.forwarded
        )
    });
    checks.require(bursts.not_forwarded == 0, || {
        format!(
            "runner leg: {} packets of routable flows were not forwarded by the app",
            bursts.not_forwarded
        )
    });
    let process_ns_pkt = bursts.busy_ns as f64 / bursts.packets.max(1) as f64;
    metrics.set("apps.process_ns_pkt", process_ns_pkt);
    metrics.set(
        "apps.burst_mean",
        bursts.packets as f64 / bursts.bursts.max(1) as f64,
    );
    metrics.set("apps.bursts", bursts.bursts as f64);
    metrics.set(
        "apps.busy_share",
        bursts.busy_ns as f64 / traced.busy_ns().max(1.0),
    );

    let dump = traced
        .report
        .trace
        .as_ref()
        .ok_or("runner leg returned no trace dump")?;
    metrics.set(
        "core.wake_latency_p50_us",
        percentile(&dump.wake_latency(), 0.5) / 1e3,
    );
    metrics.set(
        "core.oversleep_p50_us",
        percentile(&dump.oversleep(), 0.5) / 1e3,
    );
    metrics.set(
        "core.sched_delay_p50_us",
        percentile(&dump.sched_delay(), 0.5) / 1e3,
    );
    let recorded: u64 = dump.workers.iter().flat_map(|w| w.kind_counts.iter()).sum();
    metrics.set("telemetry.trace_events", recorded as f64);
    metrics.set("telemetry.trace_dropped", dump.total_dropped() as f64);
    Ok(process_ns_pkt)
}

/// The stages of the stage leg, in runner order: the generator's five,
/// then the worker's four.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Arrivals,
    Alloc,
    Refill,
    Scatter,
    Offer,
    Pop,
    Process,
    Hist,
    Free,
}

impl Stage {
    const COUNT: usize = 9;

    fn name(self) -> &'static str {
        [
            "arrivals", "alloc", "refill", "scatter", "offer", "pop", "process", "hist", "free",
        ][self as usize]
    }
}

/// What the stage leg measured.
struct StageCosts {
    ns: [u64; Stage::COUNT],
    packets: u64,
    batches: u64,
    esp_checked: u64,
}

impl StageCosts {
    fn ns_pkt(&self, stage: Stage) -> f64 {
        self.ns[stage as usize] as f64 / self.packets.max(1) as f64
    }
}

/// Reads the clock once per stage boundary and charges the lap to the
/// stage that just ended, so every stage's time includes exactly one
/// clock read.
struct StageTimer<'a> {
    log: &'a SpanLog,
    last_ns: u64,
    costs: StageCosts,
    kept: Vec<Span>,
}

impl StageTimer<'_> {
    /// Restart the lap without charging anyone (after untimed work).
    fn skip(&mut self) {
        self.last_ns = self.log.now_ns();
    }

    fn lap(&mut self, stage: Stage, packets: usize) {
        let now_ns = self.log.now_ns();
        self.costs.ns[stage as usize] += now_ns - self.last_ns;
        if self.costs.batches < STAGE_SPAN_BATCHES {
            self.kept.push(Span {
                name: stage.name(),
                parent: "stage_leg",
                id: self.costs.batches,
                packets: packets as u32,
                start_ns: self.last_ns,
                end_ns: now_ns,
            });
        }
        self.last_ns = now_ns;
    }
}

/// The workload's arrivals, unpaced and single-threaded, through every
/// public call of the datapath in the order the runner makes them.
fn stage_leg(sc: &Scenario, budget: Duration, log: &SpanLog, checks: &mut Checks) -> StageCosts {
    let cfg = workload::config(sc);
    let (n_queues, burst) = (sc.n_queues, cfg.burst as usize);
    let port = RssPort::with_path(n_queues, sc.ring_size, sc.ring_path);
    let pool = Mempool::new(
        2 * n_queues * sc.ring_size + 2 * GEN_BATCH + 2 * burst,
        MBUF_DATAROOM,
    );
    let templates: Vec<(BytesMut, usize, u32)> =
        FlowSet::routable(FLOWS_PER_RUN, L3FWD_SUBNETS, sc.seed)
            .flows()
            .iter()
            .map(|t| {
                let frame = build_udp_frame(Mac::local(1), Mac::local(2), t, &[], MIN_FRAME_NO_FCS);
                let input = t.rss_input();
                (frame, port.queue_for(&input), port.rss_hash(&input))
            })
            .collect();
    let consumers = port.consumers();
    let mut procs: Vec<Box<dyn PacketProcessor>> = (0..n_queues)
        .map(|_| default_processor(sc.app.name))
        .collect();
    let check_esp = sc.app.name == AppProfile::ipsec().name;
    let mut inbound = IpsecGateway::inbound();
    let mut next_esp_sample = 0u64;

    let mut source = sc
        .traffic
        .build(1, &sc.nic, sc.seed)
        .pop()
        .expect("one generator shard");
    let mut gen_cache = pool.cache(GEN_BATCH);
    let mut worker_cache = pool.cache(burst);
    let mut scatter = QueueScatter::new(n_queues);
    let mut stamps: Vec<Nanos> = Vec::new();
    let mut blanks: Vec<Mbuf> = Vec::with_capacity(GEN_BATCH);
    let mut filled: Vec<Mbuf> = Vec::with_capacity(GEN_BATCH);
    let mut bursts: Vec<Vec<Mbuf>> = (0..n_queues).map(|_| Vec::with_capacity(burst)).collect();
    let mut touched: Vec<usize> = Vec::with_capacity(n_queues);
    let mut latency = Histogram::latency();
    let clock = WallClock::start();
    let mut seq = 0usize;
    let mut not_forwarded = 0u64;
    let mut esp_mismatch = 0u64;

    let started = Instant::now();
    let start_ns = log.now_ns();
    let mut timer = StageTimer {
        log,
        last_ns: start_ns,
        costs: StageCosts {
            ns: [0; Stage::COUNT],
            packets: 0,
            batches: 0,
            esp_checked: 0,
        },
        kept: Vec::new(),
    };
    let mut t = Nanos::ZERO;
    loop {
        // One wake every V̄ of virtual time; a window without arrivals is
        // an empty wake, which the idle leg prices — jump to the wake
        // that finds the next arrival, half a V̄ after it on average.
        t += cfg.v_target;
        if let Some(next) = source.peek_next() {
            t = t.max(next + cfg.v_target / 2);
        }
        if t >= sc.duration
            || (timer.costs.batches.is_multiple_of(64) && started.elapsed() >= budget)
        {
            break;
        }
        timer.skip();
        stamps.clear();
        source.drain(t, Some(&mut stamps));
        timer.lap(Stage::Arrivals, stamps.len());

        // Generator side, in the runner's `GEN_BATCH` chunks.
        for chunk in stamps.chunks(GEN_BATCH) {
            gen_cache.alloc_burst(chunk.len(), &mut blanks);
            timer.lap(Stage::Alloc, chunk.len());
            for &arrival in chunk {
                let (frame, q, hash) = &templates[seq % templates.len()];
                seq += 1;
                let mut mbuf = blanks
                    .pop()
                    .expect("the stage leg's pool covers every ring");
                mbuf.refill(frame);
                mbuf.queue = *q as u16;
                mbuf.rss_hash = *hash;
                mbuf.arrival = arrival;
                filled.push(mbuf);
            }
            timer.lap(Stage::Refill, chunk.len());
            for mbuf in filled.drain(..) {
                scatter.push(mbuf.queue as usize, mbuf);
            }
            timer.lap(Stage::Scatter, chunk.len());
            scatter.dispatch(|q, frames| {
                port.offer_burst(q, frames);
                gen_cache.free_burst(frames.drain(..));
                if !touched.contains(&q) {
                    touched.push(q);
                }
            });
            timer.lap(Stage::Offer, chunk.len());
        }

        // Worker side: each stage across every touched queue, burst by
        // burst, until the rings are empty again.
        while !touched.is_empty() {
            let mut popped = 0;
            for &q in &touched {
                popped += consumers[q].pop_burst(&mut bursts[q], burst);
            }
            timer.lap(Stage::Pop, popped);

            let sample = bursts[touched[0]]
                .first()
                .filter(|_| check_esp && timer.costs.packets >= next_esp_sample)
                .map(|first| (touched[0], first.bytes().to_vec()));
            if sample.is_some() {
                timer.skip();
            }
            for &q in &touched {
                not_forwarded += procs[q].process_burst(&mut bursts[q]).dropped;
            }
            timer.lap(Stage::Process, popped);
            if let Some((q, plain)) = sample {
                let mut esp = Mbuf::from_bytes(BytesMut::from(bursts[q][0].bytes()));
                if inbound.process(&mut esp) != Verdict::Forward || esp.bytes() != plain {
                    esp_mismatch += 1;
                }
                timer.costs.esp_checked += 1;
                next_esp_sample += ESP_SAMPLE_EVERY;
                timer.skip();
            }

            let done = clock.now();
            for &q in &touched {
                for mbuf in &bursts[q] {
                    latency.record(done.saturating_sub(mbuf.arrival).as_nanos());
                }
            }
            timer.lap(Stage::Hist, popped);
            for &q in &touched {
                worker_cache.free_burst(bursts[q].drain(..));
            }
            timer.lap(Stage::Free, popped);

            timer.costs.packets += popped as u64;
            touched.retain(|&q| !consumers[q].is_empty());
        }
        timer.costs.batches += 1;
    }
    black_box(&latency);

    let StageTimer { costs, kept, .. } = timer;
    log.leg("stage_leg", start_ns, costs.packets);
    log.extend(kept);

    drop((gen_cache, worker_cache));
    let stats = pool.stats();
    checks.require(
        port.total_dropped() == 0 && port.total_accepted() == costs.packets,
        || {
            format!(
                "stage leg: {} accepted, {} dropped, {} processed",
                port.total_accepted(),
                port.total_dropped(),
                costs.packets
            )
        },
    );
    checks.require(stats.allocs == stats.frees && pool.in_use() == 0, || {
        format!(
            "stage leg: mempool allocs {} != frees {}",
            stats.allocs, stats.frees
        )
    });
    checks.require(latency.count() == costs.packets, || {
        "stage leg: latency samples != packets".to_string()
    });
    checks.require(not_forwarded == 0, || {
        format!("stage leg: {not_forwarded} packets of routable flows were not forwarded")
    });
    checks.require(esp_mismatch == 0, || {
        format!("stage leg: {esp_mismatch} sampled ESP outputs did not decapsulate to their input")
    });
    checks.require(!check_esp || costs.esp_checked > 0, || {
        "stage leg: no ESP output was sampled".to_string()
    });
    costs
}

/// Call `op` in batches of `batch` until `budget` has passed; mean
/// nanoseconds per call.
fn ns_per_call(budget: Duration, batch: u64, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            op();
        }
        calls += batch;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Mean overshoot of `PreciseSleeper::sleep(V̄)`, µs — the sleep
/// precision every vacation inherits.
fn sleep_overshoot_us(v_target: Duration, budget: Duration) -> f64 {
    let sleeper = PreciseSleeper::default();
    let mut over = Duration::ZERO;
    let mut sleeps = 0u32;
    let started = Instant::now();
    while started.elapsed() < budget {
        over += sleeper.sleep(v_target);
        sleeps += 1;
    }
    over.as_secs_f64() * 1e6 / sleeps.max(1) as f64
}

/// `Lpm::lookup_bulk` over the run's flow destinations, against the
/// route-table shape `L3Fwd::with_sample_routes` installs; ns per lookup.
fn lpm_ns_lookup(seed: u64, budget: Duration) -> f64 {
    let mut lpm = Lpm::with_first_stage_bits(16, 256);
    for h in 0..L3FWD_SUBNETS as u8 {
        let next = (h + 1) % L3FWD_SUBNETS as u8;
        lpm.add(Ipv4Addr::new(10, h, 0, 0), 16, h as u16)
            .expect("sample /16 route");
        lpm.add(Ipv4Addr::new(10, h, 7, 0), 24, next as u16)
            .expect("sample /24 route");
    }
    let dsts: Vec<Ipv4Addr> = FlowSet::routable(FLOWS_PER_RUN, L3FWD_SUBNETS, seed)
        .flows()
        .iter()
        .map(|t| t.dst_ip)
        .collect();
    let mut hops = Vec::with_capacity(dsts.len());
    let per_call = ns_per_call(budget, 16, || {
        hops.clear();
        lpm.lookup_bulk(black_box(&dsts), &mut hops);
        black_box(&hops);
    });
    assert!(
        hops.iter().all(Option::is_some),
        "routable flows must route"
    );
    per_call / dsts.len() as f64
}

/// `SecurityAssociation::encapsulate` of one 64 B frame; ns per packet.
fn esp_ns_pkt(seed: u64, budget: Duration) -> f64 {
    let mut sa = SecurityAssociation::new(
        0x900D_5EC5,
        Ipv4Addr::new(172, 16, 1, 1),
        Ipv4Addr::new(172, 16, 2, 1),
        b"metronome-secret",
    );
    let flows = FlowSet::routable(1, 1, seed);
    let frame = build_udp_frame(
        Mac::local(1),
        Mac::local(2),
        &flows.flows()[0],
        &[],
        MIN_FRAME_NO_FCS,
    );
    let iv = [0x5A; 16];
    ns_per_call(budget, 16, || {
        black_box(sa.encapsulate(black_box(&frame), &iv)).expect("a whole frame encapsulates");
    })
}

/// One `CoarseClock::tick` (the once-per-batch precise read the hot path
/// amortizes its per-packet stamps over); ns.
fn coarse_tick_ns(budget: Duration) -> f64 {
    let clock = CoarseClock::new();
    ns_per_call(budget, 1024, || {
        black_box(clock.tick());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_leg_conserves_and_checks_esp_on_every_workload() {
        for name in workload::NAMES {
            let sc = workload::scenario(name, 7, Nanos::from_millis(200)).unwrap();
            let log = SpanLog::new();
            let mut checks = Checks::default();
            let costs = stage_leg(&sc, Duration::from_millis(50), &log, &mut checks);
            assert_eq!(checks.failures(), &[] as &[String], "{name}");
            assert!(costs.packets > 0 && costs.batches > 0, "{name}");
            assert!(costs.ns_pkt(Stage::Process) > 0.0, "{name}");
            assert_eq!(costs.esp_checked > 0, name == "ramp_ipsec", "{name}");
        }
    }

    #[test]
    fn primitives_return_positive_costs() {
        let tiny = Duration::from_millis(5);
        assert!(lpm_ns_lookup(1, tiny) > 0.0);
        assert!(esp_ns_pkt(1, tiny) > 0.0);
        assert!(coarse_tick_ns(tiny) > 0.0);
        assert!(sleep_overshoot_us(Duration::from_micros(10), tiny) >= 0.0);
    }
}
