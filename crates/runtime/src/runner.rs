//! Scenario execution: wire world + OS + behaviors, run, collect.

use crate::behaviors::{DisciplineWorker, FerretWorker, XdpHandler};
use crate::calib;
use crate::report::{QueueReport, RampPoint, RunReport};
use crate::scenario::{Scenario, SystemKind};
use crate::world::{SimQueue, World};
use metronome_apps::FerretJob;
use metronome_core::controller::AdaptiveController;
use metronome_core::MetronomeConfig;
use metronome_os::executor::OsSim;
use metronome_os::ThreadId;
use metronome_sim::{Nanos, Rng};
use metronome_telemetry::{CounterSnapshot, Sampler};
use metronome_traffic::{ArrivalProcess, InjectionStats, PlannedFaults};

/// Execute a scenario and produce its report.
pub fn run(sc: &Scenario) -> RunReport {
    // ---- build the world ---------------------------------------------------
    let mut arrivals = sc.traffic.build(sc.n_queues, &sc.nic, sc.seed);
    // Under a fault plan, each queue's arrivals pass through a seeded
    // injector; the shared stats handles stay readable after boxing so
    // suppressed packets are mirrored into the fault-drop accounting.
    let mut fault_stats: Vec<InjectionStats> = Vec::new();
    if let Some(plan) = &sc.faults {
        arrivals = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let pf =
                    PlannedFaults::new(a, plan.clone(), Rng::new(sc.seed).stream(0xFA + i as u64));
                fault_stats.push(pf.stats());
                Box::new(pf) as Box<dyn ArrivalProcess>
            })
            .collect();
    }
    let metro_cfg = match &sc.system {
        SystemKind::Metronome(cfg) => cfg.clone(),
        // Baselines still need a controller object for the world's queue
        // bookkeeping; it just never drives any sleeping.
        _ => MetronomeConfig {
            m_threads: sc.n_queues.max(1),
            n_queues: sc.n_queues,
            ..MetronomeConfig::default()
        },
    };
    let queues: Vec<SimQueue> = arrivals
        .into_iter()
        .map(|a| SimQueue::new(sc.ring_size, a, sc.latency_stride))
        .collect();
    let controller = AdaptiveController::new(metro_cfg.clone());
    let n_net = sc.n_net_threads();
    let mut world = World::new(queues, controller, calib::BASE_PATH_LATENCY, sc.seed);
    world.equal_timeouts = sc.equal_timeouts;

    // ---- build the OS -------------------------------------------------------
    let ferret_cores = match &sc.ferret {
        Some(f) if !f.on_net_cores => f.n_workers,
        _ => 0,
    };
    let mut os_cfg = sc.os.clone();
    // The paper measures one isolated 8-core NUMA node regardless of how
    // many cores the workload occupies — package power is only comparable
    // across systems if the idle cores are present in every run.
    os_cfg.n_cores = (n_net + ferret_cores)
        .max(sc.ferret.as_ref().map_or(0, |f| f.n_workers))
        .max(sc.os.n_cores)
        .max(1);
    let mut os: OsSim<World> = OsSim::new(os_cfg, sc.seed);

    let mut net_tids: Vec<ThreadId> = Vec::new();
    match (&sc.system, sc.system.discipline()) {
        (SystemKind::Xdp, _) => {
            for q in 0..sc.n_queues {
                let b = XdpHandler::new(q);
                net_tids.push(os.spawn(format!("xdp-{q}"), q, sc.net_nice, Box::new(b)));
            }
        }
        (system, Some(spec)) => {
            let prefix = match system {
                SystemKind::StaticDpdk => "static",
                _ => spec.label(),
            };
            let n_queues = metro_cfg.n_queues;
            for w in 0..spec.workers(metro_cfg.m_threads, n_queues) {
                let d = spec.build(w, n_queues, metro_cfg.burst, &[]);
                let b = DisciplineWorker::new(w, d, sc.app, sc.sleep_service);
                net_tids.push(os.spawn(format!("{prefix}-{w}"), w, sc.net_nice, Box::new(b)));
            }
        }
        // Idle: no packet system at all.
        (_, None) => {}
    }

    let mut ferret_standalone = None;
    if let Some(f) = &sc.ferret {
        let mhz = sc.os.freq.max_mhz();
        let job = FerretJob::sized_for(f.standalone, f.n_workers, mhz);
        ferret_standalone = Some(f.standalone);
        for w in 0..f.n_workers {
            let core = if f.on_net_cores {
                w % n_net.max(1)
            } else {
                n_net + w
            };
            let b = FerretWorker::new(w, job.cycles_per_worker(), job.chunk);
            os.spawn(format!("ferret-{w}"), core, f.nice, Box::new(b));
        }
    }

    // ---- run ----------------------------------------------------------------
    // Capacity estimates amortize the burst overhead over the *configured*
    // burst size, so a burst-ablation scenario's µ matches what the
    // backend actually charges per chunk.
    let mu = sc.app.mu_pps(sc.os.freq.max_mhz(), metro_cfg.burst);
    let mut series = Vec::new();
    let mut timeseries = None;
    if let Some(every) = sc.series_every {
        // The simulation's sampling points are scheduled events: the run
        // is advanced window by window and the cumulative world/OS
        // counters are snapshotted at each boundary. The telemetry
        // sampler differences consecutive snapshots into windows, so the
        // per-window columns sum exactly to the end-of-run aggregates.
        let mut sampler = Sampler::new(every);
        let mut t = Nanos::ZERO;
        let mut last_cpu = Nanos::ZERO;
        while t < sc.duration {
            t = (t + every).min(sc.duration);
            os.run_until(&mut world, t);
            let cpu_now: Nanos = net_tids.iter().map(|&tid| os.thread_cpu(tid)).sum();
            let window_cpu = cpu_now.saturating_sub(last_cpu);
            last_cpu = cpu_now;
            let est: f64 = (0..sc.n_queues)
                .map(|q| {
                    world
                        .controller
                        .estimated_rate_pps(q, mu / sc.n_queues as f64)
                })
                .sum();
            series.push(RampPoint {
                t_s: t.as_secs_f64(),
                true_mpps: sc.traffic.nominal_pps(t) / 1e6,
                est_mpps: est / 1e6,
                ts_us: world.controller.ts(0).as_micros_f64(),
                rho: world.controller.rho(0),
                cpu_pct: window_cpu.as_secs_f64() / every.as_secs_f64() * 100.0,
            });
            let mut snap = CounterSnapshot::new(t);
            snap.discipline = sc.system.label();
            snap.retrieved = world.total_drained();
            // Fault-suppressed packets never reached the rings but were
            // offered load; packets still held by a stall at the end of
            // the run are stranded upstream and count as fault drops in
            // the closing window (mid-run they may yet be released).
            let fault_drops: u64 = fault_stats.iter().map(InjectionStats::drops).sum();
            let stranded: u64 = if t >= sc.duration {
                fault_stats.iter().map(InjectionStats::held).sum()
            } else {
                0
            };
            snap.dropped_fault = fault_drops + stranded;
            snap.offered = world.total_offered() + snap.dropped_fault;
            snap.dropped_ring = world.total_dropped();
            snap.wakeups = net_tids.iter().map(|&tid| os.thread_wakeups(tid)).sum();
            snap.busy_nanos = cpu_now.as_nanos();
            // Idle-thread time: everything the net threads did not burn.
            snap.sleep_nanos =
                (net_tids.len() as u64 * t.as_nanos()).saturating_sub(snap.busy_nanos);
            snap.ts_ns = (0..sc.n_queues)
                .map(|q| world.controller.ts(q).as_nanos())
                .collect();
            snap.rho = (0..sc.n_queues).map(|q| world.controller.rho(q)).collect();
            snap.occupancy = world.queues.iter().map(|q| q.ring.occupancy()).collect();
            snap.energy_joules = os.package_energy(t);
            if sc.latency_stride > 0 {
                snap.latency = Some(world.latency_hist.clone());
            }
            sampler.sample(snap);
        }
        timeseries = Some(sampler.into_series());
    } else {
        os.run_until(&mut world, sc.duration);
    }

    // Final flush so held Tx batches don't skew tail latency samples.
    for q in 0..sc.n_queues {
        world.flush_queue_tx(q, sc.duration);
    }

    // ---- collect -------------------------------------------------------------
    let wall = sc.duration.as_secs_f64();
    let cpu_per_thread: Vec<f64> = net_tids
        .iter()
        .map(|&tid| os.thread_cpu(tid).as_secs_f64() / wall * 100.0)
        .collect();
    let queues: Vec<QueueReport> = (0..sc.n_queues)
        .map(|qi| {
            let q = &world.queues[qi];
            let st = world.controller.queue(qi);
            QueueReport {
                mean_vacation_us: q.vacations.mean(),
                mean_busy_us: q.busy_periods.mean(),
                nv: q.nv.mean(),
                rho: world.controller.rho(qi),
                total_tries: st.total_tries,
                busy_tries: st.busy_tries,
                busy_try_fraction: st.busy_try_fraction(),
                drained: q.drained_total(),
                dropped: q.dropped_total(),
                dropped_pool: 0,
            }
        })
        .collect();

    let ferret_completion = sc.ferret.as_ref().and_then(|f| {
        (world.ferret_done.len() == f.n_workers)
            .then(|| world.ferret_done.iter().map(|c| c.at).max().unwrap())
    });

    // Fault-suppressed packets (plus any still stalled upstream at the
    // horizon) are offered load that never reached the rings: they join
    // both sides of the conservation identity as fault drops.
    let fault_total: u64 = fault_stats.iter().map(|s| s.drops() + s.held()).sum();
    let mut report = RunReport::from_counts(
        sc.name.clone(),
        sc.duration,
        world.total_offered() + fault_total,
        world.total_drained(),
        world.total_dropped() + fault_total,
    );
    report.dropped_ring = world.total_dropped();
    report.dropped_fault = fault_total;
    report.cpu_total_pct = cpu_per_thread.iter().sum();
    report.cpu_per_thread_pct = cpu_per_thread;
    report.power_watts = os.package_watts(sc.duration);
    report.latency_us = world.latency_us.boxplot();
    report.queues = queues;
    report.busy_try_fraction = world.controller.busy_try_fraction();
    report.total_wakes = net_tids.iter().map(|&tid| os.thread_wakeups(tid)).sum();
    report.ferret_completion = ferret_completion;
    report.ferret_standalone = ferret_standalone;
    report.series = series;
    report.timeseries = timeseries;
    report.vacation_samples_us = std::mem::take(&mut world.vacation_samples_us);
    report
}
