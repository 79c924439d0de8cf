//! The OS executor: a preemptive, CFS-like scheduler over virtual time.
//!
//! Workloads (Metronome threads, static DPDK pollers, XDP NAPI loops, the
//! ferret co-tenant) are expressed as [`Behavior`] state machines. Each time
//! a thread holds a CPU with no pending work, the executor calls
//! [`Behavior::on_run`], which returns the next [`Action`]: burn cycles,
//! sleep through a timer service, wait for an exact instant (hardware
//! wake), or exit. The executor handles everything the kernel would:
//!
//! * **Fair scheduling** — per-core weighted vruntime (nice → weight via
//!   the kernel's 1.25×/step rule), minimum-granularity timeslices under
//!   contention, and wakeup preemption with sleeper fairness. These are the
//!   mechanics behind the paper's CPU-sharing results (§V-E): a waking
//!   Metronome thread preempts a CPU-hog immediately, while two
//!   continuously-busy threads converge to a 50/50 split.
//! * **Sleep services** — wake times drawn from the calibrated
//!   [`SleepModel`] (Fig. 1).
//! * **Contention inflation** — co-scheduled hot threads dilate each
//!   other's work (cache/TLB thrash), the effect that makes `l3fwd` top out
//!   near half line rate when sharing its core with `ferret`.
//! * **Kernel-daemon interference** — rare high-priority bursts that delay
//!   dispatch, producing the small beyond-`TL` tail in Fig. 4.
//! * **Frequency governors** — `performance` pins max frequency;
//!   `ondemand` samples per-core utilization every 10 ms and rescales, so
//!   sleep&wake workloads trade extra CPU time for package power (Fig. 11).
//! * **Power accounting** — every active/idle/wake interval feeds the
//!   [`PowerMeter`].

use crate::config::{Governor, OsConfig};
use crate::power::PowerMeter;
use crate::sleep::{SleepModel, SleepService};
use metronome_sim::{Cycles, EventId, EventQueue, Nanos, Rng};

/// Thread identifier (dense index).
pub type ThreadId = usize;
/// Core identifier (dense index).
pub type CoreId = usize;

/// What a thread does next, returned by [`Behavior::on_run`].
#[derive(Clone, Copy, Debug)]
pub enum Action {
    /// Execute this many CPU cycles, then run again.
    Work(Cycles),
    /// Sleep through a timer service for (at least) `duration`.
    Sleep {
        /// Which sleep primitive to use (affects oversleep and cost).
        service: SleepService,
        /// Requested sleep length.
        duration: Nanos,
    },
    /// Leave the CPU until exactly the given absolute instant (hardware
    /// wake: IRQ delivery, device doorbell). No oversleep model applies.
    WaitUntil(Nanos),
    /// Terminate the thread.
    Exit,
}

/// Context handed to a behavior while it holds the CPU.
pub struct RunCtx<'a> {
    /// Current virtual time.
    pub now: Nanos,
    /// The thread being run.
    pub thread: ThreadId,
    /// The core it runs on.
    pub core: CoreId,
    /// The core's current frequency in MHz.
    pub freq_mhz: u32,
    /// The thread's private RNG stream.
    pub rng: &'a mut Rng,
    /// The sleep cost model (for charging syscall cycles explicitly).
    pub sleep_model: &'a SleepModel,
}

/// A thread body: a resumable state machine.
pub trait Behavior<W> {
    /// Called whenever the thread is dispatched with no residual work.
    /// Mutate the shared `world`, then say what to do next.
    fn on_run(&mut self, world: &mut W, ctx: &mut RunCtx<'_>) -> Action;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    Running,
    Sleeping,
    Exited,
}

struct Tcb {
    name: String,
    core: CoreId,
    weight: f64,
    state: ThreadState,
    vruntime: f64, // in weighted nanoseconds
    run_start: Nanos,
    run_rate: f64, // cycles per nanosecond at last dispatch
    run_freq: u32, // MHz at last dispatch (for power accounting)
    work_remaining: Cycles,
    work_event: EventId,
    cpu_time: Nanos,
    wakeups: u64,
    rng: Rng,
}

struct CoreState {
    running: Option<ThreadId>,
    runnable: Vec<ThreadId>,
    freq_mhz: u32,
    min_vruntime: f64,
    idle_since: Option<Nanos>,
    daemon_until: Nanos,
    daemon_started: Nanos,
    tick_event: EventId,
    window_busy: Nanos, // busy time within the current governor window
}

#[derive(Clone, Copy, Debug)]
enum OsEvent {
    TimerFire(ThreadId),
    WorkDone(ThreadId),
    SchedTick(CoreId),
    GovernorSample,
    DaemonStart(CoreId),
    DaemonEnd(CoreId),
}

/// The OS simulator. Generic over the shared `world` the behaviors mutate.
pub struct OsSim<W> {
    cfg: OsConfig,
    queue: EventQueue<OsEvent>,
    cores: Vec<CoreState>,
    threads: Vec<Tcb>,
    behaviors: Vec<Option<Box<dyn Behavior<W>>>>,
    sleep_model: SleepModel,
    power: PowerMeter,
    daemon_rng: Rng,
    master_rng: Rng,
    started: bool,
}

const NICE0_WEIGHT: f64 = 1024.0;

impl<W> OsSim<W> {
    /// Build an OS with the given configuration and master seed.
    pub fn new(cfg: OsConfig, seed: u64) -> Self {
        let max = cfg.freq.max_mhz();
        let power = PowerMeter::new(cfg.power.clone(), cfg.n_cores, max);
        let master = Rng::new(seed);
        let cores = (0..cfg.n_cores)
            .map(|_| CoreState {
                running: None,
                runnable: Vec::new(),
                freq_mhz: max,
                min_vruntime: 0.0,
                idle_since: Some(Nanos::ZERO),
                daemon_until: Nanos::ZERO,
                daemon_started: Nanos::ZERO,
                tick_event: EventId::NONE,
                window_busy: Nanos::ZERO,
            })
            .collect();
        OsSim {
            cfg,
            queue: EventQueue::new(),
            cores,
            threads: Vec::new(),
            behaviors: Vec::new(),
            sleep_model: SleepModel::default(),
            power,
            daemon_rng: master.stream(u64::MAX),
            master_rng: master,
            started: false,
        }
    }

    /// Override the sleep service model (ablations).
    pub fn set_sleep_model(&mut self, model: SleepModel) {
        self.sleep_model = model;
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// The configuration this OS was built with.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// Create a thread pinned to `core` with the given nice level.
    /// Threads start runnable at time zero.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        core: CoreId,
        nice: i8,
        behavior: Box<dyn Behavior<W>>,
    ) -> ThreadId {
        assert!(core < self.cfg.n_cores, "core out of range");
        assert!(!self.started, "spawn before run_until");
        let id = self.threads.len();
        let rng = self.master_rng.stream(id as u64 ^ 0x5EED_0000);
        self.threads.push(Tcb {
            name: name.into(),
            core,
            weight: crate::config::nice_weight(nice),
            state: ThreadState::Runnable,
            vruntime: 0.0,
            run_start: Nanos::ZERO,
            run_rate: 0.0,
            run_freq: 0,
            work_remaining: Cycles::ZERO,
            work_event: EventId::NONE,
            cpu_time: Nanos::ZERO,
            wakeups: 0,
            rng,
        });
        self.behaviors.push(Some(behavior));
        self.cores[core].runnable.push(id);
        id
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Governor sampling (only meaningful for ondemand, but the window
        // bookkeeping is shared).
        self.queue
            .schedule(self.cfg.governor_sample, OsEvent::GovernorSample);
        // Daemon interference per core.
        if let Some(mean) = self.cfg.daemon.mean_interval {
            for c in 0..self.cfg.n_cores {
                let gap = Nanos::from_secs_f64(self.daemon_rng.exp(mean.as_secs_f64()));
                self.queue.schedule(gap, OsEvent::DaemonStart(c));
            }
        }
    }

    /// Run the simulation until `t_end`, then close accounting at `t_end`.
    /// May be called repeatedly with increasing horizons.
    pub fn run_until(&mut self, world: &mut W, t_end: Nanos) {
        self.start();
        self.settle(world);
        while let Some(t) = self.queue.peek_time() {
            if t > t_end {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.handle(world, now, ev);
            self.settle(world);
        }
        self.close_out(t_end);
    }

    // ----- event handling -------------------------------------------------

    fn handle(&mut self, world: &mut W, now: Nanos, ev: OsEvent) {
        match ev {
            OsEvent::TimerFire(tid) => self.on_wake(now, tid),
            OsEvent::WorkDone(tid) => {
                let core = self.threads[tid].core;
                debug_assert_eq!(self.cores[core].running, Some(tid));
                self.charge_running(core, now);
                self.threads[tid].work_event = EventId::NONE;
                self.threads[tid].work_remaining = Cycles::ZERO;
                self.behavior_turn(world, now, tid);
            }
            OsEvent::SchedTick(core) => self.on_tick(now, core),
            OsEvent::GovernorSample => self.on_governor(now),
            OsEvent::DaemonStart(core) => self.on_daemon_start(now, core),
            OsEvent::DaemonEnd(core) => self.on_daemon_end(now, core),
        }
    }

    /// Dispatch every idle core that has runnable work; loop to a fixed
    /// point (a dispatched behavior may immediately sleep, freeing the core
    /// for the next waiter).
    fn settle(&mut self, world: &mut W) {
        let now = self.queue.now();
        loop {
            let mut progressed = false;
            for core in 0..self.cores.len() {
                if self.cores[core].running.is_none()
                    && self.cores[core].daemon_until <= now
                    && !self.cores[core].runnable.is_empty()
                {
                    self.dispatch(world, now, core);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn pick_next(&self, core: CoreId) -> Option<ThreadId> {
        self.cores[core].runnable.iter().copied().min_by(|&a, &b| {
            self.threads[a]
                .vruntime
                .partial_cmp(&self.threads[b].vruntime)
                .expect("vruntime NaN")
                .then(a.cmp(&b))
        })
    }

    fn cycles_per_ns(&self, core: CoreId) -> f64 {
        let c = &self.cores[core];
        let base = c.freq_mhz as f64 / 1000.0;
        // Contended core: co-scheduled hot threads thrash caches; work takes
        // `contention_inflation` times longer.
        if c.runnable.is_empty() {
            base
        } else {
            base / self.cfg.sched.contention_inflation
        }
    }

    fn dispatch(&mut self, world: &mut W, now: Nanos, core: CoreId) {
        let tid = self.pick_next(core).expect("dispatch on empty runqueue");
        let c = &mut self.cores[core];
        c.runnable.retain(|&t| t != tid);
        // Close the idle interval (power) — this is a hardware wake.
        let freq_now = c.freq_mhz;
        if let Some(idle_from) = c.idle_since.take() {
            let idle_dur = now.saturating_sub(idle_from);
            self.power.charge_idle(core, idle_dur, freq_now);
            self.power.charge_wake(core);
        }
        c.running = Some(tid);
        let rate = self.cycles_per_ns(core);
        let freq = self.cores[core].freq_mhz;
        let t = &mut self.threads[tid];
        t.state = ThreadState::Running;
        t.run_start = now;
        t.run_rate = rate;
        t.run_freq = freq;
        self.ensure_tick(now, core);
        if self.threads[tid].work_remaining.0 > 0 {
            self.schedule_work(now, tid);
        } else {
            self.behavior_turn(world, now, tid);
        }
    }

    /// Invoke the behavior of a thread that is Running with no residual
    /// work, and apply the action it returns.
    fn behavior_turn(&mut self, world: &mut W, now: Nanos, tid: ThreadId) {
        let core = self.threads[tid].core;
        debug_assert_eq!(self.cores[core].running, Some(tid));
        let mut behavior = self.behaviors[tid].take().expect("behavior re-entry");
        let action = {
            let mut ctx = RunCtx {
                now,
                thread: tid,
                core,
                freq_mhz: self.cores[core].freq_mhz,
                rng: &mut self.threads[tid].rng,
                sleep_model: &self.sleep_model,
            };
            behavior.on_run(world, &mut ctx)
        };
        self.behaviors[tid] = Some(behavior);
        match action {
            Action::Work(c) => {
                self.threads[tid].work_remaining = Cycles(c.0.max(1));
                // Re-read rate in case contention changed since dispatch.
                self.threads[tid].run_rate = self.cycles_per_ns(core);
                self.threads[tid].run_start = now;
                self.threads[tid].run_freq = self.cores[core].freq_mhz;
                self.schedule_work(now, tid);
            }
            Action::Sleep { service, duration } => {
                let actual = {
                    let t = &mut self.threads[tid];
                    self.sleep_model.actual_sleep(service, duration, &mut t.rng)
                };
                self.put_to_sleep(now, tid, now.saturating_add(actual));
            }
            Action::WaitUntil(at) => {
                self.put_to_sleep(now, tid, at.max(now));
            }
            Action::Exit => {
                let t = &mut self.threads[tid];
                t.state = ThreadState::Exited;
                self.cores[core].running = None;
                self.core_maybe_idle(now, core);
            }
        }
    }

    fn put_to_sleep(&mut self, now: Nanos, tid: ThreadId, wake_at: Nanos) {
        let core = self.threads[tid].core;
        let t = &mut self.threads[tid];
        t.state = ThreadState::Sleeping;
        self.queue.schedule(wake_at, OsEvent::TimerFire(tid));
        self.cores[core].running = None;
        self.core_maybe_idle(now, core);
    }

    fn core_maybe_idle(&mut self, now: Nanos, core: CoreId) {
        let c = &mut self.cores[core];
        if c.running.is_none() && c.runnable.is_empty() && c.daemon_until <= now {
            c.idle_since = Some(now);
            if !c.tick_event.is_none() {
                self.queue.cancel(c.tick_event);
                c.tick_event = EventId::NONE;
            }
        }
    }

    fn schedule_work(&mut self, now: Nanos, tid: ThreadId) {
        let t = &mut self.threads[tid];
        debug_assert!(t.work_remaining.0 > 0);
        let dur_ns = (t.work_remaining.0 as f64 / t.run_rate).ceil() as u64;
        t.work_event = self
            .queue
            .schedule(now.saturating_add(Nanos(dur_ns)), OsEvent::WorkDone(tid));
    }

    /// Account the running thread's progress up to `now`: CPU time,
    /// vruntime, power, residual work, governor window.
    fn charge_running(&mut self, core: CoreId, now: Nanos) {
        let Some(tid) = self.cores[core].running else {
            return;
        };
        let t = &mut self.threads[tid];
        let elapsed = now.saturating_sub(t.run_start);
        if elapsed.is_zero() {
            return;
        }
        let consumed = Cycles((elapsed.as_nanos() as f64 * t.run_rate).round() as u64);
        t.work_remaining = t.work_remaining.saturating_sub(consumed);
        t.cpu_time += elapsed;
        t.vruntime += elapsed.as_nanos() as f64 * (NICE0_WEIGHT / t.weight);
        t.run_start = now;
        let vr = t.vruntime;
        let freq = t.run_freq;
        self.power.charge_active(core, elapsed, freq);
        let queue_min = self.runnable_min_vr(core).unwrap_or(vr);
        let c = &mut self.cores[core];
        c.window_busy += elapsed;
        c.min_vruntime = c.min_vruntime.max(vr.min(queue_min));
    }

    fn runnable_min_vr(&self, core: CoreId) -> Option<f64> {
        self.cores[core]
            .runnable
            .iter()
            .map(|&t| self.threads[t].vruntime)
            .min_by(|a, b| a.partial_cmp(b).expect("NaN vruntime"))
    }

    /// Preempt the running thread (requeue it) after charging.
    fn preempt(&mut self, core: CoreId, now: Nanos) {
        let Some(tid) = self.cores[core].running else {
            return;
        };
        self.charge_running(core, now);
        let t = &mut self.threads[tid];
        if !t.work_event.is_none() {
            self.queue.cancel(t.work_event);
            t.work_event = EventId::NONE;
        }
        t.state = ThreadState::Runnable;
        self.cores[core].running = None;
        self.cores[core].runnable.push(tid);
    }

    /// Cancel and re-plan the running thread's work completion (frequency or
    /// contention changed).
    fn retime_running(&mut self, core: CoreId, now: Nanos) {
        let Some(tid) = self.cores[core].running else {
            return;
        };
        self.charge_running(core, now);
        let t = &self.threads[tid];
        if t.work_event.is_none() {
            return; // mid-behavior; nothing scheduled yet
        }
        if t.work_remaining.0 == 0 {
            // Completion is imminent (event at ~now); leave it be.
            return;
        }
        let ev = t.work_event;
        self.queue.cancel(ev);
        let rate = self.cycles_per_ns(core);
        let freq = self.cores[core].freq_mhz;
        let t = &mut self.threads[tid];
        t.run_rate = rate;
        t.run_freq = freq;
        self.schedule_work(now, tid);
    }

    fn on_wake(&mut self, now: Nanos, tid: ThreadId) {
        let t = &self.threads[tid];
        debug_assert_eq!(t.state, ThreadState::Sleeping);
        let core = t.core;
        // Sleeper fairness: a long sleeper resumes just behind the pack, so
        // it preempts promptly without hoarding unbounded credit.
        let bonus = self.cfg.sched.sched_latency.as_nanos() as f64 / 2.0;
        let floor = self.cores[core].min_vruntime - bonus;
        let t = &mut self.threads[tid];
        t.vruntime = t.vruntime.max(floor);
        t.state = ThreadState::Runnable;
        t.wakeups += 1;
        let new_vr = t.vruntime;
        self.cores[core].runnable.push(tid);
        self.ensure_tick(now, core);
        if self.cores[core].daemon_until > now {
            return; // daemon owns the core; dispatch happens at DaemonEnd
        }
        if let Some(running) = self.cores[core].running {
            // Wakeup preemption: compare vruntimes with the granularity
            // scaled by the woken thread's weight (kernel wakeup_gran()).
            self.charge_running(core, now);
            let gran = self.cfg.sched.wakeup_granularity.as_nanos() as f64 * NICE0_WEIGHT
                / self.threads[tid].weight;
            if new_vr + gran < self.threads[running].vruntime {
                self.preempt(core, now);
            } else {
                // No preemption, but the core just became (more) contended:
                // re-time the running work under inflation.
                self.retime_running(core, now);
            }
        }
        // settle() dispatches if the core is free.
    }

    fn ensure_tick(&mut self, now: Nanos, core: CoreId) {
        let contended = self.cores[core].running.is_some() && !self.cores[core].runnable.is_empty();
        let has_tick = !self.cores[core].tick_event.is_none();
        if contended && !has_tick {
            self.cores[core].tick_event = self.queue.schedule(
                now.saturating_add(self.cfg.sched.tick),
                OsEvent::SchedTick(core),
            );
        }
    }

    fn on_tick(&mut self, now: Nanos, core: CoreId) {
        self.cores[core].tick_event = EventId::NONE;
        let Some(running) = self.cores[core].running else {
            return;
        };
        if self.cores[core].runnable.is_empty() {
            return;
        }
        self.charge_running(core, now);
        let ran_for = now.saturating_sub(self.threads[running].run_start);
        // We just charged, so run_start == now; use cpu-time delta instead:
        let _ = ran_for;
        let waiter_vr = self.runnable_min_vr(core).expect("contended");
        if waiter_vr < self.threads[running].vruntime {
            self.preempt(core, now);
        }
        // Reschedule while contention persists (after a possible dispatch
        // by settle()).
        self.ensure_tick(now, core);
    }

    fn on_governor(&mut self, now: Nanos) {
        let window = self.cfg.governor_sample;
        for core in 0..self.cores.len() {
            // Close the running segment so the window is exact.
            self.charge_running(core, now);
            let busy = self.cores[core].window_busy;
            self.cores[core].window_busy = Nanos::ZERO;
            if self.cfg.governor == Governor::Ondemand {
                let util = (busy / window).min(1.0);
                let max = self.cfg.freq.max_mhz();
                let new = if util >= self.cfg.ondemand_up_threshold {
                    max
                } else {
                    let target = (max as f64 * util / self.cfg.ondemand_up_threshold) as u32;
                    self.cfg
                        .freq
                        .step_at_least(target.max(self.cfg.freq.min_mhz()))
                };
                if new != self.cores[core].freq_mhz {
                    self.cores[core].freq_mhz = new;
                    self.retime_running(core, now);
                }
            }
        }
        self.queue
            .schedule(now + self.cfg.governor_sample, OsEvent::GovernorSample);
    }

    fn on_daemon_start(&mut self, now: Nanos, core: CoreId) {
        let dur = Nanos::from_secs_f64(
            self.daemon_rng.log_normal(
                self.cfg.daemon.duration_mu_ln_ns,
                self.cfg.daemon.duration_sigma,
            ) * 1e-9,
        );
        // Preempt whatever runs; the daemon is highest priority.
        self.preempt(core, now);
        if let Some(idle_from) = self.cores[core].idle_since.take() {
            let f = self.cores[core].freq_mhz;
            self.power
                .charge_idle(core, now.saturating_sub(idle_from), f);
            self.power.charge_wake(core);
        }
        self.cores[core].daemon_until = now.saturating_add(dur);
        self.cores[core].daemon_started = now;
        self.queue
            .schedule(self.cores[core].daemon_until, OsEvent::DaemonEnd(core));
        // Next interference burst.
        if let Some(mean) = self.cfg.daemon.mean_interval {
            let gap = Nanos::from_secs_f64(self.daemon_rng.exp(mean.as_secs_f64()));
            self.queue.schedule(
                self.cores[core].daemon_until.saturating_add(gap),
                OsEvent::DaemonStart(core),
            );
        }
    }

    fn on_daemon_end(&mut self, now: Nanos, core: CoreId) {
        let started = self.cores[core].daemon_started;
        let dur = now.saturating_sub(started);
        let freq = self.cores[core].freq_mhz;
        self.power.charge_active(core, dur, freq);
        self.cores[core].window_busy += dur;
        self.cores[core].daemon_until = Nanos::ZERO;
        self.core_maybe_idle(now, core);
        // settle() re-dispatches.
    }

    /// Close all accounting at `t_end` without disturbing scheduled events.
    fn close_out(&mut self, t_end: Nanos) {
        for core in 0..self.cores.len() {
            self.charge_running(core, t_end);
            if let Some(idle_from) = self.cores[core].idle_since {
                let f = self.cores[core].freq_mhz;
                self.power
                    .charge_idle(core, t_end.saturating_sub(idle_from), f);
                self.cores[core].idle_since = Some(t_end);
            }
        }
    }

    // ----- metrics ---------------------------------------------------------

    /// Accumulated on-CPU time of a thread (getrusage-style).
    pub fn thread_cpu(&self, tid: ThreadId) -> Nanos {
        self.threads[tid].cpu_time
    }

    /// Number of sleep→runnable transitions of a thread.
    pub fn thread_wakeups(&self, tid: ThreadId) -> u64 {
        self.threads[tid].wakeups
    }

    /// Thread name.
    pub fn thread_name(&self, tid: ThreadId) -> &str {
        &self.threads[tid].name
    }

    /// True if the thread has exited.
    pub fn thread_exited(&self, tid: ThreadId) -> bool {
        self.threads[tid].state == ThreadState::Exited
    }

    /// Current frequency of a core in MHz.
    pub fn core_freq(&self, core: CoreId) -> u32 {
        self.cores[core].freq_mhz
    }

    /// Average package power over the first `elapsed` of the run, watts.
    pub fn package_watts(&self, elapsed: Nanos) -> f64 {
        self.power.package_watts(elapsed)
    }

    /// Package energy in joules over `elapsed`.
    pub fn package_energy(&self, elapsed: Nanos) -> f64 {
        self.power.package_energy(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DaemonConfig, OsConfig};
    use crate::sleep::SleepModel;

    /// A behavior scripted from a queue of actions.
    struct Scripted {
        actions: Vec<Action>,
        /// (time, event marker) log shared with the test.
        log: std::rc::Rc<std::cell::RefCell<Vec<Nanos>>>,
    }

    impl Behavior<()> for Scripted {
        fn on_run(&mut self, _w: &mut (), ctx: &mut RunCtx<'_>) -> Action {
            self.log.borrow_mut().push(ctx.now);
            if self.actions.is_empty() {
                Action::Exit
            } else {
                self.actions.remove(0)
            }
        }
    }

    fn quiet_cfg(n_cores: usize) -> OsConfig {
        OsConfig {
            n_cores,
            daemon: DaemonConfig::disabled(),
            ..OsConfig::default()
        }
    }

    fn rc_log() -> std::rc::Rc<std::cell::RefCell<Vec<Nanos>>> {
        std::rc::Rc::new(std::cell::RefCell::new(Vec::new()))
    }

    #[test]
    fn work_charges_cpu_time() {
        let mut os = OsSim::new(quiet_cfg(1), 1);
        let log = rc_log();
        // 2.1e6 cycles at 2100 MHz = exactly 1 ms.
        let tid = os.spawn(
            "worker",
            0,
            0,
            Box::new(Scripted {
                actions: vec![Action::Work(Cycles(2_100_000))],
                log: log.clone(),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(1));
        assert_eq!(os.thread_cpu(tid), Nanos::from_millis(1));
        assert!(os.thread_exited(tid));
        // on_run called twice: initial + after work.
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn sleep_wakes_with_calibrated_oversleep() {
        let mut os = OsSim::new(quiet_cfg(1), 2);
        os.set_sleep_model(SleepModel::idle_calibration());
        let log = rc_log();
        os.spawn(
            "sleeper",
            0,
            0,
            Box::new(Scripted {
                actions: vec![Action::Sleep {
                    service: SleepService::HrSleep,
                    duration: Nanos::from_micros(10),
                }],
                log: log.clone(),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(1));
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        let woke = (log[1] - log[0]).as_micros_f64();
        assert!(
            (woke - 13.46).abs() < 0.5,
            "10µs hr_sleep resumed after {woke}µs"
        );
    }

    #[test]
    fn wait_until_is_exact() {
        let mut os = OsSim::new(quiet_cfg(1), 3);
        let log = rc_log();
        os.spawn(
            "irq",
            0,
            0,
            Box::new(Scripted {
                actions: vec![Action::WaitUntil(Nanos::from_micros(500))],
                log: log.clone(),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(1));
        assert_eq!(log.borrow()[1], Nanos::from_micros(500));
    }

    /// Busy-forever behavior in fixed chunks.
    struct Hog {
        chunk: Cycles,
    }
    impl Behavior<()> for Hog {
        fn on_run(&mut self, _w: &mut (), _ctx: &mut RunCtx<'_>) -> Action {
            Action::Work(self.chunk)
        }
    }

    #[test]
    fn equal_weights_share_fairly() {
        let mut cfg = quiet_cfg(1);
        cfg.sched.contention_inflation = 1.0; // pure share test
        let mut os = OsSim::new(cfg, 4);
        let a = os.spawn(
            "a",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        let b = os.spawn(
            "b",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(1));
        let ca = os.thread_cpu(a).as_secs_f64();
        let cb = os.thread_cpu(b).as_secs_f64();
        assert!(
            (ca + cb - 1.0).abs() < 0.01,
            "core not fully used: {}",
            ca + cb
        );
        assert!((ca - cb).abs() < 0.05, "unfair split {ca} vs {cb}");
    }

    #[test]
    fn nice_minus20_starves_nice19() {
        let mut cfg = quiet_cfg(1);
        cfg.sched.contention_inflation = 1.0;
        let mut os = OsSim::new(cfg, 5);
        let hi = os.spawn(
            "hi",
            0,
            -20,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        let lo = os.spawn(
            "lo",
            0,
            19,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(1));
        let chi = os.thread_cpu(hi).as_secs_f64();
        let clo = os.thread_cpu(lo).as_secs_f64();
        assert!(chi > 0.98, "high-priority got only {chi}");
        assert!(clo < 0.02, "low-priority got {clo}");
    }

    #[test]
    fn contention_inflation_stretches_work() {
        // Two hogs with inflation 2.0 on one core: each finishes half as
        // much work per second of CPU, i.e. a fixed job takes 4x wall time.
        let mut cfg = quiet_cfg(1);
        cfg.sched.contention_inflation = 2.0;
        let mut os = OsSim::new(cfg, 6);
        let log_a = rc_log();
        // 1.05e9 cycles = 500 ms alone.
        os.spawn(
            "a",
            0,
            0,
            Box::new(Scripted {
                actions: vec![Action::Work(Cycles(1_050_000_000))],
                log: log_a.clone(),
            }),
        );
        os.spawn(
            "b",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(2_100_000),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(5));
        let log = log_a.borrow();
        assert_eq!(log.len(), 2, "job did not finish");
        let wall = (log[1] - log[0]).as_secs_f64();
        // Alone: 0.5 s. Shared 50/50 with 2x inflation: ≈2 s.
        assert!((wall - 2.0).abs() < 0.2, "job took {wall}s, expected ≈2s");
    }

    /// Sleeps then records wake latency while a hog occupies the core.
    struct LatencyProbe {
        sleeps_left: u32,
        asked_at: Nanos,
        waits: std::rc::Rc<std::cell::RefCell<Vec<f64>>>,
    }
    impl Behavior<()> for LatencyProbe {
        fn on_run(&mut self, _w: &mut (), ctx: &mut RunCtx<'_>) -> Action {
            if self.asked_at > Nanos::ZERO {
                let waited = (ctx.now - self.asked_at).as_micros_f64();
                self.waits.borrow_mut().push(waited);
            }
            if self.sleeps_left == 0 {
                return Action::Exit;
            }
            self.sleeps_left -= 1;
            self.asked_at = ctx.now;
            Action::Sleep {
                service: SleepService::HrSleep,
                duration: Nanos::from_micros(50),
            }
        }
    }

    #[test]
    fn waking_high_priority_preempts_hog_quickly() {
        // The §V-E mechanism: a nice -20 Metronome thread sharing a core
        // with a nice 19 hog must regain the CPU right after its timeout.
        let mut os = OsSim::new(quiet_cfg(1), 7);
        let waits = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        os.spawn(
            "metronome",
            0,
            -20,
            Box::new(LatencyProbe {
                sleeps_left: 200,
                asked_at: Nanos::ZERO,
                waits: waits.clone(),
            }),
        );
        os.spawn(
            "ferret",
            0,
            19,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(1));
        let waits = waits.borrow();
        assert!(waits.len() >= 150, "probe starved: {} wakes", waits.len());
        let mean: f64 = waits.iter().sum::<f64>() / waits.len() as f64;
        // 50 µs request + ~5.6 µs oversleep; preemption adds only the
        // sub-µs dispatch, no full timeslices.
        assert!(
            (mean - 55.6).abs() < 2.0,
            "mean resume latency {mean}µs — hog not preempted promptly"
        );
    }

    #[test]
    fn tick_preemption_respects_min_granularity() {
        // Two equal hogs: context switches happen at tick boundaries, so
        // each runs at least min_granularity per slice.
        let mut cfg = quiet_cfg(1);
        cfg.sched.contention_inflation = 1.0;
        let mut os = OsSim::new(cfg, 8);
        let a = os.spawn(
            "a",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(21_000),
            }),
        ); // 10µs chunks
        let _b = os.spawn(
            "b",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(21_000),
            }),
        );
        os.run_until(&mut (), Nanos::from_millis(100));
        // With 1 ms ticks over 100 ms shared between 2 threads, thread a
        // gets ≈50 ms ± one slice.
        let ca = os.thread_cpu(a).as_millis_f64();
        assert!((ca - 50.0).abs() < 3.0, "thread a got {ca}ms");
    }

    #[test]
    fn daemon_interference_delays_dispatch() {
        let mut cfg = quiet_cfg(1);
        // Aggressive daemon: every ~2 ms, ~400 µs bursts.
        cfg.daemon = DaemonConfig {
            mean_interval: Some(Nanos::from_millis(2)),
            duration_mu_ln_ns: (400_000f64).ln(),
            duration_sigma: 0.1,
        };
        let mut os = OsSim::new(cfg, 9);
        let waits = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        os.spawn(
            "sleeper",
            0,
            0,
            Box::new(LatencyProbe {
                sleeps_left: 500,
                asked_at: Nanos::ZERO,
                waits: waits.clone(),
            }),
        );
        os.run_until(&mut (), Nanos::from_secs(1));
        let waits = waits.borrow();
        let max = waits.iter().cloned().fold(0.0, f64::max);
        // Some wake must have landed inside a daemon burst and waited
        // noticeably longer than the 50µs+oversleep baseline.
        assert!(
            max > 150.0,
            "max resume latency {max}µs — no interference seen"
        );
    }

    #[test]
    fn ondemand_lowers_frequency_when_mostly_idle() {
        let mut cfg = quiet_cfg(2);
        cfg.governor = Governor::Ondemand;
        let mut os = OsSim::new(cfg, 10);
        // Core 0: hog at 100% util. Core 1: idle (no thread).
        os.spawn(
            "hog",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        os.run_until(&mut (), Nanos::from_millis(100));
        assert_eq!(os.core_freq(0), 2100, "busy core must be at max");
        assert_eq!(os.core_freq(1), 800, "idle core must be at min");
    }

    #[test]
    fn ondemand_saves_power_for_light_load() {
        // ~10% duty cycle: work 100 µs, sleep 900 µs, scripted.
        fn duty_actions(n: usize, freq_scale: u64) -> Vec<Action> {
            let mut v = Vec::new();
            for _ in 0..n {
                v.push(Action::Work(Cycles(210_000 * freq_scale / 1000))); // 100µs at 2.1GHz
                v.push(Action::Sleep {
                    service: SleepService::HrSleep,
                    duration: Nanos::from_micros(900),
                });
            }
            v
        }
        let run = |gov: Governor| -> f64 {
            let mut cfg = quiet_cfg(1);
            cfg.governor = gov;
            let mut os = OsSim::new(cfg, 11);
            let log = rc_log();
            os.spawn(
                "duty",
                0,
                0,
                Box::new(Scripted {
                    actions: duty_actions(900, 1000),
                    log,
                }),
            );
            os.run_until(&mut (), Nanos::from_secs(1));
            os.package_watts(Nanos::from_secs(1))
        };
        let perf = run(Governor::Performance);
        let onde = run(Governor::Ondemand);
        assert!(
            onde < perf,
            "ondemand {onde}W must undercut performance {perf}W at light load"
        );
    }

    #[test]
    fn cpu_time_conserved() {
        let mut cfg = quiet_cfg(2);
        cfg.sched.contention_inflation = 1.0;
        let mut os = OsSim::new(cfg, 12);
        let t0 = os.spawn(
            "a",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        let t1 = os.spawn(
            "b",
            0,
            5,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        let t2 = os.spawn(
            "c",
            1,
            0,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        let horizon = Nanos::from_millis(500);
        os.run_until(&mut (), horizon);
        let total = os.thread_cpu(t0) + os.thread_cpu(t1) + os.thread_cpu(t2);
        // Two cores, fully busy: total CPU ≈ 2 × wall.
        let expect = horizon.as_secs_f64() * 2.0;
        assert!(
            (total.as_secs_f64() - expect).abs() < 0.01,
            "conservation violated: {} vs {expect}",
            total.as_secs_f64()
        );
        // Never more than cores × wall.
        assert!(total.as_secs_f64() <= expect + 1e-9);
    }

    #[test]
    fn run_until_is_resumable() {
        let mut os = OsSim::new(quiet_cfg(1), 13);
        let t = os.spawn(
            "hog",
            0,
            0,
            Box::new(Hog {
                chunk: Cycles(210_000),
            }),
        );
        os.run_until(&mut (), Nanos::from_millis(10));
        let mid = os.thread_cpu(t);
        os.run_until(&mut (), Nanos::from_millis(20));
        let end = os.thread_cpu(t);
        assert!((mid.as_millis_f64() - 10.0).abs() < 0.2);
        assert!((end.as_millis_f64() - 20.0).abs() < 0.2);
    }

    #[test]
    fn busy_poll_burns_more_package_power_than_sleep_wake() {
        // Fig. 11's core claim at zero traffic.
        let run = |sleepy: bool| -> f64 {
            let mut os = OsSim::new(quiet_cfg(1), 14);
            let log = rc_log();
            if sleepy {
                let mut acts = Vec::new();
                for _ in 0..2_000 {
                    acts.push(Action::Work(Cycles(4_000))); // ~2µs wake work
                    acts.push(Action::Sleep {
                        service: SleepService::HrSleep,
                        duration: Nanos::from_micros(300),
                    });
                }
                os.spawn(
                    "metronome-ish",
                    0,
                    0,
                    Box::new(Scripted { actions: acts, log }),
                );
            } else {
                os.spawn(
                    "poll",
                    0,
                    0,
                    Box::new(Hog {
                        chunk: Cycles(210_000),
                    }),
                );
            }
            os.run_until(&mut (), Nanos::from_millis(500));
            os.package_watts(Nanos::from_millis(500))
        };
        let poll = run(false);
        let sleepy = run(true);
        assert!(sleepy < poll, "sleep&wake {sleepy}W !< busy poll {poll}W");
    }
}
