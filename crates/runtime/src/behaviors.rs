//! The thread bodies, as `metronome_os::Behavior` state machines over the
//! shared [`World`]: the retrieval disciplines, XDP NAPI loops and ferret
//! workers.
//!
//! The retrieval threads carry **no protocol logic**: Metronome's Listing 2
//! loop, the static DPDK poller and the constant-sleep strawman live once
//! each in `metronome_core::discipline`, the same state machines the
//! realtime runner executes. [`DisciplineWorker`] runs one over a
//! [`WorldBackend`], which realizes the `Backend` capabilities over the
//! [`World`] and prices each call with the §3 cost model, and turns the
//! discipline's verdicts into scheduler [`Action`]s. [`XdpHandler`] is the
//! one sim-only retrieval model: it charges the kernel's IRQ and NAPI
//! path, which no user-space discipline executes.

use crate::apps_profile::AppProfile;
use crate::calib;
use crate::world::{FerretCompletion, World};
use metronome_core::discipline::{AnyDiscipline, RetrievalDiscipline, Verdict};
use metronome_core::engine::Backend;
use metronome_os::executor::{Action, Behavior, RunCtx};
use metronome_os::sleep::SleepService;
use metronome_sim::stats::Ewma;
use metronome_sim::{Cycles, Nanos, Rng};
use metronome_telemetry::NullSink;

// ---------------------------------------------------------------------------
// Retrieval disciplines (Metronome, static DPDK, constant sleep)
// ---------------------------------------------------------------------------

/// The discrete-event realization of the `Backend` capabilities: the
/// trylock is the simulated queue's owner slot, receive bursts come from
/// the hybrid descriptor-ring model, entropy from the thread's seeded PRNG
/// stream. Each call adds its calibrated CPU cycles to the turn's tally,
/// which [`DisciplineWorker`] charges to the virtual core.
///
/// Constructed fresh for each scheduler turn (it borrows the world and the
/// thread's RNG at the turn's virtual `now`); also constructible directly
/// by tests that want to drive a discipline deterministically.
pub struct WorldBackend<'a> {
    world: &'a mut World,
    rng: &'a mut Rng,
    now: Nanos,
    /// Simulated thread id (lock-owner identity).
    tid: usize,
    /// Application cost profile for packet processing.
    app: AppProfile,
    cycles: u64,
    polled: Option<usize>,
}

impl<'a> WorldBackend<'a> {
    /// Backend for thread `tid` running `app`, at virtual time `now`.
    pub fn new(
        world: &'a mut World,
        rng: &'a mut Rng,
        now: Nanos,
        tid: usize,
        app: AppProfile,
    ) -> Self {
        WorldBackend {
            world,
            rng,
            now,
            tid,
            app,
            cycles: 0,
            polled: None,
        }
    }

    fn flush_stale_tx(&mut self, q: usize) {
        if self.world.queues[q].tx_stale(self.now) {
            self.world.flush_queue_tx(q, self.now);
        }
    }
}

impl Backend for WorldBackend<'_> {
    fn n_queues(&self) -> usize {
        self.world.controller.n_queues()
    }

    fn draw(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        // Race/vacation bookkeeping happens inside the world.
        let won = self.world.try_acquire(q, self.tid, self.now);
        self.cycles += if won {
            calib::ACQUIRE_CYCLES
        } else {
            // The loser goes straight to sleep: its sleep call is this turn's.
            calib::BUSY_TRY_CYCLES + calib::SLEEP_CALL_CYCLES
        };
        won
    }

    fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
        // The chunk this queue handed out last has been processed by now.
        self.world.settle(q, self.now);
        self.polled = Some(q);
        let taken = self.world.queues[q].take_burst(self.now, burst as u64);
        if taken > 0 {
            self.cycles += self.app.burst_cycles(taken);
        } else {
            self.flush_stale_tx(q);
            self.cycles += calib::EMPTY_POLL_CYCLES;
        }
        taken
    }

    fn release(&mut self, q: usize) -> Nanos {
        self.world.release(q, self.tid, self.now);
        // The winner goes straight to sleep: its sleep call is this turn's.
        self.cycles += calib::RELEASE_CYCLES + calib::SLEEP_CALL_CYCLES;
        self.world.controller.ts(q)
    }

    fn before_contend(&mut self, q: usize) {
        self.cycles += calib::WAKE_PATH_CYCLES;
        // Opportunistically drain a stale Tx batch on the queue we are
        // about to contend (no owner ⇒ nobody else will).
        if self.world.queues[q].owner.is_none() {
            self.flush_stale_tx(q);
        }
    }

    fn ts(&self, q: usize) -> Nanos {
        self.world.controller.ts(q)
    }

    fn tl(&self) -> Nanos {
        self.world.controller.tl()
    }

    fn equal_timeouts(&self) -> bool {
        self.world.equal_timeouts
    }

    fn stagger(&mut self) -> Nanos {
        // Threads in a real deployment start milliseconds apart (spawn +
        // EAL init); a uniform stagger over one TL keeps the first wakes
        // from racing in lockstep.
        let tl = self.world.controller.tl();
        Nanos(self.rng.below(tl.as_nanos().max(1)))
    }
}

/// One simulated packet-retrieval thread: a `core::discipline` state
/// machine turned once per scheduler run over a fresh [`WorldBackend`].
///
/// Verdicts become actions: `Continue` works off the turn's cycles,
/// `Sleep` sleeps through the scenario's sleep service, `Wait` idles
/// exactly, and `Yield` (busy polling an empty queue) spins in one block
/// up to the polled queue's next arrival, which keeps the simulation cheap
/// at identical CPU accounting. `Park` never reaches this driver: the one
/// discipline that parks (`InterruptLike`) stands for XDP, which the
/// simulator models as [`XdpHandler`].
pub struct DisciplineWorker {
    tid: usize,
    app: AppProfile,
    service: SleepService,
    discipline: AnyDiscipline,
    /// A sleep decided on a turn that also did work, taken once the work
    /// is done.
    held: Option<Nanos>,
}

impl DisciplineWorker {
    /// Simulated thread `tid` running `discipline` over `app`, sleeping
    /// through `service`.
    pub fn new(
        tid: usize,
        discipline: AnyDiscipline,
        app: AppProfile,
        service: SleepService,
    ) -> Self {
        DisciplineWorker {
            tid,
            app,
            service,
            discipline,
            held: None,
        }
    }

    fn sleep(&self, duration: Nanos) -> Action {
        Action::Sleep {
            service: self.service,
            duration,
        }
    }
}

impl Behavior<World> for DisciplineWorker {
    fn on_run(&mut self, world: &mut World, ctx: &mut RunCtx<'_>) -> Action {
        if let Some(duration) = self.held.take() {
            return self.sleep(duration);
        }
        let now = ctx.now;
        let mut backend = WorldBackend::new(world, &mut *ctx.rng, now, self.tid, self.app);
        let verdict = self.discipline.turn(&mut backend, &NullSink);
        let (cycles, polled) = (backend.cycles, backend.polled);
        match verdict {
            Verdict::Continue => Action::Work(Cycles(cycles)),
            // Metronome decides its sleeps a turn early (release, lost
            // race) and was charged the sleep call then.
            Verdict::Sleep(duration) if cycles == 0 => self.sleep(duration),
            // A discipline that sleeps straight out of a poll (constant
            // sleep) does the poll and enters the sleep call first.
            Verdict::Sleep(duration) => {
                self.held = Some(duration);
                Action::Work(Cycles(cycles + calib::SLEEP_CALL_CYCLES))
            }
            Verdict::Wait(dur) => Action::WaitUntil(now.saturating_add(dur)),
            Verdict::Yield => {
                // Aggregate the empty polls until the next arrival (or the
                // Tx drain deadline, whichever comes first).
                let q = polled.expect("a yield follows an empty poll");
                let spin_until = match world.queues[q].peek_next_arrival() {
                    Some(t) if t > now => t,
                    Some(_) => now, // packet due now; poll again
                    None => now.saturating_add(Nanos::from_millis(1)),
                };
                let horizon = spin_until.min(now.saturating_add(calib::TX_DRAIN_TIMEOUT));
                let spin = Cycles::from_duration(horizon.saturating_sub(now), ctx.freq_mhz);
                Action::Work(Cycles(spin.0.max(cycles)))
            }
            Verdict::Park(_) => unreachable!("no simulated discipline parks on a doorbell"),
        }
    }
}

// ---------------------------------------------------------------------------
// XDP / NAPI baseline (paper §V-D)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum XdpPhase {
    /// IRQs enabled, core idle, waiting for packets.
    IrqWait,
    /// Softirq entry after an interrupt.
    IrqEntry,
    /// NAPI polling loop.
    Poll,
    /// The polled chunk finished processing.
    Chunk,
    /// Budget exhausted or queue empty — exit softirq, re-enable IRQs.
    IrqExit,
}

/// An XDP queue handler: 1:1 queue-to-core, interrupt driven, NAPI-polled.
pub struct XdpHandler {
    q: usize,
    cycles_per_packet: u64,
    last_irq: Nanos,
    /// EWMA of packets per interrupt, driving adaptive moderation.
    batch_ewma: Ewma,
    /// Packets retrieved since the current IRQ fired.
    irq_packets: u64,
    phase: XdpPhase,
}

impl XdpHandler {
    /// Handler for queue `q` (runs `xdp_router_ipv4`-equivalent cost).
    pub fn new(q: usize) -> Self {
        XdpHandler {
            q,
            cycles_per_packet: calib::XDP_CYCLES_PER_PACKET,
            last_irq: Nanos::ZERO,
            batch_ewma: Ewma::new(0.2),
            irq_packets: 0,
            phase: XdpPhase::IrqWait,
        }
    }

    fn itr(&self) -> Nanos {
        // Adaptive interrupt moderation: long window under sustained load,
        // short window when traffic is light.
        if self.batch_ewma.value_or(0.0) > calib::NAPI_BUDGET as f64 / 2.0 {
            calib::XDP_ITR_HIGH
        } else {
            calib::XDP_ITR_LOW
        }
    }
}

impl Behavior<World> for XdpHandler {
    fn on_run(&mut self, world: &mut World, ctx: &mut RunCtx<'_>) -> Action {
        let q = self.q;
        loop {
            match self.phase {
                XdpPhase::IrqWait => {
                    match world.queues[q].peek_next_arrival() {
                        None => {
                            // No traffic at all: re-check later, zero CPU.
                            return Action::WaitUntil(
                                ctx.now.saturating_add(Nanos::from_millis(100)),
                            );
                        }
                        Some(t) => {
                            // The NIC raises the interrupt after delivery
                            // latency, but never before the moderation (ITR)
                            // window since the previous IRQ has elapsed —
                            // even if packets are already waiting. This gate
                            // is what keeps interrupt rates bounded under
                            // load (and is what the erratum in our first
                            // model missed: without it, a drain-tail arrival
                            // landing during the IRQ-exit path re-raises
                            // immediately and the handler livelocks at 100%
                            // CPU — Mogul & Ramakrishnan's receive livelock,
                            // which NAPI+ITR exist to prevent).
                            let base = if t > ctx.now {
                                t.saturating_add(calib::IRQ_DELIVERY)
                            } else {
                                ctx.now
                            };
                            let fire = base.max(self.last_irq.saturating_add(self.itr()));
                            self.phase = XdpPhase::IrqEntry;
                            if fire > ctx.now {
                                return Action::WaitUntil(fire);
                            }
                        }
                    }
                }
                XdpPhase::IrqEntry => {
                    self.last_irq = ctx.now;
                    self.phase = XdpPhase::Poll;
                    return Action::Work(Cycles(calib::XDP_IRQ_CYCLES));
                }
                XdpPhase::Poll => {
                    let taken = world.queues[q].take_burst(ctx.now, calib::NAPI_BUDGET);
                    self.irq_packets += taken;
                    if taken > 0 {
                        self.phase = XdpPhase::Chunk;
                        return Action::Work(Cycles(taken * self.cycles_per_packet + 200));
                    }
                    self.phase = XdpPhase::IrqExit;
                }
                XdpPhase::Chunk => {
                    world.settle(q, ctx.now);
                    // NAPI: stay in polling mode while packets keep coming.
                    self.phase = XdpPhase::Poll;
                }
                XdpPhase::IrqExit => {
                    // Adaptive moderation keys off packets per interrupt,
                    // not per poll chunk (the drain tail's tiny chunks
                    // would otherwise bias the estimate low).
                    self.batch_ewma.update(self.irq_packets as f64);
                    self.irq_packets = 0;
                    self.phase = XdpPhase::IrqWait;
                    return Action::Work(Cycles(600));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ferret co-tenant (paper §V-E)
// ---------------------------------------------------------------------------

/// One ferret worker: a fixed amount of CPU work executed in chunks, with
/// its completion time recorded in the world.
pub struct FerretWorker {
    /// Worker index (for the completion record).
    pub worker: usize,
    remaining: Cycles,
    chunk: Cycles,
}

impl FerretWorker {
    /// Worker with `total` cycles of work in `chunk`-sized slices.
    pub fn new(worker: usize, total: Cycles, chunk: Cycles) -> Self {
        FerretWorker {
            worker,
            remaining: total,
            chunk: Cycles(chunk.0.max(1)),
        }
    }
}

impl Behavior<World> for FerretWorker {
    fn on_run(&mut self, world: &mut World, ctx: &mut RunCtx<'_>) -> Action {
        if self.remaining.0 == 0 {
            world.ferret_done.push(FerretCompletion {
                worker: self.worker,
                at: ctx.now,
            });
            return Action::Exit;
        }
        let step = Cycles(self.remaining.0.min(self.chunk.0));
        self.remaining = self.remaining.saturating_sub(step);
        Action::Work(step)
    }
}
