//! Fault injection for arrival processes and soak runs.
//!
//! A [`FaultPlan`] is a schedule of typed, seeded fault events for
//! soak/chaos runs — rate spikes, queue stalls (consumer pause), pool
//! starvation and generator jitter bursts — each a [`FaultEvent`] active
//! over a `[at, at + duration)` window. The plan itself is pure
//! bookkeeping (time-indexed queries), realized two ways:
//!
//! * the simulator wraps each queue's arrivals in [`PlannedFaults`] over
//!   the whole plan: its world is analytic, so stalls and starvation act
//!   on the arrival stream there;
//! * the realtime pipeline (the scenario runner and `metronomed` alike)
//!   wraps each producer shard's source in [`PlannedFaults`] over
//!   [`FaultPlan::arrival_side`] — spikes and jitter — and realizes
//!   stalls and starvation against its own workers and pool
//!   (`runtime::pipeline`).
//!
//! Every packet a fault suppresses is counted once, in the injector's
//! shared [`InjectionStats`] handle, so runs under fault injection still
//! reconcile exactly: the run reads those counts as its fault drops and
//! the conservation identity `offered == processed + dropped` keeps
//! holding with drops split by cause.

use crate::arrival::ArrivalProcess;
use metronome_sim::{Nanos, Rng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a scheduled fault does while its window is active.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Multiply the offered rate by `factor` (a flash crowd for
    /// `factor > 1`, a brown-out dip for `factor < 1`).
    RateSpike {
        /// Rate multiplier; must be finite and ≥ 0.
        factor: f64,
    },
    /// Pause the consumer side: arrivals keep coming but nothing is
    /// retrieved until the window ends. On the realtime pipeline the
    /// workers nap before their next burst, so the rings fill and
    /// tail-drop (ring drops) and what waited in them completes late; the
    /// sim holds the arrivals upstream instead and releases them in a
    /// burst when the stall lifts.
    QueueStall,
    /// Starve the mempool: on the realtime pipeline `fraction` of the
    /// pool's buffers are confiscated for the window, so arrivals find no
    /// buffer (pool drops); the sim refuses each arrival admission with
    /// probability `fraction` (fault drops).
    PoolStarve {
        /// Fraction of capacity taken away, clamped to `[0, 1]`.
        fraction: f64,
    },
    /// Generator pacing degrades: surviving arrivals shift by up to
    /// `jitter` and each is lost with probability `drop_prob`.
    JitterBurst {
        /// Maximum backward timestamp shift.
        jitter: Nanos,
        /// Per-packet loss probability in `[0, 1]`.
        drop_prob: f64,
    },
}

impl FaultKind {
    /// Stable label for logs, tables, and the control protocol.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::RateSpike { .. } => "rate-spike",
            FaultKind::QueueStall => "queue-stall",
            FaultKind::PoolStarve { .. } => "pool-starve",
            FaultKind::JitterBurst { .. } => "jitter-burst",
        }
    }
}

/// One scheduled fault: `kind` is active over `[at, at + duration)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Window start (run-relative).
    pub at: Nanos,
    /// Window length.
    pub duration: Nanos,
    /// What happens during the window.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Window end (exclusive).
    pub fn end(&self) -> Nanos {
        Nanos(self.at.as_nanos().saturating_add(self.duration.as_nanos()))
    }

    /// Whether the window covers instant `t`.
    pub fn active_at(&self, t: Nanos) -> bool {
        t >= self.at && t < self.end()
    }
}

/// A schedule of typed fault events, queried by time. Events may overlap;
/// overlapping spikes multiply, overlapping starvation/jitter take the
/// worst case, and a stall holds as long as *any* stall window is active.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events (order irrelevant; queries scan).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; all queries return the identity).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style event add.
    pub fn with(mut self, at: Nanos, duration: Nanos, kind: FaultKind) -> Self {
        self.push(at, duration, kind);
        self
    }

    /// Add an event.
    pub fn push(&mut self, at: Nanos, duration: Nanos, kind: FaultKind) {
        if let FaultKind::RateSpike { factor } = kind {
            assert!(factor.is_finite() && factor >= 0.0, "bad spike factor");
        }
        if let FaultKind::JitterBurst { drop_prob, .. } = kind {
            assert!((0.0..=1.0).contains(&drop_prob), "bad drop probability");
        }
        self.events.push(FaultEvent { at, duration, kind });
    }

    /// Whether the plan holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The spike and jitter events alone: what a realtime source realizes
    /// through [`PlannedFaults`] while the pipeline realizes the stalls
    /// and starvation against its workers and pool.
    pub fn arrival_side(&self) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        FaultKind::RateSpike { .. } | FaultKind::JitterBurst { .. }
                    )
                })
                .copied()
                .collect(),
        }
    }

    /// Number of distinct fault kinds scheduled (labels, not parameters).
    pub fn distinct_kinds(&self) -> usize {
        let mut labels: Vec<&str> = self.events.iter().map(|e| e.kind.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// When the last scheduled window ends ([`Nanos::ZERO`] when empty).
    pub fn horizon(&self) -> Nanos {
        self.events
            .iter()
            .map(FaultEvent::end)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Combined rate multiplier at `t` (overlapping spikes multiply).
    pub fn rate_factor(&self, t: Nanos) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(t))
            .filter_map(|e| match e.kind {
                FaultKind::RateSpike { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Whether any stall window covers `t`.
    pub fn stalled(&self, t: Nanos) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::QueueStall) && e.active_at(t))
    }

    /// When a packet arriving at `t` inside a stall gets released: the
    /// latest end among stall windows active at `t` (`t` itself when not
    /// stalled).
    pub fn stall_release(&self, t: Nanos) -> Nanos {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::QueueStall) && e.active_at(t))
            .map(FaultEvent::end)
            .max()
            .unwrap_or(t)
    }

    /// Worst-case starvation fraction at `t`, clamped to `[0, 1]`.
    pub fn starve_fraction(&self, t: Nanos) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(t))
            .filter_map(|e| match e.kind {
                FaultKind::PoolStarve { fraction } => Some(fraction.clamp(0.0, 1.0)),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Worst-case jitter burst at `t`: (max shift, max drop probability)
    /// over active jitter windows; `None` when none is active.
    pub fn jitter_at(&self, t: Nanos) -> Option<(Nanos, f64)> {
        let mut worst: Option<(Nanos, f64)> = None;
        for e in &self.events {
            if let FaultKind::JitterBurst { jitter, drop_prob } = e.kind {
                if e.active_at(t) {
                    let (j, p) = worst.unwrap_or((Nanos::ZERO, 0.0));
                    worst = Some((j.max(jitter), p.max(drop_prob)));
                }
            }
        }
        worst
    }

    /// A deterministic random plan for soak/chaos runs: `events` windows
    /// spread over the middle of `[0, horizon)`, cycling through the four
    /// kinds (so any plan with ≥ 4 events exercises every kind and ≥ 3
    /// events exercises three distinct kinds). Windows are sized
    /// `horizon/40 ..= horizon/10` and always end before `horizon` so
    /// recovery after the last fault is observable.
    pub fn seeded(seed: u64, horizon: Nanos, events: usize) -> FaultPlan {
        let mut rng = Rng::new(seed ^ 0xFA17_1A9E);
        let h = horizon.as_nanos().max(40);
        let mut plan = FaultPlan::new();
        for i in 0..events {
            let dur = rng.range_inclusive(h / 40, h / 10).max(1);
            let at = rng.range_inclusive(h / 20, (h - dur).saturating_sub(h / 20).max(h / 20));
            let kind = match i % 4 {
                0 => FaultKind::RateSpike {
                    factor: 1.5 + rng.f64() * 2.5,
                },
                1 => FaultKind::QueueStall,
                2 => FaultKind::PoolStarve {
                    fraction: 0.3 + rng.f64() * 0.5,
                },
                _ => FaultKind::JitterBurst {
                    jitter: Nanos(rng.range_inclusive(1_000, 50_000)),
                    drop_prob: 0.05 + rng.f64() * 0.25,
                },
            };
            plan.push(Nanos(at), Nanos(dur), kind);
        }
        plan
    }
}

/// Shared, thread-safe record of what an injector actually did — the
/// bridge between boxed arrival processes (unreadable after the run) and
/// the runner's telemetry. All counters are relaxed atomics; safe to read
/// live from a sampler thread.
#[derive(Clone, Debug, Default)]
pub struct InjectionStats {
    inner: Arc<InjectionCounters>,
}

#[derive(Debug, Default)]
struct InjectionCounters {
    drops: AtomicU64,
    duplicated: AtomicU64,
    held: AtomicU64,
}

impl InjectionStats {
    /// Fresh all-zero stats.
    pub fn new() -> Self {
        InjectionStats::default()
    }

    /// Packets the injector suppressed (starvation, jitter loss, or a
    /// rate dip thinning the stream). These are the fault drops a run
    /// must account for.
    pub fn drops(&self) -> u64 {
        self.inner.drops.load(Ordering::Relaxed)
    }

    /// Extra packets a rate spike added beyond the underlying stream.
    pub fn duplicated(&self) -> u64 {
        self.inner.duplicated.load(Ordering::Relaxed)
    }

    /// Packets currently held by an active stall window (gauge). Packets
    /// still held when a run ends are stranded upstream; the sim folds
    /// them into the fault-drop count so conservation stays exact. (Only
    /// a whole plan's stall holds: an arrival-side plan holds nothing.)
    pub fn held(&self) -> u64 {
        self.inner.held.load(Ordering::Relaxed)
    }

    /// Record `n` suppressed packets.
    pub fn add_drops(&self, n: u64) {
        if n > 0 {
            self.inner.drops.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record `n` spike-duplicated packets.
    pub fn add_duplicated(&self, n: u64) {
        if n > 0 {
            self.inner.duplicated.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn hold(&self, n: u64) {
        self.inner.held.fetch_add(n, Ordering::Relaxed);
    }

    fn release(&self, n: u64) {
        self.inner.held.fetch_sub(n, Ordering::Relaxed);
    }
}

/// An [`ArrivalProcess`] under a [`FaultPlan`], every kind realized on
/// the arrival stream: the simulator's realization of a whole plan, and a
/// realtime source's of its [`FaultPlan::arrival_side`].
///
/// * `RateSpike` duplicates arrivals by the active factor (fractional
///   parts resolved per-packet by coin flip), a dip (`factor < 1`) thins
///   the stream and counts the thinned packets as fault drops;
/// * `PoolStarve` refuses admission with the active fraction;
/// * `JitterBurst` drops with the active probability and shifts the
///   survivors backward by up to the active jitter;
/// * `QueueStall` holds arrivals and releases them in a burst when the
///   stall window ends (upstream buffering).
///
/// Accounting invariant (checked by tests): at any drain boundary,
/// `inner_offered + duplicated == emitted + drops + held`.
pub struct PlannedFaults<A> {
    inner: A,
    plan: FaultPlan,
    rng: Rng,
    stats: InjectionStats,
    /// Release instants of stalled packets, non-decreasing.
    held: VecDeque<Nanos>,
    buf: Vec<Nanos>,
}

impl<A: ArrivalProcess> PlannedFaults<A> {
    /// Wrap `inner` under `plan`, drawing per-packet randomness from
    /// `rng`.
    pub fn new(inner: A, plan: FaultPlan, rng: Rng) -> Self {
        PlannedFaults {
            inner,
            plan,
            rng,
            stats: InjectionStats::new(),
            held: VecDeque::new(),
            buf: Vec::new(),
        }
    }

    /// The shared stats handle (clone it out before boxing the process).
    pub fn stats(&self) -> InjectionStats {
        self.stats.clone()
    }

    /// Decide how many copies of an arrival at `t` to offer (0 = thinned
    /// away by a rate dip).
    fn copies_at(&mut self, t: Nanos) -> u64 {
        let f = self.plan.rate_factor(t);
        if f == 1.0 {
            return 1;
        }
        let whole = f.trunc() as u64;
        let frac = f.fract();
        whole + u64::from(frac > 0.0 && self.rng.chance(frac))
    }
}

impl<A: ArrivalProcess> ArrivalProcess for PlannedFaults<A> {
    fn drain(&mut self, until: Nanos, timestamps: Option<&mut Vec<Nanos>>) -> u64 {
        self.buf.clear();
        self.inner.drain(until, Some(&mut self.buf));
        let mut kept: u64 = 0;
        let mut out = timestamps;
        // Stalled packets whose release window has ended come out first.
        while let Some(&release) = self.held.front() {
            if release > until {
                break;
            }
            self.held.pop_front();
            self.stats.release(1);
            kept += 1;
            if let Some(out) = out.as_deref_mut() {
                out.push(release);
            }
        }
        let raw = std::mem::take(&mut self.buf);
        for &t in &raw {
            let copies = self.copies_at(t);
            if copies == 0 {
                self.stats.add_drops(1);
                continue;
            }
            self.stats.add_duplicated(copies - 1);
            for _ in 0..copies {
                let mut emit_at = t;
                if self.plan.starve_fraction(t) > 0.0
                    && self.rng.chance(self.plan.starve_fraction(t))
                {
                    self.stats.add_drops(1);
                    continue;
                }
                if let Some((jitter, drop_prob)) = self.plan.jitter_at(t) {
                    if drop_prob > 0.0 && self.rng.chance(drop_prob) {
                        self.stats.add_drops(1);
                        continue;
                    }
                    if !jitter.is_zero() {
                        // Backward only: stays ≤ until and cheap to order.
                        emit_at = t.saturating_sub(Nanos(self.rng.below(jitter.as_nanos())));
                    }
                }
                if self.plan.stalled(t) {
                    let release = self.plan.stall_release(t);
                    if release > until {
                        self.held.push_back(release);
                        self.stats.hold(1);
                        continue;
                    }
                    // Stall ends within this drain: emit at the release.
                    emit_at = release;
                }
                kept += 1;
                if let Some(out) = out.as_deref_mut() {
                    out.push(emit_at);
                }
            }
        }
        self.buf = raw;
        kept
    }

    fn peek_next(&mut self) -> Option<Nanos> {
        match (self.held.front().copied(), self.inner.peek_next()) {
            (Some(h), Some(n)) => Some(h.min(n)),
            (Some(h), None) => Some(h),
            (None, next) => next,
        }
    }

    fn rate_pps(&self, t: Nanos) -> f64 {
        if self.plan.stalled(t) {
            return 0.0;
        }
        let mut rate = self.inner.rate_pps(t) * self.plan.rate_factor(t);
        rate *= 1.0 - self.plan.starve_fraction(t);
        if let Some((_, drop_prob)) = self.plan.jitter_at(t) {
            rate *= 1.0 - drop_prob;
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::Cbr;

    // ---- FaultPlan ---------------------------------------------------

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn plan_queries_respect_windows() {
        let plan = FaultPlan::new()
            .with(ms(10), ms(10), FaultKind::RateSpike { factor: 3.0 })
            .with(ms(15), ms(10), FaultKind::RateSpike { factor: 2.0 })
            .with(ms(40), ms(5), FaultKind::QueueStall)
            .with(ms(60), ms(5), FaultKind::PoolStarve { fraction: 0.5 })
            .with(
                ms(80),
                ms(5),
                FaultKind::JitterBurst {
                    jitter: Nanos::from_micros(10),
                    drop_prob: 0.2,
                },
            );
        assert_eq!(plan.rate_factor(ms(5)), 1.0);
        assert_eq!(plan.rate_factor(ms(12)), 3.0);
        // Overlapping spikes multiply.
        assert_eq!(plan.rate_factor(ms(17)), 6.0);
        assert!(!plan.stalled(ms(39)));
        assert!(plan.stalled(ms(42)));
        assert_eq!(plan.stall_release(ms(42)), ms(45));
        assert!(!plan.stalled(ms(45))); // end-exclusive
        assert_eq!(plan.starve_fraction(ms(62)), 0.5);
        assert_eq!(plan.starve_fraction(ms(70)), 0.0);
        assert_eq!(plan.jitter_at(ms(81)), Some((Nanos::from_micros(10), 0.2)));
        assert_eq!(plan.jitter_at(ms(90)), None);
        assert_eq!(plan.distinct_kinds(), 4);
        assert_eq!(plan.horizon(), ms(85));
    }

    #[test]
    fn arrival_side_keeps_exactly_the_spikes_and_jitter() {
        let plan = FaultPlan::seeded(3, Nanos::from_secs(1), 8);
        assert_eq!(plan.distinct_kinds(), 4);
        let arrivals = plan.arrival_side();
        let kept: Vec<FaultEvent> = plan
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::RateSpike { .. } | FaultKind::JitterBurst { .. }
                )
            })
            .copied()
            .collect();
        assert_eq!(arrivals.events, kept);
        assert_eq!(arrivals.len(), 4);
        assert_eq!(arrivals.distinct_kinds(), 2);
        // Nothing of the world side is left to query.
        for e in &plan.events {
            assert!(!arrivals.stalled(e.at));
            assert_eq!(arrivals.starve_fraction(e.at), 0.0);
        }
        assert!(FaultPlan::new()
            .with(Nanos::ZERO, Nanos(1), FaultKind::QueueStall)
            .arrival_side()
            .is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_kinds() {
        let a = FaultPlan::seeded(7, Nanos::from_secs(10), 6);
        let b = FaultPlan::seeded(7, Nanos::from_secs(10), 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.distinct_kinds(), 4);
        assert!(a.horizon() <= Nanos::from_secs(10));
        let c = FaultPlan::seeded(8, Nanos::from_secs(10), 6);
        assert_ne!(a, c);
    }

    /// What a clean 1 Mpps CBR offers up to `until` (the exact count,
    /// boundary arrivals included).
    fn cbr_offered(until: Nanos) -> u64 {
        Cbr::new(1e6, Nanos::ZERO).drain(until, None)
    }

    /// Drain a wrapper to `until` and return (emitted, stats).
    fn run_planned(plan: FaultPlan, until: Nanos) -> (u64, Vec<Nanos>, InjectionStats) {
        let mut p = PlannedFaults::new(Cbr::new(1e6, Nanos::ZERO), plan, Rng::new(11));
        let stats = p.stats();
        let mut ts = Vec::new();
        let n = p.drain(until, Some(&mut ts));
        (n, ts, stats)
    }

    #[test]
    fn planned_spike_duplicates() {
        let plan = FaultPlan::new().with(ms(0), ms(20), FaultKind::RateSpike { factor: 2.0 });
        let offered = cbr_offered(ms(10));
        let (n, ts, stats) = run_planned(plan, ms(10));
        assert_eq!(n, 2 * offered);
        assert_eq!(ts.len() as u64, 2 * offered);
        assert_eq!(stats.duplicated(), offered);
        assert_eq!(stats.drops(), 0);
    }

    #[test]
    fn planned_dip_thins_and_counts_drops() {
        let plan = FaultPlan::new().with(ms(0), ms(20), FaultKind::RateSpike { factor: 0.0 });
        let offered = cbr_offered(ms(10));
        let (n, _, stats) = run_planned(plan, ms(10));
        assert_eq!(n, 0);
        assert_eq!(stats.drops(), offered);
    }

    #[test]
    fn planned_starve_drops_fraction() {
        let plan = FaultPlan::new().with(ms(0), ms(200), FaultKind::PoolStarve { fraction: 0.4 });
        let offered = cbr_offered(ms(100));
        let (n, _, stats) = run_planned(plan, ms(100));
        assert!((n as f64 - 0.6 * offered as f64).abs() < 2_000.0, "{n}");
        assert_eq!(n + stats.drops(), offered);
    }

    #[test]
    fn planned_stall_holds_then_releases_in_burst() {
        let plan = FaultPlan::new().with(ms(10), ms(10), FaultKind::QueueStall);
        let mut p = PlannedFaults::new(Cbr::new(1e6, Nanos::ZERO), plan, Rng::new(13));
        let stats = p.stats();
        // Drain to mid-stall: the pre-stall prefix passes, the rest holds.
        let n1 = p.drain(ms(15), None);
        let held_mid = stats.held();
        assert_eq!(n1 + held_mid, cbr_offered(ms(15)));
        assert!(held_mid > 4_000, "{held_mid}");
        // Something is still due no later than the stall release.
        assert!(p.peek_next().is_some_and(|t| t <= ms(20)));
        assert_eq!(p.rate_pps(ms(15)), 0.0);
        // Past the stall: held burst comes out plus the clean tail.
        let mut ts = Vec::new();
        let n2 = p.drain(ms(30), Some(&mut ts));
        assert_eq!(stats.held(), 0);
        assert_eq!(n1 + n2, cbr_offered(ms(30)));
        assert_eq!(stats.drops(), 0);
        // Every stalled packet was released exactly at the window end.
        assert!(ts.iter().filter(|&&t| t == ms(20)).count() as u64 >= held_mid);
    }

    #[test]
    fn planned_jitter_drops_and_shifts() {
        let plan = FaultPlan::new().with(
            ms(0),
            ms(200),
            FaultKind::JitterBurst {
                jitter: Nanos::from_micros(5),
                drop_prob: 0.2,
            },
        );
        let offered = cbr_offered(ms(100));
        let (n, ts, stats) = run_planned(plan, ms(100));
        assert!((n as f64 - 0.8 * offered as f64).abs() < 2_000.0, "{n}");
        assert_eq!(n + stats.drops(), offered);
        assert!(ts.iter().all(|&t| t <= ms(100)));
    }

    #[test]
    fn planned_conservation_under_chaos() {
        // Arbitrary overlapping plan: inner offered + duplicated must
        // equal emitted + drops + held at every drain boundary.
        let plan = FaultPlan::seeded(42, ms(200), 8);
        let mut p = PlannedFaults::new(Cbr::new(1e6, Nanos::ZERO), plan, Rng::new(17));
        let stats = p.stats();
        let mut clean = Cbr::new(1e6, Nanos::ZERO);
        let mut emitted = 0u64;
        let mut offered_inner = 0u64;
        for step in 1..=20u64 {
            emitted += p.drain(ms(step * 10), None);
            offered_inner += clean.drain(ms(step * 10), None);
        }
        assert_eq!(
            offered_inner + stats.duplicated(),
            emitted + stats.drops() + stats.held()
        );
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut clean = Cbr::new(1e6, Nanos::ZERO);
        let mut planned =
            PlannedFaults::new(Cbr::new(1e6, Nanos::ZERO), FaultPlan::new(), Rng::new(1));
        let t = Nanos::from_millis(7);
        assert_eq!(clean.drain(t, None), planned.drain(t, None));
        assert_eq!(planned.stats().drops(), 0);
        assert_eq!(planned.rate_pps(t), clean.rate_pps(t));
    }
}
