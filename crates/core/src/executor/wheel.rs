//! Hierarchical timer wheel: thousands of concurrent `r_sleep` deadlines
//! amortized into one structure per executor shard.
//!
//! The thread backend pays one [`crate::realtime::PreciseSleeper`] call
//! per sleeping worker; at 1000+ queues that is 1000+ blocked OS threads.
//! The wheel replaces them with a single deadline store the shard polls:
//! 4 levels × 64 slots of hashed buckets, one tick ≈ 16 µs, so level 0
//! spans ≈ 1 ms, level 1 ≈ 67 ms, level 2 ≈ 4.3 s and level 3 ≈ 4.6 min
//! (longer deadlines clamp into the top level and re-cascade by their
//! true deadline until they fit). Insert and cancel are O(1); advancing
//! one tick touches one level-0 slot plus the occasional cascade.
//!
//! Coalescing falls out of the layout: every deadline inside one 16 µs
//! tick lands in the same slot and fires in the same `advance` call —
//! the shard wakes once per tick with work, not once per timer.
//!
//! Cancellation is by *generation*: entries carry the arming generation
//! of their task, and the executor bumps the task's generation when a
//! doorbell wake (or a new sleep) obsoletes a pending timer. Stale
//! entries still fire here but are discarded by the caller's generation
//! check — O(1) cancel with no search.
//!
//! The wheel is deliberately clock-free: callers pass `now` explicitly
//! (nanoseconds since an epoch they own), which keeps the whole suite
//! below unit-testable without real time.

/// Slots per level (64: one `u64`-friendly power of two).
const SLOTS: usize = 64;
/// log2(SLOTS).
const SLOT_BITS: u32 = 6;
/// Number of levels.
const LEVELS: usize = 4;

/// An armed timer: which task to wake and the generation it was armed
/// under. A fired entry whose generation no longer matches the task's
/// current one is a cancelled timer and must be ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerEntry {
    /// Shard-local index of the task to wake.
    pub task: usize,
    /// The task's arming generation when this timer was inserted.
    pub gen: u64,
}

/// The hierarchical wheel. See the module docs for the layout.
#[derive(Debug)]
pub struct TimerWheel {
    tick_ns: u64,
    /// The last tick `advance` fully processed.
    current: u64,
    /// `LEVELS × SLOTS` buckets of `(deadline_tick, entry)`, flattened.
    /// A bucket is emptied in place, so the capacity it grew to is there
    /// for its next lap: a steady timer load allocates nothing.
    slots: Vec<Vec<(u64, TimerEntry)>>,
    /// Bit `b` is set iff level-0 bucket `b` holds entries. Between
    /// `advance` calls those all carry one deadline, the one tick in
    /// `(current, current + SLOTS)` congruent to `b`.
    level0: u64,
    pending: usize,
    /// Cumulative count of entries re-placed by cascades (tracing reads
    /// this as a delta across `advance` calls).
    cascaded: u64,
}

impl TimerWheel {
    /// An empty wheel with the given tick length in nanoseconds.
    pub fn new(tick_ns: u64) -> Self {
        TimerWheel {
            tick_ns: tick_ns.max(1),
            current: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            level0: 0,
            pending: 0,
            cascaded: 0,
        }
    }

    /// The tick length in nanoseconds.
    pub fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// Armed timers currently in the wheel (including cancelled ones not
    /// yet fired-and-discarded).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Total entries re-placed by cascades since construction. Monotone;
    /// a tracer reads it before and after [`TimerWheel::advance`] and
    /// records the delta as one cascade event.
    pub fn cascaded(&self) -> u64 {
        self.cascaded
    }

    /// Arm a timer for `deadline_ns` (nanoseconds on the caller's clock).
    /// The deadline is rounded **up** to the next tick boundary — the
    /// sleep-at-least contract of `r_sleep` — and never earlier than the
    /// next unprocessed tick.
    pub fn insert(&mut self, deadline_ns: u64, entry: TimerEntry) {
        let deadline_tick = deadline_ns
            .div_ceil(self.tick_ns)
            .max(self.current.wrapping_add(1));
        self.place(deadline_tick, entry);
        self.pending += 1;
    }

    fn place(&mut self, deadline_tick: u64, entry: TimerEntry) {
        let delta = deadline_tick.saturating_sub(self.current);
        let level = (0..LEVELS)
            .find(|&l| delta < 1u64 << (SLOT_BITS * (l as u32 + 1)))
            .unwrap_or(LEVELS - 1);
        // Deadlines beyond the wheel's span clamp into the top level by
        // slot position only; the true deadline rides along and the entry
        // re-cascades until it fits.
        let span = 1u64 << (SLOT_BITS * LEVELS as u32);
        let slot_tick = if delta >= span {
            self.current + span - 1
        } else {
            deadline_tick
        };
        let idx = ((slot_tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + idx].push((deadline_tick, entry));
        if level == 0 {
            self.level0 |= 1 << idx;
        }
    }

    /// Empty bucket `at` through `each`, which may re-place entries into
    /// *other* buckets. The bucket's allocation is lifted out for the walk
    /// and put back after it, so its capacity survives.
    fn drain_bucket(&mut self, at: usize, mut each: impl FnMut(&mut Self, u64, TimerEntry)) {
        let mut bucket = std::mem::take(&mut self.slots[at]);
        for (deadline_tick, entry) in bucket.drain(..) {
            each(self, deadline_tick, entry);
        }
        debug_assert!(self.slots[at].is_empty(), "an entry re-entered its bucket");
        self.slots[at] = bucket;
    }

    /// Process every tick up to `now_ns`, calling `fire` for each entry
    /// whose deadline has passed. Entries fire in tick order (entries of
    /// one tick in arbitrary order); an empty wheel fast-forwards.
    pub fn advance(&mut self, now_ns: u64, fire: &mut impl FnMut(TimerEntry)) {
        let target = now_ns / self.tick_ns;
        if self.pending == 0 {
            self.current = self.current.max(target);
            return;
        }
        while self.current < target {
            self.current += 1;
            let t = self.current;
            // Cascade: each time a level's window wraps, re-place the
            // next higher slot's entries by their true deadlines.
            for level in 1..LEVELS {
                if t & ((1u64 << (SLOT_BITS * level as u32)) - 1) != 0 {
                    break;
                }
                let idx = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.cascaded += self.slots[level * SLOTS + idx].len() as u64;
                self.drain_bucket(level * SLOTS + idx, Self::place);
            }
            let bucket = (t & (SLOTS as u64 - 1)) as usize;
            if self.level0 & (1 << bucket) == 0 {
                continue;
            }
            self.level0 &= !(1 << bucket);
            self.drain_bucket(bucket, |wheel, deadline_tick, entry| {
                debug_assert!(deadline_tick == t, "level-0 entry fires at its own tick");
                wheel.pending -= 1;
                fire(entry);
            });
        }
    }

    /// The earliest armed deadline in nanoseconds, if any — what the
    /// shard's idle wait sleeps toward, after every sweep. Answered from
    /// the level-0 occupancy word when the first occupied bucket fires
    /// before the next level-1 cascade: every entry of a higher level is
    /// due at or after that cascade's tick, so nothing can undercut it.
    /// Otherwise (level 0 empty, or its first deadline beyond the
    /// cascade) `scan_deadline_tick` looks at everything.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let next = self.current + 1;
        let ahead = self
            .level0
            .rotate_right((next % SLOTS as u64) as u32)
            .trailing_zeros();
        let cascade = (self.current | (SLOTS as u64 - 1)) + 1;
        let tick = match next + u64::from(ahead) {
            tick if self.level0 != 0 && tick < cascade => tick,
            _ => self.scan_deadline_tick()?,
        };
        Some(tick.saturating_mul(self.tick_ns))
    }

    /// The earliest armed deadline tick by looking at every entry:
    /// O(buckets + pending).
    fn scan_deadline_tick(&self) -> Option<u64> {
        self.slots
            .iter()
            .flatten()
            .map(|&(deadline_tick, _)| deadline_tick)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(task: usize, gen: u64) -> TimerEntry {
        TimerEntry { task, gen }
    }

    #[test]
    fn coalesces_deadlines_of_one_tick_into_one_advance() {
        let mut w = TimerWheel::new(1_000);
        // Three deadlines inside tick 1, one in tick 2.
        w.insert(100, entry(0, 0));
        w.insert(400, entry(1, 0));
        w.insert(900, entry(2, 0));
        w.insert(1_500, entry(3, 0));
        let mut fired = Vec::new();
        w.advance(1_000, &mut |e| fired.push(e.task));
        fired.sort_unstable();
        assert_eq!(fired, vec![0, 1, 2], "one tick fires its whole bucket");
        assert_eq!(w.pending(), 1);
        w.advance(2_000, &mut |e| fired.push(e.task));
        assert_eq!(fired.len(), 4);
    }

    #[test]
    fn deadlines_round_up_never_early() {
        let mut w = TimerWheel::new(1_000);
        w.insert(1_001, entry(0, 0)); // rounds up to tick 2
        let mut fired = 0;
        w.advance(1_000, &mut |_| fired += 1);
        assert_eq!(fired, 0, "must not fire before the deadline");
        w.advance(2_000, &mut |_| fired += 1);
        assert_eq!(fired, 1);
    }

    #[test]
    fn cascade_fires_long_deadlines_at_the_right_tick() {
        // 100_000 ticks out: lives in level 2, must cascade down through
        // level 1 and fire exactly on time.
        let mut w = TimerWheel::new(1_000);
        let deadline = 100_000 * 1_000u64;
        w.insert(deadline, entry(7, 3));
        let mut fired = Vec::new();
        // Walk up in uneven chunks to cross several cascade boundaries.
        let mut now = 0u64;
        while now < deadline - 1_000 {
            now += 37_777;
            w.advance(now.min(deadline - 1_000), &mut |e| fired.push(e));
        }
        assert!(fired.is_empty(), "fired {fired:?} before the deadline");
        w.advance(deadline, &mut |e| fired.push(e));
        assert_eq!(fired, vec![entry(7, 3)], "exactly one fire, on time");
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn deadlines_beyond_the_span_clamp_and_still_fire() {
        let mut w = TimerWheel::new(1);
        let span = 1u64 << 24; // 64^4 ticks at tick_ns = 1
        let deadline = span * 3 + 12_345;
        w.insert(deadline, entry(1, 0));
        let mut fired = Vec::new();
        let mut now = 0u64;
        while now < deadline {
            now = (now + span / 2).min(deadline);
            w.advance(now, &mut |e| fired.push(e));
            if now < deadline {
                assert!(fired.is_empty(), "fired early at now={now}");
            }
        }
        assert_eq!(fired.len(), 1, "clamped entry must re-cascade and fire");
    }

    #[test]
    fn cancel_on_wake_discards_stale_generations() {
        // The executor's cancellation protocol: a doorbell wake bumps the
        // task's generation, orphaning the armed fallback timer. The stale
        // entry still pops out of the wheel, but the generation check
        // identifies it as cancelled.
        let mut w = TimerWheel::new(1_000);
        w.insert(5_000, entry(4, 1));
        let current_gen = 2u64; // the task woke; its generation moved on
        let mut live = Vec::new();
        w.advance(10_000, &mut |e| {
            if e.gen == current_gen {
                live.push(e);
            }
        });
        assert!(live.is_empty(), "stale-generation timer must be a no-op");
        assert_eq!(w.pending(), 0, "the stale entry left the wheel");
    }

    #[test]
    fn next_deadline_tracks_the_minimum() {
        let mut w = TimerWheel::new(1_000);
        assert_eq!(w.next_deadline_ns(), None);
        w.insert(90_000, entry(0, 0));
        w.insert(7_000, entry(1, 0));
        w.insert(2_000_000, entry(2, 0));
        assert_eq!(w.next_deadline_ns(), Some(7_000));
        let mut fired = 0;
        w.advance(10_000, &mut |_| fired += 1);
        assert_eq!(fired, 1);
        assert_eq!(w.next_deadline_ns(), Some(90_000));
    }

    #[test]
    fn buckets_keep_their_capacity_from_lap_to_lap() {
        // The shard's steady state: a handful of timers re-armed a tick or
        // two ahead every tick, for ten laps of level 0 — plus one long
        // timer per lap, so cascades are drained the same way.
        let mut w = TimerWheel::new(1_000);
        let capacities = |w: &TimerWheel| w.slots.iter().map(Vec::capacity).collect::<Vec<_>>();
        let mut before = capacities(&w);
        let mut fired = Vec::new();
        for tick in 0..10 * SLOTS as u64 {
            for task in 0..5 {
                w.insert((tick + 1 + task % 2) * 1_000, entry(task as usize, tick));
            }
            if tick % SLOTS as u64 == 0 {
                w.insert((tick + 100) * 1_000, entry(99, tick));
            }
            fired.clear();
            w.advance((tick + 1) * 1_000, &mut |e| fired.push(e));
            // Nothing is lost or doubled, and a bucket fires in the order
            // it was filled: the long timer (cascaded into it ticks ago),
            // last tick's odd tasks (armed two ahead), this tick's even
            // ones (armed one ahead).
            let mut expected = Vec::new();
            if tick >= 99 && (tick - 99) % SLOTS as u64 == 0 {
                expected.push(entry(99, tick - 99));
            }
            if tick > 0 {
                expected.extend([1, 3].map(|task| entry(task, tick - 1)));
            }
            expected.extend([0, 2, 4].map(|task| entry(task, tick)));
            assert_eq!(fired, expected, "tick {tick}");
            let after = capacities(&w);
            for (bucket, (was, is)) in before.iter().zip(&after).enumerate() {
                assert!(
                    is >= was,
                    "tick {tick}: bucket {bucket} shrank {was} -> {is}"
                );
            }
            before = after;
        }
        assert_eq!(
            w.pending(),
            2 + 1,
            "the odd tasks armed last, and the long timer"
        );
        assert!(before.iter().filter(|&&c| c > 0).count() >= SLOTS);
    }

    proptest! {
        /// The occupancy-word answer is the scan's answer, whatever was
        /// armed and however time moved: deadlines from the next tick to
        /// beyond the wheel's span, advances from none to many laps.
        #[test]
        fn next_deadline_agrees_with_the_scan(
            ops in prop::collection::vec((any::<bool>(), 0u32..25, 0u64..64), 1..200),
        ) {
            let mut w = TimerWheel::new(1_000);
            let mut now = 0u64;
            let mut armed = 0usize;
            let mut fired = 0usize;
            for (insert, magnitude, jitter) in ops {
                // 2^magnitude-ish: most mass near, some on every level.
                let span = (1u64 << magnitude) + jitter;
                if insert {
                    w.insert(now + span * 1_000 / 64, entry(armed, 0));
                    armed += 1;
                } else {
                    now += span.min(1 << 14) * 1_000 / 64;
                    w.advance(now, &mut |_| fired += 1);
                }
                let scanned = w.scan_deadline_tick().map(|tick| tick * 1_000);
                prop_assert_eq!(w.next_deadline_ns(), scanned);
                prop_assert_eq!(w.pending(), armed - fired);
                if let Some(deadline) = scanned {
                    prop_assert!(deadline > now - now % 1_000, "a due timer did not fire");
                }
            }
        }
    }

    #[test]
    fn cascaded_counts_replaced_entries() {
        let mut w = TimerWheel::new(1_000);
        // Level-2 deadline: must ride at least one cascade down.
        w.insert(100_000 * 1_000, entry(0, 0));
        assert_eq!(w.cascaded(), 0);
        let mut fired = 0;
        w.advance(100_000 * 1_000, &mut |_| fired += 1);
        assert_eq!(fired, 1);
        assert!(w.cascaded() >= 1, "long deadline must cascade down");
        // Short deadlines never cascade.
        let before = w.cascaded();
        w.insert(100_001 * 1_000, entry(1, 0));
        w.advance(100_001 * 1_000, &mut |_| {});
        assert_eq!(w.cascaded(), before);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_tick() {
        let mut w = TimerWheel::new(1_000);
        w.advance(50_000, &mut |_| {});
        w.insert(10_000, entry(0, 0)); // already in the past
        let mut fired = 0;
        w.advance(51_000, &mut |_| fired += 1);
        assert_eq!(fired, 1, "past deadline fires on the very next tick");
    }
}
