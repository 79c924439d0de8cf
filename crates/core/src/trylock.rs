//! The user-space `trylock()` race primitive.
//!
//! Paper §III-B: "we implemented the race resolution protocol purely at
//! user space via atomic Read-Modify-Write instructions, in particular the
//! CMPXCHG instruction on x86 processors, which has been exploited to build
//! a lightweight trylock() service." Rust's
//! `AtomicBool::compare_exchange` compiles to exactly that instruction on
//! x86-64; the lock is intentionally *non-blocking-only* — there is no
//! contended path, no futex, no parking. A loser immediately goes back to
//! sleep, which is the whole point of the protocol.

use std::sync::atomic::{AtomicBool, Ordering};

/// A non-blocking queue-ownership lock.
///
/// Unlike a mutex there is no blocking acquire: callers either win the
/// CMPXCHG race or give up instantly.
#[derive(Debug, Default)]
pub struct TryLock {
    locked: AtomicBool,
}

impl TryLock {
    /// New unlocked lock.
    pub const fn new() -> Self {
        TryLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Attempt to take the lock. Returns `true` on success. Never blocks.
    #[inline]
    pub fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Release the lock. The caller must hold it (checked in debug builds,
    /// by a load ahead of the store). A plain `Release` store — a `mov` on
    /// x86-64, no bus lock — publishes everything the holder wrote to the
    /// next `try_lock` winner: only the holder ever stores `false`, so
    /// there is nothing to read-modify-write.
    #[inline]
    pub fn unlock(&self) {
        debug_assert!(
            self.locked.load(Ordering::Relaxed),
            "unlock of an unheld TryLock"
        );
        self.locked.store(false, Ordering::Release);
    }

    /// Non-atomically observe whether the lock is currently held
    /// (diagnostics only — the answer may be stale immediately).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn basic_acquire_release() {
        let l = TryLock::new();
        assert!(!l.is_locked());
        assert!(l.try_lock());
        assert!(l.is_locked());
        assert!(!l.try_lock(), "second acquire must fail");
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn exactly_one_winner_per_race() {
        // N threads race repeatedly; every round exactly one must win.
        let lock = Arc::new(TryLock::new());
        let wins = Arc::new(AtomicU64::new(0));
        let in_critical = Arc::new(AtomicU64::new(0));
        let rounds = 2_000u64;
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let wins = Arc::clone(&wins);
            let crit = Arc::clone(&in_critical);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                for _ in 0..rounds {
                    barrier.wait();
                    if lock.try_lock() {
                        // Mutual exclusion: we must be alone here.
                        assert_eq!(crit.fetch_add(1, Ordering::SeqCst), 0);
                        wins.fetch_add(1, Ordering::Relaxed);
                        crit.fetch_sub(1, Ordering::SeqCst);
                        lock.unlock();
                    }
                    barrier.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let w = wins.load(Ordering::Relaxed);
        // At least one winner per round (the first CAS always succeeds)...
        // exactly-one is enforced by the unlock happening before the second
        // barrier, so wins ∈ [rounds, 4*rounds] but mutual exclusion held.
        assert!(w >= rounds, "wins {w} < rounds {rounds}");
    }

    #[test]
    #[should_panic(expected = "unheld")]
    #[cfg(debug_assertions)]
    fn double_unlock_caught_in_debug() {
        let l = TryLock::new();
        l.unlock();
    }
}
