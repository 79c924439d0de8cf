//! The calling thread's timer slack: how late the kernel may fire an OS
//! sleep's timer to batch it with others, so the floor under the wake
//! overshoot a [`crate::realtime::WakeEstimate`] learns.
//!
//! Linux gives every thread 50 µs of it by default, and an OS sleep then
//! overshoots by ≈ 56 µs at the p90 — longer than a Metronome `TS`, and
//! longer than most of a paced generator's gaps, so both spin instead of
//! sleeping. The paper's Fig. 1 baseline is `nanosleep` with the slack
//! lowered by `prctl(PR_SET_TIMERSLACK)`; at 1 µs the p90 overshoot is
//! ≈ 7 µs. [`LoweredSlack`] does that for the thread that holds it, and
//! only while it holds it: every thread that owns a sleeper (a thread
//! worker, an executor shard, a producer) takes one for as long as it
//! runs library code, and the caller's own slack comes back when it
//! drops. `prctl` acts on the calling thread alone; the process-wide
//! `/proc/self/timerslack_ns` is never written.
//!
//! The crate's one FFI call lives here. The memory-safety argument is
//! confined to this module; the rest of the crate remains
//! `#[deny(unsafe_code)]`-clean.
#![allow(unsafe_code)]

use std::marker::PhantomData;

/// The slack a [`LoweredSlack`] sets, ns: the paper's lowered one.
pub const LOWERED_SLACK_NS: u64 = 1_000;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        // Variadic, as glibc declares it.
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// `prctl(option, arg)` for the two timer-slack options, which act on
    /// the calling thread alone.
    fn timerslack(option: c_int, arg: c_ulong) -> c_int {
        let zero: c_ulong = 0;
        // SAFETY: `option` is PR_GET_TIMERSLACK or PR_SET_TIMERSLACK (the
        // module's only callers). Both take and return integers only: no
        // pointer crosses the call and no memory of ours is written. The
        // unused arguments are passed as `unsigned long` zeros, as the
        // variadic ABI expects. A value the kernel refuses returns -1 and
        // changes nothing.
        unsafe { prctl(option, arg, zero, zero, zero) }
    }

    pub(super) fn get() -> Option<u64> {
        u64::try_from(timerslack(PR_GET_TIMERSLACK, 0)).ok()
    }

    pub(super) fn set(ns: u64) -> bool {
        timerslack(PR_SET_TIMERSLACK, ns as c_ulong) == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn get() -> Option<u64> {
        None
    }

    pub(super) fn set(_ns: u64) -> bool {
        false
    }
}

/// The calling thread's timer slack, ns (`PR_GET_TIMERSLACK`); `None`
/// where the platform has no per-thread slack or the call fails.
pub fn thread_timer_slack() -> Option<u64> {
    sys::get()
}

/// The calling thread's timer slack lowered to [`LOWERED_SLACK_NS`] until
/// this guard drops, which restores the value it found. Not `Send`: the
/// slack it restores is its own thread's, so it must drop there.
#[derive(Debug)]
#[must_use = "the slack is restored when the guard drops"]
pub struct LoweredSlack {
    /// The slack to put back, when there was one and lowering took.
    restore: Option<u64>,
    _thread: PhantomData<*const ()>,
}

impl LoweredSlack {
    /// Lower the calling thread's slack. Where the platform has no
    /// per-thread slack this changes nothing, and neither does the drop.
    pub fn lower() -> LoweredSlack {
        let restore = thread_timer_slack().filter(|_| sys::set(LOWERED_SLACK_NS));
        LoweredSlack {
            restore,
            _thread: PhantomData,
        }
    }
}

impl Drop for LoweredSlack {
    fn drop(&mut self) {
        if let Some(ns) = self.restore {
            sys::set(ns);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_thread_that_takes_the_guard_runs_lowered_and_its_spawner_does_not() {
        let before = thread_timer_slack().expect("PR_GET_TIMERSLACK");
        let seen = std::thread::spawn(|| {
            let _slack = LoweredSlack::lower();
            thread_timer_slack()
        })
        .join()
        .unwrap();
        assert_eq!(seen, Some(LOWERED_SLACK_NS));
        assert_eq!(thread_timer_slack(), Some(before));
    }

    #[test]
    fn the_guard_restores_the_slack_it_found() {
        std::thread::spawn(|| {
            // A thread inherits its spawner's slack; start from a value
            // of our own so the restore is seen to restore that one.
            assert!(sys::set(37_000));
            {
                let _slack = LoweredSlack::lower();
                assert_eq!(thread_timer_slack(), Some(LOWERED_SLACK_NS));
            }
            assert_eq!(thread_timer_slack(), Some(37_000));
        })
        .join()
        .unwrap();
    }
}
