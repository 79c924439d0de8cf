//! Calibration constants of the full-system model.
//!
//! Every number here is back-solved from a measurement the paper itself
//! reports (the derivations are spelled out next to each constant and in
//! DESIGN.md §3). Changing them moves absolute values, not the shapes the
//! reproduction targets — but with these values the absolute numbers land
//! close to the paper's too.

use metronome_sim::Nanos;

/// Rx descriptor ring size (descriptors per queue).
///
/// Table I pins this: at line rate the ring must absorb `NV ≈ 494` packets
/// at target vacation 20 µs with 1.18‰ loss, while `NV ≈ 385` (15 µs) is
/// near-lossless — i.e. the ring holds ≈512 packets. X520/XL710 rings are
/// configurable 32–4096, so 512 is a legal and evidently used setting.
pub const RX_RING_SIZE: usize = 512;

/// CPU cycles burned on the wake path of one sleep&wake cycle *after* the
/// timer fires: timer IRQ handling, context switch in, syscall return,
/// cache re-warming.
///
/// Back-solved (together with [`SLEEP_CALL_CYCLES`]) from the paper's idle
/// CPU floor: ≈20% total for M = 3 threads at zero traffic with
/// `V̄ = 10 µs` (Fig. 9b) means each ~34.5 µs cycle costs ≈2.1 µs of CPU,
/// i.e. ≈4400 cycles at 2.1 GHz split across entry and exit paths.
pub const WAKE_PATH_CYCLES: u64 = 2600;

/// CPU cycles burned entering a sleep: syscall entry, hrtimer arming,
/// context switch out. See [`WAKE_PATH_CYCLES`].
pub const SLEEP_CALL_CYCLES: u64 = 1800;

/// Cycles for a failed trylock attempt (read + CMPXCHG miss + branch).
pub const BUSY_TRY_CYCLES: u64 = 160;

/// Cycles for a successful trylock + queue-state load.
pub const ACQUIRE_CYCLES: u64 = 220;

/// Cycles for an empty `rx_burst` poll (descriptor ring scan, no packets).
pub const EMPTY_POLL_CYCLES: u64 = 90;

/// Cycles to release the lock, update the estimator and compute TS.
pub const RELEASE_CYCLES: u64 = 260;

/// Fixed one-way path latency outside the buffering under study: wire,
/// MoonGen timestamping, DMA posting, PCIe.
///
/// Calibrated to the paper's best-case numbers: static DPDK's minimum mean
/// latency is 6.83 µs and tuned Metronome reaches 7.21 µs (§V-C) — both
/// sit on this floor.
pub const BASE_PATH_LATENCY: Nanos = Nanos(6_300);

/// l3fwd's Tx batching threshold: a Tx burst leaves once this many
/// processed packets are waiting (DPDK's `MAX_PKT_BURST`).
pub const TX_BATCH: u64 = 32;

/// l3fwd's Tx drain timeout: DPDK's `BURST_TX_DRAIN_US` default. A partial
/// Tx batch is force-flushed once it has been sitting this long.
pub const TX_DRAIN_TIMEOUT: Nanos = Nanos(100_000);

/// XDP per-packet cost (cycles) for `xdp_router_ipv4`.
///
/// Back-solved from Fig. 10b: ≈200% total CPU across 4 cores at
/// 13.57 Mpps ⇒ ≈50% per core per 3.4 Mpps ⇒ ≈310 cycles/packet at
/// 2.1 GHz. Also consistent with one core being unable to carry 10 G line
/// rate (cap ≈6.7 Mpps), which is why the paper's XDP setup needs 4 cores.
pub const XDP_CYCLES_PER_PACKET: u64 = 310;

/// Per-interrupt housekeeping cost (cycles): IRQ entry/exit, NAPI
/// scheduling, softirq dispatch — "per-interrupt housekeeping instructions
/// required to lead control to the packet processing routine" (§V-D).
pub const XDP_IRQ_CYCLES: u64 = 2_800;

/// NAPI poll budget (packets per softirq poll; Linux default).
pub const NAPI_BUDGET: u64 = 64;

/// Interrupt moderation (ITR) window at high packet rates.
pub const XDP_ITR_HIGH: Nanos = Nanos(50_000);

/// Interrupt moderation window at low rates (adaptive ITR low-latency
/// mode).
pub const XDP_ITR_LOW: Nanos = Nanos(12_000);

/// IRQ delivery latency from DMA completion to handler entry.
pub const IRQ_DELIVERY: Nanos = Nanos(2_500);

/// Default latency sample stride (one in this many accepted packets gets
/// timestamped, MoonGen-style). Prime, so samples never alias with the
/// 32-packet Tx batch positions (a power-of-two stride would always
/// sample the same batch slot and bias the Tx-hold component).
pub const LATENCY_SAMPLE_STRIDE: u64 = 509;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_floor_matches_paper() {
        // M = 3 threads, V̄ = 10 µs, zero traffic: TS = 30 µs, actual sleep
        // ≈ 34.5 µs; per cycle CPU = wake + trylock + empty poll + release
        // + sleep call.
        let cycle_cycles = WAKE_PATH_CYCLES
            + ACQUIRE_CYCLES
            + EMPTY_POLL_CYCLES
            + RELEASE_CYCLES
            + SLEEP_CALL_CYCLES;
        let cycle_cpu_us = cycle_cycles as f64 / 2100.0; // at 2.1 GHz
        let period_us = 34.5;
        let total_pct = 3.0 * cycle_cpu_us / period_us * 100.0;
        assert!(
            (15.0..25.0).contains(&total_pct),
            "idle CPU {total_pct}% should be ≈20% (paper Fig. 9b)"
        );
    }

    #[test]
    fn xdp_single_core_cannot_do_line_rate() {
        let cap_pps = 2.1e9 / XDP_CYCLES_PER_PACKET as f64;
        assert!(cap_pps < 14.88e6, "one XDP core must be below line rate");
        assert!(4.0 * cap_pps > 13.57e6, "four cores must reach 13.57 Mpps");
    }

    #[test]
    fn ring_absorbs_table1_vacations() {
        // 14.88 Mpps × 19.55 µs measured V ≈ 291 packets: fits in 512.
        let nv = 14.88e6 * 19.55e-6;
        assert!((nv as usize) < RX_RING_SIZE);
        // 14.88 Mpps × 33.28 µs ≈ 495: just below 512 (1.18‰ loss regime).
        let nv20 = 14.88e6 * 33.28e-6;
        assert!((nv20 as usize) < RX_RING_SIZE && (nv20 as usize) > 470);
    }
}
