//! The IPsec gateway transforms a pooled frame inside its own dataroom:
//! no heap allocation per packet, in either direction.
//!
//! A test binary of its own because the proof is a counting
//! `#[global_allocator]`, which is per binary. The count is per thread, so
//! the test harness's own threads cannot disturb it.

use metronome_apps::ipsec::IpsecGateway;
use metronome_apps::processor::{PacketProcessor, Verdict};
use metronome_dpdk::Mempool;
use metronome_net::headers::{build_udp_frame, Mac};
use metronome_net::FiveTuple;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's; the counter is a const-initialised, destructor-free
// thread-local `Cell`, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` because every block here does.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn pooled_frames_cross_the_gateway_both_ways_without_allocating() {
    let pool = Mempool::new(4, 2048);
    let tuple = FiveTuple::udp(
        Ipv4Addr::new(10, 0, 0, 1),
        1000,
        Ipv4Addr::new(10, 0, 0, 2),
        2000,
    );
    let plain = build_udp_frame(Mac::local(1), Mac::local(2), &tuple, b"top secret", 64);
    let mut outbound = IpsecGateway::outbound();
    let mut inbound = IpsecGateway::inbound();

    // The counter counts: a control that must not read zero.
    let before = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocations() - before, 1);

    let before = allocations();
    for _ in 0..1000 {
        let mut m = pool.alloc_with(&plain).expect("the pool is never empty");
        assert_eq!(outbound.process(&mut m), Verdict::Forward);
        assert!(m.len() > plain.len());
        assert_eq!(inbound.process(&mut m), Verdict::Forward);
        assert_eq!(m.bytes(), &plain[..]);
        pool.free(m);
    }
    assert_eq!(
        allocations() - before,
        0,
        "1000 outbound and 1000 inbound `process` calls on pooled mbufs"
    );
    assert_eq!((outbound.processed, inbound.processed), (1000, 1000));
    assert_eq!(pool.in_use(), 0);
}
