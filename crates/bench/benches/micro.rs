//! Microbenchmarks of the hot primitives every experiment leans on.

use criterion::{criterion_group, criterion_main, Criterion};
use metronome_apps::processor::PacketProcessor;
use metronome_apps::{FloWatcher, L3Fwd};
use metronome_core::TryLock;
use metronome_dpdk::{Mbuf, RxRingModel};
use metronome_net::checksum::internet_checksum;
use metronome_net::headers::{build_udp_frame, Mac};
use metronome_net::toeplitz::Toeplitz;
use metronome_net::{ExactMatch, FiveTuple};
use metronome_sim::{EventQueue, Nanos, Rng};
use metronome_traffic::{ArrivalProcess, Cbr};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn tuple(i: u32) -> FiveTuple {
    FiveTuple::udp(
        Ipv4Addr::from(0x0a00_0000 | i),
        (1000 + i % 60_000) as u16,
        Ipv4Addr::new(10, 200, 0, 1),
        80,
    )
}

fn bench_trylock(c: &mut Criterion) {
    let lock = TryLock::new();
    c.bench_function("micro/trylock_acquire_release", |b| {
        b.iter(|| {
            assert!(lock.try_lock());
            lock.unlock();
        })
    });
    c.bench_function("micro/trylock_contended_fail", |b| {
        assert!(lock.try_lock());
        b.iter(|| black_box(lock.try_lock()));
        lock.unlock();
    });
}

fn bench_toeplitz(c: &mut Criterion) {
    let tz = Toeplitz::default();
    let input = tuple(7).rss_input();
    c.bench_function("micro/toeplitz_hash_12b", |b| {
        b.iter(|| black_box(tz.hash(black_box(&input))))
    });
}

fn bench_exact_match(c: &mut Criterion) {
    let mut em = ExactMatch::with_capacity(65_536);
    for i in 0..50_000u32 {
        em.insert(tuple(i), i).unwrap();
    }
    c.bench_function("micro/exact_match_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 7919) % 50_000;
            black_box(em.get(&tuple(i)))
        })
    });
}

fn bench_checksum(c: &mut Criterion) {
    let frame = build_udp_frame(Mac::local(1), Mac::local(2), &tuple(1), &[0u8; 1400], 1458);
    c.bench_function("micro/internet_checksum_1458b", |b| {
        b.iter(|| black_box(internet_checksum(black_box(&frame))))
    });
}

fn bench_apps(c: &mut Criterion) {
    let mk = || {
        let t = FiveTuple::udp(
            Ipv4Addr::new(192, 168, 0, 1),
            1000,
            Ipv4Addr::new(10, 2, 1, 1),
            2000,
        );
        Mbuf::from_bytes(build_udp_frame(Mac::local(1), Mac::local(2), &t, &[], 64))
    };
    c.bench_function("micro/l3fwd_process", |b| {
        let mut fwd = L3Fwd::with_sample_routes(8);
        let mut m = mk();
        b.iter(|| black_box(fwd.process(&mut m)))
    });
    c.bench_function("micro/flowatcher_process", |b| {
        let mut fw = FloWatcher::new(65_536);
        let mut m = mk();
        b.iter(|| black_box(fw.process(&mut m)))
    });
}

fn bench_ring(c: &mut Criterion) {
    c.bench_function("micro/rx_ring_model_offer_take", |b| {
        let mut ring = RxRingModel::new(512);
        b.iter(|| {
            ring.offer(32);
            black_box(ring.take(32))
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("micro/event_queue_schedule_pop_x64", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..64u64 {
                q.schedule(Nanos(i * 13 % 977), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn bench_arrivals(c: &mut Criterion) {
    c.bench_function("micro/cbr_drain_line_rate_100us", |b| {
        let mut cbr = Cbr::new(14_880_952.0, Nanos::ZERO);
        let mut t = Nanos::ZERO;
        b.iter(|| {
            t += Nanos::from_micros(100);
            black_box(cbr.drain(t, None))
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("micro/xoshiro_next", |b| {
        let mut rng = Rng::new(3);
        b.iter(|| black_box(rng.next_u64()))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1));
    targets =
        bench_trylock,
        bench_toeplitz,
        bench_exact_match,
        bench_checksum,
        bench_apps,
        bench_ring,
        bench_event_queue,
        bench_arrivals,
        bench_stats
}
criterion_main!(micro);
