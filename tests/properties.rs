//! Property-based tests (proptest) on the core data structures and the
//! analytical model: invariants that must hold for *any* input, not just
//! the paper's operating points.

use metronome_repro::core::model;
use metronome_repro::core::MetronomeConfig;
use metronome_repro::dpdk::{Mbuf, Mempool, RxRingModel, SharedRing};
use metronome_repro::net::aes::Aes128;
use metronome_repro::net::checksum::{internet_checksum, verify};
use metronome_repro::net::headers::{build_udp_frame, l3fwd_rewrite, parse_frame, Mac};
use metronome_repro::net::lpm::Lpm;
use metronome_repro::net::toeplitz::Toeplitz;
use metronome_repro::net::{ExactMatch, FiveTuple};
use metronome_repro::runtime::{run, Scenario, TrafficSpec};
use metronome_repro::sim::stats::{Histogram, MeanVar};
use metronome_repro::sim::{EventQueue, Nanos};
use metronome_repro::traffic::{ArrivalProcess, Cbr, FaultKind, FaultPlan};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (any::<u32>(), any::<u16>(), any::<u32>(), any::<u16>())
        .prop_map(|(s, sp, d, dp)| FiveTuple::udp(Ipv4Addr::from(s), sp, Ipv4Addr::from(d), dp))
}

proptest! {
    /// The counting ring model and the ring the realtime datapath runs on
    /// agree on any offer/take schedule (the hybrid-DES core assumption).
    #[test]
    fn ring_model_matches_real_ring(ops in prop::collection::vec((0u64..48, 0u64..48), 1..200)) {
        let real = SharedRing::new(64);
        let mut model = RxRingModel::new(64);
        let mut frames = Vec::new();
        let mut out = Vec::new();
        for (offer, take) in ops {
            frames.clear();
            frames.extend((0..offer).map(|_| Mbuf::from_bytes(Default::default())));
            let accepted = real.offer_burst(&mut frames) as u64;
            prop_assert_eq!(model.offer(offer), accepted);
            out.clear();
            let took = real.pop_burst(&mut out, take as usize) as u64;
            prop_assert_eq!(model.take(take), took);
            prop_assert_eq!(model.occupancy(), real.occupancy() as u64);
            prop_assert_eq!(model.total_accepted(), real.accepted());
            prop_assert_eq!(model.total_dropped(), real.dropped());
        }
    }

    /// Ring conservation: accepted = drained + still queued; offered =
    /// accepted + dropped.
    #[test]
    fn ring_conserves_packets(ops in prop::collection::vec((0u64..100, 0u64..100), 1..100)) {
        let mut m = RxRingModel::new(128);
        let mut offered = 0;
        for (o, t) in ops {
            offered += o;
            m.offer(o);
            m.take(t);
        }
        prop_assert_eq!(m.total_accepted() + m.total_dropped(), offered);
        prop_assert_eq!(m.total_accepted(), m.total_drained() + m.occupancy());
        prop_assert!(m.occupancy() <= m.capacity());
    }

    /// Mempool never double-hands a buffer and never exceeds population.
    #[test]
    fn mempool_bounded(ops in prop::collection::vec(any::<bool>(), 1..300)) {
        let pool = Mempool::new(16, 64);
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(m) = pool.alloc() {
                    held.push(m);
                }
            } else if let Some(m) = held.pop() {
                pool.free(m);
            }
            prop_assert_eq!(pool.in_use(), held.len());
            prop_assert!(pool.in_use() <= pool.population());
        }
    }

    /// Mempool conservation over arbitrary interleavings of every alloc
    /// and free flavor (single, template-fill, burst): the population is
    /// constant — every buffer is always either in the freelist or held
    /// by the caller — no leak, no double-hand-out, counters consistent,
    /// and every buffer handed out is clean no matter how dirty it was
    /// returned.
    #[test]
    fn mempool_interleavings_conserve(
        ops in prop::collection::vec((0u8..5, 1usize..8), 1..200)
    ) {
        let pool = Mempool::new(24, 64);
        let mut held: Vec<metronome_repro::dpdk::Mbuf> = Vec::new();
        let mut scratch = Vec::new();
        for (op, n) in ops {
            match op {
                0 => {
                    if let Some(m) = pool.alloc() {
                        prop_assert!(m.is_empty(), "recycled buffer not cleared");
                        held.push(m);
                    }
                }
                1 => {
                    if let Some(mut m) = pool.alloc_with(b"dirty payload") {
                        prop_assert_eq!(m.bytes(), &b"dirty payload"[..]);
                        // Dirty it further so recycling has to clean it.
                        m.bytes_mut()[0] = 0xFF;
                        held.push(m);
                    }
                }
                2 => {
                    let got = pool.alloc_burst(n, &mut scratch);
                    prop_assert_eq!(got, scratch.len());
                    for m in scratch.drain(..) {
                        prop_assert!(m.is_empty(), "burst buffer not cleared");
                        held.push(m);
                    }
                }
                3 => {
                    if let Some(m) = held.pop() {
                        pool.free(m);
                    }
                }
                _ => {
                    let k = n.min(held.len());
                    pool.free_burst(held.drain(..k));
                }
            }
            // Population constant: held + free always covers the pool.
            prop_assert_eq!(pool.in_use(), held.len());
            prop_assert_eq!(pool.available() + pool.in_use(), pool.population());
            // Counter audit: hand-outs minus returns = outstanding.
            let (allocs, frees) = pool.counters();
            prop_assert_eq!(allocs - frees, held.len() as u64);
            prop_assert!(pool.in_use_peak() >= pool.in_use());
        }
        // Returning everything restores the full freelist exactly.
        pool.free_burst(held.drain(..));
        prop_assert_eq!(pool.available(), pool.population());
        let (allocs, frees) = pool.counters();
        prop_assert_eq!(allocs, frees);
    }

    /// Mempool conservation with per-worker caches in the loop: arbitrary
    /// interleavings of cached and direct alloc/free (single and burst,
    /// forcing spills and refills with small cache sizes), with buffers
    /// freed through *any* handle regardless of where they were allocated.
    /// Cache hits settle into the pool's counters at the cache's next
    /// freelist transaction, so the contract has two halves. Between
    /// *every* step, whatever is unsettled: `available() + in_use() ==
    /// population` (cached buffers count as available, like
    /// `rte_mempool_avail_count`), no gauge wraps or leaves its range, the
    /// peak never over-reads the population, the settled counters never
    /// run ahead of the truth, and `in_use()` is off by less than the
    /// caches can hold. Buffers are created on demand: the created count
    /// never falls, never passes the population, and never runs ahead of
    /// the peak by more than the caches can park (2C each) plus the
    /// largest single request, on a pool the ops can drain (32) and on one
    /// they cannot (512). Once every cache has flushed: every figure exact.
    #[test]
    fn mempool_cached_interleavings_conserve(
        ops in prop::collection::vec((0u8..3, 0u8..5, 1usize..8), 1..200),
        roomy in any::<bool>(),
    ) {
        let population = if roomy { 512 } else { 32 };
        let pool = Mempool::new(population, 64);
        // Handle 0 is the bare pool; 1 and 2 are worker caches small
        // enough (2, 3) that bursts of up to 7 regularly bypass, refill,
        // and spill.
        let mut caches = vec![pool.cache(2), pool.cache(3)];
        // A cache parks at most a refill's worth: the need (<= 2C) + C.
        let cache_room: usize = caches.iter().map(|c| 3 * c.size()).sum();
        let parked_room: usize = caches.iter().map(|c| 2 * c.size()).sum();
        let (mut made, mut largest) = (0usize, 0usize);
        let mut held: Vec<metronome_repro::dpdk::Mbuf> = Vec::new();
        let mut scratch = Vec::new();
        let (mut true_allocs, mut true_frees) = (0u64, 0u64);
        for (which, op, n) in ops {
            let cache = which.checked_sub(1).map(|i| &mut caches[i as usize]);
            let mut all_flushed = false;
            largest = largest.max(match op {
                0 => 1,
                1 => n,
                _ => 0,
            });
            match op {
                0 => {
                    let got = match cache {
                        Some(c) => c.alloc(),
                        None => pool.alloc(),
                    };
                    if let Some(m) = got {
                        prop_assert!(m.is_empty(), "recycled buffer not cleared");
                        held.push(m);
                        true_allocs += 1;
                    }
                }
                1 => {
                    let got = match cache {
                        Some(c) => c.alloc_burst(n, &mut scratch),
                        None => pool.alloc_burst(n, &mut scratch),
                    };
                    prop_assert_eq!(got, scratch.len());
                    true_allocs += got as u64;
                    held.append(&mut scratch);
                }
                2 => {
                    if let Some(m) = held.pop() {
                        match cache {
                            Some(c) => c.free(m),
                            None => pool.free(m),
                        }
                        true_frees += 1;
                    }
                }
                3 => {
                    let k = n.min(held.len());
                    match cache {
                        Some(c) => c.free_burst(held.drain(..k)),
                        None => pool.free_burst(held.drain(..k)),
                    }
                    true_frees += k as u64;
                }
                _ => match cache {
                    Some(c) => {
                        c.flush();
                        prop_assert_eq!(c.cached(), 0);
                    }
                    // Through the bare pool handle: quiesce every cache.
                    None => {
                        caches.iter_mut().for_each(|c| c.flush());
                        all_flushed = true;
                    }
                },
            }
            // Between every step, settled or not: the derived gauges add
            // up, stay in range, and lag the truth by a bounded amount.
            let (in_use, available) = (pool.in_use(), pool.available());
            prop_assert_eq!(available + in_use, population);
            prop_assert!(in_use <= population && available <= population);
            prop_assert!(in_use.abs_diff(held.len()) <= cache_room,
                "in_use {} vs {} held", in_use, held.len());
            prop_assert!(pool.cached() <= cache_room, "cached wrapped: {}", pool.cached());
            prop_assert!(pool.in_use_peak() >= in_use);
            prop_assert!(pool.in_use_peak() <= population);
            let now_made = pool.stats().materialized as usize;
            prop_assert!(now_made >= made, "created count fell {} -> {}", made, now_made);
            prop_assert!(now_made <= population);
            prop_assert!(now_made <= pool.in_use_peak() + parked_room + largest,
                "created {} for a peak of {}", now_made, pool.in_use_peak());
            made = now_made;
            let (allocs, frees) = pool.counters();
            prop_assert!(allocs <= true_allocs && frees <= true_frees,
                "settled ({allocs}, {frees}) ahead of ({true_allocs}, {true_frees})");
            // The per-cache gauges are current, not settled.
            prop_assert_eq!(
                pool.cached_per_cache(),
                caches.iter().map(|c| c.cached() as u64).collect::<Vec<_>>()
            );
            if all_flushed {
                // Every buffer is on the freelist or held — nowhere else.
                prop_assert_eq!(in_use, held.len());
                prop_assert_eq!(pool.cached(), 0);
                prop_assert_eq!((allocs, frees), (true_allocs, true_frees));
            }
        }
        // Quiescence: drop the caches (spilling their stacks, settling
        // their accounts), return everything — the freelist is whole and
        // allocs == frees.
        drop(caches);
        prop_assert_eq!(pool.cached(), 0);
        prop_assert_eq!(pool.in_use(), held.len());
        prop_assert_eq!(pool.counters(), (true_allocs, true_frees));
        pool.free_burst(held.drain(..));
        prop_assert_eq!(pool.available(), population);
        let (allocs, frees) = pool.counters();
        prop_assert_eq!(allocs, frees);
    }

    /// LPM agrees with a naive longest-prefix oracle on random tables.
    #[test]
    fn lpm_matches_oracle(
        routes in prop::collection::vec((any::<u32>(), 1u8..=32, any::<u16>()), 0..40),
        probes in prop::collection::vec(any::<u32>(), 1..60,)
    ) {
        let mask = |d: u8| if d == 0 { 0 } else { u32::MAX << (32 - d as u32) };
        let mut lpm = Lpm::with_first_stage_bits(16, 128);
        let mut table: Vec<(u32, u8, u16)> = Vec::new();
        for (p, d, h) in routes {
            let p = p & mask(d);
            if lpm.add(Ipv4Addr::from(p), d, h).is_ok() {
                table.retain(|&(tp, td, _)| !(tp == p && td == d));
                table.push((p, d, h));
            }
        }
        for probe in probes {
            let oracle = table
                .iter()
                .filter(|&&(p, d, _)| probe & mask(d) == p)
                .max_by_key(|&&(_, d, _)| d)
                .map(|&(_, _, h)| h);
            prop_assert_eq!(lpm.lookup(Ipv4Addr::from(probe)), oracle);
        }
    }

    /// Exact-match holds what it stored, for any flow set.
    #[test]
    fn exact_match_round_trip(tuples in prop::collection::vec(arb_tuple(), 1..200)) {
        let mut em = ExactMatch::with_capacity(1024);
        let mut stored = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            if em.insert(*t, i).is_ok() {
                stored.retain(|&(s, _): &(FiveTuple, usize)| s != *t);
                stored.push((*t, i));
            }
        }
        for (t, v) in stored {
            prop_assert_eq!(em.get(&t), Some(&v));
        }
    }

    /// Toeplitz is deterministic and queue mapping stays in range.
    #[test]
    fn toeplitz_stable_and_bounded(t in arb_tuple(), n in 1usize..64) {
        let tz = Toeplitz::default();
        let h1 = tz.hash(&t.rss_input());
        let h2 = tz.hash(&t.rss_input());
        prop_assert_eq!(h1, h2);
        prop_assert!(tz.queue_for(&t.rss_input(), n) < n);
    }

    /// AES-CBC decrypt(encrypt(x)) == x for any whole-block payload & key.
    #[test]
    fn aes_cbc_round_trip(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        blocks in 1usize..8,
        seed in any::<u64>()
    ) {
        let aes = Aes128::new(&key);
        let mut data: Vec<u8> = (0..blocks * 16)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 32) as u8)
            .collect();
        let original = data.clone();
        aes.cbc_encrypt(&iv, &mut data);
        prop_assert_ne!(&data, &original);
        aes.cbc_decrypt(&iv, &mut data);
        prop_assert_eq!(data, original);
    }

    /// Single blocks invert under any key, and CBC is what its definition
    /// says: block i is E(plain_i xor cipher_{i-1}), cipher_0 being the IV.
    #[test]
    fn aes_blocks_invert_and_cbc_chains_them(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        blocks in proptest::collection::vec(any::<[u8; 16]>(), 1..6)
    ) {
        let aes = Aes128::new(&key);
        let mut data: Vec<u8> = blocks.concat();
        aes.cbc_encrypt(&iv, &mut data);
        let mut prev = iv;
        for (plain, cipher) in blocks.iter().zip(data.chunks_exact(16)) {
            let mut block: [u8; 16] = core::array::from_fn(|i| plain[i] ^ prev[i]);
            aes.encrypt_block(&mut block);
            prop_assert_eq!(&block[..], cipher);
            aes.decrypt_block(&mut block);
            prop_assert_eq!(block, core::array::from_fn(|i| plain[i] ^ prev[i]));
            prev.copy_from_slice(cipher);
        }
    }

    /// Built frames always parse back to their tuple, and the l3fwd
    /// rewrite preserves checksum validity.
    #[test]
    fn frame_build_parse_rewrite(t in arb_tuple(), payload_len in 0usize..64) {
        let payload = vec![0x5A; payload_len];
        let mut frame = build_udp_frame(Mac::local(1), Mac::local(2), &t, &payload, 0);
        let parsed = parse_frame(&frame).expect("own frames must parse");
        prop_assert_eq!(parsed.tuple, t);
        if l3fwd_rewrite(&mut frame, Mac::local(3), Mac::local(4)) {
            let re = parse_frame(&frame).expect("rewrite must keep checksum valid");
            prop_assert_eq!(re.ttl, 63);
        }
    }

    /// Internet checksum: inserting the computed checksum verifies.
    #[test]
    fn checksum_self_verifies(data in prop::collection::vec(any::<u8>(), 4..128)) {
        let mut region = data.clone();
        region[2] = 0;
        region[3] = 0;
        let c = internet_checksum(&region);
        region[2] = (c >> 8) as u8;
        region[3] = (c & 0xFF) as u8;
        prop_assert!(verify(&region));
    }

    /// Event queue delivers every event exactly once, in time order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos(t), i);
        }
        let mut seen = vec![false; times.len()];
        let mut last = Nanos::ZERO;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            prop_assert!(!seen[i], "duplicate delivery");
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// CBR drains are exact under arbitrary chunking: total equals the
    /// closed-form count regardless of how the timeline is sliced.
    #[test]
    fn cbr_chunking_invariant(
        pps in 1_000.0f64..20_000_000.0,
        cuts in prop::collection::vec(1u64..500_000, 1..50)
    ) {
        let mut one = Cbr::new(pps, Nanos::ZERO);
        let mut many = Cbr::new(pps, Nanos::ZERO);
        let mut t = Nanos::ZERO;
        let mut total = 0;
        for c in cuts {
            t += Nanos(c);
            total += many.drain(t, None);
        }
        prop_assert_eq!(one.drain(t, None), total);
    }

    /// The TS rule is monotone in rho and bounded in [V̄, M·V̄].
    #[test]
    fn ts_rule_bounds(m in 1usize..12, rho in 0.0f64..1.0, v in 1e-6f64..1e-3) {
        let ts = model::ts_rule(m, rho, v);
        prop_assert!(ts <= m as f64 * v * (1.0 + 1e-9));
        prop_assert!(ts >= v * (1.0 - 1e-9));
        let ts_higher = model::ts_rule(m, (rho + 0.1).min(1.0), v);
        prop_assert!(ts_higher <= ts + 1e-15);
    }

    /// eq. (13) inverts eq. (10): setting TS by the rule yields E[V] = V̄.
    #[test]
    fn ts_rule_inverts_vacation_mean(m in 1usize..10, rho in 0.0f64..0.999) {
        let v = 10e-6;
        let ts = model::ts_rule(m, rho, v);
        let ev = model::vacation_mean_approx(ts, m, 1.0 - rho);
        prop_assert!((ev - v).abs() / v < 1e-6, "E[V] = {ev}");
    }

    /// Vacation CDFs are genuine CDFs: monotone, 0 at 0⁻, 1 at TS.
    #[test]
    fn vacation_cdf_is_cdf(m in 2usize..10, frac in 0.01f64..1.0) {
        let (ts, tl) = (10e-6, 500e-6);
        let x = ts * frac;
        let c = model::vacation_cdf_high_load(x, ts, tl, m);
        prop_assert!((0.0..=1.0).contains(&c));
        let c2 = model::vacation_cdf_high_load((x + ts * 0.01).min(ts), ts, tl, m);
        prop_assert!(c2 + 1e-12 >= c);
        prop_assert_eq!(model::vacation_cdf_high_load(ts, ts, tl, m), 1.0);
    }

    /// Welford statistics match two-pass results on arbitrary data.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut mv = MeanVar::new();
        for &x in &xs {
            mv.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((mv.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((mv.variance() - var).abs() < 1e-5 * var.abs().max(1.0));
    }

    /// Chaos: *any* interleaving of fault events — overlapping spikes,
    /// stalls, starvation windows, and jitter bursts at arbitrary offsets
    /// — leaves the sim backend's conservation identity exactly intact
    /// (`offered == processed + dropped`, per-window columns telescoping
    /// to the aggregates) and lets nothing non-finite into the report.
    #[test]
    fn chaos_fault_interleavings_conserve(
        events in prop::collection::vec(
            (0u8..4, 0.0f64..0.9, 0.01f64..0.5, 0.0f64..1.0),
            1..8,
        ),
        kpps in 100u64..4_000,
        seed in any::<u64>(),
    ) {
        let dur = Nanos::from_millis(40);
        let mut plan = FaultPlan::new();
        for (kind, at_frac, dur_frac, param) in events {
            let at = dur.scaled_f64(at_frac);
            let window = dur.scaled_f64(dur_frac);
            let kind = match kind {
                0 => FaultKind::RateSpike { factor: param * 4.0 },
                1 => FaultKind::QueueStall,
                2 => FaultKind::PoolStarve { fraction: param },
                _ => FaultKind::JitterBurst {
                    jitter: Nanos::from_micros(1 + (param * 50.0) as u64),
                    drop_prob: param,
                },
            };
            plan.push(at, window, kind);
        }
        let sc = Scenario::metronome(
            "chaos-plan",
            MetronomeConfig::default(),
            TrafficSpec::CbrPps(kpps as f64 * 1e3),
        )
        .with_duration(dur)
        .with_series(dur / 8)
        .with_faults(plan)
        .with_seed(seed);
        let r = run(&sc);

        // Exact conservation for every generated plan: whatever the
        // faults did, every offered packet is processed, dropped (by
        // cause), or still sitting in a ring at the horizon — the final
        // window's occupancy gauge, sampled at the same sim instant.
        let ts = r.timeseries.as_ref().expect("series requested");
        let in_flight: u64 = ts
            .windows
            .last()
            .map_or(0, |w| w.occupancy.iter().sum());
        prop_assert_eq!(r.offered, r.forwarded + r.dropped + in_flight);
        prop_assert_eq!(
            r.dropped,
            r.dropped_ring + r.dropped_pool + r.dropped_fault
        );
        prop_assert_eq!(ts.column_sum(|w| w.retrieved), r.forwarded);
        prop_assert_eq!(ts.column_sum(|w| w.dropped_ring), r.dropped_ring);
        prop_assert_eq!(ts.column_sum(|w| w.dropped_pool), r.dropped_pool);
        prop_assert_eq!(ts.column_sum(|w| w.dropped_fault), r.dropped_fault);

        // No NaN/inf anywhere a consumer can see it.
        prop_assert!(r.loss.is_finite());
        prop_assert!(r.throughput_mpps.is_finite());
        prop_assert!(ts.windows.iter().all(|w| w.loss().is_finite()));
        let json = r.to_json();
        prop_assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    /// Histogram quantiles stay within the recorded min/max and the count
    /// is exact.
    #[test]
    fn histogram_quantile_bounds(xs in prop::collection::vec(0u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::latency();
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        let min = *xs.iter().min().unwrap();
        let max = *xs.iter().max().unwrap();
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= min && v <= max, "q{q} = {v} outside [{min}, {max}]");
        }
    }
}
