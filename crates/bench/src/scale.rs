//! Queue-count scaling harness: the same Metronome worker set at
//! N ∈ {4 … 1024} queues on either [`ExecBackend`], under a fixed total
//! of pool-backed items pushed with backpressure.
//!
//! The question the async executor exists to answer: how far does queue
//! count scale when workers are cooperative tasks on a handful of shards
//! instead of one OS thread each? Each [`scale_run`] point measures
//!
//! * **conservation** — the producer retries until every item is
//!   accepted, so `offered == processed` exactly and `dropped == 0`; the
//!   pool's `allocs == frees` audit closes the loop on buffers;
//! * **throughput** — aggregate Mpps over the drain window, plus the
//!   slowest queue's rate (nonzero per-queue throughput is the fairness
//!   floor);
//! * **footprint** — the process RSS while the worker set is live, read
//!   from `/proc/self/status` (the thread backend pays a stack per
//!   worker, the async backend a task struct per worker).
//!
//! `examples/bench8.rs` sweeps this harness into `BENCH_8.json`.
//!
//! **Single-core caveat** (same as [`crate::hotpath`]): on a 1-CPU host
//! the backends time-slice, so the comparison measures per-item overhead
//! and scheduling cost, not parallel speedup.

use crate::hotpath::BURST;
use crossbeam::queue::ArrayQueue;
use metronome_core::{DisciplineSpec, ExecBackend, MetronomeConfig, WorkerSet};
use metronome_dpdk::{Mbuf, Mempool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring capacity per queue (small, so footprint scales with N honestly).
const QUEUE_CAP: usize = 128;

/// Mbuf dataroom for scale points: payload is irrelevant here, buffers
/// exist to exercise the pool accounting.
const DATAROOM: usize = 64;

/// Buffers in the shared pool. Also the in-flight ceiling: the producer
/// blocks on an empty pool exactly like it blocks on a full ring, so no
/// point ever drops.
const POOL_POPULATION: usize = 8 * 1024;

/// One measured point of the scale sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Queue (and worker) count of this point.
    pub n_queues: usize,
    /// Backend the worker set ran on.
    pub exec: ExecBackend,
    /// Items pushed (the producer retries until accepted: exact).
    pub offered: u64,
    /// Items the workers processed (must equal `offered`).
    pub processed: u64,
    /// Pool allocations over the run.
    pub allocs: u64,
    /// Pool frees over the run (must equal `allocs` after teardown).
    pub frees: u64,
    /// Wall-clock seconds from first push to last item processed.
    pub elapsed_s: f64,
    /// Aggregate drain rate in Mpps.
    pub aggregate_mpps: f64,
    /// The slowest queue's drain rate in kpps (nonzero = no starvation).
    pub min_queue_kpps: f64,
    /// Process RSS (MB) while the worker set was live.
    pub rss_mb: f64,
}

/// Current process RSS in MB from `/proc/self/status` (0.0 if the field
/// is unavailable — non-Linux hosts).
pub fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one scale point: `n_queues` queues, one Metronome worker per
/// queue (`M = N`), `per_queue` items each, on `exec`. The producer
/// pushes with backpressure (retry on full ring or exhausted pool), so
/// conservation is exact by construction — the *measurement* is how fast
/// the worker set drains and what it costs to stand up.
pub fn scale_run(n_queues: usize, exec: ExecBackend, per_queue: u64) -> ScalePoint {
    assert!(n_queues > 0 && per_queue > 0);
    let cfg = MetronomeConfig {
        m_threads: n_queues,
        n_queues,
        ..MetronomeConfig::default()
    };
    let pool = Mempool::new(POOL_POPULATION, DATAROOM);
    let queues: Vec<Arc<ArrayQueue<Mbuf>>> = (0..n_queues)
        .map(|_| Arc::new(ArrayQueue::new(QUEUE_CAP)))
        .collect();

    // Per-worker cache size, capped so that even if every idle worker's
    // cache sits at its spill floor, the caches collectively park at most
    // ~3/8 of the pool (each retains up to 1.5x its size before
    // spilling). Without the cap, at N >= 256 the caches can absorb the
    // entire population and the producer starves permanently: the
    // remaining buffers are parked behind workers whose rings are empty,
    // so nothing ever spills back.
    let worker_burst = (cfg.burst as usize).min((POOL_POPULATION / (4 * n_queues)).max(1));
    let set = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues.clone())
        .exec(exec)
        .spawn(|_worker| {
            // Per-worker cache, like the realtime runner: a recycled
            // burst is a thread/task-local stack push. The cache
            // flushes when the worker is dropped at stop, so the
            // allocs == frees audit below balances.
            let mut cache = pool.cache(worker_burst);
            move |_q: usize, burst: &mut Vec<Mbuf>| {
                cache.free_burst(burst.drain(..));
            }
        });

    // Producer: burst-alloc, push round-robin with backpressure. An
    // exhausted pool and a full ring are the same condition — items in
    // flight — and both resolve when workers drain, so spin-yield.
    let total = n_queues as u64 * per_queue;
    let mut cache = pool.cache(BURST);
    let mut blanks: Vec<Mbuf> = Vec::with_capacity(BURST);
    let t0 = Instant::now();
    let mut pushed = 0u64;
    while pushed < total {
        let want = BURST.min((total - pushed) as usize);
        while cache.alloc_burst(want, &mut blanks) == 0 {
            std::thread::yield_now();
        }
        while let Some(mbuf) = blanks.pop() {
            let q = (pushed % n_queues as u64) as usize;
            let mut item = mbuf;
            loop {
                match queues[q].push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }
            pushed += 1;
        }
    }
    drop(cache);

    // Drain window: generation is over, wait for the workers to catch up.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let processed: u64 = (0..n_queues).map(|q| set.processed(q)).sum();
        if processed >= total || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = t0.elapsed();
    let rss = rss_mb();
    let stats = set.stop();

    let processed = stats.total_processed();
    let elapsed_s = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let min_queue = stats.processed.iter().copied().min().unwrap_or(0);
    let (allocs, frees) = pool.counters();
    assert_eq!(pool.in_use(), 0, "scale point leaked buffers");
    assert_eq!(pool.cached(), 0, "worker caches not flushed at stop");
    ScalePoint {
        n_queues,
        exec,
        offered: pushed,
        processed,
        allocs,
        frees,
        elapsed_s,
        aggregate_mpps: processed as f64 / elapsed_s / 1e6,
        min_queue_kpps: min_queue as f64 / elapsed_s / 1e3,
        rss_mb: rss,
    }
}

/// Stand up (and immediately tear down) a thread-backend worker set of
/// `n_queues` workers with no traffic, returning (spawn+join wall ms,
/// RSS MB while live). At 1024 workers this is 1024 OS threads — the
/// probe documents that the host *can* spawn them and what the stacks
/// cost, without charging the full-drain measurement to a backend that
/// is pure context-switch thrash at that shape on one core.
pub fn thread_spawn_probe(n_queues: usize) -> (f64, f64) {
    let cfg = MetronomeConfig {
        m_threads: n_queues,
        n_queues,
        ..MetronomeConfig::default()
    };
    let queues: Vec<Arc<ArrayQueue<u64>>> = (0..n_queues)
        .map(|_| Arc::new(ArrayQueue::new(8)))
        .collect();
    let t0 = Instant::now();
    let set = WorkerSet::builder(cfg, DisciplineSpec::Metronome, queues)
        .spawn(|_worker| |_q: usize, burst: &mut Vec<u64>| burst.clear());
    let rss = rss_mb();
    let stats = set.stop();
    assert_eq!(stats.total_processed(), 0);
    (t0.elapsed().as_secs_f64() * 1e3, rss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_conserve_at_a_small_point() {
        for exec in [ExecBackend::Threads, ExecBackend::Async { shards: 2 }] {
            let p = scale_run(4, exec, 512);
            assert_eq!(p.offered, 4 * 512, "{exec:?}: offered");
            assert_eq!(p.processed, p.offered, "{exec:?}: conservation");
            assert_eq!(p.allocs, p.frees, "{exec:?}: pool audit");
            assert!(p.aggregate_mpps > 0.0, "{exec:?}: throughput");
            assert!(p.min_queue_kpps > 0.0, "{exec:?}: a queue starved");
        }
    }

    #[test]
    fn spawn_probe_reports_a_live_worker_set() {
        let (ms, rss) = thread_spawn_probe(8);
        assert!(ms > 0.0);
        assert!(rss > 0.0);
    }
}
