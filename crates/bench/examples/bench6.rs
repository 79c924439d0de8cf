//! Emit `BENCH_6.json`: the PR 6 lock-free hot-path numbers.
//!
//! Runs the [`metronome_bench::hotpath`] harnesses — mempool transaction
//! scaling at 1/2/4/8/16 workers (locked vs cached) and `SharedRing`
//! producer/consumer pairs per path — and writes the measurements as JSON
//! to the path given as the first argument (default `BENCH_6.json` in the
//! working directory).
//!
//! ```text
//! cargo run --release -p metronome-bench --example bench6 [-- out.json]
//! ```

use metronome_bench::hotpath;
use metronome_dpdk::RingPath;

const WORKER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const POOL_TXNS: u64 = 1_000_000;
const PAIR_ITEMS: u64 = 2_000_000;
/// Runs per point; the median filters scheduler noise (see
/// [`hotpath::median_of`]).
const RUNS: usize = 3;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_6.json".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    eprintln!("measuring contended_pool scaling ({POOL_TXNS} txns per point)...");
    let mut pool_rows = Vec::new();
    let mut cached_1 = 0.0f64;
    let mut cached_8 = 0.0f64;
    for workers in WORKER_COUNTS {
        let locked = hotpath::median_of(RUNS, || {
            hotpath::pool_txn_per_op_ns(workers, false, POOL_TXNS)
        });
        let cached = hotpath::median_of(RUNS, || {
            hotpath::pool_txn_per_op_ns(workers, true, POOL_TXNS)
        });
        if workers == 1 {
            cached_1 = cached;
        }
        if workers == 8 {
            cached_8 = cached;
        }
        eprintln!("  workers {workers:>2}: locked {locked:.1} ns/op, cached {cached:.1} ns/op");
        pool_rows.push(format!(
            "    {{\"workers\": {workers}, \"locked_ns_per_op\": {locked:.2}, \
             \"cached_ns_per_op\": {cached:.2}}}"
        ));
    }
    let degradation_pct = if cached_1 > 0.0 {
        (cached_8 / cached_1 - 1.0) * 100.0
    } else {
        0.0
    };

    eprintln!("measuring ring_path pairs ({PAIR_ITEMS} frames each)...");
    let mut ring_rows = Vec::new();
    for path in [RingPath::Spsc, RingPath::Mpsc] {
        let mpps = hotpath::median_of(RUNS, || hotpath::ring_pair_mpps(path, PAIR_ITEMS));
        eprintln!("  {:<8} {mpps:.2} Mpps", path.label());
        ring_rows.push(format!(
            "    {{\"path\": \"{}\", \"pair_mpps\": {mpps:.3}}}",
            path.label()
        ));
    }

    let json = format!(
        "{{\n\
         \x20 \"bench\": \"BENCH_6\",\n\
         \x20 \"title\": \"Lock-free hot path: per-worker mempool caches and SPSC/MPSC ring fast paths\",\n\
         \x20 \"command\": \"cargo run --release -p metronome-bench --example bench6\",\n\
         \x20 \"host\": {{\"nproc\": {nproc}}},\n\
         \x20 \"note\": \"{note}\",\n\
         \x20 \"contended_pool\": {{\n\
         \x20   \"unit\": \"ns per buffer alloc+free, fixed total work across workers\",\n\
         \x20   \"burst\": {burst},\n\
         \x20   \"points\": [\n{pool_rows}\n    ],\n\
         \x20   \"cached_per_op_degradation_1_to_8_pct\": {degradation_pct:.1}\n\
         \x20 }},\n\
         \x20 \"ring_path\": {{\n\
         \x20   \"unit\": \"Mpps through one producer/consumer thread pair\",\n\
         \x20   \"capacity\": 1024,\n\
         \x20   \"points\": [\n{ring_rows}\n    ]\n\
         \x20 }}\n\
         }}\n",
        note = "single-core host: workers time-slice, so cross-core contention does not \
                appear; the comparable numbers are per-op constants and per-op flatness \
                as workers are added",
        burst = hotpath::BURST,
        pool_rows = pool_rows.join(",\n"),
        ring_rows = ring_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench snapshot");
    eprintln!("wrote {out_path}");
}
