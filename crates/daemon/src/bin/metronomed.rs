//! `metronomed` — run the Metronome pipeline as a service.
//!
//! ```text
//! metronomed [--socket PATH] [--http ADDR] [--queues N] [--ring N] [--pool N] [--seed N]
//! ```
//!
//! Control it over the socket with line-delimited JSON (one command per
//! line — see `crates/daemon/src/protocol.rs` for the full grammar):
//!
//! ```text
//! printf '%s\n' '{"cmd":"submit","name":"demo","rate_pps":200000}' | nc -U /tmp/metronomed.sock
//! curl http://127.0.0.1:9184/metrics
//! printf '%s\n' '{"cmd":"shutdown"}' | nc -U /tmp/metronomed.sock
//! ```

#![forbid(unsafe_code)]

use metronome_daemon::{ControlServer, DaemonConfig, MetricsServer, ServiceEngine};
use metronome_dpdk::ring::valid_ring_size;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

struct Args {
    socket: PathBuf,
    http: String,
    cfg: DaemonConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: metronomed [--socket PATH] [--http ADDR] [--queues N] [--ring N] [--pool N] [--seed N]\n\
         \n\
         defaults: --socket /tmp/metronomed.sock --http 127.0.0.1:9184 --queues 2 --ring 512"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: PathBuf::from("/tmp/metronomed.sock"),
        http: "127.0.0.1:9184".to_string(),
        cfg: DaemonConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage_missing(name));
        match flag.as_str() {
            "--socket" => args.socket = PathBuf::from(value("--socket")),
            "--http" => args.http = value("--http"),
            "--queues" => args.cfg.n_queues = parse_num(&value("--queues"), "--queues"),
            "--ring" => {
                args.cfg.ring_size = parse_num(&value("--ring"), "--ring");
                if !valid_ring_size(args.cfg.ring_size) {
                    eprintln!(
                        "metronomed: --ring expects a power of two in 32..=4096, got {}",
                        args.cfg.ring_size
                    );
                    usage()
                }
            }
            "--pool" => args.cfg.pool_population = Some(parse_num(&value("--pool"), "--pool")),
            "--seed" => args.cfg.seed = parse_num(&value("--seed"), "--seed") as u64,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("metronomed: unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

fn usage_missing(name: &str) -> ! {
    eprintln!("metronomed: {name} needs a value");
    usage()
}

fn parse_num(s: &str, name: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("metronomed: {name} expects a number, got {s:?}");
        usage()
    })
}

fn main() {
    let args = parse_args();
    let engine = Arc::new(ServiceEngine::new(args.cfg));
    let metrics = match MetricsServer::start(&args.http, Arc::clone(&engine)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("metronomed: cannot bind {}: {e}", args.http);
            exit(1)
        }
    };
    let control = match ControlServer::start(&args.socket, Arc::clone(&engine)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("metronomed: cannot bind {}: {e}", args.socket.display());
            exit(1)
        }
    };
    println!("metronomed: control socket at {}", args.socket.display());
    println!("metronomed: metrics at http://{}/metrics", metrics.addr());
    println!("metronomed: send {{\"cmd\":\"shutdown\"}} to exit");
    // The process lives until a `shutdown` command flips the engine's
    // flag and both accept loops drain (no signal handling: the control
    // socket *is* the lifecycle interface).
    control.join();
    metrics.join();
}
