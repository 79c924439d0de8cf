//! Control-socket protocol tests against a live in-process daemon: a
//! real `UnixListener`, real connections, real worker threads behind
//! every reply.

use metronome_core::slack::{thread_timer_slack, LOWERED_SLACK_NS};
use metronome_daemon::{ControlServer, DaemonConfig, MetricsServer, ServiceEngine};
use metronome_telemetry::export::prometheus;
use metronome_telemetry::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One daemon at a time: every scenario runs spinning producer and worker
/// threads, and the suite's latency and promptness bounds are about the
/// pipeline — not about a sibling test's threads on the same few cores.
static HOST: Mutex<()> = Mutex::new(());

struct TestDaemon {
    engine: Arc<ServiceEngine>,
    control: Option<ControlServer>,
    metrics: Option<MetricsServer>,
    socket: PathBuf,
    _host: MutexGuard<'static, ()>,
}

impl TestDaemon {
    fn start(name: &str) -> TestDaemon {
        TestDaemon::with_queues(name, 2)
    }

    fn with_queues(name: &str, n_queues: usize) -> TestDaemon {
        let host = HOST.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let socket = std::env::temp_dir().join(format!(
            "metronomed-test-{}-{name}.sock",
            std::process::id()
        ));
        let engine = Arc::new(ServiceEngine::new(DaemonConfig {
            n_queues,
            ring_size: 256,
            ..DaemonConfig::default()
        }));
        let control = ControlServer::start(&socket, Arc::clone(&engine)).expect("bind socket");
        let metrics =
            MetricsServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind metrics");
        TestDaemon {
            engine,
            control: Some(control),
            metrics: Some(metrics),
            socket,
            _host: host,
        }
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.socket).expect("connect control socket");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client {
            reader,
            writer: stream,
        }
    }

    /// Shut the daemon down (via a fresh connection) and join both
    /// listeners so no threads outlive the test.
    fn finish(mut self) {
        if !self.engine.is_shutdown() {
            let mut c = self.connect();
            let reply = c.send(r#"{"cmd":"shutdown"}"#);
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        }
        self.control.take().unwrap().join();
        self.metrics.take().unwrap().join();
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn send(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        loop {
            match self.reader.read_line(&mut reply) {
                Ok(0) => panic!("daemon hung up mid-reply"),
                Ok(_) => break,
                // Partial-line timeout: keep reading, bytes are retained.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
        Json::parse(reply.trim()).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
    }
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok reply, got {}",
        reply.render()
    );
}

fn assert_err(reply: &Json) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected error reply, got {}",
        reply.render()
    );
    assert!(
        reply.get("error").and_then(Json::as_str).is_some(),
        "error reply must carry a message: {}",
        reply.render()
    );
}

#[test]
fn malformed_requests_get_typed_errors_and_daemon_stays_up() {
    let daemon = TestDaemon::start("malformed");
    let mut c = daemon.connect();
    for bad in [
        "not json at all",
        r#"{"cmd":"warp-core"}"#,
        r#"{"no_cmd_field":1}"#,
        r#"{"cmd":"submit","rate_pps":"fast"}"#,
        r#"{"cmd":"submit","faults":[{"kind":"gamma-ray","at_ms":1,"duration_ms":1}]}"#,
        r#"{"cmd":"reconfigure"}"#,
        r#"[1,2,3]"#,
        // Durations past what a nanosecond count holds: typed errors, not
        // an overflow in the parser.
        r#"{"cmd":"submit","discipline":"const-sleep","period_us":18446744073709551615}"#,
        r#"{"cmd":"submit","faults":[{"kind":"queue-stall","at_ms":18446744073709551615,"duration_ms":1}]}"#,
        r#"{"cmd":"submit","faults":[{"kind":"queue-stall","at_ms":1,"duration_ms":18446744073709551615}]}"#,
        r#"{"cmd":"submit","faults":[{"kind":"jitter-burst","at_ms":1,"duration_ms":1,"drop_prob":0.1,"jitter_us":18446744073709551615}]}"#,
    ] {
        let reply = c.send(bad);
        assert_err(&reply);
    }
    // The daemon survived all of it — on the same connection and a new one.
    assert_eq!(
        c.send(r#"{"cmd":"ping"}"#)
            .get("reply")
            .and_then(Json::as_str),
        Some("pong")
    );
    let mut fresh = daemon.connect();
    assert_ok(&fresh.send(r#"{"cmd":"ping"}"#));
    daemon.finish();
}

#[test]
fn commands_needing_a_run_fail_cleanly_when_idle() {
    let daemon = TestDaemon::start("idle");
    let mut c = daemon.connect();
    assert_err(&c.send(r#"{"cmd":"reconfigure","rate_pps":1000}"#));
    // Drain with nothing running is an ok no-op (idempotent lifecycle).
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("state").and_then(Json::as_str), Some("idle"));
    // No scenario has run: the pool has not created a buffer yet.
    assert_eq!(
        drain.get("pool_materialized").and_then(Json::as_u64),
        Some(0)
    );
    daemon.finish();
}

#[test]
fn reconfigure_under_load_keeps_counters_monotone() {
    let own_slack = thread_timer_slack();
    let daemon = TestDaemon::start("reconf");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"reconf-under-load","rate_pps":30000,"discipline":"metronome","m":2,"seed":11}"#,
    ));

    let stats = |c: &mut Client| {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert_ok(&s);
        (
            s.get("offered").and_then(Json::as_u64).unwrap(),
            s.get("processed").and_then(Json::as_u64).unwrap(),
            s.get("dropped").and_then(Json::as_u64).unwrap(),
        )
    };

    // Let traffic flow, then hammer reconfigures while sampling counters.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats(&mut c).1 == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut prev = stats(&mut c);
    assert!(prev.1 > 0, "no packets processed before reconfigure");

    for (i, cmd) in [
        r#"{"cmd":"reconfigure","rate_pps":60000}"#,
        r#"{"cmd":"reconfigure","discipline":"busy-poll"}"#,
        r#"{"cmd":"reconfigure","discipline":"metronome","m":3}"#,
        r#"{"cmd":"reconfigure","m":2}"#,
    ]
    .iter()
    .enumerate()
    {
        assert_ok(&c.send(cmd));
        std::thread::sleep(Duration::from_millis(120));
        let now = stats(&mut c);
        assert!(
            now.0 >= prev.0 && now.1 >= prev.1 && now.2 >= prev.2,
            "counters regressed after reconfigure #{i}: {prev:?} -> {now:?}"
        );
        prev = now;
    }
    // An invalid reconfigure is rejected and the pipeline keeps running.
    assert_err(&c.send(r#"{"cmd":"reconfigure","discipline":"metronome","m":1}"#)); // M < N
    let now = stats(&mut c);
    assert!(
        now.1 >= prev.1,
        "counters regressed after rejected reconfigure"
    );

    let live = c.send(r#"{"cmd":"stats"}"#);
    let made = live.get("pool_materialized").and_then(Json::as_u64);
    assert!(made.is_some_and(|n| n > 0), "stats: {}", live.render());
    // The armed set reports the timer slack its sleepers learn against:
    // the one a worker thread read on itself after lowering it. The
    // daemon runs in this process, and this thread keeps its own slack.
    assert_eq!(thread_timer_slack(), own_slack);
    assert_eq!(
        live.get("timer_slack_ns").and_then(Json::as_u64),
        own_slack.map(|_| LOWERED_SLACK_NS),
        "stats: {}",
        live.render()
    );
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    // A pool never gives a buffer back.
    assert!(drain.get("pool_materialized").and_then(Json::as_u64) >= made);
    daemon.finish();
}

#[test]
fn rejected_reconfigure_changes_nothing() {
    let daemon = TestDaemon::start("reconf-atomic");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"atomic","rate_pps":30000,"discipline":"metronome","m":2}"#,
    ));
    // M < N on the default 2-queue daemon: the whole request is refused,
    // including the rate that came with it.
    assert_err(&c.send(r#"{"cmd":"reconfigure","rate_pps":5e5,"m":1}"#));
    let stats = c.send(r#"{"cmd":"stats"}"#);
    assert_ok(&stats);
    assert_eq!(stats.get("rate_pps").and_then(Json::as_f64), Some(30000.0));
    assert_eq!(stats.get("m").and_then(Json::as_u64), Some(2));
    assert_eq!(
        stats.get("discipline").and_then(Json::as_str),
        Some("metronome")
    );
    assert_ok(&c.send(r#"{"cmd":"drain"}"#));
    daemon.finish();
}

#[test]
fn sharded_generation_conserves_and_reconfigures() {
    let daemon = TestDaemon::start("gen-shards");
    let mut c = daemon.connect();
    let submit = c.send(
        r#"{"cmd":"submit","name":"sharded","rate_pps":40000,"discipline":"metronome","m":2,"seed":3,"gen_shards":2}"#,
    );
    assert_ok(&submit);
    assert_eq!(submit.get("gen_shards").and_then(Json::as_u64), Some(2));

    // Both shards produce: wait until packets flow, then check stats.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert_ok(&s);
        assert_eq!(s.get("gen_shards").and_then(Json::as_u64), Some(2));
        if s.get("processed").and_then(Json::as_u64).unwrap_or(0) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "no packets processed");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Narrow the generator set live; counters must stay monotone.
    let before = c
        .send(r#"{"cmd":"stats"}"#)
        .get("offered")
        .and_then(Json::as_u64)
        .unwrap();
    let reply = c.send(r#"{"cmd":"reconfigure","gen_shards":1}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("gen_shards").and_then(Json::as_u64), Some(1));
    std::thread::sleep(Duration::from_millis(100));
    let s = c.send(r#"{"cmd":"stats"}"#);
    assert_eq!(s.get("gen_shards").and_then(Json::as_u64), Some(1));
    assert!(
        s.get("offered").and_then(Json::as_u64).unwrap() >= before,
        "offered regressed across a gen_shards reconfigure"
    );

    // Exact conservation and a whole pool after two generator
    // generations (2 shards, then 1) produced onto the same rings.
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

/// The pool bounds the producer set: each shard's cache holds up to
/// `2 × GEN_BATCH` buffers, so a set wider than the pool covers beside
/// the rings and the workers would starve itself. Such a submit or
/// reconfigure is refused with the limit named, and changes nothing.
#[test]
fn gen_shards_beyond_what_the_pool_covers_are_refused() {
    let daemon = TestDaemon::start("gen-limit");
    let mut c = daemon.connect();
    let limit = |reply: &Json| reply.get("gen_shards_limit").and_then(Json::as_u64);
    let refused = c.send(r#"{"cmd":"submit","name":"wide","rate_pps":2000,"gen_shards":64}"#);
    assert_err(&refused);
    assert_eq!(limit(&refused), Some(16), "{}", refused.render());
    let error = refused.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("16 producer shards"), "{error}");
    assert_eq!(
        c.send(r#"{"cmd":"stats"}"#)
            .get("state")
            .and_then(Json::as_str),
        Some("idle")
    );

    assert_ok(&c.send(r#"{"cmd":"submit","name":"wide","rate_pps":2000,"gen_shards":16}"#));
    let refused = c.send(r#"{"cmd":"reconfigure","rate_pps":4000,"gen_shards":17}"#);
    assert_err(&refused);
    assert_eq!(limit(&refused), Some(16));
    let stats = c.send(r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("gen_shards").and_then(Json::as_u64), Some(16));
    assert_eq!(stats.get("rate_pps").and_then(Json::as_f64), Some(2000.0));

    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(drain.get("dropped_pool").and_then(Json::as_u64), Some(0));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

/// A re-arm while the pool is starved: producers keep losing packets to
/// the pool through the swap of worker sets, and not one of those losses
/// goes missing — each is booked once, on the port, which no re-arm
/// touches.
#[test]
fn dropped_never_goes_down_across_a_rearm_under_pool_starvation() {
    let daemon = TestDaemon::start("starve-rearm");
    let mut c = daemon.connect();
    assert_ok(&c.send(concat!(
        r#"{"cmd":"submit","name":"starved","rate_pps":20000,"discipline":"metronome","m":2,"seed":9,"#,
        r#""faults":[{"kind":"pool-starve","at_ms":0,"duration_ms":5000,"fraction":1.0}]}"#
    )));
    let dropped = |c: &mut Client| {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert_ok(&s);
        s.get("dropped").and_then(Json::as_u64).unwrap()
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while dropped(&mut c) == 0 {
        assert!(Instant::now() < deadline, "the starved pool never dropped");
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut prev = dropped(&mut c);
    for m in [3, 2, 4, 2] {
        assert_ok(&c.send(&format!(r#"{{"cmd":"reconfigure","m":{m}}}"#)));
        for _ in 0..5 {
            let now = dropped(&mut c);
            assert!(
                now >= prev,
                "dropped went down across re-arm to m={m}: {prev} -> {now}"
            );
            prev = now;
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert!(drain.get("dropped_pool").and_then(Json::as_u64).unwrap() > 0);
    assert!(drain.get("dropped").and_then(Json::as_u64).unwrap() >= prev);
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

/// A scenario submitted with defaults (one producer shard) widens its
/// generator live: the new shards offer onto the rings the first one
/// feeds, taking turns at each ring's producer guard.
#[test]
fn gen_shards_widens_live_on_a_default_submit() {
    let daemon = TestDaemon::start("gen-widen");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"widen","rate_pps":20000,"discipline":"interrupt","seed":5}"#,
    ));
    std::thread::sleep(Duration::from_millis(100));
    let reply = c.send(r#"{"cmd":"reconfigure","gen_shards":2}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("gen_shards").and_then(Json::as_u64), Some(2));
    std::thread::sleep(Duration::from_millis(200));

    // Every packet both generator generations offered is processed or
    // dropped once the rate is zero.
    let stats = quiesce(&mut c);
    assert_eq!(stats.get("gen_shards").and_then(Json::as_u64), Some(2));
    let offered = stats.get("offered").and_then(Json::as_u64).unwrap();
    assert!(offered > 2_000, "generator barely ran: {offered}");

    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("offered").and_then(Json::as_u64), Some(offered));
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

/// Plain HTTP/1.1 GET against the metrics listener; returns the raw
/// header block and the body.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    std::io::Read::read_to_string(&mut stream, &mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// One header's value out of a raw header block (names matched
/// case-insensitively, as HTTP requires).
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// Events of one kind across every worker of a `trace` reply's summary.
fn kind_total(reply: &Json, kind: &str) -> u64 {
    let workers = reply
        .get("summary")
        .and_then(|s| s.get("workers"))
        .and_then(Json::as_arr);
    workers
        .into_iter()
        .flatten()
        .filter_map(|w| {
            w.get("kinds")
                .and_then(|k| k.get(kind))
                .and_then(Json::as_u64)
        })
        .sum()
}

#[test]
fn trace_dump_covers_workers_and_marks_reconfigures() {
    let daemon = TestDaemon::start("trace");
    let mut c = daemon.connect();
    let submit = c.send(
        r#"{"cmd":"submit","name":"traced","rate_pps":30000,"discipline":"metronome","m":2,"seed":5}"#,
    );
    assert_ok(&submit);
    assert_eq!(
        submit.get("trace").and_then(Json::as_bool),
        Some(true),
        "tracing defaults to on"
    );

    // Let traffic flow so the recorders have something to say.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert!(
            s.get("uptime_ms").and_then(Json::as_u64).is_some(),
            "stats must carry uptime_ms: {}",
            s.render()
        );
        assert_eq!(
            s.get("exec_backend").and_then(Json::as_str),
            Some("threads"),
            "stats must carry exec_backend"
        );
        assert_eq!(
            s.get("shards").and_then(Json::as_u64),
            Some(0),
            "thread backend has no executor shards"
        );
        assert_eq!(
            s.get("gen_shards").and_then(Json::as_u64),
            Some(1),
            "stats must carry the generator shard count"
        );
        if s.get("processed").and_then(Json::as_u64).unwrap_or(0) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "no packets processed");
        std::thread::sleep(Duration::from_millis(20));
    }

    // A reconfigure stamps a control-plane marker into the recorder.
    assert_ok(&c.send(r#"{"cmd":"reconfigure","rate_pps":60000}"#));

    // The hub counts a burst the moment it happens, but a worker's recorder
    // publishes its events a batch at a time (`FLUSH_EVERY`), and a
    // rate-only reconfigure joins no worker to flush it: ask again until
    // the dump shows a burst, or the deadline passes.
    let reply = loop {
        let reply = c.send(r#"{"cmd":"trace"}"#);
        assert_ok(&reply);
        if kind_total(&reply, "burst") > 0 || Instant::now() >= deadline {
            break reply;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        reply.get("events").and_then(Json::as_u64).unwrap_or(0) > 0,
        "recorder captured nothing: {}",
        reply.render()
    );
    let chrome = reply.get("chrome").expect("chrome dump rides inline");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        assert!(
            ev.get("ph").and_then(Json::as_str).is_some(),
            "event without ph"
        );
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
    }
    let summary = reply.get("summary").expect("summary rides inline");
    assert!(summary.get("workers").and_then(Json::as_arr).is_some());
    assert!(
        kind_total(&reply, "burst") > 0,
        "processed packets but no burst events: {}",
        summary.render()
    );
    assert!(
        kind_total(&reply, "reconfigure") >= 1,
        "reconfigure marker missing: {}",
        summary.render()
    );

    // Dump-to-file: the written artifact is the same loadable document.
    let path = std::env::temp_dir().join(format!("metronomed-trace-{}.json", std::process::id()));
    let reply = c.send(&format!(r#"{{"cmd":"trace","path":"{}"}}"#, path.display()));
    assert_ok(&reply);
    assert!(reply.get("bytes").and_then(Json::as_u64).unwrap_or(0) > 0);
    let written = std::fs::read_to_string(&path).expect("trace file written");
    let doc = Json::parse(&written).expect("trace file is valid JSON");
    assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());
    let _ = std::fs::remove_file(&path);

    daemon.finish();
}

#[test]
fn trace_errors_cleanly_when_idle_or_disabled() {
    let daemon = TestDaemon::start("trace-off");
    let mut c = daemon.connect();
    // Idle: nothing to dump.
    assert_err(&c.send(r#"{"cmd":"trace"}"#));
    // Opted out at submit: a typed error, not an empty dump.
    let submit = c.send(r#"{"cmd":"submit","name":"untraced","rate_pps":5000,"trace":false}"#);
    assert_ok(&submit);
    assert_eq!(submit.get("trace").and_then(Json::as_bool), Some(false));
    assert_err(&c.send(r#"{"cmd":"trace"}"#));
    daemon.finish();
}

#[test]
fn http_pins_metrics_content_type_and_serves_healthz() {
    let daemon = TestDaemon::start("http");
    let mut c = daemon.connect();
    assert_ok(&c.send(r#"{"cmd":"submit","name":"scraped","rate_pps":20000}"#));
    std::thread::sleep(Duration::from_millis(100));
    let addr = daemon.metrics.as_ref().unwrap().addr();

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let ctype = header(&head, "Content-Type").expect("Content-Type header");
    assert!(
        ctype.starts_with("text/plain; version=0.0.4"),
        "Prometheus content type must be pinned, got {ctype:?}"
    );
    assert_eq!(
        header(&head, "Content-Length").and_then(|v| v.parse::<usize>().ok()),
        Some(body.len()),
        "Content-Length must match the body exactly"
    );
    // Tracing is on by default, so the flight-recorder histograms are
    // exposed as real histogram series.
    for series in [
        "metronome_wake_latency_seconds_bucket",
        "metronome_oversleep_seconds_sum",
        "metronome_sched_delay_seconds_count",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let health = Json::parse(body.trim()).expect("healthz is JSON");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("state").and_then(Json::as_str), Some("running"));
    assert!(health.get("uptime_ms").and_then(Json::as_u64).is_some());

    let (head, _) = http_get(addr, "/warp");
    assert!(head.starts_with("HTTP/1.1 404"), "bad status: {head}");
    daemon.finish();
}

#[test]
fn double_shutdown_is_idempotent() {
    let daemon = TestDaemon::start("double-shutdown");
    let mut c = daemon.connect();
    assert_ok(&c.send(r#"{"cmd":"submit","name":"brief","rate_pps":5000}"#));
    std::thread::sleep(Duration::from_millis(50));

    let first = c.send(r#"{"cmd":"shutdown"}"#);
    assert_ok(&first);
    assert_eq!(first.get("shutdown").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("conserved").and_then(Json::as_bool), Some(true));

    // Same connection, second shutdown: still a clean ok, not a panic,
    // not a hang, nothing double-freed (the drain is a no-op now).
    let second = c.send(r#"{"cmd":"shutdown"}"#);
    assert_ok(&second);
    assert_eq!(
        second.get("already_drained").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        second.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

#[test]
fn submit_while_running_is_rejected() {
    let daemon = TestDaemon::start("double-submit");
    let mut c = daemon.connect();
    assert_ok(&c.send(r#"{"cmd":"submit","name":"first","rate_pps":5000}"#));
    assert_err(&c.send(r#"{"cmd":"submit","name":"second","rate_pps":5000}"#));
    assert_ok(&c.send(r#"{"cmd":"drain"}"#));
    // After a drain the pipeline is free again.
    assert_ok(&c.send(r#"{"cmd":"submit","name":"third","rate_pps":5000}"#));
    daemon.finish();
}

/// One scalar series out of a live `/metrics` scrape.
fn scraped(daemon: &TestDaemon, name: &str) -> u64 {
    let (_, body) = http_get(daemon.metrics.as_ref().unwrap().addr(), "/metrics");
    let metrics = prometheus::parse(&body).expect("scrape must parse");
    let m = metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing from scrape:\n{body}"));
    m.samples[0].value as u64
}

/// Set the offered rate to zero and wait until the pipeline is quiet:
/// every offered packet processed or dropped, and `offered` no longer
/// moving. Returns the settled `stats` reply.
fn quiesce(c: &mut Client) -> Json {
    assert_ok(&c.send(r#"{"cmd":"reconfigure","rate_pps":0}"#));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut prev = u64::MAX;
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let s = c.send(r#"{"cmd":"stats"}"#);
        let get = |k: &str| s.get(k).and_then(Json::as_u64).unwrap();
        let offered = get("offered");
        if offered == prev && get("processed") + get("dropped") == offered {
            return s;
        }
        prev = offered;
        assert!(Instant::now() < deadline, "pipeline never went quiet");
    }
}

#[test]
fn generator_lateness_is_recorded_per_packet() {
    let daemon = TestDaemon::start("gen-jitter");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"lateness","rate_pps":40000,"discipline":"metronome","m":2,"seed":9}"#,
    ));
    std::thread::sleep(Duration::from_millis(300));
    let stats = quiesce(&mut c);
    let offered = stats.get("offered").and_then(Json::as_u64).unwrap();
    // ≈ 12 000 packets in 300 ms at 40 kpps; a tick-driven generator
    // would have recorded ≈ 600 lateness samples for them.
    assert!(offered > 4_000, "generator barely ran: {offered}");
    assert_eq!(
        scraped(&daemon, "metronome_gen_jitter_seconds_count"),
        offered,
        "one lateness sample per packet emitted"
    );
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    daemon.finish();
}

#[test]
fn packet_latency_survives_rearm_and_respawn_and_drains_from_rate_zero() {
    let daemon = TestDaemon::start("latency");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"latency","rate_pps":40000,"discipline":"interrupt","seed":4,"gen_shards":2}"#,
    ));
    // The histogram lives with the run, not with the worker set or the
    // generator set: both are replaced under load here. (Parked
    // interrupt workers first, so that on a 2-vCPU host the paced,
    // spinning producer shards have the cores for most of the run; the
    // racing Metronome pair oversubscribes it only for the last third.)
    for cmd in [
        r#"{"cmd":"reconfigure","gen_shards":1}"#,
        r#"{"cmd":"reconfigure","discipline":"metronome","m":2}"#,
    ] {
        std::thread::sleep(Duration::from_millis(100));
        assert_ok(&c.send(cmd));
    }
    std::thread::sleep(Duration::from_millis(100));

    let stats = quiesce(&mut c);
    let processed = stats.get("processed").and_then(Json::as_u64).unwrap();
    assert!(processed > 4_000, "pipeline barely ran: {processed}");
    assert_eq!(
        scraped(&daemon, "metronome_packet_latency_seconds_count"),
        processed,
        "one latency sample per packet processed"
    );
    let p50 = stats.get("latency_p50_us").and_then(Json::as_f64).unwrap();
    let p99 = stats.get("latency_p99_us").and_then(Json::as_f64).unwrap();
    println!("latency p50 {p50} µs, p99 {p99} µs over {processed} packets");
    assert!(p50.is_finite() && p50 < 1_000.0, "latency p50 {p50} µs");
    assert!(p99.is_finite() && p99 >= p50, "latency p99 {p99} µs");

    // Rate 0: no packet will ever be due, yet the shards still see the
    // stop flag within a tick and the drain returns at once, clean.
    let t0 = Instant::now();
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "drain from rate 0 took {:?}",
        t0.elapsed()
    );
    assert_eq!(
        drain.get("processed").and_then(Json::as_u64),
        Some(processed)
    );
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(drain.get("stranded").and_then(Json::as_u64), Some(0));
    daemon.finish();
}

/// Resident set of this process, MiB (`/proc/self/statm`, 4 KiB pages).
fn rss_mib() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: f64 = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
    pages * 4096.0 / (1 << 20) as f64
}

#[test]
fn an_absurd_rate_is_shed_and_the_drain_stays_prompt() {
    let daemon = TestDaemon::start("absurd-rate");
    let mut c = daemon.connect();
    let before = rss_mib();
    // 1e9 pps is beyond any shard: it emits batch after batch flat out
    // and sheds the rest. A generator that owed the backlog instead would
    // queue gigabytes of timestamps and hide the stop flag behind them.
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"absurd","rate_pps":1e9,"discipline":"interrupt","seed":2}"#,
    ));
    std::thread::sleep(Duration::from_millis(800));
    let grown = rss_mib() - before;
    let t0 = Instant::now();
    let drain = c.send(r#"{"cmd":"drain"}"#);
    let took = t0.elapsed();
    assert_ok(&drain);
    println!("rss +{grown:.1} MiB, drain {took:?}: {}", drain.render());
    // The pool can reach 18 MiB once overload has needed every buffer,
    // and sibling tests own one each; an owed backlog grows by hundreds
    // of MiB a second.
    assert!(grown < 128.0, "rss grew {grown:.1} MiB under overload");
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
    assert!(drain.get("offered").and_then(Json::as_u64).unwrap() > 100_000);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(drain.get("stranded").and_then(Json::as_u64), Some(0));
    daemon.finish();
}

#[test]
fn drain_right_after_a_rearm_under_load_is_prompt_and_clean() {
    let daemon = TestDaemon::start("rearm-drain");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"rearm-drain","rate_pps":40000,"discipline":"interrupt","seed":6}"#,
    ));
    std::thread::sleep(Duration::from_millis(150));
    // The fresh hub starts at zero while the port's counts carry on, and
    // packets are in flight on both sides of the swap: the drain must
    // wait for the rings, not for the live hub to catch the port up.
    assert_ok(&c.send(r#"{"cmd":"reconfigure","discipline":"metronome","m":2}"#));
    let t0 = Instant::now();
    let drain = c.send(r#"{"cmd":"drain"}"#);
    let took = t0.elapsed();
    assert_ok(&drain);
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
    assert!(drain.get("processed").and_then(Json::as_u64).unwrap() > 2_000);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(drain.get("stranded").and_then(Json::as_u64), Some(0));
    daemon.finish();
}

#[test]
fn rearm_into_interrupt_keeps_delivering() {
    let daemon = TestDaemon::start("rearm-into-interrupt");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"into-interrupt","rate_pps":40000,"discipline":"metronome","m":2,"seed":8}"#,
    ));
    let processed = |c: &mut Client| {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert_ok(&s);
        s.get("processed").and_then(Json::as_u64).unwrap()
    };
    // Wait for `processed` to pass `floor`: only the workers move it.
    let rises_past = |c: &mut Client, floor: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = processed(c);
            if now > floor {
                return now;
            }
            assert!(Instant::now() < deadline, "processed stuck at {now}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    let before = rises_past(&mut c, 0);

    // The parked discipline is the one whose traffic the re-pointed
    // doorbell slots carry: a slot left on the retired set would leave
    // the new workers parked while the rings fill.
    let reply = c.send(r#"{"cmd":"reconfigure","discipline":"interrupt"}"#);
    assert_ok(&reply);
    assert_eq!(
        reply.get("discipline").and_then(Json::as_str),
        Some("interrupt")
    );
    let after = rises_past(&mut c, before);
    rises_past(&mut c, after);

    let t0 = Instant::now();
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "drain took {:?}",
        t0.elapsed()
    );
    assert_eq!(drain.get("stranded").and_then(Json::as_u64), Some(0));
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

#[test]
fn a_stalled_set_rearms_and_drains_without_waiting_out_the_stall() {
    let daemon = TestDaemon::with_queues("stall-release", 1);
    let mut c = daemon.connect();
    assert_ok(&c.send(concat!(
        r#"{"cmd":"submit","name":"stalled","rate_pps":20000,"discipline":"metronome","m":2,"seed":12,"#,
        r#""faults":[{"kind":"queue-stall","at_ms":0,"duration_ms":5000}]}"#
    )));
    // The stall is up and the ring has backed up behind the napping
    // workers: a tail-drop is the proof that nobody retrieves.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert_ok(&s);
        let stalled = s.get("stalled").and_then(Json::as_bool) == Some(true);
        if stalled && s.get("dropped_ring").and_then(Json::as_u64).unwrap_or(0) > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the stall never backed the ring up"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Re-arm inside the window: the retiring set falls through its nap
    // instead of joining 5 s from now; the fresh set naps in its turn.
    let t0 = Instant::now();
    let reply = c.send(r#"{"cmd":"reconfigure","m":1}"#);
    let took = t0.elapsed();
    assert_ok(&reply);
    assert!(took < Duration::from_secs(1), "re-arm took {took:?}");
    assert_eq!(reply.get("m").and_then(Json::as_u64), Some(1));
    let s = c.send(r#"{"cmd":"stats"}"#);
    assert_eq!(s.get("stalled").and_then(Json::as_bool), Some(true));

    // Drain inside the window: prompt, every packet accounted, pool whole.
    let t0 = Instant::now();
    let drain = c.send(r#"{"cmd":"drain"}"#);
    let took = t0.elapsed();
    assert_ok(&drain);
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(drain.get("dropped_fault").and_then(Json::as_u64), Some(0));
    daemon.finish();
}
