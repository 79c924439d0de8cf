//! The `metronomed` control-socket wire protocol: line-delimited JSON.
//!
//! Every request is one JSON object on one line, dispatched on its
//! `"cmd"` field; every reply is one JSON object on one line carrying
//! `"ok": true` plus command-specific fields, or `"ok": false` with an
//! `"error"` string. Parsing goes through the telemetry crate's
//! hand-rolled [`Json`] reader (the vendored build has no serde), and a
//! malformed request is a **typed error reply, never a panic** — the
//! daemon must outlive hostile input on its socket.
//!
//! Commands:
//!
//! | `cmd`         | fields                                                        | effect |
//! |---------------|---------------------------------------------------------------|--------|
//! | `ping`        | —                                                             | liveness probe; replies with the engine state |
//! | `submit`      | `name`, `rate_pps`, `discipline`, `m?`, `seed?`, `faults?`, `exec?`, `shards?`, `ring_path?`, `trace?`, `gen_shards?` | start a scenario on the persistent pipeline |
//! | `reconfigure` | any of `rate_pps`, `discipline`, `m`, `exec` (+ `shards`), `gen_shards` | live-adjust the running scenario (no restart) |
//! | `stats`       | —                                                             | cumulative counters (monotone across reconfigures) |
//! | `trace`       | `path?`                                                       | dump the flight recorder: summary inline, Chrome trace JSON inline or to `path` |
//! | `drain`       | —                                                             | stop generating, drain rings, audit the pool; stay up |
//! | `shutdown`    | —                                                             | drain (if running) and exit; idempotent |
//!
//! `exec` selects the worker backend: `"threads"` (one OS thread per
//! worker, the default) or `"async"` (cooperative tasks on `shards`
//! executor threads, default 1). `ring_path` selects the Rx ring
//! transport, one of two values (`"spsc"` default, `"mpsc"`), and is
//! **submit-only**: the port persists across re-arms, so a
//! `reconfigure` naming `ring_path` is a typed error — drain and submit
//! a new scenario instead.
//!
//! `trace` (the submit field) arms the flight recorder: per-worker
//! event rings plus wake-latency/oversleep/scheduler-delay histograms.
//! It defaults to **on** (`"trace": false` opts out) — the rings are
//! fixed-capacity and the record path is allocation-free, so an armed
//! recorder costs a few nanoseconds per event, and a daemon you cannot
//! ask "what just happened?" is not much of a daemon. The `trace`
//! *command* reads it back: a summary object inline, plus the full
//! Chrome trace-event JSON either inline (no `path`) or written to
//! `path` (load it in `chrome://tracing` or Perfetto).
//!
//! Fault events (in `submit`'s `"faults"` array) mirror
//! [`metronome_traffic::FaultKind`]:
//!
//! ```json
//! {"kind": "rate-spike",   "at_ms": 100, "duration_ms": 50, "factor": 2.5}
//! {"kind": "queue-stall",  "at_ms": 200, "duration_ms": 30}
//! {"kind": "pool-starve",  "at_ms": 300, "duration_ms": 40, "fraction": 0.5}
//! {"kind": "jitter-burst", "at_ms": 400, "duration_ms": 50, "drop_prob": 0.2}
//! ```

use metronome_core::discipline::{DisciplineSpec, ModerationConfig};
use metronome_core::ExecBackend;
use metronome_dpdk::shared_ring::RingPath;
use metronome_sim::Nanos;
use metronome_telemetry::Json;
use metronome_traffic::{FaultKind, FaultPlan};

/// Default offered rate when `submit` does not name one (packets/s).
pub const DEFAULT_RATE_PPS: f64 = 50_000.0;

/// A parsed `submit` command: everything the engine needs to start a
/// scenario on its persistent pipeline.
#[derive(Clone, Debug)]
pub struct SubmitSpec {
    /// Scenario label (echoed in stats and reports).
    pub name: String,
    /// Offered rate, packets per second.
    pub rate_pps: f64,
    /// Retrieval discipline to arm.
    pub discipline: DisciplineSpec,
    /// Metronome thread count `M` (ignored by the 1:1 baselines).
    pub m_threads: usize,
    /// Seed for the generator's flow population and fault coin flips.
    pub seed: u64,
    /// Scheduled fault events (empty plan = clean run).
    pub faults: FaultPlan,
    /// Worker execution backend (OS threads or the sharded async
    /// executor).
    pub exec: ExecBackend,
    /// Rx ring synchronization path for the scenario's port.
    pub ring_path: RingPath,
    /// Arm the flight recorder (per-worker trace rings + latency
    /// histograms). Defaults to true; `"trace": false` opts out.
    pub trace: bool,
    /// Producer shard count for the load generator (`1` = the classic
    /// single generator thread). Shards split the flow population and
    /// produce concurrently onto the port's Rx rings.
    pub gen_shards: usize,
}

/// A parsed `reconfigure` command: each `Some` field is applied to the
/// running scenario, everything else is left as it is.
#[derive(Clone, Debug, Default)]
pub struct ReconfigureSpec {
    /// New offered rate, packets per second.
    pub rate_pps: Option<f64>,
    /// New retrieval discipline (re-arms the worker set).
    pub discipline: Option<DisciplineSpec>,
    /// New Metronome thread count `M` (re-arms the worker set).
    pub m_threads: Option<usize>,
    /// New execution backend (re-arms the worker set). `ring_path` has
    /// no such field on purpose: the port outlives re-arms.
    pub exec: Option<ExecBackend>,
    /// New producer shard count (re-arms the generator set).
    pub gen_shards: Option<usize>,
}

/// One parsed control request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Start a scenario.
    Submit(SubmitSpec),
    /// Live-adjust the running scenario.
    Reconfigure(ReconfigureSpec),
    /// Read cumulative counters.
    Stats,
    /// Dump the flight recorder (summary + Chrome trace JSON, written
    /// to the given path when one is named).
    Trace {
        /// Where to write the Chrome trace-event JSON; `None` returns
        /// it inline in the reply.
        path: Option<String>,
    },
    /// Stop generating, drain, audit; stay up.
    Drain,
    /// Drain and exit.
    Shutdown,
}

impl Request {
    /// Parse one request line. Every malformed input — bad JSON, missing
    /// or mistyped fields, out-of-range fault parameters — comes back as
    /// `Err(message)` for the server to wrap in an error reply; nothing
    /// in here panics.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if doc.as_obj().is_none() {
            return Err("request must be a JSON object".into());
        }
        let cmd = doc
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing string field \"cmd\"")?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "trace" => parse_trace(&doc),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => parse_submit(&doc),
            "reconfigure" => parse_reconfigure(&doc),
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

fn field_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing number field {key:?}"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing non-negative integer field {key:?}"))
}

/// A wire duration field, `value` in units of `unit` nanoseconds, as
/// [`Nanos`] — or, past what `Nanos` holds, an error naming the field
/// and the largest value it accepts (never an overflow).
fn to_nanos(key: &str, value: u64, unit: Nanos) -> Result<Nanos, String> {
    let unit = unit.as_nanos();
    value
        .checked_mul(unit)
        .map(Nanos)
        .ok_or(format!("{key:?} must be at most {}", u64::MAX / unit))
}

/// The `discipline` field (plus the `period_us` field `const-sleep`
/// requires), by its [`DisciplineSpec::label`].
fn parse_discipline(doc: &Json) -> Result<Option<DisciplineSpec>, String> {
    let Some(label) = doc.get("discipline").and_then(Json::as_str) else {
        return Ok(None);
    };
    let spec = match label {
        "metronome" => DisciplineSpec::Metronome,
        "busy-poll" => DisciplineSpec::BusyPoll,
        "interrupt" => DisciplineSpec::InterruptLike(ModerationConfig::default()),
        "const-sleep" => {
            let us = doc
                .get("period_us")
                .and_then(Json::as_u64)
                .ok_or("const-sleep needs \"period_us\"")?;
            if us == 0 {
                return Err("const-sleep period must be positive".into());
            }
            DisciplineSpec::ConstSleep(to_nanos("period_us", us, Nanos::from_micros(1))?)
        }
        other => {
            return Err(format!(
                "unknown discipline {other:?} (expected metronome, busy-poll, interrupt, or const-sleep)"
            ))
        }
    };
    Ok(Some(spec))
}

/// Parse the `exec` / `shards` pair into a backend choice. `shards`
/// without `"exec": "async"` is an error — it would silently do nothing.
fn parse_exec(doc: &Json) -> Result<Option<ExecBackend>, String> {
    let shards = match doc.get("shards") {
        None => None,
        Some(v) => {
            let s = v.as_u64().ok_or("\"shards\" must be a positive integer")? as usize;
            if s == 0 {
                return Err("\"shards\" must be positive".into());
            }
            Some(s)
        }
    };
    match doc.get("exec").and_then(Json::as_str) {
        None => match shards {
            None => Ok(None),
            Some(_) => Err("\"shards\" requires \"exec\": \"async\"".into()),
        },
        Some("threads") => match shards {
            None => Ok(Some(ExecBackend::Threads)),
            Some(_) => Err("\"shards\" requires \"exec\": \"async\"".into()),
        },
        Some("async") => Ok(Some(ExecBackend::Async {
            shards: shards.unwrap_or(1),
        })),
        Some(other) => Err(format!(
            "unknown exec backend {other:?} (expected threads or async)"
        )),
    }
}

/// Parse the optional `gen_shards` field: a positive integer, `0`
/// rejected (a generator with zero producers cannot offer anything).
fn parse_gen_shards(doc: &Json) -> Result<Option<usize>, String> {
    match doc.get("gen_shards") {
        None => Ok(None),
        Some(v) => {
            let g = v
                .as_u64()
                .ok_or("\"gen_shards\" must be a positive integer")? as usize;
            if g == 0 {
                return Err("\"gen_shards\" must be positive".into());
            }
            Ok(Some(g))
        }
    }
}

fn parse_ring_path(doc: &Json) -> Result<Option<RingPath>, String> {
    match doc.get("ring_path").and_then(Json::as_str) {
        None => match doc.get("ring_path") {
            None => Ok(None),
            Some(_) => Err("\"ring_path\" must be a string".into()),
        },
        Some("spsc") => Ok(Some(RingPath::Spsc)),
        Some("mpsc") => Ok(Some(RingPath::Mpsc)),
        Some(other) => Err(format!(
            "unknown ring path {other:?} (expected \"spsc\" or \"mpsc\")"
        )),
    }
}

fn parse_trace(doc: &Json) -> Result<Request, String> {
    let path = match doc.get("path") {
        None => None,
        Some(v) => Some(v.as_str().ok_or("\"path\" must be a string")?.to_string()),
    };
    Ok(Request::Trace { path })
}

fn parse_submit(doc: &Json) -> Result<Request, String> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("unnamed")
        .to_string();
    let rate_pps = match doc.get("rate_pps") {
        None => DEFAULT_RATE_PPS,
        Some(v) => v.as_f64().ok_or("\"rate_pps\" must be a number")?,
    };
    if !rate_pps.is_finite() || rate_pps < 0.0 {
        return Err("\"rate_pps\" must be finite and non-negative".into());
    }
    let discipline = parse_discipline(doc)?.unwrap_or(DisciplineSpec::Metronome);
    let m_threads = match doc.get("m") {
        None => 0, // engine default: max(n_queues, 1) for Metronome
        Some(v) => v.as_u64().ok_or("\"m\" must be a non-negative integer")? as usize,
    };
    let seed = match doc.get("seed") {
        None => 1,
        Some(v) => v
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?,
    };
    let faults = parse_faults(doc)?;
    let exec = parse_exec(doc)?.unwrap_or_default();
    let ring_path = parse_ring_path(doc)?.unwrap_or_default();
    let trace = match doc.get("trace") {
        None => true,
        Some(v) => v.as_bool().ok_or("\"trace\" must be a boolean")?,
    };
    let gen_shards = parse_gen_shards(doc)?.unwrap_or(1);
    Ok(Request::Submit(SubmitSpec {
        name,
        rate_pps,
        discipline,
        m_threads,
        seed,
        faults,
        exec,
        ring_path,
        trace,
        gen_shards,
    }))
}

fn parse_reconfigure(doc: &Json) -> Result<Request, String> {
    let rate_pps = match doc.get("rate_pps") {
        None => None,
        Some(v) => {
            let r = v.as_f64().ok_or("\"rate_pps\" must be a number")?;
            if !r.is_finite() || r < 0.0 {
                return Err("\"rate_pps\" must be finite and non-negative".into());
            }
            Some(r)
        }
    };
    let m_threads = match doc.get("m") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("\"m\" must be a non-negative integer")? as usize),
    };
    if doc.get("ring_path").is_some() {
        return Err(
            "\"ring_path\" cannot change on reconfigure (the port persists across re-arms); \
             drain and submit a new scenario"
                .into(),
        );
    }
    let spec = ReconfigureSpec {
        rate_pps,
        discipline: parse_discipline(doc)?,
        m_threads,
        exec: parse_exec(doc)?,
        gen_shards: parse_gen_shards(doc)?,
    };
    if spec.rate_pps.is_none()
        && spec.discipline.is_none()
        && spec.m_threads.is_none()
        && spec.exec.is_none()
        && spec.gen_shards.is_none()
    {
        return Err(
            "reconfigure needs at least one of \"rate_pps\", \"discipline\", \"m\", \"exec\", \
             \"gen_shards\""
                .into(),
        );
    }
    Ok(Request::Reconfigure(spec))
}

/// Parse the `"faults"` array into a [`FaultPlan`], validating every
/// parameter *before* it reaches `FaultPlan::push` (which asserts).
fn parse_faults(doc: &Json) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    let Some(list) = doc.get("faults") else {
        return Ok(plan);
    };
    let arr = list.as_arr().ok_or("\"faults\" must be an array")?;
    for (i, ev) in arr.iter().enumerate() {
        let ctx = |msg: String| format!("fault #{i}: {msg}");
        let label = ev
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string field \"kind\"".into()))?;
        let ms = |key| field_u64(ev, key).and_then(|v| to_nanos(key, v, Nanos::from_millis(1)));
        let at = ms("at_ms").map_err(&ctx)?;
        let duration = ms("duration_ms").map_err(&ctx)?;
        if duration.is_zero() {
            return Err(ctx("\"duration_ms\" must be positive".into()));
        }
        let kind = match label {
            "rate-spike" => {
                let factor = field_f64(ev, "factor").map_err(&ctx)?;
                if !factor.is_finite() || factor < 0.0 {
                    return Err(ctx("\"factor\" must be finite and non-negative".into()));
                }
                FaultKind::RateSpike { factor }
            }
            "queue-stall" => FaultKind::QueueStall,
            "pool-starve" => {
                let fraction = field_f64(ev, "fraction").map_err(&ctx)?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(ctx("\"fraction\" must be in [0, 1]".into()));
                }
                FaultKind::PoolStarve { fraction }
            }
            "jitter-burst" => {
                let drop_prob = field_f64(ev, "drop_prob").map_err(&ctx)?;
                if !(0.0..=1.0).contains(&drop_prob) {
                    return Err(ctx("\"drop_prob\" must be in [0, 1]".into()));
                }
                let jitter = ev.get("jitter_us").and_then(Json::as_u64).unwrap_or(0);
                FaultKind::JitterBurst {
                    jitter: to_nanos("jitter_us", jitter, Nanos::from_micros(1)).map_err(&ctx)?,
                    drop_prob,
                }
            }
            other => return Err(ctx(format!("unknown fault kind {other:?}"))),
        };
        plan.push(at, duration, kind);
    }
    Ok(plan)
}

/// A success reply skeleton; append command fields with `.with(...)`.
pub fn ok() -> Json {
    Json::obj().with("ok", true)
}

/// A typed error reply.
pub fn err(message: impl Into<String>) -> Json {
    Json::obj().with("ok", false).with("error", message.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_commands() {
        assert!(matches!(
            Request::parse(r#"{"cmd":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"drain"}"#),
            Ok(Request::Drain)
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn parses_submit_with_faults() {
        let line = r#"{"cmd":"submit","name":"soak","rate_pps":200000,"discipline":"metronome","m":3,"seed":7,
            "faults":[{"kind":"rate-spike","at_ms":100,"duration_ms":50,"factor":2.0},
                      {"kind":"queue-stall","at_ms":200,"duration_ms":30},
                      {"kind":"pool-starve","at_ms":300,"duration_ms":40,"fraction":0.5},
                      {"kind":"jitter-burst","at_ms":400,"duration_ms":50,"drop_prob":0.2,"jitter_us":20}]}"#
            .replace('\n', " ");
        let Ok(Request::Submit(spec)) = Request::parse(&line) else {
            panic!("submit did not parse");
        };
        assert_eq!(spec.name, "soak");
        assert_eq!(spec.rate_pps, 200_000.0);
        assert!(matches!(spec.discipline, DisciplineSpec::Metronome));
        assert_eq!(spec.m_threads, 3);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.faults.len(), 4);
        assert_eq!(spec.faults.distinct_kinds(), 4);
        assert_eq!(spec.exec, ExecBackend::Threads, "threads is the default");
        assert_eq!(spec.ring_path, RingPath::Spsc, "spsc is the default");
        assert!(spec.trace, "tracing defaults to on");
        assert_eq!(spec.gen_shards, 1, "single generator is the default");
    }

    #[test]
    fn parses_gen_shards_on_submit_and_reconfigure() {
        let Ok(Request::Submit(spec)) =
            Request::parse(r#"{"cmd":"submit","gen_shards":4,"ring_path":"mpsc"}"#)
        else {
            panic!("submit did not parse");
        };
        assert_eq!(spec.gen_shards, 4);

        let Ok(Request::Reconfigure(spec)) =
            Request::parse(r#"{"cmd":"reconfigure","gen_shards":2}"#)
        else {
            panic!("reconfigure did not parse");
        };
        assert_eq!(spec.gen_shards, Some(2));
        assert!(spec.rate_pps.is_none() && spec.exec.is_none());
    }

    #[test]
    fn parses_trace_command_and_submit_opt_out() {
        assert!(matches!(
            Request::parse(r#"{"cmd":"trace"}"#),
            Ok(Request::Trace { path: None })
        ));
        let Ok(Request::Trace { path: Some(p) }) =
            Request::parse(r#"{"cmd":"trace","path":"/tmp/t.json"}"#)
        else {
            panic!("trace with path did not parse");
        };
        assert_eq!(p, "/tmp/t.json");

        let Ok(Request::Submit(spec)) = Request::parse(r#"{"cmd":"submit","trace":false}"#) else {
            panic!("submit did not parse");
        };
        assert!(!spec.trace, "explicit opt-out respected");
    }

    #[test]
    fn parses_exec_and_ring_path_on_submit() {
        let Ok(Request::Submit(spec)) =
            Request::parse(r#"{"cmd":"submit","exec":"async","shards":2,"ring_path":"mpsc"}"#)
        else {
            panic!("submit did not parse");
        };
        assert_eq!(spec.exec, ExecBackend::Async { shards: 2 });
        assert_eq!(spec.ring_path, RingPath::Mpsc);

        let Ok(Request::Submit(spec)) =
            Request::parse(r#"{"cmd":"submit","exec":"async","ring_path":"spsc"}"#)
        else {
            panic!("submit did not parse");
        };
        assert_eq!(
            spec.exec,
            ExecBackend::Async { shards: 1 },
            "shards default 1"
        );
        assert_eq!(spec.ring_path, RingPath::Spsc);

        let Ok(Request::Reconfigure(spec)) =
            Request::parse(r#"{"cmd":"reconfigure","exec":"threads"}"#)
        else {
            panic!("reconfigure did not parse");
        };
        assert_eq!(spec.exec, Some(ExecBackend::Threads));
    }

    #[test]
    fn ring_path_on_reconfigure_is_a_typed_error() {
        let err = Request::parse(r#"{"cmd":"reconfigure","ring_path":"mpsc"}"#).unwrap_err();
        assert!(err.contains("drain and submit"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_ring_path_error_lists_the_two_transports() {
        for gone in ["locked", "quantum"] {
            let err =
                Request::parse(&format!(r#"{{"cmd":"submit","ring_path":"{gone}"}}"#)).unwrap_err();
            assert!(
                err.contains(gone) && err.contains("\"spsc\"") && err.contains("\"mpsc\""),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"cmd":42}"#,
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"submit","rate_pps":"fast"}"#,
            r#"{"cmd":"submit","rate_pps":-1}"#,
            r#"{"cmd":"submit","discipline":"psychic"}"#,
            r#"{"cmd":"submit","discipline":"const-sleep"}"#,
            r#"{"cmd":"submit","faults":{}}"#,
            r#"{"cmd":"submit","faults":[{"kind":"rate-spike","at_ms":1,"duration_ms":1}]}"#,
            r#"{"cmd":"submit","faults":[{"kind":"rate-spike","at_ms":1,"duration_ms":1,"factor":-2}]}"#,
            r#"{"cmd":"submit","faults":[{"kind":"pool-starve","at_ms":1,"duration_ms":1,"fraction":1.5}]}"#,
            r#"{"cmd":"submit","faults":[{"kind":"jitter-burst","at_ms":1,"duration_ms":1,"drop_prob":2}]}"#,
            r#"{"cmd":"submit","faults":[{"kind":"gamma-ray","at_ms":1,"duration_ms":1}]}"#,
            r#"{"cmd":"reconfigure"}"#,
            r#"{"cmd":"reconfigure","m":-3}"#,
            r#"{"cmd":"submit","exec":"fibers"}"#,
            r#"{"cmd":"submit","exec":"async","shards":0}"#,
            r#"{"cmd":"submit","shards":2}"#,
            r#"{"cmd":"submit","exec":"threads","shards":2}"#,
            r#"{"cmd":"submit","gen_shards":0}"#,
            r#"{"cmd":"submit","gen_shards":"many"}"#,
            r#"{"cmd":"reconfigure","gen_shards":0}"#,
            r#"{"cmd":"submit","ring_path":"quantum"}"#,
            r#"{"cmd":"submit","ring_path":"locked"}"#,
            r#"{"cmd":"submit","ring_path":7}"#,
            r#"{"cmd":"reconfigure","ring_path":"mpsc"}"#,
            r#"{"cmd":"submit","trace":"yes"}"#,
            r#"{"cmd":"trace","path":42}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn wire_durations_stop_at_the_largest_nanos() {
        let (max_us, max_ms) = (u64::MAX / 1_000, u64::MAX / 1_000_000);
        for (field, line, max) in [
            (
                "period_us",
                r#"{"cmd":"submit","discipline":"const-sleep","period_us":V}"#,
                max_us,
            ),
            (
                "at_ms",
                r#"{"cmd":"submit","faults":[{"kind":"queue-stall","at_ms":V,"duration_ms":1}]}"#,
                max_ms,
            ),
            (
                "duration_ms",
                r#"{"cmd":"submit","faults":[{"kind":"queue-stall","at_ms":1,"duration_ms":V}]}"#,
                max_ms,
            ),
            (
                "jitter_us",
                r#"{"cmd":"submit","faults":[{"kind":"jitter-burst","at_ms":1,"duration_ms":1,"drop_prob":0.1,"jitter_us":V}]}"#,
                max_us,
            ),
        ] {
            let parse = |v: u64| Request::parse(&line.replace('V', &v.to_string()));
            assert!(parse(max).is_ok(), "{field} = {max} rejected");
            for over in [max + 1, u64::MAX] {
                let err = parse(over).unwrap_err();
                assert!(
                    err.contains(field) && err.contains(&max.to_string()),
                    "{field} = {over}: {err}"
                );
            }
        }
    }

    #[test]
    fn error_reply_renders_ok_false() {
        let reply = err("boom").render();
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("boom"));
    }
}
